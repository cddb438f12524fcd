"""Span tracing of the infodist layers from outside the package.

Every public function defined in one of the traced modules is wrapped at
each place its name is bound in an ``infodist`` module namespace, so calls
made through ``from .linalg import gen_inv_sqrt`` and calls inside the
defining module are both seen. Nothing under ``src/`` is modified: the
wrappers are installed into a freshly imported copy of the package.

A span is ``[name, start, end, parent, op, error, nbytes]``. Spans stay in
memory and are written out once, after the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("linalg", "measurement", "disturbance", "information", "galois", "frontier", "serialize", "cli")

NAME, START, END, PARENT, OP, ERROR, NBYTES = range(7)


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.op = ""
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        serializer = name.startswith("serialize.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op, False, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = perf_counter()
                self._stack.pop()
            if serializer and isinstance(out, str):
                span[NBYTES] = len(out.encode("utf-8"))
            return out

        return traced

    def instrument(self) -> None:
        """Wrap the public functions of LAYERS in the currently imported
        ``infodist`` modules."""
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"infodist.{layer}"]
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets[id(obj)] = (f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "infodist" and not modname.startswith("infodist."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets:
                    setattr(mod, attr, self.wrap(*targets[id(obj)]))

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _has_ancestor(spans: list[list], i: int, name: str) -> bool:
    j = spans[i][PARENT]
    while j >= 0:
        if spans[j][NAME] == name:
            return True
        j = spans[j][PARENT]
    return False


def summarize(spans: list[list]) -> dict:
    """Per-function and per-layer totals of one repetition's spans.

    Self time is a span's duration minus the durations of its direct
    children; children never overlap in this single-threaded program, so
    that is the time their union covers. Inclusive time ``s`` skips spans
    nested inside a span of the same name, so recursion is not counted
    twice.
    """
    child = [0.0] * len(spans)
    for sp in spans:
        if sp[PARENT] >= 0:
            child[sp[PARENT]] += sp[END] - sp[START]
    fns: dict[str, dict] = {}
    layers = {layer: {"calls": 0, "self_s": 0.0, "errors": 0} for layer in LAYERS}
    bytes_out = 0
    for i, sp in enumerate(spans):
        dur = sp[END] - sp[START]
        f = fns.setdefault(sp[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
        f["calls"] += 1
        f["self_s"] += dur - child[i]
        if not _has_ancestor(spans, i, sp[NAME]):
            f["s"] += dur
        layer = layers[sp[NAME].split(".", 1)[0]]
        layer["calls"] += 1
        layer["self_s"] += dur - child[i]
        layer["errors"] += int(sp[ERROR])
        bytes_out += sp[NBYTES]
    steps = sum(
        1
        for i, sp in enumerate(spans)
        if sp[NAME] == "linalg.gen_inv_sqrt" and _has_ancestor(spans, i, "frontier.accessible_info_lb")
    )
    return {"functions": fns, "layers": layers, "bytes_out": bytes_out, "steps": steps}


def write_jsonl(path, reps: list[list[list]], t0: float) -> None:
    """One JSON object per span; ``rep`` and ``id`` make ``parent`` unique."""
    with open(path, "w", encoding="utf-8") as fh:
        for rep, spans in enumerate(reps):
            for i, sp in enumerate(spans):
                fh.write(
                    json.dumps(
                        {
                            "rep": rep,
                            "id": i,
                            "name": sp[NAME],
                            "start": sp[START] - t0,
                            "end": sp[END] - t0,
                            "parent": sp[PARENT],
                            "op": sp[OP],
                            "error": sp[ERROR],
                        }
                    )
                    + "\n"
                )
