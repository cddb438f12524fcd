"""JSON and CSV encodings for matrices, measurements and reports.

A complex matrix is encoded as {"rows": r, "cols": c, "data": [[re, im],
...]} with the entries row-major. In memory ``data`` is a float array of
shape (rows * cols, 2); on disk it is that list of pairs.

JSON output is defined as the bytes of ``json.dumps(obj, sort_keys=True,
indent=2)`` plus a newline, with every array rendered as its ``tolist()``.
``iterdumps`` yields exactly those bytes in one pass, piece by piece in the
order they are laid out, so a writer holds one matrix payload at a time;
``dumps`` joins the pieces. A matrix payload is laid out in bulk: each
distinct [re, im] pair is formatted once and the indented pairs are joined
into one piece by one ``str.join``. Dicts, lists and scalars keep json's
own rendering.
CSV output uses 17 significant digits, '.' decimals and LF line endings so
doubles round-trip losslessly.
"""

from __future__ import annotations

import json
from collections.abc import Iterator

import numpy as np

from .disturbance import DisturbanceReport
from .frontier import FrontierPoint
from .galois import MubSet
from .information import InfoReport
from .measurement import POVM


def matrix_to_json(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "data": np.stack([a.real.ravel(), a.imag.ravel()], axis=1),
    }


def _size(value) -> int:
    """A size read from JSON as an int: ValueError for anything but an int or
    a whole float of at least 1, so for a boolean, a string, a fraction, an
    infinity (json reads 1e400 as inf), a NaN, zero or a negative number."""
    whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole or value < 1:
        raise ValueError(f"sizes must be whole numbers of at least 1, got {value!r}")
    return int(value)


def matrix_from_json(obj: dict) -> np.ndarray:
    rows, cols = _size(obj["rows"]), _size(obj["cols"])
    data = obj["data"]
    if len(data) != rows * cols:
        raise ValueError(f"matrix data length {len(data)} does not equal rows*cols = {rows * cols}")
    pairs = np.asarray(data)
    if pairs.dtype.kind not in "iuf":  # booleans, strings, null and mixed entries
        raise TypeError(f"matrix entries must be numbers, got {pairs.dtype}")
    if pairs.shape != (rows * cols, 2):
        raise ValueError("matrix entries must be [re, im] pairs")
    pairs = np.ascontiguousarray(pairs, dtype=float)
    if not np.all(np.isfinite(pairs)):
        raise ValueError("matrix entries must be finite")
    return pairs.view(complex).reshape(rows, cols)


def povm_to_json(povm: POVM) -> dict:
    return {"dim": povm.dim, "effects": [matrix_to_json(e) for e in povm.effects]}


def povm_from_json(obj: dict) -> POVM:
    effects = tuple(matrix_from_json(e) for e in obj["effects"])  # first, so its error wins when dim is bad too
    return POVM(_size(obj["dim"]), effects)


def mubset_to_json(mub: MubSet, p: int, n: int) -> dict:
    return {"d": mub.d, "bases": [matrix_to_json(b) for b in mub.bases], "p": p, "n": n}


def mubset_from_json(obj: dict) -> MubSet:
    return MubSet(_size(obj["d"]), tuple(matrix_from_json(b) for b in obj["bases"]))


def report_to_json(report: DisturbanceReport | InfoReport) -> dict:
    return report._asdict()


def frontier_to_json(points: list[FrontierPoint]) -> list[dict]:
    return [pt._asdict() for pt in points]


def _write_pairs(pairs: np.ndarray, pad: str) -> Iterator[str]:
    """Yield an (n, 2) float array as json's indented list of [re, im] pairs."""
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype != float:
        raise TypeError(f"cannot encode an array of shape {pairs.shape} and dtype {pairs.dtype}")
    if not len(pairs):
        yield "[]"
        return
    # one text per distinct pair of bit patterns, so -0.0 and each NaN stay apart
    bits, parts = np.unique(np.ascontiguousarray(pairs).view(np.int64), return_inverse=True)
    parts = parts.reshape(-1, 2)
    m = len(bits)
    keys, where = np.unique(parts[:, 0] * m + parts[:, 1], return_inverse=True)
    texts = [json.dumps(x) for x in bits.view(float).tolist()]
    inner, entry = pad + "  ", pad + "    "
    pair = np.array([f"{texts[k // m]},\n{entry}{texts[k % m]}" for k in keys.tolist()], dtype=object)
    yield f"[\n{inner}[\n{entry}"
    yield f"\n{inner}],\n{inner}[\n{entry}".join(pair[where].tolist())
    yield f"\n{inner}]\n{pad}]"


def _write(obj, pad: str) -> Iterator[str]:
    """Yield ``obj`` as json writes it ``pad`` deep. A subtree json can
    encode is json's own text, re-indented (JSON strings hold no raw
    newline); json cannot encode arrays, so a container holding one is laid
    out here."""
    if isinstance(obj, np.ndarray):
        yield from _write_pairs(obj, pad)
        return
    if not isinstance(obj, (dict, list, tuple)):
        yield json.dumps(obj)  # a scalar's text does not depend on its depth
        return
    try:
        text = json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + pad)
    except TypeError:
        pass
    else:
        yield text
        return
    if isinstance(obj, dict):
        items, brackets = [], "{}"
        for key, value in sorted(obj.items()):
            if not isinstance(key, (str, int, float)) and key is not None:
                raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
            # json spells a non-string key as the string of its JSON text
            items.append((json.dumps(key if isinstance(key, str) else json.dumps(key)) + ": ", value))
    else:
        items, brackets = [("", value) for value in obj], "[]"
    yield brackets[0]
    for i, (name, value) in enumerate(items):
        yield f"{',' if i else ''}\n{pad}  {name}"
        yield from _write(value, pad + "  ")
    yield f"\n{pad}{brackets[1]}"


def iterdumps(obj) -> Iterator[str]:
    """Yield the text of ``dumps(obj)`` piece by piece, in the order it is
    laid out, so a writer holds one matrix payload at a time."""
    yield from _write(obj, "")
    yield "\n"


def dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline, byte for
    byte, with matrix payloads (float arrays) written in bulk: the pieces of
    ``iterdumps`` joined. The CLI writes the pieces as they come instead."""
    return "".join(iterdumps(obj))


def frontier_to_csv(points: list[FrontierPoint]) -> str:
    lines = ["p,disturbance,info_lb_nats,line_info_nats"]
    for pt in points:
        lines.append(f"{pt.p:.17g},{pt.disturbance:.17g},{pt.info_lower_bound:.17g},{pt.line_info:.17g}")
    return "\n".join(lines) + "\n"
