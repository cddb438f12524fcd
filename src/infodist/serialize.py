"""JSON and CSV encodings for matrices, measurements and reports.

A complex matrix is encoded as {"rows": r, "cols": c, "data": [[re, im],
...]} with the entries row-major. In memory ``data`` is a float array of
shape (rows * cols, 2); on disk it is that list of pairs.

JSON output is defined as the bytes of ``json.dumps(obj, sort_keys=True,
indent=2)`` plus a newline, with every array rendered as its ``tolist()``.
``dumps`` writes exactly those bytes, but formats matrix payloads in bulk:
each distinct double is formatted once and the indented pairs are laid out
by one C-level ``str.format``. Dicts, lists and scalars keep json's own
rendering. CSV output uses 17 significant digits, '.' decimals and LF line
endings so doubles round-trip losslessly.
"""

from __future__ import annotations

import json
from dataclasses import asdict

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


def matrix_from_json(obj: dict) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = obj["data"]
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if len(data) != rows * cols:
        raise ValueError(f"matrix data length {len(data)} does not equal rows*cols = {rows * cols}")
    pairs = np.asarray(data)
    if pairs.dtype.kind not in "biuf":  # strings, null and mixed entries
        raise TypeError(f"matrix entries must be numbers, got {pairs.dtype}")
    if pairs.shape != (rows * cols, 2):
        raise ValueError("matrix entries must be [re, im] pairs")
    pairs = np.ascontiguousarray(pairs, dtype=float)
    if not np.all(np.isfinite(pairs)):
        raise ValueError("matrix entries must be finite")
    return pairs.view(complex).reshape(rows, cols)


def povm_to_json(povm: POVM) -> dict:
    obj = {"dim": povm.dim, "effects": [matrix_to_json(e) for e in povm.effects]}
    if povm.labels is not None:
        obj["labels"] = list(povm.labels)
    return obj


def povm_from_json(obj: dict) -> POVM:
    effects = tuple(matrix_from_json(e) for e in obj["effects"])
    labels = tuple(obj["labels"]) if "labels" in obj and obj["labels"] is not None else None
    return POVM(int(obj["dim"]), effects, labels)


def mubset_to_json(mub: MubSet, p: int | None = None, n: int | None = None) -> dict:
    obj = {"d": mub.d, "bases": [matrix_to_json(b) for b in mub.bases]}
    if p is not None:
        obj["p"] = p
    if n is not None:
        obj["n"] = n
    return obj


def mubset_from_json(obj: dict) -> MubSet:
    return MubSet(int(obj["d"]), tuple(matrix_from_json(b) for b in obj["bases"]))


def report_to_json(report: DisturbanceReport | InfoReport) -> dict:
    return asdict(report)


def frontier_to_json(points: list[FrontierPoint]) -> list[dict]:
    return [asdict(pt) for pt in points]


def _pairs_text(pairs: np.ndarray, pad: str) -> str:
    """An (n, 2) float array as json's indented list of [re, im] pairs."""
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype != float:
        raise TypeError(f"cannot encode an array of shape {pairs.shape} and dtype {pairs.dtype}")
    if not len(pairs):
        return "[]"
    # one text per distinct bit pattern, so -0.0 and each NaN stay apart
    bits, where = np.unique(np.ascontiguousarray(pairs).view(np.int64), return_inverse=True)
    texts = np.array([json.dumps(x) for x in bits.view(float).tolist()], dtype=object)
    inner, entry = pad + "  ", pad + "    "
    pair = f"{inner}[\n{entry}{{}},\n{entry}{{}}\n{inner}]"
    body = ",\n".join([pair] * len(pairs)).format(*texts[where.ravel()].tolist())
    return f"[\n{body}\n{pad}]"


def _text(obj, pad: str) -> str:
    """``obj`` as json writes it ``pad`` deep. A subtree json can encode is
    json's own text, re-indented (JSON strings hold no raw newline); json
    cannot encode arrays, so a container holding one is laid out here."""
    if isinstance(obj, np.ndarray):
        return _pairs_text(obj, pad)
    try:
        return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + pad)
    except TypeError:
        if not isinstance(obj, (dict, list, tuple)):
            raise
    inner = pad + "  "
    if isinstance(obj, dict):
        items = []
        for key, value in sorted(obj.items()):
            if not isinstance(key, (str, int, float)) and key is not None:
                raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
            # json spells a non-string key as the string of its JSON text
            name = json.dumps(key if isinstance(key, str) else json.dumps(key))
            items.append(f"{inner}{name}: {_text(value, inner)}")
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    return "[\n" + ",\n".join(inner + _text(v, inner) for v in obj) + f"\n{pad}]"


def dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline, byte for
    byte, with matrix payloads (float arrays) written in bulk."""
    return _text(obj, "") + "\n"


def frontier_to_csv(points: list[FrontierPoint]) -> str:
    lines = ["p,disturbance,info_lb_nats,line_info_nats"]
    for pt in points:
        lines.append(f"{pt.p:.17g},{pt.disturbance:.17g},{pt.info_lower_bound:.17g},{pt.line_info:.17g}")
    return "\n".join(lines) + "\n"
