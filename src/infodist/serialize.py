"""JSON and CSV encodings for matrices, measurements and reports.

A complex matrix is encoded as {"rows": r, "cols": c, "data": [[re, im],
...]} with the entries row-major. CSV output uses 17 significant digits,
'.' decimals and LF line endings so doubles round-trip losslessly.
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
        "data": [[float(z.real), float(z.imag)] for z in a.ravel()],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = obj["data"]
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if len(data) != rows * cols:
        raise ValueError(f"matrix data length {len(data)} does not equal rows*cols = {rows * cols}")
    flat = np.array([complex(re, im) for re, im in data])
    if not np.all(np.isfinite(flat.real)) or not np.all(np.isfinite(flat.imag)):
        raise ValueError("matrix entries must be finite")
    return flat.reshape(rows, cols)


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


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, no trailing whitespace surprises."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def frontier_to_csv(points: list[FrontierPoint]) -> str:
    lines = ["p,disturbance,info_lb_nats,line_info_nats,converged"]
    for pt in points:
        converged = "true" if pt.optimizer_meta.get("converged", False) else "false"
        lines.append(
            f"{pt.p:.17g},{pt.disturbance:.17g},{pt.info_lower_bound:.17g},{pt.line_info:.17g},{converged}"
        )
    return "\n".join(lines) + "\n"
