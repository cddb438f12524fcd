"""The benchmark's workloads.

A workload is the list of ``infodist`` CLI invocations that make up one
repetition, the input files they read (generated from the workload seed
by the benchmark's own numpy code, so the program sees only files), and
the per-operation output checks. The checks are NaN-aware: every test is
written so that a NaN makes it false, and a NaN therefore fails the op.
"""

from __future__ import annotations

import csv
import importlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# The frontier grid keeps its endpoint p = d/(d+1); grid and restarts are
# cut from the CLI defaults (11, 16) so that one repetition takes seconds.
FRONTIER_GRID = 3
FRONTIER_RESTARTS = 2
FRONTIER_SAMPLES = 200
FRONTIER_MAX_ITER = 500

MC_SAMPLES = 100_000
TWIRL_SAMPLES = 10_000
TWIRL_STATES = 3
DESIGN_TRIALS = 100


@dataclass
class CmdResult:
    rc: int | None  # None: the command raised instead of returning
    stdout: str


# what the frontier outputs say about the optimizer, per repetition
NO_FACTS = {"iterations": 0, "restarts": 0, "restarts_converged": 0, "points_over_imax": 0, "info_mean_nats": 0.0}


@dataclass
class Workload:
    write_inputs: Callable[[Path, int], None]
    commands: Callable[[Path, int], list[list[str]]]
    # -> (pass flag per op, facts read from the outputs)
    check: Callable[[Path, list[CmdResult]], tuple[list[bool], dict]]


def i_max(d: int) -> float:
    """Jones' ceiling: information of any rank-one POVM on the Haar
    ensemble, ln d - sum_{k=2}^{d} 1/k, the most any POVM extracts."""
    return math.log(d) - sum(1.0 / k for k in range(2, d + 1))


def _close(a, b, tol: float) -> bool:
    return abs(float(a) - float(b)) <= tol


# -- inputs --------------------------------------------------------------------


def _matrix_json(a: np.ndarray) -> dict:
    return {"rows": a.shape[0], "cols": a.shape[1], "data": [[float(z.real), float(z.imag)] for z in a.ravel()]}


def _write_povm(path: Path, effects: list[np.ndarray]) -> None:
    obj = {"dim": effects[0].shape[0], "effects": [_matrix_json(e) for e in effects]}
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _read_povm(path: Path) -> list[np.ndarray]:
    obj = json.loads(path.read_text(encoding="utf-8"))
    return [
        np.array([complex(re, im) for re, im in e["data"]]).reshape(e["rows"], e["cols"]) for e in obj["effects"]
    ]


def _random_povm(d: int, outcomes: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Wishart blocks G_i normalized to S^{-1/2} G_i S^{-1/2}, S = sum G_i."""
    blocks = []
    for _ in range(outcomes):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks.append(x @ x.conj().T)
    w, v = np.linalg.eigh(sum(blocks))
    s_inv = (v / np.sqrt(w)) @ v.conj().T
    return [s_inv @ g @ s_inv for g in blocks]


def _trine() -> list[np.ndarray]:
    vecs = [np.array([math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)], dtype=complex) for k in range(3)]
    return [2.0 / 3.0 * np.outer(t, t.conj()) for t in vecs]


def _crosscheck_inputs(work: Path, seed: int) -> None:
    # a stream of its own, so the inputs are not correlated with the
    # program's samples drawn from --seed
    rng = np.random.default_rng([seed, 1])
    _write_povm(work / "basis2.json", [np.diag(np.eye(2)[b]).astype(complex) for b in range(2)])
    _write_povm(work / "trine.json", _trine())
    _write_povm(work / "rand4.json", _random_povm(4, 5, rng))
    _write_povm(work / "rand3.json", _random_povm(3, 4, rng))


# -- frontier workloads ----------------------------------------------------------


def _frontier_commands(d: int) -> Callable[[Path, int], list[list[str]]]:
    def commands(work: Path, seed: int) -> list[list[str]]:
        return [
            ["frontier", "--d", str(d), "--grid", str(FRONTIER_GRID), "--samples", str(FRONTIER_SAMPLES),
             "--restarts", str(FRONTIER_RESTARTS), "--max-iter", str(FRONTIER_MAX_ITER), "--seed", str(seed),
             "--allow-nonconverged", "--out", str(work / "curve.csv"), "--json", str(work / "curve.json")]
        ]  # fmt: skip

    return commands


def _frontier_check(d: int) -> Callable[[Path, list[CmdResult]], tuple[list[bool], dict]]:
    """One op per grid point: disturbance is exactly p(d-1)/d, information
    is 0 at p = 0, at least 0.95 of the straight line and at most I_max."""

    def check(work: Path, results: list[CmdResult]) -> tuple[list[bool], dict]:
        grid = np.linspace(0.0, d / (d + 1), FRONTIER_GRID)
        ceiling = i_max(d)
        facts = dict(NO_FACTS)
        if results[0].rc != 0:
            return [False] * len(grid), facts
        try:
            rows = list(csv.DictReader(io.StringIO((work / "curve.csv").read_text(encoding="utf-8"))))
            metas = [pt["optimizer_meta"] for pt in json.loads((work / "curve.json").read_text(encoding="utf-8"))]
        except (OSError, ValueError, KeyError, TypeError):
            return [False] * len(grid), facts
        ops = []
        infos = []
        for k, p in enumerate(grid):
            try:
                row = rows[k]
                p_out, dist, info = float(row["p"]), float(row["disturbance"]), float(row["info_lb_nats"])
            except (IndexError, KeyError, TypeError, ValueError):
                ops.append(False)
                continue
            infos.append(info)
            ops.append(
                _close(p_out, p, 1e-15)
                and _close(dist, p * (d - 1) / d, 1e-12)
                and (p > 0 or info == 0.0)
                and info >= 0.95 * ceiling * p * (d + 1) / d
                and info <= ceiling
            )
        facts["iterations"] = sum(int(m.get("iterations", 0)) for m in metas)
        facts["restarts"] = sum(int(m.get("restarts", 0)) for m in metas)
        facts["restarts_converged"] = sum(int(m.get("n_converged", 0)) for m in metas)
        facts["points_over_imax"] = sum(1 for x in infos if not x <= ceiling)
        facts["info_mean_nats"] = float(np.mean(infos)) if infos else 0.0
        return ops, facts

    return check


# -- crosscheck workload -----------------------------------------------------------


def _crosscheck_commands(work: Path, seed: int) -> list[list[str]]:
    s = str(seed)
    mc = str(MC_SAMPLES)
    cmds = [
        ["mub", "--p", "7", "--n", "2", "--out", str(work / "mub.json")],
        ["design-check", "--in", str(work / "mub.json"), "--trials", str(DESIGN_TRIALS), "--seed", s],
    ]
    for name in ("basis2", "trine", "rand4"):
        cmds.append(["info", "--povm", str(work / f"{name}.json"), "--samples", mc, "--seed", s,
                     "--out", str(work / f"info-{name}.json")])  # fmt: skip
    for method in ("mc", "exact", "design"):
        cmds.append(["disturbance", "--povm", str(work / "rand3.json"), "--method", method, "--samples", mc,
                     "--seed", s, "--out", str(work / f"dist-{method}.json")])  # fmt: skip
    cmds.append(["twirl-check", "--povm", str(work / "rand3.json"), "--samples", str(TWIRL_SAMPLES),
                 "--states", str(TWIRL_STATES), "--seed", s, "--out", str(work / "twirl.json")])  # fmt: skip
    return cmds


def _min_disturbance(effects: list[np.ndarray]) -> float:
    """1 - (d + sum_b (tr sqrt F_b)^2) / (d(d+1))."""
    d = effects[0].shape[0]
    roots = sum(float(np.sqrt(np.clip(np.linalg.eigvalsh(e), 0.0, None)).sum()) ** 2 for e in effects)
    return 1.0 - (d + roots) / (d * (d + 1))


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def _crosscheck_check(work: Path, results: list[CmdResult]) -> tuple[list[bool], dict]:
    def load(name: str) -> dict:
        return json.loads((work / name).read_text(encoding="utf-8"))

    def mub_ok() -> bool:
        serialize = importlib.import_module("infodist.serialize")
        galois = importlib.import_module("infodist.galois")
        mub = serialize.mubset_from_json(load("mub.json"))
        unit, overlap = galois.mub_validate(mub)
        return mub.d == 49 and len(mub.bases) == 50 and unit < 1e-10 and overlap < 1e-10

    def design_ok() -> bool:
        return float(results[1].stdout.rsplit(":", 1)[1]) < 1e-10

    def rank_one_info_ok(name: str) -> bool:
        r = load(f"info-{name}.json")
        return r["stderr"] > 0 and _close(r["mutual_info"], i_max(2), 5 * r["stderr"])

    def general_info_ok() -> bool:
        r = load("info-rand4.json")
        effects = _read_povm(work / "rand4.json")
        h_b = _entropy(np.array([np.trace(e).real / 4 for e in effects]))
        se = r["stderr"]
        return se > 0 and _close(r["h_b"], h_b, 1e-12) and -5 * se <= r["mutual_info"] <= i_max(4) + 5 * se

    exact = _min_disturbance(_read_povm(work / "rand3.json"))

    def disturbance_ok(method: str) -> bool:
        r = load(f"dist-{method}.json")
        tol = 5 * r["stderr"] if method == "mc" else 1e-12
        return (method != "mc" or r["stderr"] > 0) and _close(r["disturbance"], exact, tol)

    def twirl_ok() -> bool:
        r = load("twirl.json")
        return r["passed"] is True and math.isfinite(r["worst_ratio_of_5stderr"]) and r["worst_ratio_of_5stderr"] <= 1.0

    checks = [
        mub_ok,
        design_ok,
        lambda: rank_one_info_ok("basis2"),
        lambda: rank_one_info_ok("trine"),
        general_info_ok,
        lambda: disturbance_ok("mc"),
        lambda: disturbance_ok("exact"),
        lambda: disturbance_ok("design"),
        twirl_ok,
    ]
    ops = []
    for res, check in zip(results, checks):
        try:
            ops.append(res.rc == 0 and bool(check()))
        except (OSError, ValueError, KeyError, TypeError, IndexError, ArithmeticError):
            ops.append(False)
    return ops, dict(NO_FACTS)


def _no_inputs(work: Path, seed: int) -> None:
    """The frontier commands sample their ensembles from --seed."""


WORKLOADS = {
    "frontier-d2-haar": Workload(_no_inputs, _frontier_commands(2), _frontier_check(2)),
    "frontier-d3-mub": Workload(_no_inputs, _frontier_commands(3), _frontier_check(3)),
    "crosscheck": Workload(_crosscheck_inputs, _crosscheck_commands, _crosscheck_check),
}
