"""Fidelity and disturbance functionals for the uniform pure-state ensemble.

The second moment of |psi><psi| over the unitarily invariant distribution is
available in closed form as an operator on the tensor-square space, which
turns every ensemble-averaged fidelity of degree two into exact algebra.
Monte Carlo and 2-design averages of the same quantities are provided as
cross-checks and for integrands beyond degree two; both score their states
as Rayleigh quotients, so Monte Carlo draws are not normalised first.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import ALGEBRAIC, PSD_SLACK, RECONSTRUCTION
from .errors import InfodistError
from .linalg import dagger, form_scores, gaussian_planes, mat_sqrt, mean_stderr, outer, require_square
from .measurement import POVM, Instrument, apply_channel, isometry_kraus


def pair_moment(a: np.ndarray, b: np.ndarray) -> complex:
    """Haar average of <psi|A|psi><psi|B|psi>: (tr A tr B + tr AB) / (d(d+1)).

    This is the trace of Pi (A x B) evaluated in closed form.
    """
    d = require_square(a)
    if b.shape != a.shape:
        raise InfodistError(f"shape mismatch {a.shape} vs {b.shape}")
    return complex((np.trace(a) * np.trace(b) + np.trace(a @ b)) / (d * (d + 1)))


class DisturbanceReport(NamedTuple):
    avg_fidelity: float
    disturbance: float
    method: str  # "exact-pi" | "monte-carlo" | "design"
    stderr: float | None = None
    samples: int | None = None


def _report(avg: float, method: str, stderr=None, samples=None) -> DisturbanceReport:
    if avg <= 1.0 + RECONSTRUCTION:  # forgive rounding overshoot, keep real violations visible
        avg = min(max(avg, 0.0), 1.0)
    return DisturbanceReport(float(avg), 1.0 - float(avg), method, stderr, samples)


def avg_fidelity_uniform(inst: Instrument) -> DisturbanceReport:
    """Exact Haar-average fidelity of an instrument on pure inputs.

    F = sum_bi (|tr A_bi|^2 + tr A_bi A_bi†) / (d(d+1)); the second sum
    equals d for trace-preserving instruments.
    """
    d = inst.dim
    total = sum(abs(np.trace(a)) ** 2 + np.trace(a @ dagger(a)).real for a in inst.kraus_ops())
    return _report(total / (d * (d + 1)), "exact-pi")


def _root_trace_sum(povm: POVM) -> float:
    """sum_b (tr sqrt F_b)^2, d^2 times the square-root instrument's F_e at I/d."""
    return sum(float(np.trace(mat_sqrt(e)).real) ** 2 for e in povm.effects)


def min_disturbance_uniform(povm: POVM) -> DisturbanceReport:
    """Least Haar-average disturbance over all instruments for a POVM, attained by the square-root
    dynamics: F_max = (d + sum_b (tr sqrt(F_b))^2) / (d(d+1))."""
    d = povm.dim
    return _report((d + _root_trace_sum(povm)) / (d * (d + 1)), "exact-pi")


def twirl_depolarizing_p(povm: POVM) -> float:
    """Mixing probability of the depolarizing channel obtained by Haar
    twirling the square-root instrument: p* = (1 - F_e) d^2 / (d^2 - 1)
    with F_e = sum_b (tr sqrt F_b)^2 / d^2, and D_min = p* (d - 1) / d.
    InfodistError for d < 2, where every channel is depolarizing."""
    d = povm.dim
    if d < 2:
        raise InfodistError(f"the twirl needs dimension at least 2, got {d}")
    p = (1.0 - _root_trace_sum(povm) / d**2) * d**2 / (d**2 - 1)
    return 0.0 if -RECONSTRUCTION <= p < 0.0 else p  # forgive rounding below 0, as for an identity POVM


def _branch_overlaps(inst: Instrument, planes: np.ndarray) -> np.ndarray:
    """sum_bi |<z|A_bi|z>|^2 / <z|z>^2 for each state z of ``planes``, a Rayleigh quotient of the
    forms of A_bi, -i A_bi and I (``linalg.form_scores``): the identity instrument gives exactly 1."""
    kraus = inst.kraus_ops()
    mats = np.stack([m for a in kraus for m in (a, -1j * a)] + [np.eye(inst.dim)])
    return form_scores(mats, planes, lambda q: (q[:-1] ** 2).sum(axis=0) / q[-1] ** 2)


def avg_fidelity_mc(inst: Instrument, n_samples: int, rng: np.random.Generator) -> DisturbanceReport:
    """Monte Carlo estimate of the Haar-average fidelity with its stderr."""
    vals = _branch_overlaps(inst, gaussian_planes(inst.dim, n_samples, rng))
    mean, stderr = map(float, mean_stderr(vals))
    return _report(mean, "monte-carlo", stderr, n_samples)


def avg_fidelity_design(inst: Instrument, design: np.ndarray) -> DisturbanceReport:
    """Average fidelity over a finite point set of pure states.

    Exact (equal to the Haar value) whenever the set is a projective
    2-design, since the integrand is degree two in |psi><psi|.
    """
    design = np.atleast_2d(np.asarray(design, dtype=complex))
    if design.shape[0] == 0:
        raise ValueError("design must be nonempty")
    vals = _branch_overlaps(inst, np.stack((design.real, design.imag)))
    return _report(float(vals.mean()), "design", None, design.shape[0])


def entanglement_fidelity(rho: np.ndarray, inst: Instrument) -> float:
    """F_e(rho, A) = sum_bi |tr(A_bi rho)|^2, a lower bound on the average pure-state fidelity of
    every ensemble for rho."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (inst.dim, inst.dim):
        raise InfodistError(f"state shape {rho.shape} does not match dim {inst.dim}")
    return float(sum(abs(np.trace(a @ rho)) ** 2 for a in inst.kraus_ops()))


def superadditivity_margin(p1: np.ndarray, p2: np.ndarray, psi: np.ndarray) -> float:
    """<psi|sqrt(P1^2+P2^2)|psi>^2 - <psi|P1|psi>^2 - <psi|P2|psi>^2.

    Nonnegative for positive P1, P2 (equality when they are proportional);
    this is the coarse-graining step that makes square-root dynamics optimal.
    """
    p1, p2 = np.asarray(p1, dtype=complex), np.asarray(p2, dtype=complex)
    if any(np.linalg.eigvalsh((p + dagger(p)) / 2)[0] < -PSD_SLACK for p in (p1, p2)):
        raise InfodistError("both operators must be positive semidefinite")
    root = mat_sqrt(p1 @ p1 + p2 @ p2)
    rhs = float(np.vdot(psi, root @ psi).real) ** 2
    lhs = float(np.vdot(psi, p1 @ psi).real) ** 2 + float(np.vdot(psi, p2 @ psi).real) ** 2
    return rhs - lhs


def restore_counterexample(d: int, psi: np.ndarray) -> tuple[np.ndarray, Instrument, float]:
    """A trace-preserving operation that increases <psi|G|psi> for G <= I.

    Takes G = |phi><phi| with phi orthogonal to psi and the unitary channel
    swapping phi with psi; the expectation of G in psi rises from 0 to 1.
    Shows one cannot bound multi-term dynamics by a Schwarz step alone.
    """
    psi = np.asarray(psi, dtype=complex)
    if d < 2:
        raise ValueError("need dimension at least 2 for an orthogonal state")
    # deterministic orthogonal companion: least-aligned standard basis vector
    k = int(np.argmin(np.abs(psi)))
    phi = np.eye(d, dtype=complex)[k] - psi * psi[k].conj()  # e_k - psi <psi|e_k>
    phi = phi / np.linalg.norm(phi)
    g = outer(phi)
    u = np.eye(d, dtype=complex) - outer(phi) - outer(psi) + np.outer(psi, phi.conj()) + np.outer(phi, psi.conj())
    channel = Instrument(d, ((u,),))
    rotated = apply_channel(channel, g)
    gain = float(np.vdot(psi, rotated @ psi).real - np.vdot(psi, g @ psi).real)
    return g, channel, gain


def entfid_bound_check(povm: POVM, m: np.ndarray) -> tuple[float, float]:
    """Entanglement fidelity of multi-term vs square-root dynamics at I/d.

    ``m`` is a (k*d, d) isometry whose blocks B_i define a channel; the
    multi-term instrument A_bi = B_i sqrt(F_b) is compatible with the same
    POVM. Returns (lhs, rhs) = (F_e(I/d, multi-term), F_e(I/d, sqrt));
    lhs <= rhs always, with equality at k=1, m=I.
    """
    blocks = isometry_kraus(np.asarray(m, dtype=complex))
    if blocks[0].shape != (povm.dim, povm.dim):
        raise InfodistError(f"isometry blocks {blocks[0].shape} do not match dim {povm.dim}")
    gram = sum(dagger(b) @ b for b in blocks)
    if not np.abs(gram - np.eye(povm.dim)).max() <= ALGEBRAIC:  # a NaN entry fails too
        raise InfodistError("blocks of m do not form a trace-preserving channel")
    roots = [mat_sqrt(e) for e in povm.effects]
    multi = Instrument(povm.dim, tuple(tuple(b @ r for b in blocks) for r in roots))
    return entanglement_fidelity(np.eye(povm.dim) / povm.dim, multi), _root_trace_sum(povm) / povm.dim**2


def one_term_instrument(povm: POVM, unitaries: list[np.ndarray]) -> Instrument:
    """Instrument with branches U_b sqrt(F_b): the general one-term dynamics
    compatible with a POVM."""
    if len(unitaries) != len(povm.effects):
        raise InfodistError("need one unitary per outcome")
    branches = tuple((np.asarray(u, dtype=complex) @ mat_sqrt(e),) for u, e in zip(unitaries, povm.effects))
    return Instrument(povm.dim, branches)
