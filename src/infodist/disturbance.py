"""Fidelity and disturbance functionals for the uniform pure-state ensemble.

The second moment of |psi><psi| over the unitarily invariant distribution is
available in closed form as an operator on the tensor-square space, which
turns every ensemble-averaged fidelity of degree two into exact algebra.
Monte Carlo and 2-design averages of the same quantities are provided as
cross-checks and for integrands beyond degree two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ALGEBRAIC, PSD_SLACK, RECONSTRUCTION
from .errors import DimMismatchError, NotPositiveError
from .linalg import (
    dagger,
    fidelity,
    haar_states,
    mat_sqrt,
    outer,
    require_square,
    validate_distribution,
)
from .measurement import (
    POVM,
    Instrument,
    apply_branch,
    apply_channel,
    isometry_kraus,
)


def pair_moment(a: np.ndarray, b: np.ndarray) -> complex:
    """Haar average of <psi|A|psi><psi|B|psi>: (tr A tr B + tr AB) / (d(d+1)).

    This is the trace of Pi (A x B) evaluated in closed form.
    """
    d = require_square(a)
    if b.shape != a.shape:
        raise DimMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    return complex((np.trace(a) * np.trace(b) + np.trace(a @ b)) / (d * (d + 1)))


@dataclass(frozen=True)
class DisturbanceReport:
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
    total = 0.0
    for a in inst.kraus_ops():
        total += abs(np.trace(a)) ** 2 + np.trace(a @ dagger(a)).real
    return _report(total / (d * (d + 1)), "exact-pi")


def min_disturbance_uniform(povm: POVM) -> DisturbanceReport:
    """Least Haar-average disturbance over all instruments for a POVM.

    The square-root dynamics attain it; the optimum is
    F_max = (d + sum_b (tr sqrt(F_b))^2) / (d(d+1)).
    """
    d = povm.dim
    total = float(d)
    for e in povm.effects:
        total += float(np.trace(mat_sqrt(e)).real) ** 2
    return _report(total / (d * (d + 1)), "exact-pi")


def _branch_overlap_samples(inst: Instrument, states: np.ndarray) -> np.ndarray:
    """sum_bi |<psi|A_bi|psi>|^2 for each row state in ``states``.

    Evaluated as a Rayleigh quotient (divided by <psi|psi>^2) so rounding in
    the state normalization cancels; the identity instrument gives exactly 1.
    """
    vals = np.zeros(states.shape[0])
    for a in inst.kraus_ops():
        amp = np.einsum("nd,nd->n", states.conj(), states @ a.T)
        vals += np.abs(amp) ** 2
    norm = np.einsum("nd,nd->n", states.conj(), states).real
    return vals / norm**2


def avg_fidelity_mc(inst: Instrument, n_samples: int, rng: np.random.Generator) -> DisturbanceReport:
    """Monte Carlo estimate of the Haar-average fidelity with its stderr."""
    if n_samples < 2:
        raise ValueError("need at least two samples for a standard error")
    vals = _branch_overlap_samples(inst, haar_states(inst.dim, n_samples, rng))
    stderr = float(vals.std(ddof=1) / np.sqrt(n_samples))
    return _report(float(vals.mean()), "monte-carlo", stderr, n_samples)


def avg_fidelity_design(inst: Instrument, design: np.ndarray) -> DisturbanceReport:
    """Average fidelity over a finite point set of pure states.

    Exact (equal to the Haar value) whenever the set is a projective
    2-design, since the integrand is degree two in |psi><psi|.
    """
    design = np.atleast_2d(np.asarray(design, dtype=complex))
    if design.shape[0] == 0:
        raise ValueError("design must be nonempty")
    vals = _branch_overlap_samples(inst, design)
    return _report(float(vals.mean()), "design", None, design.shape[0])


def entanglement_fidelity(rho: np.ndarray, inst: Instrument) -> float:
    """F_e(rho, A) = sum_bi |tr(A_bi rho)|^2.

    Lower-bounds the average pure-state fidelity of every ensemble for rho.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (inst.dim, inst.dim):
        raise DimMismatchError(f"state shape {rho.shape} does not match dim {inst.dim}")
    return float(sum(abs(np.trace(a @ rho)) ** 2 for a in inst.kraus_ops()))


def conditional_avg_disturbance(ensemble: list[tuple[np.ndarray, float]], inst: Instrument) -> tuple[float, float]:
    """Outcome-blind and outcome-aware average disturbances (D1, D2).

    D1 uses the overall channel output; D2 sums branch fidelities with the
    unnormalized conditional outputs. Concavity of fidelity gives D2 >= D1,
    with equality on pure-state ensembles.
    """
    validate_distribution([w for _, w in ensemble])
    f1 = 0.0
    f2 = 0.0
    for (rho, w) in ensemble:
        rho = np.asarray(rho, dtype=complex)
        f1 += w * fidelity(rho, apply_channel(inst, rho))
        for b in range(len(inst.branches)):
            out, _ = apply_branch(inst, b, rho)
            f2 += w * fidelity(rho, out)
    return 1.0 - f1, 1.0 - f2


def superadditivity_margin(p1: np.ndarray, p2: np.ndarray, psi: np.ndarray) -> float:
    """<psi|sqrt(P1^2+P2^2)|psi>^2 - <psi|P1|psi>^2 - <psi|P2|psi>^2.

    Nonnegative for positive P1, P2 (equality when they are proportional);
    this is the coarse-graining step that makes square-root dynamics optimal.
    """
    p1 = np.asarray(p1, dtype=complex)
    p2 = np.asarray(p2, dtype=complex)
    w1 = np.linalg.eigvalsh((p1 + dagger(p1)) / 2)
    w2 = np.linalg.eigvalsh((p2 + dagger(p2)) / 2)
    if w1[0] < -PSD_SLACK or w2[0] < -PSD_SLACK:
        raise NotPositiveError("both operators must be positive semidefinite")
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
    phi = np.zeros(d, dtype=complex)
    phi[k] = 1.0
    phi = phi - psi * np.vdot(psi, phi)
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
        raise DimMismatchError(f"isometry blocks {blocks[0].shape} do not match dim {povm.dim}")
    gram = sum(dagger(b) @ b for b in blocks)
    if np.abs(gram - np.eye(povm.dim)).max() > ALGEBRAIC:
        raise DimMismatchError("blocks of m do not form a trace-preserving channel")
    roots = [mat_sqrt(e) for e in povm.effects]
    multi = Instrument(povm.dim, tuple(tuple(b @ r for b in blocks) for r in roots))
    eye_d = np.eye(povm.dim) / povm.dim
    lhs = entanglement_fidelity(eye_d, multi)
    rhs = entanglement_fidelity(eye_d, Instrument(povm.dim, tuple((r,) for r in roots)))
    return lhs, rhs


def one_term_instrument(povm: POVM, unitaries: list[np.ndarray]) -> Instrument:
    """Instrument with branches U_b sqrt(F_b): the general one-term dynamics
    compatible with a POVM."""
    if len(unitaries) != len(povm.effects):
        raise DimMismatchError("need one unitary per outcome")
    return Instrument(
        povm.dim,
        tuple((np.asarray(u, dtype=complex) @ mat_sqrt(e),) for u, e in zip(unitaries, povm.effects)),
    )
