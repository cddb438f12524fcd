"""POVMs and measurement instruments.

A POVM is an ordered set of positive effects summing to the identity. An
instrument assigns to each outcome a list of Kraus operators; the b-th
conditional operation is rho -> sum_i A_bi rho A_bi† and the effects it
induces are F_b = sum_i A_bi† A_bi. Both objects are immutable containers
of complex numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ALGEBRAIC, PSD_SLACK, RECONSTRUCTION
from .errors import (
    BadPartitionError,
    DimMismatchError,
    NotIsometryError,
    WeightError,
)
from .linalg import dagger, gen_inv_sqrt, herm_eig, mat_sqrt, require_square, validate_distribution


@dataclass(frozen=True)
class POVM:
    dim: int
    effects: tuple[np.ndarray, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "effects", tuple(np.asarray(e, dtype=complex) for e in self.effects))
        for e in self.effects:
            if e.shape != (self.dim, self.dim):
                raise DimMismatchError(f"effect shape {e.shape} does not match dim {self.dim}")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
            if len(self.labels) != len(self.effects):
                raise DimMismatchError("labels and effects differ in length")

    def __len__(self) -> int:
        return len(self.effects)

    def label(self, b: int) -> str:
        return self.labels[b] if self.labels is not None else str(b)


@dataclass(frozen=True)
class Instrument:
    dim: int
    branches: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        norm = tuple(tuple(np.asarray(a, dtype=complex) for a in br) for br in self.branches)
        object.__setattr__(self, "branches", norm)
        for br in self.branches:
            for a in br:
                if a.shape != (self.dim, self.dim):
                    raise DimMismatchError(f"Kraus shape {a.shape} does not match dim {self.dim}")

    def __len__(self) -> int:
        return len(self.branches)

    def kraus_ops(self) -> list[np.ndarray]:
        """All Kraus operators flattened across branches."""
        return [a for br in self.branches for a in br]


@dataclass(frozen=True)
class PovmDiagnostics:
    """Residuals from validating a POVM against its defining constraints."""

    max_hermiticity_violation: float
    max_psd_violation: float
    completeness_residual: float
    passed: bool


def povm_validate(povm: POVM) -> PovmDiagnostics:
    """Report how far a POVM is from Hermitian, positive, complete."""
    herms = []
    psds = []
    total = np.zeros((povm.dim, povm.dim), dtype=complex)
    for e in povm.effects:
        require_square(e)
        herms.append(np.abs(e - dagger(e)).max())
        # eigvalsh of a NaN matrix is unspecified (LAPACK returns zeros)
        w = np.linalg.eigvalsh((e + dagger(e)) / 2) if np.isfinite(e).all() else np.full(povm.dim, np.nan)
        psds.append(0.0 if w[0] >= 0 else -w[0])
        total += e
    # np.max propagates NaN (Python's max drops it), and NaN fails the test below
    herm = float(np.max(herms, initial=0.0))
    psd = float(np.max(psds, initial=0.0))
    completeness = float(np.abs(total - np.eye(povm.dim)).max())
    ok = herm <= ALGEBRAIC and psd <= PSD_SLACK and completeness <= RECONSTRUCTION
    return PovmDiagnostics(herm, psd, completeness, ok)


def instrument_validate(inst: Instrument) -> float:
    """Max-entry residual of sum_bi A_bi† A_bi against the identity."""
    total = np.zeros((inst.dim, inst.dim), dtype=complex)
    for a in inst.kraus_ops():
        total += dagger(a) @ a
    return float(np.abs(total - np.eye(inst.dim)).max())


def sqrt_instrument(povm: POVM) -> Instrument:
    """The instrument with one Kraus operator sqrt(F_b) per outcome.

    This is the generalized projection postulate: conditional update
    rho -> sqrt(F_b) rho sqrt(F_b).
    """
    return Instrument(povm.dim, tuple((mat_sqrt(e),) for e in povm.effects))


def apply_branch(inst: Instrument, b: int, rho: np.ndarray) -> tuple[np.ndarray, float]:
    """Unnormalized conditional output for outcome ``b`` and its probability."""
    if not 0 <= b < len(inst.branches):
        raise IndexError(f"branch {b} out of range for {len(inst.branches)} outcomes")
    out = np.zeros((inst.dim, inst.dim), dtype=complex)
    for a in inst.branches[b]:
        out += a @ rho @ dagger(a)
    return out, float(np.trace(out).real)


def apply_channel(inst: Instrument, rho: np.ndarray) -> np.ndarray:
    """Overall (outcome-averaged) trace-preserving operation."""
    out = np.zeros((inst.dim, inst.dim), dtype=complex)
    for a in inst.kraus_ops():
        out += a @ rho @ dagger(a)
    return out


def instrument_povm(inst: Instrument) -> POVM:
    """The POVM measured by an instrument: F_b = sum_i A_bi† A_bi."""
    effects = []
    for br in inst.branches:
        f = np.zeros((inst.dim, inst.dim), dtype=complex)
        for a in br:
            f += dagger(a) @ a
        effects.append(f)
    return POVM(inst.dim, tuple(effects))


def fine_grain(inst: Instrument) -> POVM:
    """One effect per Kraus operator: the POVM {A_bi† A_bi}_bi.

    Grouping the outcomes back by branch recovers ``instrument_povm``.
    """
    effects = []
    labels = []
    for b, br in enumerate(inst.branches):
        for i, a in enumerate(br):
            effects.append(dagger(a) @ a)
            labels.append(f"{b}.{i}")
    return POVM(inst.dim, tuple(effects), tuple(labels))


def coarse_grain(povm: POVM, partition: list[list[int]]) -> POVM:
    """Group outcomes by summing effects over each partition block."""
    seen = sorted(i for block in partition for i in block)
    if seen != list(range(len(povm.effects))):
        raise BadPartitionError("partition must cover every outcome index exactly once")
    effects = []
    labels = []
    for block in partition:
        f = np.zeros((povm.dim, povm.dim), dtype=complex)
        for i in block:
            f += povm.effects[i]
        effects.append(f)
        labels.append("+".join(povm.label(i) for i in block))
    return POVM(povm.dim, tuple(effects), tuple(labels))


def convex_mix(procedures: list[tuple[POVM, Instrument]], weights: list[float]) -> tuple[POVM, Instrument]:
    """Convex mixture of measurement procedures with flagged outcomes.

    The mixed POVM is {w_i F_b^i}_ib and the mixed instrument carries
    sqrt(w_i) A_b^i, so outcome (i, b) records both which procedure ran and
    its result. Average-fidelity disturbance and outcome-state mutual
    information are both exactly linear in the weights under this mixing.
    """
    if len(procedures) != len(weights):
        raise WeightError("need one weight per procedure")
    w = validate_distribution(weights)
    dim = procedures[0][0].dim
    effects, labels, branches = [], [], []
    for i, (povm, inst) in enumerate(procedures):
        if povm.dim != dim or inst.dim != dim:
            raise DimMismatchError("all procedures must share one dimension")
        if len(povm.effects) != len(inst.branches):
            raise DimMismatchError(f"procedure {i}: POVM and instrument outcome counts differ")
        root = np.sqrt(w[i])
        for b, e in enumerate(povm.effects):
            effects.append(w[i] * e)
            labels.append(f"{i}:{povm.label(b)}")
            branches.append(tuple(root * a for a in inst.branches[b]))
    return POVM(dim, tuple(effects), tuple(labels)), Instrument(dim, tuple(branches))


def remix(kraus_ops: list[np.ndarray], m: np.ndarray) -> list[np.ndarray]:
    """Re-decompose an operation: A_i = sum_j m_ij B_j.

    ``m`` has shape (r, s) with r >= s and orthonormal columns (a maximal
    partial isometry from the old index space into the new one). The channel
    action and sum_i A_i† A_i are both preserved.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[1] != len(kraus_ops):
        raise DimMismatchError(f"mixing matrix shape {m.shape} does not fit {len(kraus_ops)} operators")
    if m.shape[0] < m.shape[1]:
        raise NotIsometryError("mixing matrix must not reduce the number of operators")
    gram = dagger(m) @ m
    if np.abs(gram - np.eye(m.shape[1])).max() > ALGEBRAIC:
        raise NotIsometryError("columns of the mixing matrix are not orthonormal")
    ops = np.stack([np.asarray(a, dtype=complex) for a in kraus_ops])
    return list(np.einsum("ij,jkl->ikl", m, ops))


def reset_instrument(povm: POVM, psi0: np.ndarray) -> Instrument:
    """Instrument compatible with ``povm`` that restores |psi0> regardless
    of input: A_bi = lambda_bi |psi0><bi| built from the eigensystem of
    sqrt(F_b). Maximally disturbing for every other input state."""
    psi0 = np.asarray(psi0, dtype=complex)
    branches = []
    for e in povm.effects:
        w, v = herm_eig(e)
        w = np.clip(w, 0.0, None)
        # eigenvalues of sqrt(F_b) are the square roots of those of F_b
        ops = tuple(
            np.sqrt(w[k]) * np.outer(psi0, v[:, k].conj()) for k in range(len(w)) if w[k] > 0
        )
        if not ops:
            ops = (np.zeros((povm.dim, povm.dim), dtype=complex),)
        branches.append(ops)
    return Instrument(povm.dim, tuple(branches))


def basis_povm(d: int) -> POVM:
    """Projective measurement of the standard basis."""
    eye = np.eye(d, dtype=complex)
    return POVM(d, tuple(np.outer(eye[:, b], eye[:, b].conj()) for b in range(d)), tuple(str(b) for b in range(d)))


def trine_povm() -> POVM:
    """Qubit trine: three rank-one effects (2/3)|t_k><t_k| with the |t_k>
    spaced 120 degrees apart on a great circle of the Bloch sphere."""
    effects = []
    for k in range(3):
        angle = k * np.pi / 3  # Hilbert-space angle is half the Bloch angle
        t = np.array([np.cos(angle), np.sin(angle)], dtype=complex)
        effects.append(2.0 / 3.0 * np.outer(t, t.conj()))
    return POVM(2, tuple(effects), ("t0", "t1", "t2"))


def random_povm(
    d: int,
    n_outcomes: int,
    rng: np.random.Generator,
    rank: int | None = None,
) -> POVM:
    """Random POVM: Wishart-style blocks normalized by the symmetric root.

    Draws G_i = X_i X_i† with Gaussian X_i of shape (d, rank) and returns
    F_i = S^{-1/2} G_i S^{-1/2} where S = sum G_i. ``rank=1`` gives effects
    proportional to rank-one projectors. Requires n_outcomes * rank >= d so
    S is generically invertible.
    """
    if rank is None:
        rank = d
    if n_outcomes * rank < d:
        raise DimMismatchError(f"{n_outcomes} outcomes of rank {rank} cannot resolve dimension {d}")
    blocks = []
    for _ in range(n_outcomes):
        x = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
        blocks.append(x @ dagger(x))
    s_inv = gen_inv_sqrt(sum(blocks))
    return POVM(d, tuple(s_inv @ g @ s_inv for g in blocks))


def isometry_kraus(m: np.ndarray) -> list[np.ndarray]:
    """Split a (k*d, d) isometry into the k Kraus blocks of its channel."""
    kd, d = m.shape
    if kd % d != 0:
        raise DimMismatchError(f"isometry shape {m.shape} is not a stack of square blocks")
    return [m[i * d : (i + 1) * d, :] for i in range(kd // d)]
