"""Mutual information between measurement outcomes and the input state.

For the uniform (Haar) pure-state ensemble, every POVM whose effects are
proportional to rank-one projectors yields the same mutual information,
log d - sum_{k=1}^{d-1} 1/(1+k), independent of the weights. For any effect
M the Haar average of q ln q, q = <psi|M|psi>, depends on the spectrum of M
alone and is computed by ``haar_xlogx``; ``info_uniform_mc`` samples instead.
Discrete ensembles are evaluated exactly. All internal logs are natural;
reports can be rescaled to bits for display.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError
from .linalg import haar_states, validate_distribution
from .measurement import POVM

LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class InfoReport:
    mutual_info: float
    h_b: float
    h_b_given_psi: float
    method: str  # "monte-carlo" | "finite-ensemble"
    stderr: float | None = None
    samples: int | None = None
    log_base: str = "nats"

    def in_bits(self) -> "InfoReport":
        if self.log_base == "bits":
            return self
        return InfoReport(
            self.mutual_info / LN2,
            self.h_b / LN2,
            self.h_b_given_psi / LN2,
            self.method,
            None if self.stderr is None else self.stderr / LN2,
            self.samples,
            "bits",
        )


def _harmonic_tail(d: int) -> float:
    """sum_{k=1}^{d-1} 1/(1+k)."""
    return float(sum(1.0 / (1 + k) for k in range(1, d)))


def info_finegrained_exact(d: int, bits: bool = False) -> float:
    """Mutual information of any rank-one-proportional POVM on Haar states."""
    if d < 1:
        raise ValueError("dimension must be positive")
    val = float(np.log(d)) - _harmonic_tail(d)
    return val / LN2 if bits else val


def jones_overlap_integral(a: np.ndarray, b: np.ndarray) -> float:
    """Haar average of |<psi|a>|^2 |<psi|b>|^2 = (1 + |<a|b>|^2) / (d(d+1))."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    d = a.shape[0]
    return float((1.0 + abs(np.vdot(a, b)) ** 2) / (d * (d + 1)))


def xlogx_integral(d: int) -> float:
    """Haar average of |<b|psi>|^2 ln |<b|psi>|^2 for any fixed unit |b>."""
    if d < 1:
        raise ValueError("dimension must be positive")
    return -_harmonic_tail(d) / d


# Trapezoid nodes t = e^u, u = -36, -35.5, ..., 36, for the integrals over t in (0, inf) in
# haar_xlogx. As functions of u the integrands t g(t) are analytic in the strip |Im u| < pi
# (their poles sit at u = ln nu_i +- i pi and +- i pi), so the rule converges geometrically
# in 1/h, and past |u| = 36 they are below e^-36 times a polynomial in the spectrum.
_T = np.exp(0.5 * np.arange(-72, 73))
_T_RATIO = _T / (1.0 + _T)


def haar_xlogx(spectrum, gradient: bool = False):
    """Haar average J = E_psi[q ln q] of q = <psi|M|psi>, M PSD with eigenvalues ``spectrum``.

    ``spectrum`` has shape (..., d); with ``gradient``, dJ/dnu of the same shape is
    returned too. For Haar psi, (|<e_i|psi>|^2) is uniform on the simplex, so by
    Hermite-Genocchi J = ((x^d ln x)[nu_1..nu_d] - (H_d - 1) sum nu) / d, Jozsa, Robb
    and Wootters' subentropy formula. With ln x = int_0^inf [1/(1+t) - 1/(x+t)] dt,
    (x^d ln x)[nu] = int_0^inf [sum nu / (1+t) + r(t) - 1] dt,  r(t) = prod_j t/(nu_j+t),
    which needs no distinct nodes, so repeated and zero eigenvalues cost no accuracy;
    r - 1 is taken as expm1 of a sum of log1p. The divided difference's derivative is
    d/dnu_i = int_0^inf [1/(1+t) - r(t)/(nu_i+t)] dt.
    """
    nu = np.asarray(spectrum, dtype=float)
    if np.any(nu < 0):
        raise ValueError("spectrum must be nonnegative")
    d = nu.shape[-1]
    tail = _harmonic_tail(d)  # H_d - 1
    total = nu.sum(axis=-1)
    ratio = nu[..., None, :] / _T[:, None]
    log_r = -np.log1p(ratio).sum(axis=-1)
    # dt = t du, h = 1/2
    j = (0.5 * (total[..., None] * _T_RATIO + np.expm1(log_r) * _T).sum(axis=-1) - tail * total) / d
    if not gradient:
        return j
    pull = 0.5 * (_T_RATIO[:, None] - np.exp(log_r)[..., None] / (1.0 + ratio)).sum(axis=-2)
    return j, (pull - tail) / d


def _entropy_rows(p: np.ndarray) -> np.ndarray:
    """Shannon entropy (nats) of each row, with 0 log 0 = 0; a NaN entry makes its row NaN."""
    return -(p * np.log(np.where(p > 0, p, 1.0))).sum(axis=-1)


def mutual_info(p_cond: np.ndarray, weights: np.ndarray) -> float:
    """I = H(C) - sum_a w_a H(C|a) from p_cond[a, c] = p(c | state a)."""
    return float(_entropy_rows(weights @ p_cond) - weights @ _entropy_rows(p_cond))


def _outcome_probabilities(povm: POVM, states: np.ndarray) -> np.ndarray:
    """p(b|psi) = <psi|F_b|psi> for each state row; shape (n, outcomes).

    Rows are renormalized to sum to one (they do exactly, by completeness),
    which removes rounding noise; a single-effect POVM is exactly noiseless.
    """
    cols = [
        np.einsum("nd,nd->n", states.conj(), states @ e.T).real for e in povm.effects
    ]
    p = np.clip(np.stack(cols, axis=1), 0.0, None)
    return p / np.maximum(p.sum(axis=1, keepdims=True), 1e-300)


def info_uniform_mc(povm: POVM, n_samples: int, rng: np.random.Generator) -> InfoReport:
    """Outcome-state mutual information for the Haar ensemble, by sampling.

    H(B) is exact (outcome probabilities are tr F_b / d for the uniform
    ensemble); only the conditional term H(B|Psi) carries sampling noise,
    so the reported stderr applies to both it and the mutual information.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples for a standard error")
    d = povm.dim
    p_b = np.asarray([np.trace(e).real / d for e in povm.effects])
    h_b = float(_entropy_rows(p_b[None, :])[0])
    cond = _entropy_rows(_outcome_probabilities(povm, haar_states(d, n_samples, rng)))
    h_cond = float(cond.mean())
    stderr = float(cond.std(ddof=1) / np.sqrt(n_samples))
    return InfoReport(h_b - h_cond, h_b, h_cond, "monte-carlo", stderr, n_samples)


def info_finite_ensemble(povm: POVM, ensemble: list[tuple[np.ndarray, float]]) -> InfoReport:
    """Exact mutual information for a discrete pure-state ensemble."""
    weights = validate_distribution([w for _, w in ensemble])
    states = np.stack([np.asarray(psi, dtype=complex) for psi, _ in ensemble])
    cond = _outcome_probabilities(povm, states)
    h_b = float(_entropy_rows(weights @ cond))
    h_cond = float(weights @ _entropy_rows(cond))
    return InfoReport(h_b - h_cond, h_b, h_cond, "finite-ensemble")
