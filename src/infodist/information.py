"""Mutual information between measurement outcomes and the input state.

For the uniform (Haar) pure-state ensemble, every POVM whose effects are
proportional to rank-one projectors yields the same mutual information,
log d - sum_{k=1}^{d-1} 1/(1+k), independent of the weights. For any effect
M the Haar average of q ln q, q = <psi|M|psi>, depends on the spectrum of M
alone and is computed by ``haar_xlogx``, and with its first two derivatives on
the frontier's seed family by ``family_xlogx``: both run one trapezoid rule.
``info_uniform_mc`` samples instead, scoring each unnormalised Gaussian draw z
by p(b|z) = <z|F_b|z> / <z|z>. Discrete ensembles are evaluated exactly.
All internal logs are natural; reports can be rescaled to bits for display.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import BLOCK_ENTRIES
from .linalg import form_scores, gaussian_planes, mean_stderr, validate_distribution
from .measurement import POVM

LN2 = float(np.log(2.0))


class InfoReport(NamedTuple):
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
        stderr = None if self.stderr is None else self.stderr / LN2
        scaled = {k: getattr(self, k) / LN2 for k in ("mutual_info", "h_b", "h_b_given_psi")}
        return self._replace(**scaled, stderr=stderr, log_base="bits")


def _harmonic_tail(d: int) -> float:
    """sum_{k=1}^{d-1} 1/(1+k)."""
    return float(sum(1.0 / (1 + k) for k in range(1, d)))


def info_finegrained_exact(d: int) -> float:
    """Mutual information of any rank-one-proportional POVM on Haar states."""
    if d < 1:
        raise ValueError("dimension must be positive")
    return float(np.log(d)) - _harmonic_tail(d)


# Trapezoid nodes t = e^u, u = -36, -35.5, ..., 36, for the integrals over t in (0, inf) in
# _subentropy_rule. As functions of u the integrands t g(t) are analytic in the strip |Im u| < pi
# (their poles sit at u = ln nu_i +- i pi and +- i pi), so the rule converges geometrically
# in 1/h, and past |u| = 36 they are below e^-36 times a polynomial in the spectrum.
_T = np.exp(0.5 * np.arange(-72, 73))
_T_RATIO = _T / (1.0 + _T)


def _subentropy_rule(d: int, total, excess) -> np.ndarray:
    """(int_0^inf [total / (1+t) + g(t)] dt - (H_d - 1) total) / d by the trapezoid rule in u = ln t,
    dt = t du, h = 1/2, with ``excess`` = t g(t) on the nodes along the last axis: J for total = sum nu
    and g = r - 1, and each derivative of J for the derivatives of sum nu and r."""
    return (0.5 * (np.multiply.outer(total, _T_RATIO) + excess).sum(axis=-1) - _harmonic_tail(d) * total) / d


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
    ratio = nu[..., None, :] / _T[:, None]
    log_r = -np.log1p(ratio).sum(axis=-1)
    j = _subentropy_rule(d, nu.sum(axis=-1), np.expm1(log_r) * _T)
    if not gradient:
        return j
    return j, _subentropy_rule(d, np.ones_like(nu), -np.swapaxes(np.exp(log_r)[..., None] / (1.0 + ratio), -1, -2))


def family_xlogx(d: int, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """J, J' and J'' (' = d/dy) of ``haar_xlogx`` on the spectra nu(y) = (d - (d-1) y, y, ..., y), y in
    [0, 1] of any shape (J'' diverges at y = 0), one entry per node whatever d is. With a = d - (d-1) y,
    sum nu = d and ln r = -ln(1 + a/t) - (d-1) ln(1 + y/t): r' = r l1 and r'' = r (l1^2 + l1'),
    l1 = (d-1) (1/(a+t) - 1/(y+t))."""
    y = np.asarray(y, dtype=float)
    if y.size > (rows := BLOCK_ENTRIES // _T.size):  # in blocks: the working memory is flat in y.size
        blocks = [family_xlogx(d, y.ravel()[lo : lo + rows]) for lo in range(0, y.size, rows)]
        return tuple(np.concatenate(parts).reshape(y.shape) for parts in zip(*blocks))
    a = d - (d - 1) * y
    log_r = -np.log1p(a[..., None] / _T) - (d - 1) * np.log1p(y[..., None] / _T)
    tr, inv_a, inv_y = _T * np.exp(log_r), 1.0 / (a[..., None] + _T), 1.0 / (y[..., None] + _T)
    l1 = (d - 1) * (inv_a - inv_y)
    d2r = tr * (l1 * l1 + (d - 1) * ((d - 1) * inv_a * inv_a + inv_y * inv_y))
    return _subentropy_rule(d, d, np.expm1(log_r) * _T), _subentropy_rule(d, 0, tr * l1), _subentropy_rule(d, 0, d2r)


def _entropies(p: np.ndarray) -> np.ndarray:
    """Shannon entropy (nats) along the first axis, with 0 log 0 = 0; a NaN entry makes it NaN."""
    logs = np.where(p > 0, p, 1.0)
    np.log(logs, out=logs)
    logs *= p
    return -logs.sum(axis=0)


def _probabilities(q: np.ndarray) -> np.ndarray:
    """p(b|z), written over the forms q[b] = z†F_b z of one state per column: clipped at 0 and divided by
    their sum (z†z, by completeness), so the state need not be normalised and rounding cancels;
    a single-effect POVM is exactly noiseless, and a zero state's column stays 0."""
    p = np.clip(q, 0.0, None, out=q)
    s = p.sum(axis=0)
    p /= np.where(s > 0, s, 1.0)
    return p


def info_uniform_mc(povm: POVM, n_samples: int, rng: np.random.Generator) -> InfoReport:
    """Outcome-state mutual information for the Haar ensemble, by sampling.

    H(B) is exact (outcome probabilities are tr F_b / d for the uniform
    ensemble); only the conditional term H(B|Psi) carries sampling noise,
    so the reported stderr applies to both it and the mutual information.
    Each Gaussian draw z is scored as it is: p(b|z) = <z|F_b|z> / <z|z>.
    """
    d = povm.dim
    h_b = float(_entropies(np.asarray([np.trace(e).real / d for e in povm.effects])))
    draws = gaussian_planes(d, n_samples, rng)
    cond = form_scores(np.asarray(povm.effects), draws, lambda q: _entropies(_probabilities(q)))
    h_cond, stderr = map(float, mean_stderr(cond))
    return InfoReport(h_b - h_cond, h_b, h_cond, "monte-carlo", stderr, n_samples)


def info_finite_ensemble(povm: POVM, ensemble: list[tuple[np.ndarray, float]]) -> InfoReport:
    """Exact mutual information for a discrete pure-state ensemble; a state's scale does not matter."""
    weights = validate_distribution([w for _, w in ensemble])
    states = np.stack([np.asarray(psi, dtype=complex) for psi, _ in ensemble])
    cond = form_scores(np.asarray(povm.effects), np.stack((states.real, states.imag)), _probabilities)
    h_b = float(_entropies(cond @ weights))
    h_cond = float(weights @ _entropies(cond))
    return InfoReport(h_b - h_cond, h_b, h_cond, "finite-ensemble")
