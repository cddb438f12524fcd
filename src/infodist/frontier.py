"""Unitarily covariant dynamics and the information-disturbance frontier.

Haar-twirling the square-root instrument of any POVM yields a depolarizing
channel with the same minimal disturbance, so the frontier for the uniform
ensemble is traced by covariant instruments. Each has Kraus operators
sqrt(m_k) U diag(sqrt(nu_k)) U† over Haar U, with weights sum_k m_k = 1 and
seed spectra nu_k >= 0, sum_i nu_ki = d. Its information on the Haar
ensemble is sum_k m_k J(nu_k), J(nu) = E_psi[q ln q] with
q = sum_i nu_i |psi_i|^2 (``information.haar_xlogx``), and its twirl is the
channel that replaces the state by I/d with probability p, where
d^2 (1 - p) + p = sum_k m_k phi(nu_k) and phi(nu) = (sum_i sqrt(nu_i))^2.
So the frontier at disturbance p(d-1)/d is the upper concave envelope of
the planar curve {(phi(nu), J(nu))} at phi* = d^2 (1 - p) + p, and by
Caratheodory in the plane a mix of at most two seeds attains it.

The envelope is taken on the one-parameter spectra
nu(y) = (d - (d-1) y, y, ..., y), y in [0, 1], from the rank-one (y = 0)
to the flat spectrum (y = 1): one eigenvalue against d-1 equal ones, the
structure of the optimal operations in Banaszek's fidelity tradeoff
(PRL 86, 1366, 2001). That the envelope over all spectra lies on this
family is a numerical finding, not a theorem: a multi-start search over all
spectra, kept in the tests as an oracle, never beats it by more than
rounding (1.6e-13) for d = 2..10. On the family, phi(y) = phi* is a
quadratic in sqrt y, and the arc y in [0, y*] is concave (a test checks
d^2 J / d phi^2 < 0 on it for d up to 49, hence ``FRONTIER_CAP``). For
d >= 3 the envelope below p* is the chord from the flat spectrum to nu(y*),
the point where J / (d^2 - phi) peaks; y* is solved by Newton steps on the
family's own J, J', J'' (``information.family_xlogx``), kept in a bracket
from a short scan, to a step of relative size ``TANGENT_REL``, about the
band in which the sign of the residual is rounding noise. At d = 2 the arc
runs to the flat end. J(y*) and the arc's J come from one batched call of
the same function, with I_max at rank one and 0 at the flat end set exactly.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import FRONTIER_CAP, GRID_SLACK, TANGENT_REL
from .errors import InfodistError
from .information import family_xlogx, info_finegrained_exact
from .linalg import dagger, haar_unitaries, mat_sqrt, mean_stderr
from .measurement import POVM, Instrument, apply_channel


def depolarize(rho: np.ndarray, p: float) -> np.ndarray:
    """(1-p) rho + p I/d: keep the state or swap in the uniform one."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing probability must lie in [0, 1], got {p!r}")
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    return (1.0 - p) * rho + p * np.trace(rho) * np.eye(d) / d


def depolarizing_instrument(d: int, p: float) -> Instrument:
    """Single-outcome Kraus form of the depolarizing channel:
    sqrt(1-p) I together with sqrt(p/d) |i><j| for all i, j."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing probability must lie in [0, 1], got {p!r}")
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)  # |i><j|, i then j
    return Instrument(d, ((np.sqrt(1.0 - p) * np.eye(d, dtype=complex), *(np.sqrt(p / d) * units)),))


def covariance_check(inst: Instrument, w: np.ndarray, rho: np.ndarray) -> float:
    """Max-entry residual of W† A(W rho W†) W = A(rho) for one unitary W and
    one state rho; NaN if either side has a NaN entry. In exact arithmetic
    it vanishes for every pair iff A is depolarizing."""
    w = np.asarray(w, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    rotated = dagger(w) @ apply_channel(inst, w @ rho @ dagger(w)) @ w
    return float(np.abs(rotated - apply_channel(inst, rho)).max())  # NaN propagates


def twirl_channel(povm: POVM, rho: np.ndarray, n_samples: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo Haar twirl of the square-root instrument's channel.

    Averages U sqrt(F_b) U† rho U sqrt(F_b) U† over Haar unitaries; the limit is
    ``depolarize(rho, twirl_depolarizing_p(povm))``. Returns the mean and, as one complex array, the
    per-entry standard errors of its real and imaginary parts. The samples are kept batch-last,
    (d, d, n), so each conjugation is one einsum over the contiguous batch axis.
    """
    rho = np.asarray(rho, dtype=complex)
    d = povm.dim
    # sum_b (U r_b U†) rho (U r_b U†) = U L(U† rho U) U† with L(X) = sum_b r_b X r_b,
    # r_b = sqrt(F_b); on row-major vec(X), vec(r X r) = (r kron r^T) vec(X)
    superop = sum(np.kron(r, r.T) for r in map(mat_sqrt, povm.effects))
    us = haar_unitaries(d, n_samples, rng).transpose(1, 2, 0)  # the batch-last array itself
    ucs = us.conj()
    x = np.einsum("jin,jkn->ikn", ucs, (rho @ us.reshape(d, d * n_samples)).reshape(d, d, n_samples))
    x = (superop @ x.reshape(d * d, n_samples)).reshape(d, d, n_samples)
    x = np.einsum("ijn,jkn->ikn", us, x)
    vals = np.empty((n_samples, d, d), complex)
    np.einsum("ijn,kjn->ikn", x, ucs, out=vals.transpose(1, 2, 0))
    del us, ucs, x  # the standard error's temporary is as large as each of these
    # viewed as (n, d, 2d) reals, each real and each imaginary part is a sample of its own
    mean, stderr = mean_stderr(vals.view(float))
    return mean.view(complex), stderr.view(complex)


# -- the frontier on the one-parameter seed family ------------------------------


def _phi(d: int, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi(nu(y)) = (sqrt a + (d-1) sqrt y)^2, a = d - (d-1) y, phi' and phi'' (' = d/dy), y in (0, 1]."""
    y = np.asarray(y, dtype=float)
    a = d - (d - 1) * y
    rt_a, rt_y = np.sqrt(a), np.sqrt(y)
    s, ds = rt_a + (d - 1) * rt_y, 0.5 * (d - 1) * (1.0 / rt_y - 1.0 / rt_a)
    d2s = -0.25 * (d - 1) * (1.0 / (y * rt_y) + (d - 1) / (a * rt_a))
    return s * s, 2.0 * s * ds, 2.0 * (ds * ds + s * d2s)


def _tangent_residual(d: int, y) -> tuple[np.ndarray, np.ndarray]:
    """R = J phi' - J' (phi - d^2), positive while J / (d^2 - phi), the slope of the chord from the
    flat spectrum, still grows with y, and its derivative R' = J phi'' - J'' (phi - d^2)."""
    (j, dj, d2j), (phi, dphi, d2phi) = family_xlogx(d, y), _phi(d, y)
    residual = j * dphi - dj * (phi - d * d)
    if np.isnan(residual).any():
        raise FloatingPointError(f"the tangent residual is NaN in dimension {d}")
    return residual, j * d2phi - d2j * (phi - d * d)


def _tangent_point(d: int) -> float:
    """The y* in (0, 1) that maximizes J(y) / (d^2 - phi(y)), d >= 3: the seed where the chord from
    the flat spectrum touches the arc. R is +inf at y = 0 and crosses zero once; one batched scan
    brackets the crossing, and Newton steps from the bracket's secant root in ln y close in on it,
    each shrinking the bracket by the sign of R and bisecting it instead of stepping out of it. The
    solve stops at a step within ``TANGENT_REL`` of y*, inside the rounding band of R's sign."""
    ys = 1e-3 * 600.0 ** (np.arange(12) / 11)  # y*(3) = 0.453 down to y*(FRONTIER_CAP = 49) = 0.0123
    scan = _tangent_residual(d, ys)[0]
    k = int(np.argmax(scan <= 0))  # 0 if scan[0] <= 0 or no point is: no sign change in the scan
    if k == 0:
        raise ArithmeticError(f"the chord from the flat spectrum touches no seed in dimension {d}")
    (lo, hi), (f_lo, f_hi) = ys[k - 1 : k + 1], scan[k - 1 : k + 1]
    y = np.exp((np.log(lo) * f_hi - np.log(hi) * f_lo) / (f_hi - f_lo))  # the scan is geometric
    while True:  # each continued step lands strictly inside the bracket, which the next one shrinks
        f, df = map(float, _tangent_residual(d, y))
        lo, hi = (y, hi) if f > 0 else (lo, y)
        step = f / df
        if abs(step) > TANGENT_REL * y and not lo < y - step < hi:
            step = y - 0.5 * (lo + hi)
        if abs(step) <= TANGENT_REL * y:
            return float(y - step)
        y -= step


def _arc_point(d: int, p: float, p_max: float) -> float:
    """The y with phi(y) = phi* = d^2 (1-p) + p, for p in [0, p_max].

    phi(y) = phi* is a quadratic in sqrt y. Its root in [0, 1] is
    ((d-1) sqrt phi* - sqrt((d-1)(d^2 - phi*))) / (d(d-1)) = (sqrt phi* - sqrt((d+1) p)) / d,
    which is exactly 1, the flat spectrum, at p = 0; the rank-one end y = 0 is set exactly.
    """
    if p == p_max:
        return 0.0
    root = (np.sqrt(d * d * (1.0 - p) + p) - np.sqrt((d + 1) * p)) / d
    return float(min(max(root, 0.0), 1.0) ** 2)


class FrontierPoint(NamedTuple):
    p: float
    disturbance: float
    info_lower_bound: float
    line_info: float
    optimizer_meta: dict


def frontier_curve(d: int, p_grid: list[float]) -> list[FrontierPoint]:
    """Information-disturbance frontier of the uniform (Haar) ensemble.

    For each mixing probability p the disturbance is exactly p(d-1)/d and
    the information is the envelope of the seed curve at d^2(1-p) + p, taken
    on the family nu(y) (see the module docstring): the chord to nu(y*) for
    p < p* = (d^2 - phi(y*)) / (d^2 - 1), the arc beyond. d runs from 2 to
    ``FRONTIER_CAP``, and p may lie ``GRID_SLACK`` outside [0, d/(d+1)], in
    which case it is solved at the end. Each value is attained by the at
    most two seeds listed, with their weights and spectra, in its
    ``optimizer_meta``. ``line_info`` is the straight-line candidate at the
    same disturbance: the flagged mix of doing nothing and the basis
    measurement, with basis weight p(d+1)/d, carries that fraction of I_max.
    """
    if d < 2:
        raise InfodistError(f"the frontier needs dimension at least 2, got {d}")
    if d > FRONTIER_CAP:
        raise InfodistError(f"dimension {d} exceeds the configured cap {FRONTIER_CAP}")
    p_max = d / (d + 1)
    for p in p_grid:
        if not -GRID_SLACK <= p <= p_max + GRID_SLACK:
            raise ValueError(f"p={p!r} outside [0, {p_max}]")
    i_max = info_finegrained_exact(d)
    # at d = 2 the arc is concave up to the flat spectrum, so there is no chord
    y_star = _tangent_point(d) if d > 2 else 1.0
    p_star = (d * d - float(_phi(d, y_star)[0])) / (d * d - 1)
    qs = [min(max(p, 0.0), p_max) for p in p_grid]
    ys = np.array([y_star] + [_arc_point(d, q, p_max) for q in qs if q >= p_star])
    js = family_xlogx(d, ys)[0]
    js[ys == 0.0], js[ys == 1.0] = i_max, 0.0  # exact at the ends: I_max (Jones) at rank one, 0 when flat
    j_star, arc = float(js[0]), zip(ys[1:].tolist(), js[1:].tolist())

    points = []
    for p, q in zip(p_grid, qs):
        if q < p_star:  # the flagged mix of the flat spectrum and nu(y*)
            w = q / p_star
            seeds = [(1.0 - w, 1.0, 0.0), (w, y_star, j_star)] if w > 0 else [(1.0, 1.0, 0.0)]
        else:
            seeds = [(1.0, *next(arc))]
        info = sum(m * j for m, _, j in seeds)
        meta = {"seeds": [{"weight": m, "spectrum": [d - (d - 1) * y] + [y] * (d - 1)} for m, y, _ in seeds]}
        points.append(FrontierPoint(p, p * (d - 1) / d, info, i_max * p * (d + 1) / d, meta))
    return points
