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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .disturbance import min_disturbance_uniform
from .errors import ConvergenceWarning, DimMismatchError
from .information import haar_xlogx, info_finegrained_exact
from .linalg import dagger, haar_states, haar_unitaries, mat_sqrt, random_density
from .measurement import POVM, Instrument, apply_channel, basis_povm, convex_mix, sqrt_instrument


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
    ops = [np.sqrt(1.0 - p) * np.eye(d, dtype=complex)]
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = np.sqrt(p / d)
            ops.append(e)
    return Instrument(d, (tuple(ops),))


def covariance_check(
    inst: Instrument,
    w: np.ndarray | None = None,
    rho: np.ndarray | None = None,
    samples: int = 0,
    rng: np.random.Generator | None = None,
) -> float:
    """Max residual of W† A(W rho W†) W = A(rho) over the given and/or
    sampled (W, rho) pairs. Zero exactly for depolarizing channels."""
    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    if w is not None or rho is not None:
        if w is None or rho is None:
            raise DimMismatchError("provide both a unitary and a state, or neither")
        pairs.append((np.asarray(w, dtype=complex), np.asarray(rho, dtype=complex)))
    if samples:
        if rng is None:
            raise ValueError("sampling pairs requires an rng")
        for _ in range(samples):
            state = random_density(inst.dim, rng)  # drawn before its unitary
            pairs.append((haar_unitaries(inst.dim, 1, rng)[0], state))
    residuals = []
    for u, state in pairs:
        rotated = dagger(u) @ apply_channel(inst, u @ state @ dagger(u)) @ u
        residuals.append(np.abs(rotated - apply_channel(inst, state)).max())
    return float(np.max(residuals, initial=0.0))  # NaN propagates, unlike Python's max


def twirl_depolarizing_p(povm: POVM) -> float:
    """Mixing probability of the depolarizing channel obtained by Haar
    twirling the square-root instrument: p* = (1 - F_e) d^2 / (d^2 - 1)
    with F_e = sum_b (tr sqrt F_b)^2 / d^2."""
    d = povm.dim
    f_e = sum(float(np.trace(mat_sqrt(e)).real) ** 2 for e in povm.effects) / d**2
    return (1.0 - f_e) * d**2 / (d**2 - 1)


def twirl_channel(povm: POVM, rho: np.ndarray, n_samples: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo Haar twirl of the square-root instrument's channel.

    Averages U sqrt(F_b) U† rho U sqrt(F_b) U† over Haar unitaries; the
    limit is ``depolarize(rho, twirl_depolarizing_p(povm))``. Returns the
    mean and, as one complex array, the per-entry standard errors of its
    real and imaginary parts.
    """
    rho = np.asarray(rho, dtype=complex)
    d = povm.dim
    roots = [mat_sqrt(e) for e in povm.effects]
    us = haar_unitaries(d, n_samples, rng)
    uds = us.conj().transpose(0, 2, 1)
    vals = np.zeros((n_samples, d, d), dtype=complex)
    for r in roots:
        conj = us @ r @ uds
        vals += conj @ rho @ conj.conj().transpose(0, 2, 1)
    mean = vals.mean(axis=0)
    stderr = (vals.real.std(axis=0, ddof=1) + 1j * vals.imag.std(axis=0, ddof=1)) / np.sqrt(n_samples)
    return mean, stderr


# -- the envelope of the seed curve ---------------------------------------------

# an ascent is stationary once its gradient along the sphere is this small: rounding in J
# stops the climb near 1e-7, and at 1e-6 the objective is within ~1e-12 / curvature of the top
_GRAD_STOP = 1e-6
_GAP_STOP = 1e-10  # nats: duality gap at which a grid point counts as solved
_PROBES = 60  # support slopes tried per grid point


@dataclass(frozen=True)
class _Seed:
    """A point (phi, info) = (phi(nu), J(nu)) of the seed curve, nu = roots^2."""

    roots: np.ndarray
    phi: float
    info: float
    slope: float  # lambda of the J + lambda phi it was found maximizing (flat spectrum: inf)
    stationary: bool


def _ascend(roots: np.ndarray, lam: float, max_iter: int) -> tuple[_Seed, int]:
    """Maximize J(s^2) + lam (sum s)^2 over s >= 0 on the sphere |s|^2 = d, from ``roots``.

    In the roots s = sqrt(nu) the objective is smooth up to the simplex faces,
    where phi's nu-gradient blows up. Barzilai-Borwein steps along the
    projected gradient, retracted by |.| and rescaling, with backtracking
    until uphill. Returns the end point and the iterations taken.
    """
    d = len(roots)

    def evaluate(s):
        j, dj = haar_xlogx(s * s, gradient=True)
        total = s.sum()
        g = 2.0 * s * dj + 2.0 * lam * total
        return j, j + lam * total * total, g - (g @ s / d) * s

    s = roots
    j, f, g = evaluate(s)
    step = 0.1
    for it in range(max_iter):
        if np.sqrt(g @ g) <= _GRAD_STOP:  # False on NaN
            return _Seed(s, float(s.sum() ** 2), float(j), lam, True), it
        while True:
            trial = np.abs(s + step * g)
            trial *= np.sqrt(d / (trial @ trial))
            j_new, f_new, g_new = evaluate(trial)
            if f_new > f:
                break
            step /= 2
            if step < 1e-16:  # no uphill step left at this precision
                return _Seed(s, float(s.sum() ** 2), float(j), lam, False), it + 1
        ds, dg = trial - s, g_new - g
        s, j, f, g = trial, j_new, f_new, g_new
        curvature = -(ds @ dg)
        step = (ds @ ds) / curvature if curvature > 0 else 2.0 * step
    return _Seed(s, float(s.sum() ** 2), float(j), lam, bool(np.sqrt(g @ g) <= _GRAD_STOP)), max_iter


def _upper_hull(pool: list[_Seed]) -> list[_Seed]:
    """Vertices of the upper concave envelope, by increasing phi, from the highest point on."""
    hull: list[_Seed] = []
    for z in sorted(pool, key=lambda z: (z.phi, -z.info)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (b.phi - a.phi) * (z.info - a.info) < (b.info - a.info) * (z.phi - a.phi):
                break
            hull.pop()
        hull.append(z)
    top = max(range(len(hull)), key=lambda k: hull[k].info)
    return hull[top:]


def _edge(hull: list[_Seed], phi: float) -> tuple[_Seed, _Seed, float]:
    """The hull edge (a, b) over ``phi`` and the weight of b in the mix of a and b at ``phi``."""
    phi = min(max(phi, hull[0].phi), hull[-1].phi)
    k = next((k for k in range(1, len(hull) - 1) if phi <= hull[k].phi), len(hull) - 1)
    a, b = hull[k - 1], hull[k]
    return a, b, (phi - a.phi) / (b.phi - a.phi)


def _envelope(hull: list[_Seed], phi: float) -> float:
    a, b, w = _edge(hull, phi)
    return a.info + w * (b.info - a.info)  # never above a.info: the hull falls from a to b


def _solve(phi_star: float, pool: list[_Seed], starts: np.ndarray, max_iter: int) -> dict:
    """Close the duality gap of the envelope at phi*, adding what is found to ``pool``,
    whose first two seeds are the rank-one and the flat spectrum.

    Each probe picks a slope lambda, ascends J + lambda phi from the ends of
    the hull edge over phi* (and, on the first probe, from ``starts``), and
    bounds the envelope by max_nu [J + lambda phi] - lambda phi* from above,
    the maximum taken over every spectrum known, and by the hull from below. Probes alternate between the edge's own
    slope, which ends the search on an edge of the true envelope, and a
    secant step in lambda toward phi*, which converges fast where the curve
    is itself concave.
    """
    iterations = ascents = n_stationary = 0
    gap = np.inf
    for probe in range(_PROBES):
        a, b, _ = _edge(_upper_hull(pool), phi_star)
        lam = (a.info - b.info) / (b.phi - a.phi)
        if probe % 2 and a.slope < b.slope < np.inf:
            lam = a.slope + (b.slope - a.slope) * (phi_star - a.phi) / (b.phi - a.phi)
        found = []
        for s in [*starts, a.roots, b.roots]:
            seed, its = _ascend(s, lam, max_iter)
            found.append(seed)
            iterations += its
            ascents += 1
            n_stationary += seed.stationary
        starts = []
        # J <= I_max (Jones) and phi <= d^2 (Cauchy-Schwarz): a spectrum found on or past either
        # bound is the rank-one or the flat one up to rounding, already in the pool exactly
        pool.extend(z for z in found if z.info < pool[0].info and z.phi < pool[1].phi)
        hull = _upper_hull(pool)
        upper = max(z.info + lam * (z.phi - phi_star) for z in [*hull, *found])
        gap = upper - _envelope(hull, phi_star)
        if gap <= _GAP_STOP:
            break
    return {
        "ascents": ascents,
        "converged": bool(gap <= _GAP_STOP and n_stationary == ascents),
        "gap": float(gap),
        "iterations": iterations,
        "n_converged": n_stationary,
        "probes": probe + 1,
    }


def _rescore(spectra: np.ndarray, weights: np.ndarray, samples: int, rng: np.random.Generator):
    """Monte Carlo estimate of sum_k m_k E_psi[q_k ln q_k] over Haar states, with its stderr."""
    q = np.abs(haar_states(spectra.shape[1], samples, rng)) ** 2 @ spectra.T
    x = (q * np.log(np.where(q > 0, q, 1.0))) @ weights
    return float(x.mean()), float(x.std(ddof=1) / np.sqrt(samples))


# -- the frontier --------------------------------------------------------------


@dataclass(frozen=True)
class FrontierPoint:
    p: float
    disturbance: float
    info_lower_bound: float
    line_info: float
    optimizer_meta: dict = field(default_factory=dict)


def line_candidate(d: int, alpha_grid: list[float]) -> list[tuple[float, float]]:
    """(information, disturbance) for the do-nothing / fine-grained mixture
    {alpha I, (1-alpha) |b><b|}: the straight line between the frontier
    endpoints. Disturbance is evaluated through the mixed POVM itself."""
    i_max = info_finegrained_exact(d)
    trivial = POVM(d, (np.eye(d, dtype=complex),))
    basis = basis_povm(d)
    procedures = [(trivial, sqrt_instrument(trivial)), (basis, sqrt_instrument(basis))]
    points = []
    for alpha in alpha_grid:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
        mixed, _ = convex_mix(procedures, [alpha, 1.0 - alpha])
        points.append(((1.0 - alpha) * i_max, min_disturbance_uniform(mixed).disturbance))
    return points


def frontier_curve(
    d: int,
    p_grid: list[float],
    rng: np.random.Generator,
    samples: int = 200,
    restarts: int = 16,
    max_iter: int = 500,
) -> list[FrontierPoint]:
    """Information-disturbance frontier of the uniform (Haar) ensemble.

    For each mixing probability p the disturbance is exactly p(d-1)/d and
    the information is the envelope of the seed curve at d^2(1-p) + p (see
    the module docstring), evaluated exactly by ``haar_xlogx``. Each grid
    point with p > 0 searches for the envelope from ``restarts`` random
    spectra, ascents of at most ``max_iter`` iterations each; the rank-one
    and flat spectra are always candidates. One hull over every spectrum
    found gives all points, so the curve is concave by construction, and
    each value is attained by the at most two seeds recorded in its
    ``optimizer_meta``. Those seeds are re-scored by Monte Carlo over
    ``samples`` Haar states, a check that does not enter the reported value.
    Warnings raised while solving a point are recorded in its metadata and
    raised again. ``line_info`` is the straight-line candidate rescaled to
    the same parameter.
    """
    if samples < 2:
        raise ValueError("need at least two samples for a standard error")
    if max_iter < 1:
        raise ValueError("each ascent needs a budget of at least one iteration")
    p_max = d / (d + 1)
    for p in p_grid:
        if not -1e-12 <= p <= p_max + 1e-12:
            raise ValueError(f"p={p!r} outside [0, {p_max}]")
    i_max = info_finegrained_exact(d)
    rank_one = np.zeros(d)
    rank_one[0] = np.sqrt(d)
    pool = [
        _Seed(rank_one, float(d), i_max, 0.0, True),  # J's maximum (Jones), the fine-grained measurement
        _Seed(np.ones(d), float(d * d), 0.0, np.inf, True),  # q = 1: the identity instrument
    ]

    metas = []
    rescore_streams = []
    for p, stream in zip(p_grid, rng.spawn(len(p_grid))):
        search, rescore = stream.spawn(2)
        rescore_streams.append(rescore)
        meta = {"ascents": 0, "converged": True, "gap": 0.0, "iterations": 0, "n_converged": 0, "probes": 0, "restarts": 0}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if p > 0:  # at p = 0 only the flat spectrum has phi = d^2
                starts = np.sqrt(search.dirichlet(np.ones(d), restarts) * d)
                meta = {**_solve(d * d * (1 - p) + p, pool, starts, max_iter), "restarts": restarts}
                if not meta["converged"]:
                    warnings.warn(
                        f"frontier point p={p:.4f} not solved: {meta['n_converged']} of {meta['ascents']} "
                        f"ascents stationary, duality gap {meta['gap']:.2e} nats",
                        ConvergenceWarning,
                    )
        meta["warnings"] = [str(w.message) for w in caught]
        metas.append(meta)
        for w in caught:
            warnings.warn(w.message, stacklevel=2)

    hull = _upper_hull(pool)
    points = []
    for p, meta, rescore in zip(p_grid, metas, rescore_streams):
        phi_star = d * d * (1 - p) + p
        a, b, w = _edge(hull, phi_star)
        seeds = [(1.0 - w, a), (w, b)] if 0.0 < w < 1.0 else [(1.0, b if w else a)]
        spectra = np.stack([z.roots**2 for _, z in seeds])
        weights = np.array([m for m, _ in seeds])
        mc_info, mc_stderr = _rescore(spectra, weights, samples, rescore)
        meta["seeds"] = [{"weight": m, "spectrum": (z.roots**2).tolist()} for m, z in seeds]
        meta["rescore"] = {"info": mc_info, "stderr": mc_stderr, "samples": samples}
        points.append(FrontierPoint(p, p * (d - 1) / d, _envelope(hull, phi_star), i_max * p * (d + 1) / d, meta))
    return points
