"""Unitarily covariant dynamics and the information-disturbance frontier.

Haar-twirling the square-root instrument of any POVM yields a depolarizing
channel with the same minimal disturbance, so the frontier for the uniform
ensemble can be traced by a one-parameter family: replace the state by I/d
with probability p. The measurement side is pushed onto a (d^2+1)-dim
environment (flag + entangled pair) and the best information for each p is
lower-bounded by a see-saw ascent over environment POVMs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .disturbance import min_disturbance_uniform
from .errors import ConvergenceWarning, DimMismatchError
from .information import info_finegrained_exact, mutual_info
from .linalg import (
    dagger,
    gen_inv_sqrt,
    haar_states,
    haar_unitaries,
    mat_sqrt,
    outer,
    random_density,
    validate_distribution,
)
from .measurement import POVM, Instrument, apply_channel, basis_povm, convex_mix, sqrt_instrument
from .galois import odd_prime_power, wootters_fields_mub


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


def twirl_depolarizing_p(povm: POVM, tol: Tolerances = DEFAULT_TOL) -> float:
    """Mixing probability of the depolarizing channel obtained by Haar
    twirling the square-root instrument: p* = (1 - F_e) d^2 / (d^2 - 1)
    with F_e = sum_b (tr sqrt F_b)^2 / d^2."""
    d = povm.dim
    f_e = sum(float(np.trace(mat_sqrt(e, tol)).real) ** 2 for e in povm.effects) / d**2
    return (1.0 - f_e) * d**2 / (d**2 - 1)


def twirl_channel(
    povm: POVM,
    rho: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo Haar twirl of the square-root instrument's channel.

    Averages U sqrt(F_b) U† rho U sqrt(F_b) U† over Haar unitaries; the
    limit is ``depolarize(rho, twirl_depolarizing_p(povm))``. Returns the
    mean and, as one complex array, the per-entry standard errors of its
    real and imaginary parts.
    """
    rho = np.asarray(rho, dtype=complex)
    d = povm.dim
    roots = [mat_sqrt(e, tol) for e in povm.effects]
    us = haar_unitaries(d, n_samples, rng)
    uds = us.conj().transpose(0, 2, 1)
    vals = np.zeros((n_samples, d, d), dtype=complex)
    for r in roots:
        conj = us @ r @ uds
        vals += conj @ rho @ conj.conj().transpose(0, 2, 1)
    mean = vals.mean(axis=0)
    stderr = (vals.real.std(axis=0, ddof=1) + 1j * vals.imag.std(axis=0, ddof=1)) / np.sqrt(n_samples)
    return mean, stderr


# -- environment model --------------------------------------------------------


def environment_model(d: int, p: float) -> np.ndarray:
    """Initial environment vector in C^(d^2+1): a flag direction (index 0)
    plus a d x d entangled block (indices 1 + i*d + k, row-major)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing probability must lie in [0, 1], got {p!r}")
    env = np.zeros(d * d + 1, dtype=complex)
    env[0] = np.sqrt(1.0 - p)
    for i in range(d):
        env[1 + i * d + i] = np.sqrt(p / d)
    return env


def environment_state(psi: np.ndarray, p: float) -> np.ndarray:
    """Environment state left behind by the probabilistic-swap dilation of
    the depolarizing channel on input |psi>.

    (1-p)|F><F| + p |psi><psi| x I/d on the pair block, plus coherences
    sqrt((1-p)p/d) between |F> and |psi> x |conj psi|. The second factor
    carries the conjugate amplitudes: that is what the swap interaction
    produces, as ``env_unitary_check`` verifies end to end.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing probability must lie in [0, 1], got {p!r}")
    psi = np.asarray(psi, dtype=complex)
    d = psi.shape[0]
    dim = d * d + 1
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0 - p
    rho[1:, 1:] = p * np.kron(outer(psi), np.eye(d) / d)
    chi = np.kron(psi, psi.conj())
    c = np.sqrt((1.0 - p) * p / d)
    rho[1:, 0] = c * chi
    rho[0, 1:] = c * chi.conj()
    return rho


def swap_dilation_unitary(d: int) -> np.ndarray:
    """Unitary on system x environment ((d^3+d)-dim): swap the system with
    the first environment factor on the pair block, identity on the flag."""
    dim_e = d * d + 1
    u = np.zeros((d * dim_e, d * dim_e))
    for j in range(d):
        u[j * dim_e, j * dim_e] = 1.0
        for i in range(d):
            for k in range(d):
                u[i * dim_e + 1 + j * d + k, j * dim_e + 1 + i * d + k] = 1.0
    return u


def env_unitary_check(psi: np.ndarray, p: float) -> tuple[float, float]:
    """Drive the swap dilation end to end and compare against the closed
    forms. Returns (environment residual, system residual): max-entry
    distances of the traced-out marginals from ``environment_state`` and
    ``depolarize`` respectively."""
    psi = np.asarray(psi, dtype=complex)
    d = psi.shape[0]
    env = environment_model(d, p)
    joint = swap_dilation_unitary(d) @ np.kron(psi, env)
    amp = joint.reshape(d, len(env))
    rho_env = np.einsum("ai,aj->ij", amp, amp.conj())
    rho_sys = np.einsum("ia,ja->ij", amp, amp.conj())
    res_env = float(np.abs(rho_env - environment_state(psi, p)).max())
    res_sys = float(np.abs(rho_sys - depolarize(outer(psi), p)).max())
    return res_env, res_sys


# -- accessible information lower bound ---------------------------------------


@dataclass(frozen=True)
class AccessibleInfoResult:
    info: float
    povm: POVM
    converged: bool
    iterations: int
    restarts: int
    n_converged: int


def _state_factors(states: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, int]:
    """Rows k_j, shape (a*r, dim), with rho_a = sum_j k_j k_j† over its r rows: the top r
    eigencolumns times root eigenvalues, r the largest rank (support cutoff as in gen_inv_sqrt)."""
    w, v = np.linalg.eigh(states)
    w = np.where(w > np.maximum(states.shape[1] * w[:, -1:] * tol.support_rel, 0.0), w, 0.0)
    r = max(int((w > 0).sum(axis=1).max()), 1)
    factors = v[:, :, -r:] * np.sqrt(w[:, None, -r:])
    return factors.transpose(0, 2, 1).reshape(-1, states.shape[1]), r


def _rank1_outcome_probs(rows_conj: np.ndarray, r: int, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p(c | state a) = sum_j |k_j† v_c|^2 for effects |v_c><v_c|, shape (a, c), and amplitudes k_j† v_c."""
    amp = rows_conj @ vectors.T
    return (amp.real**2 + amp.imag**2).reshape(-1, r, len(vectors)).sum(axis=1), amp


def accessible_info_lb(
    ensemble: list[tuple[np.ndarray, float]],
    restarts: int = 16,
    max_iter: int = 500,
    rng: np.random.Generator | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> AccessibleInfoResult:
    """Lower bound on the accessible information of a density-operator
    ensemble, with the POVM achieving it.

    See-saw ascent over rank-one POVMs. Effects |v_c><v_c| are seeded from
    columns of Haar unitaries, the vectors are pushed along the mutual-
    information gradient R_c = sum_a w_a ln(p(c|a)/p(c)) rho_a by
    v_c -> (I + t R_c) v_c, and feasibility is restored by the symmetric
    normalization S^{-1/2} applied to every vector (S the new effect sum).
    Keeping the factored form makes positivity structural. Downhill steps
    are rejected (backtracking on t), so the objective is monotone; the
    best restart wins and ties go to the earliest. A restart has converged
    once 10 iterations in a row gain less than 1e-9 nats.
    """
    if rng is None:
        raise ValueError("an explicit rng is required for reproducibility")
    weights = validate_distribution([w for _, w in ensemble], tol)
    states = np.stack([np.asarray(r, dtype=complex) for r, _ in ensemble])
    dim = states.shape[1]
    rows, rank = _state_factors(states, tol)
    rows_conj = rows.conj()
    n_unitaries = max(dim - 1, 1)  # dim(dim-1) outcomes, the columns of dim-1 unitaries
    gain_floor = 1e-9  # nats
    patience = 10
    eye = np.eye(dim, dtype=complex)

    best: tuple[float, np.ndarray, bool, int] | None = None
    n_converged = 0
    for stream in rng.spawn(restarts):
        blocks = haar_unitaries(dim, n_unitaries, stream)
        vectors = np.concatenate([u.T for u in blocks], axis=0) / np.sqrt(n_unitaries)
        p_cond, amp = _rank1_outcome_probs(rows_conj, rank, vectors)
        info = mutual_info(p_cond, weights)
        step = 1.0
        stall = 0
        converged = False
        iterations = 0
        for iterations in range(1, max_iter + 1):
            p_c = weights @ p_cond
            log_ratio = np.log(np.maximum(p_cond, 1e-300)) - np.log(np.maximum(p_c, 1e-300))
            # R_c v_c = sum_a w_a ln(p(c|a)/p(c)) sum_j k_j (k_j† v_c)
            coeff = (weights[:, None] * log_ratio)[:, None, :]
            push = (coeff * amp.reshape(-1, rank, amp.shape[1])).reshape(amp.shape).T @ rows
            scale = np.abs(push).max()
            if scale > 0:
                push = push / scale

            # after a backtrack to t/2, the doubling probe asks for t again
            tried: dict[float, tuple | None] = {}

            def try_step(t: float):
                if t not in tried:
                    moved = vectors + t * push
                    cand = moved @ gen_inv_sqrt(moved.T @ moved.conj(), tol).T
                    tried[t] = None
                    if np.abs(cand.T @ cand.conj() - eye).max() <= tol.reconstruction:  # False on NaN
                        p_new, amp_new = _rank1_outcome_probs(rows_conj, rank, cand)
                        tried[t] = mutual_info(p_new, weights), cand, p_new, amp_new
                return tried[t]

            # backtrack until uphill, then double greedily while still gaining
            gained = None
            t_try = step
            for _ in range(40):
                trial = try_step(t_try)
                if trial is not None and trial[0] > info:
                    gained = trial
                    break
                t_try /= 2
                if t_try < 1e-14:
                    break
            if gained is not None:
                for _ in range(12):
                    trial = try_step(2 * t_try)
                    if trial is None or not trial[0] > gained[0]:
                        break
                    t_try *= 2
                    gained = trial
                improvement = gained[0] - info
                info, vectors, p_cond, amp = gained
                step = min(t_try * 1.3, 32.0)
                stall = stall + 1 if improvement < gain_floor else 0
            else:
                stall += 1
            if stall >= patience:
                converged = True
                break
        n_converged += converged
        if best is None or info > best[0]:
            best = (info, vectors, converged, iterations)

    if n_converged == 0:
        warnings.warn("no see-saw restart met the convergence test", ConvergenceWarning)
    info, vectors, converged, iterations = best
    povm = POVM(dim, tuple(outer(v) for v in vectors))
    return AccessibleInfoResult(max(info, 0.0), povm, converged, iterations, restarts, n_converged)


# -- the frontier --------------------------------------------------------------


@dataclass(frozen=True)
class FrontierPoint:
    p: float
    disturbance: float
    info_lower_bound: float
    line_info: float
    optimizer_meta: dict = field(default_factory=dict)


def line_candidate(d: int, alpha_grid: list[float], tol: Tolerances = DEFAULT_TOL) -> list[tuple[float, float]]:
    """(information, disturbance) for the do-nothing / fine-grained mixture
    {alpha I, (1-alpha) |b><b|}: the straight line between the frontier
    endpoints. Disturbance is evaluated through the mixed POVM itself."""
    i_max = info_finegrained_exact(d)
    trivial = POVM(d, (np.eye(d, dtype=complex),))
    basis = basis_povm(d)
    points = []
    for alpha in alpha_grid:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
        mixed, _ = convex_mix(
            [(trivial, sqrt_instrument(trivial, tol)), (basis, sqrt_instrument(basis, tol))],
            [alpha, 1.0 - alpha],
            tol,
        )
        points.append(((1.0 - alpha) * i_max, min_disturbance_uniform(mixed, tol).disturbance))
    return points


def frontier_curve(
    d: int,
    p_grid: list[float],
    ensemble_size: int = 200,
    restarts: int = 16,
    rng: np.random.Generator | None = None,
    max_iter: int = 500,
    tol: Tolerances = DEFAULT_TOL,
) -> list[FrontierPoint]:
    """Information-disturbance frontier lower bound for the uniform ensemble.

    For each mixing probability p the disturbance is exactly p(d-1)/d; the
    information is a see-saw lower bound on the accessible information of
    the final environment states, with the continuum of inputs approximated
    either by Haar samples or, when d is an odd prime power, by the
    unbiased-bases design. ``line_info`` is the straight-line candidate
    rescaled to the same parameter. Points are post-processed to be
    monotone (cumulative max); raw dips beyond 1e-3 trigger a warning.
    """
    if rng is None:
        raise ValueError("an explicit rng is required for reproducibility")
    p_max = d / (d + 1)
    for p in p_grid:
        if not -1e-12 <= p <= p_max + 1e-12:
            raise ValueError(f"p={p!r} outside [0, {p_max}]")
    pp = odd_prime_power(d)
    if pp is not None:
        states = wootters_fields_mub(*pp).vectors()
    else:
        states = haar_states(d, ensemble_size, rng)
    i_max = info_finegrained_exact(d)

    points: list[FrontierPoint] = []
    running_max = 0.0
    for p, stream in zip(p_grid, rng.spawn(len(p_grid))):
        disturbance = p * (d - 1) / d
        line_info = i_max * p * (d + 1) / d
        if p == 0.0:
            # point mass ensemble: no information at zero mixing
            points.append(FrontierPoint(0.0, 0.0, 0.0, 0.0, {"restarts": 0, "iterations": 0, "converged": True, "raw_info": 0.0, "n_converged": 0}))
            continue
        ensemble = [(environment_state(psi, p), 1.0 / len(states)) for psi in states]
        result = accessible_info_lb(
            ensemble, restarts=restarts, max_iter=max_iter, rng=stream, tol=tol
        )
        raw = result.info
        if raw < running_max - 1e-3:
            warnings.warn(
                f"frontier info dipped by {running_max - raw:.2e} at p={p:.4f}", ConvergenceWarning
            )
        running_max = max(running_max, raw)
        points.append(
            FrontierPoint(
                p,
                disturbance,
                running_max,
                line_info,
                {
                    "restarts": result.restarts,
                    "iterations": result.iterations,
                    "converged": result.converged,
                    "raw_info": raw,
                    "n_converged": result.n_converged,
                },
            )
        )
    return points
