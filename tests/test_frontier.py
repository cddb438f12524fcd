import time
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

import infodist as qd
from conftest import induced_effects
from infodist import frontier, information
from infodist.config import FRONTIER_CAP, GRID_SLACK, TANGENT_REL

E0 = np.array([1, 0], dtype=complex)
E1 = np.array([0, 1], dtype=complex)


# -- oracles: the probabilistic-swap dilation of the depolarizing channel --------


def environment_model(d, p):
    """Initial environment vector in C^(d^2+1): a flag direction (index 0)
    plus a d x d entangled block (indices 1 + i*d + k, row-major)."""
    env = np.zeros(d * d + 1, dtype=complex)
    env[0] = np.sqrt(1.0 - p)
    for i in range(d):
        env[1 + i * d + i] = np.sqrt(p / d)
    return env


def environment_state(psi, p):
    """Environment state left behind by the probabilistic-swap dilation on input |psi>:
    (1-p)|F><F| + p |psi><psi| x I/d on the pair block, plus coherences
    sqrt((1-p)p/d) between |F> and |psi> x |conj psi|."""
    psi = np.asarray(psi, dtype=complex)
    d = psi.shape[0]
    rho = np.zeros((d * d + 1, d * d + 1), dtype=complex)
    rho[0, 0] = 1.0 - p
    rho[1:, 1:] = p * np.kron(qd.outer(psi), np.eye(d) / d)
    chi = np.kron(psi, psi.conj())
    c = np.sqrt((1.0 - p) * p / d)
    rho[1:, 0] = c * chi
    rho[0, 1:] = c * chi.conj()
    return rho


def swap_dilation_unitary(d):
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


def env_unitary_check(psi, p):
    """(environment residual, system residual) of the swap dilation driven end to end,
    against ``environment_state`` and ``depolarize``."""
    psi = np.asarray(psi, dtype=complex)
    d = psi.shape[0]
    env = environment_model(d, p)
    amp = (swap_dilation_unitary(d) @ np.kron(psi, env)).reshape(d, len(env))
    rho_env = np.einsum("ai,aj->ij", amp, amp.conj())
    rho_sys = np.einsum("ia,ja->ij", amp, amp.conj())
    return (
        float(np.abs(rho_env - environment_state(psi, p)).max()),
        float(np.abs(rho_sys - qd.depolarize(qd.outer(psi), p)).max()),
    )


# -- oracle: the multi-start search over all seed spectra that the family replaced --------

GRAD_STOP = 1e-6  # an ascent stops once its gradient along the sphere is this small
GAP_STOP = 1e-12  # nats: duality gap at which a grid point counts as solved
PROBES = 60  # support slopes tried per grid point


@dataclass(frozen=True)
class Seed:
    """A point (phi, info) = (phi(nu), J(nu)) of the seed curve, nu = roots^2."""

    roots: np.ndarray
    phi: float
    info: float
    slope: float  # lambda of the J + lambda phi it was found maximizing (flat spectrum: inf)


def ascend(roots, lam):
    """Maximize J(s^2) + lam (sum s)^2 over s >= 0 on the sphere |s|^2 = d, from ``roots``:
    Barzilai-Borwein steps along the projected gradient, retracted by |.| and rescaling,
    with backtracking until uphill, for at most 500 iterations."""
    d = len(roots)

    def evaluate(s):
        j, dj = qd.haar_xlogx(s * s, gradient=True)
        total = s.sum()
        g = 2.0 * s * dj + 2.0 * lam * total
        return j, j + lam * total * total, g - (g @ s / d) * s

    s = roots
    j, f, g = evaluate(s)
    step = 0.1
    for _ in range(500):
        if np.sqrt(g @ g) <= GRAD_STOP:
            break
        while True:
            trial = np.abs(s + step * g)
            trial *= np.sqrt(d / (trial @ trial))
            j_new, f_new, g_new = evaluate(trial)
            if f_new > f:
                break
            step /= 2
            if step < 1e-16:  # no uphill step left at this precision
                return Seed(s, float(s.sum() ** 2), float(j), lam)
        ds, dg = trial - s, g_new - g
        s, j, f, g = trial, j_new, f_new, g_new
        curvature = -(ds @ dg)
        step = (ds @ ds) / curvature if curvature > 0 else 2.0 * step
    return Seed(s, float(s.sum() ** 2), float(j), lam)


def upper_hull(pool):
    """Vertices of the upper concave envelope, by increasing phi, from the highest point on."""
    hull = []
    for z in sorted(pool, key=lambda z: (z.phi, -z.info)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (b.phi - a.phi) * (z.info - a.info) < (b.info - a.info) * (z.phi - a.phi):
                break
            hull.pop()
        hull.append(z)
    top = max(range(len(hull)), key=lambda k: hull[k].info)
    return hull[top:]


def envelope_edge(hull, phi):
    """The hull edge (a, b) over ``phi`` and the envelope's value there."""
    phi = min(max(phi, hull[0].phi), hull[-1].phi)
    k = next((k for k in range(1, len(hull) - 1) if phi <= hull[k].phi), len(hull) - 1)
    a, b = hull[k - 1], hull[k]
    return a, b, a.info + (phi - a.phi) / (b.phi - a.phi) * (b.info - a.info)


def close_gap(phi_star, pool, starts):
    """Add seeds to ``pool`` until the envelope's duality gap at phi* is at most GAP_STOP.

    Each probe picks a slope lambda, ascends J + lambda phi from the ends of the hull edge
    over phi* (and, on the first probe, from ``starts``), and bounds the envelope by
    max_nu [J + lambda phi] - lambda phi* from above and by the hull from below. Probes
    alternate between the edge's own slope and a secant step in lambda toward phi*.
    """
    for probe in range(PROBES):
        a, b, _ = envelope_edge(upper_hull(pool), phi_star)
        lam = (a.info - b.info) / (b.phi - a.phi)
        if probe % 2 and a.slope < b.slope < np.inf:
            lam = a.slope + (b.slope - a.slope) * (phi_star - a.phi) / (b.phi - a.phi)
        found = [ascend(s, lam) for s in [*starts, a.roots, b.roots]]
        starts = []
        # past J <= I_max or phi <= d^2 lie only rounded copies of the exact rank-one and flat seeds
        pool.extend(z for z in found if z.info < pool[0].info and z.phi < pool[1].phi)
        hull = upper_hull(pool)
        upper = max(z.info + lam * (z.phi - phi_star) for z in [*hull, *found])
        if upper - envelope_edge(hull, phi_star)[2] <= GAP_STOP:
            return


def oracle_curve(d, p_grid, rng, restarts=16):
    """The envelope of the seed curve over all spectra at each p, from ``restarts`` random
    spectra per point; the rank-one and flat spectra are always candidates. With the same
    rng and GAP_STOP at 1e-10 it gave the values the multi-start engine shipped before the
    one-parameter family."""
    rank_one = np.zeros(d)
    rank_one[0] = np.sqrt(d)
    pool = [Seed(rank_one, float(d), qd.info_finegrained_exact(d), 0.0), Seed(np.ones(d), float(d * d), 0.0, np.inf)]
    for p, stream in zip(p_grid, rng.spawn(len(p_grid))):
        if p > 0:
            search = stream.spawn(2)[0]
            close_gap(d * d * (1 - p) + p, pool, np.sqrt(search.dirichlet(np.ones(d), restarts) * d))
    hull = upper_hull(pool)
    return np.array([envelope_edge(hull, d * d * (1 - p) + p)[2] for p in p_grid])


# -- oracle: the chord's touch point y*(d) by bisection to adjacent doubles ----------------


def family_spectra(d, y):
    """The seed spectra nu(y) = (d - (d-1) y, y, ..., y), for y of any shape."""
    y = np.asarray(y, dtype=float)
    nu = np.repeat(y[..., None], d, axis=-1)
    nu[..., 0] = d - (d - 1) * y
    return nu


def generic_tangent_residual(d, y):
    """J phi' - J' (phi - d^2) along the family from ``haar_xlogx`` on the full spectra nu(y), with J'
    its gradient contracted with dnu/dy = (-(d-1), 1, ..., 1): independent of the family kernel."""
    nu = family_spectra(d, y)
    j, grad = qd.haar_xlogx(nu, gradient=True)
    dj = grad[..., 1:].sum(axis=-1) - (d - 1) * grad[..., 0]
    phi = (np.sqrt(nu[..., 0]) + (d - 1) * np.sqrt(y)) ** 2
    dphi = (d - 1) * np.sqrt(phi) * (1.0 / np.sqrt(y) - 1.0 / np.sqrt(nu[..., 0]))
    return j * dphi - dj * (phi - d * d)


def bisected_tangent_point(d):
    """y* with nothing of the frontier's solve: a 48-point batched scan of the generic tangent
    residual brackets the sign change, and bisection closes it to adjacent doubles."""
    ys = np.geomspace(1e-6, 1.0, 49)[:-1]
    scan = generic_tangent_residual(d, ys)
    k = int(np.argmax(scan <= 0))
    assert scan[k] <= 0
    lo, hi = (ys[k - 1] if k else 0.0), ys[k]
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if generic_tangent_residual(d, mid) > 0:
            lo = mid
        else:
            hi = mid
    return float(lo)


def test_depolarize_endpoints_and_fidelity():
    rng = np.random.default_rng(70)
    rho = qd.random_density(3, rng)
    assert np.abs(qd.depolarize(rho, 0.0) - rho).max() == 0.0
    assert np.abs(qd.depolarize(rho, 1.0) - np.eye(3) / 3).max() < 1e-12

    psi = qd.haar_states(2, 1, rng)[0]
    pure = qd.outer(psi)
    for p in (0.0, 0.3, 1.0):
        f = np.vdot(psi, qd.depolarize(pure, p) @ psi).real
        assert f == pytest.approx(1 - p * (2 - 1) / 2, abs=1e-10)
    with pytest.raises(ValueError):
        qd.depolarize(rho, 1.5)


def test_depolarizing_instrument_matches_formula():
    rng = np.random.default_rng(71)
    inst = qd.depolarizing_instrument(3, 0.4)
    assert np.abs(sum(induced_effects(inst)) - np.eye(3)).max() < 1e-12
    rho = qd.random_density(3, rng)
    assert np.abs(qd.apply_channel(inst, rho) - qd.depolarize(rho, 0.4)).max() < 1e-12


def test_covariance_check():
    rng = np.random.default_rng(72)
    depol = qd.depolarizing_instrument(3, 0.4)
    for _ in range(10):
        rho = qd.random_density(3, rng)
        assert qd.covariance_check(depol, qd.haar_unitaries(3, 1, rng)[0], rho) < 1e-10

    dephasing = qd.sqrt_instrument(qd.basis_povm(2))
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    rho = qd.outer((E0 + E1) / np.sqrt(2))
    assert qd.covariance_check(dephasing, hadamard, rho) > 0.01
    assert qd.covariance_check(dephasing, np.eye(2, dtype=complex), rho) == 0.0


def test_covariance_check_one_pair_and_nan():
    # the residual is the largest entry of |W† A(W rho W†) W - A(rho)|, written out here
    dephasing = qd.sqrt_instrument(qd.basis_povm(3))
    rng = np.random.default_rng(77)
    rho = qd.random_density(3, rng)
    u = qd.haar_unitaries(3, 1, rng)[0]
    rotated = u.conj().T @ qd.apply_channel(dephasing, u @ rho @ u.conj().T) @ u
    expected = float(np.abs(rotated - qd.apply_channel(dephasing, rho)).max())
    assert qd.covariance_check(dephasing, u, rho) == expected > 0.01

    # np.max propagates NaN, where Python's max would drop it
    broken = qd.Instrument(2, ((np.array([[np.nan, 0], [0, 1]], dtype=complex),),))
    rng = np.random.default_rng(78)
    rho = qd.random_density(2, rng)
    assert np.isnan(qd.covariance_check(broken, qd.haar_unitaries(2, 1, rng)[0], rho))


def test_twirl_trivial_povm_is_identity_channel():
    rng = np.random.default_rng(73)
    trivial = qd.POVM(2, (np.eye(2, dtype=complex),))
    rho = qd.random_density(2, rng)
    out, _ = qd.twirl_channel(trivial, rho, 50, rng)
    assert np.abs(out - rho).max() < 1e-12


def test_twirl_depolarizing_p_refuses_dimension_one():
    # p* = (1 - F_e) d^2 / (d^2 - 1) once divided by zero at d = 1
    with pytest.raises(qd.InfodistError, match="at least 2, got 1"):
        qd.twirl_depolarizing_p(qd.POVM(1, (np.eye(1, dtype=complex),)))


@pytest.mark.parametrize("d, k", [(2, 2), (3, 2), (4, 2), (5, 2), (5, 5)])
def test_twirl_depolarizing_p_of_an_identity_povm_is_zero(d, k):
    # k effects I/k leave every state alone; F_e rounds to just above 1, and p* once came out as
    # -3.0e-16 on {I/2, I/2}, which depolarize refuses
    povm = qd.POVM(d, tuple(np.eye(d, dtype=complex) / k for _ in range(k)))
    assert qd.twirl_depolarizing_p(povm) == 0.0


def test_twirl_qubit_basis_depolarizes():
    rng = np.random.default_rng(74)
    basis = qd.basis_povm(2)
    p_star = qd.twirl_depolarizing_p(basis)
    assert p_star == pytest.approx(2.0 / 3.0, abs=1e-12)
    rho = qd.outer(E0)
    mean, stderr = qd.twirl_channel(basis, rho, 10_000, rng)
    target = qd.depolarize(rho, p_star)
    diff = mean - target
    assert np.all(np.abs(diff.real) <= 5 * stderr.real + 1e-12)
    assert np.all(np.abs(diff.imag) <= 5 * stderr.imag + 1e-12)


def _twirl_loop(povm, rho, n_samples, rng):
    # twirl_channel as a loop over the outcomes, conjugating each root by every sample
    d = povm.dim
    roots = [qd.mat_sqrt(e) for e in povm.effects]
    us = qd.haar_unitaries(d, n_samples, rng)
    uds = us.conj().transpose(0, 2, 1)
    vals = np.zeros((n_samples, d, d), dtype=complex)
    for r in roots:
        conj = us @ r @ uds
        vals += conj @ rho @ conj.conj().transpose(0, 2, 1)
    mean, stderr = qd.mean_stderr(vals.view(float))
    return mean.view(complex), stderr.view(complex)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_twirl_channel_matches_the_loop(d):
    rng = np.random.default_rng(79)
    povms = (qd.basis_povm(d), qd.POVM(d, (np.eye(d, dtype=complex),)), qd.random_povm(d, d + 1, rng))
    for povm in povms:
        rho = qd.random_density(d, rng)
        fast, slow = np.random.default_rng(80), np.random.default_rng(80)
        mean, stderr = qd.twirl_channel(povm, rho, 400, fast)
        ref_mean, ref_stderr = _twirl_loop(povm, rho, 400, slow)
        assert np.abs(mean - ref_mean).max() <= 1e-13
        assert np.abs(stderr - ref_stderr).max() <= 1e-13
        assert fast.bit_generator.state == slow.bit_generator.state


def test_twirl_channel_memory_stays_at_four_stacks():
    # each (d, d, n) complex stack of 10^4 d = 3 samples takes 1.44 MB; at most four are alive at once
    # (5.8 MB), where the stacked (n, d, d) matmul pipeline peaked at 7.8 MB
    povm, rho = qd.random_povm(3, 4, np.random.default_rng(81)), qd.random_density(3, np.random.default_rng(82))
    tracemalloc.start()
    try:
        qd.twirl_channel(povm, rho, 10_000, np.random.default_rng(83))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.8e6


def test_twirl_consistency_identities():
    # 1 - p*(d-1)/d equals the best average fidelity, through
    # F_avg = (d F_e + 1)/(d + 1), exactly on the closed forms
    rng = np.random.default_rng(75)
    for d in (2, 3, 4):
        povm = qd.random_povm(d, 3, rng)
        p_star = qd.twirl_depolarizing_p(povm)
        f_max = qd.min_disturbance_uniform(povm).avg_fidelity
        assert 1 - p_star * (d - 1) / d == pytest.approx(f_max, abs=1e-10)


def test_environment_model_and_state():
    env = environment_model(2, 0.5)
    assert len(env) == 5
    amp_flag = abs(env[0]) ** 2
    amp_pair = abs(env[1]) ** 2
    assert amp_flag + 2 * amp_pair == pytest.approx(1.0, abs=1e-12)

    rng = np.random.default_rng(76)
    psi = qd.haar_states(2, 1, rng)[0]
    rho0 = environment_state(psi, 0.0)
    expected = np.zeros((5, 5), dtype=complex)
    expected[0, 0] = 1.0
    assert np.abs(rho0 - expected).max() == 0.0

    rho1 = environment_state(psi, 1.0)
    assert abs(rho1[0, 0]) == 0.0
    assert np.abs(rho1[1:, 1:] - np.kron(qd.outer(psi), np.eye(2) / 2)).max() < 1e-12

    for _ in range(100):
        d = int(rng.integers(2, 4))
        p = float(rng.uniform())
        rho = environment_state(qd.haar_states(d, 1, rng)[0], p)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_env_unitary_check_end_to_end():
    rng = np.random.default_rng(77)
    res_env, res_sys = env_unitary_check(E0, 0.5)
    assert res_env < 1e-10 and res_sys < 1e-10
    for d in (2, 3):
        for p in (0.0, 0.25, 0.8, 1.0):
            res_env, res_sys = env_unitary_check(qd.haar_states(d, 1, rng)[0], p)
            assert res_env < 1e-10
            assert res_sys < 1e-10


def test_swap_dilation_is_unitary():
    for d in (2, 3):
        u = swap_dilation_unitary(d)
        assert np.abs(u @ u.T - np.eye(d * (d * d + 1))).max() == 0.0


def test_covariant_seed_reduces_environment_overlap():
    # a covariant environment POVM with seeds phi_k = (f_k, G_k) has outcome density
    # <phi_k|env(psi, p)|phi_k> = <psi|A_k A_k†|psi>, A_k = sqrt(1-p) f_k I + sqrt(p/d) G_k;
    # completeness: orthonormal (flag, maximally entangled) columns t_k = (f_k, tr G_k / sqrt d),
    # and traceless parts of total norm d^2 - 1
    rng = np.random.default_rng(90)
    for d in (2, 3, 4):
        for p in (0.2, 0.5, d / (d + 1)):
            k = 5
            t = np.linalg.qr(rng.standard_normal((k, 2)) + 1j * rng.standard_normal((k, 2)))[0]
            h = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
            h -= np.trace(h, axis1=1, axis2=2)[:, None, None] * np.eye(d) / d
            h *= np.sqrt((d * d - 1) / (np.abs(h) ** 2).sum())
            f = t[:, 0]
            g = t[:, 1, None, None] * np.eye(d) / np.sqrt(d) + h
            a = np.sqrt(1 - p) * f[:, None, None] * np.eye(d) + np.sqrt(p / d) * g
            assert (np.abs(a) ** 2).sum() == pytest.approx(d, abs=1e-12)
            assert (np.abs(np.trace(a, axis1=1, axis2=2)) ** 2).sum() == pytest.approx(d * d * (1 - p) + p, abs=1e-12)
            for psi in qd.haar_states(d, 4, rng):
                rho = environment_state(psi, p)
                for fk, gk, ak in zip(f, g, a):
                    phi = np.concatenate([[fk], gk.ravel()])
                    env = (phi.conj() @ rho @ phi).real
                    sys_side = (psi.conj() @ ak @ ak.conj().T @ psi).real
                    assert abs(env - sys_side) < 1e-13


def test_line_candidate():
    # line_info is the straight line between the endpoints: the flagged mix of doing nothing and
    # the basis measurement at the point's disturbance, whose Haar information is exact
    for d in (2, 3, 4):
        trivial = qd.POVM(d, (np.eye(d, dtype=complex),))
        basis = qd.basis_povm(d)
        procedures = [(trivial, qd.sqrt_instrument(trivial)), (basis, qd.sqrt_instrument(basis))]
        grid = list(np.linspace(0.0, d / (d + 1), 4))
        for pt in qd.frontier_curve(d, grid):
            w = pt.p * (d + 1) / d
            mixed, _ = qd.convex_mix(procedures, [1.0 - w, w])
            assert qd.min_disturbance_uniform(mixed).disturbance == pytest.approx(pt.disturbance, abs=1e-12)
            spectra = np.clip([np.linalg.eigvalsh(e) for e in mixed.effects], 0.0, None)
            qbar = spectra.sum(axis=1) / d
            info = np.sum(qd.haar_xlogx(spectra)) - np.sum(qbar * np.log(np.where(qbar > 0, qbar, 1.0)))
            assert info == pytest.approx(pt.line_info, abs=1e-12)


def test_line_candidate_matches_closed_form_other_dims():
    # at mixing weight w = p (d+1)/d the line is (w I_max, w (d-1)/(d+1))
    for d in (3, 4):
        i_max = qd.info_finegrained_exact(d)
        grid = [0.3 * d / (d + 1), 0.8 * d / (d + 1)]
        for pt, w in zip(qd.frontier_curve(d, grid), (0.3, 0.8)):
            assert pt.line_info == pytest.approx(w * i_max, abs=1e-12)
            assert pt.disturbance == pytest.approx(w * (d - 1) / (d + 1), abs=1e-12)


def test_frontier_curve_small_budget():
    grid = [0.0, 1.0 / 3.0, 2.0 / 3.0]
    points = qd.frontier_curve(2, grid)
    assert points[0].p == 0.0
    assert points[0].disturbance == 0.0 and points[0].info_lower_bound == 0.0
    assert points[-1].disturbance == pytest.approx(1.0 / 3.0, abs=1e-12)
    infos = [pt.info_lower_bound for pt in points]
    assert all(b >= a for a, b in zip(infos, infos[1:]))
    for pt in points:
        assert pt.info_lower_bound >= 0.95 * pt.line_info
        assert pt.line_info == pytest.approx(
            qd.info_finegrained_exact(2) * pt.p * 3 / 2, abs=1e-12
        )


def test_frontier_curve_qutrits_use_the_haar_ensemble():
    # the d=3 values are those of the Haar ensemble; the 12 MUB vectors gave 0.405 > I_max(3) at p = 3/4
    points = qd.frontier_curve(3, [0.0, 0.375, 0.75])
    assert points[-1].disturbance == pytest.approx(0.5, abs=1e-12)
    assert points[-1].info_lower_bound == qd.info_finegrained_exact(3)
    assert points[1].info_lower_bound == pytest.approx(0.1752834, abs=1e-6)


def test_frontier_curve_rejects_bad_grid():
    with pytest.raises(ValueError):
        qd.frontier_curve(2, [0.9])
    with pytest.raises(qd.InfodistError, match="exceeds the configured cap"):
        qd.frontier_curve(FRONTIER_CAP + 1, [0.5])
    # p* = (d^2 - phi(y*)) / (d^2 - 1) once divided by zero at d = 1
    for d in (1, 0):
        with pytest.raises(qd.InfodistError, match=f"at least 2, got {d}"):
            qd.frontier_curve(d, [0.0])


def _phi(spectrum):
    return np.sqrt(spectrum).sum() ** 2


def test_frontier_seed_model_optima():
    # the two-seed covariant optima, found earlier by a direct search over seed vectors
    d2 = qd.frontier_curve(2, [2 / 15, 1 / 3])
    assert d2[0].info_lower_bound == pytest.approx(0.0624233, abs=1e-6)
    assert d2[1].info_lower_bound == pytest.approx(0.1374583, abs=1e-6)
    d3 = qd.frontier_curve(3, [3 / 8])
    assert d3[0].info_lower_bound == pytest.approx(0.1752834, abs=1e-6)


def test_frontier_endpoint_is_i_max():
    # Jones: no measurement beats the fine-grained one; the endpoint reaches it without a clamp
    for d in (2, 3, 4, 5):
        last = qd.frontier_curve(d, [d / (d + 1)])[0]
        assert last.info_lower_bound <= qd.info_finegrained_exact(d)
        assert last.info_lower_bound == pytest.approx(qd.info_finegrained_exact(d), abs=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_frontier_nondecreasing_and_concave(d):
    grid = list(np.linspace(0.0, d / (d + 1), 11))
    infos = np.array([pt.info_lower_bound for pt in qd.frontier_curve(d, grid)])
    assert np.all(np.diff(infos) >= 0)
    assert np.all(np.diff(infos, 2) <= 1e-15)  # equal spacing: concave iff second differences <= 0


def _hull_value(x, y, at):
    """Upper concave envelope of the points (x, y), evaluated at ``at``."""
    hull = []
    for point in sorted(zip(x, y)):
        while len(hull) >= 2 and (hull[-1][0] - hull[-2][0]) * (point[1] - hull[-2][1]) >= (
            hull[-1][1] - hull[-2][1]
        ) * (point[0] - hull[-2][0]):
            hull.pop()
        hull.append(point)
    hx, hy = np.array(hull).T
    return np.interp(at, hx, hy)


def test_frontier_d2_matches_dense_hull_oracle():
    # for d=2 the seeds are nu = (1+a, 1-a), and J has the closed form
    # (F(nu_1) - F(nu_2)) / (nu_1 - nu_2), F(q) = q^2 ln q / 2 - q^2 / 4
    a = np.linspace(0.0, 1.0, 20_000)[1:]
    hi, lo = 1 + a, 1 - a

    def big_f(q):
        return q * q * np.log(np.where(q > 0, q, 1.0)) / 2 - q * q / 4

    j = np.concatenate([[0.0], (big_f(hi) - big_f(lo)) / (hi - lo)])
    phi = np.concatenate([[4.0], (np.sqrt(hi) + np.sqrt(lo)) ** 2])
    grid = list(np.linspace(0.0, 2 / 3, 11))
    points = qd.frontier_curve(2, grid)
    oracle = _hull_value(phi, j, [4 * (1 - p) + p for p in grid])
    assert np.abs(np.array([pt.info_lower_bound for pt in points]) - oracle).max() < 1e-7


def test_frontier_seeds_reproduce_each_point():
    for d in (2, 3):
        grid = list(np.linspace(0.0, d / (d + 1), 6))
        for pt in qd.frontier_curve(d, grid):
            seeds = pt.optimizer_meta["seeds"]
            assert 1 <= len(seeds) <= 2 and sum(s["weight"] for s in seeds) == pytest.approx(1.0, abs=1e-15)
            spectra = [np.array(s["spectrum"]) for s in seeds]
            assert all(np.all(nu >= 0) and nu.sum() == pytest.approx(d, abs=1e-12) for nu in spectra)
            info = sum(s["weight"] * qd.haar_xlogx(nu) for s, nu in zip(seeds, spectra))
            phi = sum(s["weight"] * _phi(nu) for s, nu in zip(seeds, spectra))
            assert info == pytest.approx(pt.info_lower_bound, abs=1e-12)
            assert phi == pytest.approx(d * d * (1 - pt.p) + pt.p, abs=1e-12)


def _weyl_operators(d):
    shift = np.roll(np.eye(d), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return [np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b) for a in range(d) for b in range(d)]


KERNEL_CASES = [(d, p) for d in (2, 3) for p in (0.25, 0.5, d / (d + 1))] + [(2, None), (3, None)]


@pytest.mark.parametrize("d,p", KERNEL_CASES)
def test_factored_kernels_match_dense_reference(d, p):
    # p=None: the rank-one seed alone, the fine-grained measurement; otherwise the seeds of the
    # frontier point at p. The Weyl orbit of a seed, effects m_k W V diag(nu_k) V† W† / d^2, is a
    # finite POVM with the same information sum_k m_k J(nu_k) and the same phi, so the dense
    # engines on its effects check haar_xlogx, phi and the seeds' diagonal q.
    rng = np.random.default_rng(83)
    if p is None:
        nu = np.zeros(d)
        nu[0] = d
        seeds, info, disturbance = [{"weight": 1.0, "spectrum": nu}], qd.info_finegrained_exact(d), (d - 1) / (d + 1)
    else:
        pt = qd.frontier_curve(d, [p])[0]
        seeds, info, disturbance = pt.optimizer_meta["seeds"], pt.info_lower_bound, pt.disturbance
    v = qd.haar_unitaries(d, 1, rng)[0]
    frames = [w @ v for w in _weyl_operators(d)]
    effects = [s["weight"] / d**2 * u @ np.diag(s["spectrum"]) @ u.conj().T for s in seeds for u in frames]
    povm = qd.POVM(d, tuple(effects))
    assert np.abs(sum(effects) - np.eye(d)).max() < 1e-13
    assert qd.min_disturbance_uniform(povm).disturbance == pytest.approx(disturbance, abs=1e-12)

    psis = qd.haar_states(d, 4000, rng)
    dense = np.einsum("nd,bde,ne->nb", psis.conj(), np.stack(effects), psis).real
    factored = np.concatenate(
        [s["weight"] / d**2 * np.abs(psis @ u.conj()) ** 2 @ np.asarray(s["spectrum"]) for s in seeds for u in frames]
    ).reshape(len(effects), -1).T
    assert np.abs(dense - factored).max() < 1e-13
    report = qd.info_uniform_mc(povm, len(psis), rng)
    assert abs(report.mutual_info - info) <= 5 * report.stderr


def test_frontier_beats_d2_search_values_and_matches_its_seeds_monte_carlo():
    # the see-saw's held-out re-scores were 0.1361 at p = 1/3 and 0.1909 at p = 2/3. Each point's
    # seeds (two on the d = 3 chord), scored by Monte Carlo over Haar states, agree with it:
    # sum_k m_k E[q_k ln q_k] with q_k = sum_i nu_ki |psi_i|^2
    for d in (2, 3):
        points = qd.frontier_curve(d, list(np.linspace(0.0, d / (d + 1), 11)))
        if d == 2:
            assert points[5].info_lower_bound >= 0.1361 and points[10].info_lower_bound >= 0.1909
        moduli = np.abs(qd.haar_states(d, 2000, np.random.default_rng(d))) ** 2
        for pt in points:
            seeds = pt.optimizer_meta["seeds"]
            q = moduli @ np.array([s["spectrum"] for s in seeds]).T
            mean, stderr = qd.mean_stderr(q * np.log(np.where(q > 0, q, 1.0)) @ [s["weight"] for s in seeds])
            assert abs(mean - pt.info_lower_bound) <= 5 * stderr + 1e-12, (d, pt.p)



def test_frontier_d2_closed_form():
    # at d = 2 the family curve is concave throughout, so I(p) = J(y(p)), y(p) = 1 - sqrt(3p - 9p^2/4)
    grid = np.linspace(0.0, 2 / 3, 41)
    points = qd.frontier_curve(2, list(grid))
    y = np.clip(1 - np.sqrt(3 * grid - 9 * grid**2 / 4), 0.0, 1.0)
    closed = qd.haar_xlogx(np.stack([2 - y, y], axis=1))
    assert np.abs(np.array([pt.info_lower_bound for pt in points]) - closed).max() < 1e-12


@pytest.mark.parametrize(
    "d, y_star, p_star",
    [(3, 0.45303, 0.14976), (4, 0.28143, 0.31047), (5, 0.20049, 0.42728), (6, 0.15424, 0.51243),
     (8, 0.10416, 0.62606), (10, 0.07794, 0.69762)],
)  # fmt: skip
def test_chord_touches_the_tabulated_seed(d, y_star, p_star):
    # below p* the frontier is the flagged mix of the flat spectrum and nu(y*), with weight p / p*
    # on nu(y*); y* and p* were first read off the search engine's seeds
    p = 0.05
    flat, touch = qd.frontier_curve(d, [p])[0].optimizer_meta["seeds"]
    assert flat["spectrum"] == [1.0] * d
    assert touch["spectrum"][1:] == [touch["spectrum"][1]] * (d - 1)
    assert touch["spectrum"][1] == pytest.approx(y_star, abs=1e-5)
    assert p / touch["weight"] == pytest.approx(p_star, abs=1e-5)


def test_frontier_matches_the_oracle_search():
    # the search over all spectra never beats the one-parameter family by more than 1e-12, and the
    # family never exceeds what the search finds by more than 1e-11: the search stops at a 1e-12
    # duality gap, which its ascents' 1e-6 gradient stop can understate
    t0 = time.perf_counter()
    for d in range(2, 7):
        grid = list(np.linspace(0.0, d / (d + 1), 11))
        family = np.array([pt.info_lower_bound for pt in qd.frontier_curve(d, grid)])
        diff = family - oracle_curve(d, grid, np.random.default_rng(0))
        assert -1e-12 <= diff.min() and diff.max() <= 1e-11, d
    assert time.perf_counter() - t0 <= 5.0


@pytest.mark.parametrize("d", [2, 3, 5, 49])
def test_frontier_endpoints_are_exact(d):
    # p = 0 is the flat spectrum alone and p = d/(d+1) the rank-one one, whose J is I_max exactly
    # (haar_xlogx sits up to 7e-15 below it at d = 49); a p within GRID_SLACK past an end is solved there
    p_max = d / (d + 1)
    points = qd.frontier_curve(d, [0.0, -5e-13, p_max, p_max + 5e-13])
    i_max = qd.info_finegrained_exact(d)
    assert [pt.info_lower_bound for pt in points] == [0.0, 0.0, i_max, i_max]
    flat, rank_one = [1.0] * d, [float(d)] + [0.0] * (d - 1)
    seeds = [[s["spectrum"] for s in pt.optimizer_meta["seeds"]] for pt in points]
    assert seeds == [[flat], [flat], [rank_one], [rank_one]]
    for p in (-2 * GRID_SLACK, p_max + 2 * GRID_SLACK):
        with pytest.raises(ValueError, match="outside"):
            qd.frontier_curve(d, [p])


def test_tangent_point_matches_the_bisection_oracle():
    # Newton stops at a step TANGENT_REL y* wide; bisection walks on to adjacent doubles through the
    # band where the residual's sign is rounding noise
    for d in range(3, FRONTIER_CAP + 1):
        oracle = bisected_tangent_point(d)
        assert abs(frontier._tangent_point(d) - oracle) <= 2 * TANGENT_REL * oracle, d


def test_tangent_point_takes_one_scan_and_few_evaluations(monkeypatch):
    # Newton steps converge quadratically from the scan's bracket; bisection to adjacent doubles takes 52
    residual, sizes = frontier._tangent_residual, []

    def counted(d, y):
        sizes.append(np.size(y))
        return residual(d, y)

    monkeypatch.setattr(frontier, "_tangent_residual", counted)
    for d in range(3, FRONTIER_CAP + 1):
        sizes.clear()
        frontier._tangent_point(d)
        assert sizes[0] > 1 and sizes[1:] == [1] * (len(sizes) - 1) and len(sizes) <= 8, (d, sizes)


def test_tangent_point_memory_is_flat_in_d():
    # the family kernel's arrays hold one entry per node whatever d is, so the solve's memory does not grow
    peaks = {}
    for d in (3, FRONTIER_CAP):
        frontier._tangent_point(d)
        tracemalloc.start()
        try:
            frontier._tangent_point(d)
            peaks[d] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[FRONTIER_CAP] <= 1.5 * peaks[3], peaks


@pytest.mark.parametrize("d", range(2, FRONTIER_CAP + 1))
def test_seed_kernel_matches_haar_xlogx_and_its_own_differences(d):
    # J and J' against the generic integral on the full spectra, phi against the spectra's roots;
    # J'', phi', phi'' and R' = J phi'' - J'' (phi - d^2) against central differences of J', phi, phi' and R
    ys = np.array([0.002, 0.02, 0.1, 0.4, 0.8, 0.98])
    (j, dj, d2j), (phi, dphi, d2phi) = information.family_xlogx(d, ys), frontier._phi(d, ys)
    nu = family_spectra(d, ys)
    j_full, grad = qd.haar_xlogx(nu, gradient=True)
    np.testing.assert_allclose(j, j_full, rtol=0, atol=1e-13)
    np.testing.assert_allclose(dj, grad @ np.r_[1 - d, np.ones(d - 1)], rtol=0, atol=1e-13)
    np.testing.assert_allclose(phi, (np.sqrt(nu[:, 0]) + (d - 1) * np.sqrt(nu[:, 1])) ** 2, rtol=1e-15)
    h = 1e-5 * ys
    (_, up_dj, _), (up_phi, up_dphi, _) = information.family_xlogx(d, ys + h), frontier._phi(d, ys + h)
    (_, down_dj, _), (down_phi, down_dphi, _) = information.family_xlogx(d, ys - h), frontier._phi(d, ys - h)
    np.testing.assert_allclose(d2j, (up_dj - down_dj) / (2 * h), rtol=1e-6)
    np.testing.assert_allclose(dphi, (up_phi - down_phi) / (2 * h), rtol=1e-6)
    np.testing.assert_allclose(d2phi, (up_dphi - down_dphi) / (2 * h), rtol=1e-6)
    # R and R' are differences of two terms that cancel at y*, so they are compared on the terms' scale
    r, dr = frontier._tangent_residual(d, ys)
    r_scale = np.abs(j * dphi) + np.abs(dj * (phi - d * d))
    assert (np.abs(r - generic_tangent_residual(d, ys)) <= 1e-9 * r_scale).all()
    slope = (frontier._tangent_residual(d, ys + h)[0] - frontier._tangent_residual(d, ys - h)[0]) / (2 * h)
    assert (np.abs(dr - slope) <= 1e-6 * (np.abs(j * d2phi) + np.abs(d2j * (phi - d * d)))).all()


def test_seed_arc_is_concave():
    # d^2 J / d phi^2 = (J'' phi' - J' phi'') / phi'^3 < 0 on the arc (0, y*] that the frontier draws
    # for p >= p*, and on all of (0, 1) at d = 2, where there is no chord: the property FRONTIER_CAP
    # rests on
    for d in range(2, FRONTIER_CAP + 1):
        ys = np.linspace(0.0, 1.0, 62)[1:-1] if d == 2 else frontier._tangent_point(d) * np.arange(1, 61) / 60
        (_, dj, d2j), (_, dphi, d2phi) = information.family_xlogx(d, ys), frontier._phi(d, ys)
        assert ((d2j * dphi - dj * d2phi) / dphi**3 < 0).all(), d


@pytest.mark.parametrize("d", range(3, FRONTIER_CAP + 1))
def test_frontier_with_the_oracle_touch_point(d, monkeypatch):
    # the chord's value q (d^2 - 1) J(y*) / (d^2 - phi(y*)) is stationary in y*, so moving y* within
    # the stop width moves the frontier by no more than J's own rounding
    grid = list(np.linspace(0.0, d / (d + 1), 41))
    fast = [pt.info_lower_bound for pt in qd.frontier_curve(d, grid)]
    monkeypatch.setattr(frontier, "_tangent_point", bisected_tangent_point)
    slow = [pt.info_lower_bound for pt in qd.frontier_curve(d, grid)]
    assert np.abs(np.array(fast) - slow).max() <= 1e-13
