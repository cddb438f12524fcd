import json

import numpy as np
import pytest

import infodist as qd
from conftest import induced_effects
from infodist.errors import ConvergenceWarning

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
    assert qd.covariance_check(depol, samples=10, rng=rng) < 1e-10

    dephasing = qd.sqrt_instrument(qd.basis_povm(2))
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    rho = qd.outer((E0 + E1) / np.sqrt(2))
    assert qd.covariance_check(dephasing, hadamard, rho) > 0.01
    assert qd.covariance_check(dephasing, np.eye(2, dtype=complex), rho) == 0.0
    # with no pair to check it once reported 0.0, "covariant"
    for kwargs in ({}, {"samples": 0, "rng": rng}, {"samples": -1, "rng": rng}):
        with pytest.raises(ValueError, match="nothing to check"):
            qd.covariance_check(dephasing, **kwargs)


def test_covariance_check_sampling_order_and_nan():
    # each sampled pair draws its density first, then its unitary
    dephasing = qd.sqrt_instrument(qd.basis_povm(3))
    got = qd.covariance_check(dephasing, samples=4, rng=np.random.default_rng(77))
    rng = np.random.default_rng(77)
    residuals = []
    for _ in range(4):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        g = x @ x.conj().T
        rho = g / np.trace(g).real
        u = qd.haar_unitaries(3, 1, rng)[0]
        rotated = u.conj().T @ qd.apply_channel(dephasing, u @ rho @ u.conj().T) @ u
        residuals.append(float(np.abs(rotated - qd.apply_channel(dephasing, rho)).max()))
    assert got == max(residuals) > 0.01

    broken = qd.Instrument(2, ((np.array([[np.nan, 0], [0, 1]], dtype=complex),),))
    assert np.isnan(qd.covariance_check(broken, samples=2, rng=np.random.default_rng(78)))


def test_twirl_trivial_povm_is_identity_channel():
    rng = np.random.default_rng(73)
    trivial = qd.POVM(2, (np.eye(2, dtype=complex),))
    rho = qd.random_density(2, rng)
    out, _ = qd.twirl_channel(trivial, rho, 50, rng)
    assert np.abs(out - rho).max() < 1e-12


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
        for pt in qd.frontier_curve(d, grid, np.random.default_rng(d), samples=2):
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
        for pt, w in zip(qd.frontier_curve(d, grid, np.random.default_rng(d), samples=2), (0.3, 0.8)):
            assert pt.line_info == pytest.approx(w * i_max, abs=1e-12)
            assert pt.disturbance == pytest.approx(w * (d - 1) / (d + 1), abs=1e-12)


def test_frontier_curve_small_budget():
    rng = np.random.default_rng(80)
    grid = [0.0, 1.0 / 3.0, 2.0 / 3.0]
    points = qd.frontier_curve(2, grid, samples=40, restarts=3, rng=rng, max_iter=120)
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
    rng = np.random.default_rng(81)
    points = qd.frontier_curve(3, [0.0, 0.375, 0.75], restarts=2, rng=rng, max_iter=80)
    assert points[-1].disturbance == pytest.approx(0.5, abs=1e-12)
    assert points[-1].info_lower_bound == qd.info_finegrained_exact(3)
    assert points[1].info_lower_bound == pytest.approx(0.1752834, abs=1e-6)


def test_frontier_curve_rejects_bad_grid():
    rng = np.random.default_rng(82)
    with pytest.raises(ValueError):
        qd.frontier_curve(2, [0.9], rng=rng)
    with pytest.raises(ValueError):
        qd.frontier_curve(2, [0.5], samples=1, rng=rng)
    with pytest.raises(ValueError):
        qd.frontier_curve(2, [0.5], rng=rng, max_iter=0)


def _phi(spectrum):
    return np.sqrt(spectrum).sum() ** 2


def test_frontier_seed_model_optima():
    # the two-seed covariant optima, found earlier by a direct search over seed vectors
    d2 = qd.frontier_curve(2, [2 / 15, 1 / 3], rng=np.random.default_rng(91))
    assert d2[0].info_lower_bound == pytest.approx(0.0624233, abs=1e-6)
    assert d2[1].info_lower_bound == pytest.approx(0.1374583, abs=1e-6)
    d3 = qd.frontier_curve(3, [3 / 8], rng=np.random.default_rng(92))
    assert d3[0].info_lower_bound == pytest.approx(0.1752834, abs=1e-6)


def test_frontier_endpoint_is_i_max():
    # Jones: no measurement beats the fine-grained one; the endpoint reaches it without a clamp
    for d in (2, 3, 4, 5):
        last = qd.frontier_curve(d, [d / (d + 1)], restarts=4, rng=np.random.default_rng(93))[0]
        assert last.info_lower_bound <= qd.info_finegrained_exact(d)
        assert last.info_lower_bound == pytest.approx(qd.info_finegrained_exact(d), abs=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_frontier_nondecreasing_and_concave(d):
    grid = list(np.linspace(0.0, d / (d + 1), 11))
    infos = np.array([pt.info_lower_bound for pt in qd.frontier_curve(d, grid, restarts=4, rng=np.random.default_rng(d))])
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
    points = qd.frontier_curve(2, grid, rng=np.random.default_rng(94))
    oracle = _hull_value(phi, j, [4 * (1 - p) + p for p in grid])
    assert np.abs(np.array([pt.info_lower_bound for pt in points]) - oracle).max() < 1e-7


def test_frontier_seeds_reproduce_each_point():
    for d in (2, 3):
        grid = list(np.linspace(0.0, d / (d + 1), 6))
        for pt in qd.frontier_curve(d, grid, restarts=4, rng=np.random.default_rng(95)):
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
    # engines on its effects check haar_xlogx, phi and the re-score's diagonal q.
    rng = np.random.default_rng(83)
    if p is None:
        nu = np.zeros(d)
        nu[0] = d
        seeds, info, disturbance = [{"weight": 1.0, "spectrum": nu}], qd.info_finegrained_exact(d), (d - 1) / (d + 1)
    else:
        pt = qd.frontier_curve(d, [p], restarts=4, rng=rng)[0]
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


def test_frontier_beats_held_out_see_saw_and_rescore_agrees():
    # the see-saw's held-out re-scores were 0.1361 at p = 1/3 and 0.1909 at p = 2/3
    grid = list(np.linspace(0.0, 2 / 3, 11))
    for seed in range(5):
        points = qd.frontier_curve(2, grid, rng=np.random.default_rng(seed))
        assert points[5].info_lower_bound >= 0.1361 and points[10].info_lower_bound >= 0.1909
        for pt in points:
            rescore = pt.optimizer_meta["rescore"]
            assert rescore["samples"] == 200
            assert abs(rescore["info"] - pt.info_lower_bound) <= 5 * rescore["stderr"] + 1e-12


def test_frontier_records_warnings_per_point():
    with pytest.warns(ConvergenceWarning, match="p=0.6667 not solved"):
        points = qd.frontier_curve(2, [0.0, 2 / 3], restarts=1, rng=np.random.default_rng(96), max_iter=5)
    assert points[0].optimizer_meta["warnings"] == []
    (message,) = points[1].optimizer_meta["warnings"]
    assert "not solved" in message and not points[1].optimizer_meta["converged"]
    json.dumps([pt.optimizer_meta for pt in points])  # the metadata stays JSON
