import warnings

import numpy as np
import pytest

import infodist as qd
from infodist.config import DEFAULT_TOL
from infodist.errors import ConvergenceWarning
from infodist import frontier
from infodist.frontier import _rank1_outcome_probs, _state_factors

E0 = np.array([1, 0], dtype=complex)
E1 = np.array([0, 1], dtype=complex)


def test_depolarize_endpoints_and_fidelity():
    rng = np.random.default_rng(70)
    rho = qd.random_density(3, rng)
    assert np.abs(qd.depolarize(rho, 0.0) - rho).max() == 0.0
    assert np.abs(qd.depolarize(rho, 1.0) - np.eye(3) / 3).max() < 1e-12

    psi = qd.haar_state(2, rng)
    pure = qd.outer(psi)
    for p in (0.0, 0.3, 1.0):
        f = qd.fidelity(pure, qd.depolarize(pure, p))
        assert f == pytest.approx(1 - p * (2 - 1) / 2, abs=1e-10)
    with pytest.raises(ValueError):
        qd.depolarize(rho, 1.5)


def test_depolarizing_instrument_matches_formula():
    rng = np.random.default_rng(71)
    inst = qd.depolarizing_instrument(3, 0.4)
    assert qd.instrument_validate(inst) < 1e-12
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
    env = qd.environment_model(2, 0.5)
    assert len(env) == 5
    amp_flag = abs(env[0]) ** 2
    amp_pair = abs(env[1]) ** 2
    assert amp_flag + 2 * amp_pair == pytest.approx(1.0, abs=1e-12)

    rng = np.random.default_rng(76)
    psi = qd.haar_state(2, rng)
    rho0 = qd.environment_state(psi, 0.0)
    expected = np.zeros((5, 5), dtype=complex)
    expected[0, 0] = 1.0
    assert np.abs(rho0 - expected).max() == 0.0

    rho1 = qd.environment_state(psi, 1.0)
    assert abs(rho1[0, 0]) == 0.0
    assert np.abs(rho1[1:, 1:] - np.kron(qd.outer(psi), np.eye(2) / 2)).max() < 1e-12

    for _ in range(100):
        d = int(rng.integers(2, 4))
        p = float(rng.uniform())
        rho = qd.environment_state(qd.haar_state(d, rng), p)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_env_unitary_check_end_to_end():
    rng = np.random.default_rng(77)
    res_env, res_sys = qd.env_unitary_check(E0, 0.5)
    assert res_env < 1e-10 and res_sys < 1e-10
    for d in (2, 3):
        for p in (0.0, 0.25, 0.8, 1.0):
            res_env, res_sys = qd.env_unitary_check(qd.haar_state(d, rng), p)
            assert res_env < 1e-10
            assert res_sys < 1e-10


def test_swap_dilation_is_unitary():
    for d in (2, 3):
        u = qd.swap_dilation_unitary(d)
        assert np.abs(u @ u.T - np.eye(d * (d * d + 1))).max() == 0.0


def test_accessible_info_trivial_and_orthogonal():
    rng = np.random.default_rng(78)
    same = [(qd.outer(E0), 0.5), (qd.outer(E0), 0.5)]
    res = qd.accessible_info_lb(same, restarts=2, max_iter=50, rng=rng)
    assert abs(res.info) < 1e-9

    pair = [(qd.outer(E0), 0.5), (qd.outer(E1), 0.5)]
    res = qd.accessible_info_lb(pair, restarts=4, max_iter=300, rng=rng)
    assert res.info == pytest.approx(np.log(2), abs=1e-6)
    assert qd.povm_validate(res.povm).passed


def test_accessible_info_more_restarts_never_worse():
    rng = np.random.default_rng(79)
    states = qd.haar_states(2, 40, rng)
    ens = [(qd.environment_state(psi, 0.5), 1 / 40) for psi in states]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        few = qd.accessible_info_lb(ens, restarts=2, max_iter=60, rng=np.random.default_rng(5))
        many = qd.accessible_info_lb(ens, restarts=6, max_iter=60, rng=np.random.default_rng(5))
    assert many.info >= few.info - 1e-12


KERNEL_CASES = [(d, p) for d in (2, 3) for p in (0.25, 0.5, d / (d + 1))] + [(2, None), (3, None)]


@pytest.mark.parametrize("d,p", KERNEL_CASES)
def test_factored_kernels_match_dense_reference(d, p):
    # p=None: a rank-one ensemble of pure states; otherwise rank-d environment states
    rng = np.random.default_rng(83)
    psis = qd.haar_states(d, 25, rng)
    if p is None:
        states, rank = np.stack([qd.outer(psi) for psi in psis]), 1
    else:
        states, rank = np.stack([qd.environment_state(psi, p) for psi in psis]), d
    dim = states.shape[1]
    rows, r = _state_factors(states, DEFAULT_TOL)
    assert r == rank and rows.shape == (len(states) * r, dim)
    k = rows.reshape(len(states), r, dim)
    assert np.abs(np.einsum("ajd,aje->ade", k, k.conj()) - states).max() < 1e-13

    vectors = np.concatenate([u.T for u in qd.haar_unitaries(dim, 2, rng)]) / np.sqrt(2)
    probs, amp = _rank1_outcome_probs(rows.conj(), r, vectors)
    dense = np.einsum("cd,ade,ce->ac", vectors.conj(), states, vectors).real
    assert np.abs(probs - dense).max() < 1e-13
    # the see-saw's push sum_a coeff[a, c] rho_a v_c, from the amplitudes it already has
    coeff = rng.standard_normal((len(states), len(vectors)))
    push = (np.repeat(coeff, r, axis=0) * amp).T @ rows
    assert np.abs(push - np.einsum("ac,ade,ce->cd", coeff, states, vectors)).max() < 1e-13


def test_accessible_info_pinned_results():
    # values and step counts of the see-saw with dense-einsum kernels, before factoring
    states = qd.haar_states(2, 30, np.random.default_rng(84))
    ens = [(qd.environment_state(psi, 0.5), 1 / 30) for psi in states]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        res = qd.accessible_info_lb(ens, restarts=2, max_iter=60, rng=np.random.default_rng(85))
    assert res.info == pytest.approx(0.1962125482357453, abs=1e-12)
    assert (res.iterations, res.n_converged, res.converged) == (60, 0, False)

    mub = qd.wootters_fields_mub(3, 1).vectors()
    ens = [(qd.environment_state(psi, 0.5), 1 / 12) for psi in mub]
    res = qd.accessible_info_lb(ens, restarts=3, max_iter=300, rng=np.random.default_rng(86))
    assert res.info == pytest.approx(0.30583802106787594, abs=1e-12)
    assert (res.iterations, res.n_converged, res.converged) == (138, 3, True)


def test_accessible_info_one_evaluation_per_step_size(monkeypatch):
    # the runs of test_accessible_info_pinned_results took 291 and 1,004 S^{-1/2} evaluations
    # while the doubling probe after a backtrack re-tried the step size just rejected (51 and 172 times)
    calls = []
    real = frontier.gen_inv_sqrt
    monkeypatch.setattr(frontier, "gen_inv_sqrt", lambda p, tol: calls.append(1) or real(p, tol))
    states = qd.haar_states(2, 30, np.random.default_rng(84))
    ens = [(qd.environment_state(psi, 0.5), 1 / 30) for psi in states]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        qd.accessible_info_lb(ens, restarts=2, max_iter=60, rng=np.random.default_rng(85))
    assert len(calls) == 291 - 51

    calls.clear()
    mub = qd.wootters_fields_mub(3, 1).vectors()
    ens = [(qd.environment_state(psi, 0.5), 1 / 12) for psi in mub]
    qd.accessible_info_lb(ens, restarts=3, max_iter=300, rng=np.random.default_rng(86))
    assert len(calls) == 1004 - 172


def test_accessible_info_rejects_nan_step(monkeypatch):
    # a NaN S^{-1/2} must fail the feasibility check before its probabilities are scored
    calls = []
    real_inv_sqrt, real_mutual_info = frontier.gen_inv_sqrt, frontier.mutual_info

    def inv_sqrt(p, tol):
        calls.append(1)
        out = real_inv_sqrt(p, tol)
        return np.full_like(out, np.nan) if len(calls) == 3 else out

    scored_nan = []

    def mutual_info(p_cond, weights):
        scored_nan.append(bool(np.isnan(p_cond).any()))
        return real_mutual_info(p_cond, weights)

    monkeypatch.setattr(frontier, "gen_inv_sqrt", inv_sqrt)
    monkeypatch.setattr(frontier, "mutual_info", mutual_info)
    states = qd.haar_states(2, 30, np.random.default_rng(87))
    ens = [(qd.environment_state(psi, 0.5), 1 / 30) for psi in states]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        res = qd.accessible_info_lb(ens, restarts=1, max_iter=20, rng=np.random.default_rng(88))
    assert len(calls) > 3 and not any(scored_nan)
    assert np.isfinite(res.info) and res.info > 0
    assert all(np.isfinite(e).all() for e in res.povm.effects) and qd.povm_validate(res.povm).passed


def test_line_candidate():
    i_max = qd.info_finegrained_exact(2)
    points = qd.line_candidate(2, [1.0, 0.5, 0.0])
    info, dist = points[0]
    assert info == 0.0 and dist == pytest.approx(0.0, abs=1e-12)
    info, dist = points[1]
    assert info == pytest.approx(0.5 * i_max, abs=1e-12)
    assert dist == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert info == pytest.approx(0.09657359027997264, abs=1e-10)
    info, dist = points[2]
    assert info == pytest.approx(i_max, abs=1e-12)
    assert dist == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_line_candidate_matches_closed_form_other_dims():
    for d in (3, 4):
        i_max = qd.info_finegrained_exact(d)
        for (info, dist), alpha in zip(qd.line_candidate(d, [0.3, 0.8]), (0.3, 0.8)):
            assert info == pytest.approx((1 - alpha) * i_max, abs=1e-12)
            assert dist == pytest.approx((1 - alpha) * (d - 1) / (d + 1), abs=1e-12)


def test_frontier_curve_small_budget():
    rng = np.random.default_rng(80)
    grid = [0.0, 1.0 / 3.0, 2.0 / 3.0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        points = qd.frontier_curve(2, grid, ensemble_size=40, restarts=3, rng=rng, max_iter=120)
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


def test_frontier_curve_uses_design_for_qutrits():
    rng = np.random.default_rng(81)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        points = qd.frontier_curve(3, [0.0, 0.375, 0.75], restarts=2, rng=rng, max_iter=80)
    assert points[-1].disturbance == pytest.approx(0.5, abs=1e-12)
    assert points[-1].info_lower_bound > 0.0


def test_frontier_curve_rejects_bad_grid():
    rng = np.random.default_rng(82)
    with pytest.raises(ValueError):
        qd.frontier_curve(2, [0.9], rng=rng)
