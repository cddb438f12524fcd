import tracemalloc

import numpy as np
import pytest

import infodist as qd
from infodist import information
from infodist.config import BLOCK_ENTRIES
from conftest import haar_info

LN2 = np.log(2.0)


def test_finegrained_closed_form():
    assert qd.info_finegrained_exact(1) == 0.0
    assert qd.info_finegrained_exact(2) == pytest.approx(LN2 - 0.5, abs=1e-14)
    assert qd.info_finegrained_exact(3) == pytest.approx(np.log(3) - 5.0 / 6.0, abs=1e-14)


def _jones(a, b):
    """Haar average of |<psi|a>|^2 |<psi|b>|^2, as the pair moment of two projectors."""
    return qd.pair_moment(qd.outer(a), qd.outer(b))


def test_jones_overlap_closed_form():
    e0 = np.array([1, 0], dtype=complex)
    e1 = np.array([0, 1], dtype=complex)
    assert _jones(e0, e0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert _jones(e0, e1) == pytest.approx(1.0 / 6.0, abs=1e-15)
    rng = np.random.default_rng(49)
    for d in (2, 3, 5):
        a, b = qd.haar_states(d, 2, rng)
        assert _jones(a, b) == pytest.approx((1.0 + abs(np.vdot(a, b)) ** 2) / (d * (d + 1)), abs=1e-15)


def test_jones_overlap_against_sampling():
    rng = np.random.default_rng(50)
    d, n = 4, 100_000
    a, b = qd.haar_states(d, 1, rng)[0], qd.haar_states(d, 1, rng)[0]
    states = qd.haar_states(d, n, rng)
    vals = np.abs(states @ a.conj()) ** 2 * np.abs(states @ b.conj()) ** 2
    stderr = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - _jones(a, b).real) < 5 * stderr


def test_xlogx_integral():
    # E u ln u for u = |<b|psi>|^2 is haar_xlogx of a rank-one projector
    assert qd.haar_xlogx([1.0]) == pytest.approx(0.0, abs=1e-14)
    assert qd.haar_xlogx([1.0, 0.0]) == pytest.approx(-0.25, abs=1e-14)
    assert qd.haar_xlogx([1.0, 0.0, 0.0]) == pytest.approx(-5.0 / 18.0, abs=1e-14)

    rng = np.random.default_rng(51)
    d, n = 3, 100_000
    u = np.abs(qd.haar_states(d, n, rng)[:, 0]) ** 2
    vals = np.where(u > 0, u * np.log(u), 0.0)
    stderr = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - qd.haar_xlogx([1.0, 0.0, 0.0])) < 5 * stderr


def test_info_uniform_mc_trivial_is_exact_zero():
    rng = np.random.default_rng(52)
    trivial = qd.POVM(2, (np.eye(2, dtype=complex),))
    report = qd.info_uniform_mc(trivial, 100, rng)
    assert report.mutual_info == 0.0
    assert report.h_b == 0.0


def test_info_uniform_mc_finegrained_values():
    rng = np.random.default_rng(53)
    target = LN2 - 0.5
    for povm in (qd.basis_povm(2), qd.trine_povm()):
        report = qd.info_uniform_mc(povm, 100_000, rng)
        assert abs(report.mutual_info - target) < 5 * report.stderr
        assert report.mutual_info == pytest.approx(report.h_b - report.h_b_given_psi, abs=1e-12)
        assert report.mutual_info >= -5 * report.stderr


def test_info_uniform_mc_random_finegrained_povms():
    # every rank-one POVM extracts the same information from Haar states
    rng = np.random.default_rng(54)
    for d in (2, 3, 4, 5):
        povm = qd.random_povm(d, 2 * d, rng, rank=1)
        report = qd.info_uniform_mc(povm, 60_000, rng)
        assert abs(report.mutual_info - qd.info_finegrained_exact(d)) < 5 * report.stderr


def _normalised_state_entropies(povm, states):
    """H(B|psi) per row of normalised states, one einsum per effect: the scoring the raw-draw kernel
    replaced, kept as its oracle."""
    bras = states.conj()
    p = np.clip(np.stack([np.einsum("nd,nd->n", bras, states @ e.T).real for e in povm.effects], axis=1), 0.0, None)
    p = p / p.sum(axis=1, keepdims=True)
    return -(p * np.log(np.where(p > 0, p, 1.0))).sum(axis=1)


@pytest.mark.parametrize("d", range(2, 9))
def test_info_uniform_mc_matches_normalised_state_scoring(d):
    # the same draws as haar_states, scored unnormalised: below one block, and over three and a ragged part
    rows = BLOCK_ENTRIES // d**2
    for k in sorted({2, 3, d + 1}):
        povm = qd.random_povm(d, k, np.random.default_rng(10 * d + k))
        for n in (rows - 1, 3 * rows + 5):
            rng, oracle_rng = np.random.default_rng(n), np.random.default_rng(n)
            report = qd.info_uniform_mc(povm, n, rng)
            mean, stderr = qd.mean_stderr(_normalised_state_entropies(povm, qd.haar_states(d, n, oracle_rng)))
            assert rng.bit_generator.state == oracle_rng.bit_generator.state, (k, n)
            got = [report.h_b_given_psi, report.stderr, report.mutual_info]
            np.testing.assert_allclose(got, [mean, stderr, report.h_b - mean], rtol=1e-14, atol=0, err_msg=f"{k} {n}")


def test_info_uniform_mc_memory_is_the_states_and_one_draw():
    # the one-shot scoring held 30 MB here: per-effect (n, d) products, then (n, outcomes) arrays
    n, d = 100_000, 4
    povm = qd.random_povm(d, 5, np.random.default_rng(56))
    tracemalloc.start()
    try:
        qd.info_uniform_mc(povm, n, np.random.default_rng(57))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * d * 16  # the states (6.4 MB) and the real parts they are drawn through


def test_family_xlogx_in_blocks_matches_one_call_per_value():
    # a long y is cut into blocks of BLOCK_ENTRIES // 145 values; each value's sums run alone, so the
    # blocked result is the per-value one bit for bit, in y's own shape
    ys = np.linspace(0.0, 1.0, 1001).reshape(7, 143)
    blocked = information.family_xlogx(5, ys)
    singles = np.array([information.family_xlogx(5, y) for y in ys.ravel()])
    for k, values in enumerate(blocked):
        assert values.shape == ys.shape
        np.testing.assert_array_equal(values.ravel(), singles[:, k])


def test_family_xlogx_memory_is_flat_in_the_number_of_values():
    # one batch held 145 nodes per value in each of its ~10 working arrays: 23 MB per array here
    ys = np.linspace(0.0, 1.0, 20_000)
    tracemalloc.start()
    try:
        information.family_xlogx(3, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * ys.nbytes  # the three results twice over and one block's work arrays (about 2.5 MB)


def test_info_report_units():
    rng = np.random.default_rng(55)
    report = qd.info_uniform_mc(qd.basis_povm(2), 5000, rng)
    bits = report.in_bits()
    assert bits.log_base == "bits"
    assert bits.mutual_info == pytest.approx(report.mutual_info / LN2)
    assert bits.stderr == pytest.approx(report.stderr / LN2)


def test_info_finite_ensemble_cases():
    e0 = np.array([1, 0], dtype=complex)
    e1 = np.array([0, 1], dtype=complex)
    basis = qd.basis_povm(2)

    assert qd.info_finite_ensemble(basis, [(e0, 1.0)]).mutual_info == pytest.approx(0.0, abs=1e-14)

    report = qd.info_finite_ensemble(basis, [(e0, 0.5), (e1, 0.5)])
    assert report.mutual_info == pytest.approx(LN2, abs=1e-12)

    with pytest.raises(qd.InfodistError, match="nonnegative and sum to 1"):
        qd.info_finite_ensemble(basis, [(e0, 0.7)])


def test_info_outcome_splitting_identity():
    # {alpha I, (1-alpha) F_b} carries (1-alpha) times the information
    rng = np.random.default_rng(56)
    basis = qd.basis_povm(2)
    trivial = qd.POVM(2, (np.eye(2, dtype=complex),))
    mixed, _ = qd.convex_mix(
        [(trivial, qd.sqrt_instrument(trivial)), (basis, qd.sqrt_instrument(basis))],
        [0.4, 0.6],
    )
    ensemble = [(qd.haar_states(2, 1, rng)[0], 0.25) for _ in range(4)]
    full = qd.info_finite_ensemble(basis, ensemble).mutual_info
    assert qd.info_finite_ensemble(mixed, ensemble).mutual_info == pytest.approx(0.6 * full, abs=1e-10)


def test_info_coarse_graining_monotone():
    # data processing: grouping outcomes cannot increase information
    rng = np.random.default_rng(58)
    povm = qd.random_povm(3, 4, rng)
    ensemble = [(qd.haar_states(3, 1, rng)[0], 1.0 / 6.0) for _ in range(6)]
    fine = qd.info_finite_ensemble(povm, ensemble).mutual_info
    grouped = qd.coarse_grain(povm, [[0, 2], [1, 3]])
    coarse = qd.info_finite_ensemble(grouped, ensemble).mutual_info
    assert coarse <= fine + 1e-12


def test_info_finite_ensemble_ignores_the_scale_of_a_state():
    # p(b|psi) is <psi|F_b|psi> over the row's sum; a row-sum floor of 1e-300 once broke this for a
    # state of norm 1e-152 (norm squared 1e-304)
    rng = np.random.default_rng(71)
    povm = qd.random_povm(3, 4, rng)
    states = list(qd.haar_states(3, 5, rng))
    weights = [0.1, 0.2, 0.3, 0.15, 0.25]
    base = qd.info_finite_ensemble(povm, list(zip(states, weights)))
    for scale in (3.7, 1e-152):
        scaled = qd.info_finite_ensemble(povm, list(zip([scale * states[0], *states[1:]], weights)))
        np.testing.assert_allclose(scaled[:3], base[:3], rtol=1e-14, atol=0, err_msg=str(scale))


def test_zero_state_has_zero_outcome_probabilities():
    # the row sum of a zero state is 0: its probabilities stay 0 instead of 0/0
    report = qd.info_finite_ensemble(qd.basis_povm(2), [(np.zeros(2), 0.5), (np.array([1.0, 0.0]), 0.5)])
    assert report.h_b_given_psi == 0.0 and report.mutual_info == report.h_b == -0.5 * np.log(0.5)


def test_mutual_info_nan_row_is_nan():
    # a NaN probability must not be read as 0 log 0
    basis = qd.basis_povm(2)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    e0 = np.array([1, 0], dtype=complex)
    nan_state = np.full(2, np.nan, dtype=complex)
    report = qd.info_finite_ensemble(basis, [(nan_state, 1.0 / 3.0), (plus, 1.0 / 3.0), (e0, 1.0 / 3.0)])
    assert np.isnan(report.mutual_info)
    h_c = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
    report = qd.info_finite_ensemble(basis, [(plus, 0.5), (e0, 0.5)])
    assert report.mutual_info == pytest.approx(h_c - 0.5 * LN2, abs=1e-15)


def test_haar_xlogx_rank_one_and_flat():
    for d in range(2, 11):
        e = np.zeros(d)
        e[0] = 1.0
        h_d = sum(1.0 / k for k in range(1, d + 1))
        assert qd.haar_xlogx(e) == pytest.approx(-(h_d - 1.0) / d, abs=1e-12)
        assert qd.haar_xlogx(d * e) == pytest.approx(qd.info_finegrained_exact(d), abs=1e-12)
        assert qd.haar_xlogx(np.ones(d)) == pytest.approx(0.0, abs=1e-12)
        assert qd.haar_xlogx(np.full(d, 0.3)) == pytest.approx(0.3 * np.log(0.3), abs=1e-12)
    batch = np.array([[2.0, 0.0], [1.0, 1.0]])
    assert np.allclose(qd.haar_xlogx(batch), [qd.info_finegrained_exact(2), 0.0], rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        qd.haar_xlogx([1.5, -0.5])
    assert np.isnan(qd.haar_xlogx([np.nan, 1.0]))


def test_haar_xlogx_matches_monte_carlo_information():
    rng = np.random.default_rng(60)
    for d in (2, 3, 4, 5):
        for outcomes in (2, d + 1):
            povm = qd.random_povm(d, outcomes, rng)
            report = qd.info_uniform_mc(povm, 40_000, rng)
            assert abs(haar_info(povm) - report.mutual_info) < 5 * report.stderr


def test_haar_info_ignores_a_zero_effect():
    # 0 ln 0 = 0: an outcome that never occurs carries no information (q ln q at qbar = 0 gave NaN)
    for d in (2, 3):
        povm = qd.random_povm(d, 3, np.random.default_rng(63))
        padded = qd.POVM(d, (*povm.effects, np.zeros((d, d), dtype=complex)))
        assert haar_info(padded) == haar_info(povm)


def test_haar_xlogx_information_never_exceeds_i_max():
    # Jones' theorem: the fine-grained measurement extracts the most, and rank-one effects attain
    # it, so there the bound holds only up to rounding
    rng = np.random.default_rng(61)
    for k in range(1000):
        d = 2 + k % 4
        rank = int(rng.integers(1, d + 1))
        povm = qd.random_povm(d, int(rng.integers(-(-d // rank), 2 * d + 1)), rng, rank=rank)
        info, i_max = haar_info(povm), qd.info_finegrained_exact(d)
        assert -1e-13 <= info <= i_max + (1e-12 if rank == 1 else 0.0)
        if rank == 1:
            assert info == pytest.approx(i_max, abs=1e-12)


def test_haar_xlogx_gradient_matches_central_differences():
    rng = np.random.default_rng(62)
    h = 1e-5
    for d in (2, 3, 5, 8):
        nu = rng.dirichlet(np.ones(d)) * d
        _, grad = qd.haar_xlogx(nu, gradient=True)
        steps = h * np.eye(d)
        central = (qd.haar_xlogx(nu + steps) - qd.haar_xlogx(nu - steps)) / (2 * h)
        assert np.abs(grad - central).max() < 1e-8
