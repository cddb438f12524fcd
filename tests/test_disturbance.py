import tracemalloc

import numpy as np
import pytest

import infodist as qd
from infodist.config import BLOCK_ENTRIES
from conftest import induced_effects

E0 = np.array([1, 0], dtype=complex)
E1 = np.array([0, 1], dtype=complex)


def identity_instrument(d):
    return qd.Instrument(d, ((np.eye(d, dtype=complex),),))


def test_pi_operator_entries_qubit():
    pi = qd.pi_operator(2)
    # indices (i,j) -> i*2+j
    assert pi[0, 0] == pytest.approx(1.0 / 3.0)  # <00|Pi|00>
    assert pi[1, 1] == pytest.approx(1.0 / 6.0)  # <01|Pi|01>
    assert pi[1, 2] == pytest.approx(1.0 / 6.0)  # <01|Pi|10>
    assert pi[0, 3] == pytest.approx(0.0)  # <00|Pi|11>
    assert np.trace(pi) == pytest.approx(1.0, abs=1e-14)
    assert np.abs(pi - pi.conj().T).max() == 0.0


def test_pair_moment_matches_tensor_contraction():
    # closed form against the explicit matrix on the tensor square
    rng = np.random.default_rng(30)
    for d in (2, 3, 5):
        pi = qd.pi_operator(d)
        for _ in range(5):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            contracted = np.trace(pi @ np.kron(a, b))
            assert qd.pair_moment(a, b) == pytest.approx(contracted, abs=1e-12)


def test_avg_fidelity_uniform_known_values():
    assert qd.avg_fidelity_uniform(identity_instrument(3)).avg_fidelity == pytest.approx(1.0)
    basis = qd.sqrt_instrument(qd.basis_povm(2))
    assert qd.avg_fidelity_uniform(basis).avg_fidelity == pytest.approx(2.0 / 3.0, abs=1e-12)
    trine = qd.sqrt_instrument(qd.trine_povm())
    assert qd.avg_fidelity_uniform(trine).avg_fidelity == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_avg_fidelity_uniform_agrees_with_pi_contraction():
    # independent oracle: integrate each |<psi|A|psi>|^2 with the Pi matrix
    rng = np.random.default_rng(31)
    povm = qd.random_povm(3, 4, rng)
    inst = qd.sqrt_instrument(povm)
    pi = qd.pi_operator(3)
    oracle = sum(np.trace(pi @ np.kron(a, a.conj().T)).real for a in inst.kraus_ops())
    assert qd.avg_fidelity_uniform(inst).avg_fidelity == pytest.approx(oracle, abs=1e-12)


def test_min_disturbance_uniform_known_values():
    trivial = qd.POVM(2, (np.eye(2, dtype=complex),))
    assert qd.min_disturbance_uniform(trivial).disturbance == pytest.approx(0.0, abs=1e-14)

    rng = np.random.default_rng(32)
    rank1 = qd.random_povm(3, 6, rng, rank=1)
    assert qd.min_disturbance_uniform(rank1).disturbance == pytest.approx(0.5, abs=1e-12)

    halves = qd.POVM(2, (np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2))
    assert qd.min_disturbance_uniform(halves).disturbance == pytest.approx(0.0, abs=1e-12)


def test_min_disturbance_equals_sqrt_instrument_fidelity():
    rng = np.random.default_rng(33)
    for d in (2, 4):
        povm = qd.random_povm(d, 3, rng)
        a = qd.min_disturbance_uniform(povm).avg_fidelity
        b = qd.avg_fidelity_uniform(qd.sqrt_instrument(povm)).avg_fidelity
        assert a == pytest.approx(b, abs=1e-12)


def test_min_disturbance_is_the_twirl_p_star_rescaled():
    """Both are (d^2 - sum_b (tr sqrt F_b)^2) over a constant: D_min = p* (d - 1) / d on 1,000
    seeded POVMs over every d = 2..8 and 2..5 outcomes."""
    rng = np.random.default_rng(35)
    gaps = []
    for i in range(1000):
        d, k = 2 + i % 7, 2 + i % 4
        povm = qd.random_povm(d, k, rng)
        gaps.append(qd.min_disturbance_uniform(povm).disturbance - qd.twirl_depolarizing_p(povm) * (d - 1) / d)
    assert np.max(np.abs(gaps)) <= 1e-15  # np.max propagates NaN, which fails


def test_avg_fidelity_mc_identity_and_basis():
    rng = np.random.default_rng(34)
    rep = qd.avg_fidelity_mc(identity_instrument(3), 100, rng)
    assert rep.avg_fidelity == 1.0 and rep.stderr == 0.0

    rep = qd.avg_fidelity_mc(qd.sqrt_instrument(qd.basis_povm(2)), 100_000, rng)
    assert abs(rep.avg_fidelity - 2.0 / 3.0) < 5 * rep.stderr


def _normalised_state_overlaps(inst, states):
    """sum_bi |<psi|A_bi|psi>|^2 / <psi|psi>^2 per row of normalised states, one einsum per Kraus
    operator: the scoring the raw-draw kernel replaced, kept as its oracle."""
    bras = states.conj()
    vals = np.zeros(len(states))
    for a in inst.kraus_ops():
        vals += np.abs(np.einsum("nd,nd->n", bras, states @ a.T)) ** 2
    return vals / np.einsum("nd,nd->n", bras, states).real ** 2


@pytest.mark.parametrize("d", range(2, 9))
def test_avg_fidelity_mc_matches_normalised_state_scoring(d):
    # the same draws as haar_states, scored unnormalised: below one block, and over three and a ragged
    # part; the square-root instrument's Kraus operators are Hermitian, the one-term ones are not
    rows = BLOCK_ENTRIES // d**2
    for k in sorted({2, 3, d + 1}):
        rng = np.random.default_rng(10 * d + k)
        povm = qd.random_povm(d, k, rng)
        for inst in (qd.sqrt_instrument(povm), qd.one_term_instrument(povm, qd.haar_unitaries(d, k, rng))):
            for n in (rows - 1, 3 * rows + 5):
                rng, oracle_rng = np.random.default_rng(n), np.random.default_rng(n)
                report = qd.avg_fidelity_mc(inst, n, rng)
                mean, stderr = qd.mean_stderr(_normalised_state_overlaps(inst, qd.haar_states(d, n, oracle_rng)))
                assert rng.bit_generator.state == oracle_rng.bit_generator.state, (k, n)
                np.testing.assert_allclose([report.avg_fidelity, report.stderr], [mean, stderr], rtol=1e-14, atol=0,
                                           err_msg=f"{k} {n}")  # fmt: skip


def test_avg_fidelity_mc_memory_is_the_states_and_one_draw():
    n, d = 100_000, 4
    inst = qd.sqrt_instrument(qd.random_povm(d, 5, np.random.default_rng(58)))
    tracemalloc.start()
    try:
        qd.avg_fidelity_mc(inst, n, np.random.default_rng(59))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * d * 16  # the states (6.4 MB) and the real parts they are drawn through


def test_avg_fidelity_mc_matches_exact_for_reset():
    rng = np.random.default_rng(35)
    psi0 = qd.haar_states(2, 1, rng)[0]
    inst = qd.reset_instrument(qd.random_povm(2, 3, rng), psi0)
    exact = qd.avg_fidelity_uniform(inst).avg_fidelity
    rep = qd.avg_fidelity_mc(inst, 100_000, rng)
    assert abs(rep.avg_fidelity - exact) < 5 * rep.stderr


def test_avg_fidelity_design_exactness():
    # single point design, identity instrument
    rep = qd.avg_fidelity_design(identity_instrument(2), np.array([E0]))
    assert rep.avg_fidelity == pytest.approx(1.0)

    # unbiased-bases design reproduces the exact value: degree-2 integrand
    mub3 = qd.wootters_fields_mub(3, 1).vectors()
    basis3 = qd.sqrt_instrument(qd.basis_povm(3))
    rep = qd.avg_fidelity_design(basis3, mub3)
    assert rep.avg_fidelity == pytest.approx(0.5, abs=1e-12)

    rng = np.random.default_rng(36)
    mub5 = qd.wootters_fields_mub(5, 1).vectors()
    inst = qd.sqrt_instrument(qd.random_povm(5, 4, rng))
    exact = qd.avg_fidelity_uniform(inst).avg_fidelity
    assert qd.avg_fidelity_design(inst, mub5).avg_fidelity == pytest.approx(exact, abs=1e-12)


def test_entanglement_fidelity():
    assert qd.entanglement_fidelity(np.eye(2, dtype=complex) / 2, identity_instrument(2)) == pytest.approx(1.0)
    basis = qd.sqrt_instrument(qd.basis_povm(2))
    assert qd.entanglement_fidelity(np.eye(2, dtype=complex) / 2, basis) == pytest.approx(0.5, abs=1e-12)


def test_entanglement_fidelity_relation_to_avg():
    # F_avg = (d F_e(I/d) + 1) / (d + 1), checked on random instruments
    rng = np.random.default_rng(37)
    for d in (2, 3, 4):
        for _ in range(20):
            povm = qd.random_povm(d, 3, rng)
            us = [qd.haar_unitaries(d, 1, rng)[0] for _ in povm.effects]
            inst = qd.one_term_instrument(povm, us)
            f_e = qd.entanglement_fidelity(np.eye(d, dtype=complex) / d, inst)
            f_avg = qd.avg_fidelity_uniform(inst).avg_fidelity
            assert f_avg == pytest.approx((d * f_e + 1) / (d + 1), abs=1e-10)


def test_superadditivity_margin_cases():
    rng = np.random.default_rng(39)
    psi = qd.haar_states(3, 1, rng)[0]
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p1 = x @ x.conj().T

    assert qd.superadditivity_margin(p1, np.zeros((3, 3), dtype=complex), psi) == pytest.approx(0.0, abs=1e-10)
    assert qd.superadditivity_margin(p1, 2.7 * p1, psi) == pytest.approx(0.0, abs=1e-10)

    with pytest.raises(qd.InfodistError, match="positive semidefinite"):
        qd.superadditivity_margin(-p1, p1, psi)


def test_superadditivity_random_search():
    # falsification attempt over random positive pairs
    rng = np.random.default_rng(40)
    margins = []
    for _ in range(2000):
        d = int(rng.integers(2, 7))
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        margins.append(qd.superadditivity_margin(x @ x.conj().T / d, y @ y.conj().T / d, qd.haar_states(d, 1, rng)[0]))
    assert np.min(margins) >= -1e-12  # np.min propagates NaN; Python's min(inf, nan) is inf


def test_restore_counterexample():
    g, channel, gain = qd.restore_counterexample(2, E0)
    assert np.abs(g - qd.outer(E1)).max() < 1e-12
    assert gain == pytest.approx(1.0, abs=1e-12)

    rng = np.random.default_rng(41)
    for d in (2, 3, 5):
        psi = qd.haar_states(d, 1, rng)[0]
        g, channel, gain = qd.restore_counterexample(d, psi)
        assert gain == pytest.approx(1.0, abs=1e-12)
        assert np.abs(sum(induced_effects(channel)) - np.eye(d)).max() < 1e-12
        # identity channel gains nothing
        ident = identity_instrument(d)
        same = qd.apply_channel(ident, g)
        assert np.vdot(psi, same @ psi).real == pytest.approx(np.vdot(psi, g @ psi).real)


def test_entfid_bound_identity_split_is_equality():
    povm = qd.basis_povm(2)
    lhs, rhs = qd.entfid_bound_check(povm, np.eye(2, dtype=complex))
    assert rhs == pytest.approx(0.5, abs=1e-12)
    assert lhs == pytest.approx(rhs, abs=1e-12)

    # scalar two-way split per branch keeps both sides equal
    rng = np.random.default_rng(42)
    scalar = np.concatenate([np.sqrt(0.3) * np.eye(2), np.sqrt(0.7) * np.eye(2)], axis=0)
    lhs, rhs = qd.entfid_bound_check(qd.random_povm(2, 3, rng), scalar)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_entfid_bound_random_trials():
    rng = np.random.default_rng(43)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        povm = qd.random_povm(d, int(rng.integers(2, 5)), rng)
        m = qd.random_stinespring_isometry(d, int(rng.integers(1, 4)), rng)
        lhs, rhs = qd.entfid_bound_check(povm, m)
        assert lhs <= rhs + 1e-12


def test_entfid_bound_rejects_nan_isometry():
    # NaN compared False against the trace-preservation gate: the check returned (nan, 0.5)
    m = np.eye(2, dtype=complex)
    m[0, 1] = np.nan
    with pytest.raises(qd.InfodistError, match="trace-preserving channel"):
        qd.entfid_bound_check(qd.basis_povm(2), m)
