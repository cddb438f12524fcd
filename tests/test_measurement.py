import numpy as np
import pytest

import infodist as qd
from conftest import induced_effects

E0 = np.array([1, 0], dtype=complex)
E1 = np.array([0, 1], dtype=complex)


def test_povm_validate_trivial_and_basis():
    trivial = qd.POVM(2, (np.eye(2, dtype=complex),))
    diag = qd.povm_validate(trivial)
    assert diag.passed and diag.completeness_residual == 0.0
    assert qd.povm_validate(qd.basis_povm(2)).passed


def test_povm_validate_trine_resolution():
    trine = qd.trine_povm()
    # direct summation oracle
    total = sum(trine.effects)
    assert np.abs(total - np.eye(2)).max() < 1e-12
    assert qd.povm_validate(trine).passed


def test_povm_validate_flags_zero_effects():
    p = qd.POVM(2, (np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)))
    diag = qd.povm_validate(p)
    assert diag.passed


def test_povm_validate_reports_violations():
    p = qd.POVM(2, (0.5 * np.eye(2, dtype=complex),))
    diag = qd.povm_validate(p)
    assert not diag.passed and diag.completeness_residual == pytest.approx(0.5)


def test_povm_validate_nan_effect_fails():
    # Python's max dropped the NaN: both residuals once read 0.0
    e = 0.5 * np.eye(2, dtype=complex)
    e[0, 1] = np.nan
    diag = qd.povm_validate(qd.POVM(2, (e, np.eye(2) - e)))
    assert np.isnan(diag.max_hermiticity_violation) and np.isnan(diag.max_psd_violation)
    assert not diag.passed
    # finite effects fold as before
    assert qd.povm_validate(qd.trine_povm()).max_psd_violation == 0.0


def test_sqrt_instrument_projectors_and_trine():
    inst = qd.sqrt_instrument(qd.basis_povm(2))
    assert np.abs(inst.branches[0][0] - qd.outer(E0)).max() < 1e-12
    assert np.abs(inst.branches[1][0] - qd.outer(E1)).max() < 1e-12

    trine = qd.trine_povm()
    inst = qd.sqrt_instrument(trine)
    for a, f in zip(inst.kraus_ops(), trine.effects):
        # sqrt of a scaled rank-1 projector rescales by the root
        assert np.abs(a - f / np.sqrt(2.0 / 3.0)).max() < 1e-12

    # degenerate projectors: each Kraus operator is its projector, the Lüders update
    basis3 = [qd.outer(np.eye(3, dtype=complex)[:, k]) for k in range(3)]
    projectors = (basis3[0] + basis3[1], basis3[2])
    inst = qd.sqrt_instrument(qd.POVM(3, projectors))
    for a, p in zip(inst.kraus_ops(), projectors, strict=True):
        assert np.abs(a - p).max() < 1e-12
        assert np.abs(a @ a - a).max() < 1e-12


def test_apply_channel_dephases():
    rng = np.random.default_rng(20)
    inst = qd.sqrt_instrument(qd.basis_povm(2))
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = x @ x.conj().T
    rho /= np.trace(rho).real
    out = qd.apply_channel(inst, rho)
    assert np.abs(out - np.diag(np.diagonal(rho))).max() < 1e-12
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-9)

    ident = qd.Instrument(2, ((np.eye(2, dtype=complex),),))
    assert np.abs(qd.apply_channel(ident, rho) - rho).max() == 0.0


def test_instrument_povm_roundtrip_and_unitary_cancellation():
    rng = np.random.default_rng(21)
    for d in (2, 4, 8):
        povm = qd.random_povm(d, 3, rng)
        back = induced_effects(qd.sqrt_instrument(povm))
        for a, b in zip(back, povm.effects, strict=True):
            assert np.abs(a - b).max() < 1e-9

    povm = qd.random_povm(3, 4, rng)
    us = [qd.haar_unitaries(3, 1, rng)[0] for _ in range(4)]
    back = induced_effects(qd.one_term_instrument(povm, us))
    for a, b in zip(back, povm.effects, strict=True):
        assert np.abs(a - b).max() < 1e-9


def test_fine_and_coarse_grain():
    rng = np.random.default_rng(22)
    povm = qd.random_povm(3, 3, rng)
    inst = qd.sqrt_instrument(povm)

    # branch with two Kraus operators splits into two effects summing to F_b
    m = qd.random_stinespring_isometry(3, 2, rng)
    blocks = qd.isometry_kraus(m)
    multi = qd.Instrument(3, tuple(tuple(b @ a for b in blocks) for (a,) in inst.branches))
    fine = qd.POVM(3, tuple(a.conj().T @ a for a in multi.kraus_ops()))
    assert len(fine) == 2 * len(povm)
    partition = [[2 * b, 2 * b + 1] for b in range(len(povm))]
    regrouped = qd.coarse_grain(fine, partition)
    for a, b in zip(regrouped.effects, povm.effects):
        assert np.abs(a - b).max() < 1e-9

    basis3 = qd.basis_povm(3)
    grouped = qd.coarse_grain(basis3, [[0, 1], [2]])
    assert np.abs(grouped.effects[0] - np.diag([1.0, 1.0, 0.0])).max() < 1e-12
    assert len(grouped) == 2 and np.abs(grouped.effects[1] - np.diag([0.0, 0.0, 1.0])).max() < 1e-12
    assert np.abs(qd.coarse_grain(basis3, [[0, 1, 2]]).effects[0] - np.eye(3)).max() < 1e-12
    same = qd.coarse_grain(basis3, [[0], [1], [2]])
    assert all(np.abs(a - b).max() == 0.0 for a, b in zip(same.effects, basis3.effects))

    with pytest.raises(qd.InfodistError, match="must cover every outcome index exactly once"):
        qd.coarse_grain(basis3, [[0, 1]])
    with pytest.raises(qd.InfodistError, match="must cover every outcome index exactly once"):
        qd.coarse_grain(basis3, [[0, 1], [1, 2]])


def test_convex_mix_identity_and_structure():
    basis = qd.basis_povm(2)
    inst = qd.sqrt_instrument(basis)
    povm, mixed_inst = qd.convex_mix([(basis, inst)], [1.0])
    assert qd.povm_validate(povm).passed
    assert np.abs(sum(induced_effects(mixed_inst)) - np.eye(2)).max() < 1e-12

    trivial = qd.POVM(2, (np.eye(2, dtype=complex),))
    mixed, _ = qd.convex_mix(
        [(trivial, qd.sqrt_instrument(trivial)), (basis, inst)], [0.5, 0.5]
    )
    assert np.abs(mixed.effects[0] - np.eye(2) / 2).max() < 1e-12
    assert np.abs(mixed.effects[1] - qd.outer(E0) / 2).max() < 1e-12
    assert qd.povm_validate(mixed).passed

    with pytest.raises(qd.InfodistError, match="nonnegative and sum to 1"):
        qd.convex_mix([(basis, inst)], [0.5])


def test_reset_instrument():
    rng = np.random.default_rng(25)
    psi0 = qd.haar_states(3, 1, rng)[0]
    povm = qd.random_povm(3, 4, rng)
    inst = qd.reset_instrument(povm, psi0)

    for a, b in zip(induced_effects(inst), povm.effects, strict=True):
        assert np.abs(a - b).max() < 1e-9

    target = qd.outer(psi0)
    for _ in range(10):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = x @ x.conj().T
        rho /= np.trace(rho).real
        out = qd.apply_channel(inst, rho)
        assert np.vdot(psi0, out @ psi0).real == pytest.approx(1.0, abs=1e-9)

    trivial = qd.POVM(3, (np.eye(3, dtype=complex),))
    inst = qd.reset_instrument(trivial, psi0)
    out = qd.apply_channel(inst, np.eye(3, dtype=complex) / 3)
    assert np.abs(out - target).max() < 1e-9


def test_fine_grain_of_reset_instrument_is_rank_one():
    rng = np.random.default_rng(27)
    povm = qd.random_povm(2, 3, rng)
    inst = qd.reset_instrument(povm, qd.haar_states(2, 1, rng)[0])
    fine = qd.POVM(2, tuple(a.conj().T @ a for a in inst.kraus_ops()))
    for e in fine.effects:
        w = np.linalg.eigvalsh(e)
        assert w[:-1].max() < 1e-10  # lambda^2 |bi><bi| terms
    blocks, start = [], 0
    for br in inst.branches:
        blocks.append(list(range(start, start + len(br))))
        start += len(br)
    regrouped = qd.coarse_grain(fine, blocks)
    for a, b in zip(regrouped.effects, povm.effects):
        assert np.abs(a - b).max() < 1e-9


def test_random_povm_properties():
    rng = np.random.default_rng(26)
    for d, m, rank in ((2, 4, None), (5, 3, None), (3, 6, 1)):
        povm = qd.random_povm(d, m, rng, rank=rank)
        assert qd.povm_validate(povm).passed
        if rank == 1:
            for e in povm.effects:
                w = np.linalg.eigvalsh(e)
                assert w[-2] < 1e-10  # a single nonzero eigenvalue
