import numpy as np
import pytest

import infodist as qd
from infodist.errors import NonHermitianError, NonSquareError, NotIsometryError, NotPositiveError, WeightError

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_psd(d, rng, rank=None):
    x = rng.standard_normal((d, rank or d)) + 1j * rng.standard_normal((d, rank or d))
    return x @ x.conj().T


def test_herm_eig_diagonal():
    w, v = qd.herm_eig(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(w, [1.0, 3.0])
    assert np.allclose(v @ np.diag(w) @ v.conj().T, np.diag([3.0, 1.0]))


def test_herm_eig_identity():
    h = np.eye(4, dtype=complex)
    w, v = qd.herm_eig(h)
    assert np.allclose(w, 1.0)
    assert np.abs(v @ np.diag(w) @ v.conj().T - h).max() < 1e-10


def test_herm_eig_pauli_x():
    # characteristic polynomial of [[0,1],[1,0]] is l^2 - 1
    w, _ = qd.herm_eig(PAULI_X)
    assert np.allclose(w, [-1.0, 1.0], atol=1e-12)


def test_herm_eig_phase_convention():
    rng = np.random.default_rng(3)
    h = random_psd(5, rng)
    _, v = qd.herm_eig(h)
    for k in range(5):
        lead = v[np.argmax(np.abs(v[:, k])), k]
        assert abs(lead.imag) < 1e-12 and lead.real > 0


def test_herm_eig_reconstruction_random():
    rng = np.random.default_rng(4)
    for d in (2, 5, 9):
        h = random_psd(d, rng) - random_psd(d, rng)
        w, v = qd.herm_eig(h)
        scale = np.abs(h).max()
        assert np.abs(v @ np.diag(w) @ v.conj().T - h).max() < 1e-10 * max(scale, 1.0)
        assert np.abs(v.conj().T @ v - np.eye(d)).max() < 1e-10


def test_herm_eig_rejects():
    with pytest.raises(NonSquareError):
        qd.herm_eig(np.zeros((2, 3), dtype=complex))
    with pytest.raises(NonHermitianError):
        qd.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def _herm_eig_column_loop(h):
    # the per-column phase fix herm_eig used before it was vectorized
    w, v = np.linalg.eigh((h + h.conj().T) / 2)
    for k in range(v.shape[1]):
        col = v[:, k]
        lead = col[np.argmax(np.abs(col))]
        if abs(lead) > 0:
            v[:, k] = col * (abs(lead) / lead)
    return w, v


def test_herm_eig_bit_identical_to_column_loop():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3, 4, 7, 11, 49):
        for trial in range(6):
            h = random_psd(d, rng, rank=max(d // 2, 1)) if trial % 2 else random_psd(d, rng) - random_psd(d, rng)
            if trial == 4:
                h = h.real.astype(float)  # real symmetric input keeps real eigenvectors
            w, v = qd.herm_eig(h)
            w_ref, v_ref = _herm_eig_column_loop(h)
            assert v.dtype == v_ref.dtype
            assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)


def test_mat_sqrt_diagonal():
    assert np.allclose(qd.mat_sqrt(np.diag([4.0, 9.0]).astype(complex)), np.diag([2.0, 3.0]))
    assert np.allclose(qd.mat_sqrt(np.eye(2, dtype=complex) / 2), np.eye(2) / np.sqrt(2))


def test_mat_sqrt_projector_fixed_point():
    # (I+X)/2 has eigenvalues (0, 1) so it is its own square root
    proj = (np.eye(2) + PAULI_X) / 2
    assert np.abs(qd.mat_sqrt(proj) - proj).max() < 1e-12


def test_mat_sqrt_squares_back():
    rng = np.random.default_rng(5)
    for d in (2, 7, 16):
        p = random_psd(d, rng)
        r = qd.mat_sqrt(p)
        assert np.abs(r @ r - p).max() < 1e-9 * np.abs(p).max()
        assert np.linalg.eigvalsh(r).min() > -1e-10


def test_mat_sqrt_rejects_negative():
    with pytest.raises(NotPositiveError):
        qd.mat_sqrt(np.diag([1.0, -1.0]).astype(complex))


def test_gen_inv_sqrt_support_rule():
    assert np.allclose(qd.gen_inv_sqrt(np.diag([4.0, 0.0]).astype(complex)), np.diag([0.5, 0.0]))
    assert np.allclose(qd.gen_inv_sqrt(np.eye(3, dtype=complex)), np.eye(3))
    # 1e-20 sits below the support cutoff d * max_eig * 1e-12
    out = qd.gen_inv_sqrt(np.diag([9.0, 1e-20]).astype(complex))
    assert np.allclose(out, np.diag([1.0 / 3.0, 0.0]))


def _gen_inv_sqrt_phase_fixed(p):
    # S^{-1/2} through herm_eig's phase-fixed eigenvectors, as gen_inv_sqrt used to take it
    w, v = qd.herm_eig(p)
    w = np.where(w > max(0.0, len(w) * w[-1] * 1e-12), w, 0.0)
    return (v * np.where(w > 0, 1.0 / np.sqrt(np.where(w > 0, w, 1.0)), 0.0)) @ v.conj().T


def test_gen_inv_sqrt_matches_phase_fixed_reference():
    rng = np.random.default_rng(7)
    for d in (1, 2, 5, 10, 49):
        for rank in sorted({1, max(d // 2, 1), d}):
            p = random_psd(d, rng, rank=rank)
            p /= np.abs(p).max()
            out = qd.gen_inv_sqrt(p)
            assert np.abs(out - _gen_inv_sqrt_phase_fixed(p)).max() < 1e-13 * max(1.0, np.abs(out).max())
            # Moore-Penrose: S^{-1/2} S S^{-1/2} is the projector onto the support
            proj = out @ p @ out
            assert np.abs(proj @ proj - proj).max() < 1e-9 and np.trace(proj).real == pytest.approx(rank, abs=1e-8)


def test_gen_inv_sqrt_rejects():
    with pytest.raises(NonHermitianError):
        qd.gen_inv_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
    with pytest.raises(NotPositiveError):
        qd.gen_inv_sqrt(np.diag([1.0, -1.0]).astype(complex))
    with pytest.raises(NonSquareError):
        qd.gen_inv_sqrt(np.zeros((2, 3), dtype=complex))


def test_fidelity_basics():
    rho = np.diag([0.25, 0.75]).astype(complex)
    assert qd.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
    e0 = qd.outer(np.array([1, 0], dtype=complex))
    e1 = qd.outer(np.array([0, 1], dtype=complex))
    assert qd.fidelity(e0, e1) == pytest.approx(0.0, abs=1e-12)
    assert qd.fidelity(e0, np.eye(2, dtype=complex) / 2) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_symmetry_and_pure_shortcut():
    rng = np.random.default_rng(8)
    for _ in range(5):
        a = random_psd(3, rng)
        a /= np.trace(a).real
        b = random_psd(3, rng)
        b /= np.trace(b).real
        assert qd.fidelity(a, b) == pytest.approx(qd.fidelity(b, a), abs=1e-9)
        psi = qd.haar_states(3, 1, rng)[0]
        pure = qd.outer(psi)
        general = qd.fidelity(pure, b)
        shortcut = float(np.vdot(psi, b @ psi).real)
        assert general == pytest.approx(shortcut, abs=1e-9)
        assert 0.0 <= general <= 1.0


def test_haar_state_normalized_and_d1():
    rng = np.random.default_rng(9)
    psi = qd.haar_states(1, 1, rng)[0]
    assert abs(abs(psi[0]) - 1.0) < 1e-12
    batch = qd.haar_states(6, 100, rng)
    assert np.abs(np.linalg.norm(batch, axis=1) - 1.0).max() < 1e-12


def test_haar_state_second_moment():
    # E |<0|psi>|^2 = 1/d
    rng = np.random.default_rng(10)
    n, d = 100_000, 3
    vals = np.abs(qd.haar_states(d, n, rng)[:, 0]) ** 2
    stderr = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - 1.0 / d) < 3 * stderr


def test_haar_state_fourth_moment():
    # E |<0|psi>|^4 = 2/(d(d+1)); 1/3 for a qubit
    rng = np.random.default_rng(11)
    n, d = 100_000, 2
    vals = np.abs(qd.haar_states(d, n, rng)[:, 0]) ** 4
    stderr = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - 1.0 / 3.0) < 3 * stderr


def test_haar_state_pair_moment_nonorthogonal():
    # E |<a|psi>|^2 |<b|psi>|^2 = (1 + |<a|b>|^2)/(d(d+1)) for any fixed a, b
    rng = np.random.default_rng(12)
    d, n = 3, 200_000
    a = qd.haar_states(d, 1, rng)[0]
    b = qd.haar_states(d, 1, rng)[0]
    states = qd.haar_states(d, n, rng)
    vals = np.abs(states @ a.conj()) ** 2 * np.abs(states @ b.conj()) ** 2
    expected = (1 + abs(np.vdot(a, b)) ** 2) / (d * (d + 1))
    stderr = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - expected) < 5 * stderr


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(13)
    psi = qd.haar_unitaries(1, 1, rng)[0]
    assert abs(abs(psi[0, 0]) - 1.0) < 1e-12
    for _ in range(100):
        u = qd.haar_unitaries(5, 1, rng)[0]
        assert np.abs(u.conj().T @ u - np.eye(5)).max() < 1e-10


def test_haar_unitaries_bit_identical_to_per_matrix_loop():
    # the one-at-a-time Ginibre-QR sampler haar_unitaries replaced
    def one(d, rng):
        z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r)
        return q * (diag / np.abs(diag))

    for d in (1, 2, 3, 5, 10):
        for n in (1, 4, 9):
            rng, rng_ref = np.random.default_rng(d * 100 + n), np.random.default_rng(d * 100 + n)
            assert np.array_equal(qd.haar_unitaries(d, n, rng), np.stack([one(d, rng_ref) for _ in range(n)]))
            assert np.array_equal(qd.haar_unitaries(d, 1, rng)[0], one(d, rng_ref))
            assert rng.random() == rng_ref.random()  # same stream position afterwards


def test_samplers_bit_identical_to_separate_qr_code():
    # haar_unitaries and random_stinespring_isometry each carried their own
    # rephased QR before sharing one; these are those two bodies
    def unitaries(d, n, rng):
        g = rng.standard_normal((n, 2, d, d))
        q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2))
        diag = np.diagonal(r, axis1=1, axis2=2)
        return q * (diag / np.abs(diag))[:, None, :]

    def isometry(d, k, rng):
        z = rng.standard_normal((k * d, d)) + 1j * rng.standard_normal((k * d, d))
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r)
        return q * (diag / np.abs(diag))

    for d in (1, 2, 3, 5):
        for m in (1, 2, 4):
            rng, rng_ref = np.random.default_rng(d * 10 + m), np.random.default_rng(d * 10 + m)
            assert np.array_equal(qd.haar_unitaries(d, m, rng), unitaries(d, m, rng_ref))
            assert np.array_equal(qd.random_stinespring_isometry(d, m, rng), isometry(d, m, rng_ref))
            assert rng.random() == rng_ref.random()


def test_random_density_is_a_state_drawn_real_part_first():
    rng, rng_ref = np.random.default_rng(15), np.random.default_rng(15)
    for d in (1, 2, 4):
        rho = qd.random_density(d, rng)
        assert np.linalg.eigvalsh(rho).min() > 0 and abs(np.trace(rho) - 1.0) < 1e-12
        re = rng_ref.standard_normal((d, d))
        x = re + 1j * rng_ref.standard_normal((d, d))
        g = x @ x.conj().T
        assert np.array_equal(rho, g / np.trace(g).real)


def test_haar_unitary_twirl_schur():
    # Schur orthogonality: averaging U|0><0|U^dag gives I/d
    rng = np.random.default_rng(14)
    d, n = 3, 10_000
    e0 = qd.outer(np.eye(d, dtype=complex)[:, 0])
    samples = np.stack([u @ e0 @ u.conj().T for u in qd.haar_unitaries(d, n, rng)])
    mean = samples.mean(axis=0)
    stderr = samples.real.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs((mean - np.eye(d) / d).real) <= 5 * stderr + 1e-12)


NAN = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)


def test_nan_fails_the_hermiticity_gate():
    # NaN compares False against the gate, and once passed as Hermitian:
    # the support cutoff then turned the NaN eigenvalue into 0
    for f in (qd.herm_eig, qd.mat_sqrt, qd.gen_inv_sqrt):
        with pytest.raises(NonHermitianError):
            f(NAN)
    with pytest.raises(NonHermitianError):
        qd.fidelity(NAN, np.eye(2, dtype=complex) / 2)
    with pytest.raises(NonHermitianError):
        qd.fidelity(np.eye(2, dtype=complex) / 2, NAN)


def test_each_gate_sits_at_its_threshold():
    # just outside, then just inside, each constant in infodist.config
    eye = np.eye(2, dtype=complex)
    with pytest.raises(NonHermitianError):  # HERM_GATE = 1e-8
        qd.herm_eig(np.array([[1.0, 2e-8], [0.0, 1.0]], dtype=complex))
    qd.herm_eig(np.array([[1.0, 5e-9], [0.0, 1.0]], dtype=complex))
    with pytest.raises(NotPositiveError):  # PSD_SLACK = 1e-10
        qd.mat_sqrt(np.diag([1.0, -2e-10]).astype(complex))
    qd.mat_sqrt(np.diag([1.0, -5e-11]).astype(complex))
    # SUPPORT_REL = 1e-12: the cutoff next to eigenvalue 1 in d = 2 is 2e-12
    assert qd.gen_inv_sqrt(np.diag([1.0, 1e-13]).astype(complex))[1, 1] == 0.0
    assert qd.gen_inv_sqrt(np.diag([1.0, 1e-11]).astype(complex))[1, 1] == pytest.approx(1e-11**-0.5)
    with pytest.raises(WeightError):  # WEIGHT = 1e-12
        qd.validate_distribution([0.5, 0.5 + 2e-12])
    qd.validate_distribution([0.5, 0.5 + 5e-13])
    # RECONSTRUCTION = 1e-9 on completeness
    assert not qd.povm_validate(qd.POVM(2, ((1 + 2e-9) * eye,))).passed
    assert qd.povm_validate(qd.POVM(2, ((1 + 5e-10) * eye,))).passed
    with pytest.raises(NotIsometryError):  # ALGEBRAIC = 1e-10 on |m|^2 - 1
        qd.remix([eye], np.array([[1 + 2e-10]]))
    qd.remix([eye], np.array([[1 + 2e-11]]))
