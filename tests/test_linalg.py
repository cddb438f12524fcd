import numpy as np
import pytest

import infodist as qd
from infodist import linalg, serialize
from infodist.cli import main
from infodist.config import BLOCK_ENTRIES

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
    with pytest.raises(qd.InfodistError, match="expected a square matrix"):
        qd.herm_eig(np.zeros((2, 3), dtype=complex))
    with pytest.raises(qd.InfodistError, match="is not Hermitian"):
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
    with pytest.raises(qd.InfodistError, match="positive semidefinite"):
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
    with pytest.raises(qd.InfodistError, match="is not Hermitian"):
        qd.gen_inv_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
    with pytest.raises(qd.InfodistError, match="positive semidefinite"):
        qd.gen_inv_sqrt(np.diag([1.0, -1.0]).astype(complex))
    with pytest.raises(qd.InfodistError, match="expected a square matrix"):
        qd.gen_inv_sqrt(np.zeros((2, 3), dtype=complex))


def test_haar_state_normalized_and_d1():
    rng = np.random.default_rng(9)
    psi = qd.haar_states(1, 1, rng)[0]
    assert abs(abs(psi[0]) - 1.0) < 1e-12
    batch = qd.haar_states(6, 100, rng)
    assert np.abs(np.linalg.norm(batch, axis=1) - 1.0).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_haar_states_bit_identical_to_the_one_shot_draw(d):
    # the form before the row-block normalisation: below one block, and over three and a ragged part
    rows = BLOCK_ENTRIES // d
    for n in (rows - 1, 3 * rows + 5):
        rng = np.random.default_rng(n)
        z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        expected = z / np.linalg.norm(z, axis=1, keepdims=True)
        got = qd.haar_states(d, n, np.random.default_rng(n))
        assert got.shape == (n, d) and np.array_equal(got.view(np.int64), expected.view(np.int64)), n


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_form_scores_are_the_quadratic_forms_of_the_draws(d):
    # Re z†Mz of general complex M, and Im z†Mz as the real part for -iM, over three blocks and a ragged
    # part of unnormalised draws; each form is a sum of d^2 terms of size |z|^2 |M|
    rng = np.random.default_rng(80 + d)
    mats = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
    n = 3 * (BLOCK_ENTRIES // d**2) + 7
    planes = linalg.gaussian_planes(d, n, rng)
    z = planes[0] + 1j * planes[1]
    forms = linalg.form_scores(np.concatenate([mats, -1j * mats]), planes, lambda q: q)
    exact = np.einsum("nd,kde,ne->kn", z.conj(), mats, z)
    bound = 1e-15 * d**2 * np.abs(mats).max() * np.einsum("nd,nd->n", z.conj(), z).real
    assert forms.shape == (6, n)
    assert np.all(np.abs(forms - np.concatenate([exact.real, exact.imag])) <= bound)


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


def _assert_rephased_qr(q, z):
    """Q is the Q of z's QR decomposition whose R has a positive real diagonal, for each matrix of
    the stacks q and z. LAPACK's QR, rephased by the diagonal of its R, is the reference oracle."""
    eye = np.eye(q.shape[-1])
    assert np.abs(q.conj().swapaxes(-1, -2) @ q - eye).max(initial=0.0) <= 1e-14
    r = q.conj().swapaxes(-1, -2) @ z
    band = 1e-12 * np.linalg.norm(z, axis=(-2, -1))[..., None, None]
    assert np.all(np.abs(np.tril(r, -1)) <= band)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    assert np.all(diag.real > 0) and np.all(np.abs(diag.imag) <= band[..., 0])
    lq, lr = np.linalg.qr(z)
    ld = np.diagonal(lr, axis1=-2, axis2=-1)
    assert np.abs(q - lq * (ld / np.abs(ld))[..., None, :]).max(initial=0.0) <= 1e-12


def test_haar_unitaries_batch_equals_one_at_a_time():
    for d in (1, 2, 3, 5, 10):
        for n in (0, 1, 4, 9):
            rng, rng_one, rng_draws = (np.random.default_rng(d * 100 + n) for _ in range(3))
            batch = qd.haar_unitaries(d, n, rng)
            assert batch.shape == (n, d, d)
            assert np.array_equal(batch, np.array([qd.haar_unitaries(d, 1, rng_one)[0] for _ in range(n)]).reshape(n, d, d))
            rng_draws.standard_normal((n, 2, d, d))  # the draws alone, real part then imaginary part
            assert rng.bit_generator.state == rng_one.bit_generator.state == rng_draws.bit_generator.state


@pytest.mark.parametrize("d", [1, 2, 3, 4, 10, 49])
def test_haar_unitaries_are_the_rephased_qr_of_their_draws(d):
    n = 20 if d == 49 else 200
    rng, rng_ref = np.random.default_rng(d), np.random.default_rng(d)
    q = qd.haar_unitaries(d, n, rng)
    g = rng_ref.standard_normal((n, 2, d, d))
    _assert_rephased_qr(q, g[:, 0] + 1j * g[:, 1])
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_stinespring_isometry_is_the_rephased_qr_of_its_draws():
    for d in (1, 2, 3, 5):
        for k in (1, 2, 4):
            rng, rng_ref = np.random.default_rng(d * 10 + k), np.random.default_rng(d * 10 + k)
            m = qd.random_stinespring_isometry(d, k, rng)
            assert m.shape == (k * d, d)
            _assert_rephased_qr(m, rng_ref.standard_normal((k * d, d)) + 1j * rng_ref.standard_normal((k * d, d)))
            assert rng.bit_generator.state == rng_ref.bit_generator.state


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
        with pytest.raises(qd.InfodistError, match="is not Hermitian"):
            f(NAN)


def test_nan_weight_fails_the_distribution_gate():
    # NaN compared False against both tests and passed as a distribution
    for weights in ([np.nan, 1.0], [0.5, np.nan], [np.nan, np.nan]):
        with pytest.raises(qd.InfodistError, match="nonnegative and sum to 1"):
            qd.validate_distribution(weights)
    basis = qd.basis_povm(2)
    with pytest.raises(qd.InfodistError, match="nonnegative and sum to 1"):
        qd.convex_mix([(basis, qd.sqrt_instrument(basis))] * 2, [np.nan, 1.0])
    e0, e1 = np.eye(2, dtype=complex)
    with pytest.raises(qd.InfodistError, match="nonnegative and sum to 1"):  # returned a silent NaN
        qd.info_finite_ensemble(basis, [(e0, np.nan), (e1, 1.0)])


def test_each_gate_sits_at_its_threshold(tmp_path):
    # just outside, then just inside, each constant in infodist.config
    eye = np.eye(2, dtype=complex)
    with pytest.raises(qd.InfodistError, match="is not Hermitian"):  # HERM_GATE = 1e-8
        qd.herm_eig(np.array([[1.0, 2e-8], [0.0, 1.0]], dtype=complex))
    qd.herm_eig(np.array([[1.0, 5e-9], [0.0, 1.0]], dtype=complex))
    with pytest.raises(qd.InfodistError, match="positive semidefinite"):  # PSD_SLACK = 1e-10
        qd.mat_sqrt(np.diag([1.0, -2e-10]).astype(complex))
    qd.mat_sqrt(np.diag([1.0, -5e-11]).astype(complex))
    # SUPPORT_REL = 1e-12: the cutoff next to eigenvalue 1 in d = 2 is 2e-12
    assert qd.gen_inv_sqrt(np.diag([1.0, 1e-13]).astype(complex))[1, 1] == 0.0
    assert qd.gen_inv_sqrt(np.diag([1.0, 1e-11]).astype(complex))[1, 1] == pytest.approx(1e-11**-0.5)
    with pytest.raises(qd.InfodistError, match="nonnegative and sum to 1"):  # WEIGHT = 1e-12
        qd.validate_distribution([0.5, 0.5 + 2e-12])
    qd.validate_distribution([0.5, 0.5 + 5e-13])
    # RECONSTRUCTION = 1e-9 on completeness
    assert not qd.povm_validate(qd.POVM(2, ((1 + 2e-9) * eye,))).passed
    assert qd.povm_validate(qd.POVM(2, ((1 + 5e-10) * eye,))).passed
    with pytest.raises(qd.InfodistError, match="trace-preserving channel"):  # ALGEBRAIC = 1e-10 on the isometry's |m|^2 - 1
        qd.entfid_bound_check(qd.basis_povm(2), np.sqrt(1 + 2e-10) * eye)
    qd.entfid_bound_check(qd.basis_povm(2), np.sqrt(1 + 5e-11) * eye)
    # DESIGN = 1e-13 in design-check: unbiased bases scaled by s have delta = (1 - s^4)^2
    for delta, code in ((2e-13, 1), (5e-14, 0)):
        scale = (1 - np.sqrt(delta)) ** 0.25
        bases = tmp_path / f"scaled{code}.json"
        bases.write_text(serialize.dumps([serialize.matrix_to_json(scale * b) for b in qd.wootters_fields_mub(3, 1).bases]))
        assert main(["design-check", "--in", str(bases)]) == code


_SAMPLERS = {
    "info_uniform_mc": lambda n, rng: qd.info_uniform_mc(qd.basis_povm(2), n, rng),
    "avg_fidelity_mc": lambda n, rng: qd.avg_fidelity_mc(qd.sqrt_instrument(qd.basis_povm(2)), n, rng),
    "twirl_channel": lambda n, rng: qd.twirl_channel(qd.basis_povm(2), np.eye(2) / 2, n, rng),
}


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("name", sorted(_SAMPLERS))
def test_fewer_than_two_samples_raise(name, n):
    # a standard error needs two samples; one would give NaN with a RuntimeWarning, none a NaN mean
    with pytest.raises(ValueError, match="samples"):
        _SAMPLERS[name](n, np.random.default_rng(0))
