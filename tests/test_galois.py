import hashlib
import tracemalloc

import numpy as np
import pytest

import infodist as qd
from infodist import galois
from infodist.config import DESIGN, MUB_CAP
from infodist.galois import _trace_tables, is_irreducible


def test_find_irreducible_known_moduli():
    # -1 is a quadratic non-residue mod 3
    assert qd.find_irreducible(3, 2).modulus == (1, 0, 1)
    # squares mod 5 are {1, 4}; first irreducible is x^2 + 2
    assert qd.find_irreducible(5, 2).modulus == (2, 0, 1)
    # the rest of the odd prime powers <= 125, first in lexicographic order
    pinned = {(3, 3): (1, 2, 0, 1), (7, 2): (1, 0, 1), (3, 4): (2, 1, 0, 0, 1), (11, 2): (1, 0, 1), (5, 3): (1, 1, 0, 1)}
    for (p, n), modulus in pinned.items():
        assert qd.find_irreducible(p, n).modulus == modulus
    for p in range(3, 126, 2):
        if qd.is_prime(p):
            assert qd.find_irreducible(p, 1).modulus == (0, 1)


def test_is_irreducible_matches_root_test():
    # a monic polynomial of degree 2 or 3 is irreducible iff it has no root
    for p, n in ((3, 2), (3, 3), (5, 2), (5, 3), (7, 2)):
        for m in range(p**n):
            modulus = [(m // p**i) % p for i in range(n)] + [1]
            has_root = any(sum(c * x**i for i, c in enumerate(modulus)) % p == 0 for x in range(p))
            assert is_irreducible(modulus, p) == (not has_root)
    assert not is_irreducible([1, 0, 2], 3)  # not monic
    assert not is_irreducible([1], 3)  # degree zero


def test_find_irreducible_rejects():
    with pytest.raises(qd.InfodistError, match="characteristic two is not supported"):
        qd.find_irreducible(2, 3)
    with pytest.raises(qd.InfodistError, match="9 is not prime"):
        qd.find_irreducible(9, 1)
    with pytest.raises(qd.InfodistError, match="extension degree must be at least 1, got 0"):
        qd.find_irreducible(3, 0)


def _negation(spec):
    # from the coefficient digits, independently of the tables
    idx = np.arange(spec.p ** spec.n)
    return sum(((-(idx // spec.p**i)) % spec.p) * spec.p**i for i in range(spec.n))


def test_field_ring_axioms_gf9():
    spec = qd.find_irreducible(3, 2)
    els = np.arange(spec.p ** spec.n)
    assert spec.p ** spec.n == 9
    assert spec.add.shape == spec.mul.shape == (9, 9) and spec.trace.shape == (9,)
    assert (spec.add[:, 0] == els).all() and (spec.add[0, :] == els).all()
    assert (spec.mul[:, 1] == els).all() and (spec.mul[1, :] == els).all()
    assert (spec.mul[:, 0] == 0).all()
    assert (spec.add[els, _negation(spec)] == 0).all()
    assert (spec.add == spec.add.T).all() and (spec.mul == spec.mul.T).all()
    # multiplication reduces x * x = -1 = 2 for modulus x^2 + 1 (x is element 3)
    assert spec.mul[3, 3] == 2


def test_field_inverses_exhaustive_gf9():
    spec = qd.find_irreducible(3, 2)
    # every nonzero row of the product table is a permutation: inverses exist
    for a in range(1, spec.p ** spec.n):
        assert sorted(spec.mul[a].tolist()) == list(range(spec.p ** spec.n))
    assert (spec.mul[0] == 0).all()


def test_field_distributivity_exhaustive_gf25():
    spec = qd.find_irreducible(5, 2)
    lhs = spec.mul[:, spec.add]  # a * (b + c)
    rhs = spec.add[spec.mul[:, :, None], spec.mul[:, None, :]]  # a*b + a*c
    assert lhs.shape == (25, 25, 25)
    assert (lhs == rhs).all()
    # associativity of the product, exhaustively
    assert (spec.mul[spec.mul] == spec.mul[:, spec.mul]).all()


def test_field_trace():
    spec = qd.find_irreducible(3, 2)
    assert spec.trace[0] == 0
    # constants c satisfy c^3 = c in GF(9): trace is 2c mod 3
    for c in range(3):
        assert spec.trace[c] == (2 * c) % 3
    # Tr(x) = x + x^3 = x - x = 0 under x^2 + 1
    assert spec.trace[3] == 0
    # additivity over all 81 pairs
    tr = spec.trace
    assert (tr[spec.add] == (tr[:, None] + tr[None, :]) % 3).all()
    # every value of the prime field is taken equally often
    assert np.bincount(tr).tolist() == [3, 3, 3]


def test_field_tables_are_read_only():
    spec = qd.find_irreducible(5, 1)
    for table in (spec.add, spec.mul, spec.trace):
        with pytest.raises(ValueError):
            table[0] = 1


@pytest.mark.parametrize(
    "p,n,digest",
    [
        (3, 2, "8d748feacd28696bed7dbc4d416f8691ed6853f5102eee3d5aa274fd79ae1698"),
        (5, 2, "3b66f73589283afa0e1365b539805901541e8a0f50969310974f2fca8ff5035b"),
        (3, 3, "e6008ddb6da003b5d5e53d3e70fd0f99dd84b89ad7bed8efe1ca8b0dc440e658"),
        (7, 2, "20860dcd015e7f016e6fd99e28083a70a30b2164d2fb0eb792c6a34a49664c79"),
    ],
)
def test_trace_tables_pinned(p, n, digest):
    # S[k,l] = Tr(k l^2) and T[j,l] = Tr(j l) fix the unbiased-bases layout
    _, s, t = _trace_tables(p, n)
    assert hashlib.sha256(s.astype("<i8").tobytes() + t.astype("<i8").tobytes()).hexdigest() == digest


def test_odd_prime_power():
    assert qd.odd_prime_power(49) == (7, 2)
    assert qd.odd_prime_power(27) == (3, 3)
    assert qd.odd_prime_power(3) == (3, 1)
    for d in (1, 2, 4, 6, 12, 15):
        assert qd.odd_prime_power(d) is None


def test_gauss_sum_identity():
    # sum_k omega^Tr(k x) = p^n for x = 0 and vanishes otherwise
    for (p, n) in ((3, 1), (3, 2), (5, 1), (7, 1)):
        spec, _, t_table = _trace_tables(p, n)
        d = p**n
        omega = np.exp(2j * np.pi * np.arange(p) / p)
        for x in range(d):
            total = omega[t_table[:, x] % p].sum()
            expected = d if x == 0 else 0.0
            assert abs(total - expected) < 1e-9


def test_mub_construction_basics():
    mub = qd.wootters_fields_mub(3, 1)
    assert len(mub.bases) == 4
    # explicit overlap from the defining formula
    overlap = abs(np.vdot(mub.bases[0][:, 0], mub.bases[1][:, 0]))
    assert overlap == pytest.approx(1 / np.sqrt(3), abs=1e-12)
    unit, dev = qd.mub_validate(mub)
    assert unit < 1e-12 and dev < 1e-12


def test_mub_cross_overlaps_d9():
    mub = qd.wootters_fields_mub(3, 2)
    assert len(mub.bases) == 10
    unit, dev = qd.mub_validate(mub)
    assert unit < 1e-12 and dev < 1e-12


def test_mub_validate_nan_propagates():
    mub = qd.wootters_fields_mub(3, 1)
    bases = [b.copy() for b in mub.bases]
    bases[1][0, 0] = np.nan
    unit, dev = qd.mub_validate(qd.MubSet(3, tuple(bases)))
    assert np.isnan(unit) and np.isnan(dev)


def test_mub_rejects_even_prime_and_cap():
    with pytest.raises(qd.InfodistError, match="even prime unsupported"):
        qd.wootters_fields_mub(2, 1)
    assert MUB_CAP == 49
    with pytest.raises(qd.InfodistError, match="exceeds the configured cap 49"):
        qd.wootters_fields_mub(11, 2)  # 121 > the cap
    with pytest.raises(qd.InfodistError, match="9 is not prime"):
        qd.wootters_fields_mub(9, 1)
    qd.wootters_fields_mub(7, 2)  # at the cap is allowed


@pytest.mark.parametrize("p,n", [(MUB_CAP + 1, 1), (53, 1), (10**18 + 9, 1), (10**18 + 9, 10**9), (3, 10**9), (7, 3)])
def test_mub_cap_is_tested_before_primality(p, n, monkeypatch):
    monkeypatch.setattr(galois, "is_prime", lambda q: pytest.fail(f"is_prime({q}) was called"))
    with pytest.raises(qd.InfodistError, match=rf"^dimension {p}\^{n} exceeds the configured cap {MUB_CAP}$"):
        qd.wootters_fields_mub(p, n)


def test_design_operator_single_vector():
    e0 = np.array([1, 0], dtype=complex)
    out = qd.design_operator(np.array([e0]))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.abs(out - expected).max() == 0.0


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)])
def test_mub_design_matches_haar_moment(p, n):
    assert qd.mub_design_residual(qd.wootters_fields_mub(p, n)) < 1e-12


def test_design_check_mub_vs_single_basis():
    assert abs(qd.design_check(qd.wootters_fields_mub(5, 1).vectors())) < DESIGN
    # one basis alone is far from a 2-design: frame potential 1/d, so delta = (d - 1)/2
    for d in (2, 5, 49):
        assert qd.design_check(np.eye(d, dtype=complex)) == pytest.approx((d - 1) / 2, rel=1e-14)


def _mub_vectors(d):
    if d == 2:  # the eigenbases of the three Pauli matrices
        return np.array([[1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j]]) / np.sqrt([1, 1, 2, 2, 2, 2])[:, None]
    return qd.wootters_fields_mub(*qd.odd_prime_power(d)).vectors()


def _design_check_einsum(vectors):
    # the squared Frobenius distance of the einsum-built operators, scaled as design_check scales it
    d = vectors.shape[1]
    return float(np.sum(np.abs(qd.design_operator(vectors) - qd.pi_operator(d)) ** 2)) * d * (d + 1) / 2


@pytest.mark.parametrize("d,n", [(2, 3), (3, 12), (5, 7), (9, 40)])
def test_design_check_matches_einsum_reference(d, n):
    haar = qd.haar_states(d, n, np.random.default_rng(63))
    mub = _mub_vectors(d)
    # non-designs: Haar vectors, the unbiased bases less one, and unnormalised sets
    for vectors in (haar, mub[d:], 0.5 * mub, 1.3 * haar):
        assert qd.design_check(vectors) == pytest.approx(_design_check_einsum(vectors), rel=1e-12)
    assert abs(qd.design_check(mub)) < 1e-15
    assert _design_check_einsum(mub) < 1e-15


def test_design_check_nan_is_not_dropped():
    vectors = np.eye(3, dtype=complex)
    vectors[1, 1] = np.nan
    assert np.isnan(qd.design_check(vectors))


def test_design_check_rejects_empty():
    with pytest.raises(qd.InfodistError, match="need at least one vector"):
        qd.design_check(np.zeros((0, 3), dtype=complex))


def _design_check_loop(vectors):
    # design_check as a loop over the vectors, one row of the Gram matrix each
    n, d = vectors.shape
    frame = sum(float(np.sum(np.abs(vectors @ v.conj()) ** 4)) for v in vectors) / n**2
    return frame * d * (d + 1) / 2 - 2 * float(np.mean(np.linalg.norm(vectors, axis=1) ** 4)) + 1


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 2), (5, 2), (7, 2)])
def test_design_check_matches_the_loop(p, n):
    d = p**n
    mub = qd.wootters_fields_mub(p, n).vectors()
    # non-designs: Haar vectors, and the unbiased bases less the first one
    for vectors in (qd.haar_states(d, len(mub), np.random.default_rng(67)), mub[d:]):
        got = qd.design_check(vectors)
        assert got == pytest.approx(_design_check_loop(vectors), rel=1e-12)
        assert got > 1e-3
    assert abs(qd.design_check(mub) - _design_check_loop(mub)) <= 1e-14


@pytest.mark.parametrize("entries", [2**7, 2**10, 2**11])
def test_design_check_over_many_blocks(entries, monkeypatch):
    # 90 vectors in 1-, 11- or 22-row blocks; the last block is ragged at 11 and 22
    monkeypatch.setattr(galois, "_GRAM_ENTRIES", entries)
    mub = qd.wootters_fields_mub(3, 2).vectors()
    for vectors in (qd.haar_states(9, len(mub), np.random.default_rng(68)), 1.3 * mub[9:], mub):
        assert qd.design_check(vectors) == pytest.approx(_design_check_loop(vectors), rel=1e-12, abs=1e-14)
    assert abs(qd.design_check(mub)) <= 1e-14
    last_nan = mub.copy()
    last_nan[-1, -1] = np.nan
    assert np.isnan(qd.design_check(last_nan))


def test_design_check_in_one_block_is_the_full_gram_sum():
    # every vector fits in one block: the sum is the whole Gram matrix's, bit for bit
    for vectors in (qd.wootters_fields_mub(3, 2).vectors(), qd.haar_states(5, 40, np.random.default_rng(69))):
        n, d = vectors.shape
        g = vectors.conj() @ vectors.T
        frame = float(np.sum((g.real**2 + g.imag**2) ** 2)) / n**2
        norms = np.sum(vectors.real**2 + vectors.imag**2, axis=1)
        assert qd.design_check(vectors) == frame * d * (d + 1) / 2 - 2 * float(np.mean(norms**2)) + 1


def test_design_check_passes_every_mub_set():
    for d in range(3, MUB_CAP + 1):
        if qd.odd_prime_power(d) is not None:
            assert abs(qd.design_check(_mub_vectors(d))) < DESIGN, d


def _perturbed(vectors, eps=1e-7):
    rng = np.random.default_rng(74)
    return vectors + eps * (rng.standard_normal(vectors.shape) + 1j * rng.standard_normal(vectors.shape))


@pytest.mark.parametrize(
    "near,expected",
    [
        (lambda mub: mub[49:], 1.0e-2),  # less one basis
        (_perturbed, 2.0e-12),  # quadratic in a defect of 1e-7 per entry
        (lambda mub: 0.5 * mub, (15 / 16) ** 2),  # non-unit vectors: (1 - 0.5^4)^2, not a negative excess
    ],
    ids=["less-one-basis", "perturbed", "half"],
)
def test_design_check_fails_near_designs(near, expected):
    delta = qd.design_check(near(_mub_vectors(49)))
    assert delta > DESIGN
    assert delta == pytest.approx(expected, rel=0.05)


@pytest.mark.parametrize("p,n", [(3, 2), (7, 2)])
def test_design_check_ignores_memory_layout(p, n):
    # the sums must not depend on how the caller's array is laid out in memory
    vectors = qd.wootters_fields_mub(p, n).vectors()
    strided = np.zeros((2 * len(vectors), 2 * p**n), dtype=complex)[::2, ::2]
    strided[...] = vectors
    layouts = (np.ascontiguousarray(vectors), np.asfortranarray(vectors), strided)
    assert len({qd.design_check(v) for v in layouts}) == 1


def test_design_check_memory_stays_blocked():
    # the d = 49 unbiased bases (2450 vectors): their whole Gram matrix would take 96 MB
    vectors = qd.wootters_fields_mub(7, 2).vectors()
    tracemalloc.start()
    try:
        qd.design_check(vectors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6
