"""GF(p^n) arithmetic and mutually unbiased bases for odd prime powers.

Field elements are coefficient vectors over a fixed monic irreducible
modulus (constant term first). The element enumeration is lexicographic
with the constant coefficient varying fastest, i.e. element ``m`` has the
base-p digits of ``m`` as coefficients. The unbiased-bases matrix layout
depends on this order, so it is part of the interface.

In dimension d = p^n (p an odd prime) the d+1 unbiased bases supply
d(d+1) states whose uniform average reproduces every Haar average of a
degree-two polynomial in |psi><psi|: a complex projective 2-design.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import MUB_CAP
from .errors import DimMismatchError, EvenPrimeError


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    k = 2
    while k * k <= p:
        if p % k == 0:
            return False
        k += 1
    return True


def odd_prime_power(d: int) -> tuple[int, int] | None:
    """(p, n) with d = p^n and p an odd prime, or None."""
    for p in range(3, d + 1, 2):
        if not is_prime(p):
            continue
        n = 0
        m = d
        while m % p == 0:
            m //= p
            n += 1
        if m == 1 and n >= 1:
            return p, n
    return None


# -- GF(p^n) as integer tables -----------------------------------------------


@dataclass(frozen=True, eq=False)
class FieldSpec:
    """GF(p^n) presented by a monic irreducible modulus (constant first).

    ``add[a, b]``, ``mul[a, b]`` and ``trace[a]`` are read-only integer
    tables over the element indices; ``trace`` lands in the prime subfield,
    so its entries are the integers 0..p-1. The tables are dense, (p^n)^2
    entries each, which suits the dimensions the unbiased bases are built in.
    """

    p: int
    n: int
    modulus: tuple[int, ...]
    add: np.ndarray
    mul: np.ndarray
    trace: np.ndarray

    @property
    def order(self) -> int:
        return self.p**self.n


def _digits(p: int, n: int) -> np.ndarray:
    """Coefficient vectors of all p^n elements, shape (p^n, n)."""
    return (np.arange(p**n)[:, None] // p ** np.arange(n)) % p


def _mul_table(modulus: list[int], p: int) -> np.ndarray:
    """Product table of F_p[x] / (modulus) on the element indices."""
    n = len(modulus) - 1
    # x^k mod f for k = 0 .. 2n-2, as coefficient vectors
    powers = [np.eye(n, dtype=np.int64)[0]]
    for _ in range(2 * n - 2):
        top = powers[-1][-1]
        powers.append((np.concatenate(([0], powers[-1][:-1])) - top * np.asarray(modulus[:n])) % p)
    powers = np.asarray(powers)
    i = np.arange(n)
    digits = _digits(p, n)
    coeffs = np.einsum("ai,bj,ijk->abk", digits, digits, powers[i[:, None] + i[None, :]]) % p
    return coeffs @ p ** np.arange(n)


def is_irreducible(modulus: list[int], p: int) -> bool:
    """A monic modulus is irreducible iff F_p[x] / (modulus) has no zero
    divisors, i.e. no zero off the zero row and column of its product table."""
    n = len(modulus) - 1
    if n < 1 or modulus[-1] % p != 1:
        return False
    return n == 1 or bool((_mul_table(modulus, p)[1:, 1:] != 0).all())


def find_irreducible(p: int, n: int) -> FieldSpec:
    """First monic degree-n irreducible in lexicographic coefficient order
    (constant coefficient varying fastest), with its field tables.
    Deterministic."""
    if p == 2:
        raise EvenPrimeError("characteristic two is not supported")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError(f"extension degree must be at least 1, got {n}")
    digits = _digits(p, n)
    # irreducibles of every degree exist, so the search always stops
    modulus = next(m for m in (c + [1] for c in digits.tolist()) if is_irreducible(m, p))
    mul = _mul_table(modulus, p)
    add = ((digits[:, None, :] + digits[None, :, :]) % p) @ p ** np.arange(n)
    # Tr(a) = a + a^p + ... + a^(p^(n-1)), by Frobenius lookups
    elements = np.arange(p**n)
    frobenius = elements
    for _ in range(p - 1):
        frobenius = mul[frobenius, elements]
    trace = conj = elements
    for _ in range(n - 1):
        conj = frobenius[conj]
        trace = add[trace, conj]
    if (trace >= p).any():
        raise RuntimeError(f"trace left the prime subfield (bad modulus?): {modulus}")
    for table in (add, mul, trace):
        table.flags.writeable = False
    return FieldSpec(p, n, tuple(modulus), add, mul, trace)


# -- mutually unbiased bases -------------------------------------------------


@dataclass(frozen=True)
class MubSet:
    """d+1 orthonormal bases with all cross-basis overlaps of modulus
    1/sqrt(d). Basis index d is the standard basis; columns are vectors."""

    d: int
    bases: tuple[np.ndarray, ...]

    def vectors(self) -> np.ndarray:
        """All d(d+1) basis vectors stacked as rows."""
        return np.concatenate([b.T for b in self.bases], axis=0)


@lru_cache(maxsize=8)
def _trace_tables(p: int, n: int) -> tuple[FieldSpec, np.ndarray, np.ndarray]:
    """Integer tables S[k,l] = Tr(k l^2) and T[j,l] = Tr(j l)."""
    spec = find_irreducible(p, n)
    squares = spec.mul.diagonal()
    return spec, spec.trace[spec.mul[:, squares]], spec.trace[spec.mul]


def wootters_fields_mub(p: int, n: int) -> MubSet:
    """The d+1 mutually unbiased bases in dimension d = p^n, p an odd prime.

    In the standard basis, vector j of basis k has l-th component
    omega^(Tr[k l^2 + j l]) / sqrt(d) with omega = exp(2 pi i / p).
    Dimensions above ``config.MUB_CAP`` are refused.
    """
    if p == 2:
        raise EvenPrimeError("even prime unsupported: the construction needs odd characteristic")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    d = p**n
    if d > MUB_CAP:
        raise ValueError(f"dimension {d} exceeds the configured cap {MUB_CAP}")
    _, s_table, t_table = _trace_tables(p, n)
    # roots of unity from exact angles, exponents reduced mod p first
    omega = np.exp(2j * np.pi * np.arange(p) / p)
    bases = []
    for k in range(d):
        exponents = (s_table[k][:, None] + t_table.T) % p
        bases.append(omega[exponents] / np.sqrt(d))
    bases.append(np.eye(d, dtype=complex))
    return MubSet(d, tuple(bases))


def mub_validate(mub: MubSet) -> tuple[float, float]:
    """(max unitarity residual, max deviation of cross overlaps from 1/sqrt d)."""
    units = []
    overlaps = []
    root = 1.0 / np.sqrt(mub.d)
    eye = np.eye(mub.d)
    for i, b in enumerate(mub.bases):
        units.append(np.abs(b.conj().T @ b - eye).max())
        for c in mub.bases[i + 1 :]:
            overlaps.append(np.abs(np.abs(b.conj().T @ c) - root).max())
    # np.max propagates NaN; Python's max would drop it
    return float(np.max(units, initial=0.0)), float(np.max(overlaps, initial=0.0))


def pi_operator(d: int) -> np.ndarray:
    """Second moment of psi^(x2) over Haar states, a d^2 x d^2 matrix with
    entries <ij|Pi|kl> = (delta_ik delta_jl + delta_il delta_jk) / (d(d+1)),
    constructed exactly rather than integrated."""
    eye = np.eye(d)
    sym = np.einsum("ik,jl->ijkl", eye, eye) + np.einsum("il,jk->ijkl", eye, eye)
    return sym.reshape(d * d, d * d) / (d * (d + 1))


def design_operator(vectors: np.ndarray) -> np.ndarray:
    """Average of |v x v><v x v| over a list of unit vectors (rows).

    For the full set of unbiased-bases vectors this equals the Haar second
    moment ``pi_operator(d)`` exactly: the set is a 2-design.
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=complex))
    if vectors.shape[0] == 0:
        raise DimMismatchError("need at least one vector")
    w = np.einsum("ma,mb->mab", vectors, vectors).reshape(vectors.shape[0], -1)
    return (w.T @ w.conj()) / vectors.shape[0]


# design_check's blocks, in float64 entries: feature rows (2 MB), coefficient
# columns (8 MB: 109 trials at d = 49, so 100 trials build each row block's
# features once) and normal draws (0.5 MB) at a time, so its memory does not
# grow with the number of vectors or trials.
_FEATURE_FLOATS = 2**18
_COEF_FLOATS = 2**20
_DRAW_FLOATS = 2**16


def _features(columns: np.ndarray) -> np.ndarray:
    """Real features f(v) = [|v_i|^2; Re(conj v_i v_j); Im(conj v_i v_j)], i < j in
    row-major order, of the vectors stored as the columns of ``columns`` (d, r):
    a (d^2, r) array with f(v) . c(M) = v†Mv (see ``_coefficients``)."""
    d, r = columns.shape
    half = d * (d - 1) // 2
    f = np.empty((d * d, r))
    np.add(columns.real**2, columns.imag**2, out=f[:d])
    row = d
    for i in range(d - 1):
        w = columns[i].conj() * columns[i + 1 :]
        f[row : row + d - 1 - i] = w.real
        f[half + row : half + row + d - 1 - i] = w.imag
        row += d - 1 - i
    return f


def _coefficients(m: np.ndarray) -> np.ndarray:
    """c(M) = [M_ii; M_ij + M_ji; i(M_ij - M_ji)], i < j in row-major order,
    for a stack of d x d matrices M (..., d, d): the (..., d^2) complex
    coefficients with f(v) . c(M) = v†Mv (see ``_features``)."""
    i, j = np.triu_indices(m.shape[-1], 1)
    upper, lower = m[..., i, j], m[..., j, i]
    return np.concatenate([np.diagonal(m, axis1=-2, axis2=-1), upper + lower, 1j * (upper - lower)], axis=-1)


def _functionals(k: int, d: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw k trials of (A, B). Returns the (d^2, 4k) real coefficients, the
    float view of the complex (d^2, k, 2) array of c(A), c(B) per trial, and
    the k Haar values (tr A tr B + tr AB) / (d (d + 1))."""
    coef = np.empty((d * d, k, 2), dtype=complex)
    exact = np.empty(k, dtype=complex)
    step = max(1, _DRAW_FLOATS // (4 * d**2))
    for t in range(0, k, step):
        x = rng.standard_normal((min(step, k - t), 2, 2, d, d))
        m = x[:, :, 0] + 1j * x[:, :, 1]  # (trials, A/B, d, d)
        a, b = m[:, 0], m[:, 1]
        tr_a, tr_b = np.trace(a, axis1=1, axis2=2), np.trace(b, axis1=1, axis2=2)
        exact[t : t + len(x)] = (tr_a * tr_b + np.einsum("kij,kji->k", a, b)) / (d * (d + 1))
        coef[:, t : t + len(x)] = _coefficients(m).transpose(2, 0, 1)
    return coef.view(float).reshape(d * d, 4 * k), exact


def _deviations(vectors: np.ndarray, coef: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """|mean over the vectors of v†Av v†Bv - exact| for each trial of ``_functionals``."""
    n, d = vectors.shape
    rows = max(1, _FEATURE_FLOATS // d**2)
    total = np.zeros(len(exact), dtype=complex)
    for lo in range(0, n, rows):
        # a contiguous copy: every memory layout of the input then runs the same
        # numpy loops (SIMD or strided), so the result does not depend on it
        columns = np.ascontiguousarray(vectors[lo : lo + rows].T)
        forms = (_features(columns).T @ coef).view(complex).reshape(-1, len(exact), 2)  # v†Av, v†Bv
        total += np.sum(forms[..., 0] * forms[..., 1], axis=0)
    return np.abs(total / n - exact)


def design_check(vectors: np.ndarray, trials: int, rng: np.random.Generator) -> float:
    """Max deviation of the discrete average of tr(pi A) tr(pi B) from the
    Haar value, over ``trials >= 1`` random operator pairs. Near zero iff
    the vectors form a projective 2-design; NaN if any deviation is NaN.

    Draw order, part of the result for a given seed: trial by trial, Re A,
    Im A, Re B, Im B, each d x d standard normals in row-major order, as
    four ``rng.standard_normal((d, d))`` calls per trial would draw them;
    the draws come in chunks of whole trials and leave the generator in the
    same state. The quadratic forms v†Av, v†Bv of a block of vectors and a
    block of trials are one real matrix product f(v) . c(M).
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=complex))
    d = vectors.shape[1]
    block = max(1, _COEF_FLOATS // (4 * d**2))
    # one call pair per block of trials, so each block's arrays are freed before the next is drawn
    deviations = [
        _deviations(vectors, *_functionals(min(block, trials - first), d, rng)) for first in range(0, trials, block)
    ]
    return float(np.max(np.concatenate(deviations)))


def mub_design_residual(mub: MubSet) -> float:
    """Max-entry distance between the design operator of the unbiased-bases
    vectors and the exact Haar second moment."""
    return float(np.abs(design_operator(mub.vectors()) - pi_operator(mub.d)).max())
