"""GF(p^n) arithmetic and mutually unbiased bases for odd prime powers.

Field elements are coefficient vectors over a fixed monic irreducible
modulus (constant term first). The element enumeration is lexicographic
with the constant coefficient varying fastest, i.e. element ``m`` has the
base-p digits of ``m`` as coefficients. The unbiased-bases matrix layout
depends on this order, so it is part of the interface.

In dimension d = p^n (p an odd prime) the d+1 unbiased bases supply
d(d+1) states whose uniform average reproduces every Haar average of a
degree-two polynomial in |psi><psi|: a complex projective 2-design.
``design_check`` tells how far any vector set is from one, exactly and
with no sampling: the squared Frobenius distance of its second moment from
the Haar one, from the Gram matrix of the vectors.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .config import MUB_CAP
from .errors import InfodistError


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


class FieldSpec(NamedTuple):
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

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__  # by identity: tables do not hash


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
        raise InfodistError("characteristic two is not supported")
    if not is_prime(p):
        raise InfodistError(f"{p} is not prime")
    if n < 1:
        raise InfodistError(f"extension degree must be at least 1, got {n}")
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


class MubSet(NamedTuple):
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
    Dimensions above ``config.MUB_CAP`` are refused before p is tested for
    primality, and no power beyond the cap is formed.
    """
    if p == 2:
        raise InfodistError("even prime unsupported: the construction needs odd characteristic")
    if p > 2 and (p > MUB_CAP or n > MUB_CAP.bit_length() or p**n > MUB_CAP):
        raise InfodistError(f"dimension {p}^{n} exceeds the configured cap {MUB_CAP}")
    _, s_table, t_table = _trace_tables(p, n)  # refuses a p that is not prime and an n below 1
    d = p**n
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
        raise InfodistError("need at least one vector")
    w = np.einsum("ma,mb->mab", vectors, vectors).reshape(vectors.shape[0], -1)
    return (w.T @ w.conj()) / vectors.shape[0]


# rows of the Gram matrix that design_check holds at once, in complex entries
# (2 MB), so its memory does not grow with the square of the number of vectors
_GRAM_ENTRIES = 2**17


def design_check(vectors: np.ndarray) -> float:
    """delta = ||D - Pi||_F^2 d(d+1)/2 for the rows v of ``vectors``, with D
    their ``design_operator`` and Pi the Haar ``pi_operator``. By the frame
    potential FP = mean over pairs of |<v_i|v_j>|^4 (Renes, Blume-Kohout,
    Scott & Caves, J. Math. Phys. 45, 2171, 2004) it is
    FP d(d+1)/2 - 2 mean ||v||^4 + 1: zero iff the vectors form a projective
    2-design, a squared norm for any vectors, NaN if any input is NaN. A
    contiguous copy makes the bits independent of the input's memory layout.

    |<v_i|v_j>|^4 is symmetric, so only the upper block triangle of the Gram
    matrix is formed: block row [lo, lo + rows) against columns [lo, n),
    its square diagonal block counted once and the rest twice.
    """
    vectors = np.atleast_2d(np.ascontiguousarray(vectors, dtype=complex))
    n, d = vectors.shape
    if n == 0:
        raise InfodistError("need at least one vector")
    rows = max(1, _GRAM_ENTRIES // n)
    sums = []
    for lo in range(0, n, rows):
        g = vectors[lo : lo + rows].conj() @ vectors[lo:].T
        t = g.real**2
        t += g.imag**2
        t *= t
        sums += [float(np.sum(t[:, :rows])), 2 * float(np.sum(t[:, rows:]))]
    frame = math.fsum(sums) / n**2
    norms = np.sum(vectors.real**2 + vectors.imag**2, axis=1)
    return frame * d * (d + 1) / 2 - 2 * float(np.mean(norms**2)) + 1


def mub_design_residual(mub: MubSet) -> float:
    """Max-entry distance between the design operator of the unbiased-bases
    vectors and the exact Haar second moment."""
    return float(np.abs(design_operator(mub.vectors()) - pi_operator(mub.d)).max())
