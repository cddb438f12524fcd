"""Dense complex linear algebra primitives.

Hermitian eigendecomposition with a fixed phase convention, operator square
roots with support truncation, Uhlmann fidelity and Haar sampling.
Everything works on plain complex numpy arrays and takes an explicit
``numpy.random.Generator`` where randomness is involved, so results are
reproducible bit for bit from a seed.
"""

from __future__ import annotations

import numpy as np

from .config import HERM_GATE, PSD_SLACK, RECONSTRUCTION, SUPPORT_REL, WEIGHT
from .errors import DimMismatchError, NonHermitianError, NonSquareError, NotPositiveError, WeightError


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def require_square(a: np.ndarray) -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
    return a.shape[0]


def _gated_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of (H + H†)/2, after rejecting asymmetry beyond ``HERM_GATE``."""
    require_square(h)
    asym = np.abs(h - dagger(h)).max() if h.size else 0.0
    if not asym <= HERM_GATE:  # a NaN entry fails too
        raise NonHermitianError(f"matrix is not Hermitian: max |H - H^dag| = {asym:.3e}")
    return np.linalg.eigh((h + dagger(h)) / 2)


def herm_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix with reproducible output.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and eigenvector
    columns ``v`` phase-fixed so that the largest-magnitude entry of each
    column is real and positive. The input is symmetrized as (H + H†)/2
    first; asymmetry beyond ``config.HERM_GATE`` is an error.
    """
    w, v = _gated_eigh(h)
    if v.size:
        lead = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
        mag = np.hypot(lead.real, lead.imag)  # bit-equal to abs() of one entry; np.abs is not
        v *= np.where(mag > 0, mag, 1.0) / np.where(mag > 0, lead, 1.0)
    return w, v


def _psd_support(w: np.ndarray) -> np.ndarray:
    """Null-space cleanup of the ascending spectrum of a PSD matrix.

    Eigenvalues below -PSD_SLACK raise NotPositiveError. Eigenvalues below
    the support cutoff d * max(w) * SUPPORT_REL are zeroed, which
    keeps square roots of rank-deficient operators free of sqrt(eps) noise.
    """
    if w.size and w[0] < -PSD_SLACK:
        raise NotPositiveError(f"matrix is not positive semidefinite: min eigenvalue {w[0]:.3e}")
    cutoff = max(0.0, len(w) * (w[-1] if w.size else 0.0) * SUPPORT_REL)
    return np.where(w > cutoff, w, 0.0)


def _psd_spectrum(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phase-fixed eigendecomposition of a PSD matrix with null-space cleanup."""
    w, v = herm_eig(p)
    return _psd_support(w), v


def mat_sqrt(p: np.ndarray) -> np.ndarray:
    """Positive square root of a positive semidefinite matrix."""
    w, v = _psd_spectrum(p)
    return (v * np.sqrt(w)) @ dagger(v)


def gen_inv_sqrt(p: np.ndarray) -> np.ndarray:
    """Square root of the generalized (Moore-Penrose) inverse of a PSD matrix.

    Inverse square root on the support, zero on the null space. The column
    phases of V cancel in V f(w) V†, so this skips herm_eig's phase fix.
    """
    w, v = _gated_eigh(p)
    w = _psd_support(w)
    inv = np.where(w > 0, 1.0 / np.sqrt(np.where(w > 0, w, 1.0)), 0.0)
    return (v * inv) @ dagger(v)


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Equals <psi|sigma|psi> when rho is the pure state |psi><psi|. The second
    argument may be trace-deficient (for conditional branch outputs), in
    which case the value is bounded by its trace rather than by one.
    """
    if rho.shape != sigma.shape:
        raise DimMismatchError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    root = mat_sqrt(rho)
    val = float(np.sum(np.sqrt(_psd_spectrum(root @ sigma @ root)[0])) ** 2)
    return min(val, 1.0) if val <= 1.0 + RECONSTRUCTION else val


def haar_states(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` independent Haar-random pure states, shape (n, d)."""
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _rephased_qr(z: np.ndarray) -> np.ndarray:
    """Q of the QR decomposition of each matrix in ``z``, its columns rephased
    by the diagonal of R. For Ginibre ``z`` this is Haar; plain QR is not."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def haar_unitaries(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` independent Haar unitaries, shape (n, d, d), from complex Ginibre
    matrices (each draws its real, then its imaginary part)."""
    g = rng.standard_normal((n, 2, d, d))
    return _rephased_qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2))


def random_stinespring_isometry(d: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Random (k*d, d) isometry; its d x d blocks form a random channel."""
    return _rephased_qr(rng.standard_normal((k * d, d)) + 1j * rng.standard_normal((k * d, d)))


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density operator X X† / tr(X X†), X complex Ginibre
    (real part drawn before the imaginary part)."""
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    g = x @ dagger(x)
    return g / np.trace(g).real


def outer(psi: np.ndarray, phi: np.ndarray | None = None) -> np.ndarray:
    """|psi><phi| (|psi><psi| when phi is omitted)."""
    if phi is None:
        phi = psi
    return np.outer(psi, phi.conj())


def validate_distribution(weights) -> np.ndarray:
    """The weights as a float array, if they are nonnegative and sum to one
    within ``config.WEIGHT``; WeightError otherwise."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0) or abs(w.sum() - 1.0) > WEIGHT:
        raise WeightError(f"weights must be nonnegative and sum to 1, got sum {float(w.sum())!r}")
    return w
