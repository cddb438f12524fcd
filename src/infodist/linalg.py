"""Dense complex linear algebra primitives.

Hermitian eigendecomposition with a fixed phase convention, operator square
roots with support truncation, Haar sampling and the standard error of a
sample mean. Haar unitaries and random isometries share one Ginibre-QR
kernel: Gram-Schmidt, run twice, on a batch-last (m, d, n) stack. Monte
Carlo states are scored straight from their Gaussian draws by one kernel,
``form_scores``: every quadratic form z†Mz of a block of states in one real
matrix product, with no state normalised. Everything takes an explicit
``numpy.random.Generator`` where randomness is involved, so results are
reproducible bit for bit from a seed.
"""

from __future__ import annotations

import numpy as np

from .config import BLOCK_ENTRIES, HERM_GATE, PSD_SLACK, SUPPORT_REL, WEIGHT
from .errors import InfodistError


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def require_square(a: np.ndarray) -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InfodistError(f"expected a square matrix, got shape {a.shape}")
    return a.shape[0]


def _gated_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of (H + H†)/2, after rejecting asymmetry beyond ``HERM_GATE``."""
    require_square(h)
    asym = np.abs(h - dagger(h)).max() if h.size else 0.0
    if not asym <= HERM_GATE:  # a NaN entry fails too
        raise InfodistError(f"matrix is not Hermitian: max |H - H^dag| = {asym:.3e}")
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

    Eigenvalues below -PSD_SLACK raise InfodistError. Eigenvalues below
    the support cutoff d * max(w) * SUPPORT_REL are zeroed, which
    keeps square roots of rank-deficient operators free of sqrt(eps) noise.
    """
    if w.size and w[0] < -PSD_SLACK:
        raise InfodistError(f"matrix is not positive semidefinite: min eigenvalue {w[0]:.3e}")
    cutoff = max(0.0, len(w) * (w[-1] if w.size else 0.0) * SUPPORT_REL)
    return np.where(w > cutoff, w, 0.0)


def mat_sqrt(p: np.ndarray) -> np.ndarray:
    """Positive square root of a positive semidefinite matrix."""
    w, v = herm_eig(p)
    return (v * np.sqrt(_psd_support(w))) @ dagger(v)


def gen_inv_sqrt(p: np.ndarray) -> np.ndarray:
    """Square root of the generalized (Moore-Penrose) inverse of a PSD matrix.

    Inverse square root on the support, zero on the null space. The column
    phases of V cancel in V f(w) V†, so this skips herm_eig's phase fix.
    """
    w, v = _gated_eigh(p)
    w = _psd_support(w)
    inv = np.where(w > 0, 1.0 / np.sqrt(np.where(w > 0, w, 1.0)), 0.0)
    return (v * inv) @ dagger(v)


def gaussian_planes(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """(x, y), shape (2, n, d), of n standard complex Gaussian z = x + iy in C^d, all real parts
    drawn first; each z/|z| is a Haar-random state. The one draw of the Monte Carlo states."""
    return rng.standard_normal((2, n, d))


def haar_states(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` independent Haar-random pure states, shape (n, d): the ``gaussian_planes`` draw with
    each row normalised."""
    z = np.empty((n, d), complex)
    z.real, z.imag = gaussian_planes(d, n, rng)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z


def form_scores(mats: np.ndarray, planes: np.ndarray, score) -> np.ndarray:
    """``score`` of the forms q[b, s] = Re z_s† M_b z_s of the (k, d, d) ``mats`` on the unnormalised
    states z_s = x_s + i y_s of ``planes`` = (x, y), shape (2, n, d), BLOCK_ENTRIES // d^2 states at a
    time: ``score`` maps a block's (k, m) forms, which it may overwrite, to an (..., m) array.
    With H = (M + M†)/2, Re z†Mz = z†Hz = sum_ij (Re H + Im H)_ij Q_ij on the d^2 real coordinates
    Q_ij = Re(z̄_i z_j) - Im(z̄_i z_j) = u_i x_j + v_i y_j of zz† (u = x + y, v = y - x), batch-last,
    so a block's forms are one real (k, d^2) x (d^2, m) product. Im z†Mz is Re z†(-iM)z."""
    h = (mats + mats.conj().transpose(0, 2, 1)) / 2
    k, n, d = len(h), planes.shape[1], planes.shape[2]
    w, rows = (h.real + h.imag).reshape(k, d * d), max(1, BLOCK_ENTRIES // d**2)
    # work arrays shared by the blocks: temporaries this size made per block are fresh pages each time
    xy_buf, uv_buf, q_buf, f_buf = (np.empty(size * rows) for size in (2 * d, 2 * d, d * d, k))
    scores = None
    for lo in range(0, max(1, n), rows):  # one empty block for no states
        m = min(rows, n - lo)
        xy, uv = xy_buf[: 2 * d * m].reshape(2, d, m), uv_buf[: 2 * d * m].reshape(2, d, m)
        np.copyto(xy, planes[:, lo : lo + m].transpose(0, 2, 1))
        np.add(xy[0], xy[1], out=uv[0])
        np.subtract(xy[1], xy[0], out=uv[1])
        q = np.einsum("sim,sjm->ijm", uv, xy, out=q_buf[: d * d * m].reshape(d, d, m))
        block = score(np.matmul(w, q.reshape(d * d, m), out=f_buf[: k * m].reshape(k, m)))
        scores = np.empty((*block.shape[:-1], n)) if scores is None else scores
        scores[..., lo : lo + m] = block
    return scores


def _orthonormal_columns(z: np.ndarray) -> np.ndarray:
    """Q, with a positive real diagonal of R, of the QR decomposition of each (m, d) matrix in the
    batch-last stack ``z``, shape (m, d, n), written over ``z``; Haar for Ginibre ``z`` (Mezzadri,
    Notices AMS 54, 592, 2007). Classical Gram-Schmidt twice per column keeps Q unitary to rounding
    (Giraud, Langou & Rozloznik, Comput. Math. Appl. 50, 1069, 2005)."""
    for j, v in enumerate(z.transpose(1, 0, 2)):  # v = z[:, j], each einsum runs over the batch axis
        for _ in range(2 if j else 0):
            v -= np.einsum("mjn,jn->mn", z[:, :j], np.einsum("mjn,mn->jn", z[:, :j].conj(), v))
        v /= np.sqrt(np.einsum("mn,mn->n", v.real, v.real) + np.einsum("mn,mn->n", v.imag, v.imag))
    return z


def haar_unitaries(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` independent Haar unitaries, shape (n, d, d), from complex Ginibre matrices (each draws
    its real, then its imaginary part); a transposed view of a contiguous (d, d, n) array."""
    g = rng.standard_normal((n, 2, d, d)).transpose(1, 2, 3, 0)
    z = np.empty((d, d, n), complex)
    z.real, z.imag = g[0], g[1]
    return _orthonormal_columns(z).transpose(2, 0, 1)


def random_stinespring_isometry(d: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Random (k*d, d) isometry; its d x d blocks form a random channel."""
    z = rng.standard_normal((k * d, d)) + 1j * rng.standard_normal((k * d, d))
    return _orthonormal_columns(z[..., None])[..., 0]


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density operator X X† / tr(X X†), X complex Ginibre
    (real part drawn before the imaginary part)."""
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    g = x @ dagger(x)
    return g / np.trace(g).real


def outer(psi: np.ndarray) -> np.ndarray:
    """|psi><psi|."""
    return np.outer(psi, psi.conj())


def validate_distribution(weights) -> np.ndarray:
    """The weights as a float array, if they are nonnegative and sum to one
    within ``config.WEIGHT``; InfodistError otherwise."""
    w = np.asarray(weights, dtype=float)
    if not (np.all(w >= 0) and abs(w.sum() - 1.0) <= WEIGHT):  # a NaN weight fails too
        raise InfodistError(f"weights must be nonnegative and sum to 1, got sum {float(w.sum())!r}")
    return w


def mean_stderr(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean of the n samples ``x`` along the first axis and its standard
    error std(ddof=1) / sqrt(n); ValueError unless n >= 2."""
    n = len(x)
    if n < 2:
        raise ValueError("need at least two samples for a standard error")
    return x.mean(axis=0), x.std(axis=0, ddof=1) / np.sqrt(n)
