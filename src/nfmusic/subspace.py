"""Sample covariance, sliding-subarray snapshot augmentation, and the signal
and noise subspaces of a covariance.

The signal subspace comes from a diagonally pivoted Cholesky factor, written
in numpy after LAPACK's ``zpstrf``: it stops at the numerical rank, which is
at most the snapshot count, so below full rank it never forms an M x M factor.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .signal import SnapshotBlock

HERMITIAN_RTOL = 1e-10


@dataclass(frozen=True)
class NoiseSubspace:
    """Orthonormal bases of the noise subspace and of its complement.

    ``signal`` is M x K for K sources and spans the eigenvectors of the K
    largest eigenvalues of the covariance; ``matrix`` is M x (M - K) and is an
    orthonormal basis of its orthogonal complement, the noise subspace,
    computed on first access.  The columns are bases, not eigenvectors in
    eigenvalue order.  When the covariance has rank n < K, ``signal`` holds its
    range and K - n further orthonormal columns.  The spectra read only
    ``signal``, because ``||U_n^H a||**2 = ||a||**2 - ||U_s^H a||**2`` costs K
    projections, not M - K.
    """

    signal: np.ndarray

    @property
    def dim(self) -> int:
        return self.signal.shape[0]

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        k = self.signal.shape[1]
        return np.linalg.svd(self.signal, full_matrices=True)[0][:, k:]


def sample_covariance(snapshots) -> np.ndarray:
    """Hermitian M x M average of outer products (1/L) sum_l q_l q_l^H.

    Args:
        snapshots: Sequence of length-M vectors, or an (L, M) array with one
            snapshot per row.
    """
    x = np.atleast_2d(np.asarray(snapshots, dtype=complex))
    if x.size == 0:
        raise ValueError("at least one snapshot required")
    r = x.T @ x.conj()
    # numpy divides by L + 0j as a product with 1 / L, so scaling the float
    # view by 1 / L gives the same bits, up to the sign of an exact zero
    parts = r.view(np.float64)
    parts *= 1.0 / x.shape[0]
    h = np.conjugate(r.T, order="C")
    h += r
    h *= 0.5
    return h


def extract_subarrays(q_matrix: np.ndarray, c_r: int) -> np.ndarray:
    """Vectorize every shifted square subarray of a received-signal matrix.

    Args:
        q_matrix: (..., s, s) stack of per-element sample matrices, entry
            (n, m) of each being the element in row n, column m of the planar
            array.
        c_r: Shift budget; the subarray side is N_d = s - c_r and there are
            T**2 = (c_r + 1)**2 subarrays.

    Returns:
        (..., T**2, N_d**2) array; row index runs over (t_x, t_y) with t_y
        fastest, and each row is the subarray flattened row-major.
    """
    q_matrix = np.asarray(q_matrix)
    if q_matrix.ndim < 2 or q_matrix.shape[-2] != q_matrix.shape[-1]:
        raise ValueError("expected square per-element sample matrices")
    side = q_matrix.shape[-1]
    if c_r < 0 or c_r >= side:
        raise ValueError(f"c_r must lie in [0, {side - 1}], got {c_r}")
    n_d = side - c_r
    windows = np.lib.stride_tricks.sliding_window_view(q_matrix, (n_d, n_d), axis=(-2, -1))
    return windows.reshape(*q_matrix.shape[:-2], (c_r + 1) ** 2, n_d * n_d)


def smoothed_covariance(block: SnapshotBlock, c_r: int) -> np.ndarray:
    """Sample covariance over all L * T**2 subarray snapshots of a block,
    stacked pilot by pilot."""
    n = block.n_antennas
    side = math.isqrt(n)
    if side * side != n:
        raise ValueError("snapshot length must be a perfect square")
    subs = extract_subarrays(block.received.T.reshape(-1, side, side), c_r)
    return sample_covariance(subs.reshape(-1, subs.shape[-1]))


def _checked_hermitian(r) -> tuple[np.ndarray, float]:
    """``r`` as a square array and its Frobenius norm; rejects inputs whose
    Hermitian defect exceeds ``HERMITIAN_RTOL`` relative to that norm."""
    m = np.asarray(r)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    scale = np.linalg.norm(m)
    defect = np.conjugate(m.T, order="C")
    defect -= m
    if scale > 0 and np.linalg.norm(defect) > HERMITIAN_RTOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return m, scale


def hermitian_eig(r) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending; rejects
    input as ``_checked_hermitian`` does."""
    m, _ = _checked_hermitian(r)
    return np.linalg.eigh(0.5 * (m + m.conj().T))


def _pivoted_cholesky(h: np.ndarray) -> np.ndarray:
    """M x n factor F with F F^H = h for a Hermitian positive semidefinite h,
    n its numerical rank.

    Step j pivots on the first index of the largest remaining diagonal, as
    LAPACK's ``zpstrf`` does, and stops once that diagonal is at most LAPACK's
    default tolerance M * eps * max(diag(h)), with eps = 2**-53.  The remaining
    diagonal is diag(h) minus the accumulated squared moduli of the columns so
    far, and column j is h's pivot column less its projection on them, so each
    step costs one n x M product.  Row i of F belongs to h's index i: F is
    lower triangular in pivot order.  Its storage starts at 16 columns and
    doubles when full, up to M.
    """
    m = h.shape[0]
    diag = h.diagonal().real.copy()  # a pivot's entry becomes -inf
    downdate = np.zeros(m)
    remaining = diag.copy()
    p = int(remaining.argmax())
    if not remaining[p] > 0:
        return np.zeros((m, 0), dtype=complex)
    stop = m * 2.0**-53 * remaining[p]
    cols = np.empty((min(m, 16), m), dtype=complex)  # row j is column j of F
    pivoted = np.zeros(m, dtype=bool)
    n = 0
    while True:
        if n == cols.shape[0]:
            cols = np.concatenate((cols, np.empty((min(n, m - n), m), dtype=complex)))
        root = math.sqrt(remaining[p])
        col = cols[n]
        np.dot(cols[:n, p].conj(), cols[:n], out=col)
        np.subtract(h[:, p], col, out=col)
        col *= 1.0 / root
        pivoted[p] = True
        col[pivoted] = 0.0
        col[p] = root
        diag[p] = -np.inf
        n += 1
        if n == m:
            break
        downdate += (col * col.conj()).real
        np.subtract(diag, downdate, out=remaining)
        p = int(remaining.argmax())
        if not remaining[p] > stop:
            break
    return cols[:n].T


def noise_subspace(r: np.ndarray, k_sources: int) -> NoiseSubspace:
    """Orthonormal bases of the K-dimensional signal subspace of the M x M
    covariance ``r`` and of its complement.

    A pivoted Cholesky factor R = F F^H stops at the numerical rank n (at most
    L for L snapshots), so the left singular vectors of the M x n factor F,
    which are eigenvectors of R, cost O(M**2 n) rather than O(M**3).  At full
    rank the factor's Python loop is slower than LAPACK's: about 14 ms against
    ``zpstrf``'s 4.5 ms at M=361 with 400 snapshots on a 2-CPU Xeon, beside a
    62 ms SVD of the factor.  Rejects an ``r`` that is not Hermitian, or not positive
    semidefinite (its factor misses part of its trace), within
    ``HERMITIAN_RTOL``.
    """
    m = r.shape[0]
    if not 0 < k_sources < m:
        raise ValueError(f"source count must lie in (0, {m}), got {k_sources}")
    h, scale = _checked_hermitian(r)
    h = np.asarray(h, dtype=complex)
    factor = _pivoted_cholesky(h)
    rank = factor.shape[1]
    trace = np.trace(h).real
    if abs(trace - np.linalg.norm(factor) ** 2) > HERMITIAN_RTOL * max(trace, scale):
        raise ValueError("matrix is not positive semidefinite within tolerance")
    # a factor of rank below K needs the full SVD's completion of its range
    u = np.linalg.svd(factor, full_matrices=rank < k_sources)[0]
    return NoiseSubspace(signal=u[:, :k_sources])
