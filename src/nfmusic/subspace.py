"""Sample covariance, sliding-subarray snapshot augmentation, and the signal
and noise subspaces of a covariance.

A sample covariance keeps its n snapshots of length M instead of the M x M
matrix (1/n) X X^H they define, X being the M x n matrix with one snapshot
per column.  Its signal subspace is the span of X's leading left singular
vectors, so the subspace search never forms the M x M matrix.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .signal import SnapshotBlock


@dataclass(frozen=True)
class Covariance:
    """Sample covariance (1/n) sum_l q_l q_l^H of n snapshots q_l of length M.

    ``snapshots`` is the read-only (n, M) array with one finite snapshot per
    row; ``matrix`` is the Hermitian M x M covariance, computed on first
    access.
    """

    snapshots: np.ndarray

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        x = self.snapshots
        r = x.T @ x.conj() / x.shape[0]
        return (r + r.conj().T) / 2


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


def sample_covariance(snapshots) -> Covariance:
    """Sample covariance of a set of snapshots.

    Args:
        snapshots: Sequence of length-M vectors, or an (n, M) array with one
            snapshot per row; copied, and rejected unless it has two axes and
            every entry is finite.
    """
    x = np.array(snapshots, dtype=complex, ndmin=2)
    if x.ndim != 2:
        raise ValueError(f"expected an (n, M) array of snapshots, got shape {x.shape}")
    if x.size == 0:
        raise ValueError("at least one snapshot required")
    if not np.isfinite(x).all():
        raise ValueError("snapshots must be finite")
    x.flags.writeable = False
    return Covariance(x)


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


def smoothed_covariance(block: SnapshotBlock, c_r: int) -> Covariance:
    """Sample covariance over all L * T**2 subarray snapshots of a block,
    stacked pilot by pilot."""
    n = block.n_antennas
    side = math.isqrt(n)
    if side * side != n:
        raise ValueError("snapshot length must be a perfect square")
    subs = extract_subarrays(block.received.T.reshape(-1, side, side), c_r)
    return sample_covariance(subs.reshape(-1, subs.shape[-1]))


def noise_subspace(cov: Covariance, k_sources: int) -> NoiseSubspace:
    """Orthonormal bases of the K-dimensional signal subspace of ``cov`` and
    of its complement.

    The covariance is X X^H / n for the M x n snapshot matrix X, so its
    eigenvectors are X's left singular vectors, and the K leading ones span
    the signal subspace.  A thin SVD of X costs O(M n**2) for n <= M, against
    O(M**2 n) to form the covariance.  With fewer snapshots than sources the
    full SVD completes X's range with M - n orthonormal columns, of which the
    first K - n are signal columns that carry no data.
    """
    if not isinstance(cov, Covariance):
        raise TypeError("expected a Covariance from sample_covariance or smoothed_covariance")
    n, m = cov.snapshots.shape
    if not 0 < k_sources < m:
        raise ValueError(f"source count must lie in (0, {m}), got {k_sources}")
    u = np.linalg.svd(cov.snapshots.T, full_matrices=n < k_sources)[0]
    return NoiseSubspace(signal=u[:, :k_sources])
