"""Sample covariance, sliding-subarray snapshot augmentation, and noise subspace."""

import math
from dataclasses import dataclass

import numpy as np

from .signal import SnapshotBlock

HERMITIAN_RTOL = 1e-10


@dataclass(frozen=True)
class NoiseSubspace:
    """Orthonormal eigenvectors spanning the smallest-eigenvalue subspace.

    ``matrix`` is M x (M - K) for K sources; its columns are the eigenvectors of
    the covariance associated with the M - K smallest eigenvalues.  ``signal`` is
    M x K and holds the remaining K eigenvectors, the orthogonal
    complement of ``matrix``; the spectra read it, because
    ``||U_n^H a||**2 = ||a||**2 - ||U_s^H a||**2`` costs K projections, not M - K.
    """

    matrix: np.ndarray
    signal: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def sample_covariance(snapshots) -> np.ndarray:
    """Hermitian M x M average of outer products (1/L) sum_l q_l q_l^H.

    Args:
        snapshots: Sequence of length-M vectors, or an (L, M) array with one
            snapshot per row.
    """
    x = np.atleast_2d(np.asarray(snapshots, dtype=complex))
    if x.size == 0:
        raise ValueError("at least one snapshot required")
    r = x.T @ x.conj() / x.shape[0]
    return 0.5 * (r + r.conj().T)


def extract_subarrays(q_matrix: np.ndarray, c_r: int) -> np.ndarray:
    """Vectorize every shifted square subarray of a received-signal matrix.

    Args:
        q_matrix: (s, s) matrix of per-element samples, entry (n, m) being the
            element in row n, column m of the planar array.
        c_r: Shift budget; the subarray side is N_d = s - c_r and there are
            T**2 = (c_r + 1)**2 subarrays.

    Returns:
        (T**2, N_d**2) array; row index runs over (t_x, t_y) with t_y fastest,
        and each row is the subarray flattened row-major.
    """
    q_matrix = np.asarray(q_matrix)
    if q_matrix.ndim != 2 or q_matrix.shape[0] != q_matrix.shape[1]:
        raise ValueError("expected a square per-element sample matrix")
    side = q_matrix.shape[0]
    if c_r < 0 or c_r >= side:
        raise ValueError(f"c_r must lie in [0, {side - 1}], got {c_r}")
    n_d = side - c_r
    t = c_r + 1
    out = np.empty((t * t, n_d * n_d), dtype=q_matrix.dtype)
    for tx in range(t):
        for ty in range(t):
            out[tx * t + ty] = q_matrix[tx : tx + n_d, ty : ty + n_d].reshape(-1)
    return out


def smoothed_covariance(block: SnapshotBlock, c_r: int) -> np.ndarray:
    """Sample covariance over all L * T**2 subarray snapshots of a block."""
    n = block.n_antennas
    side = math.isqrt(n)
    if side * side != n:
        raise ValueError("snapshot length must be a perfect square")
    pieces = [
        extract_subarrays(block.received[:, l].reshape(side, side), c_r)
        for l in range(block.received.shape[1])
    ]
    return sample_covariance(np.vstack(pieces))


def hermitian_eig(r) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Rejects inputs whose Hermitian defect exceeds ``HERMITIAN_RTOL`` relative
    to the matrix norm.
    """
    m = np.asarray(r)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    scale = np.linalg.norm(m)
    if scale > 0 and np.linalg.norm(m - m.conj().T) > HERMITIAN_RTOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigh(0.5 * (m + m.conj().T))


def noise_subspace(r: np.ndarray, k_sources: int) -> NoiseSubspace:
    """Eigenvectors of the M - K smallest eigenvalues of the M x M covariance
    ``r``, with the K signal eigenvectors of the same decomposition."""
    m = r.shape[0]
    if not 0 < k_sources < m:
        raise ValueError(f"source count must lie in (0, {m}), got {k_sources}")
    _, vecs = hermitian_eig(r)
    return NoiseSubspace(matrix=vecs[:, : m - k_sources], signal=vecs[:, m - k_sources :])
