"""Parametric channel reconstruction, per-user scale correction, and baselines.

The corrector solves, over the stacked pilot transmissions, for one complex
scale per user that best explains the received block given the reconstructed
channel columns.  It mostly compensates phase error from location-parameter
quantization but also fixes amplitude mismatch.
"""

import math
from typing import Sequence

import numpy as np

from .channel import ChannelMatrix, channel_matrix
from .geometry import ArrayGeometry, PolarLocation, polar_to_cart

NORMAL_COND_LIMIT = 1e12


class IllConditionedError(ValueError):
    """Raised when the stacked least-squares system is numerically rank deficient."""


def reconstruct_channels(
    locations: Sequence[PolarLocation], g: ArrayGeometry
) -> ChannelMatrix:
    """Exact-model channel matrix evaluated at estimated polar locations."""
    carts = [polar_to_cart(p) for p in locations]
    return channel_matrix(g, carts)


def estimate_correctors(
    a_hat: np.ndarray, pilots: np.ndarray, received: np.ndarray
) -> np.ndarray:
    """Least-squares per-user scales ``alpha`` for the (N, K) channel estimate
    ``a_hat`` and a block of L transmissions; the corrected estimate is
    ``a_hat * alpha``.

    The stacked model has block row l equal to ``a_hat @ diag(pilots[:, l])``
    against column l of ``received``.  It is solved by SVD rather than the
    normal equations; raises :class:`IllConditionedError` when the condition
    number of the normal matrix, read from the same singular values, exceeds
    ``NORMAL_COND_LIMIT``.
    """
    k = a_hat.shape[1]
    n, l = received.shape
    if pilots.shape != (k, l) or a_hat.shape[0] != n:
        raise ValueError(
            f"dimension mismatch: channel {a_hat.shape}, pilots {pilots.shape}, "
            f"received {received.shape}"
        )
    stacked = np.vstack([a_hat * pilots[:, col][None, :] for col in range(l)])
    alpha, _, _, sing = np.linalg.lstsq(stacked, received.reshape(-1, order="F"), rcond=None)
    cond_normal = (sing[0] / sing[-1]) ** 2 if sing[-1] else math.inf
    if cond_normal > NORMAL_COND_LIMIT:
        raise IllConditionedError(
            f"stacked normal matrix condition {cond_normal:.3e} exceeds {NORMAL_COND_LIMIT:.0e}"
        )
    if not np.all(np.isfinite(alpha)):
        raise ValueError("corrector entries must be finite")
    return alpha


def ls_baseline(received: np.ndarray, pilots: np.ndarray) -> np.ndarray:
    """Pseudo-inverse channel estimate: received @ pinv(pilots).

    With fewer pilot transmissions than users this is a rank-limited
    projection of the true channel, which is the baseline's structural
    deficit rather than a bug.
    """
    if not np.any(pilots):
        raise ValueError("pilot matrix is all zeros")
    return received @ np.linalg.pinv(pilots)


def rls_baseline(received: np.ndarray, pilots: np.ndarray, noise_var: float) -> np.ndarray:
    """Regularized least-squares estimate received @ inv(S^H S + v I) @ S^H;
    at v = 0 it is LS, which stays defined when S^H S is singular (L > K)."""
    if noise_var < 0:
        raise ValueError("noise variance must be nonnegative")
    if noise_var == 0:
        return ls_baseline(received, pilots)
    l = pilots.shape[1]
    gram = pilots.conj().T @ pilots + noise_var * np.eye(l)
    return received @ np.linalg.solve(gram, pilots.conj().T)
