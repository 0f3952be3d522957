"""Parametric channel reconstruction, per-user scale correction, and baselines.

The corrector solves, over the stacked pilot transmissions, for one complex
scale per user that best explains the received block given the reconstructed
channel columns.  It mostly compensates phase error from location-parameter
quantization but also fixes amplitude mismatch.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelMatrix, channel_matrix
from .geometry import ArrayGeometry, PolarLocation, polar_to_cart

NORMAL_COND_LIMIT = 1e12


class IllConditionedError(ValueError):
    """Raised when the stacked least-squares system is numerically rank deficient."""

    def __init__(self, condition: float):
        super().__init__(
            f"stacked normal matrix condition {condition:.3e} exceeds {NORMAL_COND_LIMIT:.0e}"
        )
        self.condition = condition


@dataclass(frozen=True)
class CorrectionProblem:
    """Stacked linear model relating per-user scales to the received block.

    ``stacked_channel`` has block row l equal to A_hat @ diag(pilots[:, l]);
    ``stacked_received`` is the received matrix flattened column by column in
    time order.
    """

    stacked_channel: np.ndarray
    stacked_received: np.ndarray


@dataclass(frozen=True)
class CorrectorVector:
    """One complex correction factor per user."""

    alpha: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.alpha)):
            raise ValueError("corrector entries must be finite")


def reconstruct_channels(
    locations: Sequence[PolarLocation], g: ArrayGeometry
) -> ChannelMatrix:
    """Exact-model channel matrix evaluated at estimated polar locations."""
    carts = [polar_to_cart(p) for p in locations]
    return channel_matrix(g, carts)


def build_stacked(a: np.ndarray, pilots: np.ndarray, received: np.ndarray) -> CorrectionProblem:
    """Assemble the stacked correction model from the (N, K) channel estimate
    ``a`` and a block of L transmissions."""
    k = a.shape[1]
    n, l = received.shape
    if pilots.shape != (k, l) or a.shape[0] != n:
        raise ValueError(
            f"dimension mismatch: channel {a.shape}, pilots {pilots.shape}, "
            f"received {received.shape}"
        )
    stacked_channel = np.vstack([a * pilots[:, col][None, :] for col in range(l)])
    stacked_received = received.reshape(-1, order="F")
    return CorrectionProblem(stacked_channel=stacked_channel, stacked_received=stacked_received)


def estimate_correctors(problem: CorrectionProblem) -> CorrectorVector:
    """Least-squares per-user scales for the stacked model.

    Solved through an orthogonal factorization rather than the normal
    equations; raises :class:`IllConditionedError` when the normal-matrix
    condition number exceeds ``NORMAL_COND_LIMIT``.
    """
    a = problem.stacked_channel
    sing = np.linalg.svd(a, compute_uv=False)
    if sing[-1] == 0.0:
        raise IllConditionedError(np.inf)
    cond_normal = (sing[0] / sing[-1]) ** 2
    if cond_normal > NORMAL_COND_LIMIT:
        raise IllConditionedError(float(cond_normal))
    alpha, *_ = np.linalg.lstsq(a, problem.stacked_received, rcond=None)
    return CorrectorVector(alpha=alpha)


def apply_correction(a_hat: np.ndarray, corrector: CorrectorVector) -> np.ndarray:
    """Scale column k of the (N, K) channel estimate by alpha_k."""
    return a_hat * corrector.alpha[None, :]


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
    """Regularized least-squares estimate received @ inv(S^H S + v I) @ S^H."""
    if noise_var < 0:
        raise ValueError("noise variance must be nonnegative")
    l = pilots.shape[1]
    gram = pilots.conj().T @ pilots + noise_var * np.eye(l)
    return received @ np.linalg.solve(gram, pilots.conj().T)
