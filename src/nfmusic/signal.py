"""Pilot generation, noise injection, and the uplink snapshot forward model."""

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .channel import ChannelMatrix

# Stream roles used when splitting the experiment seed.
ROLE_PLACEMENT = 0
ROLE_PILOTS = 1
ROLE_NOISE = 2


@dataclass(frozen=True)
class SnapshotBlock:
    """Pilot matrix, received matrix, and the noise level that produced them.

    Attributes:
        pilots: (K, L) transmitted pilot symbols.
        received: (N, L) received snapshots, column l = A @ pilots[:, l] + noise.
        noise_var: Per-entry complex noise variance used for synthesis.
    """

    pilots: np.ndarray
    received: np.ndarray
    noise_var: float

    @property
    def n_antennas(self) -> int:
        return self.received.shape[0]


def stream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for one (seed, key...) slot.

    Each distinct key tuple yields an independent, reproducible stream, so
    trials can run in any order or in parallel without affecting results.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def gen_pilots(k_ues: int, l_pilots: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a (K, L) matrix of unit-variance circularly-symmetric Gaussian pilots."""
    if k_ues < 1 or l_pilots < 1:
        raise ValueError("pilot matrix dimensions must be >= 1")
    re = rng.standard_normal((k_ues, l_pilots))
    im = rng.standard_normal((k_ues, l_pilots))
    return (re + 1j * im) / math.sqrt(2.0)


def _complex_noise(shape, noise_var: float, rng: np.random.Generator) -> np.ndarray:
    scale = math.sqrt(noise_var / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def received_block(
    a: Union[ChannelMatrix, np.ndarray],
    pilots: np.ndarray,
    snr_db: float,
    rng: Optional[np.random.Generator] = None,
    noise_ref: Optional[float] = None,
) -> SnapshotBlock:
    """Synthesize received snapshots Q = A @ S + W.

    The noise variance is ``noise_ref / 10**(snr_db / 10)``.  By default
    ``noise_ref`` is the mean per-antenna received signal power
    ``norm(A, 'fro')**2 / N``, which makes SNR sweeps meaningful for channels
    whose raw gains are far below one; pass ``noise_ref=1.0`` for the literal
    reading where the noise variance is 1/SNR.

    ``snr_db=math.inf`` skips noise entirely (then ``rng`` may be None);
    ``-inf`` and NaN are rejected.
    """
    entries = np.asarray(a.entries if isinstance(a, ChannelMatrix) else a)
    if entries.ndim != 2 or pilots.ndim != 2 or entries.shape[1] != pilots.shape[0]:
        raise ValueError(
            f"dimension mismatch: channel {entries.shape} vs pilots {pilots.shape}"
        )
    if not snr_db > -math.inf:
        raise ValueError(f"snr_db must be a number above -inf, got {snr_db}")
    clean = entries @ pilots
    if snr_db == math.inf:
        return SnapshotBlock(pilots=pilots, received=clean, noise_var=0.0)
    if noise_ref is None:
        n_antennas = entries.shape[0]
        noise_ref = float(np.linalg.norm(entries) ** 2 / n_antennas)
    noise_var = noise_ref / 10.0 ** (snr_db / 10.0)
    if rng is None:
        raise ValueError("rng is required when snr_db is finite")
    noise = _complex_noise(clean.shape, noise_var, rng)
    return SnapshotBlock(pilots=pilots, received=clean + noise, noise_var=noise_var)
