"""Estimate quality metrics and estimate-to-truth matching.

Squared-error and beamforming metrics are per user per trial; aggregation
averages over users within a trial first, then over trials.  Matching pairs
estimated locations with true ones so that label permutation is not scored
as estimation error.  The pairing is a minimum-cost assignment by the
shortest-augmenting-path solver of Crouse, "On implementing 2D rectangular
assignment algorithms", IEEE TAES 2016, ported step for step from scipy's
``linear_sum_assignment``, so that nearly tied totals pick the same pairs.
"""

import math
import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import PolarLocation


def nmse(a_true: np.ndarray, a_hat: np.ndarray) -> float:
    """Normalized squared error ||a_true - a_hat||**2 / ||a_true||**2."""
    a_true = np.asarray(a_true)
    a_hat = np.asarray(a_hat)
    if a_true.shape != a_hat.shape:
        raise ValueError("vectors must share a shape")
    denom = np.linalg.norm(a_true) ** 2
    if denom == 0:
        raise ValueError("true vector is zero")
    return float(np.linalg.norm(a_true - a_hat) ** 2 / denom)


def beamforming_gain(a_true: np.ndarray, a_hat: np.ndarray) -> float:
    """Squared normalized inner product between estimate-based beamformer and truth.

    Equals 1 when a_hat is any nonzero complex multiple of a_true, 0 when
    orthogonal; invariant to the scale of either argument.
    """
    nt = np.linalg.norm(a_true)
    nh = np.linalg.norm(a_hat)
    if nt == 0 or nh == 0:
        raise ValueError("vectors must be nonzero")
    return float(abs(np.vdot(a_hat / nh, np.asarray(a_true) / nt)) ** 2)


def _direction(p: PolarLocation) -> np.ndarray:
    ce = math.cos(p.elevation)
    return np.array(
        [ce * math.sin(p.azimuth), math.sin(p.elevation), ce * math.cos(p.azimuth)]
    )


def location_cost(a: PolarLocation, b: PolarLocation, d_scale: float) -> float:
    """Angle between direction vectors plus distance gap normalized by d_scale."""
    cosang = float(np.clip(np.dot(_direction(a), _direction(b)), -1.0, 1.0))
    return math.acos(cosang) + abs(a.distance - b.distance) / d_scale


def _augmenting_path(cost, u, v, path, row4col, i):
    """Shortest augmenting path from the free row ``i`` to a free column.

    Fills ``path`` with each column's predecessor row; returns the sink
    column, the path cost, the reduced path cost of every column and the rows
    and columns scanned.
    """
    nc = len(v)
    # filled in reverse, so that a constant cost matrix gives the identity
    remaining = list(range(nc - 1, -1, -1))
    spc = [math.inf] * nc
    rows_seen, cols_seen = [], []
    min_val = 0.0
    while True:
        rows_seen.append(i)
        index, lowest = -1, math.inf
        ui, ci = u[i], cost[i]
        for it, j in enumerate(remaining):
            r = min_val + ci[j] - ui - v[j]
            if r < spc[j]:
                path[j] = i
                spc[j] = r
            # on equal cost prefer a column that is free, so the path ends
            if spc[j] < lowest or (spc[j] == lowest and row4col[j] == -1):
                lowest = spc[j]
                index = it
        min_val = lowest
        if min_val == math.inf:
            raise ValueError("cost matrix is infeasible")
        j = remaining[index]
        cols_seen.append(j)
        remaining[index] = remaining[-1]
        remaining.pop()
        if row4col[j] == -1:
            return j, min_val, spc, rows_seen, cols_seen
        i = row4col[j]


def _linear_sum_assignment(cost) -> tuple[list[int], list[int]]:
    """Rows and columns of a minimum-cost assignment of a 2-D cost matrix.

    Every row of a wide matrix and every column of a tall one is assigned; a
    tall matrix is solved transposed and its pairs returned in row order, as
    scipy does.  NaN and -inf costs raise ``ValueError``, and so does a matrix
    whose +inf costs leave no complete assignment.
    """
    c = np.asarray(cost, dtype=float)
    transpose = c.shape[1] < c.shape[0]
    if transpose:
        c = c.T
    if np.isnan(c).any() or (c == -math.inf).any():
        raise ValueError("matrix contains invalid numeric entries")
    nr, nc = c.shape
    cost = c.tolist()
    u, v = [0.0] * nr, [0.0] * nc
    path = [-1] * nc
    col4row, row4col = [-1] * nr, [-1] * nc
    for cur in range(nr):
        sink, min_val, spc, rows_seen, cols_seen = _augmenting_path(cost, u, v, path, row4col, cur)
        # update the dual variables
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - spc[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - spc[j]
        # augment the previous solution along the path
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        order = sorted(range(nr), key=col4row.__getitem__)
        return [col4row[i] for i in order], order
    return list(range(nr)), col4row


def match_estimates(
    true_locs: Sequence[PolarLocation],
    est_locs: Sequence[PolarLocation],
    d_scale: float,
) -> list[Optional[int]]:
    """Minimum-total-cost assignment of estimates to true locations.

    Returns ``perm`` with ``perm[i]`` the estimate index assigned to true
    location i, or None when there are fewer estimates than truths.
    """
    if not true_locs:
        return []
    cost = [[location_cost(t, e, d_scale) for e in est_locs] for t in true_locs]
    rows, cols = _linear_sum_assignment(cost)
    perm: list[Optional[int]] = [None] * len(true_locs)
    for r, c in zip(rows, cols):
        perm[r] = c
    return perm


@dataclass(frozen=True, kw_only=True)
class TrialRecord:
    """Per-(method, SNR, trial, user) evaluation row, built by keyword.

    A score left out reads NaN, as the location errors of methods that do not
    estimate locations do; ``peaks_found`` counts the angular peaks recovered
    in that trial (always the user count for the non-parametric baselines).
    """

    method: str
    snr_db: float
    trial: int
    ue: int
    nmse: float = math.nan
    bf_gain: float = math.nan
    az_err_rad: float = math.nan
    el_err_rad: float = math.nan
    dist_err_m: float = math.nan
    peaks_found: int


@dataclass(frozen=True)
class AggregateRecord:
    method: str
    snr_db: float
    mean_nmse: float
    median_nmse: float
    mean_bf_gain: float
    trials_ok: int
    trials_failed: int


@dataclass(frozen=True)
class MetricReport:
    """All per-trial rows plus their per-(method, SNR) aggregates."""

    records: tuple[TrialRecord, ...]
    aggregates: tuple[AggregateRecord, ...]


def trial_failed(rows: Sequence[TrialRecord], k_ues: int) -> bool:
    """A trial fails when any user went unscored or fewer peaks than users were found."""
    if len(rows) < k_ues:
        return True
    return any(math.isnan(r.nmse) or r.peaks_found < k_ues for r in rows)


def aggregate(
    records: Sequence[TrialRecord],
    methods: Sequence[str],
    snr_db_list: Sequence[float],
    k_ues: int,
) -> tuple[AggregateRecord, ...]:
    """Fold trial records into per-(method, SNR) summaries.

    Failed trials are counted and excluded; surviving trials contribute their
    user-averaged NMSE and beamforming gain, summarized by mean and median
    over trials.
    """
    by_key: dict[tuple, dict[int, list[TrialRecord]]] = {}
    for r in records:
        by_key.setdefault((r.method, r.snr_db), {}).setdefault(r.trial, []).append(r)
    out = []
    for method in methods:
        for snr in snr_db_list:
            by_trial = by_key.get((method, snr), {})
            kept = [by_trial[t] for t in sorted(by_trial) if not trial_failed(by_trial[t], k_ues)]
            nmses = [float(np.mean([r.nmse for r in rows])) for rows in kept]
            gains = [float(np.mean([r.bf_gain for r in rows])) for rows in kept]
            out.append(
                AggregateRecord(
                    method=method,
                    snr_db=snr,
                    mean_nmse=float(np.mean(nmses)) if nmses else math.nan,
                    median_nmse=statistics.median(nmses) if nmses else math.nan,
                    mean_bf_gain=float(np.mean(gains)) if gains else math.nan,
                    trials_ok=len(kept),
                    trials_failed=len(by_trial) - len(kept),
                )
            )
    return tuple(out)
