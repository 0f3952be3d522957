"""Estimate quality metrics and estimate-to-truth matching.

Squared-error and beamforming metrics are per user per trial; aggregation
averages over users within a trial first, then over trials.  Matching pairs
estimated locations with true ones so that label permutation is not scored
as estimation error.  The pairing is a minimum-cost assignment by the
shortest-augmenting-path solver of Crouse, "On implementing 2D rectangular
assignment algorithms", IEEE TAES 2016, ported step for step from scipy's
``linear_sum_assignment``, so that nearly tied totals pick the same pairs.
"""

import itertools
import math
import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import PolarLocation, polar_to_cart


def _rows(a_true, a_hat) -> list[np.ndarray]:
    """Two vectors, or the columns of two (N, K) blocks, as contiguous rows."""
    a_true, a_hat = np.asarray(a_true), np.asarray(a_hat)
    if a_true.shape != a_hat.shape:
        raise ValueError("vectors must share a shape")
    return [np.atleast_2d(np.ascontiguousarray(a.T)) for a in (a_true, a_hat)]


def _norms(rows: np.ndarray) -> np.ndarray:
    """2-norm of each row, summed as ``np.linalg.norm`` sums a vector: real and
    imaginary parts by BLAS dot.  The scores then finish on Python floats, whose
    ``**`` and ``abs`` round as numpy's scalars do (its array loops do not
    always), so that a block's columns score with the bits of one-vector calls."""
    return np.sqrt(np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag))


def nmse(a_true: np.ndarray, a_hat: np.ndarray):
    """Normalized squared error ||a_true - a_hat||**2 / ||a_true||**2: a float
    for vectors, a list of the column errors for (N, K) blocks."""
    t, h = _rows(a_true, a_hat)
    denom = _norms(t).tolist()
    if not all(denom):
        raise ValueError("true vector is zero")
    out = [e**2 / d**2 for e, d in zip(_norms(t - h).tolist(), denom)]
    return out if np.ndim(a_true) > 1 else out[0]


def beamforming_gain(a_true: np.ndarray, a_hat: np.ndarray):
    """Squared normalized inner product between estimate-based beamformer and
    truth: a float for vectors, a list of the column gains for (N, K) blocks.

    Equals 1 when a_hat is any nonzero complex multiple of a_true, 0 when
    orthogonal; invariant to the scale of either argument.
    """
    t, h = _rows(a_true, a_hat)
    nt, nh = _norms(t), _norms(h)
    if not (nt.all() and nh.all()):
        raise ValueError("vectors must be nonzero")
    out = [abs(c) ** 2 for c in np.vecdot(h / nh[:, None], t / nt[:, None]).tolist()]
    return out if np.ndim(a_true) > 1 else out[0]


def _direction(p: PolarLocation) -> np.ndarray:
    u = polar_to_cart(PolarLocation(p.azimuth, p.elevation, 1.0))
    return np.array([u.x, u.y, u.z])


def _cost(dir_a: np.ndarray, dir_b: np.ndarray, gap: float, d_scale: float) -> float:
    """Angle between direction vectors plus distance gap normalized by d_scale."""
    return math.acos(min(max(np.dot(dir_a, dir_b), -1.0), 1.0)) + gap / d_scale


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
    truths = [(_direction(t), t.distance) for t in true_locs]
    ests = [(_direction(e), e.distance) for e in est_locs]
    cost = [[_cost(u, v, abs(dt - de), d_scale) for v, de in ests] for u, dt in truths]
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


def _user_means(trials: Sequence[Sequence[TrialRecord]], name: str) -> list[float]:
    """Each trial's ``float(np.mean(...))`` of its ``name`` scores: the row means
    of a C-contiguous (trials, users) table per user count have its bits."""
    means = {}
    for width in {len(rows) for rows in trials}:
        at = [i for i, rows in enumerate(trials) if len(rows) == width]
        table = np.array([[getattr(r, name) for r in trials[i]] for i in at])
        means.update(zip(at, np.mean(table, axis=1).tolist()))
    return [means[i] for i in range(len(trials))]


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
    groups = [by_key.get(key, {}) for key in itertools.product(methods, snr_db_list)]
    kept = [[g[t] for t in sorted(g) if not trial_failed(g[t], k_ues)] for g in groups]
    trials = [rows for k in kept for rows in k]
    means = [iter(_user_means(trials, name)) for name in ("nmse", "bf_gain")]
    out = []
    for (method, snr), g, k in zip(itertools.product(methods, snr_db_list), groups, kept):
        nmses, gains = (list(itertools.islice(it, len(k))) for it in means)
        out.append(
            AggregateRecord(
                method=method,
                snr_db=snr,
                mean_nmse=float(np.mean(nmses)) if nmses else math.nan,
                median_nmse=statistics.median(nmses) if nmses else math.nan,
                mean_bf_gain=float(np.mean(gains)) if gains else math.nan,
                trials_ok=len(k),
                trials_failed=len(g) - len(k),
            )
        )
    return tuple(out)
