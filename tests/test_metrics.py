import itertools
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nfmusic import metrics
from nfmusic.geometry import PolarLocation, UeLocation, cart_to_polar
from nfmusic.harness import ExperimentConfig, scenario_fig1
from nfmusic.metrics import (
    _linear_sum_assignment,
    TrialRecord,
    aggregate,
    beamforming_gain,
    match_estimates,
    nmse,
)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# (N, K) column blocks: one user, the reference array and the large array
BLOCK_SHAPES = [(16, 1), (100, 4), (400, 6)]


def _true_and_estimate(shape):
    """A random truth block and an estimate of it off by a random error, as a
    trial's estimates are."""
    rng = np.random.default_rng(shape[0])
    a_true = random_complex(rng, shape)
    return a_true, a_true + 0.3 * random_complex(rng, shape)


def _reference_nmse(a_true, a_hat):
    """NMSE of one vector as it was first written, with ``np.linalg.norm``."""
    return float(np.linalg.norm(a_true - a_hat) ** 2 / np.linalg.norm(a_true) ** 2)


def _reference_gain(a_true, a_hat):
    """Beamforming gain of one vector as it was first written, with ``np.vdot``."""
    nt, nh = np.linalg.norm(a_true), np.linalg.norm(a_hat)
    return float(abs(np.vdot(a_hat / nh, a_true / nt)) ** 2)


def _assert_scores_each_column(score, reference, a_true, a_hat):
    """The block's scores have the bits of the per-column vector scores and of
    the scores as first written, so that scoring a block leaves every output
    byte as it was; a vector's score is a float."""
    k_cols = range(a_true.shape[1])
    columns = [score(a_true[:, k], a_hat[:, k]) for k in k_cols]
    assert all(type(c) is float for c in columns)
    assert score(a_true, a_hat) == columns
    assert columns == [reference(a_true[:, k], a_hat[:, k]) for k in k_cols]


class TestNmse:
    def test_perfect_estimate(self):
        a = np.array([1.0 + 1j, 2.0, -3j])
        assert nmse(a, a) == 0.0

    def test_zero_estimate(self):
        a = np.array([1.0 + 1j, 2.0, -3j])
        assert nmse(a, np.zeros(3)) == pytest.approx(1.0)

    def test_reverse_phase_worst_case(self):
        a = np.array([1.0 + 1j, 2.0, -3j])
        assert nmse(a, -a) == pytest.approx(4.0)

    def test_rejects_zero_truth(self):
        with pytest.raises(ValueError):
            nmse(np.zeros(3), np.ones(3))

    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    def test_block_scores_each_column(self, shape):
        _assert_scores_each_column(nmse, _reference_nmse, *_true_and_estimate(shape))

    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    def test_block_rejects_zero_truth_column(self, shape):
        a_true, a_hat = _true_and_estimate(shape)
        a_true[:, -1] = 0
        with pytest.raises(ValueError):
            nmse(a_true, a_hat)

    def test_zero_estimate_column_scores_one(self):
        a_true, a_hat = _true_and_estimate((100, 4))
        a_hat[:, 2] = 0
        assert nmse(a_true, a_hat)[2] == pytest.approx(1.0)

    def test_not_scale_invariant(self):
        # distinguishes squared error from the beamforming metric and is the
        # reason a scale corrector helps at all
        rng = np.random.default_rng(0)
        a = random_complex(rng, 16)
        assert nmse(a, 0.5 * a) != pytest.approx(nmse(a, a))
        assert nmse(a, 0.5 * a) == pytest.approx(0.25)


class TestBeamformingGain:
    def test_collinear_gives_one(self):
        rng = np.random.default_rng(1)
        a = random_complex(rng, 32)
        for c in (2.0, -1.0, 0.3 - 2.7j):
            assert beamforming_gain(a, c * a) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_gives_zero(self):
        a = np.array([1.0, 0.0], dtype=complex)
        b = np.array([0.0, 1.0], dtype=complex)
        assert beamforming_gain(a, b) == pytest.approx(0.0, abs=1e-15)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(2)
        a = random_complex(rng, 100)
        b = random_complex(rng, 100)
        inner = sum(np.conj(b[i]) * a[i] for i in range(100))
        na = math.sqrt(sum(abs(a[i]) ** 2 for i in range(100)))
        nb = math.sqrt(sum(abs(b[i]) ** 2 for i in range(100)))
        assert beamforming_gain(a, b) == pytest.approx(abs(inner / (na * nb)) ** 2, rel=1e-12)

    @given(scale=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False))
    def test_scale_invariance(self, scale):
        rng = np.random.default_rng(3)
        a = random_complex(rng, 8)
        b = random_complex(rng, 8)
        assert beamforming_gain(a, scale * b) == pytest.approx(beamforming_gain(a, b), rel=1e-9)

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            g = beamforming_gain(random_complex(rng, 12), random_complex(rng, 12))
            assert 0.0 <= g <= 1.0 + 1e-12

    def test_rejects_zero_vectors(self):
        with pytest.raises(ValueError):
            beamforming_gain(np.zeros(3), np.ones(3))

    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    def test_block_scores_each_column(self, shape):
        _assert_scores_each_column(beamforming_gain, _reference_gain, *_true_and_estimate(shape))

    @pytest.mark.parametrize("zeroed", ["truth", "estimate"])
    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    def test_block_rejects_zero_column(self, shape, zeroed):
        blocks = dict(zip(("truth", "estimate"), _true_and_estimate(shape)))
        blocks[zeroed][:, 0] = 0
        with pytest.raises(ValueError):
            beamforming_gain(blocks["truth"], blocks["estimate"])


def _reference_cost(a, b, d_scale):
    """The location cost as it was first written: angle between the direction
    vectors, clipped by ``np.clip``, plus the normalized distance gap."""

    def direction(p):
        ce = math.cos(p.elevation)
        return np.array([ce * math.sin(p.azimuth), math.sin(p.elevation), ce * math.cos(p.azimuth)])

    cosang = float(np.clip(np.dot(direction(a), direction(b)), -1.0, 1.0))
    return math.acos(cosang) + abs(a.distance - b.distance) / d_scale


def _total_cost(true_locs, est_locs, perm, d_scale):
    return sum(
        _reference_cost(true_locs[i], est_locs[p], d_scale)
        for i, p in enumerate(perm)
        if p is not None
    )


class TestMatchEstimates:
    def _random_locs(self, rng, k):
        return [
            PolarLocation(rng.uniform(-1.2, 1.2), rng.uniform(-0.9, 0.9), rng.uniform(1.5, 9.5))
            for _ in range(k)
        ]

    def test_identity_for_identical_sets(self):
        rng = np.random.default_rng(5)
        locs = self._random_locs(rng, 4)
        assert match_estimates(locs, locs, 10.0) == [0, 1, 2, 3]

    def test_recovers_swap(self):
        rng = np.random.default_rng(6)
        locs = self._random_locs(rng, 2)
        assert match_estimates(locs, [locs[1], locs[0]], 10.0) == [1, 0]

    def test_equals_exhaustive_optimum(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            truths = self._random_locs(rng, 4)
            ests = self._random_locs(rng, 4)
            perm = match_estimates(truths, ests, 10.0)
            best = min(
                itertools.permutations(range(4)),
                key=lambda p: _total_cost(truths, ests, p, 10.0),
            )
            assert _total_cost(truths, ests, perm, 10.0) == pytest.approx(
                _total_cost(truths, ests, list(best), 10.0), rel=1e-12
            )

    def test_beats_random_permutations(self):
        rng = np.random.default_rng(8)
        truths = self._random_locs(rng, 6)
        ests = self._random_locs(rng, 6)
        perm = match_estimates(truths, ests, 10.0)
        cost = _total_cost(truths, ests, perm, 10.0)
        for _ in range(1000):
            p = rng.permutation(6)
            assert cost <= _total_cost(truths, ests, list(p), 10.0) + 1e-12

    def test_shortfall_padded_with_none(self):
        rng = np.random.default_rng(9)
        truths = self._random_locs(rng, 4)
        perm = match_estimates(truths, truths[:2], 10.0)
        assert sorted(p for p in perm if p is not None) == [0, 1]
        assert perm.count(None) == 2

    def test_empty_estimates(self):
        rng = np.random.default_rng(10)
        truths = self._random_locs(rng, 3)
        assert match_estimates(truths, [], 10.0) == [None, None, None]


def _fig1_panel_case(seed):
    """True and estimated polar locations of the plane-slice benchmark's panel
    case at ``seed`` (reference config, 20 dB, the L=10 peaks), and its d_scale."""
    cfg = ExperimentConfig(snr_db_list=(0.0, 10.0, 20.0), seed=seed, trials=1)
    report = scenario_fig1(cfg, snr_db=20.0, l_values=(10, 3))
    peaks = next(c for c in report.cases if c.l_pilots == 10).peaks.peaks
    truth = [cart_to_polar(u) for u in report.true_locations]
    est = [cart_to_polar(UeLocation(x=p.coords[0], y=0.0, z=p.coords[1])) for p in peaks]
    return truth, est, cfg.distance_range[1]


polar_locations = st.builds(
    PolarLocation,
    azimuth=st.floats(-1.5, 1.5),
    elevation=st.floats(-1.5, 1.5),
    distance=st.floats(0.1, 100.0),
)


class TestMatchCostBits:
    """Every pair's cost inside ``match_estimates`` has the bits of the cost as
    first written, so nearly tied pairings stay as they were."""

    def _costs_and_perm(self, truth, est, d_scale, monkeypatch):
        seen = []

        def spy(cost):
            seen.append(cost)
            return _linear_sum_assignment(cost)

        monkeypatch.setattr(metrics, "_linear_sum_assignment", spy)
        perm = match_estimates(truth, est, d_scale)
        reference = [[_reference_cost(t, e, d_scale).hex() for e in est] for t in truth]
        assert [[c.hex() for c in row] for row in seen[0]] == reference
        return perm

    @given(
        truth=st.lists(polar_locations, min_size=1, max_size=5),
        est=st.lists(polar_locations, min_size=1, max_size=5),
        d_scale=st.floats(0.5, 50.0),
    )
    def test_random_locations(self, truth, est, d_scale):
        with pytest.MonkeyPatch.context() as monkeypatch:
            perm = self._costs_and_perm(truth, est, d_scale, monkeypatch)
        reference = [[_reference_cost(t, e, d_scale) for e in est] for t in truth]
        rows, cols = _linear_sum_assignment(reference)
        assert perm == [dict(zip(rows, cols)).get(i) for i in range(len(truth))]

    # the pairings that the np.clip costs gave these near-tie cases
    @pytest.mark.parametrize("seed, expected", [(3, [3, 2, 1, 0]), (6, [0, 3, 1, 2])])
    def test_plane_slice_near_ties(self, seed, expected, monkeypatch):
        truth, est, d_scale = _fig1_panel_case(seed)
        assert self._costs_and_perm(truth, est, d_scale, monkeypatch) == expected


# Truth-by-estimate location costs of the plane-slice benchmark's seed-3 panel
# case: rows 1 and 2 tie across columns 1 and 2 (1.1453 + 1.3230 against
# 1.1706 + 1.2977), and an exhaustive search with summed costs picks the other
# pair, (3, 1, 2, 0).
NEAR_TIE = [
    [3.2931917078794344, 3.260212813534717, 3.234943551164705, 2.1388268150595486],
    [1.2035705266780943, 1.1705916323333767, 1.145322369963365, 0.04920563385824095],
    [1.3559942407631762, 1.3230153464184586, 1.297746084048447, 0.9131705064521642],
    [0.01093999664407687, 0.022038897700671863, 0.06180118618057887, 1.1434248961758473],
]


def _cost_matrices(rng):
    """Random, integer-tied, nearly additive and constant cost matrices, of
    every shape from 1 x 1 to 6 x 6, wide and tall."""
    for shape in itertools.product(range(1, 7), repeat=2):
        for _ in range(8):
            yield rng.random(shape)
            yield rng.integers(0, 3, shape).astype(float)
            # sums of a row and a column term tie every assignment, up to rounding
            additive = 0.1 * (rng.integers(0, 4, (shape[0], 1)) + rng.integers(0, 4, (1, shape[1])))
            yield additive + 1e-16 * rng.integers(0, 2, shape)
            yield np.full(shape, rng.random())


class TestLinearSumAssignment:
    def test_matches_scipy(self):
        """Same rows and columns as the solver it ports, ties included."""
        optimize = pytest.importorskip("scipy.optimize")
        count = 0
        for cost in _cost_matrices(np.random.default_rng(31)):
            rows, cols = optimize.linear_sum_assignment(cost)
            assert _linear_sum_assignment(cost) == (rows.tolist(), cols.tolist()), cost
            count += 1
        assert count >= 1000

    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (2, 5), (5, 2)])
    def test_constant_matrix_gives_the_identity(self, shape):
        k = min(shape)
        assert _linear_sum_assignment(np.full(shape, 0.7)) == (list(range(k)), list(range(k)))

    def test_near_tie_takes_scipys_pairs(self):
        assert _linear_sum_assignment(NEAR_TIE) == ([0, 1, 2, 3], [3, 2, 1, 0])

    def test_tall_matrix_solved_transposed_in_row_order(self):
        cost = np.array([[5.0, 1.0], [0.0, 9.0], [2.0, 0.5]])
        assert _linear_sum_assignment(cost) == ([1, 2], [0, 1])

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_rejects_invalid_entries(self, bad):
        with pytest.raises(ValueError, match="invalid numeric entries"):
            _linear_sum_assignment([[1.0, bad], [0.0, 2.0]])

    def test_rejects_infeasible_matrix(self):
        with pytest.raises(ValueError, match="infeasible"):
            _linear_sum_assignment([[math.inf, math.inf], [0.0, 1.0]])


def _per_trial_aggregate(records, methods, snr_db_list, k_ues):
    """``aggregate`` with one ``float(np.mean(list))`` per trial and score, as
    first written."""
    by_key = {}
    for r in records:
        by_key.setdefault((r.method, r.snr_db), {}).setdefault(r.trial, []).append(r)
    out = []
    for method, snr in itertools.product(methods, snr_db_list):
        by_trial = by_key.get((method, snr), {})
        kept = [rows for _, rows in sorted(by_trial.items())]
        kept = [rows for rows in kept if not metrics.trial_failed(rows, k_ues)]
        nmses = [float(np.mean([r.nmse for r in rows])) for rows in kept]
        gains = [float(np.mean([r.bf_gain for r in rows])) for rows in kept]
        out.append(
            metrics.AggregateRecord(
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


class TestAggregate:
    def _row(self, method, snr, trial, ue, nm, bf, peaks=4):
        return TrialRecord(
            method=method,
            snr_db=snr,
            trial=trial,
            ue=ue,
            nmse=nm,
            bf_gain=bf,
            az_err_rad=0.0,
            el_err_rad=0.0,
            dist_err_m=0.0,
            peaks_found=peaks,
        )

    def test_user_average_then_trial_median(self):
        rows = []
        for trial, (nm0, nm1) in enumerate([(0.1, 0.3), (0.4, 0.6), (1.0, 2.0)]):
            rows.append(self._row("m", 10.0, trial, 0, nm0, 0.9))
            rows.append(self._row("m", 10.0, trial, 1, nm1, 0.8))
        agg = aggregate(rows, ["m"], [10.0], 2)[0]
        assert agg.trials_ok == 3
        assert agg.median_nmse == pytest.approx(0.5)  # per-trial means 0.2, 0.5, 1.5
        assert agg.mean_nmse == pytest.approx((0.2 + 0.5 + 1.5) / 3)
        assert agg.mean_bf_gain == pytest.approx(0.85)

    @given(st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=40))
    def test_median_equals_numpy_median(self, nmses):
        """The median of the per-trial NMSEs is numpy's median to the bit,
        also for an even trial count, where it averages the middle pair."""
        rows = [self._row("m", 0.0, t, 0, nm, 1.0, peaks=1) for t, nm in enumerate(nmses)]
        assert aggregate(rows, ["m"], [0.0], 1)[0].median_nmse == float(np.median(nmses))

    def test_failed_trials_excluded_and_counted(self):
        rows = [
            self._row("m", 0.0, 0, 0, 0.2, 0.9),
            self._row("m", 0.0, 0, 1, 0.2, 0.9),
            self._row("m", 0.0, 1, 0, math.nan, math.nan, peaks=1),
            self._row("m", 0.0, 1, 1, 0.1, 0.5, peaks=1),
        ]
        agg = aggregate(rows, ["m"], [0.0], 2)[0]
        assert agg.trials_ok == 1
        assert agg.trials_failed == 1
        assert agg.mean_nmse == pytest.approx(0.2)

    @pytest.mark.parametrize("k_ues", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 64, 65])
    def test_user_means_have_the_bits_of_each_trials_own_mean(self, k_ues):
        """Every aggregate has the bits of the per-trial ``float(np.mean(list))``
        user averages, over reports with failed trials and empty keys, and so
        does each trial's user average, also when trials differ in user count."""
        rng = np.random.default_rng(k_ues)
        for _ in range(15):
            rows = []
            for method, snr in itertools.product("ab", (0.0, 10.0)):
                for trial in range(rng.integers(0, 6)):
                    failed = rng.random() < 0.25
                    for ue in range(k_ues):
                        nm = math.nan if failed and ue == 0 else 10 ** rng.uniform(-4.0, 1.0)
                        rows.append(self._row(method, snr, trial, ue, nm, rng.random(), k_ues))
            got = aggregate(rows, ["a", "b"], [0.0, 10.0], k_ues)
            assert repr(got) == repr(_per_trial_aggregate(rows, ["a", "b"], [0.0, 10.0], k_ues))
        trials = [
            [self._row("m", 0.0, 0, ue, 10 ** rng.uniform(-4.0, 1.0), rng.random())
             for ue in range(rng.choice([1, 3, k_ues, 2 * k_ues + 1]))]
            for _ in range(40)
        ]
        for name in ("nmse", "bf_gain"):
            want = [float(np.mean([getattr(r, name) for r in rows])) for rows in trials]
            assert metrics._user_means(trials, name) == want

    def test_row_order_does_not_matter(self):
        """Two methods at two SNRs, each with failed and surviving trials:
        shuffling the rows leaves every aggregate unchanged.  Two users per
        trial keep each user average exact in either order."""
        rng = np.random.default_rng(7)
        rows = []
        for method in ("a", "b"):
            for snr in (0.0, 10.0):
                for trial in range(5):
                    peaks = 1 if trial in (1, 3) else 2
                    for ue in range(2):
                        nm, bf = rng.uniform(0.01, 1.0, 2)
                        rows.append(self._row(method, snr, trial, ue, nm, bf, peaks=peaks))
        want = aggregate(rows, ["a", "b"], [0.0, 10.0], 2)
        assert [(a.trials_ok, a.trials_failed) for a in want] == [(3, 2)] * 4
        for seed in range(3):
            shuffled = [rows[i] for i in np.random.default_rng(seed).permutation(len(rows))]
            assert aggregate(shuffled, ["a", "b"], [0.0, 10.0], 2) == want
