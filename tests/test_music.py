import dataclasses
import math

import numpy as np
import pytest

from nfmusic import music
from nfmusic.channel import array_response, channel_matrix, farfield_response, polar_response
from nfmusic.geometry import ArrayGeometry, PolarLocation, UeLocation, cart_to_polar, polar_to_cart
from nfmusic.harness import ExperimentConfig, place_ues
from nfmusic.metrics import match_estimates
from nfmusic.music import (
    EPS_SCALE,
    GridAxis,
    GridSpec,
    SpectrumGrid,
    find_peaks,
    spectrum_1d_distance,
    spectrum_2d_angular,
    spectrum_3d,
    two_step_estimate,
)
from nfmusic.signal import ROLE_NOISE, ROLE_PILOTS, gen_pilots, received_block, stream
from nfmusic.subspace import noise_subspace, sample_covariance, smoothed_covariance


@pytest.fixture(scope="module")
def geo16():
    return ArrayGeometry(16, 0.05 * math.sqrt(2), 0.1)


def random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestGridAxis:
    def test_uniform_points(self):
        ax = GridAxis("azimuth", -1.0, 1.0, 5)
        assert np.allclose(ax.points(), [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_inverse_distance_points(self):
        ax = GridAxis("distance", 2.0, 10.0, 3, spacing="inverse")
        pts = ax.points()
        assert pts[0] == pytest.approx(2.0)
        assert pts[-1] == pytest.approx(10.0)
        # uniform in 1/d: middle point is the harmonic midpoint
        assert pts[1] == pytest.approx(1.0 / ((1 / 2.0 + 1 / 10.0) / 2))

    def test_validation(self):
        with pytest.raises(ValueError):
            GridAxis("azimuth", 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            GridAxis("azimuth", 1.0, 0.0, 4)
        with pytest.raises(ValueError):
            GridAxis("distance", 0.0, 4.0, 4)
        with pytest.raises(ValueError):
            GridAxis("distance", 1.0, 4.0, 4, spacing="log")
        for lo, hi in ((1.0, math.inf), (math.nan, 4.0), (-math.inf, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                GridAxis("azimuth", lo, hi, 4)


class TestSpectrumPositivity:
    def test_rejects_nonpositive_values(self):
        grid = GridSpec((GridAxis("distance", 1.0, 2.0, 3),))
        with pytest.raises(ValueError):
            SpectrumGrid(grid=grid, values=np.array([1.0, 0.0, 2.0]))


class TestSpectrum3d:
    def test_noiseless_on_grid_source_is_global_max(self, geo16):
        grid = GridSpec(
            (
                GridAxis("x", -0.5, 0.5, 11),
                GridAxis("y", -0.5, 0.5, 11),
                GridAxis("z", 1.0, 3.0, 9),
            )
        )
        xs, ys, zs = grid.axis_points()
        loc = UeLocation(xs[4], ys[7], zs[3])
        cov = sample_covariance([channel_matrix(geo16, [loc]).entries[:, 0]])
        spec = spectrum_3d(noise_subspace(cov, 1), grid, geo16)
        assert np.unravel_index(np.argmax(spec.values), spec.values.shape) == (4, 7, 3)

    def test_xz_slice(self, geo16):
        grid = GridSpec((GridAxis("x", -1.0, 1.0, 9), GridAxis("z", 1.0, 3.0, 9)))
        loc = UeLocation(grid.axis_points()[0][6], 0.0, grid.axis_points()[1][2])
        cov = sample_covariance([channel_matrix(geo16, [loc]).entries[:, 0]])
        spec = spectrum_3d(noise_subspace(cov, 1), grid, geo16)
        assert spec.values.shape == (9, 9)
        assert np.unravel_index(np.argmax(spec.values), spec.values.shape) == (6, 2)

    def test_counts_every_grid_point(self, geo16):
        grid = GridSpec(
            (GridAxis("x", -0.5, 0.5, 7), GridAxis("y", -0.5, 0.5, 5), GridAxis("z", 1.0, 2.0, 3))
        )
        cov = sample_covariance(np.eye(16))
        spec = spectrum_3d(noise_subspace(cov, 1), grid, geo16)
        assert spec.values.shape == (7, 5, 3)
        assert spec.values.size == 7 * 5 * 3

    def test_rejects_nonpositive_z(self, geo16):
        grid = GridSpec((GridAxis("x", -1.0, 1.0, 3), GridAxis("z", -1.0, 1.0, 3)))
        cov = sample_covariance(np.eye(16))
        with pytest.raises(ValueError):
            spectrum_3d(noise_subspace(cov, 1), grid, geo16)


class TestSpectrum2dAngular:
    def test_far_source_peak_within_one_cell(self, geo16):
        grid = GridSpec(
            (GridAxis("azimuth", -1.2, 1.2, 61), GridAxis("elevation", -0.9, 0.9, 41))
        )
        _, d_far = 0.0, 100 * 2 * 16 * geo16.element_diag**2 / geo16.wavelength
        truth = PolarLocation(0.42, -0.31, d_far)
        cov = sample_covariance([channel_matrix(geo16, [polar_to_cart(truth)]).entries[:, 0]])
        spec = spectrum_2d_angular(noise_subspace(cov, 1), grid, geo16)
        peak = find_peaks(spec, 1).peaks[0]
        az_cell = 2.4 / 60
        el_cell = 1.8 / 40
        assert abs(peak.coords[0] - truth.azimuth) <= az_cell
        assert abs(peak.coords[1] - truth.elevation) <= el_cell

    def test_invariant_to_unitary_rotation_of_subspace(self, geo16):
        rng = np.random.default_rng(3)
        locs = [UeLocation(0.2, 0.1, 2.0), UeLocation(-0.3, -0.2, 3.0)]
        a = channel_matrix(geo16, locs)
        block = received_block(a, gen_pilots(2, 8, stream(3, 0)), 15.0, stream(3, 1))
        un = noise_subspace(sample_covariance(block.received.T), 2)
        grid = GridSpec((GridAxis("azimuth", -1.0, 1.0, 21), GridAxis("elevation", -0.7, 0.7, 15)))
        base = spectrum_2d_angular(un, grid, geo16).values
        rotated = dataclasses.replace(
            un,
            matrix=un.matrix @ random_unitary(rng, 14),
            signal=un.signal @ random_unitary(rng, 2),
        )
        assert not np.allclose(rotated.signal, un.signal)
        assert np.allclose(spectrum_2d_angular(rotated, grid, geo16).values, base, rtol=1e-9)

    def test_steering_bank_is_cached_read_only(self, geo16):
        grid = GridSpec((GridAxis("azimuth", -1.0, 1.0, 13), GridAxis("elevation", -0.7, 0.7, 9)))
        first = music._angular_bank(geo16, 3, grid)
        # keyed on the geometry's value: an equal array shares the entry
        twin = ArrayGeometry(geo16.n_antennas, geo16.element_diag, geo16.wavelength)
        assert music._angular_bank(twin, 3, grid) is first
        steering, norms = first
        with pytest.raises(ValueError):
            steering[0, 0] = 0.0
        with pytest.raises(ValueError):
            norms[0] = 0.0

        un = noise_subspace(sample_covariance(np.eye(16)), 1)
        hits = music._angular_bank.cache_info().hits
        spectrum_2d_angular(un, grid, geo16)
        spectrum_2d_angular(un, grid, geo16)
        assert music._angular_bank.cache_info().hits >= hits + 1

    def test_noiseless_user_spectrum_bounded_by_guard(self, geo16):
        """At exact orthogonality ||a||^2 - ||U_s^H a||^2 rounds to either
        side of zero; the clamp keeps every value at or below 1/(eps ||a||^2)."""
        grid = GridSpec((GridAxis("azimuth", -1.0, 1.0, 21), GridAxis("elevation", -0.7, 0.7, 15)))
        az, el = grid.axis_points()
        ceiling = (1.0 + 1e-9) / (EPS_SCALE * geo16.n_antennas)
        below_zero = 0
        for i in range(1, 20, 2):
            for j in range(1, 14, 3):
                a = farfield_response(geo16, az[i], el[j])
                un = noise_subspace(sample_covariance([a]), 1)
                below_zero += np.vdot(a, a).real < np.sum(np.abs(un.signal.conj().T @ a) ** 2)
                values = spectrum_2d_angular(un, grid, geo16).values
                assert np.all(np.isfinite(values)) and np.all(values > 0)
                assert values.max() <= ceiling
                assert np.unravel_index(np.argmax(values), values.shape) == (i, j)
        assert below_zero > 0


class TestSignalSubspaceForm:
    """Every spectrum equals the noise-subspace quotient 1/(||U_n^H a||^2 + eps ||a||^2),
    with steering vectors ``a`` taken from the channel models."""

    @staticmethod
    def _quotient(un, a):
        return 1.0 / (np.sum(np.abs(un.matrix.conj().T @ a) ** 2) + EPS_SCALE * np.vdot(a, a).real)

    @pytest.fixture(scope="class")
    def block(self, geo16):
        locs = [UeLocation(0.2, 0.1, 2.0), UeLocation(-0.3, -0.2, 3.0)]
        a = channel_matrix(geo16, locs)
        return received_block(a, gen_pilots(2, 8, stream(12, 0)), 15.0, stream(12, 1))

    def test_angular(self, geo16, block):
        un = noise_subspace(smoothed_covariance(block, 1), 2)
        grid = GridSpec((GridAxis("azimuth", -1.0, 1.0, 21), GridAxis("elevation", -0.7, 0.7, 15)))
        az, el = grid.axis_points()
        centers = geo16.subgrid_centers(3)
        want = [[self._quotient(un, farfield_response(geo16, x, y, centers)) for y in el] for x in az]
        got = spectrum_2d_angular(un, grid, geo16).values
        assert np.allclose(got, want, rtol=1e-9, atol=0)

    def test_distance(self, geo16, block):
        un = noise_subspace(sample_covariance(block.received.T), 2)
        grid = GridSpec((GridAxis("distance", 1.0, 6.0, 31),))
        dists = grid.axis_points()[0]
        want = [self._quotient(un, polar_response(geo16, 0.3, -0.1, d)) for d in dists]
        got = spectrum_1d_distance(un, 0.3, -0.1, grid, geo16).values
        assert np.allclose(got, want, rtol=1e-9, atol=0)

    def test_3d(self, geo16, block):
        un = noise_subspace(sample_covariance(block.received.T), 2)
        grid = GridSpec((GridAxis("x", -1.0, 1.0, 9), GridAxis("z", 1.0, 3.0, 9)))
        xs, zs = grid.axis_points()
        want = []
        for x in xs:
            for z in zs:
                a = array_response(geo16, x, 0.0, z)
                want.append(self._quotient(un, a / np.linalg.norm(a)))
        got = spectrum_3d(un, grid, geo16).values
        assert np.allclose(got.ravel(), want, rtol=1e-9, atol=0)


class TestSpectrum1dDistance:
    def test_noiseless_on_grid_argmax_at_truth(self, geo16):
        grid = GridSpec((GridAxis("distance", 1.0, 6.0, 41),))
        d_true = float(grid.axis_points()[0][13])
        truth = PolarLocation(0.25, 0.1, d_true)
        cov = sample_covariance([channel_matrix(geo16, [polar_to_cart(truth)]).entries[:, 0]])
        un = noise_subspace(cov, 1)
        spec = spectrum_1d_distance(un, truth.azimuth, truth.elevation, grid, geo16)
        assert int(np.argmax(spec.values)) == 13

    def test_invariant_to_common_phase_of_snapshots(self, geo16):
        grid = GridSpec((GridAxis("distance", 1.0, 6.0, 31),))
        loc = UeLocation(0.3, 0.0, 2.4)
        a = channel_matrix(geo16, [loc])
        block = received_block(a, gen_pilots(1, 4, stream(4, 0)), math.inf)
        un1 = noise_subspace(sample_covariance(block.received.T), 1)
        un2 = noise_subspace(sample_covariance((1j * 0.5 * block.received).T), 1)
        p = cart_to_polar(loc)
        s1 = spectrum_1d_distance(un1, p.azimuth, p.elevation, grid, geo16)
        s2 = spectrum_1d_distance(un2, p.azimuth, p.elevation, grid, geo16)
        assert np.argmax(s1.values) == np.argmax(s2.values)


class TestFindPeaks:
    def _grid1d(self, n):
        return GridSpec((GridAxis("distance", 1.0, 2.0, n),))

    def test_monotone_ramp_has_no_peaks(self):
        vals = np.linspace(1.0, 2.0, 20)
        peaks = find_peaks(SpectrumGrid(self._grid1d(20), vals), 3)
        assert peaks.found == 0
        assert not peaks.complete

    def test_single_interior_spike(self):
        vals = np.ones(15)
        vals[7] = 5.0
        peaks = find_peaks(SpectrumGrid(self._grid1d(15), vals), 1)
        assert peaks.found == 1
        assert peaks.peaks[0].indices == (7,)

    def test_boundary_is_never_a_peak(self):
        vals = np.ones(10)
        vals[0] = 9.0
        vals[-1] = 8.0
        assert find_peaks(SpectrumGrid(self._grid1d(10), vals), 2).found == 0

    def test_planted_maxima_against_brute_scan(self):
        rng = np.random.default_rng(6)
        grid = GridSpec((GridAxis("azimuth", -1.0, 1.0, 30), GridAxis("elevation", -1.0, 1.0, 25)))
        vals = rng.uniform(0.1, 0.2, size=(30, 25))
        spots = [(5, 5, 3.0), (10, 20, 5.0), (20, 3, 4.0), (25, 12, 2.0), (14, 14, 1.0)]
        for i, j, v in spots:
            vals[i, j] = v
        peaks = find_peaks(SpectrumGrid(grid, vals), 3)

        brute = []
        for i in range(1, 29):
            for j in range(1, 24):
                v = vals[i, j]
                if v > vals[i - 1, j] and v > vals[i + 1, j] and v > vals[i, j - 1] and v > vals[i, j + 1]:
                    brute.append((v, i, j))
        brute.sort(reverse=True)
        assert peaks.found == 3
        assert [p.indices for p in peaks.peaks] == [(i, j) for _, i, j in brute[:3]]
        assert [p.value for p in peaks.peaks] == sorted((p.value for p in peaks.peaks), reverse=True)

    def test_tie_breaks_by_lowest_linear_index(self):
        vals = np.ones(11)
        vals[3] = 2.0
        vals[8] = 2.0
        peaks = find_peaks(SpectrumGrid(self._grid1d(11), vals), 2)
        assert [p.indices[0] for p in peaks.peaks] == [3, 8]

    def test_two_cell_plateau_keeps_its_lower_cell(self):
        vals = np.array([1.0, 2.0, 5.0, 5.0, 2.0, 1.0])
        peaks = find_peaks(SpectrumGrid(self._grid1d(6), vals), 2)
        assert [p.indices for p in peaks.peaks] == [(2,)]

    def test_three_cell_plateau_keeps_its_first_cell(self):
        vals = np.array([1.0, 2.0, 5.0, 5.0, 5.0, 2.0, 1.0])
        peaks = find_peaks(SpectrumGrid(self._grid1d(7), vals), 2)
        assert [p.indices for p in peaks.peaks] == [(2,)]

    def test_two_dimensional_plateau_keeps_its_lower_index_cell(self):
        grid = GridSpec((GridAxis("azimuth", -1.0, 1.0, 6), GridAxis("elevation", -1.0, 1.0, 5)))
        vals = np.ones((6, 5))
        vals[2, 2] = vals[3, 2] = 4.0
        peaks = find_peaks(SpectrumGrid(grid, vals), 2)
        assert [p.indices for p in peaks.peaks] == [(2, 2)]


class TestTwoStep:
    def test_noiseless_two_on_grid_sources_recovered_exactly(self):
        g = ArrayGeometry(64, 0.1 / math.sqrt(2), 0.1)
        angle_grid = GridSpec(
            (GridAxis("azimuth", -1.2, 1.2, 49), GridAxis("elevation", -0.9, 0.9, 37))
        )
        dist_grid = GridSpec((GridAxis("distance", 1.2, 6.4, 33),))
        azp, elp = angle_grid.axis_points()
        dp = dist_grid.axis_points()[0]
        truths = [
            PolarLocation(float(azp[30]), float(elp[14]), float(dp[4])),
            PolarLocation(float(azp[12]), float(elp[24]), float(dp[10])),
        ]
        a = channel_matrix(g, [polar_to_cart(p) for p in truths])
        block = received_block(a, gen_pilots(2, 2, stream(5, 0)), math.inf)
        res = two_step_estimate(block, g, 2, 1, angle_grid, dist_grid)
        assert res.angular_peaks.complete and len(res.locations) == 2
        got = sorted(res.locations, key=lambda p: p.azimuth)
        want = sorted(truths, key=lambda p: p.azimuth)
        for e, t in zip(got, want):
            assert e.azimuth == t.azimuth
            assert e.elevation == t.elevation
            assert e.distance == t.distance

    def test_evaluation_count_is_exact(self, geo16):
        angle_grid = GridSpec(
            (GridAxis("azimuth", -1.0, 1.0, 18), GridAxis("elevation", -0.8, 0.8, 11))
        )
        dist_grid = GridSpec((GridAxis("distance", 1.0, 3.0, 13),))
        locs = [UeLocation(0.2, 0.1, 1.5), UeLocation(-0.4, -0.2, 2.0)]
        a = channel_matrix(geo16, locs)
        block = received_block(a, gen_pilots(2, 3, stream(6, 0)), 20.0, stream(6, 1))
        res = two_step_estimate(block, geo16, 2, 1, angle_grid, dist_grid)
        evals = res.angular_spectrum.values.size + sum(d.values.size for d in res.distance_spectra)
        assert evals == 18 * 11 + res.angular_peaks.found * 13

    def test_scaling_snapshots_leaves_peaks_unchanged(self, geo16):
        angle_grid = GridSpec(
            (GridAxis("azimuth", -1.0, 1.0, 18), GridAxis("elevation", -0.8, 0.8, 11))
        )
        dist_grid = GridSpec((GridAxis("distance", 1.0, 3.0, 13),))
        locs = [UeLocation(0.2, 0.1, 1.5)]
        a = channel_matrix(geo16, locs)
        block = received_block(a, gen_pilots(1, 3, stream(7, 0)), 20.0, stream(7, 1))
        scaled = dataclasses.replace(block, received=(0.3 - 2.1j) * block.received)
        r1 = two_step_estimate(block, geo16, 1, 1, angle_grid, dist_grid)
        r2 = two_step_estimate(scaled, geo16, 1, 1, angle_grid, dist_grid)
        assert r1.locations == r2.locations

    def test_warns_when_snapshot_budget_below_sources(self, geo16):
        angle_grid = GridSpec(
            (GridAxis("azimuth", -1.0, 1.0, 18), GridAxis("elevation", -0.8, 0.8, 11))
        )
        dist_grid = GridSpec((GridAxis("distance", 1.0, 3.0, 13),))
        locs = [
            UeLocation(0.2, 0.1, 1.5),
            UeLocation(-0.4, -0.2, 2.0),
            UeLocation(0.5, -0.3, 2.5),
        ]
        a = channel_matrix(geo16, locs)
        block = received_block(a, gen_pilots(3, 2, stream(8, 0)), 20.0, stream(8, 1))
        res = two_step_estimate(block, geo16, 3, 0, angle_grid, dist_grid)
        assert any("budget" in w for w in res.warnings)

    def test_rejects_subarray_too_small_for_sources(self, geo16):
        angle_grid = GridSpec(
            (GridAxis("azimuth", -1.0, 1.0, 18), GridAxis("elevation", -0.8, 0.8, 11))
        )
        dist_grid = GridSpec((GridAxis("distance", 1.0, 3.0, 13),))
        locs = [UeLocation(0.2, 0.1, 1.5)] * 1
        a = channel_matrix(geo16, locs)
        block = received_block(a, gen_pilots(1, 2, stream(9, 0)), math.inf)
        with pytest.raises(ValueError):
            two_step_estimate(block, geo16, 5, 2, angle_grid, dist_grid)


@pytest.fixture(scope="module")
def mc_results():
    cfg = ExperimentConfig(seed=1, snr_db_list=(20.0,))
    g = cfg.geometry()
    ag, dg = cfg.angular_grid(), cfg.distance_grid()
    az_cell = (cfg.azimuth_range[1] - cfg.azimuth_range[0]) / (cfg.azimuth_grid_points - 1)
    el_cell = (cfg.elevation_range[1] - cfg.elevation_range[0]) / (cfg.elevation_grid_points - 1)
    per_trial = []
    for t in range(200):
        locs = place_ues(cfg, stream(cfg.seed, 0, t, 0))
        truths = [cart_to_polar(l) for l in locs]
        a = channel_matrix(g, locs)
        pilots = gen_pilots(4, 3, stream(cfg.seed, 0, t, ROLE_PILOTS))
        block = received_block(a, pilots, 20.0, stream(cfg.seed, 0, t, ROLE_NOISE))
        res = two_step_estimate(block, g, 4, 1, ag, dg)
        perm = match_estimates(truths, res.locations, 10.0)
        rows = []
        for k, p in enumerate(perm):
            if p is None:
                rows.append(None)
                continue
            e = res.locations[p]
            rows.append(
                (
                    abs(e.azimuth - truths[k].azimuth),
                    abs(e.elevation - truths[k].elevation),
                    abs(e.distance - truths[k].distance),
                    truths[k].distance,
                )
            )
        per_trial.append(rows)
    return per_trial, az_cell, el_cell


class TestMonteCarloAccuracy:
    """Reference-setup accuracy over 200 trials, thresholds frozen from calibration.

    Setup: N=100, K=4, L=3, c_r=1, SNR 20 dB, angles over the default search
    ranges, distances over the radiative near-field range.  Calibrated rates
    on this seed: 83/200 trials with every user within 2 grid cells in angle,
    40/200 trials with per-trial RMS relative distance error under 10%,
    median angular error 0.48 deg, median absolute distance error 0.43 m.
    Assertions leave margin for BLAS-level reproducibility differences only.
    """

    def test_angular_two_cell_rate(self, mc_results):
        per_trial, az_cell, el_cell = mc_results
        good = sum(
            all(r is not None and r[0] <= 2 * az_cell and r[1] <= 2 * el_cell for r in rows)
            for rows in per_trial
        )
        assert good >= 70  # calibrated 83/200

    def test_distance_rms_rate(self, mc_results):
        per_trial, _, _ = mc_results
        good = 0
        for rows in per_trial:
            if any(r is None for r in rows):
                continue
            rms = math.sqrt(np.mean([(r[2] / r[3]) ** 2 for r in rows]))
            good += rms < 0.10
        assert good >= 30  # calibrated 40/200

    def test_median_errors(self, mc_results):
        per_trial, _, _ = mc_results
        ang = [max(r[0], r[1]) for rows in per_trial for r in rows if r is not None]
        dist = [r[2] for rows in per_trial for r in rows if r is not None]
        assert math.degrees(np.median(ang)) < 1.0  # calibrated 0.48 deg
        assert float(np.median(dist)) < 0.5  # calibrated 0.43 m
