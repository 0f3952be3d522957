import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nfmusic import music
from nfmusic.channel import (
    array_response,
    channel_matrix,
    farfield_response,
    polar_response,
    polar_steering,
    polar_terms,
)
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
        assert np.allclose(ax.points, [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_inverse_distance_points(self):
        ax = GridAxis("distance", 2.0, 10.0, 3)
        pts = ax.points
        assert pts[0] == pytest.approx(2.0)
        assert pts[-1] == pytest.approx(10.0)
        # uniform in 1/d: middle point is the harmonic midpoint
        assert pts[1] == pytest.approx(1.0 / ((1 / 2.0 + 1 / 10.0) / 2))

    @pytest.mark.parametrize("name", ["x", "distance"])
    def test_points_are_computed_once_and_read_only(self, name):
        ax = GridAxis(name, 1.0, 4.0, 5)
        pts = ax.points
        assert ax.points is pts
        assert GridSpec((ax,)).axis_points()[0] is pts
        with pytest.raises(ValueError):
            pts[0] = 0.0
        assert np.array_equal(GridAxis(name, 1.0, 4.0, 5).points, pts)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridAxis("azimuth", 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            GridAxis("azimuth", 1.0, 0.0, 4)
        with pytest.raises(ValueError):
            GridAxis("distance", 0.0, 4.0, 4)
        for lo, hi in ((1.0, math.inf), (math.nan, 4.0), (-math.inf, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                GridAxis("azimuth", lo, hi, 4)


class TestSpectrumPositivity:
    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_rejects_nonpositive_values(self, bad, where):
        grid = GridSpec((GridAxis("distance", 1.0, 2.0, 3),))
        values = np.array([1.0, 3.0, 2.0])
        values[where] = bad
        with pytest.raises(ValueError, match="finite and strictly positive"):
            SpectrumGrid(grid=grid, values=values)

    def test_accepts_tiny_and_huge_values(self):
        grid = GridSpec((GridAxis("distance", 1.0, 2.0, 3),))
        SpectrumGrid(grid=grid, values=np.array([5e-324, 1.0, np.finfo(float).max]))


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

    @pytest.mark.parametrize("names", [("x", "y"), ("x",)], ids=["xy", "x"])
    def test_requires_z_axis(self, geo16, names):
        grid = GridSpec(tuple(GridAxis(n, -1.0, 1.0, 3) for n in names))
        cov = sample_covariance(np.eye(16))
        with pytest.raises(ValueError, match="'z' axis"):
            spectrum_3d(noise_subspace(cov, 1), grid, geo16)

    def test_location_bank_is_cached_read_only(self, geo16):
        grid = GridSpec((GridAxis("x", -1.0, 1.0, 5), GridAxis("z", 1.0, 3.0, 7)))
        first = music._location_bank(geo16, grid, 0, 35)
        # keyed on the geometry's value: an equal array shares the entry
        twin = ArrayGeometry(geo16.n_antennas, geo16.element_diag, geo16.wavelength)
        assert music._location_bank(twin, grid, 0, 35) is first
        assert first.shape == (8, 35)
        with pytest.raises(ValueError):
            first[0, 0] = 0.0

        un = noise_subspace(sample_covariance(np.eye(16)), 1)
        spectrum_3d(un, grid, geo16)
        hits = music._location_bank.cache_info().hits
        spectrum_3d(un, grid, geo16)
        assert music._location_bank.cache_info().hits == hits + 1

    def test_location_bank_follows_geometry_and_grid(self, geo16):
        """Alternating two arrays and two grids in one process gives, every
        time, the values of a computation from an empty cache."""
        geos = (geo16, ArrayGeometry(25, geo16.element_diag, geo16.wavelength))
        grids = (
            GridSpec((GridAxis("x", -1.0, 1.0, 9), GridAxis("z", 1.0, 3.0, 9))),
            GridSpec(
                (GridAxis("x", -0.5, 0.5, 7), GridAxis("y", -0.5, 0.5, 5), GridAxis("z", 0.5, 2.0, 4))
            ),
        )
        rng = np.random.default_rng(4)
        subspaces = {}
        for g in geos:
            x = rng.standard_normal((6, g.n_antennas)) + 1j * rng.standard_normal((6, g.n_antennas))
            subspaces[g] = noise_subspace(sample_covariance(x), 2)
        fresh = {}
        for g in geos:
            for grid in grids:
                music._location_bank.cache_clear()
                fresh[g, grid] = spectrum_3d(subspaces[g], grid, g).values
        for _ in range(2):
            for grid in grids:
                for g in geos:
                    got = spectrum_3d(subspaces[g], grid, g).values
                    assert np.array_equal(got, fresh[g, grid])

    @pytest.mark.parametrize(
        "axes, kept_m",
        [
            ((GridAxis("x", -1.0, 1.0, 9), GridAxis("z", 1.0, 3.0, 9)), 2),
            (
                (
                    GridAxis("x", -0.5, 0.5, 7),
                    GridAxis("y", -0.5, 0.5, 5),
                    GridAxis("z", 0.5, 2.0, 4),
                ),
                4,
            ),
        ],
        ids=["xz", "xyz"],
    )
    def test_location_bank_blocks_equal_one_response(self, geo16, axes, kept_m, monkeypatch):
        """A bank filled in blocks of 7 cells, the last one ragged, equals bit
        for bit one ``array_response`` over all its cells divided by its
        column norms, on the rows of the elements (n, m) with m <= kept_m:
        the first of each mirror pair at y = 0, every element otherwise."""
        monkeypatch.setattr(music, "_BLOCK", 7)
        rows = [geo16.index(n, m) for n in range(1, 5) for m in range(1, kept_m + 1)]
        grid = GridSpec(axes)
        coords = dict(zip(grid.names(), grid.axis_points()))
        full = [coords.get(n, np.array([0.0])) for n in music.CARTESIAN_AXES]
        size = math.prod(grid.shape)
        for start, stop in [(0, size), (5, size - 3)]:
            cells = np.unravel_index(np.arange(start, stop), [ax.size for ax in full])
            want = array_response(geo16, *(ax[i] for ax, i in zip(full, cells)))
            want /= np.linalg.norm(want, axis=0, keepdims=True)
            music._location_bank.cache_clear()
            got = music._location_bank(geo16, grid, start, stop)
            assert np.array_equal(got.view(np.uint64), want[rows].view(np.uint64))

    @pytest.mark.parametrize(
        "names, rows", [(("x", "z"), 15), (("y", "z"), 15), (("z",), 9), (("x", "y", "z"), 25)]
    )
    def test_location_bank_keeps_one_row_per_mirror_orbit(self, geo16, names, rows):
        """On a 5 x 5 array each axis held at 0 folds the 5 elements along it
        into 3 orbits, the middle one self-mirrored."""
        g = ArrayGeometry(25, geo16.element_diag, geo16.wavelength)
        grid = GridSpec(tuple(GridAxis(n, 0.5, 2.0, 3) for n in names))
        cells = math.prod(grid.shape)
        assert music._location_bank(g, grid, 0, cells).shape == (rows, cells)

    def test_unfolded_grid_scores_the_whole_bank(self, geo16):
        """An (x, y, z) grid has no mirror orbit of two elements, so its
        spectrum is, bit for bit, the quotient over the full bank."""
        grid = GridSpec(
            (GridAxis("x", -0.5, 0.5, 7), GridAxis("y", -0.5, 0.5, 5), GridAxis("z", 0.5, 2.0, 4))
        )
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 16)) + 1j * rng.standard_normal((5, 16))
        un = noise_subspace(sample_covariance(x), 2)
        bank = music._location_bank(geo16, grid, 0, math.prod(grid.shape))
        want = music._guarded_quotient(1.0, music._column_energy(un.signal.conj().T @ bank))
        assert np.array_equal(spectrum_3d(un, grid, geo16).values.ravel(), want)

    def test_location_bank_build_peak_memory(self):
        """A cold build of the reference plane-slice bank allocates at most
        1.3 times the bank: one block of temporaries, not a second bank."""
        cfg = ExperimentConfig()
        g, grid = cfg.geometry(), cfg.xz_grid()
        music._location_bank.cache_clear()
        tracemalloc.start()
        try:
            bank = music._location_bank(g, grid, 0, math.prod(grid.shape))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            music._location_bank.cache_clear()
        assert peak <= 1.3 * bank.nbytes


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
        rotated = dataclasses.replace(un, signal=un.signal @ random_unitary(rng, 2))
        assert not np.allclose(rotated.signal, un.signal)
        assert np.allclose(spectrum_2d_angular(rotated, grid, geo16).values, base, rtol=1e-9)

    def test_steering_bank_is_cached_read_only(self, geo16):
        grid = GridSpec((GridAxis("azimuth", -1.0, 1.0, 13), GridAxis("elevation", -0.7, 0.7, 9)))
        sub = ArrayGeometry(9, geo16.element_diag, geo16.wavelength)
        first = music._angular_bank(sub, grid)
        # keyed on the steering array's value: an equal array shares the entry
        twin = ArrayGeometry(9, geo16.element_diag, geo16.wavelength)
        assert music._angular_bank(twin, grid) is first
        terms, e_y, upper, starts = first
        # 2 (side - 1) real lag terms per cell; the 6 upper-triangle entries of
        # a 3 x 3 Gram matrix in diagonal order, each diagonal's start
        assert terms.shape == (9, 4, 13) and terms.dtype == float
        assert e_y.shape == (3, 9)
        assert upper.tolist() == [0, 4, 8, 1, 5, 2] and starts.tolist() == [0, 3, 5]
        for array in first:
            with pytest.raises(ValueError):
                array.flat[0] = 0.0

        un = noise_subspace(sample_covariance(np.eye(16)), 1)
        spectrum_2d_angular(un, grid, geo16)
        hits = music._angular_bank.cache_info().hits
        spectrum_2d_angular(un, grid, geo16)
        assert music._angular_bank.cache_info().hits == hits + 1

    @pytest.mark.parametrize(
        "n_antennas, c_r, k, az_lo, az_hi",
        [
            (n, c_r, k, -1.1, 1.0)
            for n in (16, 25, 100)
            for c_r in (0, 1, 2)
            for k in (1, 2, 3, 4)
            if k < (math.isqrt(n) - c_r) ** 2
        ]
        # the large_array steering subgrid (19 x 19), and one-sided azimuths
        + [(400, 1, k, -1.1, 1.0) for k in (1, 4)]
        + [(n, 1, 3, 0.2, 1.3) for n in (25, 100, 400)],
    )
    def test_factored_scan_equals_per_vector_quotient(self, n_antennas, c_r, k, az_lo, az_hi):
        """The lag-sum evaluation equals the noise-subspace quotient of each
        full planar-wave steering vector on the steering subgrid."""
        g = ArrayGeometry(n_antennas, 0.05 * math.sqrt(2), 0.1)
        locs = [UeLocation(0.3 * i - 0.4, 0.2 - 0.15 * i, 1.5 + 0.5 * i) for i in range(k)]
        a = channel_matrix(g, locs)
        pilots = gen_pilots(k, 5, stream(n_antennas, c_r, k, 0))
        block = received_block(a, pilots, 10.0, stream(n_antennas, c_r, k, 1))
        un = noise_subspace(smoothed_covariance(block, c_r), k)
        azimuth = GridAxis("azimuth", az_lo, az_hi, 11)
        grid = GridSpec((azimuth, GridAxis("elevation", -0.8, 0.6, 7)))
        centers = ArrayGeometry(un.dim, g.element_diag, g.wavelength).centers
        az, el = grid.axis_points()
        quotient = TestSignalSubspaceForm._quotient
        want = [[quotient(un, farfield_response(g, x, y, centers)) for y in el] for x in az]
        got = spectrum_2d_angular(un, grid, g).values
        assert got.shape == (11, 7)
        assert np.allclose(got, want, rtol=1e-9, atol=0)

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

    @pytest.mark.parametrize("side", [3, 9, 19])
    def test_steering_models_fix_squared_norm(self, side):
        """The quotient's ||a||**2 is the model's constant: M for every
        planar-wave and polar-phase vector on an M-element steering subgrid,
        1 for every unit-normalized exact-model vector."""
        m = side * side
        g = ArrayGeometry(361, 0.05 * math.sqrt(2), 0.1)
        centers = ArrayGeometry(m, g.element_diag, g.wavelength).centers
        az, el = np.meshgrid(np.linspace(-1.4, 1.4, 29), np.linspace(-1.0, 1.0, 21))
        az, el = az.ravel(), el.ravel()
        distances = GridAxis("distance", 0.3, 60.0, 40).points
        terms = polar_terms(distances, centers)
        banks = [farfield_response(g, az, el, centers)]
        banks += [polar_steering(g, terms, a, e) for a, e in zip(az[::7], el[::7])]
        for bank in banks:
            assert bank.shape[0] == m
            assert np.allclose(music._column_energy(bank), m, rtol=1e-13, atol=0)

        full = ArrayGeometry(m, 0.05 * math.sqrt(2), 0.1)
        grid = GridSpec(
            (GridAxis("x", -3.0, 3.0, 13), GridAxis("y", -2.0, 2.0, 9), GridAxis("z", 0.1, 30.0, 17))
        )
        steering = music._location_bank(full, grid, 0, math.prod(grid.shape))
        assert np.allclose(music._column_energy(steering), 1.0, rtol=1e-13, atol=0)

    def test_angular(self, geo16, block):
        un = noise_subspace(smoothed_covariance(block, 1), 2)
        grid = GridSpec((GridAxis("azimuth", -1.0, 1.0, 21), GridAxis("elevation", -0.7, 0.7, 15)))
        az, el = grid.axis_points()
        centers = ArrayGeometry(9, geo16.element_diag, geo16.wavelength).centers
        want = [[self._quotient(un, farfield_response(geo16, x, y, centers)) for y in el] for x in az]
        got = spectrum_2d_angular(un, grid, geo16).values
        assert np.allclose(got, want, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("n_antennas, c_r", [(16, 0), (16, 1), (361, 0), (400, 1)])
    def test_distance(self, n_antennas, c_r):
        """The scan from the cached angle-free terms equals, bit for bit, the
        guarded quotient over a batched ``polar_response`` (4 x 4, 3 x 3 and
        two 19 x 19 steering subgrids), and the noise-subspace quotient of
        each of its columns."""
        g = ArrayGeometry(n_antennas, 0.05 * math.sqrt(2), 0.1)
        a = channel_matrix(g, [UeLocation(0.2, 0.1, 2.0), UeLocation(-0.3, -0.2, 3.0)])
        block = received_block(a, gen_pilots(2, 8, stream(12, 0)), 15.0, stream(12, 1))
        un = noise_subspace(smoothed_covariance(block, c_r), 2)
        grid = GridSpec((GridAxis("distance", 1.0, 6.0, 31),))
        sub = ArrayGeometry(un.dim, g.element_diag, g.wavelength)
        steering = polar_response(sub, 0.3, -0.1, grid.axis_points()[0])
        captured = music._column_energy(un.signal.conj().T @ steering)
        want = music._guarded_quotient(steering.shape[0], captured)
        for _ in range(2):  # a cold and a warm distance bank
            got = spectrum_1d_distance(un, 0.3, -0.1, grid, g).values
            assert np.array_equal(got, want)
        per_point = [self._quotient(un, steering[:, j]) for j in range(grid.shape[0])]
        assert np.allclose(got, per_point, rtol=1e-9, atol=0)

    def _check_3d(self, geo16, block):
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

    def test_3d(self, geo16, block):
        self._check_3d(geo16, block)

    @pytest.mark.parametrize("n_antennas", [16, 25])
    @pytest.mark.parametrize("names", [("x", "z"), ("y", "z"), ("z",)], ids=["xz", "yz", "z"])
    def test_3d_on_folded_grids(self, geo16, n_antennas, names):
        """A grid that holds x or y at 0 scores a half bank against the
        folded signal basis and keeps the per-point values; on the 5 x 5
        array the middle row or column is its own mirror."""
        g = ArrayGeometry(n_antennas, geo16.element_diag, geo16.wavelength)
        rng = np.random.default_rng(n_antennas)
        x = rng.standard_normal((6, n_antennas)) + 1j * rng.standard_normal((6, n_antennas))
        un = noise_subspace(sample_covariance(x), 2)
        bounds = {"x": (-1.0, 1.0, 7), "y": (-0.8, 0.6, 6), "z": (0.3, 3.0, 5)}
        grid = GridSpec(tuple(GridAxis(n, *bounds[n]) for n in names))
        coords = dict(zip(names, grid.axis_points()))
        want = []
        for point in itertools.product(*(coords.get(n, [0.0]) for n in "xyz")):
            a = array_response(g, *point)
            want.append(self._quotient(un, a / np.linalg.norm(a)))
        got = spectrum_3d(un, grid, g).values
        assert np.allclose(got.ravel(), want, rtol=1e-9, atol=0)

    def test_3d_across_chunks(self, geo16, block, monkeypatch):
        """A grid of 81 cells in chunks of 7 keeps the per-point values, and
        only the last chunk's bank stays cached."""
        monkeypatch.setattr(music, "_CHUNK", 7)
        misses = music._location_bank.cache_info().misses
        self._check_3d(geo16, block)
        info = music._location_bank.cache_info()
        assert info.misses == misses + 12
        assert info.currsize <= 1


class TestSpectrum1dDistance:
    def test_distance_bank_is_cached_read_only(self, geo16):
        grid = GridSpec((GridAxis("distance", 1.0, 6.0, 31),))
        sub = ArrayGeometry(9, geo16.element_diag, geo16.wavelength)
        first = music._distance_bank(sub, grid)
        # keyed on the steering array's value: an equal array shares the entry
        twin = ArrayGeometry(9, geo16.element_diag, geo16.wavelength)
        assert music._distance_bank(twin, grid) is first
        assert first.x.shape == first.y.shape == (9, 1)
        assert first.radial.shape == (9, 31) and first.twice_d.shape == (31,)
        for array in first:
            with pytest.raises(ValueError):
                array.flat[0] = 0.0

        un = noise_subspace(sample_covariance(np.eye(9)), 1)
        spectrum_1d_distance(un, 0.2, 0.1, grid, geo16)
        hits = music._distance_bank.cache_info().hits
        spectrum_1d_distance(un, -0.3, 0.2, grid, geo16)
        assert music._distance_bank.cache_info().hits == hits + 1

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


class TestSteeringArray:
    def test_is_the_leading_block_shifted_to_the_mean_subarray(self):
        """A c_r=1 subspace at N=100 steers on g's leading 9 x 9 block moved
        half a spacing along x and y, the mean of the four subarray offsets,
        so its centres average to the array's centre."""
        g = ArrayGeometry(100, 0.05 * math.sqrt(2), 0.1)
        a = channel_matrix(g, [UeLocation(0.2, 0.1, 2.0), UeLocation(-0.3, -0.2, 3.0)])
        block = received_block(a, gen_pilots(2, 4, stream(5, 0)), 20.0, stream(5, 1))
        un = noise_subspace(smoothed_covariance(block, 1), 2)
        sub = music._steering_array(un, g)
        leading = g.centers.reshape(10, 10, 3)[:9, :9].reshape(81, 3)
        shift = np.array([g.spacing / 2, g.spacing / 2, 0.0])
        assert sub.n_antennas == 81
        assert np.allclose(sub.centers, leading + shift, rtol=0, atol=1e-15)
        assert np.allclose(sub.centers.mean(axis=0), 0.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("dim", [10, 25])
    def test_rejects_a_dimension_that_is_not_a_square_subgrid(self, geo16, dim):
        """A non-square dimension, or a square one beyond the 16-element
        array, fails in both smoothed-subspace scans."""
        un = noise_subspace(sample_covariance(np.eye(dim)), 1)
        angles = GridSpec((GridAxis("azimuth", -1.0, 1.0, 5), GridAxis("elevation", -0.7, 0.7, 5)))
        distances = GridSpec((GridAxis("distance", 1.0, 6.0, 5),))
        with pytest.raises(ValueError, match="not a square subgrid"):
            spectrum_2d_angular(un, angles, geo16)
        with pytest.raises(ValueError, match="not a square subgrid"):
            spectrum_1d_distance(un, 0.2, 0.1, distances, geo16)


class TestFindPeaks:
    def _grid1d(self, n):
        return GridSpec((GridAxis("distance", 1.0, 2.0, n),))

    def test_monotone_ramp_has_no_peaks(self):
        vals = np.linspace(1.0, 2.0, 20)
        peaks = find_peaks(SpectrumGrid(self._grid1d(20), vals), 3)
        assert peaks.found == 0

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
        heights = [vals[p.indices] for p in peaks.peaks]
        assert heights == sorted(heights, reverse=True)

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

    @staticmethod
    def _brute_peaks(values):
        """Interior cells above the lower and at least the upper neighbour on
        every axis, tallest first, ties by linear index."""
        found = []
        for idx in np.ndindex(values.shape):
            if not all(0 < i < n - 1 for i, n in zip(idx, values.shape)):
                continue
            neighbours_ok = True
            for ax in range(values.ndim):
                lower = idx[:ax] + (idx[ax] - 1,) + idx[ax + 1 :]
                upper = idx[:ax] + (idx[ax] + 1,) + idx[ax + 1 :]
                neighbours_ok &= values[idx] > values[lower] and values[idx] >= values[upper]
            if neighbours_ok:
                found.append((-values[idx], np.ravel_multi_index(idx, values.shape), idx))
        return [idx for *_, idx in sorted(found)]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_brute_neighbour_scan(self, data):
        """Integer-valued spectra have ties and plateaus; axes of length 2 have
        no interior and so no peaks."""
        shape = tuple(data.draw(st.lists(st.integers(2, 5), min_size=1, max_size=3)))
        values = data.draw(hnp.arrays(np.float64, shape, elements=st.integers(1, 4).map(float)))
        k = data.draw(st.integers(1, 6))
        grid = GridSpec(tuple(GridAxis(name, -1.0, 1.0, n) for name, n in zip("xyz", shape)))
        peaks = find_peaks(SpectrumGrid(grid, values), k)
        want = self._brute_peaks(values)[:k]
        assert [p.indices for p in peaks.peaks] == want
        assert [values[p.indices] for p in peaks.peaks] == [values[idx] for idx in want]
        points = grid.axis_points()
        for p in peaks.peaks:
            assert p.coords == tuple(points[a][i] for a, i in enumerate(p.indices))
        if 2 in shape:
            assert peaks.found == 0

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
        assert len(res.locations) == 2
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
        assert evals == 18 * 11 + len(res.locations) * 13

    def test_noise_basis_is_built_only_when_read(self, geo16, monkeypatch):
        """The search reads only the signal basis; the noise basis is the
        orthonormal complement of it, computed on first access."""
        made = []

        def recording_noise_subspace(r, k):
            made.append(noise_subspace(r, k))
            return made[-1]

        monkeypatch.setattr(music, "noise_subspace", recording_noise_subspace)
        angle_grid = GridSpec(
            (GridAxis("azimuth", -1.0, 1.0, 18), GridAxis("elevation", -0.8, 0.8, 11))
        )
        dist_grid = GridSpec((GridAxis("distance", 1.0, 3.0, 13),))
        a = channel_matrix(geo16, [UeLocation(0.2, 0.1, 1.5), UeLocation(-0.4, -0.2, 2.0)])
        block = received_block(a, gen_pilots(2, 3, stream(6, 0)), 20.0, stream(6, 1))
        two_step_estimate(block, geo16, 2, 1, angle_grid, dist_grid)
        (un,) = made
        assert "matrix" not in vars(un)
        assert un.matrix.shape == (9, 7)
        assert np.linalg.norm(un.matrix.conj().T @ un.matrix - np.eye(7), 2) <= 1e-12
        assert np.linalg.norm(un.matrix.conj().T @ un.signal, 2) <= 1e-12
        assert un.matrix is un.matrix

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

    @pytest.mark.parametrize(
        "values, want, fallbacks",
        [
            (np.r_[5.0, 1.0, 3.0, np.ones(10)], 0, 1),  # the first cell tops an interior peak
            (np.linspace(13.0, 1.0, 13), 0, 1),  # no interior peak, falling
            (np.linspace(1.0, 13.0, 13), 12, 1),  # no interior peak, rising
            (np.r_[1.0, 4.0, 3.0, np.ones(10)], 1, 0),  # the interior peak is the maximum
        ],
        ids=["first-above-interior", "falling", "rising", "interior"],
    )
    def test_distance_is_first_maximum_of_scan(self, geo16, monkeypatch, values, want, fallbacks):
        """Each distance is its scan's first maximum; a maximum at either grid
        end counts as a boundary fallback, an interior one does not."""
        angle_grid = GridSpec(
            (GridAxis("azimuth", -1.0, 1.0, 18), GridAxis("elevation", -0.8, 0.8, 11))
        )
        dist_grid = GridSpec((GridAxis("distance", 1.0, 3.0, 13),))
        monkeypatch.setattr(
            music, "spectrum_1d_distance", lambda *args: SpectrumGrid(args[3], values)
        )
        a = channel_matrix(geo16, [UeLocation(0.2, 0.1, 1.5)])
        block = received_block(a, gen_pilots(1, 3, stream(7, 0)), 20.0, stream(7, 1))
        res = two_step_estimate(block, geo16, 1, 1, angle_grid, dist_grid)
        (loc,) = res.locations
        assert loc.distance == dist_grid.axis_points()[0][want]
        assert res.boundary_fallbacks == fallbacks

    def test_locations_in_descending_angular_peak_height(self, geo16):
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
        block = received_block(a, gen_pilots(3, 4, stream(8, 0)), 20.0, stream(8, 1))
        res = two_step_estimate(block, geo16, 3, 0, angle_grid, dist_grid)
        az_pts, el_pts = angle_grid.axis_points()
        heights = [
            res.angular_spectrum.values[
                int(np.flatnonzero(az_pts == p.azimuth)[0]),
                int(np.flatnonzero(el_pts == p.elevation)[0]),
            ]
            for p in res.locations
        ]
        assert len(heights) >= 2
        assert heights == sorted(heights, reverse=True)

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
