import cmath
import math

import numpy as np
import pytest

from nfmusic.channel import (
    ChannelMatrix,
    array_response,
    channel_coefficient,
    channel_exact_integral,
    channel_matrix,
    farfield_response,
    polar_response,
)
from nfmusic.geometry import (
    ArrayGeometry,
    PolarLocation,
    UeLocation,
    near_field_bounds,
    polar_to_cart,
)


@pytest.fixture(scope="module")
def geo():
    return ArrayGeometry(100, 0.1 / math.sqrt(2), 0.1)


def brute_coefficient(g, loc, n, m):
    """Independent scalar re-derivation with explicit arithmetic."""
    cx = (n - (g.side + 1) / 2) * g.element_diag / math.sqrt(2)
    cy = (m - (g.side + 1) / 2) * g.element_diag / math.sqrt(2)
    r = math.sqrt((cx - loc.x) ** 2 + (cy - loc.y) ** 2 + loc.z**2)
    amp = (
        g.element_diag
        / math.sqrt(8 * math.pi)
        * math.sqrt(loc.z * ((cx - loc.x) ** 2 + loc.z**2))
        / r**2.5
    )
    return amp * cmath.exp(-2j * math.pi * r / g.wavelength)


class TestChannelCoefficient:
    def test_directly_above_element(self, geo):
        cx, cy, _ = geo.centers[geo.index(3, 7)]
        z = 2.0
        h = channel_coefficient(geo, UeLocation(cx, cy, z), 3, 7)
        expected = geo.element_diag / (math.sqrt(8 * math.pi) * z)
        assert abs(h) == pytest.approx(expected, rel=1e-12)

    def test_unit_phase_at_integer_wavelength_distance(self, geo):
        # above element center at z = 5 wavelengths: r = 0.5 m exactly
        cx, cy, _ = geo.centers[geo.index(5, 5)]
        h = channel_coefficient(geo, UeLocation(cx, cy, 0.5), 5, 5)
        assert h.imag == pytest.approx(0.0, abs=1e-9)
        assert h.real > 0

    def test_against_independent_evaluation(self, geo):
        loc = UeLocation(1.0, 0.5, 3.0)
        got = channel_coefficient(geo, loc, 1, 1)
        assert got == pytest.approx(brute_coefficient(geo, loc, 1, 1), rel=1e-12)


class TestArrayResponse:
    def test_broadside_mirror_symmetry(self, geo):
        a = array_response(geo, 0.0, 0.0, 2.0).reshape(geo.side, geo.side)
        assert np.allclose(a, a[::-1, :], rtol=1e-9)
        assert np.allclose(a, a[:, ::-1], rtol=1e-9)

    def test_ordering_matches_coefficients(self, geo):
        loc = UeLocation(0.3, -0.2, 2.5)
        a = array_response(geo, loc.x, loc.y, loc.z)
        for n, m in ((1, 1), (1, geo.side), (2, 1), (geo.side, geo.side)):
            assert a[geo.index(n, m)] == pytest.approx(
                channel_coefficient(geo, loc, n, m), rel=1e-12
            )

    def test_norm_matches_elementwise_loop(self, geo):
        loc = UeLocation(0.0, 0.0, 2.0)
        a = array_response(geo, loc.x, loc.y, loc.z)
        total = 0.0
        for n in range(1, geo.side + 1):
            for m in range(1, geo.side + 1):
                total += abs(brute_coefficient(geo, loc, n, m)) ** 2
        assert np.linalg.norm(a) == pytest.approx(math.sqrt(total), rel=1e-12)

    def test_continuity_under_tiny_perturbation(self, geo):
        base = array_response(geo, 0.7, -0.4, 3.1)
        moved = array_response(geo, 0.7 + 1e-9, -0.4, 3.1)
        assert np.linalg.norm(moved - base) / np.linalg.norm(base) < 1e-6


class TestFarfieldResponse:
    def test_broadside_all_ones(self, geo):
        assert np.allclose(farfield_response(geo, 0.0, 0.0), 1.0)

    def test_unit_modulus(self, geo):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = farfield_response(geo, rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
            assert np.allclose(np.abs(a), 1.0, atol=1e-12)

    def test_phases_at_zero_elevation(self):
        g = ArrayGeometry(16, 0.05 * math.sqrt(2), 0.1)
        a = farfield_response(g, math.pi / 6, 0.0)
        k = 2 * math.pi / g.wavelength
        expected = np.exp(1j * k * 0.5 * g.centers[:, 0])
        assert np.allclose(a, expected, atol=1e-12)

    def test_subgrid_restriction(self, geo):
        a = farfield_response(geo, 0.4, 0.1, geo.subgrid_centers(6))
        assert a.shape == (36,)
        full = farfield_response(geo, 0.4, 0.1).reshape(geo.side, geo.side)
        assert np.allclose(a.reshape(6, 6), full[:6, :6], atol=1e-12)


class TestPolarResponse:
    def test_unit_modulus(self, geo):
        a = polar_response(geo, 0.3, -0.2, 2.0)
        assert np.allclose(np.abs(a), 1.0, atol=1e-12)

    def test_farfield_limit(self, geo):
        az, el = 0.5, -0.3
        far = polar_response(geo, az, el, 1e6)
        ff = farfield_response(geo, az, el)
        common = far[0] / ff[0]
        assert np.allclose(far, common * ff, atol=1e-6)

    def test_phase_equals_exact_element_distance(self, geo):
        # phase-only version of the exact response: the per-element phase is
        # the true Euclidean distance when the polar triple matches a location
        az, el, d = math.pi / 8, math.pi / 12, 2.0
        a = polar_response(geo, az, el, d)
        loc = polar_to_cart(PolarLocation(az, el, d))
        for idx in (0, 17, 55, 99):
            cx, cy, _ = geo.centers[idx]
            r = math.sqrt((cx - loc.x) ** 2 + (cy - loc.y) ** 2 + loc.z**2)
            assert a[idx] == pytest.approx(cmath.exp(-2j * math.pi * r / geo.wavelength), abs=1e-9)

    def test_matches_exact_response_phase(self, geo):
        loc = UeLocation(0.8, -0.5, 2.7)
        from nfmusic.geometry import cart_to_polar

        p = cart_to_polar(loc)
        unit = polar_response(geo, p.azimuth, p.elevation, p.distance)
        exact = array_response(geo, loc.x, loc.y, loc.z)
        assert np.allclose(exact / np.abs(exact), unit, atol=1e-9)


class TestBatchedResponses:
    """Column j of a batched call equals the call at point j bit for bit; the
    spectra build their steering matrices from batched calls."""

    @pytest.fixture(scope="class")
    def points(self):
        rng = np.random.default_rng(21)
        p = 7
        return {
            "x": rng.uniform(-2.0, 2.0, p),
            "y": rng.uniform(-2.0, 2.0, p),
            "z": rng.uniform(0.5, 8.0, p),
            "az": rng.uniform(-1.4, 1.4, p),
            "el": rng.uniform(-1.0, 1.0, p),
            "d": rng.uniform(0.5, 12.0, p),
        }

    @staticmethod
    def _assert_columns(batched, single, n_points, n_rows):
        assert batched.shape == (n_rows, n_points)
        for j in range(n_points):
            column = single(j)
            assert column.shape == (n_rows,)
            assert np.array_equal(batched[:, j], column)

    def test_exact(self, geo, points):
        x, y, z = points["x"], points["y"], points["z"]
        self._assert_columns(
            array_response(geo, x, y, z),
            lambda j: array_response(geo, x[j], y[j], z[j]),
            len(x),
            geo.n_antennas,
        )

    def test_channel_matrix_columns(self, geo, points):
        x, y, z = points["x"], points["y"], points["z"]
        cm = channel_matrix(geo, [UeLocation(*c) for c in zip(x, y, z)])
        self._assert_columns(
            cm.entries,
            lambda j: array_response(geo, x[j], y[j], z[j]),
            len(x),
            geo.n_antennas,
        )

    def test_planar_wave(self, geo, points):
        az, el = points["az"], points["el"]
        sub = geo.subgrid_centers(6)
        self._assert_columns(
            farfield_response(geo, az, el, sub),
            lambda j: farfield_response(geo, az[j], el[j], sub),
            len(az),
            36,
        )

    def test_polar_over_distance(self, geo, points):
        d = points["d"]
        self._assert_columns(
            polar_response(geo, 0.3, -0.2, d),
            lambda j: polar_response(geo, 0.3, -0.2, d[j]),
            len(d),
            geo.n_antennas,
        )

    def test_polar_over_all_coordinates(self, geo, points):
        az, el, d = points["az"], points["el"], points["d"]
        sub = geo.subgrid_centers(9)
        self._assert_columns(
            polar_response(geo, az, el, d, sub),
            lambda j: polar_response(geo, az[j], el[j], d[j], sub),
            len(d),
            81,
        )

    def test_rejects_points_behind_the_array(self, geo):
        with pytest.raises(ValueError):
            array_response(geo, np.zeros(3), np.zeros(3), np.array([1.0, 0.0, 2.0]))
        with pytest.raises(ValueError):
            polar_response(geo, 0.1, 0.1, np.array([1.0, -1.0]))


class TestQuotientInvariance:
    def test_common_phase_invariance(self, geo):
        rng = np.random.default_rng(9)
        a = array_response(geo, 0.5, 0.2, 2.2)
        basis, _ = np.linalg.qr(rng.standard_normal((100, 30)) + 1j * rng.standard_normal((100, 30)))
        q0 = np.linalg.norm(basis.conj().T @ a) ** 2
        for _ in range(5):
            c = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            q1 = np.linalg.norm(basis.conj().T @ (c * a)) ** 2
            assert q1 == pytest.approx(q0, rel=1e-10)


class TestChannelMatrix:
    def test_builds_true_columns(self, geo):
        locs = [UeLocation(0.1, 0.2, 2.0), UeLocation(-0.5, 0.0, 4.0)]
        cm = channel_matrix(geo, locs)
        assert cm.entries.shape == (100, 2)
        x, y, z = locs[1].x, locs[1].y, locs[1].z
        assert np.allclose(cm.entries[:, 1], array_response(geo, x, y, z))

    def test_rejects_nonfinite(self, geo):
        bad = np.full((100, 1), np.nan, dtype=complex)
        with pytest.raises(ValueError):
            ChannelMatrix(entries=bad)


class TestExactIntegral:
    def test_quadrature_weights_reproduce_area(self, geo):
        # tensor Gauss-Legendre with the element's half-side scaling must
        # integrate a constant to the element area D**2 / 2
        nodes, weights = np.polynomial.legendre.leggauss(8)
        half = geo.element_diag / math.sqrt(8.0)
        area = np.sum(np.outer(weights, weights)) * half * half
        assert area == pytest.approx(geo.element_diag**2 / 2.0, rel=1e-12)

    def test_matches_closed_form_at_normal_incidence(self, geo):
        # the closed form treats the field as constant per element, which is
        # accurate when the element sees the user near normal incidence
        d_lower, _ = near_field_bounds(geo)
        for n, m in ((1, 1), (5, 5), (10, 3)):
            cx, cy, _ = geo.centers[geo.index(n, m)]
            for d in (d_lower, 2.0, 5.0, 10.0):
                loc = UeLocation(cx, cy, d)
                closed = channel_coefficient(geo, loc, n, m)
                quad = channel_exact_integral(geo, loc, n, m)
                assert quad.converged
                assert abs(quad.value - closed) / abs(closed) < 0.01

    def test_deviation_shrinks_with_distance(self, geo):
        cx, cy, _ = geo.centers[geo.index(4, 4)]
        devs = []
        for d in (1.5, 3.0, 6.0, 12.0):
            loc = UeLocation(cx, cy, d)
            closed = channel_coefficient(geo, loc, 4, 4)
            devs.append(abs(channel_exact_integral(geo, loc, 4, 4).value - closed) / abs(closed))
        assert all(a > b for a, b in zip(devs, devs[1:]))

    def test_smaller_elements_reduce_deviation(self):
        big = ArrayGeometry(100, 0.1 / math.sqrt(2), 0.1)
        small = ArrayGeometry(100, 0.1 / 8.0, 0.1)
        loc = polar_to_cart(PolarLocation(0.4, 0.1, 3.0))

        def rel(g):
            closed = channel_coefficient(g, loc, 3, 4)
            return abs(channel_exact_integral(g, loc, 3, 4).value - closed) / abs(closed)

        # oblique incidence: the electrically smaller element is far closer
        # to the constant-field assumption (calibrated: 7.7e-2 vs 2.1e-3)
        assert rel(small) < rel(big) / 10.0

    def test_convergence_flag(self, geo):
        loc = UeLocation(0.05, 0.0, 2.0)
        res = channel_exact_integral(geo, loc, 5, 5, quad_order=16)
        assert res.converged
        assert res.rel_change < 1e-6

    def test_rejects_low_order(self, geo):
        with pytest.raises(ValueError):
            channel_exact_integral(geo, UeLocation(0, 0, 1.0), 1, 1, quad_order=1)
