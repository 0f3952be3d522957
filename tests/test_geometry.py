import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nfmusic.geometry import (
    ArrayGeometry,
    PolarLocation,
    UeLocation,
    cart_to_polar,
    near_field_bounds,
    polar_to_cart,
)


class TestBuildGeometry:
    def test_first_center_n100(self):
        # direct evaluation: (1 - 11/2) * 0.1/sqrt(2)/sqrt(2) = -4.5 * 0.05
        g = ArrayGeometry(100, 0.1 / math.sqrt(2), 0.1)
        assert g.centers[0, 0] == pytest.approx(-0.225, abs=1e-12)
        assert g.centers[0, 1] == pytest.approx(-0.225, abs=1e-12)

    def test_middle_row_on_axis_for_odd_side(self):
        g = ArrayGeometry(81, 0.03, 0.1)  # side 9, middle n = 5
        mid = g.index(5, 5)
        assert g.centers[mid, 0] == 0.0
        assert g.centers[mid, 1] == 0.0

    def test_spacing_is_diag_over_sqrt2(self):
        g = ArrayGeometry(16, 0.07, 0.1)
        xs = g.centers.reshape(4, 4, 3)[:, 0, 0]
        assert np.allclose(np.diff(xs), 0.07 / math.sqrt(2), atol=1e-15)

    def test_centers_symmetric_about_origin(self):
        g = ArrayGeometry(49, 0.05, 0.1)
        xs = np.sort(g.centers[:, 0])
        assert np.allclose(xs, -xs[::-1], atol=1e-15)
        assert abs(g.centers[:, 0].sum()) < 1e-12
        assert abs(g.centers[:, 1].sum()) < 1e-12

    @pytest.mark.parametrize("n", [5, 8, 12, 2])
    def test_rejects_non_square_count(self, n):
        with pytest.raises(ValueError):
            ArrayGeometry(n, 0.05, 0.1)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            ArrayGeometry(16, -0.05, 0.1)
        with pytest.raises(ValueError):
            ArrayGeometry(16, 0.05, 0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                ArrayGeometry(16, bad, 0.1)
            with pytest.raises(ValueError, match="finite"):
                ArrayGeometry(16, 0.05, bad)

    def test_value_type_with_read_only_cached_centers(self):
        g = ArrayGeometry(16, 0.05, 0.1)
        assert [f.name for f in dataclasses.fields(g)] == [
            "n_antennas", "element_diag", "wavelength"
        ]
        assert g == ArrayGeometry(16, 0.05, 0.1)
        assert hash(g) == hash(ArrayGeometry(16, 0.05, 0.1))
        assert g.centers is g.centers
        with pytest.raises(ValueError):
            g.centers[0, 0] = 1.0

    def test_row_major_index(self):
        g = ArrayGeometry(16, 0.05, 0.1)
        assert g.index(1, 1) == 0
        assert g.index(1, 4) == 3
        assert g.index(2, 1) == 4
        assert g.index(4, 4) == 15


class TestCoordinateTransforms:
    def test_broadside(self):
        p = cart_to_polar(UeLocation(0.0, 0.0, 5.0))
        assert p.azimuth == 0.0
        assert p.elevation == 0.0
        assert p.distance == 5.0

    def test_known_point(self):
        loc = polar_to_cart(PolarLocation(math.pi / 4, 0.0, 2.0))
        assert loc.x == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert loc.y == pytest.approx(0.0, abs=1e-12)
        assert loc.z == pytest.approx(math.sqrt(2.0), rel=1e-12)

    @given(
        az=st.floats(-1.4, 1.4),
        el=st.floats(-1.4, 1.4),
        d=st.floats(0.1, 100.0),
    )
    def test_round_trip_identity(self, az, el, d):
        p = PolarLocation(az, el, d)
        q = cart_to_polar(polar_to_cart(p))
        assert q.azimuth == pytest.approx(az, abs=1e-12)
        assert q.elevation == pytest.approx(el, abs=1e-12)
        assert q.distance == pytest.approx(d, rel=1e-12)

    def test_distance_is_norm(self):
        loc = UeLocation(1.0, -2.0, 3.0)
        assert cart_to_polar(loc).distance == pytest.approx(math.sqrt(14.0), rel=1e-14)

    def test_rejects_nonpositive_z(self):
        with pytest.raises(ValueError):
            UeLocation(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            UeLocation(1.0, 1.0, -2.0)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            PolarLocation(0.1, 0.1, 0.0)


class TestNearFieldBounds:
    def test_reference_setup_values(self):
        g = ArrayGeometry(100, 0.1 / math.sqrt(2), 0.1)
        d_lower, d_upper = near_field_bounds(g)
        assert d_lower == pytest.approx(2.0 * (0.1 / math.sqrt(2)) * 10.0, rel=1e-12)
        assert d_lower == pytest.approx(1.414, abs=5e-4)
        assert d_upper == pytest.approx(10.0, rel=1e-12)

    def test_small_array(self):
        g = ArrayGeometry(4, 0.1, 0.1)
        d_lower, _ = near_field_bounds(g)
        assert d_lower == pytest.approx(4 * 0.1, rel=1e-12)
