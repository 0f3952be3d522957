"""Uniform planar array layout, coordinate transforms, and near-field range limits.

The array sits in the z=0 plane, centered on the origin, with sqrt(N) x sqrt(N)
square elements placed edge to edge.  Element (n, m) (1-based, n along x,
m along y) maps to flat index ``(n-1)*sqrt(N) + (m-1)``; every vector-valued
quantity in this package uses that row-major ordering.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class ArrayGeometry:
    """Square uniform planar array of ``n_antennas`` elements.

    Attributes:
        n_antennas: Total element count N; a perfect square >= 4.
        element_diag: Diagonal length D of one square element, meters, finite
            and positive.  Inter-element spacing along x and y is D/sqrt(2).
        wavelength: Carrier wavelength in meters, finite and positive.
    """

    n_antennas: int
    element_diag: float
    wavelength: float

    def __post_init__(self):
        if self.n_antennas < 4 or math.isqrt(self.n_antennas) ** 2 != self.n_antennas:
            raise ValueError(f"n_antennas must be a perfect square >= 4, got {self.n_antennas}")
        if not (0 < self.element_diag < math.inf and 0 < self.wavelength < math.inf):
            raise ValueError("element_diag and wavelength must be finite and positive")

    @functools.cached_property
    def centers(self) -> np.ndarray:
        """(N, 3) read-only element centers, row-major in (n, m), at
        ((n - (sqrt(N)+1)/2) * D/sqrt(2), (m - (sqrt(N)+1)/2) * D/sqrt(2), 0)."""
        offsets = (np.arange(1, self.side + 1) - (self.side + 1) / 2.0) * self.spacing
        xs, ys = np.meshgrid(offsets, offsets, indexing="ij")  # n over x, m over y
        centers = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(self.n_antennas)])
        centers.flags.writeable = False
        return centers

    @property
    def side(self) -> int:
        """Elements per row/column, sqrt(N)."""
        return math.isqrt(self.n_antennas)

    @property
    def spacing(self) -> float:
        """Inter-element spacing D/sqrt(2), meters."""
        return self.element_diag / math.sqrt(2.0)

    def index(self, n: int, m: int) -> int:
        """Flat index of element (n, m), both 1-based."""
        return (n - 1) * self.side + (m - 1)


@dataclass(frozen=True)
class UeLocation:
    """Cartesian user location (meters); z > 0 puts the user in front of the array."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not self.z > 0:
            raise ValueError(f"UE must lie in front of the array plane, got z={self.z}")


@dataclass(frozen=True)
class PolarLocation:
    """Polar user location: azimuth/elevation in radians, distance in meters."""

    azimuth: float
    elevation: float
    distance: float

    def __post_init__(self):
        if not self.distance > 0:
            raise ValueError(f"distance must be positive, got {self.distance}")
        half_pi = math.pi / 2
        if not (-half_pi < self.azimuth < half_pi and -half_pi < self.elevation < half_pi):
            raise ValueError(
                f"angles must lie in (-pi/2, pi/2), got azimuth={self.azimuth}, "
                f"elevation={self.elevation}"
            )


def cart_to_polar(loc: UeLocation) -> PolarLocation:
    """Convert Cartesian (x, y, z) to (azimuth, elevation, distance).

    Inverse of :func:`polar_to_cart`; distance is the Euclidean norm.
    """
    d = math.sqrt(loc.x**2 + loc.y**2 + loc.z**2)
    if d <= 0:
        raise ValueError("location must be away from the origin")
    return PolarLocation(
        azimuth=math.atan2(loc.x, loc.z),
        elevation=math.asin(loc.y / d),
        distance=d,
    )


def polar_to_cart(p: PolarLocation) -> UeLocation:
    """Convert (azimuth, elevation, distance) to Cartesian (x, y, z).

    x = d cos(el) sin(az), y = d sin(el), z = d cos(el) cos(az).
    """
    cos_el = math.cos(p.elevation)
    return UeLocation(
        x=p.distance * cos_el * math.sin(p.azimuth),
        y=p.distance * math.sin(p.elevation),
        z=p.distance * cos_el * math.cos(p.azimuth),
    )


def near_field_bounds(g: ArrayGeometry) -> tuple[float, float]:
    """Radiative near-field range limits (d_lower, d_upper) in meters.

    Lower limit is 2 * D * sqrt(N); upper limit is the Fraunhofer distance
    of the full aperture, 2 * (D * sqrt(N))**2 / wavelength.
    """
    root_n = math.sqrt(g.n_antennas)
    d_lower = 2.0 * g.element_diag * root_n
    d_upper = 2.0 * g.n_antennas * g.element_diag**2 / g.wavelength
    return d_lower, d_upper
