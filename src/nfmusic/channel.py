"""Near-field channel models: the one definition of each steering response.

Every response vector in the package comes from one of three models, and the
spectral searches in :mod:`nfmusic.music` call them rather than re-deriving
phases:

* :func:`array_response` — exact spherical-wave model with per-element
  amplitude.  It synthesizes data (:func:`channel_matrix`), reconstructs
  channels at estimated locations, and steers the full-location search
  (``spectrum_3d``).
* :func:`farfield_response` — unit-modulus planar-wave model; it steers the
  angular search (``spectrum_2d_angular``).
* :func:`polar_response` — unit-modulus model whose phase is the exact element
  distance written in polar form; it steers the distance search
  (``spectrum_1d_distance``), which keeps its angle-free part
  (:func:`polar_terms`) per distance grid and adds the angles with
  :func:`polar_steering`.

Each response broadcasts over grid points: scalar coordinates give an (M,)
vector for the M element centres, and (P,) coordinate arrays give an (M, P)
matrix whose column j equals the response at point j, bit for bit.

:func:`channel_exact_integral` integrates the incident field over the element
aperture and serves as a numerical cross-check of the closed-form coefficient.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .geometry import ArrayGeometry, UeLocation


@dataclass(frozen=True)
class ChannelMatrix:
    """N x K channel matrix; ``entries`` column k is the exact array response
    (:func:`array_response`) for user k, true or estimated."""

    entries: np.ndarray

    def __post_init__(self):
        if self.entries.ndim != 2:
            raise ValueError("channel matrix must be 2-D")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("channel entries must be finite")


def _element_xy(centers: np.ndarray, *coords) -> tuple[np.ndarray, np.ndarray]:
    """x and y columns of ``centers`` shaped to broadcast against grid
    coordinates: (M,) when those are scalars, (M, 1) when they are (P,) arrays."""
    shape = (-1,) + (1,) * max(np.ndim(c) for c in coords)
    return centers[:, 0].reshape(shape), centers[:, 1].reshape(shape)


def _spherical_phase(r: np.ndarray, wavelength: float, out=None) -> np.ndarray:
    """exp(-i 2 pi r / wavelength) for path lengths ``r``, written into the
    complex array ``out`` (a new one by default); ``r`` may be ``out.imag``.

    The exponent is scaled by the reciprocal wavelength in real arithmetic,
    which rounds exactly as numpy's division of the complex exponent by the
    wavelength does, without a complex division per entry; its real part is
    an exact zero, so no complex temporary is formed.
    """
    out = np.empty(np.shape(r), dtype=complex) if out is None else out
    exponent = out.imag
    np.multiply(r, -2.0 * math.pi, out=exponent)
    exponent *= 1.0 / wavelength
    out.real = 0.0
    return np.exp(out, out=out)


def array_response(
    g: ArrayGeometry, x, y, z, centers: Optional[np.ndarray] = None
) -> np.ndarray:
    """Exact spherical-wave response to users at Cartesian points (x, y, z).

    Entry n is amp_n * exp(-i 2 pi r_n / wavelength), where r_n is the distance
    from the user to element n, at (x_n, y_n) in ``centers`` (default: the whole
    array, elements in row-major order), and amp_n = D / sqrt(8 pi) *
    sqrt(z ((x_n - x)**2 + z**2)) / r_n**2.5.  The element gain depends on the
    x offset and the height only, not on the y offset.  Every z must be positive.
    """
    x, y, z = (np.asarray(c, dtype=float) for c in (x, y, z))
    if not np.all(z > 0):
        raise ValueError("users must lie in front of the array plane (z > 0)")
    cx, cy = _element_xy(g.centers if centers is None else centers, x, y, z)
    dx = cx - x
    # z**2 by the C library's pow, which is how Python squares a float; numpy's
    # product differs in the last bit for about one height in a thousand, and
    # spectra from rank-deficient few-pilot covariances amplify that bit.
    z2 = np.float_power(z, 2)
    dx2 = dx**2
    r = np.sqrt(dx2 + (cy - y) ** 2 + z2)
    amp = g.element_diag / math.sqrt(8.0 * math.pi) * np.sqrt(z * (dx2 + z2)) / r**2.5
    return amp * _spherical_phase(r, g.wavelength)


def farfield_response(
    g: ArrayGeometry, azimuth, elevation, centers: Optional[np.ndarray] = None
) -> np.ndarray:
    """Planar-wave response, unit modulus per entry.

    Entry n is exp(+i (2 pi / wavelength) (cos(el) sin(az) x_n + sin(el) y_n))
    for the element centres (x_n, y_n) in ``centers`` (default: the whole array).
    """
    centers = g.centers if centers is None else centers
    u = np.cos(elevation) * np.sin(azimuth)
    v = np.sin(elevation)
    x, y = _element_xy(centers, u)
    return np.exp(1j * (2.0 * math.pi / g.wavelength * (x * u + y * v)))


class PolarTerms(NamedTuple):
    """Angle-free part of the polar-form element distance: the element ``x``
    and ``y`` columns, ``d*d + x*x + y*y`` and ``2*d``, shaped to broadcast
    (see :func:`_element_xy`).  :func:`polar_steering` adds the angles."""

    x: np.ndarray
    y: np.ndarray
    radial: np.ndarray
    twice_d: np.ndarray


def polar_terms(distance, centers: np.ndarray, *angles) -> PolarTerms:
    """The angle-free terms of :func:`polar_response` for ``distance`` and the
    element ``centers``; the ``angles`` it will be steered to only set the
    broadcast shape."""
    d = np.asarray(distance, dtype=float)
    if not np.all(d > 0):
        raise ValueError("distance must be positive")
    x, y = _element_xy(centers, d, *angles)
    return PolarTerms(x, y, d * d + x * x + y * y, 2.0 * d)


def polar_steering(g: ArrayGeometry, terms: PolarTerms, azimuth, elevation) -> np.ndarray:
    """:func:`polar_response` at ``azimuth`` and ``elevation`` from its
    angle-free ``terms``; the squared distance, the distance and the phase
    are computed in place in the returned array."""
    u = np.cos(elevation) * np.sin(azimuth)
    v = np.sin(elevation)
    shift = u * terms.x + v * terms.y
    out = np.empty(np.broadcast_shapes(terms.radial.shape, shift.shape), dtype=complex)
    r = out.imag
    np.multiply(terms.twice_d, shift, out=r)
    np.subtract(terms.radial, r, out=r)
    np.sqrt(r, out=r)
    return _spherical_phase(r, g.wavelength, out)


def polar_response(g: ArrayGeometry, azimuth, elevation, distance) -> np.ndarray:
    """Unit-modulus spherical-phase response parameterized in polar form.

    Phase per element is -(2 pi / wavelength) times the polar-form distance
    sqrt(d**2 + x**2 + y**2 - 2 d (cos(el) sin(az) x + sin(el) y)) to the
    element centre (x, y) of ``g``, so the vector is a literal phase-only
    version of the exact response; only the per-element amplitude is dropped.
    The common distance-dependent phase is kept (spectral quotients are
    invariant to it).  It is :func:`polar_steering` of :func:`polar_terms`,
    so a search over distance can keep the angle-free terms and pay only the
    per-angle remainder.
    """
    return polar_steering(g, polar_terms(distance, g.centers, azimuth, elevation), azimuth, elevation)


def channel_matrix(g: ArrayGeometry, locations: Sequence[UeLocation]) -> ChannelMatrix:
    """Stack exact array responses for several users into a channel matrix."""
    if not locations:
        raise ValueError("at least one user location required")
    x, y, z = np.array([(loc.x, loc.y, loc.z) for loc in locations]).T
    return ChannelMatrix(entries=array_response(g, x, y, z))


class QuadratureResult(NamedTuple):
    value: complex
    converged: bool
    rel_change: float


def channel_exact_integral(
    g: ArrayGeometry, loc: UeLocation, n: int, m: int, quad_order: int = 16
) -> QuadratureResult:
    """Aperture-integral channel to element (n, m) via Gauss-Legendre quadrature.

    Integrates the normalized incident field over the square element area
    (side D/sqrt(2)) with a tensor-product rule of ``quad_order`` nodes per
    axis.  ``converged`` is False when doubling the order moves the result
    by more than 1e-6 relative.
    """
    if quad_order < 2:
        raise ValueError("quad_order must be >= 2")

    def integrate(order: int) -> complex:
        nodes, weights = np.polynomial.legendre.leggauss(order)
        half = g.element_diag / math.sqrt(8.0)  # half of the element side
        cx, cy, _ = g.centers[g.index(n, m)]
        xs = cx + half * nodes
        ys = cy + half * nodes
        xg, yg = np.meshgrid(xs, ys, indexing="ij")
        r = np.sqrt((xg - loc.x) ** 2 + (yg - loc.y) ** 2 + loc.z**2)
        field = (
            1.0
            / math.sqrt(4.0 * math.pi)
            * np.sqrt(loc.z * ((xg - loc.x) ** 2 + loc.z**2))
            / r**2.5
            * np.exp(-2j * math.pi * r / g.wavelength)
        )
        w2d = np.outer(weights, weights) * half * half
        integral = np.sum(w2d * field)
        return complex(math.sqrt(2.0) / g.element_diag * integral)

    coarse = integrate(quad_order)
    fine = integrate(2 * quad_order)
    rel = abs(fine - coarse) / max(abs(fine), 1e-300)
    return QuadratureResult(value=fine, converged=rel <= 1e-6, rel_change=rel)
