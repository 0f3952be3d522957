"""Spectral search: full-location, angular, and distance spectra plus peak picking.

The steering vectors come from the models in :mod:`nfmusic.channel`, the same
ones that synthesize and reconstruct channels: ``spectrum_3d`` steers with the
exact response (unit-normalized), ``spectrum_2d_angular`` with the planar-wave
response, and ``spectrum_1d_distance`` with the polar-phase response.

Every spectrum value is ``1 / (a^H U_n U_n^H a + eps)`` for a steering vector
``a`` and a noise subspace ``U_n``; the guard ``eps = 1e-15 * ||a||**2`` keeps
values finite at exact orthogonality.  The noise projection is computed in its
orthogonal-complement form ``||a||**2 - ||U_s^H a||**2`` from the K signal
eigenvectors ``U_s`` (Schmidt, IEEE TAP 1986), which costs K projections per
steering vector instead of M - K; the difference is clamped at zero, where
rounding can push an exactly orthogonal vector below it.  The planar-wave
angular steering bank does not depend on the data, so it is built once per
(array geometry, subgrid side, grid) and kept read-only in a small cache.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import array_response, farfield_response, polar_response
from .geometry import ArrayGeometry, PolarLocation
from .signal import SnapshotBlock
from .subspace import NoiseSubspace, noise_subspace, smoothed_covariance

EPS_SCALE = 1e-15
_CHUNK = 16384

CARTESIAN_AXES = ("x", "y", "z")
ANGULAR_AXES = ("azimuth", "elevation")


@dataclass(frozen=True)
class GridAxis:
    """One search-grid axis with finite bounds ``lo < hi`` and ``count >= 2``.

    ``spacing`` is "uniform" or, for distance axes, "inverse" (points uniform
    in 1/d, concentrating resolution at short range).
    """

    name: str
    lo: float
    hi: float
    count: int
    spacing: str = "uniform"

    def __post_init__(self):
        if self.count < 2:
            raise ValueError(f"axis {self.name!r} needs at least 2 points, got {self.count}")
        if not -math.inf < self.lo < self.hi < math.inf:
            raise ValueError(f"axis {self.name!r} needs finite lo < hi, got {self.lo}, {self.hi}")
        if self.spacing not in ("uniform", "inverse"):
            raise ValueError(f"spacing must be 'uniform' or 'inverse', got {self.spacing!r}")
        if (self.name == "distance" or self.spacing == "inverse") and self.lo <= 0:
            raise ValueError(f"axis {self.name!r} must be strictly positive")

    def points(self) -> np.ndarray:
        if self.spacing == "inverse":
            return 1.0 / np.linspace(1.0 / self.lo, 1.0 / self.hi, self.count)
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class GridSpec:
    """Ordered collection of grid axes defining a 1-D, 2-D, or 3-D search."""

    axes: tuple[GridAxis, ...]

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 3:
            raise ValueError("grids must have 1 to 3 axes")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.count for ax in self.axes)

    def axis_points(self) -> list[np.ndarray]:
        return [ax.points() for ax in self.axes]

    def names(self) -> tuple[str, ...]:
        return tuple(ax.name for ax in self.axes)


@dataclass(frozen=True)
class SpectrumGrid:
    """Spectrum values sampled over a grid; strictly positive everywhere."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ValueError("value array shape must match the grid shape")
        if not np.all(np.isfinite(self.values)) or not np.all(self.values > 0):
            raise ValueError("spectrum values must be finite and strictly positive")


@dataclass(frozen=True)
class Peak:
    indices: tuple[int, ...]
    coords: tuple[float, ...]
    value: float


@dataclass(frozen=True)
class PeakSet:
    """Up to ``requested`` tallest local maxima, sorted by height."""

    peaks: tuple[Peak, ...]
    requested: int

    @property
    def found(self) -> int:
        return len(self.peaks)

    @property
    def complete(self) -> bool:
        return self.found >= self.requested


def _column_energy(x: np.ndarray) -> np.ndarray:
    return np.sum(x.real**2 + x.imag**2, axis=0)


def _quotient_denominators(
    un: NoiseSubspace, steering: np.ndarray, norms: np.ndarray
) -> np.ndarray:
    """||U_n^H a||**2 + eps for each column ``a`` of ``steering``, whose squared
    norms are ``norms``, as max(||a||**2 - ||U_s^H a||**2, 0) + eps."""
    captured = _column_energy(un.signal.conj().T @ steering)
    return np.maximum(norms - captured, 0.0) + EPS_SCALE * norms


def _subgrid_side(un: NoiseSubspace, g: ArrayGeometry) -> int:
    side = math.isqrt(un.dim)
    if side * side != un.dim or side > g.side:
        raise ValueError(
            f"noise subspace dimension {un.dim} is not a square subgrid of the array"
        )
    return side


def _steering_subgrid(g: ArrayGeometry, side: int) -> np.ndarray:
    """Steering centers for a smoothed subspace: the subgrid shifted to the
    mean subarray position.

    A smoothed covariance averages subarrays at offsets 0..c_r, so the
    effective phase reference sits half the total shift away from the first
    subarray.  Centering there cancels the leading-order distance bias; for
    the planar-wave angular scan the shift is only a constant phase and does
    not change the spectrum.
    """
    offset = (g.side - side) * g.spacing / 2.0
    return g.subgrid_centers(side) + np.array([offset, offset, 0.0])


@functools.lru_cache(maxsize=4)
def _angular_bank(g: ArrayGeometry, side: int, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Planar-wave steering vectors over an (azimuth, elevation) grid and their
    squared norms, on the ``side`` x ``side`` steering subgrid of ``g``.

    Both arrays are read-only: every caller, pool workers included, shares them.
    """
    az, el = (m.ravel() for m in np.meshgrid(*grid.axis_points(), indexing="ij"))
    steering = farfield_response(g, az, el, _steering_subgrid(g, side))
    norms = _column_energy(steering)
    steering.flags.writeable = False
    norms.flags.writeable = False
    return steering, norms


def spectrum_3d(un: NoiseSubspace, grid: GridSpec, g: ArrayGeometry) -> SpectrumGrid:
    """Spectrum over Cartesian locations using the exact array response.

    The grid axes must be named among x/y/z (in that relative order); an
    omitted coordinate is held at 0, so an (x, z) grid scans the y=0 plane.
    The z coordinate, when present, must be positive.

    The quotient is evaluated with unit-normalized steering vectors.  The
    exact response's amplitude varies by orders of magnitude over a Cartesian
    box, and the unnormalized quotient rewards low-gain cells near the array
    plane instead of subspace alignment, drowning genuine source peaks.
    """
    names = grid.names()
    if any(n not in CARTESIAN_AXES for n in names) or list(names) != sorted(
        names, key=CARTESIAN_AXES.index
    ):
        raise ValueError(f"grid axes must be ordered from {CARTESIAN_AXES}, got {names}")
    if un.dim != g.n_antennas:
        raise ValueError(
            f"noise subspace dimension {un.dim} does not match the full array ({g.n_antennas})"
        )

    coords = dict(zip(names, grid.axis_points()))
    mesh_axes = [coords.get(n, np.array([0.0])) for n in CARTESIAN_AXES]
    xg, yg, zg = np.meshgrid(*mesh_axes, indexing="ij")
    px, py, pz = xg.ravel(), yg.ravel(), zg.ravel()

    values = np.empty(px.size)
    for start in range(0, px.size, _CHUNK):
        sl = slice(start, min(start + _CHUNK, px.size))
        steering = array_response(g, px[sl], py[sl], pz[sl])
        steering /= np.linalg.norm(steering, axis=0, keepdims=True)
        values[sl] = 1.0 / _quotient_denominators(un, steering, _column_energy(steering))
    return SpectrumGrid(grid=grid, values=values.reshape(grid.shape))


def spectrum_2d_angular(un: NoiseSubspace, grid: GridSpec, g: ArrayGeometry) -> SpectrumGrid:
    """Spectrum over (azimuth, elevation) using the planar-wave response.

    The steering vectors live on the leading square subgrid matching the
    noise-subspace dimension (the full array when no smoothing was applied).
    """
    if grid.names() != ANGULAR_AXES:
        raise ValueError(f"expected axes {ANGULAR_AXES}, got {grid.names()}")
    steering, norms = _angular_bank(g, _subgrid_side(un, g), grid)
    values = 1.0 / _quotient_denominators(un, steering, norms)
    return SpectrumGrid(grid=grid, values=values.reshape(grid.shape))


def spectrum_1d_distance(
    un: NoiseSubspace,
    azimuth: float,
    elevation: float,
    grid: GridSpec,
    g: ArrayGeometry,
) -> SpectrumGrid:
    """Spectrum over distance at fixed angles, using the polar-phase response."""
    if grid.names() != ("distance",):
        raise ValueError(f"expected a single 'distance' axis, got {grid.names()}")
    centers = _steering_subgrid(g, _subgrid_side(un, g))
    steering = polar_response(g, azimuth, elevation, grid.axis_points()[0], centers)
    values = 1.0 / _quotient_denominators(un, steering, _column_energy(steering))
    return SpectrumGrid(grid=grid, values=values.reshape(grid.shape))


def _interior_maxima(values: np.ndarray) -> np.ndarray:
    """Interior cells above their lower neighbour and at least their upper one
    on every axis; a flat top of equal cells keeps only its lowest-index cell."""
    mask = np.ones(values.shape, dtype=bool)
    nd = values.ndim
    for ax in range(nd):
        edge = [slice(None)] * nd
        edge[ax] = 0
        mask[tuple(edge)] = False
        edge[ax] = values.shape[ax] - 1
        mask[tuple(edge)] = False
    for ax in range(nd):
        mask &= values > np.roll(values, 1, axis=ax)
        mask &= values >= np.roll(values, -1, axis=ax)
    return mask


def find_peaks(spectrum: SpectrumGrid, k: int) -> PeakSet:
    """Top-k local maxima of a spectrum.

    Along each axis a peak must exceed its lower neighbor and equal or exceed
    its upper one (2 neighbors in 1-D, 4 in 2-D, 6 in 3-D), so a flat top of
    equal cells gives one peak, at its lowest-index cell; a peak cannot sit on
    the grid boundary.  Ties between peaks break toward the lower linear
    index.  Fewer than k maxima is reported, not raised.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    values = spectrum.values
    mask = _interior_maxima(values)
    idx = np.argwhere(mask)
    if idx.size == 0:
        return PeakSet(peaks=(), requested=k)
    peak_vals = values[tuple(idx.T)]
    linear = np.ravel_multi_index(tuple(idx.T), values.shape)
    order = np.lexsort((linear, -peak_vals))[:k]
    axis_pts = spectrum.grid.axis_points()
    peaks = tuple(
        Peak(
            indices=tuple(int(i) for i in idx[o]),
            coords=tuple(float(axis_pts[a][idx[o][a]]) for a in range(len(axis_pts))),
            value=float(peak_vals[o]),
        )
        for o in order
    )
    return PeakSet(peaks=peaks, requested=k)


@dataclass(frozen=True)
class TwoStepResult:
    """Output of the angular-then-distance estimation pipeline.

    ``locations[i]`` pairs with ``angular_peaks.peaks[i]`` (descending peak
    height); the labeling relative to true users is arbitrary and resolved by
    the evaluation layer.
    """

    locations: tuple[PolarLocation, ...]
    angular_peaks: PeakSet
    angular_spectrum: SpectrumGrid
    distance_spectra: tuple[SpectrumGrid, ...]
    boundary_fallbacks: int
    warnings: tuple[str, ...] = ()


def two_step_estimate(
    block: SnapshotBlock,
    g: ArrayGeometry,
    k_sources: int,
    c_r: int,
    angle_grid: GridSpec,
    distance_grid: GridSpec,
) -> TwoStepResult:
    """Estimate up to ``k_sources`` polar locations from one snapshot block.

    Pipeline: subarray-smoothed covariance -> noise subspace -> one angular
    spectrum whose k tallest peaks give the angles -> one distance spectrum
    per angle.

    A distance spectrum without an interior peak falls back to its grid
    argmax (counted in ``boundary_fallbacks``) so a far user at the edge of
    the search range still yields an estimate.
    """
    warnings: list[str] = []
    side = g.side
    n_d = side - c_r
    if n_d < 1:
        raise ValueError(f"c_r={c_r} leaves no subarray for a {side}x{side} array")
    if n_d * n_d < k_sources:
        raise ValueError(
            f"subarray size {n_d}x{n_d} cannot resolve {k_sources} sources"
        )
    snapshot_budget = block.n_pilots * (c_r + 1) ** 2
    if snapshot_budget < k_sources:
        warnings.append(
            f"snapshot budget L*T^2={snapshot_budget} is below the source count "
            f"{k_sources}; covariance rank may be deficient"
        )

    cov = smoothed_covariance(block, c_r)
    un = noise_subspace(cov, k_sources)

    angular_spectrum = spectrum_2d_angular(un, angle_grid, g)
    angular_peaks = find_peaks(angular_spectrum, k_sources)

    if not angular_peaks.complete:
        warnings.append(
            f"only {angular_peaks.found} of {k_sources} angular peaks found"
        )

    locations: list[PolarLocation] = []
    dist_spectra: list[SpectrumGrid] = []
    fallbacks = 0
    for peak in angular_peaks.peaks:
        az, el = peak.coords
        spec_d = spectrum_1d_distance(un, az, el, distance_grid, g)
        pset = find_peaks(spec_d, 1)
        if pset.found:
            d_hat = pset.peaks[0].coords[0]
        else:
            arg = int(np.argmax(spec_d.values))
            d_hat = float(distance_grid.axis_points()[0][arg])
            fallbacks += 1
        locations.append(PolarLocation(azimuth=az, elevation=el, distance=d_hat))
        dist_spectra.append(spec_d)

    return TwoStepResult(
        locations=tuple(locations),
        angular_peaks=angular_peaks,
        angular_spectrum=angular_spectrum,
        distance_spectra=tuple(dist_spectra),
        boundary_fallbacks=fallbacks,
        warnings=tuple(warnings),
    )
