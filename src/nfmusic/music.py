"""Spectral search: full-location, angular, and distance spectra plus peak picking.

The steering vectors come from the models in :mod:`nfmusic.channel`, the same
ones that synthesize and reconstruct channels: ``spectrum_3d`` steers with the
exact response (unit-normalized), ``spectrum_2d_angular`` with the planar-wave
response, and ``spectrum_1d_distance`` with the polar-phase response.
Peaks are picked by ``find_peaks`` on the angular scan and the plane slice;
a distance scan, on its grid uniform in 1/d, gives its first maximum.

Every spectrum value is ``1 / (a^H U_n U_n^H a + eps)`` for a steering vector
``a`` and a noise subspace ``U_n``; the guard ``eps = 1e-15 * ||a||**2`` keeps
values finite at exact orthogonality.  The noise projection is computed in its
orthogonal-complement form ``||a||**2 - ||U_s^H a||**2`` from the K signal
eigenvectors ``U_s`` (Schmidt, IEEE TAP 1986), which costs K projections per
steering vector instead of M - K; the difference is clamped at zero, where
rounding can push an exactly orthogonal vector below it.  ``||a||**2`` is fixed
by the model, never computed: M for the unit-modulus planar-wave and polar
responses on an M-element steering array, 1 for the unit-normalized exact one.

A smoothed subspace steers on its own array: the centred ``side`` x ``side``
square of the subarray size.  On it the planar-wave vector is ``e_x (x) e_y``;
the scan contracts ``U_s^H`` with ``e_y`` in one matmul, to ``p_j`` (K x side) at
elevation j.  ``conj(e_x[x]) e_x[x + d]`` depends only on the lag d (the
difference co-array, Hoctor & Kassam, Proc. IEEE 1990), so ``||p_j e_x||**2`` is
``c[0] + sum_d 2 Re(c[d] exp(i d phi))`` over the diagonal sums ``c[d]`` of
``p_j^H p_j``, ``phi = 2 pi spacing cos(el) sin(az) / wavelength``: 2 (side - 1)
real products per grid cell instead of K * side complex ones.

Neither the angular lag terms, nor the angle-free terms of the
polar-phase response, nor the unit-normalized exact-model location bank
depends on the data, so each is built once and kept read-only in a small
cache: the angular lag terms per (steering array, grid), ``2 (side - 1) * 8``
bytes per grid cell plus the y factor; the distance bank per (steering array,
distance grid), ``M * D * 8`` bytes for M steering elements and D distances
plus ``2D + 2M`` floats, so a distance scan pays only its per-angle
remainder, an M x D complex exp; the location bank per (array geometry,
grid, chunk of cells).  The location bank is cached one
``_CHUNK``-column chunk at a time and only the last chunk stays resident, at
most ``_CHUNK * R * 16`` bytes; building a chunk allocates one ``_BLOCK``-cell
block of temporaries beyond it.  A grid larger than one chunk rebuilds its
chunks on every call.  An x or y that a grid holds at 0 makes the array's
mirror across it a symmetry of every steering vector, so the bank keeps one
row per mirror orbit, R of the M elements (50 of 100 on the reference (x, z)
plane), and ``spectrum_3d`` sums ``U_s``'s rows over each orbit to match.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import PolarTerms, array_response, farfield_response, polar_steering, polar_terms
from .geometry import ArrayGeometry, PolarLocation
from .signal import SnapshotBlock
from .subspace import NoiseSubspace, noise_subspace, smoothed_covariance

EPS_SCALE = 1e-15
_CHUNK = 16384
_BLOCK = 256

CARTESIAN_AXES = ("x", "y", "z")
ANGULAR_AXES = ("azimuth", "elevation")


@dataclass(frozen=True)
class GridAxis:
    """One search-grid axis with finite bounds ``lo < hi`` and ``count >= 2``.

    An axis named "distance" is strictly positive with points uniform in 1/d
    (polar-domain sampling, Cui & Dai, IEEE TCOM 2022); any other is uniform.
    """

    name: str
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise ValueError(f"axis {self.name!r} needs at least 2 points, got {self.count}")
        if not -math.inf < self.lo < self.hi < math.inf:
            raise ValueError(f"axis {self.name!r} needs finite lo < hi, got {self.lo}, {self.hi}")
        if self.name == "distance" and self.lo <= 0:
            raise ValueError(f"axis {self.name!r} must be strictly positive")

    @functools.cached_property
    def points(self) -> np.ndarray:
        """The axis points, computed once per axis and read-only."""
        if self.name == "distance":
            points = 1.0 / np.linspace(1.0 / self.lo, 1.0 / self.hi, self.count)
        else:
            points = np.linspace(self.lo, self.hi, self.count)
        points.flags.writeable = False
        return points


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
        return [ax.points for ax in self.axes]

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
        if not self.values.min() > 0 or not np.isfinite(self.values.max()):
            raise ValueError("spectrum values must be finite and strictly positive")


@dataclass(frozen=True)
class Peak:
    indices: tuple[int, ...]
    coords: tuple[float, ...]


@dataclass(frozen=True)
class PeakSet:
    """Up to ``requested`` tallest local maxima, sorted by height."""

    peaks: tuple[Peak, ...]
    requested: int

    @property
    def found(self) -> int:
        return len(self.peaks)


def _column_energy(x: np.ndarray) -> np.ndarray:
    """Squared norm of each column of a matrix."""
    return np.sum(x.real**2 + x.imag**2, axis=-2)


def _guarded_quotient(norm: float, captured: np.ndarray) -> np.ndarray:
    """1 / (max(||a||**2 - ||U_s^H a||**2, 0) + eps) from the model's squared
    norm ``||a||**2``, one for every ``a``, and the energies ``||U_s^H a||**2``."""
    return 1.0 / (np.maximum(norm - captured, 0.0) + EPS_SCALE * norm)


def _steering_array(un: NoiseSubspace, g: ArrayGeometry) -> ArrayGeometry:
    """The array a smoothed subspace steers on: the centred square of
    ``un.dim`` elements with ``g``'s spacing and wavelength (an array equal to
    ``g`` when no smoothing was applied).

    A smoothed covariance averages subarrays at offsets 0..c_r, so its phase
    reference is the mean subarray position, the centre of ``g``.  Centering
    there cancels the leading-order distance bias; for the planar-wave angular
    scan the shift is only a constant phase and does not change the spectrum.
    """
    side = math.isqrt(un.dim)
    if side * side != un.dim or un.dim > g.n_antennas:
        raise ValueError(
            f"noise subspace dimension {un.dim} is not a square subgrid of the array"
        )
    return ArrayGeometry(un.dim, g.element_diag, g.wavelength)


@functools.lru_cache(maxsize=4)
def _angular_bank(sub: ArrayGeometry, grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Lag terms and y factor of the planar-wave steering vectors of the
    steering array ``sub`` over an (azimuth, elevation) grid, and the flat
    indices of a (side, side) upper triangle by diagonal, with each one's start.

    The lag terms (n_el, 2(side - 1), n_az) are twice the conjugate response at
    the lag centres (d * spacing, 0, 0), d = 1..side-1, as (cos, -sin) row pairs;
    ``e_y`` (side, n_el) is the response at the centres (0, y_m, 0).
    Every array is read-only: every caller, pool workers included, shares them.
    """
    az, el = grid.axis_points()
    d = np.arange(sub.side)
    phasor = farfield_response(sub, az, el[:, None], d[1:, None] * [sub.spacing, 0.0, 0.0])
    terms = np.stack([2.0 * phasor.real, -2.0 * phasor.imag], 2).transpose(1, 0, 2, 3)
    e_y = farfield_response(sub, 0.0, el, sub.centers[: sub.side] * [0.0, 1.0, 0.0])
    upper = np.concatenate([k + (sub.side + 1) * d[: sub.side - k] for k in d])
    bank = (terms.reshape(el.size, -1, az.size), e_y, upper, d * sub.side - d * (d - 1) // 2)
    for array in bank:
        array.flags.writeable = False
    return bank


def _mirror_corner(side: int, grid: GridSpec) -> tuple[int, int]:
    """Rows and columns of the array corner whose elements lead the mirror
    orbits of ``grid``.  The exact response is the same, bit for bit, on
    elements (n, m) and (side + 1 - n, m) at x = 0 and on (n, m) and
    (n, side + 1 - m) at y = 0, so an omitted axis halves its side, rounding up."""
    return tuple(side if name in grid.names() else (side + 1) // 2 for name in "xy")


def _folded_signal(un: NoiseSubspace, side: int, corner: tuple[int, int]) -> np.ndarray:
    """``U_s`` with the rows of each mirror orbit summed into the row of its
    leading element, so that ``U_fold^H b`` over the corner rows ``b`` of a
    steering vector equals ``U_s^H a``; ``U_s`` itself when no axis folds."""
    if corner == (side, side):
        return un.signal
    i = np.arange(side)
    n, m = (i if h == side else np.minimum(i, i[::-1]) for h in corner)
    folded = np.zeros((corner[0] * corner[1], un.signal.shape[1]), complex)
    np.add.at(folded, (n[:, None] * corner[1] + m).ravel(), un.signal)
    return folded


@functools.lru_cache(maxsize=1)
def _location_bank(
    g: ArrayGeometry, grid: GridSpec, start: int, stop: int
) -> np.ndarray:
    """Unit-normalized exact-model steering vectors for the flat grid cells
    ``start`` to ``stop`` of a (x, y, z)-ordered ``grid``; an omitted x or y is
    held at 0.  Only the rows of the elements that lead their mirror orbits
    (:func:`_mirror_corner`) are kept, each bit-equal to its full column's.

    It is filled ``_BLOCK`` cells at a time, so the build allocates one
    block's temporaries beyond the bank.  The array is read-only: every
    caller, pool workers included, shares it.
    """
    coords = dict(zip(grid.names(), grid.axis_points()))
    axes = [coords.get(n, np.array([0.0])) for n in CARTESIAN_AXES]
    shape = [ax.size for ax in axes]
    h_x, h_y = _mirror_corner(g.side, grid)
    steering = np.empty((h_x, h_y, stop - start), dtype=complex)
    for lo in range(start, stop, _BLOCK):
        hi = min(lo + _BLOCK, stop)
        cells = np.unravel_index(np.arange(lo, hi), shape)
        block = array_response(g, *(ax[i] for ax, i in zip(axes, cells)))
        norms = np.linalg.norm(block, axis=0, keepdims=True)
        corner = block.reshape(g.side, g.side, -1)[:h_x, :h_y]
        np.divide(corner, norms, out=steering[..., lo - start : hi - start])
    steering = steering.reshape(h_x * h_y, -1)
    steering.flags.writeable = False
    return steering


@functools.lru_cache(maxsize=4)
def _distance_bank(sub: ArrayGeometry, grid: GridSpec) -> PolarTerms:
    """Angle-free polar terms (:func:`nfmusic.channel.polar_terms`) of the
    steering array ``sub`` over a distance grid.

    Every array is read-only: every caller, pool workers included, shares them.
    """
    terms = polar_terms(grid.axis_points()[0], sub.centers)
    for array in terms:
        array.flags.writeable = False
    return terms


def spectrum_3d(un: NoiseSubspace, grid: GridSpec, g: ArrayGeometry) -> SpectrumGrid:
    """Spectrum over Cartesian locations using the exact array response.

    The grid axes must be named among x/y/z (in that relative order) and
    include z, which must be positive; an omitted x or y is held at 0, so an
    (x, z) grid scans the y=0 plane.

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
    if "z" not in names:
        raise ValueError(f"grid needs a 'z' axis (range from the array plane), got {names}")
    if un.dim != g.n_antennas:
        raise ValueError(
            f"noise subspace dimension {un.dim} does not match the full array ({g.n_antennas})"
        )

    signal_h = _folded_signal(un, g.side, _mirror_corner(g.side, grid)).conj().T
    values = np.empty(math.prod(grid.shape))
    for start in range(0, values.size, _CHUNK):
        stop = min(start + _CHUNK, values.size)
        steering = _location_bank(g, grid, start, stop)
        values[start:stop] = _guarded_quotient(1.0, _column_energy(signal_h @ steering))
    return SpectrumGrid(grid=grid, values=values.reshape(grid.shape))


def spectrum_2d_angular(un: NoiseSubspace, grid: GridSpec, g: ArrayGeometry) -> SpectrumGrid:
    """Spectrum over (azimuth, elevation) using the planar-wave response.

    The steering vectors live on the centred square subgrid matching the
    noise-subspace dimension (the full array when no smoothing was applied).
    """
    if grid.names() != ANGULAR_AXES:
        raise ValueError(f"expected axes {ANGULAR_AXES}, got {grid.names()}")
    sub = _steering_array(un, g)
    terms, e_y, upper, starts = _angular_bank(sub, grid)
    # p[j, k, x] = sum_y conj(U_s[(x, y), k]) e_y[y, j]; lag_sums[j, d] sums the
    # d-th diagonal of p_j^H p_j and, as real pairs, contracts with the lag terms
    p = (e_y.T @ un.signal.conj().T.reshape(-1, sub.side).T).reshape(len(e_y.T), -1, sub.side)
    gram = (p.conj().transpose(0, 2, 1) @ p).reshape(len(p), -1)
    lag_sums = np.add.reduceat(gram[:, upper], starts, axis=1)
    captured = lag_sums[:, 0].real[:, None] + (lag_sums[:, None, 1:].view(float) @ terms)[:, 0]
    values = _guarded_quotient(un.dim, captured).T
    return SpectrumGrid(grid=grid, values=np.ascontiguousarray(values))


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
    sub = _steering_array(un, g)
    steering = polar_steering(sub, _distance_bank(sub, grid), azimuth, elevation)
    values = _guarded_quotient(un.dim, _column_energy(un.signal.conj().T @ steering))
    return SpectrumGrid(grid=grid, values=values.reshape(grid.shape))


def _interior_maxima(values: np.ndarray) -> np.ndarray:
    """Mask over the interior cells (``values[1:-1]`` on every axis) of those
    above their lower neighbour and at least their upper one on every axis; a
    flat top of equal cells keeps only its lowest-index cell."""
    interior = (slice(1, -1),) * values.ndim
    core = values[interior]
    mask = np.ones(core.shape, dtype=bool)
    for ax in range(values.ndim):
        lower = interior[:ax] + (slice(None, -2),) + interior[ax + 1 :]
        upper = interior[:ax] + (slice(2, None),) + interior[ax + 1 :]
        mask &= core > values[lower]
        mask &= core >= values[upper]
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
    idx = np.argwhere(mask) + 1
    peak_vals = values[tuple(idx.T)]
    linear = np.ravel_multi_index(tuple(idx.T), values.shape)
    order = np.lexsort((linear, -peak_vals))[:k]
    axis_pts = spectrum.grid.axis_points()
    peaks = tuple(
        Peak(
            indices=tuple(int(i) for i in idx[o]),
            coords=tuple(float(axis_pts[a][idx[o][a]]) for a in range(len(axis_pts))),
        )
        for o in order
    )
    return PeakSet(peaks=peaks, requested=k)


@dataclass(frozen=True)
class TwoStepResult:
    """Output of the angular-then-distance estimation pipeline.

    ``locations`` come in descending angular peak height, one per peak found,
    and ``distance_spectra[i]`` is the distance scan at ``locations[i]``'s
    angles; the labeling relative to true users is arbitrary and resolved by
    the evaluation layer.
    """

    locations: tuple[PolarLocation, ...]
    angular_spectrum: SpectrumGrid
    distance_spectra: tuple[SpectrumGrid, ...]
    boundary_fallbacks: int


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
    per angle, whose first maximum gives the distance, so a far user at the
    edge of the search range still yields one.  Fewer than k angular peaks
    give fewer locations; ``boundary_fallbacks`` counts the distances taken
    at a grid end.
    """
    un = noise_subspace(smoothed_covariance(block, c_r), k_sources)
    angular_spectrum = spectrum_2d_angular(un, angle_grid, g)

    locations: list[PolarLocation] = []
    dist_spectra: list[SpectrumGrid] = []
    fallbacks = 0
    for peak in find_peaks(angular_spectrum, k_sources).peaks:
        az, el = peak.coords
        spec_d = spectrum_1d_distance(un, az, el, distance_grid, g)
        arg = int(np.argmax(spec_d.values))
        fallbacks += arg in (0, spec_d.values.size - 1)
        d_hat = float(distance_grid.axis_points()[0][arg])
        locations.append(PolarLocation(azimuth=az, elevation=el, distance=d_hat))
        dist_spectra.append(spec_d)

    return TwoStepResult(
        locations=tuple(locations),
        angular_spectrum=angular_spectrum,
        distance_spectra=tuple(dist_spectra),
        boundary_fallbacks=fallbacks,
    )
