"""Experiment configuration, Monte-Carlo runner, and CSV emission.

Runs synthesize-estimate-score loops over SNR points and trials, comparing
the parametric pipeline against the non-parametric baselines.  Every random
draw comes from a counter-based stream keyed by (seed, snr index, trial,
role), so results are independent of scheduling and thread count.  Trials,
the plane-slice scenario and spectrum dumps synthesize their data through
the same two helpers, and the config parser and the CSV writers read their
schemas from the dataclass fields.
"""

import concurrent.futures
import contextlib
import ctypes
import dataclasses
import functools
import logging
import math
import operator
import time
import typing
import warnings as _warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .channel import ChannelMatrix, channel_matrix
from .geometry import (
    ArrayGeometry,
    PolarLocation,
    UeLocation,
    cart_to_polar,
    near_field_bounds,
    polar_to_cart,
)
from .metrics import (
    AggregateRecord,
    MetricReport,
    TrialRecord,
    aggregate,
    beamforming_gain,
    match_estimates,
    nmse,
)
from .music import (
    GridAxis,
    GridSpec,
    PeakSet,
    SpectrumGrid,
    find_peaks,
    spectrum_1d_distance,
    spectrum_2d_angular,
    spectrum_3d,
    two_step_estimate,
)
from .refine import (
    IllConditionedError,
    estimate_correctors,
    ls_baseline,
    reconstruct_channels,
    rls_baseline,
)
from .signal import (
    ROLE_NOISE,
    ROLE_PILOTS,
    ROLE_PLACEMENT,
    SnapshotBlock,
    gen_pilots,
    received_block,
    stream,
)
from .subspace import noise_subspace, sample_covariance, smoothed_covariance

logger = logging.getLogger(__name__)

KNOWN_METHODS = ("proposed", "proposed_nocorrect", "ls", "rls", "music3d")
# Each parametric search and the methods that score its estimates.
SEARCHES = (("two-step", ("proposed", "proposed_nocorrect")), ("full-array", ("music3d",)))
# Methods that rescale the reconstructed channels with the LS corrector.
CORRECTED = ("proposed", "music3d")
PLACEMENT_BUDGET = 100_000
# fig1 counts a peak as a found user within these distances (m) in x and in z:
# 3 cells of the reference config's 100-point xz grid, fixed so that a grid
# change cannot move the gate.
FIG1_MATCH_TOL = (0.5968531836437698, 0.2955886179412772)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Benchmark configuration; defaults follow the reference simulation setup.

    Angles are stored in radians.  The text-config parser accepts the angular
    keys (azimuth_range, elevation_range, min_angular_separation) in degrees
    and converts on load; everything else is SI units.  The array and the
    distance and Cartesian grids are built on construction, so their own
    rules (``ArrayGeometry``, ``GridAxis``) reject a bad size or range.
    """

    n_antennas: int = 100
    k_ues: int = 4
    l_pilots: int = 3
    c_r: Optional[int] = None  # default: 0 for a single user, 1 otherwise
    wavelength: float = 0.1
    element_diag: Optional[float] = None  # default wavelength / sqrt(2)
    snr_db_list: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0)
    trials: int = 200
    seed: int = 1
    azimuth_range: tuple[float, float] = (-4 * math.pi / 9, 4 * math.pi / 9)
    elevation_range: tuple[float, float] = (-math.pi / 3, math.pi / 3)
    min_angular_separation: float = math.pi / 100
    distance_range: Optional[tuple[float, float]] = None  # default near-field bounds
    azimuth_grid_points: int = 180
    elevation_grid_points: int = 120
    distance_grid_points: int = 100
    cart_grid_points: int = 100
    distance_spacing: str = "inverse"  # or "uniform"
    methods: tuple[str, ...] = ("proposed", "proposed_nocorrect", "ls", "rls")
    snr_ref: str = "relative"  # or "absolute"
    out_dir: str = "results"

    def __post_init__(self):
        if self.element_diag is None:
            object.__setattr__(self, "element_diag", self.wavelength / math.sqrt(2.0))
        if self.c_r is None:
            object.__setattr__(self, "c_r", 0 if self.k_ues == 1 else 1)
        for name in ("k_ues", "l_pilots", "trials"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.snr_db_list:
            raise ConfigError("snr_db_list must be nonempty")
        if not all(snr > -math.inf for snr in self.snr_db_list):
            raise ConfigError("snr_db_list entries must be numbers above -inf (inf is noiseless)")
        if len(set(self.snr_db_list)) != len(self.snr_db_list):
            raise ConfigError("snr_db_list entries must be distinct")
        for lo, hi, what in (
            (*self.azimuth_range, "azimuth_range"),
            (*self.elevation_range, "elevation_range"),
        ):
            if not (-math.pi / 2 < lo <= hi < math.pi / 2):
                raise ConfigError(f"{what} must satisfy -pi/2 < lo <= hi < pi/2")
        sep = self.min_angular_separation
        if not sep >= 0:
            raise ConfigError("min_angular_separation must be a number >= 0")
        # two users closer than sep in both angles would share one sep x sep
        # cell of the ranges, so at most one user fits per cell; the count is a
        # float, which a tiny sep takes to inf instead of overflowing
        ranges = (self.azimuth_range, self.elevation_range)
        cells = math.prod((hi - lo) // sep + 1 for lo, hi in ranges) if sep > 0 else math.inf
        if self.k_ues > cells:
            raise ConfigError(
                f"k_ues={self.k_ues} users cannot be placed: at most {cells:.0f} fit in the "
                f"angular ranges at min_angular_separation {math.degrees(sep):g} deg"
            )
        try:
            g = self.geometry()
            d_lower, d_upper = near_field_bounds(g)
            if self.distance_range is None:
                object.__setattr__(self, "distance_range", (d_lower, d_upper))
            self.distance_grid()
            self.cartesian_grid()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        side = g.side
        if self.c_r < 0 or self.c_r >= side:
            raise ConfigError(f"c_r must lie in [0, {side - 1}]")
        if self.k_ues >= (side - self.c_r) ** 2:
            raise ConfigError(
                f"k_ues must be below {(side - self.c_r) ** 2}, the element count of the "
                f"{side - self.c_r}x{side - self.c_r} subarray, for a noise subspace to remain"
            )
        d_min = self.distance_range[0]
        if d_min < d_lower:
            _warnings.warn(
                f"distance_range starts at {d_min:.3g} m, inside the lower near-field "
                f"limit {d_lower:.3g} m",
                stacklevel=2,
            )
        for name in ("azimuth_grid_points", "elevation_grid_points"):
            if getattr(self, name) < 2:
                raise ConfigError(f"{name} must be >= 2")
        if self.snr_ref not in ("relative", "absolute"):
            raise ConfigError("snr_ref must be 'relative' or 'absolute'")
        unknown = [m for m in self.methods if m not in KNOWN_METHODS]
        if unknown:
            raise ConfigError(f"unknown methods {unknown}; known: {KNOWN_METHODS}")
        if not self.methods:
            raise ConfigError("methods must be nonempty")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError("methods entries must be distinct")

    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry(self.n_antennas, self.element_diag, self.wavelength)

    def angular_grid(self) -> GridSpec:
        """(azimuth, elevation) search grid; each range must span an interval."""
        for name in ("azimuth_range", "elevation_range"):
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise ConfigError(f"{name} must satisfy lo < hi to be searched")
        return GridSpec(
            (
                GridAxis("azimuth", *self.azimuth_range, self.azimuth_grid_points),
                GridAxis("elevation", *self.elevation_range, self.elevation_grid_points),
            )
        )

    def distance_grid(self) -> GridSpec:
        axis = GridAxis(
            "distance", *self.distance_range, self.distance_grid_points, self.distance_spacing
        )
        return GridSpec((axis,))

    def cartesian_grid(self) -> GridSpec:
        """Full (x, y, z) search grid covering the configured placement region."""
        d_min, d_max = self.distance_range
        az_abs = max(abs(self.azimuth_range[0]), abs(self.azimuth_range[1]))
        el_abs = max(abs(self.elevation_range[0]), abs(self.elevation_range[1]))
        x_max = d_max * math.sin(az_abs) if az_abs > 0 else 0.05 * d_max
        y_max = d_max * math.sin(el_abs) if el_abs > 0 else 0.05 * d_max
        z_lo = max(d_min * math.cos(az_abs) * math.cos(el_abs), 0.01 * d_max)
        n = self.cart_grid_points
        return GridSpec(
            (
                GridAxis("x", -x_max, x_max, n),
                GridAxis("y", -y_max, y_max, n),
                GridAxis("z", z_lo, d_max, n),
            )
        )

    def xz_grid(self) -> GridSpec:
        """(x, z) slice grid at y=0 for zero-elevation scenarios."""
        return GridSpec(tuple(ax for ax in self.cartesian_grid().axes if ax.name != "y"))


_ANGULAR_KEYS = ("azimuth_range", "elevation_range", "min_angular_separation")


def _field_parser(tp):
    """Converter from config text to a value of the annotated field type ``tp``.

    Optional fields parse as their inner type; tuples are comma separated, with
    a fixed length unless declared ``tuple[X, ...]``; empty names are dropped
    from string lists.
    """
    args = typing.get_args(tp)
    if type(None) in args:
        (tp,) = [a for a in args if a is not type(None)]
        args = typing.get_args(tp)
    if typing.get_origin(tp) is not tuple:
        return tp

    def parse(val: str) -> tuple:
        parts = [p.strip() for p in val.split(",")]
        if args[0] is str:
            parts = [p for p in parts if p]
        if args[-1] is not Ellipsis and len(parts) != len(args):
            raise ValueError(f"expected {len(args)} comma-separated values")
        return tuple(args[0](p) for p in parts)

    return parse


_FIELD_PARSERS = {f.name: _field_parser(f.type) for f in dataclasses.fields(ExperimentConfig)}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse flat key=value configuration text.

    Keys are the ExperimentConfig field names, and each value is converted to
    its field's annotated type; lists are comma separated; blank lines and
    lines starting with '#' are ignored; unknown keys are errors.  Angular
    values (azimuth_range, elevation_range, min_angular_separation) are given
    in degrees.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _FIELD_PARSERS[key](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    for key in _ANGULAR_KEYS:
        if key in values:
            v = values[key]
            values[key] = (
                tuple(math.radians(x) for x in v) if isinstance(v, tuple) else math.radians(v)
            )
    return ExperimentConfig(**values)


def parse_config(path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text())


def place_ues(cfg: ExperimentConfig, rng: np.random.Generator) -> list[UeLocation]:
    """Rejection-sample user locations over the configured polar ranges.

    Every accepted pair of users differs by at least the configured minimum
    separation in azimuth or in elevation; distances are uniform over the
    configured range.
    """
    sep = cfg.min_angular_separation
    accepted: list[PolarLocation] = []
    attempts = 0
    while len(accepted) < cfg.k_ues:
        attempts += 1
        if attempts > PLACEMENT_BUDGET:
            raise ConfigError(
                f"placement rejection budget exhausted after {PLACEMENT_BUDGET} attempts; "
                "ranges are too tight for the requested separation"
            )
        az = rng.uniform(*cfg.azimuth_range)
        el = rng.uniform(*cfg.elevation_range)
        d = rng.uniform(*cfg.distance_range)
        if all(
            abs(az - p.azimuth) >= sep or abs(el - p.elevation) >= sep for p in accepted
        ):
            accepted.append(PolarLocation(azimuth=az, elevation=el, distance=d))
    return [polar_to_cart(p) for p in accepted]


def _row(
    method: str,
    snr_db: float,
    trial: int,
    ue: int,
    peaks_found: int,
    channels: Optional[tuple[np.ndarray, np.ndarray]] = None,
    locations: Optional[tuple[PolarLocation, PolarLocation]] = None,
) -> TrialRecord:
    """One user's record.  NMSE and beamforming gain come from the (true,
    estimated) channel columns in ``channels``, the angle and distance errors
    from the (true, estimated) ``locations``; each pair left out reads NaN."""
    nmse_val = bf_gain = az_err = el_err = dist_err = math.nan
    if channels is not None:
        nmse_val, bf_gain = nmse(*channels), beamforming_gain(*channels)
    if locations is not None:
        truth, est = locations
        az_err = abs(est.azimuth - truth.azimuth)
        el_err = abs(est.elevation - truth.elevation)
        dist_err = abs(est.distance - truth.distance)
    return TrialRecord(
        method=method,
        snr_db=snr_db,
        trial=trial,
        ue=ue,
        nmse=nmse_val,
        bf_gain=bf_gain,
        az_err_rad=az_err,
        el_err_rad=el_err,
        dist_err_m=dist_err,
        peaks_found=peaks_found,
    )


def _place_users(
    cfg: ExperimentConfig, g: ArrayGeometry, key: tuple[int, int]
) -> tuple[list[UeLocation], ChannelMatrix]:
    """User locations drawn from the placement stream at ``key``, and their
    true channels."""
    locs = place_ues(cfg, stream(cfg.seed, *key, ROLE_PLACEMENT))
    return locs, channel_matrix(g, locs)


def _observe(
    cfg: ExperimentConfig,
    a_true: ChannelMatrix,
    l_pilots: int,
    snr_db: float,
    key: tuple[int, int],
) -> SnapshotBlock:
    """Pilots and the received block for ``a_true``, drawn from the pilot and
    noise streams at ``key``, with the configured noise reference."""
    pilots = gen_pilots(cfg.k_ues, l_pilots, stream(cfg.seed, *key, ROLE_PILOTS))
    noise_ref = None if cfg.snr_ref == "relative" else 1.0
    return received_block(
        a_true, pilots, snr_db, stream(cfg.seed, *key, ROLE_NOISE), noise_ref=noise_ref
    )


def _full_array_spectrum(
    block: SnapshotBlock, k_ues: int, grid: GridSpec, g: ArrayGeometry
) -> SpectrumGrid:
    """Exact-model spectrum over ``grid`` from the unsmoothed full-array
    covariance of ``block``; the search behind ``music3d``, ``fig1`` and the
    ``xz`` spectrum dump."""
    un = noise_subspace(sample_covariance(block.received.T), k_ues)
    return spectrum_3d(un, grid, g)


def _search(
    search: str,
    cfg: ExperimentConfig,
    g: ArrayGeometry,
    block: SnapshotBlock,
    angle_grid: GridSpec,
    dist_grid: GridSpec,
) -> tuple[Sequence[PolarLocation], int]:
    """Estimated user locations, in peak order, and the number of peaks found
    by the ``two-step`` or the ``full-array`` search."""
    if search == "two-step":
        result = two_step_estimate(block, g, cfg.k_ues, cfg.c_r, angle_grid, dist_grid)
        return result.locations, result.angular_peaks.found
    spec = _full_array_spectrum(block, cfg.k_ues, cfg.cartesian_grid(), g)
    peaks = find_peaks(spec, cfg.k_ues)
    return [cart_to_polar(UeLocation(*p.coords)) for p in peaks.peaks], peaks.found


def _run_trial(
    cfg: ExperimentConfig,
    g: ArrayGeometry,
    angle_grid: GridSpec,
    dist_grid: GridSpec,
    snr_index: int,
    trial: int,
) -> list[TrialRecord]:
    """One row per (method, user) for one synthesized trial.

    Each parametric search runs once for the methods it serves.  Its
    estimates are matched to the true users before reconstruction, so the
    pilot pairing inside the corrector is consistent; a user left unmatched,
    a failed search and a failed corrector give NaN rows, which mark the
    trial as failed for that method.
    """
    snr_db = cfg.snr_db_list[snr_index]
    locs, a_true = _place_users(cfg, g, (snr_index, trial))
    truth_polar = [cart_to_polar(l) for l in locs]
    block = _observe(cfg, a_true, cfg.l_pilots, snr_db, (snr_index, trial))
    _, d_fa = near_field_bounds(g)

    rows: list[TrialRecord] = []
    for search, served in SEARCHES:
        methods = [m for m in cfg.methods if m in served]
        if not methods:
            continue
        estimates: dict[str, np.ndarray] = {}  # method -> columns of the matched users
        try:
            found, peaks_found = _search(search, cfg, g, block, angle_grid, dist_grid)
            perm = match_estimates(truth_polar, found, d_fa)
            # user -> its matched estimate, in user order
            matched = {k: found[p] for k, p in enumerate(perm) if p is not None}
            if matched:
                a_hat = reconstruct_channels(list(matched.values()), g).entries
                for method in methods:
                    if method not in CORRECTED:
                        estimates[method] = a_hat
                        continue
                    pilots = block.pilots[list(matched), :]
                    try:
                        estimates[method] = a_hat * estimate_correctors(
                            a_hat, pilots, block.received
                        )
                    except IllConditionedError as exc:
                        logger.warning(
                            "trial %d at %.1f dB: corrector failed: %s", trial, snr_db, exc
                        )
        except ValueError as exc:
            logger.warning("%s trial %d at %.1f dB aborted: %s", search, trial, snr_db, exc)
            matched, estimates, peaks_found = {}, {}, 0
        for method in methods:
            columns = dict(zip(matched, estimates[method].T)) if method in estimates else {}
            rows.extend(
                _row(
                    method,
                    snr_db,
                    trial,
                    k,
                    peaks_found,
                    channels=(a_true.entries[:, k], columns[k]),
                    locations=(truth_polar[k], matched[k]),
                )
                if k in columns
                else _row(method, snr_db, trial, k, peaks_found)
                for k in range(cfg.k_ues)
            )

    for method in cfg.methods:
        if method == "ls":
            estimate = ls_baseline(block.received, block.pilots)
        elif method == "rls":
            estimate = rls_baseline(block.received, block.pilots, block.noise_var)
        else:
            continue
        rows.extend(
            _row(method, snr_db, trial, k, cfg.k_ues, (a_true.entries[:, k], estimate[:, k]))
            for k in range(cfg.k_ues)
        )
    return rows


@functools.lru_cache(maxsize=1)
def _openblas_threads():
    """Thread-count setter and getter of numpy's bundled OpenBLAS, or None when
    numpy ships no such library."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        lib = ctypes.CDLL(str(path))
        for suffix in ("64_", ""):
            setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if setter and getter:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's bundled OpenBLAS at one thread, then restore its count.

    Each trial worker makes its own BLAS calls; if every call also fans out to
    one BLAS thread per CPU, the workers oversubscribe the cores.
    """
    funcs = _openblas_threads()
    if funcs is None:
        yield
        return
    set_threads, get_threads = funcs
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


def run_experiment(
    cfg: ExperimentConfig,
    out_dir=None,
    threads: int = 1,
    progress: bool = False,
) -> MetricReport:
    """Run the full Monte-Carlo sweep and optionally write CSV outputs.

    Output is deterministic for a given config and seed regardless of
    ``threads``: every trial draws from its own keyed random streams, trials
    finish in (SNR, trial) order on every path, and rows are emitted in
    (method, SNR, trial, user) order through a single sink.
    With ``threads > 1`` numpy's bundled OpenBLAS runs one thread per worker
    while the pool runs, and gets its previous thread count back afterwards.
    With ``progress``, a line is printed every 25 trials of an SNR point and
    at its last trial.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    started = time.monotonic()
    g = cfg.geometry()
    angle_grid = cfg.angular_grid()
    dist_grid = cfg.distance_grid()
    keys = [(si, t) for si in range(len(cfg.snr_db_list)) for t in range(cfg.trials)]
    trial_rows = functools.partial(_run_trial, cfg, g, angle_grid, dist_grid)

    records: list[TrialRecord] = []
    with contextlib.ExitStack() as stack:
        map_trials = map
        if threads > 1:
            stack.enter_context(_one_blas_thread())
            map_trials = stack.enter_context(concurrent.futures.ThreadPoolExecutor(threads)).map
        for (si, t), rows in zip(keys, map_trials(trial_rows, *zip(*keys))):
            records.extend(rows)
            if progress and ((t + 1) % 25 == 0 or t + 1 == cfg.trials):
                print(f"snr {cfg.snr_db_list[si]:g} dB: {t + 1}/{cfg.trials} trials", flush=True)

    method_order = {m: i for i, m in enumerate(cfg.methods)}
    snr_order = {snr: i for i, snr in enumerate(cfg.snr_db_list)}
    records.sort(key=lambda r: (method_order[r.method], snr_order[r.snr_db], r.trial, r.ue))
    aggregates = aggregate(records, cfg.methods, cfg.snr_db_list, cfg.k_ues)
    report = MetricReport(records=tuple(records), aggregates=tuple(aggregates))

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_trial_csv(report.records, out / "trials.csv")
        write_aggregate_csv(report.aggregates, out / "aggregate.csv")

    elapsed = time.monotonic() - started
    if elapsed > 600.0:
        _warnings.warn(
            f"experiment took {elapsed:.0f} s, above the 600 s desk-scale budget",
            stacklevel=2,
        )
    return report


def _write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write a header line, then one comma-separated line per row; floats
    are printed with 9 significant digits."""
    path = Path(path)
    lines = [",".join(header)]
    lines += [",".join(["%.9g" % x if isinstance(x, float) else str(x) for x in r]) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_trial_csv(records: Sequence[TrialRecord], path) -> Path:
    header = [f.name for f in dataclasses.fields(TrialRecord)]
    return _write_csv(path, header, map(operator.attrgetter(*header), records))


def write_aggregate_csv(aggregates: Sequence[AggregateRecord], path) -> Path:
    header = [f.name for f in dataclasses.fields(AggregateRecord)]
    return _write_csv(path, header, map(operator.attrgetter(*header), aggregates))


def dump_spectrum_csv(spectrum: SpectrumGrid, path) -> Path:
    """Write a 1-D or 2-D spectrum as CSV, one line per grid point
    (radians/meters, 9 significant digits)."""
    values = spectrum.values
    if values.ndim not in (1, 2):
        raise ValueError("only 1-D and 2-D spectra can be dumped")
    header = ["axis", "value"] if values.ndim == 1 else ["axis1", "axis2", "value"]
    coords = np.meshgrid(*spectrum.grid.axis_points(), indexing="ij")
    return _write_csv(path, header, zip(*(c.flat for c in (*coords, values))))


@dataclass(frozen=True)
class Fig1Case:
    """Peak bookkeeping for one pilot-length setting of the plane-slice scenario."""

    l_pilots: int
    peaks: PeakSet
    matched_truths: int
    dump_path: Optional[Path]


@dataclass(frozen=True)
class Fig1Report:
    true_locations: tuple[UeLocation, ...]
    cases: tuple[Fig1Case, ...]


def _match_peaks_to_truth(peaks: PeakSet, truths: Sequence[tuple[float, float]]) -> int:
    """Count distinct (x, z) truths claimed by peaks within ``FIG1_MATCH_TOL``;
    each peak claims the nearest unclaimed truth, by summed offset."""
    remaining = list(range(len(truths)))
    for p in peaks.peaks:
        near = []
        for idx in remaining:
            offsets = [abs(c - t) for c, t in zip(p.coords, truths[idx])]
            if all(o <= tol for o, tol in zip(offsets, FIG1_MATCH_TOL)):
                near.append((sum(offsets), idx))
        if near:
            remaining.remove(min(near)[1])
    return len(truths) - len(remaining)


def scenario_fig1(
    cfg: ExperimentConfig,
    out_dir=None,
    snr_db: float = 20.0,
    l_values: tuple[int, ...] = (10, 3),
) -> Fig1Report:
    """Full-array plane-slice search with many vs few pilot transmissions.

    Users are placed at zero elevation, so the Cartesian spectrum degenerates
    to an (x, z) slice.  For each pilot length the spectrum is scanned for
    the K tallest peaks and compared against the true positions; with
    enough snapshots all users appear, with fewer than K they conflate.
    """
    # snr_db goes through the config so it is checked like a sweep's SNRs
    flat = dataclasses.replace(cfg, elevation_range=(0.0, 0.0), snr_db_list=(snr_db,))
    g = flat.geometry()
    locs, a_true = _place_users(flat, g, (0, 0))
    truths_xz = [(loc.x, loc.z) for loc in locs]
    grid = flat.xz_grid()

    cases = []
    for l_pilots in l_values:
        block = _observe(flat, a_true, l_pilots, snr_db, (l_pilots, 0))
        spec = _full_array_spectrum(block, flat.k_ues, grid, g)
        peaks = find_peaks(spec, flat.k_ues)
        matched = _match_peaks_to_truth(peaks, truths_xz)
        dump_path = None
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            dump_path = dump_spectrum_csv(spec, out / f"fig1_L{l_pilots}.csv")
        cases.append(
            Fig1Case(
                l_pilots=l_pilots,
                peaks=peaks,
                matched_truths=matched,
                dump_path=dump_path,
            )
        )
    return Fig1Report(true_locations=tuple(locs), cases=tuple(cases))


def dump_spectrum(
    cfg: ExperimentConfig,
    kind: str,
    out_path,
    snr_db: Optional[float] = None,
    trial: int = 0,
    azimuth: Optional[float] = None,
    elevation: Optional[float] = None,
) -> Path:
    """Synthesize one trial and dump the requested spectrum as CSV.

    ``kind`` is "angular" (2-D), "distance" (1-D at given or estimated
    angles), or "xz" (plane slice through the full-array search).  ``snr_db``
    must be one of ``cfg.snr_db_list`` (default: the last), because the
    trial's random streams are keyed by its position there.
    """
    snr_db = snr_db if snr_db is not None else cfg.snr_db_list[-1]
    if snr_db not in cfg.snr_db_list:
        raise ConfigError(
            f"snr_db {snr_db:g} is not in snr_db_list {list(cfg.snr_db_list)}; "
            "its random streams are keyed by the list position"
        )
    if trial < 0:
        raise ConfigError(f"trial must be >= 0, got {trial}")
    snr_index = cfg.snr_db_list.index(snr_db)
    g = cfg.geometry()
    _, a_true = _place_users(cfg, g, (snr_index, trial))
    block = _observe(cfg, a_true, cfg.l_pilots, snr_db, (snr_index, trial))

    if kind == "xz":
        return dump_spectrum_csv(_full_array_spectrum(block, cfg.k_ues, cfg.xz_grid(), g), out_path)

    cov = smoothed_covariance(block, cfg.c_r)
    un = noise_subspace(cov, cfg.k_ues)
    if kind == "angular":
        spec = spectrum_2d_angular(un, cfg.angular_grid(), g)
        return dump_spectrum_csv(spec, out_path)
    if kind == "distance":
        if azimuth is None or elevation is None:
            angular = spectrum_2d_angular(un, cfg.angular_grid(), g)
            peaks = find_peaks(angular, 1)
            if not peaks.found:
                raise ConfigError("no angular peak found; pass azimuth/elevation explicitly")
            azimuth, elevation = peaks.peaks[0].coords
        spec = spectrum_1d_distance(un, azimuth, elevation, cfg.distance_grid(), g)
        return dump_spectrum_csv(spec, out_path)
    raise ValueError(f"unknown spectrum kind {kind!r}")
