"""Experiment configuration, Monte-Carlo runner, and CSV emission.

Runs synthesize-estimate-score loops over SNR points and trials, comparing
the parametric pipeline against the non-parametric baselines.  Every random
draw comes from a counter-based stream keyed by (seed, snr index, trial,
role), so results are independent of scheduling and thread count.  Trials,
the plane-slice scenario and spectrum dumps synthesize their data through
the same two helpers.  The config parser and the CSV writers read their
schemas from the dataclass fields, and one type check serves every config
field and entry-point argument through its annotation.
"""

import concurrent.futures
import contextlib
import dataclasses
import functools
import inspect
import itertools
import logging
import math
import numbers
import operator
import os
import stat
import typing
import warnings as _warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

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
from .subspace import noise_subspace, smoothed_covariance

logger = logging.getLogger(__name__)

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
    distance and (x, z) grids are built on construction, so their own rules
    (``ArrayGeometry``, ``GridAxis``) reject a bad size or range.

    ``c_r``, ``element_diag`` and ``distance_range`` left at None are derived
    from the other fields on construction.  ``dataclasses.replace`` keeps the
    derived values: ``replace(cfg, n_antennas=400)`` keeps ``cfg``'s near
    field as its ``distance_range``.  Pass None for a field to derive it
    again from the new fields, as a fresh config would.
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
    methods: tuple[str, ...] = ("proposed", "proposed_nocorrect", "ls", "rls")
    out_dir: str = "results"

    def __post_init__(self):
        # types first: a value of the wrong type would escape the rules below
        for name, field_type in _FIELD_TYPES.items():
            _check_type(name, field_type, getattr(self, name))
        if self.element_diag is None:
            object.__setattr__(self, "element_diag", self.wavelength / math.sqrt(2.0))
        if self.c_r is None:
            object.__setattr__(self, "c_r", 0 if self.k_ues == 1 else 1)
        # at 300 dB the noise amplitude is 1e-15 of the signal's, a few units in
        # the last place of a double, so a higher SNR is noiseless (inf) in
        # effect; below -300 dB the signal is buried as deep in the noise
        if not all(snr == math.inf or -300.0 <= snr <= 300.0 for snr in self.snr_db_list):
            raise ConfigError("snr_db_list entries must be in [-300, 300] dB or inf (noiseless)")
        for what in ("azimuth_range", "elevation_range"):
            lo, hi = getattr(self, what)
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
            g = self.geometry()  # its errors name the fields, which are the config keys
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        try:
            d_lower, d_upper = near_field_bounds(g)
        except OverflowError as exc:
            raise ConfigError("wavelength and element_diag overflow the near-field bounds") from exc
        if self.distance_range is None:
            if not d_lower < d_upper:
                raise ConfigError(
                    f"distance_range must be set: the near field [{d_lower:.3g}, "
                    f"{d_upper:.3g}] m of this array is empty"
                )
            object.__setattr__(self, "distance_range", (d_lower, d_upper))
        for keys, build in (
            ("distance_range, distance_grid_points", self.distance_grid),
            ("cart_grid_points", self.xz_grid),
        ):
            try:
                build()
            except ValueError as exc:
                raise ConfigError(f"{keys}: {exc}") from exc
        # a trial squares each user's coordinates to score its location, the channel
        # model raises distances to the 2.5th power, and the noise reference is a
        # user's mean per-antenna power |a|^2 / N: users straight ahead at either end
        # of the range, and the weakest one, at the far end and the widest angles,
        # show whether all three stay in float range
        d_min, d_max = self.distance_range
        az, el = (max(map(abs, r)) for r in (self.azimuth_range, self.elevation_range))
        for angles, d in (((0.0, 0.0), d_min), ((0.0, 0.0), d_max), ((az, el), d_max)):
            loc = polar_to_cart(PolarLocation(*angles, d))
            try:
                cart_to_polar(loc)
                a = channel_matrix(g, [loc]).entries
            except (ValueError, OverflowError) as exc:
                raise ConfigError(f"distance_range: {d:g} m is out of float range ({exc})") from exc
            if np.linalg.norm(a) ** 2 / g.n_antennas < np.finfo(float).tiny:
                raise ConfigError(
                    "element_diag, wavelength and distance_range: the mean per-antenna channel "
                    f"power of a user at {d:g} m underflows the smallest normal double"
                )
        side = g.side
        if not 0 <= self.c_r < side:
            raise ConfigError(f"c_r must be an integer in [0, {side - 1}], got {self.c_r!r}")
        if self.k_ues >= (side - self.c_r) ** 2:
            raise ConfigError(
                f"k_ues must be below {(side - self.c_r) ** 2}, the element count of the "
                f"{side - self.c_r}x{side - self.c_r} subarray, for a noise subspace to remain"
            )
        if d_min < d_lower:
            _warnings.warn(
                f"distance_range starts at {d_min:.3g} m, inside the lower near-field "
                f"limit {d_lower:.3g} m",
                stacklevel=2,
            )
        for name in ("azimuth_grid_points", "elevation_grid_points"):
            if getattr(self, name) < 2:
                raise ConfigError(f"{name} must be >= 2")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ConfigError(f"unknown methods {unknown}; known: {tuple(METHODS)}")

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
        """Distance search grid, its points uniform in 1/d."""
        return GridSpec((GridAxis("distance", *self.distance_range, self.distance_grid_points),))

    def xz_grid(self) -> GridSpec:
        """(x, z) plane-slice grid at y=0, ``cart_grid_points`` per side, covering
        the configured placement region."""
        d_min, d_max = self.distance_range
        az_abs, el_abs = (max(map(abs, r)) for r in (self.azimuth_range, self.elevation_range))
        x_max = d_max * math.sin(az_abs) if az_abs > 0 else 0.05 * d_max
        z_lo = max(d_min * math.cos(az_abs) * math.cos(el_abs), 0.01 * d_max)
        n = self.cart_grid_points
        return GridSpec((GridAxis("x", -x_max, x_max, n), GridAxis("z", z_lo, d_max, n)))


_ANGULAR_KEYS = ("azimuth_range", "elevation_range", "min_angular_separation")


def _field_type(tp) -> tuple[bool, type, object]:
    """(optional, item type, tuple length: None for a scalar, ... for any) of an annotation."""
    args = typing.get_args(tp)
    optional = type(None) in args
    if optional:
        (tp,) = [a for a in args if a is not type(None)]
        args = typing.get_args(tp)
    if typing.get_origin(tp) is not tuple:
        return optional, tp, None
    return optional, args[0], ... if args[-1] is Ellipsis else len(args)


# item type: (the values it admits, one of them, several of them)
_ITEMS = {
    int: (numbers.Integral, "an integer", "integers"),
    float: (numbers.Real, "a real number", "real numbers"),
    str: (str, "a string", "strings"),
}
# an integer counts something, so it is >= 1, except these, which may be 0
_ZERO_BASED = ("seed", "c_r", "trial")


def _check_type(name: str, field_type, value) -> None:
    """Raise a ConfigError naming ``name`` unless ``value`` fits the walk ``field_type``;
    a bool is not a number, and a tuple of any length must be nonempty with
    distinct entries."""
    optional, item, length = field_type
    kind, one, many = _ITEMS[item]
    low = 0 if name in _ZERO_BASED else 1
    if item is int:
        one, many = f"{one} >= {low}", f"{many} >= {low}"
    ok = length is None or isinstance(value, tuple) and length in (..., len(value))
    items = (value,) if length is None else value
    ok = ok and all(
        isinstance(v, kind) and not isinstance(v, bool) and (item is not int or v >= low)
        for v in items
    )
    want = one if length is None else f"a tuple of {length} {many}"
    if length is ...:
        # the entries' types are checked first, so only hashable ones reach set()
        ok = ok and len(set(value)) == len(value) > 0
        want = f"a nonempty tuple of distinct {many}"
    if not (ok or optional and value is None):
        raise ConfigError(f"{name} must be {want}{' or None' if optional else ''}, got {value!r}")


def _check_arguments(func, **values) -> None:
    """Check keyword values against ``func``'s annotations, looking through wrappers."""
    for name, value in values.items():
        _check_type(name, _field_type(inspect.unwrap(func).__annotations__[name]), value)


def _output_files(out_dir, names: Sequence[str], name: str = "out_dir") -> list[Path]:
    """``out_dir / file`` for each file of ``names``, checked so that a run fails
    before its work, with a ConfigError naming ``name``: ``out_dir`` is a str or
    os.PathLike under a directory, none of its missing parts is a dangling
    symbolic link, they fit that directory's name length limit, and no file of
    ``names`` is a directory.  Permissions are not checked."""
    if not isinstance(out_dir, (str, os.PathLike)):
        raise ConfigError(f"{name} must be a str or os.PathLike path, got {out_dir!r}")
    path = Path(out_dir)
    for existing in (path, *path.parents):
        try:
            mode = os.stat(existing).st_mode
        except (FileNotFoundError, NotADirectoryError):
            if os.path.lexists(existing):  # a link the write cannot make a directory
                raise ConfigError(f"{name} {path}: {existing} is a symbolic link to nothing")
            continue  # not there yet: the write creates it
        except (OSError, ValueError) as exc:  # such as a name too long or a NUL byte
            raise ConfigError(f"{name} {path}: {exc}") from exc
        if not stat.S_ISDIR(mode):
            raise ConfigError(f"{name} {path}: {existing} is not a directory")
        break
    # stat stops at the first missing part, so it never sees a name too long below it
    limit = os.pathconf(existing, "PC_NAME_MAX")
    for part in path.relative_to(existing).parts:
        if len(os.fsencode(part)) > limit:
            raise ConfigError(f"{name} {path}: a part is longer than the {limit}-byte name limit")
    paths = [path / file for file in names]
    for file in paths:
        if file.is_dir():
            raise ConfigError(f"{name} {file}: names a directory, not a file")
    return paths


def _field_parser(field_type):
    """Converter from config text to a value of the walk ``field_type``: tuples are
    comma separated, of the walked length; string lists drop empty names."""
    _, item, length = field_type
    if length is None:
        return item

    def parse(val: str) -> tuple:
        parts = [p for p in map(str.strip, val.split(",")) if p or item is not str]
        if length is not ... and len(parts) != length:
            raise ValueError(f"expected {length} comma-separated values")
        return tuple(item(p) for p in parts)

    return parse


# each annotation is walked once, for the text parser and the type check
_FIELD_TYPES = {f.name: _field_type(f.type) for f in dataclasses.fields(ExperimentConfig)}


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
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _field_parser(_FIELD_TYPES[key])(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    for key in values.keys() & _ANGULAR_KEYS:
        v = values[key]
        values[key] = tuple(map(math.radians, v)) if isinstance(v, tuple) else math.radians(v)
    return ExperimentConfig(**values)


def parse_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)


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
    noise streams at ``key``."""
    pilots = gen_pilots(cfg.k_ues, l_pilots, stream(cfg.seed, *key, ROLE_PILOTS))
    return received_block(a_true, pilots, snr_db, stream(cfg.seed, *key, ROLE_NOISE))


def _two_step(cfg, g, block, grids, truth, context):
    """The two-step search, angles first, then distances, with its estimates
    matched to the true users, so that the corrector pairs them with the right
    pilots, and their exact-model channels; a search ``ValueError`` finds none."""
    try:
        result = two_step_estimate(block, g, cfg.k_ues, cfg.c_r, *grids)
    except ValueError as exc:
        logger.warning("%s trial %d at %.1f dB: search failed: %s", *context, exc)
        return [], [], None, 0
    found = result.locations
    perm = match_estimates(truth, found, cfg.distance_range[1])
    users = [k for k, p in enumerate(perm) if p is not None]
    located = [found[perm[k]] for k in users]
    a_hat = reconstruct_channels(located, g).entries if users else None
    return users, located, a_hat, len(found)


def _ls(cfg, g, block, grids, truth, context):
    """Every user's channel by least squares on the pilots."""
    return list(range(cfg.k_ues)), None, ls_baseline(block.received, block.pilots), cfg.k_ues


def _rls(cfg, g, block, grids, truth, context):
    """Every user's channel by least squares regularised by the noise variance."""
    a_hat = rls_baseline(block.received, block.pilots, block.noise_var)
    return list(range(cfg.k_ues)), None, a_hat, cfg.k_ues


# method -> (estimate, corrected).  An estimate maps (cfg, g, block, the
# (angular, distance) grids, the users' true polar locations, and the (method,
# trial, SNR) its warnings name) to the estimated users in ascending order,
# their locations (None for a method that does not locate), their (N, users)
# channel block and the number of peaks found.  A corrected method rescales
# its block with the LS corrector.
METHODS = {
    "proposed": (_two_step, True),
    "proposed_nocorrect": (_two_step, False),
    "ls": (_ls, False),
    "rls": (_rls, False),
}


def _run_trial(
    cfg: ExperimentConfig,
    g: ArrayGeometry,
    grids: tuple[GridSpec, GridSpec],
    snr_index: int,
    trial: int,
) -> list[TrialRecord]:
    """One row per (method, user) for one synthesized trial, in ``cfg.methods``
    order.

    Each estimate runs at most once, and the methods it serves share its
    result; it catches the failures it owns, as the search its ``ValueError``.
    An ``IllConditionedError`` from the corrector fails its method; a failed
    method, like an unmatched user, gets NaN rows.  Any other error stops the run.
    """
    snr_db = cfg.snr_db_list[snr_index]
    locs, a_true = _place_users(cfg, g, (snr_index, trial))
    truth = [cart_to_polar(l) for l in locs]
    block = _observe(cfg, a_true, cfg.l_pilots, snr_db, (snr_index, trial))
    estimates = {}  # estimate -> (users, their locations, their channels, peaks found)

    rows: list[TrialRecord] = []
    for method in cfg.methods:
        estimate, corrected = METHODS[method]
        context = (method, trial, snr_db)
        if estimate not in estimates:
            estimates[estimate] = estimate(cfg, g, block, grids, truth, context)
        users, located, a_hat, peaks_found = estimates[estimate]
        if corrected and users:
            try:
                a_hat = a_hat * estimate_correctors(a_hat, block.pilots[users, :], block.received)
            except IllConditionedError as exc:
                logger.warning("%s trial %d at %.1f dB: corrector failed: %s", *context, exc)
                users = []
        scored = {}
        if users:
            a_users = a_true.entries[:, users]
            scores = nmse(a_users, a_hat), beamforming_gain(a_users, a_hat)
            scored = dict(zip(users, zip(*scores, located or [None] * len(users))))
        method_fields = dict(method=method, snr_db=snr_db, trial=trial, peaks_found=peaks_found)
        for k, t in enumerate(truth):
            fields = {}  # a user without scores keeps the record's NaN defaults
            if k in scored:
                score, gain, est = scored[k]
                fields = {"nmse": score, "bf_gain": gain}
                if est is not None:
                    fields.update(
                        az_err_rad=abs(est.azimuth - t.azimuth),
                        el_err_rad=abs(est.elevation - t.elevation),
                        dist_err_m=abs(est.distance - t.distance),
                    )
            rows.append(TrialRecord(ue=k, **method_fields, **fields))
    return rows


@functools.lru_cache(maxsize=1)
def _openblas_threads() -> Optional[tuple]:
    """Thread-count (setter, getter) of the OpenBLAS bundled with numpy;
    None when it ships none."""
    import ctypes  # this lookup is its only user

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
    """Hold the bundled OpenBLAS at one thread, then restore its count.

    Each trial worker makes its own BLAS and LAPACK calls through numpy's
    library; if every call also fans out to one BLAS thread per CPU, the
    workers oversubscribe the cores.
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
    With ``threads > 1`` the OpenBLAS bundled with numpy runs one thread per
    worker while the pool runs, and gets its previous thread count back
    afterwards.
    With ``progress``, a line is printed every 25 trials of an SNR point and
    at its last trial.
    """
    _check_arguments(run_experiment, threads=threads)
    if out_dir is not None:
        trials_csv, aggregate_csv = _output_files(out_dir, ("trials.csv", "aggregate.csv"))
    g = cfg.geometry()
    grids = (cfg.angular_grid(), cfg.distance_grid())
    keys = [(si, t) for si in range(len(cfg.snr_db_list)) for t in range(cfg.trials)]
    trial_rows = functools.partial(_run_trial, cfg, g, grids)

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

    # trials arrive in (SNR, trial) order and their rows in (method, user)
    # order, so a stable sort by method gives (method, SNR, trial, user)
    method_order = {m: i for i, m in enumerate(cfg.methods)}
    records.sort(key=lambda r: method_order[r.method])
    aggregates = aggregate(records, cfg.methods, cfg.snr_db_list, cfg.k_ues)
    report = MetricReport(records=tuple(records), aggregates=tuple(aggregates))

    if out_dir is not None:
        write_trial_csv(report.records, trials_csv)
        write_aggregate_csv(report.aggregates, aggregate_csv)
    return report


def _write_csv(path, header: Sequence[str], body: bytes) -> Path:
    """Write a header line and then ``body``, creating the file's directory.

    An existing file is overwritten in place and then cut to the bytes
    written, so its page-cache pages are reused rather than freed and
    allocated again; a file that is not regular, such as a FIFO or
    ``/dev/null``, is written and not cut.  The write is not atomic: an
    interrupted overwrite can leave new rows ahead of the old file's tail.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = (",".join(header) + "\n").encode() + body
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:  # os.write may write less than it was given
            rest = rest[os.write(fd, rest) :]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
    return path


def _write_records(cls: type, records: Sequence, path) -> Path:
    """Write dataclass records, one comma-separated line each in field order;
    floats are printed with 9 significant digits."""
    header = [f.name for f in dataclasses.fields(cls)]
    body = "".join(
        ",".join(["%.9g" % x if isinstance(x, float) else str(x) for x in r]) + "\n"
        for r in map(operator.attrgetter(*header), records)
    )
    return _write_csv(path, header, body.encode())


write_trial_csv = functools.partial(_write_records, TrialRecord)
write_aggregate_csv = functools.partial(_write_records, AggregateRecord)


_EXP_LO, _EXP_HI = -14, 30  # the exponents x whose scale 10**(8 - x) is an exact double
_TOKEN_CHARS = b"0123456789.e+-\0\0"  # token bytes other than mantissa digits; NUL pads
_CHUNK = 1 << 12  # values per _format_values pass: int32 byte offsets, heap-sized temporaries
_format_one = b"%.9g".__mod__  # the text of a value that the array passes leave out


@functools.cache
def _format_tables():
    """The digits of 0..9999 as 4-byte words, their trailing zeros (4 for 0),
    exact powers of ten and, per (exponent, significant digits), the 16 bytes
    of a token in a row of mantissa digits 2-9, digit 1, 7 unread bytes and
    _TOKEN_CHARS; each layout is read off Python's own %.9g."""
    quads = (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8)
    zeros = (np.arange(10_000)[:, None] % [10, 100, 1000] == 0).sum(1, dtype=np.uint8)
    zeros[0] = 4
    d = [8, *range(8)]  # the row byte of each mantissa digit
    char = {c: 16 + i for i, c in enumerate(_TOKEN_CHARS)}
    layout = np.full((_EXP_HI + 2 - _EXP_LO, 9, 16), char[0], np.int32)
    for x, n in itertools.product(range(_EXP_LO, _EXP_HI + 2), range(1, 10)):
        # digits 1-9 stand for mantissa digits; the others, 0 included, are constant
        mant, e, exp = (b"%.9g" % float(f"{'123456789'[:n]}e{x - n + 1}")).partition(b"e")
        cols = [d[c - 49] if c > 48 else char[c] for c in mant] + [char[c] for c in e + exp]
        layout[x - _EXP_LO, n - 1, : len(cols)] = cols
    return quads.view("<u4").ravel(), zeros, 10.0 ** np.arange(23), layout.reshape(-1, 16)


def _format_values(values) -> list[bytes]:
    """``b"%.9g" % v`` of each value.  With x = floor(log10 v), the mantissa
    is m = rint(v * 10**(8 - x)), 1e9 carrying to the next exponent, when the
    scaled value (one correctly rounded multiply or divide by an exact power
    of ten, error under 6e-8) lies in [1e8, 1e9] and more than 1e-6 from a
    half-integer.  Python formats every other value: a near tie, zero, a
    negative, non-finite, subnormal or outside [1e-14, 1e31)."""
    v = np.ravel(values).astype(float, copy=False)
    if v.size > _CHUNK:
        return [t for i in range(0, v.size, _CHUNK) for t in _format_values(v[i : i + _CHUNK])]
    quads, zeros, pow10, layout = _format_tables()
    with np.errstate(all="ignore"):
        x = np.floor(np.log10(v))
        ok = (x >= _EXP_LO) & (x <= _EXP_HI)
        x = np.where(ok, x, 0).astype(np.int32)
        scale = pow10.take(np.abs(x - 8))
        scaled = np.where(x <= 8, v * scale, v / scale)
        m = np.rint(scaled)
        ok &= (scaled >= 1e8) & (m <= 1e9) & (np.abs(scaled - m) < 0.5 - 1e-6)
    x += (carry := m == 1e9)
    lead, rest = np.divmod(np.where(ok & ~carry, m, 1e8).astype(np.int32), 10**8)
    mid, low = np.divmod(rest, 10**4)
    src = np.empty((v.size, 8), "<u4")
    src[:, 0] = quads.take(mid)
    src[:, 1] = quads.take(low)
    src[:, 2] = lead + ord("0")
    src[:, 4:] = np.frombuffer(_TOKEN_CHARS, "<u4")
    digits = 9 - zeros.take(low) - (low == 0) * zeros.take(mid)
    idx = layout.take((x - _EXP_LO) * 9 + digits - 1, axis=0)
    idx += np.arange(0, v.size * 32, 32, np.int32)[:, None]
    out = src.view(np.uint8).ravel().take(idx).view("S16").ravel().tolist()
    for i in np.flatnonzero(~ok).tolist():
        out[i] = _format_one(v[i])
    return out


def dump_spectrum_csv(spectrum: SpectrumGrid, path) -> Path:
    """Write a 1-D or 2-D spectrum as CSV, one line per grid point, the first
    axis slowest (radians/meters, 9 significant digits), creating the file's
    directory.  Each axis point is formatted once into a line template, and
    the values, formatted by ``_format_values``, fill its ``%s`` slots."""
    values = spectrum.values
    if values.ndim not in (1, 2):
        raise ValueError("only 1-D and 2-D spectra can be dumped")
    header = ["axis", "value"] if values.ndim == 1 else ["axis1", "axis2", "value"]
    *outer, inner = [[b"%.9g," % p for p in pts.tolist()] for pts in spectrum.grid.axis_points()]
    lines = [p + b"%s\n" for p in inner]
    for axis in outer:
        lines = [p.join([b"", *lines]) for p in axis]
    return _write_csv(path, header, b"".join(lines) % tuple(_format_values(values)))


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

    Users are placed at zero elevation, so the exact-model spectrum is
    searched on the (x, z) plane at y=0.  For each pilot length the spectrum
    is scanned for the K tallest peaks and compared against the true
    positions; with enough snapshots all users appear, with fewer than K
    they conflate.
    """
    _check_arguments(scenario_fig1, snr_db=snr_db, l_values=l_values)
    names = [f"fig1_L{l_pilots}.csv" for l_pilots in l_values]
    dump_paths = [None] * len(names) if out_dir is None else _output_files(out_dir, names)
    # snr_db goes through the config so its range is checked like a sweep's SNRs
    flat = dataclasses.replace(cfg, elevation_range=(0.0, 0.0), snr_db_list=(snr_db,))
    g = flat.geometry()
    locs, a_true = _place_users(flat, g, (0, 0))
    truths_xz = [(loc.x, loc.z) for loc in locs]
    grid = flat.xz_grid()

    cases = []
    for l_pilots, dump_path in zip(l_values, dump_paths):
        block = _observe(flat, a_true, l_pilots, snr_db, (l_pilots, 0))
        # a zero shift keeps one subarray, the whole array
        spec = spectrum_3d(noise_subspace(smoothed_covariance(block, 0), flat.k_ues), grid, g)
        peaks = find_peaks(spec, flat.k_ues)
        matched = _match_peaks_to_truth(peaks, truths_xz)
        if dump_path is not None:
            dump_spectrum_csv(spec, dump_path)
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
    out_dir,
    snr_db: Optional[float] = None,
    trial: int = 0,
) -> tuple[Path, ...]:
    """Synthesize one trial, run its two-step search, and dump the search's
    own spectra as CSV under ``out_dir``; returns the two paths.

    ``spectrum_angular.csv`` is the 2-D angular scan and
    ``spectrum_distance.csv`` the 1-D distance scan at the tallest angular
    peak.  ``snr_db`` must be one of ``cfg.snr_db_list`` (default: the
    last), because the trial's random streams are keyed by its position there.
    """
    _check_arguments(dump_spectrum, snr_db=snr_db, trial=trial)
    names = ("spectrum_angular.csv", "spectrum_distance.csv")
    paths = _output_files(out_dir, names)
    snr_db = snr_db if snr_db is not None else cfg.snr_db_list[-1]
    if snr_db not in cfg.snr_db_list:
        raise ConfigError(
            f"snr_db {snr_db:g} is not in snr_db_list {list(cfg.snr_db_list)}; "
            "its random streams are keyed by the list position"
        )
    snr_index = cfg.snr_db_list.index(snr_db)
    g = cfg.geometry()
    _, a_true = _place_users(cfg, g, (snr_index, trial))
    block = _observe(cfg, a_true, cfg.l_pilots, snr_db, (snr_index, trial))
    result = two_step_estimate(
        block, g, cfg.k_ues, cfg.c_r, cfg.angular_grid(), cfg.distance_grid()
    )
    if not result.distance_spectra:
        raise ConfigError("no angular peak found, so no distance scan to dump")
    spectra = (result.angular_spectrum, result.distance_spectra[0])
    return tuple(map(dump_spectrum_csv, spectra, paths))
