"""Workload definitions: the configs, one timed unit of work, and quality scoring.

Every workload drives nfmusic only through its public entry points,
``run_experiment`` (the Monte-Carlo sweep behind ``nfmusic run``) and
``scenario_fig1`` (the plane-slice search behind ``nfmusic fig1``).
"""

import dataclasses
import hashlib
import math
import statistics
from pathlib import Path

from nfmusic import harness
from nfmusic.channel import channel_matrix
from nfmusic.geometry import UeLocation, cart_to_polar
from nfmusic.metrics import beamforming_gain, match_estimates, nmse, trial_failed
from nfmusic.refine import reconstruct_channels
from nfmusic.signal import ROLE_PLACEMENT, stream

# Quality is scored on a fixed panel drawn from this seed (the acceptance
# fixture's), not from --seed: at the trial counts a run affords, the
# seed-to-seed sampling spread of the quality figures is wider than any bound
# the benchmark may set, while a fixed panel makes them exact regression guards.
PANEL_SEED = 1
ANGLE_TOL = math.radians(2.0)
DIST_REL_TOL = 0.15
SNRS = (0.0, 10.0, 20.0)
FIG1_SNR_DB = 20.0
FIG1_L = (10, 3)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep" (run_experiment) or "fig1" (scenario_fig1)
    cfg: harness.ExperimentConfig
    threads: int = 1
    trials_per_snr: int = 0  # sweep batch size per SNR point
    panel_size: int = 0  # sweep: trials per SNR; fig1: seeds

    @property
    def trials_per_batch(self):
        return self.trials_per_snr * len(self.cfg.snr_db_list) if self.kind == "sweep" else 1


_REF = harness.ExperimentConfig(snr_db_list=SNRS, seed=PANEL_SEED)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("ref_sweep", "sweep", _REF, threads=1, trials_per_snr=2, panel_size=6),
        Workload("ref_sweep_2w", "sweep", _REF, threads=2, trials_per_snr=2, panel_size=6),
        Workload(
            "large_array",
            "sweep",
            dataclasses.replace(
                _REF, n_antennas=400, azimuth_grid_points=60, elevation_grid_points=40,
                distance_range=None,
            ),
            threads=1,
            trials_per_snr=1,
            panel_size=4,
        ),
        Workload("plane_slice", "fig1", _REF, panel_size=6),
    )
}


def batch_seed(run_seed, index):
    """Config seed of timed batch ``index`` in a run started with ``run_seed``."""
    return run_seed * 10_000 + index


def run_unit(w, seed, out_dir, trials=None, threads=None):
    """One closed-loop call through the public entry point, writing its CSVs.

    Returns the program's report and the sha256 of every file it wrote.
    """
    out_dir = Path(out_dir)
    if w.kind == "sweep":
        cfg = dataclasses.replace(w.cfg, seed=seed, trials=trials or w.trials_per_snr)
        report = harness.run_experiment(cfg, out_dir=out_dir, threads=threads or w.threads)
        names = ("trials.csv", "aggregate.csv")
    else:
        cfg = dataclasses.replace(w.cfg, seed=seed, trials=1)
        report = harness.scenario_fig1(cfg, out_dir=out_dir, snr_db=FIG1_SNR_DB, l_values=FIG1_L)
        names = tuple(f"fig1_L{l}.csv" for l in FIG1_L)
    digests = {n: hashlib.sha256((out_dir / n).read_bytes()).hexdigest() for n in names}
    return report, digests


def probe_unit(w):
    """The single trial a cold start runs before its first result."""
    if w.kind == "sweep":
        cfg = dataclasses.replace(w.cfg, trials=1, snr_db_list=w.cfg.snr_db_list[-1:])
        return harness.run_experiment(cfg, threads=w.threads)
    return harness.scenario_fig1(w.cfg, snr_db=FIG1_SNR_DB, l_values=FIG1_L)


def score_sweep(cfg, report):
    """Quality of the ``proposed`` method over one run_experiment report."""
    rows = {}
    for r in report.records:
        if r.method == "proposed":
            rows.setdefault((r.snr_db, r.trial), []).append(r)
    ok = [v for v in rows.values() if not trial_failed(v, cfg.k_ues)]
    recovered = users = 0
    for (snr_db, trial), v in rows.items():
        truth = harness.place_ues(
            cfg, stream(cfg.seed, cfg.snr_db_list.index(snr_db), trial, ROLE_PLACEMENT)
        )
        for r in v:
            users += 1
            recovered += (
                r.az_err_rad < ANGLE_TOL
                and r.el_err_rad < ANGLE_TOL
                and r.dist_err_m / cart_to_polar(truth[r.ue]).distance < DIST_REL_TOL
            )
    return {
        "ok_share": len(ok) / len(rows),
        "recovery_share": recovered / users,
        "nmse_p50": _median([statistics.fmean(r.nmse for r in v) for v in ok]),
        "bf_gain_mean": _mean([statistics.fmean(r.bf_gain for r in v) for v in ok]),
    }


def score_fig1(cfgs, reports):
    """Quality of the many-pilot (L=10) plane-slice search over several seeds.

    The search returns grid peaks, not channels, so each seed's channels are
    rebuilt at its peaks with the program's own ``reconstruct_channels`` and
    scored against the true channels after minimum-cost matching.
    """
    ok = matched = users = 0
    nmses, gains = [], []
    for cfg, rep in zip(cfgs, reports):
        case = next(c for c in rep.cases if c.l_pilots == FIG1_L[0])
        k = len(rep.true_locations)
        users += k
        matched += case.matched_truths
        if case.peaks.found < k:
            continue
        ok += 1
        g = cfg.geometry()
        truth = [cart_to_polar(u) for u in rep.true_locations]
        est = [cart_to_polar(UeLocation(x=p.coords[0], y=0.0, z=p.coords[1]))
               for p in case.peaks.peaks]
        perm = match_estimates(truth, est, cfg.distance_range[1])
        a_true = channel_matrix(g, list(rep.true_locations)).entries
        a_hat = reconstruct_channels([est[p] for p in perm], g).entries
        nmses.append(statistics.fmean(nmse(a_true[:, i], a_hat[:, i]) for i in range(k)))
        gains.append(
            statistics.fmean(beamforming_gain(a_true[:, i], a_hat[:, i]) for i in range(k))
        )
    return {
        "ok_share": ok / len(reports),
        "recovery_share": matched / users,
        "nmse_p50": _median(nmses),
        "bf_gain_mean": _mean(gains),
    }


def _median(xs):
    return statistics.median(xs) if xs else math.nan


def _mean(xs):
    return statistics.fmean(xs) if xs else math.nan
