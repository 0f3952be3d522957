"""Command-line entry points: run, fig1, dump-spectrum.

Angle-valued command-line options and config values are in degrees; the
library works in radians internally.  Outputs are CSV files under the
configured (or overridden) output directory.
"""

import argparse
import dataclasses
import functools
import math
import sys
from pathlib import Path

from .harness import (
    SPECTRUM_KINDS,
    ConfigError,
    ExperimentConfig,
    check_output_dir,
    check_output_file,
    dump_spectrum,
    parse_config,
    run_experiment,
    scenario_fig1,
)


def _load_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _out_dir(args, cfg: ExperimentConfig) -> Path:
    name, out_dir = ("--out-dir", args.out_dir) if args.out_dir else ("out_dir", cfg.out_dir)
    check_output_dir(out_dir, name)
    return Path(out_dir)


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    out_dir = _out_dir(args, cfg)
    report = run_experiment(cfg, out_dir=out_dir, threads=args.threads, progress=args.progress)
    print(f"wrote {out_dir / 'trials.csv'} and {out_dir / 'aggregate.csv'}")
    print("method       snr_db   mean_nmse   median_nmse  mean_bf_gain  ok/failed")
    for a in report.aggregates:
        print(
            f"{a.method:<12} {a.snr_db:>6g}   {a.mean_nmse:<11.4g} {a.median_nmse:<12.4g}"
            f" {a.mean_bf_gain:<13.4g} {a.trials_ok}/{a.trials_failed}"
        )
    return 0


def _cmd_fig1(args) -> int:
    cfg = _load_config(args)
    out_dir = _out_dir(args, cfg)
    report = scenario_fig1(cfg, out_dir=out_dir, snr_db=args.snr_db)
    for case in report.cases:
        print(
            f"L={case.l_pilots}: {case.peaks.found} peaks found, "
            f"{case.matched_truths}/{len(report.true_locations)} near true users"
            + (f" -> {case.dump_path}" if case.dump_path else "")
        )
    return 0


def _cmd_dump_spectrum(args) -> int:
    cfg = _load_config(args)
    check_output_file(args.out, "--out")
    azimuth = math.radians(args.azimuth_deg) if args.azimuth_deg is not None else None
    elevation = math.radians(args.elevation_deg) if args.elevation_deg is not None else None
    path = dump_spectrum(
        cfg,
        kind=args.kind,
        out_path=args.out,
        snr_db=args.snr_db,
        trial=args.trial,
        azimuth=azimuth,
        elevation=elevation,
    )
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfmusic",
        description="Near-field channel estimation benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file (angles in degrees)")
    common.add_argument("--seed", type=int, help="override the config seed")
    command = functools.partial(sub.add_parser, parents=[common])

    run = command("run", help="run the Monte-Carlo benchmark sweep")
    run.add_argument("--out-dir", help="output directory (default from config)")
    run.add_argument("--threads", type=int, default=1, help="parallel trial workers")
    run.add_argument("--progress", action="store_true", help="print per-SNR progress")
    run.set_defaults(func=_cmd_run)

    fig1 = command("fig1", help="plane-slice spectra with many vs few pilots")
    fig1.add_argument("--out-dir", help="output directory")
    fig1.add_argument("--snr-db", type=float, default=20.0)
    fig1.set_defaults(func=_cmd_fig1)

    dump = command("dump-spectrum", help="dump one spectrum of one trial as CSV")
    dump.add_argument("--kind", choices=SPECTRUM_KINDS, required=True)
    dump.add_argument("--out", required=True, help="output CSV path")
    dump.add_argument("--snr-db", type=float, help="SNR point (default: last in config)")
    dump.add_argument("--trial", type=int, default=0)
    dump.add_argument("--azimuth-deg", type=float, help="fixed azimuth for kind=distance")
    dump.add_argument("--elevation-deg", type=float, help="fixed elevation for kind=distance")
    dump.set_defaults(func=_cmd_dump_spectrum)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
