"""Command-line entry points: run, fig1, dump-spectrum.

Angle-valued config values are in degrees; the library works in radians
internally.  Outputs are CSV files under the configured (or overridden)
output directory.
"""

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

from .harness import (
    ConfigError,
    ExperimentConfig,
    _output_files,
    dump_spectrum,
    parse_config,
    run_experiment,
    scenario_fig1,
)


def _load_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config) if args.config is not None else ExperimentConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _out_dir(args, cfg: ExperimentConfig) -> Path:
    name, path = ("out_dir", cfg.out_dir) if args.out_dir is None else ("--out-dir", args.out_dir)
    _output_files(path, (), name)
    return Path(path)


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    out_dir = _out_dir(args, cfg)
    report = run_experiment(cfg, out_dir=out_dir, threads=args.threads, progress=args.progress)
    print(f"wrote {out_dir / 'trials.csv'} and {out_dir / 'aggregate.csv'}")
    width = max(map(len, ("method", *cfg.methods)))
    print(f"{'method':<{width}} snr_db   mean_nmse   median_nmse  mean_bf_gain  ok/failed")
    for a in report.aggregates:
        print(
            f"{a.method:<{width}} {a.snr_db:>6g}   {a.mean_nmse:<11.4g} {a.median_nmse:<12.4g}"
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
    paths = dump_spectrum(cfg, _out_dir(args, cfg), snr_db=args.snr_db, trial=args.trial)
    print(f"wrote {paths[0]} and {paths[1]}")
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
    common.add_argument("--out-dir", help="output directory (default from config)")
    # an abbreviation would let a removed option, such as --out, pass as --out-dir
    command = functools.partial(sub.add_parser, parents=[common], allow_abbrev=False)

    run = command("run", help="run the Monte-Carlo benchmark sweep")
    run.add_argument("--threads", type=int, default=1, help="parallel trial workers")
    run.add_argument("--progress", action="store_true", help="print per-SNR progress")
    run.set_defaults(func=_cmd_run)

    fig1 = command("fig1", help="plane-slice spectra with many vs few pilots")
    fig1.add_argument("--snr-db", type=float, default=20.0)
    fig1.set_defaults(func=_cmd_fig1)

    dump = command("dump-spectrum", help="dump the two-step spectra of one trial as CSV")
    dump.add_argument("--snr-db", type=float, help="SNR point (default: last in config)")
    dump.add_argument("--trial", type=int, default=0)
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
