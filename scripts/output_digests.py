"""Write a fixed set of nfmusic output CSVs and print their sha256 digests.

Usage: PYTHONPATH=src python scripts/output_digests.py OUT_DIR
(or without PYTHONPATH when nfmusic is installed)

The set is the reference, ``large_array``, ``all_methods`` and ``coarse``
sweeps at seeds 1-3 (``trials.csv`` and ``aggregate.csv`` each), the
reference sweep again on 2 worker threads (``reference_2w``), the ``fig1``
plane-slice spectra at seeds 1-3 and, on a 9 x 9 array whose middle column
is its own mirror at y = 0, at seed 1 (``fig1_n81_seed1``), the L=10
spectrum on an odd 101 x 101 (x, z) grid whose middle x = 0 column is its own
mirror, at seed 1 (``fig1_grid101_seed1``), and the two ``dump-spectrum``
CSVs, the trial's own two-step ``spectrum_angular.csv`` and
``spectrum_distance.csv``, of the reference config, written into OUT_DIR
itself, and of the ``large_array`` config (a 19 x 19 steering subgrid instead
of 9 x 9), written into ``spectrum_large_array/``: 43 files.
Each line printed is ``path sha256`` with the path relative to OUT_DIR, so
diffing the output of two checkouts shows whether a change kept every output
byte-identical.  The ``reference_2w`` files must hold the bytes of the
``reference`` files of the same seed; the script exits 1, naming each file,
when they do not.  They are hashed as well, so that comparing two checkouts
with ``scripts/compare_outputs.py`` also shows a change on the pool path.
"""

import dataclasses
import hashlib
import sys
from pathlib import Path

from nfmusic.harness import ExperimentConfig, dump_spectrum, run_experiment, scenario_fig1

SEEDS = (1, 2, 3)
REFERENCE = ExperimentConfig(snr_db_list=(0.0, 10.0, 20.0), trials=3)
SWEEPS = {
    "reference": REFERENCE,
    "large_array": dataclasses.replace(
        REFERENCE,
        n_antennas=400,
        azimuth_grid_points=60,
        elevation_grid_points=40,
        distance_range=None,
        trials=1,
    ),
    # every method in one trial, listed out of the default order
    "all_methods": dataclasses.replace(
        REFERENCE,
        methods=("ls", "rls", "proposed_nocorrect", "proposed"),
        snr_db_list=(10.0, 20.0),
        trials=2,
    ),
    # a grid too coarse for every user, so the parametric methods have failed
    # trials and unmatched users
    "coarse": dataclasses.replace(
        REFERENCE,
        methods=("ls", "rls", "proposed_nocorrect", "proposed"),
        snr_db_list=(0.0, 20.0),
        azimuth_grid_points=8,
        elevation_grid_points=6,
        distance_grid_points=6,
    ),
}
FIG1_L = (10, 3)
# an odd-sided array for fig1, at seed 1 only
FIG1_ODD = dataclasses.replace(REFERENCE, n_antennas=81, seed=1)
# an odd (x, z) grid for fig1, at seed 1 and L=10 only
FIG1_ODD_GRID = dataclasses.replace(REFERENCE, cart_grid_points=101, seed=1)
# SWEEPS config -> the directory under OUT_DIR its spectrum dump goes to
SPECTRUM_DUMPS = {"reference": "", "large_array": "spectrum_large_array/"}


def csv_names() -> list[str]:
    """Every CSV of the set, as a path relative to OUT_DIR, in write order."""
    names = [
        f"{name}_seed{seed}/{csv}"
        for name in (*SWEEPS, "reference_2w")
        for seed in SEEDS
        for csv in ("trials.csv", "aggregate.csv")
    ]
    names += [f"fig1_seed{seed}/fig1_L{l_pilots}.csv" for seed in SEEDS for l_pilots in FIG1_L]
    names += [f"fig1_n81_seed1/fig1_L{l_pilots}.csv" for l_pilots in FIG1_L]
    names.append(f"fig1_grid101_seed1/fig1_L{FIG1_L[0]}.csv")
    return names + [
        f"{subdir}spectrum_{kind}.csv"
        for subdir in SPECTRUM_DUMPS.values()
        for kind in ("angular", "distance")
    ]


def write_outputs(out: Path) -> list[Path]:
    """Write every CSV of the set under ``out`` and return their paths."""
    for name, cfg in SWEEPS.items():
        for seed in SEEDS:
            run_experiment(dataclasses.replace(cfg, seed=seed), out_dir=out / f"{name}_seed{seed}")
    for seed in SEEDS:
        cfg = dataclasses.replace(REFERENCE, seed=seed)
        run_experiment(cfg, out_dir=out / f"reference_2w_seed{seed}", threads=2)
    for seed in SEEDS:
        cfg = dataclasses.replace(REFERENCE, seed=seed)
        scenario_fig1(cfg, out_dir=out / f"fig1_seed{seed}", l_values=FIG1_L)
    scenario_fig1(FIG1_ODD, out_dir=out / "fig1_n81_seed1", l_values=FIG1_L)
    scenario_fig1(FIG1_ODD_GRID, out_dir=out / "fig1_grid101_seed1", l_values=FIG1_L[:1])
    for config, subdir in SPECTRUM_DUMPS.items():
        dump_spectrum(SWEEPS[config], out / subdir)
    return [out / name for name in csv_names()]


def pooled_mismatches(out: Path) -> list[str]:
    """Every ``reference_2w`` file under ``out`` whose bytes differ from the
    ``reference`` file of the same seed and name."""
    return [
        f"reference_2w_seed{seed}/{csv}"
        for seed in SEEDS
        for csv in ("trials.csv", "aggregate.csv")
        if (out / f"reference_2w_seed{seed}" / csv).read_bytes()
        != (out / f"reference_seed{seed}" / csv).read_bytes()
    ]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: PYTHONPATH=src python scripts/output_digests.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    for path in write_outputs(out):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{path.relative_to(out)} {digest}")
    mismatches = pooled_mismatches(out)
    for name in mismatches:
        print(f"{name} differs from its one-worker sweep", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
