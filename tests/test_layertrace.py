"""The benchmark's tracer still reaches every layer it times.

``perfbench/layertrace.py`` wraps the program's functions from outside, and a
traced benchmark run fails when a wrapped layer is never called.  This runs a
small sweep and a small plane-slice scenario under the tracer, so that a
refactor moving work out from under a traced name fails here too.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from layertrace import Tracer  # noqa: E402

from nfmusic import harness


def test_tracer_reaches_every_layer(tmp_path):
    cfg = harness.ExperimentConfig(
        n_antennas=64,
        k_ues=2,
        l_pilots=2,
        trials=1,
        snr_db_list=(20.0,),
        azimuth_grid_points=40,
        elevation_grid_points=30,
        distance_grid_points=30,
        cart_grid_points=25,
        seed=7,
    )
    with Tracer() as tracer:
        harness.run_experiment(cfg, out_dir=tmp_path / "run")
        harness.scenario_fig1(cfg, out_dir=tmp_path / "fig1")
    tracer.check_reached("sweep")
    tracer.check_reached("fig1")
