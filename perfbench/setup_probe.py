"""Cold start of one workload: import, config, geometry and grids, then one trial.

Run as ``python3 perfbench/setup_probe.py <workload>`` from the repository
root; ``run.py`` times it from process start to exit.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import WORKLOADS, probe_unit  # noqa: E402

if __name__ == "__main__":
    probe_unit(WORKLOADS[sys.argv[1]])
