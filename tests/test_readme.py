"""The README's library example runs as written, and its config example parses."""

import re
from pathlib import Path

from nfmusic.harness import ExperimentConfig, parse_config_text

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    final, matched = namespace["final"], namespace["matched"]
    assert final.shape == (namespace["cfg"].n_antennas, len(matched))
    assert len(namespace["errors"]) == len(namespace["gains"]) == len(matched)


def test_config_example_parses():
    (block,) = re.findall(r"```ini\n(# exp\.cfg\n.*?)```", README.read_text(), flags=re.S)
    cfg = parse_config_text(block)
    assert cfg == ExperimentConfig(
        azimuth_range=cfg.azimuth_range,
        elevation_range=cfg.elevation_range,
        min_angular_separation=cfg.min_angular_separation,
    )
