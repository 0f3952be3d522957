"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    final, matched = namespace["final"], namespace["matched"]
    assert final.shape == (namespace["cfg"].n_antennas, len(matched))
