"""Compare two output sets written by ``scripts/output_digests.py``.

Usage: PYTHONPATH=src python scripts/compare_outputs.py OUT_A OUT_B
(or without PYTHONPATH when nfmusic is installed)

For every CSV of the set it prints one line: ``identical`` when the two files
are byte-identical; for a spectrum that differs, the largest relative
difference of its values and whether the K tallest ``find_peaks`` cells are
the same on both sides; for a sweep table that differs, the number of rows
that differ, followed by each such row from both sides, where a row past the
end of the shorter table reads ``(no row)``.  Exits 1 when a file
is missing on either side, 0 otherwise: a difference is reported, not judged.
"""

import itertools
import sys
from pathlib import Path

import numpy as np
from output_digests import REFERENCE, csv_names

from nfmusic.music import GridAxis, GridSpec, SpectrumGrid, find_peaks

SPECTRUM_HEADERS = ("axis,value", "axis1,axis2,value")


def _spectrum(lines: list[str]) -> SpectrumGrid:
    """A dumped spectrum as a grid of its values; the axes only carry the
    point counts, since peaks are compared by index."""
    table = np.array([line.split(",") for line in lines[1:]], dtype=float)
    counts = [np.unique(table[:, i]).size for i in range(table.shape[1] - 1)]
    axes = tuple(GridAxis(f"axis{i}", 0.0, 1.0, n) for i, n in enumerate(counts))
    return SpectrumGrid(GridSpec(axes), table[:, -1].reshape(counts))


def compare_spectra(lines_a: list[str], lines_b: list[str], k: int) -> str:
    a, b = _spectrum(lines_a), _spectrum(lines_b)
    if a.values.shape != b.values.shape:
        return f"grid shape {a.values.shape} vs {b.values.shape}"
    rel = float(np.max(np.abs(b.values - a.values) / a.values))
    peaks_a, peaks_b = ([p.indices for p in find_peaks(s, k).peaks] for s in (a, b))
    same = "same" if peaks_a == peaks_b else f"different ({peaks_a} vs {peaks_b})"
    return f"max relative difference {rel:.3g}, {k} tallest peaks {same}"


def compare_rows(lines_a: list[str], lines_b: list[str]) -> str:
    """Rows past the end of the shorter table differ from a missing row."""
    pairs = itertools.zip_longest(lines_a, lines_b, fillvalue="(no row)")
    differing = [(i, x, y) for i, (x, y) in enumerate(pairs) if x != y]
    text = f"{len(differing)} of {len(lines_a) - 1} rows differ"
    if len(lines_a) != len(lines_b):
        text += f" (row counts {len(lines_a) - 1} vs {len(lines_b) - 1})"
    return "\n".join([text] + [f"    row {i}:\n      A {x}\n      B {y}" for i, x, y in differing])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: PYTHONPATH=src python scripts/compare_outputs.py OUT_A OUT_B", file=sys.stderr)
        return 2
    out_a, out_b = (Path(arg) for arg in argv)
    missing = 0
    for name in csv_names():
        path_a, path_b = out_a / name, out_b / name
        absent = [str(p) for p in (path_a, path_b) if not p.is_file()]
        if absent:
            missing += 1
            print(f"{name}: missing {', '.join(absent)}")
            continue
        bytes_a, bytes_b = path_a.read_bytes(), path_b.read_bytes()
        if bytes_a == bytes_b:
            print(f"{name}: identical")
            continue
        lines_a, lines_b = bytes_a.decode().splitlines(), bytes_b.decode().splitlines()
        if lines_a[0] in SPECTRUM_HEADERS:
            print(f"{name}: {compare_spectra(lines_a, lines_b, REFERENCE.k_ues)}")
        else:
            print(f"{name}: {compare_rows(lines_a, lines_b)}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
