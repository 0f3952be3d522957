"""scripts/compare_outputs.py reports, file by file, how two output sets differ."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import compare_outputs  # noqa: E402
from output_digests import csv_names, pooled_mismatches  # noqa: E402

from nfmusic.harness import dump_spectrum_csv
from nfmusic.music import GridAxis, GridSpec, SpectrumGrid

TABLE_ROWS = ("proposed,10,0.125", "ls,10,0.5", "rls,10,0.5")
# interior cells raised above a flat floor: the 4 peaks compare_outputs looks for
PLANE_PEAKS = {(2, 2): 5.0, (2, 5): 4.0, (5, 2): 3.0, (5, 5): 2.0}
LINE_PEAKS = {1: 5.0, 3: 4.0, 5: 3.0, 7: 2.0}


def _spectrum(peaks: dict, shape: tuple[int, ...]) -> SpectrumGrid:
    values = np.ones(shape)
    for cell, height in peaks.items():
        values[cell] = height
    axes = tuple(GridAxis(f"axis{i}", 1.0, 2.0, n) for i, n in enumerate(shape))
    return SpectrumGrid(GridSpec(axes), values)


def _write_outputs(root: Path, table_rows=TABLE_ROWS, plane_peaks=PLANE_PEAKS) -> None:
    """One small CSV under ``root`` for every name of the digest set: a table
    for each sweep file, a 1-D spectrum for each distance dump and an 8x8
    plane for every other spectrum."""
    for name in csv_names():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if name.endswith(("trials.csv", "aggregate.csv")):
            path.write_text("\n".join(("method,snr_db,nmse", *table_rows)) + "\n")
        elif name.startswith("spectrum_distance"):
            dump_spectrum_csv(_spectrum(LINE_PEAKS, (9,)), path)
        else:
            dump_spectrum_csv(_spectrum(plane_peaks, (8, 8)), path)


def _compare(tmp_path, capsys) -> tuple[int, dict[str, str]]:
    """Exit code and the report as {file name: what follows it}."""
    rc = compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")])
    report, name = {}, None
    for line in capsys.readouterr().out.splitlines():
        if not line.startswith(" "):
            name, _, line = line.partition(": ")
            report[name] = line
        else:
            report[name] += "\n" + line.strip()
    return rc, report


def test_identical_trees(tmp_path, capsys):
    _write_outputs(tmp_path / "a")
    _write_outputs(tmp_path / "b")
    rc, report = _compare(tmp_path, capsys)
    assert rc == 0
    assert report == {name: "identical" for name in csv_names()}


def test_pooled_sweep_must_equal_its_one_worker_sweep(tmp_path):
    _write_outputs(tmp_path)
    assert pooled_mismatches(tmp_path) == []
    (tmp_path / "reference_2w_seed2" / "trials.csv").write_text("method,snr_db,nmse\n")
    assert pooled_mismatches(tmp_path) == ["reference_2w_seed2/trials.csv"]


def test_changed_table_row_is_shown_from_both_sides(tmp_path, capsys):
    changed = (TABLE_ROWS[0], "ls,10,0.75", TABLE_ROWS[2])
    _write_outputs(tmp_path / "a")
    _write_outputs(tmp_path / "b", table_rows=changed)
    rc, report = _compare(tmp_path, capsys)
    assert rc == 0
    tables = [n for n in csv_names() if n.endswith(("trials.csv", "aggregate.csv"))]
    for name in tables:
        assert report[name].splitlines() == [
            "1 of 3 rows differ",
            "row 2:",
            f"A {TABLE_ROWS[1]}",
            f"B {changed[1]}",
        ]
    assert all(report[n] == "identical" for n in csv_names() if n not in tables)


@pytest.mark.parametrize(
    "rows_b, row_counts, row, row_a, row_b",
    [
        ((*TABLE_ROWS, "rls,20,0.25"), "3 vs 4", 4, "(no row)", "rls,20,0.25"),
        (TABLE_ROWS[:2], "3 vs 2", 3, TABLE_ROWS[2], "(no row)"),
    ],
    ids=["appended", "dropped"],
)
def test_row_past_the_shorter_table_is_shown(
    rows_b, row_counts, row, row_a, row_b, tmp_path, capsys
):
    _write_outputs(tmp_path / "a")
    _write_outputs(tmp_path / "b", table_rows=rows_b)
    rc, report = _compare(tmp_path, capsys)
    assert rc == 0
    tables = [n for n in csv_names() if n.endswith(("trials.csv", "aggregate.csv"))]
    for name in tables:
        assert report[name].splitlines() == [
            f"1 of 3 rows differ (row counts {row_counts})",
            f"row {row}:",
            f"A {row_a}",
            f"B {row_b}",
        ]


def test_scaled_spectrum_value_keeps_its_peaks(tmp_path, capsys):
    scaled = dict(PLANE_PEAKS)
    scaled[(2, 5)] *= 1.25
    _write_outputs(tmp_path / "a")
    _write_outputs(tmp_path / "b", plane_peaks=scaled)
    rc, report = _compare(tmp_path, capsys)
    assert rc == 0
    assert report["spectrum_xz.csv"] == "max relative difference 0.25, 4 tallest peaks same"
    assert report["spectrum_distance.csv"] == "identical"


@pytest.mark.parametrize("side", ["a", "b"])
def test_missing_file_exits_with_one(side, tmp_path, capsys):
    _write_outputs(tmp_path / "a")
    _write_outputs(tmp_path / "b")
    missing = tmp_path / side / "fig1_seed2" / "fig1_L3.csv"
    missing.unlink()
    rc, report = _compare(tmp_path, capsys)
    assert rc == 1
    assert report["fig1_seed2/fig1_L3.csv"] == f"missing {missing}"
    assert sum(text == "identical" for text in report.values()) == len(csv_names()) - 1
