import contextlib
import dataclasses
import math
import tempfile
import warnings as _warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nfmusic.harness as harness
from nfmusic.cli import main as cli_main
from nfmusic.geometry import PolarLocation, cart_to_polar, polar_to_cart
from nfmusic.harness import (
    KNOWN_METHODS,
    ConfigError,
    ExperimentConfig,
    parse_config_text,
    place_ues,
    run_experiment,
    scenario_fig1,
)
from nfmusic.metrics import AggregateRecord, TrialRecord, aggregate
from nfmusic.refine import IllConditionedError
from nfmusic.signal import stream


class TestConfigDefaults:
    def test_reference_setup(self):
        cfg = ExperimentConfig()
        assert cfg.element_diag == pytest.approx(0.1 / math.sqrt(2))
        assert cfg.distance_range[0] == pytest.approx(1.41421356, rel=1e-6)
        assert cfg.distance_range[1] == pytest.approx(10.0)
        assert cfg.azimuth_range == (-4 * math.pi / 9, 4 * math.pi / 9)
        assert cfg.min_angular_separation == pytest.approx(math.pi / 100)

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(n_antennas=50)
        with pytest.raises(ConfigError):
            ExperimentConfig(c_r=10)
        with pytest.raises(ConfigError):
            ExperimentConfig(methods=("bogus",))
        with pytest.raises(ConfigError):
            ExperimentConfig(snr_ref="sometimes")
        with pytest.raises(ConfigError):
            ExperimentConfig(snr_db_list=(10.0, 10.0))
        with pytest.raises(ConfigError, match="methods"):
            ExperimentConfig(methods=("proposed", "proposed", "ls"))
        for k_ues, c_r in ((9, 1), (16, 0), (17, 0)):
            with pytest.raises(ConfigError, match="k_ues"):
                ExperimentConfig(n_antennas=16, k_ues=k_ues, c_r=c_r)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(seed=-1),
            dict(min_angular_separation=math.nan),
            dict(wavelength=math.nan, distance_range=(1.0, 5.0)),
            dict(element_diag=math.inf),
            dict(distance_range=(1.0, math.inf)),
            dict(distance_range=(math.nan, 5.0)),
            dict(distance_spacing="inverse-distance"),
            dict(cart_grid_points=1),
        ],
    )
    def test_nonfinite_and_out_of_range_values_rejected(self, fields):
        with pytest.raises(ConfigError):
            ExperimentConfig(**fields)

    def test_near_field_warning_follows_grid_validation(self):
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="distance"):
                ExperimentConfig(distance_range=(0.5, 10.0), distance_grid_points=1)

    @pytest.mark.parametrize("k_ues, c_r", [(8, 1), (15, 0)])
    def test_users_below_the_subarray_size_accepted(self, k_ues, c_r):
        assert ExperimentConfig(n_antennas=16, k_ues=k_ues, c_r=c_r).k_ues == k_ues

    @pytest.mark.parametrize("snr_db", [-math.inf, math.nan])
    def test_minus_inf_and_nan_snr_rejected(self, snr_db):
        with pytest.raises(ConfigError, match="snr_db_list"):
            ExperimentConfig(snr_db_list=(10.0, snr_db))
        with pytest.raises(ConfigError, match="snr_db_list"):
            parse_config_text(f"snr_db_list=10,{snr_db}\n")

    def test_inf_snr_accepted(self):
        assert parse_config_text("snr_db_list=20,inf\n").snr_db_list == (20.0, math.inf)

    def test_unplaceable_user_count_rejected(self):
        # pairs closer than sep in both angles are forbidden, so a range
        # spanning 2.5 x 0.5 separations holds at most 3 x 1 users
        sep = math.radians(2.0)
        ranges = dict(azimuth_range=(0.0, 2.5 * sep), elevation_range=(0.0, 0.5 * sep))
        assert ExperimentConfig(k_ues=3, min_angular_separation=sep, **ranges).k_ues == 3
        with pytest.raises(ConfigError, match="min_angular_separation"):
            ExperimentConfig(k_ues=4, min_angular_separation=sep, **ranges)
        with pytest.raises(ConfigError, match="min_angular_separation"):
            parse_config_text(
                "n_antennas=16\nk_ues=3\nazimuth_range=0,5\nelevation_range=0,5\n"
                "min_angular_separation=20\n"
            )

    def test_zero_separation_places_any_user_count(self):
        cfg = ExperimentConfig(
            k_ues=6, azimuth_range=(0.0, 0.0), elevation_range=(0.0, 0.0), min_angular_separation=0.0
        )
        assert len(place_ues(cfg, stream(1, 0))) == 6

    def test_distance_below_near_field_limit_warns(self):
        with pytest.warns(UserWarning):
            ExperimentConfig(distance_range=(0.5, 10.0))


class TestConfigParsing:
    def test_flat_key_value_with_degree_angles(self):
        cfg = parse_config_text(
            """
            # comment line
            n_antennas=64
            k_ues=2
            snr_db_list=0,10,20
            azimuth_range=-45,45
            elevation_range=-30,30
            min_angular_separation=1.8
            methods=proposed,ls
            out_dir=/tmp/results
            """
        )
        assert cfg.n_antennas == 64
        assert cfg.snr_db_list == (0.0, 10.0, 20.0)
        assert cfg.azimuth_range == pytest.approx((-math.pi / 4, math.pi / 4))
        assert cfg.elevation_range == pytest.approx((-math.pi / 6, math.pi / 6))
        assert cfg.min_angular_separation == pytest.approx(math.radians(1.8))
        assert cfg.methods == ("proposed", "ls")
        assert cfg.out_dir == "/tmp/results"

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("n_antennas=16\nbogus_key=3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed=1\nseed=2\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config_text("this is not a config line\n")

    def test_bad_value_reported_with_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("trials=many\n")


# One valid, non-default value per ExperimentConfig field, angles in radians.
_SAMPLE = ExperimentConfig(
    n_antennas=64,
    k_ues=2,
    l_pilots=5,
    c_r=2,
    wavelength=0.05,
    element_diag=0.04,
    snr_db_list=(3.0, 7.5),
    trials=9,
    seed=42,
    azimuth_range=(math.radians(-30.0), math.radians(40.0)),
    elevation_range=(math.radians(-20.0), math.radians(10.0)),
    min_angular_separation=math.radians(2.5),
    distance_range=(2.0, 6.0),
    azimuth_grid_points=31,
    elevation_grid_points=21,
    distance_grid_points=11,
    cart_grid_points=7,
    distance_spacing="uniform",
    methods=("ls", "rls"),
    snr_ref="absolute",
    out_dir="elsewhere",
)
_ANGULAR = ("azimuth_range", "elevation_range", "min_angular_separation")
_FIELDS = dataclasses.fields(ExperimentConfig)


def _config_text(name, value):
    """``value`` written as the config file gives it: comma lists, degrees."""
    items = value if isinstance(value, tuple) else (value,)
    if name in _ANGULAR:
        items = [math.degrees(x) for x in items]
    return ",".join(str(x) for x in items)


class TestConfigSchema:
    """The parser reads each field's type from ExperimentConfig itself."""

    @pytest.mark.parametrize("field", _FIELDS, ids=lambda f: f.name)
    def test_every_field_parses_to_its_value(self, field):
        want = getattr(_SAMPLE, field.name)
        assert want != getattr(ExperimentConfig(), field.name)
        cfg = parse_config_text(f"{field.name}={_config_text(field.name, want)}\n")
        got = getattr(cfg, field.name)
        assert type(got) is type(want)
        if field.name in _ANGULAR:
            assert got == pytest.approx(want, rel=1e-12)
        else:
            assert got == want

    @pytest.mark.parametrize(
        "field",
        [f for f in _FIELDS if f.type not in (str, tuple[str, ...])],
        ids=lambda f: f.name,
    )
    def test_ill_typed_value_names_its_line(self, field):
        with pytest.raises(ConfigError, match=f"line 3: bad value for '{field.name}'"):
            parse_config_text(f"# header\n\n{field.name}=x\n")

    def test_pair_needs_two_values(self):
        with pytest.raises(ConfigError, match="line 1: .*expected 2"):
            parse_config_text("distance_range=2,4,6\n")


class TestPlaceUes:
    def test_single_user_no_constraint(self):
        cfg = ExperimentConfig(k_ues=1)
        locs = place_ues(cfg, stream(3, 0))
        assert len(locs) == 1
        p = cart_to_polar(locs[0])
        assert cfg.azimuth_range[0] <= p.azimuth <= cfg.azimuth_range[1]
        assert cfg.distance_range[0] <= p.distance <= cfg.distance_range[1]

    def test_pairwise_separation_predicate(self):
        cfg = ExperimentConfig()
        sep = cfg.min_angular_separation
        for t in range(20):
            locs = place_ues(cfg, stream(4, t))
            polars = [cart_to_polar(l) for l in locs]
            for i in range(4):
                for j in range(i + 1, 4):
                    da = abs(polars[i].azimuth - polars[j].azimuth)
                    de = abs(polars[i].elevation - polars[j].elevation)
                    assert da >= sep or de >= sep

    def test_deterministic_given_seed(self):
        cfg = ExperimentConfig()
        a = place_ues(cfg, stream(5, 9))
        b = place_ues(cfg, stream(5, 9))
        assert a == b

    def test_budget_exhaustion_raises(self):
        # 3 users fit only at spacings of almost exactly one separation, which
        # rejection sampling practically never draws
        cfg = ExperimentConfig(
            k_ues=3,
            azimuth_range=(0.0, 2.05 * math.pi / 100),
            elevation_range=(-0.001, 0.001),
        )
        with pytest.raises(ConfigError, match="budget"):
            place_ues(cfg, stream(6, 0))


def _tiny_config(**kw):
    defaults = dict(
        n_antennas=64,
        k_ues=2,
        l_pilots=2,
        c_r=1,
        trials=3,
        snr_db_list=(20.0,),
        azimuth_grid_points=40,
        elevation_grid_points=30,
        distance_grid_points=30,
        cart_grid_points=25,
        seed=7,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestRunExperiment:
    def test_noiseless_on_grid_single_user_proposed(self, monkeypatch):
        cfg = _tiny_config(
            k_ues=1,
            l_pilots=1,
            c_r=0,
            trials=1,
            snr_db_list=(math.inf,),
            methods=("proposed",),
        )
        ag, dg = cfg.angular_grid(), cfg.distance_grid()
        azp, elp = ag.axis_points()
        dp = dg.axis_points()[0]
        on_grid = polar_to_cart(
            PolarLocation(
                azimuth=float(azp[25]), elevation=float(elp[10]), distance=float(dp[12])
            )
        )
        monkeypatch.setattr(harness, "place_ues", lambda c, rng: [on_grid])
        report = run_experiment(cfg)
        rows = [r for r in report.records if r.method == "proposed"]
        assert len(rows) == 1
        assert rows[0].nmse < 1e-6
        assert rows[0].peaks_found == 1

    def test_emits_all_methods_and_rows(self):
        cfg = _tiny_config(methods=("proposed", "proposed_nocorrect", "ls", "rls"))
        report = run_experiment(cfg)
        assert len(report.records) == 4 * 3 * 2  # methods * trials * users
        assert {r.method for r in report.records} == set(cfg.methods)
        for r in report.records:
            if r.method in ("ls", "rls"):
                assert math.isnan(r.az_err_rad)
                assert r.peaks_found == cfg.k_ues

    def test_music3d_method_produces_location_errors(self):
        cfg = _tiny_config(methods=("music3d",), trials=1, l_pilots=3, cart_grid_points=20)
        report = run_experiment(cfg)
        assert {r.method for r in report.records} == {"music3d"}
        assert len(report.records) == 2

    def test_aggregates_match_recomputation_from_records(self):
        cfg = _tiny_config(methods=("proposed", "ls"), snr_db_list=(10.0, 20.0))
        report = run_experiment(cfg)
        recomputed = aggregate(report.records, cfg.methods, cfg.snr_db_list, cfg.k_ues)
        assert recomputed == report.aggregates

    def test_programming_error_in_trial_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("estimator bug")

        monkeypatch.setattr(harness, "two_step_estimate", broken)
        with pytest.raises(TypeError, match="estimator bug"):
            run_experiment(_tiny_config(methods=("proposed", "ls"), trials=1))

    def test_corrector_failure_fails_only_corrected_method(self, monkeypatch):
        def ill_conditioned(*args, **kwargs):
            raise IllConditionedError(math.inf)

        monkeypatch.setattr(harness, "estimate_correctors", ill_conditioned)
        cfg = _tiny_config(methods=("proposed", "proposed_nocorrect", "ls", "rls"), trials=2)
        report = run_experiment(cfg)
        rows = {m: [r for r in report.records if r.method == m] for m in cfg.methods}
        assert all(len(v) == 2 * 2 for v in rows.values())
        assert all(math.isnan(r.nmse) and math.isnan(r.az_err_rad) for r in rows["proposed"])
        # the search still ran: both variants report the peaks it found
        found = [r.peaks_found for r in rows["proposed_nocorrect"]]
        assert [r.peaks_found for r in rows["proposed"]] == found
        assert all(f == cfg.k_ues for f in found)
        for method in ("proposed_nocorrect", "ls", "rls"):
            assert all(math.isfinite(r.nmse) for r in rows[method])
        assert all(math.isfinite(r.az_err_rad) for r in rows["proposed_nocorrect"])
        failed = {a.method: a.trials_failed for a in report.aggregates}
        assert failed == {"proposed": 2, "proposed_nocorrect": 0, "ls": 0, "rls": 0}

    def test_progress_lines_match_across_thread_counts(self, capsys):
        cfg = _tiny_config(methods=("ls",), trials=50, snr_db_list=(10.0, 20.0))
        run_experiment(cfg, progress=True)
        one_worker = capsys.readouterr().out
        run_experiment(cfg, threads=2, progress=True)
        assert capsys.readouterr().out == one_worker
        assert one_worker.splitlines() == [
            f"snr {snr} dB: {n}/50 trials" for snr in (10, 20) for n in (25, 50)
        ]

    @pytest.mark.parametrize("trials, counts", [(30, (25, 30)), (10, (10,))])
    def test_progress_reports_the_last_trial(self, trials, counts, capsys):
        run_experiment(_tiny_config(methods=("ls",), trials=trials), progress=True)
        assert capsys.readouterr().out.splitlines() == [
            f"snr 20 dB: {n}/{trials} trials" for n in counts
        ]

    def test_estimation_failure_scores_failed_trial(self, monkeypatch):
        def fails(*args, **kwargs):
            raise ValueError("no usable subspace")

        monkeypatch.setattr(harness, "two_step_estimate", fails)
        report = run_experiment(_tiny_config(methods=("proposed", "ls"), trials=2))
        proposed = [r for r in report.records if r.method == "proposed"]
        assert len(proposed) == 2 * 2
        assert all(math.isnan(r.nmse) and r.peaks_found == 0 for r in proposed)
        by_method = {a.method: a for a in report.aggregates}
        assert by_method["proposed"].trials_failed == 2
        assert by_method["ls"].trials_failed == 0


class TestDeterminism:
    def test_byte_identical_csv_across_thread_counts(self, tmp_path):
        cfg = _tiny_config(snr_db_list=(10.0, 20.0))
        run_experiment(cfg, out_dir=tmp_path / "a", threads=1)
        run_experiment(cfg, out_dir=tmp_path / "b", threads=4)
        for name in ("trials.csv", "aggregate.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    def test_pool_runs_blas_single_threaded_and_restores_count(self, monkeypatch):
        funcs = harness._openblas_threads()
        if funcs is None:
            pytest.skip("numpy ships no bundled OpenBLAS")
        set_threads, get_threads = funcs
        seen = []
        run_trial = harness._run_trial

        def spy(*args):
            seen.append(get_threads())
            return run_trial(*args)

        monkeypatch.setattr(harness, "_run_trial", spy)
        original = get_threads()
        set_threads(2)
        try:
            run_experiment(_tiny_config(trials=2), threads=2)
            assert get_threads() == 2
        finally:
            set_threads(original)
        assert seen == [1, 1]

    def test_csv_round_trip_consistency(self, tmp_path):
        cfg = _tiny_config()
        report = run_experiment(cfg, out_dir=tmp_path)
        lines = (tmp_path / "trials.csv").read_text().strip().splitlines()
        assert lines[0] == ",".join(f.name for f in dataclasses.fields(TrialRecord))
        assert len(lines) == 1 + len(report.records)
        first = lines[1].split(",")
        assert first[0] == report.records[0].method
        assert float(first[4]) == pytest.approx(report.records[0].nmse, rel=1e-8)

    def test_aggregate_csv_recomputable_from_trial_csv(self, tmp_path):
        cfg = _tiny_config(methods=("proposed", "ls"), snr_db_list=(10.0, 20.0))
        run_experiment(cfg, out_dir=tmp_path)
        rows = []
        for line in (tmp_path / "trials.csv").read_text().strip().splitlines()[1:]:
            f = line.split(",")
            rows.append(
                TrialRecord(
                    method=f[0],
                    snr_db=float(f[1]),
                    trial=int(f[2]),
                    ue=int(f[3]),
                    nmse=float(f[4]),
                    bf_gain=float(f[5]),
                    az_err_rad=float(f[6]),
                    el_err_rad=float(f[7]),
                    dist_err_m=float(f[8]),
                    peaks_found=int(f[9]),
                )
            )
        recomputed = aggregate(rows, cfg.methods, cfg.snr_db_list, cfg.k_ues)
        agg_lines = (tmp_path / "aggregate.csv").read_text().strip().splitlines()
        assert agg_lines[0] == ",".join(f.name for f in dataclasses.fields(AggregateRecord))
        for line, agg in zip(agg_lines[1:], recomputed):
            f = line.split(",")
            assert f[0] == agg.method
            assert float(f[1]) == agg.snr_db
            assert float(f[2]) == pytest.approx(agg.mean_nmse, rel=1e-8)
            assert float(f[3]) == pytest.approx(agg.median_nmse, rel=1e-8)
            assert float(f[4]) == pytest.approx(agg.mean_bf_gain, rel=1e-8)
            assert int(f[5]) == agg.trials_ok
            assert int(f[6]) == agg.trials_failed


class TestScenarioFig1:
    def test_single_user_yields_single_peak(self, tmp_path):
        cfg = _tiny_config(k_ues=1, l_pilots=3, cart_grid_points=60, seed=3)
        report = scenario_fig1(cfg, out_dir=tmp_path, l_values=(10,))
        case = report.cases[0]
        assert case.peaks.found >= 1
        assert case.matched_truths == 1
        dump = case.dump_path.read_text().splitlines()
        assert dump[0] == "axis1,axis2,value"
        assert len(dump) == 1 + 60 * 60

    def test_minus_inf_snr_rejected(self):
        with pytest.raises(ConfigError, match="snr_db_list"):
            scenario_fig1(_tiny_config(cart_grid_points=10), snr_db=-math.inf)

    def test_elevation_forced_to_zero(self):
        cfg = _tiny_config(k_ues=2, l_pilots=3, cart_grid_points=30, seed=5)
        report = scenario_fig1(cfg, l_values=(6,))
        for loc in report.true_locations:
            assert loc.y == pytest.approx(0.0, abs=1e-12)


class TestDumpSpectrum:
    def test_angular_dump(self, tmp_path):
        cfg = _tiny_config()
        out = harness.dump_spectrum(cfg, "angular", tmp_path / "ang.csv")
        lines = out.read_text().splitlines()
        assert lines[0] == "axis1,axis2,value"
        assert len(lines) == 1 + 40 * 30

    def test_distance_dump_without_angular_peak_rejected(self, tmp_path):
        # a 2x2 angular grid has no interior cell, so no peak to take angles from
        cfg = _tiny_config(azimuth_grid_points=2, elevation_grid_points=2)
        with pytest.raises(ConfigError, match="azimuth/elevation"):
            harness.dump_spectrum(cfg, "distance", tmp_path / "dist.csv")
        assert not (tmp_path / "dist.csv").exists()

    def test_distance_dump_with_explicit_angles(self, tmp_path):
        cfg = _tiny_config()
        out = harness.dump_spectrum(
            cfg, "distance", tmp_path / "dist.csv", azimuth=0.2, elevation=-0.1
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "axis,value"
        assert len(lines) == 1 + 30
        first_axis = float(lines[1].split(",")[0])
        assert first_axis == pytest.approx(cfg.distance_range[0], rel=1e-6)


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            "n_antennas=64\nk_ues=2\nl_pilots=2\ntrials=2\nsnr_db_list=20\n"
            "azimuth_grid_points=40\nelevation_grid_points=30\ndistance_grid_points=30\n"
            "methods=proposed,ls\n"
        )
        rc = cli_main(
            ["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"), "--seed", "9"]
        )
        assert rc == 0
        assert (tmp_path / "out" / "trials.csv").exists()
        assert (tmp_path / "out" / "aggregate.csv").exists()
        assert "proposed" in capsys.readouterr().out

    def test_snr_ref_option_matches_config_value(self, tmp_path):
        text = (
            "n_antennas=64\nk_ues=2\nl_pilots=2\ntrials=2\nsnr_db_list=10\n"
            "azimuth_grid_points=40\nelevation_grid_points=30\ndistance_grid_points=30\n"
        )
        (tmp_path / "relative.cfg").write_text(text)
        (tmp_path / "absolute.cfg").write_text(text + "snr_ref=absolute\n")
        runs = {
            "option": ["--config", str(tmp_path / "relative.cfg"), "--snr-ref", "absolute"],
            "config": ["--config", str(tmp_path / "absolute.cfg")],
            "relative": ["--config", str(tmp_path / "relative.cfg")],
        }
        for name, args in runs.items():
            assert cli_main(["run", *args, "--out-dir", str(tmp_path / name)]) == 0
        trials = {name: (tmp_path / name / "trials.csv").read_bytes() for name in runs}
        assert trials["option"] == trials["config"] != trials["relative"]

    def test_fig1_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("n_antennas=64\nk_ues=2\ncart_grid_points=30\n")
        rc = cli_main(["fig1", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        for l_pilots in (10, 3):
            lines = (tmp_path / "out" / f"fig1_L{l_pilots}.csv").read_text().splitlines()
            assert lines[0] == "axis1,axis2,value"
            assert len(lines) == 1 + 30 * 30
        out = capsys.readouterr().out
        assert "L=10:" in out and "L=3:" in out

    def test_dump_spectrum_subcommand(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            "n_antennas=64\nk_ues=2\nl_pilots=2\ntrials=1\nsnr_db_list=20\n"
            "azimuth_grid_points=40\nelevation_grid_points=30\ndistance_grid_points=30\n"
        )
        out = tmp_path / "spec.csv"
        rc = cli_main(
            ["dump-spectrum", "--config", str(cfg_path), "--kind", "angular", "--out", str(out)]
        )
        assert rc == 0
        assert out.exists()

    def test_dump_spectrum_rejects_snr_outside_list(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("n_antennas=64\nk_ues=2\nsnr_db_list=0,10,20\n")
        out = tmp_path / "spec.csv"
        rc = cli_main(
            ["dump-spectrum", "--config", str(cfg_path), "--kind", "angular", "--out", str(out),
             "--snr-db", "7"]
        )
        assert rc == 2
        assert "[0.0, 10.0, 20.0]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["azimuth_range", "elevation_range"])
    def test_point_angular_range_returns_error_code(self, field, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(f"n_antennas=16\nk_ues=1\ntrials=1\nsnr_db_list=20\n{field}=0,0\n")
        rc = cli_main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out" / "trials.csv").exists()

    @pytest.mark.parametrize(
        "argv", [["fig1"], ["dump-spectrum", "--kind", "xz", "--out", "spec.csv"]]
    )
    def test_too_many_users_returns_error_code(self, argv, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("n_antennas=16\nk_ues=17\ntrials=1\nsnr_db_list=20\n")
        rc = cli_main([*argv, "--config", str(cfg_path)])
        assert rc == 2
        assert "k_ues" in capsys.readouterr().err

    def test_dump_spectrum_negative_trial_returns_error_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("n_antennas=16\nk_ues=2\ntrials=1\nsnr_db_list=20\n")
        out = tmp_path / "spec.csv"
        rc = cli_main(
            ["dump-spectrum", "--config", str(cfg_path), "--kind", "angular", "--out", str(out),
             "--trial", "-1"]
        )
        assert rc == 2
        assert "trial" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, field",
        [
            ("seed=-1\n", "seed"),
            ("wavelength=nan\ndistance_range=1,5\n", "wavelength"),
            ("distance_range=1,inf\n", "distance"),
            ("min_angular_separation=nan\n", "min_angular_separation"),
        ],
    )
    def test_invalid_value_returns_error_code(self, text, field, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("n_antennas=16\nk_ues=2\ntrials=1\nsnr_db_list=20\n" + text)
        rc = cli_main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out" / "trials.csv").exists()

    @pytest.mark.parametrize("threads", [0, -2])
    def test_thread_count_below_one_returns_error_code(self, threads, tmp_path, capsys):
        with pytest.raises(ConfigError, match="threads"):
            run_experiment(_tiny_config(trials=1), threads=threads)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("n_antennas=16\nk_ues=1\ntrials=1\nsnr_db_list=20\n")
        rc = cli_main(
            ["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"),
             "--threads", str(threads)]
        )
        assert rc == 2
        assert "threads" in capsys.readouterr().err
        assert not (tmp_path / "out" / "trials.csv").exists()

    def test_bad_config_returns_error_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("nonsense_key=1\n")
        rc = cli_main(["run", "--config", str(cfg_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err


@st.composite
def _tiny_config_texts(draw):
    """Config text for a 16-element array with 1-20 users, 2-6 points per grid
    axis, angular ranges in degrees, some empty (lo == hi) or out of range, a
    method list that may repeat an entry, and sometimes a negative seed or a
    non-finite wavelength or distance range."""

    def degree_range():
        lo = draw(st.integers(-92, 60))
        return f"{lo},{lo + draw(st.sampled_from([20, 5, 40, 0]))}"

    lines = {
        "n_antennas": 16,
        "k_ues": draw(st.integers(1, 20)),
        "l_pilots": draw(st.integers(1, 4)),
        "trials": 1,
        "seed": draw(st.one_of(st.just(-1), st.integers(0, 1000))),
        "snr_db_list": draw(st.sampled_from([0, 20])),
        "azimuth_range": degree_range(),
        "elevation_range": degree_range(),
        "min_angular_separation": draw(st.floats(0.0, 30.0)),
        "methods": ",".join(draw(st.lists(st.sampled_from(KNOWN_METHODS), min_size=1, max_size=4))),
    }
    for name in ("azimuth", "elevation", "distance", "cart"):
        lines[f"{name}_grid_points"] = draw(st.integers(2, 6))
    for name, values in (
        ("wavelength", ["0.1", "nan", "inf"]),
        ("distance_range", ["1,5", "1,inf", "nan,5"]),
    ):
        value = draw(st.sampled_from([None, *values]))
        if value is not None:
            lines[name] = value
    return "\n".join(f"{k}={v}" for k, v in lines.items())


class TestConfigProperty:
    @settings(max_examples=200, deadline=None)
    @given(_tiny_config_texts(), st.sampled_from([-1, 0, 1]))
    def test_config_runs_or_raises_config_error(self, text, trial):
        """A sweep, the plane-slice scenario and every spectrum dump of an
        accepted config either return or raise ConfigError, and a sweep has one
        row per (method, SNR, trial, user)."""
        try:
            cfg = parse_config_text(text)
        except ConfigError:
            return
        # a hopeless placement raises ConfigError after PLACEMENT_BUDGET
        # attempts either way; a small budget keeps such examples cheap
        with mock.patch.object(harness, "PLACEMENT_BUDGET", 1000):
            with contextlib.suppress(ConfigError):
                report = run_experiment(cfg)
                keys = {(r.method, r.snr_db, r.trial, r.ue) for r in report.records}
                n_rows = len(cfg.methods) * len(cfg.snr_db_list) * cfg.trials * cfg.k_ues
                assert len(keys) == len(report.records) == n_rows
            with contextlib.suppress(ConfigError):
                scenario_fig1(cfg)
            with tempfile.TemporaryDirectory() as out:
                for kind in ("angular", "distance", "xz"):
                    with contextlib.suppress(ConfigError):
                        harness.dump_spectrum(cfg, kind, Path(out) / f"{kind}.csv", trial=trial)
