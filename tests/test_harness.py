import math

import numpy as np
import pytest

import nfmusic.harness as harness
from nfmusic.cli import main as cli_main
from nfmusic.geometry import PolarLocation, cart_to_polar, polar_to_cart
from nfmusic.harness import (
    ConfigError,
    ExperimentConfig,
    parse_config_text,
    place_ues,
    run_experiment,
    scenario_fig1,
)
from nfmusic.metrics import aggregate
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
        cfg = ExperimentConfig(
            k_ues=3,
            azimuth_range=(-0.001, 0.001),
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
        assert lines[0] == harness.TRIAL_CSV_HEADER
        assert len(lines) == 1 + len(report.records)
        first = lines[1].split(",")
        assert first[0] == report.records[0].method
        assert float(first[4]) == pytest.approx(report.records[0].nmse, rel=1e-8)

    def test_aggregate_csv_recomputable_from_trial_csv(self, tmp_path):
        from nfmusic.metrics import TrialRecord

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
        assert agg_lines[0] == harness.AGGREGATE_CSV_HEADER
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

    def test_bad_config_returns_error_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("nonsense_key=1\n")
        rc = cli_main(["run", "--config", str(cfg_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
