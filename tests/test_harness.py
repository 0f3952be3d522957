import contextlib
import dataclasses
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings as _warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nfmusic.harness as harness
from nfmusic.channel import channel_matrix
from nfmusic.cli import main as cli_main
from nfmusic.geometry import PolarLocation, cart_to_polar, polar_to_cart
from nfmusic.harness import (
    METHODS,
    ConfigError,
    ExperimentConfig,
    parse_config_text,
    place_ues,
    run_experiment,
    scenario_fig1,
)
from nfmusic.metrics import AggregateRecord, TrialRecord, aggregate
from nfmusic.music import GridAxis, GridSpec, SpectrumGrid, two_step_estimate
from nfmusic.refine import IllConditionedError
from nfmusic.signal import (
    ROLE_NOISE,
    ROLE_PILOTS,
    ROLE_PLACEMENT,
    gen_pilots,
    received_block,
    stream,
)
from nfmusic.subspace import Covariance


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
        with pytest.raises(ConfigError, match="unknown methods"):
            ExperimentConfig(methods=("proposed", "music3d"))
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
            dict(cart_grid_points=1),
            dict(snr_db_list=("20",)),
            dict(snr_db_list=20.0),
            dict(wavelength="0.1"),
            dict(wavelength=None),
            dict(element_diag="0.07"),
            dict(min_angular_separation="0.1"),
            dict(min_angular_separation=None),
            dict(azimuth_range=(-1, "1")),
            dict(azimuth_range=None),
            dict(azimuth_range=(-1.0, 0.0, 1.0)),
            dict(elevation_range=(0.1,)),
            dict(distance_range=(1.0, "5")),
            dict(distance_range=5.0),
            dict(methods=["proposed"]),
            dict(methods=(["ls"],)),
            dict(snr_db_list=(1.0, [2.0])),
        ],
    )
    def test_nonfinite_and_out_of_range_values_rejected(self, fields):
        with pytest.raises(ConfigError):
            ExperimentConfig(**fields)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_antennas", 16.0),
            ("k_ues", 2.0),
            ("l_pilots", 2.5),
            ("trials", 1.5),
            ("azimuth_grid_points", 40.5),
            ("elevation_grid_points", 30.0),
            ("distance_grid_points", 10.5),
            ("cart_grid_points", 7.5),
            ("c_r", 1.0),
            ("seed", 1.5),
        ],
    )
    def test_non_integer_count_rejected(self, field, value):
        """A count that is not an integer fails on construction, not with a
        TypeError inside the run."""
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            _tiny_config(**{field: value})

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

    def test_snr_beyond_300_db_rejected(self):
        assert ExperimentConfig(snr_db_list=(-300.0, 300.0)).snr_db_list == (-300.0, 300.0)
        for snr_db in (300.5, -300.5):
            with pytest.raises(ConfigError, match="snr_db_list"):
                ExperimentConfig(snr_db_list=(10.0, snr_db))

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

    @pytest.mark.parametrize(
        "field, changes",
        [
            ("c_r", dict(k_ues=1)),
            ("element_diag", dict(wavelength=0.05)),
            ("distance_range", dict(n_antennas=400)),
        ],
    )
    def test_replace_keeps_derived_defaults_unless_given_none(self, field, changes):
        """``dataclasses.replace`` keeps a resolved default; passing None
        derives it again, as a fresh config does."""
        base = ExperimentConfig()
        fresh = getattr(ExperimentConfig(**changes), field)
        with _warnings.catch_warnings():
            # the kept (1.41, 10) m range starts inside a 400-element array's near field
            _warnings.simplefilter("ignore")
            kept = getattr(dataclasses.replace(base, **changes), field)
        assert kept == getattr(base, field) != fresh
        assert getattr(dataclasses.replace(base, **changes, **{field: None}), field) == fresh


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
        # older config files may still set snr_ref or distance_spacing
        for line in ("bogus_key=3", "snr_ref=relative", "distance_spacing=inverse"):
            key = line.partition("=")[0]
            with pytest.raises(ConfigError, match=f"line 2: unknown key '{key}'"):
                parse_config_text(f"n_antennas=16\n{line}\n")

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
    methods=("ls", "rls"),
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

    @pytest.mark.parametrize(
        "field",
        [f for f in _FIELDS if f.type not in (str, tuple[str, ...])],
        ids=lambda f: f.name,
    )
    def test_ill_typed_python_value_rejected(self, field):
        """The Python twin of the line test: a config built in code rejects a
        string for a numeric field with ConfigError, not a TypeError, and a
        bool for a number, alone or in a tuple, by the type rule."""
        with pytest.raises(ConfigError, match=field.name):
            ExperimentConfig(**{field.name: "x"})
        sample = getattr(_SAMPLE, field.name)
        flag = (True,) * len(sample) if isinstance(sample, tuple) else True
        want = rf"{field.name} must be .*, got {re.escape(repr(flag))}"
        with pytest.raises(ConfigError, match=want):
            ExperimentConfig(**{field.name: flag})

    @pytest.mark.parametrize(
        "field",
        [f for f in _FIELDS if f.type in (str, tuple[str, ...])],
        ids=lambda f: f.name,
    )
    def test_ill_typed_python_string_value_rejected(self, field):
        """The string fields' twin: a number for a name, or for a tuple of
        names, is a ConfigError naming the field."""
        with pytest.raises(ConfigError, match=field.name):
            ExperimentConfig(**{field.name: 5})

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


def _modules_after_fresh_run() -> list[str]:
    """The modules loaded by importing the package and running a one-trial
    sweep in a fresh interpreter, since the test process may hold more."""
    code = (
        "import sys, nfmusic\n"
        "cfg = nfmusic.ExperimentConfig(n_antennas=16, k_ues=2, trials=1,\n"
        "    snr_db_list=(20.0,), azimuth_grid_points=10, elevation_grid_points=8,\n"
        "    distance_grid_points=6)\n"
        "nfmusic.run_experiment(cfg)\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    src = str(Path(harness.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    return result.stdout.split()


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

    def test_noiseless_rls_equals_ls_with_more_pilots_than_users(self):
        # without noise the R-LS Gram matrix has rank K < L and nothing to
        # regularise it, so R-LS is LS
        cfg = _tiny_config(k_ues=2, l_pilots=3, snr_db_list=(math.inf,), methods=("ls", "rls"))
        report = run_experiment(cfg)
        scores = {
            m: [(r.trial, r.ue, r.nmse, r.bf_gain) for r in report.records if r.method == m]
            for m in cfg.methods
        }
        assert len(scores["ls"]) == cfg.trials * cfg.k_ues
        assert scores["rls"] == scores["ls"]

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
            raise IllConditionedError("stacked normal matrix condition inf exceeds 1e+12")

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

    def test_two_step_search_runs_once_per_trial(self, monkeypatch):
        spy = mock.Mock(wraps=harness.two_step_estimate)
        monkeypatch.setattr(harness, "two_step_estimate", spy)
        cfg = _tiny_config(methods=("proposed", "ls", "proposed_nocorrect"), trials=2)
        report = run_experiment(cfg)
        assert spy.call_count == 2
        rows = {m: [r for r in report.records if r.method == m] for m in cfg.methods}
        found = [r.peaks_found for r in rows["proposed"]]
        assert [r.peaks_found for r in rows["proposed_nocorrect"]] == found
        assert [r.az_err_rad for r in rows["proposed_nocorrect"]] == [
            r.az_err_rad for r in rows["proposed"]
        ]

    def test_search_failure_warning_names_method_trial_and_snr(self, monkeypatch, caplog):
        def fails(*args, **kwargs):
            raise ValueError("no usable subspace")

        monkeypatch.setattr(harness, "two_step_estimate", fails)
        cfg = _tiny_config(
            methods=("ls", "proposed_nocorrect", "proposed"), trials=2, snr_db_list=(10.0, 20.0)
        )
        with caplog.at_level("WARNING", logger=harness.logger.name):
            run_experiment(cfg)
        # one warning per trial, from the first method the search serves
        assert caplog.messages == [
            f"proposed_nocorrect trial {t} at {snr:.1f} dB: search failed: no usable subspace"
            for snr in cfg.snr_db_list
            for t in range(cfg.trials)
        ]

    def test_baseline_row_needs_no_trial_loop_change(self, monkeypatch):
        def oracle(cfg, g, block, grids, truth, context):
            channels = harness.reconstruct_channels(truth, g).entries
            return list(range(cfg.k_ues)), truth, channels, cfg.k_ues

        monkeypatch.setitem(METHODS, "oracle", (oracle, False))
        cfg = _tiny_config(methods=("oracle", "ls"), trials=2, snr_db_list=(10.0, 20.0))
        report = run_experiment(cfg)
        rows = [r for r in report.records if r.method == "oracle"]
        keys = [(r.snr_db, r.trial, r.ue) for r in rows]
        users, trials = range(cfg.k_ues), range(cfg.trials)
        assert keys == [(s, t, k) for s in cfg.snr_db_list for t in trials for k in users]
        for r in rows:
            assert r.nmse < 1e-20 and r.bf_gain == pytest.approx(1.0)
            assert max(r.az_err_rad, r.el_err_rad, r.dist_err_m) == 0.0
            assert r.peaks_found == cfg.k_ues
        assert {a.method: a.trials_failed for a in report.aggregates} == {"oracle": 0, "ls": 0}

    @pytest.mark.parametrize(
        "stage",
        [
            "estimate_correctors",
            "reconstruct_channels",
            "match_estimates",
            "ls_baseline",
            "rls_baseline",
        ],
    )
    def test_value_error_after_the_search_stops_the_run(self, stage, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError(f"{stage} bug")

        monkeypatch.setattr(harness, stage, broken)
        methods = ("proposed", "proposed_nocorrect", "ls", "rls")
        with pytest.raises(ValueError, match=f"{stage} bug"):
            run_experiment(_tiny_config(methods=methods, trials=1))

    def test_method_order_only_orders_rows(self):
        methods = ("ls", "rls", "proposed_nocorrect", "proposed")
        cfg = _tiny_config(methods=methods, trials=2, snr_db_list=(10.0, 20.0))
        report = run_experiment(cfg)
        canonical = run_experiment(dataclasses.replace(cfg, methods=tuple(sorted(methods))))
        assert [r.method for r in report.records] == [
            m for m in methods for _ in range(2 * 2 * cfg.k_ues)
        ]
        assert sorted(report.records, key=lambda r: r.method) == list(canonical.records)
        assert {a.method: a for a in report.aggregates} == {
            a.method: a for a in canonical.aggregates
        }


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
        """The search calls BLAS and LAPACK through numpy's bundled OpenBLAS
        alone; inside the pool it reads one thread, and it gets its previous
        count back after the sweep."""
        libs = Path(np.__file__).parent.parent / "numpy.libs"
        shipped = list(libs.glob("libscipy_openblas*.so"))
        funcs = harness._openblas_threads()
        assert (funcs is None) == (not shipped)
        if funcs is None:
            pytest.skip("numpy ships no bundled OpenBLAS")
        set_threads, get_threads = funcs
        seen = []
        search = harness.two_step_estimate

        def spy(*args):
            seen.append(get_threads())
            return search(*args)

        monkeypatch.setattr(harness, "two_step_estimate", spy)
        original = get_threads()
        set_threads(2)
        try:
            run_experiment(_tiny_config(trials=2), threads=2)
            after = get_threads()
        finally:
            set_threads(original)
        assert seen == [1, 1]
        assert after == 2

    def test_run_loads_no_scipy(self):
        """Importing the package and running a sweep load no ``scipy`` module."""
        assert not [m for m in _modules_after_fresh_run() if m.split(".")[0] == "scipy"]

    def test_run_loads_no_numpy_ma(self):
        """A sweep's aggregate takes no masked-array median, so no ``nfmusic run``
        process pays the import of ``numpy.ma``."""
        assert "numpy.ma" not in _modules_after_fresh_run()

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

    @pytest.mark.parametrize("snr_db", [-math.inf, "20", True])
    def test_minus_inf_snr_rejected(self, snr_db):
        with pytest.raises(ConfigError, match="snr_db_list"):
            scenario_fig1(_tiny_config(cart_grid_points=10), snr_db=snr_db)

    @pytest.mark.parametrize(
        "l_values",
        [(), (0,), (2.5,), (10, -1), (10, "3"), 10, [10, 3], (3, 3), (10, True)],
        ids=["empty", "zero", "float", "negative", "str", "scalar", "list", "repeated", "bool"],
    )
    def test_bad_pilot_lengths_rejected_before_placement(self, l_values, monkeypatch):
        monkeypatch.setattr(harness, "_place_users", mock.Mock(side_effect=AssertionError))
        with pytest.raises(ConfigError, match="l_values"):
            scenario_fig1(_tiny_config(cart_grid_points=10), l_values=l_values)

    def test_elevation_forced_to_zero(self):
        cfg = _tiny_config(k_ues=2, l_pilots=3, cart_grid_points=30, seed=5)
        report = scenario_fig1(cfg, l_values=(6,))
        for loc in report.true_locations:
            assert loc.y == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "ranges",
        [
            {},
            dict(
                azimuth_range=(math.radians(-70.0), math.radians(20.0)),
                elevation_range=(math.radians(-10.0), math.radians(40.0)),
            ),
        ],
        ids=["reference", "asymmetric"],
    )
    def test_xz_grid_covers_the_placed_users(self, ranges):
        """Every user fig1 places lies inside the config's (x, z) grid and
        inside the zero-elevation grid the scenario searches."""
        for seed in range(1, 6):
            cfg = ExperimentConfig(seed=seed, **ranges)
            flat = dataclasses.replace(cfg, elevation_range=(0.0, 0.0))
            report = scenario_fig1(cfg, l_values=(10,))
            for grid in (cfg.xz_grid(), flat.xz_grid()):
                x_axis, z_axis = grid.axes
                assert (x_axis.name, z_axis.name) == ("x", "z")
                for loc in report.true_locations:
                    assert x_axis.lo <= loc.x <= x_axis.hi
                    assert z_axis.lo <= loc.z <= z_axis.hi

    @pytest.mark.parametrize("seed", [2, 3, 4, 6, 7])
    def test_rank_deficient_slice_ignores_last_bit_of_the_channel(self, tmp_path, monkeypatch, seed):
        """At L=3 < K=4 the covariance has rank 3; the spectrum must not hinge
        on a one-ulp change of one channel entry."""
        cfg = ExperimentConfig(seed=seed)
        scenario_fig1(cfg, out_dir=tmp_path / "a", l_values=(3,))
        build = harness.channel_matrix

        def bumped(g, locs):
            a = build(g, locs)
            entries = a.entries.copy()
            entries[0, 0] = np.nextafter(entries[0, 0].real, np.inf) + 1j * entries[0, 0].imag
            return dataclasses.replace(a, entries=entries)

        monkeypatch.setattr(harness, "channel_matrix", bumped)
        scenario_fig1(cfg, out_dir=tmp_path / "b", l_values=(3,))
        a, b = (np.loadtxt(tmp_path / d / "fig1_L3.csv", delimiter=",", skiprows=1)[:, 2] for d in "ab")
        assert np.max(np.abs(b - a) / np.abs(a)) < 1e-6


def test_searches_never_build_the_covariance_matrix(monkeypatch):
    """The two-step search and the plane slice take the signal subspace from
    the snapshots; neither forms the M x M covariance matrix."""

    def refuse(self):
        raise AssertionError("the M x M covariance matrix was built")

    monkeypatch.setattr(Covariance, "matrix", property(refuse))
    cfg = _tiny_config()
    g = cfg.geometry()
    a = channel_matrix(g, place_ues(cfg, stream(cfg.seed, 0, 0, ROLE_PLACEMENT)))
    pilots = gen_pilots(cfg.k_ues, cfg.l_pilots, stream(cfg.seed, 0, 0, ROLE_PILOTS))
    block = received_block(a, pilots, 20.0, stream(cfg.seed, 0, 0, ROLE_NOISE))
    result = two_step_estimate(
        block, g, cfg.k_ues, cfg.c_r, cfg.angular_grid(), cfg.distance_grid()
    )
    assert result.locations
    # L=1 < K=2 takes the SVD's completion, L=6 its thin form
    report = scenario_fig1(cfg, l_values=(1, 6))
    assert all(case.peaks.found for case in report.cases)


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

    @pytest.mark.parametrize("kind", ["angular", "distance"])
    def test_dump_is_the_trials_own_two_step_spectrum(self, kind, tmp_path):
        cfg = _tiny_config(snr_db_list=(10.0, 20.0))
        g = cfg.geometry()
        key = (1, 2)  # 20 dB, trial 2
        a = channel_matrix(g, place_ues(cfg, stream(cfg.seed, *key, ROLE_PLACEMENT)))
        pilots = gen_pilots(cfg.k_ues, cfg.l_pilots, stream(cfg.seed, *key, ROLE_PILOTS))
        block = received_block(a, pilots, 20.0, stream(cfg.seed, *key, ROLE_NOISE))
        res = two_step_estimate(
            block, g, cfg.k_ues, cfg.c_r, cfg.angular_grid(), cfg.distance_grid()
        )
        want = res.angular_spectrum if kind == "angular" else res.distance_spectra[0]
        out = harness.dump_spectrum(cfg, kind, tmp_path / "s.csv", snr_db=20.0, trial=2)
        got = [line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[1:]]
        assert got == ["%.9g" % v for v in want.values.ravel()]

    def test_unknown_kind_rejected_before_writing(self, tmp_path):
        with pytest.raises(ValueError, match="unknown spectrum kind"):
            harness.dump_spectrum(_tiny_config(), "polar", tmp_path / "p.csv")
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize(
        "kind, kwargs, match",
        [
            ("polar", {}, "unknown spectrum kind"),
            ("angular", dict(trial=1.5), "trial must be an integer >= 0"),
            ("angular", dict(trial=-1), "trial must be an integer >= 0"),
            ("angular", dict(trial="0"), "trial must be an integer >= 0"),
            ("angular", dict(snr_db="20"), "snr_db must be a real number"),
            ("distance", dict(azimuth="0.1", elevation=0.0), "azimuth must be a real number"),
            ("angular", dict(trial=True), "trial must be an integer >= 0"),
            ("angular", dict(snr_db=True), "snr_db must be a real number"),
        ],
    )
    def test_bad_argument_is_a_config_error_before_writing(self, kind, kwargs, match, tmp_path):
        with pytest.raises(ConfigError, match=match):
            harness.dump_spectrum(_tiny_config(), kind, tmp_path / "s.csv", **kwargs)
        assert not (tmp_path / "s.csv").exists()

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


# extremes of "%.9g": subnormal, huge, exactly 9 digits, 10 digits
EDGE_VALUES = [1e-300, 1e300, 123456789.0, 1234567891.0, 5e-324, 0.25]


class TestCsvFormat:
    def test_1d_spectrum_bytes(self, tmp_path):
        grid = GridSpec((GridAxis("azimuth", -1.0, 1.5, 6),))
        spec = SpectrumGrid(grid=grid, values=np.array(EDGE_VALUES))
        path = harness.dump_spectrum_csv(spec, tmp_path / "s.csv")
        want = "axis,value\n" + "".join(
            "%.9g,%.9g\n" % (float(a), v) for a, v in zip(grid.axis_points()[0], EDGE_VALUES)
        )
        assert path.read_text() == want
        lines = want.splitlines()
        assert lines[3] == "0,123456789"
        assert lines[4] == "0.5,1.23456789e+09"
        assert lines[5] == "1,4.94065646e-324"

    def test_2d_spectrum_bytes_axis1_slowest(self, tmp_path):
        grid = GridSpec((GridAxis("x", -2.0, 2.0, 3), GridAxis("z", -1.5, 0.0, 2)))
        values = np.array(EDGE_VALUES).reshape(3, 2)
        path = harness.dump_spectrum_csv(SpectrumGrid(grid=grid, values=values), tmp_path / "s.csv")
        xs, zs = grid.axis_points()
        want = "axis1,axis2,value\n" + "".join(
            "%.9g,%.9g,%.9g\n" % (float(x), float(z), float(values[i, j]))
            for i, x in enumerate(xs)
            for j, z in enumerate(zs)
        )
        assert path.read_text() == want
        assert want.splitlines()[1:3] == ["-2,-1.5,1e-300", "-2,0,1e+300"]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_spectrum_bytes_match_per_cell_reference(self, data):
        """1-D and 2-D grids of any shape and spacing, negative coordinates
        included, dump exactly the per-cell "%.9g,...\\n" lines."""
        axes = []
        for name in data.draw(st.sampled_from([("a",), ("a", "b")])):
            # a "distance" axis has its points uniform in 1/d
            if data.draw(st.booleans()):
                lo = data.draw(st.floats(0.01, 100.0))
                name = "distance"
            else:
                lo = data.draw(st.floats(-100.0, 100.0))
            hi = lo + data.draw(st.floats(1e-3, 100.0))
            axes.append(GridAxis(name, lo, hi, data.draw(st.integers(2, 40))))
        grid = GridSpec(tuple(axes))
        # drawing each of up to 1,600 cells through hypothesis is slow; a
        # drawn seed picks magnitudes in [1e-300, 1e300] and edge values
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        values = 10.0 ** rng.uniform(-300.0, 300.0, grid.shape)
        edge = rng.random(grid.shape) < 0.2
        values[edge] = rng.choice(EDGE_VALUES, np.count_nonzero(edge))
        with tempfile.TemporaryDirectory() as out:
            path = harness.dump_spectrum_csv(SpectrumGrid(grid, values), Path(out) / "s.csv")
            got = path.read_text()
        header = "axis,value\n" if len(axes) == 1 else "axis1,axis2,value\n"
        fmt = ",".join(["%.9g"] * (len(axes) + 1)) + "\n"
        points = [p.tolist() for p in grid.axis_points()]
        assert got == header + "".join(
            fmt % (*(points[d][i] for d, i in enumerate(index)), float(values[index]))
            for index in np.ndindex(grid.shape)
        )

    def test_trial_csv_with_nan_row(self, tmp_path):
        records = [
            TrialRecord(
                method="proposed", snr_db=10.0, trial=0, ue=1, nmse=0.012345678912,
                bf_gain=95.5, az_err_rad=1e-5, el_err_rad=0.0, dist_err_m=0.25, peaks_found=4,
            ),
            TrialRecord(
                method="ls", snr_db=-5.0, trial=3, ue=0, nmse=1.5, bf_gain=2.0, peaks_found=4
            ),
        ]
        path = harness.write_trial_csv(records, tmp_path / "trials.csv")
        assert path.read_text() == (
            "method,snr_db,trial,ue,nmse,bf_gain,az_err_rad,el_err_rad,dist_err_m,peaks_found\n"
            "proposed,10,0,1,0.0123456789,95.5,1e-05,0,0.25,4\n"
            "ls,-5,3,0,1.5,2,nan,nan,nan,4\n"
        )


# lengths whose channel entries (about 1e-301, or 1e-157) are nonzero but
# whose squares underflow, with the key each error must name
UNDERFLOW_CONFIGS = [
    ("distance_range=1,5\nelement_diag=1e-300\n", "element_diag"),
    ("distance_range=1,5\nwavelength=1e-300\n", "wavelength"),
    ("distance_range=1,5\nelement_diag=1e-156\n", "element_diag"),
]


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

    def test_dump_spectrum_creates_missing_directories(self, tmp_path):
        out = tmp_path / "a" / "b" / "spec.csv"
        rc = cli_main(["dump-spectrum", "--kind", "xz", "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("axis1,axis2,value\n")

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kind", "distance", "--azimuth-deg", "30"],
            ["--kind", "distance", "--elevation-deg", "10"],
            ["--kind", "angular", "--azimuth-deg", "10", "--elevation-deg", "0"],
            ["--kind", "xz", "--azimuth-deg", "10", "--elevation-deg", "0"],
            ["--kind", "distance", "--azimuth-deg", "nan", "--elevation-deg", "0"],
            ["--kind", "distance", "--azimuth-deg", "100", "--elevation-deg", "0"],
            ["--kind", "distance", "--azimuth-deg", "0", "--elevation-deg", "-90"],
        ],
        ids=["azimuth_only", "elevation_only", "angular", "xz", "nan", "beyond_90", "at_minus_90"],
    )
    def test_dump_spectrum_rejects_bad_explicit_angles(self, argv, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("n_antennas=16\nk_ues=2\ntrials=1\nsnr_db_list=20\n")
        out = tmp_path / "spec.csv"
        rc = cli_main(["dump-spectrum", "--config", str(cfg_path), "--out", str(out), *argv])
        assert rc == 2
        assert "azimuth" in capsys.readouterr().err
        assert not out.exists()

    def test_dump_spectrum_unknown_kind_is_a_usage_error(self, tmp_path):
        """The CLI's --kind choices are the kinds dump_spectrum accepts, so a
        kind it rejects stops argparse with status 2 before any config loads."""
        with pytest.raises(ConfigError, match="unknown spectrum kind"):
            harness.dump_spectrum(_tiny_config(), "polar", tmp_path / "p.csv")
        out = tmp_path / "spec.csv"
        with pytest.raises(SystemExit) as exc:
            cli_main(["dump-spectrum", "--kind", "polar", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

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
            ("methods=proposed,music3d\n", "music3d"),
            ("snr_db_list=4000\n", "snr_db_list"),
            ("snr_db_list=-4000\n", "snr_db_list"),
            ("distance_range=1,1e200\n", "distance_range"),
            ("distance_range=1e-300,1e-299\n", "distance_range"),
            ("wavelength=1e300\n", "wavelength"),
            ("element_diag=1e300\n", "element_diag"),
            *UNDERFLOW_CONFIGS,
        ],
    )
    def test_invalid_value_returns_error_code(self, text, field, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("n_antennas=16\nk_ues=2\ntrials=1\n" + text)
        rc = cli_main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out" / "trials.csv").exists()

    @pytest.mark.parametrize("text, field", UNDERFLOW_CONFIGS)
    @pytest.mark.parametrize(
        "argv",
        [["fig1", "--out-dir", "out"], ["dump-spectrum", "--kind", "xz", "--out", "out/spec.csv"]],
        ids=["fig1", "dump_xz"],
    )
    def test_underflowing_channel_power_returns_error_code(
        self, argv, text, field, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp.cfg").write_text("n_antennas=16\nk_ues=2\ntrials=1\n" + text)
        assert cli_main([argv[0], "--config", "exp.cfg", *argv[1:]]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "line, key",
        [
            ("cart_grid_points=1", "cart_grid_points"),
            ("distance_grid_points=1", "distance_grid_points"),
            ("distance_range=1,inf", "distance_range"),
            ("element_diag=0.01", "distance_range"),  # the default near field is empty
        ],
    )
    def test_delegated_rule_names_its_config_key(self, line, key, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(f"n_antennas=16\nk_ues=2\ntrials=1\nsnr_db_list=20\n{line}\n")
        rc = cli_main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out" / "trials.csv").exists()

    @pytest.mark.parametrize("threads", [2.5, 1.0, "2", None, True])
    def test_non_integer_thread_count_rejected_before_any_trial(self, threads, monkeypatch):
        monkeypatch.setattr(harness, "_run_trial", mock.Mock(side_effect=AssertionError))
        with pytest.raises(ConfigError, match="threads must be an integer"):
            run_experiment(_tiny_config(trials=1), threads=threads)

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

    def test_argument_checks_look_through_a_wrapper(self, monkeypatch):
        """A tracer may replace an entry point with a wrapper that names the
        original as ``__wrapped__``; the entry point's own checks still run."""
        inner = harness.run_experiment

        def traced(*args, **kwargs):
            return inner(*args, **kwargs)

        traced.__wrapped__ = inner
        monkeypatch.setattr(harness, "run_experiment", traced)
        with pytest.raises(ConfigError, match="threads"):
            harness.run_experiment(_tiny_config(trials=1), threads=0)
        assert len(harness.run_experiment(_tiny_config(trials=1)).records) > 0

    @pytest.mark.parametrize(
        "name, content",
        [("absent.cfg", None), ("latin1.cfg", "out_dir=r\u00e9sultats\n".encode("latin-1"))],
        ids=["missing", "not_utf8"],
    )
    def test_unreadable_config_returns_error_code(self, name, content, tmp_path, capsys):
        cfg_path = tmp_path / name
        if content is not None:
            cfg_path.write_bytes(content)
        rc = cli_main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert str(cfg_path) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, config, name",
        [
            (["dump-spectrum", "--kind", "angular", "--out", "missing/"], "", "--out"),
            (["dump-spectrum", "--kind", "angular", "--out", "missing/."], "", "--out"),
            (["dump-spectrum", "--kind", "xz", "--out", "adir"], "", "--out"),
            (["dump-spectrum", "--kind", "xz", "--out", "afile/spec.csv"], "", "--out"),
            (["run", "--out-dir", "afile"], "", "--out-dir"),
            (["run", "--out-dir", "afile/sub"], "", "--out-dir"),
            (["run"], "out_dir=afile\n", "out_dir"),
            (["fig1", "--out-dir", "afile"], "", "--out-dir"),
        ],
        ids=[
            "out_trailing_slash", "out_trailing_dot", "out_existing_dir", "out_under_file",
            "run_existing_file", "run_under_file", "run_config_file", "fig1_existing_file",
        ],
    )
    def test_unusable_output_path_returns_error_code(
        self, argv, config, name, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        # the path is checked before any trial runs, so no entry point is reached
        for entry in ("run_experiment", "scenario_fig1", "dump_spectrum"):
            monkeypatch.setattr(f"nfmusic.cli.{entry}", mock.Mock(side_effect=AssertionError))
        (tmp_path / "exp.cfg").write_text("n_antennas=16\nk_ues=2\ntrials=1\n" + config)
        (tmp_path / "afile").write_text("keep\n")
        (tmp_path / "adir").mkdir()
        assert cli_main([*argv, "--config", "exp.cfg"]) == 2
        assert name in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["adir", "afile", "exp.cfg"]
        assert (tmp_path / "afile").read_text() == "keep\n"

    @pytest.mark.parametrize(
        "entry, kwargs, name",
        [
            ("run_experiment", dict(out_dir="afile"), "out_dir"),
            ("run_experiment", dict(out_dir="afile/sub"), "out_dir"),
            ("scenario_fig1", dict(out_dir="afile"), "out_dir"),
            ("dump_spectrum", dict(kind="angular", out_path="adir"), "out_path"),
            ("dump_spectrum", dict(kind="angular", out_path="missing/"), "out_path"),
            ("dump_spectrum", dict(kind="xz", out_path="afile/spec.csv"), "out_path"),
            ("run_experiment", dict(out_dir="taken"), "out_dir taken/trials.csv"),
            ("run_experiment", dict(out_dir="taken"), "out_dir taken/aggregate.csv"),
            ("scenario_fig1", dict(out_dir="taken"), "out_dir taken/fig1_L10.csv"),
            ("scenario_fig1", dict(out_dir="taken"), "out_dir taken/fig1_L3.csv"),
        ],
        ids=[
            "run_existing_file", "run_under_file", "fig1_existing_file",
            "dump_existing_dir", "dump_trailing_slash", "dump_under_file",
            "run_trials_csv_is_dir", "run_aggregate_csv_is_dir",
            "fig1_first_dump_is_dir", "fig1_last_dump_is_dir",
        ],
    )
    def test_python_entry_point_checks_output_path_first(
        self, entry, kwargs, name, tmp_path, monkeypatch
    ):
        """Called from Python, each entry point rejects an unusable output path,
        the directory or any file it would write there, before it places a
        single user."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(harness, "_place_users", mock.Mock(side_effect=AssertionError))
        (tmp_path / "afile").write_text("keep\n")
        (tmp_path / "adir").mkdir()
        if name.startswith("out_dir taken/"):
            # the one file named in the message is a directory; the others are free
            (tmp_path / name.partition(" ")[2]).mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        with pytest.raises(ConfigError, match=name):
            getattr(harness, entry)(_tiny_config(trials=1), **kwargs)
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "afile").read_text() == "keep\n"

    @pytest.mark.parametrize("command, taken", [("run", "aggregate.csv"), ("fig1", "fig1_L3.csv")])
    def test_output_file_that_is_a_directory_returns_error_code(
        self, command, taken, tmp_path, capsys, monkeypatch
    ):
        """A file the command would write under --out-dir that is an existing
        directory exits 2 before a user is placed, and nothing is written."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(harness, "_place_users", mock.Mock(side_effect=AssertionError))
        (tmp_path / "exp.cfg").write_text("n_antennas=16\nk_ues=2\ntrials=1\n")
        (tmp_path / "out" / taken).mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        assert cli_main([command, "--config", "exp.cfg", "--out-dir", "out"]) == 2
        assert f"out/{taken}: names a directory" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

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
    method list that may repeat an entry, an SNR of 0 dB, 20 dB or noiseless,
    and sometimes a negative seed, a non-finite wavelength or distance range,
    or a wavelength so small that the channel power underflows."""

    def degree_range():
        lo = draw(st.integers(-92, 60))
        return f"{lo},{lo + draw(st.sampled_from([20, 5, 40, 0]))}"

    lines = {
        "n_antennas": 16,
        "k_ues": draw(st.integers(1, 20)),
        "l_pilots": draw(st.integers(1, 4)),
        "trials": 1,
        "seed": draw(st.one_of(st.just(-1), st.integers(0, 1000))),
        "snr_db_list": draw(st.sampled_from([0, 20, "inf"])),
        "azimuth_range": degree_range(),
        "elevation_range": degree_range(),
        "min_angular_separation": draw(st.floats(0.0, 30.0)),
        "methods": ",".join(draw(st.lists(st.sampled_from(list(METHODS)), min_size=1, max_size=4))),
    }
    for name in ("azimuth", "elevation", "distance", "cart"):
        lines[f"{name}_grid_points"] = draw(st.integers(2, 6))
    for name, values in (
        ("wavelength", ["0.1", "nan", "inf", "1e-300"]),
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
