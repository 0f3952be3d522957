"""Acceptance gate: one test per exit criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The full module takes about
7 s on a 2-CPU x86-64 machine; the shared 200-trial benchmark sweep dominates.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import nfmusic as nf
from nfmusic.harness import ExperimentConfig, place_ues, run_experiment, scenario_fig1
from nfmusic.metrics import match_estimates
from nfmusic.music import GridAxis, GridSpec, find_peaks, spectrum_3d, two_step_estimate
from nfmusic.refine import estimate_correctors, ls_baseline, rls_baseline
from nfmusic.signal import ROLE_NOISE, ROLE_PILOTS, ROLE_PLACEMENT, gen_pilots, received_block, stream
from nfmusic.subspace import extract_subarrays, noise_subspace, sample_covariance


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


@pytest.fixture(scope="module")
def benchmark_report():
    """Shared 200-trial sweep over SNR {0, 10, 20} dB with all four methods."""
    cfg = ExperimentConfig(
        snr_db_list=(0.0, 10.0, 20.0),
        trials=200,
        methods=("proposed", "proposed_nocorrect", "ls", "rls"),
        seed=1,
    )
    started = time.monotonic()
    report = run_experiment(cfg)
    return report, time.monotonic() - started


def test_criterion_1_noiseless_on_grid_exactness():
    started = time.monotonic()
    cfg = ExperimentConfig(n_antennas=64, k_ues=1, l_pilots=1, c_r=0, trials=1)
    g = cfg.geometry()
    ag, dg = cfg.angular_grid(), cfg.distance_grid()
    azp, elp = ag.axis_points()
    dp = dg.axis_points()[0]
    truth = nf.PolarLocation(
        azimuth=float(azp[np.argmin(abs(azp - 0.3))]),
        elevation=float(elp[np.argmin(abs(elp - 0.2))]),
        distance=float(dp[np.argmin(abs(dp - 2.5))]),
    )
    a = nf.channel_matrix(g, [nf.polar_to_cart(truth)])
    block = received_block(a, gen_pilots(1, 1, stream(3, 0)), math.inf)
    res = two_step_estimate(block, g, 1, 0, ag, dg)
    est = res.locations[0]
    exact = est == truth
    err = nf.nmse(a.entries[:, 0], nf.reconstruct_channels([est], g).entries[:, 0])
    elapsed = time.monotonic() - started
    ok = exact and err < 1e-10 and elapsed < 5.0
    _report(1, "noiseless on-grid exactness", ok, f"(nmse={err:.3g}, {elapsed:.2f}s)")
    assert exact, f"estimate {est} differs from on-grid truth {truth}"
    assert err < 1e-10
    assert elapsed < 5.0


def test_criterion_2_plane_slice_snapshot_contrast():
    started = time.monotonic()
    passing = 0
    details = []
    for seed in range(1, 21):
        cfg = ExperimentConfig(seed=seed, trials=1)
        rep = scenario_fig1(cfg, out_dir=None, snr_db=20.0, l_values=(10, 3))
        by_l = {c.l_pilots: c for c in rep.cases}
        ok10 = by_l[10].peaks.found == 4 and by_l[10].matched_truths == 4
        ok3 = by_l[3].matched_truths < 4
        passing += ok10 and ok3
        details.append((by_l[10].matched_truths, by_l[3].matched_truths))
    elapsed = time.monotonic() - started
    ok = passing >= 18 and elapsed < 120.0
    _report(
        2,
        "plane-slice search: 4 users at L=10, fewer at L=3",
        ok,
        f"({passing}/20 seeds, matched-per-seed {details[:5]}..., {elapsed:.1f}s)",
    )
    assert elapsed < 120.0
    assert passing >= 18, (
        f"only {passing}/20 seeds show all four users at L=10 and a deficit at L=3; "
        "noise is not the cause: without noise 1/20 pass, and the exact-model cost "
        "at every true user is below 1e-14, so the spectrum peaks at each user and "
        "the (x, z) grid misses the narrow peaks (scripts/gate_ceilings.py)"
    )


def test_criterion_3_smoothing_recovery_rates():
    cfg = ExperimentConfig(seed=1, snr_db_list=(20.0,), trials=200)
    place_cfg = dataclasses.replace(cfg, elevation_range=(0.0, 0.0))
    g = cfg.geometry()
    ag, dg = cfg.angular_grid(), cfg.distance_grid()
    good_trials = 0
    for t in range(cfg.trials):
        locs = place_ues(place_cfg, stream(cfg.seed, 0, t, ROLE_PLACEMENT))
        truths = [nf.cart_to_polar(l) for l in locs]
        a = nf.channel_matrix(g, locs)
        pilots = gen_pilots(4, 3, stream(cfg.seed, 0, t, ROLE_PILOTS))
        block = received_block(a, pilots, 20.0, stream(cfg.seed, 0, t, ROLE_NOISE))
        res = two_step_estimate(block, g, 4, 1, ag, dg)
        perm = match_estimates(truths, res.locations, cfg.distance_range[1])
        ok = len(perm) == 4 and all(p is not None for p in perm)
        if ok:
            for k, p in enumerate(perm):
                e = res.locations[p]
                ang = max(abs(e.azimuth - truths[k].azimuth), abs(e.elevation - truths[k].elevation))
                rel = abs(e.distance - truths[k].distance) / truths[k].distance
                if ang >= math.radians(2.0) or rel >= 0.15:
                    ok = False
                    break
        good_trials += ok
    ok = good_trials >= 160
    _report(
        3,
        "subarray smoothing recovers all 4 users (2 deg / 15%)",
        ok,
        f"({good_trials}/200 trials, need 160)",
    )
    assert good_trials >= 160, (
        f"all-four-user recovery within 2 deg and 15% held in {good_trials}/200 trials; "
        "the two-step estimator, not the noise, caps it: without noise 49/200 pass, "
        "full rank without smoothing 101/200 and one user alone 198/200, so the "
        "planar-wave angular scan and subarray smoothing do not fit several near-field "
        "users at once (scripts/gate_ceilings.py)"
    )


def test_criterion_4_method_ordering(benchmark_report):
    report, elapsed = benchmark_report
    agg = {(a.method, a.snr_db): a for a in report.aggregates}
    orderings = []
    for snr in (0.0, 10.0, 20.0):
        orderings.append(agg[("proposed", snr)].median_nmse < agg[("ls", snr)].median_nmse)
        orderings.append(agg[("proposed", snr)].median_nmse < agg[("rls", snr)].median_nmse)
        orderings.append(agg[("proposed", snr)].mean_bf_gain > agg[("ls", snr)].mean_bf_gain)
        orderings.append(agg[("proposed", snr)].mean_bf_gain > agg[("rls", snr)].mean_bf_gain)
    medians = [agg[("proposed", snr)].median_nmse for snr in (0.0, 10.0, 20.0)]
    monotone = medians[0] >= medians[1] >= medians[2]
    ok = all(orderings) and monotone and elapsed < 600.0
    _report(
        4,
        "proposed beats LS/R-LS, NMSE non-increasing in SNR",
        ok,
        f"(medians {medians[0]:.3g}/{medians[1]:.3g}/{medians[2]:.3g}, {elapsed:.0f}s)",
    )
    assert all(orderings)
    assert monotone
    assert elapsed < 600.0


def test_criterion_5_corrector_value(benchmark_report):
    report, _ = benchmark_report
    agg = {(a.method, a.snr_db): a for a in report.aggregates}
    improves = (
        agg[("proposed", 20.0)].mean_nmse <= agg[("proposed_nocorrect", 20.0)].mean_nmse
    )

    cfg = ExperimentConfig()
    g = cfg.geometry()
    locs = place_ues(cfg, stream(42, 0, 0, ROLE_PLACEMENT))
    a = nf.channel_matrix(g, locs)
    pilots = gen_pilots(4, 3, stream(42, 0, 0, ROLE_PILOTS))
    block = received_block(a, pilots, math.inf)
    alpha = estimate_correctors(a.entries, pilots, block.received)
    unit = bool(np.allclose(alpha, 1.0, atol=1e-9))

    ok = improves and unit
    _report(
        5,
        "corrector never hurts, exact inputs give unit scales",
        ok,
        f"(nmse {agg[('proposed', 20.0)].mean_nmse:.3g} vs "
        f"{agg[('proposed_nocorrect', 20.0)].mean_nmse:.3g})",
    )
    assert improves
    assert unit


def test_criterion_6_complexity_counts():
    g = nf.ArrayGeometry(16, 0.05 * math.sqrt(2), 0.1)
    angle_grid = GridSpec(
        (GridAxis("azimuth", -1.2, 1.2, 100), GridAxis("elevation", -0.9, 0.9, 100))
    )
    dist_grid = GridSpec((GridAxis("distance", 0.5, 3.0, 100),))
    loc = nf.UeLocation(0.2, 0.1, 1.5)
    a = nf.channel_matrix(g, [loc])
    block = received_block(a, gen_pilots(1, 2, stream(6, 0)), 20.0, stream(6, 1))
    res = two_step_estimate(block, g, 1, 0, angle_grid, dist_grid)
    two_step_count = res.angular_spectrum.values.size + sum(
        d.values.size for d in res.distance_spectra
    )

    grid3 = GridSpec(
        (
            GridAxis("x", -1.0, 1.0, 100),
            GridAxis("y", -1.0, 1.0, 100),
            GridAxis("z", 0.5, 3.0, 100),
        )
    )
    un = noise_subspace(sample_covariance(block.received.T), 1)
    full_count = spectrum_3d(un, grid3, g).values.size
    ok = two_step_count == 10_100 and full_count == 1_000_000
    _report(
        6,
        "search complexity: 10100 two-step vs 1e6 full-grid evaluations",
        ok,
        f"(two-step {two_step_count}, full {full_count})",
    )
    assert two_step_count == 10_100
    assert full_count == 1_000_000


def test_criterion_7_oracle_equivalences():
    rng = np.random.default_rng(7)
    g = nf.ArrayGeometry(100, 0.1 / math.sqrt(2), 0.1)
    d_lower, _ = nf.near_field_bounds(g)

    # (a) aperture quadrature vs closed form at normal incidence, d >= d_B
    quad_ok = True
    for n, m in ((1, 1), (5, 5), (10, 3)):
        cx, cy, _ = g.centers[g.index(n, m)]
        for d in (d_lower, 2.0, 5.0, 10.0):
            loc = nf.UeLocation(cx, cy, d)
            closed = nf.array_response(g, loc.x, loc.y, loc.z)[g.index(n, m)]
            quad = nf.channel_exact_integral(g, loc, n, m)
            quad_ok &= quad.converged and abs(quad.value - closed) / abs(closed) < 0.01

    # (b) signal subspace from the snapshot SVD vs the covariance's top-K eigenvectors
    x = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    cov = sample_covariance(x)
    vecs = np.linalg.eigh(cov.matrix)[1]
    eig_ok = True
    for k in (1, 3, 6, 11):
        us, top = noise_subspace(cov, k).signal, vecs[:, -k:]
        eig_ok &= np.linalg.norm(us @ us.conj().T - top @ top.conj().T, 2) < 1e-10

    # (c) baseline solvers vs an independent normal-equation path
    s = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    q = rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3))
    sigma2 = 0.21
    rls_ref = q @ np.linalg.inv(s.conj().T @ s + sigma2 * np.eye(3)) @ s.conj().T
    ls_ref = q @ np.linalg.inv(s.conj().T @ s) @ s.conj().T  # full-column-rank pilots
    base_ok = np.allclose(rls_baseline(q, s, sigma2), rls_ref, atol=1e-10) and np.allclose(
        ls_baseline(q, s), ls_ref, atol=1e-10
    )

    # (d) subarray extraction vs brute-force index enumeration
    qm = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    subs = extract_subarrays(qm, 2)
    sub_ok = True
    for tx in range(3):
        for ty in range(3):
            expected = np.array([qm[tx + i, ty + j] for i in range(8) for j in range(8)])
            sub_ok &= bool(np.array_equal(subs[tx * 3 + ty], expected))

    ok = quad_ok and eig_ok and base_ok and sub_ok
    _report(
        7,
        "oracle equivalences (quadrature/eig/baselines/subarrays)",
        ok,
        f"(quad={quad_ok}, eig={eig_ok}, baselines={base_ok}, subarrays={sub_ok})",
    )
    assert quad_ok
    assert eig_ok
    assert base_ok
    assert sub_ok


def test_criterion_8_determinism(tmp_path):
    cfg = ExperimentConfig(
        n_antennas=64,
        k_ues=2,
        l_pilots=2,
        trials=4,
        snr_db_list=(10.0, 20.0),
        azimuth_grid_points=40,
        elevation_grid_points=30,
        distance_grid_points=30,
        seed=11,
    )
    run_experiment(cfg, out_dir=tmp_path / "one", threads=1)
    run_experiment(cfg, out_dir=tmp_path / "four", threads=4)
    same = all(
        (tmp_path / "one" / name).read_bytes() == (tmp_path / "four" / name).read_bytes()
        for name in ("trials.csv", "aggregate.csv")
    )
    _report(8, "byte-identical CSVs across thread counts", same)
    assert same
