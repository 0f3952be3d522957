"""Print the pass rates of acceptance criteria 2 and 3 with one factor changed at a time.

Usage: PYTHONPATH=src python scripts/gate_ceilings.py
(or without PYTHONPATH when nfmusic is installed; about 14 s on 2 CPUs)

Criterion 3 runs ``two_step_estimate`` on its own setup: seed 1, 200 trials,
users at zero elevation, the reference grids, and a trial passes when every
user is matched within 2 deg in angle and 15% in range.  Each row changes the
user count K, the pilot count L, the smoothing shift c_r, or scales every
user's channel to unit norm ("equal power"), at 20 dB and without noise.  The
failure split counts the gate setup's users at 20 dB.  The boundary fallbacks
count the gate setup's distance scans, one per angular peak, whose first
maximum (the range estimate) is at a grid end, at 20 dB and without noise.
Criterion 2 counts the seeds 1-20 whose ``scenario_fig1`` matches all four
users at L=10 and fewer at L=3, and prints the largest noiseless exact-model
cost 1 - |U_s^H a|^2 / |a|^2 at a true user of its L=10 case: near 0, the
spectrum peaks at every user, and a miss is the (x, z) grid's.
"""

import dataclasses
import math

import numpy as np

import nfmusic as nf
from nfmusic.harness import _observe, _place_users

SNRS = (20.0, math.inf)
# (label, K, L, c_r, equal power)
SETUPS = (
    ("gate setup (K=4, L=3, c_r=1)", 4, 3, 1, False),
    ("same, equal-power users", 4, 3, 1, True),
    ("full rank, no smoothing (L=10, c_r=0)", 4, 10, 0, False),
    ("same, equal-power users", 4, 10, 0, True),
    ("K=2, L=3, c_r=1", 2, 3, 1, False),
    ("K=1, L=3, c_r=1", 1, 3, 1, False),
)
CFG = nf.ExperimentConfig(seed=1, snr_db_list=(20.0,), trials=200)
DEG = math.radians(1.0)


def trial_errors(k, l_pilots, c_r, equal, snr_db, t):
    """The boundary fallbacks and distance scans of one trial, and (azimuth,
    elevation, relative range error, range on a grid edge) of each of its
    users, or None for an unmatched user."""
    g, ag, dg = CFG.geometry(), CFG.angular_grid(), CFG.distance_grid()
    trial_cfg = dataclasses.replace(CFG, k_ues=k, elevation_range=(0.0, 0.0))
    # trial t of a sweep of trial_cfg, at its first SNR point
    locs, a = _place_users(trial_cfg, g, (0, t))
    truths = [nf.cart_to_polar(l) for l in locs]
    if equal:
        a = nf.ChannelMatrix(a.entries / np.linalg.norm(a.entries, axis=0))
    block = _observe(trial_cfg, a, l_pilots, snr_db, (0, t))
    result = nf.two_step_estimate(block, g, k, c_r, ag, dg)
    found = result.locations
    edges = dg.axis_points()[0][[0, -1]]
    return result.boundary_fallbacks, len(found), [
        None if p is None else (
            abs(found[p].azimuth - truth.azimuth),
            abs(found[p].elevation - truth.elevation),
            abs(found[p].distance - truth.distance) / truth.distance,
            found[p].distance in edges,
        )
        for truth, p in zip(truths, nf.match_estimates(truths, found, CFG.distance_range[1]))
    ]


def fig1_cost(seed):
    """Largest noiseless exact-model cost at a true user of criterion 2's L=10 case."""
    # the users and the L=10 pilots that scenario_fig1 draws
    flat = dataclasses.replace(CFG, seed=seed, elevation_range=(0.0, 0.0))
    _, channels = _place_users(flat, flat.geometry(), (0, 0))
    a = channels.entries
    block = _observe(flat, channels, 10, math.inf, (10, 0))
    us = nf.noise_subspace(nf.smoothed_covariance(block, 0), flat.k_ues)
    captured = np.sum(abs(us.signal.conj().T @ a) ** 2, axis=0) / np.sum(abs(a) ** 2, axis=0)
    return float(np.max(abs(1 - captured)))


def passes(trial):
    _, _, errors = trial
    return all(e is not None and max(e[:2]) < 2 * DEG and e[2] < 0.15 for e in errors)


def main():
    # rows[setup][snr][trial] is one trial's (fallbacks, scans, per-user errors)
    rows = [
        [[trial_errors(*setup, snr, t) for t in range(CFG.trials)] for snr in SNRS]
        for _, *setup in SETUPS
    ]
    print(f"criterion 3, trials of {CFG.trials} passed | 20 dB | no noise")
    for (label, *_), (noisy, clean) in zip(SETUPS, rows):
        print(f"{label:<38} | {sum(map(passes, noisy)):>5} | {sum(map(passes, clean)):>8}")
    users = [e for _, _, errors in rows[0][0] for e in errors]
    matched = [e for e in users if e is not None]
    az, el = ([e for e in matched if e[i] >= 2 * DEG] for i in (0, 1))
    rng = [e for e in matched if e[2] >= 0.15]
    print(
        f"criterion 3 failure split, gate setup at 20 dB, {len(users)} users: "
        f"{len(users) - len(matched)} unmatched; azimuth miss {len(az)} "
        f"({sum(e[0] > 10 * DEG for e in az)} over 10 deg); elevation miss {len(el)} "
        f"({sum(e[1] > 10 * DEG for e in el)} over 10 deg); gross angle miss over 10 deg "
        f"{sum(max(e[:2]) > 10 * DEG for e in matched)}; range miss {len(rng)} "
        f"({sum(e[3] for e in rng)} at a grid edge)"
    )
    counts = (
        f"{sum(t[0] for t in trials)} of {sum(t[1] for t in trials)} {at}"
        for at, trials in zip(("at 20 dB", "without noise"), rows[0])
    )
    print(f"criterion 3 boundary fallbacks, gate setup scans at a grid end: {', '.join(counts)}")
    for snr in SNRS:
        seeds = 0
        for seed in range(1, 21):
            rep = nf.scenario_fig1(dataclasses.replace(CFG, seed=seed, trials=1), snr_db=snr)
            by_l = {c.l_pilots: c for c in rep.cases}
            ok10 = by_l[10].peaks.found == 4 and by_l[10].matched_truths == 4
            seeds += ok10 and by_l[3].matched_truths < 4
        at = "no noise" if snr == math.inf else f"{snr:g} dB"
        print(f"criterion 2, seeds of 20 passed at {at}: {seeds}")
    cost = max(fig1_cost(seed) for seed in range(1, 21))
    print(f"criterion 2, largest noiseless cost at a true user (L=10): {cost:.2g}")


if __name__ == "__main__":
    main()
