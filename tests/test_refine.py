import math

import numpy as np
import pytest

from nfmusic.channel import array_response, channel_matrix
from nfmusic.geometry import ArrayGeometry, PolarLocation, UeLocation, cart_to_polar, polar_to_cart
from nfmusic.refine import (
    IllConditionedError,
    estimate_correctors,
    ls_baseline,
    reconstruct_channels,
    rls_baseline,
)
from nfmusic.signal import gen_pilots, received_block, stream


@pytest.fixture(scope="module")
def geo():
    return ArrayGeometry(100, 0.1 / math.sqrt(2), 0.1)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestReconstructChannels:
    def test_exact_locations_give_true_columns(self, geo):
        locs = [UeLocation(0.4, -0.2, 2.0), UeLocation(-1.0, 0.3, 4.0)]
        truth = channel_matrix(geo, locs)
        recon = reconstruct_channels([cart_to_polar(l) for l in locs], geo)
        assert np.allclose(recon.entries, truth.entries, rtol=1e-9)

    def test_broadside_closed_form(self, geo):
        recon = reconstruct_channels([PolarLocation(0.0, 0.0, 2.0)], geo)
        assert np.allclose(recon.entries[:, 0], array_response(geo, 0.0, 0.0, 2.0))

    def test_sensitivity_to_one_centimeter(self, geo):
        # regression value recorded at calibration: a 1 cm range error at 2 m
        # barely moves the direction (correlation 0.9999981) while the common
        # phase rotates by ~0.63 rad, which is what the corrector absorbs
        a0 = array_response(geo, 0.0, 0.0, 2.0)
        a1 = array_response(geo, 0.0, 0.0, 2.01)
        corr = abs(np.vdot(a1, a0)) / (np.linalg.norm(a0) * np.linalg.norm(a1))
        assert corr == pytest.approx(0.999998059506015, abs=1e-9)
        phase = np.angle(np.vdot(a0, a1))
        assert abs(phase) == pytest.approx(2 * math.pi * 0.01 / geo.wavelength, rel=0.02)


def stacked_oracle(a, s, q):
    """The stacked correction model written out by index: row l*N + i holds
    a[i, k] * s[k, l] in column k and q[i, l] on the right-hand side."""
    n, k = a.shape
    l = s.shape[1]
    a_ds = np.empty((l * n, k), dtype=complex)
    q_ds = np.empty(l * n, dtype=complex)
    for ll in range(l):
        for i in range(n):
            for kk in range(k):
                a_ds[ll * n + i, kk] = a[i, kk] * s[kk, ll]
            q_ds[ll * n + i] = q[i, ll]
    return a_ds, q_ds


class TestBuildStacked:
    """The corrector stacks the L transmissions in time order."""

    def test_single_transmission(self):
        rng = np.random.default_rng(1)
        a = random_complex(rng, (5, 3))
        s = random_complex(rng, (3, 1))
        q = random_complex(rng, (5, 1))
        expected, *_ = np.linalg.lstsq(a * s[:, 0][None, :], q[:, 0], rcond=None)
        assert np.allclose(estimate_correctors(a, s, q), expected, atol=1e-12)

    def test_single_user_column_structure(self):
        rng = np.random.default_rng(2)
        a = random_complex(rng, (4, 1))
        s = random_complex(rng, (1, 3))
        q = random_complex(rng, (4, 3))
        column = np.concatenate([s[0, l] * a[:, 0] for l in range(3)])
        received = np.concatenate([q[:, l] for l in range(3)])
        expected = np.vdot(column, received) / np.vdot(column, column)
        assert estimate_correctors(a, s, q) == pytest.approx([expected], abs=1e-12)

    def test_index_arithmetic_oracle(self):
        rng = np.random.default_rng(3)
        n, k, l = 3, 2, 2
        a = random_complex(rng, (n, k))
        s = random_complex(rng, (k, l))
        q = random_complex(rng, (n, l))
        expected, *_ = np.linalg.lstsq(*stacked_oracle(a, s, q), rcond=None)
        assert np.allclose(estimate_correctors(a, s, q), expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            estimate_correctors(np.zeros((4, 2)), np.zeros((3, 2)), np.zeros((4, 2)))


class TestEstimateCorrectors:
    def test_exact_model_gives_unit_correctors(self, geo):
        locs = [UeLocation(0.4, -0.2, 2.0), UeLocation(-1.0, 0.3, 4.0)]
        a = channel_matrix(geo, locs)
        s = gen_pilots(2, 3, stream(4, 0))
        block = received_block(a, s, math.inf)
        alpha = estimate_correctors(a.entries, s, block.received)
        assert np.allclose(alpha, 1.0, atol=1e-9)

    def test_recovers_per_column_scales(self, geo):
        locs = [UeLocation(0.4, -0.2, 2.0), UeLocation(-1.0, 0.3, 4.0)]
        a = channel_matrix(geo, locs).entries
        s = gen_pilots(2, 3, stream(5, 0))
        q = a @ s
        scales = np.array([0.5 - 1.5j, 2.0 + 0.3j])
        a_scaled = a / scales[None, :]
        alpha = estimate_correctors(a_scaled, s, q)
        assert np.allclose(alpha, scales, atol=1e-9)

    def test_matches_normal_equation_closed_form(self):
        rng = np.random.default_rng(6)
        a = random_complex(rng, (10, 4))
        s = random_complex(rng, (4, 3))
        q = random_complex(rng, (10, 3))
        a_ds, q_ds = stacked_oracle(a, s, q)
        closed = np.linalg.inv(a_ds.conj().T @ a_ds) @ a_ds.conj().T @ q_ds
        assert np.allclose(estimate_correctors(a, s, q), closed, atol=1e-9)

    def test_residual_minimality(self):
        rng = np.random.default_rng(7)
        a = random_complex(rng, (8, 3))
        s = random_complex(rng, (3, 3))
        q = random_complex(rng, (8, 3))
        a_ds, q_ds = stacked_oracle(a, s, q)
        alpha = estimate_correctors(a, s, q)
        best = np.linalg.norm(q_ds - a_ds @ alpha)
        for _ in range(100):
            v = alpha + 0.1 * random_complex(rng, 3)
            assert best <= np.linalg.norm(q_ds - a_ds @ v) + 1e-12
        ones = np.linalg.norm(q_ds - a_ds @ np.ones(3))
        assert best <= ones + 1e-12

    def test_rank_deficient_raises(self):
        a = np.ones((6, 2), dtype=complex)  # identical columns
        with pytest.raises(IllConditionedError):
            estimate_correctors(a, np.ones((2, 1)), np.ones((6, 1)) + 0j)


class TestApplyCorrection:
    """Callers apply the correctors as ``a_hat * alpha``, one scale per column."""

    def test_unit_correctors_are_identity(self):
        rng = np.random.default_rng(8)
        a = random_complex(rng, (5, 3))
        s = random_complex(rng, (3, 2))
        alpha = estimate_correctors(a, s, a @ s)
        assert np.allclose(a * alpha, a, atol=1e-12)

    def test_scaling_doubles_column_norms(self):
        rng = np.random.default_rng(9)
        a = random_complex(rng, (5, 2))
        s = random_complex(rng, (2, 2))
        out = a * estimate_correctors(a, s, 2 * a @ s)
        assert np.allclose(
            np.linalg.norm(out, axis=0), 2 * np.linalg.norm(a, axis=0), rtol=1e-12
        )

    def test_roundtrip_restores_true_channel(self, geo):
        locs = [UeLocation(0.4, -0.2, 2.0), UeLocation(-1.0, 0.3, 4.0)]
        a = channel_matrix(geo, locs).entries
        s = gen_pilots(2, 4, stream(10, 0))
        q = a @ s
        a_scaled = a / np.array([1.5 + 0.5j, -2.0j])[None, :]
        restored = a_scaled * estimate_correctors(a_scaled, s, q)
        assert np.allclose(restored, a, atol=1e-8 * np.linalg.norm(a))


class TestLsBaseline:
    def test_square_invertible_noiseless_exact(self):
        rng = np.random.default_rng(11)
        a = random_complex(rng, (6, 3))
        s = random_complex(rng, (3, 3))
        assert np.allclose(ls_baseline(a @ s, s), a, atol=1e-9)

    def test_penrose_conditions(self):
        rng = np.random.default_rng(12)
        s = random_complex(rng, (4, 3))  # wide pilots, rank 3
        sp = np.linalg.pinv(s)
        assert np.allclose(s @ sp @ s, s, atol=1e-10)
        assert np.allclose(sp @ s @ sp, sp, atol=1e-10)
        assert np.allclose((s @ sp).conj().T, s @ sp, atol=1e-10)
        assert np.allclose((sp @ s).conj().T, sp @ s, atol=1e-10)

    def test_underdetermined_baseline_is_rank_limited_projection(self):
        rng = np.random.default_rng(13)
        n, k, l = 20, 4, 3
        a = random_complex(rng, (n, k))
        s = random_complex(rng, (k, l))
        est = ls_baseline(a @ s, s)
        proj = a @ s @ np.linalg.pinv(s)
        assert np.allclose(est, proj, atol=1e-10)
        # residual floor computed from the projector directly
        resid = np.linalg.norm(a - proj) ** 2 / np.linalg.norm(a) ** 2
        est_err = np.linalg.norm(a - est) ** 2 / np.linalg.norm(a) ** 2
        assert est_err == pytest.approx(resid, rel=1e-9)
        assert resid > 0.01  # structurally unable to recover a full-rank channel

    def test_linearity(self):
        rng = np.random.default_rng(14)
        s = random_complex(rng, (3, 2))
        q1 = random_complex(rng, (5, 2))
        q2 = random_complex(rng, (5, 2))
        assert np.allclose(
            ls_baseline(q1 + q2, s), ls_baseline(q1, s) + ls_baseline(q2, s), atol=1e-11
        )

    def test_rejects_zero_pilots(self):
        with pytest.raises(ValueError):
            ls_baseline(np.ones((4, 2)), np.zeros((3, 2)))


class TestRlsBaseline:
    def test_zero_regularizer_equals_ls_for_full_rank(self):
        rng = np.random.default_rng(15)
        s = random_complex(rng, (4, 3))  # K=4 >= L=3, S^H S invertible
        q = random_complex(rng, (8, 3))
        assert np.allclose(rls_baseline(q, s, 0.0), ls_baseline(q, s), atol=1e-10)

    def test_large_regularizer_kills_estimate(self):
        rng = np.random.default_rng(16)
        s = random_complex(rng, (3, 2))
        q = random_complex(rng, (5, 2))
        assert np.linalg.norm(rls_baseline(q, s, 1e12)) < 1e-9

    def test_matches_independent_normal_equation_path(self):
        rng = np.random.default_rng(17)
        s = random_complex(rng, (4, 3))
        q = random_complex(rng, (7, 3))
        sigma2 = 0.37
        got = rls_baseline(q, s, sigma2)
        gram_inv = np.linalg.inv(s.conj().T @ s + sigma2 * np.eye(3))
        assert np.allclose(got, q @ gram_inv @ s.conj().T, atol=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(18)
        s = random_complex(rng, (3, 2))
        q1 = random_complex(rng, (5, 2))
        q2 = random_complex(rng, (5, 2))
        assert np.allclose(
            rls_baseline(q1 + q2, s, 0.2),
            rls_baseline(q1, s, 0.2) + rls_baseline(q2, s, 0.2),
            atol=1e-11,
        )

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            rls_baseline(np.ones((2, 1)), np.ones((1, 1)), -1.0)
