import math

import numpy as np
import pytest

from nfmusic.signal import gen_pilots, received_block, stream


class TestStreams:
    def test_same_key_same_draws(self):
        a = stream(7, 1, 2, 0).standard_normal(16)
        b = stream(7, 1, 2, 0).standard_normal(16)
        assert np.array_equal(a, b)

    def test_distinct_keys_distinct_draws(self):
        a = stream(7, 1, 2, 0).standard_normal(16)
        b = stream(7, 1, 2, 1).standard_normal(16)
        c = stream(8, 1, 2, 0).standard_normal(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestGenPilots:
    def test_deterministic_given_seed(self):
        assert np.array_equal(gen_pilots(4, 3, stream(1, 0)), gen_pilots(4, 3, stream(1, 0)))

    def test_shape(self):
        assert gen_pilots(4, 3, stream(1, 0)).shape == (4, 3)

    def test_unit_variance(self):
        s = gen_pilots(100, 1000, stream(2, 0))  # 1e5 draws
        var = np.mean(np.abs(s) ** 2)
        assert 0.98 <= var <= 1.02

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gen_pilots(0, 3, stream(1, 0))


class TestReceivedBlock:
    def test_noiseless_is_exact_product(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        s = gen_pilots(2, 5, stream(3, 1))
        block = received_block(a, s, math.inf)
        assert np.array_equal(block.received, a @ s)
        assert block.noise_var == 0.0

    def test_zero_channel_gives_pure_noise_at_reference_variance(self):
        a = np.zeros((50, 3), dtype=complex)
        s = gen_pilots(3, 400, stream(4, 0))
        block = received_block(a, s, 10.0, stream(4, 1), noise_ref=2.0)
        expected_var = 2.0 / 10.0
        measured = np.mean(np.abs(block.received) ** 2)
        assert measured == pytest.approx(expected_var, rel=0.1)

    def test_empirical_snr_matches_request(self):
        # mean over trials of ||A S||^2 / ||W||^2 should sit near the linear SNR
        rng = np.random.default_rng(5)
        a = rng.standard_normal((100, 4)) + 1j * rng.standard_normal((100, 4))
        ratios = []
        for t in range(100):
            s = gen_pilots(4, 3, stream(6, t, 0))
            block = received_block(a, s, 20.0, stream(6, t, 1))
            noise = block.received - a @ s
            ratios.append(np.linalg.norm(a @ s) ** 2 / np.linalg.norm(noise) ** 2)
        assert np.mean(ratios) == pytest.approx(100.0, rel=0.2)

    def test_linearity_noiseless(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        s1 = gen_pilots(2, 4, stream(8, 0))
        s2 = gen_pilots(2, 4, stream(8, 1))
        lhs = received_block(a, s1 + s2, math.inf).received
        rhs = received_block(a, s1, math.inf).received + received_block(a, s2, math.inf).received
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_noise_independent_of_pilots(self):
        # correlation between matched pilot and noise draws over many trials
        ps, ws = [], []
        for t in range(10_000):
            ps.append(gen_pilots(1, 1, stream(9, t, 0))[0, 0])
            block = received_block(
                np.zeros((1, 1), dtype=complex),
                np.ones((1, 1), dtype=complex),
                0.0,
                stream(9, t, 1),
                noise_ref=1.0,
            )
            ws.append(block.received[0, 0])
        p = np.array(ps)
        w = np.array(ws)
        rho = np.corrcoef(p.real, w.real)[0, 1]
        assert abs(rho) < 0.05

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            received_block(np.zeros((4, 3), dtype=complex), np.zeros((2, 5)), math.inf)

    @pytest.mark.parametrize("snr_db", [-math.inf, math.nan])
    def test_minus_inf_and_nan_snr_rejected(self, snr_db):
        with pytest.raises(ValueError, match="snr_db"):
            received_block(np.ones((2, 1), dtype=complex), np.ones((1, 1)), snr_db, stream(1, 0))

    def test_requires_rng_for_finite_snr(self):
        with pytest.raises(ValueError):
            received_block(np.ones((2, 1), dtype=complex), np.ones((1, 1)), 10.0)
