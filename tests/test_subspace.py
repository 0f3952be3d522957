import math

import numpy as np
import pytest

from nfmusic.channel import array_response, channel_matrix
from nfmusic.geometry import ArrayGeometry, UeLocation
from nfmusic.signal import gen_pilots, received_block, stream
from nfmusic.subspace import (
    extract_subarrays,
    noise_subspace,
    sample_covariance,
    smoothed_covariance,
)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture(scope="module")
def geo():
    return ArrayGeometry(100, 0.1 / math.sqrt(2), 0.1)


class TestSampleCovariance:
    def test_single_snapshot_rank_one(self):
        q = np.array([1.0 + 1j, 2.0, -1j])
        cov = sample_covariance([q]).matrix
        assert np.allclose(cov, np.outer(q, q.conj()), atol=1e-14)
        assert np.trace(cov).real == pytest.approx(np.linalg.norm(q) ** 2)

    def test_basis_snapshots_give_scaled_identity(self):
        m = 6
        cov = sample_covariance(np.eye(m)).matrix
        assert np.allclose(cov, np.eye(m) / m, atol=1e-14)

    def test_matches_brute_force_accumulation(self):
        rng = np.random.default_rng(1)
        snaps = random_complex(rng, (5, 9))
        cov = sample_covariance(snaps).matrix
        brute = np.zeros((9, 9), dtype=complex)
        for l in range(5):
            for i in range(9):
                for j in range(9):
                    brute[i, j] += snaps[l, i] * np.conj(snaps[l, j])
        brute /= 5
        assert np.allclose(cov, brute, atol=1e-12)

    def test_hermitian_psd(self):
        rng = np.random.default_rng(2)
        r = sample_covariance(random_complex(rng, (4, 7))).matrix
        assert np.linalg.norm(r - r.conj().T) < 1e-12 * np.linalg.norm(r)
        vals = np.linalg.eigvalsh(r)
        assert vals.min() >= -1e-10 * np.trace(r).real

    def test_rank_bounded_by_snapshot_count(self):
        rng = np.random.default_rng(3)
        cov = sample_covariance(random_complex(rng, (3, 10))).matrix
        vals = np.linalg.eigvalsh(cov)
        assert (vals > 1e-10 * vals.max()).sum() <= 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_covariance(np.empty((0, 4)))

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "imag_inf"]
    )
    def test_rejects_a_non_finite_snapshot(self, bad):
        snaps = np.ones((3, 4), dtype=complex)
        snaps[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            sample_covariance(snaps)

    def test_rejects_snapshots_of_more_than_two_axes(self):
        with pytest.raises(ValueError, match=r"\(n, M\)"):
            sample_covariance(np.ones((2, 3, 4), dtype=complex))

    @pytest.mark.parametrize("shape", [(3, 10), (12, 5)], ids=["n_below_m", "n_above_m"])
    def test_matrix_is_exactly_hermitian(self, shape):
        r = sample_covariance(random_complex(np.random.default_rng(7), shape)).matrix
        assert np.array_equal(r, r.conj().T)
        assert not np.diag(r).imag.any()

    def test_keeps_a_read_only_copy_and_builds_the_matrix_once(self):
        snaps = random_complex(np.random.default_rng(8), (3, 5))
        cov = sample_covariance(snaps)
        snaps[0, 0] = 0.0
        assert cov.snapshots[0, 0] != 0.0
        with pytest.raises(ValueError):
            cov.snapshots[0, 0] = 0.0
        assert "matrix" not in vars(cov)
        assert cov.matrix is cov.matrix


class TestExtractSubarrays:
    def test_4x4_with_one_shift(self):
        q = np.arange(16, dtype=complex).reshape(4, 4)
        subs = extract_subarrays(q, 1)
        assert subs.shape == (4, 9)
        assert np.array_equal(subs[0], q[0:3, 0:3].reshape(-1))
        assert np.array_equal(subs[1], q[0:3, 1:4].reshape(-1))
        assert np.array_equal(subs[2], q[1:4, 0:3].reshape(-1))
        assert np.array_equal(subs[3], q[1:4, 1:4].reshape(-1))

    def test_zero_shift_is_plain_vectorization(self):
        rng = np.random.default_rng(4)
        q = random_complex(rng, (5, 5))
        subs = extract_subarrays(q, 0)
        assert subs.shape == (1, 25)
        assert np.array_equal(subs[0], q.reshape(-1))

    def test_brute_force_index_enumeration(self):
        rng = np.random.default_rng(5)
        q = random_complex(rng, (10, 10))
        c_r = 2
        subs = extract_subarrays(q, c_r)
        n_d, t = 8, 3
        assert subs.shape == (9, 64)
        for tx in range(t):
            for ty in range(t):
                expected = [q[tx + i, ty + j] for i in range(n_d) for j in range(n_d)]
                assert np.array_equal(subs[tx * t + ty], np.array(expected))

    def test_leading_axes_match_per_matrix_calls(self):
        rng = np.random.default_rng(9)
        stack = random_complex(rng, (2, 3, 6, 6))
        subs = extract_subarrays(stack, 2)
        assert subs.shape == (2, 3, 9, 16)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(subs[i, j], extract_subarrays(stack[i, j], 2))

    def test_rejects_oversized_shift(self):
        with pytest.raises(ValueError):
            extract_subarrays(np.zeros((4, 4)), 4)


class TestSmoothedCovariance:
    def test_snapshot_count(self, geo):
        locs = [UeLocation(0.1, 0.0, 2.0), UeLocation(-0.4, 0.3, 3.0)]
        a = channel_matrix(geo, locs)
        block = received_block(a, gen_pilots(2, 3, stream(1, 0)), math.inf)
        cov = smoothed_covariance(block, 1).matrix
        snaps = np.vstack(
            [extract_subarrays(block.received[:, l].reshape(10, 10), 1) for l in range(3)]
        )
        assert snaps.shape == (12, 81)
        direct = snaps.T @ snaps.conj() / 12
        assert np.allclose(cov, direct, rtol=0, atol=1e-12 * np.abs(direct).max())
        assert cov.shape == (81, 81)

    def test_zero_shift_equals_sample_covariance(self, geo):
        locs = [UeLocation(0.1, 0.0, 2.0)]
        a = channel_matrix(geo, locs)
        block = received_block(a, gen_pilots(1, 4, stream(2, 0)), math.inf)
        smoothed = smoothed_covariance(block, 0).matrix
        plain = sample_covariance(block.received.T).matrix
        assert np.allclose(smoothed, plain, atol=1e-14)

    @pytest.mark.parametrize("n", [16, 100, 400])
    @pytest.mark.parametrize("l_pilots", [1, 3, 10])
    def test_zero_shift_is_bit_identical_to_sample_covariance(self, n, l_pilots):
        # the full-array plane-slice search (fig1) relies on this equality
        rng = np.random.default_rng(n + l_pilots)
        a = random_complex(rng, (n, 2))
        block = received_block(a, gen_pilots(2, l_pilots, stream(9, n)), 10.0, stream(9, l_pilots))
        smoothed = smoothed_covariance(block, 0)
        plain = sample_covariance(block.received.T)
        assert np.array_equal(smoothed.snapshots, plain.snapshots)
        assert np.array_equal(smoothed.matrix, plain.matrix)

    def test_rank_covers_sources_when_budget_allows(self, geo):
        rng = np.random.default_rng(6)
        for trial in range(5):
            locs = [
                UeLocation(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(2, 6))
                for _ in range(4)
            ]
            a = channel_matrix(geo, locs)
            block = received_block(a, gen_pilots(4, 3, stream(6, trial)), math.inf)
            cov = smoothed_covariance(block, 1).matrix  # L T^2 = 12 >= 4
            vals = np.linalg.eigvalsh(cov)
            assert (vals > 1e-8 * vals.max()).sum() >= 4

    def test_trace_equals_mean_subarray_energy(self, geo):
        locs = [UeLocation(0.2, -0.1, 2.5)]
        a = channel_matrix(geo, locs)
        block = received_block(a, gen_pilots(1, 3, stream(7, 0)), 10.0, stream(7, 1))
        cov = smoothed_covariance(block, 2).matrix
        total = 0.0
        count = 0
        for l in range(3):
            subs = extract_subarrays(block.received[:, l].reshape(10, 10), 2)
            for row in subs:
                total += np.linalg.norm(row) ** 2
                count += 1
        assert np.trace(cov).real == pytest.approx(total / count, rel=1e-12)

    def test_hermitian_psd_preserved(self, geo):
        locs = [UeLocation(0.2, -0.1, 2.5)]
        a = channel_matrix(geo, locs)
        block = received_block(a, gen_pilots(1, 2, stream(8, 0)), 5.0, stream(8, 1))
        r = smoothed_covariance(block, 1).matrix
        assert np.linalg.norm(r - r.conj().T) < 1e-12 * np.linalg.norm(r)
        assert np.linalg.eigvalsh(r).min() >= -1e-10 * np.trace(r).real


def _noiseless_four_users():
    """Channel matrix of four users and the rank-4 sample covariance of six
    noiseless pilots from them."""
    geo = ArrayGeometry(64, 0.05, 0.1)
    locs = [
        UeLocation(0.5, 0.2, 2.0),
        UeLocation(-0.8, -0.1, 3.0),
        UeLocation(0.1, 0.6, 4.0),
        UeLocation(-0.2, -0.7, 2.5),
    ]
    a = channel_matrix(geo, locs)
    block = received_block(a, gen_pilots(4, 6, stream(11, 0)), math.inf)
    return a.entries, sample_covariance(block.received.T)


class TestNoiseSubspace:
    def test_rank_one_orthogonal_complement(self):
        rng = np.random.default_rng(10)
        a = random_complex(rng, 12)
        cov = sample_covariance([a])
        un = noise_subspace(cov, 1)
        assert un.matrix.shape == (12, 11)
        assert np.linalg.norm(un.matrix.conj().T @ a) < 1e-8 * np.linalg.norm(a)

    def test_identity_covariance_orthonormal_columns(self):
        un = noise_subspace(sample_covariance(np.eye(6)), 1)
        assert np.allclose(un.matrix.conj().T @ un.matrix, np.eye(5), atol=1e-10)

    def test_multi_source_noiseless_orthogonality(self):
        a, cov = _noiseless_four_users()
        un = noise_subspace(cov, 4)
        assert np.linalg.norm(a.conj().T @ un.matrix) < 1e-6 * np.linalg.norm(a)

    def test_signal_basis_completes_noise_basis(self):
        rng = np.random.default_rng(12)
        cov = sample_covariance(random_complex(rng, (3, 10)))
        un = noise_subspace(cov, 3)
        assert un.signal.shape == (10, 3)
        full = np.hstack([un.matrix, un.signal])
        assert np.allclose(full.conj().T @ full, np.eye(10), atol=1e-10)
        # the signal columns carry the three nonzero eigenvalues
        captured = np.trace(un.signal.conj().T @ cov.matrix @ un.signal).real
        assert captured == pytest.approx(np.trace(cov.matrix).real, rel=1e-10)

    def test_rejects_too_many_sources(self):
        cov = sample_covariance(np.eye(4))
        with pytest.raises(ValueError):
            noise_subspace(cov, 4)

    def test_rejects_no_sources(self):
        with pytest.raises(ValueError):
            noise_subspace(sample_covariance(np.eye(4)), 0)

    @pytest.mark.parametrize(
        "r",
        [np.diag([3.0, -1.0, 2.0]), np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])],
        ids=["indefinite", "non_hermitian"],
    )
    def test_rejects_a_matrix_that_is_not_a_covariance(self, r):
        """A bare array is refused: only a ``Covariance`` carries the
        snapshots that the subspace is taken from."""
        with pytest.raises(TypeError, match="Covariance"):
            noise_subspace(r, 1)


class TestNoiseSubspaceMatchesEigendecomposition:
    """The left singular vectors of the snapshots give the same subspaces as
    a full eigendecomposition of the covariance matrix."""

    @pytest.mark.parametrize(
        "snapshots, k, fixed",
        [
            (lambda: random_complex(np.random.default_rng(20), (30, 10)), 3, 3),
            (lambda: random_complex(np.random.default_rng(21), (5, 12)), 3, 3),
            (lambda: random_complex(np.random.default_rng(22), (12, 81)), 4, 4),
            (lambda: random_complex(np.random.default_rng(24), (12, 361)), 4, 4),
            (lambda: random_complex(np.random.default_rng(26), (48, 361)), 4, 4),
            (lambda: random_complex(np.random.default_rng(27), (400, 81)), 4, 4),
            (lambda: random_complex(np.random.default_rng(28), (400, 361)), 4, 4),
            (lambda: random_complex(np.random.default_rng(25), (3, 10)), 4, 3),
            (lambda: np.tile(random_complex(np.random.default_rng(29), (1, 10)), (5, 1)), 3, 1),
            (lambda: _noiseless_four_users()[1].snapshots, 4, 4),
            (lambda: np.eye(6), 2, 0),
            (lambda: np.zeros((6, 6)), 2, 0),
        ],
        ids=[
            "full_rank",
            "n_below_m",
            "n_below_m_81",
            "large_array",
            "n_below_m_361",
            "n_above_m_81",
            "n_above_m_361",
            "n_below_k",
            "rank_below_k",
            "noiseless_rank_k",
            "real_eye",
            "zero",
        ],
    )
    def test_signal_columns_span_the_top_k_eigenvectors(self, snapshots, k, fixed):
        """``fixed`` is how many leading eigenvectors are unique up to phase:
        K with a gap after the K-th eigenvalue, the rank of the snapshots when
        it is below K, none when every eigenvalue is tied."""
        cov = sample_covariance(snapshots())
        m = cov.matrix.shape[0]
        un = noise_subspace(cov, k)
        assert un.matrix.shape == (m, m - k) and un.signal.shape == (m, k)
        full = np.hstack([un.matrix, un.signal])
        assert np.linalg.norm(full.conj().T @ full - np.eye(m), 2) <= 1e-12
        vals, vecs = np.linalg.eigh(cov.matrix)
        # the signal columns capture the K largest eigenvalues (Ky Fan)
        captured = np.trace(un.signal.conj().T @ cov.matrix @ un.signal).real
        assert captured == pytest.approx(vals[-k:].sum(), rel=1e-12, abs=1e-14)
        if fixed == 0:
            # tied eigenvalues (eye, zero): any K orthonormal columns are a top-K basis
            assert np.ptp(vals) == 0.0
            return
        # a nonzero gap after the fixed eigenvalues pins their span
        assert vals[-fixed] - vals[-fixed - 1] > 1e-9 * max(vals[-1], 1.0)
        top = vecs[:, -fixed:]
        if fixed == k:
            distance = np.linalg.norm(un.signal @ un.signal.conj().T - top @ top.conj().T, 2)
        else:
            # the signal columns contain the data's range, whether the SVD
            # completes it (n < K) or its thin form pads it (rank < K <= n)
            distance = np.linalg.norm(top - un.signal @ (un.signal.conj().T @ top), 2)
        assert distance <= 1e-12

    def test_rank_below_source_count_keeps_the_range(self):
        """Three snapshots for four sources: the signal columns contain the
        three-dimensional range and complete it to an orthonormal K-basis."""
        rng = np.random.default_rng(23)
        snaps = random_complex(rng, (3, 10))
        un = noise_subspace(sample_covariance(snaps), 4)
        assert un.signal.shape == (10, 4)
        outside = snaps.T - un.signal @ (un.signal.conj().T @ snaps.T)
        assert np.linalg.norm(outside) <= 1e-12 * np.linalg.norm(snaps)
        full = np.hstack([un.matrix, un.signal])
        assert np.linalg.norm(full.conj().T @ full - np.eye(10), 2) <= 1e-12
