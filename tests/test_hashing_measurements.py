"""Bucketed measurements against the brute-force double sum.

hash_to_bins is checked three ways: a single tone lands in its bucket with
the predicted gain and phase, a perfectly subtracted signal leaves only
transform error, and random residuals match the literal double sum over
every grid point. Acquisition bookkeeping (shift ladder, probe balance,
sample counting) and in-place residual updates are pinned separately.
"""
import numpy as np
import pytest

from sparsefft import (
    DenseSignal,
    ParameterError,
    RecoveryParams,
    SparseApprox,
    digit_base,
)
from sparsefft.filters import cached_bucket_filter
from sparsefft.hashing_measurements import (
    _bucket_tables,
    _fold_and_invert,
    _modulations,
    _sample_balanced_probes,
    acquire_measurements,
    hash_to_bins,
    update_residual_measurements,
)
from sparsefft.location import _balanced_axes
from sparsefft.permutation import Hashing, sample_permutation

from oracles import (
    brute_bucket_sums,
    dense_time,
    direct_transform,
    random_sparse_time,
    reference_balanced_probes,
    reference_fold_and_invert,
    root_table,
)


def make_hashing(n, d, B, F, rng):
    filt = cached_bucket_filter(n, d, B, F)
    return Hashing(sample_permutation(n, d, rng), filt)


def freq_signal(values_time, n, d):
    """Frequency-domain view of a dense time array, via the direct oracle."""
    if isinstance(values_time, DenseSignal):
        values_time = values_time.values
    xhat = direct_transform(np.asarray(values_time, dtype=np.complex128), n, d)
    return DenseSignal(n=n, d=d, values=xhat.reshape((n,) * d), domain="frequency")


class TestSingleTone:
    def test_tone_bucket_value_and_leakage(self, rng):
        n, d, B, F = 64, 1, 8, 4
        table = root_table(n)
        for _ in range(10):
            hashing = make_hashing(n, d, B, F, rng)
            i0 = np.array([[int(rng.integers(n))]])
            v = complex(rng.normal(), rng.normal())
            x = SparseApprox.from_flat(n, d, i0[0], [v])
            a = np.array([int(rng.integers(n))])
            u = hash_to_bins(freq_signal(dense_time(x), n, d), SparseApprox(n, d), hashing, a)

            pi = hashing.perm.forward_array(i0)
            gain = hashing.filter.g_at(pi - hashing.center_of_array(i0))[0]
            expo = int((a @ hashing.perm.sigma @ i0[0]) % n)
            expected = gain * v * table[expo]
            assert abs(u[tuple(hashing.bucket_of_array(i0)[0])] - expected) < 1e-8

            pi = int(pi[0, 0])
            for j in range(B):
                delta = (pi - (n // B) * j) % n
                dist = min(delta, n - delta)
                envelope = (2.0 / (1.0 + dist * B / n)) ** F
                assert abs(u[j]) <= envelope * abs(v) + 1e-8

    def test_perfect_subtraction_leaves_transform_error(self, rng):
        n, d = 64, 1
        x = random_sparse_time(n, d, 6, rng)
        xhat = freq_signal(dense_time(x), n, d)
        hashing = make_hashing(n, d, 8, 4, rng)
        u = hash_to_bins(xhat, x, hashing, np.zeros(d, dtype=np.int64))
        assert np.max(np.abs(u)) <= 1e-6 * x.norm2()


class TestBruteForceIdentity:
    @pytest.mark.parametrize(
        "n,d,B,F,k_chi",
        [(64, 1, 8, 4, 4), (64, 1, 16, 4, 6), (16, 2, 16, 4, 3), (8, 3, 64, 6, 5)],
    )
    def test_buckets_match_double_sum(self, n, d, B, F, k_chi, rng):
        for _ in range(8):
            hashing = make_hashing(n, d, B, F, rng)
            x_time = rng.normal(size=(n,) * d) + 1j * rng.normal(size=(n,) * d)
            chi = random_sparse_time(n, d, k_chi, rng)
            a = rng.integers(0, n, size=d)
            u = hash_to_bins(freq_signal(x_time, n, d), chi, hashing, a)
            residual = x_time - dense_time(chi).values
            expected = brute_bucket_sums(residual, hashing, a)
            assert np.max(np.abs(u - expected)) < 1e-7

    def test_linearity_of_bucketing(self, rng):
        n, d, B, F = 64, 1, 8, 4
        hashing = make_hashing(n, d, B, F, rng)
        a = np.array([3])
        x1 = rng.normal(size=n) + 1j * rng.normal(size=n)
        x2 = rng.normal(size=n) + 1j * rng.normal(size=n)
        chi1 = random_sparse_time(n, d, 3, rng)
        chi2 = random_sparse_time(n, d, 3, rng)
        u_sum = hash_to_bins(freq_signal(x1 + x2, n, d), chi1 + chi2, hashing, a)
        u1 = hash_to_bins(freq_signal(x1, n, d), chi1, hashing, a)
        u2 = hash_to_bins(freq_signal(x2, n, d), chi2, hashing, a)
        scale = np.abs(u1).max() + np.abs(u2).max()
        assert np.max(np.abs(u_sum - (u1 + u2))) < 1e-9 * max(scale, 1.0)

    def test_heavy_chi_warns_but_computes(self, rng):
        # 300 entries against B=8 exceeds the 4*max(B, 64) advisory line.
        n, d = 512, 1
        hashing = make_hashing(n, d, 8, 4, rng)
        chi_big = SparseApprox.from_flat(n, d, np.arange(300), np.ones(300))
        xhat = freq_signal(dense_time(chi_big), n, d)
        with pytest.warns(RuntimeWarning):
            hash_to_bins(xhat, chi_big, hashing, np.zeros(d, dtype=np.int64))


class TestMeanBucketNoise:
    def test_tail_leakage_scales_inversely_with_buckets(self, rng):
        # E_H sum_{j != i} G(o_i(j))^2 |x_j|^2 <= C ||x||^2 / B. The filter's
        # squared mass per axis is a few times n/b, so C stays single-digit.
        n, d, B, F = 256, 1, 8, 4
        x_time = rng.normal(size=n) + 1j * rng.normal(size=n)
        i0 = np.array([[17]])
        energy = float(np.sum(np.abs(x_time) ** 2))
        x_tail = x_time.copy()
        x_tail[17] = 0.0
        total = 0.0
        trials = 200
        for _ in range(trials):
            hashing = make_hashing(n, d, B, F, rng)
            pi_all = hashing.perm.forward_array(np.arange(n)[:, None])
            center = hashing.center_of_array(i0)[0]
            gains = hashing.filter.g_axis[(pi_all[:, 0] - center[0]) % n]
            total += float((gains**2 * np.abs(x_tail) ** 2).sum())
        assert total / trials <= 4.0 * energy / B


class TestAcquisition:
    def test_shift_ladder_and_counter(self, rng):
        params = RecoveryParams.derive(1024, 1, 5)
        xhat = freq_signal(rng.normal(size=1024), 1024, 1)
        mset = acquire_measurements(xhat, params, rng)
        assert params.delta == 2
        assert mset.shifts.shape == (1 + 1 * 10, 1)
        assert mset.shifts[0].tolist() == [0]
        support = mset.hashings[0].filter.support_size
        expected = params.r_max * params.c_max * len(mset.shifts) * support
        assert mset.sample_counter == expected

    def test_digit_base_for_large_grid(self):
        assert digit_base(2**16) == 4
        params = RecoveryParams.derive(2**16, 1, 8)
        assert params.delta == 4

    def test_every_probe_set_is_balanced(self, rng):
        params = RecoveryParams.derive(256, 1, 4)
        xhat = freq_signal(rng.normal(size=256), 256, 1)
        mset = acquire_measurements(xhat, params, rng)
        assert mset.alphas.shape == mset.betas.shape == (params.r_max, params.c_max, 1)
        for betas in mset.betas:
            assert _balanced_axes(betas, params.delta).all()

    def test_shift_vectors_cover_every_digit_group(self, rng):
        params = RecoveryParams.derive(64, 2, 3)
        xhat = freq_signal(rng.normal(size=(64, 64)), 64, 2)
        mset = acquire_measurements(xhat, params, rng)
        n, d = 64, 2
        delta = params.delta
        groups = len(mset.group_bases)
        assert len(mset.shifts) == 1 + d * groups
        reach = 1
        for base in mset.group_bases:
            reach *= base
        assert reach == n

    def test_modulations_pair_probes_with_shifts(self):
        # Probe (alpha, beta) under shift w modulates by alpha + beta * w mod n.
        alphas, betas, shifts = np.array([[3]]), np.array([[5]]), np.array([[0], [2]])
        assert _modulations(alphas, betas, shifts, 8).tolist() == [[3], [5]]
        alphas, betas = np.array([[7, 3]]), np.array([[2, 9]])
        shifts = np.array([[0, 0], [1, 1]])
        assert _modulations(alphas, betas, shifts, 16).tolist() == [[7, 3], [9, 12]]

    def test_bucket_tables_match_direct_bucketing(self, rng):
        # Acquisition fills m[r, t, w] with hash_to_bins of the modulation
        # a*(1, w_shift) for probe t; spot-check a few cells.
        params = RecoveryParams.derive(256, 1, 4)
        x_time = rng.normal(size=256) + 1j * rng.normal(size=256)
        xhat = freq_signal(x_time, 256, 1)
        mset = acquire_measurements(xhat, params, rng)
        empty = SparseApprox(256, 1)
        for r, t, w in [(0, 0, 0), (1, 2, 1), (2, 1, 3)]:
            a = (mset.alphas[r, t] + mset.betas[r, t] * mset.shifts[w]) % 256
            direct = hash_to_bins(xhat, empty, mset.hashings[r], a)
            assert np.allclose(mset.buckets[r, t, w], direct.reshape(-1), atol=1e-10)


class TestBucketTables:
    @pytest.mark.parametrize("n,d,B,F", [(64, 1, 16, 2), (16, 2, 16, 4), (8, 3, 64, 6)])
    def test_batched_rows_equal_one_call_per_row(self, n, d, B, F, rng):
        # Rows of several hashings share one table, fold and IFFT; each row
        # must come out exactly as a single-row call gives it.
        xhat = freq_signal(rng.normal(size=(n,) * d) + 1j * rng.normal(size=(n,) * d), n, d)
        filt = cached_bucket_filter(n, d, B, F)
        hashings = [make_hashing(n, d, B, F, rng) for _ in range(3)]
        mods = [rng.integers(0, n, size=(count, d)) for count in (1, 4, 2)]
        batched = _bucket_tables(xhat, filt, hashings, mods)
        single = [
            _bucket_tables(xhat, filt, [h], [m[j : j + 1]])[0]
            for h, m in zip(hashings, mods)
            for j in range(len(m))
        ]
        assert batched.shape == (7, B)
        assert np.array_equal(batched, np.array(single))


class TestResidualUpdates:
    def _setup(self, rng, n=256, k=5):
        params = RecoveryParams.derive(n, 1, k)
        x = random_sparse_time(n, 1, k, rng)
        xhat = freq_signal(dense_time(x), n, 1)
        mset = acquire_measurements(xhat, params, rng)
        return params, x, xhat, mset

    def test_empty_delta_is_identity(self, rng):
        _, _, _, mset = self._setup(rng)
        before = mset.buckets.copy()
        counter = mset.sample_counter
        update_residual_measurements(mset, SparseApprox(256, 1))
        assert np.array_equal(mset.buckets, before)
        assert mset.sample_counter == counter

    def test_add_then_remove_restores(self, rng):
        _, x, _, mset = self._setup(rng)
        before = mset.buckets.copy()
        counter = mset.sample_counter
        chi = x.largest(3)
        update_residual_measurements(mset, chi)
        update_residual_measurements(mset, -chi)
        scale = max(float(np.abs(before).max()), 1.0)
        assert np.max(np.abs(mset.buckets - before)) < 1e-9 * scale
        assert mset.sample_counter == counter

    def test_update_matches_fresh_bucketing(self, rng):
        params, x, xhat, mset = self._setup(rng)
        chi = x.largest(2)
        update_residual_measurements(mset, chi)
        scale = float(np.abs(mset.buckets).max())
        for r, t, w in [(0, 0, 0), (1, 3, 2)]:
            a = (mset.alphas[r, t] + mset.betas[r, t] * mset.shifts[w]) % 256
            fresh = hash_to_bins(xhat, chi, mset.hashings[r], a)
            assert np.max(np.abs(mset.buckets[r, t, w] - fresh.reshape(-1))) < 1e-6 * max(
                scale, 1.0
            )

    def test_update_consumes_no_samples(self, rng):
        _, x, _, mset = self._setup(rng)
        counter = mset.sample_counter
        update_residual_measurements(mset, x.largest(2))
        assert mset.sample_counter == counter

    def test_grid_mismatch_rejected(self, rng):
        _, _, _, mset = self._setup(rng)
        with pytest.raises(ParameterError):
            update_residual_measurements(mset, SparseApprox(128, 1))



class TestFoldMatchesPerAxisFold:
    """The one-pass fold equals folding one support axis at a time."""

    @pytest.mark.parametrize(
        "n,d,b,F,full",
        [
            (64, 1, 16, 4, True),  # support is the ring: width 64 = 4b
            (1024, 1, 16, 2, False),  # width F*b + 1 = 33
            (16, 1, 16, 2, True),  # b = n: leading offset -n/2 needs a roll
            (32, 2, 8, 4, True),
            (256, 2, 8, 4, False),
            (8, 2, 8, 4, True),
            (16, 3, 8, 6, True),
            (64, 3, 4, 6, False),
        ],
    )
    def test_bit_identical(self, n, d, b, F, full, rng):
        filt = cached_bucket_filter(n, d, b**d, F)
        width = len(filt.support)
        if full:
            assert width == n and width % b == 0
        else:
            assert width == F * b + 1
        y = rng.normal(size=(3, width**d)) + 1j * rng.normal(size=(3, width**d))
        got = _fold_and_invert(y, filt)
        assert got.shape == (3, b**d)
        assert np.array_equal(got, reference_fold_and_invert(y, filt))


class TestProbeSamplingStream:
    """Array-based balance checks draw the same probes from the same stream."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("delta", [2, 4])
    def test_same_probes_and_rng_state(self, d, delta):
        attempts = []
        for seed in range(6):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            alphas, betas = _sample_balanced_probes(64, d, 8, delta, fast)
            want, tries = reference_balanced_probes(64, d, 8, delta, slow)
            assert list(zip(alphas.tolist(), betas.tolist())) == want
            assert fast.bit_generator.state == slow.bit_generator.state
            attempts.append(tries)
        # Some sets were rejected, so redraws followed the same stream too.
        assert max(attempts) > 1
