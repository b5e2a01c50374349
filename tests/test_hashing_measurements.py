"""Bucketed measurements against the brute-force double sum.

hash_to_bins (in oracles: the bucket kernel on one row, chi subtracted at
every bucket) is checked three ways: a single tone lands in its bucket with
the predicted gain and phase, a perfectly subtracted signal leaves only
transform error, and random residuals match the literal double sum over
every grid point. Acquisition bookkeeping (shift ladder, probe balance,
sample counting) and in-place residual updates are pinned separately. The
streaming kernels must give the same bits whatever their block and batch
sizes, acquisition must not hold more than its bucket tables in memory, and
a residual update must not hold its whole (|chi|, B) weights.
"""
import tracemalloc

import numpy as np
import pytest

from sparsefft import (
    DenseSignal,
    ParameterError,
    RecoveryParams,
    SparseApprox,
    digit_base,
)
from sparsefft import core
from sparsefft import hashing_measurements as hm
from sparsefft.filters import cached_bucket_filter
from sparsefft.hashing_measurements import (
    _bucket_tables,
    _fold_rows,
    _invert_rows,
    _modulations,
    _residual_peak,
    _sample_balanced_probes,
    _support_dots,
    acquire_measurements,
    update_residual_measurements,
)
from sparsefft.location import _balanced_axes
from sparsefft.permutation import Hashing, sample_permutation

from oracles import (
    all_indices,
    brute_bucket_sums,
    chi_bucket_sums,
    dense_time,
    direct_transform,
    hash_to_bins,
    main_stage,
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
        params = RecoveryParams.derive(1024, 1, 5).main
        xhat = freq_signal(rng.normal(size=1024), 1024, 1)
        mset = acquire_measurements(xhat, params, rng)
        assert params.delta == 2
        assert mset.params.shifts.shape == (1 + 1 * 10, 1)
        assert mset.params.shifts[0].tolist() == [0]
        support = mset.hashings[0].filter.support_size
        expected = params.r_max * params.c_max * len(mset.params.shifts) * support
        assert mset.sample_counter == expected

    def test_digit_base_for_large_grid(self):
        assert digit_base(2**16) == 4
        params = RecoveryParams.derive(2**16, 1, 8).main
        assert params.delta == 4

    def test_every_probe_set_is_balanced(self, rng):
        params = RecoveryParams.derive(256, 1, 4).main
        xhat = freq_signal(rng.normal(size=256), 256, 1)
        mset = acquire_measurements(xhat, params, rng)
        assert mset.alphas.shape == mset.betas.shape == (params.r_max, params.c_max, 1)
        for betas in mset.betas:
            assert _balanced_axes(betas, params.delta).all()

    def test_shift_vectors_cover_every_digit_group(self, rng):
        params = RecoveryParams.derive(64, 2, 3).main
        xhat = freq_signal(rng.normal(size=(64, 64)), 64, 2)
        mset = acquire_measurements(xhat, params, rng)
        n, d = 64, 2
        delta = params.delta
        groups = len(params.group_bases)
        assert len(mset.params.shifts) == 1 + d * groups
        reach = 1
        for base in params.group_bases:
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
        params = RecoveryParams.derive(256, 1, 4).main
        x_time = rng.normal(size=256) + 1j * rng.normal(size=256)
        xhat = freq_signal(x_time, 256, 1)
        mset = acquire_measurements(xhat, params, rng)
        empty = SparseApprox(256, 1)
        for r, t, w in [(0, 0, 0), (1, 2, 1), (2, 1, 3)]:
            a = (mset.alphas[r, t] + mset.betas[r, t] * mset.params.shifts[w]) % 256
            direct = hash_to_bins(xhat, empty, mset.hashings[r], a)
            assert np.allclose(mset.buckets[r, t, w], direct.reshape(-1), atol=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("streamed", [False, True])
    def test_non_finite_sample_stops_acquisition(self, bad, streamed, rng):
        # On 64 points with k = 2 every stage reads F*b + 1 = 65 >= n offsets
        # per pass, so each one reads the bad sample.
        n, d, k = 64, 1, 2
        x = random_sparse_time(n, d, k, rng)
        xhat = freq_signal(dense_time(x), n, d)
        xhat.values[5] = bad
        plan = RecoveryParams.derive(n, d, k)
        stage, chi = (plan.inf_norm, x.largest(1)) if streamed else (plan.main, None)
        with pytest.raises(ParameterError, match="NaN or infinite"):
            acquire_measurements(xhat, stage, rng, chi=chi)


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


def same_map(a, b):
    """Equal maps with the same flat order: (flat, values) arrays `==`."""
    return np.array_equal(a.flat, b.flat) and np.array_equal(a.values, b.values)


class TestResidualUpdates:
    """Updates subtract from the tables and add to mset.chi, which then
    names the approximation the tables no longer hold."""

    def _setup(self, rng, n=256, k=5):
        params = RecoveryParams.derive(n, 1, k).main
        x = random_sparse_time(n, 1, k, rng)
        xhat = freq_signal(dense_time(x), n, 1)
        mset = acquire_measurements(xhat, params, rng)
        return params, x, xhat, mset

    def test_empty_delta_is_identity(self, rng):
        _, _, _, mset = self._setup(rng)
        assert len(mset.chi) == 0 and (mset.chi.n, mset.chi.d) == (256, 1)
        before = mset.buckets.copy()
        counter = mset.sample_counter
        update_residual_measurements(mset, SparseApprox(256, 1))
        assert np.array_equal(mset.buckets, before)
        assert mset.sample_counter == counter
        assert len(mset.chi) == 0

    def test_add_then_remove_restores(self, rng):
        _, x, _, mset = self._setup(rng)
        before = mset.buckets.copy()
        counter = mset.sample_counter
        chi = x.largest(3)
        update_residual_measurements(mset, chi)
        total = SparseApprox(256, 1) + chi
        assert same_map(mset.chi, total)
        update_residual_measurements(mset, -chi)
        assert same_map(mset.chi, total + (-chi))
        assert len(mset.chi) == 0
        scale = max(float(np.abs(before).max()), 1.0)
        assert np.max(np.abs(mset.buckets - before)) < 1e-9 * scale
        assert mset.sample_counter == counter

    def test_update_matches_fresh_bucketing(self, rng):
        params, x, xhat, mset = self._setup(rng)
        chi = x.largest(2)
        update_residual_measurements(mset, chi)
        fresh = acquire_measurements(xhat, params, rng)
        update_residual_measurements(fresh, chi)
        assert same_map(fresh.chi, chi)
        scale = float(np.abs(mset.buckets).max())
        for r, t, w in [(0, 0, 0), (1, 3, 2)]:
            a = (mset.alphas[r, t] + mset.betas[r, t] * mset.params.shifts[w]) % 256
            fresh = hash_to_bins(xhat, chi, mset.hashings[r], a)
            assert np.max(np.abs(mset.buckets[r, t, w] - fresh.reshape(-1))) < 1e-6 * max(
                scale, 1.0
            )

    def test_update_consumes_no_samples(self, rng):
        _, x, _, mset = self._setup(rng)
        counter = mset.sample_counter
        update_residual_measurements(mset, x.largest(2))
        update_residual_measurements(mset, x.largest(4))
        assert mset.sample_counter == counter
        assert same_map(mset.chi, SparseApprox(256, 1) + x.largest(2) + x.largest(4))

    def test_grid_mismatch_rejected(self, rng):
        _, _, _, mset = self._setup(rng)
        with pytest.raises(ParameterError):
            update_residual_measurements(mset, SparseApprox(128, 1))


# (n, d, k, B, c_max): one stored main set per dimension, several row blocks.
PEAK_SPECS = [(1024, 1, 4, 256, 11), (64, 2, 3, 256, 7), (16, 3, 2, 512, 7)]


class TestResidualPeak:
    """A stored set keeps the peak of its last scan that read every block,
    and answers from it until update_residual_measurements changes the
    tables."""

    def _setup(self, n, d, k, B, c_max, rng):
        params = main_stage(n, d, k, B=B, c_max=c_max)
        x = random_sparse_time(n, d, k, rng)
        mset = acquire_measurements(freq_signal(dense_time(x), n, d), params, rng)
        return x, mset

    @pytest.mark.parametrize("n,d,k,B,c_max", PEAK_SPECS)
    def test_acquisition_keeps_its_full_peak(self, n, d, k, B, c_max, rng):
        _, mset = self._setup(n, d, k, B, c_max, rng)
        peak = float(np.abs(mset.buckets).max())
        assert mset.residual_peak == mset.initial_scale == peak
        assert _residual_peak(mset) == peak

    @pytest.mark.parametrize("n,d,k,B,c_max", PEAK_SPECS)
    def test_update_drops_the_peak_and_a_full_scan_keeps_the_new_one(
        self, n, d, k, B, c_max, rng
    ):
        x, mset = self._setup(n, d, k, B, c_max, rng)
        update_residual_measurements(mset, x.largest(1))
        assert mset.residual_peak is None
        peak = float(np.abs(mset.buckets).max())
        # A bound the tables meet: the scan reads every block.
        assert _residual_peak(mset, above=peak) == peak
        assert mset.residual_peak == peak

    @pytest.mark.parametrize("n,d,k,B,c_max", PEAK_SPECS)
    def test_stopped_scan_keeps_no_peak(self, n, d, k, B, c_max, rng, monkeypatch):
        x, mset = self._setup(n, d, k, B, c_max, rng)
        update_residual_measurements(mset, x.largest(1))
        rows = mset.buckets.reshape(-1, B)
        monkeypatch.setattr(core, "_BLOCK_BYTES", 16 * B)  # one row per block
        first = float(np.abs(rows[0]).max())
        assert first > 0.0 and len(rows) > 1
        assert _residual_peak(mset, above=first / 2) == first
        assert mset.residual_peak is None
        assert _residual_peak(mset) == float(np.abs(rows).max())

    def test_kept_peak_answers_without_a_scan(self, rng, monkeypatch):
        _, mset = self._setup(*PEAK_SPECS[0], rng)
        peak = mset.residual_peak
        monkeypatch.setattr(hm, "_max_abs", lambda *a, **kw: pytest.fail("scanned"))
        assert _residual_peak(mset) == peak
        assert _residual_peak(mset, above=peak / 2) == peak


class TestBlocksAreInvisible:
    """Blocks and batches regroup independent rows and columns, so any
    block size gives the same bits."""

    # 1-D: support width F*b + 1 = 33 is not a multiple of b = 16; b = n
    # needs the roll. The 2-D and 3-D filters cover the whole ring.
    @pytest.mark.parametrize(
        "n,d,B,F", [(1024, 1, 16, 2), (16, 1, 16, 2), (16, 2, 16, 4), (8, 3, 64, 6)]
    )
    def test_bucket_tables_equal_single_row_calls(self, n, d, B, F, rng, monkeypatch):
        xhat = freq_signal(rng.normal(size=(n,) * d) + 1j * rng.normal(size=(n,) * d), n, d)
        filt = cached_bucket_filter(n, d, B, F)
        hashings = [make_hashing(n, d, B, F, rng) for _ in range(2)]
        mods = [rng.integers(0, n, size=(count, d)) for count in (5, 4)]
        single = [
            _bucket_tables(xhat, filt, [h], [m[j : j + 1]])[0]
            for h, m in zip(hashings, mods)
            for j in range(len(m))
        ]
        # Gather blocks of three rows and FFT batches of at least four: the
        # first batch is rows 0-5, across a block edge (row 3) and a hashing
        # edge (row 5); the last three rows are the ragged tail.
        monkeypatch.setattr(core, "_BLOCK_BYTES", 3 * 16 * filt.support_size)
        monkeypatch.setattr(hm, "_FFT_BATCH_ROWS", 4)
        batches = []
        fft = hm.fft_axes
        monkeypatch.setattr(
            hm, "fft_axes", lambda v, *a, **kw: batches.append(len(v)) or fft(v, *a, **kw)
        )
        out = np.full((9, B), np.nan, dtype=np.complex128)
        assert _bucket_tables(xhat, filt, hashings, mods, out=out) is out
        assert batches == [6, 3]
        assert np.array_equal(out, np.array(single))

    @pytest.mark.parametrize(
        "n,d,k,B,c_max", [(1024, 1, 4, 256, 11), (64, 2, 3, 256, 7), (16, 3, 2, 512, 7)]
    )
    @pytest.mark.parametrize("k_chi", [1, 5])
    def test_update_equals_whole_increment(self, n, d, k, B, c_max, k_chi, rng, monkeypatch):
        params = main_stage(n, d, k, B=B, c_max=c_max)
        x = random_sparse_time(n, d, k, rng)
        xhat = freq_signal(dense_time(x), n, d)
        mset = acquire_measurements(xhat, params, np.random.default_rng(5))
        chi = random_sparse_time(n, d, k_chi, rng)
        # The whole increment: one block of _UPDATE_COLUMNS >= B columns.
        whole = acquire_measurements(xhat, params, np.random.default_rng(5))
        update_residual_measurements(whole, chi)
        # 64-column blocks: B / 64 of them per hashing.
        monkeypatch.setattr(hm, "_UPDATE_COLUMNS", 64)
        widths = []
        weights = hm._chi_weights
        monkeypatch.setattr(
            hm, "_chi_weights", lambda p, h, j: widths.append(len(j)) or weights(p, h, j)
        )
        expected = mset.buckets.copy()
        update_residual_measurements(mset, chi)
        assert widths == [64] * (B // 64) * params.r_max
        assert np.array_equal(mset.buckets, whole.buckets)
        # Both equal chi's contribution summed directly, to rounding.
        cells = all_indices(mset.hashings[0].b, d)
        for r, hashing in enumerate(mset.hashings):
            mods = _modulations(mset.alphas[r], mset.betas[r], mset.params.shifts, n)
            expected[r] -= np.array(
                [chi_bucket_sums(chi, hashing, a, cells) for a in mods]
            ).reshape(expected[r].shape)
        scale = np.abs(expected).max()
        assert np.abs(mset.buckets - expected).max() < 1e-12 * scale


class TestMemoryBound:
    def test_acquisition_peak_stays_below_two_tables(self, rng):
        # 240 rows of 8192 buckets: a 31.5 MB table whose filter support is
        # the whole 2^14 ring.
        n = 2**14
        params = main_stage(n, 1, 4, B=2**13, r_max=1)
        xhat = DenseSignal(n, 1, rng.normal(size=n) + 1j * rng.normal(size=n), "frequency")
        acquire_measurements(xhat, params, np.random.default_rng(1))  # warm the caches
        tracemalloc.start()
        try:
            mset = acquire_measurements(xhat, params, np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The table has a memory mapping of its own, which tracemalloc does
        # not see, so the peak is that of the temporaries alone: with the
        # table they stay below two tables.
        assert peak < mset.buckets.nbytes

    def test_update_peak_stays_below_one_weight_array(self, rng):
        # |chi| = 32 against 8192 buckets: the full (|chi|, B) complex
        # weights would take 4 MiB.
        n = 2**14
        params = main_stage(n, 1, 4, B=2**13, r_max=1)
        xhat = DenseSignal(n, 1, rng.normal(size=n) + 1j * rng.normal(size=n), "frequency")
        acquire_measurements(xhat, params, np.random.default_rng(1))  # warm the caches
        mset = acquire_measurements(xhat, params, np.random.default_rng(1))
        flat = rng.choice(n, size=32, replace=False)
        chi = SparseApprox.from_flat(n, 1, flat, rng.normal(size=32) + 1j * rng.normal(size=32))
        tracemalloc.start()
        try:
            update_residual_measurements(mset, chi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(chi) * params.B * np.dtype(np.complex128).itemsize


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
        got = np.full((3, b**d), np.nan, dtype=np.complex128)
        _fold_rows(y, filt, got)
        _invert_rows(got, filt)
        assert np.array_equal(got, reference_fold_and_invert(y, filt))


class TestSupportDots:
    """The outer-sum index arithmetic equals (grid @ coeffs) mod n over the
    row-major support grid, the matmul it replaces."""

    @pytest.mark.parametrize(
        "n,d,B,F",
        [(1024, 1, 16, 2), (64, 1, 64, 2), (64, 2, 256, 4), (16, 2, 256, 4), (16, 3, 512, 6)],
    )
    def test_equals_support_grid_matmul(self, n, d, B, F, rng):
        filt = cached_bucket_filter(n, d, B, F)
        mesh = np.meshgrid(*([filt.support] * d), indexing="ij")
        grid = np.stack([m.ravel() for m in mesh], axis=1)
        coeffs = rng.integers(0, n, size=(d, d + 1))
        want = ((grid @ coeffs) & (n - 1)).T
        assert np.array_equal(_support_dots(filt, coeffs), want)


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
