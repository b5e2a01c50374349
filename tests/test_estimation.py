"""Median-of-repetitions value estimation.

The scalar building blocks (coordinatewise median, descending quantile) are
pinned against sorting oracles, then estimate_values is checked on exact tones, mixed-magnitude thresholding,
and a Monte Carlo failure-rate curve that must drop sharply as repetitions
grow.
"""
import numpy as np
import pytest

from sparsefft import DenseSignal, ParameterError, SparseApprox
from sparsefft.dense_dft import fft_grid
from sparsefft.diagnostics import quantile_top
from sparsefft.filters import cached_bucket_filter
from sparsefft.estimation import (
    EstimateBatch,
    coordinatewise_median,
    estimate_values,
)

from oracles import dense_time, random_sparse_time, reference_estimate


def lib_freq(values_time, n, d):
    vals = fft_grid(np.asarray(values_time, dtype=np.complex128).reshape((n,) * d))
    return DenseSignal(n=n, d=d, values=vals, domain="frequency")


class TestCoordinatewiseMedian:
    def test_constant_list(self):
        assert coordinatewise_median([1 + 1j, 1 + 1j, 1 + 1j]) == 1 + 1j

    def test_outlier_resistance(self):
        assert coordinatewise_median([0, 1, 100]) == 1 + 0j

    def test_even_count_averages_middles(self):
        est = coordinatewise_median([1j, 2j, 3j, 100.0])
        assert est == complex(0.0, 1.5)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            coordinatewise_median([])

    def test_within_twice_median_deviation(self, rng):
        for _ in range(1000):
            s = int(rng.integers(1, 16))
            vals = rng.normal(size=s) + 1j * rng.normal(size=s)
            a = complex(rng.normal(), rng.normal())
            med_dev = float(np.median(np.abs(vals - a)))
            est = coordinatewise_median(vals)
            assert abs(est - a) <= 2.0 * med_dev + 1e-12


    @pytest.mark.parametrize("reps", [1, 2, 5, 8])
    def test_table_columns_match_scalar_medians(self, reps, rng):
        # Rounding makes ties, which the even-count average must handle too.
        table = np.round(rng.normal(size=(reps, 40)) + 1j * rng.normal(size=(reps, 40)), 1)
        batched = coordinatewise_median(table)
        assert batched.shape == (40,)
        scalar = [coordinatewise_median(table[:, col]) for col in range(40)]
        assert batched.tolist() == scalar


class TestQuantile:
    """The descending quantile on plain scalar lists, as the estimation
    lemmas state it: the ceil(gamma * m)-th largest of m values."""

    def test_pinned_ranks(self):
        assert quantile_top([5, 4, 3, 2, 1], 0.2) == 5.0
        assert quantile_top(list(range(1, 11)), 0.5) == 6.0
        assert quantile_top([7.0], 1.0) == 7.0
        assert quantile_top([3.0, 9.0], 1.0) == 3.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            quantile_top([], 0.5)
        with pytest.raises(ParameterError):
            quantile_top([1.0], 0.0)
        with pytest.raises(ParameterError):
            quantile_top([1.0], 1.5)


class TestExactTones:
    def test_single_tone_recovered_to_float_precision(self, rng):
        n, d = 256, 1
        for _ in range(5):
            x = random_sparse_time(n, d, 1, rng)
            batch = estimate_values(
                lib_freq(dense_time(x).values, n, d),
                SparseApprox(n, d),
                x.flat,
                128,
                0.0,
                5,
                F=2 * d,
                rng=rng,
            )
            assert abs(batch.estimates[0] - x.values[0]) < 1e-7
            assert batch.kept.flat.tolist() == x.flat.tolist()

    def test_residual_estimation_subtracts_chi(self, rng):
        n, d = 256, 1
        x = random_sparse_time(n, d, 1, rng)
        part = SparseApprox.from_flat(n, d, x.flat, 0.25 * x.values)
        batch = estimate_values(
            lib_freq(dense_time(x).values, n, d),
            part,
            x.flat,
            128,
            0.0,
            5,
            F=2 * d,
            rng=rng,
        )
        assert abs(batch.estimates[0] - 0.75 * x.values[0]) < 1e-6

    @pytest.mark.parametrize("n,d", [(256, 1), (16, 2), (8, 3)])
    def test_chi_subtraction_matches_explicit_residual(self, n, d, rng):
        # Subtracting chi in bucket space must give the estimates of the
        # explicit residual spectrum, repetition by repetition.
        shape = (n,) * d
        x_time = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        chi = random_sparse_time(n, d, 5, rng)
        extra = rng.integers(0, n, size=(4, d))
        L = np.concatenate([chi.flat, np.ravel_multi_index(extra.T, shape)])
        args = (L, (n // 2) ** d, 0.0, 5)
        with_chi = estimate_values(
            lib_freq(x_time, n, d), chi, *args, F=2 * d, rng=np.random.default_rng(5)
        )
        residual = estimate_values(
            lib_freq(x_time - dense_time(chi).values, n, d),
            SparseApprox(n, d),
            *args,
            F=2 * d,
            rng=np.random.default_rng(5),
        )
        assert np.array_equal(with_chi.locations, residual.locations)
        got, want = with_chi.estimates, residual.estimates
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    def test_well_spread_tones_estimated_together(self, rng):
        n, d, k = 1024, 1, 5
        x = random_sparse_time(n, d, k, rng)
        ghosts = np.setdiff1d(rng.integers(0, n, size=3), x.flat)
        floor = min(abs(v) for v in x.entries.values())
        batch = estimate_values(
            lib_freq(dense_time(x).values, n, d),
            SparseApprox(n, d),
            np.concatenate([x.flat, ghosts]),
            512,
            0.25 * floor,
            7,
            F=2 * d,
            rng=rng,
        )
        for v, est in zip(x.values, batch.estimates):
            assert abs(est - v) < 0.05 * floor
        assert x.support() <= batch.kept.support()
        assert not set(ghosts.tolist()) & batch.kept.support()


class TestMatchesPerRepetitionLoop:
    """Batched repetitions equal one hash_to_bins call per repetition."""

    @pytest.mark.parametrize(
        "n,d,b",
        [(256, 1, 16), (64, 1, 32), (16, 2, 8), (32, 2, 4), (8, 3, 4), (16, 3, 8)],
    )
    @pytest.mark.parametrize("tail", [0.0, 0.3])
    def test_bit_identical(self, n, d, b, tail, rng):
        x = random_sparse_time(n, d, 4, rng)
        shape = (n,) * d
        x_time = dense_time(x).values + tail * (
            rng.normal(size=shape) + 1j * rng.normal(size=shape)
        )
        xhat = lib_freq(x_time, n, d)
        chi = SparseApprox.from_flat(n, d, x.flat[:2], 0.5 * x.values[:2])
        spike = np.ravel_multi_index(rng.integers(0, n, size=d), shape)
        chi = chi + SparseApprox.from_flat(n, d, [spike], [0.2j])
        extra = np.ravel_multi_index(rng.integers(0, n, size=(5, d)).T, shape)
        L = np.array(list(dict.fromkeys(x.flat.tolist() + extra.tolist())))
        r_max = 5
        fast = np.random.default_rng(11)
        batch = estimate_values(xhat, chi, L, b**d, 0.0, r_max, F=2 * d, rng=fast)
        slow = np.random.default_rng(11)
        filt = cached_bucket_filter(n, d, b**d, 2 * d)
        want, samples = reference_estimate(xhat, chi, L, filt, r_max, slow)
        assert np.array_equal(batch.locations, L)
        assert np.array_equal(batch.estimates, want)
        assert batch.samples == samples
        assert fast.bit_generator.state == slow.bit_generator.state


class TestThresholding:
    def test_kept_is_exactly_above_nu(self, rng):
        n, d = 256, 1
        x = SparseApprox.from_flat(n, d, [10, 100, 200], [1.0, 0.2, 0.9j])
        batch = estimate_values(
            lib_freq(dense_time(x).values, n, d),
            SparseApprox(n, d),
            x.flat,
            128,
            0.5,
            5,
            F=2 * d,
            rng=rng,
        )
        expected = {f for f, e in zip(x.flat.tolist(), batch.estimates) if abs(e) > 0.5}
        assert batch.kept.support() == expected == {10, 200}
        assert batch.kept.values.tolist() == [e for e in batch.estimates if abs(e) > 0.5]

    def test_nu_above_everything_keeps_nothing(self, rng):
        n, d = 256, 1
        x = random_sparse_time(n, d, 2, rng)
        batch = estimate_values(
            lib_freq(dense_time(x).values, n, d),
            SparseApprox(n, d),
            x.flat,
            128,
            10.0 * x.norm_inf(),
            5,
            F=2 * d,
            rng=rng,
        )
        assert len(batch.kept) == 0
        assert len(batch.estimates) == 2


class TestBookkeeping:
    def test_sample_counter_is_reps_times_support(self, rng):
        n, d = 256, 1
        x = random_sparse_time(n, d, 2, rng)
        xhat = lib_freq(dense_time(x).values, n, d)
        L = x.flat
        for r in (1, 4, 9):
            batch = estimate_values(
                xhat, SparseApprox(n, d), L, 16, 0.0, r, F=2 * d, rng=rng
            )
            # d=1 and F=2 give a support of F*b + 1 = 33 offsets per pass.
            assert batch.samples == r * 33

    def test_duplicate_locations_collapse(self, rng):
        n, d = 256, 1
        x = random_sparse_time(n, d, 1, rng)
        batch = estimate_values(
            lib_freq(dense_time(x).values, n, d),
            SparseApprox(n, d),
            np.repeat(x.flat, 3),
            16,
            0.0,
            3,
            F=2 * d,
            rng=rng,
        )
        assert batch.locations.tolist() == x.flat.tolist()
        assert batch.estimates.shape == (1,)
        assert batch.samples == 3 * 33

    def test_empty_location_list(self, rng):
        n, d = 256, 1
        x = random_sparse_time(n, d, 1, rng)
        batch = estimate_values(
            lib_freq(dense_time(x).values, n, d),
            SparseApprox(n, d),
            [],
            128,
            0.0,
            3,
            F=2 * d,
            rng=rng,
        )
        assert batch.locations.size == batch.estimates.size == len(batch.kept) == 0
        assert batch.samples == 0

    def test_seeded_runs_are_identical(self, rng):
        n, d = 256, 1
        x = random_sparse_time(n, d, 3, rng)
        xhat = lib_freq(dense_time(x).values, n, d)
        L = x.flat
        runs = []
        for _ in range(2):
            batch = estimate_values(
                xhat,
                SparseApprox(n, d),
                L,
                128,
                0.0,
                5,
                F=2 * d,
                rng=np.random.default_rng(99),
            )
            runs.append(batch.estimates)
        assert np.array_equal(runs[0], runs[1])

    def test_validation_errors(self, rng):
        n, d = 64, 1
        x = random_sparse_time(n, d, 1, rng)
        xhat = lib_freq(dense_time(x).values, n, d)
        chi = SparseApprox(n, d)
        L = x.flat
        with pytest.raises(ParameterError):
            estimate_values(dense_time(x), chi, L, 16, 0.0, 3, F=2 * d, rng=rng)
        # Bucket counts that are not a power of two, or below 4 per axis,
        # are rejected by the filter construction.
        for B in (0, 2, 5):
            with pytest.raises(ParameterError):
                estimate_values(xhat, chi, L, B, 0.0, 3, F=2 * d, rng=rng)
        with pytest.raises(ParameterError):
            estimate_values(xhat, chi, L, 16, -1.0, 3, F=2 * d, rng=rng)
        with pytest.raises(ParameterError):
            estimate_values(xhat, chi, L, 16, 0.0, 0, F=2 * d, rng=rng)
        with pytest.raises(ParameterError):
            estimate_values(xhat, chi, [n], 16, 0.0, 3, F=2 * d, rng=rng)
        with pytest.raises(ParameterError):
            estimate_values(xhat, chi, [-1], 16, 0.0, 3, F=2 * d, rng=rng)
        with pytest.raises(ParameterError):
            estimate_values(xhat, chi, [[0]], 16, 0.0, 3, F=2 * d, rng=rng)


class TestFailureRateDecay:
    def test_more_repetitions_cut_failures_at_least_in_half(self, rng):
        # One unit tone plus a fixed-energy tail hashed into B=8 buckets;
        # a trial fails when the estimate misses by sqrt(eps*alpha)(nu+mu).
        # Per-repetition misses are common here, so the median's failure
        # rate should collapse between 7 and 15 repetitions.
        n, d = 256, 1
        eps, alpha, nu, mu = 0.1, 0.25, 0.5, 0.5
        thr = np.sqrt(eps * alpha) * (nu + mu)
        empty = SparseApprox(n, d)
        rates = {}
        trials = 250
        for r in (7, 15):
            fails = 0
            for _ in range(trials):
                xt = np.zeros(n, dtype=np.complex128)
                xt[37] = 1.0
                tail = rng.normal(size=n) + 1j * rng.normal(size=n)
                tail *= 0.9 / np.linalg.norm(tail)
                xt += tail
                batch = estimate_values(
                    lib_freq(xt, n, d),
                    empty,
                    [37],
                    8,
                    0.0,
                    r,
                    F=2 * d,
                    rng=rng,
                )
                fails += abs(batch.estimates[0] - xt[37]) > thr
            rates[r] = fails / trials
        assert rates[7] > 0.2
        assert rates[15] <= 0.5 * rates[7]
