"""Digit-by-digit index decoding from bucket ratio measurements.

A single tone makes every measurement ratio an exact root of unity, so
location must return the tone's index and nothing else; that pins the whole
shift ladder arithmetic, including multi-axis grids. Probe balance rules are
checked at their integer boundaries, and noisy-tail recall is measured
against the supermajority voting threshold. The nearest-root decoder with
survivor compaction must return exactly what the per-digit vote over every
bucket (oracles.reference_locate) returns, also when it decodes the
buckets a few columns at a time.
"""
import numpy as np
import pytest

from sparsefft import core
from sparsefft import DenseSignal, ParameterError, RecoveryParams
from sparsefft.dense_dft import fft_grid
from sparsefft.hashing_measurements import (
    acquire_measurements,
    update_residual_measurements,
)
from sparsefft.location import LocationResult, _balanced_axes, locate_signal

from oracles import dense_time, random_sparse_time, reference_locate


def lib_freq(values_time: np.ndarray, n: int, d: int) -> DenseSignal:
    """Frequency view via the library transform (oracle-checked elsewhere)."""
    vals = fft_grid(np.asarray(values_time, dtype=np.complex128).reshape((n,) * d))
    return DenseSignal(n=n, d=d, values=vals, domain="frequency")


def balanced(betas, delta: int) -> bool:
    """The digit-balance rule on one axis, for a list of betas."""
    return bool(_balanced_axes(np.array(betas, dtype=np.int64).reshape(-1, 1), delta)[0])


class TestCheckBalanced:
    """The probe digit-balance rule (location._balanced_axes)."""

    def test_empty_set_is_unbalanced(self):
        assert not balanced([], 2)

    def test_zero_betas_are_unbalanced(self):
        assert not balanced([0] * 10, 2)

    def test_threshold_boundary_at_base_two(self):
        # digit 1 hits exactly on the odd betas; 49 of 100 is the floor.
        assert not balanced([1] * 48 + [2] * 52, 2)
        assert balanced([1] * 49 + [2] * 51, 2)

    def test_odd_betas_always_balance_bases_two_and_four(self, rng):
        n = 1024
        for delta in (2, 4):
            for _ in range(50):
                assert balanced(2 * rng.integers(0, n // 2, size=8) + 1, delta)

    def test_even_betas_fail_base_four_on_digit_two(self):
        # 2 * beta = 0 mod 4 for even beta, so digit 2 gets no hits.
        assert not balanced([2] * 10, 4)

    def test_uniform_draws_balance_at_moderate_rate(self, rng):
        # P[Binomial(12, 1/2) >= 6] is about 0.61; the resampling loop in
        # acquisition leans on this rate being far from zero.
        n, c, trials = 1024, 12, 2000
        hits = 0
        for _ in range(trials):
            hits += balanced(rng.integers(0, n, size=c), 2)
        assert 0.35 < hits / trials < 0.85

    def test_multi_axis_reads_requested_axis(self):
        betas = np.array([[1, 2]] * 10)
        assert _balanced_axes(betas, 2).tolist() == [True, False]


class TestSingleTone:
    def test_exact_recovery_from_every_live_bucket(self, rng):
        n, d = 1024, 1
        params = RecoveryParams.derive(n, d, 1)
        for _ in range(6):
            x = random_sparse_time(n, d, 1, rng)
            i0 = int(x.flat[0])
            mset = acquire_measurements(lib_freq(dense_time(x).values, n, d), params, rng)
            result = locate_signal(mset, 0)
            assert i0 in result.found
            # Every bucket sees the same tone, so nothing else can decode.
            assert result.found.tolist() == [i0]
            own = mset.hashings[0].bucket_of_array(x.coords_array())[0, 0]
            assert not result.failed[own]

    def test_two_dimensional_tone(self, rng):
        n, d = 64, 2
        params = RecoveryParams.derive(n, d, 1)
        x = random_sparse_time(n, d, 1, rng)
        mset = acquire_measurements(lib_freq(dense_time(x).values, n, d), params, rng)
        for r in range(min(3, params.r_max)):
            result = locate_signal(mset, r)
            assert result.found.tolist() == x.flat.tolist()

    def test_decoding_reads_no_new_samples(self, rng):
        n, d = 1024, 1
        params = RecoveryParams.derive(n, d, 1)
        x = random_sparse_time(n, d, 1, rng)
        mset = acquire_measurements(lib_freq(dense_time(x).values, n, d), params, rng)
        counter = mset.sample_counter
        locate_signal(mset, 0)
        assert mset.sample_counter == counter

    def test_decoding_is_deterministic(self, rng):
        n, d = 1024, 1
        params = RecoveryParams.derive(n, d, 3)
        x = random_sparse_time(n, d, 3, rng)
        mset = acquire_measurements(lib_freq(dense_time(x).values, n, d), params, rng)
        first = locate_signal(mset, 1)
        second = locate_signal(mset, 1)
        assert np.array_equal(first.found, second.found)
        assert np.array_equal(first.failed, second.failed)


class TestResidualAwareness:
    def test_zero_signal_decodes_nothing(self, rng):
        n, d = 256, 1
        params = RecoveryParams.derive(n, d, 2)
        zero = DenseSignal.zeros(n, d, "frequency")
        mset = acquire_measurements(zero, params, rng)
        result = locate_signal(mset, 0)
        assert result.found.size == 0
        assert result.failed.all()

    def test_subtracted_tone_disappears(self, rng):
        n, d = 1024, 1
        params = RecoveryParams.derive(n, d, 2)
        x = random_sparse_time(n, d, 2, rng)
        mset = acquire_measurements(lib_freq(dense_time(x).values, n, d), params, rng)
        loud = x.largest(1)
        (quiet,) = np.setdiff1d(x.flat, loud.flat)
        update_residual_measurements(mset, loud)
        result = locate_signal(mset, 0)
        assert quiet in result.found
        assert loud.flat[0] not in result.found

    def test_fully_subtracted_signal_goes_silent(self, rng):
        n, d = 1024, 1
        params = RecoveryParams.derive(n, d, 2)
        x = random_sparse_time(n, d, 2, rng)
        mset = acquire_measurements(lib_freq(dense_time(x).values, n, d), params, rng)
        update_residual_measurements(mset, x)
        result = locate_signal(mset, 0)
        assert result.found.size == 0


class TestNoisyRecall:
    def test_small_tail_keeps_supermajorities(self, rng):
        # Spikes of unit order against a tail at one percent of the weakest
        # spike; each hashing should still locate every spike almost always.
        n, d, k = 1024, 1, 5
        params = RecoveryParams.derive(n, d, k)
        full, pairs = 0, 0
        for _ in range(10):
            x = random_sparse_time(n, d, k, rng)
            spikes = set(x.flat.tolist())
            floor = min(abs(v) for v in x.entries.values())
            tail = rng.normal(size=n) + 1j * rng.normal(size=n)
            tail *= 0.01 * floor / np.linalg.norm(tail)
            xt = dense_time(x).values + tail
            mset = acquire_measurements(lib_freq(xt, n, d), params, rng)
            for r in range(params.r_max):
                found = set(locate_signal(mset, r).found.tolist())
                pairs += 1
                full += spikes <= found
        assert full >= 0.8 * pairs

    def test_validation_errors(self, rng):
        n, d = 256, 1
        params = RecoveryParams.derive(n, d, 2)
        x = random_sparse_time(n, d, 2, rng)
        mset = acquire_measurements(lib_freq(dense_time(x).values, n, d), params, rng)
        with pytest.raises(ParameterError):
            locate_signal(mset, params.r_max)


def assert_matches_reference(mset):
    for r in range(len(mset.hashings)):
        result = locate_signal(mset, r)
        found, failed = reference_locate(mset, r)
        assert np.array_equal(result.found, found)
        assert np.array_equal(result.failed, failed)


class TestMatchesPerDigitVote:
    GRIDS = [
        (1024, 1, 4, None),
        (64, 2, 4, None),
        (16, 3, 3, None),
        # delta = 4: base-4 groups on a large 1-D grid, few buckets.
        (2**16, 1, 4, 64),
    ]

    @pytest.mark.parametrize("n,d,k,B", GRIDS)
    @pytest.mark.parametrize("tail_rel", [0.0, 0.3, 1.0])
    def test_acquired_tables(self, n, d, k, B, tail_rel, rng):
        params = RecoveryParams.derive(n, d, k, B=B)
        x = random_sparse_time(n, d, k, rng)
        xt = dense_time(x).values
        if tail_rel:
            tail = rng.normal(size=xt.shape) + 1j * rng.normal(size=xt.shape)
            xt = xt + tail * (tail_rel / np.linalg.norm(tail))
        mset = acquire_measurements(lib_freq(xt, n, d), params, rng)
        assert_matches_reference(mset)

    @pytest.mark.parametrize("n,d,k,B", GRIDS)
    def test_random_tables(self, n, d, k, B, rng):
        # Each bucket's ratios follow a random planted index, jittered at
        # spreads from "always inside the tolerance" to "mostly outside".
        # Odd hashings get even betas, so several digits can win at once;
        # some references are zeroed on half the probes while their shifted
        # entries sit exactly on roots; some entries are pure noise.
        params = RecoveryParams.derive(n, d, k, B=B)
        mset = acquire_measurements(DenseSignal.zeros(n, d, "frequency"), params, rng)
        mset.betas[1::2] = (2 * mset.betas[1::2]) % n
        R, C, S, nb = mset.buckets.shape
        planted = rng.integers(0, n, size=(R, nb, d))
        ref = rng.normal(size=(R, C, nb)) * np.exp(2j * np.pi * rng.random((R, C, nb)))
        ref[:, :, ::11] = 1.0
        spread = rng.choice([0.0, 0.03, 0.1, 0.3], size=(R, 1, nb))
        scale = 1
        mset.buckets[:, :, 0] = ref
        for g, base in enumerate(mset.group_bases, start=1):
            step = n // (scale * base)
            for s in range(d):
                betas = mset.betas[:, :, s]
                expo = (step * betas[:, :, None] * planted[:, None, :, s]) % n
                jitter = rng.normal(size=(R, C, nb)) + 1j * rng.normal(size=(R, C, nb))
                mset.buckets[:, :, mset.shift_slot(g, s)] = ref * (
                    np.exp(2j * np.pi * expo / n) + spread * jitter
                )
            scale *= base
        mset.buckets[:, ::2, 0, ::11] = 0.0
        mset.buckets[:, :, 1:, 5::7] = rng.normal(size=(R, C, S - 1, len(range(5, nb, 7))))
        assert_matches_reference(mset)


class TestColumnBlocks:
    @pytest.mark.parametrize("n,d,k,B", [(1024, 1, 4, 64), (64, 2, 4, 64), (16, 3, 3, 64)])
    def test_blocked_decode_matches_reference(self, n, d, k, B, rng, monkeypatch):
        params = RecoveryParams.derive(n, d, k, B=B)
        x = random_sparse_time(n, d, k, rng)
        xt = dense_time(x).values
        tail = rng.normal(size=xt.shape) + 1j * rng.normal(size=xt.shape)
        xt = xt + tail * (0.3 / np.linalg.norm(tail))
        mset = acquire_measurements(lib_freq(xt, n, d), params, rng)
        # Five bucket columns per block: 64 buckets split 12 x 5 + 4.
        monkeypatch.setattr(core, "_BLOCK_BYTES", 5 * 16 * params.c_max)
        assert_matches_reference(mset)
        decoded = [
            (~locate_signal(mset, r).failed).sum()
            for r in range(params.r_max)
        ]
        assert 0 < sum(decoded) < params.r_max * B
