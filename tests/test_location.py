"""Digit-by-digit index decoding from bucket ratio measurements.

A single tone makes every measurement ratio an exact root of unity, so
location must return the tone's index and nothing else; that pins the whole
shift ladder arithmetic, including multi-axis grids. Probe balance rules are
checked at their integer boundaries, and noisy-tail recall is measured
against the supermajority voting threshold. The one digit walk
(hashing_measurements.decode_hashings on a stored set) must return exactly
what the per-digit vote over every bucket (oracles.reference_locate)
returns, also when it decodes the buckets a few columns at a time.
"""
import numpy as np
import pytest

from sparsefft import core
from sparsefft import DenseSignal, RecoveryParams
from sparsefft.dense_dft import fft_grid
from sparsefft.hashing_measurements import (
    acquire_measurements,
    decode_hashings,
    update_residual_measurements,
)
from sparsefft.location import _balanced_axes

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
        params = RecoveryParams.derive(n, d, 1).main
        for _ in range(6):
            x = random_sparse_time(n, d, 1, rng)
            i0 = int(x.flat[0])
            mset = acquire_measurements(lib_freq(dense_time(x).values, n, d), params, rng)
            found = decode_hashings(mset)[0]
            assert i0 in found
            # Every bucket sees the same tone, so nothing else can decode.
            assert found.tolist() == [i0]
            # The tone's own bucket decodes it: zeroed references cast no
            # vote, so with every other bucket zeroed only it can.
            own = mset.hashings[0].bucket_of_array(x.coords_array())[0, 0]
            mset.buckets[0][..., np.arange(params.B) != own] = 0.0
            assert decode_hashings(mset)[0].tolist() == [i0]

    def test_two_dimensional_tone(self, rng):
        n, d = 64, 2
        params = RecoveryParams.derive(n, d, 1).main
        x = random_sparse_time(n, d, 1, rng)
        mset = acquire_measurements(lib_freq(dense_time(x).values, n, d), params, rng)
        for found in decode_hashings(mset)[:3]:
            assert found.tolist() == x.flat.tolist()

    def test_decoding_reads_no_new_samples(self, rng):
        n, d = 1024, 1
        params = RecoveryParams.derive(n, d, 1).main
        x = random_sparse_time(n, d, 1, rng)
        mset = acquire_measurements(lib_freq(dense_time(x).values, n, d), params, rng)
        counter = mset.sample_counter
        decode_hashings(mset)
        assert mset.sample_counter == counter

    def test_decoding_is_deterministic(self, rng):
        n, d = 1024, 1
        params = RecoveryParams.derive(n, d, 3).main
        x = random_sparse_time(n, d, 3, rng)
        mset = acquire_measurements(lib_freq(dense_time(x).values, n, d), params, rng)
        first = decode_hashings(mset)
        second = decode_hashings(mset)
        assert len(first) == len(second) == params.r_max
        assert all(np.array_equal(a, b) for a, b in zip(first, second))


class TestResidualAwareness:
    def test_zero_signal_decodes_nothing(self, rng):
        n, d = 256, 1
        params = RecoveryParams.derive(n, d, 2).main
        zero = DenseSignal.zeros(n, d, "frequency")
        mset = acquire_measurements(zero, params, rng)
        # Every surviving bucket yields an index, so no index means every
        # bucket of every hashing failed.
        assert all(found.size == 0 for found in decode_hashings(mset))

    def test_subtracted_tone_disappears(self, rng):
        n, d = 1024, 1
        params = RecoveryParams.derive(n, d, 2).main
        x = random_sparse_time(n, d, 2, rng)
        mset = acquire_measurements(lib_freq(dense_time(x).values, n, d), params, rng)
        loud = x.largest(1)
        (quiet,) = np.setdiff1d(x.flat, loud.flat)
        update_residual_measurements(mset, loud)
        found = decode_hashings(mset)[0]
        assert quiet in found
        assert loud.flat[0] not in found

    def test_fully_subtracted_signal_goes_silent(self, rng):
        n, d = 1024, 1
        params = RecoveryParams.derive(n, d, 2).main
        x = random_sparse_time(n, d, 2, rng)
        mset = acquire_measurements(lib_freq(dense_time(x).values, n, d), params, rng)
        update_residual_measurements(mset, x)
        assert decode_hashings(mset)[0].size == 0


class TestNoisyRecall:
    def test_small_tail_keeps_supermajorities(self, rng):
        # Spikes of unit order against a tail at one percent of the weakest
        # spike; each hashing should still locate every spike almost always.
        n, d, k = 1024, 1, 5
        params = RecoveryParams.derive(n, d, k).main
        full, pairs = 0, 0
        for _ in range(10):
            x = random_sparse_time(n, d, k, rng)
            spikes = set(x.flat.tolist())
            floor = min(abs(v) for v in x.entries.values())
            tail = rng.normal(size=n) + 1j * rng.normal(size=n)
            tail *= 0.01 * floor / np.linalg.norm(tail)
            xt = dense_time(x).values + tail
            mset = acquire_measurements(lib_freq(xt, n, d), params, rng)
            for found in decode_hashings(mset):
                pairs += 1
                full += spikes <= set(found.tolist())
        assert full >= 0.8 * pairs


def assert_matches_reference(mset):
    found = decode_hashings(mset)
    assert len(found) == len(mset.hashings)
    for r, got in enumerate(found):
        assert np.array_equal(got, reference_locate(mset, r))


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
        params = RecoveryParams.derive(n, d, k, B=B).main
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
        params = RecoveryParams.derive(n, d, k, B=B).main
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
        params = RecoveryParams.derive(n, d, k, B=B).main
        x = random_sparse_time(n, d, k, rng)
        xt = dense_time(x).values
        tail = rng.normal(size=xt.shape) + 1j * rng.normal(size=xt.shape)
        xt = xt + tail * (0.3 / np.linalg.norm(tail))
        mset = acquire_measurements(lib_freq(xt, n, d), params, rng)
        # Five bucket columns per block: 64 buckets split 12 x 5 + 4.
        monkeypatch.setattr(core, "_BLOCK_BYTES", 5 * 16 * params.c_max)
        assert_matches_reference(mset)
        decoded = sum(found.size for found in decode_hashings(mset))
        assert 0 < decoded < params.r_max * B
