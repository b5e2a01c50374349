"""Digit-by-digit index decoding from bucket ratio measurements: the
`location` module, the library's one decoder.

A single tone makes every measurement ratio an exact root of unity, so
location must return the tone's index and nothing else; that pins the whole
shift ladder arithmetic (StagePlan.shifts and StagePlan.digit_steps),
including multi-axis grids. Probe balance rules are checked at their
integer boundaries, and noisy-tail recall is measured against the
supermajority voting threshold. The sign-test vote of one digit
(location._decode_digit) must give what the angle-based vote
(oracles.reference_vote) gives. The one digit walk (location._walk_digits),
over the live pairs of every hashing of a stored set
(location.decode_hashings) or of one hashing at a time of a streamed set
as its acquisition reads it (location._decode_as_read), must return
exactly what the per-digit vote over every bucket
(oracles.reference_locate) returns, also when its blocks of pairs are a few
pairs wide, and it must hold no more memory than one hashing's walk did.
"""
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sparsefft import core, hashing_measurements, location
from sparsefft import DenseSignal, ParameterError, RecoveryParams, SparseApprox, Tunables
from sparsefft.harness import ExperimentSpec, generate_signal
from sparsefft.hashing_measurements import acquire_measurements, update_residual_measurements
from sparsefft.location import (
    _balanced_axes,
    _decode_digit,
    _inverse_reference,
    decode_hashings,
)
from sparsefft.permutation import SpectrumPermutation

from oracles import dense_time, main_stage, random_sparse_time, reference_locate, reference_vote


def lib_freq(values_time: np.ndarray, n: int, d: int) -> DenseSignal:
    """Frequency view via the library transform (oracle-checked elsewhere)."""
    vals = np.asarray(values_time, dtype=np.complex128).reshape((n,) * d)
    return DenseSignal(n=n, d=d, values=np.fft.fftn(vals, norm="ortho"), domain="frequency")


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


    def test_decode_takes_each_step_from_the_digit_steps(self, rng, monkeypatch):
        # The walk reads each digit's step where the ladder is stated,
        # StagePlan.digit_steps; it never builds the plan's shift array.
        n, d = 64, 2
        params = RecoveryParams.derive(n, d, 2).main
        x = random_sparse_time(n, d, 2, rng)
        mset = acquire_measurements(lib_freq(dense_time(x).values, n, d), params, rng)
        want = decode_hashings(mset)

        def unread(plan):
            raise AssertionError("the decode read StagePlan.shifts")

        monkeypatch.setattr(type(params), "shifts", property(unread))
        got = decode_hashings(mset)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert any(x.flat[0] in found for found in got)


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


class TestZeroCut:
    """The walk's zero cut is the set's mu floor as a coefficient at the
    plateau edge of its bucket reads it (location._zero_cut), so a
    coefficient above the l1 loop's lowest threshold, head_bias * mu floor,
    reads at least head_bias times the cut even where its gain is least."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_small_coefficient_at_the_bucket_edge_decodes(self, rng, monkeypatch):
        n, d = 1024, 1
        params = RecoveryParams.derive(n, d, 2).main
        tun = params.tunables
        edge = n // (2 * params.B)  # in 1-D the bucket side b is B
        small_at = 300
        head_at = small_at - edge + n // 2
        # Identity Sigma and q = small_at - edge put the small coefficient
        # at offset -edge of its bucket, where its gain is the plateau
        # gain, and the head at the center of the bucket half the ring away,
        # in every hashing.
        perm = SpectrumPermutation(n=n, sigma=np.eye(d, dtype=np.int64), q=[small_at - edge])
        monkeypatch.setattr(hashing_measurements, "sample_permutation", lambda *args: perm)
        small = 2 * tun.head_bias * tun.mu_floor_rel
        values = np.array([small, 1.0]) * np.exp(2j * np.pi * rng.random(2))
        x = SparseApprox.from_flat(n, d, [small_at, head_at], values)
        mset = acquire_measurements(lib_freq(dense_time(x).values, n, d), params, rng)
        assert mset.initial_scale == pytest.approx(1.0)  # the unit head's reading
        update_residual_measurements(mset, SparseApprox.from_flat(n, d, [head_at], values[1:]))
        cut = mset.hashings[0].filter.plateau_gain * tun.mu_floor_rel * mset.initial_scale
        # Every reference of the small coefficient's bucket reads between
        # head_bias and head_bias^2 times the cut.
        own = mset.hashings[0].bucket_of_array(np.array([[small_at]]))[0, 0]
        reading = np.abs(mset.buckets[:, :, 0, own])
        assert tun.head_bias * cut < reading.min() <= reading.max() < tun.head_bias**2 * cut
        assert all(small_at in found for found in decode_hashings(mset))


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
        params = main_stage(n, d, k, B=B)
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
        params = main_stage(n, d, k, B=B)
        mset = acquire_measurements(DenseSignal.zeros(n, d, "frequency"), params, rng)
        mset.betas[1::2] = (2 * mset.betas[1::2]) % n
        R, C, S, nb = mset.buckets.shape
        planted = rng.integers(0, n, size=(R, nb, d))
        ref = rng.normal(size=(R, C, nb)) * np.exp(2j * np.pi * rng.random((R, C, nb)))
        ref[:, :, ::11] = 1.0
        spread = rng.choice([0.0, 0.03, 0.1, 0.3], size=(R, 1, nb))
        mset.buckets[:, :, 0] = ref
        for w, s, base, place, _ in params.digit_steps:
            step = n // (place * base)
            betas = mset.betas[:, :, s]
            expo = (step * betas[:, :, None] * planted[:, None, :, s]) % n
            jitter = rng.normal(size=(R, C, nb)) + 1j * rng.normal(size=(R, C, nb))
            mset.buckets[:, :, w] = ref * (np.exp(2j * np.pi * expo / n) + spread * jitter)
        mset.buckets[:, ::2, 0, ::11] = 0.0
        mset.buckets[:, :, 1:, 5::7] = rng.normal(size=(R, C, S - 1, len(range(5, nb, 7))))
        assert_matches_reference(mset)


class TestQuorumPruning:
    """The walk starts with only the pairs whose reference holds a digit's
    quorum of valid probes (references above the set's zero cut); no
    other pair could win a digit."""

    def test_buckets_short_of_a_quorum_never_reach_the_vote(self, rng, monkeypatch):
        n, d, k = 1024, 1, 4
        params = RecoveryParams.derive(n, d, k).main
        mset = acquire_measurements(DenseSignal.zeros(n, d, "frequency"), params, rng)
        quorum = math.ceil(params.tunables.vote_fraction * params.c_max - 1e-9)
        # Every ratio is 1, but each bucket has quorum - 1 valid probes.
        mset.buckets[...] = 1.0
        mset.buckets[:, quorum - 1 :, 0] = 0.0
        widths = []
        real = location._decode_digit

        def recording(z, *args):
            widths.append(z.shape[1])
            return real(z, *args)

        monkeypatch.setattr(location, "_decode_digit", recording)
        assert all(found.size == 0 for found in decode_hashings(mset))
        assert widths == []
        # One more valid probe puts that one bucket into the walk; in two
        # hashings, both buckets go into one vote per digit.
        mset.buckets[0, quorum - 1, 0, 7] = 1.0
        found = decode_hashings(mset)
        assert widths and set(widths) == {1}
        assert found[0].size <= 1 and all(f.size == 0 for f in found[1:])
        assert_matches_reference(mset)
        widths.clear()
        mset.buckets[2, quorum - 1, 0, 9] = 1.0
        found = decode_hashings(mset)
        assert widths[0] == 2 and set(widths) <= {1, 2}
        assert len(widths) <= len(mset.params.shifts) - 1
        assert all(f.size == 0 for i, f in enumerate(found) if i not in (0, 2))
        assert_matches_reference(mset)


class TestSignTestVote:
    """_decode_digit finds each ratio's nearest root by sign tests and
    accepts it by |z - root|^2; it must give the angle-based vote's
    (unique, chosen) (oracles.reference_vote)."""

    @pytest.mark.parametrize("n,base,scale", [(1024, 2, 8), (2**16, 4, 16)])
    def test_matches_the_angle_vote(self, n, base, scale, rng):
        tun = Tunables()
        c, m = 15, 800
        step = n // (scale * base)
        betas = rng.integers(0, n, size=(c, m))
        # Even betas give a probe several digits, and betas = 0 mod base all.
        betas[:, ::3] &= ~1
        betas[:, 1::7] &= ~(base - 1)
        partial = rng.integers(0, scale, size=m)
        planted = rng.integers(0, base, size=m)
        # Per column, the share of probes at the planted digit's root: on it,
        # or 1e-9 inside the tolerance circle around it. The others sit 1e-9
        # outside the circle, at another root, or anywhere.
        share = rng.choice([0.4, 0.6, 0.7, 0.9, 1.0], size=m)
        at_planted = rng.random((c, m)) < share
        kind = np.where(at_planted, rng.integers(0, 2, (c, m)), rng.integers(2, 5, (c, m)))
        root = (planted * betas) % base
        root = np.where(kind == 3, (root + rng.integers(1, base, (c, m))) % base, root)
        radius = np.choose(
            np.minimum(kind, 3),
            [0.0, tun.ratio_tolerance - 1e-9, tun.ratio_tolerance + 1e-9, 0.0],
        )
        angle = np.exp(2j * np.pi * rng.random((c, m)))
        corrected = np.exp(2j * np.pi * root / base) + radius * angle
        anywhere = kind == 4
        corrected[anywhere] = 2 * (rng.random(anywhere.sum()) + 1j * rng.random(anywhere.sum()))
        ratio = corrected * np.exp(2j * np.pi * ((step * betas * partial) % n) / n)
        ref = rng.normal(size=(c, m)) + 1j * rng.normal(size=(c, m))
        # References that cast no vote: zero, at the cut, and just below it.
        cut = 1e-3
        ref[rng.random((c, m)) < 0.1] = 0.0
        ref[:, 5::11] *= 0.5 * cut / np.abs(ref[:, 5::11]).clip(1e-300)
        ref[:, 7::13] = cut
        meas = ratio * ref
        invalid = np.abs(ref) <= cut
        want = reference_vote(meas, ref, invalid, betas, partial, n, step, base, tun)
        z = meas * _inverse_reference(ref, cut)
        got = _decode_digit(z, betas.copy(), partial, n, step, base, tun)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        # Some columns elect one digit and some do not, and every digit wins
        # somewhere.
        assert 0 < want[0].sum() < m
        assert len(set(want[1][want[0]].tolist())) == base

    def test_probe_without_a_reference_accepts_no_root(self):
        # A reference at or below the cut casts no vote; at cut 0 only a
        # zero one does.
        ref = np.array([[0.0, 0.5e-3, 1e-3, 2e-3, 1.0]], dtype=np.complex128)
        inv = _inverse_reference(ref, 1e-3)
        assert inv.tolist() == [[0.0, 0.0, 0.0, 500.0, 1.0]]
        assert _inverse_reference(ref, 0.0).tolist() == [[0.0, 2000.0, 1000.0, 500.0, 1.0]]


class TestColumnBlocks:
    """The walk's blocks of live pairs may end inside a hashing or between
    two, and a hashing may have no live pair; the decode is the per-digit
    vote's either way, for a stored and a streamed set."""

    GRIDS = [(1024, 1, 4, 64), (64, 2, 4, 64), (16, 3, 3, 64)]

    @staticmethod
    def blocks_of(pairs, params, monkeypatch):
        bytes_per_pair = location._WALK_ENTRY_BYTES * params.c_max
        monkeypatch.setattr(core, "_BLOCK_BYTES", pairs * bytes_per_pair)

    @staticmethod
    def noisy_input(n, d, k, rng):
        x = random_sparse_time(n, d, k, rng)
        xt = dense_time(x).values
        tail = rng.normal(size=xt.shape) + 1j * rng.normal(size=xt.shape)
        return x, lib_freq(xt + tail * (0.3 / np.linalg.norm(tail)), n, d)

    @pytest.mark.parametrize("n,d,k,B", GRIDS)
    @pytest.mark.parametrize("pairs", [5, 8, 100])
    def test_blocked_decode_matches_reference(self, n, d, k, B, pairs, rng, monkeypatch):
        params = main_stage(n, d, k, B=B)
        _, xhat = self.noisy_input(n, d, k, rng)
        mset = acquire_measurements(xhat, params, rng)
        # Every bucket of hashing 0 is live and none of hashing 1, so blocks
        # of 8 pairs end between hashings 0 and 2, and blocks of 5 inside
        # hashings and across that boundary. A block holds at most B pairs,
        # so a budget of 100 gives blocks of 64 that end between hashings.
        mset.buckets[1, :, 0] = 0.0
        self.blocks_of(pairs, params, monkeypatch)
        first = next(location._walks(mset, range(params.r_max)))
        assert first.r.size == min(pairs, B) and set(first.r.tolist()) == {0}
        assert_matches_reference(mset)
        found = decode_hashings(mset)
        assert found[1].size == 0
        assert 0 < sum(f.size for f in found) < params.r_max * B

    @pytest.mark.parametrize("n,d,k,B", GRIDS)
    def test_blocked_streamed_decode_matches_reference(self, n, d, k, B, rng, monkeypatch):
        params = main_stage(n, d, k, B=B)
        x, xhat = self.noisy_input(n, d, k, rng)
        chi = SparseApprox.from_flat(n, d, x.flat[:2], 0.9 * x.values[:2])
        stored = acquire_measurements(xhat, params, np.random.default_rng(7))
        update_residual_measurements(stored, chi)
        stored.buckets[1, :, 0] = 0.0
        # The streamed set loses hashing 1's reference the same way, after
        # chi has been taken out of it: the reference is the one call that
        # cleans every column, under the unshifted modulations alphas[1].
        real = hashing_measurements._subtract_chi

        def dropping(rows, chi, hashing, mods, cells, live=None):
            real(rows, chi, hashing, mods, cells, live)
            if live is None and np.array_equal(mods, stored.alphas[1]):
                rows[:] = 0.0

        monkeypatch.setattr(hashing_measurements, "_subtract_chi", dropping)
        # Blocks of 5 pairs end inside each hashing's 64 live buckets (the
        # tail keeps every reference valid).
        self.blocks_of(5, params, monkeypatch)
        streamed = acquire_measurements(xhat, params, np.random.default_rng(7), chi=chi)
        assert np.array_equal(streamed.buckets, stored.buckets[:, :, :1])
        assert streamed.found[1].size == 0
        assert sum(f.size for f in streamed.found) > 0
        for r, got in enumerate(streamed.found):
            assert np.array_equal(got, reference_locate(stored, r))

    def test_streamed_set_is_not_decoded_again(self, rng):
        n, d, k = 256, 1, 2
        params = RecoveryParams.derive(n, d, k).const_snr
        x = random_sparse_time(n, d, k, rng)
        xhat = lib_freq(dense_time(x).values, n, d)
        streamed = acquire_measurements(xhat, params, rng, chi=SparseApprox.empty(n, d))
        with pytest.raises(ParameterError, match="streamed"):
            decode_hashings(streamed)


class TestWorkingSet:
    """A decode of a bench workload's main set holds no more memory than
    the walk that decoded one hashing at a time: a block holds at most one
    hashing's buckets, and the walk holds one block at a time. The bounds
    are that walk's tracemalloc peaks on these sets, to the byte."""

    @pytest.mark.parametrize(
        "spec,shape,least_found,bound",
        [
            (
                dict(n=64, d=2, k=8, signal_model="sparse-plus-gaussian-tail",
                     snr=10.0, epsilon=0.1),
                (8, 15, 13, 1024), 1000, 1_937_848,
            ),
            (
                dict(n=1 << 16, d=1, k=32, signal_model="exact-sparse"),
                (8, 16, 9, 1024), 200, 2_039_440,
            ),
            (
                dict(n=16, d=3, k=8, signal_model="exact-sparse"),
                (8, 15, 13, 512), 60, 899_592,
            ),
        ],
        ids=["gauss-2d-64", "exact-1d-65536", "exact-3d-16"],
    )
    def test_decode_peak_stays_within_one_hashing_walk(self, spec, shape, least_found, bound):
        spec = ExperimentSpec(**spec)
        x, _, mu = generate_signal(spec, 3)
        xhat = DenseSignal(spec.n, spec.d, np.fft.fftn(x.values, norm="ortho"), "frequency")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            params = spec.recovery_params(mu, 3).main
        mset = acquire_measurements(xhat, params, np.random.default_rng(3))
        assert mset.buckets.shape == shape
        found = decode_hashings(mset)  # warm the caches
        assert sum(f.size for f in found) >= least_found
        tracemalloc.start()
        try:
            decode_hashings(mset)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound
