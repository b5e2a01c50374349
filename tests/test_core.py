"""Grid arithmetic, probe pairing, and parameter derivation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparsefft import (
    DenseSignal,
    GridIndex,
    ParameterError,
    ProbePair,
    RecoveryParams,
    SparseApprox,
    Tunables,
    digit_base,
)
from sparsefft.core import unit_roots
from sparsefft.estimation import _estimation_buckets


def pair(n, alpha, beta):
    return ProbePair(GridIndex(n, alpha), GridIndex(n, beta))


class TestGridIndex:
    def test_wraps_negative_and_large_coords(self):
        assert GridIndex(8, (9,)).coords == (1,)
        assert GridIndex(8, (-1,)).coords == (7,)

    def test_adding_a_full_turn_is_identity(self):
        i = GridIndex(16, (3, 11))
        for axis in range(2):
            e = GridIndex.unit(16, 2, axis).scaled(16)
            assert i + e == i

    @given(st.integers(0, 63), st.integers(0, 63))
    def test_add_sub_roundtrip(self, a, b):
        i, j = GridIndex(64, (a,)), GridIndex(64, (b,))
        assert (i + j) - j == i

    def test_circular_norm_is_distance_to_zero(self):
        for r in range(16):
            assert GridIndex(16, (r,)).circular_norm() == min(r, 16 - r)
        assert GridIndex(16, (1, 15)).circular_norm() == 1
        assert GridIndex(16, (7, 2)).circular_norm() == 7

    def test_incompatible_grids_rejected(self):
        with pytest.raises(ParameterError):
            GridIndex(8, (1,)) + GridIndex(16, (1,))
        with pytest.raises(ParameterError):
            GridIndex(12, (1,))


class TestDenseSignal:
    def test_shape_and_domain_validation(self):
        with pytest.raises(ParameterError):
            DenseSignal(n=8, d=1, values=np.zeros(7, dtype=np.complex128), domain="time")
        with pytest.raises(ParameterError):
            DenseSignal(
                n=8, d=1, values=np.zeros(8, dtype=np.complex128), domain="spectral"
            )

    def test_at_reads_single_entries(self, rng):
        vals = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        sig = DenseSignal(n=8, d=2, values=vals, domain="time")
        assert sig.at(GridIndex(8, (3, 5))) == vals[3, 5]

    def test_norm2_matches_numpy(self, rng):
        vals = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        sig = DenseSignal(n=16, d=1, values=vals, domain="frequency")
        assert sig.norm2() == pytest.approx(np.linalg.norm(vals))


class TestSparseApprox:
    def test_zero_values_are_never_stored(self):
        x = SparseApprox(8, 1, {GridIndex(8, (1,)): 0.0, GridIndex(8, (2,)): 1.0})
        assert len(x) == 1
        y = x + SparseApprox(8, 1, {GridIndex(8, (2,)): -1.0})
        assert len(y) == 0

    def test_norms_match_numpy(self, rng):
        entries = {
            GridIndex(32, (int(i),)): complex(v)
            for i, v in zip(
                rng.choice(32, 6, replace=False),
                rng.standard_normal(6) + 1j * rng.standard_normal(6),
            )
        }
        x = SparseApprox(32, 1, entries)
        vals = np.array(list(entries.values()))
        assert x.norm1() == pytest.approx(np.abs(vals).sum())
        assert x.norm2() == pytest.approx(np.linalg.norm(vals))
        assert x.norm_inf() == pytest.approx(np.abs(vals).max())

    def test_largest_keeps_the_m_biggest(self):
        x = SparseApprox(
            16, 1, {GridIndex(16, (i,)): float(i + 1) for i in range(5)}
        )
        top = x.largest(2)
        assert top.support() == {GridIndex(16, (3,)), GridIndex(16, (4,))}

    def test_drop_below_prunes_small_entries(self):
        x = SparseApprox(16, 1, {GridIndex(16, (0,)): 1.0, GridIndex(16, (1,)): 1e-9})
        assert x.drop_below(1e-6).support() == {GridIndex(16, (0,))}

    def test_to_dense_roundtrips_support(self, rng):
        x = SparseApprox(16, 2, {GridIndex(16, (3, 4)): 2.0 + 1j})
        dense = x.to_dense(domain="time")
        assert dense.values[3, 4] == 2.0 + 1j
        assert np.count_nonzero(dense.values) == 1


class TestDigitBase:
    def test_pinned_values(self):
        assert digit_base(1024) == 2
        assert digit_base(2**16) == 4
        assert digit_base(64) == 2

    def test_is_a_power_of_two_at_least_two(self):
        for e in range(2, 21):
            b = digit_base(2**e)
            assert b >= 2 and b & (b - 1) == 0


class TestRecoveryParams:
    def test_derived_repetition_counts(self):
        p = RecoveryParams.derive(1024, 1, 5)
        assert (p.r_max, p.c_max, p.delta) == (7, 14, 2)
        p = RecoveryParams.derive(2**16, 1, 8)
        assert (p.r_max, p.c_max, p.delta) == (8, 16, 4)
        p = RecoveryParams.derive(64, 2, 10)
        assert (p.r_max, p.c_max, p.delta) == (8, 15, 2)

    def test_bucket_count_rounds_up_to_a_power_of_two(self):
        assert RecoveryParams.bucket_count(1024, 1, 5, 0.25, 8.0) == 256
        assert RecoveryParams.bucket_count(1024, 1, 4, 0.25, 8.0) == 128
        # the per-axis side is capped at n/2
        assert RecoveryParams.bucket_count(16, 1, 100, 0.25, 8.0) == 8

    def test_bucket_count_meets_the_target_when_uncapped(self):
        for k in (1, 3, 8, 17):
            for d in (1, 2):
                B = RecoveryParams.bucket_count(4096, d, k, 0.25, 8.0)
                assert B >= 8.0 * k / 0.25**d
                b = round(B ** (1 / d))
                assert b**d == B and b & (b - 1) == 0

    def test_validation_errors(self):
        with pytest.raises(ParameterError):
            RecoveryParams.derive(100, 1, 5)
        with pytest.raises(ParameterError):
            RecoveryParams.derive(64, 2, 5, F=3)
        with pytest.raises(ParameterError):
            RecoveryParams.derive(64, 1, 32, B=16)
        with pytest.raises(ParameterError):
            RecoveryParams.derive(64, 1, 5, alpha=1.5)

    def test_ratio_tolerance_must_keep_root_disks_apart(self):
        # delta = 4 at n = 2^16: sin(pi/4) ~ 0.707, so 0.75 lets the
        # tolerance disks of adjacent roots overlap.
        with pytest.raises(ParameterError, match="ratio_tolerance"):
            RecoveryParams.derive(2**16, 1, 8, tunables=Tunables(ratio_tolerance=0.75))
        p = RecoveryParams.derive(2**16, 1, 8)
        assert p.delta == 4
        assert p.tunables.ratio_tolerance < math.sin(math.pi / p.delta)
        # Base 2 roots sit at distance 2 apart, so 0.75 is still exact there.
        RecoveryParams.derive(1024, 1, 8, tunables=Tunables(ratio_tolerance=0.75))


class TestBucketCountCap:
    def test_warns_with_requested_and_capped_side(self):
        with pytest.warns(RuntimeWarning, match=r"b=4096 .*capped at b=8 \(B=8\)"):
            assert RecoveryParams.bucket_count(16, 1, 100, 0.25, 8.0) == 8
        # 8*8 / (0.1 * 0.25^2) = 10240 buckets need b = 16384 > 512.
        with pytest.warns(RuntimeWarning, match=r"b=16384 .*capped at b=512 \(B=512\)"):
            assert _estimation_buckets(1024, 1, 8, 0.1, 0.25, 8.0) == 512
        with pytest.warns(RuntimeWarning, match=r"b=128 .*capped at b=8 \(B=64\)"):
            assert RecoveryParams.bucket_count(16, 2, 50, 0.25, 8.0) == 64

    def test_silent_below_and_at_the_cap(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert RecoveryParams.bucket_count(1024, 1, 5, 0.25, 8.0) == 256
            # 8*16/0.25 = 512 = n/2 exactly: met, not clamped.
            assert RecoveryParams.bucket_count(1024, 1, 16, 0.25, 8.0) == 512
            assert _estimation_buckets(2**16, 1, 4, 1.0, 0.25, 8.0) == 512
            assert RecoveryParams.derive(64, 2, 8).B == 1024


class TestUnitRoots:
    @pytest.mark.parametrize("n", [1, 2, 8, 1024, 2**16])
    def test_table_is_the_direct_exponential(self, n):
        e = np.arange(n)
        assert np.array_equal(unit_roots(n, 1), np.exp(2j * np.pi * e / n))
        assert np.array_equal(unit_roots(n, -1), np.exp(-2j * np.pi * e / n))

    @pytest.mark.parametrize("n", [16, 4096])
    def test_lookup_equals_per_call_exponential(self, n, rng):
        expo = rng.integers(0, n, size=(7, 333))
        assert np.array_equal(unit_roots(n, 1)[expo], np.exp(2j * np.pi * expo / n))
        assert np.array_equal(unit_roots(n, -1)[expo], np.exp(-2j * np.pi * expo / n))

    def test_table_is_read_only_and_shared(self):
        table = unit_roots(64, 1)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[1] = 0
        assert unit_roots(64, 1) is table

    def test_sign_must_be_plus_or_minus_one(self):
        with pytest.raises(ParameterError):
            unit_roots(8, 2)


def test_tunables_defaults_are_the_documented_constants():
    t = Tunables()
    assert t.bucket_scale == 8.0
    assert t.vote_fraction == pytest.approx(3 / 5)
    assert t.ratio_tolerance == pytest.approx(1 / 3)
    assert math.isclose(t.l1_threshold_frac, 1e-3)
