"""Grid arithmetic, sparse approximations, and parameter derivation."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from sparsefft import (
    DenseSignal,
    DimensionError,
    ParameterError,
    RecoveryParams,
    StagePlan,
    SparseApprox,
    Tunables,
    digit_base,
)
from sparsefft.core import (
    _log4,
    bucket_side,
    estimation_bucket_count,
    location_bucket_count,
    unit_roots,
)


class TestDenseSignal:
    def test_shape_and_domain_validation(self):
        with pytest.raises(ParameterError):
            DenseSignal(n=8, d=1, values=np.zeros(7, dtype=np.complex128), domain="time")
        with pytest.raises(ParameterError):
            DenseSignal(
                n=8, d=1, values=np.zeros(8, dtype=np.complex128), domain="spectral"
            )

    def test_norm2_matches_numpy(self, rng):
        vals = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        sig = DenseSignal(n=16, d=1, values=vals, domain="frequency")
        assert sig.norm2() == pytest.approx(np.linalg.norm(vals))


class TestSparseApprox:
    def test_zero_values_are_never_stored(self):
        x = SparseApprox.from_flat(8, 1, [1, 2], [0.0, 1.0])
        assert len(x) == 1
        y = x + SparseApprox.from_flat(8, 1, [2], [-1.0])
        assert len(y) == 0

    def test_norms_match_numpy(self, rng):
        flat = rng.choice(32, 6, replace=False)
        vals = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        x = SparseApprox.from_flat(32, 1, flat, vals)
        assert x.norm1() == pytest.approx(np.abs(vals).sum())
        assert x.norm2() == pytest.approx(np.linalg.norm(vals))
        assert x.norm_inf() == pytest.approx(np.abs(vals).max())

    def test_largest_keeps_the_m_biggest(self):
        x = SparseApprox.from_flat(16, 1, range(5), [float(i + 1) for i in range(5)])
        top = x.largest(2)
        assert top.support() == {3, 4}

    def test_drop_below_prunes_small_entries(self):
        x = SparseApprox.from_flat(16, 1, [0, 1], [1.0, 1e-9])
        assert x.drop_below(1e-6).support() == {0}

    def test_magnitude_order_follows_abs(self):
        # np.abs rounds |v| one ulp above abs(v) = 1.1870274009931936, onto
        # |w|; with it, largest would keep v on the tie and drop_below would
        # keep v above the floor abs(v).
        v = -0.1321048632913019 - 1.179653489717825j
        w = 1.1870274009931938 + 0j
        assert abs(v) < abs(w)
        x = SparseApprox.from_flat(16, 1, [0, 1], [v, w])
        assert x.largest(1).support() == {1}
        assert x.drop_below(abs(v)).support() == {1}

    def test_sum_keeps_first_seen_order_and_drops_cancellations(self):
        a = SparseApprox.from_flat(16, 1, [5, 2, 9], [1.0, 2.0 + 1j, 0.1])
        b = SparseApprox.from_flat(16, 1, [7, 9, 2], [4.0, 0.2, -2.0 - 1j])
        total = a + b
        assert total.flat.tolist() == [5, 9, 7]
        assert total.values.tolist() == [1.0, 0.1 + 0.2, 4.0]
        assert list(total.entries) == [5, 9, 7]

    def test_largest_keeps_insertion_order_on_ties(self):
        x = SparseApprox.from_flat(16, 1, [3, 1, 4, 2], [1.0, 2.0, -2.0, 2j])
        assert x.largest(2).flat.tolist() == [1, 4]
        assert x.largest(3).flat.tolist() == [1, 4, 2]

    def test_array_constructor_validation(self):
        with pytest.raises(ParameterError):
            SparseApprox.from_flat(16, 1, [1, 2], [1.0])
        with pytest.raises(ParameterError):
            SparseApprox.from_flat(16, 2, [256], [1.0])
        with pytest.raises(ParameterError):
            SparseApprox.from_flat(16, 1, [-1], [1.0])
        with pytest.raises(ParameterError):
            SparseApprox.from_flat(16, 1, [3, 3], [1.0, 2.0])
        # 2^21 cubed is 2^63, one past the largest int64 flat index.
        with pytest.raises(ParameterError):
            SparseApprox.from_flat(2**21, 3, [0], [1.0])
        top = SparseApprox.from_flat(2**31, 2, [2**62 - 1], [1.0])
        assert top.coords_array().tolist() == [[2**31 - 1, 2**31 - 1]]

    def test_incompatible_grids_rejected(self):
        with pytest.raises(DimensionError):
            SparseApprox(8, 1) + SparseApprox(16, 1)
        with pytest.raises(DimensionError):
            SparseApprox(8, 1) + SparseApprox(8, 2)
        with pytest.raises(ParameterError):
            SparseApprox(12, 1)

    def test_to_dense_roundtrips_support(self, rng):
        x = SparseApprox.from_flat(16, 2, [3 * 16 + 4], [2.0 + 1j])
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
        p = RecoveryParams.derive(1024, 1, 5).main
        assert (p.r_max, p.c_max, p.delta) == (7, 14, 2)
        p = RecoveryParams.derive(2**16, 1, 8).main
        assert (p.r_max, p.c_max, p.delta) == (8, 16, 4)
        p = RecoveryParams.derive(64, 2, 10).main
        assert (p.r_max, p.c_max, p.delta) == (8, 15, 2)

    def test_bucket_count_rounds_up_to_a_power_of_two(self):
        assert location_bucket_count(1024, 1, 5, 1.0, Tunables()) == 256
        assert location_bucket_count(1024, 1, 4, 1.0, Tunables()) == 128
        # the per-axis side is capped at n/2
        assert location_bucket_count(16, 1, 100, 1.0, Tunables()) == 8

    def test_bucket_count_meets_the_target_when_uncapped(self):
        for k in (1, 3, 8, 17):
            for d in (1, 2):
                B = location_bucket_count(4096, d, k, 1.0, Tunables())
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
            RecoveryParams.derive(64, 1, 5, tunables=Tunables(alpha=1.5))

    @pytest.mark.parametrize(
        "target,value,message",
        [
            ("epsilon", float("nan"), "epsilon must be finite and > 0"),
            ("epsilon", float("inf"), "epsilon must be finite and > 0"),
            ("mu", float("nan"), "mu must be finite and >= 0"),
            ("mu", float("inf"), "mu must be finite and >= 0"),
            ("r_star", float("nan"), "r_star must be finite and >= 1"),
            ("r_star", float("inf"), "r_star must be finite and >= 1"),
        ],
    )
    def test_non_finite_targets_rejected(self, target, value, message):
        # NaN passes every <= and < test, so each range check needs an
        # explicit finiteness test.
        with pytest.raises(ParameterError, match=message):
            RecoveryParams.derive(64, 1, 2, T=1, **{target: value})

    def test_constant_snr_stage_has_one_round(self):
        plan = RecoveryParams.derive(256, 1, 2, epsilon=1.0)
        assert plan.const_snr.rounds == 1
        with pytest.raises(ParameterError, match="one estimation call, got rounds=2"):
            dataclasses.replace(
                plan, const_snr=dataclasses.replace(plan.const_snr, rounds=2)
            )

    def test_more_buckets_per_axis_than_grid_points_rejected(self):
        with pytest.raises(ParameterError, match="16 buckets per axis, more than n=8"):
            StagePlan(
                n=8, d=1, k=1, F=2, B=16, r_max=3, c_max=8, B_est=4, reps=1,
                rounds=1,
            )
        with pytest.raises(ParameterError, match="8 buckets per axis, more than n=4"):
            RecoveryParams.derive(4, 2, 1, B=64)
        RecoveryParams.derive(4, 2, 1, B=16)

    def test_two_point_grid_rejected_at_construction(self):
        # The bucket rule's floor b = 4 exceeds n = 2; the digit base fails
        # first, with the message the pipeline reports.
        with pytest.raises(ParameterError, match="digit base 2"):
            RecoveryParams.derive(2, 1, 1)

    def test_ratio_tolerance_must_keep_root_disks_apart(self):
        # delta = 4 at n = 2^16: sin(pi/4) ~ 0.707, so 0.75 lets the
        # tolerance disks of adjacent roots overlap.
        with pytest.raises(ParameterError, match="ratio_tolerance"):
            RecoveryParams.derive(2**16, 1, 8, tunables=Tunables(ratio_tolerance=0.75))
        p = RecoveryParams.derive(2**16, 1, 8).main
        assert p.delta == 4
        assert p.tunables.ratio_tolerance < math.sin(math.pi / p.delta)
        # Base 2 roots sit at distance 2 apart, so 0.75 is still exact there.
        RecoveryParams.derive(1024, 1, 8, tunables=Tunables(ratio_tolerance=0.75))


class TestBucketSide:
    @pytest.mark.parametrize("B,d,b", [(8, 1, 8), (64, 2, 8), (512, 3, 8), (16, 2, 4), (1, 3, 1)])
    def test_returns_the_axis_side(self, B, d, b):
        assert bucket_side(B, d) == b

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("B", [-64, -8, -4, -1, 0, 12, 32 * 3])
    def test_rejects_every_other_count(self, B, d):
        with pytest.raises(ParameterError, match=f"B={B} is not a power of 2"):
            bucket_side(B, d)

    def test_params_read_b_from_it(self):
        p = RecoveryParams.derive(64, 2, 8).main
        assert p.b == bucket_side(p.B, 2) == 32


def test_log4_is_floored_at_four_points():
    assert _log4(2) == _log4(4) == 16.0
    for N in (8, 1024, 2**20, 2**40):
        assert _log4(N) == math.log2(N) ** 4


class TestBucketCountCap:
    def test_warns_with_requested_and_capped_side(self):
        with pytest.warns(RuntimeWarning, match=r"b=4096 .*capped at b=8 \(B=8\)"):
            assert location_bucket_count(16, 1, 100, 1.0, Tunables()) == 8
        # 8*8 / (0.1 * 0.25^2) = 10240 buckets need b = 16384 > 512.
        with pytest.warns(RuntimeWarning, match=r"b=16384 .*capped at b=512 \(B=512\)"):
            assert estimation_bucket_count(1024, 1, 8, 0.1, Tunables()) == 512
        with pytest.warns(RuntimeWarning, match=r"b=128 .*capped at b=8 \(B=64\)"):
            assert location_bucket_count(16, 2, 50, 1.0, Tunables()) == 64

    def test_silent_below_and_at_the_cap(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert location_bucket_count(1024, 1, 5, 1.0, Tunables()) == 256
            # 8*16/0.25 = 512 = n/2 exactly: met, not clamped.
            assert location_bucket_count(1024, 1, 16, 1.0, Tunables()) == 512
            assert estimation_bucket_count(2**16, 1, 4, 1.0, Tunables()) == 512
            # 8*8 / 0.25^2 = 1024 = (n/2)^2 exactly on the 64^2 grid.
            assert location_bucket_count(64, 2, 8, 1.0, Tunables()) == 1024
            # Every bucket count of this plan fits its grid.
            RecoveryParams.derive(2**16, 1, 4)

    def test_plan_warns_once_naming_the_capped_stages(self):
        with pytest.warns(RuntimeWarning) as record:
            plan = RecoveryParams.derive(64, 2, 8)
        assert plan.main.B == 1024
        (warning,) = record
        message = str(warning.message)
        # The main stage's location buckets meet their target at the cap;
        # its estimation buckets and the constant-SNR stage's do not.
        assert "main location" not in message
        assert "main estimation: bucket side b=256" in message
        assert "const_snr location" in message


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
    assert t.alpha == 0.25
    assert t.bucket_scale == 8.0
    assert t.vote_fraction == pytest.approx(3 / 5)
    assert t.ratio_tolerance == pytest.approx(1 / 3)
    assert math.isclose(t.l1_threshold_frac, 1e-3)
