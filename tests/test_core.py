"""Grid arithmetic, sparse approximations, and parameter derivation."""

import dataclasses
import math
import re
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

from oracles import main_stage


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

    @staticmethod
    def plan(n: int) -> StagePlan:
        return StagePlan(n=n, d=1, k=1, F=2, B=2, r_max=1, c_max=1, B_est=2, reps=1)

    def test_every_ladder_base_is_two_or_four(self):
        # The location vote's sign tests exist for bases 2 and 4 only.
        for e in range(2, 63):
            n = 2**e
            assert digit_base(n) in (2, 4)
            bases = self.plan(n).group_bases
            assert set(bases) <= {2, 4}
            assert math.prod(bases) == n

    def test_plan_rejects_a_ladder_of_another_base(self):
        # log2 log2 2^64 = 6, so the digit base is 2^3.
        assert digit_base(2**64) == 8
        with pytest.raises(ParameterError, match="bases 2 and 4"):
            self.plan(2**64)


class TestRecoveryParams:
    def test_derived_repetition_counts(self):
        p = RecoveryParams.derive(1024, 1, 5).main
        assert (p.r_max, p.c_max, p.delta) == (7, 14, 2)
        p = RecoveryParams.derive(2**16, 1, 8).main
        assert (p.r_max, p.c_max, p.delta) == (8, 16, 4)
        p = RecoveryParams.derive(64, 2, 10).main
        assert (p.r_max, p.c_max, p.delta) == (8, 15, 2)

    def test_l1_round_count_is_derived_from_the_grid(self):
        # ceil(inner_iters_coeff * log2 log2 N): a property of the stage's
        # grid and tunables, not a stored field a plan could contradict.
        assert "rounds" not in {f.name for f in dataclasses.fields(StagePlan)}
        for n, d, rounds in ((1024, 1, 14), (2**16, 1, 16), (64, 2, 15)):
            plan = RecoveryParams.derive(n, d, 2)
            assert plan.main.rounds == plan.inf_norm.rounds == rounds
        tun = Tunables(inner_iters_coeff=1.0)
        assert RecoveryParams.derive(2**16, 1, 2, tunables=tun).main.rounds == 4

    @pytest.mark.parametrize("mu", [0.0, 0.5])
    @pytest.mark.parametrize("r_star,T", [(2.0, 1), (1e5, 2), (1e9, 3)])
    def test_schedule_follows_the_outer_loop_law(self, r_star, T, mu):
        # With L = log2(1024)^4 = 10^4, T = ceil(ln r_star / ln L) is 1, 2
        # and 3; the schedule gives each round t < T its two targets.
        plan = RecoveryParams.derive(1024, 1, 4, mu=mu, r_star=r_star)
        tun, scale, L = plan.main.tunables, 3.0, 10.0**4
        mu_eff = max(mu, tun.mu_floor_rel * scale)
        assert plan.T == T
        assert plan.schedule(scale) == (
            mu_eff,
            r_star * mu if mu > 0.0 else math.inf,
            tun.zero_floor_rel * scale,
            [4.0 * mu_eff * L ** (T - t) for t in range(T)],
            [L * (4.0 * mu_eff * L ** (T - t - 1) + 20.0 * mu_eff) for t in range(T)],
        )

    def test_bucket_count_rounds_up_to_a_power_of_two(self):
        assert location_bucket_count(1024, 1, 5, 1.0, Tunables())[0] == 256
        assert location_bucket_count(1024, 1, 4, 1.0, Tunables())[0] == 128
        # the per-axis side is capped at n/2
        assert location_bucket_count(16, 1, 100, 1.0, Tunables())[0] == 8

    def test_bucket_count_meets_the_target_when_uncapped(self):
        for k in (1, 3, 8, 17):
            for d in (1, 2):
                B, _ = location_bucket_count(4096, d, k, 1.0, Tunables())
                assert B >= 8.0 * k / 0.25**d
                b = round(B ** (1 / d))
                assert b**d == B and b & (b - 1) == 0

    def test_validation_errors(self):
        with pytest.raises(ParameterError):
            RecoveryParams.derive(100, 1, 5)
        with pytest.raises(ParameterError):
            main_stage(64, 2, 5, F=3)
        with pytest.raises(ParameterError):
            main_stage(64, 1, 32, B=16)
        with pytest.raises(ParameterError):
            RecoveryParams.derive(64, 1, 5, tunables=Tunables(alpha=1.5))

    @pytest.mark.parametrize("name", ["inf_norm", "const_snr"])
    def test_stages_share_main_grid_and_tunables(self, name):
        # Checked when the plan is built: a stage of another grid would
        # raise only once its acquisition ran, and one with other tunables
        # would run silently with them.
        plan = RecoveryParams.derive(64, 2, 8)
        other_grid = getattr(RecoveryParams.derive(32, 2, 8), name)
        other_tunables = dataclasses.replace(
            getattr(plan, name), tunables=Tunables(bucket_scale=3.0)
        )
        for stage in (other_grid, other_tunables):
            with pytest.raises(ParameterError, match=f"{name} stage differs from main"):
                dataclasses.replace(plan, **{name: stage})
        assert dataclasses.replace(plan, **{name: getattr(plan, name)}) == plan

    def test_negative_seed_rejected(self):
        # numpy's generators take only non-negative seeds; the plan must
        # refuse one before any read, not hand it on to default_rng.
        with pytest.raises(ParameterError, match="seed must be non-negative"):
            RecoveryParams.derive(256, 1, 2, seed=-1)

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
            RecoveryParams.derive(64, 1, 2, **{target: value})

    def test_more_buckets_per_axis_than_grid_points_rejected(self):
        with pytest.raises(ParameterError, match="16 buckets per axis, more than n=8"):
            StagePlan(
                n=8, d=1, k=1, F=2, B=16, r_max=3, c_max=8, B_est=4, reps=1,
            )
        with pytest.raises(ParameterError, match="8 buckets per axis, more than n=4"):
            main_stage(4, 2, 1, B=64)
        main_stage(4, 2, 1, B=16)

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


def test_log4_is_floored_at_four_points():
    assert _log4(2) == _log4(4) == 16.0
    for N in (8, 1024, 2**20, 2**40):
        assert _log4(N) == math.log2(N) ** 4


class TestBucketCountCap:
    def test_note_names_requested_and_capped_side(self):
        B, note = location_bucket_count(16, 1, 100, 1.0, Tunables())
        assert B == 8 and re.search(r"b=4096 .*capped at b=8 \(B=8\)", note)
        # 8*8 / (0.1 * 0.25^2) = 10240 buckets need b = 16384 > 512.
        B, note = estimation_bucket_count(1024, 1, 8, 0.1, Tunables())
        assert B == 512 and re.search(r"b=16384 .*capped at b=512 \(B=512\)", note)
        B, note = location_bucket_count(16, 2, 50, 1.0, Tunables())
        assert B == 64 and re.search(r"b=128 .*capped at b=8 \(B=64\)", note)

    def test_silent_below_and_at_the_cap(self):
        assert location_bucket_count(1024, 1, 5, 1.0, Tunables()) == (256, None)
        # 8*16/0.25 = 512 = n/2 exactly: met, not clamped.
        assert location_bucket_count(1024, 1, 16, 1.0, Tunables()) == (512, None)
        assert estimation_bucket_count(2**16, 1, 4, 1.0, Tunables()) == (512, None)
        # 8*8 / 0.25^2 = 1024 = (n/2)^2 exactly on the 64^2 grid.
        assert location_bucket_count(64, 2, 8, 1.0, Tunables()) == (1024, None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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
        assert "main location: bucket side" not in message
        assert "main estimation: bucket side b=256" in message
        assert "const_snr location" in message

    @pytest.mark.parametrize(
        "n,d,k,stages",
        [
            (64, 2, 8, ["main", "inf_norm", "const_snr"]),
            (16, 3, 8, ["main", "inf_norm", "const_snr"]),
            (2**16, 1, 32, ["const_snr"]),
        ],
        ids=["gauss-2d-64", "exact-3d-16", "exact-1d-65536"],
    )
    def test_plan_names_every_pass_that_reads_the_whole_grid(self, n, d, k, stages):
        # F*b + 1 >= n: the filter's support spans the grid, so one
        # location or estimation pass reads all N samples.
        with pytest.warns(RuntimeWarning) as record:
            plan = RecoveryParams.derive(n, d, k)
        (warning,) = record
        message = str(warning.message)
        kinds = ("location", "estimation")
        named = [
            f"{stage} {kind}"
            for stage in ("main", "inf_norm", "const_snr")
            for kind in kinds
            if f"{stage} {kind}: F*b+1 >= n, so each pass reads all {n**d} samples" in message
        ]
        assert named == [f"{stage} {kind}" for stage in stages for kind in kinds]
        for stage in stages:
            assert getattr(plan, stage).pass_sides == {"location": n, "estimation": n}

    def test_plan_warning_shows_once_per_calling_line(self):
        # Under the default filter a warning shows once per message and
        # line; deriving must not reset that registry.
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("default")
            for _ in range(3):
                RecoveryParams.derive(64, 2, 8)
        assert len(record) == 1


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
