"""Outer recovery loops, from single stages to the full pipeline.

Noiseless instances must come back exact through every stage, because all
measurement and subtraction steps are exact up to float arithmetic there.
Noisy instances get contract-level checks: geometric head-mass reduction,
sup-norm capping, and residual energy within a constant factor of the tail.
"""
import hashlib
import json
import math
import pathlib
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from sparsefft import (
    DenseSignal,
    DivergenceError,
    ParameterError,
    RecoveryParams,
    SparseApprox,
    Tunables,
)
from sparsefft import core, dense_dft, hashing_measurements, semi_equispaced
from sparsefft import recovery as recovery_module
from sparsefft.harness import SIGNAL_MODELS, ExperimentSpec, generate_signal, run_experiment
from sparsefft.hashing_measurements import acquire_measurements, update_residual_measurements
from sparsefft.location import decode_hashings
from sparsefft.permutation import SpectrumPermutation
from sparsefft.recovery import (
    RunStats,
    recover_at_constant_snr,
    reduce_inf_norm,
    reduce_l1_norm,
    sparse_fft,
    sparse_fft_with_stats,
)

from oracles import dense_time, random_sparse_time


def lib_freq(values_time, n, d):
    vals = np.asarray(values_time, dtype=np.complex128).reshape((n,) * d)
    return DenseSignal(n=n, d=d, values=np.fft.fftn(vals, norm="ortho"), domain="frequency")


def noisy_instance(n, d, k, rng, tail_rel=0.01, min_mag=1.0):
    """Spikes plus a dense gaussian tail with ||tail||_2 = tail_rel * min spike."""
    x = random_sparse_time(n, d, k, rng, min_mag=min_mag)
    floor = min(abs(v) for v in x.entries.values())
    tail = rng.normal(size=(n,) * d) + 1j * rng.normal(size=(n,) * d)
    tail *= tail_rel * floor / np.linalg.norm(tail)
    return x, dense_time(x).values + tail, tail


def head_errors(x: SparseApprox, chi: SparseApprox) -> list[float]:
    """|x_f - chi_f| for every f in the support of x."""
    have = chi.entries
    return [abs(v - have.get(f, 0j)) for f, v in x.entries.items()]


def head_l1(x: SparseApprox, chi: SparseApprox) -> float:
    return sum(head_errors(x, chi))


def inf_stage(n, d, k=1):
    """The inf-norm stage of the plan for [n]^d, sized for k survivors."""
    tun = Tunables()
    return replace(
        RecoveryParams.derive(n, d, 1).inf_norm,
        k=k,
        B=core.location_bucket_count(n, d, k, 1.0, tun)[0],
        B_est=core.estimation_bucket_count(n, d, k, 1.0, tun)[0],
    )


def snr_stage(n, d, k, epsilon):
    """The constant-SNR stage that sizes its buckets for k terms (the plan
    for k / 2, since the pipeline hands that stage 2k)."""
    return RecoveryParams.derive(n, d, k // 2, epsilon=epsilon).const_snr


class TestReduceL1:
    def test_noiseless_head_removed_completely(self, rng):
        n, d, k = 1024, 1, 5
        params = RecoveryParams.derive(n, d, k).main
        x = random_sparse_time(n, d, k, rng)
        mset = acquire_measurements(lib_freq(dense_time(x).values, n, d), params, rng)
        chi = reduce_l1_norm(mset, 2.0 * x.norm_inf(), 0.0, rng=rng)
        assert max(head_errors(x, chi)) < 1e-6
        assert chi.support() <= x.support()
        # The tables now hold the residual, which should be near zero.
        assert np.abs(mset.buckets).max() < 1e-6 * mset.initial_scale

    def test_threshold_schedule(self, monkeypatch):
        # Heads l1_threshold_frac * nu * 2^-t of 4, 2, 1, 1/2, ... times
        # ||x||_inf = 3, and mu chosen so that head 6 equals the floor
        # head_bias * mu. Under x_inf = 1.5 ||x||_inf rounds 0 and 1 are
        # idle; round 2 keeps nothing and round 3 the three large spikes;
        # rounds 4 to 6 find the small one below their thresholds, and
        # round 6, the first with head <= floor, ends the loop without it.
        n, d = 1024, 1
        phases = np.exp(2j * np.pi * np.array([0.1, 0.4, 0.7, 0.9]))
        values = np.array([3.0, 2.5, 2.2, 0.33]) * phases
        x = SparseApprox.from_flat(n, d, [17, 300, 641, 900], values)
        params = RecoveryParams.derive(n, d, len(x)).main
        tun = params.tunables
        top = x.norm_inf()
        nu = 4.0 * top / tun.l1_threshold_frac
        mu = tun.l1_threshold_frac * nu * 0.5**6 / tun.head_bias
        rng = np.random.default_rng(6)
        mset = acquire_measurements(lib_freq(dense_time(x).values, n, d), params, rng)
        assert mu > tun.mu_floor_rel * mset.initial_scale  # so mu_eff = mu
        thresholds = record_thresholds(monkeypatch)
        chi = reduce_l1_norm(mset, nu, mu, rng=rng, x_inf=1.5 * top)
        floor = tun.head_bias * mu
        assert thresholds == [
            tun.l1_threshold_frac * nu * 0.5**t + floor for t in range(2, 7)
        ]
        assert len(thresholds) <= params.rounds
        assert chi.support() == {17, 300, 641}

    def test_zero_signal_stays_empty(self, rng):
        n, d = 256, 1
        params = RecoveryParams.derive(n, d, 2).main
        mset = acquire_measurements(DenseSignal.zeros(n, d, "frequency"), params, rng)
        chi = reduce_l1_norm(mset, 1.0, 0.0, rng=rng)
        assert len(chi) == 0

    def test_noisy_head_mass_drops_geometrically(self, rng):
        n, d, k = 4096, 1, 8
        params = RecoveryParams.derive(n, d, k).main
        wins, trials = 0, 10
        for _ in range(trials):
            x, xt, _ = noisy_instance(n, d, k, rng, tail_rel=0.05)
            mset = acquire_measurements(lib_freq(xt, n, d), params, rng)
            before = head_l1(x, SparseApprox.empty(n, d))
            chi = reduce_l1_norm(mset, 2.0 * x.norm_inf(), 0.0, rng=rng)
            wins += head_l1(x, chi) <= before / 4.0
        assert wins >= trials - 1

    def test_rng_is_required(self, rng):
        # The pipeline seeds its acquisition stream from its seed argument
        # (params.seed is never read). Callers pass that same seed as
        # params.seed, so a fallback seeded from params.seed would replay the
        # acquisition stream for the estimation permutations.
        n, d = 256, 1
        params = RecoveryParams.derive(n, d, 2).main
        mset = acquire_measurements(DenseSignal.zeros(n, d, "frequency"), params, rng)
        with pytest.raises(TypeError):
            reduce_l1_norm(mset, 1.0, 0.0)

    def test_counter_tracks_estimation_samples(self, rng):
        n, d, k = 1024, 1, 3
        params = RecoveryParams.derive(n, d, k).main
        x = random_sparse_time(n, d, k, rng)
        mset = acquire_measurements(lib_freq(dense_time(x).values, n, d), params, rng)
        base = mset.sample_counter
        stats = RunStats()
        reduce_l1_norm(mset, 2.0 * x.norm_inf(), 0.0, rng=rng, stats=stats)
        assert stats.samples_estimation > 0
        assert mset.sample_counter == base + stats.samples_estimation


def count_decodes(monkeypatch) -> list:
    """Record (measurement set, hashing, table digest) for each hashing
    decoded."""
    calls = []
    real = recovery_module.decode_hashings

    def counting(mset):
        for r in range(len(mset.hashings)):
            digest = hashlib.sha256(mset.buckets[r].tobytes()).hexdigest()
            calls.append((id(mset), r, digest))
        return real(mset)

    monkeypatch.setattr(recovery_module, "decode_hashings", counting)
    return calls


class TestLocationReuse:
    """Decoding reads the bucket tables alone, so within one stage call a
    hashing is decoded again only after an increment changed its table."""

    @pytest.mark.parametrize("tail_rel", [0.0, 0.05])
    def test_l1_loop_decodes_each_table_once(self, tail_rel, monkeypatch, rng):
        n, d, k = 1024, 1, 5
        params = RecoveryParams.derive(n, d, k).main
        x, xt, _ = noisy_instance(n, d, k, rng, tail_rel=tail_rel)
        mset = acquire_measurements(lib_freq(xt, n, d), params, rng)
        calls = count_decodes(monkeypatch)
        reduce_l1_norm(mset, 2.0 * x.norm_inf(), 0.0, rng=rng)
        assert len(calls) >= params.r_max
        assert len(set(calls)) == len(calls)


class TestStreamedSweep:
    """A set acquired with chi is decoded while it is read, one ladder shift
    at a time; it must find what the stored set finds after the same chi
    is subtracted, and never hold a whole table."""

    @pytest.mark.parametrize(
        "n,d,k,stage", [(1024, 1, 5, "inf_norm"), (64, 2, 4, "const_snr"), (16, 3, 3, "inf_norm")]
    )
    def test_streamed_path_equals_stored_path(self, n, d, k, stage, rng):
        x, xt, _ = noisy_instance(n, d, k, rng, tail_rel=0.05)
        xhat = lib_freq(xt, n, d)
        chi = SparseApprox.from_flat(n, d, x.flat[:2], 0.9 * x.values[:2])
        plan = getattr(RecoveryParams.derive(n, d, k), stage)
        stored_rng, streamed_rng = np.random.default_rng(11), np.random.default_rng(11)
        stored = acquire_measurements(xhat, plan, stored_rng)
        scale = stored.initial_scale
        update_residual_measurements(stored, chi)
        want = decode_hashings(stored)
        streamed = acquire_measurements(xhat, plan, streamed_rng, chi=chi)
        assert sum(found.size for found in want) > 0
        assert len(streamed.found) == len(want) == plan.r_max
        assert all(np.array_equal(a, b) for a, b in zip(streamed.found, want))
        assert streamed.initial_scale == scale
        assert streamed.sample_counter == stored.sample_counter
        assert streamed_rng.bit_generator.state == stored_rng.bit_generator.state
        assert streamed.chi is chi
        assert np.array_equal(streamed.buckets, stored.buckets[:, :, :1])

    def test_streamed_set_cannot_be_updated(self, rng):
        n, d = 256, 1
        xhat = lib_freq(rng.normal(size=n), n, d)
        chi = SparseApprox.empty(n, d)
        mset = acquire_measurements(xhat, inf_stage(n, d), rng, chi=chi)
        with pytest.raises(ParameterError, match="streamed"):
            update_residual_measurements(mset, SparseApprox.from_flat(n, d, [3], [1.0]))

    def test_sweep_peak_stays_below_its_stored_table(self, rng):
        # B = n/2 = 8192 buckets: the constant-SNR stage's stored table
        # would be r_max * c_max * S * B * 16 bytes (31.5 MB here).
        n, d, k = 2**14, 1, 8
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            stage = RecoveryParams.derive(n, d, k).const_snr
        assert stage.B == n // 2
        x = random_sparse_time(n, d, 2 * k, rng)
        xhat = lib_freq(dense_time(x).values, n, d)
        chi = SparseApprox.from_flat(n, d, x.flat[:k], x.values[:k])
        recover_at_constant_snr(xhat, chi, stage, np.random.default_rng(1))  # warm the caches
        tracemalloc.start()
        try:
            recover_at_constant_snr(xhat, chi, stage, np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table = stage.r_max * stage.c_max * len(stage.shifts) * stage.B * 16
        # The set's reference and current-shift rows have a memory mapping
        # of their own, which tracemalloc does not see.
        rows = (stage.r_max + 1) * stage.c_max * stage.B * 16
        assert peak + rows < table

    def test_streamed_chi_peak_stays_below_one_gain_table(self, rng):
        # A noisy input keeps most buckets live through the first digits,
        # and |chi| = 256 against B = 8192 buckets: one (|chi|, B) float64
        # table of chi's filter gains would take 16 MB. chi is taken out in
        # blocks of bucket columns, so no such table is held.
        n, d, k = 2**14, 1, 8
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            stage = RecoveryParams.derive(n, d, k).const_snr
        assert (stage.B, stage.c_max) == (n // 2, 16)
        _, xt, _ = noisy_instance(n, d, k, rng, tail_rel=0.3)
        xhat = lib_freq(xt, n, d)
        flat = rng.choice(n, size=256, replace=False)
        chi = SparseApprox.from_flat(n, d, flat, rng.normal(size=256) + 1j * rng.normal(size=256))
        streamed = acquire_measurements(xhat, stage, np.random.default_rng(1), chi=chi)
        assert sum(found.size for found in streamed.found) > 0  # and warm the caches
        tracemalloc.start()
        try:
            acquire_measurements(xhat, stage, np.random.default_rng(1), chi=chi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(chi) * stage.B * np.dtype(np.float64).itemsize


class TestReduceInfNorm:
    def test_lone_spike_cleared_to_float_precision(self, rng):
        n, d = 1024, 1
        for _ in range(5):
            x = random_sparse_time(n, d, 1, rng, min_mag=10.0)
            increment = reduce_inf_norm(
                lib_freq(dense_time(x).values, n, d),
                SparseApprox.empty(n, d),
                inf_stage(n, d),
                1.0,
                0.0,
                rng,
            )
            residual = x + (-increment)
            assert residual.norm_inf() < 1e-6 * x.norm_inf()
            assert increment.support() <= x.support()

    def test_spikes_pushed_under_the_threshold_floor(self, rng):
        # Simultaneous spikes leak into each other's estimates, so the exit
        # state is the documented cap 5 * (nu + mu), not exact zero.
        n, d = 1024, 1
        nu = 1.0
        for _ in range(3):
            x = random_sparse_time(n, d, 2, rng, min_mag=10.0)
            increment = reduce_inf_norm(
                lib_freq(dense_time(x).values, n, d),
                SparseApprox.empty(n, d),
                inf_stage(n, d, 2),
                nu,
                0.0,
                rng,
            )
            residual = x + (-increment)
            assert residual.norm_inf() <= 5.0 * nu
            assert increment.support() <= x.support()

    def test_residual_capped_by_threshold_scale(self, rng):
        n, d = 1024, 1
        nu, mu = 1.0, 0.05
        x, xt, _ = noisy_instance(n, d, 3, rng, tail_rel=0.01, min_mag=8.0)
        stage = inf_stage(n, d, 3)
        increment = reduce_inf_norm(
            lib_freq(xt, n, d), SparseApprox.empty(n, d), stage, nu, mu, rng
        )
        residual_head = max(head_errors(x, increment))
        assert residual_head <= 8.0 * (nu + mu)

    def test_requires_positive_budget(self):
        # The stage's budget k_tilde is its record's k, checked when the
        # plan is built.
        with pytest.raises(ParameterError, match="k >= 1"):
            replace(inf_stage(256, 1), k=0)


class TestConstantSnr:
    def test_zero_signal_returns_empty(self, rng):
        out = recover_at_constant_snr(
            DenseSignal.zeros(256, 1, "frequency"),
            SparseApprox.empty(256, 1),
            snr_stage(256, 1, 2, 0.5),
            rng,
        )
        assert len(out) == 0

    def test_noiseless_support_and_values(self, rng):
        # One hashing and one estimation pass: support comes back whole
        # unless buckets collide, and values carry only inter-spike leakage
        # (measured around 1e-4 here), not full float precision.
        n, d, k = 1024, 1, 8
        exact = 0
        trials = 10
        for _ in range(trials):
            x = random_sparse_time(n, d, k, rng)
            out = recover_at_constant_snr(
                lib_freq(dense_time(x).values, n, d),
                SparseApprox.empty(n, d),
                snr_stage(n, d, k, 0.5),
                rng,
            )
            exact += out.support() == x.support()
            got = out.entries
            for f, v in x.entries.items():
                if f in got:
                    assert abs(v - got[f]) < 0.02
        assert exact >= 8

    def test_output_size_capped_at_four_k(self, rng):
        n, d, k = 1024, 1, 2
        x = random_sparse_time(n, d, 12, rng)
        out = recover_at_constant_snr(
            lib_freq(dense_time(x).values, n, d),
            SparseApprox.empty(n, d),
            snr_stage(n, d, k, 0.5),
            rng,
        )
        assert len(out) <= 4 * k

    def test_residual_energy_near_tail_energy(self, rng):
        n, d, k = 1024, 1, 8
        eps = 0.2
        wins, trials = 0, 10
        for _ in range(trials):
            x, xt, tail = noisy_instance(n, d, k, rng, tail_rel=0.2, min_mag=2.0)
            out = recover_at_constant_snr(
                lib_freq(xt, n, d), SparseApprox.empty(n, d), snr_stage(n, d, k, eps), rng
            )
            diff = xt - out.to_dense("time").values
            tail_energy = float(np.sum(np.abs(tail) ** 2))
            wins += float(np.sum(np.abs(diff) ** 2)) <= (1 + 10 * eps) * tail_energy
        assert wins >= 8


class TestFullPipeline:
    def test_exact_sparse_one_dimensional(self, rng):
        n, d, k = 1024, 1, 10
        x = random_sparse_time(n, d, k, rng)
        out, stats = sparse_fft_with_stats(lib_freq(dense_time(x).values, n, d), k, seed=3)
        assert out.support() == x.support()
        err = max(head_errors(x, out))
        assert err < 1e-6 * x.norm_inf()
        assert stats.samples_location > 0
        assert stats.total_samples == (
            stats.samples_location
            + stats.samples_estimation
            + stats.samples_infnorm
            + stats.samples_constsnr
        )

    def test_exact_sparse_two_dimensional(self, rng):
        n, d, k = 64, 2, 6
        x = random_sparse_time(n, d, k, rng)
        out = sparse_fft(lib_freq(dense_time(x).values, n, d), k, seed=5)
        assert out.support() == x.support()
        assert max(head_errors(x, out)) < 1e-6

    @pytest.mark.parametrize("n,d,k", [(1024, 1, 4), (8, 3, 3)])
    def test_recovery_makes_no_dense_transform(self, n, d, k, monkeypatch, rng):
        # chi is subtracted in bucket space, so neither the semi-equispaced
        # box transform nor a full-grid FFT may run. Every module-level
        # binding is replaced, including names imported into other modules.
        x = random_sparse_time(n, d, k, rng)
        values = np.fft.fftn(dense_time(x).values, norm="ortho")
        xhat = DenseSignal(n=n, d=d, values=values, domain="frequency")

        def forbidden(*args, **kwargs):
            raise AssertionError("full-grid transform on the recovery path")

        banned = (
            semi_equispaced.shifted_semi_equispaced,
            dense_dft.forward_dft,
            dense_dft.inverse_dft,
        )
        for name, module in list(sys.modules.items()):
            if name == "sparsefft" or name.startswith("sparsefft."):
                for attr, value in list(vars(module).items()):
                    if any(value is fn for fn in banned):
                        monkeypatch.setattr(module, attr, forbidden)
        out, _ = sparse_fft_with_stats(xhat, k, seed=3)
        assert out.support() == x.support()

    @pytest.mark.parametrize("n,d,k", [(1024, 1, 4), (8, 3, 3)])
    def test_permutation_shifts_are_read_only_int64_vectors(self, n, d, k, monkeypatch, rng):
        # Candidates, probes, shifts and chi are flat int64 arrays on the
        # recovery path, and each hashing's shift q is a (d,) int64 vector.
        x = random_sparse_time(n, d, k, rng)
        values = np.fft.fftn(dense_time(x).values, norm="ortho")
        xhat = DenseSignal(n=n, d=d, values=values, domain="frequency")
        built = []

        def recording(self, init=SpectrumPermutation.__post_init__):
            init(self)
            built.append(self)

        monkeypatch.setattr(SpectrumPermutation, "__post_init__", recording)
        sparse_fft_with_stats(xhat, k, seed=3)
        assert built
        for perm in built:
            assert perm.q.dtype == np.int64 and perm.q.shape == (d,)
            assert not perm.q.flags.writeable

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_two_point_grid_is_a_parameter_error(self):
        # log2(N)^4 is 1 at N = 2, so a round count computed from it divided
        # by log(1) = 0; the shared floor at log2(4)^4 keeps the error the
        # digit-base check that every d already reaches.
        with pytest.raises(ParameterError, match="digit base 2"):
            sparse_fft(DenseSignal(2, 1, np.ones(2), "frequency"), 1)
        with pytest.raises(ParameterError, match="digit base 2"):
            sparse_fft(DenseSignal(2, 2, np.ones(4), "frequency"), 1)

    def test_zero_signal_gives_empty_output(self):
        out = sparse_fft(DenseSignal.zeros(1024, 1, "frequency"), 4, seed=1)
        assert len(out) == 0

    def test_seeded_runs_bit_identical(self, rng):
        n, d, k = 1024, 1, 6
        x, xt, _ = noisy_instance(n, d, k, rng, tail_rel=0.05)
        xhat = lib_freq(xt, n, d)
        out1, stats1 = sparse_fft_with_stats(xhat, k, seed=11)
        out2, stats2 = sparse_fft_with_stats(xhat, k, seed=11)
        assert out1.entries == out2.entries
        assert stats1 == stats2

    def test_acquisition_cost_independent_of_outer_rounds(self, rng):
        n, d, k = 1024, 1, 4
        x = random_sparse_time(n, d, k, rng)
        xhat = lib_freq(dense_time(x).values, n, d)
        counts = []
        for T in (1, 4):
            params = replace(RecoveryParams.derive(n, d, k, seed=7), T=T)
            _, stats = sparse_fft_with_stats(xhat, k, seed=7, params=params)
            counts.append(stats.samples_location)
        assert counts[0] == counts[1]

    def test_noisy_l2_error_within_constant_of_tail(self, rng):
        n, d, k = 1024, 1, 8
        eps = 0.5
        wins, trials = 0, 5
        for _ in range(trials):
            x, xt, tail = noisy_instance(n, d, k, rng, tail_rel=0.1, min_mag=2.0)
            out = sparse_fft(lib_freq(xt, n, d), k, epsilon=eps, seed=13)
            diff = xt - out.to_dense("time").values
            tail_energy = float(np.sum(np.abs(tail) ** 2))
            wins += float(np.sum(np.abs(diff) ** 2)) <= (1 + 10 * eps) * tail_energy
        assert wins >= 4

    def test_frequency_domain_required(self, rng):
        x = random_sparse_time(256, 1, 2, rng)
        with pytest.raises(ParameterError):
            sparse_fft(dense_time(x), 2)

    def test_params_must_match_k(self, rng):
        # Every stage must see one k: params.k sizes the l1 stage while the
        # k argument sizes the later ones.
        n, d, k = 256, 1, 2
        xhat = lib_freq(dense_time(random_sparse_time(n, d, k, rng)).values, n, d)
        params = RecoveryParams.derive(n, d, k)
        with pytest.raises(ParameterError, match="k"):
            sparse_fft_with_stats(xhat, k + 1, params=params)
        sparse_fft_with_stats(xhat, k, params=params)

    @pytest.mark.parametrize("entry", [sparse_fft, sparse_fft_with_stats])
    def test_tunables_are_not_a_keyword(self, entry, rng):
        # Tunables go in through the plan only, so no run can pair a plan
        # with tunables it was not derived from.
        xhat = lib_freq(dense_time(random_sparse_time(256, 1, 2, rng)).values, 256, 1)
        with pytest.raises(TypeError, match="tunables"):
            entry(xhat, 2, tunables=Tunables())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_run_follows_the_tunables_of_its_params(self, rng):
        # Twice the location repetitions double the hashings, and so the
        # acquisition reads, of the main set.
        n, d, k = 1024, 1, 4
        xhat = lib_freq(dense_time(random_sparse_time(n, d, k, rng)).values, n, d)
        default = RecoveryParams.derive(n, d, k)
        wider = RecoveryParams.derive(n, d, k, tunables=Tunables(location_reps_coeff=2.0))
        assert wider.main.r_max > default.main.r_max
        for params in (default, wider):
            _, stats = sparse_fft_with_stats(xhat, k, params=params)
            assert stats.samples_location == params.main.acquisition_reads

    def test_replaced_filter_order_reaches_every_pass(self, monkeypatch, rng):
        # F = 2d + 2 on the main stage widens its location and its
        # estimation passes alike to F*b + 1 samples, both below n here.
        n, d, k = 2**16, 1, 4
        xhat = lib_freq(dense_time(random_sparse_time(n, d, k, rng)).values, n, d)
        plan = RecoveryParams.derive(n, d, k)
        main = replace(plan.main, F=2 * d + 2)
        assert (main.B, main.B_est) == (128, 2048)
        assert main.pass_sides == {"location": 4 * 128 + 1, "estimation": 4 * 2048 + 1}
        assert main.estimation_reads == main.reps * (4 * 2048 + 1)
        batches = []
        real = recovery_module.estimate_values
        monkeypatch.setattr(
            recovery_module,
            "estimate_values",
            lambda *args, **kwargs: batches.append(real(*args, **kwargs)) or batches[-1],
        )
        _, stats = sparse_fft_with_stats(xhat, k, params=replace(plan, main=main))
        assert stats.samples_location == main.acquisition_reads
        # Exact input: the certificate holds after the l1 loop, so every
        # estimation call is the main stage's.
        assert stats.samples_infnorm == stats.samples_constsnr == 0
        assert batches and all(batch.samples == main.estimation_reads for batch in batches)
        assert stats.samples_estimation == len(batches) * main.estimation_reads

    @pytest.mark.parametrize(
        "target,value", [("epsilon", 0.5), ("r_star", 4.0), ("mu", 0.1), ("seed", 1)]
    )
    def test_params_must_match_the_targets(self, target, value, rng):
        # A plan derived for other targets used to run silently with the
        # arguments' targets and the plan's geometry.
        n, d, k = 256, 1, 2
        xhat = lib_freq(dense_time(random_sparse_time(n, d, k, rng)).values, n, d)
        params = RecoveryParams.derive(n, d, k, **{target: value})
        with pytest.raises(ParameterError, match=f"params.{target} = {value} does not"):
            sparse_fft_with_stats(xhat, k, params=params)
        sparse_fft_with_stats(xhat, k, params=params, **{target: value})

    def test_plan_warns_before_the_run_and_the_run_derives_nothing(
        self, monkeypatch, rng
    ):
        # Every bucket count is capped on 8^3; the plan warns once, when it
        # is derived, and no stage sizes anything during the run.
        n, d, k = 8, 3, 2
        xhat = lib_freq(dense_time(random_sparse_time(n, d, k, rng)).values, n, d)
        with pytest.warns(RuntimeWarning, match="capped"):
            params = RecoveryParams.derive(n, d, k)

        def forbidden(*args, **kwargs):
            raise AssertionError("stage geometry derived during the run")

        monkeypatch.setattr(core, "capped_bucket_count", forbidden)
        monkeypatch.setattr(RecoveryParams, "derive", forbidden)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sparse_fft_with_stats(xhat, k, params=params)


class TestTargetsChecked:
    """epsilon > 0, mu >= 0 and r_star >= 1, all finite, wherever a stage
    takes them; before, some of these crashed deep inside a stage and others
    ran silently."""

    BAD = [
        ({"epsilon": 0.0}, "epsilon must be finite and > 0"),
        ({"epsilon": -0.1}, "epsilon must be finite and > 0"),
        ({"epsilon": float("nan")}, "epsilon must be finite and > 0"),
        ({"mu": -1.0}, "mu must be finite and >= 0"),
        ({"mu": float("nan")}, "mu must be finite and >= 0"),
        ({"r_star": 0.5}, "r_star must be finite and >= 1"),
        ({"r_star": float("inf")}, "r_star must be finite and >= 1"),
    ]

    @pytest.mark.parametrize("n,d", [(256, 1), (16, 2)])
    @pytest.mark.parametrize("with_params", [True, False])
    @pytest.mark.parametrize("bad,message", BAD)
    def test_pipeline_checks_its_own_targets(self, n, d, with_params, bad, message, rng):
        xhat = lib_freq(dense_time(random_sparse_time(n, d, 2, rng)).values, n, d)
        params = RecoveryParams.derive(n, d, 2) if with_params else None
        with pytest.raises(ParameterError, match=message):
            sparse_fft_with_stats(xhat, 2, params=params, **bad)

    @pytest.mark.parametrize(
        "nu,mu,message",
        [
            (float("nan"), 0.0, "nu must be finite and >= 0"),
            (1.0, float("nan"), "mu must be finite and >= 0"),
            (1.0, -5.0, "mu must be finite and >= 0"),
        ],
    )
    def test_l1_stage_checks_nu_and_mu(self, nu, mu, message, rng):
        # A NaN threshold keeps nothing, so the stage used to return an
        # empty approximation without a word.
        params = RecoveryParams.derive(256, 1, 2).main
        mset = acquire_measurements(DenseSignal.zeros(256, 1, "frequency"), params, rng)
        with pytest.raises(ParameterError, match=message):
            reduce_l1_norm(mset, nu, mu, rng=rng)

    def test_constant_snr_stage_checks_epsilon(self):
        # The stage's buckets scale with 1/epsilon; the plan checks epsilon
        # before it sizes them.
        with pytest.raises(ParameterError, match="epsilon must be finite and > 0"):
            RecoveryParams.derive(256, 1, 2, epsilon=0.0)

    @pytest.mark.parametrize(
        "nu,mu,message",
        [
            (-1.0, 0.0, "nu must be finite and >= 0"),
            (float("nan"), 0.0, "nu must be finite and >= 0"),
            (1.0, float("nan"), "mu must be finite and >= 0"),
        ],
    )
    def test_inf_norm_stage_checks_its_targets(self, nu, mu, message, rng):
        xhat = DenseSignal.zeros(256, 1, "frequency")
        stage = inf_stage(256, 1)
        with pytest.raises(ParameterError, match=message):
            reduce_inf_norm(xhat, SparseApprox.empty(256, 1), stage, nu, mu, rng)


PINNED_PATH = pathlib.Path(__file__).parent / "pinned_recovery.json"
PINNED = json.loads(PINNED_PATH.read_text())
PINNED_SEED = 5
PINNED_GRIDS = [(256, 1, 4), (16, 2, 3), (8, 3, 2)]
PINNED_RTOL = 1e-12
# The RunStats fields of a record's "stats" list, in order.
PINNED_STATS_FIELDS = (
    "samples_location",
    "samples_estimation",
    "samples_infnorm",
    "samples_constsnr",
)


def pinned_key(n, d, k, model):
    return f"{n}^{d} k={k} {model}"


def harness_run(spec, seed):
    """The seeded harness-style recovery of spec's signal at seed (its
    input, arguments and seed, as `harness._run_one` makes the call)."""
    x, _, mu = generate_signal(spec, seed)
    xhat = DenseSignal(spec.n, spec.d, np.fft.fftn(x.values, norm="ortho"), "frequency")
    return sparse_fft_with_stats(
        xhat,
        spec.k,
        epsilon=spec.epsilon,
        r_star=spec.effective_r_star(),
        mu=mu,
        seed=seed,
        params=spec.recovery_params(mu, seed),
    )


def pinned_run(n, d, k, model):
    """The seeded harness-style recovery of the pinned record."""
    return harness_run(ExperimentSpec(n=n, d=d, k=k, signal_model=model), PINNED_SEED)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("model", SIGNAL_MODELS)
@pytest.mark.parametrize("n,d,k", PINNED_GRIDS)
def test_seeded_output_matches_pinned_record(n, d, k, model):
    """Seeded harness-style runs reproduce the recorded outputs.

    The ledger (the sample counts of PINNED_STATS_FIELDS) and the support
    order must match exactly, values to 1e-12 relative. A change that
    means to alter seeded outputs re-records pinned_recovery.json with
    record_pinned.py and says so; any other difference is a regression.
    """
    out, stats = pinned_run(n, d, k, model)
    want = PINNED[pinned_key(n, d, k, model)]
    assert [getattr(stats, name) for name in PINNED_STATS_FIELDS] == want["stats"]
    assert out.coords_array().tolist() == want["support"]
    expected = np.array([complex(re, im) for re, im in want["values"]])
    np.testing.assert_allclose(out.values, expected, rtol=PINNED_RTOL, atol=0.0)


def ledger_splits(total, stage, acquisitions, max_calls):
    """The (a, m) with total = a * stage.acquisition_reads + m *
    stage.estimation_reads, for a in acquisitions and 0 <= m <= max_calls."""
    return [
        (a, m)
        for a in acquisitions
        for m in range(max_calls + 1)
        if a * stage.acquisition_reads + m * stage.estimation_reads == total
    ]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("model", SIGNAL_MODELS)
@pytest.mark.parametrize("n,d,k", PINNED_GRIDS)
def test_run_stats_follow_the_plan_ledger(n, d, k, model):
    """The main set is acquired once, and the l1 loop makes a whole number
    of estimation calls, at most `rounds` per outer round. Each sweep
    acquisition makes exactly one estimation call: the inf-norm stage
    acquires at most once per outer round, and the constant-SNR stage
    once, or not at all exactly when the residual certificate held."""
    spec = ExperimentSpec(n=n, d=d, k=k, signal_model=model)
    _, _, mu = generate_signal(spec, PINNED_SEED)
    plan = spec.recovery_params(mu, PINNED_SEED)
    _, stats = pinned_run(n, d, k, model)
    main, inf, snr = plan.main, plan.inf_norm, plan.const_snr
    assert stats.samples_location == main.acquisition_reads
    assert ledger_splits(stats.samples_estimation, main, [0], plan.T * main.rounds)
    inf_sweep = inf.acquisition_reads + inf.estimation_reads
    assert stats.samples_infnorm in [a * inf_sweep for a in range(plan.T + 1)]
    certified = stats.residual_peak_rel <= main.tunables.zero_floor_rel
    snr_sweep = snr.acquisition_reads + snr.estimation_reads
    assert stats.samples_constsnr == (0 if certified else snr_sweep)


def count_acquisitions(monkeypatch) -> list:
    """Record the params of every acquisition the recovery stages make."""
    calls = []
    real = recovery_module.acquire_measurements

    def counting(xhat, params, rng, **kwargs):
        calls.append(params)
        return real(xhat, params, rng, **kwargs)

    monkeypatch.setattr(recovery_module, "acquire_measurements", counting)
    return calls


def record_thresholds(monkeypatch) -> list:
    """Record the threshold of every estimation call the recovery stages
    make."""
    thresholds = []
    real = recovery_module.estimate_values

    def recording(xhat, chi, locations, B, threshold, reps, **kwargs):
        thresholds.append(threshold)
        return real(xhat, chi, locations, B, threshold, reps, **kwargs)

    monkeypatch.setattr(recovery_module, "estimate_values", recording)
    return thresholds


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestOuterRounds:
    """Rounds t >= 1 of the paper's outer loop, which no harness default
    runs: T = ceil(ln r_star / ln log2(N)^4) is 1 up to r_star = 2 * snr =
    log2(N)^4, and 2 at snr 1e5 on 1024 points. A second round reduces the
    same main set again, with no new acquisition, and a round whose
    approximation outgrows divergence_factor times round 0's l1 mass ends
    the run."""

    @staticmethod
    def run(snr, T, seed=0):
        """The harness-style run of 1024 points, k = 4, Gaussian tail at
        snr, under a plan of T outer rounds."""
        spec = ExperimentSpec(n=1024, d=1, k=4, signal_model="sparse-plus-gaussian-tail", snr=snr)
        x, _, mu = generate_signal(spec, seed)
        xhat = DenseSignal(spec.n, spec.d, np.fft.fftn(x.values, norm="ortho"), "frequency")
        params = spec.recovery_params(mu, seed)
        return sparse_fft_with_stats(
            xhat,
            spec.k,
            epsilon=spec.epsilon,
            r_star=spec.effective_r_star(),
            mu=mu,
            seed=seed,
            params=replace(params, T=T),
        )

    @staticmethod
    def count_calls(monkeypatch, *names) -> dict:
        calls = dict.fromkeys(names, 0)
        for name in names:
            real = getattr(recovery_module, name)

            def counting(*args, name=name, real=real, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(recovery_module, name, counting)
        return calls

    @pytest.mark.parametrize(
        "constants,l1_rounds,inf_rounds",
        [(None, 2, 1), ({"zero_floor_rel": 1e-13}, 3, 3)],
    )
    def test_every_round_runs_on_the_plan_schedule(
        self, monkeypatch, constants, l1_rounds, inf_rounds
    ):
        # snr 1e9 gives r_star 2e9 and T = 3. Each round hands the l1 loop
        # (nu_t, mu_eff, x_inf) and the inf-norm stage (nu'_t, nu'_t, x_inf).
        # At the default floor the residual certificate holds after round 1
        # and ends the run; at a floor of 1e-13 every round runs.
        spec = ExperimentSpec(
            n=1024,
            d=1,
            k=8,
            signal_model="sparse-plus-gaussian-tail",
            snr=1e9,
            constants=constants,
        )
        l1_calls, inf_calls = [], []
        real_l1, real_inf = recovery_module.reduce_l1_norm, recovery_module.reduce_inf_norm

        def l1(mset, nu, mu, **kwargs):
            l1_calls.append((mset.initial_scale, nu, mu, kwargs["x_inf"]))
            return real_l1(mset, nu, mu, **kwargs)

        def inf(xhat, chi, stage, nu, mu, rng, **kwargs):
            inf_calls.append((nu, mu, kwargs["x_inf"]))
            return real_inf(xhat, chi, stage, nu, mu, rng, **kwargs)

        monkeypatch.setattr(recovery_module, "reduce_l1_norm", l1)
        monkeypatch.setattr(recovery_module, "reduce_inf_norm", inf)
        harness_run(spec, 0)
        _, _, mu = generate_signal(spec, 0)
        plan = spec.recovery_params(mu, 0)
        scale = l1_calls[0][0]
        mu_eff, x_inf, _, nu, nu_prime = plan.schedule(scale)
        assert plan.T == 3 and 0.0 < mu_eff == mu < x_inf < math.inf
        assert l1_calls == [(scale, nu[t], mu_eff, x_inf) for t in range(l1_rounds)]
        assert inf_calls == [(nu_prime[t], nu_prime[t], x_inf) for t in range(inf_rounds)]

    def test_second_round_reduces_the_same_main_set(self, monkeypatch):
        # At snr 10 the plan has T = 1; this run asks for 2.
        assert RecoveryParams.derive(1024, 1, 4, r_star=20.0).T == 1
        _, one = self.run(10.0, T=1)
        calls = self.count_calls(monkeypatch, "reduce_l1_norm", "reduce_inf_norm")
        out, two = self.run(10.0, T=2)
        assert calls == {"reduce_l1_norm": 2, "reduce_inf_norm": 2}
        assert two.samples_location == one.samples_location
        assert len(out) > 0

    def test_runaway_round_raises_divergence(self, monkeypatch):
        real = recovery_module.reduce_inf_norm
        factor = Tunables().divergence_factor
        baseline = []

        def runaway(xhat, chi, stage, *args, **kwargs):
            increment = real(xhat, chi, stage, *args, **kwargs)
            if not baseline:  # round 0: the mass the check compares against
                baseline.append((chi + increment).norm1())
                return increment
            # Round 1: one new coefficient worth twice the allowed growth.
            free = np.setdiff1d(np.arange(xhat.N), chi.flat)[0]
            return SparseApprox.from_flat(xhat.n, xhat.d, [free], [2 * factor * baseline[0]])

        monkeypatch.setattr(recovery_module, "reduce_inf_norm", runaway)
        # The plan's own T = 2 at snr 1e5, whose round 0 keeps the heads: at
        # snr 10 round 0 keeps nothing, and the check's baseline would be
        # round 1's mass.
        assert RecoveryParams.derive(1024, 1, 4, r_star=2e5).T == 2
        with pytest.raises(DivergenceError, match="after round 1"):
            self.run(1e5, T=2)
        assert len(baseline) == 1 and baseline[0] > 0


class TestNoiseBound:
    """For mu > 0 the caller promises ||x||_inf <= r_star * mu, so a round
    whose threshold is above r_star * mu + ||chi||_inf cannot keep a true
    coefficient; it is skipped before any read. mu = 0 bounds nothing."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_noisy_run_skips_the_inf_norm_acquisition(self, monkeypatch):
        calls = count_acquisitions(monkeypatch)
        _, stats = pinned_run(16, 2, 3, "sparse-plus-gaussian-tail")
        assert stats.samples_infnorm == 0
        # The main set and the constant-SNR set; no inf-norm set.
        assert len(calls) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_clean_exact_run_certifies(self, monkeypatch):
        # mu = 0 keeps the inf-norm net (see TestResidualCertificate's
        # uncleaned run); here the l1 loop clears the residual, so the
        # certificate skips the net and the sweep.
        calls = count_acquisitions(monkeypatch)
        _, stats = pinned_run(16, 2, 3, "exact-sparse")
        assert stats.residual_peak_rel <= Tunables().zero_floor_rel
        assert stats.samples_infnorm == 0 and stats.samples_constsnr == 0
        assert len(calls) == 1

    def test_inf_norm_stage_reads_nothing_under_the_bound(self, monkeypatch, rng):
        n, d = 256, 1
        xhat = DenseSignal.zeros(n, d, "frequency")
        calls = count_acquisitions(monkeypatch)
        stats = RunStats()
        state = rng.bit_generator.state
        # Lowest threshold inf_threshold_scale * (nu + mu) = 5 > 1 + 0.
        empty = SparseApprox.empty(n, d)
        increment = reduce_inf_norm(
            xhat, empty, inf_stage(n, d), 1.0, 0.0, rng, stats=stats, x_inf=1.0
        )
        assert len(increment) == 0
        assert stats.samples_infnorm == 0 and not calls
        assert rng.bit_generator.state == state

    def test_inf_norm_stage_acquires_for_a_large_chi_entry(self, monkeypatch, rng):
        # x = 0, but chi overshoots at one index by more than the lowest
        # threshold: the residual there is -10, so the stage must look.
        n, d = 256, 1
        xhat = DenseSignal.zeros(n, d, "frequency")
        chi = SparseApprox.from_flat(n, d, [17], [10.0 + 0j])
        calls = count_acquisitions(monkeypatch)
        stats = RunStats()
        increment = reduce_inf_norm(
            xhat, chi, inf_stage(n, d), 1.0, 0.0, rng, stats=stats, x_inf=1.0
        )
        assert stats.samples_infnorm > 0 and len(calls) == 1
        assert increment.flat.tolist() == [17]
        assert abs(increment.values[0] + 10.0) < 1e-6

    def test_idle_rounds_make_no_estimate_and_no_draw(self, monkeypatch):
        # The same loop twice: from nu under x_inf = ||x||_inf, where the
        # heads 4, 2 and 1 times ||x||_inf leave the first three rounds
        # idle, and from nu / 8 without a bound, which starts at the fourth
        # head. mu puts the floor at the seventh head of the first run, so
        # both runs end on the same threshold. The idle rounds must leave
        # no trace.
        n, d, k = 1024, 1, 3
        x = random_sparse_time(n, d, k, np.random.default_rng(4), min_mag=2.0)
        xhat = lib_freq(dense_time(x).values, n, d)
        params = RecoveryParams.derive(n, d, k).main
        tun = params.tunables
        top = x.norm_inf()
        nu = 4.0 * top / tun.l1_threshold_frac
        mu = tun.l1_threshold_frac * nu * 0.5**6 / tun.head_bias
        thresholds = record_thresholds(monkeypatch)
        results = []
        for nu_run, x_inf in ((nu, top), (nu / 8.0, math.inf)):
            mset = acquire_measurements(xhat, params, np.random.default_rng(1))
            rng = np.random.default_rng(2)
            chi = reduce_l1_norm(mset, nu_run, mu, rng=rng, x_inf=x_inf)
            results.append((chi.entries, rng.bit_generator.state))
        calls = len(thresholds) // 2
        assert calls > 0 and thresholds[:calls] == thresholds[calls:]
        assert thresholds[0] < top < 2.0 * thresholds[0]
        assert thresholds[-1] == 2.0 * tun.head_bias * mu
        assert results[0] == results[1]
        assert set(results[0][0]) == x.support()

    @pytest.mark.parametrize("x_inf", [0.0, -1.0, float("nan")])
    def test_stages_check_the_bound(self, x_inf, rng):
        xhat = DenseSignal.zeros(256, 1, "frequency")
        mset = acquire_measurements(xhat, RecoveryParams.derive(256, 1, 2).main, rng)
        with pytest.raises(ParameterError, match="x_inf must be > 0"):
            reduce_l1_norm(mset, 1.0, 0.0, rng=rng, x_inf=x_inf)
        with pytest.raises(ParameterError, match="x_inf must be > 0"):
            reduce_inf_norm(
                xhat,
                SparseApprox.empty(256, 1),
                inf_stage(256, 1),
                1.0,
                0.0,
                rng,
                x_inf=x_inf,
            )


class TestResidualCertificate:
    """After the l1 loop the main set's tables measure x - chi. When their
    peak is within the zero floor the run skips the inf-norm and
    constant-SNR stages; those stages, run by hand on the returned chi,
    must then keep nothing above the floor."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("n,d,k", [(4096, 1, 4), (32, 2, 4), (16, 3, 2)])
    def test_certified_runs_leave_the_skipped_stages_nothing(self, n, d, k, monkeypatch):
        tun = Tunables()
        scales = []
        real = recovery_module.acquire_measurements

        def recording(xhat, params, rng, **kwargs):
            mset = real(xhat, params, rng, **kwargs)
            scales.append(mset.initial_scale)
            return mset

        monkeypatch.setattr(recovery_module, "acquire_measurements", recording)
        for seed in range(8):
            x = random_sparse_time(n, d, k, np.random.default_rng(100 + seed))
            xhat = lib_freq(dense_time(x).values, n, d)
            params = RecoveryParams.derive(n, d, k, seed=seed)
            scales.clear()
            out, stats = sparse_fft_with_stats(xhat, k, seed=seed, params=params)
            # Exact inputs certify; the main set is the run's one acquisition.
            assert stats.residual_peak_rel <= tun.zero_floor_rel
            assert len(scales) == 1
            assert out.support() == x.support()
            floor = tun.zero_floor_rel * scales[0]
            # The inf-norm targets of the run's last round at mu = 0.
            mu_eff = tun.mu_floor_rel * scales[0]
            nu = core._log4(xhat.N) * (4.0 * mu_eff + 20.0 * mu_eff)
            rng = np.random.default_rng(10**6 + seed)
            missed = reduce_inf_norm(xhat, out, params.inf_norm, nu, nu, rng)
            missed = missed + recover_at_constant_snr(xhat, out, params.const_snr, rng)
            assert np.all(np.abs(missed.values) <= floor)
            full = (out + missed).drop_below(floor)
            assert full.support() == out.support()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_uncleaned_residual_is_not_certified(self, monkeypatch):
        # An l1 loop that keeps nothing leaves every head in the tables: the
        # certificate refuses, and at mu = 0 the inf-norm net and the sweep
        # both read and recover the heads.
        n, d, k = 16, 2, 3
        monkeypatch.setattr(
            recovery_module, "reduce_l1_norm", lambda mset, *args, **kwargs: mset.chi
        )
        calls = count_acquisitions(monkeypatch)
        out, stats = pinned_run(n, d, k, "exact-sparse")
        spec = ExperimentSpec(n=n, d=d, k=k, signal_model="exact-sparse")
        _, truth, _ = generate_signal(spec, PINNED_SEED)
        assert stats.residual_peak_rel > Tunables().zero_floor_rel
        assert stats.samples_estimation == 0
        assert stats.samples_infnorm > 0 and stats.samples_constsnr > 0
        assert len(calls) == 3
        assert truth.support() <= out.support()
        assert max(head_errors(truth, out)) < 1e-4 * truth.norm_inf()


def disable_l1_stop(monkeypatch) -> None:
    """Make the l1 loop's stop scans (those with a finite bound) never
    pass; the certificate's full scan is left as it is."""
    real = recovery_module._residual_peak

    def never_within(mset, above=math.inf):
        return math.inf if above < math.inf else real(mset, above)

    monkeypatch.setattr(recovery_module, "_residual_peak", never_within)


class TestL1Stop:
    """Before each decode the l1 loop ends when the main set's tables, which
    hold x - chi, peak within its stop bound. The stop only skips rounds
    that keep nothing, and it fires only where the residual certificate
    then holds, so every output is the one the loop gives without it."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "n,d,k,model",
        [
            (4096, 1, 4, "exact-sparse"),
            (32, 2, 4, "exact-sparse"),
            (16, 3, 2, "exact-sparse"),
            (1024, 1, 8, "sparse-plus-gaussian-tail"),
            (1024, 1, 8, "sparse-plus-adversarial-bucket-tail"),
        ],
    )
    def test_stop_leaves_every_output_unchanged(self, n, d, k, model, monkeypatch):
        spec = ExperimentSpec(n=n, d=d, k=k, signal_model=model)
        seeds = range(8)
        stopped = [harness_run(spec, seed) for seed in seeds]
        disable_l1_stop(monkeypatch)
        full = [harness_run(spec, seed) for seed in seeds]
        saved = 0
        for (out, stats), (want, want_stats) in zip(stopped, full):
            assert out.flat.tobytes() == want.flat.tobytes()
            assert out.values.tobytes() == want.values.tobytes()
            saved += want_stats.samples_estimation - stats.samples_estimation
            assert stats.samples_estimation <= want_stats.samples_estimation
            if model == "exact-sparse":
                assert replace(stats, samples_estimation=0) == replace(
                    want_stats, samples_estimation=0
                )
            else:
                assert stats == want_stats
        if n == 4096:
            assert saved > 0

    def test_stop_waits_for_the_last_round_threshold(self, monkeypatch):
        # The second spike, 1e-8 of the first, lies below the zero floor
        # zero_floor_rel * initial_scale but above the last round's
        # threshold (nu puts the last head at 1/8 of it), so a round still
        # keeps it; the stop, bounded at that last threshold, must let it.
        n, d = 1024, 1
        small = 1e-8
        phases = np.exp(2j * np.pi * np.array([0.1, 0.6]))
        x = SparseApprox.from_flat(n, d, [17, 300], np.array([1.0, small]) * phases)
        xhat = lib_freq(dense_time(x).values, n, d)
        params = RecoveryParams.derive(n, d, len(x)).main
        nu = small / 8.0 * 2.0 ** (params.rounds - 1) / params.tunables.l1_threshold_frac
        runs = []
        for stop in (True, False):
            if not stop:
                disable_l1_stop(monkeypatch)
            mset = acquire_measurements(xhat, params, np.random.default_rng(1))
            assert small < params.tunables.zero_floor_rel * mset.initial_scale
            chi = reduce_l1_norm(mset, nu, 0.0, rng=np.random.default_rng(2))
            runs.append(chi.entries)
        assert runs[0] == runs[1]
        assert set(runs[0]) == x.support()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_certificate_reads_no_block_after_the_stop_scan(self, monkeypatch):
        # When the stop fires, its scan has read every block of the main
        # set's tables; the certificate right after answers from that peak.
        scans = []  # per _residual_peak call: [bound, peak, blocks read, blocks]

        class CountedRows(np.ndarray):
            def __getitem__(self, key):
                scans[-1][2] += 1
                return np.asarray(self)[key]

        real_peak, real_scan = recovery_module._residual_peak, hashing_measurements._max_abs

        def peak(mset, above=math.inf):
            scans.append([above, None, 0, 0])
            scans[-1][1] = real_peak(mset, above)
            return scans[-1][1]

        def scan(table, above=math.inf):
            if not scans:  # the acquisition's initial scale
                return real_scan(table, above)
            step = hashing_measurements._block_rows(16 * table.shape[1])
            scans[-1][3] = len(range(0, len(table), step))
            return real_scan(table.view(CountedRows), above)

        monkeypatch.setattr(recovery_module, "_residual_peak", peak)
        monkeypatch.setattr(hashing_measurements, "_max_abs", scan)
        spec = ExperimentSpec(n=4096, d=1, k=4, signal_model="exact-sparse")
        for seed in range(4):
            scans.clear()
            harness_run(spec, seed)
            *_, (stop, stop_peak, read, blocks), (bound, certified_peak, reread, _) = scans
            assert stop_peak <= stop and bound == math.inf
            assert read == blocks > 1
            assert reread == 0 and certified_peak == stop_peak

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_exact_three_dimensional_batch_meets_the_guarantee(self):
        # exact-3d-16's spec. Its plateau gain is 2.8e-5, so a bound without
        # the gain, or a decoder cut at a fixed fraction of the scale, can
        # end the refinement while a head is still off by ~1e-9 of the scale.
        spec = ExperimentSpec(n=16, d=3, k=8, signal_model="exact-sparse", seeds=list(range(32)))
        records = run_experiment(spec)
        misses = [rec.seed for rec in records if rec.l2_error_ratio > 1.0 + spec.epsilon]
        assert misses == []
