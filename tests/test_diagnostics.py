"""Brute-force noise profiles and their certification logic.

Closed-form cases use an identity permutation so every gain is a direct
filter-table lookup; the certification implication (all certified hashings
actually locate the element) is exercised against live measurement sets.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsefft import (
    DenseSignal,
    ParameterError,
    ScaleGuardError,
    SparseApprox,
    Tunables,
)
from sparsefft.dense_dft import fft_grid
from sparsefft.diagnostics import compute_noise_profile, quantile_top
from sparsefft.filters import cached_bucket_filter
from sparsefft.hashing_measurements import acquire_measurements
from sparsefft.location import decode_hashings
from sparsefft.permutation import Hashing, SpectrumPermutation
from sparsefft import RecoveryParams

from oracles import dense_time, random_sparse_time


def lib_freq(values_time, n, d):
    vals = fft_grid(np.asarray(values_time, dtype=np.complex128).reshape((n,) * d))
    return DenseSignal(n=n, d=d, values=vals, domain="frequency")


def identity_hashing(n: int, B: int, F: int) -> Hashing:
    perm = SpectrumPermutation(n, np.array([[1]], dtype=np.int64), np.zeros(1))
    return Hashing(perm, cached_bucket_filter(n, 1, B, F))


def plain_probes(count: int) -> tuple[np.ndarray, np.ndarray]:
    """One hashing's probes (j, 2j + 1), j < count, as (alphas, betas)."""
    j = np.arange(count, dtype=np.int64).reshape(1, count, 1)
    return j, 2 * j + 1


ORIGIN = np.zeros((1, 1), dtype=np.int64)


class TestQuantileTop:
    def test_pinned_ranks(self):
        assert quantile_top(np.array([5.0, 4, 3, 2, 1]), 0.2) == 5.0
        assert quantile_top(np.arange(1.0, 11.0), 0.5) == 6.0
        assert quantile_top(np.array([[1.0, 9.0], [3.0, 2.0]]), 1.0, axis=1)[0] == 1.0

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
        st.floats(0.01, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_descending_sort(self, vals, gamma):
        rank = int(np.ceil(gamma * len(vals)))
        expected = sorted(vals, reverse=True)[rank - 1]
        assert quantile_top(np.array(vals), gamma) == expected

    def test_axis_selection(self):
        arr = np.array([[1.0, 2.0, 3.0], [6.0, 5.0, 4.0]])
        np.testing.assert_array_equal(quantile_top(arr, 0.5, axis=0), [6.0, 5.0, 4.0])
        np.testing.assert_array_equal(quantile_top(arr, 0.3, axis=1), [3.0, 6.0])
        np.testing.assert_array_equal(quantile_top(arr, 0.34, axis=1), [2.0, 5.0])

    def test_validation(self):
        with pytest.raises(ParameterError):
            quantile_top(np.zeros((0,)), 0.5)
        with pytest.raises(ParameterError):
            quantile_top(np.ones(3), 0.0)


class TestClosedForms:
    def test_lone_tone_has_zero_noise_everywhere(self, rng):
        n, d = 64, 1
        i0 = 9
        x = SparseApprox.from_flat(n, d, [i0], [2.0 + 1.0j])
        hashing = identity_hashing(n, 8, 4)
        profile = compute_noise_profile(
            dense_time(x),
            SparseApprox(n, d),
            [i0],
            [hashing],
            *plain_probes(8),
            ORIGIN,
        )
        assert profile.e_head[i0] == 0.0
        assert profile.mu_Hi[i0] == 0.0
        assert profile.e_tail[i0] == 0.0
        assert profile.residual_mag[i0] == abs(2.0 + 1.0j)
        assert all(profile.isolated[i0])
        assert profile.certifies(i0)

    def test_isolation_flags_use_the_tunables_alpha(self):
        # Identity permutation, b = 64 on n = 256: 0's two heavy neighbours
        # at 20 and 25 first enter its ball at scale 3 (radius 32). The
        # scale-3 budget (2 pi)^-2 sqrt(alpha) 2^7 is 1.6 at alpha = 0.25 and
        # 3.1 at alpha = 0.9, so only the larger alpha calls 0 isolated there.
        n, d = 256, 1
        heavy = np.array([0, 20, 25])
        x = SparseApprox.from_flat(n, d, heavy, np.ones(3))
        flags = {}
        for alpha in (0.25, 0.9):
            profile = compute_noise_profile(
                dense_time(x),
                SparseApprox(n, d),
                heavy,
                [identity_hashing(n, 64, 2)],
                *plain_probes(8),
                ORIGIN,
                tunables=Tunables(alpha=alpha),
            )
            flags[alpha] = profile.isolated[heavy[0]][3]
        assert flags == {0.25: False, 0.9: True}

    def test_two_heavy_tones_head_leakage_formula(self):
        # Identity permutation, i = 0 sits at its bucket center, j = 3 is in
        # the same bucket: head_0 = G(3) |x_j| / G(0), a direct table lookup.
        n, d = 64, 1
        filt = cached_bucket_filter(n, 1, 8, 4)
        i0, j0 = 0, 3
        vj = 0.75 - 0.5j
        x = SparseApprox.from_flat(n, d, [i0, j0], [1.0, vj])
        hashing = identity_hashing(n, 8, 4)
        profile = compute_noise_profile(
            dense_time(x),
            SparseApprox(n, d),
            [i0, j0],
            [hashing],
            *plain_probes(8),
            ORIGIN,
        )
        expected = filt.g_axis[3] * abs(vj) / filt.g_axis[0]
        assert abs(profile.e_head[i0] - expected) < 1e-12
        # Tail quantities vanish: everything is in the heavy set.
        assert profile.mu_Hi[i0] == 0.0 and profile.e_tail[i0] == 0.0

    def test_single_tail_spike_mu_and_tail_formula(self):
        n, d = 64, 1
        filt = cached_bucket_filter(n, 1, 8, 4)
        i0, j0 = 0, 3
        tail_mag = 0.25
        x = SparseApprox.from_flat(n, d, [i0, j0], [1.0, tail_mag])
        hashing = identity_hashing(n, 8, 4)
        profile = compute_noise_profile(
            dense_time(x),
            SparseApprox(n, d),
            [i0],
            [hashing],
            *plain_probes(8),
            np.array([[0], [16]]),
        )
        own = filt.g_axis[0]
        leak = filt.g_axis[3] * tail_mag
        mu_expected = np.sqrt(leak**2 * own / own**2)
        assert abs(profile.mu_Hi[i0] - mu_expected) < 1e-12
        # One tail spike gives |tail_i(H, z)| = leak/own for every z, which
        # sits below the 40 mu floor, so the aggregate is exactly 40 mu.
        assert abs(profile.e_tail[i0] - 40.0 * mu_expected) < 1e-12

    def test_chi_subtraction_enters_residual_and_head(self):
        n, d = 64, 1
        i0, j0 = 0, 3
        x = SparseApprox.from_flat(n, d, [i0, j0], [1.0, 1.0])
        chi = SparseApprox.from_flat(n, d, [j0], [1.0])
        hashing = identity_hashing(n, 8, 4)
        profile = compute_noise_profile(
            dense_time(x),
            chi,
            [i0, j0],
            [hashing],
            *plain_probes(8),
            ORIGIN,
        )
        # j0's residual is zero after subtraction, so i0 sees no head leak.
        assert profile.e_head[i0] < 1e-12
        assert profile.residual_mag[j0] < 1e-12
        assert not profile.certifies(j0)


class TestCertificationImpliesLocation:
    def test_certified_pairs_are_always_found(self, rng):
        n, d, k = 1024, 1, 4
        params = RecoveryParams.derive(n, d, k).main
        empty = SparseApprox(n, d)
        certified_pairs = 0
        for _ in range(6):
            x = random_sparse_time(n, d, k, rng, min_mag=1.0)
            tail = rng.normal(size=n) + 1j * rng.normal(size=n)
            tail *= 0.02 / np.linalg.norm(tail)
            xt = dense_time(x).values + tail
            mset = acquire_measurements(lib_freq(xt, n, d), params, rng)
            profile = compute_noise_profile(
                DenseSignal(n=n, d=d, values=xt, domain="time"),
                empty,
                x.flat,
                mset.hashings,
                mset.alphas,
                mset.betas,
                mset.shifts,
            )
            found_by_r = [set(found.tolist()) for found in decode_hashings(mset)]
            for i in x.flat.tolist():
                for r in profile.certified_hashings(i):
                    certified_pairs += 1
                    assert i in found_by_r[r]
        assert certified_pairs >= 50

    def test_profile_shapes_and_nonnegativity(self, rng):
        n, d, k = 256, 1, 3
        params = RecoveryParams.derive(n, d, k).main
        x, = [random_sparse_time(n, d, k, rng)]
        tail = rng.normal(size=n) + 1j * rng.normal(size=n)
        xt = dense_time(x).values + 0.05 * tail / np.linalg.norm(tail)
        mset = acquire_measurements(lib_freq(xt, n, d), params, rng)
        profile = compute_noise_profile(
            DenseSignal(n=n, d=d, values=xt, domain="time"),
            SparseApprox(n, d),
            x.flat,
            mset.hashings,
            mset.alphas,
            mset.betas,
            mset.shifts,
        )
        R, W, S = params.r_max, len(mset.shifts), k
        assert profile.head_per_hashing.shape == (R, S)
        assert profile.tail_per_shift.shape == (R, W, S)
        assert profile.tail_per_hashing.shape == (R, S)
        assert profile.mu_per_hashing.shape == (R, S)
        assert profile.balanced.shape == (R, d)
        assert profile.balanced.all()
        for arr in (
            profile.head_per_hashing,
            profile.tail_per_shift,
            profile.tail_per_hashing,
            profile.mu_per_hashing,
        ):
            assert (arr >= 0.0).all()
        assert profile.heavy.tolist() == sorted(x.flat.tolist())


class TestGuardsAndValidation:
    def test_budget_guard_trips(self, rng):
        n, d = 64, 1
        x = random_sparse_time(n, d, 17, rng)
        tight = dataclasses.replace(Tunables(), diagnostic_budget=1000)
        with pytest.raises(ScaleGuardError):
            compute_noise_profile(
                dense_time(x),
                SparseApprox(n, d),
                x.flat,
                [identity_hashing(n, 8, 4)],
                *plain_probes(8),
                ORIGIN,
                tunables=tight,
            )

    def test_validation_errors(self, rng):
        n, d = 64, 1
        x = random_sparse_time(n, d, 2, rng)
        hashing = identity_hashing(n, 8, 4)
        probes = plain_probes(8)
        no_probes = (probes[0][:0], probes[1][:0])
        shifts = ORIGIN
        S = x.flat
        with pytest.raises(ParameterError):
            compute_noise_profile(
                lib_freq(dense_time(x).values, n, d),
                SparseApprox(n, d),
                S,
                [hashing],
                *probes,
                shifts,
            )
        with pytest.raises(ParameterError):
            compute_noise_profile(
                dense_time(x), SparseApprox(n, d), [], [hashing], *probes, shifts
            )
        with pytest.raises(ParameterError):
            compute_noise_profile(
                dense_time(x), SparseApprox(n, d), S, [hashing], *no_probes, shifts
            )
        with pytest.raises(ParameterError):
            compute_noise_profile(
                dense_time(x),
                SparseApprox(n, d),
                [n],
                [hashing],
                *probes,
                shifts,
            )
