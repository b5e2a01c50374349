"""Bucketing filter properties.

The checks are the three window bounds (plateau floor, decay envelope, unit
range) plus the spectrum support and tensor structure.
"""
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sparsefft
from sparsefft import ParameterError, SparseApprox, StagePlan, filters
from sparsefft.filters import build_bucket_filter, cached_bucket_filter

from sparsefft.semi_equispaced import semi_equispaced_fft

from oracles import direct_transform


def signed_axis(n):
    v = np.arange(n)
    return np.where(v < n // 2, v, v - n)


def dense_spectrum(filt):
    """The per-axis spectrum over the whole ring, zero off the support."""
    dense = np.zeros(filt.n)
    dense[filt.support % filt.n] = filt.ghat_support
    return dense


def exact_spectrum(n, b, F):
    """sqrt(n) * counts / (b+1)**F on the ring to 40 digits, where counts[m]
    is the number of ways to write m as a sum of F integers in [0, b+1),
    from Python ints by inclusion-exclusion, centred and folded mod n."""
    L = b + 1
    half = F * b // 2
    folded = [0] * n
    for m in range(F * b + 1):
        count = sum(
            (-1) ** j * math.comb(F, j) * math.comb(m - j * L + F - 1, F - 1)
            for j in range(m // L + 1)
        )
        folded[(m - half) % n] += count
    with localcontext() as ctx:
        ctx.prec = 40
        scale = Decimal(n).sqrt() / Decimal(L**F)
        return [scale * c for c in folded]


def assert_within_ulps(got, want, ulps):
    """Every float in got is within `ulps` units in the last place of the
    matching Decimal in want, and exactly zero where want is zero."""
    for g, w in zip(got.tolist(), want):
        if w == 0:
            assert g == 0.0
        else:
            assert abs(Decimal(g) - w) <= ulps * Decimal(float(np.spacing(g))), (g, w)


class TestBucketFilterBounds:
    def test_time_value_is_one_at_origin(self):
        filt = build_bucket_filter(64, 1, 8, 4)
        assert filt.g_axis[0] == 1.0

    def test_plateau_floor_n64_b8_F4(self):
        filt = build_bucket_filter(64, 1, 8, 4)
        sv = np.abs(signed_axis(64))
        plateau = filt.g_axis[sv <= 64 // 16]
        assert np.all(plateau >= (2 * math.pi) ** -4)
        assert np.all(plateau <= 1.0)

    def test_decay_envelope_n64_b8_F4(self):
        filt = build_bucket_filter(64, 1, 8, 4)
        dist = np.abs(signed_axis(64))
        envelope = (2.0 / (1.0 + dist / 8.0)) ** 4
        assert np.all(np.abs(filt.g_axis) <= envelope + 1e-12)

    def test_unit_range_for_even_sharpness(self):
        for n, b, F in [(64, 8, 4), (128, 16, 8), (256, 8, 4)]:
            filt = build_bucket_filter(n, 1, b, F)
            assert np.all(filt.g_axis >= 0.0)
            assert np.all(filt.g_axis <= 1.0)

    @given(st.integers(min_value=0, max_value=255))
    def test_decay_envelope_pointwise(self, j):
        filt = cached_bucket_filter(256, 1, 16, 6)
        dist = min(j, 256 - j)
        envelope = (2.0 / (1.0 + dist * 16.0 / 256.0)) ** 6
        assert abs(filt.g_axis[j]) <= envelope + 1e-12

    def test_bounds_exhaustive_small_grid(self):
        for n in (64, 128, 256):
            for F in (4, 8):
                filt = build_bucket_filter(n, 1, 8, F)
                sv = np.abs(signed_axis(n))
                dist = sv.astype(float)
                assert np.all(filt.g_axis >= 0.0)
                assert np.all(filt.g_axis <= 1.0)
                plateau = filt.g_axis[sv <= n // 16]
                assert np.all(plateau >= (2 * math.pi) ** -F)
                envelope = (2.0 / (1.0 + dist * 8.0 / n)) ** F
                assert np.all(filt.g_axis <= envelope + 1e-12)


class TestBucketFilterSpectrum:
    def test_spectrum_matches_direct_transform_of_time_window(self):
        filt = build_bucket_filter(64, 1, 8, 4)
        spectrum = direct_transform(filt.g_axis.astype(np.complex128), 64, 1)
        assert np.max(np.abs(spectrum - dense_spectrum(filt))) < 1e-10

    def test_spectrum_support_half_width(self):
        filt = build_bucket_filter(64, 1, 8, 4)
        sv = np.abs(signed_axis(64))
        half = 4 * 8 // 2
        dense = dense_spectrum(filt)
        assert np.all(dense[sv > half] == 0.0)
        assert dense[0] != 0.0
        assert filt.support_size == 2 * half + 1

    def test_support_array_lists_the_nonzero_offsets(self):
        filt = build_bucket_filter(128, 1, 16, 4)
        # Reference: the exact spectrum of the 4-fold self-convolution of the
        # width-17 box, nonzero on offsets -32..32 and zero elsewhere.
        assert filt.support.tolist() == list(range(-32, 33))
        assert_within_ulps(dense_spectrum(filt), exact_spectrum(128, 16, 4), 2)

    @pytest.mark.parametrize(
        "n,d,B,F",
        [
            (64, 1, 8, 2),
            (64, 1, 8, 4),
            (64, 1, 8, 6),
            (64, 2, 256, 4),
            (1024, 1, 1024, 6),  # (b+1)**F > 2**53: the counts round once
            # Wrapped supports, F*b/2 >= n/2: the spectrum folds onto the ring.
            (32, 1, 32, 2),
            (32, 1, 16, 4),
            (16, 1, 16, 6),
            (64, 3, 4096, 6),
        ],
    )
    def test_spectrum_within_two_ulps_of_exact(self, n, d, B, F):
        filt = build_bucket_filter(n, d, B, F)
        assert_within_ulps(dense_spectrum(filt), exact_spectrum(n, filt.b, F), 2)

    def test_wide_filter_builds_without_quadratic_convolution(self, monkeypatch):
        # The b = 2**15 constant-SNR filter of a 2**16 ring: an O(F * b**2)
        # np.convolve build took 0.2-1.2 s here.
        def refuse(*args, **kwargs):
            raise AssertionError("np.convolve called while building a filter")

        monkeypatch.setattr(np, "convolve", refuse)
        filt = build_bucket_filter(2**16, 1, 2**15, 2)
        assert_within_ulps(dense_spectrum(filt), exact_spectrum(2**16, 2**15, 2), 2)


class TestBucketFilterTensor:
    def test_2d_value_is_product_of_axes(self):
        filt = build_bucket_filter(64, 2, 64, 4)
        rng = np.random.default_rng(11)
        for _ in range(50):
            j1, j2 = (int(v) for v in rng.integers(0, 64, 2))
            expected = filt.g_axis[j1] * filt.g_axis[j2]
            assert filt.g_at(np.array([j1, j2])) == pytest.approx(expected)

    def test_vectorized_gather_agrees_with_scalar(self):
        filt = build_bucket_filter(64, 2, 64, 4)
        rng = np.random.default_rng(12)
        offs = rng.integers(0, 64, size=(20, 2))
        gathered = filt.g_at(offs)
        for row, got in zip(offs, gathered):
            assert got == pytest.approx(filt.g_at(row))

    def test_2d_bounds_exhaustive_n64(self):
        filt = build_bucket_filter(64, 2, 64, 4)
        g2 = np.multiply.outer(filt.g_axis, filt.g_axis)
        assert np.all(g2 >= 0.0)
        assert np.all(g2 <= 1.0)
        sv = np.abs(signed_axis(64))
        plat = sv <= 64 // 16
        assert np.all(g2[np.ix_(plat, plat)] >= (2 * math.pi) ** -8)


class TestBucketFilterValidation:
    def test_odd_sharpness_rejected(self):
        with pytest.raises(ParameterError):
            build_bucket_filter(64, 1, 8, 3)

    def test_sharpness_below_two_d_rejected(self):
        with pytest.raises(ParameterError):
            build_bucket_filter(64, 2, 64, 2)

    def test_bucket_count_not_power_rejected(self):
        with pytest.raises(ParameterError):
            build_bucket_filter(64, 1, 12, 4)
        with pytest.raises(ParameterError):
            build_bucket_filter(64, 2, 32, 4)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("B", [-4, -8, -64])
    def test_negative_bucket_count_is_a_parameter_error(self, d, B):
        # A negative B has a complex d-th root; it must not reach round().
        with pytest.raises(ParameterError, match=f"B={B} is not a power of 2"):
            build_bucket_filter(16, d, B, 2 * d)
        with pytest.raises(ParameterError, match=f"B={B} is not a power of 2"):
            StagePlan(
                n=16, d=d, k=1, F=2 * d, B=B, r_max=3, c_max=8, B_est=4**d,
                reps=1, rounds=1,
            )
        x = SparseApprox.from_flat(16, d, [1], [1.0])
        with pytest.raises(ParameterError, match=f"B={B} is not a power of 2"):
            semi_equispaced_fft(x, B)

    def test_too_few_buckets_rejected(self):
        with pytest.raises(ParameterError):
            build_bucket_filter(64, 1, 2, 4)

    def test_cache_returns_shared_instance(self):
        assert cached_bucket_filter(64, 1, 8, 4) is cached_bucket_filter(64, 1, 8, 4)

    @pytest.mark.parametrize("table", ["g_axis", "ghat_support", "support"])
    def test_shared_tables_are_read_only(self, table):
        filt = cached_bucket_filter(64, 1, 8, 4)
        with pytest.raises(ValueError, match="read-only"):
            getattr(filt, table)[0] = 0

    @pytest.mark.parametrize(
        "n,B,F",
        [
            (2**21, 2**21, 4),  # (b+1)**3 >= 2**63
            (2**13, 2**13, 6),  # (b+1)**5 >= 2**63
            (4, 4, 28),  # 5**27 < 2**63, but b = n folds two counts together
        ],
    )
    def test_count_overflow_rejected(self, n, B, F):
        with pytest.raises(ParameterError, match="overflow int64"):
            build_bucket_filter(n, 1, B, F)

    def test_largest_counts_below_the_limit_still_build(self):
        # 5**27 < 2**63 and, with b < n, no folded count exceeds it.
        filt = build_bucket_filter(8, 1, 4, 28)
        assert_within_ulps(dense_spectrum(filt), exact_spectrum(8, 4, 28), 2)


class TestExports:
    def test_only_the_bucket_filter_is_exported(self):
        assert filters.__all__ == ["BucketFilter", "build_bucket_filter", "cached_bucket_filter"]

    @pytest.mark.parametrize(
        "module,name",
        [
            (filters, "FlatWindow"),
            (filters, "build_flat_window"),
            (filters, "max_window_beta"),
            (filters, "required_window_beta"),
            (sparsefft, "semi_equispaced_fft"),
            (sparsefft, "shifted_semi_equispaced"),
        ],
    )
    def test_flat_window_names_are_gone(self, module, name):
        # The recovery path subtracts chi in bucket space, so nothing needs
        # a flat window, and the package no longer exports the box evaluators.
        assert not hasattr(module, name)
