"""Bucketing filter and flat window properties.

The bucket filter checks are the three window bounds (plateau floor, decay
envelope, unit range) plus the spectrum support and tensor structure; the
flat window checks pin the exact plateau/cutoff shape of the ideal spectrum
and the measured closeness of the constructed window to it.
"""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparsefft import ParameterError, RecoveryParams, SparseApprox
from sparsefft.filters import (
    build_bucket_filter,
    build_flat_window,
    cached_bucket_filter,
    max_window_beta,
    required_window_beta,
)

from sparsefft.semi_equispaced import semi_equispaced_fft

from oracles import direct_transform


def signed_axis(n):
    v = np.arange(n)
    return np.where(v < n // 2, v, v - n)


def dense_spectrum(filt):
    """The per-axis spectrum over the whole ring, zero off the support."""
    dense = np.zeros(filt.n)
    dense[filt.support % filt.n] = filt.support_values()
    return dense


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
        # Reference: sqrt(n) times the 4-fold self-convolution of the
        # width-17 box, on offsets -32..32 and zero elsewhere on the ring.
        box = np.full(17, 1.0 / 17)
        want = np.zeros(128)
        want[np.arange(-32, 33) % 128] = (
            np.convolve(np.convolve(np.convolve(box, box), box), box) * math.sqrt(128)
        )
        assert np.array_equal(dense_spectrum(filt), want)


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
            RecoveryParams(
                n=16, d=d, k=1, epsilon=1.0, mu=0.0, r_star=2.0, F=2 * d, B=B,
                r_max=3, c_max=8, T=1,
            )
        x = SparseApprox.from_flat(16, d, [1], [1.0])
        with pytest.raises(ParameterError, match=f"B={B} is not a power of 2"):
            semi_equispaced_fft(x, B, 2)

    def test_too_few_buckets_rejected(self):
        with pytest.raises(ParameterError):
            build_bucket_filter(64, 1, 2, 4)

    def test_cache_returns_shared_instance(self):
        assert cached_bucket_filter(64, 1, 8, 4) is cached_bucket_filter(64, 1, 8, 4)


class TestFlatWindowIdeal:
    @pytest.mark.parametrize("n,b", [(64, 8), (128, 16), (256, 16), (256, 32)])
    def test_plateau_cutoff_and_range_exact(self, n, b):
        fw = build_flat_window(n, 1, b, 2)
        sv = np.abs(signed_axis(n))
        ideal = fw.ghat_ideal_axis
        assert np.all(ideal[sv <= b // 2] == 1.0)
        assert np.all(ideal[sv > b] == 0.0)
        assert np.all((ideal >= 0.0) & (ideal <= 1.0))

    def test_transition_monotone(self):
        fw = build_flat_window(256, 1, 32, 2)
        right = fw.ghat_ideal_axis[: 128]
        assert np.all(np.diff(right) <= 1e-15)


class TestFlatWindowAccuracy:
    def test_example_plateau_within_target(self):
        n, b, c = 256, 16, 2
        fw = build_flat_window(n, 1, b, c)
        spectrum = direct_transform(fw.g_dense_axis().astype(np.complex128), n, 1).real
        sv = np.abs(signed_axis(n))
        target = float(n) ** -2
        assert np.max(np.abs(spectrum[sv <= b // 2] - 1.0)) <= target
        assert np.max(np.abs(spectrum[sv > b])) <= target

    @pytest.mark.parametrize("n,b,c", [(256, 16, 2), (256, 32, 2), (256, 32, 3), (1024, 64, 2)])
    def test_l2_distance_to_ideal(self, n, b, c):
        fw = build_flat_window(n, 1, b, c)
        spectrum = direct_transform(fw.g_dense_axis().astype(np.complex128), n, 1)
        dist = np.linalg.norm(spectrum - fw.ghat_ideal_axis)
        assert dist <= float(n) ** -c

    def test_spectrum_is_one_at_frequency_zero(self):
        fw = build_flat_window(256, 1, 16, 2)
        assert fw.g_vals.sum() == pytest.approx(math.sqrt(256), abs=1e-12)

    def test_capped_shape_still_structurally_exact(self):
        # b=8 on a 64-ring cannot reach the accuracy target; the ideal shape
        # contracts must survive anyway.
        fw = build_flat_window(64, 1, 8, 3)
        sv = np.abs(signed_axis(64))
        assert np.all(fw.ghat_ideal_axis[sv <= 4] == 1.0)
        assert np.all(fw.ghat_ideal_axis[sv > 8] == 0.0)


class TestBetaRules:
    def test_required_grows_with_accuracy(self):
        assert required_window_beta(1024, 3) > required_window_beta(1024, 2)
        assert required_window_beta(2**16, 2) > required_window_beta(1024, 2)

    def test_cap_grows_with_width(self):
        assert max_window_beta(256, 32) > max_window_beta(256, 16)
        assert max_window_beta(1024, 16) > max_window_beta(256, 16)

    def test_example_sizes_feasible(self):
        assert max_window_beta(256, 32) >= required_window_beta(256, 2)
        assert max_window_beta(256, 32) >= required_window_beta(256, 3)
        assert max_window_beta(64, 8) < required_window_beta(64, 2)


class TestFlatWindowValidation:
    def test_rejects_narrow_or_odd_widths(self):
        with pytest.raises(ParameterError):
            build_flat_window(256, 1, 4, 2)
        with pytest.raises(ParameterError):
            build_flat_window(256, 1, 24, 2)

    def test_rejects_low_precision_exponent(self):
        with pytest.raises(ParameterError):
            build_flat_window(256, 1, 16, 1)

    def test_rejects_window_wider_than_ring(self):
        with pytest.raises(ParameterError):
            build_flat_window(16, 1, 32, 2)
