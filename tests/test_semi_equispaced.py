"""Coarse-box spectrum evaluation against direct summation.

Every accuracy claim is measured against the sparse direct sum, never the
library FFT. Valid outputs are the box entries whose signed offset has
infinity norm at most half the per-axis side.
"""
import numpy as np
import pytest

from sparsefft import ParameterError, SparseApprox
from sparsefft.permutation import SpectrumPermutation, sample_permutation
from sparsefft.semi_equispaced import semi_equispaced_fft, shifted_semi_equispaced

from oracles import exact_spectrum_at, random_sparse_time


def valid_positions(b, d):
    """(position, signed offset) pairs covered by the accuracy contract."""
    out = []
    for pos in np.ndindex(*((2 * b,) * d)):
        signed = tuple(p if p <= b // 2 else p - 2 * b for p in pos)
        if max(abs(s) for s in signed) <= b // 2:
            out.append((pos, signed))
    return out


def max_error(x, out, b):
    points = []
    positions = []
    for pos, signed in valid_positions(b, x.d):
        positions.append(pos)
        points.append([s % x.n for s in signed])
    truth = exact_spectrum_at(x, np.array(points, dtype=np.int64))
    got = np.array([out[pos] for pos in positions])
    return float(np.max(np.abs(got - truth)))


class TestPlainBox:
    def test_zero_signal_gives_zero_box(self):
        x = SparseApprox(256, 1)
        out = semi_equispaced_fft(x, 32, 2)
        assert out.shape == (64,)
        assert np.all(out == 0)

    def test_delta_spike_has_flat_spectrum(self):
        n, b = 256, 16
        x = SparseApprox.from_flat(n, 1, [0], [1.0])
        out = semi_equispaced_fft(x, b, 2)
        level = 1.0 / np.sqrt(n)
        for pos, _ in valid_positions(b, 1):
            assert abs(out[pos] - level) <= float(n) ** -2

    @pytest.mark.parametrize("c", [2, 3])
    def test_sparse_signal_meets_error_bound(self, rng, c):
        n, d, b = 256, 1, 32
        for seed in range(5):
            x = random_sparse_time(n, d, 10, np.random.default_rng(seed))
            out = semi_equispaced_fft(x, b, c)
            assert max_error(x, out, b) <= x.norm2() / float(n**d) ** c

    def test_two_dimensional_bound(self, rng):
        n, d, b = 64, 2, 8
        x = random_sparse_time(n, d, 6, rng)
        out = semi_equispaced_fft(x, b**d, 2)
        assert out.shape == (16, 16)
        assert max_error(x, out, b) <= x.norm2() / float(n**d) ** 2

    def test_narrow_box_still_meets_bound(self, rng):
        # b=8 on a 64-ring cannot carry the needed window; the scheme must
        # compensate internally rather than degrade.
        x = random_sparse_time(64, 1, 8, rng)
        out = semi_equispaced_fft(x, 8, 2)
        assert max_error(x, out, 8) <= x.norm2() / 64.0**2

    def test_infeasible_width_falls_back_to_exact(self, rng):
        # At c=3 no box below n/2 carries the window on a 64-ring, so the
        # answer comes from a full transform and is exact to rounding.
        x = random_sparse_time(64, 1, 8, rng)
        out = semi_equispaced_fft(x, 8, 3)
        assert max_error(x, out, 8) <= 1e-11

    def test_box_as_fine_as_grid_is_exact(self, rng):
        x = random_sparse_time(32, 1, 4, rng)
        out = semi_equispaced_fft(x, 32, 2)
        assert max_error(x, out, 32) <= 1e-11


class TestAliasingDuality:
    def test_box_values_are_windowed_alias_sums(self, rng):
        # Every box entry, attenuated ones included, equals the alias sum
        # sum_j xhat[i + 2b j] * ghat[i + 2b j]; checked where no internal
        # widening happens so the window in play is the requested one.
        from sparsefft.filters import build_flat_window

        n, b, c = 256, 32, 2
        x = random_sparse_time(n, 1, 8, rng)
        out = semi_equispaced_fft(x, b, c)
        fw = build_flat_window(n, 1, b, c)
        ghat = np.zeros(n)
        dense = fw.g_dense_axis()
        for v in range(n):
            ghat[v] = dense @ np.cos(2 * np.pi * np.arange(n) * v / n) / np.sqrt(n)
        xhat = exact_spectrum_at(x, np.arange(n, dtype=np.int64)[:, None])
        for i in range(2 * b):
            alias = sum(xhat[(i + 2 * b * j) % n] * ghat[(i + 2 * b * j) % n] for j in range(n // (2 * b)))
            assert abs(out[i] - alias) < 1e-10


class TestShiftedBox:
    def test_trivial_permutation_reduces_to_plain(self, rng):
        n = 128
        x = random_sparse_time(n, 1, 5, rng)
        perm = SpectrumPermutation(
            n=n, sigma=np.eye(1, dtype=np.int64), q=np.zeros(1)
        )
        plain = semi_equispaced_fft(x, 16, 2)
        shifted = shifted_semi_equispaced(x, perm, 16, 2)
        assert np.allclose(shifted, plain, atol=1e-12)

    def test_permuted_evaluation_meets_bound(self, rng):
        n, b = 128, 16
        for seed in range(5):
            r = np.random.default_rng(seed + 40)
            x = random_sparse_time(n, 1, 5, r)
            perm = sample_permutation(n, 1, r)
            out = shifted_semi_equispaced(x, perm, b, 2)
            points = []
            got = []
            for pos, signed in valid_positions(b, 1):
                target = (perm.sigma @ ((np.array(signed) - perm.q) % n)) % n
                points.append(target)
                got.append(out[pos])
            truth = exact_spectrum_at(x, np.array(points, dtype=np.int64))
            err = np.max(np.abs(np.array(got) - truth))
            assert err <= x.norm2() / float(n) ** 2

    def test_two_dimensional_permuted_bound(self, rng):
        n, d, b = 64, 2, 8
        x = random_sparse_time(n, d, 5, rng)
        perm = sample_permutation(n, d, rng)
        out = shifted_semi_equispaced(x, perm, b**d, 2)
        points = []
        got = []
        for pos, signed in valid_positions(b, d):
            target = (perm.sigma @ ((np.array(signed) - perm.q) % n)) % n
            points.append(target)
            got.append(out[pos])
        truth = exact_spectrum_at(x, np.array(points, dtype=np.int64))
        assert np.max(np.abs(np.array(got) - truth)) <= x.norm2() / float(n**d) ** 2

    def test_higher_precision_shrinks_error_by_grid_factor(self):
        n, b = 1024, 32
        x = random_sparse_time(n, 1, 10, np.random.default_rng(5))
        perm = sample_permutation(n, 1, np.random.default_rng(6))

        def worst(c):
            out = shifted_semi_equispaced(x, perm, b, c)
            points = []
            got = []
            for pos, signed in valid_positions(b, 1):
                target = (perm.sigma @ ((np.array(signed) - perm.q) % n)) % n
                points.append(target)
                got.append(out[pos])
            truth = exact_spectrum_at(x, np.array(points, dtype=np.int64))
            return float(np.max(np.abs(np.array(got) - truth)))

        e2, e3 = worst(2), worst(3)
        assert e3 > 0
        assert e2 / e3 >= n


class TestValidation:
    def test_rejects_low_precision(self, rng):
        x = random_sparse_time(64, 1, 3, rng)
        with pytest.raises(ParameterError):
            semi_equispaced_fft(x, 16, 1)

    def test_rejects_non_power_box(self, rng):
        x = random_sparse_time(64, 2, 3, rng)
        with pytest.raises(ParameterError):
            semi_equispaced_fft(x, 32, 2)

    def test_rejects_grid_mismatch(self, rng):
        x = random_sparse_time(64, 1, 3, rng)
        perm = sample_permutation(32, 1, rng)
        with pytest.raises(ParameterError):
            shifted_semi_equispaced(x, perm, 16, 2)
