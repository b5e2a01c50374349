"""Coarse-box spectrum evaluation against direct summation.

Every value is measured against the sparse direct sum, never the library
FFT. The contract is exact: every box entry, at each signed offset in
[-b, b)^d, matches the direct sum to rounding.
"""
import numpy as np
import pytest

from sparsefft import ParameterError, SparseApprox
from sparsefft.permutation import SpectrumPermutation, sample_permutation
from sparsefft.semi_equispaced import semi_equispaced_fft, shifted_semi_equispaced

from oracles import exact_spectrum_at, random_sparse_time

EXACT = 1e-11


def box_positions(b, d):
    """(position, signed offset) pairs of the (2b,)^d box, offsets in [-b, b)."""
    out = []
    for pos in np.ndindex(*((2 * b,) * d)):
        out.append((pos, tuple(p if p < b else p - 2 * b for p in pos)))
    return out


def max_error(x, out, b):
    points = []
    positions = []
    for pos, signed in box_positions(b, x.d):
        positions.append(pos)
        points.append([s % x.n for s in signed])
    truth = exact_spectrum_at(x, np.array(points, dtype=np.int64))
    got = np.array([out[pos] for pos in positions])
    return float(np.max(np.abs(got - truth)))


def max_permuted_error(x, perm, out, b):
    points = []
    got = []
    for pos, signed in box_positions(b, x.d):
        points.append((perm.sigma @ ((np.array(signed) - perm.q) % x.n)) % x.n)
        got.append(out[pos])
    truth = exact_spectrum_at(x, np.array(points, dtype=np.int64))
    return float(np.max(np.abs(np.array(got) - truth)))


class TestPlainBox:
    def test_zero_signal_gives_zero_box(self):
        x = SparseApprox(256, 1)
        out = semi_equispaced_fft(x, 32)
        assert out.shape == (64,)
        assert np.all(out == 0)

    def test_delta_spike_has_flat_spectrum(self):
        n, b = 256, 16
        x = SparseApprox.from_flat(n, 1, [0], [1.0])
        out = semi_equispaced_fft(x, b)
        level = 1.0 / np.sqrt(n)
        for pos, _ in box_positions(b, 1):
            assert abs(out[pos] - level) <= EXACT

    @pytest.mark.parametrize("b", [16, 32])
    def test_sparse_signal_meets_error_bound(self, b):
        n, d = 256, 1
        for seed in range(5):
            x = random_sparse_time(n, d, 10, np.random.default_rng(seed))
            out = semi_equispaced_fft(x, b)
            assert max_error(x, out, b) <= EXACT

    def test_two_dimensional_bound(self, rng):
        n, d, b = 64, 2, 8
        x = random_sparse_time(n, d, 6, rng)
        out = semi_equispaced_fft(x, b**d)
        assert out.shape == (16, 16)
        assert max_error(x, out, b) <= EXACT

    def test_narrow_box_still_meets_bound(self, rng):
        x = random_sparse_time(64, 1, 8, rng)
        out = semi_equispaced_fft(x, 8)
        assert max_error(x, out, 8) <= EXACT

    def test_infeasible_width_falls_back_to_exact(self, rng):
        # A box half as fine as the grid (2b = n/2) is answered like every
        # other: exactly, on the whole box.
        x = random_sparse_time(64, 1, 8, rng)
        out = semi_equispaced_fft(x, 16)
        assert out.shape == (32,)
        assert max_error(x, out, 16) <= EXACT

    def test_three_dimensional_box_is_exact(self, rng):
        n, d, b = 16, 3, 4
        x = random_sparse_time(n, d, 5, rng)
        out = semi_equispaced_fft(x, b**d)
        assert out.shape == (8, 8, 8)
        assert max_error(x, out, b) <= EXACT

    def test_box_as_fine_as_grid_is_exact(self, rng):
        x = random_sparse_time(32, 1, 4, rng)
        out = semi_equispaced_fft(x, 32)
        assert max_error(x, out, 32) <= EXACT


class TestShiftedBox:
    def test_trivial_permutation_reduces_to_plain(self, rng):
        n = 128
        x = random_sparse_time(n, 1, 5, rng)
        perm = SpectrumPermutation(
            n=n, sigma=np.eye(1, dtype=np.int64), q=np.zeros(1)
        )
        plain = semi_equispaced_fft(x, 16)
        shifted = shifted_semi_equispaced(x, perm, 16)
        assert np.allclose(shifted, plain, atol=1e-12)

    def test_zero_signal_gives_zero_shifted_box(self, rng):
        perm = sample_permutation(64, 2, rng)
        out = shifted_semi_equispaced(SparseApprox(64, 2), perm, 16)
        assert out.shape == (8, 8)
        assert np.all(out == 0)

    def test_permuted_evaluation_meets_bound(self, rng):
        n, b = 128, 16
        for seed in range(5):
            r = np.random.default_rng(seed + 40)
            x = random_sparse_time(n, 1, 5, r)
            perm = sample_permutation(n, 1, r)
            out = shifted_semi_equispaced(x, perm, b)
            assert max_permuted_error(x, perm, out, b) <= EXACT

    def test_two_dimensional_permuted_bound(self, rng):
        n, d, b = 64, 2, 8
        x = random_sparse_time(n, d, 5, rng)
        perm = sample_permutation(n, d, rng)
        out = shifted_semi_equispaced(x, perm, b**d)
        assert max_permuted_error(x, perm, out, b) <= EXACT


class TestValidation:
    def test_rejects_non_power_box(self, rng):
        x = random_sparse_time(64, 2, 3, rng)
        with pytest.raises(ParameterError):
            semi_equispaced_fft(x, 32)

    def test_rejects_grid_mismatch(self, rng):
        x = random_sparse_time(64, 1, 3, rng)
        perm = sample_permutation(32, 1, rng)
        with pytest.raises(ParameterError):
            shifted_semi_equispaced(x, perm, 16)

    def test_shifted_rejects_non_power_box(self, rng):
        x = random_sparse_time(64, 2, 3, rng)
        perm = sample_permutation(64, 2, rng)
        with pytest.raises(ParameterError):
            shifted_semi_equispaced(x, perm, 32)

    @pytest.mark.parametrize("shifted", [False, True])
    def test_takes_no_precision_argument(self, shifted, rng):
        # The answer is exact, so there is no accuracy to ask for.
        x = random_sparse_time(64, 1, 3, rng)
        with pytest.raises(TypeError):
            if shifted:
                shifted_semi_equispaced(x, sample_permutation(64, 1, rng), 16, 2)
            else:
                semi_equispaced_fft(x, 16, 2)
