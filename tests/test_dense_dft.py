"""Orthonormal transform against a direct-summation reference."""

import numpy as np
import pytest

from sparsefft import DenseSignal, ParameterError
from sparsefft.dense_dft import fft_axes, forward_dft, inverse_dft

from oracles import direct_transform


def random_signal(n, d, rng, domain="time"):
    shape = (n,) * d
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return DenseSignal(n=n, d=d, values=vals, domain=domain)


def test_delta_at_zero_transforms_to_a_flat_spectrum():
    vals = np.zeros(4, dtype=np.complex128)
    vals[0] = 1.0
    xhat = forward_dft(DenseSignal(n=4, d=1, values=vals, domain="time"))
    assert xhat.domain == "frequency"
    np.testing.assert_allclose(xhat.values, np.full(4, 0.5), atol=1e-14)


def test_single_rotation_transforms_to_a_delta():
    j = np.arange(4)
    vals = np.exp(2j * np.pi * j / 4) / 2.0
    xhat = forward_dft(DenseSignal(n=4, d=1, values=vals, domain="time"))
    expected = np.zeros(4, dtype=np.complex128)
    expected[1] = 1.0
    np.testing.assert_allclose(xhat.values, expected, atol=1e-14)


def test_flat_spectrum_inverts_to_a_scaled_constant():
    vals = np.zeros(16, dtype=np.complex128)
    vals[0] = 1.0
    x = inverse_dft(DenseSignal(n=16, d=1, values=vals, domain="frequency"))
    np.testing.assert_allclose(x.values, np.full(16, 1 / 4.0), atol=1e-14)


@pytest.mark.parametrize("n,d", [(8, 2), (8, 3)])
def test_matches_direct_summation(n, d, rng):
    x = random_signal(n, d, rng)
    got = forward_dft(x).values
    want = direct_transform(x.values, n, d, inverse=False)
    np.testing.assert_allclose(got, want, atol=1e-10)
    back = inverse_dft(DenseSignal(n=n, d=d, values=got, domain="frequency")).values
    want_back = direct_transform(got, n, d, inverse=True)
    np.testing.assert_allclose(back, want_back, atol=1e-10)


def test_roundtrip_recovers_the_input(rng):
    x = random_signal(16, 1, rng)
    back = inverse_dft(forward_dft(x))
    np.testing.assert_allclose(back.values, x.values, atol=1e-10)
    xhat = random_signal(16, 1, rng, domain="frequency")
    forth = forward_dft(inverse_dft(xhat))
    np.testing.assert_allclose(forth.values, xhat.values, atol=1e-10)


def test_norm_is_preserved(rng):
    for n, d in [(64, 1), (16, 2)]:
        x = random_signal(n, d, rng)
        xhat = forward_dft(x)
        assert xhat.norm2() == pytest.approx(x.norm2(), rel=1e-9)


def test_linearity(rng):
    x, y = random_signal(32, 1, rng), random_signal(32, 1, rng)
    a, b = 2.0 - 1j, -0.5 + 3j
    combo = DenseSignal(n=32, d=1, values=a * x.values + b * y.values, domain="time")
    got = forward_dft(combo).values
    want = a * forward_dft(x).values + b * forward_dft(y).values
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_domain_mismatch_is_rejected(rng):
    with pytest.raises(ParameterError):
        forward_dft(random_signal(8, 1, rng, domain="frequency"))
    with pytest.raises(ParameterError):
        inverse_dft(random_signal(8, 1, rng, domain="time"))


@pytest.mark.parametrize("inverse", [False, True])
def test_fft_axes_transforms_each_batch_entry(inverse, rng):
    # Axes 0 and 2 of an (8, 3, 8) array: a 2-D transform per middle index.
    vals = rng.standard_normal((8, 3, 8)) + 1j * rng.standard_normal((8, 3, 8))
    got = fft_axes(vals, (0, 2), inverse=inverse)
    for j in range(3):
        want = direct_transform(vals[:, j, :], 8, 2, inverse=inverse)
        np.testing.assert_allclose(got[:, j, :], want, atol=1e-10)


def test_fft_axes_rejects_non_power_of_two_axis(rng):
    vals = rng.standard_normal((6, 8)) + 0j
    with pytest.raises(ParameterError):
        fft_axes(vals, (0,))
    assert fft_axes(vals, (1,)).shape == (6, 8)
