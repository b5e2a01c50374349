"""Spectrum permutations, the bucket map, offsets, and isolation.

The load-bearing check is the inversion identity: applying the permuted
modulation operator in frequency domain and transforming back must land
each time sample at its permuted position with the predicted phase. That
identity is verified against the O(N^2) direct transform, not the library
FFT, so the two routes stay independent.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsefft import DenseSignal, ParameterError, Tunables
from sparsefft.filters import cached_bucket_filter
from sparsefft.permutation import (
    Hashing,
    SpectrumPermutation,
    _inverse_mod,
    is_isolated,
    sample_permutation,
)

from oracles import (
    all_indices,
    apply_P,
    direct_transform,
    flat_of,
    reference_inverse_mod,
    root_table,
)


def make_hashing(n, d, B, F, rng):
    filt = cached_bucket_filter(n, d, B, F)
    return Hashing(sample_permutation(n, d, rng), filt)


class TestSampling:
    def test_1d_sigma_is_odd_scalar(self, rng):
        for _ in range(200):
            perm = sample_permutation(16, 1, rng)
            assert perm.sigma.shape == (1, 1)
            assert perm.sigma[0, 0] % 2 == 1

    def test_2d_determinant_always_odd(self, rng):
        for _ in range(1000):
            perm = sample_permutation(16, 2, rng)
            det = int(round(np.linalg.det(perm.sigma.astype(float))))
            assert det % 2 == 1

    def test_sigma_inverse_is_two_sided(self, rng):
        for n, d in [(16, 1), (16, 2), (8, 3)]:
            perm = sample_permutation(n, d, rng)
            eye = np.eye(d, dtype=np.int64)
            assert np.array_equal((perm.sigma @ perm.sigma_inv) % n, eye % n)
            assert np.array_equal((perm.sigma_inv @ perm.sigma) % n, eye % n)

    def test_passed_inverse_is_checked(self, rng):
        perm = sample_permutation(16, 2, rng)
        same = SpectrumPermutation(16, perm.sigma, perm.q, sigma_inv=perm.sigma_inv)
        assert np.array_equal(same.sigma_inv, perm.sigma_inv)
        for wrong in (perm.sigma_inv + 1, np.eye(3, dtype=np.int64)):
            with pytest.raises(ParameterError, match="sigma_inv"):
                SpectrumPermutation(16, perm.sigma, perm.q, sigma_inv=wrong)

    def test_even_determinant_rejected(self):
        with pytest.raises(ParameterError):
            SpectrumPermutation(n=16, sigma=np.array([[2]]), q=np.zeros(1))

    def test_non_power_of_two_grid_rejected(self):
        with pytest.raises(ParameterError):
            SpectrumPermutation(n=12, sigma=np.array([[5]]), q=np.zeros(1))

    @pytest.mark.parametrize("n", [2, 16, 1 << 20])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_inverse_matches_adjugate_formula(self, n, d, rng):
        outcomes = set()
        for _ in range(300):
            sigma = rng.integers(0, n, size=(d, d), dtype=np.int64)
            want = reference_inverse_mod(sigma, n)
            got = _inverse_mod(sigma, n)
            if want is None:
                assert got is None
            else:
                assert got.dtype == np.int64 and np.array_equal(got, want)
            outcomes.add(want is None)
        # Both odd and even determinants came up.
        assert outcomes == {True, False}

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rejection_draws_follow_the_determinant_rule(self, d):
        n = 16
        for seed in range(20):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            perm = sample_permutation(n, d, fast)
            while True:
                sigma = slow.integers(0, n, size=(d, d), dtype=np.int64)
                if reference_inverse_mod(sigma, n) is not None:
                    break
            q = slow.integers(0, n, size=d, dtype=np.int64)
            assert np.array_equal(perm.sigma, sigma) and np.array_equal(perm.q, q)
            assert np.array_equal(perm.sigma_inv, reference_inverse_mod(sigma, n))
            assert fast.bit_generator.state == slow.bit_generator.state

    def test_limited_independence_collision_bound(self, rng):
        # Pr[|Sigma(i - j)| <= t] <= 2 (2t/n)^d plus sampling slack for
        # t in {2, 4}. At t=1 that constant is unreachable: odd determinant
        # forces Sigma v != 0 mod 2, the image spreads uniformly over the
        # three nonzero parity classes, and the exact ball probability is
        # (8/3) / (n/2)^2 = 32/(3 n^2), above 8/n^2. The t=1 check pins
        # that parity-exact value instead.
        n, d = 16, 2
        diff = (np.array([3, 7]) - np.array([12, 2])) % n
        trials = 100_000
        hits = {1: 0, 2: 0, 4: 0}
        for _ in range(trials):
            perm = sample_permutation(n, d, rng)
            img = (perm.sigma @ diff) % n
            dist = int(np.minimum(img, n - img).max())
            for t in hits:
                if dist <= t:
                    hits[t] += 1
        for t in (2, 4):
            bound = 2.0 * (2.0 * t / n) ** d
            slack = 4.0 * np.sqrt(bound / trials) + 2.0 / trials
            assert hits[t] / trials <= bound + slack
        exact_t1 = 32.0 / (3.0 * n**2)
        slack = 4.0 * np.sqrt(exact_t1 / trials)
        assert abs(hits[1] / trials - exact_t1) <= slack


class TestPermuteIndex:
    def test_shift_origin_maps_to_zero(self, rng):
        perm = sample_permutation(32, 2, rng)
        assert perm.forward_array(perm.q[None, :]).tolist() == [[0, 0]]

    def test_identity_permutation(self):
        perm = SpectrumPermutation(n=8, sigma=np.eye(2, dtype=np.int64), q=np.zeros(2))
        coords = np.array([(0, 0), (3, 5), (7, 7)])
        assert np.array_equal(perm.forward_array(coords), coords)

    def test_exhaustive_bijectivity_n8_d2(self, rng):
        perm = sample_permutation(8, 2, rng)
        images = perm.forward_array(all_indices(8, 2))
        assert np.unique(flat_of(images, 8)).size == 64

    def test_inverse_index_round_trip(self, rng):
        # pi^-1(y) = Sigma^-1 y + q mod n undoes pi.
        perm = sample_permutation(32, 2, rng)
        coords = rng.integers(0, 32, size=(25, 2))
        back = (perm.forward_array(coords) @ perm.sigma_inv.T + perm.q) % 32
        assert np.array_equal(back, coords)

    def test_forward_array_matches_scalar(self, rng):
        perm = sample_permutation(32, 2, rng)
        coords = rng.integers(0, 32, size=(10, 2))
        batch = perm.forward_array(coords)
        for row, out in zip(coords, batch):
            want = [
                sum(int(perm.sigma[r, c]) * (int(row[c]) - int(perm.q[c])) for c in range(2)) % 32
                for r in range(2)
            ]
            assert out.tolist() == want

    def test_shift_is_a_read_only_residue_vector(self):
        perm = SpectrumPermutation(n=8, sigma=np.eye(2, dtype=np.int64), q=[9, -1])
        assert perm.q.tolist() == [1, 7] and perm.q.dtype == np.int64
        with pytest.raises(ValueError):
            perm.q[0] = 0
        with pytest.raises(ParameterError):
            SpectrumPermutation(n=8, sigma=np.eye(2, dtype=np.int64), q=[1, 2, 3])


class TestApplyP:
    def test_identity_parameters_leave_spectrum_alone(self, rng):
        n, d = 8, 1
        xhat = DenseSignal(
            n=n, d=d, values=rng.normal(size=n) + 1j * rng.normal(size=n), domain="frequency"
        )
        perm = SpectrumPermutation(n=n, sigma=np.eye(1, dtype=np.int64), q=np.zeros(1))
        out = apply_P(perm, np.zeros(1, dtype=np.int64), xhat)
        assert np.allclose(out.values, xhat.values, atol=1e-12)

    @pytest.mark.parametrize("n,d", [(8, 1), (8, 2)])
    def test_inversion_identity_against_direct_transform(self, n, d, rng):
        # Time sample i of the permuted spectrum must equal
        # x_i * omega^(a . Sigma i) at position pi(i).
        table = root_table(n)
        for _ in range(10):
            perm = sample_permutation(n, d, rng)
            a = rng.integers(0, n, size=d)
            x = rng.normal(size=(n,) * d) + 1j * rng.normal(size=(n,) * d)
            xhat = direct_transform(x, n, d).reshape((n,) * d)
            permuted = apply_P(
                perm, a, DenseSignal(n=n, d=d, values=xhat, domain="frequency")
            )
            back = direct_transform(permuted.values, n, d, inverse=True).reshape((n,) * d)
            sig_a = (perm.sigma.T @ a) % n
            rows = all_indices(n, d)
            for row, pi_i in zip(rows, perm.forward_array(rows)):
                expo = int(np.dot(sig_a, row)) % n
                expected = x[tuple(row)] * table[expo]
                assert abs(back[tuple(pi_i)] - expected) < 1e-9

    def test_l2_norm_preserved(self, rng):
        n, d = 16, 2
        xhat = DenseSignal(
            n=n,
            d=d,
            values=rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
            domain="frequency",
        )
        perm = sample_permutation(n, d, rng)
        a = rng.integers(0, n, size=d)
        out = apply_P(perm, a, xhat)
        assert np.linalg.norm(out.values) == pytest.approx(
            np.linalg.norm(xhat.values), abs=1e-10
        )

    def test_requires_frequency_domain(self, rng):
        x = DenseSignal(n=8, d=1, values=np.zeros(8, dtype=complex), domain="time")
        perm = sample_permutation(8, 1, rng)
        with pytest.raises(ParameterError):
            apply_P(perm, np.zeros(1, dtype=np.int64), x)


class TestBucketMap:
    def test_zero_lands_in_bucket_zero(self, rng):
        h = make_hashing(64, 1, 8, 4, rng)
        i = h.perm.q[None, :]  # pi(q) = 0
        assert h.bucket_of_array(i).tolist() == [[0]]

    def test_rounding_example_pi36(self, rng):
        # pi(i) = 36 on a 64-ring with 8 buckets rounds to bucket 5 and the
        # bucket center sits 4 <= 8 away.
        h = make_hashing(64, 1, 8, 4, rng)
        i = (h.perm.sigma_inv @ [36] + h.perm.q) % 64
        assert h.perm.forward_array(i[None, :]).tolist() == [[36]]
        assert h.bucket_of_array(i[None, :]).tolist() == [[5]]
        assert abs(8 * 5 - 36) <= 8

    def test_center_distance_invariant_exhaustive(self, rng):
        h = make_hashing(64, 1, 8, 4, rng)
        coords = all_indices(64, 1)
        pi = h.perm.forward_array(coords)
        centers = h.center_of_array(coords)
        delta = (pi - centers) % 64
        dist = np.minimum(delta, 64 - delta)
        assert int(dist.max()) <= 64 // 8

    def test_center_distance_invariant_2d(self, rng):
        h = make_hashing(16, 2, 16, 4, rng)
        coords = all_indices(16, 2)
        pi = h.perm.forward_array(coords)
        centers = h.center_of_array(coords)
        delta = (pi - centers) % 16
        dist = np.minimum(delta, 16 - delta)
        assert int(dist.max()) <= 16 // 4


def offset(h, i, j):
    """o_i(j) = pi(j) - (n/b) h(i) mod n for (m, d) coordinate arrays."""
    return (h.perm.forward_array(j) - h.center_of_array(i)) % h.n


class TestOffsets:
    def test_own_offset_stays_on_filter_plateau(self, rng):
        for _ in range(20):
            h = make_hashing(64, 1, 8, 4, rng)
            i = rng.integers(64, size=(1, 1))
            o = offset(h, i, i)[0]
            assert max(min(c, 64 - c) for c in o.tolist()) <= 64 // 16
            assert abs(h.filter.g_at(o)) >= (2 * np.pi) ** -4

    def test_trivial_geometry_gives_plain_difference(self):
        n = 16
        perm = SpectrumPermutation(n=n, sigma=np.eye(1, dtype=np.int64), q=np.zeros(1))
        filt = cached_bucket_filter(n, 1, 16, 4)
        h = Hashing(perm, filt)
        i, j = np.array([[5]]), np.array([[9]])
        assert offset(h, i, j).tolist() == ((j - i) % n).tolist()

    @given(st.integers(min_value=0, max_value=4095))
    @settings(max_examples=40, deadline=None)
    def test_offset_recomputes_from_parts(self, raw):
        # The center of i's bucket is (n/b) times the nearest-bucket rounding
        # (ties up) of pi(i) * b/n, computed here one coordinate at a time.
        rng = np.random.default_rng(raw)
        h = make_hashing(64, 2, 64, 4, rng)
        i = np.array([[raw % 64, (raw // 64) % 64]])
        j = rng.integers(64, size=(1, 2))
        pi_i, pi_j = h.perm.forward_array(i)[0], h.perm.forward_array(j)[0]
        center = [8 * ((int(p) + 4) // 8 % 8) for p in pi_i]
        want = [(int(p) - c) % 64 for p, c in zip(pi_j, center)]
        assert offset(h, i, j)[0].tolist() == want


class TestIsolation:
    def test_empty_rest_is_isolated(self, rng):
        h = make_hashing(64, 1, 8, 4, rng)
        assert is_isolated(3, np.array([3]), h)

    @pytest.mark.parametrize("t", range(7))
    def test_scale_threshold_is_the_stated_count(self, t):
        # At scale t at most (2 pi)^(-dF) alpha^(d/2) 2^((t+1)d + t) others
        # may lie within (n/b) 2^t of i's bucket center, alpha being
        # Tunables' by default: here d = 1, F = 2 and all others lie within
        # n/b. Under the identity permutation index 0 sits on its center.
        n, b = 4096, 8
        perm = SpectrumPermutation(n=n, sigma=np.eye(1, dtype=np.int64), q=np.zeros(1))
        h = Hashing(perm, cached_bucket_filter(n, 1, b, 2))
        allowed = (2 * np.pi) ** -2 * Tunables().alpha ** 0.5 * 2.0 ** (2 * t + 1)
        most = int(allowed)
        assert is_isolated(0, np.arange(most + 1), h, scale=t)
        assert not is_isolated(0, np.arange(most + 2), h, scale=t)

    def test_isolation_probability_floor(self, rng):
        # Random supports of size 2k under B >= 8 k / alpha^d buckets:
        # isolation should fail with probability well under sqrt(alpha).
        n, d, k, alpha = 4096, 1, 8, 0.25
        B = 512
        filt = cached_bucket_filter(n, d, B, 2)
        hits = 0
        trials = 500
        S = rng.choice(n, size=2 * k, replace=False)
        target = int(S[0])
        for _ in range(trials):
            h = Hashing(sample_permutation(n, d, rng), filt)
            if is_isolated(target, S, h, alpha=alpha):
                hits += 1
        assert hits / trials >= 1 - np.sqrt(alpha)
