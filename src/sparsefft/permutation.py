"""Random spectrum permutations and the hashing of frequencies into buckets.

A permutation is a pair (Sigma, q) with Sigma an odd-determinant d x d
integer matrix mod n, acting on indices as pi(i) = Sigma(i - q) mod n. Odd
determinant makes Sigma invertible on the ring (n is a power of two), so pi
is a bijection; its inverse comes from one Gauss-Jordan elimination mod n
(_inverse_mod), which also decides the determinant's parity.

A hashing combines a permutation with a bucket count B = b^d and a bucket
filter of sharpness F: frequency i lands in bucket h(i), the nearest-bucket
rounding of pi(i) * b/n, and o_i(j) = pi(j) - (n/b) h(i) is the offset of j
relative to i's bucket center.

Indices follow the library's one format (see `core`): a single index is a
row-major flat int, a set of indices a flat int64 array, and where a
formula needs coordinates they are an (m, d) int64 array (`forward_array`,
`bucket_of_array`, `center_of_array`) or a (d,) array for one point (the
shift q).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ParameterError, Tunables, is_power_of_two
from .filters import BucketFilter

__all__ = [
    "SpectrumPermutation",
    "Hashing",
    "sample_permutation",
    "is_isolated",
]


def _inverse_mod(sigma: np.ndarray, n: int) -> np.ndarray | None:
    """Inverse of the square integer matrix sigma mod the power of two n, by
    Gauss-Jordan elimination with odd pivots; None when det(sigma) is even.

    Odd numbers are the units mod n, and elimination mod n reduces mod 2 to
    elimination over GF(2), so an odd pivot exists in every column exactly
    when the determinant is odd. The inverse mod n is unique.
    """
    d = len(sigma)
    rows = [
        [int(v) % n for v in row] + [int(i == j) for j in range(d)]
        for i, row in enumerate(sigma.tolist())
    ]
    for c in range(d):
        pivot = next((r for r in range(c, d) if rows[r][c] & 1), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        unit = pow(rows[c][c], -1, n)
        rows[c] = [(v * unit) % n for v in rows[c]]
        for r in range(d):
            factor = rows[r][c]
            if r != c and factor:
                rows[r] = [(v - factor * w) % n for v, w in zip(rows[r], rows[c])]
    return np.array([row[d:] for row in rows], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class SpectrumPermutation:
    """pi(i) = Sigma(i - q) mod n with Sigma invertible mod n.

    sigma_inv is computed when left out; a caller that already holds the
    inverse may pass it, and it is checked against sigma.
    """

    n: int
    sigma: np.ndarray  # (d, d) int64, entries reduced mod n
    q: np.ndarray  # (d,) int64, entries reduced mod n; read-only
    sigma_inv: np.ndarray | None = field(default=None, repr=False, kw_only=True)

    def __post_init__(self) -> None:
        if not is_power_of_two(self.n):
            raise ParameterError(f"grid side must be a power of two, got n={self.n}")
        sigma = np.asarray(self.sigma, dtype=np.int64) % self.n
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ParameterError(f"sigma must be square, got shape {sigma.shape}")
        q = np.asarray(self.q, dtype=np.int64) % self.n
        if q.shape != (sigma.shape[0],):
            raise ParameterError("shift q does not match the sigma matrix")
        q.flags.writeable = False
        if self.sigma_inv is None:
            inv = _inverse_mod(sigma, self.n)
            if inv is None:
                raise ParameterError("sigma must have odd determinant mod n")
        else:
            inv = np.asarray(self.sigma_inv, dtype=np.int64) % self.n
            eye = np.eye(len(sigma), dtype=np.int64)
            if inv.shape != sigma.shape or not np.array_equal(sigma @ inv % self.n, eye):
                raise ParameterError("sigma_inv is not the inverse of sigma mod n")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "sigma_inv", inv)

    @property
    def d(self) -> int:
        return self.sigma.shape[0]

    def forward_array(self, coords: np.ndarray) -> np.ndarray:
        """pi over an (m, d) array of indices, returning residues in [0, n)."""
        mask = self.n - 1
        shifted = (np.asarray(coords, dtype=np.int64) - self.q) & mask
        return (shifted @ self.sigma.T) & mask


def sample_permutation(n: int, d: int, rng: np.random.Generator) -> SpectrumPermutation:
    """Uniform odd-determinant Sigma (by rejection) and uniform shift q."""
    while True:
        sigma = rng.integers(0, n, size=(d, d), dtype=np.int64)
        sigma_inv = _inverse_mod(sigma, n)
        if sigma_inv is not None:
            break
    q = rng.integers(0, n, size=d, dtype=np.int64)
    return SpectrumPermutation(n=n, sigma=sigma, q=q, sigma_inv=sigma_inv)


@dataclass(frozen=True, eq=False)
class Hashing:
    """A permutation plus a bucket filter: H = (pi, B, F), B and F being
    the filter's."""

    perm: SpectrumPermutation
    filter: BucketFilter

    def __post_init__(self) -> None:
        if self.filter.n != self.perm.n or self.filter.d != self.perm.d:
            raise ParameterError("filter grid does not match the permutation grid")

    @property
    def n(self) -> int:
        return self.perm.n

    @property
    def d(self) -> int:
        return self.perm.d

    @property
    def b(self) -> int:
        return self.filter.b

    def bucket_of_array(self, coords: np.ndarray) -> np.ndarray:
        """Nearest-bucket rounding of pi(i) * b/n, componentwise mod b."""
        return self.bucket_of_images(self.perm.forward_array(coords))

    def bucket_of_images(self, pi: np.ndarray) -> np.ndarray:
        """bucket_of_array from the (m, d) images pi(i) themselves."""
        return ((2 * pi * self.b + self.n) // (2 * self.n)) % self.b

    def center_of_array(self, coords: np.ndarray) -> np.ndarray:
        """(n/b) * h(i): the frequency each index's bucket is centered on."""
        return (self.n // self.b) * self.bucket_of_array(coords)


def is_isolated(
    i: int,
    S: np.ndarray,
    hashing: Hashing,
    scale: int | None = None,
    alpha: float = Tunables.alpha,
) -> bool:
    """Whether flat index i's bucket neighborhood is sparse enough in
    pi(S - {i}), S an array of flat indices.

    At scale t, at most (2 pi)^(-dF) * alpha^(d/2) * 2^((t+1)d) * 2^t elements
    of pi(S - {i}) may fall in the ell_inf ball of radius (n/b) 2^t around
    i's bucket center. scale=None checks every scale.
    """
    n, d, b, F = hashing.n, hashing.d, hashing.b, hashing.filter.F
    S = np.asarray(S, dtype=np.int64)
    others = S[S != i]
    if not others.size:
        return True
    coords = np.stack(np.unravel_index(np.append(others, i), (n,) * d), axis=-1)
    pi = hashing.perm.forward_array(coords[:-1])
    center = hashing.center_of_array(coords[-1:])[0]
    delta = (pi - center) % n
    dist = np.minimum(delta, n - delta).max(axis=1)

    def allowed(t: int) -> float:
        """The most elements of pi(S - {i}) that scale t admits."""
        return (2 * np.pi) ** (-d * F) * alpha ** (d / 2) * 2.0 ** ((t + 1) * d + t)

    def ok(t: int) -> bool:
        return int((dist <= (n // b) << t).sum()) <= allowed(t)

    if scale is not None:
        return ok(scale)
    t = 0
    while True:
        if not ok(t):
            return False
        if (n // b) << t >= n // 2 and allowed(t) >= len(others):
            return True
        t += 1
