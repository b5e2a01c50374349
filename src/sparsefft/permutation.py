"""Random spectrum permutations and the hashing of frequencies into buckets.

A permutation is a pair (Sigma, q) with Sigma an odd-determinant d x d
integer matrix mod n, acting on indices as pi(i) = Sigma(i - q) mod n. Odd
determinant makes Sigma invertible on the ring, so pi is a bijection.

A hashing combines a permutation with a bucket count B = b^d and a bucket
filter of sharpness F: frequency i lands in bucket h(i), the nearest-bucket
rounding of pi(i) * b/n, and o_i(j) = pi(j) - (n/b) h(i) is the offset of j
relative to i's bucket center.

Indices follow the library's one format (see `core`): a single index is a
row-major flat int, a set of indices a flat int64 array, and where a
formula needs coordinates they are an (m, d) int64 array (`forward_array`,
`bucket_of_array`, `center_of_array`) or a (d,) array for one point (the
shift q, a modulation a).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DenseSignal, ParameterError
from .filters import BucketFilter

__all__ = [
    "SpectrumPermutation",
    "Hashing",
    "sample_permutation",
    "apply_P",
    "is_isolated",
]


def _int_det(m: list[list[int]]) -> int:
    """Exact determinant by Laplace expansion (d is tiny)."""
    size = len(m)
    if size == 1:
        return m[0][0]
    total = 0
    for col in range(size):
        minor = [row[:col] + row[col + 1 :] for row in m[1:]]
        term = m[0][col] * _int_det(minor)
        total += term if col % 2 == 0 else -term
    return total


def _adjugate(m: list[list[int]]) -> list[list[int]]:
    """Exact adjugate (transpose of cofactors), so m @ adj = det * I."""
    size = len(m)
    if size == 1:
        return [[1]]
    adj = [[0] * size for _ in range(size)]
    for r in range(size):
        for c in range(size):
            minor = [
                [m[i][j] for j in range(size) if j != c]
                for i in range(size)
                if i != r
            ]
            sign = -1 if (r + c) % 2 else 1
            adj[c][r] = sign * _int_det(minor)
    return adj


@dataclass(frozen=True, eq=False)
class SpectrumPermutation:
    """pi(i) = Sigma(i - q) mod n with Sigma invertible mod n."""

    n: int
    sigma: np.ndarray  # (d, d) int64, entries reduced mod n
    q: np.ndarray  # (d,) int64, entries reduced mod n; read-only
    sigma_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        sigma = np.asarray(self.sigma, dtype=np.int64) % self.n
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ParameterError(f"sigma must be square, got shape {sigma.shape}")
        q = np.asarray(self.q, dtype=np.int64) % self.n
        if q.shape != (sigma.shape[0],):
            raise ParameterError("shift q does not match the sigma matrix")
        q.flags.writeable = False
        rows = sigma.tolist()
        det = _int_det(rows)
        if det % 2 == 0:
            raise ParameterError("sigma must have odd determinant mod n")
        det_inv = pow(det, -1, self.n)
        adj = _adjugate(rows)
        inv = [[(det_inv * entry) % self.n for entry in row] for row in adj]
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "sigma_inv", np.array(inv, dtype=np.int64))

    @property
    def d(self) -> int:
        return self.sigma.shape[0]

    def forward_array(self, coords: np.ndarray) -> np.ndarray:
        """pi over an (m, d) array of indices, returning residues in [0, n)."""
        shifted = (np.asarray(coords, dtype=np.int64) - self.q) % self.n
        return (shifted @ self.sigma.T) % self.n


def sample_permutation(n: int, d: int, rng: np.random.Generator) -> SpectrumPermutation:
    """Uniform odd-determinant Sigma (by rejection) and uniform shift q."""
    while True:
        sigma = rng.integers(0, n, size=(d, d), dtype=np.int64)
        if _int_det(sigma.tolist()) % 2 == 1:
            break
    q = rng.integers(0, n, size=d, dtype=np.int64)
    return SpectrumPermutation(n=n, sigma=sigma, q=q)


def apply_P(perm: SpectrumPermutation, a: np.ndarray, xhat: DenseSignal) -> DenseSignal:
    """Permute and modulate a dense spectrum; a is a (d,) integer vector.

    Entry i of the result is xhat[Sigma^T (i - a)] * omega^(i . Sigma q),
    which in time domain shuffles samples to pi(i) and modulates them by
    omega^(a . Sigma i).
    """
    if xhat.domain != "frequency":
        raise ParameterError("apply_P expects a frequency-domain signal")
    n, d = xhat.n, xhat.d
    coords = np.indices((n,) * d).reshape(d, -1).T
    src = ((coords - np.asarray(a, dtype=np.int64)) @ perm.sigma) % n
    flat_src = np.ravel_multi_index(src.T, (n,) * d)
    sq = (perm.sigma @ perm.q) % n
    expo = (coords @ sq) % n
    phase = np.exp(2j * np.pi * expo / n)
    values = xhat.values.reshape(-1)[flat_src] * phase
    return DenseSignal(n=n, d=d, values=values.reshape((n,) * d), domain="frequency")


@dataclass(frozen=True, eq=False)
class Hashing:
    """A permutation plus a bucket filter: H = (pi, B, F), with B and F read
    from the filter."""

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
    def B(self) -> int:
        return self.filter.B

    @property
    def F(self) -> int:
        return self.filter.F

    @property
    def b(self) -> int:
        return self.filter.b

    def bucket_of_array(self, coords: np.ndarray) -> np.ndarray:
        """Nearest-bucket rounding of pi(i) * b/n, componentwise mod b."""
        pi = self.perm.forward_array(coords)
        return ((2 * pi * self.b + self.n) // (2 * self.n)) % self.b

    def center_of_array(self, coords: np.ndarray) -> np.ndarray:
        """(n/b) * h(i): the frequency each index's bucket is centered on."""
        return (self.n // self.b) * self.bucket_of_array(coords)


def is_isolated(
    i: int,
    S: np.ndarray,
    hashing: Hashing,
    scale: int | None = None,
    alpha: float = 0.25,
) -> bool:
    """Whether flat index i's bucket neighborhood is sparse enough in
    pi(S - {i}), S an array of flat indices.

    At scale t, at most (2 pi)^(-dF) * alpha^(d/2) * 2^((t+1)d) * 2^t elements
    of pi(S - {i}) may fall in the ell_inf ball of radius (n/b) 2^t around
    i's bucket center. scale=None checks every scale.
    """
    n, d, b = hashing.n, hashing.d, hashing.b
    S = np.asarray(S, dtype=np.int64)
    others = S[S != i]
    if not others.size:
        return True
    coords = np.stack(np.unravel_index(np.append(others, i), (n,) * d), axis=-1)
    pi = hashing.perm.forward_array(coords[:-1])
    center = hashing.center_of_array(coords[-1:])[0]
    delta = (pi - center) % n
    dist = np.minimum(delta, n - delta).max(axis=1)

    def ok(t: int) -> bool:
        radius = (n // b) << t
        count = int((dist <= radius).sum())
        threshold = (2 * np.pi) ** (-d * hashing.F) * alpha ** (d / 2) * 2.0 ** ((t + 1) * d + t)
        return count <= threshold

    if scale is not None:
        return ok(scale)
    t = 0
    while True:
        if not ok(t):
            return False
        radius = (n // b) << t
        threshold = (2 * np.pi) ** (-d * hashing.F) * alpha ** (d / 2) * 2.0 ** ((t + 1) * d + t)
        if radius >= n // 2 and threshold >= len(others):
            return True
        t += 1
