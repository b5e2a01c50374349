"""Grid arithmetic, signal containers, and parameter records shared by all modules.

Everything downstream works over the d-dimensional ring [0, n)^d with n a
power of two. Indices are stored as nonnegative residues; formulas stated for
signed index ranges map onto these via the circular distance min(r, n-r).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "ParameterError",
    "DimensionError",
    "ScaleGuardError",
    "DivergenceError",
    "is_power_of_two",
    "next_power_of_two",
    "unit_roots",
    "capped_bucket_count",
    "digit_base",
    "GridIndex",
    "ProbePair",
    "star",
    "positive_part",
    "DenseSignal",
    "SparseApprox",
    "Tunables",
    "RecoveryParams",
]


class ParameterError(ValueError):
    """A structural parameter (n, B, F, ...) violates its contract."""


class DimensionError(ParameterError):
    """Two objects over incompatible grids were combined."""


class ScaleGuardError(RuntimeError):
    """A brute-force diagnostic was asked to run beyond its cost budget."""


class DivergenceError(RuntimeError):
    """The recovery loop grew its approximation instead of shrinking the residual."""


def is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


def next_power_of_two(m: int) -> int:
    """Smallest power of two >= m (m >= 1)."""
    if m < 1:
        raise ParameterError(f"need a positive size, got {m}")
    return 1 << (int(m) - 1).bit_length()


@lru_cache(maxsize=32)
def unit_roots(n: int, sign: int) -> np.ndarray:
    """Read-only table of exp(sign * 2*pi*i * e / n) for e = 0..n-1.

    Built with the same elementwise expression the kernels used to evaluate
    per call, so table[e] is bit-identical to np.exp(sign*2j*np.pi*e/n).
    """
    if sign not in (1, -1):
        raise ParameterError(f"root sign must be +1 or -1, got {sign}")
    table = np.exp(sign * 2j * np.pi * np.arange(n) / n)
    table.flags.writeable = False
    return table


def capped_bucket_count(n: int, d: int, target: float) -> int:
    """Smallest B = b^d (b a power of two, 4 <= b <= n/2) with B >= target.

    When the per-axis side needed for the target exceeds n/2, b is clamped
    there and a RuntimeWarning names the requested and the capped side: the
    clamped B no longer meets the target, and a bucketing pass at b = n/2
    reads about as many samples as a dense transform.
    """
    b = next_power_of_two(max(4, math.ceil(target ** (1.0 / d))))
    cap = max(4, n // 2)
    if b > cap:
        warnings.warn(
            f"bucket side b={b} needed for B >= {target:.4g} exceeds the n/2 "
            f"cap on the n={n} grid; capped at b={cap} (B={cap**d})",
            RuntimeWarning,
            stacklevel=3,
        )
        b = cap
    return b**d


def positive_part(v: float) -> float:
    """max(v, 0)."""
    return v if v > 0.0 else 0.0


@dataclass(frozen=True)
class GridIndex:
    """An element of [0, n)^d with wrap-around arithmetic.

    Coordinates are canonical residues mod n. Instances are immutable and
    hashable, so they serve as sparse-map keys.
    """

    n: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if not is_power_of_two(self.n):
            raise ParameterError(f"grid side must be a power of two, got n={self.n}")
        if len(self.coords) < 1:
            raise ParameterError("grid index needs at least one coordinate")
        if any(c < 0 or c >= self.n for c in self.coords):
            object.__setattr__(
                self, "coords", tuple(int(c) % self.n for c in self.coords)
            )
        else:
            object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))

    @property
    def d(self) -> int:
        return len(self.coords)

    @staticmethod
    def zero(n: int, d: int) -> "GridIndex":
        return GridIndex(n, (0,) * d)

    @staticmethod
    def ones(n: int, d: int) -> "GridIndex":
        return GridIndex(n, (1,) * d)

    @staticmethod
    def unit(n: int, d: int, axis: int) -> "GridIndex":
        """The standard basis vector for one axis."""
        if not 0 <= axis < d:
            raise ParameterError(f"axis {axis} out of range for d={d}")
        coords = [0] * d
        coords[axis] = 1
        return GridIndex(n, tuple(coords))

    @staticmethod
    def from_array(n: int, arr: Iterable[int]) -> "GridIndex":
        return GridIndex(n, tuple(int(a) % n for a in arr))

    def to_array(self) -> np.ndarray:
        return np.array(self.coords, dtype=np.int64)

    def _check_compatible(self, other: "GridIndex") -> None:
        if self.n != other.n or self.d != other.d:
            raise DimensionError(
                f"incompatible grids: ({self.n},{self.d}) vs ({other.n},{other.d})"
            )

    def __add__(self, other: "GridIndex") -> "GridIndex":
        self._check_compatible(other)
        return GridIndex(
            self.n, tuple((a + b) % self.n for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "GridIndex") -> "GridIndex":
        self._check_compatible(other)
        return GridIndex(
            self.n, tuple((a - b) % self.n for a, b in zip(self.coords, other.coords))
        )

    def scaled(self, factor: int) -> "GridIndex":
        """Componentwise multiple mod n."""
        return GridIndex(self.n, tuple((factor * c) % self.n for c in self.coords))

    def circular_norm(self) -> int:
        """max over coordinates of the wrap-around distance to zero."""
        return max(min(c, self.n - c) for c in self.coords)


@dataclass(frozen=True)
class ProbePair:
    """A probe a = (alpha, beta): two grid vectors combined through `star`."""

    alpha: GridIndex
    beta: GridIndex

    def __post_init__(self) -> None:
        self.alpha._check_compatible(self.beta)

    @property
    def n(self) -> int:
        return self.alpha.n

    @property
    def d(self) -> int:
        return self.alpha.d


def star(pair1: ProbePair, pair2: ProbePair) -> GridIndex:
    """Componentwise pairing (a1,b1) * (a2,b2) -> a1*a2 + b1*b2 mod n.

    Bilinear over componentwise pair addition: a*b + a*c == a*(b+c) mod n.
    """
    if pair1.n != pair2.n or pair1.d != pair2.d:
        raise DimensionError(
            f"incompatible probe pairs: ({pair1.n},{pair1.d}) vs ({pair2.n},{pair2.d})"
        )
    n = pair1.n
    coords = tuple(
        (a1 * a2 + b1 * b2) % n
        for a1, b1, a2, b2 in zip(
            pair1.alpha.coords, pair1.beta.coords, pair2.alpha.coords, pair2.beta.coords
        )
    )
    return GridIndex(n, coords)


@dataclass
class DenseSignal:
    """A complex signal over the full grid, tagged with its domain.

    `values` is an (n,)*d complex128 array in row-major order. The tag is
    bookkeeping only; transforms check it so a spectrum is never transformed
    forward twice by accident.
    """

    n: int
    d: int
    values: np.ndarray
    domain: str = "time"

    def __post_init__(self) -> None:
        if not is_power_of_two(self.n):
            raise ParameterError(f"grid side must be a power of two, got n={self.n}")
        if self.d < 1:
            raise ParameterError(f"dimension must be >= 1, got d={self.d}")
        if self.domain not in ("time", "frequency"):
            raise ParameterError(f"unknown domain tag {self.domain!r}")
        expected = (self.n,) * self.d
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.shape == (self.n**self.d,):
            arr = arr.reshape(expected)
        if arr.shape != expected:
            raise ParameterError(
                f"values shape {arr.shape} does not match grid {expected}"
            )
        self.values = arr

    @staticmethod
    def zeros(n: int, d: int, domain: str = "time") -> "DenseSignal":
        return DenseSignal(n, d, np.zeros((n,) * d, dtype=np.complex128), domain)

    @property
    def N(self) -> int:
        """Total number of grid points n^d."""
        return self.n**self.d

    def copy(self) -> "DenseSignal":
        return DenseSignal(self.n, self.d, self.values.copy(), self.domain)

    def norm2(self) -> float:
        return float(np.linalg.norm(self.values))

    def at(self, idx: GridIndex) -> complex:
        return complex(self.values[idx.coords])


class SparseApprox:
    """A sparse map from grid indices to complex values (the running chi).

    Zero-valued entries are never stored; addition merges supports and drops
    exact cancellations.
    """

    __slots__ = ("n", "d", "entries")

    def __init__(
        self, n: int, d: int, entries: Mapping[GridIndex, complex] | None = None
    ) -> None:
        if not is_power_of_two(n):
            raise ParameterError(f"grid side must be a power of two, got n={n}")
        if d < 1:
            raise ParameterError(f"dimension must be >= 1, got d={d}")
        self.n = n
        self.d = d
        self.entries: dict[GridIndex, complex] = {}
        if entries:
            for idx, val in entries.items():
                if idx.n != n or idx.d != d:
                    raise DimensionError(
                        f"entry {idx} does not live on the ({n},{d}) grid"
                    )
                v = complex(val)
                if v != 0:
                    self.entries[idx] = v

    @staticmethod
    def empty(n: int, d: int) -> "SparseApprox":
        return SparseApprox(n, d)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[GridIndex]:
        return iter(self.entries)

    def __contains__(self, idx: GridIndex) -> bool:
        return idx in self.entries

    def get(self, idx: GridIndex) -> complex:
        return self.entries.get(idx, 0j)

    def items(self):
        return self.entries.items()

    def support(self) -> set[GridIndex]:
        return set(self.entries)

    def __add__(self, other: "SparseApprox") -> "SparseApprox":
        if other.n != self.n or other.d != self.d:
            raise DimensionError("cannot add approximations over different grids")
        merged = dict(self.entries)
        for idx, val in other.entries.items():
            merged[idx] = merged.get(idx, 0j) + val
        return SparseApprox(self.n, self.d, merged)

    def __neg__(self) -> "SparseApprox":
        return SparseApprox(
            self.n, self.d, {idx: -val for idx, val in self.entries.items()}
        )

    def norm1(self) -> float:
        return float(sum(abs(v) for v in self.entries.values()))

    def norm2(self) -> float:
        return math.sqrt(sum(abs(v) ** 2 for v in self.entries.values()))

    def norm_inf(self) -> float:
        return max((abs(v) for v in self.entries.values()), default=0.0)

    def restricted(self, keep: Iterable[GridIndex]) -> "SparseApprox":
        keep_set = set(keep)
        return SparseApprox(
            self.n,
            self.d,
            {idx: v for idx, v in self.entries.items() if idx in keep_set},
        )

    def largest(self, m: int) -> "SparseApprox":
        """Restriction to the m entries of largest magnitude."""
        if m <= 0:
            return SparseApprox(self.n, self.d)
        ranked = sorted(self.entries.items(), key=lambda kv: -abs(kv[1]))[:m]
        return SparseApprox(self.n, self.d, dict(ranked))

    def drop_below(self, floor: float) -> "SparseApprox":
        """Remove entries with magnitude <= floor."""
        return SparseApprox(
            self.n, self.d, {i: v for i, v in self.entries.items() if abs(v) > floor}
        )

    def to_dense(self, domain: str = "frequency") -> DenseSignal:
        sig = DenseSignal.zeros(self.n, self.d, domain)
        for idx, val in self.entries.items():
            sig.values[idx.coords] = val
        return sig

    def coords_array(self) -> np.ndarray:
        """Support as an (m, d) int array, insertion-ordered."""
        if not self.entries:
            return np.zeros((0, self.d), dtype=np.int64)
        return np.array([idx.coords for idx in self.entries], dtype=np.int64)

    def values_array(self) -> np.ndarray:
        if not self.entries:
            return np.zeros(0, dtype=np.complex128)
        return np.array(list(self.entries.values()), dtype=np.complex128)


@dataclass(frozen=True)
class Tunables:
    """Every proof-driven constant, in one place.

    Asymptotic statements leave multiplicative constants and "sufficiently
    large C" repetition counts open; these defaults are calibrated for grids
    up to n = 2^20, d <= 4, and are all overridable.
    """

    # B >= bucket_scale * k / alpha^d (smallest power of 2^d), localization.
    bucket_scale: float = 8.0
    # B_est >= bucket_scale * k / (epsilon * alpha^(2d)) for estimation.
    # Repetition counts: r_max ~ location_reps_coeff/sqrt(alpha) * loglogN,
    # c_max ~ probes_coeff/sqrt(alpha) * loglogN.
    location_reps_coeff: float = 1.0
    probes_coeff: float = 2.0
    # Inner iterations of the L1 reduction: ceil(4 * loglogN) (= log2 of log^4 N).
    inner_iters_coeff: float = 4.0
    # Estimation repetitions: est_reps_coeff * (loglogN + d^2 + log2(B/k)).
    est_reps_coeff: float = 1.0
    # Fraction of probes that must accept a digit, and the acceptance radius.
    vote_fraction: float = 3.0 / 5.0
    ratio_tolerance: float = 1.0 / 3.0
    # Thresholding inside the L1 loop: (l1_threshold_frac * nu * 2^-t) + head_bias * mu.
    l1_threshold_frac: float = 1.0 / 1000.0
    head_bias: float = 4.0
    # Infinity-norm stage: hashings ~ inf_hashings_coeff/sqrt(alpha) * log2 N,
    # estimation reps ~ inf_est_reps_coeff * log2 N, threshold 5*(nu 2^..+mu).
    inf_hashings_coeff: float = 0.2
    inf_est_reps_coeff: float = 0.5
    inf_threshold_scale: float = 5.0
    # Constant-SNR stage keeps the top snr_keep_factor * k estimates.
    snr_keep_factor: int = 4
    # Relative floor replacing mu = 0 on exact-sparse inputs.
    mu_floor_rel: float = 1e-10
    # Zero-drop floor for nu = 0 estimation and the final support prune,
    # relative to the residual bucket scale.
    zero_floor_rel: float = 1e-7
    # Reference measurements below this magnitude vote against every digit.
    near_zero: float = 1e-12
    # Abort if the approximation's l1 mass exceeds this multiple of its
    # first-iteration value.
    divergence_factor: float = 10.0
    # Cost ceiling for brute-force diagnostics (N * |S| operations).
    diagnostic_budget: int = 200_000_000


def _loglog2(n_total: int) -> float:
    return math.log2(max(2.0, math.log2(max(4, n_total))))


def digit_base(n: int) -> int:
    """Digit base for location ladders: 2^floor(0.5 * log2 log2 n), at least 2."""
    return max(2, 1 << int(0.5 * math.log2(max(2.0, math.log2(max(4, n))))))


@dataclass
class RecoveryParams:
    """Everything the recovery guarantees quantify over, plus the grid shape.

    Use `derive` to fill repetition counts and bucket sizes from (n, d, k)
    and the tunables; direct construction is for tests that pin exact values.
    """

    n: int
    d: int
    k: int
    alpha: float
    epsilon: float
    mu: float
    r_star: float
    F: int
    B: int
    r_max: int
    c_max: int
    T: int
    seed: int = 0
    tunables: Tunables = field(default_factory=Tunables)

    def __post_init__(self) -> None:
        if not is_power_of_two(self.n):
            raise ParameterError(f"grid side must be a power of two, got n={self.n}")
        if self.d < 1 or self.k < 1:
            raise ParameterError(f"need d >= 1 and k >= 1, got d={self.d}, k={self.k}")
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(f"alpha must lie in (0,1), got {self.alpha}")
        if self.epsilon <= 0.0:
            raise ParameterError(f"epsilon must be positive, got {self.epsilon}")
        if self.mu < 0.0 or self.r_star < 1.0:
            raise ParameterError("need mu >= 0 and r_star >= 1")
        if self.F % 2 != 0 or self.F < 2 * self.d:
            raise ParameterError(f"F must be even and >= 2d, got F={self.F}, d={self.d}")
        b = round(self.B ** (1.0 / self.d))
        if b**self.d != self.B or not is_power_of_two(b):
            raise ParameterError(f"B={self.B} is not a power of 2^d for d={self.d}")
        if self.B < self.k:
            raise ParameterError(f"need B >= k, got B={self.B} < k={self.k}")
        if min(self.r_max, self.c_max, self.T) < 1:
            raise ParameterError("repetition counts and T must be >= 1")
        # Location tests each probe against its nearest root only; that is
        # exact when the tolerance disks of adjacent roots cannot overlap.
        # Every ladder base is <= delta, so delta is the binding case.
        if self.tunables.ratio_tolerance >= math.sin(math.pi / self.delta):
            raise ParameterError(
                f"ratio_tolerance {self.tunables.ratio_tolerance} must lie below "
                f"sin(pi/{self.delta}) = {math.sin(math.pi / self.delta):.4f}"
            )

    @property
    def N(self) -> int:
        return self.n**self.d

    @property
    def b(self) -> int:
        return round(self.B ** (1.0 / self.d))

    @property
    def delta(self) -> int:
        """Digit base for location digits; see `digit_base`."""
        return digit_base(self.n)

    @staticmethod
    def bucket_count(
        n: int, d: int, k: int, alpha: float, scale: float
    ) -> int:
        """Smallest B = b^d (b a power of two, 4 <= b <= n/2) with
        B >= scale*k/alpha^d; see `capped_bucket_count`."""
        return capped_bucket_count(n, d, scale * k / alpha**d)

    @classmethod
    def derive(
        cls,
        n: int,
        d: int,
        k: int,
        *,
        epsilon: float = 1.0,
        mu: float = 0.0,
        r_star: float = 2.0,
        seed: int = 0,
        alpha: float = 0.25,
        F: int | None = None,
        B: int | None = None,
        r_max: int | None = None,
        c_max: int | None = None,
        T: int | None = None,
        tunables: Tunables | None = None,
    ) -> "RecoveryParams":
        tun = tunables or Tunables()
        N = n**d
        loglog = _loglog2(N)
        if F is None:
            F = 2 * d
        if B is None:
            B = cls.bucket_count(n, d, k, alpha, tun.bucket_scale)
        if r_max is None:
            r_max = max(3, math.ceil(tun.location_reps_coeff / math.sqrt(alpha) * loglog))
        if c_max is None:
            c_max = max(8, math.ceil(tun.probes_coeff / math.sqrt(alpha) * loglog))
        if T is None:
            log4N = math.log2(N) ** 4
            T = max(1, math.ceil(math.log(max(r_star, 2.0)) / math.log(log4N)))
        return cls(
            n=n,
            d=d,
            k=k,
            alpha=alpha,
            epsilon=epsilon,
            mu=mu,
            r_star=r_star,
            F=F,
            B=B,
            r_max=r_max,
            c_max=c_max,
            T=T,
            seed=seed,
            tunables=tun,
        )

    def with_overrides(self, **kwargs) -> "RecoveryParams":
        return replace(self, **kwargs)
