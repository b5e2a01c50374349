"""Grid arithmetic, signal containers, and parameter records shared by all modules.

Everything downstream works over the d-dimensional ring [0, n)^d with n a
power of two. Indices are stored as nonnegative residues; formulas stated for
signed index ranges map onto these via the circular distance min(r, n-r).

An index is a row-major flat int64 in [0, n^d), so a set of indices
(a candidate list, a support, a heavy set) is a plain int64 array and
N = n^d must stay below 2^63. Where a formula needs coordinates, they are
an (m, d) int64 array (np.unravel_index of the flat indices), or a (d,)
array for one point such as a permutation shift or a modulation.
SparseApprox stores (flat, values) arrays.
"""
from __future__ import annotations

import math
import numbers
import types
import warnings
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

__all__ = [
    "ParameterError",
    "DimensionError",
    "DivergenceError",
    "is_power_of_two",
    "next_power_of_two",
    "unit_roots",
    "capped_bucket_count",
    "location_bucket_count",
    "estimation_bucket_count",
    "digit_base",
    "bucket_side",
    "DenseSignal",
    "SparseApprox",
    "Tunables",
    "StagePlan",
    "RecoveryParams",
]


class ParameterError(ValueError):
    """A structural parameter (n, B, F, ...) violates its contract."""


class DimensionError(ParameterError):
    """Two objects over incompatible grids were combined."""


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


def bucket_side(B: int, d: int) -> int:
    """Per-axis side b of B = b^d buckets, b a power of two; any other B
    (zero and negative counts included) is a ParameterError."""
    b = round(B ** (1.0 / d)) if B > 0 else 0
    if b**d != B or not is_power_of_two(b):
        raise ParameterError(f"B={B} is not a power of 2^d for d={d}")
    return b


def capped_bucket_count(n: int, d: int, target: float) -> tuple[int, str | None]:
    """(B, note): the smallest B = b^d (b a power of two, 4 <= b <= n/2)
    with B >= target, and None, or a note when b is capped.

    When the per-axis side needed for the target exceeds n/2, b is clamped
    there and the note names the requested and the capped side: the
    clamped B no longer meets the target, and a bucketing pass at b = n/2
    reads about as many samples as a dense transform.
    """
    b = next_power_of_two(max(4, math.ceil(target ** (1.0 / d))))
    cap = max(4, n // 2)
    if b <= cap:
        return b**d, None
    return cap**d, (
        f"bucket side b={b} needed for B >= {target:.4g} exceeds the n/2 "
        f"cap on the n={n} grid; capped at b={cap} (B={cap**d})"
    )


def location_bucket_count(
    n: int, d: int, k: int, epsilon: float, tun: Tunables
) -> tuple[int, str | None]:
    """Location buckets: B >= (bucket_scale / epsilon) * k / alpha^d, capped
    as in `capped_bucket_count`, with its note. epsilon is 1 for the main
    acquisition and the target accuracy for the constant-SNR stage."""
    return capped_bucket_count(n, d, tun.bucket_scale / epsilon * k / tun.alpha**d)


def estimation_bucket_count(
    n: int, d: int, k: int, epsilon: float, tun: Tunables
) -> tuple[int, str | None]:
    """Estimation buckets: B >= bucket_scale * k / (epsilon * alpha^(2d)),
    capped as in `capped_bucket_count`, with its note."""
    return capped_bucket_count(
        n, d, tun.bucket_scale * max(k, 1) / (epsilon * tun.alpha ** (2 * d))
    )


def _fits(value, hint) -> bool:
    """Whether value has the declared type: an int field takes an int (not a
    bool), a float field an int or a float; unions, lists and dicts check
    their members."""
    origin = get_origin(hint)
    if origin in (Union, types.UnionType):
        return any(_fits(value, arg) for arg in get_args(hint))
    if origin is list:
        (item,) = get_args(hint)
        return isinstance(value, (list, tuple)) and all(_fits(v, item) for v in value)
    if origin is dict:
        key, item = get_args(hint)
        return isinstance(value, dict) and all(
            _fits(k, key) and _fits(v, item) for k, v in value.items()
        )
    if hint is type(None):
        return value is None
    if isinstance(value, bool):
        return hint is bool
    if hint is int:
        return isinstance(value, numbers.Integral)
    if hint is float:
        return isinstance(value, numbers.Real)
    return isinstance(value, hint)


@lru_cache(maxsize=None)
def _declared_types(cls: type) -> tuple:
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


def _check_field_types(obj) -> None:
    """ParameterError naming the first dataclass field whose value does not
    have its declared type (see `_fits`)."""
    for name, hint in _declared_types(type(obj)):
        value = getattr(obj, name)
        if not _fits(value, hint):
            kind = hint.__name__ if isinstance(hint, type) else str(hint)
            raise ParameterError(f"{name} must be of type {kind}, got {value!r}")


def _check_targets(**targets: float) -> None:
    """ParameterError unless every given accuracy target is finite and in
    range: epsilon > 0, r_star >= 1, and the noise levels mu and nu >= 0."""
    for name, value in targets.items():
        floor = 1.0 if name == "r_star" else 0.0
        strict = name == "epsilon"
        if not math.isfinite(value) or value < floor or (strict and value == floor):
            relation = ">" if strict else ">="
            raise ParameterError(
                f"{name} must be finite and {relation} {floor:g}, got {value}"
            )


def _first_seen(flat: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-D array, in order of first appearance."""
    _, first = np.unique(flat, return_index=True)
    return flat[np.sort(first)]


# Working set of one block in the streaming kernels (bucketing, residual
# updates, location): 2^20 bytes, i.e. 2^16 complex128 entries, so a block
# and its temporaries stay in cache.
_BLOCK_BYTES = 1 << 20

# Fewest bucket-table rows one batched inverse FFT takes (the last batch of
# a call may be short): pocketfft costs about half as much per point on 8
# rows per call as on one, and any row batch gives the same bits.
_FFT_BATCH_ROWS = 8

# Columns per block of the blocked residual-update product (all of B when B
# is smaller). Blocks of 8 or more columns reproduce the whole product's
# bits. Narrow blocks pay a fixed cost per block and a strided subtraction,
# wide ones a large increment block: 2 MB for 240 rows at 512 columns.
_UPDATE_COLUMNS = 512


def _block_rows(row_bytes: int) -> int:
    """Rows of row_bytes bytes each that fit one block, at least one."""
    return max(1, _BLOCK_BYTES // max(row_bytes, 1))


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

    def norm2(self) -> float:
        return float(np.linalg.norm(self.values))


class SparseApprox:
    """A sparse map from flat grid indices to complex values (the running chi).

    Stored as two aligned arrays: `flat`, distinct row-major flat indices
    in [0, n^d) (int64), and `values` (complex128), both read-only and in
    first-seen order. Zero-valued entries are never stored; addition merges
    supports and drops exact cancellations. Magnitudes are
    np.hypot(re, im), which equals Python's abs() bit for bit.

    `SparseApprox(n, d)` (or `empty`) is the empty map and `from_flat`
    builds any other. `entries` ({flat index: value}, rebuilt on every
    access) and `support()` (the set of flat indices) are plain-Python
    views for comparisons; `coords_array()` gives the support as
    coordinates.
    """

    __slots__ = ("n", "d", "flat", "values")

    def __init__(self, n: int, d: int) -> None:
        if not is_power_of_two(n):
            raise ParameterError(f"grid side must be a power of two, got n={n}")
        if d < 1:
            raise ParameterError(f"dimension must be >= 1, got d={d}")
        if n**d >= 2**63:
            raise ParameterError(f"n^d = {n}^{d} overflows an int64 flat index")
        self.n = n
        self.d = d
        self._store(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.complex128))

    @classmethod
    def from_flat(cls, n: int, d: int, flat, values) -> "SparseApprox":
        """The map flat[t] -> values[t]; flat holds distinct indices in [0, n^d)."""
        out = cls(n, d)
        flat = np.asarray(flat, dtype=np.int64)
        values = np.asarray(values, dtype=np.complex128)
        if flat.ndim != 1 or flat.shape != values.shape:
            raise ParameterError(
                f"need aligned 1-D index and value arrays, got {flat.shape} and {values.shape}"
            )
        if flat.size and (flat.min() < 0 or flat.max() >= n**d):
            raise ParameterError(f"flat index outside [0, {n}^{d})")
        if np.unique(flat).size != flat.size:
            raise ParameterError("flat indices must be distinct")
        out._store(flat, values)
        return out

    def _store(self, flat: np.ndarray, values: np.ndarray) -> None:
        keep = values != 0
        self.flat, self.values = flat[keep], values[keep]
        self.flat.flags.writeable = False
        self.values.flags.writeable = False

    @staticmethod
    def empty(n: int, d: int) -> "SparseApprox":
        return SparseApprox(n, d)

    def __len__(self) -> int:
        return len(self.flat)

    def _magnitudes(self) -> np.ndarray:
        return np.hypot(self.values.real, self.values.imag)

    @property
    def entries(self) -> dict[int, complex]:
        """{flat index: value} in storage order, built on each access."""
        return dict(zip(self.flat.tolist(), self.values.tolist()))

    def support(self) -> set[int]:
        return set(self.flat.tolist())

    def __add__(self, other: "SparseApprox") -> "SparseApprox":
        if other.n != self.n or other.d != self.d:
            raise DimensionError("cannot add approximations over different grids")
        flat = np.concatenate([self.flat, other.flat])
        unique, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
        sums = np.zeros(unique.size, dtype=np.complex128)
        np.add.at(sums, inverse, np.concatenate([self.values, other.values]))
        order = np.argsort(first)
        return SparseApprox.from_flat(self.n, self.d, unique[order], sums[order])

    def __neg__(self) -> "SparseApprox":
        return SparseApprox.from_flat(self.n, self.d, self.flat, -self.values)

    def norm1(self) -> float:
        return float(self._magnitudes().sum())

    def norm2(self) -> float:
        return float(np.linalg.norm(self.values))

    def norm_inf(self) -> float:
        return float(self._magnitudes().max(initial=0.0))

    def largest(self, m: int) -> "SparseApprox":
        """Restriction to the m entries of largest magnitude, largest first;
        ties keep insertion order."""
        order = np.argsort(-self._magnitudes(), kind="stable")[: max(m, 0)]
        return SparseApprox.from_flat(self.n, self.d, self.flat[order], self.values[order])

    def drop_below(self, floor: float) -> "SparseApprox":
        """Remove entries with magnitude <= floor."""
        keep = self._magnitudes() > floor
        return SparseApprox.from_flat(self.n, self.d, self.flat[keep], self.values[keep])

    def to_dense(self, domain: str = "frequency") -> DenseSignal:
        sig = DenseSignal.zeros(self.n, self.d, domain)
        sig.values.reshape(-1)[self.flat] = self.values
        return sig

    def coords_array(self) -> np.ndarray:
        """Support as an (m, d) int64 array, insertion-ordered."""
        return np.stack(np.unravel_index(self.flat, (self.n,) * self.d), axis=-1)


@dataclass(frozen=True)
class Tunables:
    """Every proof-driven constant, in one place.

    Asymptotic statements leave multiplicative constants and "sufficiently
    large C" repetition counts open, and all of these are overridable. The
    defaults recover exact-sparse inputs in d = 1 up to n = 2^22, in d = 2 up
    to 1024^2 and on 8^3 and 16^3, where every bucket count is capped at
    n/2. Noisy inputs meet the (1+eps) bound in d = 1 (checked at n = 2^22)
    but miss it on most measured seeds in d >= 2.

    alpha, in (0, 1), is the paper's bucket-size parameter. It sets both
    bucket counts (`location_bucket_count`, `estimation_bucket_count`) and
    the 1/sqrt(alpha) growth of the hashing and probe counts.
    """

    alpha: float = 0.25
    # B >= bucket_scale * k / alpha^d (smallest power of 2^d), localization.
    bucket_scale: float = 8.0
    # B_est >= bucket_scale * k / (epsilon * alpha^(2d)) for estimation.
    # Repetition counts: r_max ~ location_reps_coeff/sqrt(alpha) * loglogN,
    # c_max ~ probes_coeff/sqrt(alpha) * loglogN.
    location_reps_coeff: float = 1.0
    probes_coeff: float = 2.0
    # Rounds of the L1 reduction, `StagePlan.rounds`: ceil(4 * loglogN)
    # (= log2 of log^4 N).
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
    # estimation reps ~ inf_est_reps_coeff * log2 N, threshold
    # inf_threshold_scale * (nu + mu).
    inf_hashings_coeff: float = 0.2
    inf_est_reps_coeff: float = 0.5
    inf_threshold_scale: float = 5.0
    # Constant-SNR stage keeps the top snr_keep_factor * k estimates.
    snr_keep_factor: int = 4
    # Relative floor replacing mu = 0 on exact-sparse inputs.
    mu_floor_rel: float = 1e-10
    # Zero-drop floor for nu = 0 estimation and the final support prune,
    # relative to the residual bucket scale. It is also the residual
    # certificate's bound: once the main set's largest residual bucket is
    # within it, the run skips the inf-norm and constant-SNR stages.
    zero_floor_rel: float = 1e-7
    # Reference measurements below this magnitude vote against every digit.
    near_zero: float = 1e-12
    # Abort if the approximation's l1 mass exceeds this multiple of its
    # first-iteration value.
    divergence_factor: float = 10.0

    def __post_init__(self) -> None:
        _check_field_types(self)
        for name, hint in _declared_types(type(self)):
            value = getattr(self, name)
            if hint is float and not (math.isfinite(value) and value > 0.0):
                raise ParameterError(f"{name} must be finite and > 0, got {value}")
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(f"alpha must lie in (0,1), got {self.alpha}")
        if self.vote_fraction > 1.0:
            raise ParameterError(f"vote_fraction must be <= 1, got {self.vote_fraction}")
        if self.snr_keep_factor < 1:
            raise ParameterError(f"snr_keep_factor must be >= 1, got {self.snr_keep_factor}")


def _loglog2(n_total: int) -> float:
    return math.log2(max(2.0, math.log2(max(4, n_total))))


def _log4(n_total: int) -> float:
    """Fourth power of log2(N), at least 16; the per-round SNR shrink factor."""
    return math.log2(max(4, n_total)) ** 4


def digit_base(n: int) -> int:
    """Digit base for location ladders: 2^floor(0.5 * log2 log2 n), at least 2."""
    return max(2, 1 << int(0.5 * math.log2(max(2.0, math.log2(max(4, n))))))


@dataclass(frozen=True, kw_only=True)
class StagePlan:
    """The geometry of one recovery stage, fixed before any read.

    The stage acquires r_max hashings of B buckets, c_max probe pairs each
    (`hashing_measurements.acquire_measurements`), sized for k terms, and
    each of its estimation calls draws reps fresh B_est-bucket hashings. Both
    kinds of hashing use the filter of order F. The
    l1 loop reuses the main stage's set for at most `rounds` calls; the
    inf-norm and constant-SNR sweeps make one. Build it with
    `RecoveryParams.derive`.
    """

    n: int
    d: int
    k: int
    F: int
    B: int
    r_max: int
    c_max: int
    B_est: int
    reps: int
    tunables: Tunables = field(default_factory=Tunables)

    def __post_init__(self) -> None:
        if not is_power_of_two(self.n):
            raise ParameterError(f"grid side must be a power of two, got n={self.n}")
        if self.d < 1 or self.k < 1:
            raise ParameterError(f"need d >= 1 and k >= 1, got d={self.d}, k={self.k}")
        if self.F % 2 != 0 or self.F < 2 * self.d:
            raise ParameterError(f"F must be even and >= 2d, got F={self.F}, d={self.d}")
        # Checked before the bucket sides, which a grid of n <= 2 cannot fit.
        if self.delta >= self.n:
            raise ParameterError(
                f"digit base {self.delta} needs a grid side above {self.delta}"
            )
        for B in (self.B, self.B_est):
            if bucket_side(B, self.d) > self.n:
                raise ParameterError(
                    f"B={B} needs {bucket_side(B, self.d)} buckets per axis, "
                    f"more than n={self.n}"
                )
        if self.B < self.k:
            raise ParameterError(f"need B >= k, got B={self.B} < k={self.k}")
        if min(self.r_max, self.c_max, self.reps) < 1:
            raise ParameterError("repetition counts must be >= 1")
        # The location vote finds a probe's nearest root by sign tests, which
        # it has for bases 2 and 4 only, and tests the probe against that
        # root alone. That is exact when the tolerance disks of adjacent
        # roots are disjoint: ratio_tolerance < sin(pi / base). Every ladder
        # base is <= delta, so delta is the binding case.
        if not set(self.group_bases) <= {2, 4}:
            raise ParameterError(
                f"location digits of base {self.group_bases} at n={self.n}: "
                "the vote takes bases 2 and 4 only"
            )
        if self.tunables.ratio_tolerance >= math.sin(math.pi / self.delta):
            raise ParameterError(
                f"ratio_tolerance {self.tunables.ratio_tolerance} must lie below "
                f"sin(pi/{self.delta}) = {math.sin(math.pi / self.delta):.4f}"
            )

    @property
    def delta(self) -> int:
        """Digit base for location digits; see `digit_base`."""
        return digit_base(self.n)

    @property
    def group_bases(self) -> tuple[int, ...]:
        """Base of each digit group of the location ladder: delta, and for
        the last group the leftover n / delta^(G-1), G being the fewest
        groups with delta^G >= n, so the groups cover every bit of [n]."""
        groups = max(1, math.ceil(math.log2(self.n) / math.log2(self.delta)))
        return (self.delta,) * (groups - 1) + (self.n // self.delta ** (groups - 1),)

    @property
    def digit_steps(self) -> tuple[tuple[int, int, int, int], ...]:
        """(shift slot, axis, base, place value) of every location digit in
        decode order: axis by axis, lowest digit group first. Group g
        (0-based) of axis s reads slot 1 + g * d + s of `shifts`."""
        bases = self.group_bases
        return tuple(
            (1 + g * self.d + s, s, base, math.prod(bases[:g]))
            for s in range(self.d)
            for g, base in enumerate(bases)
        )

    @property
    def shifts(self) -> np.ndarray:
        """The location ladder's shift vectors as an (S, d) int64 array: the
        unshifted reference 0, then n / (place * base) e_s at each digit
        step's slot, so a digit's ratios turn by omega_base per unit of it."""
        shifts = np.zeros((1 + self.d * len(self.group_bases), self.d), dtype=np.int64)
        for w, s, base, place in self.digit_steps:
            shifts[w, s] = self.n // (place * base)
        return shifts

    @property
    def rounds(self) -> int:
        """Threshold-halving rounds of the l1 loop over this stage's set:
        ceil(inner_iters_coeff * log2 log2 N), at least 1."""
        return max(1, math.ceil(self.tunables.inner_iters_coeff * _loglog2(self.n**self.d)))

    @property
    def pass_sides(self) -> dict[str, int]:
        """Samples per axis that one pass of the stage's location and of its
        estimation filter reads: the filter's support, F*b + 1 wide, or all
        n once that spans the grid."""
        buckets = {"location": self.B, "estimation": self.B_est}
        return {
            kind: min(self.F * bucket_side(B, self.d) + 1, self.n) for kind, B in buckets.items()
        }

    @property
    def acquisition_reads(self) -> int:
        """Spectrum reads of one acquisition: r_max * c_max probe pairs
        under every ladder shift, one location pass each."""
        per_pass = self.pass_sides["location"] ** self.d
        return self.r_max * self.c_max * len(self.shifts) * per_pass

    @property
    def estimation_reads(self) -> int:
        """Spectrum reads of one estimation call: one estimation pass per
        repetition."""
        return self.reps * self.pass_sides["estimation"] ** self.d


@dataclass(frozen=True, kw_only=True)
class RecoveryParams:
    """The recovery plan: the caller's targets, T outer rounds and one
    `StagePlan` per stage. `main` is the set the l1 loop reuses through all
    T rounds, `inf_norm` the set each round's inf-norm stage acquires, and
    `const_snr` the set of the final sweep. Use `derive`.
    """

    epsilon: float
    mu: float
    r_star: float
    seed: int = 0
    T: int
    main: StagePlan
    inf_norm: StagePlan
    const_snr: StagePlan

    def __post_init__(self) -> None:
        _check_targets(epsilon=self.epsilon, mu=self.mu, r_star=self.r_star)
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
        if self.T < 1:
            raise ParameterError(f"need T >= 1, got T={self.T}")
        shared = (self.main.n, self.main.d, self.main.tunables)
        for name in ("inf_norm", "const_snr"):
            stage = getattr(self, name)
            if (stage.n, stage.d, stage.tunables) != shared:
                raise ParameterError(f"{name} stage differs from main in n, d or tunables")

    @classmethod
    def derive(
        cls,
        n: int,
        d: int,
        k: int,
        *,
        epsilon: float = 0.1,
        mu: float = 0.0,
        r_star: float = 2.0,
        seed: int = 0,
        tunables: Tunables | None = None,
    ) -> "RecoveryParams":
        """The plan for k terms over [n]^d at accuracy epsilon.

        Every stage's geometry is computed here and nowhere else. Any other
        geometry is `dataclasses.replace` of the plan or of one stage, which
        validates the result again. Bucket counts capped at n/2 per axis, and
        location or estimation passes whose filter support spans the grid
        (F*b + 1 >= n: each pass reads all N samples), give one
        RuntimeWarning naming them, before any read.
        """
        _check_targets(epsilon=epsilon, mu=mu, r_star=r_star)
        tun = tunables or Tunables()
        N = n**d
        loglog = _loglog2(N)
        root_alpha = math.sqrt(tun.alpha)
        c_loc = max(8, math.ceil(tun.probes_coeff / root_alpha * loglog))
        inf_reps = max(1, math.ceil(tun.inf_est_reps_coeff * math.log2(N)))
        notes = []

        def buckets(name: str, sizer, terms: int, accuracy: float = 1.0) -> int:
            count, note = sizer(n, d, terms, accuracy, tun)
            if note is not None:
                notes.append(f"{name}: {note}")
            return count

        def stage(**geometry) -> StagePlan:
            return StagePlan(n=n, d=d, F=2 * d, c_max=c_loc, tunables=tun, **geometry)

        # Main's B is sized first: the warning lists its notes in this order.
        B = buckets("main location", location_bucket_count, k)
        r_loc = max(3, math.ceil(tun.location_reps_coeff / root_alpha * loglog))
        k_est = 4 * k
        B_est = buckets("main estimation", estimation_bucket_count, k_est)
        # Repetitions grow like loglog N + d^2 + log(B/k), so that a union
        # bound over the O(k log N) estimates of a run leaves every one accurate.
        spread = loglog + d * d + math.log2(max(1.0, B_est / k_est))
        main = stage(
            k=k,
            B=B,
            r_max=r_loc,
            B_est=B_est,
            reps=max(1, math.ceil(tun.est_reps_coeff * spread)),
        )
        # The inf-norm stage's own r_star would be nu / nu' floored at 2.
        # With `schedule`'s nu and nu', nu / nu' = 4 L^(T-t) / (4 L^(T-t) +
        # 20 L) < 1, so its halving schedule has ceil(log2 2) = 1 round: one
        # threshold and one estimation call, which lets it decode its set as
        # it reads.
        k_tilde = max(1, math.ceil(tun.snr_keep_factor * k / _log4(N)))
        inf_norm = stage(
            k=k_tilde,
            B=buckets("inf_norm location", location_bucket_count, k_tilde),
            r_max=max(3, math.ceil(tun.inf_hashings_coeff * math.log2(N) / root_alpha)),
            B_est=buckets("inf_norm estimation", estimation_bucket_count, k_tilde),
            reps=inf_reps,
        )
        const_snr = stage(
            k=2 * k,
            B=buckets("const_snr location", location_bucket_count, 2 * k, epsilon),
            r_max=1,
            B_est=buckets(
                "const_snr estimation", estimation_bucket_count, 2 * k, epsilon
            ),
            reps=inf_reps,
        )
        for name, plan in (("main", main), ("inf_norm", inf_norm), ("const_snr", const_snr)):
            for kind, side in plan.pass_sides.items():
                if side == n:
                    notes.append(f"{name} {kind}: F*b+1 >= n, so each pass reads all {N} samples")
        if notes:
            message = f"plan for k={k} on [{n}]^{d}: " + " / ".join(notes)
            warnings.warn(message, RuntimeWarning, stacklevel=2)
        return cls(
            epsilon=epsilon,
            mu=mu,
            r_star=r_star,
            seed=seed,
            T=max(1, math.ceil(math.log(max(r_star, 2.0)) / math.log(_log4(N)))),
            main=main,
            inf_norm=inf_norm,
            const_snr=const_snr,
        )

    def schedule(
        self, initial_scale: float
    ) -> tuple[float, float, float, list[float], list[float]]:
        """The run's thresholds from the main set's initial scale: (mu_eff,
        x_inf, floor, nu, nu_prime).

        mu_eff is mu floored at mu_floor_rel * initial_scale. x_inf bounds
        ||x||_inf by the caller's promise r_star * mu, and is math.inf at
        mu = 0, where mu_eff is a numerical floor, not a bound on x. floor,
        zero_floor_rel * initial_scale, is the residual certificate's bound
        and the final prune's. With L = log2(N)^4, outer round t < T targets
        nu[t] = 4 mu_eff L^(T-t) in the l1 loop and nu_prime[t] = L (4 mu_eff
        L^(T-t-1) + 20 mu_eff) in the inf-norm stage.
        """
        tun = self.main.tunables
        mu_eff = max(self.mu, tun.mu_floor_rel * initial_scale)
        x_inf = self.r_star * self.mu if self.mu > 0.0 else math.inf
        L, T = _log4(self.main.n**self.main.d), self.T
        nu = [4.0 * mu_eff * L ** (T - t) for t in range(T)]
        nu_prime = [L * (4.0 * mu_eff * L ** (T - t - 1) + 20.0 * mu_eff) for t in range(T)]
        return mu_eff, x_inf, tun.zero_floor_rel * initial_scale, nu, nu_prime
