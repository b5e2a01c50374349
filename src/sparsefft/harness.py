"""Experiment driver: signal generation, end-to-end runs, and result files.

An ExperimentSpec pins a grid, a sparsity, a signal model, and the seeds to
run; `run_experiment` executes the recovery pipeline once per seed and
returns one RunRecord per run, optionally writing a CSV of the records and
a JSON sidecar with the full configuration. Identical spec and seed give an
identical record except for the two timings, generate_ms (signal draw and
forward transform) and recover_ms (the recovery call alone).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields, replace
from typing import get_args, get_type_hints

import numpy as np

from .core import (
    DenseSignal,
    ParameterError,
    RecoveryParams,
    SparseApprox,
    Tunables,
    _check_field_types,
    _check_targets,
    is_power_of_two,
)
from .dense_dft import forward_dft
from .recovery import sparse_fft_with_stats

__all__ = [
    "SIGNAL_MODELS",
    "ExperimentSpec",
    "RunRecord",
    "generate_signal",
    "run_experiment",
    "run_sweep",
    "spec_digest",
    "write_csv",
    "read_csv",
    "write_json",
]

SIGNAL_MODELS = (
    "exact-sparse",
    "sparse-plus-gaussian-tail",
    "sparse-plus-adversarial-bucket-tail",
)

_TUNABLE_NAMES = frozenset(f.name for f in fields(Tunables))


@dataclass
class ExperimentSpec:
    """One experiment configuration: grid, sparsity, model, and seeds.

    snr scales the planted head magnitudes relative to the exact noise
    level mu of the generated signal; noisy models need snr >= 2 so every
    head coefficient clears 2 mu. `constants` overrides individual
    tunables, alpha included, by name.
    """

    n: int
    d: int
    k: int
    signal_model: str = "exact-sparse"
    snr: float = 10.0
    epsilon: float = 0.1
    seeds: list[int] = field(default_factory=lambda: [0])
    r_star: float | None = None
    constants: dict[str, float] | None = None

    def __post_init__(self) -> None:
        _check_field_types(self)
        if not is_power_of_two(self.n):
            raise ParameterError(f"grid side must be a power of two, got n={self.n}")
        if self.d < 1 or self.k < 1:
            raise ParameterError(f"need d >= 1 and k >= 1, got d={self.d}, k={self.k}")
        if not self.seeds:
            raise ParameterError("seeds must be nonempty")
        if min(self.seeds) < 0:
            raise ParameterError(f"seeds must be non-negative, got {min(self.seeds)}")
        if self.signal_model not in SIGNAL_MODELS:
            raise ParameterError(
                f"unknown signal model {self.signal_model!r}; "
                f"choose one of {', '.join(SIGNAL_MODELS)}"
            )
        if not math.isfinite(self.snr):
            raise ParameterError(f"snr must be finite, got {self.snr}")
        _check_targets(epsilon=self.epsilon)
        if self.r_star is not None:
            _check_targets(r_star=self.r_star)
        if self.signal_model != "exact-sparse" and self.snr < 2.0:
            raise ParameterError(
                f"noisy models need snr >= 2 so heads clear 2*mu, got {self.snr}"
            )

    def tunables(self) -> Tunables:
        constants = self.constants or {}
        unknown = [name for name in constants if name not in _TUNABLE_NAMES]
        if unknown:
            raise ParameterError(f"unknown tunable overrides: {', '.join(unknown)}")
        return Tunables(**constants)

    def recovery_params(self, mu: float, seed: int) -> RecoveryParams:
        return RecoveryParams.derive(
            self.n,
            self.d,
            self.k,
            epsilon=self.epsilon,
            mu=mu,
            r_star=self.effective_r_star(),
            seed=seed,
            tunables=self.tunables(),
        )

    def effective_r_star(self) -> float:
        if self.r_star is not None:
            return self.r_star
        return max(2.0, 2.0 * self.snr)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        if not isinstance(data, dict):
            raise ParameterError(f"a spec must be a JSON object, got {type(data).__name__}")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            moved = [name for name in unknown if name in _TUNABLE_NAMES]
            hint = f'; tunables go under "constants": {", ".join(moved)}' if moved else ""
            raise ParameterError(f"unknown spec keys: {', '.join(unknown)}{hint}")
        missing = [
            f.name
            for f in fields(cls)
            if f.default is MISSING and f.default_factory is MISSING and f.name not in data
        ]
        if missing:
            raise ParameterError(f"spec lacks required keys: {', '.join(missing)}")
        return cls(**data)


@dataclass
class RunRecord:
    """Metrics of one recovery run against its generated ground truth.

    The sample columns are the run's `RunStats` ledger; `samples_infnorm`
    is always 0, as there, since the pipeline has no inf-norm stage.
    """

    spec_hash: str
    seed: int
    l2_error_ratio: float
    support_precision: float
    support_recall: float
    samples_location: int
    samples_estimation: int
    samples_infnorm: int
    samples_constsnr: int
    samples_total: int
    # RunStats.residual_peak_rel: at most zero_floor_rel exactly when the
    # residual certificate skipped the constant-SNR stage. Keyword-only, so
    # the timing columns stay last.
    residual_peak_rel: float = field(default=0.0, kw_only=True)
    generate_ms: float
    recover_ms: float

    def __post_init__(self) -> None:
        parts = (
            self.samples_location
            + self.samples_estimation
            + self.samples_infnorm
            + self.samples_constsnr
        )
        if self.samples_total != parts:
            raise ParameterError(
                f"samples_total {self.samples_total} does not equal the sum "
                f"of its parts {parts}"
            )

    def row(self) -> tuple:
        return astuple(self)


# Columns of the emitted CSV, in RunRecord field order.
CSV_HEADER = tuple(f.name for f in fields(RunRecord))


def spec_digest(spec: ExperimentSpec) -> str:
    """Short stable hash of the full configuration.

    `constants` enter as the overrides that differ from the `Tunables`
    defaults, each cast to its field's type, and as None when none does, so
    specs describing the same recovery share a digest.
    """
    spec.tunables()  # rejects unknown or mistyped overrides
    defaults = asdict(Tunables())
    data = spec.to_dict()
    data["constants"] = {
        name: type(defaults[name])(value)
        for name, value in (spec.constants or {}).items()
        if value != defaults[name]
    } or None
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _ball_coords(n: int, d: int, center: np.ndarray, radius: int) -> np.ndarray:
    """All grid points within sup-distance radius of center, as flat indices."""
    side = np.arange(-radius, radius + 1)
    offsets = np.stack(np.meshgrid(*([side] * d), indexing="ij"), axis=-1).reshape(-1, d)
    coords = (center[None, :] + offsets) % n
    return np.ravel_multi_index(coords.T, (n,) * d)


def _energy(values: np.ndarray) -> float:
    """Sum of |v|^2 over an array, as a plain pairwise sum. np.linalg.norm
    goes through a BLAS dot product whose rounding, on large arrays,
    depends on the BLAS thread count; this sum's does not."""
    values = values.reshape(-1)
    return float(np.sum(values.real**2 + values.imag**2))


def generate_signal(
    spec: ExperimentSpec, seed: int
) -> tuple[DenseSignal, SparseApprox, float]:
    """Draw one signal: planted sparse head plus the model's tail.

    Returns the dense time-domain signal, the planted head as the ground
    truth, and the exact noise level mu = ||tail||_2 / sqrt(k) of the
    realized draw. Head magnitudes are snr * mu times a uniform [1, 2]
    factor (uniform [1, 2] outright when the tail is empty), so they clear
    2 mu whenever snr >= 2. Gaussian tails target total energy k; the
    adversarial model packs the same energy into one sup-norm ball. mu is
    taken by _energy, so the draw's bits do not depend on the BLAS thread
    count.
    """
    N = spec.n**spec.d
    if spec.k > N // 4:
        raise ParameterError(f"k={spec.k} exceeds N/4 = {N // 4}")
    rng = np.random.default_rng(seed)
    n, d, k = spec.n, spec.d, spec.k

    head_flat = rng.choice(N, size=k, replace=False)
    values = np.zeros((n,) * d, dtype=np.complex128).reshape(N)

    if spec.signal_model == "sparse-plus-gaussian-tail":
        tail_cells = np.setdiff1d(np.arange(N), head_flat)
    elif spec.signal_model == "sparse-plus-adversarial-bucket-tail":
        center = rng.integers(0, n, size=d)
        radius = max(1, n // 32)
        cells = np.setdiff1d(_ball_coords(n, d, center, radius), head_flat)
        while cells.size == 0:
            radius *= 2
            cells = np.setdiff1d(_ball_coords(n, d, center, radius), head_flat)
        tail_cells = cells
    else:
        tail_cells = np.array([], dtype=np.int64)

    if tail_cells.size:
        energy = float(k)
        sigma = math.sqrt(energy / (2.0 * tail_cells.size))
        tail_vals = sigma * (
            rng.standard_normal(tail_cells.size)
            + 1j * rng.standard_normal(tail_cells.size)
        )
        values[tail_cells] = tail_vals
        mu_true = math.sqrt(_energy(tail_vals)) / math.sqrt(k)
    else:
        mu_true = 0.0

    phases = np.exp(2j * np.pi * rng.random(k))
    scale = spec.snr * mu_true if mu_true > 0.0 else 1.0
    mags = scale * (1.0 + rng.random(k))
    head = mags * phases
    values[head_flat] = head
    x = DenseSignal(n, d, values.reshape((n,) * d), domain="time")
    return x, SparseApprox.from_flat(n, d, head_flat, head), mu_true


def _run_one(spec: ExperimentSpec, seed: int, digest: str) -> RunRecord:
    start = time.perf_counter()
    x, truth, mu_true = generate_signal(spec, seed)
    xhat = forward_dft(x)
    generate_ms = (time.perf_counter() - start) * 1e3
    params = spec.recovery_params(mu_true, seed)
    start = time.perf_counter()
    output, stats = sparse_fft_with_stats(
        xhat,
        spec.k,
        epsilon=spec.epsilon,
        r_star=spec.effective_r_star(),
        mu=mu_true,
        seed=seed,
        params=params,
    )
    recover_ms = (time.perf_counter() - start) * 1e3

    x_norm = math.sqrt(_energy(x.values))
    err = _energy(x.values - output.to_dense("time").values)
    tail_energy = _energy(x.values - truth.to_dense("time").values)
    # The denominator is floored so exactly sparse runs (tail 0) report a
    # finite ratio; 1e-9 of the signal norm tracks the pipeline's own
    # subtraction accuracy.
    denom = max(tail_energy, (1e-9 * x_norm) ** 2, 1e-300)

    hits = np.intersect1d(output.flat, truth.flat).size
    precision = hits / len(output) if len(output) else 1.0
    recall = hits / len(truth) if len(truth) else 1.0

    return RunRecord(
        spec_hash=digest,
        seed=seed,
        l2_error_ratio=float(err / denom),
        support_precision=precision,
        support_recall=recall,
        samples_location=stats.samples_location,
        samples_estimation=stats.samples_estimation,
        samples_infnorm=stats.samples_infnorm,
        samples_constsnr=stats.samples_constsnr,
        samples_total=stats.total_samples,
        residual_peak_rel=stats.residual_peak_rel,
        generate_ms=generate_ms,
        recover_ms=recover_ms,
    )


def run_experiment(
    spec: ExperimentSpec,
    *,
    csv_path: str | None = None,
    json_path: str | None = None,
) -> list[RunRecord]:
    """Run the full pipeline once per seed, in seed order, and optionally
    write result files; they are deterministic up to the timing columns.
    """
    digest = spec_digest(spec)
    records = [_run_one(spec, seed, digest) for seed in spec.seeds]
    if csv_path is not None:
        write_csv(csv_path, records)
    if json_path is not None:
        write_json(json_path, spec, records)
    return records


def run_sweep(
    spec: ExperimentSpec,
    param: str,
    values: list,
    *,
    csv_path: str | None = None,
) -> dict:
    """Rerun the experiment with `param` replaced by each value in turn.

    param names a spec field or a `Tunables` field; a tunable is written
    into the spec's `constants`. Each value is parsed from its text as the
    field's declared type (int or float), so strings from the command line
    and typed values convert alike, and a fractional value for an int field
    is rejected. Returns {value: records}; the optional CSV is tidy (one row
    per run, with the swept parameter and value as leading columns) so error
    and sample curves can be plotted directly.
    """
    spec_fields = {f.name for f in fields(spec)} - {"seeds", "signal_model", "constants"}
    if param not in spec_fields | _TUNABLE_NAMES:
        raise ParameterError(f"cannot sweep parameter {param!r}")
    hint = get_type_hints(ExperimentSpec if param in spec_fields else Tunables)[param]
    kind = int if int in (hint, *get_args(hint)) else float
    try:
        values = [kind(str(value)) for value in values]
    except ValueError as exc:
        raise ParameterError(f"bad value for {param}: {exc}") from exc
    results: dict = {}
    for value in values:
        if param in spec_fields:
            variant = replace(spec, **{param: value})
        else:
            variant = replace(spec, constants={**(spec.constants or {}), param: value})
        results[value] = run_experiment(variant)
    if csv_path is not None:
        try:
            with open(csv_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(("param", "value") + CSV_HEADER)
                for value, records in results.items():
                    for rec in records:
                        writer.writerow((param, value) + rec.row())
        except OSError as exc:
            raise OSError(f"writing sweep CSV {csv_path!r}: {exc}") from exc
    return results


def write_csv(path: str, records: list[RunRecord]) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for rec in records:
                writer.writerow(rec.row())
    except OSError as exc:
        raise OSError(f"writing records CSV {path!r}: {exc}") from exc


def read_csv(path: str) -> list[RunRecord]:
    """Inverse of write_csv; numeric columns come back typed."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise OSError(f"reading records CSV {path!r}: {exc}") from exc
    types = get_type_hints(RunRecord)
    return [
        RunRecord(**{name: types[name](row[name]) for name in CSV_HEADER}) for row in rows
    ]


def write_json(path: str, spec: ExperimentSpec, records: list[RunRecord]) -> None:
    payload = {
        "spec": spec.to_dict(),
        "spec_hash": spec_digest(spec),
        "records": [asdict(rec) for rec in records],
    }
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"writing JSON sidecar {path!r}: {exc}") from exc
