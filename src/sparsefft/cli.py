"""Command line front end: run experiments, sweep parameters, self-check.

`run` executes the spec in a JSON file and prints one line per seed,
`sweep` reruns a spec across values of one parameter and emits a tidy CSV,
and `selftest` runs a built-in battery of correctness checks (transform
round trip, filter bounds, permutation identity, bucket leakage, chi
subtraction, exact end-to-end recovery, measurement reuse) and exits 0 only
if all pass.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .core import DenseSignal, ParameterError, RecoveryParams, SparseApprox
from .dense_dft import forward_dft, inverse_dft
from .filters import build_bucket_filter
from .harness import ExperimentSpec, run_experiment, run_sweep
from .hashing_measurements import hash_to_bins
from .permutation import Hashing, apply_P, sample_permutation
from .recovery import sparse_fft_with_stats

__all__ = ["main", "selftest"]


def _check_roundtrip(rng: np.random.Generator) -> str | None:
    n, d = 16, 2
    x = DenseSignal(
        n,
        d,
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
        domain="time",
    )
    xhat = forward_dft(x)
    back = inverse_dft(xhat)
    if np.abs(back.values - x.values).max() > 1e-10:
        return "inverse transform does not invert the forward transform"
    if abs(xhat.norm2() - x.norm2()) > 1e-9 * x.norm2():
        return "transform does not preserve energy"
    return None


def _check_filter_bounds(rng: np.random.Generator) -> str | None:
    n, b, F = 64, 8, 2
    filt = build_bucket_filter(n, 1, b, F)
    g = filt.g_axis
    if g.min() < -1e-12 or g.max() > 1.0 + 1e-12:
        return "filter values leave [0, 1]"
    plateau = np.arange(-(n // (2 * b)), n // (2 * b) + 1) % n
    if g[plateau].min() < (2 * np.pi) ** (-F):
        return "filter dips below its plateau bound"
    j = np.arange(1, n // 2)
    if np.any(g[j] > (2.0 / (1.0 + b * j / n)) ** F + 1e-12):
        return "filter tail decays too slowly"
    return None


def _check_permutation_identity(rng: np.random.Generator) -> str | None:
    n, d = 32, 1
    x = DenseSignal(
        n, d, rng.standard_normal(n) + 1j * rng.standard_normal(n), domain="time"
    )
    xhat = forward_dft(x)
    perm = sample_permutation(n, d, rng)
    a = rng.integers(n, size=d)
    permuted = inverse_dft(apply_P(perm, a, xhat))
    omega = np.exp(2j * np.pi / n)
    for _ in range(8):
        i = rng.integers(n, size=d)
        lhs = permuted.values[tuple(perm.forward_array(i[None, :])[0])]
        phase = omega ** int((a @ (perm.sigma @ i)) % n)
        if abs(lhs - x.values[tuple(i)] * phase) > 1e-9:
            return "permuted spectrum disagrees with the pointwise identity"
    return None


def _check_bucket_leakage(rng: np.random.Generator) -> str | None:
    n, d, b = 64, 1, 8
    filt = build_bucket_filter(n, d, b, 2)
    perm = sample_permutation(n, d, rng)
    hashing = Hashing(perm, filt)
    i = rng.integers(n, size=(1, d))
    coeff = complex(1.3, -0.4)
    x = DenseSignal.zeros(n, d, domain="time")
    x.values[tuple(i[0])] = coeff
    xhat = forward_dft(x)
    u = hash_to_bins(xhat, SparseApprox.empty(n, d), hashing, np.zeros(d, dtype=np.int64))
    got = u[tuple(hashing.bucket_of_array(i)[0])]
    want = filt.g_at(perm.forward_array(i) - hashing.center_of_array(i))[0] * coeff
    if abs(got - want) > 1e-7:
        return "single tone lands in its bucket with the wrong gain"
    return None


def _check_chi_subtraction(rng: np.random.Generator) -> str | None:
    n, d, B, F = 8, 3, 64, 6
    filt = build_bucket_filter(n, d, B, F)
    hashing = Hashing(sample_permutation(n, d, rng), filt)
    shape = (n,) * d
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    spikes = np.unique(rng.integers(0, n**d, size=4))
    chi = SparseApprox.from_flat(n, d, spikes, np.full(spikes.size, 1.0 - 0.5j))
    a = rng.integers(0, n, size=d)
    got = hash_to_bins(forward_dft(DenseSignal(n, d, x, "time")), chi, hashing, a)
    residual = DenseSignal(n, d, x - chi.to_dense(domain="time").values, "time")
    want = hash_to_bins(forward_dft(residual), SparseApprox.empty(n, d), hashing, a)
    if np.abs(got - want).max() > 1e-9 * max(np.abs(want).max(), 1.0):
        return "bucket-space chi subtraction disagrees with the explicit residual"
    return None


def _check_exact_recovery(rng: np.random.Generator) -> str | None:
    spec = ExperimentSpec(n=512, d=1, k=5, signal_model="exact-sparse", seeds=[7])
    record = run_experiment(spec)[0]
    if record.support_recall < 1.0 or record.support_precision < 1.0:
        return "exact-sparse run missed part of the support"
    if record.l2_error_ratio > 1e-3:
        return "exact-sparse run left a visible residual"
    return None


def _check_measurement_reuse(rng: np.random.Generator) -> str | None:
    n, d, k = 256, 1, 4
    x = DenseSignal.zeros(n, d, domain="time")
    for pos in range(k):
        x.values[(pos * 37 + 11) % n] = 1.0 + 0.5j
    xhat = forward_dft(x)
    counts = []
    for T in (1, 4):
        params = RecoveryParams.derive(n, d, k, T=T, seed=3)
        _, stats = sparse_fft_with_stats(xhat, k, seed=3, params=params)
        counts.append(stats.samples_location)
    if counts[0] != counts[1]:
        return f"location samples changed with T: {counts[0]} vs {counts[1]}"
    return None


_SELFTEST_CHECKS = (
    ("transform-roundtrip", _check_roundtrip),
    ("filter-bounds", _check_filter_bounds),
    ("permutation-identity", _check_permutation_identity),
    ("bucket-leakage", _check_bucket_leakage),
    ("chi-subtraction", _check_chi_subtraction),
    ("exact-recovery", _check_exact_recovery),
    ("measurement-reuse", _check_measurement_reuse),
)


def selftest() -> int:
    """Run every built-in check; return the number of failures."""
    failures = 0
    for name, check in _SELFTEST_CHECKS:
        rng = np.random.default_rng(2024)
        try:
            problem = check(rng)
        except Exception as exc:  # a crash is a failure, not an abort
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem is None:
            print(f"PASS {name}")
        else:
            print(f"FAIL {name}: {problem}")
            failures += 1
    return failures


def _load_spec(path: str) -> ExperimentSpec:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise OSError(f"reading spec {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"spec {path!r} is not valid JSON: {exc}") from exc
    return ExperimentSpec.from_dict(data)


def _print_records(records) -> None:
    for rec in records:
        print(
            f"seed={rec.seed} l2_ratio={rec.l2_error_ratio:.4g} "
            f"precision={rec.support_precision:.3f} recall={rec.support_recall:.3f} "
            f"samples={rec.samples_total} generate_ms={rec.generate_ms:.1f} "
            f"recover_ms={rec.recover_ms:.1f}"
        )
    ratios = [rec.l2_error_ratio for rec in records]
    recalls = [rec.support_recall for rec in records]
    print(
        f"summary: runs={len(records)} mean_l2_ratio={np.mean(ratios):.4g} "
        f"mean_recall={np.mean(recalls):.3f}"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    records = run_experiment(spec, csv_path=args.csv, json_path=args.json)
    _print_records(records)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    values = [tok for tok in args.values.split(",") if tok.strip()]
    if not values:
        raise ParameterError("sweep needs at least one value")
    results = run_sweep(spec, args.param, values, csv_path=args.csv)
    for value, records in results.items():
        print(f"--- {args.param} = {value} ---")
        _print_records(records)
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    failures = selftest()
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsefft",
        description="Sparse transform recovery experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiment described by a JSON spec")
    p_run.add_argument("--spec", required=True, help="path to the spec JSON file")
    p_run.add_argument("--csv", default=None, help="write per-run records here")
    p_run.add_argument("--json", default=None, help="write the JSON sidecar here")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="rerun a spec across parameter values")
    p_sweep.add_argument("--spec", required=True, help="path to the base spec JSON")
    p_sweep.add_argument("--param", required=True, help="spec field or tunable to vary")
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated values, e.g. 8,16,32"
    )
    p_sweep.add_argument("--csv", default=None, help="write tidy sweep rows here")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_self = sub.add_parser("selftest", help="run the built-in correctness battery")
    p_self.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
