"""Command line front end: run experiments and sweep parameters.

`run` executes the spec in a JSON file and prints one line per seed, and
`sweep` reruns a spec across values of one parameter and emits a tidy CSV.
A bad spec or an unreadable or unwritable file prints `error: ...` and
exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .core import ParameterError
from .harness import ExperimentSpec, run_experiment, run_sweep

__all__ = ["main"]


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
            f"samples={rec.samples_total} residual_peak_rel={rec.residual_peak_rel:.3g} "
            f"generate_ms={rec.generate_ms:.1f} "
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
