"""Print a SHA-256 digest of seeded recovery outputs, to show that a change
keeps them bit for bit.

    PYTHONPATH=src python tests/output_digest.py --workload gauss-2d-64 --instances 40
    PYTHONPATH=src python tests/output_digest.py --spec n=1024 d=1 k=8 \\
        signal_model=sparse-plus-gaussian-tail snr=1e9 --instances 6
    PYTHONPATH=src python tests/output_digest.py --pinned
    PYTHONPATH=src python tests/output_digest.py --workload exact-3d-16 --scale 2**-20

Run from the repository root. Instance i (i = 0, 1, ...) of a benchmark
workload (perfbench/workloads.py, which is only read) or of an
ExperimentSpec given field by field is the harness signal of seed
instance_seed(--seed, i), recovered as the benchmark recovers it
(test_recovery.harness_run). --pinned runs the nine cases of
tests/pinned_recovery.json instead. As a script it pins the BLAS thread
pools to one before NumPy loads, as the benchmark does, because some
outputs depend on the thread count.

Each line gives an instance, its signal seed and the SHA-256 of its output:
the support, the bits of its values and every RunStats field. The last line
is the SHA-256 of all of them. Two versions of the package that print the
same total gave the same outputs, to the last bit, on every instance.

With --scale C, a power of two, each instance recovers C times its signal
with mu times C, and the output is divided by C before it is hashed. The
total then equals the unscaled run's exactly when the pipeline commutes
with scaling: every output value is C times the unscaled one, and every
RunStats field is the same.

Before a spec's first instance, a `plan <sha256>` line on stderr gives the
SHA-256 of the plan the harness derives for it (plan_digest); stdout keeps
the instance lines and the total alone. Two versions that print the same
plan lines derived the same geometry, reads and warning text.
"""
import os
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
if __name__ == "__main__":
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import math  # noqa: E402
import typing  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

from sparsefft import RecoveryParams, SparseApprox, StagePlan  # noqa: E402
from sparsefft.harness import SIGNAL_MODELS, ExperimentSpec  # noqa: E402
from spec_fields import parse_spec  # noqa: E402
from test_recovery import PINNED_GRIDS, PINNED_SEED, harness_run  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS, instance_seed  # noqa: E402


def output_digest(out, stats) -> str:
    """SHA-256 of an output's support, value bits and RunStats fields."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(out.coords_array(), dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(out.values, dtype=np.complex128).tobytes())
    for f in dataclasses.fields(stats):
        h.update(f"{f.name}={getattr(stats, f.name)!r};".encode())
    return h.hexdigest()


def power_of_two(text: str) -> float:
    """A --scale value: a power of two, given as a number or as 2**E."""
    base, _, exponent = text.partition("**")
    value = float(base) ** float(exponent) if exponent else float(text)
    if not (math.isfinite(value) and value > 0.0 and math.frexp(value)[0] == 0.5):
        raise argparse.ArgumentTypeError(f"not a power of two: {text}")
    return value


def stage_names() -> list[str]:
    """The RecoveryParams fields that hold a StagePlan, in field order."""
    hints = typing.get_type_hints(RecoveryParams)
    return [f.name for f in dataclasses.fields(RecoveryParams) if hints[f.name] is StagePlan]


def plan_digest(spec) -> str:
    """SHA-256 of the plan the harness derives for spec: T, every stage's
    (stage_names) fields, l1 rounds, pass sides, shift ladder and reads,
    and the text of the derivation's RuntimeWarnings. A stage's tunables
    are left out: they are the spec's own, and their record changes
    whenever a knob is added or removed. Nothing digested depends on the
    signal's mu or seed, so the plan is derived at mu = 0 and seed 0."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        params = spec.recovery_params(0.0, 0)
    h = hashlib.sha256()
    h.update(f"T={params.T!r};".encode())
    for name in stage_names():
        stage = getattr(params, name)
        record = {f.name: getattr(stage, f.name) for f in dataclasses.fields(stage)}
        del record["tunables"]
        record.update(
            rounds=stage.rounds,
            pass_sides=stage.pass_sides,
            shifts=stage.shifts.tolist(),
            acquisition_reads=stage.acquisition_reads,
            estimation_reads=stage.estimation_reads,
        )
        h.update(f"{name}={record!r};".encode())
    for w in caught:
        if issubclass(w.category, RuntimeWarning):
            h.update(f"warning={w.message};".encode())
    return h.hexdigest()


def cases(args):
    """(label, spec, seed) of every instance the arguments ask for."""
    if args.pinned:
        for n, d, k in PINNED_GRIDS:
            for model in SIGNAL_MODELS:
                spec = ExperimentSpec(n=n, d=d, k=k, signal_model=model)
                yield f"{n}^{d} k={k} {model}", spec, PINNED_SEED
        return
    if args.workload is not None:
        spec = ExperimentSpec(**WORKLOADS[args.workload].spec)
    else:
        spec = ExperimentSpec(**parse_spec(args.spec))
    for i in range(args.instances):
        yield f"instance {i}", spec, instance_seed(args.seed, i)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=sorted(WORKLOADS))
    what.add_argument("--spec", nargs="+", metavar="FIELD=VALUE")
    what.add_argument("--pinned", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--instances", type=int, default=40)
    ap.add_argument("--scale", type=power_of_two, default=1.0, metavar="C")
    args = ap.parse_args(argv)
    total = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        planned = None
        for label, spec, seed in cases(args):
            if spec != planned:
                print(f"plan {plan_digest(spec)}", file=sys.stderr, flush=True)
                planned = spec
            out, stats = harness_run(spec, seed, args.scale)
            # Exact, since the scale is a power of two.
            out = SparseApprox.from_flat(out.n, out.d, out.flat, out.values / args.scale)
            digest = output_digest(out, stats)
            total.update(digest.encode())
            print(f"{label} seed={seed} {digest}", flush=True)
    print(f"total {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
