"""Replay the benchmark's measured instances in one process and print its
peak resident memory after each.

    python tests/replay_rss.py --workload gauss-2d-64 --seed 11 --instances 12
    python tests/replay_rss.py --spec n=65536 d=1 k=32 \
        signal_model=sparse-plus-gaussian-tail --instances 4

Run from the repository root. It loads `Bench` from perfbench/run.py, which
pins the BLAS thread pools to one before NumPy loads, and runs the bench's
in-process set-up (imports and the cold instance 0), then instances
1..--instances as the measured loop runs them: build the input, time one
recovery, check it against the planted truth, time the dense reference.
The input is a benchmark workload's (perfbench/workloads.py) or an
ExperimentSpec given field by field (--spec, parsed as
tests/output_digest.py parses it), so a memory claim off the benchmark's
workloads is replayed with the benchmark's own loop.
It leaves out what the bench adds around that loop: the set-up probe
subprocesses and the traced pass. So the peak it prints is the recovery's
own, with the dense reference, and a bench `peak_rss_mb` above it comes
from the bench process. Both also depend on the allocator's history:
glibc raises its mmap threshold as large blocks are freed. Two package
versions that differ only off the recovery path peaked at 65.9 and 59.3 MB
on exact-3d-16 (seed 11, 12 instances, 2-vCPU KVM host), and at 59.2 and
59.1 MB with MALLOC_MMAP_THRESHOLD_=131072 set, which fixes the threshold
(and slows the recovery).

Each line gives the instance, its recovery time, whether its output was
correct, `ru_maxrss` in MB (as the bench reports it), and glibc's heap
after the instance: `arena_mb`, the bytes the main heap and its other
arenas hold from the system, and `free_mb`, the free bytes inside them
(mallinfo2's arena and fordblks; `n/a` where the C library has no
mallinfo2). A peak that jumps with `arena_mb` while `free_mb` grows too is
one more heap growth forced by fragmentation, not memory the recovery
holds. The last line is one JSON object with the workload (null for
--spec), its spec fields, the seed, the instance count and the final peak.
"""
import argparse
import ctypes
import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run as bench_run  # noqa: E402  (pins the thread pools before numpy loads)

sys.path.insert(0, bench_run.SRC)

from spec_fields import parse_spec  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


def _mallinfo2():
    """glibc's mallinfo2, or None where the C library lacks it."""
    try:
        fn = ctypes.CDLL(None).mallinfo2
    except (AttributeError, OSError):
        return None
    fn.restype = _Mallinfo2
    return fn


MALLINFO2 = _mallinfo2()


def heap_fields() -> str:
    """"arena_mb=... free_mb=..." from mallinfo2, or n/a for both."""
    if MALLINFO2 is None:
        return "arena_mb=n/a free_mb=n/a"
    info = MALLINFO2()
    return f"arena_mb={info.arena / 2**20:.1f} free_mb={info.fordblks / 2**20:.1f}"


def main(argv=None) -> int:
    names = sorted(bench_run.workloads.WORKLOADS)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=names)
    what.add_argument("--spec", nargs="+", metavar="FIELD=VALUE")
    ap.add_argument("--seed", type=bench_run._nonnegative_int, default=0)
    ap.add_argument("--instances", type=int, default=12)
    args = ap.parse_args(argv)
    if args.workload is not None:
        workload = bench_run.workloads.WORKLOADS[args.workload]
    else:
        workload = bench_run.workloads.Workload("spec", parse_spec(args.spec), "")
    bench = bench_run.Bench(
        workload, argparse.Namespace(workload=args.workload, seed=args.seed, trace=0)
    )
    bench.setup()
    print(f"instance 0 (set-up) peak_rss_mb={peak_rss_mb():.1f} {heap_fields()}")
    ok = True
    for index in range(1, args.instances + 1):
        inst = bench.make_instance(index)
        rec = bench_run.Record(index=index, seed=inst.seed)
        out, _, rec.recover_s = bench.recover(inst)
        bench.check(inst, out, rec)
        bench.dense_reference(inst, rec)
        ok &= rec.ok
        print(f"instance {index} recover_s={rec.recover_s:.3f} ok={rec.ok} "
              f"peak_rss_mb={peak_rss_mb():.1f} {heap_fields()}")
    print(json.dumps({"workload": args.workload, "spec": workload.spec, "seed": args.seed,
                      "instances": args.instances, "peak_rss_mb": peak_rss_mb()}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
