"""Recovery benchmark for sparsefft, one workload per invocation.

    python3 perfbench/run.py --workload exact-1d-65536 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
One process, one thread: BLAS/OpenMP pools are pinned to 1 before NumPy loads.

Set-up (imports, input generation, one cold warm-up instance) is measured in
this process and in two fresh ones, and `setup_s` is their median. Then
instances run for `--seconds`: each builds its input with
`harness.generate_signal` and `np.fft.fftn(norm="ortho")` outside the timed
region, times one `recovery.sparse_fft_with_stats` call with
`spec.recovery_params(mu, seed)` (the call `harness._run_one` makes), checks
the output against the planted truth, and times a dense reference
(`np.fft.ifftn` plus top-k).

A traced pass reruns an instance with every public sparsefft function wrapped
(spans.py) and `xhat.values` replaced by a read recorder (reads.py). It must
return exactly the untraced output, and its sample ledger must balance:
`RunStats.total_samples` equals the acquisition sample counters plus the
estimation batches' samples and equals the values the recorder saw read,
and distinct reads stay within min(N, total samples). With `--trace 0` only the first instance gets a traced
pass (for the read count) and the end-to-end metrics are reported; with
`--trace 1` every instance does, and the per-layer metrics are reported.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. A record with the environment, every metric, the
per-instance results (and spans, when traced) goes to .perfbench_results/.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

PINNED_THREADS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in PINNED_THREADS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import reads  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

RESULTS_DIR = os.path.join(ROOT, ".perfbench_results")

SETUP_REPEATS = 3  # this process plus two fresh ones
MAX_INSTANCES = 200
PROBE_TIMEOUT_S = 120

# (name, unit, better): the end-to-end set, reported with --trace 0.
END_TO_END = (
    ("recover_s_p50", "s", "lower"),
    ("samples_per_N", "samples/N", "lower"),
    ("distinct_reads_frac", "fraction", "lower"),
    ("out_size_per_k", "entries/k", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def _function_metrics(qual: str, fields: tuple[tuple[str, str, str], ...]):
    return tuple((f"{qual}.{key}", unit, better) for key, unit, better in fields)


_CALLS = ("calls", "count", "lower")
_SELF = ("self_s", "s", "lower")
_TOTAL = ("total_s", "s", "lower")
_POINTS = ("points", "count", "lower")
# harness runs only in set-up; its time is harness.generate_signal.total_s.
LAYER_MODULES = tuple(m for m in spans.TRACED_MODULES if m != "harness")
# (name, unit, better): the per-layer set, reported with --trace 1. Counts and
# times are per measured instance; *_frac are ratios of summed counts.
PER_LAYER = (
    _function_metrics("dense_dft.fft_axes", (_CALLS, _SELF, _POINTS))
    + _function_metrics("dense_dft.fft_grid", (_CALLS, _SELF, _POINTS))
    + _function_metrics(
        "location.locate_signal",
        (_CALLS, _SELF, ("buckets", "count", "lower"), ("found", "count", "lower"),
         ("failed_frac", "fraction", "lower")),
    )
    + _function_metrics(
        "semi_equispaced.shifted_semi_equispaced",
        (_CALLS, _TOTAL, ("dense_fallback_frac", "fraction", "lower"),
         ("box_points_per_N", "points/N", "lower")),
    )
    + _function_metrics(
        "estimation.estimate_values",
        (_CALLS, _SELF, _TOTAL, ("locations", "count", "lower"),
         ("kept_frac", "fraction", "higher"), ("samples_per_N", "samples/N", "lower")),
    )
    + _function_metrics(
        "hashing_measurements.acquire_measurements",
        (_CALLS, _SELF, _TOTAL, ("samples_per_N", "samples/N", "lower"),
         ("table_mb", "MB", "lower")),
    )
    + _function_metrics("hashing_measurements.hash_to_bins", (_CALLS, _SELF, _TOTAL))
    + _function_metrics(
        "hashing_measurements.update_residual_measurements",
        (_CALLS, ("entries", "count", "lower"), _TOTAL),
    )
    + _function_metrics("recovery.reduce_l1_norm", (_SELF, _TOTAL))
    + _function_metrics("recovery.reduce_inf_norm", (_SELF, _TOTAL))
    + _function_metrics("recovery.recover_at_constant_snr", (_SELF, _TOTAL))
    + tuple(
        (f"recovery.samples_{stage}_per_N", "samples/N", "lower")
        for stage in ("location", "estimation", "infnorm", "constsnr")
    )
    + _function_metrics("filters.build_bucket_filter", (_CALLS, _TOTAL))
    + _function_metrics("harness.generate_signal", (_TOTAL,))
    + tuple((f"layer.{m}.self_s", "s", "lower") for m in LAYER_MODULES)
    + (
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_frac", "fraction", "lower"),
        ("reference.dense_s_p50", "s", "lower"),
        ("reference.sparse_dense_ratio", "ratio", "lower"),
        ("quality.fail_rate", "fraction", "lower"),
        ("quality.l2_ratio_p50", "ratio", "lower"),
    )
)


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"need a non-negative integer, got {text}")
    return value


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=_nonnegative_int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: measure one set-up in a fresh process and print it as JSON.
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "sparsefft")):
        print(f"perfbench: no library sources at {SRC}/sparsefft; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    args = parse_args(argv, sorted(workloads.WORKLOADS))
    bench = Bench(workloads.WORKLOADS[args.workload], args)
    return bench.run()


@dataclass
class Instance:
    index: int
    seed: int
    x: object
    truth: object
    mu: float
    xhat: object


@dataclass
class Record:
    """Outcome of one measured instance."""

    index: int
    seed: int
    recover_s: float = 0.0
    error: str = ""
    samples: int = 0
    out_size: int = 0
    l2_ratio: float = 0.0
    guarantee_ok: bool = False
    head_recall: float = 0.0
    ok: bool = False
    dense_s: float = 0.0
    dense_ok: bool = False
    traced_s: float | None = None
    distinct_reads: int | None = None
    ledger_checked: bool = False
    stats: object = None
    problems: list = field(default_factory=list)


class Bench:
    def __init__(self, workload, args) -> None:
        self.workload = workload
        self.args = args

    # -- library calls -----------------------------------------------------

    def _import(self) -> None:
        if hasattr(self, "spec"):
            return
        import sparsefft
        from sparsefft import harness, recovery
        from sparsefft.core import DenseSignal

        src = os.path.realpath(SRC)
        if not os.path.realpath(sparsefft.__file__).startswith(src + os.sep):
            raise RuntimeError(f"sparsefft imported from {sparsefft.__file__}, not {src}")
        self.harness, self.recovery, self.DenseSignal = harness, recovery, DenseSignal
        self.spec = harness.ExperimentSpec(**self.workload.spec)
        self.N = self.spec.n**self.spec.d

    def make_instance(self, index: int) -> Instance:
        spec = self.spec
        seed = workloads.instance_seed(self.args.seed, index)
        x, truth, mu = self.harness.generate_signal(spec, seed)
        values = np.fft.fftn(x.values, norm="ortho")
        xhat = self.DenseSignal(spec.n, spec.d, values, "frequency")
        return Instance(index, seed, x, truth, mu, xhat)

    def recover(self, inst: Instance, xhat=None):
        """Timed call; returns (output, stats, seconds)."""
        spec = self.spec
        params = spec.recovery_params(inst.mu, inst.seed)
        start = time.perf_counter()
        out, stats = self.recovery.sparse_fft_with_stats(
            inst.xhat if xhat is None else xhat,
            spec.k,
            epsilon=spec.epsilon,
            r_star=spec.effective_r_star(),
            mu=inst.mu,
            seed=inst.seed,
            params=params,
        )
        return out, stats, time.perf_counter() - start

    # -- checks ------------------------------------------------------------

    def check(self, inst: Instance, out, rec: Record) -> None:
        """Compare an output with the planted truth.

        The l2 guarantee is ||x - x'||^2 <= (1+eps) max(Err_k^2, (1e-9 ||x||)^2),
        with the floor `harness._run_one` uses. An output is correct when it
        is finite and holds every planted head; exact-sparse outputs must also
        meet the guarantee. Guarantee misses on noisy inputs are counted in
        quality.fail_rate, not treated as wrong output.
        """
        spec = self.spec
        x = inst.x.values
        est = out.to_dense("time").values
        err = float(np.linalg.norm(x - est) ** 2)
        tail = float(np.linalg.norm(x - inst.truth.to_dense("time").values) ** 2)
        floor = (1e-9 * float(np.linalg.norm(x))) ** 2
        rec.l2_ratio = err / ((1.0 + spec.epsilon) * max(tail, floor, 1e-300))
        rec.guarantee_ok = rec.l2_ratio <= 1.0
        truth = inst.truth.support()
        rec.head_recall = len(out.support() & truth) / len(truth)
        rec.out_size = len(out)
        finite = bool(np.all(np.isfinite(est)))
        rec.ok = finite and rec.head_recall == 1.0 and (
            rec.guarantee_ok or spec.signal_model != "exact-sparse"
        )
        if not rec.ok:
            rec.problems.append(
                f"instance {inst.index}: finite={finite} recall={rec.head_recall:.3f} "
                f"l2_ratio={rec.l2_ratio:.4g}"
            )

    def dense_reference(self, inst: Instance, rec: Record) -> None:
        """Dense inverse FFT plus top-k; median of three timings."""
        k = self.spec.k
        times = []
        for _ in range(3):
            start = time.perf_counter()
            y = np.fft.ifftn(inst.xhat.values, norm="ortho")
            top = np.argpartition(np.abs(y).reshape(-1), -k)[-k:]
            times.append(time.perf_counter() - start)
        truth = np.ravel_multi_index(inst.truth.coords_array().T, (self.spec.n,) * self.spec.d)
        rec.dense_s = statistics.median(times)
        rec.dense_ok = set(top.tolist()) == set(truth.tolist())

    def traced_pass(self, tracer, inst: Instance, out, stats, rec: Record) -> None:
        """Rerun under tracer and read recorder; check determinism and ledger."""
        recorder = reads.ReadRecorder(inst.xhat.values)
        xhat = self.DenseSignal(self.spec.n, self.spec.d, inst.xhat.values, "frequency")
        xhat.values = recorder
        first = len(tracer.spans)
        label = f"i{inst.index}"
        try:
            with tracer.recording(label):
                out2, stats2, rec.traced_s = self.recover(inst, xhat)
        except Exception:
            rec.problems.append(f"instance {inst.index}: traced pass raised\n"
                                + traceback.format_exc())
            return
        rec.distinct_reads = recorder.log.distinct
        if out2.entries != out.entries or stats2 != stats:
            rec.problems.append(
                f"instance {inst.index}: traced output differs from the untraced "
                "one (a read bypassed the recorder, or recovery is not deterministic)"
            )
        rec.problems += [
            f"instance {inst.index}: {problem}"
            for problem in spans.ledger_problems(
                tracer.spans[first:], stats2.total_samples, recorder.log.reads,
                rec.distinct_reads, self.N,
            )
        ]
        rec.ledger_checked = True

    # -- phases ------------------------------------------------------------

    def setup(self) -> float:
        """Imports (timed from the start of this module), one input and one
        cold recovery; returns the seconds since the start."""
        self._import()
        self.recover(self.make_instance(0))
        return time.perf_counter() - _T0

    def setup_probe(self) -> float:
        """One set-up measured in a fresh process."""
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--setup-probe"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])

    def run(self) -> int:
        args = self.args
        tracing = bool(args.trace)
        if args.setup_probe:
            print(json.dumps({"setup_s": self.setup()}))
            return 0
        if tracing:
            # Traced set-up feeds the set-up layer metrics; setup_s is not
            # reported with --trace 1.
            self._import()
            tracer = spans.Tracer()
            with tracer.recording("setup"):
                setup_times = [self.setup()]
        else:
            setup_times = [self.setup()]
            tracer = spans.Tracer()

        # The set-up probes run between measured instances, at even shares
        # of the budget, so the instances sample machine speed over the whole
        # run rather than one stretch of it. Their time is not in the budget.
        probes = 0 if tracing else SETUP_REPEATS - 1
        records: list[Record] = []
        first = None
        measured = last = 0.0
        index = 1
        while len(records) < MAX_INSTANCES:
            if records and measured + last > args.seconds:
                break
            if len(setup_times) <= probes and measured >= (
                args.seconds * len(setup_times) / SETUP_REPEATS
            ):
                setup_times.append(self.setup_probe())
            began = time.perf_counter()
            inst = self.make_instance(index)
            rec = Record(index=index, seed=inst.seed)
            try:
                out, stats, rec.recover_s = self.recover(inst)
            except Exception:
                rec.error = traceback.format_exc()
            else:
                rec.samples, rec.stats = stats.total_samples, stats
                self.check(inst, out, rec)
                if tracing:
                    self.traced_pass(tracer, inst, out, stats, rec)
                elif first is None:
                    first = (inst, out, stats, rec)
            self.dense_reference(inst, rec)
            records.append(rec)
            last = time.perf_counter() - began
            measured += last
            index += 1
        while len(setup_times) <= probes:
            setup_times.append(self.setup_probe())
        # Peak memory of the measured instances, before the traced pass adds
        # the recorder's index arrays.
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if first is not None:
            self.traced_pass(tracer, *first)

        return self.report(records, setup_times, tracer)

    # -- metrics -----------------------------------------------------------

    def end_to_end(self, good, setup_times) -> dict:
        N, k = self.N, self.spec.k
        traced = [r.distinct_reads for r in good if r.distinct_reads is not None]
        return {
            "recover_s_p50": statistics.median(r.recover_s for r in good),
            "samples_per_N": statistics.fmean(r.samples for r in good) / N,
            # Without a traced pass (it raised, which fails the run) report 0.
            "distinct_reads_frac": statistics.fmean(traced) / N if traced else 0.0,
            "out_size_per_k": statistics.fmean(r.out_size for r in good) / k,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def per_layer(self, good, records, tracer) -> dict:
        measured = {f"i{r.index}" for r in good if r.traced_s is not None}
        m = max(1, len(measured))
        summary = spans.summarize(tracer.spans, measured)
        setup = spans.summarize(tracer.spans, {"setup"})
        fn, N = summary["functions"], self.N

        def get(qual, key, source=fn):
            return source.get(qual, {}).get(key, 0)

        def frac(num, den):
            return num / den if den else 0.0

        out = {}
        for qual, _, _ in PER_LAYER:
            func, _, key = qual.rpartition(".")
            if key in ("calls", "self_s", "total_s", "points", "buckets", "found",
                       "locations", "entries"):
                out[qual] = get(func, key) / m
        ac = "hashing_measurements.acquire_measurements"
        es = "estimation.estimate_values"
        lo = "location.locate_signal"
        sh = "semi_equispaced.shifted_semi_equispaced"
        out[f"{lo}.failed_frac"] = frac(get(lo, "failed"), get(lo, "buckets"))
        out[f"{sh}.dense_fallback_frac"] = frac(summary["fallback_shifted"], get(sh, "calls"))
        out[f"{sh}.box_points_per_N"] = get(sh, "box_points") / m / N
        out[f"{es}.kept_frac"] = frac(get(es, "kept"), get(es, "locations"))
        out[f"{es}.samples_per_N"] = get(es, "samples") / m / N
        out[f"{ac}.samples_per_N"] = get(ac, "samples") / m / N
        out[f"{ac}.table_mb"] = get(ac, "table_bytes") / m / 1e6
        stats = [r.stats for r in good if r.traced_s is not None]
        for stage in ("location", "estimation", "infnorm", "constsnr"):
            out[f"recovery.samples_{stage}_per_N"] = (
                statistics.fmean(getattr(s, f"samples_{stage}") for s in stats) / N
                if stats else 0.0
            )
        sfn = setup["functions"]
        out["filters.build_bucket_filter.calls"] = get("filters.build_bucket_filter", "calls", sfn)
        out["filters.build_bucket_filter.total_s"] = get("filters.build_bucket_filter", "total_s", sfn)
        out["harness.generate_signal.total_s"] = get("harness.generate_signal", "total_s", sfn)
        for module in LAYER_MODULES:
            out[f"layer.{module}.self_s"] = summary["modules"].get(module, 0.0) / m
        timed = [r for r in good if r.traced_s is not None]
        if timed:
            out["trace.overhead_s"] = statistics.median(r.traced_s - r.recover_s for r in timed)
            out["trace.overhead_frac"] = statistics.median(
                r.traced_s / r.recover_s - 1.0 for r in timed
            )
        out.update(self.outcomes(good, records))
        return {qual: out.get(qual, 0.0) for qual, _, _ in PER_LAYER}

    def outcomes(self, good, records) -> dict:
        """Guarantee misses and the dense reference: printed with every run,
        reported with the per-layer set, gated nowhere."""
        dense = statistics.median(r.dense_s for r in records)
        missed = sum(1 for r in records if r.error or not r.guarantee_ok)
        return {
            "reference.dense_s_p50": dense,
            "reference.sparse_dense_ratio": statistics.median(r.recover_s for r in good) / dense,
            "quality.fail_rate": missed / len(records),
            "quality.l2_ratio_p50": statistics.median(r.l2_ratio for r in good),
        }

    def flags(self, tracer, good) -> list[str]:
        measured = {f"i{r.index}" for r in good if r.traced_s is not None}
        fn = spans.summarize(tracer.spans, measured)["functions"]
        flags = [f"absent: {name}" for name in tracer.absent]
        flags += [f"absent: {name}" for name in self.workload.ran_at_baseline
                  if name not in tracer.names and name not in tracer.absent]
        if measured:
            flags += [
                f"zero calls: {name} ran at baseline but recorded no call"
                for name in self.workload.ran_at_baseline
                if name in tracer.names and name not in fn
            ]
        flags += [f"count error: {e}" for e in tracer.count_errors]
        return flags

    def report(self, records, setup_times, tracer) -> int:
        good = [r for r in records if not r.error]
        failed = len(records) - len(good)
        if not good:
            for r in records:
                print(r.error, file=sys.stderr)
            print("perfbench: every instance raised; no metrics", file=sys.stderr)
            return 1
        problems = [p for r in records for p in r.problems]
        # With --trace 1 the set-up ran traced, so no end-to-end set exists.
        e2e = {} if self.args.trace else self.end_to_end(good, setup_times)
        layer = self.per_layer(good, records, tracer) if self.args.trace else {}
        shown = layer if self.args.trace else {**e2e, **self.outcomes(good, records)}
        flags = self.flags(tracer, good)
        units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
        correct = not problems and all(r.ok for r in good)
        env = self.environment()

        print(f"workload {self.workload.name}: {self.workload.why}")
        print(f"instances: {len(records)} attempted, {failed} raised, "
              f"{sum(not r.guarantee_ok for r in good)} missed the (1+eps) l2 guarantee, "
              f"dense top-k matched the planted support on "
              f"{sum(r.dense_ok for r in records)}")
        print(f"checks: sample ledger balanced and distinct reads within min(N, samples) "
              f"on {sum(r.ledger_checked for r in records)} traced passes"
              + (" (see CHECK FAILED)" if problems else ""))
        if not self.args.trace:
            print(f"setup runs (s): {', '.join(f'{t:.3f}' for t in setup_times)}")
        for name, value in shown.items():
            gate = "" if name in e2e or self.args.trace else "  (not gated)"
            print(f"  {name:<58} {value:>16.6g} {units[name]}{gate}")
        print("environment: " + json.dumps(env, sort_keys=True))
        for flag in flags:
            print(f"FLAG {flag}")
        for problem in problems:
            print(f"CHECK FAILED {problem}")

        chosen = layer if self.args.trace else e2e
        self.write_record(env, e2e, layer, records, flags, problems, tracer)
        print(json.dumps({
            "correct": correct,
            "attempted": len(records),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in chosen.items()},
        }))
        return 0

    def environment(self) -> dict:
        return {
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "threads": {var: os.environ.get(var) for var in PINNED_THREADS},
            "caches": _lscpu_caches(),
            "workload": self.workload.name,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
        }

    def write_record(self, env, e2e, layer, records, flags, problems, tracer) -> None:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        name = f"{self.workload.name}-seed{self.args.seed}-trace{self.args.trace}.json"
        payload = {
            "environment": env,
            "end_to_end": e2e,
            "per_layer": layer,
            "instances": [
                {k: v for k, v in vars(r).items() if k != "stats"} for r in records
            ],
            "flags": flags,
            "problems": problems,
            "spans": [
                [s.name, s.start, s.end, s.parent, s.instance, s.counts]
                for s in tracer.spans
            ] if self.args.trace else [],
        }
        with open(os.path.join(RESULTS_DIR, name), "w") as fh:
            json.dump(payload, fh)


def _lscpu_caches() -> dict:
    try:
        proc = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return {}
    caches = {}
    for line in proc.stdout.splitlines():
        key, _, value = line.partition(":")
        if "cache" in key.lower():
            caches[key.strip()] = value.strip()
    return caches


if __name__ == "__main__":
    sys.exit(main())
