"""Smoke test of tests/output_digest.py, the digest of seeded recovery
outputs that shows a change keeps them bit for bit: a rerun gives the same
digest, and a one-ulp change of one value or a changed RunStats field
gives another."""
import os
import subprocess
import sys

import numpy as np

from sparsefft import Tunables
from sparsefft.harness import ExperimentSpec

from output_digest import WORKLOADS, instance_seed, output_digest
from spec_fields import parse_spec
from test_recovery import harness_run

HERE = os.path.dirname(os.path.abspath(__file__))


def smoke_run(index: int):
    spec = ExperimentSpec(**WORKLOADS["smoke-1d-256"].spec)
    return harness_run(spec, instance_seed(0, index))


def test_rerun_gives_the_same_digest_and_one_ulp_another():
    out, stats = smoke_run(1)
    digest = output_digest(out, stats)
    assert output_digest(*smoke_run(1)) == digest
    assert output_digest(*smoke_run(2)) != digest
    assert len(out) > 0
    rebuilt = type(out).from_flat(out.n, out.d, out.flat, out.values)
    assert output_digest(rebuilt, stats) == digest
    nudged = out.values.copy()
    nudged[0] = np.nextafter(nudged[0].real, np.inf) + 1j * nudged[0].imag
    moved = type(out).from_flat(out.n, out.d, out.flat, nudged)
    assert np.count_nonzero(moved.values != out.values) == 1
    assert output_digest(moved, stats) != digest
    stats.samples_estimation += 1
    assert output_digest(out, stats) != digest


def test_script_prints_a_line_per_case_and_a_total():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "output_digest.py"), "--workload",
         "smoke-1d-256", "--instances", "2"],
        capture_output=True, text=True, cwd=os.path.dirname(HERE), timeout=150,
        check=False,
        env=dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src")),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["instance", "0"], ["instance", "1"], ["total", lines[-1].split()[1]]
    ]
    assert lines[1].split()[-1] == output_digest(*smoke_run(1))


def test_spec_words_file_tunables_under_constants():
    # The ROADMAP's "tuned" points: tunables given among the spec fields.
    words = "n=4096 d=2 k=4 alpha=0.5 bucket_scale=2 probes_coeff=1 location_reps_coeff=0.5"
    spec = ExperimentSpec(**parse_spec(words.split()))
    assert (spec.n, spec.d, spec.k) == (4096, 2, 4)
    assert spec.tunables() == Tunables(
        alpha=0.5, bucket_scale=2, probes_coeff=1, location_reps_coeff=0.5
    )
    assert parse_spec(["n=64", "d=1", "k=2"]) == {"n": 64, "d": 1, "k": 2}


def test_script_digests_a_tuned_spec():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "output_digest.py"), "--spec", "n=256", "d=1",
         "k=2", "bucket_scale=2", "--instances", "1"],
        capture_output=True, text=True, cwd=os.path.dirname(HERE), timeout=150,
        check=False,
        env=dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src")),
    )
    assert proc.returncode == 0, proc.stderr
    digest = proc.stdout.splitlines()[0].split()[-1]
    tuned = ExperimentSpec(n=256, d=1, k=2, constants={"bucket_scale": 2})
    assert digest == output_digest(*harness_run(tuned, instance_seed(0, 0)))
    untuned = ExperimentSpec(n=256, d=1, k=2)
    assert digest != output_digest(*harness_run(untuned, instance_seed(0, 0)))
