"""Smoke test of tests/output_digest.py, the digest of seeded recovery
outputs that shows a change keeps them bit for bit: a rerun gives the same
digest, and a one-ulp change of one value or a changed RunStats field
gives another; a run scaled by a power of two (--scale) gives the unscaled
total. The plan digest changes with the plan's geometry, its round count
and the text of its warning, and reads every stage the plan holds."""
import argparse
import dataclasses
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from sparsefft import StagePlan, Tunables
from sparsefft.harness import ExperimentSpec

from output_digest import (
    WORKLOADS,
    instance_seed,
    main,
    output_digest,
    plan_digest,
    power_of_two,
    stage_names,
)
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


def test_scaled_runs_give_the_unscaled_total(capsys):
    # Recovering 2^-20 or 2^20 times each signal, with mu alike, and hashing
    # the output divided back, prints the unscaled run's lines.
    totals = []
    for scale in ("1", "2**-20", "1048576"):
        assert main(["--workload", "smoke-1d-256", "--instances", "2", "--scale", scale]) == 0
        totals.append(capsys.readouterr().out)
    assert totals[0].split()[3] == output_digest(*smoke_run(0))
    assert totals[1] == totals[0] == totals[2]
    assert [power_of_two(text) for text in ("2**-20", "0.5", "1024")] == [2.0**-20, 0.5, 1024.0]
    for text in ("3", "0", "-2", "inf", "2**0.5"):
        with pytest.raises(argparse.ArgumentTypeError, match="not a power of two"):
            power_of_two(text)


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


def test_plan_digest_reads_the_geometry_rounds_and_warning(monkeypatch):
    spec = ExperimentSpec(**WORKLOADS["smoke-1d-256"].spec)
    digest = plan_digest(spec)
    assert plan_digest(spec) == digest
    assert plan_digest(dataclasses.replace(spec, k=spec.k + 1)) != digest
    with monkeypatch.context() as patch:
        patch.setattr(StagePlan, "rounds", property(lambda plan: 1))
        assert plan_digest(spec) != digest
    warn = warnings.warn
    with monkeypatch.context() as patch:
        patch.setattr(warnings, "warn", lambda message, *a, **kw: warn(message + ".", *a, **kw))
        assert plan_digest(spec) != digest
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "output_digest.py"), "--workload",
         "smoke-1d-256", "--instances", "1"],
        capture_output=True, text=True, cwd=os.path.dirname(HERE), timeout=150,
        check=False,
        env=dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src")),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [f"plan {digest}"]


def test_plan_digest_reads_every_stage_of_the_plan(monkeypatch):
    # The stages are the plan's StagePlan fields, not a list of names the
    # tool keeps: one more repetition in any stage changes the digest.
    spec = ExperimentSpec(**WORKLOADS["smoke-1d-256"].spec)
    plan = spec.recovery_params(0.0, 0)
    stages = [
        f.name for f in dataclasses.fields(plan) if isinstance(getattr(plan, f.name), StagePlan)
    ]
    assert stage_names() == stages == ["main", "const_snr"]
    digest = plan_digest(spec)
    real = ExperimentSpec.recovery_params
    for name in stages:

        def one_more_rep(self, mu, seed, name=name):
            params = real(self, mu, seed)
            stage = getattr(params, name)
            return dataclasses.replace(
                params, **{name: dataclasses.replace(stage, reps=stage.reps + 1)}
            )

        with monkeypatch.context() as patch:
            patch.setattr(ExperimentSpec, "recovery_params", one_more_rep)
            assert plan_digest(spec) != digest
