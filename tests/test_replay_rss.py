"""Smoke test of tests/replay_rss.py, the in-process peak-memory and heap
replay of the benchmark's measured loop, on the benchmark's 256-point smoke
workload, named or given field by field. It runs in a fresh process,
because ru_maxrss is a property of the whole process and the tool pins the
BLAS threads before NumPy loads."""
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SMOKE = {"n": 256, "d": 1, "k": 4, "signal_model": "exact-sparse"}


@pytest.mark.parametrize(
    "what,workload",
    [
        (["--workload", "smoke-1d-256"], "smoke-1d-256"),
        (["--spec"] + [f"{key}={value}" for key, value in SMOKE.items()], None),
    ],
    ids=["workload", "spec"],
)
def test_replay_prints_a_peak_per_instance(what, workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "replay_rss.py"), *what,
         "--seed", "3", "--instances", "2"],
        capture_output=True, text=True, cwd=os.path.dirname(HERE), timeout=150,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["workload"] == workload and summary["instances"] == 2
    assert summary["spec"] == SMOKE
    rows = lines[:-1]
    assert [row.split()[1] for row in rows] == ["0", "1", "2"]
    assert all("ok=True" in row for row in rows[1:])
    fields = [dict(f.split("=") for f in row.split() if "=" in f) for row in rows]
    peaks = [float(f["peak_rss_mb"]) for f in fields]
    # Lines print the peak to 0.1 MB; the summary gives it unrounded.
    assert peaks == sorted(peaks) and 0 < peaks[-1] <= summary["peak_rss_mb"] + 0.05
    # glibc's heap beside the peak: both fields, or n/a for both without
    # mallinfo2.
    for f in fields:
        arena, free = f["arena_mb"], f["free_mb"]
        if arena == "n/a":
            assert free == "n/a"
        else:
            assert 0 <= float(free) <= float(arena) <= peaks[-1] + 0.05
