"""Smoke tests of the recovery benchmark itself, on a 256-point grid.

Run with `PYTHONPATH=src python -m pytest perfbench`. The end-to-end test
runs `run.py` in a fresh process for both trace settings and checks that it
prints every metric `BENCHMARK.json` names, with its unit, and that the
ledger check ran; the others exercise the read recorder, the tracer and the
ledger check directly.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reads  # noqa: E402
import spans  # noqa: E402


def _bench(trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "smoke-1d-256",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=150, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_bench_prints_every_named_metric_with_its_unit(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        expected = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    lines, result = _bench(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {(p[0], p[2]) for p in (line.split() for line in lines if line.startswith("  "))}
    for name, unit in expected.items():
        assert (name, unit) in printed, name
    ledger = [line for line in lines if line.startswith("checks: sample ledger")]
    assert ledger and " on 0 traced" not in ledger[0]
    assert not any(line.startswith(("CHECK FAILED", "FLAG")) for line in lines)


def test_recorder_marks_exactly_the_indexed_positions():
    data = np.arange(16, dtype=np.complex128).reshape(4, 4)
    rec = reads.ReadRecorder(data)
    flat = rec.reshape(-1)
    np.testing.assert_array_equal(flat[np.array([[1, 5], [5, 14]])], [[1, 5], [5, 14]])
    assert rec[2, 3] == 11
    assert sorted(np.flatnonzero(rec.log.mask)) == [1, 5, 11, 14]
    assert rec.log.distinct == 4 and rec.log.reads == 5


@pytest.mark.parametrize("access", [
    lambda r: np.abs(r),
    lambda r: np.linalg.norm(r),
    lambda r: r.copy(),
    lambda r: r[:],
    lambda r: np.fft.ifftn(r),
])
def test_recorder_counts_unattributable_access_as_reading_everything(access):
    data = np.arange(8, dtype=np.complex128)
    rec = reads.ReadRecorder(data)
    np.testing.assert_allclose(np.asarray(access(rec), dtype=complex),
                               np.asarray(access(data), dtype=complex))
    assert rec.log.distinct == 8 and rec.log.reads >= 8


def test_recorder_bypass_reads_nan_not_data():
    rec = reads.ReadRecorder(np.ones(8, dtype=np.complex128))
    assert np.isnan(np.asarray(rec)).all()


def test_tracer_rebinds_aliases_and_restores_them():
    from sparsefft import dense_dft, hashing_measurements

    original = dense_dft.fft_axes
    assert hashing_measurements.fft_axes is original
    tracer = spans.Tracer()
    with tracer.recording("t"):
        assert hashing_measurements.fft_axes is not original
        hashing_measurements.fft_axes(np.ones((2, 4), dtype=complex), (1,))
    assert hashing_measurements.fft_axes is original and dense_dft.fft_axes is original
    (span,) = [s for s in tracer.spans if s.name == "dense_dft.fft_axes"]
    assert span.instance == "t" and span.counts == {"points": 8}


def test_tracer_reports_a_missing_function_as_absent(monkeypatch):
    from sparsefft import semi_equispaced

    monkeypatch.delattr(semi_equispaced, "_dense_box")
    tracer = spans.Tracer()
    assert "semi_equispaced._dense_box" in tracer.absent
    assert "semi_equispaced._dense_box" not in tracer.names


def test_ledger_check_flags_a_mismatch():
    acquired = spans.Span("hashing_measurements.acquire_measurements", 0, 1, -1, "i",
                          {"samples": 100})
    estimated = spans.Span("estimation.estimate_values", 0, 1, -1, "i", {"samples": 20})
    located = spans.Span("location.locate_signal", 0, 1, -1, "i", {"found": 7})
    trace = [acquired, estimated, located]
    assert spans.ledger_problems(trace, 120, 120, 64, 64) == []
    assert "batches = 120" in spans.ledger_problems(trace, 121, 121, 64, 64)[0]
    assert "read from the spectrum = 119" in spans.ledger_problems(trace, 120, 119, 64, 64)[0]
    assert "distinct reads" in spans.ledger_problems(trace, 120, 120, 65, 64)[0]
