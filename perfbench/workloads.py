"""Workloads of the recovery benchmark.

Each workload is one `harness.ExperimentSpec`; instance i of a run with seed
s uses the signal seed `instance_seed(s, i)`. Instance 0 is the cold warm-up
counted in set-up time, instances 1, 2, ... are measured.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Workload", "WORKLOADS", "instance_seed"]


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict
    why: str
    # Traced functions with at least one call per measured instance at the
    # commit that defined the workload; a later zero is flagged.
    ran_at_baseline: tuple[str, ...] = ()


_PIPELINE = (
    "dense_dft.fft_axes",
    "dense_dft.fft_grid",
    "dense_dft.forward_dft",
    "filters.cached_bucket_filter",
    "permutation.sample_permutation",
    "semi_equispaced.shifted_semi_equispaced",
    "semi_equispaced.semi_equispaced_fft",
    "semi_equispaced._dense_box",
    "hashing_measurements.acquire_measurements",
    "hashing_measurements.hash_to_bins",
    "hashing_measurements.update_residual_measurements",
    "location.locate_signal",
    "location.check_balanced",
    "estimation.estimate_values",
    "estimation.coordinatewise_median",
    "recovery.sparse_fft_with_stats",
    "recovery.reduce_l1_norm",
    "recovery.reduce_inf_norm",
    "recovery.recover_at_constant_snr",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-1d-65536",
            dict(n=1 << 16, d=1, k=32, signal_model="exact-sparse"),
            "1-D point of the crossover: large per-axis B stresses the radix-2 "
            "dense_dft (fft_axes, fft_grid) and chi subtraction falls back to "
            "full-grid FFTs",
            _PIPELINE + ("filters.max_window_beta", "filters.required_window_beta"),
        ),
        Workload(
            "gauss-2d-64",
            dict(n=64, d=2, k=8, signal_model="sparse-plus-gaussian-tail",
                 snr=10.0, epsilon=0.1),
            "noisy 2-D input where the (1+eps) guarantee breaks today: "
            "locate_signal and estimate_values dominate, with many more "
            "candidates and residual updates",
            _PIPELINE,
        ),
        Workload(
            "exact-3d-16",
            dict(n=16, d=3, k=8, signal_model="exact-sparse"),
            "3-D input where chi subtraction dominates: every "
            "shifted_semi_equispaced call falls back to _dense_box",
            _PIPELINE,
        ),
        Workload(
            "smoke-1d-256",
            dict(n=256, d=1, k=4, signal_model="exact-sparse"),
            "tiny grid for the benchmark's own smoke test; not a benchmark "
            "workload",
        ),
    )
}


def instance_seed(seed: int, index: int) -> int:
    """Signal seed of instance `index` in a run with seed `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
