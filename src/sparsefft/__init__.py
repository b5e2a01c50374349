"""Sublinear-sample sparse transform recovery over power-of-two grids.

The library recovers a k-sparse signal from a small number of reads of its
orthonormal discrete Fourier transform. `sparse_fft` is the main entry
point; the submodules expose the building blocks (bucket filters, spectrum
permutations, bucket measurements, location, estimation) and a benchmark
harness with a CLI.
"""

from .core import (
    DenseSignal,
    DimensionError,
    DivergenceError,
    ParameterError,
    RecoveryParams,
    SparseApprox,
    StagePlan,
    Tunables,
    digit_base,
)
from .dense_dft import forward_dft, inverse_dft
from .diagnostics import NoiseProfile, ScaleGuardError, compute_noise_profile
from .estimation import EstimateBatch, estimate_values
from .filters import BucketFilter, build_bucket_filter
from .harness import ExperimentSpec, RunRecord, generate_signal, run_experiment
from .hashing_measurements import (
    MeasurementSet,
    acquire_measurements,
    update_residual_measurements,
)
from .location import decode_hashings
from .permutation import (
    Hashing,
    SpectrumPermutation,
    is_isolated,
    sample_permutation,
)
from .recovery import (
    RunStats,
    recover_at_constant_snr,
    reduce_inf_norm,
    reduce_l1_norm,
    sparse_fft,
    sparse_fft_with_stats,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ParameterError",
    "DimensionError",
    "ScaleGuardError",
    "DivergenceError",
    "digit_base",
    "DenseSignal",
    "SparseApprox",
    "Tunables",
    "StagePlan",
    "RecoveryParams",
    "forward_dft",
    "inverse_dft",
    "BucketFilter",
    "build_bucket_filter",
    "SpectrumPermutation",
    "Hashing",
    "sample_permutation",
    "is_isolated",
    "MeasurementSet",
    "acquire_measurements",
    "decode_hashings",
    "update_residual_measurements",
    "EstimateBatch",
    "estimate_values",
    "RunStats",
    "reduce_l1_norm",
    "reduce_inf_norm",
    "recover_at_constant_snr",
    "sparse_fft",
    "sparse_fft_with_stats",
    "NoiseProfile",
    "compute_noise_profile",
    "ExperimentSpec",
    "RunRecord",
    "generate_signal",
    "run_experiment",
]
