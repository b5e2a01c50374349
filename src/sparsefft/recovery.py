"""Outer recovery loops: from bucket measurements to a sparse spectrum.

The full pipeline runs three stages. An l1-norm reduction loop shrinks the
residual head mass geometrically while reusing one fixed measurement set, an
optional inf-norm reduction knocks down stray large coefficients with fresh
measurements, and a final constant-SNR pass re-estimates everything once the
residual is flat. `sparse_fft` wires the stages together; each stage is also
callable on its own.

A measurement set owns the residual: its tables hold mset.source minus
mset.chi, so a stage reads the current approximation from mset.chi and adds
what it keeps into it (`update_residual_measurements`). The l1 and inf-norm
stages run one shared loop, `_threshold_rounds`: locate candidates in every
hashing, estimate the residual there, and fold the estimates above the
round's threshold into the set. They differ only in their threshold
schedules and measurement sets. The inf-norm and constant-SNR stages draw a
fresh set from the caller's chi (`_fresh_measurements`).

Every constant comes from `Tunables`, and this module turns the constants
into stage geometry. Location buckets follow `core.location_bucket_count`:
through `RecoveryParams.derive` for the main and inf-norm acquisitions, and at
the target accuracy epsilon for the constant-SNR stage. Each stage sizes its
estimation buckets once with `core.estimation_bucket_count` and passes that B
to `estimate_values`; the l1 stage also sizes its repetitions from it.

Candidates travel between stages as int64 arrays of row-major flat indices:
`_union_locations` concatenates every hashing's `found` array and keeps
each index once, in first-seen order, and estimation takes that array as is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DenseSignal,
    DivergenceError,
    ParameterError,
    RecoveryParams,
    SparseApprox,
    Tunables,
    _check_targets,
    _first_seen,
    _log4,
    _loglog2,
    estimation_bucket_count,
    location_bucket_count,
)
from .estimation import estimate_values
from .hashing_measurements import (
    MeasurementSet,
    acquire_measurements,
    update_residual_measurements,
)
from .location import locate_signal

__all__ = [
    "RunStats",
    "reduce_l1_norm",
    "reduce_inf_norm",
    "recover_at_constant_snr",
    "sparse_fft",
    "sparse_fft_with_stats",
]


@dataclass
class RunStats:
    """Spectrum accesses split by pipeline stage.

    `samples_location` counts the one-off acquisition reads; they do not grow
    with later iterations. The other three grow with their stage's estimation
    calls (which draw fresh hashings and so read the spectrum again).
    """

    samples_location: int = 0
    samples_estimation: int = 0
    samples_infnorm: int = 0
    samples_constsnr: int = 0

    @property
    def total_samples(self) -> int:
        return (
            self.samples_location
            + self.samples_estimation
            + self.samples_infnorm
            + self.samples_constsnr
        )


def _union_locations(mset: MeasurementSet) -> np.ndarray:
    """Candidate flat indices from every hashing, deduped in first-seen order."""
    found = [locate_signal(mset, r).found for r in range(len(mset.hashings))]
    return _first_seen(np.concatenate(found))


def _l1_estimate_reps(n: int, d: int, k_est: int, B_est: int, tun: Tunables) -> int:
    """Median repetitions for one l1-stage estimation call over B_est buckets.

    Grows like loglog N + d^2 + log(B/k) so that a union bound over the
    O(k log N) estimates of a full run still leaves every one accurate.
    """
    ratio = max(1.0, B_est / max(1, k_est))
    return max(
        1,
        math.ceil(
            tun.est_reps_coeff * (_loglog2(n**d) + d * d + math.log2(ratio))
        ),
    )


def _inf_estimate_reps(N: int, tun: Tunables) -> int:
    """Median repetitions for one inf-norm or constant-SNR estimation call:
    ~log2 N, enough for every estimate of a stage to be accurate."""
    return max(1, math.ceil(tun.inf_est_reps_coeff * math.log2(N)))


def _fresh_measurements(
    xhat: DenseSignal, chi: SparseApprox, k: int, rng: np.random.Generator, **derive
) -> MeasurementSet:
    """A new measurement set of `RecoveryParams.derive(n, d, k, **derive)`
    geometry, with chi subtracted from its tables and recorded as its chi.
    Its sample counter holds the acquisition reads."""
    params = RecoveryParams.derive(xhat.n, xhat.d, k, **derive)
    mset = acquire_measurements(xhat, params, rng)
    update_residual_measurements(mset, chi)
    return mset


def _threshold_rounds(
    mset: MeasurementSet,
    rounds: list[tuple[float, bool]],
    B_est: int,
    reps: int,
    rng: np.random.Generator,
) -> SparseApprox:
    """Locate, estimate above a threshold, and fold, once per round.

    Each (threshold, last_if_idle) round unions location candidates over all
    hashings, estimates the residual against mset.chi from reps fresh
    B_est-bucket hashings of mset.source, and folds the estimates above
    threshold into the set (its tables and its chi). Decoding reads the
    tables alone, so the candidates are reused until a round keeps
    something. A round that keeps nothing ends the loop when marked
    last_if_idle. Estimation reads are added to mset.sample_counter. Returns
    the kept values, added round by round.
    """
    increment = SparseApprox.empty(mset.n, mset.d)
    locations = None
    for threshold, last_if_idle in rounds:
        if locations is None:
            locations = _union_locations(mset)
        kept = SparseApprox.empty(mset.n, mset.d)
        if locations.size:
            batch = estimate_values(
                mset.source, mset.chi, locations, B_est, threshold, reps, rng=rng
            )
            mset.sample_counter += batch.samples
            kept = batch.kept
        if len(kept) > 0:
            update_residual_measurements(mset, kept)
            increment = increment + kept
            locations = None
        elif last_if_idle:
            break
    return increment


def reduce_l1_norm(
    mset: MeasurementSet,
    nu: float,
    mu: float,
    *,
    rng: np.random.Generator,
    stats: RunStats | None = None,
) -> SparseApprox:
    """Shrink the head l1 mass of the residual mset holds from nu * k toward
    mu * k.

    Runs ~log2(log^4 N) rounds of `_threshold_rounds` over all hashings with
    a geometrically falling acceptance threshold, and stops early once the
    threshold has bottomed out at the noise floor and a round keeps nothing.
    rng draws the estimation hashings; it must not replay the acquisition's
    stream. Every accepted increment goes into mset (its tables and its
    chi); returns the updated total approximation, mset.chi.
    """
    _check_targets(nu=nu, mu=mu)
    params = mset.params
    tun = params.tunables
    n, d, N = params.n, params.d, params.N
    mu_eff = max(mu, tun.mu_floor_rel * mset.initial_scale)
    k_est = 4 * params.k
    B_est = estimation_bucket_count(n, d, k_est, 1.0, tun)
    reps = _l1_estimate_reps(n, d, k_est, B_est, tun)
    inner = max(1, math.ceil(tun.inner_iters_coeff * _loglog2(N)))
    floor = tun.head_bias * mu_eff
    heads = [tun.l1_threshold_frac * nu * 0.5**t for t in range(inner)]
    rounds = [(head + floor, head <= floor) for head in heads]
    before = mset.sample_counter
    _threshold_rounds(mset, rounds, B_est, reps, rng)
    if stats is not None:
        stats.samples_estimation += mset.sample_counter - before
    return mset.chi


def reduce_inf_norm(
    xhat: DenseSignal,
    chi: SparseApprox,
    k_tilde: int,
    nu: float,
    r_star: float,
    mu: float,
    rng: np.random.Generator,
    *,
    tunables: Tunables | None = None,
    stats: RunStats | None = None,
) -> SparseApprox:
    """Chase the few coefficients still above the target sup-norm bound.

    Self-contained: draws its own ~log N hashings (more than the l1 loop
    uses, because at most k_tilde survivors must all be caught), then runs
    `_threshold_rounds` with a threshold that halves over ceil(log2 r_star)
    rounds. Returns only the increment found here, not chi plus the
    increment.
    """
    tun = tunables or Tunables()
    if k_tilde < 1:
        raise ParameterError(f"need k_tilde >= 1, got {k_tilde}")
    _check_targets(nu=nu, mu=mu, r_star=r_star)
    n, d = xhat.n, xhat.d
    N = n**d
    r_max = max(
        3, math.ceil(tun.inf_hashings_coeff * math.log2(N) / math.sqrt(tun.alpha))
    )
    T = max(1, math.ceil(math.log2(max(r_star, 2.0))))
    mset = _fresh_measurements(xhat, chi, k_tilde, rng, r_max=r_max, tunables=tun)
    rounds = [
        (tun.inf_threshold_scale * (nu * 2.0 ** (T - (t + 1)) + mu), False)
        for t in range(T)
    ]
    B_est = estimation_bucket_count(n, d, k_tilde, 1.0, tun)
    increment = _threshold_rounds(mset, rounds, B_est, _inf_estimate_reps(N, tun), rng)
    if stats is not None:
        stats.samples_infnorm += mset.sample_counter
    return increment


def recover_at_constant_snr(
    xhat: DenseSignal,
    chi: SparseApprox,
    k: int,
    epsilon: float,
    rng: np.random.Generator,
    *,
    tunables: Tunables | None = None,
    stats: RunStats | None = None,
) -> SparseApprox:
    """One locate-and-estimate sweep for a residual with O(1) SNR.

    Uses a single hashing with B = Theta(k / (epsilon alpha^d)) buckets, so
    the tail noise per bucket is already at the target accuracy; a median
    over O(log N) estimation repetitions then suffices. Keeps the largest
    4k estimates above a scale-relative zero floor and returns them as an
    increment over chi.
    """
    tun = tunables or Tunables()
    if k < 1:
        raise ParameterError(f"need k >= 1, got {k}")
    _check_targets(epsilon=epsilon)
    n, d = xhat.n, xhat.d
    B = location_bucket_count(n, d, k, epsilon, tun)
    mset = _fresh_measurements(xhat, chi, k, rng, B=B, r_max=1, tunables=tun)
    kept = SparseApprox.empty(n, d)
    locations = locate_signal(mset, 0).found
    if locations.size:
        batch = estimate_values(
            xhat,
            chi,
            locations,
            estimation_bucket_count(n, d, k, epsilon, tun),
            tun.zero_floor_rel * mset.initial_scale,
            _inf_estimate_reps(n**d, tun),
            rng=rng,
        )
        mset.sample_counter += batch.samples
        kept = batch.kept.largest(tun.snr_keep_factor * k)
    if stats is not None:
        stats.samples_constsnr += mset.sample_counter
    return kept


def sparse_fft_with_stats(
    xhat: DenseSignal,
    k: int,
    epsilon: float = 0.1,
    r_star: float = 2.0,
    mu: float = 0.0,
    seed: int = 0,
    *,
    tunables: Tunables | None = None,
    params: RecoveryParams | None = None,
) -> tuple[SparseApprox, RunStats]:
    """Full recovery pipeline, returning the approximation and a sample ledger.

    mu is the caller's noise floor (mu = 0 means exactly sparse) and r_star
    bounds the initial SNR; together they set the outer round count and the
    per-round thresholds. The returned stats split spectrum reads by stage,
    with acquisition (`samples_location`) fixed after startup. Passing
    params overrides the derived geometry (bucket counts, repetitions); its
    grid must match xhat, its k must equal k, and it brings its own
    tunables, so tunables must then be left out. The epsilon, mu and r_star
    arguments are checked either way (see `core._check_targets`).
    """
    if xhat.domain != "frequency":
        raise ParameterError("recovery expects a frequency-domain signal")
    _check_targets(epsilon=epsilon, mu=mu, r_star=r_star)
    n, d = xhat.n, xhat.d
    N = n**d
    if params is None:
        params = RecoveryParams.derive(
            n,
            d,
            k,
            epsilon=epsilon,
            mu=mu,
            r_star=r_star,
            seed=seed,
            tunables=tunables,
        )
    elif params.n != n or params.d != d:
        raise ParameterError("params grid does not match the signal grid")
    elif params.k != k:
        raise ParameterError(f"params.k = {params.k} does not match k = {k}")
    elif tunables is not None:
        raise ParameterError("pass tunables inside params, not beside it")
    tun = params.tunables
    rng = np.random.default_rng(seed)
    stats = RunStats()
    mset = acquire_measurements(xhat, params, rng)
    stats.samples_location = mset.sample_counter
    mu_eff = max(mu, tun.mu_floor_rel * mset.initial_scale)
    L4 = _log4(N)
    k_tilde = max(1, math.ceil(tun.snr_keep_factor * k / L4))

    norm_baseline = 0.0
    for t in range(params.T):
        nu = 4.0 * mu_eff * L4 ** (params.T - t)
        reduce_l1_norm(mset, nu, mu_eff, rng=rng, stats=stats)
        nu_prime = L4 * (4.0 * mu_eff * L4 ** (params.T - (t + 1)) + 20.0 * mu_eff)
        if nu_prime > 0.0:
            r_star_inf = max(2.0, nu / nu_prime)
            increment = reduce_inf_norm(
                xhat,
                mset.chi,
                k_tilde,
                nu_prime,
                r_star_inf,
                nu_prime,
                rng,
                tunables=tun,
                stats=stats,
            )
            if len(increment) > 0:
                update_residual_measurements(mset, increment)
        norm_now = mset.chi.norm1()
        if norm_baseline == 0.0:
            norm_baseline = norm_now
        elif norm_now > tun.divergence_factor * norm_baseline:
            raise DivergenceError(
                f"approximation l1 mass grew from {norm_baseline:.3g} to "
                f"{norm_now:.3g} after round {t}; the residual is not shrinking"
            )

    final = recover_at_constant_snr(
        xhat, mset.chi, 2 * k, epsilon, rng, tunables=tun, stats=stats
    )
    result = (mset.chi + final).drop_below(tun.zero_floor_rel * mset.initial_scale)
    return result, stats


def sparse_fft(
    xhat: DenseSignal,
    k: int,
    epsilon: float = 0.1,
    r_star: float = 2.0,
    mu: float = 0.0,
    seed: int = 0,
    *,
    tunables: Tunables | None = None,
    params: RecoveryParams | None = None,
) -> SparseApprox:
    """Recover a k-sparse approximation of the spectrum's inverse transform.

    Reads only O(k log N) positions of xhat (see `sparse_fft_with_stats` for
    the exact ledger). The output lives on the time side: it approximates the
    signal x whose transform is xhat, keeping the head coefficients and
    discarding everything at the mu noise floor.
    """
    result, _ = sparse_fft_with_stats(
        xhat, k, epsilon, r_star, mu, seed, tunables=tunables, params=params
    )
    return result
