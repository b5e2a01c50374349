"""Outer recovery loops: from bucket measurements to a sparse spectrum.

The full pipeline runs three stages. An l1-norm reduction loop shrinks the
residual head mass geometrically while reusing one fixed measurement set, an
optional inf-norm reduction knocks down stray large coefficients with fresh
measurements, and a final constant-SNR pass re-estimates everything once the
residual is flat. `sparse_fft` wires the stages together; each stage is also
callable on its own.

A measurement set owns the residual: its tables hold mset.source minus
mset.chi, so a stage reads the current approximation from mset.chi and adds
what it keeps into it (`update_residual_measurements`). The l1 loop,
`_threshold_rounds`, reuses the main set, the run's only stored table,
through every round: decode every hashing (`decode_hashings`), estimate
the residual at the candidates, and fold the estimates above the round's
threshold into the set. The inf-norm and constant-SNR stages decode their
fresh sets once, so they stream them (`acquire_measurements(..., chi=chi)`):
the same digit walk decodes each ladder shift as it is read, cleaned of the
caller's chi, and the set hands over its candidates in `found`. Each stage
then makes one estimation call, above its one threshold.
`sparse_fft_with_stats` frees the main set before the constant-SNR sweep,
since only its chi and scale are used after the T rounds.

For mu > 0 the caller promises ||x||_inf <= r_star * mu; mu = 0 (exactly
sparse) bounds nothing. Under that bound every residual coefficient obeys
|x_i - chi_i| <= x_inf + ||chi||_inf with x_inf = r_star * mu, so a threshold
above that sum cannot keep a true coefficient. `sparse_fft_with_stats` passes
x_inf (math.inf when mu = 0) to the l1 and inf-norm stages: a round whose
threshold is above the bound is idle and makes no reads, and the inf-norm
stage makes no acquisition at all when its threshold is above it.

Every constant comes from `Tunables`, and `RecoveryParams.derive` turns
them into the plan, one `StagePlan` per stage, before the first read. Each
stage reads its geometry from its record; only the thresholds are computed
at run time, from mu and the acquisition scale.

Candidates travel between stages as one int64 array of row-major flat
indices per hashing; `_estimate_at` concatenates them and keeps each index
once, in first-seen order, and estimation takes that union as is.
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
    StagePlan,
    Tunables,
    _check_one_round,
    _check_targets,
    _first_seen,
    _log4,
)
from .estimation import estimate_values
from .hashing_measurements import (
    MeasurementSet,
    acquire_measurements,
    decode_hashings,
    update_residual_measurements,
)

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


def _check_bound(x_inf: float) -> None:
    """ParameterError unless x_inf is a usable bound on ||x||_inf: > 0, or
    math.inf for none."""
    if not x_inf > 0.0:
        raise ParameterError(f"x_inf must be > 0 (math.inf for no bound), got {x_inf}")


def _above_bound(threshold: float, x_inf: float, chi: SparseApprox) -> bool:
    """True when threshold exceeds every residual coefficient that
    ||x||_inf <= x_inf allows: |x_i - chi_i| <= x_inf + ||chi||_inf."""
    return threshold > x_inf + chi.norm_inf()


def _estimate_at(
    mset: MeasurementSet,
    found: list[np.ndarray],
    threshold: float,
    rng: np.random.Generator,
) -> SparseApprox:
    """Estimates above threshold of the residual mset holds (mset.source
    minus mset.chi) at the union of the per-hashing candidates found, in
    first-seen order, with mset.params's estimation geometry; the reads go
    on mset.sample_counter. No candidates, no call and no draw."""
    locations = _first_seen(np.concatenate(found))
    if not locations.size:
        return SparseApprox.empty(mset.n, mset.d)
    stage = mset.params
    batch = estimate_values(
        mset.source,
        mset.chi,
        locations,
        stage.B_est,
        threshold,
        stage.reps,
        F=stage.F_est,
        rng=rng,
    )
    mset.sample_counter += batch.samples
    return batch.kept


def _threshold_rounds(
    mset: MeasurementSet,
    rounds: list[tuple[float, bool]],
    rng: np.random.Generator,
    x_inf: float,
) -> SparseApprox:
    """The l1 loop: locate, estimate above a threshold, and fold, once per
    round.

    Each (threshold, last_if_idle) round decodes every hashing, estimates
    the residual against mset.chi as mset.params plans at the candidates,
    and folds the estimates above threshold into the set (its tables and its
    chi). Decoding reads the tables alone, so the candidates are reused
    until a round keeps something. A round whose threshold is above
    x_inf + ||mset.chi||_inf (x_inf bounds ||x||_inf) is idle: it keeps
    nothing without a decode, an estimate call or an rng draw. A round
    that keeps nothing ends the loop when marked last_if_idle. Estimation
    reads are added to mset.sample_counter. Returns the kept values, added
    round by round.
    """
    increment = SparseApprox.empty(mset.n, mset.d)
    found = None
    for threshold, last_if_idle in rounds:
        if _above_bound(threshold, x_inf, mset.chi):
            if last_if_idle:
                break
            continue
        if found is None:
            found = decode_hashings(mset)
        kept = _estimate_at(mset, found, threshold, rng)
        if len(kept) > 0:
            update_residual_measurements(mset, kept)
            increment = increment + kept
            found = None
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
    x_inf: float = math.inf,
) -> SparseApprox:
    """Shrink the head l1 mass of the residual mset holds from nu * k toward
    mu * k.

    Runs mset.params.rounds (~log2(log^4 N)) rounds of `_threshold_rounds`
    with a geometrically falling acceptance threshold, and stops early once
    the threshold has bottomed out at the noise floor and a round keeps
    nothing.
    x_inf bounds ||x||_inf: for a caller's mu > 0, `sparse_fft_with_stats`
    passes the promised r_star * mu; mu = 0 bounds nothing, and the default
    math.inf keeps every round. A round whose threshold is above x_inf +
    ||mset.chi||_inf cannot keep a true coefficient and makes no reads
    (no decode, no estimate call, no rng draw). rng draws the
    estimation hashings; it must not replay the acquisition's stream. Every
    accepted increment goes into mset (its tables and its chi); returns the
    updated total approximation, mset.chi.
    """
    _check_targets(nu=nu, mu=mu)
    _check_bound(x_inf)
    tun = mset.params.tunables
    mu_eff = max(mu, tun.mu_floor_rel * mset.initial_scale)
    floor = tun.head_bias * mu_eff
    heads = [tun.l1_threshold_frac * nu * 0.5**t for t in range(mset.params.rounds)]
    rounds = [(head + floor, head <= floor) for head in heads]
    before = mset.sample_counter
    _threshold_rounds(mset, rounds, rng, x_inf)
    if stats is not None:
        stats.samples_estimation += mset.sample_counter - before
    return mset.chi


def reduce_inf_norm(
    xhat: DenseSignal,
    chi: SparseApprox,
    stage: StagePlan,
    nu: float,
    mu: float,
    rng: np.random.Generator,
    *,
    stats: RunStats | None = None,
    x_inf: float = math.inf,
) -> SparseApprox:
    """Chase the few coefficients still above the target sup-norm bound.

    Self-contained: streams its own set of stage geometry (~log N
    hashings, because at most stage.k survivors must all be caught),
    decoded against chi as it is read, then estimates the residual at the
    candidates and keeps what lies above the one threshold
    inf_threshold_scale * (nu + mu). nu and mu are the stage's own targets;
    x_inf bounds ||x||_inf as in `reduce_l1_norm`. When the threshold is
    above x_inf + ||chi||_inf, returns the empty increment before any read
    or rng draw. Returns only the increment found here, not chi plus it.
    """
    _check_targets(nu=nu, mu=mu)
    _check_bound(x_inf)
    _check_one_round("inf-norm stage", stage)
    threshold = stage.tunables.inf_threshold_scale * (nu + mu)
    if _above_bound(threshold, x_inf, chi):
        return SparseApprox.empty(stage.n, stage.d)
    mset = acquire_measurements(xhat, stage, rng, chi=chi)
    increment = _estimate_at(mset, mset.found, threshold, rng)
    if stats is not None:
        stats.samples_infnorm += mset.sample_counter
    return increment


def recover_at_constant_snr(
    xhat: DenseSignal,
    chi: SparseApprox,
    stage: StagePlan,
    rng: np.random.Generator,
    *,
    stats: RunStats | None = None,
) -> SparseApprox:
    """One locate-and-estimate sweep for a residual with O(1) SNR.

    Uses the stage's single hashing with B = Theta(k / (epsilon alpha^d))
    buckets, so the tail noise per bucket is already at the target
    accuracy; a median over O(log N) estimation repetitions then suffices.
    The set is streamed, decoded against chi as it is read, so only two
    ladder shifts of it are held at once. Keeps the largest
    snr_keep_factor * stage.k estimates above a scale-relative zero floor
    and returns them as an increment over chi.
    """
    _check_one_round("constant-SNR sweep", stage)
    tun = stage.tunables
    mset = acquire_measurements(xhat, stage, rng, chi=chi)
    floor = tun.zero_floor_rel * mset.initial_scale
    kept = _estimate_at(mset, mset.found, floor, rng).largest(tun.snr_keep_factor * stage.k)
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
    per-round thresholds. For mu > 0 the caller promises ||x||_inf <=
    r_star * mu, and the l1 and inf-norm stages skip, without any read,
    every round (and the whole inf-norm acquisition) whose threshold is
    above r_star * mu + ||chi||_inf. mu = 0 bounds nothing, so every round
    runs. The returned stats split spectrum reads by stage, with
    acquisition (`samples_location`) fixed after startup. The run follows
    `RecoveryParams.derive` of these arguments, or params, whose k, targets
    and seed must then be those of the call; tunables then go inside it.
    """
    if xhat.domain != "frequency":
        raise ParameterError("recovery expects a frequency-domain signal")
    _check_targets(epsilon=epsilon, mu=mu, r_star=r_star)
    if params is None:
        params = RecoveryParams.derive(
            xhat.n,
            xhat.d,
            k,
            epsilon=epsilon,
            mu=mu,
            r_star=r_star,
            seed=seed,
            tunables=tunables,
        )
    elif tunables is not None:
        raise ParameterError("pass tunables inside params, not beside it")
    for name, planned, given in (
        ("k", params.main.k, k),
        ("epsilon", params.epsilon, epsilon),
        ("r_star", params.r_star, r_star),
        ("mu", params.mu, mu),
        ("seed", params.seed, seed),
    ):
        if planned != given:
            raise ParameterError(
                f"params.{name} = {planned} does not match {name} = {given}"
            )
    tun = params.main.tunables
    rng = np.random.default_rng(seed)
    stats = RunStats()
    mset = acquire_measurements(xhat, params.main, rng)
    stats.samples_location = mset.sample_counter
    mu_eff = max(mu, tun.mu_floor_rel * mset.initial_scale)
    # The caller's mu, not mu_eff: at mu = 0, mu_eff is a numerical floor,
    # not a bound on x.
    x_inf = r_star * mu if mu > 0.0 else math.inf
    L4 = _log4(xhat.N)

    norm_baseline = 0.0
    for t in range(params.T):
        nu = 4.0 * mu_eff * L4 ** (params.T - t)
        reduce_l1_norm(mset, nu, mu_eff, rng=rng, stats=stats, x_inf=x_inf)
        nu_prime = L4 * (4.0 * mu_eff * L4 ** (params.T - (t + 1)) + 20.0 * mu_eff)
        if nu_prime > 0.0:
            increment = reduce_inf_norm(
                xhat,
                mset.chi,
                params.inf_norm,
                nu_prime,
                nu_prime,
                rng,
                stats=stats,
                x_inf=x_inf,
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

    # Only chi and the scale outlive the T rounds: free the main set's table
    # before the sweep.
    chi, floor = mset.chi, tun.zero_floor_rel * mset.initial_scale
    del mset
    final = recover_at_constant_snr(xhat, chi, params.const_snr, rng, stats=stats)
    return (chi + final).drop_below(floor), stats


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
