"""Outer recovery loops: from bucket measurements to a sparse spectrum.

The full pipeline runs two stages. An l1-norm reduction loop shrinks the
residual head mass geometrically while reusing one fixed measurement set,
and a final constant-SNR pass re-estimates everything once the residual is
flat. `sparse_fft` wires the stages together; each stage is also callable
on its own.

The paper's driver also runs an inf-norm reduction after each l1 loop, with
fresh measurements. It has no stage here. Under the driver's targets it
took nu'[t] = L (4 mu_eff L^(T-t-1) + 20 mu_eff) as both of its noise
levels, so its threshold, 10 nu'[t], was at least 240 L mu_eff, with
L = log2(N)^4. Every residual coefficient is at most x_inf + ||chi||_inf,
and at T = 1, x_inf = r_star mu <= L mu, so there it could keep nothing
unless chi had overshot some coefficient by ~239 x_inf; at T >= 2 its
round 0 could not act either. It read nothing on the benchmark workloads,
and where it did act (1024 points at snr 2e6, T = 2) it changed no miss.

A measurement set owns the residual: its tables hold mset.source minus
mset.chi, so a stage reads the current approximation from mset.chi and adds
what it keeps into it (`update_residual_measurements`). The l1 loop,
`reduce_l1_norm`, reuses the main set, the run's only stored table,
through every round: decode every hashing (`decode_hashings`), estimate
the residual at the candidates, and fold the estimates above the round's
threshold into the set. The constant-SNR stage decodes its fresh set once,
so it streams it (`acquire_measurements(..., chi=chi)`): the same digit walk
decodes each ladder shift as it is read, cleaned of the caller's chi, and
the set hands over its candidates in `found`. The stage then makes one
estimation call, above its one threshold.
`sparse_fft_with_stats` frees the main set before the constant-SNR sweep,
since only its chi is used after the rounds.

After each l1 loop the driver certifies the residual without a read. The
main set's tables are linear measurements of x - chi that the run already
holds, and their peak, the largest |bucket| over every hashing, probe and
shift (`_residual_peak`), is compared with the final prune's floor as a
product, peak <= zero_floor_rel * initial_scale, so an all-zero spectrum
certifies without a division. Why a clean table set leaves nothing to
find: a residual coefficient h lands in one bucket of each of the
r_max >= 3 independent hashings, with the filter's gain at its offset from
that bucket's center (1 at the center, at least the filter's plateau gain
g(n/(2b))^d, `BucketFilter.plateau_gain`), and it appears there under
r_max * c_max * S different modulation phases. So tables that are clean
in all of them leave h undetected only if h is below the peak over its
gain, or if other residual terms cancel it under every one of those
phases. At mu = 0 the l1 loop's last threshold is already ~1e-9 of the
scale, below the final prune. When the certificate holds, the run skips
any later outer rounds and the constant-SNR sweep, and returns chi pruned
at the floor; `RunStats.residual_peak_rel` reports the peak.

The same argument ends the l1 loop early. Before each decode,
`reduce_l1_norm` scans the tables against its stop bound, min(plateau
gain * the lowest round threshold, zero_floor_rel * initial_scale): a peak
within it leaves no coefficient that any later round could keep, short of
the same cancellation, so the loop ends without decoding the ghosts, the
buckets whose residue is rounding noise, and without estimating them
again. The gain factor matters in d = 3, where the plateau gain is as low
as 2.8e-5 (16^3, b = 8): without it a head still off by ~1e-9 of the scale
could hide under the bound. The floor cap lets the stop fire only where
the certificate then holds, so no later stage reads or draws from rng, and
the output is the one the loop gives without the stop. The scan stops at
its first row block above the bound, so a run where the stop does not fire
pays for about one block per decode; when it fires, its scan has read
every block, and the certificate reuses that peak. The plan's
closed-form ledger (`StagePlan.acquisition_reads`, `estimation_reads`)
stays the non-adaptive worst case.

For mu > 0 the caller promises ||x||_inf <= r_star * mu; mu = 0 (exactly
sparse) bounds nothing. Under that bound every residual coefficient obeys
|x_i - chi_i| <= x_inf + ||chi||_inf with x_inf = r_star * mu, so a threshold
above that sum cannot keep a true coefficient. `sparse_fft_with_stats` passes
the schedule's x_inf (math.inf when mu = 0) to the l1 loop: a round whose
threshold is above the bound is idle and makes no reads.

Every constant comes from `Tunables`, and `RecoveryParams.derive` turns
them into the plan, one `StagePlan` per stage, before the first read. Each
stage reads its geometry from its record. The thresholds wait for the main
set's initial scale, and the plan's `RecoveryParams.schedule` computes all
of them from it; the driver only calls the stages with them.

Candidates travel between stages as one int64 array of row-major flat
indices per hashing; `_estimate_at` concatenates them, and estimation
keeps each index once, in first-seen order.
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
    _check_targets,
)
from .estimation import estimate_values
from .hashing_measurements import (
    MeasurementSet,
    _residual_peak,
    acquire_measurements,
    update_residual_measurements,
)
from .location import decode_hashings

__all__ = [
    "RunStats",
    "reduce_l1_norm",
    "recover_at_constant_snr",
    "sparse_fft",
    "sparse_fft_with_stats",
]


@dataclass
class RunStats:
    """Spectrum accesses split by pipeline stage, and the residual
    certificate.

    `samples_location` counts the main set's one-off acquisition reads; they
    do not grow with later iterations. `samples_estimation` grows with the
    l1 loop's estimation calls (which draw fresh hashings and so read the
    spectrum again). `samples_constsnr` books the sweep's own acquisition
    as well as its estimation call, and stays 0 when the sweep is skipped.
    `samples_infnorm` is always 0: the pipeline has no inf-norm stage (see
    the module docstring). The field stays so that ledgers and records
    keep their columns.

    `residual_peak_rel` is the last certificate's peak, the main set's
    largest residual bucket, over its initial scale (0.0 when that scale is
    0). The constant-SNR stage was skipped by the certificate exactly when
    it is <= `Tunables.zero_floor_rel`. The l1
    loop may end before the plan's `StagePlan.rounds`, when the tables
    prove that no later round can keep anything (its stop bound, see
    `reduce_l1_norm`), so `samples_estimation` can be fewer calls than
    `rounds` even where every round's threshold is below the noise bound.
    """

    samples_location: int = 0
    samples_estimation: int = 0
    samples_infnorm: int = 0
    samples_constsnr: int = 0
    residual_peak_rel: float = 0.0

    @property
    def total_samples(self) -> int:
        return (
            self.samples_location
            + self.samples_estimation
            + self.samples_infnorm
            + self.samples_constsnr
        )


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
    locations = np.concatenate(found)
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
        F=stage.F,
        rng=rng,
    )
    mset.sample_counter += batch.samples
    return batch.kept


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
    mu * k: the l1 loop.

    Round t of at most mset.params.rounds (~log2(log^4 N)) has the head
    l1_threshold_frac * nu * 2^-t and the threshold head + head_bias *
    mu_eff, where mu_eff is mu floored at mu_floor_rel * initial_scale.
    The round decodes every hashing (`decode_hashings`), estimates the
    residual against mset.chi at the candidates, and folds the estimates
    above its threshold into mset (its tables and its chi). Decoding reads
    the tables alone, so the candidates are reused until a round keeps
    something. Once the head is at or below the floor head_bias * mu_eff,
    a round that keeps nothing ends the loop.

    x_inf bounds ||x||_inf: for a caller's mu > 0, `sparse_fft_with_stats`
    passes the promised r_star * mu; mu = 0 bounds nothing, and the default
    math.inf keeps every round. A round whose threshold is above x_inf +
    ||mset.chi||_inf cannot keep a true coefficient and is idle: it makes
    no decode, no estimate call and no rng draw.

    Before each decode the loop ends when the tables, which hold x -
    mset.chi, peak within the stop bound min(plateau gain * the lowest
    round threshold, zero_floor_rel * initial_scale): then no later round
    could keep anything, unless residual terms cancel a coefficient under
    every probe and shift (see the module docstring). The scan ends at its
    first row block above the bound, and the bound's floor cap lets the
    stop fire only where the run's residual certificate then holds too, so
    no later stage reads or draws from rng.

    rng draws the estimation hashings; it must not replay the
    acquisition's stream. Estimation reads go on mset.sample_counter and
    on stats.samples_estimation. Returns the updated total approximation,
    mset.chi.
    """
    _check_targets(nu=nu, mu=mu)
    if not x_inf > 0.0:
        raise ParameterError(f"x_inf must be > 0 (math.inf for no bound), got {x_inf}")
    tun = mset.params.tunables
    mu_floor, zero_floor = mset.params.floors(mset.initial_scale)
    mu_eff = max(mu, mu_floor)
    floor = tun.head_bias * mu_eff
    heads = [tun.l1_threshold_frac * nu * 0.5**t for t in range(mset.params.rounds)]
    gain = mset.hashings[0].filter.plateau_gain
    stop = min(gain * (heads[-1] + floor), zero_floor)
    before = mset.sample_counter
    found = None
    for head in heads:
        threshold = head + floor
        # ||x||_inf <= x_inf bounds every residual coefficient:
        # |x_i - chi_i| <= x_inf + ||chi||_inf.
        if threshold <= x_inf + mset.chi.norm_inf():
            if found is None:
                if _residual_peak(mset, above=stop) <= stop:
                    break
                found = decode_hashings(mset)
            kept = _estimate_at(mset, found, threshold, rng)
            if len(kept) > 0:
                update_residual_measurements(mset, kept)
                found = None
                continue
        if head <= floor:
            break
    if stats is not None:
        stats.samples_estimation += mset.sample_counter - before
    return mset.chi


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
    tun = stage.tunables
    mset = acquire_measurements(xhat, stage, rng, chi=chi)
    _, floor = stage.floors(mset.initial_scale)
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
    params: RecoveryParams | None = None,
) -> tuple[SparseApprox, RunStats]:
    """Full recovery pipeline, returning the approximation and a sample ledger.

    mu is the caller's noise floor (mu = 0 means exactly sparse) and r_star
    bounds the initial SNR; together they set the outer round count and the
    per-round thresholds. For mu > 0 the caller promises ||x||_inf <=
    r_star * mu, and the l1 loop skips, without any read, every round whose
    threshold is above r_star * mu + ||chi||_inf. mu = 0 bounds nothing, so
    every round runs until the l1 loop's stop proves the rest idle (see the
    module docstring). After each l1 loop the residual certificate (see the
    module docstring) compares the main set's largest residual bucket with
    zero_floor_rel * initial_scale; when it holds, the run skips later
    rounds and the constant-SNR sweep. The returned stats split spectrum reads by stage, with acquisition
    (`samples_location`) fixed after startup, and report the certificate's
    peak. The run follows params, whose k, targets and seed must be those
    of the call, or else `RecoveryParams.derive` of these arguments at the
    default `Tunables`; other tunables go in through
    `RecoveryParams.derive(tunables=...)`, and other geometry through
    `dataclasses.replace` of that plan or of one of its stages. Once
    checked, the plan alone drives the run: its seed seeds the generator,
    and `RecoveryParams.schedule` gives every threshold.
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
        )
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
    rng = np.random.default_rng(params.seed)
    stats = RunStats()
    mset = acquire_measurements(xhat, params.main, rng)
    stats.samples_location = mset.sample_counter
    mu_eff, x_inf, floor, nu = params.schedule(mset.initial_scale)
    norm_baseline = 0.0
    for t in range(params.T):
        reduce_l1_norm(mset, nu[t], mu_eff, rng=rng, stats=stats, x_inf=x_inf)
        peak = _residual_peak(mset)
        certified = peak <= floor
        norm_now = mset.chi.norm1()
        if norm_baseline == 0.0:
            norm_baseline = norm_now
        elif norm_now > params.main.tunables.divergence_factor * norm_baseline:
            raise DivergenceError(
                f"approximation l1 mass grew from {norm_baseline:.3g} to "
                f"{norm_now:.3g} after round {t}; the residual is not shrinking"
            )
        if certified:
            break

    scale = mset.initial_scale
    stats.residual_peak_rel = peak / scale if scale > 0.0 else 0.0
    # Only chi outlives the rounds: free the main set's table before the
    # sweep.
    chi = mset.chi
    del mset
    if not certified:
        chi = chi + recover_at_constant_snr(xhat, chi, params.const_snr, rng, stats=stats)
    return chi.drop_below(floor), stats


def sparse_fft(
    xhat: DenseSignal,
    k: int,
    epsilon: float = 0.1,
    r_star: float = 2.0,
    mu: float = 0.0,
    seed: int = 0,
    *,
    params: RecoveryParams | None = None,
) -> SparseApprox:
    """Recover a k-sparse approximation of the spectrum's inverse transform.

    Its reads are bounded by the plan's closed-form ledger
    (`StagePlan.acquisition_reads` and `estimation_reads` per stage), the
    non-adaptive worst case; the l1 loop's stop and the residual
    certificate cut them when they end the loop early and skip the
    constant-SNR stage, and `sparse_fft_with_stats` returns
    the reads made. The output lives on the time side: it
    approximates the signal x whose transform is xhat, keeping the head
    coefficients and discarding everything at the mu noise floor. params
    is the plan, as in `sparse_fft_with_stats`; pass one derived with
    other tunables to change them.
    """
    result, _ = sparse_fft_with_stats(xhat, k, epsilon, r_star, mu, seed, params=params)
    return result
