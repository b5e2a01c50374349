"""Brute-force evaluation of the analysis quantities behind location.

Everything here exists to check the pipeline against its sufficient
conditions on small grids: per-hashing head leakage into each heavy
element's bucket, tail noise quantiles over the probe modulations, the
per-hashing noise level mu, and isolation under the permutations. The
evaluations are literal (cost Theta(N |S|) plus one size-N transform per
hashing and heavy element) and are guarded by a budget so they cannot
sneak into benchmark paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import DenseSignal, ParameterError, SparseApprox, Tunables, digit_base
from .dense_dft import fft_axes
from .hashing_measurements import _modulations
from .location import _balanced_axes
from .permutation import Hashing, is_isolated

__all__ = ["ScaleGuardError", "NoiseProfile", "compute_noise_profile", "quantile_top"]

# Cost ceiling for brute-force diagnostics (N * |S| operations).
_DIAGNOSTIC_BUDGET = 200_000_000
# Multiplier on mu in the per-hashing tail aggregate. The aggregate charges
# each shift only for the part of its tail quantile above this floor.
_MU_FLOOR_FACTOR = 40.0
# Both sufficient conditions for location compare noise against this
# fraction of the element's own magnitude.
_LOCATE_MARGIN = 1.0 / 20.0


class ScaleGuardError(RuntimeError):
    """A brute-force diagnostic was asked to run beyond its cost budget."""


def quantile_top(values: np.ndarray, gamma: float, axis: int = 0) -> np.ndarray:
    """ceil(gamma * s)-th largest element along an axis, s the axis length."""
    arr = np.asarray(values, dtype=np.float64)
    s = arr.shape[axis]
    if s == 0:
        raise ParameterError("quantile of an empty axis")
    if not 0.0 < gamma <= 1.0:
        raise ParameterError(f"gamma must lie in (0,1], got {gamma}")
    rank = math.ceil(gamma * s)
    ordered = np.sort(arr, axis=axis)
    return np.take(ordered, s - rank, axis=axis)


@dataclass
class NoiseProfile:
    """Noise quantities for a fixed heavy set S under a list of hashings.

    `heavy` is S as a sorted int64 array of distinct flat indices, and the
    dict fields are keyed by those flat indices. The dict fields aggregate
    over hashings with the 1/5-quantile; the array fields keep the
    per-hashing (and per-shift) resolution that the sufficient-condition
    checks need. Row order of the arrays follows `heavy`; hashing order
    follows the input list.
    """

    heavy: np.ndarray
    e_head: dict[int, float]
    e_tail: dict[int, float]
    mu_Hi: dict[int, float]
    isolated: dict[int, list[bool]]
    residual_mag: dict[int, float]
    head_per_hashing: np.ndarray
    tail_per_shift: np.ndarray
    tail_per_hashing: np.ndarray
    mu_per_hashing: np.ndarray
    balanced: np.ndarray
    _index: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._index = {f: pos for pos, f in enumerate(self.heavy.tolist())}

    def certified_hashings(self, i: int) -> list[int]:
        """Hashings under which i provably lands in the location output.

        A hashing qualifies when head leakage and every per-shift tail
        quantile stay below |residual_i| / 20 and its probe sets are
        balanced in every coordinate.
        """
        pos = self._index.get(i)
        if pos is None:
            return []
        margin = _LOCATE_MARGIN * self.residual_mag[i]
        if margin <= 0.0:
            return []
        out = []
        for r in range(self.head_per_hashing.shape[0]):
            if (
                self.head_per_hashing[r, pos] < margin
                and float(self.tail_per_shift[r, :, pos].max()) < margin
                and bool(self.balanced[r].all())
            ):
                out.append(r)
        return out

    def certifies(self, i: int) -> bool:
        return bool(self.certified_hashings(i))


def compute_noise_profile(
    x: DenseSignal,
    chi: SparseApprox,
    S,
    hashings: list[Hashing],
    alphas: np.ndarray,
    betas: np.ndarray,
    shifts: np.ndarray,
    *,
    tunables: Tunables | None = None,
) -> NoiseProfile:
    """Evaluate head, tail, and mu noise for each element of S.

    x is the time-domain signal and chi the current approximation; S, an
    array of flat indices, names the heavy elements the quantities are
    defined against. alphas and betas
    are (len(hashings), c, d) probe arrays and shifts is (W, d), laid out as
    in MeasurementSet. For hashing H
    with permutation (Sigma, q) and element i with bucket offsets o_i(j):

      head_i(H)   = G(o_i(i))^-1 sum_{j in S, j != i} G(o_i(j)) |y_j|
                    with y = (x - chi) on S and -chi off S,
      tail_i(H,z) = |G(o_i(i))^-1 sum_{j not in S} G(o_i(j)) x_j
                    omega^(z^T Sigma (j - i))|,
      mu_i(H)^2   = |G(o_i(i))^-1| sum_{j not in S} |x_j|^2 G(o_i(j))^2.

    Per shift w the tail is the 1/5-quantile of tail_i(H, a*(1,w)) over the
    probe pairs a; per hashing those quantiles fold into 40 mu plus the sum
    of their parts above 40 mu. The dict fields take 1/5-quantiles over
    hashings. Raises a scale guard error when N * |S| exceeds the budget.
    """
    tun = tunables or Tunables()
    if x.domain != "time":
        raise ParameterError("noise profile expects a time-domain signal")
    if chi.n != x.n or chi.d != x.d:
        raise ParameterError("chi does not live on the signal grid")
    if not hashings:
        raise ParameterError("need at least one hashing")
    if len(alphas) != len(hashings) or len(betas) != len(hashings):
        raise ParameterError("need one probe set per hashing")
    s_flat = np.unique(np.asarray(S, dtype=np.int64))
    if not s_flat.size:
        raise ParameterError("heavy set must be nonempty")
    n, d = x.n, x.d
    N = x.N
    if N * s_flat.size > _DIAGNOSTIC_BUDGET:
        raise ScaleGuardError(
            f"N * |S| = {N * s_flat.size} exceeds the diagnostic budget "
            f"{_DIAGNOSTIC_BUDGET}"
        )
    if s_flat[0] < 0 or s_flat[-1] >= N:
        raise ParameterError("heavy set does not live on the signal grid")

    R = len(hashings)
    W = len(shifts)
    S_count = s_flat.size
    delta = digit_base(n)
    heavy = s_flat.tolist()

    all_coords = np.indices((n,) * d).reshape(d, N).T.astype(np.int64)
    x_flat = x.values.reshape(N)
    tail_mask = np.ones(N, dtype=bool)
    s_coords = np.stack(np.unravel_index(s_flat, (n,) * d), axis=-1)
    tail_mask[s_flat] = False

    # y = (x - chi) on S, -chi off S; only |y| at S and chi's support matters.
    y_flat = np.zeros(N, dtype=np.complex128)
    y_flat[s_flat] = x_flat[s_flat]
    y_flat[chi.flat] -= chi.values
    abs_y_S = np.abs(y_flat[s_flat])

    head = np.zeros((R, S_count))
    tail_w = np.zeros((R, W, S_count))
    tail_h = np.zeros((R, S_count))
    mu_h = np.zeros((R, S_count))
    balanced = np.zeros((R, d), dtype=bool)

    for r, hashing in enumerate(hashings):
        perm, filt = hashing.perm, hashing.filter
        pi_all = perm.forward_array(all_coords)
        centers = hashing.center_of_array(s_coords)
        gains = np.empty((S_count, N))
        for pos in range(S_count):
            g = np.ones(N)
            for ax in range(d):
                g *= filt.g_axis[(pi_all[:, ax] - centers[pos, ax]) % n]
            gains[pos] = g
        own = gains[np.arange(S_count), s_flat]

        g_at_S = gains[:, s_flat]
        head_sum = g_at_S @ abs_y_S - g_at_S[np.arange(S_count), np.arange(S_count)] * abs_y_S
        head[r] = head_sum / own

        mu_h[r] = np.sqrt(
            (1.0 / own) * ((gains**2 * np.abs(x_flat)[None, :] ** 2)[:, tail_mask].sum(axis=1))
        )

        # tail_i(H, z) = |T_i(Sigma^T z)| / G(o_i(i)) with T_i the inverse
        # transform of the gain-weighted tail, so one FFT per element covers
        # every modulation z.
        c = gains * (x_flat * tail_mask)[None, :]
        T = fft_axes(
            c.reshape((S_count,) + (n,) * d),
            axes=tuple(range(1, d + 1)),
            inverse=True,
        ).reshape(S_count, N) * math.sqrt(N)

        mods = _modulations(alphas[r], betas[r], shifts, n).reshape(-1, W, d)
        for w_pos in range(W):
            zt = (mods[:, w_pos] @ perm.sigma) % n
            vals = np.abs(T[:, np.ravel_multi_index(zt.T, (n,) * d)]) / own[:, None]
            tail_w[r, w_pos] = quantile_top(vals.T, 0.2, axis=0)

        floor = _MU_FLOOR_FACTOR * mu_h[r]
        tail_h[r] = floor + np.maximum(tail_w[r] - floor[None, :], 0.0).sum(axis=0)
        balanced[r] = _balanced_axes(betas[r], delta)

    scales = range(max(1, int(math.log2(hashings[0].b))))
    isolated = {
        f: [is_isolated(f, s_flat, hashings[0], scale=t, alpha=tun.alpha) for t in scales]
        for f in heavy
    }
    return NoiseProfile(
        heavy=s_flat,
        e_head={f: float(quantile_top(head[:, pos], 0.2)) for pos, f in enumerate(heavy)},
        e_tail={f: float(quantile_top(tail_h[:, pos], 0.2)) for pos, f in enumerate(heavy)},
        mu_Hi={f: float(quantile_top(mu_h[:, pos], 0.2)) for pos, f in enumerate(heavy)},
        isolated=isolated,
        residual_mag=dict(zip(heavy, abs_y_S.tolist())),
        head_per_hashing=head,
        tail_per_shift=tail_w,
        tail_per_hashing=tail_h,
        mu_per_hashing=mu_h,
        balanced=balanced,
    )
