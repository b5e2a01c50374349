"""Per-bucket recovery of dominant indices, digit by digit.

Location decodes the residual a measurement set's tables hold (mset.source
minus mset.chi) from the tables alone. Each bucket of a hashing concentrates
(ideally) one dominant residual element i0. Writing f = Sigma i0 mod n, the
ratio of a shifted measurement to its unshifted reference is approximately
omega^(step * beta_s * f_s), so each digit of each coordinate of f can be
read off by testing which root of unity makes the ratio land near 1 for most
probe pairs. A probe pair votes for a digit when the corrected ratio sits
within 1/3 of 1; a digit needs a 3/5 supermajority, and a bucket that
produces zero or several winning digits is dropped.

Digits run through base Delta groups, with a final group of base
n / Delta^(G-1) so every bit of f is covered. Decoding is deterministic
given the measurement tables.

Each probe's corrected ratio is tested against one root only: the one
nearest to it in phase, found with a single np.angle. That is exact: the
tolerance disks around two distinct base-th roots are disjoint when
ratio_tolerance < sin(pi / base) (every StagePlan enforces it for every
ladder base), so no other root can accept the ratio. A probe then votes for
every digit whose root index digit * beta_s mod base is that nearest root.
Buckets that fail a digit are dropped, so later digits decode only the
survivors.

This module holds the decoding primitives: _digit_steps lists the digits
in decode order, _decode_digit votes on one of them for a block of buckets,
and _unpermute turns a hashing's decoded coordinates into flat indices.
The one walk that drives them over a hashing's shifts, for a stored set's
tables and for a streamed set as it is read, is
hashing_measurements._decode_hashing.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .core import _first_seen, unit_roots

if TYPE_CHECKING:
    from .core import Tunables
    from .hashing_measurements import MeasurementSet
    from .permutation import Hashing

__all__ = []


def _balanced_axes(betas: np.ndarray, delta: int) -> np.ndarray:
    """Per column s of a (c, d) beta array, whether the probes spread digit
    phases on axis s.

    For every digit r = 1..delta-1, at least 49/100 of the roots
    omega_delta^(r * beta_s) must lie in the closed left half-plane;
    integer form: 4 * (r * beta_s mod delta) in [delta, 3*delta]. An empty
    probe set balances no axis.
    """
    digits = np.arange(1, delta, dtype=np.int64)[:, None, None]
    quarter = 4 * ((digits * betas[None]) % delta)
    hits = ((delta <= quarter) & (quarter <= 3 * delta)).sum(axis=1)
    return (hits * 100 >= 49 * betas.shape[0]).all(axis=0) & (betas.shape[0] > 0)


def _unpermute(fvec: np.ndarray, hashing: "Hashing") -> np.ndarray:
    """Row-major flat indices of the (m, d) permuted coordinates
    fvec = Sigma i0 mod n of `hashing`, in row order, each once."""
    n = hashing.n
    rows = (fvec @ hashing.perm.sigma_inv.T) % n
    return _first_seen(np.ravel_multi_index(rows.T, (n,) * hashing.d))


def _digit_steps(mset: "MeasurementSet"):
    """(shift slot, axis, base, place value) of every digit in decode
    order: axis by axis, lowest digit group first."""
    for s in range(mset.d):
        place = 1
        for g, base in enumerate(mset.group_bases, start=1):
            yield mset.shift_slot(g, s), s, base, place
            place *= base


def _decode_digit(
    meas: np.ndarray,
    ref: np.ndarray,
    invalid: np.ndarray,
    betas: np.ndarray,
    partial: np.ndarray,
    n: int,
    step: int,
    base: int,
    tun: "Tunables",
) -> tuple[np.ndarray, np.ndarray]:
    """Vote on one base-`base` digit of one axis of f = Sigma i0 for m
    buckets: the one decoding step of every walk.

    meas is the (c, m) table under the digit's shift (step along the axis),
    ref the (c, m) unshifted reference and invalid its entries below
    near_zero, which cast no vote; betas holds the c probes' coefficients on
    the axis and partial the (m,) value of the axis's lower digits decoded
    so far. Returns (unique, chosen), two (m,) arrays:
    whether exactly one digit won its vote, and the winning digit (valid
    where unique).
    """
    xi = meas / np.where(invalid, 1.0, ref)
    # n and every digit base are powers of two, so "& (m - 1)" is "mod m".
    corr_expo = (step * betas[:, None] * partial[None, :]) & (n - 1)
    corrected = xi * unit_roots(n, -1)[corr_expo]
    nearest = np.rint(np.angle(corrected) * (base / (2 * np.pi)))
    nearest = nearest.astype(np.int64) & (base - 1)
    eta = unit_roots(base, -1)[nearest] * corrected
    ok = (np.abs(eta - 1.0) < tun.ratio_tolerance) & ~invalid
    targets = (np.arange(base)[:, None] * betas[None, :]) & (base - 1)
    votes = (ok & (nearest == targets[:, :, None])).sum(axis=1)
    passed = votes >= tun.vote_fraction * len(betas) - 1e-9
    return passed.sum(axis=0) == 1, passed.argmax(axis=0)
