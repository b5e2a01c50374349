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

A walk computes each pair's inverse reference once (_inverse_reference:
1 / ref, and 0 at a probe whose reference is below near_zero), so a digit's
ratios are one product, meas * inv, and a probe that casts no vote has
ratio 0, which no root accepts. Each corrected ratio z is tested against
one root only, the nearest, found by sign tests: for base 2 the sign of
Re z, for base 4 the signs of Re z + Im z and Re z - Im z. The probe is
accepted when |z - root|^2 = |z|^2 - 2 * (its largest projection on a root)
+ 1 is below ratio_tolerance^2. That is exact: the tolerance disks around
two distinct base-th roots are disjoint when ratio_tolerance < sin(pi /
base), so no other root can accept the ratio, and StagePlan allows only
ladders of bases 2 and 4, with that tolerance. A probe then votes for every
digit whose root index digit * beta_s mod base is that nearest root; even
betas give several such digits, so each digit's targets are compared in
full. Buckets that fail a digit are dropped, so later digits decode only
the survivors.

This module holds the decoding primitives: _digit_steps lists the digits
in decode order, _silent is the one cut below which a probe casts no vote,
_inverse_reference makes a walk's inverse references, _decode_digit votes
on one digit for a block of buckets (a digit passes with _quorum votes),
and _unpermute turns a hashing's decoded coordinates into flat indices.
The one walk that drives them is hashing_measurements._walk_digits, over
blocks of live (hashing, bucket) pairs: those of every hashing of a stored
set together, and those of one hashing at a time of a streamed set as it
is read. It starts with only the pairs whose reference holds a quorum of
valid probes.
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


def _quorum(probes: int, tun: "Tunables") -> float:
    """Votes a digit needs to pass among `probes` probe pairs."""
    return tun.vote_fraction * probes - 1e-9


def _silent(ref: np.ndarray, tun: "Tunables") -> np.ndarray:
    """Where a probe's reference is too small for the probe to vote:
    |ref| < near_zero. The walk's one zero cut: it picks the live pairs
    (hashing_measurements._walks) and the probes _inverse_reference
    zeroes."""
    return np.abs(ref) < tun.near_zero


def _inverse_reference(ref: np.ndarray, tun: "Tunables") -> np.ndarray:
    """1 / ref entrywise, and 0 where the probe is _silent: it casts no
    vote, and a ratio of 0 accepts no root (ratio_tolerance < 1)."""
    inv = np.zeros_like(ref)
    np.reciprocal(ref, out=inv, where=~_silent(ref, tun))
    return inv


def _decode_digit(
    z: np.ndarray,
    betas: np.ndarray,
    partial: np.ndarray,
    n: int,
    step: int,
    base: int,
    tun: "Tunables",
) -> tuple[np.ndarray, np.ndarray]:
    """Vote on one base-`base` digit of one axis of f = Sigma i0 for m
    buckets: the one decoding step of every walk.

    z is the (c, m) table of ratios meas * inv of the measurements under
    the digit's shift (step along the axis) to their references, inv being
    the references' _inverse_reference, so a probe that casts no vote has
    ratio 0. betas holds each probe's coefficient on the axis, (c, m), and
    partial the (m,) value of the axis's lower digits decoded so far. z and
    betas are overwritten. Returns (unique, chosen), two (m,) arrays: whether
    exactly one digit won its vote, and the least winning digit (valid
    where unique). base is 2 or 4 (StagePlan checks every ladder).
    """
    residues = (betas & (base - 1)).astype(np.int8)
    # n and every digit base are powers of two, so "& (m - 1)" is "mod m".
    corr = (step * partial) & (n - 1)
    if corr.any():
        betas *= corr
        betas &= n - 1
        z *= unit_roots(n, -1)[betas]
    re, im = z.real, z.imag
    # The root omega_base^j nearest to z, by sign tests; near and far are
    # z's components along and across it, so |z - omega_base^j|^2 =
    # |z|^2 - 2 near + 1 = (near - 1)^2 + far^2.
    near, far = np.abs(re), np.abs(im)
    if base == 2:
        nearest = np.signbit(re).view(np.int8)
    else:
        lower = np.signbit(re + im).view(np.int8)
        nearest = 2 * lower + (lower ^ np.signbit(re - im).view(np.int8))
        near, far = np.maximum(near, far), np.minimum(near, far, out=far)
    near -= 1.0
    near *= near
    far *= far
    near += far
    # A rejected probe's code is at least base and matches no target.
    rejected = ~(near < tun.ratio_tolerance**2)
    code = nearest + base * rejected.view(np.int8)
    targets = (np.arange(base, dtype=np.int8)[:, None, None] * residues) & (base - 1)
    counts = np.min_scalar_type(len(betas))
    votes = (code == targets).view(np.uint8).sum(axis=1, dtype=counts)
    passed = votes >= _quorum(len(betas), tun)
    return passed.sum(axis=0, dtype=np.uint8) == 1, passed.argmax(axis=0)
