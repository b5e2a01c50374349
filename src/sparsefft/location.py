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

Digits run through the plan's ladder, axis by axis (StagePlan.digit_steps
and StagePlan.shifts): base Delta groups, with a final group of base
n / Delta^(G-1) so every bit of f is covered. Decoding is deterministic
given the measurement tables.

The inverse reference (_inverse_reference: 1 / ref, and 0 at a probe whose
reference is below near_zero, the one zero cut, _silent) makes a digit's
ratios one product, meas * inv, and a probe that casts no vote has ratio
0, which no root accepts. Each corrected ratio z is tested against one
root only, the nearest, found by sign tests: for base 2 the sign of Re z,
for base 4 the signs of Re z + Im z and Re z - Im z. The probe is accepted
when |z - root|^2 = |z|^2 - 2 * (its largest projection on a root) + 1 is
below ratio_tolerance^2. That is exact: the tolerance disks around two
distinct base-th roots are disjoint when ratio_tolerance < sin(pi / base),
so no other root can accept the ratio, and StagePlan allows only ladders
of bases 2 and 4, with that tolerance. A probe then votes for every digit
whose root index digit * beta_s mod base is that nearest root; even betas
give several such digits, so each digit's targets are compared in full.

One walk, _walk_digits, decodes every set. It runs over blocks of live
(hashing, bucket) pairs, each a _Walk, in (hashing, bucket) order, which
vote on each digit with one _decode_digit call; a pair leaves at the first
digit it fails, and _unpermute turns the survivors' coordinates into flat
indices, one array per hashing. A pair is live when its reference holds a
digit's quorum of valid probes (_quorum): no other pair could win a digit,
so skipping them changes no output. On the bench's exact workloads
(exact-1d-65536, exact-3d-16), a decode after every head was subtracted
starts with 0-20 of a hashing's 512-1024 buckets. A block computes its
pairs' inverse reference once; it holds at most B pairs, and few enough
that each of its arrays fits one core._BLOCK_BYTES block
(_WALK_ENTRY_BYTES).

A stored set (decode_hashings) cuts the live pairs of all its hashings
together into blocks, so one block may span hashings whose live pairs are
few, and walks them one after the other through every digit, reading views
of its table, which holds source - chi. A streamed set is decoded one
hashing at a time as its acquisition reads it (_decode_as_read): that
hashing's blocks vote each digit before its next shift is read, and the
read takes the caller's chi out of the fresh tables at every bucket of the
reference, and at the live buckets only of a later shift.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .core import ParameterError, _block_rows, _first_seen, unit_roots

if TYPE_CHECKING:
    from .core import Tunables
    from .hashing_measurements import MeasurementSet
    from .permutation import Hashing

__all__ = ["decode_hashings"]


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


def _quorum(probes: int, tun: "Tunables") -> float:
    """Votes a digit needs to pass among `probes` probe pairs."""
    return tun.vote_fraction * probes - 1e-9


def _silent(ref: np.ndarray, tun: "Tunables") -> np.ndarray:
    """Where a probe's reference is too small for the probe to vote:
    |ref| < near_zero. The walk's one zero cut: it picks the live pairs
    (_walks) and the probes _inverse_reference zeroes."""
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


def decode_hashings(mset: "MeasurementSet") -> list[np.ndarray]:
    """Decode every hashing of a stored set from its tables, which hold
    mset.source - mset.chi: one array per hashing of the flat indices its
    buckets decode to, in bucket order, each once. Reads no samples. A
    streamed set keeps no shifted tables; its arrays are mset.found.

    The set's live pairs walk in blocks, one block through every digit
    before the next, so the walk holds one block's inverse reference."""
    if mset.found is not None:
        raise ParameterError("a streamed measurement set was decoded as it was read")
    B = mset.params.B
    flat = mset.buckets.reshape(-1)
    decoded = []
    for walk in _walks(mset, range(len(mset.hashings))):
        _walk_digits(mset, [walk], lambda w: flat[w * B :])
        decoded.append((walk.r, walk.fvec))
    return _found(mset, decoded, range(len(mset.hashings)))


def _decode_as_read(mset: "MeasurementSet", r: int, read) -> np.ndarray:
    """Decode hashing r of a streamed set while its acquisition reads it,
    as decode_hashings decodes a stored set's hashing. read(w, live) reads
    shift w into (c_max, B) rows, the reference into mset.buckets[r, :, 0],
    takes chi out of them at the bucket columns `live` (all when None) and
    returns them: the reference at every bucket, a later shift at the
    buckets still live before its digit's votes."""
    read(0, None)
    walks = list(_walks(mset, range(r, r + 1)))

    def rows(w: int) -> np.ndarray:
        live = np.concatenate([walk.b for walk in walks] + [np.empty(0, np.int64)])
        return read(w, live).reshape(-1)

    _walk_digits(mset, walks, rows)
    return _found(mset, [(walk.r, walk.fvec) for walk in walks], range(r, r + 1))[0]


# A block of live pairs holds _BLOCK_BYTES / _WALK_ENTRY_BYTES (probe, pair)
# entries, so each of the walk's arrays (inverse reference, ratios,
# correction roots and exponents, float temporaries) fits one block. Larger
# blocks pay numpy's fixed cost per call on fewer calls: a decode of
# gauss-2d-64's main set took 0.56 of the per-hashing walk's time at 48 and
# 0.59 at 64 (one thread). A block also holds at most B pairs, as many as
# one hashing has buckets, so a decode holds less than a walk of one
# hashing at a time did: on the bench's main sets it peaked (tracemalloc)
# at 1.23, 1.37 and 0.66 MB against 1.94, 2.04 and 0.90 MB (gauss-2d-64,
# exact-1d-65536, exact-3d-16). That cap made a fresh main set's decode
# 2-5% slower at 1024 buckets and 15% at exact-3d-16's 512, where a block
# spanned three hashings.
_WALK_ENTRY_BYTES = 48


class _Walk:
    """One block of live (hashing, bucket) pairs walking the digits.

    Tables come as flat arrays that hold entry (hashing, probe, bucket) at
    ((hashing - first) * c_max + probe) * stride + bucket, first being the
    first hashing walked. Pair l is hashing r[l]'s bucket b[l], in (r, b)
    order, at offset off[l] of the tables; inv is the pairs' (c_max, pairs)
    inverse reference (_inverse_reference) and fvec the (pairs, d) digits
    decoded so far. A pair leaves at the first digit it fails.
    """

    def __init__(
        self, mset: "MeasurementSet", r: np.ndarray, b: np.ndarray, first: int, stride: int
    ):
        c_max = mset.betas.shape[1]
        self.mset, self.r, self.b = mset, r, b
        self.off = (r - first) * (c_max * stride) + b
        self.probe_offsets = np.arange(c_max)[:, None] * stride
        # betas[s] is the (c_max, r_max) array of the probes' coefficients on axis s.
        self.betas = np.ascontiguousarray(mset.betas.transpose(2, 1, 0))
        ref = self.take(mset.buckets[first:].reshape(-1))
        self.inv = _inverse_reference(ref, mset.params.tunables)
        self.fvec = np.zeros((r.size, mset.d), dtype=np.int64)

    def take(self, flat: np.ndarray) -> np.ndarray:
        """The (c_max, pairs) entries of the pairs in a flat table."""
        return flat[self.probe_offsets + self.off]

    def vote(self, flat: np.ndarray, s: int, step: int, base: int, place: int) -> None:
        """Vote on axis s's digit of this base and place value from the flat
        table of its shift, step along the axis; keep the pairs that win it."""
        mset = self.mset
        z = self.take(flat)
        z *= self.inv
        unique, chosen = _decode_digit(
            z,
            self.betas[s].take(self.r, axis=1),
            self.fvec[:, s],
            mset.n,
            step,
            base,
            mset.params.tunables,
        )
        keep = np.flatnonzero(unique)
        if keep.size < unique.size:
            self.r, self.b, self.off = self.r[keep], self.b[keep], self.off[keep]
            self.fvec, self.inv = self.fvec[keep], self.inv.take(keep, axis=1)
            chosen = chosen[keep]
        self.fvec[:, s] += place * chosen


def _walks(mset: "MeasurementSet", hashings: range):
    """The live pairs of the given hashings, in blocks, each a _Walk. A
    stored and a streamed set hold their reference tables alike, in
    mset.buckets[:, :, 0]. The blocks are made as they are asked for."""
    _, C, S, B = mset.buckets.shape
    tun = mset.params.tunables
    r_live, b_live = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for r in hashings:
        invalid = _silent(mset.buckets[r, :, 0], tun)
        live = np.flatnonzero(C - invalid.sum(axis=0) >= _quorum(C, tun))
        r_live.append(np.full(live.size, r))
        b_live.append(live)
    r_live, b_live = np.concatenate(r_live), np.concatenate(b_live)
    size = min(_block_rows(_WALK_ENTRY_BYTES * C), B)
    for lo in range(0, r_live.size, size):
        yield _Walk(mset, r_live[lo : lo + size], b_live[lo : lo + size], hashings.start, S * B)


def _walk_digits(mset: "MeasurementSet", walks: list[_Walk], rows) -> None:
    """The one digit walk: every block of `walks` votes on each digit in
    the plan's decode order. rows(w) gives the flat tables of shift w, as
    _Walk reads them."""
    shifts = mset.params.shifts
    for w, s, base, place in mset.params.digit_steps:
        flat = rows(w)
        for walk in walks:
            if walk.r.size:
                walk.vote(flat, s, int(shifts[w, s]), base, place)


def _found(
    mset: "MeasurementSet", decoded: list[tuple[np.ndarray, np.ndarray]], hashings: range
) -> list[np.ndarray]:
    """Per hashing of `hashings`, the flat indices its pairs decoded to, in
    bucket order, each once, from the (r, fvec) arrays that the walks of
    those hashings left, in order."""
    r = np.concatenate([r for r, _ in decoded] + [np.empty(0, dtype=np.int64)])
    fvec = np.concatenate([f for _, f in decoded] + [np.empty((0, mset.d), dtype=np.int64)])
    bounds = np.searchsorted(r, np.arange(hashings.start, hashings.stop + 1))
    return [
        _unpermute(fvec[lo:hi], mset.hashings[h])
        for h, lo, hi in zip(hashings, bounds[:-1], bounds[1:])
    ]
