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
Buckets that fail a group are dropped from the working set, so later groups
decode only the survivors. `found` lists the decoded indices as row-major
flat int64 indices in bucket order, each once.

Every bucket decodes on its own, so locate_signal works through the bucket
columns in blocks of about core._BLOCK_BYTES per probe-row array and
concatenates the blocks' results in bucket order; `found` and `failed` are
those of one pass over all columns, and the (c_max, B) temporaries of a
large table never exist.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import ParameterError, _block_rows, _first_seen, unit_roots

if TYPE_CHECKING:
    from .hashing_measurements import MeasurementSet

__all__ = ["LocationResult", "locate_signal"]


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


@dataclass
class LocationResult:
    """Indices recovered from one hashing, plus which buckets gave up."""

    found: np.ndarray  # (m,) int64 flat indices, bucket order, distinct
    failed: np.ndarray  # (B,) bool; True where no unique digit path survived


def locate_signal(mset: "MeasurementSet", r: int) -> LocationResult:
    """Decode every bucket of hashing r into a candidate index of the
    residual the tables hold. `found` holds flat indices in bucket order;
    duplicates across buckets are merged.
    """
    n, d = mset.n, mset.d
    if not 0 <= r < len(mset.hashings):
        raise ParameterError(f"hashing index {r} out of range")
    B = mset.params.B
    step = _block_rows(16 * mset.betas.shape[1])
    failed = np.ones(B, dtype=bool)
    decoded = []
    for lo in range(0, B, step):
        live, fvec = _decode_columns(mset, r, lo, min(lo + step, B))
        failed[live] = False
        decoded.append(fvec)
    rows = (np.concatenate(decoded) @ mset.hashings[r].perm.sigma_inv.T) % n
    found = _first_seen(np.ravel_multi_index(rows.T, (n,) * d))
    return LocationResult(found=found, failed=failed)


def _decode_columns(
    mset: "MeasurementSet", r: int, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Decode buckets lo..hi-1 of hashing r: (the buckets that decoded,
    ascending, and their (m, d) permuted coordinates Sigma i0 mod n)."""
    tun = mset.params.tunables
    n, d = mset.n, mset.d
    c_max = mset.betas.shape[1]
    table = mset.buckets[r, :, :, lo:hi]  # (c_max, S, hi - lo)

    ref = table[:, 0, :]
    invalid = np.abs(ref) < tun.near_zero
    safe_ref = np.where(invalid, 1.0, ref)

    # Surviving bucket numbers (relative to lo), ascending, and their
    # partial decodes.
    live = np.arange(hi - lo)
    fvec = np.zeros((hi - lo, d), dtype=np.int64)
    min_votes = tun.vote_fraction * c_max - 1e-9

    # n and every digit base are powers of two, so "& (m - 1)" is "mod m".
    for s in range(d):
        betas = mset.betas[r, :, s]
        scale = 1
        for g, base in enumerate(mset.group_bases, start=1):
            if live.size == 0:
                break
            step = n // (scale * base)
            meas = table[:, mset.shift_slot(g, s)][:, live]
            xi = meas / safe_ref[:, live]
            corr_expo = (step * betas[:, None] * fvec[None, :, s]) & (n - 1)
            corrected = xi * unit_roots(n, -1)[corr_expo]
            nearest = np.rint(np.angle(corrected) * (base / (2 * np.pi)))
            nearest = nearest.astype(np.int64) & (base - 1)
            eta = unit_roots(base, -1)[nearest] * corrected
            ok = (np.abs(eta - 1.0) < tun.ratio_tolerance) & ~invalid[:, live]
            targets = (np.arange(base)[:, None] * betas[None, :]) & (base - 1)
            votes = (ok & (nearest == targets[:, :, None])).sum(axis=1)
            passed = votes >= min_votes
            unique = passed.sum(axis=0) == 1
            chosen = passed.argmax(axis=0)
            live = live[unique]
            fvec = fvec[unique]
            fvec[:, s] += scale * chosen[unique]
            scale *= base
    return lo + live, fvec
