"""Bucketed measurements of a sparse residual from spectrum samples.

Every bucket table in the library comes from one primitive, _bucket_tables:
for a hashing and a modulation a it reads the spectrum on the filter's
compact support, weights the samples by the filter, folds them onto the
[b]^d ring, and takes one B-point inverse FFT. Bucket h(i) then holds
sum_j G_{o_i(j)} x_j omega^(a . Sigma j) up to filter leakage. Any number of
(hashing, modulation) rows can go through one call. Every table likewise
loses chi through one product, _subtract_chi, which builds chi's exact
bucket contributions from the filter's time-domain table and so reads no
spectrum samples: a stored set's tables in update_residual_measurements, a
streamed set's tables as they are read, and the buckets that
estimation.estimate_values reads.

The callers are acquire_measurements and estimation.estimate_values (one
call for all its repetitions). acquire_measurements reads a set's r_max
hashings, c_max probe pairs each (redrawn until digit-balanced), under
every shift vector of the plan's location ladder (StagePlan.shifts). A
stored set, the l1 loop's main set, keeps every table, written one hashing
at a time; all later subtraction of recovered mass goes through
update_residual_measurements, which applies the same exact rule to the
stored tables, records the mass in MeasurementSet.chi, and keeps the
sample counter frozen. A streamed set, for the constant-SNR stage that
decodes its set once, is read one hashing and one shift at a time and
decoded as it is read.

Both are decoded by location's one digit walk: a stored set by
location.decode_hashings, a streamed set by location._decode_as_read, which
decides the live buckets and asks the acquisition for each shift's tables.

Indices follow the library's one format (see `core`). Modulations, probes
and shifts are int64 coordinate arrays: _bucket_tables takes an (M_h, d)
array of modulations per hashing, MeasurementSet.alphas and .betas are
(r_max, c_max, d), and the plan's StagePlan.shifts is (S, d); the set
keeps no copy of it. chi enters as SparseApprox's flat indices, unravelled
to (m, d) coordinates where the bucket formula needs them.

The kernels stream, so the main set's stored table is the only array of a
run that grows with rows times B, and it lives in a memory mapping that
the next table reuses (_mapped_table); a streamed set holds its reference
tables and one hashing's current shift:

- _bucket_tables gathers its rows in blocks of about core._BLOCK_BYTES
  (1 MiB) of samples. Each block is gathered with one fancy index, weighted
  in place, and folded straight into its rows of the caller's array (a
  hashing's slab of a stored set's MeasurementSet.buckets, or one shift's
  rows of a streamed set). So neither a full (rows, P) sample table nor a
  second (rows, B) copy ever exists.
- The folded rows are inverted in place, in batches of at least
  core._FFT_BATCH_ROWS (8) rows that may span gather blocks and hashings.
  A 2^16-sample row fills a whole gather block, and pocketfft takes about
  35 ns per point on one 32768-point row per call against 13-14 ns on 8
  or 16 rows (one thread, 2-vCPU KVM host), so the batches, not the
  gather blocks, set the FFT calls.
- The fold adds each support axis's length-b chunks in order and the
  ragged last chunk onto the leading residues, so nothing is copied to pad
  the support to a multiple of b.
- _subtract_chi subtracts phases @ weights one block of _UPDATE_COLUMNS
  bucket columns at a time, for all of its rows at once, and builds each
  block's (|chi|, width) weights at that block's buckets, every column's
  or the live ones'. So neither the (|chi|, B) weights nor an (M, B)
  increment is ever held. On a 144 x 32768 table at |chi| = 32 one
  hashing's update takes 56-58 ms this way against 156-160 ms in 2-row
  blocks, which reread the whole weights for every block (one thread). A
  streamed set builds its live buckets' weights again at every digit
  rather than keep them: kept, the (|chi|, live) gains of a 2^14-point
  constant-SNR stage at |chi| = 256 raised its acquisition's tracemalloc
  peak from 7.4 to 54.5 MB.
- The acquisition's initial scale is a maximum over row blocks, and a
  block holding a NaN or an infinity (a non-finite spectrum sample was
  read) stops the acquisition. A streamed set keeps it as a running
  maximum while it is read, each shift's peak taken before chi leaves it,
  so the decode of each hashing reads the scale of every table read so
  far, and the set ends with the stored set's scale.
- Every root of unity is a lookup in core.unit_roots, so no call evaluates
  a complex exponential.
- A hashing's support offsets mapped by Sigma, and the exponents of its
  filter row's modulation, come from one outer sum of per-axis products
  (_support_dots), not from a (P, d) int64 matmul, which numpy runs
  without BLAS: at P = 65536 in 1-D the two products took about 560 us
  per hashing against 120 us for the sums (one thread).

Rows and buckets are independent, so the blocks and batches only regroup
work: every row and bucket comes out as in one pass over everything. The
inverse FFT gives the same bits on any number of rows per call, and its
b^(d/2) scale is a separate step, since folding it into the transform's
norm would change them. The chi product is the one step that runs
through the BLAS. It is real, since the filter gains are: the complex
product of the same values it replaced rounded differently under one and
two OpenBLAS threads, and the real one gave the same bits under both on
every seeded input compared (tests/test_recovery.py runs the pinned cases
under one thread). That is measured, not guaranteed: OpenBLAS splits some
products with few rows and a long chi differently by thread count, e.g.
16 x 644 by 644 x 512. Its column blocks are core._UPDATE_COLUMNS (512)
wide: on eight real product shapes under one and two OpenBLAS threads,
blocks of 8 or more columns gave the whole product's bits on seven (on the
eighth, 4 rows by |chi| = 644, only whole blocks did), and 1- and 2-column
blocks did not always. A streamed set's last block of live buckets and an
estimate's read row can be narrower; only decodes and estimates leave
them, and a streamed set's decodes equal the stored set's on every seeded
run compared (see tests/test_recovery.py).
"""
from __future__ import annotations

import math
import mmap
import weakref
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import (
    DenseSignal,
    ParameterError,
    SparseApprox,
    StagePlan,
    _FFT_BATCH_ROWS,
    _UPDATE_COLUMNS,
    _block_rows,
    unit_roots,
)
from .dense_dft import fft_axes
from .filters import BucketFilter, cached_bucket_filter
from .location import _balanced_axes, _decode_as_read
from .permutation import Hashing, sample_permutation

__all__ = [
    "MeasurementSet",
    "acquire_measurements",
    "update_residual_measurements",
]

def _support_values(filt: BucketFilter) -> np.ndarray:
    """Filter value per support offset, flattened row-major over the grid."""
    return reduce(np.multiply.outer, [filt.ghat_support] * filt.d).ravel()


def _support_dots(filt: BucketFilter, coeffs: np.ndarray) -> np.ndarray:
    """(i . coeffs[:, c]) mod n for every offset i of the support grid and
    every column c of the (d, K) coeffs, as a (K, P) array in row-major
    grid order. Built as outer sums of the per-axis products: the integers
    of the (P, d) @ (d, K) product without numpy's int64 matmul, which has
    no BLAS path."""
    d, S, K = filt.d, len(filt.support), coeffs.shape[1]
    mask = filt.n - 1
    terms = (coeffs[:, :, None] * filt.support) & mask
    total = terms[0].reshape((K, S) + (1,) * (d - 1))
    for ax in range(1, d):
        total = total + terms[ax].reshape((K,) + (1,) * ax + (S,) + (1,) * (d - 1 - ax))
    total &= mask
    return total.reshape(K, -1)


def _fold_axis(
    y: np.ndarray, axis: int, b: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Fold one support axis onto residues mod b: add its length-b chunks in
    order, the ragged last chunk onto the leading residues only. The sums go
    into out when given (its shape is y's with b on `axis`), else into a new
    array."""
    width = y.shape[axis]
    head = [slice(None)] * y.ndim
    tail = [slice(None)] * y.ndim
    head[axis] = slice(0, b)
    if out is None:
        out = y[tuple(head)].copy()
    else:
        out[...] = y[tuple(head)]
    for lo in range(b, width, b):
        hi = min(lo + b, width)
        head[axis], tail[axis] = slice(0, hi - lo), slice(lo, hi)
        out[tuple(head)] += y[tuple(tail)]
    return out


def _fold_rows(y: np.ndarray, filt: BucketFilter, out: np.ndarray) -> None:
    """Fold (M, support-grid) weighted samples onto the [b]^d ring, into
    the C-contiguous (M, B) array out.

    Folds the support axes onto residues mod b one at a time, in axis
    order, adding each entry's terms in chunk order, so the sums are those
    of a zero-padded fold without the padded copy. The last axis folds
    straight into out. The leading support offset is a multiple of b except
    when b = n, where the support is one ring period and its fold is a copy
    rolled into place.
    """
    d, b = filt.d, filt.b
    M = y.shape[0]
    y = y.reshape((M,) + (len(filt.support),) * d)
    dst = out.reshape((M,) + (b,) * d)
    shift = int(filt.support[0]) % b
    for axis in range(1, d + 1):
        y = _fold_axis(y, axis, b, dst if axis == d and not shift else None)
    if shift:
        dst[...] = np.roll(y, (shift,) * d, axis=tuple(range(1, d + 1)))


def _invert_rows(u: np.ndarray, filt: BucketFilter) -> None:
    """Turn the C-contiguous (M, B) folded rows u into bucket values in
    place: one B-point inverse FFT per row, all rows in one call, then the
    b^(d/2) scale (a separate step, so the bits do not depend on how the
    rows are batched)."""
    d, b = filt.d, filt.b
    grid = u.reshape((len(u),) + (b,) * d)
    fft_axes(grid, tuple(range(1, d + 1)), inverse=True, out=grid)
    u *= float(b) ** (d / 2.0)


def _gather_setup(
    filt: BucketFilter, hashing: Hashing
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What _bucket_tables needs of one hashing, whatever the number of rows
    it serves: (Sigma, the (d, P) support offsets mapped by Sigma, and the
    (P,) filter row modulated by omega^(i . Sigma q))."""
    n, d = filt.n, filt.d
    sigma = hashing.perm.sigma
    # Rows 0..d-1: the support offsets mapped by Sigma; row d: the exponent
    # of the omega^(i . Sigma q) modulation of the filter row.
    sq = (sigma @ hashing.perm.q) & (n - 1)
    dots = _support_dots(filt, np.column_stack([sigma, sq]))
    return sigma, dots[:d], _support_values(filt) * unit_roots(n, 1)[dots[d]]


def _gather_block(filt: BucketFilter, rows: int) -> np.ndarray:
    """The buffer _bucket_tables gathers into for calls of up to `rows`
    rows: min(rows, one block of about _BLOCK_BYTES) rows of P samples."""
    P = filt.support_size
    return np.empty((min(_block_rows(16 * P), rows), P), dtype=np.complex128)


def _bucket_tables(
    xhat: DenseSignal,
    filt: BucketFilter,
    hashings: list[Hashing],
    mods: list[np.ndarray],
    out: np.ndarray | None = None,
    *,
    setups: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None,
    block: np.ndarray | None = None,
) -> np.ndarray:
    """Bucket values of x-hat for every (hashing, modulation) row.

    mods[h] is an (M_h, d) array of modulations for hashings[h], and every
    hashing uses filt. Rows run hashing-major into out, a C-contiguous
    (sum M_h, B) array (allocated when None), which is returned. The samples
    are streamed in blocks of about _BLOCK_BYTES: each block of
    x-hat[Sigma^T (i - a)] over the support offsets i is gathered, weighted
    by its hashing's filter row, and folded into its rows of out. The rows
    are then inverted in place, at least _FFT_BATCH_ROWS at a time (the last
    batch may be short); a batch may span blocks and hashings. Reads
    P = filt.support_size samples per row; the caller accounts them.

    A caller that reads the same hashings call after call passes what the
    calls can share: setups[h] = _gather_setup(filt, hashings[h]) and a
    _gather_block(filt, M) buffer. A fresh block per call costs its page
    faults every time: one 15-row call per shift over exact-3d-16's
    constant-SNR set took twice as long as with one block (one thread).
    """
    n, d = xhat.n, xhat.d
    if setups is None:
        setups = [_gather_setup(filt, hashing) for hashing in hashings]
    M = sum(len(m) for m in mods)
    if out is None:
        out = np.empty((M, filt.B), dtype=np.complex128)
    if block is None:
        block = _gather_block(filt, M)
    step = len(block)
    xflat = xhat.values.reshape(-1)
    # n is a power of two, so "& mask" is "mod n" (also for negative
    # differences) and a row-major stride of n is a shift by log2(n) bits.
    mask, bits = n - 1, n.bit_length() - 1
    filled = done = inverted = 0
    for (sigma, base, weight), m in zip(setups, mods):
        shift = (np.asarray(m, dtype=np.int64) @ sigma) & mask
        lo = 0
        while lo < len(shift):
            hi = min(lo + step - filled, len(shift))
            flat = (base[0] - shift[lo:hi, 0, None]) & mask
            for ax in range(1, d):
                flat <<= bits
                flat |= (base[ax] - shift[lo:hi, ax, None]) & mask
            np.multiply(xflat[flat], weight, out=block[filled : filled + hi - lo])
            filled += hi - lo
            lo = hi
            if filled == step or done + filled == M:
                _fold_rows(block[:filled], filt, out[done : done + filled])
                done, filled = done + filled, 0
                if done - inverted >= _FFT_BATCH_ROWS or done == M:
                    _invert_rows(out[inverted:done], filt)
                    inverted = done
    return out


def _all_cells(b: int, d: int) -> np.ndarray:
    """Coordinates of every bucket of the [b]^d ring as a (b^d, d) array,
    in row-major flat order."""
    return np.indices((b,) * d).reshape(d, -1).T


def _chi_weights(pi: np.ndarray, hashing: Hashing, cells: np.ndarray) -> np.ndarray:
    """Filter gain G(pi(t) - (n/b) j) of every chi entry t at the bucket
    coordinates j of the (m, d) array cells, as a real (|chi|, m) float64
    array; pi is chi's support mapped by the hashing's permutation, an
    (|chi|, d) array."""
    n, b, g_axis = hashing.n, hashing.b, hashing.filter.g_axis
    centers = (n // b) * cells
    # One gather per axis, multiplied in axis order: the bits of a product
    # over the axes, without an (|chi|, m, d) offset array.
    weights = g_axis[(pi[:, None, 0] - centers[None, :, 0]) & (n - 1)]
    for ax in range(1, hashing.d):
        weights *= g_axis[(pi[:, None, ax] - centers[None, :, ax]) & (n - 1)]
    return weights


def _subtract_chi(
    rows: np.ndarray,
    chi: SparseApprox,
    hashing: Hashing,
    mods: np.ndarray,
    cells: np.ndarray,
    live: np.ndarray | None = None,
) -> None:
    """Subtract chi's exact bucket contributions from a hashing's (M, m)
    rows in place: the library's one chi product. Row i was taken under
    modulation mods[i] and column c is the bucket at coordinates cells[c]
    (an (m, d) array; _all_cells for every bucket); entry t adds
    G(pi(t) - (n/b) j) * chi_t * omega^(a . Sigma t) to bucket j under
    modulation a. Every column is cleaned, or only the columns `live`.
    Reads no samples.

    The (M, |chi|) phases are built once, and their real and imaginary
    parts are stacked into one (2M, |chi|) real array. phases @ weights is
    subtracted one block of _UPDATE_COLUMNS columns at a time, with each
    block's real (|chi|, width) weights built at that block's buckets, as
    one real product whose top half is the increment's real part and whose
    bottom half its imaginary part. So neither the (|chi|, m) weights nor an
    (M, m) increment is ever formed, and no complex BLAS product runs (see
    the module docstring on thread counts).
    """
    width = rows.shape[1] if live is None else live.size
    if not len(chi) or not width:
        return
    mask = hashing.n - 1
    coords = chi.coords_array()
    sig_t = (coords @ hashing.perm.sigma.T) & mask
    phases = unit_roots(hashing.n, 1)[(mods @ sig_t.T) & mask] * chi.values
    M = len(phases)
    parts = np.concatenate([phases.real, phases.imag])
    pi = hashing.perm.forward_array(coords)
    for lo in range(0, width, _UPDATE_COLUMNS):
        if live is None:
            cols = slice(lo, lo + _UPDATE_COLUMNS)
        else:
            cols = live[lo : lo + _UPDATE_COLUMNS]
        product = parts @ _chi_weights(pi, hashing, cells[cols])
        if live is None:
            rows.real[:, cols] -= product[:M]
            rows.imag[:, cols] -= product[M:]
        else:
            rows[:, cols] -= product[:M] + 1j * product[M:]
        del product  # so that two blocks' products are never held at once


@dataclass(eq=False)
class MeasurementSet:
    """Every bucket value the recovery loop is allowed to look at.

    buckets[r, t, w] is the [b]^d table (flattened row-major) for hashing r,
    probe pair t = (alphas[r, t], betas[r, t]), and shift w of the plan's
    ladder, params.shifts (S, d); it was taken under the modulation
    alphas[r, t] + betas[r, t] * params.shifts[w] mod n. alphas and betas
    are (r_max, c_max, d) int64 arrays; shift 0 is the unshifted reference.
    The tables hold source - chi, chi being the sum of every update since
    acquisition, in order. The sample counter tracks spectrum reads and is
    immune to residual updates.

    A stored set (acquired without chi; the l1 loop's main set) keeps all S
    shifts, is decoded with location.decode_hashings, and is the only full
    table a run holds. A streamed set (acquired with chi, for a stage that
    decodes once) was decoded while it was read, by the same walk: it keeps
    only the reference tables, buckets[:, :, :1], and `found`, one array of
    decoded flat indices per hashing. It cannot be decoded or updated again.
    """

    params: StagePlan
    hashings: list[Hashing]
    alphas: np.ndarray
    betas: np.ndarray
    buckets: np.ndarray
    # The spectrum measurements were taken from; estimation stages read it
    # when they draw fresh hashings.
    source: DenseSignal
    chi: SparseApprox
    sample_counter: int = 0
    # Largest bucket magnitude right after acquisition, before chi is
    # subtracted; relative floors for mu = 0 inputs and zero pruning, and
    # the digit walk's zero cut, are anchored to it. A streamed set raises
    # it to each table's peak as the table is read.
    initial_scale: float = 0.0
    # A streamed set's candidates, one array per hashing, as decode_hashings
    # gives them for a stored set; None when stored.
    found: list[np.ndarray] | None = None
    # A stored set's table peak, as the last scan that read every block
    # found it; None once update_residual_measurements has changed the
    # tables since.
    residual_peak: float | None = None

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def d(self) -> int:
        return self.params.d


_SPARE_MAPPING: list[mmap.mmap] = []  # the last freed table's, for the next


def _mapped_table(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised complex128 array in a private anonymous mapping:
    the spare one when large enough, else a new one with huge pages
    requested as numpy requests them. Once the array and all its views are
    freed, its mapping becomes the spare.

    A run's stored table and its streamed sets' rows live here. Freed in
    glibc's heap, a table's place went to the next table only if none of
    numpy's cached small arrays had landed just above it; otherwise the
    heap grew by a table. A fresh mapping per table would cost its page
    faults every time: 7-8 ms for 24 MB (2-vCPU KVM host).
    """
    size = 16 * math.prod(shape)
    buf = _SPARE_MAPPING.pop() if _SPARE_MAPPING else None
    if buf is None or len(buf) < size:
        # Freeing a malloc'd block of this size lifts glibc's mmap and trim
        # thresholds to it, as a freed heap table did, so later temporaries
        # reuse heap pages (exact-3d-16: 200 page faults per call, not 14k).
        np.empty(size, dtype=np.uint8)
        buf = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        if hasattr(mmap, "MADV_HUGEPAGE"):
            buf.madvise(mmap.MADV_HUGEPAGE)
    flat = np.frombuffer(buf, dtype=np.complex128, count=size // 16)
    # Views keep `flat` alive, so the mapping moves on once nothing reads it.
    weakref.finalize(flat, _SPARE_MAPPING.__setitem__, slice(None), [buf])
    return flat.reshape(shape)


def _sample_balanced_probes(
    n: int, d: int, c_max: int, delta: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform probe pairs as (alphas, betas), two (c_max, d) arrays, redrawn
    until every axis is digit-balanced.

    Draws alpha_t, beta_t, alpha_{t+1}, ... as the rows of one (2 c_max, d)
    rng call per attempt; the random stream matches drawing the pairs one by
    one."""
    for _ in range(1000):
        draws = rng.integers(0, n, size=(2 * c_max, d))
        if _balanced_axes(draws[1::2], delta).all():
            return draws[0::2], draws[1::2]
    raise RuntimeError(
        f"no digit-balanced probe set of size {c_max} found for delta={delta}"
    )


def _modulations(
    alphas: np.ndarray, betas: np.ndarray, shifts: np.ndarray, n: int
) -> np.ndarray:
    """Modulation vectors a*(1, w) = alpha + beta*w mod n for every
    (probe, shift), probe-major: (c, d) probes and (S, d) shifts give a
    (c * S, d) array."""
    mods = (alphas[:, None, :] + betas[:, None, :] * shifts[None, :, :]) % n
    return mods.reshape(-1, shifts.shape[1])


def acquire_measurements(
    xhat: DenseSignal,
    params: StagePlan,
    rng: np.random.Generator,
    *,
    chi: SparseApprox | None = None,
) -> MeasurementSet:
    """Sample hashings and probes, then read every ladder shift from x-hat.

    Without chi the set stores every table, for a caller that decodes and
    updates it again and again. With chi the set is streamed: each shift is
    read, cleaned of chi at the buckets still alive and decoded before the
    next is read, so only the reference tables and one hashing's current
    shift are ever held; the set keeps its reference tables and `found`.
    Both draw the same hashings and probes from rng, read the same samples,
    and give the same initial scale; a streamed set's `found` is the stored
    set's decode_hashings after update_residual_measurements with chi. A
    NaN or infinite sample read is a ParameterError.
    """
    if xhat.domain != "frequency":
        raise ParameterError("acquisition expects a frequency-domain signal")
    if xhat.n != params.n or xhat.d != params.d:
        raise ParameterError("parameter grid does not match the signal grid")
    if chi is not None and (chi.n != params.n or chi.d != params.d):
        raise ParameterError("chi does not live on the measurement grid")
    n, d = params.n, params.d
    delta = params.delta
    shifts = params.shifts
    filt = cached_bucket_filter(n, d, params.B, params.F)

    hashings = []
    alphas = np.empty((params.r_max, params.c_max, d), dtype=np.int64)
    betas = np.empty_like(alphas)
    for r in range(params.r_max):
        hashings.append(Hashing(sample_permutation(n, d, rng), filt))
        alphas[r], betas[r] = _sample_balanced_probes(n, d, params.c_max, delta, rng)

    S = len(shifts)
    if chi is None:
        table = _mapped_table((params.r_max, params.c_max, S, params.B))
    else:  # the reference tables, then a slab for the shift being decoded
        table = _mapped_table((params.r_max + 1, params.c_max, 1, params.B))
    mset = MeasurementSet(
        params=params,
        hashings=hashings,
        alphas=alphas,
        betas=betas,
        buckets=table[: params.r_max],
        source=xhat,
        chi=SparseApprox.empty(n, d) if chi is None else chi,
        sample_counter=params.acquisition_reads,
    )
    if chi is None:
        # One call per hashing writes its contiguous slab; filling the table
        # a shift at a time would write strided rows, which made these calls
        # about 8% slower on gauss-2d-64's main set (one thread).
        for r, hashing in enumerate(hashings):
            mods = _modulations(alphas[r], betas[r], shifts, n)
            _bucket_tables(
                xhat, filt, [hashing], [mods], out=mset.buckets[r].reshape(-1, params.B)
            )
        mset.initial_scale = _max_abs(mset.buckets.reshape(-1, params.B))
        mset.residual_peak = mset.initial_scale
        return mset
    # Streamed: one call per shift of one hashing, sharing the hashing's
    # gather set-up and one gather block. Every shift is read, also once no
    # bucket is left to decode, so the reads are those the counter books.
    # Each shift loses chi after its peak is taken, at the buckets the
    # decoder asks for.
    current = table[-1, :, 0]
    block = _gather_block(filt, params.c_max)
    cells = _all_cells(filt.b, d)
    mset.found = []
    for r, hashing in enumerate(hashings):
        setups = [_gather_setup(filt, hashing)]
        mods = _modulations(alphas[r], betas[r], shifts, n)

        def read(w: int, live: np.ndarray | None) -> np.ndarray:
            rows = mset.buckets[r, :, 0] if w == 0 else current
            _bucket_tables(
                xhat, filt, [hashing], [mods[w::S]], out=rows, setups=setups, block=block
            )
            mset.initial_scale = max(mset.initial_scale, _max_abs(rows))
            _subtract_chi(rows, chi, hashing, mods[w::S], cells, live)
            return rows

        mset.found.append(_decode_as_read(mset, r, read))
    return mset


def _max_abs(table: np.ndarray, above: float = math.inf) -> float:
    """Largest magnitude in a 2-D complex table (0 when empty), taken one
    block of rows at a time; a block holding a NaN or an infinity is a
    ParameterError. The scan ends at the first block whose peak exceeds
    `above` and returns that peak, so a caller that only asks whether the
    table stays within a bound reads it up to the first block that does
    not."""
    step = _block_rows(16 * table.shape[1])
    peak = 0.0
    for lo in range(0, len(table), step):
        block = float(np.abs(table[lo : lo + step]).max())
        if not math.isfinite(block):
            raise ParameterError("the spectrum holds a NaN or infinite sample")
        peak = max(peak, block)
        if peak > above:
            break
    return peak


def _residual_peak(mset: MeasurementSet, above: float = math.inf) -> float:
    """Largest |bucket| of a stored set's tables, which hold mset.source -
    mset.chi, over every hashing, probe and shift, taken as _max_abs takes
    it (up to the first block above `above`); reads no samples. A scan that
    reads every block leaves its peak in mset.residual_peak, and later
    calls answer from it, without a scan, until the tables change."""
    if mset.residual_peak is not None:
        return mset.residual_peak
    peak = _max_abs(mset.buckets.reshape(-1, mset.params.B), above)
    if peak <= above:
        mset.residual_peak = peak
    return peak


def update_residual_measurements(
    mset: MeasurementSet, chi_delta: SparseApprox
) -> MeasurementSet:
    """Subtract chi_delta's bucket contributions from every stored table;
    add chi_delta to mset.chi.

    The contribution of entry t to bucket j under (hashing, modulation a) is
    G(pi(t) - (n/b) j) * chi_t * omega^(a . Sigma t); it is computed exactly
    from the filter tables (_subtract_chi, on all of a hashing's rows at
    once), so no spectrum reads happen and repeated updates stay consistent
    with refreshing from scratch. A streamed set keeps no shifted tables to
    update.
    """
    if mset.found is not None:
        raise ParameterError("a streamed measurement set cannot be updated")
    if chi_delta.n != mset.n or chi_delta.d != mset.d:
        raise ParameterError("chi_delta does not live on the measurement grid")
    if len(chi_delta) == 0:
        return mset
    cells = _all_cells(mset.hashings[0].b, mset.d)
    shifts = mset.params.shifts
    for r, hashing in enumerate(mset.hashings):
        mods = _modulations(mset.alphas[r], mset.betas[r], shifts, mset.n)
        slab = mset.buckets[r].reshape(-1, mset.params.B)
        _subtract_chi(slab, chi_delta, hashing, mods, cells)
    mset.chi = mset.chi + chi_delta
    mset.residual_peak = None
    return mset
