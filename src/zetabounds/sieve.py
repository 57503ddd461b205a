"""Segmented von Mangoldt sieve: psi(x), the sum of Lambda(n)/n, and
extrema scans of the normalised error terms.

Segments are independent work units of 2^21 consecutive integers: a
segment's mask (1 MB) and each of its arrays of about 110 000 terms fit
in a core's 2 MB L2 cache.  2^20 is slower: `sieve --x-max 1e9
--threads 2` took 3.4 and 3.7 s at 2^21 against 4.9 and 5.2 s at 2^20
(medians of two sets of six alternated runs on 2 cores, 2^21 faster in
all twelve), and one thread 4.5 against 4.9 s (four runs, 3 of 4).

A running sum is carried across segments as an exact part on a
power-of-two grid plus the sum of the parts below that grid: each
segment splits the carried exact part and its own terms on one grid set
by the running total, so every partial sum of the grid parts is exact in
double and only the sums of the half-step remainders round.  Segments
are summed in order, so results are identical for any worker count, and
every prefix is the correctly rounded sum: of psi and of the sum of
Lambda(n)/n at each of the 3 002 195 prime powers up to 5e7, as
extrema_scan reads them, all equal it.

A segment's mask holds its odd numbers only (2^20 entries) and starts as a
slice of a periodic wheel that has the multiples of 3, 5, 7, 11 and 13
struck already (Bays-Hudson segments with a Pritchard-style wheel); only
the base primes from 17 up are struck per segment.  The segment's odd
proper prime powers are then put back into the mask, so one flatnonzero
lists every odd prime power in order; only the powers of 2 are inserted.

An extrema scan bounds each block of 64 consecutive prime powers of a
segment from the running sums at its two ends and its first and last n,
and computes per-term values only in the blocks whose bound reaches the
lowest max or the highest min recorded so far for an x_min the segment
reaches, and in every block from an x_min on while it has no record yet;
a segment below every x_min has none.  Every value in a skipped block
lies below each such max and above each such min, so it could not
replace a record, and the first extremum that does lies in a candidate
block; the records are those of a scan of every term.  Past the first
segments most blocks are skipped: 89 % of them in a scan to 5e7 with
x_min = 1 and 10^4.

A pass allocates its work arrays once and reuses them for every segment
(_Scratch).  The mask and the split parts of _SegmentSum scale with the
segment; psi_checkpoints splits psi and the sum of Lambda(n)/n in one
pair of parts, psi's prefixes read before the second split.  The
in-block running sums and the per-term arrays of extrema_scan scale with
the chunk, _CHUNK candidate blocks (16 384 terms, 128 KiB an array).
The positions and Lambda values a segment hands on are new arrays, and a
pass drops them before the next segment is sieved.  So a one-thread pass
holds about five arrays of a segment's terms at its peak, however long
its range: to 4 SEGMENT + 1 under tracemalloc, 6.8 MB for an extrema
scan and 6.2 MB for psi_checkpoints, 5.5 and 4.9 arrays of the first
segment's 155 921 terms.  Freed and allocated again per segment, arrays
of this size go back to the kernel and are faulted in again: a
one-thread `sieve --x-max 1e9` took 123 800 minor page faults that way,
and takes 10 200 with them reused.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass

import numpy as np

from .util import EULER_GAMMA, format_float17

__all__ = [
    "SieveCheckpoint", "ExtremaRecord", "psi_checkpoints",
    "extrema_scan", "check_x_max", "checkpoints_to_csv", "STAT_PSI",
    "STAT_LAMBDA_OVER_N",
]

SEGMENT = 1 << 21
_WHEEL = (3, 5, 7, 11, 13)    # presieved into every segment's mask
_WHEEL_PERIOD = 15015         # 3*5*7*11*13: the wheel's period in odd numbers
_BLOCK = 64                   # terms per block of running sums and bounds
_CHUNK = 256                  # candidate blocks given per-term values at once
_BOUND_ULPS = 16              # a block bound's margin, in ulps of its terms
HARD_CEILING = 10_000_000_000
DESK_CEILING = 1_000_000_000
STAT_PSI = "psi"                      # (psi(x) - x)/sqrt(x)
STAT_LAMBDA_OVER_N = "lambda-over-n"  # sqrt(x) (sum Lambda/n - log x + gamma)


@dataclass(frozen=True)
class SieveCheckpoint:
    """psi, the log-weighted sum and its shift at an integer checkpoint.

    sum_lambda_over_n = S(x), the running sum of Lambda(n)/n over n <= x
    (the correctly rounded sum, as psi is: see _SegmentSum), and
    delta = S(x) - (log x - gamma). The error of delta is that of rounding
    S(x) ~ log x and log x to double, a few units in the last place of
    log x (about 3e-15 at x = 2e7, against an fsum reference);
    delta(1) = gamma exactly.
    """

    x: int
    psi: float
    delta: float
    sum_lambda_over_n: float


@dataclass(frozen=True)
class ExtremaRecord:
    x_at: int
    left_limit: bool
    value: float
    kind: str       # "max" or "min"


def _base_primes(limit: int) -> np.ndarray:
    """All primes <= limit by a plain sieve."""
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if is_p[p]:
            is_p[p * p::p] = False
    return np.flatnonzero(is_p).astype(np.int64)


def _prime_powers(limit: int, base: np.ndarray):
    """All proper prime powers p^k <= limit (k >= 2) with their log p."""
    ns, ls = [], []
    for p in base:
        pk = int(p) * int(p)
        lp = math.log(p)
        while pk <= limit:
            ns.append(pk)
            ls.append(lp)
            pk *= int(p)
    order = np.argsort(np.array(ns, dtype=np.int64), kind="stable")
    return (np.array(ns, dtype=np.int64)[order],
            np.array(ls, dtype=np.float64)[order])


def _wheel_pattern() -> np.ndarray:
    """Two wheel periods of the odd numbers 1, 3, 5, ...: entry i is False
    iff 2i + 1 is a multiple of a wheel prime.  Any phase of the period is
    one contiguous slice of it."""
    keep = np.ones(2 * _WHEEL_PERIOD, dtype=bool)
    for q in _WHEEL:
        keep[q // 2::q] = False        # 2i + 1 = q, 3q, 5q, ...
    keep.flags.writeable = False
    return keep


class _Scratch(threading.local):
    """Work arrays reused across the segments of one pass.

    take(name, n) is the first n entries of the array kept under name,
    allocated again only when a segment needs more; prime powers thin out
    as n grows, so the first segment of a pass is its largest and each
    array is allocated once.  Each thread sees its own arrays (a
    threading.local), so the workers of a threaded stream never sieve in
    one another's mask."""

    def __init__(self):
        self.arrays = {}

    def take(self, name: str, n: int, dtype=np.float64) -> np.ndarray:
        a = self.arrays.get(name)
        if a is None or a.size < n:
            a = self.arrays[name] = np.empty(n, dtype)
        return a[:n]


def _segment_primes(lo: int, hi: int, base: np.ndarray, wheel: np.ndarray,
                    powers: np.ndarray, scratch: _Scratch) -> np.ndarray:
    """Primes in [lo, hi] for 2 <= lo <= hi, via the ascending base primes,
    which must hold every prime up to sqrt(hi), and the _wheel_pattern(),
    merged in order with powers, the proper prime powers in [lo, hi].

    The mask holds the odd numbers of [lo, hi] only: entry i is odd + 2i.
    It starts as the wheel pattern at the segment's phase, tiled by
    doubling copies, so the multiples of 3 ... 13 cost no strided writes;
    each base prime p >= 17 then strikes its odd multiples from the first
    one >= max(p^2, lo), a stride of p entries.  The wheel primes
    themselves are put back when they lie in [lo, hi], and so are the odd
    powers, struck composites at known entries.  2 and the even powers
    are not in the mask and are inserted.  The mask is scratch's, so a
    pass sieves every segment in one array.
    """
    odd = lo | 1
    size = (hi - odd) // 2 + 1
    mask = scratch.take("mask", size, bool)
    done = min(_WHEEL_PERIOD, size)
    phase = (odd >> 1) % _WHEEL_PERIOD
    mask[:done] = wheel[phase:phase + done]
    while done < size:
        n = min(done, size - done)
        mask[done:done + n] = mask[:n]
        done += n
    ps = base[np.searchsorted(base, 17):
              np.searchsorted(base, math.isqrt(hi), side="right")]
    first = np.maximum(ps * ps, -(-lo // ps) * ps)
    first += ps * (1 - first % 2)            # the first odd multiple
    for i, p in zip(((first - odd) >> 1).tolist(), ps.tolist()):
        mask[i::p] = False
    for q in _WHEEL:
        if lo <= q <= hi:
            mask[(q - odd) >> 1] = True
    is_even = (powers & 1) == 0
    mask[(powers[~is_even] - odd) >> 1] = True
    primes = np.flatnonzero(mask)
    primes <<= 1
    primes += odd
    even = powers[is_even]
    if lo == 2:
        even = np.concatenate(([2], even))
    if even.size:
        # beyond the first segment, at most one power of 2
        primes = np.insert(primes, np.searchsorted(primes, even), even)
    return primes


def _check_threads(threads) -> int:
    """The worker count of a sieve pass, which must be at least 1."""
    threads = int(threads)
    if threads < 1:
        raise ValueError("threads must be >= 1")
    return threads


class _SieveStream:
    """Iterate (lo, hi, positions, mangoldt) over ascending segments.

    A segment spans SEGMENT consecutive integers [lo, hi] (the last one
    ends at x_max), even and odd, while its sieve mask holds only the odd
    ones; positions are all the prime powers in [lo, hi], 2 and its powers
    included, in ascending order, and mangoldt their Lambda = log p.

    The proper prime powers come from one table built per stream: the odd
    ones are put back into the segment's mask and the powers of 2
    inserted (_segment_primes), and Lambda = log n is then overwritten
    with log p at their entries.  Each worker thread sieves in a mask of
    its own (_Scratch), allocated once and reused for its segments; the
    positions and Lambda values are new arrays, as callers keep them."""

    def __init__(self, x_max: int, threads: int = 1):
        self.x_max = int(x_max)
        root = int(math.isqrt(self.x_max)) + 1
        self.base = _base_primes(root)
        self.pp_n, self.pp_l = _prime_powers(self.x_max, self.base)
        self.wheel = _wheel_pattern()
        self.threads = threads
        self.scratch = _Scratch()

    def _one(self, lo: int):
        hi = min(lo + SEGMENT - 1, self.x_max)
        i0, i1 = np.searchsorted(self.pp_n, [lo, hi + 1])
        pos = _segment_primes(lo, hi, self.base, self.wheel,
                              self.pp_n[i0:i1], self.scratch)
        lam = pos.astype(np.float64)
        np.log(lam, out=lam)
        if i1 > i0:
            lam[np.searchsorted(pos, self.pp_n[i0:i1])] = self.pp_l[i0:i1]
        return lo, hi, pos, lam

    def __iter__(self):
        starts = list(range(2, self.x_max + 1, SEGMENT))
        if self.threads == 1:
            for lo in starts:
                yield self._one(lo)
            return
        # here, not at the top: one thread, the default, never needs it
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=self.threads) as exe:
            # 8 segments (2^24 integers) in flight per worker: with 2, two
            # threads at 1e9 waited on the slowest segment more often
            window = 8 * self.threads
            futs = []
            idx = 0
            while idx < len(starts) or futs:
                while idx < len(starts) and len(futs) < window:
                    futs.append(exe.submit(self._one, starts[idx]))
                    idx += 1
                yield futs.pop(0).result()


def _split(terms: np.ndarray, total: float, out):
    """(hi, lo) with hi + lo == [total, *terms] exactly, for a non-negative
    total and terms; in out, a pair of arrays of len(terms) + 1.

    hi = (t + c) - c with c = 2^e, where total + max(terms) * len(terms)
    < 2^e, rounds each entry to the grid 2^(e - 52), the ulp of t + c in
    [2^e, 2^(e + 1)] (c = 1.5 * 2^e, as for signed terms, would put the
    entries from 2^(e - 1) up on the grid 2^(e - 51)); any partial sum of
    hi, in any order, is a multiple of that grid below 2^(e + 1) and so
    exact in double.  lo = t - hi is exact too and at most half a grid
    step (Rump, Ogita and Oishi, "Accurate floating-point summation I",
    2008).
    """
    top = total + float(terms.max(initial=0.0)) * terms.size
    c = math.ldexp(1.0, math.frexp(top)[1])
    hi, lo = out
    lo[0] = total
    lo[1:] = terms
    np.add(lo, c, out=hi)
    hi -= c
    lo -= hi
    return hi, lo


class _SegmentSum:
    """A running sum over the ascending sieve segments.

    The sum so far is carried as high + low: high on the grid of the last
    segment's _split, so exact, and low the sum of the split's low parts.
    Each segment splits [high, *terms] on the grid of the running total
    (_split), so high plus any partial sum of the segment's hi parts is
    exact, and adds the carried low to the first low part.  A prefix is
    the exact hi sum plus the low sum, which rounds once.  The low sum's
    own rounding errors are a tiny fraction of a grid step, so a prefix
    misses the correctly rounded sum only when the exact sum lies that
    close to a rounding boundary; the checkpoint and scan tests
    *_prefix_sums_correctly_rounded find it equal at every prime power of
    four segments.  Segments are summed in order, so every prefix is the
    same for any worker count and any set of queries.

    The terms fall in blocks of _BLOCK.  Each part's sum before a block is
    the sum before the segment plus the block sums before it, in order;
    within a block, running() adds the block's terms to it one at a time.
    A block sum is einsum's, whose order is fixed for a machine (it sums
    SIMD lanes, with no per-call overhead of a row-wise reduction): the hi
    parts sum exactly in any order, and the low sums' rounding stays far
    below a grid step.  prefix_at(k) reads the sum before k's block, or
    the running sum of its block, so a prefix is a function of k alone,
    whether a checkpoint, a scan's bound or its per-term values read it.

    The split parts and the running sums live in one _Scratch for the
    whole pass, which sums sharing it also use, so a segment's arrays,
    and what running() returns, are valid until the next segment() or
    running() call of any of them."""

    __slots__ = ("_high", "_low", "_parts", "_starts", "_scratch")

    def __init__(self, scratch: _Scratch):
        self._high, self._low = 0.0, 0.0
        self._scratch = scratch

    def segment(self, terms) -> None:
        """Start the next segment, then add its terms to the running sum."""
        n = terms.size
        size = -(-n // _BLOCK) * _BLOCK + 1    # the blocks, after the carry
        hi, lo = (self._scratch.take(name, size) for name in ("hi", "lo"))
        _split(terms, self._high, (hi[:n + 1], lo[:n + 1]))
        hi[n + 1:] = 0.0                       # the last block's tail
        lo[n + 1:] = 0.0
        lo[0] += self._low
        self._high = float(hi[:n + 1].sum())
        self._low = float(lo[:n + 1].sum())
        self._parts = hi, lo
        self._starts = None

    def _block_starts(self):
        """The hi and lo sums before each block of the segment, and after
        the last one."""
        if self._starts is None:
            self._starts = []
            for part in self._parts:
                starts = np.empty((part.size - 1) // _BLOCK + 1)
                starts[0] = part[0]
                np.einsum("ij->i", part[1:].reshape(-1, _BLOCK),
                          out=starts[1:])
                self._starts.append(np.cumsum(starts, out=starts))
        return self._starts

    def running(self, blocks: np.ndarray) -> np.ndarray:
        """The (len(blocks), _BLOCK) running sums through the first
        r = 1 ... _BLOCK terms of each of the ascending blocks; a term past
        the end of the segment is 0."""
        starts = self._block_starts()
        shape = (blocks.size, _BLOCK)
        hi, lo = (self._scratch.take(name, blocks.size * _BLOCK)
                  .reshape(shape) for name in ("run_hi", "run_lo"))
        for run, part, start in zip((hi, lo), self._parts, starts):
            np.take(part[1:].reshape(-1, _BLOCK), blocks, axis=0, out=run,
                    mode="clip")
            run[:, 0] += start[blocks]
            np.cumsum(run, axis=1, out=run)
        lo[:, -1] = starts[1][blocks + 1]   # as the next block starts
        hi += lo
        return hi

    def prefix_at(self, ks) -> np.ndarray:
        """The running sums through the first k terms of the segment, for
        each k of the ascending ks, 0 <= k <= len(terms) rounded up to a
        whole block."""
        ks = np.asarray(ks, dtype=np.int64)
        blocks, r = np.divmod(ks, _BLOCK)
        hi, lo = self._block_starts()
        out = hi[blocks] + lo[blocks]
        inner = np.flatnonzero(r)
        if inner.size:
            blocks = blocks[inner]
            first = np.empty(blocks.size, bool)   # of the ks in a block
            first[0] = True
            np.not_equal(blocks[1:], blocks[:-1], out=first[1:])
            out[inner] = self.running(blocks[first])[
                np.cumsum(first) - 1, r[inner] - 1]
        return out


def psi_checkpoints(xs, threads: int = 1, long_run: bool = False):
    """SieveCheckpoints at the ascending integer checkpoints xs, computed
    in one streaming pass that sums each segment once: a checkpoint reads
    the prefix sums of its segment, so its (psi, delta) does not depend on
    which other checkpoints are asked for."""
    xs = [int(x) for x in xs]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("checkpoints must be strictly ascending")
    if xs and xs[0] < 1:
        raise ValueError("checkpoints must be >= 1")
    if xs:
        check_x_max(xs[-1], long_run)
    threads = _check_threads(threads)
    out = []
    if not xs:
        return out
    # one split buffer: psi's prefixes are read before S's split takes it
    scratch = _Scratch()
    psi_run, s_run = _SegmentSum(scratch), _SegmentSum(scratch)
    # x = 1 lies before the first segment [2, ...] and reads its empty prefix
    for lo, hi, pos, lam in _SieveStream(max(xs[-1], 2), threads):
        here = xs[len(out):bisect.bisect_right(xs, hi)]
        ks = np.searchsorted(pos, here, side="right")
        psi_run.segment(lam)              # copies lam: it may be overwritten
        psis = psi_run.prefix_at(ks).tolist() if here else []
        s_run.segment(np.divide(lam, pos, out=lam))
        del pos, lam                      # freed before the next is sieved
        if here:
            for x, psi, s in zip(here, psis, s_run.prefix_at(ks).tolist()):
                out.append(SieveCheckpoint(
                    x, psi, s - (math.log(x) - EULER_GAMMA), s))
    return out


def _statistic_at(statistic: str, total: float, x) -> float:
    """The statistic at x from its running total: psi(x) for STAT_PSI, the
    sum of Lambda(n)/n over n <= x for STAT_LAMBDA_OVER_N."""
    if statistic == STAT_PSI:
        return (total - x) / math.sqrt(x)
    return (total - (math.log(x) - EULER_GAMMA)) * math.sqrt(x)


def _block_bounds(statistic: str, sums: np.ndarray, first: np.ndarray,
                  last: np.ndarray):
    """(above, below): no jump value of a block exceeds above, and no left
    limit falls below below, for the blocks with the running sums sums[b]
    before and sums[b + 1] after them and first and last positions first
    and last.

    Within a block the running sum and n only rise, so a jump's numerator
    is at most the block's end sum less the shift at its first n, and a
    left limit's at least its start sum less the shift at its last n; the
    root that keeps the bound on the safe side depends on the sign of that
    numerator.  _BOUND_ULPS ulps of the terms that are summed to it cover
    the rounding of each value and a prefix that misses the monotone,
    correctly rounded one by an ulp."""
    start, end = sums[:-1], sums[1:]
    if statistic == STAT_PSI:                  # (psi(n) - n) / sqrt(n)
        above = end - first
        above /= np.sqrt(np.where(above >= 0, first, last))
        below = start - last
        below /= np.sqrt(np.where(below >= 0, last, first))
        slack = (end + last) / np.sqrt(first)
    else:                  # (S(n) - (log n - gamma)) sqrt(n), log n > gamma
        shift_last = np.log(last) - EULER_GAMMA
        above = end - (np.log(first) - EULER_GAMMA)
        above *= np.sqrt(np.where(above >= 0, last, first))
        below = start - shift_last
        below *= np.sqrt(np.where(below >= 0, first, last))
        slack = (end + shift_last) * np.sqrt(last)
    slack *= _BOUND_ULPS * np.finfo(np.float64).eps
    return above + slack, below - slack


def _candidate_values(statistic: str, run: _SegmentSum, pos: np.ndarray,
                      cand: np.ndarray, scratch: _Scratch):
    """The statistic at the jumps and at the left limits of the terms of
    the ascending candidate blocks cand, in order, from the running sums
    of run and the positions pos, one row of _BLOCK per block (the last
    block's tail repeats its last n); in scratch."""
    shape = (cand.size, _BLOCK)
    right, left, x = (scratch.take(name, cand.size * _BLOCK).reshape(shape)
                      for name in ("right", "left", "x"))
    sums = run.running(cand)                    # through each term
    at = scratch.take("at", cand.size * _BLOCK, np.int64).reshape(shape)
    np.add.outer(cand * _BLOCK, np.arange(_BLOCK), out=at)
    np.copyto(x, pos.take(at, mode="clip"))
    if statistic == STAT_PSI:
        shift = x
    else:
        shift = np.log(x, out=left)             # left is overwritten last
        shift -= EULER_GAMMA
    np.subtract(sums, shift, out=right)
    # a left limit reads the sum before its jump: the one before it in the
    # row, or before its block for the first of a row
    first = shift[:, 0].copy()
    np.subtract(sums.reshape(-1)[:-1], shift.reshape(-1)[1:],
                out=left.reshape(-1)[1:])
    np.subtract(run.prefix_at(cand * _BLOCK), first, out=left[:, 0])
    sq = np.sqrt(x, out=x)
    if statistic == STAT_PSI:
        right /= sq
        left /= sq
    else:
        right *= sq
        left *= sq
    return right.reshape(-1), left.reshape(-1)


def _first_entry(cand: np.ndarray, i: int) -> int:
    """The entry, among the terms of the ascending blocks cand in order, of
    the first term from term i of the segment on."""
    b, r = divmod(i, _BLOCK)
    c = int(np.searchsorted(cand, b))
    return c * _BLOCK + (r if c < cand.size and cand[c] == b else 0)


def _term(cand: np.ndarray, entry: int) -> int:
    """The segment's term at an entry of the terms of the blocks cand."""
    return int(cand[entry // _BLOCK]) * _BLOCK + entry % _BLOCK


def check_x_max(x_max: int, long_run: bool = False) -> None:
    """Raise ValueError unless 1 <= x_max <= the ceiling, DESK_CEILING or
    with long_run HARD_CEILING: the range a pass may sieve."""
    if x_max > (HARD_CEILING if long_run else DESK_CEILING):
        raise ValueError("x_max beyond ceiling (pass long_run=True)")
    if x_max < 1:
        raise ValueError("x_max must be >= 1")


def extrema_scan(x_max: int, statistic: str, x_mins=(1,), threads: int = 1,
                 long_run: bool = False):
    """Running extrema of the chosen statistic over [x_min, x_max] for each
    requested x_min, evaluated at every jump x = n and left limit x = n^-.

    A segment computes per-term values only in its candidate blocks of
    _BLOCK prime powers: those whose bound (_block_bounds) reaches the
    lowest max or the highest min recorded so far for an x_min the segment
    reaches, and every block from an x_min on while it has no record yet.
    A segment below every x_min has none.  The first extremum of a slice
    that beats a record lies in a candidate block, and the candidates
    before it in that slice hold lesser values, so the reductions over the
    candidates in order give every record a scan of all terms gives.

    Returns {x_min: (max_record, min_record)}.
    """
    x_max = int(x_max)
    if statistic not in (STAT_PSI, STAT_LAMBDA_OVER_N):
        raise ValueError("unknown statistic")
    check_x_max(x_max, long_run)
    x_mins = sorted(int(v) for v in x_mins)
    if x_mins and x_mins[0] < 1:
        raise ValueError("x_min must be >= 1")
    if x_mins and x_mins[-1] > x_max:
        raise ValueError("x_min must be <= x_max")
    threads = _check_threads(threads)
    best = {v: [None, None] for v in x_mins}   # (max, min)

    def consider(v, x_at, left, val):
        mx, mn = best[v]
        if mx is None or val > mx.value:
            best[v][0] = ExtremaRecord(x_at, left, val, "max")
        if mn is None or val < best[v][1].value:
            best[v][1] = ExtremaRecord(x_at, left, val, "min")

    # one scratch: the sum's buffers and _candidate_values' have other names
    scratch = _Scratch()
    run = _SegmentSum(scratch)   # psi or sum Lambda/n, by the statistic
    for v in x_mins:
        if v < 2:      # segments start at 2; cover the x = 1 start point
            consider(v, v, False, _statistic_at(statistic, 0.0, v))
    for lo, hi, pos, lam in _SieveStream(x_max, threads):
        # lam is this scan's own: its terms can overwrite it
        run.segment(lam if statistic == STAT_PSI
                    else np.divide(lam, pos, out=lam))
        del lam                        # the split has copied its terms
        n = pos.size
        active = x_mins[:bisect.bisect_right(x_mins, hi)]
        if not active:
            del pos                    # freed before the next is sieved
            continue
        nb = -(-n // _BLOCK)
        # an x_min without a record reads every block from its own on; the
        # blocks before it are candidates if they can move a record
        new = [v for v in active if best[v][0] is None]
        bounded = int(np.searchsorted(pos, new[0])) // _BLOCK if new else nb
        records = [best[v] for v in active if best[v][0] is not None]
        heads = np.arange(bounded + 1) * _BLOCK   # each block's first term
        above, below = _block_bounds(
            statistic, run.prefix_at(heads), pos[heads[:-1]].astype(float),
            pos.take(heads[1:] - 1, mode="clip").astype(float))
        cand = np.flatnonzero(
            (above >= min((mx.value for mx, _ in records), default=math.inf))
            | (below <= max((mn.value for _, mn in records),
                            default=-math.inf)))
        cand = np.concatenate((cand, np.arange(bounded, nb)))
        # the candidates' terms in order, without the last block's tail
        size = cand.size * _BLOCK
        if cand.size and cand[-1] == nb - 1:
            size -= nb * _BLOCK - n
        # jump values count for x >= v; a left limit at x = n^- belongs to
        # [v, x_max] only for n > v: the entries where each slice starts
        slices = [(v, _first_entry(cand, int(np.searchsorted(pos, v))),
                   _first_entry(cand, int(np.searchsorted(pos, v, "right"))))
                  for v in active]
        # One reduction per side and chunk of _CHUNK candidate blocks, the
        # chunks in order; consider() keeps the first of equal values, so
        # the records are those of one reduction over the slice.  Each term
        # is positive and far above an ulp of the running sum, so the sum
        # rises at every jump, and both statistics rise with it at fixed
        # x: right[j] > left[j].  So a left limit never sets a max (the
        # chunk's jumps, considered first, hold a greater value), nor a
        # jump a min.  The one jump whose left limit is out of range, at
        # pos[i_r] = v, is no min either: both statistics fall between
        # jumps, so the next left limit or the end value at x_max lies
        # below it, and if v = x_max is the range's only point, the argmax
        # records it first.
        for c in range(0, cand.size, _CHUNK):
            right, left = _candidate_values(statistic, run, pos,
                                            cand[c:c + _CHUNK], scratch)
            e0 = c * _BLOCK                    # the chunk's first entry
            e1 = min(e0 + right.size, size)
            arg_max, arg_min = {}, {}  # slice start -> its argmax / argmin
            for v, p_r, p_l in slices:
                p = max(p_r, e0)
                if p < e1:
                    if p not in arg_max:
                        arg_max[p] = p + int(np.argmax(right[p - e0:e1 - e0]))
                    j = arg_max[p]
                    consider(v, int(pos[_term(cand, j)]), False,
                             float(right[j - e0]))
                p = max(p_l, e0)
                if p < e1:
                    if p not in arg_min:
                        arg_min[p] = p + int(np.argmin(left[p - e0:e1 - e0]))
                    j = arg_min[p]
                    consider(v, int(pos[_term(cand, j)]), True,
                             float(left[j - e0]))
        for v in active:
            if lo <= v:
                # statistic value at the range start x = v itself
                i_l = int(np.searchsorted(pos, v, side="right"))
                consider(v, v, False, _statistic_at(
                    statistic, float(run.prefix_at([i_l])[0]), v))
        del pos                        # freed before the next is sieved
    # endpoint candidate at x_max (statistic value just after the last
    # jump), from the prefix psi_checkpoints would read there
    end = float(run.prefix_at([n])[0]) if x_max >= 2 else 0.0
    for v in x_mins:
        consider(v, x_max, False, _statistic_at(statistic, end, x_max))
    return {v: tuple(best[v]) for v in x_mins}


def checkpoints_to_csv(cps) -> str:
    """Checkpoint CSV: header x,psi,delta; decimal; LF line endings."""
    lines = ["x,psi,delta\n"]
    for c in cps:
        lines.append(f"{c.x},{format_float17(c.psi)},"
                     f"{format_float17(c.delta)}\n")
    return "".join(lines)
