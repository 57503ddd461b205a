"""Segmented von Mangoldt sieve: psi(x), the sum of Lambda(n)/n, and
extrema scans of the normalised error terms.

Segments are independent work units of 2^21 consecutive integers: a
segment's mask (1 MB) and each of its arrays of about 110 000 terms fit
in a core's 2 MB L2 cache (2^20 was faster still on one thread, but
slower than 2^22 with two at 1e9).  A running sum is carried across
segments as an exact part on a power-of-two grid plus the sum of the
parts below that grid: each segment splits the carried exact part and
its own terms on one grid set by the running total, so every partial sum
of the grid parts is exact in double and only the sums of the half-step
remainders round.  Segments are summed in order, so results are
identical for any worker count, and every prefix is the correctly
rounded sum: of psi and of the sum of Lambda(n)/n at each of the
3 002 195 prime powers up to 5e7, as extrema_scan reads them, all equal
it.

A segment's mask holds its odd numbers only (2^20 entries) and starts as a
slice of a periodic wheel that has the multiples of 3, 5, 7, 11 and 13
struck already (Bays-Hudson segments with a Pritchard-style wheel); only
the base primes from 17 up are struck per segment.  The segment's odd
proper prime powers are then put back into the mask, so one flatnonzero
lists every odd prime power in order; only the powers of 2 are inserted.

A pass allocates its work arrays once and reuses them for every segment
(_Scratch): the mask, the split and prefix sums of _SegmentSum and the
per-term arrays of extrema_scan.  Freed and allocated again per segment,
arrays of this size go back to the kernel and are faulted in again: a
one-thread `sieve --x-max 1e9` took 123 800 minor page faults that way,
and takes 31 000 with them reused.  Only the positions and Lambda values
a segment hands on are new arrays.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass

import numpy as np

from .util import EULER_GAMMA

__all__ = [
    "SieveCheckpoint", "ExtremaRecord", "lambda_segment", "psi_checkpoints",
    "extrema_scan", "checkpoints_to_csv", "STAT_PSI", "STAT_LAMBDA_OVER_N",
]

SEGMENT = 1 << 21
_WHEEL = (3, 5, 7, 11, 13)    # presieved into every segment's mask
_WHEEL_PERIOD = 15015         # 3*5*7*11*13: the wheel's period in odd numbers
_BLOCK = 1 << 10              # terms per block of a segment's prefix sums
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
    statistic: str


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


_NO_POWERS = np.zeros(0, dtype=np.int64)


def _segment_primes(lo: int, hi: int, base: np.ndarray, wheel: np.ndarray,
                    powers: np.ndarray = _NO_POWERS,
                    scratch: _Scratch | None = None) -> np.ndarray:
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
    are not in the mask and are inserted.  The mask is scratch's, when
    given, so a pass sieves every segment in one array.
    """
    odd = lo | 1
    size = (hi - odd) // 2 + 1
    mask = (np.empty(size, dtype=bool) if scratch is None
            else scratch.take("mask", size, bool))
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


def lambda_segment(lo: int, hi: int):
    """(n, Lambda(n)) for the prime powers n in [lo, hi], ascending."""
    if not (2 <= lo <= hi):
        raise ValueError("need 2 <= lo <= hi")
    if hi > HARD_CEILING:
        raise ValueError("hi above supported ceiling")
    if hi - lo > 100_000_000:
        raise ValueError("segment too long; split the request")
    stream = _SieveStream(hi)
    parts = [stream._one(a) for a in range(lo, hi + 1, SEGMENT)]
    return (np.concatenate([pos for _, _, pos, _ in parts]),
            np.concatenate([lam for _, _, _, lam in parts]))


def _split(terms: np.ndarray, total: float, scratch: _Scratch | None = None):
    """(hi, lo) with hi + lo == [total, *terms] exactly, for a non-negative
    total and terms; in scratch's "hi" and "lo" arrays, when given.

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
    n = terms.size + 1
    lo = np.empty(n) if scratch is None else scratch.take("lo", n)
    lo[0] = total
    lo[1:] = terms
    hi = np.add(lo, c, out=None if scratch is None else scratch.take("hi", n))
    hi -= c
    lo -= hi
    return hi, lo


def _block_prefix(terms: np.ndarray) -> np.ndarray:
    """[0, sum of block 0, sum of blocks 0 and 1, ...] over the whole
    blocks of _BLOCK terms: block sums pairwise, then summed in order."""
    n = terms.size // _BLOCK
    out = np.zeros(n + 1)
    np.cumsum(terms[:n * _BLOCK].reshape(n, _BLOCK).sum(axis=1), out=out[1:])
    return out


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

    The split parts and the prefixes() cumsums live in one _Scratch for
    the whole pass, so a segment's arrays, and what prefixes() returns,
    are valid until the next segment() call."""

    __slots__ = ("_high", "_low", "_hi", "_lo", "_blocks", "_scratch")

    def __init__(self):
        self._high, self._low = 0.0, 0.0
        self._scratch = _Scratch()

    def segment(self, terms) -> None:
        """Start the next segment, then add its terms to the running sum."""
        self._hi, self._lo = _split(terms, self._high, self._scratch)
        self._lo[0] += self._low
        self._blocks = None
        self._high = float(self._hi.sum())
        self._low = float(self._lo.sum())

    def prefix(self, k: int) -> float:
        """The running sum through the first k terms of the segment, from
        the whole blocks before k and the terms after them: O(_BLOCK) per
        call, and a function of k alone."""
        if self._blocks is None:
            self._blocks = _block_prefix(self._hi), _block_prefix(self._lo)
        k += 1                   # entry 0 is the sum before the segment
        q = k // _BLOCK
        hi = self._blocks[0][q] + self._hi[q * _BLOCK:k].sum()
        lo = self._blocks[1][q] + self._lo[q * _BLOCK:k].sum()
        return float(hi + lo)

    def prefixes(self) -> np.ndarray:
        """The running sums through the first k terms of the segment, k = 0
        ... len(terms), by cumsum."""
        n = self._lo.size
        run = np.cumsum(self._lo, out=self._scratch.take("run", n))
        run += np.cumsum(self._hi, out=self._scratch.take("hi_run", n))
        return run


def psi_checkpoints(xs, threads: int = 1, long_run: bool = False):
    """SieveCheckpoints at the ascending integer checkpoints xs, computed
    in one streaming pass that sums each segment once: a checkpoint reads
    the prefix sums of its segment, so its (psi, delta) does not depend on
    which other checkpoints are asked for."""
    xs = [int(x) for x in xs]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("checkpoints must be strictly ascending")
    if xs and xs[-1] > (HARD_CEILING if long_run else DESK_CEILING):
        raise ValueError("checkpoint beyond ceiling (pass long_run=True "
                         "for up to 1e10)")
    if xs and xs[0] < 1:
        raise ValueError("checkpoints must be >= 1")
    threads = _check_threads(threads)
    out = []
    if not xs:
        return out
    psi_run, s_run = _SegmentSum(), _SegmentSum()
    # x = 1 lies before the first segment [2, ...] and reads its empty prefix
    for lo, hi, pos, lam in _SieveStream(max(xs[-1], 2), threads):
        psi_run.segment(lam)              # copies lam: it may be overwritten
        s_run.segment(np.divide(lam, pos, out=lam))
        here = xs[len(out):bisect.bisect_right(xs, hi)]
        for x, k in zip(here, np.searchsorted(pos, here, side="right")):
            psi, s = psi_run.prefix(k), s_run.prefix(k)
            out.append(SieveCheckpoint(
                x, psi, s - (math.log(x) - EULER_GAMMA), s))
    return out


def _statistic_at(statistic: str, total: float, x) -> float:
    """The statistic at x from its running total: psi(x) for STAT_PSI, the
    sum of Lambda(n)/n over n <= x for STAT_LAMBDA_OVER_N."""
    if statistic == STAT_PSI:
        return (total - x) / math.sqrt(x)
    return (total - (math.log(x) - EULER_GAMMA)) * math.sqrt(x)


def extrema_scan(x_max: int, statistic: str, x_mins=(1,), threads: int = 1,
                 long_run: bool = False):
    """Running extrema of the chosen statistic over [x_min, x_max] for each
    requested x_min, evaluated at every jump x = n and left limit x = n^-.

    Returns {x_min: (max_record, min_record)}.
    """
    x_max = int(x_max)
    if statistic not in (STAT_PSI, STAT_LAMBDA_OVER_N):
        raise ValueError("unknown statistic")
    if x_max > (HARD_CEILING if long_run else DESK_CEILING):
        raise ValueError("x_max beyond ceiling (pass long_run=True)")
    if x_max < 1:
        raise ValueError("x_max must be >= 1")
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
            best[v][0] = ExtremaRecord(x_at, left, val, "max", statistic)
        if mn is None or val < best[v][1].value:
            best[v][1] = ExtremaRecord(x_at, left, val, "min", statistic)

    run = _SegmentSum()   # psi or sum Lambda/n, depending on the statistic
    scratch = _Scratch()
    for v in x_mins:
        if v < 2:      # segments start at 2; cover the x = 1 start point
            consider(v, v, False, _statistic_at(statistic, 0.0, v))
    for lo, hi, pos, lam in _SieveStream(x_max, threads):
        n = pos.size
        posf = scratch.take("posf", n)
        posf[:] = pos
        # lam is this scan's own: its terms can overwrite it
        run.segment(lam if statistic == STAT_PSI
                    else np.divide(lam, posf, out=lam))
        sums = run.prefixes()    # a left limit reads the sum before its jump
        sq = np.sqrt(posf, out=scratch.take("sq", n))
        right = scratch.take("right", n)
        left = scratch.take("left", n)
        if statistic == STAT_PSI:
            np.subtract(sums[1:], posf, out=right)
            np.subtract(sums[:-1], posf, out=left)
            right /= sq
            left /= sq
        else:
            shift = np.log(posf, out=left)      # left is overwritten last
            shift -= EULER_GAMMA
            np.subtract(sums[1:], shift, out=right)
            np.subtract(sums[:-1], shift, out=left)
            right *= sq
            left *= sq
        # One reduction per side.  Each term is positive and far above an
        # ulp of the running sum, so the sum rises at every jump, and both
        # statistics rise with it at fixed x: right[j] > left[j].  So a
        # left limit never sets a max, nor a jump a min.  The one jump
        # whose left limit is out of range, at pos[i_r] = v, is no min
        # either: both statistics fall between jumps, so the next left
        # limit or the end value at x_max lies below it, and if v = x_max
        # is the range's only point, the argmax records it first.
        arg_max, arg_min = {}, {}    # slice start -> its argmax / argmin
        for v in x_mins:
            if v > hi:
                break
            # jump values count for x >= v; a left limit at x = n^-
            # belongs to [v, x_max] only for n > v
            i_r = int(np.searchsorted(pos, v))
            i_l = int(np.searchsorted(pos, v, side="right"))
            if i_r < n:
                if i_r not in arg_max:
                    arg_max[i_r] = i_r + int(np.argmax(right[i_r:]))
                j = arg_max[i_r]
                consider(v, int(pos[j]), False, float(right[j]))
            if i_l < n:
                if i_l not in arg_min:
                    arg_min[i_l] = i_l + int(np.argmin(left[i_l:]))
                j = arg_min[i_l]
                consider(v, int(pos[j]), True, float(left[j]))
            if lo <= v:
                # statistic value at the range start x = v itself
                consider(v, v, False,
                         _statistic_at(statistic, run.prefix(i_l), v))
    # endpoint candidate at x_max (statistic value just after the last
    # jump), from the prefix psi_checkpoints would read there
    end = run.prefix(pos.size) if x_max >= 2 else 0.0
    for v in x_mins:
        consider(v, x_max, False, _statistic_at(statistic, end, x_max))
    return {v: tuple(best[v]) for v in x_mins}


def checkpoints_to_csv(cps) -> str:
    """Checkpoint CSV: header x,psi,delta; decimal; LF line endings."""
    from .util import format_float17
    lines = ["x,psi,delta\n"]
    for c in cps:
        lines.append(f"{c.x},{format_float17(c.psi)},"
                     f"{format_float17(c.delta)}\n")
    return "".join(lines)
