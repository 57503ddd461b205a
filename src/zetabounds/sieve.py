"""Segmented von Mangoldt sieve: psi(x), the cancellation-safe
sum of (Lambda(n) - 1)/n, and extrema scans of the normalised error terms.

Segments are independent 2^22-entry work units; per-segment partial sums
use extended precision, and cross-segment accumulation is compensated and
happens in segment order, so results are identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .util import EULER_GAMMA, KahanSum

__all__ = [
    "SieveCheckpoint", "ExtremaRecord", "lambda_segment", "psi_checkpoints",
    "extrema_scan", "checkpoints_to_csv", "STAT_PSI", "STAT_LAMBDA_OVER_N",
]

SEGMENT = 1 << 22
HARD_CEILING = 10_000_000_000
DESK_CEILING = 1_000_000_000
STAT_PSI = "psi"                      # (psi(x) - x)/sqrt(x)
STAT_LAMBDA_OVER_N = "lambda-over-n"  # sqrt(x) (sum Lambda/n - log x + gamma)


@dataclass(frozen=True)
class SieveCheckpoint:
    """psi and the shifted log-weighted sum at an integer checkpoint.

    delta approximates sum Lambda(n)/n - log x + gamma through the
    cancellation-safe accumulator 2 gamma + sum (Lambda(n)-1)/n plus the
    harmonic-number correction, so |delta - (sum - log x + gamma)| <= 1/x.
    """

    x: int
    psi: float
    delta: float


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


def _segment_primes(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """Primes in [lo, hi] via the precomputed base primes (hi <= max^2)."""
    size = hi - lo + 1
    mask = np.ones(size, dtype=bool)
    if lo <= 1:
        mask[:max(0, 2 - lo)] = False
    for p in base:
        p = int(p)
        if p * p > hi:
            break
        start = max(p * p, ((lo + p - 1) // p) * p)
        mask[start - lo::p] = False
    return np.flatnonzero(mask) + lo


class _SieveStream:
    """Iterate (lo, hi, positions, mangoldt) over ascending segments."""

    def __init__(self, x_max: int, threads: int = 1):
        self.x_max = int(x_max)
        root = int(math.isqrt(self.x_max)) + 1
        self.base = _base_primes(root)
        self.pp_n, self.pp_l = _prime_powers(self.x_max, self.base)
        self.threads = max(1, int(threads))

    def _one(self, lo: int):
        hi = min(lo + SEGMENT - 1, self.x_max)
        pr = _segment_primes(lo, hi, self.base)
        lp = np.log(pr.astype(np.float64))
        i0, i1 = np.searchsorted(self.pp_n, [lo, hi + 1])
        if i1 > i0:
            pos = np.concatenate([pr, self.pp_n[i0:i1]])
            lam = np.concatenate([lp, self.pp_l[i0:i1]])
            order = np.argsort(pos, kind="stable")
            pos, lam = pos[order], lam[order]
        else:
            pos, lam = pr, lp
        return lo, hi, pos, lam

    def __iter__(self):
        starts = list(range(2, self.x_max + 1, SEGMENT))
        if self.threads == 1:
            for lo in starts:
                yield self._one(lo)
            return
        with ThreadPoolExecutor(max_workers=self.threads) as exe:
            window = 2 * self.threads
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


def _harmonic_correction(m: int) -> float:
    """H_m - log m - gamma = 1/(2m) - 1/(12 m^2) + 1/(120 m^4) - ..."""
    return 1.0 / (2.0 * m) - 1.0 / (12.0 * m * m) + 1.0 / (120.0 * m ** 4)


def psi_checkpoints(xs, threads: int = 1, long_run: bool = False):
    """SieveCheckpoints at the ascending integer checkpoints xs, computed
    in one streaming pass with compensated accumulation."""
    xs = [int(x) for x in xs]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("checkpoints must be strictly ascending")
    if xs and xs[-1] > (HARD_CEILING if long_run else DESK_CEILING):
        raise ValueError("checkpoint beyond ceiling (pass long_run=True "
                         "for up to 1e10)")
    if xs and xs[0] < 1:
        raise ValueError("checkpoints must be >= 1")
    out = []
    pending = list(xs)
    if pending and pending[0] == 1:
        pending.pop(0)
        # psi(1) = 0; sum over n <= 1 of (Lambda-1)/n is -1
        out.append(SieveCheckpoint(
            x=1, psi=0.0,
            delta=2.0 * EULER_GAMMA - 1.0 + _harmonic_correction(1)))
    if not pending:
        return out
    psi_acc = KahanSum()
    dl_acc = KahanSum()        # sum of (Lambda(n) - 1)/n over n >= 2
    for lo, hi, pos, lam in _SieveStream(pending[-1], threads):
        ns = np.arange(lo, hi + 1, dtype=np.float64)
        while pending and pending[0] <= hi:
            x = pending.pop(0)
            k = int(np.searchsorted(pos, x, side="right"))
            psi_x = psi_acc.value() + float(
                np.sum(lam[:k], dtype=np.longdouble))
            part = (float(np.sum((lam[:k] / pos[:k]), dtype=np.longdouble))
                    - float(np.sum(1.0 / ns[:x - lo + 1],
                                   dtype=np.longdouble)))
            delta = (2.0 * EULER_GAMMA - 1.0  # the n = 1 term of -1/n
                     + dl_acc.value() + part + _harmonic_correction(x))
            out.append(SieveCheckpoint(x=x, psi=psi_x, delta=delta))
        psi_acc.add(float(np.sum(lam, dtype=np.longdouble)))
        dl_acc.add(float(np.sum(lam / pos, dtype=np.longdouble))
                   - float(np.sum(1.0 / ns, dtype=np.longdouble)))
        if not pending:
            break
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
    x_mins = sorted(int(v) for v in x_mins)
    best = {v: [None, None] for v in x_mins}   # (max, min)

    def consider(v, x_at, left, val):
        mx, mn = best[v]
        if mx is None or val > mx.value:
            best[v][0] = ExtremaRecord(x_at, left, val, "max", statistic)
        if mn is None or val < best[v][1].value:
            best[v][1] = ExtremaRecord(x_at, left, val, "min", statistic)

    run = KahanSum()   # psi or sum Lambda/n, depending on the statistic
    for v in x_mins:
        if v < 2:      # segments start at 2; cover the x = 1 start point
            consider(v, v, False, _statistic_at(statistic, 0.0, v))
    for lo, hi, pos, lam in _SieveStream(x_max, threads):
        posf = pos.astype(np.float64)
        contrib = (lam if statistic == STAT_PSI else lam / posf
                   ).astype(np.longdouble)
        cum = np.cumsum(contrib)
        right = np.asarray(run.value() + cum, dtype=np.float64)
        left = np.asarray(run.value() + (cum - contrib), dtype=np.float64)
        sq = np.sqrt(posf)
        if statistic == STAT_PSI:
            val_r, val_l = (right - posf) / sq, (left - posf) / sq
        else:
            shift = np.log(posf) - EULER_GAMMA
            val_r, val_l = (right - shift) * sq, (left - shift) * sq
        for v in x_mins:
            if v > hi:
                continue
            # jump values count for x >= v; a left limit at x = n^-
            # belongs to [v, x_max] only for n > v
            sel_r = pos >= v
            sel_l = pos > v
            if sel_r.any():
                i = int(np.argmax(np.where(sel_r, val_r, -np.inf)))
                consider(v, int(pos[i]), False, float(val_r[i]))
                i = int(np.argmin(np.where(sel_r, val_r, np.inf)))
                consider(v, int(pos[i]), False, float(val_r[i]))
            if sel_l.any():
                i = int(np.argmax(np.where(sel_l, val_l, -np.inf)))
                consider(v, int(pos[i]), True, float(val_l[i]))
                i = int(np.argmin(np.where(sel_l, val_l, np.inf)))
                consider(v, int(pos[i]), True, float(val_l[i]))
            if lo <= v <= hi:
                # statistic value at the range start x = v itself
                k = int(np.searchsorted(pos, v, side="right"))
                total = run.value() + (float(cum[k - 1]) if k else 0.0)
                consider(v, v, False, _statistic_at(statistic, total, v))
        run.add(float(cum[-1]) if lam.size else 0.0)
    # endpoint candidate at x_max (statistic value just after the last jump)
    for v in x_mins:
        consider(v, x_max, False, _statistic_at(statistic, run.value(), x_max))
    return {v: tuple(best[v]) for v in x_mins}


def checkpoints_to_csv(cps) -> str:
    """Checkpoint CSV: header x,psi,delta; decimal; LF line endings."""
    from .util import format_float17
    lines = ["x,psi,delta\n"]
    for c in cps:
        lines.append(f"{c.x},{format_float17(c.psi)},"
                     f"{format_float17(c.delta)}\n")
    return "".join(lines)
