import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from zetabounds import sieve as sv
from zetabounds.util import EULER_GAMMA


def test_lambda_segment_enumeration():
    ns, ls = sv.lambda_segment(2, 10)
    got = dict(zip(ns.tolist(), ls.tolist()))
    want = {2: math.log(2), 3: math.log(3), 4: math.log(2),
            5: math.log(5), 7: math.log(7), 8: math.log(2),
            9: math.log(3)}
    assert got == want


def test_lambda_segment_window():
    ns, _ = sv.lambda_segment(100, 110)
    assert ns.tolist() == [101, 103, 107, 109]


def test_segment_concatenation_consistency():
    full_n, full_l = sv.lambda_segment(2, 10 ** 6)
    parts = [sv.lambda_segment(a, min(a + 10 ** 5 - 1, 10 ** 6))
             for a in range(2, 10 ** 6, 10 ** 5)]
    cat_n = np.concatenate([p[0] for p in parts])
    cat_l = np.concatenate([p[1] for p in parts])
    assert np.array_equal(full_n, cat_n)
    assert np.array_equal(full_l, cat_l)


class _Reference:
    """(n, Lambda(n)) on a window from a plain sieve of [0, limit] and the
    powers of its primes up to sqrt(limit), with Lambda from math.log."""

    def __init__(self, limit):
        self.limit = limit
        self.is_p = np.ones(limit + 1, dtype=bool)
        self.is_p[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if self.is_p[p]:
                self.is_p[p * p::p] = False

    def window(self, lo, hi):
        assert hi <= self.limit
        primes = np.flatnonzero(self.is_p[lo:hi + 1]) + lo
        lam = {n: math.log(n) for n in primes.tolist()}
        for p in np.flatnonzero(self.is_p[:math.isqrt(hi) + 1]).tolist():
            pk = p * p
            while pk <= hi:
                if pk >= lo:
                    lam[pk] = math.log(p)
                pk *= p
        ns = sorted(lam)
        return ns, [lam[n] for n in ns]


def _edge_windows():
    wins = [(lo, hi) for lo in range(2, 41) for hi in (lo, lo + 1, 60)
            if hi >= lo]
    wins += [(1000, 2000), (1001, 2001), (1000, 2001), (1001, 2000)]
    # the wheel's phase restarts at n = 30030 k + 1
    wins += [(30030 * k + a, 30030 * k + b) for k in (1, 2, 3)
             for a, b in ((-1, 1), (-15, 15), (1, 2), (-1000, 1000))]
    # a window starting at p^2, for wheel and for struck base primes
    wins += [(p * p, p * p + d) for p in (3, 5, 7, 11, 13, 17, 19, 23, 97,
                                          1009, 2003) for d in (0, 2000)]
    # across SEGMENT, and longer than one segment (split at 3 + SEGMENT)
    wins += [(sv.SEGMENT - 3000, sv.SEGMENT + 3000), (3, sv.SEGMENT + 5000)]
    return wins


def test_lambda_segment_edge_windows():
    wins = _edge_windows()
    ref = _Reference(max(hi for _, hi in wins))
    for lo, hi in wins:
        ns, ls = sv.lambda_segment(lo, hi)
        want_n, want_l = ref.window(lo, hi)
        assert ns.dtype == np.int64 and ls.dtype == np.float64
        assert ns.tolist() == want_n, (lo, hi)
        np.testing.assert_allclose(ls, want_l, rtol=1e-15, atol=0)


def test_segment_primes_near_1e9_against_a_plain_sieve():
    # whole segments at the desk ceiling, struck by every base prime up to
    # sqrt(1e9)
    base = sv._base_primes(math.isqrt(10 ** 9) + 1)
    wheel = sv._wheel_pattern()
    for lo in (10 ** 9 - sv.SEGMENT + 1, 10 ** 9 - 3 * sv.SEGMENT // 2):
        hi = lo + sv.SEGMENT - 1
        is_p = np.ones(hi - lo + 1, dtype=bool)
        for p in base.tolist():
            is_p[max(p * p, -(-lo // p) * p) - lo::p] = False
        assert np.array_equal(sv._segment_primes(lo, hi, base, wheel),
                              np.flatnonzero(is_p) + lo), lo


def test_lambda_segment_guards():
    with pytest.raises(ValueError):
        sv.lambda_segment(10, 5)
    with pytest.raises(ValueError):
        sv.lambda_segment(2, 2 * 10 ** 8)


def test_psi_small_values():
    cps = sv.psi_checkpoints([1, 10])
    assert cps[0].psi == 0.0
    want = 3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7)
    assert abs(cps[1].psi - want) < 1e-12


def test_delta_at_one():
    c = sv.psi_checkpoints([1])[0]
    # the empty sum: delta = 0 - log 1 + gamma
    assert c.delta == EULER_GAMMA


def _delta_by_fsum(x):
    ns, ls = sv.lambda_segment(2, x)
    return math.fsum((ls / ns).tolist()) - math.log(x) + EULER_GAMMA


def test_delta_matches_direct_at_1e6():
    c = sv.psi_checkpoints([10 ** 6])[0]
    assert abs(c.delta - _delta_by_fsum(10 ** 6)) <= 1e-13


def test_delta_invariant_bound():
    for c in sv.psi_checkpoints([2, 10, 10 ** 4, sv.SEGMENT + 1]):
        assert abs(c.delta - _delta_by_fsum(c.x)) <= 1e-13
        # delta is formed from the sum the checkpoint carries
        assert c.delta == c.sum_lambda_over_n - (math.log(c.x)
                                                 - EULER_GAMMA)


def test_checkpoint_independent_of_the_others():
    rng = np.random.default_rng(8)
    inner = sorted((rng.choice(200_000, 200, replace=False) + 1).tolist())
    xs = inner + [sv.SEGMENT + 1, sv.SEGMENT + 2]   # across a boundary
    together = sv.psi_checkpoints(xs)
    alone = [sv.psi_checkpoints([x])[0] for x in xs]
    assert together == alone


def test_psi_monotone_and_chebyshev():
    xs = [10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7]
    cps = sv.psi_checkpoints(xs)
    psis = [c.psi for c in cps]
    assert all(b > a for a, b in zip(psis, psis[1:]))
    for c in cps:
        assert 0.9 * c.x < c.psi < 1.1 * c.x


def test_thread_count_determinism():
    # four segments, so the threads reorder their work
    x_max = 3 * sv.SEGMENT + 5
    xs = [10 ** 5, sv.SEGMENT + 1, 2 * sv.SEGMENT + 7, x_max]
    assert sv.psi_checkpoints(xs, threads=1) \
        == sv.psi_checkpoints(xs, threads=3)
    # x_min = 1 and 2 share the slice start of the jump values, 10^5 and
    # 10^5 + 1 (neither a prime power) both slice starts; past its own
    # segment every x_min starts its slices at 0
    x_mins = (1, 2, 10 ** 5, 10 ** 5 + 1, sv.SEGMENT)
    for stat in (sv.STAT_PSI, sv.STAT_LAMBDA_OVER_N):
        ra = sv.extrema_scan(x_max, stat, x_mins, threads=1)
        assert ra == sv.extrema_scan(x_max, stat, x_mins, threads=3)
    # a shared argmax/argmin serves each x_min as a scan of its own would
    for v in (2, 10 ** 5 + 1):
        assert sv.extrema_scan(x_max, sv.STAT_LAMBDA_OVER_N, (v,))[v] == ra[v]


_SPLIT_TERMS = hnp.arrays(
    np.float64, st.integers(0, 64),
    elements=st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False))


@given(_SPLIT_TERMS, st.floats(0.0, 1e300))
@example(np.zeros(0), 0.0)
@example(np.zeros(7), 0.0)
@example(np.zeros(3), 1e-300)
@example(np.array([1e300]), 0.0)
@example(np.array([1e300, 1.0, 5e-324, 0.0]), 0.0)
@example(np.array([2.0 ** 51 - 0.5]), 0.0)     # a term above max * len / 2
@example(np.array([1.0, 0.25]), 2.0 ** 52 - 1)  # total just below 2^e
@example(np.array([1.0, 3.0]), 0.1)             # total off the terms' grid
def test_split_is_exact(terms, total):
    hi, lo = sv._split(terms, total)
    assert np.array_equal(hi + lo, np.append(total, terms))
    # hi lies on the grid 2^(e - 52), total + max(terms) len(terms) < 2^e,
    # and lo within half a step of 0; so any partial sum of hi is exact
    e = math.frexp(total + float(terms.max(initial=0.0)) * terms.size)[1]
    step = math.ldexp(1.0, max(e - 52, -1074))
    assert np.all(np.fmod(hi, step) == 0)
    assert np.all(np.abs(lo) <= step / 2)
    exact = math.fsum(hi.tolist())
    assert hi.sum() == exact and hi[::-1].sum() == exact
    # and so is the running sum, one term at a time, either way round
    for order in (hi, hi[::-1]):
        assert np.cumsum(order)[-1] == exact


def _rounded_prefix_sums(terms, scale):
    """The correctly rounded sums of terms[:k], k = 0 ... len(terms), of
    terms that are integer multiples of 1/scale, summed in Python ints."""
    scaled = terms * float(scale)
    assert np.array_equal(scaled, np.floor(scaled))
    sums = itertools.accumulate((int(v) for v in scaled.tolist()), initial=0)
    return [s / scale for s in sums]


def test_checkpoint_prefix_sums_correctly_rounded():
    # four segments; each Lambda(n) >= log 2 is a multiple of 2^-53 and
    # each Lambda(n)/n >= 2^-25 one of 2^-77
    x_max = 3 * sv.SEGMENT + 1000
    ns, ls = sv.lambda_segment(2, x_max)
    psi_ref = _rounded_prefix_sums(ls, 2 ** 53)
    s_ref = _rounded_prefix_sums(ls / ns, 2 ** 77)
    rng = np.random.default_rng(11)
    xs = sorted(set(rng.integers(1, x_max + 1, 2500).tolist())
                | {1, 2, sv.SEGMENT + 1, sv.SEGMENT + 2, x_max}
                | {b + d for b in range(sv.SEGMENT + 1, x_max, sv.SEGMENT)
                   for d in (-1, 0, 1)})
    assert len(xs) >= 2000
    cps = sv.psi_checkpoints(xs)
    for c, k in zip(cps, np.searchsorted(ns, xs, side="right").tolist()):
        assert c.psi == psi_ref[k], c.x
        assert c.sum_lambda_over_n == s_ref[k], c.x


def test_scan_prefix_sums_correctly_rounded():
    # the running sums extrema_scan reads, at every jump and every left
    # limit of four segments
    x_max = 4 * sv.SEGMENT + 1
    ns, ls = sv.lambda_segment(2, x_max)
    refs = {sv.STAT_PSI: _rounded_prefix_sums(ls, 2 ** 53),
            sv.STAT_LAMBDA_OVER_N: _rounded_prefix_sums(ls / ns, 2 ** 77)}
    for stat, ref in refs.items():
        run, k = sv._SegmentSum(), 0
        for lo, hi, pos, lam in sv._SieveStream(x_max):
            run.segment(lam if stat == sv.STAT_PSI else lam / pos)
            assert run.prefixes().tolist() == ref[k:k + pos.size + 1], lo
            k += pos.size
        assert k == ns.size


def test_paper_psi_minimum_bit_for_bit():
    # the paper's min of (psi(x) - x)/sqrt(x) on [1e4, ...], the left
    # limit at x = 36 917 099, from the correctly rounded psi(x - 1)
    x = 36_917_099
    mn = sv.extrema_scan(x + 1, sv.STAT_PSI, (10_000,))[10_000][1]
    assert (mn.x_at, mn.left_limit) == (x, True)
    psi = math.fsum(sv.lambda_segment(2, x - 1)[1].tolist())
    assert mn.value == (psi - x) / math.sqrt(x) == -0.7509024438274304


@pytest.mark.parametrize("stat", [sv.STAT_PSI, sv.STAT_LAMBDA_OVER_N])
def test_one_point_range_reads_the_checkpoint(stat):
    # the start value at x_min, the jump at x and the end value at x_max
    # all read the running sum psi_checkpoints gives at x
    x = 9_000_007
    c = sv.psi_checkpoints([x])[0]
    want = (c.psi - x) / math.sqrt(x) if stat == sv.STAT_PSI \
        else c.delta * math.sqrt(x)
    mx, mn = sv.extrema_scan(x, stat, (x,))[x]
    assert mx.value == mn.value == want


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_are_an_error(threads):
    with pytest.raises(ValueError, match="threads must be >= 1"):
        sv.psi_checkpoints([10, 50], threads=threads)
    with pytest.raises(ValueError, match="threads must be >= 1"):
        sv.psi_checkpoints([], threads=threads)
    with pytest.raises(ValueError, match="threads must be >= 1"):
        sv.extrema_scan(100, sv.STAT_PSI, threads=threads)


def test_extrema_left_limit_at_two():
    res = sv.extrema_scan(10 ** 5, sv.STAT_PSI)
    _, mn = res[1]
    assert mn.x_at == 2 and mn.left_limit
    assert abs(mn.value - (-math.sqrt(2.0))) < 1e-15


def test_extrema_lambda_statistic_small():
    res = sv.extrema_scan(10 ** 6, sv.STAT_LAMBDA_OVER_N)
    mx, mn = res[1]
    assert abs(mn.value - (-0.7585825520)) < 1e-7
    assert mn.x_at == 1423 and mn.left_limit
    # the start point x = 1 gives the maximum sqrt(1) * gamma
    assert mx.value >= EULER_GAMMA - 1e-15


def test_extrema_restricted_range():
    res = sv.extrema_scan(10 ** 6, sv.STAT_PSI, x_mins=(1, 10 ** 4))
    full_min = res[1][1]
    cut_min = res[10 ** 4][1]
    assert full_min.value <= cut_min.value
    assert cut_min.x_at >= 10 ** 4


def test_ceiling_guards():
    with pytest.raises(ValueError):
        sv.extrema_scan(2 * 10 ** 9, sv.STAT_PSI)
    with pytest.raises(ValueError):
        sv.psi_checkpoints([2 * 10 ** 9])
    with pytest.raises(ValueError):
        sv.extrema_scan(10 ** 6, "nope")


def test_checkpoint_csv_format():
    cps = sv.psi_checkpoints([10, 100])
    text = sv.checkpoints_to_csv(cps)
    lines = text.split("\n")
    assert lines[0] == "x,psi,delta"
    assert lines[1].startswith("10,")
    assert "e" in lines[1]  # 17-significant-digit scientific strings
