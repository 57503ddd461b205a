import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from zetabounds import cli
from zetabounds import sieve as sv
from zetabounds.util import EULER_GAMMA


def _stream_window(lo, hi):
    """(n, Lambda(n)) for the prime powers n in [lo, hi], from the segments
    of a _SieveStream to hi started at lo."""
    stream = sv._SieveStream(hi)
    parts = [stream._one(a) for a in range(lo, hi + 1, sv.SEGMENT)]
    return (np.concatenate([pos for _, _, pos, _ in parts]),
            np.concatenate([lam for _, _, _, lam in parts]))


def test_stream_enumeration():
    ns, ls = _stream_window(2, 10)
    got = dict(zip(ns.tolist(), ls.tolist()))
    want = {2: math.log(2), 3: math.log(3), 4: math.log(2),
            5: math.log(5), 7: math.log(7), 8: math.log(2),
            9: math.log(3)}
    assert got == want


def test_stream_window():
    ns, _ = _stream_window(100, 110)
    assert ns.tolist() == [101, 103, 107, 109]


def test_segment_concatenation_consistency(prime_powers):
    # a pass gives the oracle's terms wherever its segments start: over
    # [2, 1e6] whole and over its windows of 1e5
    wins = [(2, 10 ** 6)] + [(a, min(a + 10 ** 5 - 1, 10 ** 6))
                             for a in range(2, 10 ** 6, 10 ** 5)]
    for lo, hi in wins:
        ns, ls = _stream_window(lo, hi)
        want_n, want_l = prime_powers.window(lo, hi)
        assert np.array_equal(ns, want_n), lo
        assert np.array_equal(ls, want_l), lo


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
    # prime powers beyond the first segment: powers of 2 (inserted, not in
    # the odd-only mask), of wheel primes, and of 17, the first struck base
    # prime; each as the window's end, start and inner entry
    wins += [w for n in (2 ** 22, 2 ** 23, 2 ** 24, 3 ** 14, 5 ** 10, 7 ** 8,
                         11 ** 7, 13 ** 6, 17 ** 6)
             for w in ((n - 1000, n), (n, n), (n, n + 1000),
                       (n - 1001, n + 1001))]
    # three segments, a power of 2 inside the second
    wins += [_THREE_SEGMENTS]
    return wins


_THREE_SEGMENTS = (2 ** 24 - sv.SEGMENT - 777, 2 ** 24 + 2 * sv.SEGMENT - 778)
# no proper prime powers: _segment_primes then lists the primes alone
_NO_POWERS = np.zeros(0, dtype=np.int64)


def test_segment_primes_edge_windows(prime_powers):
    wins = _edge_windows()
    base = sv._base_primes(math.isqrt(max(hi for _, hi in wins)))
    wheel = sv._wheel_pattern()
    primes = prime_powers.primes
    for lo, hi in wins:
        want_p = primes[np.searchsorted(primes, lo):
                        np.searchsorted(primes, hi, side="right")]
        assert np.array_equal(sv._segment_primes(lo, hi, base, wheel,
                                                 _NO_POWERS, sv._Scratch()),
                              want_p), (lo, hi)
        ns, ls = _stream_window(lo, hi)
        want_n, want_l = prime_powers.window(lo, hi)
        assert ns.dtype == np.int64 and ls.dtype == np.float64
        assert np.array_equal(ns, want_n), (lo, hi)
        assert np.array_equal(ls, want_l), (lo, hi)


def test_segment_primes_near_1e9_against_a_plain_sieve(prime_powers):
    # whole segments at the desk ceiling, struck by every base prime up to
    # sqrt(1e9)
    base = sv._base_primes(math.isqrt(10 ** 9) + 1)
    wheel = sv._wheel_pattern()
    for lo in (10 ** 9 - sv.SEGMENT + 1, 10 ** 9 - 3 * sv.SEGMENT // 2):
        hi = lo + sv.SEGMENT - 1
        assert np.array_equal(sv._segment_primes(lo, hi, base, wheel,
                                                 _NO_POWERS, sv._Scratch()),
                              prime_powers.primes_in(lo, hi)), lo


def test_psi_small_values():
    cps = sv.psi_checkpoints([1, 10])
    assert cps[0].psi == 0.0
    want = 3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7)
    assert abs(cps[1].psi - want) < 1e-12


def test_delta_at_one():
    c = sv.psi_checkpoints([1])[0]
    # the empty sum: delta = 0 - log 1 + gamma
    assert c.delta == EULER_GAMMA


def _delta_by_fsum(prime_powers, x):
    ns, ls = prime_powers.window(2, x)
    return math.fsum((ls / ns).tolist()) - math.log(x) + EULER_GAMMA


def test_delta_matches_direct_at_1e6(prime_powers):
    c = sv.psi_checkpoints([10 ** 6])[0]
    assert abs(c.delta - _delta_by_fsum(prime_powers, 10 ** 6)) <= 1e-13


def test_delta_invariant_bound(prime_powers):
    for c in sv.psi_checkpoints([2, 10, 10 ** 4, sv.SEGMENT + 1]):
        assert abs(c.delta - _delta_by_fsum(prime_powers, c.x)) <= 1e-13
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
    hi, lo = sv._split(terms, total,
                       (np.empty(terms.size + 1), np.empty(terms.size + 1)))
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


def test_checkpoint_prefix_sums_correctly_rounded(prime_powers):
    # four segments; each Lambda(n) >= log 2 is a multiple of 2^-53 and
    # each Lambda(n)/n >= 2^-25 one of 2^-77
    x_max = 3 * sv.SEGMENT + 1000
    ns, ls = prime_powers.window(2, x_max)
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


def test_scan_prefix_sums_correctly_rounded(prime_powers):
    # the running sums extrema_scan reads, at every jump and every left
    # limit of four segments
    x_max = 4 * sv.SEGMENT + 1
    ns, ls = prime_powers.window(2, x_max)
    refs = {sv.STAT_PSI: _rounded_prefix_sums(ls, 2 ** 53),
            sv.STAT_LAMBDA_OVER_N: _rounded_prefix_sums(ls / ns, 2 ** 77)}
    for stat, ref in refs.items():
        run, k = sv._SegmentSum(sv._Scratch()), 0
        for lo, hi, pos, lam in sv._SieveStream(x_max):
            run.segment(lam if stat == sv.STAT_PSI else lam / pos)
            sums = run.prefix_at(np.arange(pos.size + 1))
            assert sums.tolist() == ref[k:k + pos.size + 1], lo
            k += pos.size
        assert k == ns.size


def _statistic_arrays(stat, ns, sums):
    """The statistic at every jump and every left limit, in the arithmetic
    of extrema_scan, from the running sums through each term."""
    nf = ns.astype(np.float64)
    sq = np.sqrt(nf)
    if stat == sv.STAT_PSI:
        return (sums[1:] - nf) / sq, (sums[:-1] - nf) / sq
    shift = np.log(nf) - EULER_GAMMA
    return (sums[1:] - shift) * sq, (sums[:-1] - shift) * sq


# X is prime, so x_min = X is a range of one jump
_SCAN_X = 3 * sv.SEGMENT + 13
_SCAN_X_MINS = (1, 2, 4, 8, 9, 25, 27, 1024, sv.SEGMENT + 1, 3 ** 13,
                10_000, _SCAN_X)
# five segments, with x_min in each but the third; 7.2e6 has its max and
# min in the fifth segment, and 9.99e6 its max inside blocks that the other
# records would let the scan skip
_FIVE_X = 10 ** 7
_FIVE_X_MINS = (1, 2, 1024, 10_000, sv.SEGMENT + 1, 3 * sv.SEGMENT + 5,
                7_200_000, 9_990_000, _FIVE_X - 1, _FIVE_X)


def _scan_sums(prime_powers, x):
    """The prime powers up to x and the correctly rounded running sums of
    each statistic."""
    ns, ls = prime_powers.window(2, x)
    sums = {sv.STAT_PSI: _rounded_prefix_sums(ls, 2 ** 53),
            sv.STAT_LAMBDA_OVER_N: _rounded_prefix_sums(ls / ns, 2 ** 77)}
    return ns, {stat: np.array(s) for stat, s in sums.items()}


@pytest.fixture(scope="module")
def scan_reference(prime_powers):
    ns, sums = _scan_sums(prime_powers, _SCAN_X)
    assert ns[-1] == _SCAN_X
    return ns, sums


@pytest.fixture(scope="module")
def five_segment_reference(prime_powers):
    return _scan_sums(prime_powers, _FIVE_X)


def _assert_records(got, stat, x_max, x_mins, ns, sums):
    """got holds, for each x_min, the records of every jump and every left
    limit, each side reduced both ways, so a left-limit max or a jump min
    the scan skips would show."""
    right, left = _statistic_arrays(stat, ns, sums)
    for v in x_mins:
        i_r = int(np.searchsorted(ns, v))
        i_l = int(np.searchsorted(ns, v, side="right"))
        cands = []           # (x_at, left_limit, value), in scan order
        for vals, i, is_left in ((right, i_r, False), (left, i_l, True)):
            if i < vals.size:
                for j in (i + int(np.argmax(vals[i:])),
                          i + int(np.argmin(vals[i:]))):
                    cands.append((int(ns[j]), is_left, float(vals[j])))
        cands.append((v, False, sv._statistic_at(stat, sums[i_l], v)))
        cands.append((x_max, False,
                      sv._statistic_at(stat, sums[-1], x_max)))
        mx = mn = cands[0]
        for c in cands[1:]:
            mx = c if c[2] > mx[2] else mx
            mn = c if c[2] < mn[2] else mn
        got_mx, got_mn = got[v]
        assert (got_mx.x_at, got_mx.left_limit, got_mx.value) == mx, v
        assert (got_mn.x_at, got_mn.left_limit, got_mn.value) == mn, v


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("stat", [sv.STAT_PSI, sv.STAT_LAMBDA_OVER_N])
def test_scan_extrema_against_all_four_reductions(scan_reference, stat,
                                                   threads):
    ns, sums = scan_reference
    got = sv.extrema_scan(_SCAN_X, stat, _SCAN_X_MINS, threads=threads)
    _assert_records(got, stat, _SCAN_X, _SCAN_X_MINS, ns, sums[stat])


@pytest.mark.parametrize("block", [sv._BLOCK, 8])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("stat", [sv.STAT_PSI, sv.STAT_LAMBDA_OVER_N])
def test_scan_skips_blocks_and_keeps_every_record(five_segment_reference,
                                                  stat, threads, block,
                                                  monkeypatch):
    # the blocks whose bounds cannot reach a record get no per-term values,
    # and the records are those of every term; blocks of 8 have bounds
    # tight enough that a bound or threshold wrong by a little would show
    monkeypatch.setattr(sv, "_BLOCK", block)
    ns, sums = five_segment_reference
    given = [0]             # blocks given per-term values, over all chunks
    values, bounds = sv._candidate_values, sv._block_bounds

    def counted(statistic, run, pos, cand, scratch):
        given[0] += cand.size
        return values(statistic, run, pos, cand, scratch)

    def checked(statistic, run_sums, first, last):
        # each block is bounded from its own first and last n: consecutive
        # blocks, each of `block` prime powers but a segment's last one
        i, j = np.searchsorted(ns, first), np.searchsorted(ns, last)
        assert np.array_equal(ns[i], first) and np.array_equal(ns[j], last)
        assert np.all(j[:-1] - i[:-1] == block - 1)
        assert np.all(j[-1:] - i[-1:] < block) and np.all(i[1:] == j[:-1] + 1)
        return bounds(statistic, run_sums, first, last)

    monkeypatch.setattr(sv, "_candidate_values", counted)
    monkeypatch.setattr(sv, "_block_bounds", checked)
    got = sv.extrema_scan(_FIVE_X, stat, _FIVE_X_MINS, threads=threads)
    # every segment reaches x_min = 1: the blocks of all five
    edges = np.searchsorted(ns, np.arange(2, _FIVE_X + sv.SEGMENT,
                                          sv.SEGMENT))
    blocks = int(np.sum(-(-np.diff(edges) // block)))
    assert given[0] < 0.9 * blocks, (given[0], blocks)   # 13 % skipped of 64
    _assert_records(got, stat, _FIVE_X, _FIVE_X_MINS, ns, sums[stat])


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("stat", [sv.STAT_PSI, sv.STAT_LAMBDA_OVER_N])
def test_scan_records_do_not_depend_on_the_chunk(scan_reference, stat,
                                                 threads, chunk,
                                                 monkeypatch):
    # per-term values by chunks of one or three candidate blocks: a slice
    # starts, a record lies and equal values fall on either side of a
    # chunk's edge, and the first of them is still the record
    monkeypatch.setattr(sv, "_CHUNK", chunk)
    ns, sums = scan_reference
    got = sv.extrema_scan(_SCAN_X, stat, _SCAN_X_MINS, threads=threads)
    _assert_records(got, stat, _SCAN_X, _SCAN_X_MINS, ns, sums[stat])


def _peak_bytes(call):
    """The peak of the memory traced while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_passes_hold_few_segment_arrays(prime_powers):
    # a pass holds a bounded number of arrays the size of a segment's terms,
    # however many segments it sieves: here five, the first the largest
    x_max = 4 * sv.SEGMENT + 1
    array = 8 * prime_powers.window(2, sv.SEGMENT)[0].size
    for call in (lambda: sv.extrema_scan(x_max, sv.STAT_PSI),
                 lambda: sv.extrema_scan(x_max, sv.STAT_LAMBDA_OVER_N),
                 lambda: sv.psi_checkpoints([x_max])):
        peak = _peak_bytes(call)
        assert peak <= 6 * array, peak / array


@pytest.mark.parametrize("stat", [sv.STAT_PSI, sv.STAT_LAMBDA_OVER_N])
def test_block_bounds_hold_for_any_rising_sum(stat):
    # a block's jump values lie below its bound and its left limits above
    # it for any running sum up to its end sum (from its start sum) at any
    # n of the block: numerators of both signs and far from 0, where the
    # root taken at the wrong end of the block would show
    rng = np.random.default_rng(23)
    for _ in range(400):
        first = math.exp(rng.uniform(math.log(2.0), math.log(1e9)))
        last = first * (1.0 + 10.0 ** rng.uniform(-6.0, -1.0))
        if stat == sv.STAT_PSI:
            start = first * rng.uniform(0.0, 2.0)
            end = start + first * rng.uniform(0.0, 0.5)
        else:
            start = rng.uniform(0.0, 2.0 * math.log(last) + 10.0)
            end = start + rng.uniform(0.0, 20.0)
        above, below = sv._block_bounds(stat, np.array([start, end]),
                                        np.array([first]), np.array([last]))
        ns = np.linspace(first, last, 9)
        right, _ = _statistic_arrays(stat, ns, np.full(10, end))
        _, left = _statistic_arrays(stat, ns, np.full(10, start))
        assert above[0] >= right.max() and below[0] <= left.min(), \
            (first, last, start, end)


def test_paper_psi_minimum_bit_for_bit(prime_powers):
    # the paper's min of (psi(x) - x)/sqrt(x) on [1e4, ...], the left
    # limit at x = 36 917 099, from the correctly rounded psi(x - 1)
    x = 36_917_099
    mn = sv.extrema_scan(x + 1, sv.STAT_PSI, (10_000,))[10_000][1]
    assert (mn.x_at, mn.left_limit) == (x, True)
    psi = math.fsum(prime_powers.window(2, x - 1)[1].tolist())
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
    value, tol = cli.pinned("lambda_stat_min")
    assert abs(mn.value - value) < tol
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
    # the checkpoints' ceiling is check_x_max's, after their own checks
    with pytest.raises(ValueError, match="x_max beyond ceiling"):
        sv.psi_checkpoints([10, sv.DESK_CEILING + 1])
    with pytest.raises(ValueError, match="x_max beyond ceiling"):
        sv.psi_checkpoints([sv.HARD_CEILING + 1], long_run=True)
    with pytest.raises(ValueError, match="strictly ascending"):
        sv.psi_checkpoints([10, 10])
    with pytest.raises(ValueError, match="checkpoints must be >= 1"):
        sv.psi_checkpoints([0, 10])
    with pytest.raises(ValueError):
        sv.extrema_scan(10 ** 6, "nope")


def test_checkpoint_csv_format():
    cps = sv.psi_checkpoints([10, 100])
    text = sv.checkpoints_to_csv(cps)
    lines = text.split("\n")
    assert lines[0] == "x,psi,delta"
    assert lines[1].startswith("10,")
    assert "e" in lines[1]  # 17-significant-digit scientific strings
