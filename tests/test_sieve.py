import math

import numpy as np
import pytest

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
    a = sv.psi_checkpoints([10 ** 5, 10 ** 6], threads=1)
    b = sv.psi_checkpoints([10 ** 5, 10 ** 6], threads=3)
    assert [(c.x, c.psi, c.delta) for c in a] \
        == [(c.x, c.psi, c.delta) for c in b]
    ra = sv.extrema_scan(10 ** 6, sv.STAT_PSI, threads=1)
    rb = sv.extrema_scan(10 ** 6, sv.STAT_PSI, threads=3)
    assert ra == rb


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
