import math

import mpmath as mp
import numpy as np
import pytest

from zetabounds import zeros as zr
from zetabounds.special import log_deriv_zeta, zeta_batch_critical
from zetabounds.util import TWO_PI
from zetabounds.zeros import MissedZeroError, ZeroFileError, ZeroList


# ----------------------------------------------------------------------
# the finder
# ----------------------------------------------------------------------

def test_first_two_ordinates(zl_small):
    assert abs(zl_small.ordinates[0] - 14.134725) < 1e-6
    assert abs(zl_small.ordinates[1] - 21.022) < 1e-3


def test_count_to_100(zl_small):
    assert zl_small.count_below(100.0) == 29


def test_finder_soundness(zl_small):
    g = zl_small.ordinates
    vals = np.abs(zeta_batch_critical(g))
    assert vals.max() < 1e-6
    # a genuine sign change brackets every root
    tol = 2e-9
    lo = zr.hardy_z_batch(g - tol)
    hi = zr.hardy_z_batch(g + tol)
    assert np.all(np.sign(lo) * np.sign(hi) <= 0)


def test_empty_below_first_zero():
    zl = zr.find_zeros(5.0)
    assert len(zl) == 0
    assert zl.t_max == 5.0


def test_finder_domain_checks():
    with pytest.raises(ValueError):
        zr.find_zeros(3e4)
    with pytest.raises(ValueError):
        zr.find_zeros(100.0, tol=1e-12)


def test_zerolist_invariants():
    with pytest.raises(ZeroFileError):
        ZeroList(np.array([13.0]), 20.0)
    with pytest.raises(ValueError):
        ZeroList(np.array([14.134725, 14.134725]), 20.0)
    with pytest.raises(MissedZeroError):
        ZeroList(np.array([]), 100.0)   # cannot be complete to 100


def test_zerolist_holds_a_read_only_copy():
    g = np.array(zr.bundled_zeros().ordinates)
    zl = ZeroList(g, zr.bundled_zeros().t_max)
    with pytest.raises(ValueError):
        zl.ordinates[5] = 0.0
    g[5] = 0.0          # the caller's own array stays writable
    assert zl.ordinates[5] != 0.0


@pytest.mark.parametrize("i", [300, 1000, 1400])
def test_zerolist_rejects_three_missing_zeros(zl_med, i):
    g = np.delete(zl_med.ordinates, [i, i + 1, i + 2])
    with pytest.raises(MissedZeroError, match="near t"):
        ZeroList(g, zl_med.t_max)


# ----------------------------------------------------------------------
# Riemann-Siegel Z and the Illinois refiner, against independent references
# ----------------------------------------------------------------------

def rs_coefficient_table(degree, dps=30):
    """Taylor coefficients in z = p - 1/2, through z^degree, of the
    Riemann-Siegel corrections C_0 .. C_4 (as mpf), from mpmath.taylor of
    Psi(p) = cos 2pi(p^2 - p - 1/16) / cos 2pi p at p = 1/2."""
    with mp.workdps(dps):
        pi = mp.pi

        def psi(p):
            return mp.cos(2 * pi * (p * p - p - mp.mpf(1) / 16)) \
                / mp.cos(2 * pi * p)

        taylor = mp.taylor(psi, mp.mpf(1) / 2, degree + 12)

        def deriv(j):       # coefficients of Psi^(j)(1/2 + z)
            return [taylor[m + j] * mp.factorial(m + j) / mp.factorial(m)
                    for m in range(degree + 1)]

        combos = (
            ((0, 1),),
            ((3, -1 / (96 * pi ** 2)),),
            ((2, 1 / (64 * pi ** 2)), (6, 1 / (18432 * pi ** 4))),
            ((1, -1 / (64 * pi ** 2)), (5, -1 / (3840 * pi ** 4)),
             (9, -1 / (5308416 * pi ** 6))),
            ((0, 1 / (128 * pi ** 2)), (4, 19 / (24576 * pi ** 4)),
             (8, 11 / (5898240 * pi ** 6)),
             (12, 1 / (2038431744 * pi ** 8))),
        )
        table = []
        for combo in combos:
            row = [mp.mpf(0)] * (degree + 1)
            for j, w in combo:
                row = [r + w * d for r, d in zip(row, deriv(j))]
            table.append(row)
        return table


def test_rs_coefficients_regenerate():
    rows = zr._RS_COEFFS
    table = rs_coefficient_table(2 * len(rows[0]) + 1)
    a_min = math.sqrt(zr.T_RS / TWO_PI)
    for k, row in enumerate(rows):
        par = k % 2
        own, other = table[k][par::2], table[k][1 - par::2]
        assert tuple(float(c) for c in own[:len(row)]) == row
        # the other parity vanishes, and the first omitted term, at
        # |z| = 1/2 and scaled by a^-k as in the remainder, is negligible
        assert max(abs(c) for c in other) < 1e-20
        first_omitted = abs(own[len(row)]) * 0.5 ** (2 * len(row) + par)
        assert first_omitted * a_min ** -k < 2e-18


def test_riemann_siegel_against_mpmath():
    rng = np.random.default_rng(314)
    ts = np.concatenate([[zr.T_RS, 2.5e4], np.exp(
        rng.uniform(math.log(zr.T_RS), math.log(2.5e4), 24))])
    got = zr.hardy_z_batch(ts)
    with mp.workdps(25):
        want = np.array([float(mp.siegelz(float(t))) for t in ts])
    bound = 0.017 * ts ** -2.75 + 10 * 2.0 ** -52 * ts * np.log(ts)
    assert np.all(np.abs(got - want) <= bound)


def test_hardy_z_mixed_heights_match_each_path():
    # heights on both sides of T_RS, unsorted, come back in input order
    ts = np.array([2000.0, 150.0, zr.T_RS, 390.0, 20000.0])
    mixed = zr.hardy_z_batch(ts)
    alone = np.array([zr.hardy_z_batch(np.array([t]))[0] for t in ts])
    assert np.allclose(mixed, alone, rtol=0.0, atol=1e-11)


def test_ordinates_bracket_em_sign_changes():
    """Every ordinate lies within tol of a sign change of the
    Euler-Maclaurin Z, which shares no code with Riemann-Siegel."""
    tol = 1e-9
    zl = zr.find_zeros(2504.0, tol)
    assert len(zl) == mp.nzeros(2504)
    g = zl.ordinates

    def oracle(t):
        return (np.exp(1j * zr.hardy_theta(t)) * zeta_batch_critical(t)).real

    lo, hi = oracle(g - 1.1 * tol), oracle(g + 1.1 * tol)
    assert np.all(np.sign(lo) * np.sign(hi) < 0)


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

def test_round_trip(tmp_path, zl_small):
    p1 = tmp_path / "z1.txt"
    p2 = tmp_path / "z2.txt"
    zr.save_zeros(zl_small, str(p1))
    a = zr.load_zeros(str(p1))
    zr.save_zeros(a, str(p2))
    b = zr.load_zeros(str(p2))
    assert np.array_equal(a.ordinates, b.ordinates)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.max(np.abs(a.ordinates - zl_small.ordinates)) < 1e-9


def test_load_rejects_bad_first_zero(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("13.0\n")
    with pytest.raises(ZeroFileError):
        zr.load_zeros(str(p))


def test_load_reports_line_numbers(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("14.134725142\nnot-a-number\n")
    with pytest.raises(ZeroFileError, match=":2:"):
        zr.load_zeros(str(p))


def test_load_rejects_unsorted(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("14.134725142\n25.010857580\n21.022039639\n")
    with pytest.raises(ZeroFileError, match="ascending"):
        zr.load_zeros(str(p))


def test_bundled_fixture_matches_finder(zl_small):
    fx = zr.bundled_zeros()
    assert len(fx) == 100
    n = min(len(fx), len(zl_small))
    assert np.max(np.abs(fx.ordinates[:n]
                         - zl_small.ordinates[:n])) < 1e-6


# ----------------------------------------------------------------------
# counting statistics
# ----------------------------------------------------------------------

def test_count_and_q_below_first_zero(zl_small):
    st = zr.count_and_Q(zl_small, 10.0)
    assert st.N == 0
    expected = -(10.0 / TWO_PI * math.log(10.0 / (TWO_PI * math.e))
                 + 7.0 / 8.0)
    assert abs(st.Q - expected) < 1e-14


def test_count_height_guard(zl_small):
    with pytest.raises(ValueError):
        zr.count_and_Q(zl_small, 10_000.0)


# ----------------------------------------------------------------------
# monotone weighted sums
# ----------------------------------------------------------------------

def test_lehman_constant_weight(zl_small):
    exact, rhs_dec, _ = zr.lehman_sum(zl_small, lambda t: 1.0, 14.0, 30.0,
                                      "decreasing")
    assert exact == 3.0           # 14.13, 21.02, 25.01
    assert rhs_dec >= exact


def test_lehman_inverse_square(zl_small):
    exact, rhs_dec, _ = zr.lehman_sum(zl_small, lambda t: 1.0 / t ** 2,
                                      14.2, zl_small.t_max, "decreasing")
    assert 0 < exact <= rhs_dec


def test_lehman_empty_window(zl_small):
    exact, _, rhs_inc = zr.lehman_sum(zl_small, lambda t: t, 15.0, 16.0,
                                      "increasing")
    assert exact == 0.0
    assert rhs_inc >= 0.0


def test_lehman_direction_mismatch(zl_small):
    with pytest.raises(ValueError, match="not decreasing"):
        zr.lehman_sum(zl_small, lambda t: t, 15.0, 30.0, "decreasing")


def test_box_count_bound(zl_small):
    exact = (zl_small.count_below(101.0)
             - zl_small.count_below(np.nextafter(99.0, -np.inf)))
    assert exact <= zr.box_count_bound(100.0, 1.0)
    assert zl_small.count_below(25.0) - zl_small.count_below(15.0) >= 1
    assert zr.box_count_bound(20.0, 5.0) >= 1.0


# ----------------------------------------------------------------------
# inverse-square tail and the local expansion
# ----------------------------------------------------------------------

def test_inverse_square_tail_height_guard(zl_med):
    with pytest.raises(ValueError):
        zr.inverse_square_tail(zl_med, 14.0)   # remainder above 1e-6


def test_inverse_square_tail_values(zl_deep):
    zl = zl_deep
    val, rhs = zr.inverse_square_tail(zl, 14.0)
    assert val <= rhs
    g0 = float(zl.ordinates[0])
    v2, _ = zr.inverse_square_tail(zl, g0 + 1e-6)
    assert abs((val - v2) - 1.0 / g0 ** 2) < 1e-9
    v3, rhs3 = zr.inverse_square_tail(zl, 1000.0)
    assert v3 <= rhs3


def test_local_log_deriv_empty_window(zl_med):
    # pick a height with no zeros within 0.005
    g = zl_med.ordinates
    t = None
    for c in np.arange(1400.0, 1990.0, 0.013):
        if np.min(np.abs(g - c)) > 0.006:
            t = float(c)
            break
    assert t is not None
    s = complex(0.9, t)
    total, radius = zr.local_log_deriv(zl_med, s, 0.005, 1.5)
    assert total == 0j
    assert abs(log_deriv_zeta(s).value - total) <= radius


def test_local_log_deriv_guards(zl_med):
    with pytest.raises(ValueError):
        zr.local_log_deriv(zl_med, 0.4 + 500j, 1.0, 1.5)
    with pytest.raises(ValueError):
        zr.local_log_deriv(zl_med, 0.4 + 1500j, 1.0, 2.5)
