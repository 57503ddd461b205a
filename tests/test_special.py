import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetabounds import cli
from zetabounds import special as sp
from zetabounds.util import EULER_GAMMA, PoleError, PrecisionError

# ----------------------------------------------------------------------
# zeta_em
# ----------------------------------------------------------------------

def test_zeta_at_two_is_pi_squared_over_six():
    got = sp.zeta_em(2.0, 1e-13)
    assert abs(got.value - math.pi ** 2 / 6.0) <= got.abs_error + 1e-15


def test_zeta_log_derivative_at_three_halves():
    value, tol = cli.pinned("zeta'/zeta(3/2)")
    ld = sp.log_deriv_zeta(1.5)
    assert abs(ld.value.real - value) < tol
    assert abs(ld.value.imag) < 1e-12


def test_zeta_vanishes_at_first_zero():
    got = sp.zeta_em(0.5 + 14.134725j, 1e-9)
    assert abs(got.value) < 1e-4


@mp.workdps(30)
def test_zeta_error_claims_hold_against_mpmath():
    pts = [2.0 + 0j, 0.5 + 14.134725j, -1.0 + 0j, 0.5 + 1000j,
           0.25 + 5j, -0.5 + 2j, -1.9 + 0.3j, 0.5 + 24999j]
    for s in pts:
        got = sp.zeta_em(s, 1e-8)
        ref = complex(mp.zeta(s))
        assert abs(got.value - ref) <= got.abs_error


@mp.workdps(30)
def test_zeta_error_claims_hold_off_the_real_axis():
    """At seeded s with Re s in [-1.9, 3] and 0.5 <= |Im s| <= 60, zeta_em
    at 1e-10 (or, where that is unattainable, at 1e-8) is within its
    abs_error of mpmath: the rounding term counts the phase rounding of
    each n^(-i Im s) with the weight |n^-s| of its term."""
    rng = np.random.default_rng(39)
    for _ in range(300):
        s = complex(rng.uniform(-1.9, 3.0),
                    rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 60.0))
        try:
            got = sp.zeta_em(s, 1e-10)
        except PrecisionError:
            got = sp.zeta_em(s, 1e-8)
        assert abs(got.value - complex(mp.zeta(s))) <= got.abs_error, s


@mp.workdps(30)
def test_zeta_derivatives_against_mpmath():
    for s in (1.5 + 0j, -1.0 + 0j, 2.0 + 3j):
        for order in (1, 2):
            got = sp.zeta_em_deriv(s, order, 1e-8)
            ref = complex(mp.zeta(s, derivative=order))
            assert abs(got.value - ref) <= got.abs_error


def test_zeta_pole_and_domain_errors():
    with pytest.raises(PoleError):
        sp.zeta_em(1.0 + 0j)
    with pytest.raises(ValueError):
        sp.zeta_em(0.5 + 2e5j)
    with pytest.raises(PrecisionError):
        sp.zeta_em(-1.0 + 0j, 1e-18)


@pytest.mark.parametrize("N", [1, 2, 5, 8, 9, 30, 31, 41, 97, 128, 161,
                               1000])
def test_factor_plan_builds_each_n_once_from_earlier_rows(N):
    n, log_p, amp_p, levels = sp._factor_plan(N)
    assert n[0] == 1 and sorted(n.tolist()) == list(range(1, N + 1))
    primes = [k for k in range(2, N + 1)
              if all(k % d for d in range(2, math.isqrt(k) + 1))]
    assert n[1:1 + log_p.size].tolist() == primes
    assert np.array_equal(log_p, np.log(primes))
    assert np.array_equal(amp_p, np.array(primes, dtype=float) ** -0.5)
    # the levels, in the order they are filled, tile the composite rows
    # once, each row the product of a prime row and a row filled earlier,
    # and a level's runs of one prime tile its rows
    filled = 1 + len(primes)
    for start, stop, b_rows, p_runs in levels:
        assert start == filled and stop > start
        assert b_rows.size == stop - start and np.all(b_rows < start)
        los, his, _ = zip(*p_runs)
        assert los == (0,) + his[:-1] and his[-1] == stop - start
        for lo, hi, p in p_runs:
            assert 1 <= p <= len(primes) and hi > lo
            assert np.array_equal(n[start + lo:start + hi],
                                  n[p] * n[b_rows[lo:hi]])
        filled = stop
    assert filled == N


def _dirichlet_table_errors(rng, lo, hi, m, N):
    """(n, t, |table - n^(-1/2 - i t)|) of a _dirichlet_table at m seeded
    heights in [lo, hi] and N rows (the N of their block if None), one
    column per height, against mpmath."""
    tt = np.sort(rng.uniform(lo, hi, m))
    N = N or sp._em_length(complex(0.5, tt[-1]))
    plan = sp._factor_plan(N)
    table = sp._dirichlet_table(tt, plan)
    assert table.shape == (N, m)
    logs = [mp.log(int(k)) for k in plan[0]]
    want = np.array([[complex(mp.exp(-(0.5 + 1j * mp.mpf(t)) * lg))
                      for t in tt] for lg in logs])
    return plan[0][:, None], tt, np.abs(table - want)


# seeded heights and the N of their block, and N = 1, 2, 5, 8 and 9
DIRICHLET_CASES = ((10.0, 400.0, 12, None), (390.0, 400.0, 8, None),
                   (10.0, 60.0, 8, None), (-40.0, 400.0, 6, 1),
                   (-40.0, 400.0, 6, 2), (-40.0, 400.0, 6, 5),
                   (-40.0, 400.0, 6, 8), (-40.0, 400.0, 6, 9))


@mp.workdps(30)
def test_dirichlet_table_against_mpmath():
    """Every entry is n^(-1/2 - i t) to within 2 units of
    n^(-1/2) 2^-52 (t log n + 1), the rounding of the phase t log n (the
    largest seen was 0.79), on DIRICHLET_CASES."""
    rng = np.random.default_rng(1901)
    for case in DIRICHLET_CASES:
        n, tt, err = _dirichlet_table_errors(rng, *case)
        unit = n ** -0.5 * 2.0 ** -52 * (np.abs(tt) * np.log(n) + 1.0)
        assert np.all(err <= 2.0 * unit)


@mp.workdps(30)
def test_dirichlet_table_within_its_stated_budget():
    """Every entry is within n^(-1/2) 2^-52 (|t| log n + 6 Omega(n)), the
    budget _dirichlet_table states, also at |t| <= 1, where the roundings
    of the cosines and sines (special.TRIG_ERROR a prime factor) and of
    the products outweigh the phase's: on DIRICHLET_CASES and at 12
    heights in [-1, 1] with N = 512 (up to nine prime factors).  The
    largest use of the budget was 0.78, and 0.33 at |t| <= 1."""
    rng = np.random.default_rng(1901)
    for case in DIRICHLET_CASES + ((-1.0, 1.0, 12, 512),):
        n, tt, err = _dirichlet_table_errors(rng, *case)
        omega = np.array([_big_omega(int(k)) for k in n[:, 0]])[:, None]
        budget = n ** -0.5 * 2.0 ** -52 * (np.abs(tt) * np.log(n)
                                           + 6.0 * omega)
        assert np.all(err <= budget)


def _big_omega(n):
    """Omega(n), the number of prime factors of n counted with
    multiplicity, by trial division."""
    count, p = 0, 2
    while p * p <= n:
        while n % p == 0:
            n, count = n // p, count + 1
        p += 1
    return count + (n > 1)


def test_log_deriv_tends_to_zero_on_the_right():
    assert abs(sp.log_deriv_zeta(40.0).value) < 1e-11


def test_log_deriv_near_zero_raises():
    with pytest.raises(PoleError):
        sp.log_deriv_zeta(0.5 + 14.134725141734694j)


def test_atilde_at_minus_one():
    value, tol = cli.pinned("Atilde(-1)")
    atilde = -sp.log_deriv_zeta(-1.0).value.real + 0.5
    assert abs(atilde - value) < tol


# ----------------------------------------------------------------------
# digamma / gamma
# ----------------------------------------------------------------------

def test_digamma_classics():
    assert abs(sp.digamma(1.0).value.real + EULER_GAMMA) < 1e-13
    assert abs(sp.digamma(2.0).value.real - (1.0 - EULER_GAMMA)) < 1e-13


def test_digamma_recurrence_and_pole():
    z = 0.7 + 2.3j
    lhs = sp.digamma(z + 1.0).value
    rhs = sp.digamma(z).value + 1.0 / z
    assert abs(lhs - rhs) < 1e-12
    with pytest.raises(PoleError):
        sp.digamma(-3.0)


@mp.workdps(30)
def test_gamma_and_trigamma_against_mpmath():
    for z in (0.5 + 3j, 2.7 - 1.2j, -1.3 + 0.4j):
        assert abs(sp.gamma_abs(z).value.real
                   - abs(complex(mp.gamma(z)))) < 1e-10
        assert abs(sp.trigamma(z).value
                   - complex(mp.polygamma(1, z))) < 1e-10


@mp.workdps(30)
def test_gamma_abs_within_its_budget_against_mpmath():
    """|Gamma| at 2 000 seeded z with Re z in [-8, 10] and |Im z| <= 12,
    half of them through the reflection, and beside the poles 0 ... -7."""
    rng = np.random.default_rng(40)
    zs = [complex(x, y) for x, y in zip(rng.uniform(-8.0, 10.0, 2000),
                                        rng.uniform(-12.0, 12.0, 2000))]
    zs += [complex(-k + d, y) for k in range(8)
           for d in (1e-9, -1e-7, 1e-4, -0.3) for y in (0.0, 1e-8, 1e-3)]
    assert sum(z.real < 0.5 for z in zs) >= 1000
    for z in zs:
        got = sp.gamma_abs(z)
        ref = float(abs(mp.gamma(mp.mpc(z.real, z.imag))))
        assert abs(got.value - ref) <= got.abs_error, z
    with pytest.raises(PoleError):
        sp.gamma_abs(-3.0)


# ----------------------------------------------------------------------
# cot / coth
# ----------------------------------------------------------------------

def test_cot_at_half():
    assert abs(sp.cot_stable(math.pi / 2.0)) < 1e-15


def test_coth_reference_value():
    value, tol = cli.pinned("coth(pi/2)")
    assert abs(sp.coth_stable(math.pi / 2.0).real - value) < tol


def test_coth_elementary_upper_bound():
    for y in np.linspace(1e-3, 3.0, 200):
        assert sp.coth_stable(y).real <= 1.0 / y + y / 3.0 + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0))
@example(3.140394665644159, 0.0)   # 1.2e-3 below pi: needs pi beyond double
def test_cot_matches_ratio_off_poles(x, y):
    z = complex(x, y)
    if abs(cmath.sin(z)) < 1e-3:
        return
    assert abs(sp.cot_stable(z)
               - cmath.cos(z) / cmath.sin(z)) < 1e-11 * (1 + abs(z))


@mp.workdps(30)
def test_near_pole_laurent_accuracy():
    z = 3 * math.pi + 0.05
    assert abs(sp.cot_stable(z) - complex(mp.cot(z))) < 1e-12
    w = complex(0.03, math.pi + 0.02)
    assert abs(sp.coth_stable(w) - complex(mp.coth(w))) < 1e-12
    with pytest.raises(PoleError):
        sp.coth_stable(0.0)


# |w| where a caller of one_minus_x_cot_x switches to or from it: cot and
# coth near a pole, omega^+ near theta = 0, F_and_A near z = 0
SERIES_SWITCHES = (0.1, 0.03 * math.pi, 0.7 * math.pi)
DIRECTIONS = (1.0, 1j, -1.0, cmath.exp(0.25j * math.pi), cmath.exp(2.0j))


@pytest.mark.parametrize("radius", SERIES_SWITCHES)
def test_one_minus_x_cot_x_against_mpmath(radius):
    ws = [radius * f * d for f in (0.999, 1.001) for d in DIRECTIONS]
    batch = sp.one_minus_x_cot_x(np.array(ws))
    with mp.workdps(40):
        for w, got_batch in zip(ws, batch):
            ref = complex(1 - mp.mpc(w) * mp.cot(mp.mpc(w)))
            assert abs(sp.one_minus_x_cot_x(w) - ref) <= 1e-15 * abs(ref)
            assert abs(got_batch - ref) <= 1e-15 * abs(ref)


def test_one_minus_x_cot_x_small_and_out_of_range():
    assert sp.one_minus_x_cot_x(0.0) == 0.0
    # 1 - w cot w = w^2/3 + w^4/45 + ...
    assert abs(sp.one_minus_x_cot_x(1e-9) - 1e-18 / 3.0) <= 1e-15 * 1e-18
    with pytest.raises(ValueError):
        sp.one_minus_x_cot_x(0.76 * math.pi)
    with pytest.raises(ValueError):
        sp.one_minus_x_cot_x(np.array([0.1, 2.4j]))


@pytest.mark.parametrize("k", [0, 3])
@mp.workdps(30)
def test_cot_coth_on_both_sides_of_the_pole_switch(k):
    for w in (0.1 * f * d for f in (0.999, 1.001) for d in DIRECTIONS):
        z = k * math.pi + w
        ref = complex(mp.cot(mp.mpc(z)))
        assert abs(sp.cot_stable(z) - ref) <= 1e-15 * abs(ref)
        z = w + 1j * k * math.pi
        ref = complex(mp.coth(mp.mpc(z)))
        assert abs(sp.coth_stable(z) - ref) <= 1e-15 * abs(ref)


# points on every branch of coth_stable: within 0.1 of a pole i k pi,
# |Re z| > 20 (both signs), and cosh/sinh elsewhere
COTH_POINTS = np.array(
    [d + 1j * k * math.pi for k in (0, 1, 3, -2)
     for d in (0.05, 0.099, 0.0999j, -0.03 + 0.02j, 1e-9)]
    + [complex(re, im) for re in (-40.0, -20.5, 20.5, 40.0)
       for im in (0.0, 1.0, -3.0, 7.7)]
    + list(np.random.default_rng(0).uniform(-19.0, 19.0, 30)
           + 1j * np.random.default_rng(1).uniform(-30.0, 30.0, 30)))


@pytest.mark.parametrize("fn", [sp.coth_stable, sp.x_coth_x],
                         ids=["coth_stable", "x_coth_x"])
def test_coth_array_matches_scalar(fn):
    got = fn(COTH_POINTS)
    assert isinstance(got, np.ndarray) and got.shape == COTH_POINTS.shape
    for z, g in zip(COTH_POINTS.tolist(), got):
        want = fn(z)
        assert type(want) is complex
        assert abs(g - want) <= 1e-15 * abs(want)


def test_coth_array_with_an_exact_pole_raises():
    with pytest.raises(PoleError):
        sp.coth_stable(np.array([0.5, 0.0, 3.0 + 1j]))
    with pytest.raises(PoleError):
        sp.x_coth_x(np.array([0.2, 0.0]))


# ----------------------------------------------------------------------
# Cosines and sines from the tangent of the half angle
# ----------------------------------------------------------------------

def _trig_points(rng, per_decade):
    """Seeded x in every decade from 1e-3 to 1e7, both signs, then +-0 and
    odd multiples of pi, where tan(x/2) is large (about 1.6e16 at pi)."""
    x = np.concatenate([10.0 ** rng.uniform(e, e + 1, per_decade)
                        for e in range(-3, 7)])
    odd = math.pi * np.array([1.0, 3.0, 41.0, 2.0 * 1e5 + 1, 2.0 * 3e6 - 1])
    return np.concatenate([x, -x, [0.0, -0.0], odd, -odd])


def _both(x):
    s, c = x.copy(), np.empty_like(x)
    sp.half_angle_trig(s, c)
    return c, s


@mp.workdps(30)
def test_half_angle_trig_against_mpmath():
    """cos and sin within TRIG_ERROR = 2 ulps of 1, and finite, at 60
    seeded x a decade and at 0 and odd multiples of pi.  The largest
    errors were 1.42 ulps of 1 for cos (near x = 0 mod 2 pi, where
    1 + tan^2(x/2) rounds near 1) and 0.79 for sin; on 400 a decade,
    1.48 and 0.87 (libm's cos and sin: 0.25)."""
    x = _trig_points(np.random.default_rng(35), 60)
    c, s = _both(x)
    assert np.all(np.isfinite(c)) and np.all(np.isfinite(s))
    for v, cv, sv in zip(x.tolist(), c.tolist(), s.tolist()):
        assert abs(mp.mpf(cv) - mp.cos(v)) <= sp.TRIG_ERROR
        assert abs(mp.mpf(sv) - mp.sin(v)) <= sp.TRIG_ERROR
    # the tangent's pole is no special case
    assert c[-10:].tolist() == [-1.0] * 10


def test_half_angle_trig_against_libm_to_1e9():
    # libm's cos and sin are within a quarter ulp of 1 here; the largest
    # differences were 1.5 ulps of 1 (cos) and 1.0 (sin)
    rng = np.random.default_rng(36)
    x = 10.0 ** rng.uniform(-3.0, 9.0, 100_000) * rng.choice([-1.0, 1.0],
                                                              100_000)
    c, s = _both(x)
    assert np.max(np.abs(c - np.cos(x))) <= sp.TRIG_ERROR
    assert np.max(np.abs(s - np.sin(x))) <= sp.TRIG_ERROR


def test_half_angle_trig_bits_are_a_function_of_x_alone():
    """A value has the same bits alone, in a batch of 3 012, from a strided
    view, as a 2-D block and in either mode: cos alone and both at once.
    A sine alone takes half_angle_half_sine, not a third mode."""
    x = _trig_points(np.random.default_rng(37), 150)
    c, s = _both(x)
    for i in range(x.size):
        ci, si = _both(x[i:i + 1])
        assert ci.tobytes() == c[i:i + 1].tobytes()
        assert si.tobytes() == s[i:i + 1].tobytes()
    table = np.zeros((3, x.size), dtype=np.complex128)
    table[1].imag = x
    sp.half_angle_trig(table[1].imag, table[1].real)
    assert table[1].real.tobytes() == c.tobytes()
    assert table[1].imag.tobytes() == s.tobytes()
    block = x.reshape(12, 251).copy()
    assert sp.half_angle_trig(block, sin=False).tobytes() == c.tobytes()
    assert sp.half_angle_trig(x.copy(), sin=False).tobytes() == c.tobytes()
    with pytest.raises(ValueError, match="cos_out"):
        sp.half_angle_trig(x.copy())


def test_half_angle_half_sine_is_half_the_sine_bit_for_bit():
    """2 half_angle_half_sine(x/2) has the bits of half_angle_trig's sin x
    at every x of _trig_points: alone, in a batch of 9 036, from a strided
    view and with its denominators in a caller's buffer."""
    x = _trig_points(np.random.default_rng(37), 150)
    _, s = _both(x)
    for i in range(x.size):
        got = 2.0 * sp.half_angle_half_sine(0.5 * x[i:i + 1])
        assert got.tobytes() == s[i:i + 1].tobytes()
    long = np.tile(x, 3)
    got = 2.0 * sp.half_angle_half_sine(0.5 * long)
    assert got.tobytes() == np.tile(s, 3).tobytes()
    table = np.zeros((2, long.size))
    table[0] = 0.5 * long
    denom = np.empty(long.size)
    sp.half_angle_half_sine(table[:, ::2][0], denom[::2])
    assert (2.0 * table[0, ::2]).tobytes() == np.tile(s, 3)[::2].tobytes()
    h = np.tan(0.5 * long[::2])
    assert denom[::2].tobytes() == (h * h + 1.0).tobytes()


# ----------------------------------------------------------------------
# Fejer kernel
# ----------------------------------------------------------------------

def _fejer(K, t):
    """F_K(t) at one point in scalar arithmetic, K + 1 at t in 2 pi Z: the
    reference of fejer_batch."""
    u = 0.5 * t
    up = u - math.pi * round(u / math.pi)
    if abs(up) < 1e-12:
        return float(K + 1)
    r = math.sin((K + 1) * up) / math.sin(up)
    return max(r * r / (K + 1), 0.0)


def test_fejer_endpoint_values():
    assert sp.fejer_batch(3, np.array([0.0]))[0] == 4.0
    assert abs(sp.fejer_batch(1, np.array([math.pi]))[0]) < 1e-15


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 400), st.floats(-50.0, 50.0))
def test_fejer_nonnegative(K, t):
    assert sp.fejer_batch(K, np.array([t]))[0] >= 0.0


def test_fejer_batch_matches_scalar():
    ts = np.linspace(-7.0, 7.0, 101)
    vb = sp.fejer_batch(5, ts)
    vs = np.array([_fejer(5, float(t)) for t in ts])
    assert np.max(np.abs(vb - vs)) == 0.0


# ----------------------------------------------------------------------
# Lerch transcendent
# ----------------------------------------------------------------------

def test_lerch_geometric_log_identity():
    z = 0.37
    got = sp.lerch(z, 1, 1.0)
    assert abs(got.value - (-math.log(1 - z) / z)) < 1e-13


def test_lerch_alpha_power():
    got = sp.lerch(0.0, 3, 1.7 + 0.4j)
    assert abs(got.value - (1.7 + 0.4j) ** -3) < 1e-15


def test_lerch_against_direct_summation():
    z = math.exp(-1.0)
    direct = sum(z ** n / (n + 0.7) ** 2 for n in range(200))
    got = sp.lerch(z, 2, 0.7)
    assert abs(got.value - direct) < 1e-12


def test_lerch_divergence_and_pole_guard():
    with pytest.raises(ValueError):
        sp.lerch(1.0, 2, 0.5)
    with pytest.raises(PoleError):
        sp.lerch(0.5, 2, -3.0)


# ----------------------------------------------------------------------
# Exponential integral
# ----------------------------------------------------------------------

def test_ei_series_value():
    v, _ = sp.ei_and_bound(1.0)
    assert abs(v.value.real - 1.8951178163559368) < 1e-12


def test_ei_bound_holds_incl_critical_point():
    alpha = 40.0 / 3.0
    for x in (0.3, 1.0, 4.0 * alpha / (alpha - 6.0), 20.0, 35.0, 80.0):
        v, b = sp.ei_and_bound(x)
        assert v.value.real <= b
    # margin at the critical point is positive but thin
    xc = 4.0 * alpha / (alpha - 6.0)
    v, b = sp.ei_and_bound(xc)
    assert 0.0 < b - v.value.real < 0.05 * b


# ----------------------------------------------------------------------
# Laurent coefficients of -zeta'/zeta at s = 1
# ----------------------------------------------------------------------

def test_laurent_first_coefficient_is_gamma():
    c = sp.laurent_coeffs_A(10)
    assert abs(c[0] + EULER_GAMMA) < 1e-14


def test_laurent_series_evaluates_log_derivative():
    c = sp.laurent_coeffs_A(12)
    s = 1.01
    recon = 1.0 / (s - 1.0) + np.polyval(c[::-1], s - 1.0)
    assert abs(recon - (-sp.log_deriv_zeta(s).value.real)) < 1e-8


def test_laurent_against_mpmath_stieltjes():
    c = sp.laurent_coeffs_A(6)
    # independent series division at 40 digits
    with mp.workdps(40):
        u = mp.mpf("0.02")
        ref = -mp.zeta(1 + u, derivative=1) / mp.zeta(1 + u) - 1 / u
        mine = np.polyval(c[::-1], 1.02 - 1.0)
        assert abs(float(ref) - mine) < 1e-9


def test_laurent_depth_guard():
    with pytest.raises(PrecisionError):
        sp.laurent_coeffs_A(13)


# ----------------------------------------------------------------------
# f(t) = zeta'/zeta + digamma - log 2pi
# ----------------------------------------------------------------------

def test_badabook_value_matches_atilde():
    # tighter than the pinned tolerance of Atilde(-1): only its value
    value, _ = cli.pinned("Atilde(-1)")
    assert abs(sp.badabook_f(2.0) + 0.5 - value) < 1e-9
