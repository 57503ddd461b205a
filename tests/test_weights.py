import math

import mpmath as mp
import numpy as np
import pytest

from zetabounds import verify as vf
from zetabounds import weights as wt
from zetabounds.util import TWO_PI, PoleError
from zetabounds.weights import WeightContext

mp.mp.dps = 50


# ----------------------------------------------------------------------
# context and theta
# ----------------------------------------------------------------------

def test_context_lambda_relation():
    ctx = WeightContext(100.0, 0.0)
    assert abs(ctx.lam * ctx.T - TWO_PI * (ctx.sigma - 1.0)) < 1e-15
    assert not ctx.sigma_one_branch


def test_sigma_one_branch_constant():
    ctx = WeightContext(50.0, 1.0)
    assert ctx.sigma_one_branch
    assert ctx.c == 1.0 / math.pi


def test_c_against_high_precision():
    T, sigma = 100.0, 0.0
    ctx = WeightContext(T, sigma)
    th = 1 - (mp.mpc(1, T) - sigma) / (1j * mp.mpf(T))
    ref = complex(th * mp.cot(mp.pi * th))
    assert abs(ref.imag) < 1e-30
    assert abs(ctx.c - ref.real) < 1e-15


def test_theta_trivials():
    ctx = WeightContext(77.0, 0.3)
    assert wt.theta(ctx, 0.3) == 1.0
    assert abs(wt.theta(ctx, 0.3 + 77.0j)) == 0.0


# ----------------------------------------------------------------------
# omega^+
# ----------------------------------------------------------------------

def test_omega_vanishes_at_one_plus_iT():
    for sigma in (0.0, 0.5, 1.0, 1.7):
        ctx = WeightContext(64.0, sigma)
        assert abs(wt.omega_plus(ctx, 1.0 + 64.0j)) < 1e-12


def test_omega_sigma_one_equals_profile():
    ctx = WeightContext(77.0, 1.0)
    for s in (0.5 + 20.0j, 0.3 + 70.0j, -1.0 + 5.0j):
        F, _ = wt.F_and_A((s - 1.0) / (1j * 77.0))
        assert abs(wt.omega_plus(ctx, s) - F) < 1e-12


def test_omega_against_50_digit_oracle():
    # independent compensated evaluation via mpmath at 50 digits
    T, sigma = 100.0, 0.0
    ctx = WeightContext(T, sigma)
    s = mp.mpc("0.5", "14.134725")
    th = 1 - (s - sigma) / (1j * mp.mpf(T))
    thT = 1 - (mp.mpc(1, T) - sigma) / (1j * mp.mpf(T))
    ref = complex(-th * mp.cot(mp.pi * th) + thT * mp.cot(mp.pi * thT))
    got = wt.omega_plus(ctx, 0.5 + 14.134725j)
    assert abs(got - ref) < 1e-10


def test_omega_pole_error():
    ctx = WeightContext(100.0, 0.0)
    # theta = 2 exactly: s = sigma - iT
    with pytest.raises(PoleError):
        wt.omega_plus(ctx, 0.0 - 100.0j)


def test_omega_batch_matches_scalar(zl_small):
    ctx = WeightContext(300.0, 0.25)
    ss = 0.5 + 1j * zl_small.ordinates
    vb = wt.omega_plus_batch(ctx, ss)
    vs = np.array([wt.omega_plus(ctx, complex(s)) for s in ss])
    assert np.max(np.abs(vb - vs)) < 1e-10


# ----------------------------------------------------------------------
# F and A
# ----------------------------------------------------------------------

def test_F_removable_and_half():
    F1, A1 = wt.F_and_A(1.0)
    assert F1 == 0.0
    assert abs(A1 - (-1.0 / math.pi)) < 1e-15
    F2, _ = wt.F_and_A(0.5)
    assert abs(F2 - 1.0 / math.pi) < 1e-14


def test_A_slope_at_half():
    h = 1e-6
    d = (wt.F_and_A(0.5 + h)[1] - wt.F_and_A(0.5 - h)[1]).real / (2.0 * h)
    assert abs(d - (8.0 - math.pi ** 2) / (2.0 * math.pi)) < 1e-8


def test_F_profile_inequalities():
    assert vf.F_profile_holds(np.linspace(1e-3, 1.0, 500))


def test_A_strip_bounds():
    assert vf.A_strip_holds(np.random.default_rng(9))


def test_F_pole_errors():
    with pytest.raises(PoleError):
        wt.F_and_A(0.0)
    with pytest.raises(PoleError):
        wt.F_and_A(2.0)


# ----------------------------------------------------------------------
# split approximations
# ----------------------------------------------------------------------

def test_split_error_sigma_half_radius():
    ctx = WeightContext(1000.0, 0.5)
    exact, approx, radius = wt.weight_split_error(ctx, 300.0, 1.0,
                                                  "profile")
    assert radius == 1.0 / 1000.0
    assert abs(exact - approx) <= radius


def test_split_error_classic_branch():
    ctx = WeightContext(10_000.0, 0.0)
    exact, approx, radius = wt.weight_split_error(ctx, 100.0, -0.5,
                                                  "classic")
    assert abs(exact - approx) <= radius
    slack = radius - abs(exact - approx)
    assert slack > 0.0


def test_split_error_xi_zero_still_bounded():
    ctx = WeightContext(5000.0, 1.5)
    exact, approx, radius = wt.weight_split_error(ctx, 700.0, 0.0,
                                                  "profile")
    assert abs(exact - approx) <= radius


def test_split_error_domain_guards():
    ctx = WeightContext(100.0, 0.0)
    with pytest.raises(ValueError):
        wt.weight_split_error(ctx, 80.0, 0.0, "classic")   # t > T/2
    with pytest.raises(ValueError):
        wt.weight_split_error(ctx, 120.0, 0.0, "profile")  # t > T


# ----------------------------------------------------------------------
# weighted integrals
# ----------------------------------------------------------------------

def test_log_integral_degenerate_lower_end():
    quad, simplon, _ = wt.weighted_log_integral(500.0, TWO_PI)
    assert abs(simplon - math.log(500.0 / TWO_PI) ** 2) < 1e-12
    assert quad <= simplon


def test_log_integral_both_bounds():
    quad, simplon, adago = wt.weighted_log_integral(1000.0, 30.0)
    assert adago is not None
    assert quad <= adago <= simplon


def test_classical_weight_integral_identity():
    # with weight 1/t the same integral is exactly the log^2 difference
    from zetabounds.util import adaptive_simpson
    T, t0 = 800.0, 25.0
    q = adaptive_simpson(lambda t: 2.0 / t * math.log(t / TWO_PI), t0, T,
                         1e-11)
    want = math.log(T / TWO_PI) ** 2 - math.log(t0 / TWO_PI) ** 2
    assert abs(q - want) < 1e-9


def test_inv_integral():
    quad, rhs = wt.weighted_inv_integral(2000.0, 50.0)
    assert quad <= rhs
    q0, r0 = wt.weighted_inv_integral(321.0, 321.0)
    assert q0 == 0.0 and r0 == 0.0
    with pytest.raises(ValueError):
        wt.weighted_inv_integral(500.0, 5.0)


# ----------------------------------------------------------------------
# constants and kernels
# ----------------------------------------------------------------------

def test_constants_closed_parts():
    # the zeta -> 1 parts of the two series have simple closed forms
    n = np.arange(1.0, 400_000.0)
    c1 = float(np.sum(1.0 / (2 * n) - 2.0 / (2 * n + 1)
                      + 1.0 / (2 * n + 2)))
    assert abs(c1 - (1.5 - 2.0 * math.log(2.0))) < 1e-5
    c2 = float(np.sum(1.0 / (2 * n) ** 2 - 2.0 / (2 * n + 1) ** 2
                      + 1.0 / (2 * n + 2) ** 2))
    assert abs(c2 - (1.75 - math.pi ** 2 / 6.0)) < 1e-5


def test_tremic_small_and_large():
    assert wt.tremic_check(1)
    assert wt.tremic_check(10_000)
    # spot value a_1(0) = 1 - 1/2
    a1_at_0 = (1.0 - 0.0) ** 2 - (1.0 / 2.0 - 0.0 + 0.0)
    assert a1_at_0 == 0.5


def test_adar_and_salmon_shapes(zl_med):
    p1, err1, err2 = wt.adar_error_terms(60.0, 1800.0, 0.0)
    c1 = wt.constants_C(1)
    c2 = wt.constants_C(2)
    assert abs(p1 - (2 * c1 * math.log(1800.0 / TWO_PI)
                     + 2 * (c1 - c2))) < 1e-12
    coef, rem = wt.salmon_bound_parts(1800.0, 60.0, 0.0)
    assert coef == 2.0
    # the resulting low-part bound dominates the true weighted sum
    from zetabounds.formula import nontrivial_zero_sum
    from zetabounds.weights import omega_plus_batch, WeightContext
    ctx = WeightContext(1800.0, 0.0)
    g = zl_med.ordinates[zl_med.ordinates <= 60.0]
    rho = 0.5 + 1j * g
    w = omega_plus_batch(ctx, rho)
    th = 1.0 - (rho - 1.0) / (1j * 1800.0)
    lhs = TWO_PI / 1800.0 * float(np.sum(np.abs(w + 1j * th)))
    rhs = coef * float(np.sum(1.0 / np.abs(rho - 0.0))) + rem
    assert lhs <= rhs
