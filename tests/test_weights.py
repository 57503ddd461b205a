import math

import mpmath as mp
import numpy as np
import pytest

from zetabounds import verify as vf
from zetabounds import weights as wt
from zetabounds.util import TWO_PI, PoleError
from zetabounds.weights import WeightContext

# ----------------------------------------------------------------------
# context and theta
# ----------------------------------------------------------------------

def test_context_lambda_relation():
    ctx = WeightContext(100.0, 0.0)
    assert abs(ctx.lam * ctx.T - TWO_PI * (ctx.sigma - 1.0)) < 1e-15


def test_sigma_one_branch_constant():
    ctx = WeightContext(50.0, 1.0)
    assert ctx.c == 1.0 / math.pi


@mp.workdps(50)
def test_c_against_high_precision():
    T, sigma = 100.0, 0.0
    ctx = WeightContext(T, sigma)
    th = 1 - (mp.mpc(1, T) - sigma) / (1j * mp.mpf(T))
    ref = complex(th * mp.cot(mp.pi * th))
    assert abs(ref.imag) < 1e-30
    assert abs(ctx.c - ref.real) < 1e-15


def test_theta_trivials():
    assert wt.theta_T1(77.0, 1.0) == 1.0
    assert abs(wt.theta_T1(77.0, 1.0 + 77.0j)) == 0.0


def test_theta_on_an_array_has_the_bits_of_the_inline_expression():
    # the array form of the zero sum, and a Python scalar in Python's own
    # complex arithmetic: numpy's division rounds some quotients otherwise
    rng = np.random.default_rng(3702)
    for T in (14.5, 1468.0, 2000.0, 21808.0):
        rho = 0.5 + 1j * np.sort(rng.uniform(14.0, T, 1000))
        got = wt.theta_T1(T, rho)
        want = 1.0 - (rho - 1.0) / (1j * T)
        assert got.dtype == np.complex128
        assert (got.view(np.int64) == want.view(np.int64)).all()
        for r in rho[:50].tolist():
            one = wt.theta_T1(T, r)
            assert type(one) is complex
            assert one == 1.0 - (complex(r) - 1.0) / (1j * T)


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


@mp.workdps(50)
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
    assert np.max(np.abs(vb - vs)) < 1e-14


@mp.workdps(50)
def test_omega_near_theta_zero_against_mpmath():
    # 30 points with |theta| in [0.005, 0.03], real, imaginary and
    # diagonal, up to the series switch at |theta| = 0.03
    T, sigma = 1468.0, 0.0
    ctx = WeightContext(T, sigma)
    thetas = [(-1) ** k * m * d
              for k, m in enumerate(np.linspace(0.005, 0.03, 10))
              for d in (1.0, 1j, complex(math.sqrt(0.5), math.sqrt(0.5)))]
    ss = np.array([sigma + 1j * T * (1.0 - th) for th in thetas])
    thT = 1 - (mp.mpc(1, T) - sigma) / (1j * mp.mpf(T))
    c = thT * mp.cot(mp.pi * thT)
    batch = wt.omega_plus_batch(ctx, ss)
    with mp.workdps(40):
        for s, got_batch in zip(ss, batch):
            th = 1 - (mp.mpc(s) - sigma) / (1j * mp.mpf(T))
            ref = complex(-th * mp.cot(mp.pi * th) + c)
            assert abs(wt.omega_plus(ctx, complex(s)) - ref) <= 1e-15
            assert abs(got_batch - ref) <= 1e-15


@pytest.mark.parametrize("T", [300.0, 1468.0])
def test_omega_near_theta_one_against_mpmath(zl_small, T):
    """At the lowest zeros theta is near its pole at 1; omega^+ is built
    from w = 1 - theta = (s - sigma)/(iT) itself, so it keeps the relative
    accuracy of w.  (Rounding theta, then pi theta, before the pole is
    taken out cost 1.3e-14 at T = 300 and 2.6e-13 at T = 1468, at
    gamma = 14.13.)"""
    ss = 0.5 + 1j * zl_small.ordinates[:10]
    with mp.workdps(40):
        for sigma in (0.0, 2.0):
            ctx = WeightContext(T, sigma)
            thT = 1 - (mp.mpc(1, T) - sigma) / (1j * mp.mpf(T))
            c = thT * mp.cot(mp.pi * thT)
            for s, got_batch in zip(ss, wt.omega_plus_batch(ctx, ss)):
                th = 1 - (mp.mpc(s) - sigma) / (1j * mp.mpf(T))
                ref = complex(-th * mp.cot(mp.pi * th) + c)
                assert abs(got_batch - ref) <= 1e-15 * abs(ref)
                assert abs(wt.omega_plus(ctx, complex(s)) - ref) \
                    <= 1e-15 * abs(ref)


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


def test_F_profile_on_arrays_is_the_scalar_profile():
    us = np.concatenate([np.geomspace(1e-3, 0.5, 150),
                         1.0 - np.geomspace(1e-12, 0.5, 150),
                         np.linspace(-2.5, 3.5, 121) + 1e-3, [1.0]])
    got = wt.F_profile(us)
    assert isinstance(got, np.ndarray) and got.shape == us.shape
    for u, F in zip(us.tolist(), got.tolist()):
        scalar = wt.F_profile(u)
        assert type(scalar) is float and F == scalar, u
    assert wt.F_profile(np.array([1.0, 0.5]))[0] == 0.0
    two_d = wt.F_profile(us[:300].reshape(3, 100))
    assert np.array_equal(two_d.ravel(), got[:300])


@pytest.mark.parametrize("pole", [0.0, 2.0, -1.0, 3.0])
def test_F_profile_pole_inside_an_array(pole):
    with pytest.raises(PoleError):
        wt.F_profile(np.array([0.25, 1.0, pole, 0.75]))


def test_F_pole_errors():
    with pytest.raises(PoleError):
        wt.F_and_A(0.0)
    with pytest.raises(PoleError):
        wt.F_and_A(2.0)
    for u in (0.0, 2.0, -1.0):
        with pytest.raises(PoleError):
            wt.F_profile(u)


def _F_ref(z):
    z = mp.mpmathify(z)
    return 1 / mp.pi - (1 - z) * mp.cot(mp.pi * (1 - z))


@mp.workdps(50)
def test_F_profile_against_mpmath():
    us = np.concatenate([np.geomspace(1e-3, 0.5, 150),
                         1.0 - np.geomspace(1e-12, 0.5, 150)])
    for u in us.tolist():
        want = _F_ref(u)
        got = wt.F_profile(u)
        assert abs(got - want) <= 1e-15 * max(1.0, abs(got)), u
    assert wt.F_profile(1.0) == 0.0


@mp.workdps(50)
def test_F_and_A_real_axis_is_the_profile():
    us = np.concatenate([np.linspace(-2.5, 3.5, 121) + 1e-3,
                         1.0 - np.geomspace(1e-12, 0.5, 40)])
    for u in us.tolist():
        F, A = wt.F_and_A(u)
        assert F.real == wt.F_profile(u) and F.imag == 0.0, u
        if 0.0 < u < 1.0:
            assert abs(A - (_F_ref(u) - 1 / (mp.pi * u))) \
                < 1e-14 * max(1.0, abs(A)), u


@mp.workdps(50)
def test_F_and_A_near_one_against_mpmath():
    # cot(pi z) is taken as -cot(pi (1 - z)): no rounding of pi z
    zs = [1.0 - 10.0 ** -k for k in range(2, 13)] + [complex(1 - 1e-9, 1e-9)]
    for z in zs:
        F, A = wt.F_and_A(z)
        want = _F_ref(z)
        assert abs(F - complex(want)) < 1e-15, z
        assert abs(A - complex(want - 1 / (mp.pi * z))) < 1e-15, z


@mp.workdps(50)
def test_F_and_A_on_both_sides_of_the_series_switch():
    # |z| = 0.7 is where A leaves the zeta(2n) series
    for f in (0.999, 1.001):
        for d in (1.0, 1j, -1.0, complex(math.sqrt(0.5), math.sqrt(0.5)),
                  complex(math.cos(2.0), math.sin(2.0))):
            z = 0.7 * f * d
            F, A = wt.F_and_A(z)
            want = _F_ref(z)
            assert abs(F - complex(want)) <= 1e-15 * max(1.0, abs(F)), z
            want_A = complex(want - 1 / (mp.pi * z))
            assert abs(A - want_A) <= 1e-15 * max(1.0, abs(A)), z


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
    q = adaptive_simpson(lambda t: 2.0 / t * np.log(t / TWO_PI), t0, T,
                         1e-11)
    want = math.log(T / TWO_PI) ** 2 - math.log(t0 / TWO_PI) ** 2
    assert abs(q - want) < 1e-9


def _weighted_ref(T, t0, kind):
    """(2 pi/T) int_{t0}^{T} |F(t/T) + (1 - t/T) i| w(t) dt by mpmath at
    20 digits, with w(t) = log(t/2pi) or 1/t, on 8 geometric pieces."""
    with mp.workdps(20):
        T, t0 = mp.mpf(T), mp.mpf(t0)

        def g(t):
            u = t / T
            F = 1 / mp.pi + (1 - u) * mp.cot(mp.pi * u)
            norm = mp.sqrt(F * F + (1 - u) ** 2)
            return norm * mp.log(t / (2 * mp.pi)) if kind == "log" \
                else norm / t

        pts = [t0 * (T / t0) ** (mp.mpf(k) / 8) for k in range(9)]
        return float(2 * mp.pi / T * mp.quad(g, pts))


@pytest.mark.parametrize("T,t0", [(2500.0, 55.0), (400.0, 6.8)])
def test_weighted_integrals_against_mpmath(T, t0):
    assert abs(wt.weighted_log_integral(T, t0)[0]
               - _weighted_ref(T, t0, "log")) < 1e-12
    assert abs(wt.weighted_inv_integral(T, t0)[0]
               - _weighted_ref(T, t0, "inv")) < 1e-12


def test_weighted_integrals_finish_at_large_T():
    # an absolute 1e-9 on a raw integral near 2e7 is below the rounding
    # noise of adaptive Simpson's error estimate; the tolerance follows it
    T, t0 = 1e6, 30.0
    quad, simplon, adago = wt.weighted_log_integral(T, t0)
    assert abs(quad - _weighted_ref(T, t0, "log")) < 1e-12 * quad
    assert quad <= adago <= simplon
    qi, rhs = wt.weighted_inv_integral(T, t0)
    assert abs(qi - _weighted_ref(T, t0, "inv")) < 1e-12 * qi
    assert qi <= rhs
    # in s = log t, up to T = 1.3e5 the log integral's tolerance is still
    # 1e-9 at t0 = 2 pi, the longest interval; at 1.4e5 it is not
    for T, tol_is_floor in ((1.3e5, True), (1.4e5, False)):
        length = math.log(T / TWO_PI)
        tol = wt._simpson_tol(length, T / 3.0 * length)
        assert (tol == 1e-9) == tol_is_floor


def test_log_integral_bound_on_t_times_the_weight():
    # the log integral's tolerance rests on u |F(u) + (1 - u) i| <= 1/3
    u = np.linspace(1e-9, 1.0, 200_001)
    assert np.all(u * wt._weight_norm(u, 1.0) <= 1.0 / 3.0)


@pytest.mark.parametrize("T,t0,log_points,inv_points", [
    (2500.0, 55.0, 3300, 500), (400.0, 6.8, 2000, 600),
    (1e6, 30.0, 15000, 5000)])
def test_weighted_integrals_in_log_t_take_few_points(monkeypatch, T, t0,
                                                     log_points,
                                                     inv_points):
    """In s = log t the weight's T/(pi t) near t0 is smooth, and adaptive
    Simpson takes at most the stated points.  The values at these
    (T, t0) are checked against mpmath by
    test_weighted_integrals_against_mpmath and ..._finish_at_large_T."""
    points = []
    inner = wt.adaptive_simpson

    def counting(f, *args):
        return inner(lambda s: points.append(s.size) or f(s), *args)

    monkeypatch.setattr(wt, "adaptive_simpson", counting)
    for kind, limit in (("log", log_points), ("inv", inv_points)):
        points.clear()
        getattr(wt, f"weighted_{kind}_integral")(T, t0)
        assert sum(points) <= limit


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


def test_constants_keep_their_bits():
    assert wt.constants_C(1).hex() == "0x1.59fc72192fad4p-3"
    assert wt.constants_C(2).hex() == "0x1.503fe72b1d4fbp-3"


def test_tremic_small_and_large():
    assert wt.tremic_check(1)
    assert wt.tremic_check(10_000)
    # spot value a_1(0) = 1 - 1/2
    a1_at_0 = (1.0 - 0.0) ** 2 - (1.0 / 2.0 - 0.0 + 0.0)
    assert a1_at_0 == 0.5
