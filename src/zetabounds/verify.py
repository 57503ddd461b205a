"""Named invariant checks grouped into suites: the one home of each lemma
inequality, run by the CLI's ``verify`` command and, one row per test, by
the test suite.

Every check returns True (the invariant holds), False (it fails) or None
(skipped: the input cannot support it, such as a zero list too short for
a tail estimate).  The results are deterministic for fixed inputs, and
nothing here keeps state between calls."""

from __future__ import annotations

import math

import numpy as np

from . import extremal as ex
from . import formula as fm
from . import special as sp
from . import weights as wt
from . import zeros as zr
from .util import TWO_PI, EULER_GAMMA, gauss_kronrod


def _grid_complex(rng, n, re_lo, re_hi, im_lo, im_hi):
    return [complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi))
            for _ in range(n)]


# ----------------------------------------------------------------------
# appendix-a: special-function inequalities
# ----------------------------------------------------------------------

def check_digamma_log_bound():
    rng = np.random.default_rng(11)
    for z in [0.5 + 10.0j] + _grid_complex(rng, 200, 0.5, 8.0, -10.0, 10.0):
        d = sp.digamma(z)
        if d.value.real > math.log(abs(z)) + d.abs_error + 1e-12:
            return False
    return True


def check_gamma_modulus_bound():
    rng = np.random.default_rng(12)
    for _ in range(120):
        x = rng.uniform(0.5, 6.0)
        y = rng.uniform(-8.0, 8.0)
        g = sp.gamma_abs(complex(x, y))
        rhs = math.sqrt(math.pi / math.cosh(math.pi * y)) \
            * abs(complex(x, y)) ** (x - 0.5)
        if g.value.real > rhs * (1.0 + 1e-10) + g.abs_error:
            return False
    return True


def check_zeta_reflection_bound():
    rng = np.random.default_rng(13)
    for _ in range(60):
        s = complex(rng.uniform(-3.0, 0.5), rng.uniform(-30.0, 30.0))
        if abs(s - 1.0) < 0.2 or abs(s) < 0.2:
            continue
        lhs = abs(sp.zeta_em(s, 1e-10).value)
        if lhs > sp.zeta_reflection_rhs(s) + 1e-9:
            return False
    return True


def check_coth_derivative_bounds():
    rng = np.random.default_rng(14)
    h = 1e-6
    for _ in range(300):
        x = rng.uniform(-3.0, 3.0)
        y = rng.uniform(-math.pi / 2.0, math.pi / 2.0)
        z = complex(x, y)
        if min(abs(z), abs(z - 1j * math.pi), abs(z + 1j * math.pi)) < 0.05:
            continue
        d = (sp.x_coth_x(z + h) - sp.x_coth_x(z - h)) / (2.0 * h)
        if abs(y) <= math.pi / 4.0 and abs(d) >= 1.0 + 1e-6:
            return False
        if abs(d) > abs(z) + 1e-5:
            return False
    return True


def check_laurent_alternating():
    lc = sp.laurent_coeffs_A(10)
    mags = lc.magnitudes()
    if any(m <= 0 for m in mags):
        return False
    return abs(mags[0] - EULER_GAMMA) < 1e-12


def check_em_matches_dirichlet():
    for s in (2.0 + 0j, 2.5 + 3j, 4.0 - 7j, 3.0 + 50j):
        n = np.arange(1, 400_001)
        direct = np.sum(n ** -complex(s)) \
            + 400_000 ** (1 - complex(s)) / (complex(s) - 1)
        em = sp.zeta_em(s, 1e-13).value
        if abs(direct - em) > 1e-12 * max(1.0, abs(em)) + 2e-12:
            return False
    return True


def check_badabook_monotone():
    ts = np.arange(2.0, 50.0 + 1e-9, 1.0)
    f = np.array([sp.badabook_f(float(t)) for t in ts])
    tf = ts * f
    g = f + 1.0 / ts
    return bool(np.all(np.diff(tf) > 0) and np.all(np.diff(g) > 0))


def check_ei_bound():
    for x in (0.5, 1.0, 7.2727272727, 20.0, 40.0, 120.0):
        v, b = sp.ei_and_bound(x)
        if not v.value.real <= b:
            return False
    return True


# ----------------------------------------------------------------------
# appendix-b: zero statistics (needs a zero list)
# ----------------------------------------------------------------------

def check_q_bounds(zl):
    """|Q(t)| < 1 on [15, 280]; the bound 0.2 log t + 2 at every ordinate
    is an invariant of ZeroList itself."""
    if zl.t_max < 15.0:
        return None
    hi = min(zl.t_max, 280.0)
    for t in np.union1d(np.linspace(15.0, hi, 40), np.linspace(15.0, hi, 60)):
        if abs(zr.count_and_Q(zl, float(t)).Q) >= 1.0:
            return False
    return True


def check_lehman_randomised(zl):
    if zl.t_max < 28.0:
        return None    # each window starts in [14, t_max / 2]
    rng = np.random.default_rng(15)
    makers = [
        lambda a, b: (lambda t: 1.0 / (t - a + 1.0) ** b, "decreasing"),
        lambda a, b: (lambda t: math.exp(-b * (t - a) / 100.0),
                      "decreasing"),
        lambda a, b: (lambda t: (t - a + 1.0) ** (b / 4.0), "increasing"),
        lambda a, b: (lambda t: math.log(t - a + 2.0) * b, "increasing"),
    ]
    for i in range(50):
        t0 = rng.uniform(14.0, zl.t_max / 2.0)
        t1 = rng.uniform(t0 + 1.0, zl.t_max)
        a = rng.uniform(0.0, 10.0)
        b = rng.uniform(0.5, 2.0)
        phi, direction = makers[i % 4](t0 - a, b)
        exact, rd, ri = zr.lehman_sum(zl, phi, float(t0), float(t1),
                                      direction)
        bound = rd if direction == "decreasing" else ri
        if exact > bound + 1e-9:
            return False
    return True


def check_box_counts(zl):
    if zl.t_max < 26.0:
        return None    # each box is centred in [20, t_max - 6]
    rng = np.random.default_rng(16)
    for _ in range(40):
        T = rng.uniform(20.0, zl.t_max - 6.0)
        a = rng.uniform(0.1, 5.0)
        exact = (zl.count_below(T + a)
                 - zl.count_below(np.nextafter(T - a, -np.inf)))
        if exact > zr.box_count_bound(float(T), float(a)):
            return False
    return True


def check_inverse_square_tail(zl):
    try:
        val, rhs = zr.inverse_square_tail(zl, 14.0)
    except ValueError:
        return None    # list too short for the 1e-6 remainder guarantee
    return val <= rhs


def check_local_log_deriv(zl):
    if zl.t_max < 1502.0:
        return None
    for t, sig in ((1500.0, 0.4), (1200.0, -0.5), (1040.0, 1.5)):
        s = complex(sig, t)
        total, radius = zr.local_log_deriv(zl, s, 1.0, 1.5)
        true = sp.log_deriv_zeta(s).value
        if abs(true - total) > radius:
            return False
    return True


# ----------------------------------------------------------------------
# appendix-c: series constants and kernels
# ----------------------------------------------------------------------

def check_constants_C():
    return (abs(wt.constants_C(1) - 0.168938) < 1.5e-6
            and abs(wt.constants_C(2) - 0.164184) < 1.5e-6)


def check_tremic():
    return wt.tremic_check(10_000)


def check_lerch_vs_series():
    rng = np.random.default_rng(17)
    p = ex.ApproximantParams.make(0.5, ex.MAJORANT)
    for x in rng.uniform(-3.0, 10.0, 50):
        if abs(ex.phi_hat(p, float(x)) - ex.phi_hat_lerch(p, float(x))) \
                > 1e-9:
            return False
    return True


def check_fejer_mean():
    for K in (1, 5, 7, 33, 40):
        q, _ = gauss_kronrod(lambda t: sp.fejer_batch(K, t),
                             (0.0, TWO_PI), 1e-10)
        if abs(q / TWO_PI - 1.0) > 1e-8:
            return False
    return True


# ----------------------------------------------------------------------
# extremal suite
# ----------------------------------------------------------------------

def check_domination():
    xs = np.linspace(-50.0, 50.0, 1000)
    for lam in (0.1, 0.25, 1.0, 4.0, -0.1, -0.25, -1.0, -4.0):
        pM = ex.ApproximantParams.make(lam, ex.MAJORANT)
        pL = ex.ApproximantParams.make(lam, ex.MINORANT)
        M = ex.phi_hat(pM, xs)
        L = ex.phi_hat(pL, xs)
        E = ex.truncated_exp(lam, xs)
        if (E - M).max() > 1e-12 or (L - E).max() > 1e-12:
            return False
    return True


def check_gap_identity():
    """The L1 gap by quadrature is within 1e-8 of its closed form (the
    quadrature's own tolerance; the largest difference here is 6e-10)."""
    for lam in (0.25, 1.0, 4.0, -0.5):
        for side in (ex.MAJORANT, ex.MINORANT):
            p = ex.ApproximantParams.make(lam, side)
            if abs(ex.l1_gap_quadrature(p) - ex.l1_gap(p)) > 1e-8:
                return False
    return True


def check_fourier_pair():
    """phi_weight_quad_transform reproduces phi_hat within 2e-15 (the
    largest difference here is 2.2e-16)."""
    rng = np.random.default_rng(18)
    for lam, side in ((0.25, ex.MAJORANT), (1.0, ex.MINORANT),
                      (-0.7, ex.MAJORANT)):
        p = ex.ApproximantParams.make(lam, side)
        for y in rng.uniform(-6.0, 6.0, 7):
            ft = ex.phi_weight_quad_transform(p, float(y))
            if abs(ft - ex.phi_hat(p, float(y))) > 2e-15:
                return False
    return True


def check_beurling_limit():
    p = ex.ApproximantParams.make(1e-3, ex.MAJORANT)
    xs = np.linspace(-3.0, 3.0, 101)
    for x, value in zip(xs, ex.phi_hat(p, xs)):
        target = (ex.beurling_majorant(float(x)) + 1.0) / 2.0
        if abs(value - target) > 5e-3:
            return False
    return True


def check_star_bounds():
    rng = np.random.default_rng(19)
    for nu in (0.3, 1.0, 4.0):
        for _ in range(150):
            z = complex(rng.uniform(0.0, 0.25), rng.uniform(-2.0, 2.0))
            for pm in (1.0, -1.0):
                for zz in (z, -z):
                    if abs(ex._phi_parts(nu, pm, zz)[1]) > abs(z) + 1e-10:
                        return False
        if abs(ex._phi_parts(nu, 1.0, 0.0)[1]) > 1e-14:
            return False
        if abs(sum(ex._phi_parts(nu, 1.0, 1.0))) > 1e-13:
            return False
    return True


# ----------------------------------------------------------------------
# weights suite
# ----------------------------------------------------------------------

def check_conjugation():
    """Conjugating s conjugates the full two-sheet weight (the symmetry
    that keeps the zero sums real); the plain omega^+ branch alone does
    not have this property, the glued weight does."""
    rng = np.random.default_rng(20)
    for T, lam in ((120.0, 0.5), (800.0, -0.25), (150.0, 0.4),
                   (150.0, -0.4)):
        for _ in range(25):
            s = complex(rng.uniform(-1.0, 2.0), rng.uniform(0.3, T - 1.0))
            z = (s - 1.0) / (1j * T)
            zb = (s.conjugate() - 1.0) / (1j * T)
            for side in (ex.MAJORANT, ex.MINORANT):
                a = ex.glued_contour_weight(lam, side, zb)
                b = ex.glued_contour_weight(lam, side, z).conjugate()
                if abs(a - b) > 1e-12 * (1.0 + abs(b)):
                    return False
    return True


def check_contour_oracle():
    rng = np.random.default_rng(21)
    for T, sigma in ((200.0, 0.3), (1468.0, 0.0), (90.0, 1.7),
                     (120.0, 1.5)):
        ctx = wt.WeightContext(T, sigma)
        for _ in range(30):
            s = complex(rng.uniform(-1.0, 2.0), rng.uniform(0.5, T - 1.0))
            if abs(wt.omega_plus(ctx, s)
                   - wt.omega_plus_from_contour(ctx, s)) > 1e-10:
                return False
    return True


def check_sigma_one_limit():
    """The contributions of rho = sigma and rho = 1 tend to log x - gamma
    as sigma -> 1, within 2e3 (1 - sigma) and converging."""
    x = 1e5
    target = math.log(x) - EULER_GAMMA
    epss = (1e-3, 1e-4, 1e-5)
    errs = [abs(sum(fm._main_at(fm._main_coeffs(4000.0, 1.0 - eps),
                                1.0 - eps, x)) - target)
            for eps in epss]
    return bool(all(err <= 2e3 * eps for err, eps in zip(errs, epss))
                and errs[-1] < 1e-4 * math.log(x) and errs[-1] < errs[0])


def check_tritura_random():
    rng = np.random.default_rng(22)
    for _ in range(20):
        t0 = rng.uniform(TWO_PI, 60.0)
        T = rng.uniform(3.0 * t0, 50.0 * t0)
        quad, simplon, adago = wt.weighted_log_integral(float(T), float(t0))
        if quad > simplon + 1e-7:
            return False
        if adago is not None and quad > adago + 1e-7:
            return False
        qi, rhs = wt.weighted_inv_integral(float(T), float(t0))
        if qi > rhs + 1e-9:
            return False
    return True


def F_profile_holds(u) -> bool:
    """On the increasing grid u in (0, 1]: F decreases, is positive before
    u = 1 and stays below 1/(pi u)."""
    F = wt.F_profile(np.asarray(u, dtype=np.float64))
    return bool(np.all(np.diff(F) < 1e-12) and np.all(F[:-1] > 0.0)
                and np.all(F < 1.0 / (math.pi * u) + 1e-15))


def A_strip_holds(rng) -> bool:
    """At 200 random points x + iy of (0, 1/2] x [-1/2, 1/2]:
    |A(x)| <= pi x / 3 and |A(x + iy) - A(x)| <= 1.78 |y|."""
    for _ in range(200):
        x = rng.uniform(1e-3, 0.5)
        y = rng.uniform(-0.5, 0.5)
        _, Ax = wt.F_and_A(complex(x))
        _, Axy = wt.F_and_A(complex(x, y))
        if abs(Ax) > math.pi / 3.0 * x + 1e-12:
            return False
        if abs(Axy - Ax) > 1.78 * abs(y) + 1e-12:
            return False
    return True


def check_sibelius_grids():
    return (F_profile_holds(np.linspace(1e-3, 1.0, 400))
            and A_strip_holds(np.random.default_rng(23)))


def check_split_radii():
    rng = np.random.default_rng(24)
    for _ in range(40):
        T = rng.uniform(100.0, 5000.0)
        sigma = rng.uniform(-1.5, 2.0)
        xi = rng.uniform(-1.0, 1.0)
        t = rng.uniform(1.0, T)
        ctx = wt.WeightContext(T, sigma)
        exact, approx, radius = wt.weight_split_error(ctx, float(t),
                                                      float(xi), "profile")
        if abs(exact - approx) > radius + 1e-12:
            return False
        if t <= T / 2.0:
            exact, approx, radius = wt.weight_split_error(
                ctx, float(t), float(xi), "classic")
            if abs(exact - approx) > radius + 1e-12:
                return False
    return True


# ----------------------------------------------------------------------
# perron suite
# ----------------------------------------------------------------------

def check_perron_random():
    rng = np.random.default_rng(25)
    for i in range(20):
        length = int(rng.integers(1, 101))
        coeffs = rng.uniform(0.0, 2.0, length)
        lam = float(rng.choice([0.3, 0.8, -0.6, 1.5]))
        side = ex.MAJORANT if i % 2 == 0 else ex.MINORANT
        p = ex.ApproximantParams.make(lam, side)
        T = float(rng.uniform(8.0, 40.0))
        sigma = float(rng.uniform(0.5, 2.0))
        x = float(rng.uniform(2.0, 50.0))
        d = fm.perron_identity_check(
            coeffs, lambda t: ex.phi_weight(p, t),
            lambda y: ex.phi_hat(p, y), T, sigma, x)
        if d >= 1e-6:
            return False
    return True


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

ZERO_SUITE = "appendix-b"   # its checks take the zero list as argument

# Height of the default appendix-b zero list: the lowest round height at
# which inverse_square_tail's remainder uncertainty is below its 1e-6
# guarantee (at 2000 it is 1.8e-6), so every appendix-b check is computed.
APPENDIX_B_T = 3500.0

# (suite, check name, check) in run order; `verify --suite all` reports
# the rows in this order.
REGISTRY = (
    ("appendix-a", "digamma real part below log|z|", check_digamma_log_bound),
    ("appendix-a", "gamma modulus bound", check_gamma_modulus_bound),
    ("appendix-a", "zeta reflection bound", check_zeta_reflection_bound),
    ("appendix-a", "(z coth z)' bounds", check_coth_derivative_bounds),
    ("appendix-a", "laurent coefficients alternate",
     check_laurent_alternating),
    ("appendix-a", "euler-maclaurin matches dirichlet",
     check_em_matches_dirichlet),
    ("appendix-a", "t f(t) and f(t)+1/t increasing", check_badabook_monotone),
    ("appendix-a", "exponential-integral bound", check_ei_bound),
    ("appendix-c", "C1, C2 values", check_constants_C),
    ("appendix-c", "kernel coefficient positivity", check_tremic),
    ("appendix-c", "lerch closed form matches series",
     check_lerch_vs_series),
    ("appendix-c", "fejer kernel has mean one", check_fejer_mean),
    ("extremal", "one-sided domination", check_domination),
    ("extremal", "L1 gap identity", check_gap_identity),
    ("extremal", "fourier pair consistency", check_fourier_pair),
    ("extremal", "small-decay limit matches sgn majorant",
     check_beurling_limit),
    ("extremal", "star-part growth bounds", check_star_bounds),
    ("weights", "conjugation symmetry", check_conjugation),
    ("weights", "contour-route oracle", check_contour_oracle),
    ("weights", "sigma -> 1 residue bookkeeping", check_sigma_one_limit),
    ("weights", "weighted log/inv integrals below bounds",
     check_tritura_random),
    ("weights", "F and A profile inequalities", check_sibelius_grids),
    ("weights", "split-approximation radii", check_split_radii),
    ("perron", "smoothed identity on random polynomials",
     check_perron_random),
    (ZERO_SUITE, "counting remainder bounds", check_q_bounds),
    (ZERO_SUITE, "randomised monotone sums below bounds",
     check_lehman_randomised),
    (ZERO_SUITE, "window counts below box bound", check_box_counts),
    (ZERO_SUITE, "inverse-square tail below bound",
     check_inverse_square_tail),
    (ZERO_SUITE, "local log-derivative expansion", check_local_log_deriv),
)


def run_suites(which: str, zl=None):
    """Yield (suite, name, result) for the REGISTRY rows of suite `which`,
    or of every suite for "all"; result is True, False or None (skipped).
    The appendix-b checks run on `zl`, by default the zeros through
    APPENDIX_B_T, found when first needed."""
    for suite, name, check in REGISTRY:
        if which not in ("all", suite):
            continue
        if suite == ZERO_SUITE:
            if zl is None:
                zl = zr.find_zeros(APPENDIX_B_T)
            result = check(zl)
        else:
            result = check()
        yield suite, name, None if result is None else bool(result)
