"""Weight functions of the finite explicit formula and the integral
machinery that bounds their aggregate size over zeros.

The central objects: theta_{T,sigma}(s) = 1 - (s - sigma)/(iT), the weight
omega^+ = -theta cot(pi theta) + c, its profile
F(z) = 1/pi - (1-z) cot(pi(1-z)) (on the real axis `F_profile`),
A(z) = F(z) - 1/(pi z), and the constants C1, C2 entering the sharpened
log-integral bound.

All of them rest on w cot w, whose series
1 - w cot w = 2 sum zeta(2n) (w/pi)^(2n) lives once, with its zeta(2n)
table, in `special.one_minus_x_cot_x`: omega^+ near theta = 0 and
theta = 1, A near z = 0 and C1, C2 read it here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .special import ZETA_EVEN, cot_stable, one_minus_x_cot_x, x_coth_x
from .util import TWO_PI, PoleError, adaptive_simpson

_LOG_TWO_PI = math.log(TWO_PI)

__all__ = [
    "WeightContext", "theta_T1", "omega_plus", "omega_plus_batch",
    "omega_plus_from_contour", "F_profile", "F_and_A", "weight_split_error",
    "weighted_log_integral", "weighted_inv_integral", "constants_C",
    "tremic_check",
]

@dataclass(frozen=True)
class WeightContext:
    """Height T and shift sigma, with lambda = 2 pi (sigma-1)/T and the
    constant c = theta(1+iT) cot(pi theta(1+iT)) = (lambda/2pi) coth(lambda/2).

    sigma = 1 is carried as an explicit limit branch with c = 1/pi.
    """

    T: float
    sigma: float
    lam: float = field(init=False)
    c: float = field(init=False)
    sigma_one_branch: bool = field(init=False)

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError("T must be positive")
        lam = TWO_PI * (self.sigma - 1.0) / self.T
        one = self.sigma == 1.0
        c = 1.0 / math.pi if one else x_coth_x(0.5 * lam).real / math.pi
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "sigma_one_branch", one)


def theta_T1(T: float, s: complex) -> complex:
    """theta_{T,1}(s), the sigma = 1 instance used by the error sum."""
    return 1.0 - (complex(s) - 1.0) / (1j * T)


def _neg_theta_cot(w: np.ndarray) -> np.ndarray:
    """-theta cot(pi theta) at theta = 1 - w, for an array
    w = (s - sigma)/(iT) taken as given, not from a rounded theta; theta
    must stay off the non-zero integers (true for zeros with
    0 < Im s <= T).

    Each half works from the argument that is exact next to its pole.
    Where Re theta < 1/2 it is -theta cot(pi theta), with the removable
    value -1/pi at theta = 0: for |theta| < 0.03 it is
    (one_minus_x_cot_x(pi theta) - 1)/pi.  Where Re theta >= 1/2 it is
    (1 - w) cot(pi w), so that near the pole theta = 1 (the lowest zeros)
    pi theta is not rounded before the pole is taken out, as in F_and_A:
    for |w| < 0.03, cot(pi w) = (1 - one_minus_x_cot_x(pi w))/(pi w).
    """
    th = 1.0 - w
    side_w = th.real >= 0.5
    x = np.where(side_w, w, th)      # cot(pi theta) = -cot(pi w)
    u = math.pi * x
    out = np.empty_like(th)
    near = np.abs(x) < 0.03
    at0 = near & ~side_w
    if at0.any():
        out[at0] = (one_minus_x_cot_x(u[at0]) - 1.0) / math.pi
    at1 = near & side_w
    if at1.any():
        out[at1] = th[at1] * (1.0 - one_minus_x_cot_x(u[at1])) / u[at1]
    rest = ~near
    if rest.any():
        ur, tr = u[rest], th[rest]
        out[rest] = (np.where(side_w[rest], tr, -tr)
                     * (np.cos(ur) / np.sin(ur)))
    return out


def omega_plus(ctx: WeightContext, s: complex) -> complex:
    """The main weight omega^+_{T,sigma}(s) = -theta cot(pi theta) + c;
    theta a non-zero integer raises PoleError."""
    w = (complex(s) - ctx.sigma) / (1j * ctx.T)
    n = round(1.0 - w.real)
    if n != 0 and abs(1.0 - w - n) < 1e-12:
        raise PoleError("cot pole: theta is a non-zero integer")
    return complex(_neg_theta_cot(np.array([w]))[0]) + ctx.c


def omega_plus_batch(ctx: WeightContext, ss: np.ndarray) -> np.ndarray:
    """omega^+ at an array of points whose theta stays off the non-zero
    integers, as omega_plus."""
    ss = np.asarray(ss, dtype=np.complex128)
    return _neg_theta_cot((ss - ctx.sigma) / (1j * ctx.T)) + ctx.c


def omega_plus_from_contour(ctx: WeightContext, s: complex) -> complex:
    """omega^+ recovered from the glued contour weight (cross-check oracle,
    valid for Im s > 0 and sigma != 1)."""
    from .extremal import glued_contour_weight
    if ctx.sigma_one_branch:
        raise ValueError("contour route needs sigma != 1")
    if complex(s).imag <= 0:
        raise ValueError("contour route needs Im s > 0")
    z = (complex(s) - 1.0) / (1j * ctx.T)
    sl = 1.0 if ctx.lam > 0 else -1.0
    phi = glued_contour_weight(ctx.lam, "majorant", z)
    return -2j * sl * (phi - (1.0 - z) / 2.0)


# ----------------------------------------------------------------------
# F and A on and near the real axis
# ----------------------------------------------------------------------

def F_profile(u):
    """F(u) = 1/pi + (1 - u) cot(pi u) at real u, in closed form: a number
    in gives a float out, an array in gives an array out.

    For u > 1/2 it is (1 - x cot x)/pi with x = pi (1 - u): 1 - u is exact
    up to u = 2 (Sterbenz), so near the removable point F(1) = 0 the
    argument of cot carries no reduction error.  On (0, 1) the absolute
    error is a few units of 2^-53 times max(1, F); near u = 1, where
    F ~ pi (1 - u)^2 / 3, that is an absolute, not a relative, bound.
    Integer u other than 1 are poles and raise PoleError.
    """
    u = np.asarray(u, dtype=np.float64)
    one = u == 1.0
    if ((u == np.rint(u)) & ~one).any():
        raise PoleError("F has a pole at every integer u but 1")
    high = u > 0.5
    x = math.pi * np.where(high, 1.0 - u, u)
    t = np.tan(np.where(one, 1.0, x))       # no 0/0 at u = 1
    out = np.where(one, 0.0, np.where(high, (1.0 - x / t) / math.pi,
                                      1.0 / math.pi + (1.0 - u) / t))
    return out if out.ndim else float(out)


def F_and_A(z: complex) -> tuple[complex, complex]:
    """F(z) = 1/pi - (1-z) cot(pi(1-z)) and A(z) = F(z) - 1/(pi z).

    On the real axis F is `F_profile`, bit for bit.  The removable point
    F(1) = 0 is filled; z = 0 (simple pole of F) and integer cot poles
    raise PoleError.  For |z| <= 0.7, A = -(1-z) f(z) with
    f(z) = 1/(pi z) - cot(pi z) = g(pi z)/(pi z), g the zeta(2n) series
    `special.one_minus_x_cot_x`, which keeps the A(0) -> 0 limit clean.
    Elsewhere F = 1/pi - w cot(pi w) with w = 1 - z, which is exact for
    1/2 <= Re z <= 2: near z = 1 the cot argument is then not rounded
    before its pole is taken out, and F and A keep an absolute error of a
    few units of 2^-53.  (Reducing a rounded pi z instead costs
    about ulp(pi) |cot'|: 2e-10 at 1 - z = 1e-7, 9e-6 at 1e-12.)
    """
    z = complex(z)
    if z == 0:
        raise PoleError("F has a simple pole at z = 0 (A(0) = 0)")
    if abs(z) <= 0.7:
        pz = math.pi * z
        A = -(1.0 - z) * (one_minus_x_cot_x(pz) / pz)
        F = complex(F_profile(z.real)) if z.imag == 0 else A + 1.0 / pz
        return F, A
    if z.imag == 0:
        F = complex(F_profile(z.real))
    else:
        w = 1.0 - z
        F = 1.0 / math.pi - w * cot_stable(math.pi * w)
    return F, F - 1.0 / (math.pi * z)


# ----------------------------------------------------------------------
# Split-error approximation of the weight on the critical line
# ----------------------------------------------------------------------

def weight_split_error(ctx: WeightContext, t: float, xi: float,
                       branch: str = "profile"):
    """Exact omega^+ + xi theta_{T,1} i at s = 1/2 + it, an approximation,
    and the approximation's error radius.

    branch="profile": the approximation F(t/T) + xi (1 - t/T) i with radius
    |sigma-1/2| T/(pi t^2) + (2.78 |sigma-1/2| + 1)/T  (0 < t <= T);
    branch="classic": the approximation iT/((s - sigma) pi) with radius
    1 + (2.78 |sigma-1/2| + 1)/T  (0 < t <= T/2).
    """
    T, sigma = ctx.T, ctx.sigma
    if not -1.0 <= xi <= 1.0:
        raise ValueError("xi must lie in [-1, 1]")
    if abs(sigma - 0.5) > T / 2.0:
        raise ValueError("|sigma - 1/2| must be at most T/2")
    s = 0.5 + 1j * t
    exact = omega_plus(ctx, s) + xi * theta_T1(T, s) * 1j
    ds = 2.78 * abs(sigma - 0.5) + 1.0
    if branch == "profile":
        if not 0 < t <= T:
            raise ValueError("need 0 < t <= T")
        approx = F_profile(t / T) + xi * (1.0 - t / T) * 1j
        radius = abs(sigma - 0.5) * T / (math.pi * t * t) + ds / T
    elif branch == "classic":
        if not 0 < t <= T / 2.0:
            raise ValueError("need 0 < t <= T/2")
        approx = 1j * T / ((s - sigma) * math.pi)
        radius = 1.0 + ds / T
    else:
        raise ValueError("unknown branch")
    return exact, approx, radius


# ----------------------------------------------------------------------
# Weighted integrals over [t0, T]
# ----------------------------------------------------------------------

def _weight_norm(t, T: float):
    """|F(u) + (1 - u) i| at u = t/T (a number or an array), the weight's
    profile on the critical line, with F from its closed form
    `F_profile`."""
    u = t / T
    return np.hypot(F_profile(u), 1.0 - u)


def _simpson_tol(length: float, g_max: float) -> float:
    """Absolute tolerance for adaptive Simpson over an interval of the
    given length of an integrand bounded by g_max: 1e-9, or
    2^-52 length g_max where that is larger.

    Each piece gets a share of the tolerance in proportion to its length,
    and its error estimate is a difference of Simpson sums whose rounding
    is about 2^-52 times its length times the integrand.  Below the
    second term the estimate is rounding noise: the pieces keep failing
    down to the depth limit, and as each depth is one array call, the
    arrays double from depth to depth.  The weighted integrals run in
    s = log t, over a length log(T/t0), on integrands bounded by
    (T/3) log(T/2pi) and by |F(t0/T) + (1 - t0/T) i|.  Up to T = 1.3e5
    the tolerance is 1e-9 for every t0 >= 2 pi; at (2500, 55) the log
    integral makes 13 integrand calls, for 3 185 points."""
    return max(1e-9, 2.0 ** -52 * length * g_max)


def weighted_log_integral(T: float, t0: float):
    """(quadrature of (2pi/T) int sqrt(F^2 + (1-t/T)^2) log(t/2pi) dt,
    the log^2 difference bound, and the sharpened bound when applicable).

    The quadrature must not exceed either returned bound.  It runs in
    s = log t, on g(s) = t |F(t/T) + (1 - t/T) i| (s - log 2pi): the
    weight's T/(pi t) behaviour near t0 becomes a smooth g.  Since
    u |F(u) + (1 - u) i| <= 1/3 on (0, 1], g stays below (T/3) log(T/2pi),
    which sets the tolerance (`_simpson_tol`).
    """
    if not (T >= t0 >= TWO_PI):
        raise ValueError("need T >= t0 >= 2 pi")

    def g(s):
        t = np.exp(s)
        return _weight_norm(t, T) * t * (s - _LOG_TWO_PI)

    lo, hi = math.log(t0), math.log(T)
    tol = _simpson_tol(hi - lo, T / 3.0 * math.log(T / TWO_PI))
    quad = adaptive_simpson(g, lo, hi, tol) * (TWO_PI / T)
    simplon = math.log(T / TWO_PI) ** 2 - math.log(t0 / TWO_PI) ** 2
    adago = None
    if t0 >= TWO_PI * math.e and T >= 3.0 * t0:
        c1 = constants_C(1)
        c2 = constants_C(2)
        adago = simplon - 2.0 * c1 * math.log(math.e * T / TWO_PI) + 2.0 * c2
    return quad, simplon, adago


def weighted_inv_integral(T: float, t0: float):
    """(quadrature of (2pi/T) int sqrt(F^2 + (1-t/T)^2) dt/t, 2/t0 - 2/T).

    It runs in s = log t, where dt/t = ds and the integrand is the weight
    |F(t/T) + (1 - t/T) i| itself; the weight decreases in t, so its value
    at t0 sets the tolerance (`_simpson_tol`)."""
    if not (T >= t0 >= TWO_PI):
        raise ValueError("need T >= t0 >= 2 pi")

    def g(s):
        return _weight_norm(np.exp(s), T)

    lo, hi = math.log(t0), math.log(T)
    tol = _simpson_tol(hi - lo, float(_weight_norm(t0, T)))
    quad = adaptive_simpson(g, lo, hi, tol) * TWO_PI / T
    return quad, 2.0 / t0 - 2.0 / T


def constants_C(k: int) -> float:
    """C_k = sum_n zeta(2n) (1/(2n)^k - 2/(2n+1)^k + 1/(2n+2)^k), k = 1, 2.

    Split into the zeta(2n)-1 part (exponentially convergent; 50 terms)
    plus the closed-form value of the zeta -> 1 part.
    """
    if k == 1:
        closed = 1.5 - 2.0 * math.log(2.0)
    elif k == 2:
        closed = 1.75 - math.pi ** 2 / 6.0
    else:
        raise ValueError("k must be 1 or 2")
    ze = np.array(ZETA_EVEN[:50])
    n = np.arange(1.0, 51.0)
    w = 1.0 / (2 * n) ** k - 2.0 / (2 * n + 1) ** k + 1.0 / (2 * n + 2) ** k
    return float(((ze - 1.0) * w).sum()) + closed


def tremic_check(n_max: int) -> bool:
    """Sample a_n on [0, 1/2] and b_n on [0, 1/3] at 1000 points each; all
    must be >= -1e-15.

    a_n(t) = (1-t)^2 - (1/(2n) - 2t/(2n+1) + t^2/(2n+2));
    b_n(t) subtracts twice that bracket and adds its squared-denominator
    variant.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    ns = np.unique(np.concatenate([
        np.arange(1, min(n_max, 64) + 1),
        np.geomspace(1, n_max, 40).astype(np.int64)]))
    ta = np.linspace(0.0, 0.5, 1000)
    tb = np.linspace(0.0, 1.0 / 3.0, 1000)
    for n in ns:
        bra_a = 1.0 / (2 * n) - 2.0 * ta / (2 * n + 1) + ta ** 2 / (2 * n + 2)
        a = (1.0 - ta) ** 2 - bra_a
        bra_b1 = (1.0 / (2 * n) - 2.0 * tb / (2 * n + 1)
                  + tb ** 2 / (2 * n + 2))
        bra_b2 = (1.0 / (2 * n) ** 2 - 2.0 * tb / (2 * n + 1) ** 2
                  + tb ** 2 / (2 * n + 2) ** 2)
        b = (1.0 - tb) ** 2 - 2.0 * bra_b1 + bra_b2
        if a.min() < -1e-15 or b.min() < -1e-15:
            return False
    return True
