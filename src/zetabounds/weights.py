"""Weight functions of the finite explicit formula and the integral
machinery that bounds their aggregate size over zeros.

The central objects: theta_{T,sigma}(s) = 1 - (s - sigma)/(iT), the weight
omega^+ = -theta cot(pi theta) + c, its real-axis profile
F(z) = 1/pi - (1-z) cot(pi(1-z)), A(z) = F(z) - 1/(pi z), and the constants
C1, C2 entering the sharpened log-integral bound.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .special import cot_stable, x_coth_x
from .util import TWO_PI, PoleError, adaptive_simpson

__all__ = [
    "WeightContext", "theta", "theta_T1", "omega_plus", "omega_plus_batch",
    "omega_plus_from_contour", "F_and_A", "weight_split_error",
    "weighted_log_integral", "weighted_inv_integral", "constants_C",
    "tremic_check", "adar_error_terms", "salmon_bound_parts",
]

# precomputed zeta(2n) for the F/A power series and the C_k series
_ZETA_EVEN = None


def _zeta_even(count: int) -> np.ndarray:
    global _ZETA_EVEN
    if _ZETA_EVEN is None or len(_ZETA_EVEN) < count:
        from .util import BERNOULLI_2K
        vals = []
        fact = 1.0
        pw = 1.0
        for n in range(1, max(count, 64) + 1):
            if 2 * n <= 40:
                # zeta(2n) = (-1)^(n+1) B_2n (2 pi)^(2n) / (2 (2n)!)
                fact *= (2 * n - 1) * (2 * n)
                pw = TWO_PI ** (2 * n)
                vals.append((-1.0) ** (n + 1) * BERNOULLI_2K[n - 1] * pw
                            / (2.0 * fact))
            else:
                s = 2 * n
                vals.append(1.0 + 2.0 ** -s + 3.0 ** -s + 4.0 ** -s)
        _ZETA_EVEN = np.array(vals)
    return _ZETA_EVEN[:count]


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


def theta(ctx: WeightContext, s: complex) -> complex:
    """theta_{T,sigma}(s) = 1 - (s - sigma)/(iT)."""
    return 1.0 - (complex(s) - ctx.sigma) / (1j * ctx.T)


def theta_T1(T: float, s: complex) -> complex:
    """theta_{T,1}(s), the sigma = 1 instance used by the error sum."""
    return 1.0 - (complex(s) - 1.0) / (1j * T)


def _neg_theta_cot(th: complex) -> complex:
    """-theta cot(pi theta) with the removable value -1/pi at theta = 0."""
    n = round(th.real)
    if abs(th - n) < 0.1:
        if n == 0:
            # -theta cot(pi theta) = -(1/pi) (pi theta) cot(pi theta)
            u = math.pi * th
            if abs(u) < 1e-150:
                return -1.0 / math.pi
            return -(u / cmath.tan(u)) / math.pi if abs(u) > 0.09 else \
                -(1.0 - u * u / 3.0 - u ** 4 / 45.0 - 2.0 * u ** 6 / 945.0
                  ) / math.pi
        if abs(th - n) < 1e-12:
            raise PoleError("cot pole: theta is a non-zero integer")
    return -th * cot_stable(math.pi * th)


def omega_plus(ctx: WeightContext, s: complex) -> complex:
    """The main weight omega^+_{T,sigma}(s) = -theta cot(pi theta) + c."""
    return _neg_theta_cot(theta(ctx, s)) + ctx.c


def omega_plus_batch(ctx: WeightContext, ss: np.ndarray) -> np.ndarray:
    """Vectorised omega^+ for points whose theta stays off the non-zero
    integers (true for zeros with 14 <= Im s <= T); theta near 0 goes
    through the series branch."""
    ss = np.asarray(ss, dtype=np.complex128)
    th = 1.0 - (ss - ctx.sigma) / (1j * ctx.T)
    u = math.pi * th
    out = np.empty_like(th)
    near0 = np.abs(th) < 0.03
    if near0.any():
        un = u[near0]
        out[near0] = -(1.0 - un ** 2 / 3.0 - un ** 4 / 45.0
                       - 2.0 * un ** 6 / 945.0) / math.pi
    rest = ~near0
    if rest.any():
        ur = u[rest]
        out[rest] = -th[rest] * (np.cos(ur) / np.sin(ur))
    return out + ctx.c


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

def _f_small(z: complex) -> complex:
    """f(z) = 1/(pi z) - cot(pi z) as a power series, |z| <= 0.7."""
    ze = _zeta_even(48)
    acc = 0.0 + 0.0j
    z2 = z * z
    for n in range(len(ze), 0, -1):
        acc = (acc + ze[n - 1]) * z2 if n > 1 else acc + ze[0]
    return (2.0 / math.pi) * z * acc


def F_and_A(z: complex) -> tuple[complex, complex]:
    """F(z) = 1/pi - (1-z) cot(pi(1-z)) and A(z) = F(z) - 1/(pi z).

    The removable point F(1) = 0 is filled; z = 0 (simple pole of F) and
    integer cot poles raise PoleError.  A = -(1-z) (1/(pi z) - cot(pi z))
    is evaluated through a power series for |z| <= 0.7, which keeps the
    A(0) -> 0 limit clean.
    """
    z = complex(z)
    if z == 0:
        raise PoleError("F has a simple pole at z = 0 (A(0) = 0)")
    if z.imag == 0 and z.real == round(z.real):
        n = int(round(z.real))
        if n == 1:
            return (0.0 + 0.0j, complex(-1.0 / math.pi))
        raise PoleError("cot pole at integer z")
    f = _f_small(z) if abs(z) <= 0.7 \
        else 1.0 / (math.pi * z) - cot_stable(math.pi * z)
    A = -(1.0 - z) * f
    return (A + 1.0 / (math.pi * z), A)


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
        approx = F_and_A(t / T)[0] + xi * (1.0 - t / T) * 1j
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

def _weight_norm(t: float, T: float) -> float:
    """|F(u) + (1 - u) i| at u = t/T, the weight's profile on the critical
    line."""
    u = t / T
    return math.hypot(F_and_A(u)[0].real, 1.0 - u)


def weighted_log_integral(T: float, t0: float):
    """(quadrature of (2pi/T) int sqrt(F^2 + (1-t/T)^2) log(t/2pi) dt,
    the log^2 difference bound, and the sharpened bound when applicable).

    The quadrature must not exceed either returned bound.
    """
    if not (T >= t0 >= TWO_PI):
        raise ValueError("need T >= t0 >= 2 pi")

    def f(t):
        return _weight_norm(t, T) * math.log(t / TWO_PI)

    # mild endpoint behaviour at t = T handled by an explicit split
    split = T * (1.0 - 1e-6)
    quad = adaptive_simpson(f, t0, min(split, T), 1e-9)
    if split < T:
        quad += adaptive_simpson(f, split, T, 1e-12)
    quad *= TWO_PI / T
    simplon = math.log(T / TWO_PI) ** 2 - math.log(t0 / TWO_PI) ** 2
    adago = None
    if t0 >= TWO_PI * math.e and T >= 3.0 * t0:
        c1 = constants_C(1)
        c2 = constants_C(2)
        adago = simplon - 2.0 * c1 * math.log(math.e * T / TWO_PI) + 2.0 * c2
    return quad, simplon, adago


def weighted_inv_integral(T: float, t0: float):
    """(quadrature of (2pi/T) int sqrt(F^2 + (1-t/T)^2) dt/t, 2/t0 - 2/T)."""
    if not (T >= t0 >= TWO_PI):
        raise ValueError("need T >= t0 >= 2 pi")

    def f(t):
        return _weight_norm(t, T) / t

    quad = adaptive_simpson(f, t0, T, 1e-9) * TWO_PI / T
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
    ze = _zeta_even(50)
    n = np.arange(1.0, 51.0)
    w = 1.0 / (2 * n) ** k - 2.0 / (2 * n + 1) ** k + 1.0 / (2 * n + 2) ** k
    return float(((ze - 1.0) * w).sum()) + closed


def tremic_check(n_max: int, samples: int = 1000) -> bool:
    """Sample a_n on [0, 1/2] and b_n on [0, 1/3]; all must be >= -1e-15.

    a_n(t) = (1-t)^2 - (1/(2n) - 2t/(2n+1) + t^2/(2n+2));
    b_n(t) subtracts twice that bracket and adds its squared-denominator
    variant.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    ns = np.unique(np.concatenate([
        np.arange(1, min(n_max, 64) + 1),
        np.geomspace(1, n_max, 40).astype(np.int64)]))
    ta = np.linspace(0.0, 0.5, samples)
    tb = np.linspace(0.0, 1.0 / 3.0, samples)
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


# ----------------------------------------------------------------------
# Error-term building blocks for the zero-sum bound
# ----------------------------------------------------------------------

def adar_error_terms(t0: float, T: float, sigma: float):
    """(P1(log(T/2pi)), err1(t0), err2(t0, T)) entering the tail bound

    (1/2pi)(log^2(T/2pi) - log^2(t0/2pi) - P1) + err1/t0 + err2/T

    for the weighted sum over zeros with ordinates in (t0, T].
    """
    if not (t0 >= TWO_PI * math.e and T >= 3.0 * t0):
        raise ValueError("need t0 >= 2 pi e and T >= 3 t0")
    if abs(sigma - 0.5) > T / 2.0:
        raise ValueError("|sigma - 1/2| must be at most T/2")
    c1 = constants_C(1)
    c2 = constants_C(2)
    p1 = 2.0 * c1 * math.log(T / TWO_PI) + 2.0 * (c1 - c2)
    ds = abs(sigma - 0.5)
    err1 = (2.0 * (0.4 * math.log(t0) + 4.2)
            + (math.log(math.e * t0 / TWO_PI) / math.pi
               + 4.0 / (5.0 * t0) * (math.log(t0) + 41.0 / 4.0)) * ds)
    err2 = ((2.78 * ds + 1.0) * math.log(T / TWO_PI) - 0.4
            + math.pi ** 2 * t0 / T * (0.4 * math.log(t0) + 4.0))
    return p1, err1, err2


def salmon_bound_parts(T: float, t0: float, sigma: float):
    """(coefficient of sum 1/|rho - sigma|, additive remainder) for the
    low-ordinate part: (2pi/T) sum |omega^+ + xi theta i| over gamma <= t0
    is at most 2 sum 1/|rho - sigma| + c (t0/T) log(t0/2pi)."""
    if not (T >= 4.0 * math.pi and TWO_PI <= t0 <= T / 2.0):
        raise ValueError("need T >= 4 pi and 2 pi <= t0 <= T/2")
    if abs(sigma - 0.5) > T / 2.0:
        raise ValueError("|sigma - 1/2| must be at most T/2")
    c = 1.0 + (2.78 * abs(sigma - 0.5) + 1.0) / T
    return 2.0, c * t0 / T * math.log(t0 / TWO_PI)
