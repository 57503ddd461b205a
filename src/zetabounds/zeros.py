"""Nontrivial zeta zeros: finding, persistence, counting statistics and
weighted sums.

Zeros are located as sign changes of the real-valued rotation
Z(t) = e^(i theta(t)) zeta(1/2 + it) on the Gram points, where Gram's law
predicts them.  Rosser blocks (runs of Gram intervals between good Gram
points) are subdivided until each shows as many sign changes as it has
intervals, and Turing's method, applied to a few blocks above t_max,
proves that no zero was missed; the sign changes are then refined by the
Anderson-Bjorck variant of regula falsi.  Every ZeroList, computed or read,
is also vetted against the zero-counting remainder
Q(t) = N(t) - (t/2pi) log(t/(2pi e)) - 7/8.  Z(t) is evaluated by the
Riemann-Siegel formula from T_RS up and by Euler-Maclaurin below it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .special import log_deriv_zeta, zeta_batch_critical
from .util import TWO_PI, gauss_kronrod

__all__ = [
    "ZeroList", "ZeroCountStats", "MissedZeroError", "ZeroFileError",
    "hardy_theta", "hardy_z_batch", "gram_points", "find_zeros",
    "load_zeros", "save_zeros", "bundled_zeros", "count_and_Q", "lehman_sum", "box_count_bound",
    "inverse_square_tail", "local_log_deriv",
]

T_MAX_CEILING = 2.5e4
FIRST_ZERO = 14.134725141734694
FIRST_ZERO_TOL = 1e-4     # how far a list's first ordinate may lie from it


class MissedZeroError(RuntimeError):
    """The zero scan failed its counting-function completeness check."""


class ZeroFileError(ValueError):
    """A zero file failed to parse or violated a sanity invariant."""


def _q_bound(t):
    """(1/5) log t + 2, the bound on the remainder |Q(t)| of N(t) (a scalar
    or an array)."""
    return 0.2 * np.log(t) + 2.0


def _smooth_count(t):
    """(t/2pi) log(t/(2pi e)) + 7/8, the main term of N(t)."""
    t = np.asarray(t, dtype=np.float64)
    return t / TWO_PI * np.log(t / (TWO_PI * math.e)) + 7.0 / 8.0


@dataclass(frozen=True)
class ZeroCountStats:
    t: float
    N: int
    Q: float


@dataclass(frozen=True)
class ZeroList:
    """Ascending ordinates of nontrivial zeros, complete through t_max."""

    ordinates: np.ndarray
    t_max: float
    source: str = "computed"
    rh_assumed: bool = True

    def __post_init__(self):
        # a read-only copy: the caller's array stays writable, and no
        # in-place write can change a list that a BoundContext was built on
        g = np.array(self.ordinates, dtype=np.float64)
        g.flags.writeable = False
        object.__setattr__(self, "ordinates", g)
        if not (np.all(np.isfinite(g)) and math.isfinite(self.t_max)):
            raise ZeroFileError("ordinates and t_max must be finite")
        if g.size and not np.all(np.diff(g) > 0):
            raise ValueError("ordinates must be strictly ascending")
        if g.size and abs(g[0] - FIRST_ZERO) > FIRST_ZERO_TOL:
            raise ZeroFileError(
                f"first ordinate {g[0]:.6f} is not the known first zero")
        if g.size == 0 and self.t_max >= FIRST_ZERO + FIRST_ZERO_TOL:
            raise MissedZeroError("empty list cannot be complete past the "
                                  "first zero")
        if g.size:
            if g[-1] > self.t_max:
                raise ValueError("ordinate above t_max")
            self._check_prefix_counts()
        # the zeros listed are all zeros through t_max, so N(t_max) = size
        if self.t_max >= 1.0 and (abs(g.size - _smooth_count(self.t_max))
                                  > _q_bound(self.t_max)):
            raise MissedZeroError(
                f"{g.size} ordinates cannot be all zeros through t_max = "
                f"{self.t_max:g}")

    def _check_prefix_counts(self) -> None:
        g = self.ordinates
        k = np.arange(1, g.size + 1, dtype=np.float64)
        smooth = _smooth_count(g)
        q_after = k - smooth       # Q at gamma (count includes the zero)
        q_before = (k - 1) - smooth
        bound = _q_bound(g)
        bad = (np.abs(q_after) > bound) | (np.abs(q_before) > bound)
        if bad.any():
            i = int(np.argmax(bad))
            raise MissedZeroError(
                f"counting remainder violates its bound near t = {g[i]:.3f}")

    def count_below(self, t: float) -> int:
        return int(np.searchsorted(self.ordinates, t, side="right"))

    def __len__(self) -> int:
        return int(self.ordinates.size)


# ----------------------------------------------------------------------
# Hardy Z
# ----------------------------------------------------------------------

def hardy_theta(t):
    """Asymptotic theta(t) = (t/2) log(t/2pi) - t/2 - pi/8 + 1/(48t)
    + 7/(5760 t^3); adequate for t >= 10."""
    t = np.asarray(t, dtype=np.float64)
    return (t / 2.0 * np.log(t / TWO_PI) - t / 2.0 - math.pi / 8.0
            + 1.0 / (48.0 * t) + 7.0 / (5760.0 * t ** 3))


# Riemann-Siegel corrections C_0 .. C_4 as power series in z = p - 1/2,
# where p is the fractional part of sqrt(t/2pi).  C_k is even in z for
# even k and odd for odd k, so row k holds the coefficients of
# z^(2j + k mod 2), j = 0 .. 19.  They come from the Taylor series of
# Psi(p) = cos 2pi(p^2 - p - 1/16) / cos 2pi p at p = 1/2, through
#   C0 = Psi,  C1 = -Psi'''/(96 pi^2),
#   C2 = Psi''/(64 pi^2) + Psi^(6)/(18432 pi^4),
#   C3 = -Psi'/(64 pi^2) - Psi^(5)/(3840 pi^4) - Psi^(9)/(5308416 pi^6),
#   C4 = Psi/(128 pi^2) + 19 Psi^(4)/(24576 pi^4)
#        + 11 Psi^(8)/(5898240 pi^6) + Psi^(12)/(2038431744 pi^8),
# computed with mpmath.taylor by `rs_coefficient_table` in
# tests/test_zeros.py, which also checks these literals against it.  On
# |z| <= 1/2 the first omitted term of row k, times a^-k at t = T_RS, is
# below 2e-18.
_RS_COEFFS = (
    (0.3826834323650898, 1.7489618723100817, 2.118025207685496,
     -0.8707216670511481, -3.4733112243465167, -1.6626947308999325,
     1.216731288919232, 1.3014304161007977, 0.03051102182736167,
     -0.3755803051545095, -0.1085784416564066, 0.051832902999549624,
     0.029999480619902277, -0.0022759396706125644, -0.004382647416580339,
     -0.0004064230183729847, 0.0004006097785422114, 8.971057991388841e-05,
     -2.3025650027239108e-05, -9.380006601906792e-06),
    (-0.053650205256750697, 0.11027818741081483, 1.2317200154315227,
     1.2634964862799458, -1.695108997559503, -2.9998711967650102,
     -0.10819944959899208, 1.9407662946212714, 0.7838423561500687,
     -0.5054829667900366, -0.38450723496057976, 0.03747264646531532,
     0.09092026610973176, 0.01044923755006451, -0.012582979651583417,
     -0.003399503721151274, 0.0010410950537714891, 0.0005010949051118486,
     -3.956359669003182e-05, -4.7624592453571896e-05),
    (0.005188542830293168, 0.0012378633552253898, -0.18137505725166997,
     0.14291492748532125, 1.3303391766687565, 0.3522472353403734,
     -2.421001595891951, -1.6760787022538108, 1.3689416723328371,
     1.5539019430222982, -0.1722164273472998, -0.6359068055045431,
     -0.09911649873041208, 0.14033480067387008, 0.04782352019827292,
     -0.017356040641479782, -0.010225012534028593, 0.0009274149159794888,
     0.0013572194372373386, 6.41369012029388e-05),
    (-0.0026794321814389136, 0.02995372109103515, -0.042570172541828696,
     -0.28997965779803886, 0.4888831999235446, 1.230855876395746,
     -0.8297560708527408, -2.249763536666567, 0.07845139961005472,
     1.7467492800868893, 0.45968080979749937, -0.6619353471039775,
     -0.31590441036173633, 0.12844792545207495, 0.10073382716626152,
     -0.009530183848825268, -0.019264421687514088, -0.001246463715876929,
     0.0024243969641103086, 0.000437647697741857),
    (0.00046483389361763383, -0.004022642946136188, 0.003847177051796127,
     0.06581175135809486, -0.19604124343694448, -0.20854053686358853,
     0.9507754185141751, 0.5341535312914873, -1.67634944117634,
     -1.076747157875129, 1.235339301656597, 1.0257825340057276,
     -0.40124095793988546, -0.5036663995108304, 0.03573487795502745,
     0.14431763086785418, 0.01509152741790347, -0.026098874779194363,
     -0.006126628379519262, 0.003077503129870841),
)

# Lowest height evaluated by Riemann-Siegel; see hardy_z_batch.
T_RS = 400.0
_RS_BLOCK = 1 << 16       # entries of one main-sum phase block, rows x N


def _riemann_siegel_z(ts: np.ndarray) -> np.ndarray:
    """Z(t) = 2 sum_{n <= N} n^(-1/2) cos(theta(t) - t log n)
    + (-1)^(N-1) a^(-1/2) sum_{k=0}^{4} C_k(p) a^(-k),
    with a = sqrt(t/2pi), N = floor(a), p = a - N.

    The heights are grouped by N (a stable sort, which leaves ascending
    input in place), and each group's main sum is one real matrix-vector
    product of the cosines with the amplitudes n^(-1/2), n <= N, in
    blocks of at most _RS_BLOCK phases.
    """
    a = np.sqrt(ts / TWO_PI)
    n_terms = np.floor(a)
    th = hardy_theta(ts)
    out = np.empty_like(ts)
    order = np.argsort(n_terms, kind="stable")
    n_sorted = n_terms[order]
    starts = np.flatnonzero(np.diff(n_sorted, prepend=-1.0))
    stops = np.append(starts[1:], ts.size)
    n = np.arange(1.0, n_sorted[-1] + 1.0)
    logn, amp = np.log(n), n ** -0.5
    for start, stop in zip(starts, stops):
        k = int(n_sorted[start])
        rows = max(_RS_BLOCK // k, 1)
        for lo in range(start, stop, rows):
            idx = order[lo:min(lo + rows, stop)]
            phase = np.multiply.outer(ts[idx], -logn[:k])
            phase += th[idx, None]
            out[idx] = 2.0 * (np.cos(phase, out=phase) @ amp[:k])
    corr = _rs_correction(a, a - n_terms - 0.5)
    sign = np.where(n_terms % 2 == 1.0, 1.0, -1.0)     # (-1)^(N-1)
    return out + sign * corr / np.sqrt(a)


# _RS_COEFFS by column, highest power of z^2 first: one Horner step each
_RS_COLUMNS = np.array(_RS_COEFFS).T[::-1, :, None]


def _rs_correction(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_{k=0}^{4} C_k(z) a^(-k), by Horner in 1/a, with C_k from
    _RS_COEFFS at z = p - 1/2.  The five C_k are one Horner in z^2 over a
    (5, n) array: about 55 numpy operations whatever n, where a Horner per
    row took 110, with the same arithmetic per entry."""
    z2 = z * z
    ck = np.zeros((len(_RS_COEFFS), z.size))
    for col in _RS_COLUMNS:
        ck *= z2
        ck += col
    ck[1::2] *= z
    corr = np.zeros_like(z)
    for row in ck[::-1]:
        corr = corr / a + row
    return corr


def hardy_z_batch(ts: np.ndarray) -> np.ndarray:
    """Z(t) = Re(e^(i theta) zeta(1/2+it)) for finite heights t >= 10,
    best in ascending order; any other height is a ValueError.

    From T_RS = 400 up, Z is the Riemann-Siegel main sum of
    N = floor(sqrt(t/2pi)) terms, one real matrix-vector product per run
    of heights with the same N, plus the corrections C_0 .. C_4.  Gabcke
    (1979) bounds the truncation error by 0.017 t^(-11/4) for t >= 200:
    1.2e-9 at t = 400, and below the rounding of the phases
    theta - t log n from t ~ 1000 on.  Against mpmath.siegelz at 1200
    seeded heights in [400, 2.5e4] the error was at most 8.1e-10, and it
    stayed below
        0.017 t^(-11/4) + 10 * 2^-52 * t log t,
    the bound this function is tested to (1.2e-9 at 400, 5.6e-10 at 2.5e4),
    also above the finder's ceiling: at 8 seeded heights in [2.5e4, 1e5]
    the error was at most 5.4e-10, 4.2 times below it.
    Below T_RS, Z is e^(i theta) zeta_batch_critical(t), the Euler-Maclaurin
    sum of about 2.2 t/2pi terms, within _EM_Z_ERROR = 1e-10; its terms
    n^(-1/2 - it) take a cosine and a sine for the primes n only, and one
    complex product each for the other n.

    T_RS is set by measurement against that Euler-Maclaurin oracle.  With
    T_RS = 200, where Gabcke's bound is 8e-9, 33 ordinates of
    find_zeros(2504) between t = 202 and 329 lay more than the finder's
    tol = 1e-9 from every sign change of the oracle, and up to 2.6e-9 from
    mpmath.zetazero.  With T_RS = 400 every ordinate to 2504 lies within
    tol of one.
    """
    ts = np.asarray(ts, dtype=np.float64)
    if not (np.all(ts >= 10.0) and np.all(ts < math.inf)):
        raise ValueError("hardy_z_batch needs finite heights t >= 10")
    out = np.empty(ts.shape)
    high = ts >= T_RS
    if high.any():
        out[high] = _riemann_siegel_z(ts[high])
    if not high.all():
        low = ts[~high]
        out[~high] = (np.exp(1j * hardy_theta(low))
                      * zeta_batch_critical(low)).real
    return out


# ----------------------------------------------------------------------
# Zero finding
# ----------------------------------------------------------------------

# Bound on |computed Z - Z| below T_RS, where hardy_z_batch rotates
# zeta_batch_critical.  Just below t = 400 (N = 161 main terms) the
# Euler-Maclaurin remainder and rounding floor that special._zeta_em_all
# bounds come to 3.4e-11; the main sum's terms, each within
# 2 n^(-1/2) 2^-52 (t log n + 1) of n^(-1/2 - it) (special._dirichlet_table),
# add at most 1.5e-11, and their summation 4.3e-13.  At 150 seeded heights
# in [10, 400) the error against mpmath.siegelz was below 2.4e-12 (2.7e-12
# at a second seed).
_EM_Z_ERROR = 1e-10
TURING_T_MIN = 168.0 * math.pi  # Turing's integral bound holds above it
_TURING_MARGIN = 32     # Gram intervals scanned above the one past t_top
_ROSSER_ROUNDS = 10     # bisection rounds before a short block is missed


def _z_error_bound(t: np.ndarray) -> np.ndarray:
    """Bound on |hardy_z_batch(t) - Z(t)|: Gabcke's truncation bound plus
    the phase rounding from T_RS up (see hardy_z_batch), _EM_Z_ERROR
    below."""
    return np.where(t >= T_RS,
                    0.017 * t ** -2.75 + 10 * 2.0 ** -52 * t * np.log(t),
                    _EM_Z_ERROR)


def _theta_prime(t):
    """theta'(t) = (1/2) log(t/2pi) - 1/(48 t^2) - 7/(1920 t^4), the
    derivative of hardy_theta."""
    return (0.5 * np.log(t / TWO_PI) - 1.0 / (48.0 * t * t)
            - 7.0 / (1920.0 * t ** 4))


def gram_points(n) -> np.ndarray:
    """Gram points g_n, the solutions of hardy_theta(g_n) = n pi, for
    integers n >= 0 (g_0 = 17.8455...).

    Dropping the 1/t terms of theta gives (t/2) log(t/(2 pi e)) =
    (n + 1/8) pi, solved by t = 2 pi (n + 1/8) / W((n + 1/8)/e) with the
    Lambert W from four Newton steps; three Newton steps on hardy_theta
    then remove the rest.  g_n is good when (-1)^n Z(g_n) exceeds the
    error bound of the computed Z (_z_error_bound) plus the most Z can
    move between the computed and the exact g_n (_gram_offset,
    _z_prime_bound), so that Z certainly has the sign Gram's law predicts.
    """
    n = np.asarray(n, dtype=np.float64)
    x = (n + 0.125) / math.e
    w = np.log1p(x)
    for _ in range(4):
        ew = np.exp(w)
        w -= (w * ew - x) / (ew * (w + 1.0))
    t = TWO_PI * (n + 0.125) / w
    for _ in range(3):
        t -= (hardy_theta(t) - n * math.pi) / _theta_prime(t)
    return t


def _gram_offset(t: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Bound on |t - g_n| for computed Gram points t = gram_points(n).

    It is the residual hardy_theta(t) - n pi left by the last Newton
    step, plus 4 * 2^-52 (n pi + t/2) for the rounding of that residual
    (the largest term of hardy_theta is (t/2) log(t/2pi), about
    theta + t/2; at 3000 seeded n up to the ceiling its rounding was at
    most 2.3 ulp of n pi + t/2), divided by theta'(t).  It is 2.2e-12 to
    2.5e-12 near t = 2500 and 1.9e-11 to 2.3e-11 near 21900.
    """
    npi = n * math.pi
    res = np.abs(hardy_theta(t) - npi) + 4.0 * 2.0 ** -52 * (npi + 0.5 * t)
    return res / _theta_prime(t)


def _z_prime_bound(t: np.ndarray) -> np.ndarray:
    """Bound on |Z'(t)| from the Riemann-Siegel formula (see
    hardy_z_batch): 2 sum_{n <= N} n^(-1/2) |theta'(t) - log n| for the
    main sum, plus a^(-3/2) / 2 for the corrections, with a = sqrt(t/2pi)
    and N = floor(a) >= 1.

    The corrections' bound follows from their power series: with
    |C_k|, |C_k'| <= sum |c_kj| (1/2)^j and da/dt = 1/(4 pi a), the t
    derivative of a^(-1/2) sum C_k(p) a^(-k) is at most 0.41 a^(-3/2) for
    a >= 1.  theta' - log n >= 0 for every n < N (theta' >= log N -
    3e-4 for t >= 10), so only the n = N term can take an absolute value.
    The derivative of the Riemann-Siegel remainder is not bounded here:
    against mpmath.siegelz at 120 seeded heights in [10, 2.5e4] this
    bound was at least 1.09 |Z'|.  It is 19.1 near t = 2500 and 41.7 near
    21900, where |Z'| times _gram_offset is 4.8e-11 and 9.6e-10.
    """
    a = np.sqrt(t / TWO_PI)
    big_n = np.maximum(np.floor(a), 1.0).astype(np.int64)
    n = np.arange(1.0, big_n.max() + 1.0)
    amp = n ** -0.5
    s0, s1 = np.cumsum(amp), np.cumsum(amp * np.log(n))
    dth = _theta_prime(t)
    last = dth - np.log(big_n)
    main = (dth * s0[big_n - 1] - s1[big_n - 1]
            + amp[big_n - 1] * (np.abs(last) - last))
    return 2.0 * main + 0.5 * a ** -1.5


def _turing_block_count(g_p: float) -> int:
    """K of Brent's Theorem 3.2 for blocks ending at or below g_p."""
    lg = math.log(g_p)
    return math.ceil(0.0061 * lg * lg + 0.08 * lg)


def _refine_brackets(a: np.ndarray, b: np.ndarray, za: np.ndarray,
                     zb: np.ndarray, tol: float) -> np.ndarray:
    """Midpoints of the sign-change brackets [a, b] of Z, each narrowed to
    width <= 2 tol, so that every midpoint is within tol of a root.

    Vectorised Anderson-Bjorck method (N. Anderson and A. Bjorck, "A new
    high order method of regula falsi type for computing a root of an
    equation", BIT 13 (1973) 253-264), a modified regula falsi: each step
    evaluates Z at the secant point c of the bracket and keeps the part
    that still changes sign.  An endpoint kept twice in a row has its Z
    value scaled by m = 1 - Z(c)/z, with z the value of the endpoint that
    c replaced (both have one sign, so m < 1), or by 1/2 where m <= 0 as
    in the Illinois method; this pulls the next secant point toward it,
    past the root.  The point is held at least tol inside the bracket, so
    once the secant estimate is within tol of the root the next one or
    two steps close the bracket to width <= tol.  On the brackets of
    find_zeros(2504) it spends 6.28 Z points per bracket in 13
    hardy_z_batch calls, where the Illinois halving spent 7.21 in 15.
    """
    a, b, za, zb = a.copy(), b.copy(), za.copy(), zb.copy()
    kept = np.zeros(a.size, dtype=np.int8)     # -1: a kept, +1: b kept
    live = np.flatnonzero(b - a > 2.0 * tol)
    while live.size:
        al, bl, fa, fb = a[live], b[live], za[live], zb[live]
        c = np.clip(bl - fb * (bl - al) / (fb - fa), al + tol, bl - tol)
        zc = hardy_z_batch(c)
        right = np.sign(zc) == np.sign(fa)     # root lies in [c, b]
        # m lies in (0, 1] unless Z(c) >= the replaced value, or that value
        # was an exact zero of the computed Z
        with np.errstate(divide="ignore", invalid="ignore"):
            m = 1.0 - zc / np.where(right, fa, fb)
        m[~((m > 0.0) & (m <= 1.0))] = 0.5
        scale = np.where(kept[live] == np.where(right, 1, -1), m, 1.0)
        keep_b, keep_a = live[right], live[~right]
        a[keep_b], za[keep_b] = c[right], zc[right]
        b[keep_a], zb[keep_a] = c[~right], zc[~right]
        zb[keep_b] *= scale[right]
        za[keep_a] *= scale[~right]
        kept[keep_b], kept[keep_a] = 1, -1
        live = live[b[live] - a[live] > 2.0 * tol]
    return 0.5 * (a + b)


def find_zeros(t_max: float, tol: float = 1e-9) -> ZeroList:
    """All ordinates <= t_max located to +-tol, certified complete.

    The scan runs on Gram points (see gram_points), with t = 10 in front
    of g_0 as a pseudo Gram point of index -1: Z(10) < 0, and [10, g_0]
    holds the first zero.  One hardy_z_batch call evaluates Z at them all.
    Good points (gram_points) cut the scan into Rosser blocks; a block of
    k Gram intervals must show k sign changes of Z.  Each round bisects
    every gap of every block still short of that, with one hardy_z_batch
    call for all of them; a block still short after _ROSSER_ROUNDS rounds
    raises MissedZeroError.

    Turing's method bounds the count from above.  By Brent (1979),
    Theorem 3.2, if K consecutive Rosser blocks with union [g_N, g_p)
    satisfy Rosser's rule and K >= 0.0061 log^2(g_p) + 0.08 log(g_p), then
    N(g_N) <= N + 1.  Its proof bounds the integral of S(t) by Turing's
    estimate in Lehman's form, stated for heights above 168 pi; so g_N
    is the first good Gram point at or above max(t_max, 168 pi),
    and the scan runs on through K blocks past it.  The Rosser blocks
    below g_N show at least N + 1 sign changes, so N(g_N) = N + 1 and
    every zero through g_N is one of them.  More sign changes than that,
    or a Turing block that breaks Rosser's rule, raise MissedZeroError.

    The sign changes at or below t_max are refined by the Anderson-Bjorck
    method (_refine_brackets) to brackets at most 2 tol wide; each
    ordinate is its bracket's midpoint, within tol of a sign change of the
    computed Z.  A value of Z counts as a sign only where it exceeds
    _z_error_bound; a Gram point is good only where (-1)^n Z exceeds that
    bound plus _z_prime_bound times _gram_offset, the most Z can change
    between the computed and the exact Gram point.  ZeroList's |Q(t)|
    check stays as a backstop.  The scan costs 1.24 Z points per zero at
    T = 2504 and 1.32 at 21900, the refinement 6.28 and 6.32.
    """
    if not 0 < t_max <= T_MAX_CEILING:
        raise ValueError(f"t_max must lie in (0, {T_MAX_CEILING:g}]")
    # a coarser tol would fail ZeroList's first-ordinate check instead
    if not 1e-9 <= tol <= FIRST_ZERO_TOL:
        raise ValueError("tol must be finite and in [1e-9, 1e-4]")
    if t_max < FIRST_ZERO - 0.5:
        return ZeroList(np.array([]), t_max, source="computed")

    # Gram indices -1 (t = 10) .. n_top, well past the first Gram point
    # above t_top, so that K Rosser blocks start above t_top
    t_top = max(t_max, TURING_T_MIN)
    n_top = int(hardy_theta(t_top) / math.pi) + 1 + _TURING_MARGIN
    n = np.arange(-1, n_top + 1)
    t = np.concatenate([[10.0], gram_points(n[1:])])
    z = hardy_z_batch(t)
    err = _z_error_bound(t)
    # t = 10 is exact; a Gram point is only as good as where it lies
    moved = np.concatenate(
        [[0.0], _z_prime_bound(t[1:]) * _gram_offset(t[1:], n[1:])])
    good = np.flatnonzero(np.where(n % 2, -z, z) > err + moved)
    if good.size == 0 or good[0] != 0:
        raise MissedZeroError("Z(10) is not certainly negative")
    n_turing = int(np.searchsorted(t[good], t_top))     # the block at g_N
    k_blocks = _turing_block_count(t[-1])
    if n_turing + k_blocks >= good.size:
        raise MissedZeroError(
            f"fewer than {k_blocks} Rosser blocks in {_TURING_MARGIN} Gram "
            f"intervals above t = {t_top:g}")
    edges = good[:n_turing + k_blocks + 1]
    need = np.diff(edges)               # Gram intervals per block
    edge_t = t[edges]
    t, z = t[:edges[-1] + 1], z[:edges[-1] + 1]
    sure = np.abs(z) > err[:edges[-1] + 1]

    for rounds in range(_ROSSER_ROUNDS + 1):
        ts, zs = t[sure], z[sure]
        flips = np.flatnonzero(np.signbit(zs[:-1]) != np.signbit(zs[1:]))
        found = np.bincount(np.searchsorted(edge_t, ts[flips], "right") - 1,
                            minlength=need.size)
        short = found < need
        if not short.any():
            break
        if rounds == _ROSSER_ROUNDS:
            i = int(np.argmax(short))
            raise MissedZeroError(
                f"Rosser block [{edge_t[i]:.6f}, {edge_t[i + 1]:.6f}] shows "
                f"{found[i]} of {need[i]} sign changes")
        gaps = np.flatnonzero(
            short[np.searchsorted(edge_t, t[:-1], "right") - 1])
        mid = 0.5 * (t[gaps] + t[gaps + 1])
        zm = hardy_z_batch(mid)
        t = np.insert(t, gaps + 1, mid)
        z = np.insert(z, gaps + 1, zm)
        sure = np.insert(sure, gaps + 1, np.abs(zm) > _z_error_bound(mid))

    if found[:n_turing].sum() > need[:n_turing].sum():
        raise MissedZeroError(
            f"{found[:n_turing].sum()} sign changes through "
            f"t = {edge_t[n_turing]:.6f}, where Turing's method allows "
            f"{need[:n_turing].sum()}")
    flips = flips[ts[flips] <= t_max]
    roots = _refine_brackets(ts[flips], ts[flips + 1], zs[flips],
                             zs[flips + 1], tol)
    return ZeroList(roots[roots <= t_max], t_max, source="computed")


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------

def save_zeros(zl: ZeroList, path: str) -> None:
    """Zero file: '#'-comments, '# t_max=<v> rh=<0|1>' header, one ordinate
    per line with nine decimals, ASCII, LF line endings."""
    lines = [f"# t_max={zl.t_max:.9f} rh={1 if zl.rh_assumed else 0}\n"]
    lines += [f"{g:.9f}\n" for g in zl.ordinates]
    from .util import atomic_write_text
    atomic_write_text(path, "".join(lines))


def load_zeros(path: str) -> ZeroList:
    """Parse a zero file; enforces the ZeroList invariants on load."""
    ords = []
    t_max = None
    rh = True
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    if tok.startswith("t_max="):
                        t_max = float(tok[6:])
                    elif tok.startswith("rh="):
                        rh = tok[3:] == "1"
                continue
            try:
                v = float(line)
            except ValueError as e:
                raise ZeroFileError(f"{path}:{lineno}: not a number: "
                                    f"{line!r}") from e
            if "e" in line or "E" in line:
                raise ZeroFileError(f"{path}:{lineno}: exponent notation "
                                    "not allowed")
            ords.append(v)
    arr = np.array(ords)
    if arr.size and not np.all(np.diff(arr) > 0):
        bad = int(np.argmax(np.diff(arr) <= 0)) + 2
        raise ZeroFileError(f"{path}:{bad}: ordinates not ascending")
    if t_max is None:
        t_max = float(arr[-1]) if arr.size else 0.0
    return ZeroList(arr, t_max, source=path, rh_assumed=rh)


def bundled_zeros() -> ZeroList:
    """The packaged first-100-ordinates fixture."""
    here = os.path.dirname(__file__)
    return load_zeros(os.path.join(here, "data", "zeros100.txt"))


# ----------------------------------------------------------------------
# Counting statistics and weighted sums
# ----------------------------------------------------------------------

def count_and_Q(zl: ZeroList, t: float) -> ZeroCountStats:
    """Exact N(t) from the list plus the remainder Q(t); asserts both the
    |Q| <= (1/5) log t + 2 bound and N(T) <= (T/2pi) log(T/2pi)."""
    if t > zl.t_max:
        raise ValueError("height exceeds the list's completeness range")
    n = zl.count_below(t)
    q = n - float(_smooth_count(t))
    if t >= 1.0 and abs(q) > _q_bound(t):
        raise MissedZeroError(f"|Q({t:g})| violates its bound")
    if t >= TWO_PI and n > t / TWO_PI * math.log(t / TWO_PI):
        raise MissedZeroError(f"N({t:g}) violates the crude upper bound")
    return ZeroCountStats(t=t, N=n, Q=q)


def lehman_sum(zl: ZeroList, phi, t0: float, t1: float, direction: str):
    """(exact sum of phi over ordinates in (t0, t1], decreasing-case RHS,
    increasing-case RHS).

    phi must be non-negative and monotone in the declared direction
    ('decreasing' or 'increasing'); a sampled direction mismatch raises.

    The integrals of phi log(t/2pi) and phi/t run on gauss_kronrod.  Its
    panel estimates cannot fall below the change of the integrand across
    one rounding step of t, up to 2^-52 t1.  For a phi that changes by at
    most its own size over a unit of t (as verify's weights do), that
    puts each tolerance at 1e-10, or 2^-52 (t1 - t0) t1 f_max where that
    is larger, with f_max the integrand's bound from the probe values.
    """
    if not (14.0 <= t0 <= t1 <= zl.t_max):
        raise ValueError("need 14 <= t0 <= t1 <= t_max")
    if direction not in ("decreasing", "increasing"):
        raise ValueError("direction must be 'decreasing' or 'increasing'")
    probe = np.linspace(t0, t1, 64)
    pv = np.array([phi(float(x)) for x in probe], dtype=np.float64)
    if pv.min() < -1e-12:
        raise ValueError("phi must be non-negative")
    d = np.diff(pv)
    if direction == "decreasing" and d.max() > 1e-12 * max(pv.max(), 1.0):
        raise ValueError("phi is not decreasing on [t0, t1]")
    if direction == "increasing" and d.min() < -1e-12 * max(pv.max(), 1.0):
        raise ValueError("phi is not increasing on [t0, t1]")

    g = zl.ordinates
    inwin = g[(g > t0) & (g <= t1)]
    exact = float(sum(phi(float(x)) for x in inwin))

    main = invt = 0.0
    if t1 > t0:
        def phis(t):
            return np.fromiter(map(phi, t.tolist()), np.float64, t.size)
        # phi is monotone, so the probes hold its largest value
        scale = 2.0 ** -52 * (t1 - t0) * t1 * float(pv.max())
        main = gauss_kronrod(
            lambda t: phis(t) * np.log(t / TWO_PI), (t0, t1),
            max(1e-10, scale * math.log(t1 / TWO_PI)))[0] / TWO_PI
        invt = gauss_kronrod(lambda t: phis(t) / t, (t0, t1),
                             max(1e-10, scale / t0))[0]
    q0 = count_and_Q(zl, t0).Q
    q1 = count_and_Q(zl, t1).Q
    rhs_dec = main + phi(t0) * (_q_bound(t0) - q0) + invt / 5.0
    rhs_inc = (main + phi(t1) * (_q_bound(t1) + q1)
               - invt / 5.0 - phi(t0) * (_q_bound(t0) + q0))
    return exact, rhs_dec, rhs_inc


def box_count_bound(T: float, a: float) -> float:
    """Upper bound for N(T+a) - N((T-a)^-): (2/5) log T + 4 plus the
    smooth-density window (a/pi) log(T/2pi)."""
    if not (T >= 1.0 and 0 < a < T):
        raise ValueError("need T >= 1 and 0 < a < T")
    return 2.0 * _q_bound(T) + a / math.pi * math.log(T / TWO_PI)


def inverse_square_tail(zl: ZeroList, t0: float):
    """(sum_{gamma > t0} 1/gamma^2 with the above-t_max part estimated
    analytically, the closed-form upper bound).

    The analytic remainder's own uncertainty must be below 1e-6.
    """
    if t0 < 14.0:
        raise ValueError("t0 must be at least 14")
    if t0 > zl.t_max:
        raise ValueError("t0 exceeds the list height")
    g = zl.ordinates
    tm = zl.t_max
    exact_part = float(np.sum(1.0 / g[g > t0] ** 2))
    # density integral for the invisible tail, with a rigorous uncertainty
    remainder = (math.log(tm / TWO_PI) + 1.0) / (TWO_PI * tm)
    q_tm = abs(count_and_Q(zl, tm).Q)
    uncertainty = (q_tm + 0.4 * math.log(tm) + 4.1) / tm ** 2
    if uncertainty >= 1e-6:
        raise ValueError("list height too small: remainder uncertainty "
                         f"{uncertainty:.2e} >= 1e-6")
    rhs = (math.log(math.e * t0 / TWO_PI) / (TWO_PI * t0)
           + (0.4 * math.log(t0) + 4.1) / t0 ** 2)
    return exact_part + remainder, rhs


def local_log_deriv(zl: ZeroList, s: complex, a: float, sigma_plus: float):
    """(sum of 1/(s - rho) over ordinates with |gamma - t| <= a, the O*
    radius within which the true zeta'/zeta(s) must lie).

    Valid for s = sigma + it with -2 <= sigma <= sigma_plus <= 2 and
    t >= max(1000, a); the RH-in-window sharpening is applied when the
    list carries rh_assumed.
    """
    s = complex(s)
    sigma, t = s.real, s.imag
    if not (-2.0 <= sigma <= sigma_plus <= 2.0 and sigma_plus > 1.0):
        raise ValueError("need -2 <= sigma <= sigma_plus <= 2, sigma_plus>1")
    if t < max(1000.0, a):
        raise ValueError("need t >= max(1000, a)")
    if t + a > zl.t_max:
        raise ValueError("window exceeds the list height")
    g = zl.ordinates
    win = g[(g >= t - a) & (g <= t + a)]
    total = complex(np.sum(1.0 / (s - (0.5 + 1j * win)))) if win.size else 0j
    denom = (sigma_plus - 0.5) if zl.rh_assumed else (sigma_plus - 1.0)
    k1 = ((sigma_plus - sigma) / a + a / denom) / math.pi
    k2 = ((sigma_plus - sigma) / a ** 2
          + abs((sigma_plus - sigma) / a ** 2 - 1.0 / denom))
    eps = ((sigma_plus - sigma) / (2.0 * t)
           + ((sigma_plus - sigma) ** 2 / 2.0
              + 1.5 * (sigma_plus - sigma) + 1.0 / (3.0 * math.sqrt(2.0)))
           / t ** 2)
    ld_plus = abs(log_deriv_zeta(complex(sigma_plus)).value.real)
    radius = (k1 * math.log(t / TWO_PI) + 2.0 * k2 * _q_bound(t)
              + eps + ld_plus)
    return total, radius
