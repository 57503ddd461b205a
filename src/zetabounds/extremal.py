"""One-sided band-limited approximants to truncated exponentials.

For decay rate lambda != 0 the target is I_lambda(u) = e^(-lambda u) on the
half-line sgn(lambda) u >= 0 and 0 elsewhere.  The optimal majorant/minorant
of exponential type 2 pi is evaluated both from its interpolation series
(`phi_hat`) and from a Lerch-transcendent closed form (`phi_hat_lerch`);
`phi_weight` gives the compactly supported function on [-1, 1] whose Fourier
transform the approximant is; it and `glued_contour_weight` take one
coth((nu - 2 pi i z)/2) per node for both the circ part and the star part.
The lambda -> 0 limit (the classical sgn
majorant) is exposed separately as `beurling_majorant`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .special import coth_stable, lerch, trigamma, x_coth_x
# adaptive_simpson stays bound: perfbench/workloads.instrument wraps it here
from .util import (BLOCK_BYTES, TWO_PI, PoleError,  # noqa: F401
                   PrecisionError, adaptive_simpson, gauss_kronrod,
                   kronrod_rule)

__all__ = [
    "ApproximantParams", "truncated_exp",
    "phi_weight", "phi_hat", "phi_hat_lerch", "l1_gap",
    "glued_contour_weight", "beurling_majorant",
    "l1_gap_quadrature",
]

_NODE_EPS = 1e-6          # within this of an integer, use the node limit
_L1_TAIL_BOUND = 1e-12    # the L1 tails' stated remainder, at most
MAJORANT = "majorant"
MINORANT = "minorant"


@dataclass(frozen=True)
class ApproximantParams:
    """Parameters of a one-sided approximant: lambda and the side."""

    lam: float
    side: str

    def __post_init__(self):
        if self.side not in (MAJORANT, MINORANT):
            raise ValueError("side must be 'majorant' or 'minorant'")
        if not abs(self.lam) > 0:
            raise ValueError("lambda must be non-zero and not NaN")

    @classmethod
    def make(cls, lam: float, side: str) -> "ApproximantParams":
        return cls(lam, side)

    @property
    def nu(self) -> float:
        return abs(self.lam)

    @property
    def sign(self) -> float:
        return 1.0 if self.side == MAJORANT else -1.0


def truncated_exp(lam: float, u):
    """I_lambda(u) = e^(-lambda u) on the half-line sgn(lambda) u >= 0 and
    0 elsewhere; equals 1 at u = 0 for either sign of lambda.  u may be an
    array (an array comes back) or a number (a float comes back); the
    exponential is never taken off the half-line, so it cannot overflow
    there."""
    if lam == 0:
        raise ValueError("lambda must be non-zero")
    u = np.asarray(u, dtype=np.float64)
    off = (u < 0) if lam > 0 else (u > 0)
    out = np.where(off, 0.0, np.exp(-lam * np.where(off, 0.0, u)))
    return out if out.ndim else float(out)


# ----------------------------------------------------------------------
# Fourier-side weight on [-1, 1]
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _x_coth_half(nu: float) -> complex:
    """(nu/2) coth(nu/2), the z-independent term of the star part: one
    value per approximant, kept instead of recomputed at every node."""
    return x_coth_x(0.5 * nu)


def _phi_parts(nu: float, pm: float, z):
    """(circ part, star part) of the weight at z, a number or an array:
    with h = (nu - 2 pi i z)/2 and one c = coth h per node,
    circ = (c + pm)/2 and star = (i/2pi)(x_coth_x(nu/2) - h c + pm pi i z)."""
    half = 0.5 * (nu - TWO_PI * 1j * z)
    c = coth_stable(half)
    return (0.5 * (c + pm),
            (1j / TWO_PI) * (_x_coth_half(nu) - half * c
                             + pm * math.pi * 1j * z))


def phi_weight(p: ApproximantParams, t):
    """The weight phi on [-1, 1] whose Fourier transform is the approximant;
    identically zero outside [-1, 1].  t may be an array (an array comes
    back) or a number (a complex comes back)."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros(t.shape, dtype=np.complex128)
    inside = np.abs(t) <= 1.0
    z = (1.0 if p.lam > 0 else -1.0) * t[inside]
    circ, star = _phi_parts(p.nu, p.sign, z)
    out[inside] = circ + np.sign(z) * star
    return out if out.ndim else complex(out)


def glued_contour_weight(lam: float, side: str, z: complex) -> complex:
    """Two-sheet weight Phi_lambda^pm(z): the circ part plus
    sgn(lambda) sgn(Re z) times the star part, at sgn(lambda) z."""
    if lam == 0:
        raise ValueError("lambda must be non-zero")
    pm = 1.0 if side == MAJORANT else -1.0
    sl = 1.0 if lam > 0 else -1.0
    z = complex(z)
    zz = sl * z
    # poles of the circ part sit at zz = n - i nu / 2 pi
    w = abs(lam) - TWO_PI * 1j * zz
    if abs(w / 2.0 - 1j * math.pi * round((w / 2.0).imag / math.pi)) < 1e-12:
        raise PoleError("on the pole lattice n - i nu / 2 pi")
    sr = 0.0 if z.real == 0 else math.copysign(1.0, z.real)
    circ, star = _phi_parts(abs(lam), pm, zz)
    return circ + sl * sr * star


# ----------------------------------------------------------------------
# The approximants themselves (interpolation series)
# ----------------------------------------------------------------------

def _series_length(nu: float, ax):
    """Terms needed at |x| = ax (a number or an array) so that the
    dropped tail is below ~1e-14 of the result."""
    lg = 2.0 * np.log(2.0 + ax)
    n1 = (40.0 + lg) / nu
    n1 = np.where(nu * (ax + 10.0) <= 45.0 + lg,
                  np.maximum(n1, ax + 50.0), n1)
    return np.maximum(50.0, np.ceil(n1))


@functools.lru_cache(maxsize=16)
def _series_head(nu: float) -> int:
    """The terms every point needs: the length at x = 0, the least."""
    return int(_series_length(nu, 0.0))


def _gv_series_g(nu: float, x: np.ndarray) -> np.ndarray:
    """g(x) with majorant = (sin pi x / pi)^2 g(x):
    g(x) = 1/x^2 + sum_{n>=1} e^(-nu n) (1/(x-n)^2 - nu/(x-n) + nu/x).

    x must stay clear of integers (node values are handled by the caller).
    The value at a point does not depend on the other points: each point
    sums its own number of terms, the head that every point needs
    (`_series_head`) as one pairwise sum and the rest one term at a time.
    The points go in blocks of at most `BLOCK_BYTES` of terms, or one at a
    time where a point needs more.
    """
    x = np.asarray(x, dtype=np.float64)
    k = _series_head(nu)
    N = np.maximum(_series_length(nu, np.abs(x)), k).astype(np.intp)
    q = math.exp(-nu)
    geo = q * (1.0 - np.exp(-nu * N)) / (1.0 - q)   # sum_{n<=N} e^(-nu n)
    g = 1.0 / x ** 2 + nu * geo / x
    top = int(N.max(initial=k))
    n = np.arange(1.0, top + 1.0)
    w = np.exp(-nu * n)
    rows = max(1, BLOCK_BYTES // (8 * top))
    for i in range(0, x.size, rows):
        xs, Ns = x[i:i + rows], N[i:i + rows]
        m = int(Ns.max())
        d = xs[:, None] - n[:m]
        t = d * d                       # (1/d^2 - nu/d) e^(-nu n), in place
        np.divide(1.0, t, out=t)
        t -= np.divide(nu, d, out=d)
        t *= w[:m]
        # term k becomes g + the head; the running sums from there on
        # hold each point's value at its own last term
        t[:, k - 1] = g[i:i + rows] + t[:, :k].sum(axis=1)
        tail = t[:, k - 1:]
        np.cumsum(tail, axis=1, out=tail)
        g[i:i + rows] = t.ravel()[np.arange(0, t.size, m) + (Ns - 1)]
        del d, t, tail          # freed before the next block's are made
    return g


def _gv_major_batch(nu: float, x: np.ndarray) -> np.ndarray:
    """Extremal majorant M_nu on an array of real points."""
    x = np.asarray(x, dtype=np.float64)
    r = np.round(x)
    node = np.abs(x - r) < _NODE_EPS
    out = np.empty_like(x)
    if node.any():
        m = r[node]
        out[node] = np.where(m >= 0, np.exp(-nu * np.maximum(m, 0.0)), 0.0)
    rest = ~node
    if rest.any():
        xr = x[rest]
        s = np.sin(math.pi * xr) / math.pi
        out[rest] = s * s * _gv_series_g(nu, xr)
    return out


def _sinc_sq(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.ones_like(x)
    nz = np.abs(x) > 1e-9
    out[nz] = (np.sin(math.pi * x[nz]) / (math.pi * x[nz])) ** 2
    return out


def phi_hat(p: ApproximantParams, x):
    """Majorant or minorant of I_lambda at real points x: an array in gives
    an array out, a number in gives a float out.  The value at a point
    does not depend on the other points of x."""
    x = np.asarray(x, dtype=np.float64)
    y = (1.0 if p.lam > 0 else -1.0) * x.ravel()
    out = _gv_major_batch(p.nu, y)
    if p.side == MINORANT:
        out = out - _sinc_sq(y)
    out = out.reshape(x.shape)
    return out if out.ndim else float(out)


def phi_hat_lerch(p: ApproximantParams, x: float) -> float:
    """Same value as phi_hat via the Lerch-transcendent closed form
    (lambda > 0 only); used as an independent oracle."""
    if p.lam <= 0:
        raise ValueError("Lerch form implemented for lambda > 0")
    nu = p.nu
    r = round(x)
    if abs(x - r) < _NODE_EPS:
        base = math.exp(-nu * r) if r >= 0 else 0.0
    else:
        l2 = lerch(math.exp(-nu), 2, -x).value
        l1 = lerch(math.exp(-nu), 1, -x).value
        f = l2 + nu * l1 + (nu / x) / (1.0 - math.exp(-nu))
        base = (math.sin(math.pi * x) / math.pi) ** 2 * f.real
    if p.side == MINORANT:
        base -= float(_sinc_sq(np.array([x]))[0])
    return base


def l1_gap(p: ApproximantParams) -> float:
    """Exact L1 distance between the approximant and I_lambda."""
    nu = p.nu
    if p.side == MAJORANT:
        return 1.0 / -math.expm1(-nu) - 1.0 / nu
    return 1.0 / nu - 1.0 / math.expm1(nu)


def l1_gap_quadrature(p: ApproximantParams) -> float:
    """||phi_hat - I_lambda||_1 by Gauss-Kronrod unit panels on [-Y, Y]
    (`_l1_window`), to a total tolerance of 1e-8, plus the tails over
    |y| > Y from `_l1_tail` (the integrand decays only like 1/y^2, so the
    tails matter).

    The window has one rule: Y is the smallest integer >= 21 at which the
    series weight that the tail leaves out, sum_{n >= Y - 10} e^(-nu n)
    = e^(-nu (Y - 10))/(1 - e^-nu), is at most 1e-15.  The tail sums the
    nodes n <= Y - 10 term by term and bounds the rest, so this weight
    sets its left-out term; the floor 21 keeps the remainder of the
    majorant's 1/y^2 term, 1440/(2 pi^2 (2 pi)^6 Y^7), at 6.6e-13 or
    less, so that the series' own terms fit beside it: the whole stated
    remainder is at most 7.3e-13 for nu in [0.05, 60].  Y is 379 at
    nu = 0.1, 45 at nu = 1 and 21 from nu = 3.15 up.  PrecisionError if
    the stated remainder is above `_L1_TAIL_BOUND`.
    """
    nu = p.nu
    Y = max(21, 10 + math.ceil(-math.log(1e-15 * -math.expm1(-nu)) / nu))
    tail, remainder = _l1_tail(p, float(Y))
    if remainder > _L1_TAIL_BOUND:
        raise PrecisionError(f"L1 tail remainder {remainder:.3g} at Y = {Y}")
    return _l1_window(p, Y) + tail


def _l1_lattice(p: ApproximantParams, Y: int) -> np.ndarray:
    """The window's integrand sign (phi_hat - I_lambda) at the 15 Kronrod
    nodes of each unit panel of [-Y, Y]: one row per panel, in ascending
    y, with the nodes of `kronrod_rule` in its order.

    In x = sgn(lambda) y, with q = e^-nu and h(d) = 1/d^2 - nu/d, the
    majorant off the integers is s(x) (1/x^2 + nu q/((1 - q) x) + S(x)),
    where s = (sin pi x/pi)^2 and S(x) = sum_{n>=1} q^n h(x - n); the
    minorant leaves out the 1/x^2, which is sinc^2/s.  The nodes x = m +
    c_k of the panels form a lattice, so
    - s has period 1: it is taken once per offset, from the node's
      distance to the nearest integer, and so keeps its relative accuracy
      where x is near an integer and s is small;
    - S is carried rightward by the exact identity
      S(x + 1) = q (h(x) + S(x)), from S = 0 on the row r =
      ceil(60 log 2/nu) panels left of the window.  On the window's rows,
      which alone are kept, the carry then leaves out only terms of
      weight below q^r <= 2^-60, each at |x - n| > Y.
      Rightward every step multiplies what it carries, rounding included,
      by q; leftward, S(x) = S(x + 1)/q - h(x) would multiply it by e^nu
      a step.  The carry runs as a doubling scan: with 0 on the first row
      and q h(x - 1) on the others, the step of stride k adds q^k times
      the row k above, so that after it every row holds the sum of its
      last 2k terms, each with its power of q; every factor is at most 1,
      as in the step-by-step carry.
    h is singular only at 0, so the term of S that is large beside an
    integer n > 0 is h at a node within 1/2 of 0; those nodes,
    +-(0.5 - 0.5|node|), are exact in floating point (Sterbenz), as is
    the distance u that s is taken from."""
    nu = p.nu
    q = math.exp(-nu)
    nodes = kronrod_rule()[0]
    r = math.ceil(60.0 * math.log(2.0) / nu)
    x = np.arange(0.5 - Y - r, Y, dtype=np.float64)[:, None] + 0.5 * nodes
    h = (1.0 - nu * x) / (x * x)
    S = np.zeros_like(x)
    S[1:] = q * h[:-1]
    k = 1
    while k < len(S):
        S[k:] += q ** k * S[:-k]
        k *= 2
    x, S = x[r:], S[r:]
    S += nu / (math.expm1(nu) * x)
    if p.side == MAJORANT:
        S += 1.0 / (x * x)
    # S is now phi_hat/s
    v = (np.sin(math.pi * (0.5 - 0.5 * np.abs(nodes))) / math.pi) ** 2 * S
    v[Y:] -= np.exp(-nu * x[Y:])
    v *= p.sign
    # y = -x maps panel m and node k onto panel -1 - m and node 14 - k
    return v if p.lam > 0 else v[::-1, ::-1]


def _l1_window(p: ApproximantParams, Y: int) -> float:
    """Integral of |phi_hat - I_lambda| over [-Y, Y]: one `gauss_kronrod`
    call over the 2Y unit panels, tolerance 1e-8, with the values of
    `_l1_lattice` as its first pass.  Acceptance and halving are
    `gauss_kronrod`'s own, so the direct integrand
    sign (phi_hat - I_lambda) is taken only at the halves of a panel over
    its share 1e-8/(2Y): within 2 of y = 0, at small nu or large, where
    the integrand is steepest."""
    def integrand(y):
        return p.sign * (phi_hat(p, y) - truncated_exp(p.lam, y))

    return gauss_kronrod(integrand, np.arange(-Y, Y + 1.0), 1e-8,
                         first_pass=_l1_lattice(p, Y))[0]


def _l1_tail(p: ApproximantParams, Y: float) -> tuple[float, float]:
    """(integral of |phi_hat - I_lambda| over |y| > Y, bound on its error)
    for an integer Y > 10.

    Off the nodes the majorant is s(y) G(y) with s = (sin pi y/pi)^2 =
    (1 - cos omega y)/(2 pi^2), omega = 2 pi, and, from the series cut at
    Nt = Y - 10 terms with w_n = e^(-nu n),

        G(y) = c/y^2 + sum_{n<=Nt} w_n (1/(y - n)^2 - nu/(y - n) + nu/y)

    and c = 1.  The minorant is the majorant less sinc^2 = s(y)/y^2, the
    c/y^2 term: it is s G with c = 0, since the sinc^2 tail (g = 1/y^2)
    cancels that term's mean, oscillating part and remainder exactly.  The
    majorant lies above I_lambda and the minorant below, so each gap is a
    signed sum of the tails of s G and of e^(-nu y) over y > Y.

    With d = Y - n and e = Y + n, the mean parts integrate term by term:
    c/Y + sum w_n (1/d + nu log(1 - n/Y)) over y > Y, and
    c/Y + sum w_n (1/e - nu log(1 + n/Y)) over y < -Y.  For the oscillating
    part, sin omega Y = 0 and cos omega Y = 1, so six integrations by
    parts give

        int_Y^inf cos(omega y) G(y) dy
            = -G'(Y)/omega^2 + G'''(Y)/omega^4 - G^(5)(Y)/omega^6 - R,
        R = (1/omega^6) int_Y^inf cos(omega y) G^(6)(y) dy,

    and the left tail is the same with H(u) = G(-u) on u > Y.  Term by
    term, for odd k the nu/Y^(k+1) terms of G^(k) and H^(k) cancel and

        G^(k)(Y) + H^(k)(Y) = -2 (k+1)! c/Y^(k+2)
            + sum w_n (nu k! (d^-(k+1) - e^-(k+1))
                       - (k+1)! (d^-(k+2) + e^-(k+2))),

    so the two tails of s G are (means + sum over k = 1, 3, 5 of
    (-1)^((k-1)/2) (G^(k) + H^(k))/omega^(k+1) + R_right + R_left)/(2 pi^2).

    The bound on R: on y > Y, G = A - B with A = c/y^2 + sum w_n/(y - n)^2
    and B = nu sum w_n (1/(y - n) - 1/y), and H = A_ + B_ with n -> -n.
    Every term of A^(6) and B^(6) is positive for y > n (5040/(y - n)^8
    and 720 nu ((y - n)^-7 - y^-7)), every term of A_^(6) positive and of
    B_^(6) negative.  A function f with f^(6) of one sign on (Y, inf) and
    f^(5) -> 0 there has int_Y^inf |f^(6)| = |f^(5)(Y)|, so

        |R_right| + |R_left| <= (1440c/Y^7 + sum w_n (720/d^7 + 720/e^7
                                 + 120 nu (1/d^6 - 1/e^6))) / omega^6,

    the k = 5 sum with both its parts taken positive.

    The nodes n > Nt are left out.  Node n puts s(y) w_n g_n(y) into the
    majorant, with g_n = 1/(y - n)^2 - nu n/(y (y - n)).  Over |y| > Y,
    int s/(y - n)^2 <= 1 (the integral of sinc^2), and with
    s <= min((y - n)^2, 1/pi^2) and n/|y| <= 2 within 1 of n,
    int n s/|y (y - n)| <= 2 + 4 log(n + 1)/pi^2: by partial fractions,
    beyond 1 of n, y < -Y gives at most log(n + 1), Y < y < n - 1 at
    most 2 log n and y > n + 1 at most log(n + 1), each times 1/pi^2.
    With log(n + 1) <= log(Nt + 1) + (n - Nt)/(Nt + 1) and q = e^-nu, the
    nodes n > Nt put at most

        W (1 + nu (2 + 4 (log(Nt + 1) + 1/((1 - q)(Nt + 1)))/pi^2))

    into the tails, W = e^(-nu (Nt + 1))/(1 - q) their weight.  The bound
    returned is the R bound over 2 pi^2 plus this."""
    nu = p.nu
    c = 1.0 if p.side == MAJORANT else 0.0
    Nt = int(Y) - 10
    n = np.arange(1.0, Nt + 1.0)
    w = np.exp(-nu * n)
    inv_d, inv_e = 1.0 / (Y - n), 1.0 / (Y + n)
    logs = nu * (np.log1p(-n / Y) - np.log1p(n / Y))
    tail = 2.0 * c / Y + float((w * (inv_d + inv_e + logs)).sum())
    omega2 = TWO_PI ** 2
    for k in (1, 3, 5):
        pole_c = 2.0 * math.factorial(k + 1) * c / Y ** (k + 2)
        poles = math.factorial(k + 1) * (inv_d ** (k + 2) + inv_e ** (k + 2))
        slopes = nu * math.factorial(k) * (inv_d ** (k + 1)
                                           - inv_e ** (k + 1))
        g = float((w * (slopes - poles)).sum()) - pole_c
        tail += (-1.0) ** (k // 2) * g / omega2 ** ((k + 1) // 2)
    tail /= 2.0 * math.pi ** 2
    r = pole_c + float((w * (slopes + poles)).sum())
    one_q = -math.expm1(-nu)          # 1 - q
    left_out = math.exp(-nu * (Nt + 1)) / one_q * (
        1.0 + nu * (2.0 + 4.0 * (math.log(Nt + 1.0)
                                 + 1.0 / (one_q * (Nt + 1.0))) / math.pi ** 2))
    bound = r / (2.0 * math.pi ** 2 * omega2 ** 3) + left_out
    exp_tail = math.exp(-nu * Y) / nu
    if p.side == MAJORANT:
        return tail - exp_tail, bound
    return exp_tail - tail, bound


def beurling_majorant(x: float) -> float:
    """The classical majorant B of sgn of exponential type 2 pi;
    (B(x) + 1)/2 majorises the indicator of [0, infinity)."""
    r = round(x)
    if abs(x - r) < 1e-9:
        return 1.0 if r == 0 else float(np.sign(r))
    s2 = (math.sin(math.pi * x) / math.pi) ** 2
    t1 = trigamma(complex(1.0 - x)).value.real
    t2 = trigamma(complex(1.0 + x)).value.real
    return s2 * (t1 - t2 + 2.0 / x + 1.0 / x ** 2)


def phi_weight_quad_transform(p: ApproximantParams, y: float) -> complex:
    """Fourier transform of phi_weight at y by Gauss-Kronrod panels over
    [-1, 1], split at 0 where the star part jumps, to a total tolerance of
    2e-9; an independent consistency oracle for phi_hat.  phi_weight takes
    each block of nodes in one call."""
    def f(t):
        return phi_weight(p, t) * np.exp(-TWO_PI * 1j * y * t)

    return gauss_kronrod(f, (-1.0, 0.0, 1.0), 2e-9)[0]
