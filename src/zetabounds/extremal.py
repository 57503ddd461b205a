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
                   adaptive_simpson, gauss_kronrod)

__all__ = [
    "ApproximantParams", "truncated_exp",
    "phi_weight", "phi_hat", "phi_hat_lerch", "l1_gap",
    "glued_contour_weight", "beurling_majorant",
    "l1_gap_quadrature",
]

_NODE_EPS = 1e-6          # within this of an integer, use the node limit
MAJORANT = "majorant"
MINORANT = "minorant"


@dataclass(frozen=True)
class ApproximantParams:
    """Parameters of a one-sided approximant: nu = |lambda| and the side."""

    nu: float
    side: str
    lam: float

    def __post_init__(self):
        if self.side not in (MAJORANT, MINORANT):
            raise ValueError("side must be 'majorant' or 'minorant'")
        if self.lam == 0:
            raise ValueError("lambda must be non-zero")
        if not math.isclose(self.nu, abs(self.lam), rel_tol=0, abs_tol=0):
            raise ValueError("nu must equal |lambda|")
        if not self.nu > 0:
            raise ValueError("nu must be positive")

    @classmethod
    def make(cls, lam: float, side: str) -> "ApproximantParams":
        return cls(nu=abs(lam), side=side, lam=lam)

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
    """||phi_hat - I_lambda||_1 by Gauss-Kronrod panels on [-Y, Y] to a
    total tolerance of 1e-8, plus analytic tails (the integrand decays only
    like 1/y^2, so the tails matter).

    The panels start as the unit intervals: the integrand vanishes at every
    integer and I_lambda jumps at 0, so each panel is smooth.  phi_hat
    takes each block of nodes in one call.  Y = 200 is raised until every
    non-negligible interpolation node lies inside the window, which the
    tail formula requires.
    """
    Y = math.ceil(max(200.0, (48.0 + 2.0 * math.log(202.0)) / p.nu + 20.0))
    sign = 1.0 if p.side == MAJORANT else -1.0

    def integrand(y):
        return sign * (phi_hat(p, y) - truncated_exp(p.lam, y))

    edges = np.arange(-Y, Y + 1, dtype=np.float64)
    inner, _ = gauss_kronrod(integrand, edges, 1e-8)
    return inner + _l1_tail(p, float(Y))


def _l1_tail(p: ApproximantParams, Y: float) -> float:
    """Integral of |phi_hat - I_lambda| over |y| > Y from the term-by-term
    primitives of the interpolation series, with sin^2 replaced by its mean
    1/2 (the oscillatory correction is O(1/Y^2) and folded into the test
    tolerance).  Requires every retained node n to satisfy n < Y."""
    nu = p.nu
    Nt = int(Y) - 10
    n = np.arange(1.0, Nt + 1.0)
    w = np.exp(-nu * n)
    if w[-1] / (Y - Nt) > 1e-16:
        raise ValueError("window too small for the series decay")
    right = 1.0 / Y + float((w * (1.0 / (Y - n) + nu * np.log1p(-n / Y))
                             ).sum())
    left = 1.0 / Y + float((w * (1.0 / (Y + n) - nu * np.log1p(n / Y))).sum())
    tail_major = (right + left) / (2.0 * math.pi ** 2)
    exp_tail = math.exp(-nu * Y) / nu
    if p.side == MAJORANT:
        # int (M - E) over both tails
        return tail_major - exp_tail
    # minorant: |L - E| = E - L = (E - M) + sinc^2
    sinc_tail = 1.0 / (math.pi ** 2 * Y)
    return exp_tail - tail_major + sinc_tail


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
