"""Shared numerical plumbing: error-tagged values, compensated summation,
quadrature, Bernoulli numbers, and output formatting.

Two quadratures live here.  `gauss_legendre` integrates a vectorised
integrand over given panels with 16-point Gauss-Legendre, halving the
panels whose error estimate is above their share of the tolerance, and
returns the value with its error estimate.  `adaptive_simpson` calls a
scalar integrand node by node.  It stays for two reasons: the weighted
log/inv integrals and `lehman_sum` call it, and perfbench's tracer counts
quadrature calls and integrand calls by wrapping it by name in `weights`,
`formula` and `extremal`.  Moving those integrals onto panels waits for
an in-program counter that the tracer can read instead (ROADMAP items 3
and 6)."""

from __future__ import annotations

import functools
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

EULER_GAMMA = 0.5772156649015328606
TWO_PI = 2.0 * math.pi

# B_2, B_4, ..., B_40 (exact rationals rounded to double).
BERNOULLI_2K = [
    1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730,
    7.0 / 6, -3617.0 / 510, 43867.0 / 798, -174611.0 / 330, 854513.0 / 138,
    -236364091.0 / 2730, 8553103.0 / 6, -23749461029.0 / 870,
    8615841276005.0 / 14322, -7709321041217.0 / 510, 2577687858367.0 / 6,
    -26315271553053477373.0 / 1919190, 2929993913841559.0 / 6,
    -261082718496449122051.0 / 13530,
]


class PoleError(ValueError):
    """Evaluation requested at (or too near) a pole."""


class PrecisionError(ArithmeticError):
    """Requested error budget is unattainable in double precision."""


@dataclass(frozen=True)
class EvalWithError:
    """A computed value together with an upper bound on its absolute error."""

    value: complex
    abs_error: float

    def __post_init__(self):
        if self.abs_error < 0:
            raise ValueError("abs_error must be non-negative")
        if (math.isfinite(abs(self.value))
                and not math.isfinite(self.abs_error)):
            raise ValueError("abs_error must be finite for finite values")

    @property
    def real(self) -> float:
        return self.value.real


class KahanSum:
    """Compensated running sum; cheap insurance against cancellation."""

    __slots__ = ("total", "carry")

    def __init__(self, start: float = 0.0):
        self.total = float(start)
        self.carry = 0.0

    def add(self, term: float) -> None:
        y = term - self.carry
        t = self.total + y
        self.carry = (t - self.total) - y
        self.total = t

    def value(self) -> float:
        return self.total


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-8):
    """Adaptive Simpson quadrature with absolute tolerance `tol`.

    Works for real- or complex-valued integrands; the recursion splits until
    the Richardson error estimate on each subinterval is below its share of
    the tolerance, to at most 48 halvings.
    """
    if not a < b:
        if a == b:
            return 0.0
        return -adaptive_simpson(f, b, a, tol)

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, tol, depth):
        xm = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x2)
        fl = f(xl)
        fr = f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        err = (left + right - whole) / 15.0
        if depth <= 0 or abs(err) <= tol:
            return left + right + err
        half = 0.5 * tol
        return (recurse(x0, xm, f0, fl, f1, left, half, depth - 1)
                + recurse(xm, x2, f1, fr, f2, right, half, depth - 1))

    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 48)


@functools.lru_cache(maxsize=4)
def legendre_rule(n: int):
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1], read-only.

    Newton's method on P_n, evaluated with the three-term recurrence
    (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1}, from the usual cosine
    guesses; the rule is symmetric to the last bit."""
    x = np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(50):
        p, dp = _legendre_and_derivative(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-16:
            break
    _, dp = _legendre_and_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _legendre_and_derivative(n: int, x: np.ndarray):
    """(P_n(x), P_n'(x)) for |x| < 1."""
    p_prev, p = np.ones_like(x), x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, n * (x * p - p_prev) / (x * x - 1.0)


GL_ORDER = 16           # points of the rule; the check uses half as many
_GL_BLOCK_POINTS = 100  # integrand points per call of f
_GL_MAX_PASSES = 40
_GL_MAX_PANELS = 1 << 15


def gauss_legendre(f, edges, tol: float):
    """(integral of f over [edges[0], edges[-1]], error estimate).

    f maps a 1-d array of points to an array of real or complex values of
    the same length.  Each panel between consecutive edges gets the
    16-point rule Q16 and the 8-point rule Q8; its error estimate is
    |Q16 - Q8|, and for a panel made by halving also half of
    |Q16(parent) - Q16(left) - Q16(right)|.  A panel is accepted when its
    estimate is at most its length-share of `tol`; the others are halved
    and redone in the next pass, so the returned estimate is at most
    `tol`.  A non-finite value, or more passes or panels than a fixed cap,
    raises PrecisionError.

    The integrand should be smooth on each panel: put every jump or kink
    at an edge.  A jump inside a panel mostly keeps failing until the caps
    raise PrecisionError, but the checks are blind to a jump that lies
    between a panel end and its first node, or, on a panel of `edges`
    (which has no parent), between the innermost nodes of the two rules;
    such a panel is accepted with an error the estimate does not show.

    f is called on blocks of at most 100 points (4 panels), which keeps
    the temporaries of an integrand that broadcasts over a series small.
    """
    edges = np.asarray(edges, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
        raise ValueError("edges must be an ascending sequence of >= 2 points")
    x_hi, w_hi = legendre_rule(GL_ORDER)
    x_lo, w_lo = legendre_rule(GL_ORDER // 2)
    nodes = np.concatenate([x_hi, x_lo])
    block = max(1, _GL_BLOCK_POINTS // nodes.size)
    per_length = tol / (edges[-1] - edges[0])
    a, b, parent = edges[:-1], edges[1:], None
    value = error = 0.0
    for _ in range(_GL_MAX_PASSES):
        half = 0.5 * (b - a)
        mid = a + half
        q_hi, q_lo = [], []
        for i in range(0, len(a), block):
            h = half[i:i + block]
            v = np.asarray(f((mid[i:i + block, None] + h[:, None] * nodes)
                             .ravel())).reshape(-1, nodes.size)
            # sums, not `@`: a first BLAS call costs the process ~0.2 MB
            q_hi.append(h * (v[:, :GL_ORDER] * w_hi).sum(axis=1))
            q_lo.append(h * (v[:, GL_ORDER:] * w_lo).sum(axis=1))
        q = np.concatenate(q_hi)
        if not np.all(np.isfinite(q)):
            raise PrecisionError("the integrand is not finite at a node")
        est = np.abs(q - np.concatenate(q_lo))
        if parent is not None:
            pair = 0.5 * np.abs(parent - q[0::2] - q[1::2])
            est = np.maximum(est, np.repeat(pair, 2))
        ok = est <= per_length * (b - a)
        value = value + q[ok].sum()
        error += float(est[ok].sum())
        if ok.all():
            return value.item(), error
        a, b, parent = a[~ok], b[~ok], q[~ok]
        cut = 0.5 * (a + b)
        a = np.column_stack([a, cut]).ravel()
        b = np.column_stack([cut, b]).ravel()
        if a.size > _GL_MAX_PANELS:
            break
    raise PrecisionError(f"Gauss-Legendre panels cannot meet tol={tol:g}")


def format_float17(x: float) -> str:
    """Decimal string with 17 significant digits (round-trips a double)."""
    if isinstance(x, (int,)):
        return str(x)
    return f"{x:.16e}"


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
