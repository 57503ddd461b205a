"""Shared numerical plumbing: error-tagged values, quadrature, Bernoulli
numbers, and output formatting.

Two quadratures live here; both call a vectorised integrand on arrays.
`gauss_kronrod` integrates over given panels with the nested 7-point
Gauss / 15-point Kronrod pair, halving the panels whose error estimate is
above their share of the tolerance, and returns the value with its error
estimate; the Perron check, the Fourier transform of phi, the Fejer mean
and the integrals of `lehman_sum` run on it.  The caller places the first
panels where its integrand needs them: the Perron check starts from
panels as wide as its fastest oscillation allows, not from two halves.
The L1 gap passes its unit panels with the integrand's values at their
first-pass nodes (`first_pass`), which it takes on their common lattice,
so that f is called only at the halves of the panels that fail.
`kronrod_pair` is the K15/G7 arithmetic on a panel's node values.
`adaptive_simpson` works the classical recursive rule breadth first, one
integrand call per depth; the pieces that go one level deeper are gathered
from one stacked array of their ends, values and estimates.  It stays for
two reasons: the weighted log/inv integrals call it, in s = log t, where
their weight's T/(pi t) behaviour is smooth, and perfbench's tracer counts
quadrature calls and integrand calls by wrapping it by name in `weights`,
`formula` and `extremal`.  Moving those integrals onto panels waits for an
in-program counter that the tracer can read instead (ROADMAP item 6)."""

from __future__ import annotations

import functools
import math
import os
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


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-8):
    """Adaptive Simpson quadrature with absolute tolerance `tol` of an f
    that maps an array of points to real or complex values.

    The recursive rule, worked breadth first: a piece whose Richardson
    error is at most tol 2^-depth, or at depth 48, gives left + right +
    err; the others are halved.  Each depth's new points go to f in one
    call, and the halves' six rows (ends, the three values and the
    estimate) are gathered in one indexing of their stacked array.  f
    sees exactly the recursion's points, and the pieces are added in its
    order, so the value is the recursion's to the bit.
    """
    if not a < b:
        if a == b:
            return 0.0
        return -adaptive_simpson(f, b, a, tol)

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    x0, x2 = np.array([a], dtype=np.float64), np.array([b], dtype=np.float64)
    f0, f1, f2 = np.asarray(f(np.array([a, 0.5 * (a + b), b]))).reshape(3, 1)
    whole = simpson(x0, x2, f0, f1, f2)
    levels = []
    for depth in range(48, -1, -1):
        xm = 0.5 * (x0 + x2)
        fl, fr = np.asarray(f(np.concatenate([0.5 * (x0 + xm),
                                              0.5 * (xm + x2)]))
                            ).reshape(2, -1)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        err = (left + right - whole) / 15.0
        ok = np.abs(err) <= tol if depth else np.ones(err.shape, bool)
        levels.append((left + right + err, ok))
        if ok.all():
            break
        # the failed pieces' left halves, then their right halves: one
        # gather of the stacked rows, each pair of rows read as one row
        x0, x2, f0, f1, f2, whole = np.array(
            (x0, xm, xm, x2, f0, f1, fl, fr, f1, f2, left, right)
        )[:, ~ok].reshape(6, -1)
        x0, x2 = x0.real, x2.real       # f's values may be complex
        tol = 0.5 * tol
    # a failed piece is its left half plus its right half, as recursed
    value = levels.pop()[0]
    for piece, ok in reversed(levels):
        half = value.size // 2
        piece[~ok] = value[:half] + value[half:]
        value = piece
    return value[0].item()


@functools.lru_cache(maxsize=1)
def kronrod_rule():
    """Nodes (ascending), Kronrod weights and Gauss weights of the nested
    G7-K15 pair on [-1, 1], read-only.

    The 15 Kronrod nodes include the 7 Gauss-Legendre nodes, which are
    those of odd index; the Gauss weights go with nodes[1::2].  K15 is
    exact for degree <= 22, G7 for degree <= 13.  The values are those of
    QUADPACK's qk15 (Piessens et al., 1983), hard-coded so that no
    eigenvalue solve (and no LAPACK load) is needed."""
    half = (0.991455371120812639206854697526329,
            0.949107912342758524526189684047851,
            0.864864423359769072789712788640926,
            0.741531185599394439863864773280788,
            0.586087235467691130294144845693013,
            0.405845151377397166906606412076961,
            0.207784955007898467600689403773245)
    wk_half = (0.022935322010529224963732008058970,
               0.063092092629978553290700663189204,
               0.104790010322250183839876322541518,
               0.140653259715525918745189590510238,
               0.169004726639267902826583426598550,
               0.190350578064785409913256402421014,
               0.204432940075298892414161999234649)
    wk_mid = 0.209482141084727828012999174891714
    wg_half = (0.129484966168869693270611432679082,
               0.279705391489276667901467771423780,
               0.381830050505118944950369775488975)
    wg_mid = 0.417959183673469387755102040816327
    x = np.array([-v for v in half] + [0.0] + list(half[::-1]))
    wk = np.array(wk_half + (wk_mid,) + wk_half[::-1])
    wg = np.array(wg_half + (wg_mid,) + wg_half[::-1])
    for a in (x, wk, wg):
        a.flags.writeable = False
    return x, wk, wg


def kronrod_pair(v, half):
    """(K15, G7) of each panel: v holds one row per panel of the
    integrand at the nodes of `kronrod_rule` on that panel, and half is
    the panels' half-length (an array, or one number for all).  G7 reads
    the odd columns, the Gauss nodes."""
    _, w_k, w_g = kronrod_rule()
    # sums, not `@`: a first BLAS call costs the process ~0.2 MB
    return half * (v * w_k).sum(axis=1), half * (v[:, 1::2] * w_g).sum(axis=1)


_GK_BLOCK_POINTS = 400  # integrand points per call of f
# bytes of one (points x terms) matrix of an integrand that broadcasts over
# a series: 2^13 doubles, small enough to stay in cache and in the heap
BLOCK_BYTES = 1 << 16
_GK_MAX_PASSES = 40
_GK_MAX_PANELS = 1 << 15


def gauss_kronrod(f, edges, tol: float, first_pass=None):
    """(integral of f over [edges[0], edges[-1]], error estimate).

    f maps a 1-d array of points to an array of real or complex values of
    the same length.  Each panel between consecutive edges gets the
    15-point Kronrod rule K15 and the 7-point Gauss rule G7 on the same
    nodes; its error estimate is |K15 - G7|, and for a panel made by
    halving also half of |K15(parent) - K15(left) - K15(right)|.  A panel
    is accepted when its estimate is at most its length-share of `tol`;
    the others are halved and redone in the next pass, so the returned
    estimate is at most `tol`.  A non-finite value, or more passes or
    panels than a fixed cap, raises PrecisionError.

    The integrand should be smooth on each panel: put every jump or kink
    at an edge.  A jump inside a panel mostly keeps failing until the caps
    raise PrecisionError.  The checks are blind only to a jump between an
    end of a panel and its first node (0.0043 of the panel's length in)
    when no node of the parent panel lies between them either: every node
    then sees the same side of the jump.  Of 300 unit jumps at random
    points of one panel, 11 come back wrong in that way.

    f is called on blocks of at most 400 points (26 panels), so that its
    per-call cost is paid once per block; an integrand that broadcasts
    over a series works in matrices of at most `BLOCK_BYTES`.  K15 and G7
    come from `kronrod_pair`.

    first_pass, if given, holds f at the first pass's nodes: one row per
    panel between consecutive edges, with the nodes of `kronrod_rule` in
    its order.  f is then called only at the halves of the panels that
    fail, and the result has the bits it would have without first_pass.
    The L1 gap (`extremal._l1_window`) gives the values it takes on the
    lattice of its unit panels' nodes; the other callers give none.
    """
    edges = np.asarray(edges, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
        raise ValueError("edges must be an ascending sequence of >= 2 points")
    nodes = kronrod_rule()[0]
    block = max(1, _GK_BLOCK_POINTS // nodes.size)
    per_length = tol / (edges[-1] - edges[0])
    a, b, parent = edges[:-1], edges[1:], None
    if first_pass is not None and np.shape(first_pass) != (a.size,
                                                           nodes.size):
        raise ValueError("first_pass must hold one row of nodes per panel")
    value = error = 0.0
    for _ in range(_GK_MAX_PASSES):
        half = 0.5 * (b - a)
        mid = a + half
        q_k, q_g = [], []
        for i in range(0, len(a), block):
            h = half[i:i + block]
            v = (first_pass[i:i + block] if first_pass is not None else
                 np.asarray(f((mid[i:i + block, None] + h[:, None] * nodes)
                              .ravel())).reshape(-1, nodes.size))
            k15, g7 = kronrod_pair(v, h)
            q_k.append(k15)
            q_g.append(g7)
        q = np.concatenate(q_k)
        if not np.all(np.isfinite(q)):
            raise PrecisionError("the integrand is not finite at a node")
        est = np.abs(q - np.concatenate(q_g))
        if parent is not None:
            pair = 0.5 * np.abs(parent - q[0::2] - q[1::2])
            est = np.maximum(est, np.repeat(pair, 2))
        ok = est <= per_length * (b - a)
        value = value + q[ok].sum()
        error += float(est[ok].sum())
        if ok.all():
            return value.item(), error
        a, b, parent, first_pass = a[~ok], b[~ok], q[~ok], None
        cut = 0.5 * (a + b)
        a = np.column_stack([a, cut]).ravel()
        b = np.column_stack([cut, b]).ravel()
        if a.size > _GK_MAX_PANELS:
            break
    raise PrecisionError(f"Gauss-Kronrod panels cannot meet tol={tol:g}")


def format_float17(x: float) -> str:
    """Decimal string with 17 significant digits (round-trips a double)."""
    return f"{x:.16e}"


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename.  The
    file gets the permissions open(path, "w") would leave: an existing
    file's own, and for a new one 0666 less the umask (mkstemp's 0600
    would keep the output from other users)."""
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            try:
                os.fchmod(fh.fileno(), os.stat(path).st_mode & 0o777)
            except FileNotFoundError:
                pass
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
