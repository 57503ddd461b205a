import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

import zetabounds
from zetabounds.util import (PrecisionError, adaptive_simpson, gauss_kronrod,
                             kronrod_rule)


# ----------------------------------------------------------------------
# Adaptive Simpson
# ----------------------------------------------------------------------

def _recursive_simpson(f, a, b, tol):
    """The depth-first adaptive Simpson that `adaptive_simpson` replaces,
    kept as its reference: f is called on one point at a time.  Returns
    (value, deepest depth reached)."""
    if not a < b:
        if a == b:
            return 0.0, 0
        value, deepest = _recursive_simpson(f, b, a, tol)
        return -value, deepest

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
            return left + right + err, 48 - depth
        half = 0.5 * tol
        vl, dl = recurse(x0, xm, f0, fl, f1, left, half, depth - 1)
        vr, dr = recurse(xm, x2, f1, fr, f2, right, half, depth - 1)
        return vl + vr, max(dl, dr)

    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    return recurse(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol, 48)


def _log_weight(t):
    from zetabounds.weights import _weight_norm
    return _weight_norm(t, 2500.0) * np.log(t / (2.0 * math.pi))


@pytest.mark.parametrize("f, a, b, tol, deepest", [
    (lambda t: np.sin(3.0 * t) * np.exp(-t), 0.0, 4.0, 1e-10, None),
    (lambda t: np.exp(7j * t) / (1.0 + t * t), -1.0, 2.0, 1e-9, None),
    (lambda t: np.sqrt(t), 2.0, 0.0, 1e-9, None),
    (np.cos, 1.5, 1.5, 1e-9, 0),
    (lambda t: np.where(t < 1.0 / 3.0, 0.0, 1.0), 0.0, 1.0, 1e-6, 48),
    (_log_weight, 55.0, 2500.0, 1e-9, None),
], ids=["real", "complex", "reversed", "empty", "depth-cap", "log-weight"])
def test_adaptive_simpson_is_the_recursion(f, a, b, tol, deepest):
    """Breadth first, adaptive Simpson calls f on the same points as the
    depth-first recursion, and adds the same values in the same order, so
    it returns the recursion's value to the bit.  It calls f once for the
    end points and the middle and once per depth reached."""
    seen, seen_ref, calls = [], [], []

    def traced(x):
        calls.append(x.size)
        seen.extend(x.tolist())
        return f(x)

    def traced_ref(x):
        seen_ref.append(x)
        return f(np.array([x]))[0].item()

    want, depth = _recursive_simpson(traced_ref, a, b, tol)
    got = adaptive_simpson(traced, a, b, tol)
    assert sorted(seen) == sorted(seen_ref)
    assert len(set(seen)) == len(seen)
    assert got == want and type(got) is type(want)
    if deepest is not None:
        assert depth == deepest
    assert len(calls) == (depth + 2 if a != b else 0)


# ----------------------------------------------------------------------
# Gauss-Kronrod panels
# ----------------------------------------------------------------------

def test_kronrod_gauss_part_matches_numpy_leggauss():
    """The Gauss nodes inside K15 are numpy's 7-point Gauss-Legendre."""
    from numpy.polynomial.legendre import leggauss
    x, _, w = kronrod_rule()
    xr, wr = leggauss(7)
    assert np.max(np.abs(x[1::2] - xr)) <= 1e-15
    assert np.max(np.abs(w - wr)) <= 2e-15


@pytest.mark.parametrize("n", [8, 16])
def test_rule_matches_numpy_leggauss(n):
    """On a polynomial of degree 2n - 1, where numpy's n-point
    Gauss-Legendre rule is exact, gauss_kronrod agrees with it to tol.
    For n = 16 the degree (31) is beyond K15, so the panels must halve."""
    from numpy.polynomial.legendre import leggauss
    c = np.random.default_rng(n).uniform(-1.0, 1.0, 2 * n)
    k = np.arange(c.size)
    exact = float(np.sum(c * (1.0 - (-1.0) ** (k + 1)) / (k + 1)))
    xr, wr = leggauss(n)
    want = float(np.sum(wr * np.polyval(c[::-1], xr)))   # over [-1, 1]
    assert abs(want - exact) <= 1e-14
    tol = 1e-12
    value, est = gauss_kronrod(lambda t: np.polyval(c[::-1], t),
                               (-1.0, 0.0, 1.0), tol)
    assert abs(value - want) <= tol
    assert est <= tol


def test_rules_integrate_monomials_exactly():
    """K15 is exact through degree 22 and G7 through degree 13 on [-1, 1];
    one degree beyond, each is visibly wrong, so the check is not vacuous."""
    x, wk, wg = kronrod_rule()

    def err(k, nodes, weights):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        return abs(float((weights * nodes ** k).sum()) - exact)

    for k in range(23):
        assert err(k, x, wk) <= 1e-15
    for k in range(14):
        assert err(k, x[1::2], wg) <= 1e-15
    assert err(24, x, wk) > 1e-9 and err(14, x[1::2], wg) > 1e-5


def test_exact_for_degree_22_on_one_panel():
    c = np.random.default_rng(3).uniform(-1.0, 1.0, 23)
    k = np.arange(c.size)
    exact = float(np.sum(c / (k + 1)))           # integral over [0, 1]
    value, _ = gauss_kronrod(lambda t: np.polyval(c[::-1], t),
                             (0.0, 1.0), 1e-12)
    assert abs(value - exact) <= 1e-14


@pytest.mark.parametrize("f, mf, edges", [
    (lambda t: np.cos(40.0 * t) * np.exp(-t * t),
     lambda t: mp.cos(40 * t) * mp.exp(-t * t), (0.0, 1.5, 3.0)),
    (lambda t: np.exp(30j * t) / (1.0 + t * t),
     lambda t: mp.exp(30j * t) / (1 + t * t), (-2.0, 0.0, 5.0)),
], ids=["real", "complex"])
def test_oscillatory_integrand_against_mpmath(f, mf, edges):
    tol = 1e-10
    value, est = gauss_kronrod(f, edges, tol)
    with mp.workdps(30):
        want = complex(mp.quad(mf, np.linspace(edges[0], edges[-1], 61)))
    err = abs(value - want)
    assert err <= tol
    assert est >= err
    assert est <= tol


@pytest.mark.parametrize("c", [1.0 / math.sqrt(2.0), math.pi / 4.0],
                         ids=["1/sqrt2", "pi/4"])
def test_jump_inside_a_panel_raises(c):
    """A jump strictly inside a panel fails the checks at every depth.
    (A jump between a panel's end and its first node, with no node of the
    parent panel between them either, is invisible to both rules and to
    the parent check; the docstring of gauss_kronrod says so, and neither
    point here lands there.)"""
    with pytest.raises(PrecisionError):
        gauss_kronrod(lambda t: np.where(t < c, 1.0, 0.0), (0.0, 1.0), 1e-8)


def test_unit_jumps_wrong_but_accepted_are_rare():
    """A unit jump at 300 seeded points of the panel [0, 1], tol 1e-8.
    Every jump that comes back wrong lies in the blind spot the docstring
    names, and its estimate is tiny; there are 11 of them (the 16/8
    Gauss-Legendre pair that K15/G7 replaced accepted 57), 281 raise and
    8 come back within tol."""
    counts = {"raised": 0, "within tol": 0, "wrong": 0}
    for c in np.random.default_rng(1).uniform(0.0, 1.0, 300):
        try:
            value, _ = gauss_kronrod(lambda t: np.where(t < c, 1.0, 0.0),
                                     (0.0, 1.0), 1e-8)
        except PrecisionError:
            counts["raised"] += 1
            continue
        counts["within tol" if abs(value - c) <= 1e-8 else "wrong"] += 1
    assert counts == {"raised": 281, "within tol": 8, "wrong": 11}


def test_same_jump_at_an_edge_converges():
    c = 1.0 / math.sqrt(2.0)
    value, est = gauss_kronrod(lambda t: np.where(t < c, 1.0, 0.0),
                                (0.0, c, 1.0), 1e-8)
    assert abs(value - c) <= 1e-14 and est <= 1e-8


def test_non_finite_integrand_raises():
    with pytest.raises(PrecisionError):
        gauss_kronrod(lambda t: np.where(t > 0.9, np.nan, t), (0.0, 1.0),
                       1e-8)


def test_divergent_integrand_raises():
    with pytest.raises(PrecisionError):
        gauss_kronrod(lambda t: 1.0 / (t - 0.5) ** 2, (0.0, 0.5), 1e-8)


def test_edges_must_ascend():
    for edges in ((1.0,), (0.0, 0.0), (1.0, 0.0)):
        with pytest.raises(ValueError):
            gauss_kronrod(np.sin, edges, 1e-8)


def test_runtime_imports_stay_numpy_only():
    """One l1_gap_quadrature loads neither numpy.polynomial (about 1.75 MB
    of resident memory) nor the test extras."""
    src = os.path.dirname(os.path.dirname(zetabounds.__file__))
    code = ("import sys, zetabounds.extremal as ex; "
            "ex.l1_gap_quadrature(ex.ApproximantParams.make(1.0, "
            "ex.MAJORANT)); "
            "print(sorted(m for m in ('numpy.polynomial', 'mpmath', "
            "'hypothesis') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
