import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

import zetabounds
from zetabounds.util import (GL_ORDER, PrecisionError, gauss_legendre,
                             legendre_rule)


# ----------------------------------------------------------------------
# Gauss-Legendre panels
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [GL_ORDER // 2, GL_ORDER])
def test_rule_matches_numpy_leggauss(n):
    from numpy.polynomial.legendre import leggauss
    x, w = legendre_rule(n)
    xr, wr = leggauss(n)
    assert np.max(np.abs(x - xr)) <= 1e-15
    assert np.max(np.abs(w - wr)) <= 2e-15


def test_exact_for_degree_2n_minus_1_on_one_panel():
    c = np.random.default_rng(3).uniform(-1.0, 1.0, 2 * GL_ORDER)
    k = np.arange(c.size)
    exact = float(np.sum(c / (k + 1)))           # integral over [0, 1]
    value, _ = gauss_legendre(lambda t: np.polyval(c[::-1], t),
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
    value, est = gauss_legendre(f, edges, tol)
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
    (A jump between a panel's end and its first node is invisible to both
    rules and to the parent check; the docstring of gauss_legendre says
    so, and neither point here lands there.)"""
    with pytest.raises(PrecisionError):
        gauss_legendre(lambda t: np.where(t < c, 1.0, 0.0), (0.0, 1.0), 1e-8)


def test_same_jump_at_an_edge_converges():
    c = 1.0 / math.sqrt(2.0)
    value, est = gauss_legendre(lambda t: np.where(t < c, 1.0, 0.0),
                                (0.0, c, 1.0), 1e-8)
    assert abs(value - c) <= 1e-14 and est <= 1e-8


def test_non_finite_integrand_raises():
    with pytest.raises(PrecisionError):
        gauss_legendre(lambda t: np.where(t > 0.9, np.nan, t), (0.0, 1.0),
                       1e-8)


def test_divergent_integrand_raises():
    with pytest.raises(PrecisionError):
        gauss_legendre(lambda t: 1.0 / (t - 0.5) ** 2, (0.0, 0.5), 1e-8)


def test_edges_must_ascend():
    for edges in ((1.0,), (0.0, 0.0), (1.0, 0.0)):
        with pytest.raises(ValueError):
            gauss_legendre(np.sin, edges, 1e-8)


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
