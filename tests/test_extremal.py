import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetabounds import extremal as ex
from zetabounds import verify as vf
from zetabounds.extremal import (MAJORANT, MINORANT, ApproximantParams,
                                 TruncatedExponential)
from zetabounds.util import PoleError

LAMBDAS = (0.1, 0.25, 1.0, 4.0, -0.1, -0.25, -1.0, -4.0)


# ----------------------------------------------------------------------
# truncated exponential
# ----------------------------------------------------------------------

def test_truncated_exp_basics():
    I = TruncatedExponential(1.0)
    assert ex.truncated_exp(I, -1.0) == 0.0
    assert ex.truncated_exp(I, 0.0) == 1.0
    I2 = TruncatedExponential(-2.0)
    assert abs(ex.truncated_exp(I2, -1.0) - math.exp(-2.0)) < 1e-15
    with pytest.raises(ValueError):
        TruncatedExponential(0.0)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(LAMBDAS), st.floats(-30.0, 30.0))
def test_truncated_exp_support_and_value(lam, u):
    v = ex.truncated_exp(TruncatedExponential(lam), u)
    if (1.0 if lam > 0 else -1.0) * u < 0:
        assert v == 0.0
    else:
        assert abs(v - math.exp(-lam * u)) <= 1e-12 * v


# ----------------------------------------------------------------------
# the weight on [-1, 1]
# ----------------------------------------------------------------------

def test_phi_weight_at_zero():
    for lam in (0.5, -0.5):
        for side, pm in ((MAJORANT, 1.0), (MINORANT, -1.0)):
            p = ApproximantParams.make(lam, side)
            want = 0.5 / math.tanh(abs(lam) / 2.0) + pm * 0.5
            assert abs(ex.phi_weight(p, 0.0) - want) < 1e-14


def test_phi_weight_compact_support():
    p = ApproximantParams.make(1.0, MAJORANT)
    for t in (1.5, -2.0, 7.0):
        assert ex.phi_weight(p, t) == 0.0
    # continuous vanishing at the support edges
    assert abs(ex.phi_weight(p, 1.0)) < 1e-13
    assert abs(ex.phi_weight(p, -1.0)) < 1e-13


def test_phi_weight_inverts_phi_hat():
    p = ApproximantParams.make(0.25, MAJORANT)
    # quadrature Fourier transform of the weight reproduces the majorant
    for y in (0.0, 0.3, -1.2, 2.6, 4.9):
        ft = ex.phi_weight_quad_transform(p, y)
        assert abs(ft - ex.phi_hat(p, y)) < 1e-6


# ----------------------------------------------------------------------
# majorant / minorant values
# ----------------------------------------------------------------------

def test_node_values_majorant():
    p = ApproximantParams.make(0.5, MAJORANT)
    assert abs(ex.phi_hat(p, 2.0) - math.exp(-1.0)) < 1e-15
    assert ex.phi_hat(p, 0.0) == 1.0
    assert ex.phi_hat(p, -3.0) == 0.0


def test_node_values_minorant():
    p = ApproximantParams.make(0.5, MINORANT)
    assert ex.phi_hat(p, 0.0) == 0.0
    assert abs(ex.phi_hat(p, 4.0) - math.exp(-2.0)) < 1e-15


def test_negative_lambda_mirrors():
    pp = ApproximantParams.make(0.7, MAJORANT)
    pn = ApproximantParams.make(-0.7, MAJORANT)
    for x in (0.3, 1.9, -2.4, 5.5):
        assert abs(ex.phi_hat(pp, x) - ex.phi_hat(pn, -x)) < 1e-14


def test_difference_is_squared_sinc():
    xs = np.linspace(-10.0, 10.0, 501)
    for lam in (0.25, -1.0):
        pM = ApproximantParams.make(lam, MAJORANT)
        pL = ApproximantParams.make(lam, MINORANT)
        d = ex.phi_hat_batch(pM, xs) - ex.phi_hat_batch(pL, xs)
        ref = np.array([1.0 if abs(x) < 1e-9 else
                        (math.sin(math.pi * x) / (math.pi * x)) ** 2
                        for x in xs])
        assert np.max(np.abs(d - ref)) < 1e-10


# ----------------------------------------------------------------------
# L1 gaps
# ----------------------------------------------------------------------

def test_gap_closed_forms():
    pM = ApproximantParams.make(1.0, MAJORANT)
    pL = ApproximantParams.make(1.0, MINORANT)
    assert abs(ex.l1_gap(pM) - (1.0 / (1.0 - math.exp(-1.0)) - 1.0)) < 1e-15
    assert abs(ex.l1_gap(pL) - (1.0 - 1.0 / (math.e - 1.0))) < 1e-15


@pytest.mark.parametrize("lam", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("side", [MAJORANT, MINORANT])
def test_gap_quadrature_matches(lam, side):
    assert vf.gap_identity_holds(lam, side)


# ----------------------------------------------------------------------
# Lerch closed form
# ----------------------------------------------------------------------

def test_lerch_route_node_and_limit():
    p = ApproximantParams.make(0.5, MAJORANT)
    assert abs(ex.phi_hat_lerch(p, 2.0) - math.exp(-1.0)) < 1e-15
    # x -> 0 removable point (guarded to the node value)
    assert abs(ex.phi_hat_lerch(p, 1e-9) - 1.0) < 1e-7
    with pytest.raises(ValueError):
        ex.phi_hat_lerch(ApproximantParams.make(-0.5, MAJORANT), 1.0)


# ----------------------------------------------------------------------
# glued contour weight
# ----------------------------------------------------------------------

def test_glued_weight_star_vanishes_at_origin():
    for nu in (0.3, 1.0):
        assert abs(ex._phi_star(nu, 1.0, 0.0)) == 0.0
        assert abs(ex._phi_circ(nu, 1.0, 1.0)
                   + ex._phi_star(nu, 1.0, 1.0)) < 1e-13


def test_glued_weight_pole_error():
    nu = 0.8
    pole = 1.0 - 1j * nu / (2.0 * math.pi)
    with pytest.raises(PoleError):
        ex.glued_contour_weight(nu, MAJORANT, pole)


def test_arnoroid_reformulation():
    rng = np.random.default_rng(6)
    for _ in range(40):
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        for pm in (1.0, -1.0):
            for xi in (1.0, -1.0):
                a = ex._phi_circ(0.9, pm, z) + xi * ex._phi_star(0.9, pm, z)
                b = ex.phi_combo_xi(0.9, pm, xi, z)
                assert abs(a - b) < 1e-12


# ----------------------------------------------------------------------
# Beurling majorant of sgn
# ----------------------------------------------------------------------

def test_beurling_interpolates_sgn():
    assert ex.beurling_majorant(3.0) == 1.0
    assert ex.beurling_majorant(-2.0) == -1.0
    assert ex.beurling_majorant(0.0) == 1.0


def test_beurling_majorizes_indicator():
    for x in np.linspace(-3.0, 3.0, 301):
        lhs = (ex.beurling_majorant(float(x)) + 1.0) / 2.0
        assert lhs >= (1.0 if x >= 0 else 0.0) - 1e-12


def test_params_validation():
    with pytest.raises(ValueError):
        ApproximantParams(nu=1.0, side="nope", lam=1.0)
    with pytest.raises(ValueError):
        ApproximantParams(nu=2.0, side=MAJORANT, lam=1.0)
