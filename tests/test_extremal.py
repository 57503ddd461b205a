import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetabounds import extremal as ex
from zetabounds.extremal import MAJORANT, MINORANT, ApproximantParams
from zetabounds.special import coth_stable, x_coth_x
from zetabounds.util import PoleError

LAMBDAS = (0.1, 0.25, 1.0, 4.0, -0.1, -0.25, -1.0, -4.0)


# ----------------------------------------------------------------------
# truncated exponential
# ----------------------------------------------------------------------

def test_truncated_exp_basics():
    assert ex.truncated_exp(1.0, -1.0) == 0.0
    assert ex.truncated_exp(1.0, 0.0) == 1.0
    assert abs(ex.truncated_exp(-2.0, -1.0) - math.exp(-2.0)) < 1e-15
    with pytest.raises(ValueError):
        ex.truncated_exp(0.0, 1.0)


def test_truncated_exp_on_arrays():
    # e^(-lambda u) overflows at u = -1e3 for lambda = 4 and at u = 1e3 for
    # lambda = -4, both off the half-line: no warning may come from them
    u = np.array([-1e3, -2.5, -0.0, 0.0, 1.5, 1e3])
    for lam in LAMBDAS:
        got = ex.truncated_exp(lam, u)
        want = [math.exp(-lam * v) if lam * v >= 0 else 0.0 for v in u]
        assert got.shape == u.shape
        assert np.allclose(got, want, rtol=1e-15, atol=0.0)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(LAMBDAS), st.floats(-30.0, 30.0))
def test_truncated_exp_support_and_value(lam, u):
    v = ex.truncated_exp(lam, u)
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
        assert abs(ft - ex.phi_hat(p, y)) < 2e-15


# lambda = +-0.1 puts coth near its poles at t = 0 and t = +-1, and
# lambda = +-50 past |Re z| = 20; both sides and both signs of lambda
PARITY_PARAMS = [ApproximantParams.make(lam, side)
                 for lam in (0.1, -0.1, 0.8, -0.8, 50.0, -50.0)
                 for side in (MAJORANT, MINORANT)]


def _param_id(p):
    return f"{p.lam:g}-{p.side}"


@pytest.mark.parametrize("p", PARITY_PARAMS, ids=_param_id)
def test_phi_weight_array_matches_scalar(p):
    t = np.concatenate([np.linspace(-1.5, 1.5, 61),
                        [0.0, -0.0, 1.0, -1.0, 1e-12, -1e-12]])
    got = ex.phi_weight(p, t)
    assert got.dtype == np.complex128 and got.shape == t.shape
    assert np.all(got[np.abs(t) > 1.0] == 0.0)
    for v, g in zip(t.tolist(), got):
        want = ex.phi_weight(p, v)
        assert type(want) is complex
        assert abs(g - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("p", PARITY_PARAMS, ids=_param_id)
def test_phi_hat_array_matches_scalar(p):
    """Relative to the largest value: the series length follows the
    largest |x| of a call, so near a zero of phi_hat the two may differ
    by an ulp of the function's scale."""
    x = np.concatenate([np.linspace(-12.0, 12.0, 97), [0.0, 1.0, -3.0]])
    got = ex.phi_hat(p, x)
    assert got.dtype == np.float64 and got.shape == x.shape
    want = np.array([ex.phi_hat(p, v) for v in x.tolist()])
    assert all(type(ex.phi_hat(p, v)) is float for v in (0.0, 2.5))
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


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
        d = ex.phi_hat(pM, xs) - ex.phi_hat(pL, xs)
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
        assert abs(ex._phi_parts(nu, 1.0, 0.0)[1]) == 0.0
        circ, star = ex._phi_parts(nu, 1.0, 1.0)
        assert abs(circ + star) < 1e-13


def _two_coth_parts(nu, pm, z):
    """(circ, star) with coth(w/2) taken twice, once in each part."""
    w = nu - 2.0 * math.pi * 1j * z
    circ = 0.5 * (coth_stable(0.5 * w) + pm)
    star = (1j / (2.0 * math.pi)) * (x_coth_x(0.5 * nu) - x_coth_x(0.5 * w)
                                     + pm * math.pi * 1j * z)
    return circ, star


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("side", [MAJORANT, MINORANT])
def test_one_coth_per_node_keeps_the_bits(lam, side):
    """phi_weight on an array and glued_contour_weight at a point equal,
    bit for bit, the circ and star parts with coth(w/2) taken in each."""
    rng = np.random.default_rng(41)
    p = ApproximantParams.make(lam, side)
    t = np.concatenate([rng.uniform(-1.0, 1.0, 200), [-1.0, -0.0, 0.0, 1.0]])
    z = math.copysign(1.0, lam) * t
    circ, star = _two_coth_parts(p.nu, p.sign, z)
    want = circ + np.sign(z) * star
    assert ex.phi_weight(p, t).tobytes() == want.tobytes()
    for zc in rng.uniform(-3.0, 3.0, 40) + 1j * rng.uniform(-1.0, 1.0, 40):
        zz = math.copysign(1.0, lam) * zc
        circ, star = _two_coth_parts(p.nu, p.sign, zz)
        sr = 0.0 if zc.real == 0 else math.copysign(1.0, zc.real)
        want = circ + math.copysign(1.0, lam) * sr * star
        got = ex.glued_contour_weight(lam, side, zc)
        assert np.array([got]).tobytes() == np.array([want]).tobytes()


def test_glued_weight_pole_error():
    nu = 0.8
    pole = 1.0 - 1j * nu / (2.0 * math.pi)
    with pytest.raises(PoleError):
        ex.glued_contour_weight(nu, MAJORANT, pole)


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


@pytest.mark.parametrize("lam", [0.25, 1.0, 4.0, -0.5])
@pytest.mark.parametrize("side", [MAJORANT, MINORANT])
def test_phi_hat_does_not_depend_on_its_batch(lam, side):
    """phi_hat at x has the same bits whichever points share its call (the
    eight approximants whose L1 gaps CI prints): the series length
    follows each point, not the largest |x| of the block."""
    p = ApproximantParams.make(lam, side)
    xs = np.concatenate([np.random.default_rng(31).uniform(-300, 300, 500),
                         np.arange(-20.0, 21.0), np.arange(-5, 5) + 1e-7,
                         [0.5, 1e4 + 0.3, -1e4 - 0.3]])
    batch = ex.phi_hat(p, xs)
    for i, x in enumerate(xs.tolist()):
        assert batch[i] == ex.phi_hat(p, x), x
