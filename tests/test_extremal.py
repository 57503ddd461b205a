import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetabounds import extremal as ex
from zetabounds.extremal import MAJORANT, MINORANT, ApproximantParams
from zetabounds.special import coth_stable, x_coth_x
from zetabounds.util import PoleError, kronrod_pair, kronrod_rule

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


GAP_NUS = (0.1, 0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0, 8.0)


@pytest.mark.parametrize("nu", GAP_NUS)
def test_l1_gap_quadrature_against_the_closed_form(nu):
    """Within the tails' stated remainder 1e-12, the threshold of
    `verify.check_gap_identity`; the largest difference here is 5.8e-15
    (nu = 0.1)."""
    for lam in (nu, -nu):
        for side in (MAJORANT, MINORANT):
            p = ApproximantParams.make(lam, side)
            assert abs(ex.l1_gap_quadrature(p) - ex.l1_gap(p)) <= 1e-12


def _window(monkeypatch, p):
    """The Y that l1_gap_quadrature passes to _l1_window."""
    windows = []
    with monkeypatch.context() as m:
        m.setattr(ex, "_l1_window", lambda p, Y: windows.append(Y) or 0.0)
        ex.l1_gap_quadrature(p)
    return windows[0]


@pytest.mark.parametrize("nu", GAP_NUS)
def test_l1_lattice_matches_the_direct_integrand(monkeypatch, nu):
    """At every node y of the window, for both signs of lambda and both
    sides, the lattice integrand is within 2 eps (1 + |y|/u) of
    sign (phi_hat(y) - I_lambda(y)), where u is the node's distance to the
    nearest integer.  The direct form rounds y (by up to |y| eps/2) before
    it takes sin(pi y), which near an integer moves s(y) by a relative
    error of about |y| eps/u, on values of size at most about 1; the
    lattice takes s from u itself.  The differences reach half the bound:
    2 eps beside y = 0, where the values are near 1, and 2.4e-13 (0.42 of
    eps (1 + |y|/u)) at y = 10.9957 for nu = 0.1."""
    nodes = kronrod_rule()[0]
    u = 0.5 - 0.5 * np.abs(nodes)
    for lam in (nu, -nu):
        for side in (MAJORANT, MINORANT):
            p = ApproximantParams.make(lam, side)
            Y = _window(monkeypatch, p)
            y = np.arange(0.5 - Y, Y)[:, None] + 0.5 * nodes
            direct = p.sign * (ex.phi_hat(p, y) - ex.truncated_exp(lam, y))
            lattice = ex._l1_lattice(p, Y)
            assert lattice.shape == (2 * Y, nodes.size)
            bound = 2.0 * np.finfo(float).eps * (1.0 + np.abs(y) / u)
            assert np.all(np.abs(lattice - direct) <= bound), (lam, side)


@pytest.mark.parametrize("lam, redone", [
    (1.0, []), (-1.0, []), (8.0, [(0.0, 1.0)]), (-8.0, [(-1.0, 0.0)])])
@pytest.mark.parametrize("side", [MAJORANT, MINORANT])
def test_l1_window_redoes_the_panels_over_their_share(
        monkeypatch, lam, side, redone):
    """The window is one gauss_kronrod call over the unit panels of
    [-Y, Y], tolerance 1e-8, with the lattice as its first pass.  A panel
    whose lattice K15 and G7 differ by more than its share 1e-8/(2Y) is
    halved there, and phi_hat is taken only at the nodes of its halves:
    at nu = 8 the panel on the side of 0 where I_lambda lives, at nu = 1
    none."""
    p = ApproximantParams.make(lam, side)
    Y = _window(monkeypatch, p)
    lattice = ex._l1_lattice(p, Y)
    k15, g7 = kronrod_pair(lattice, 0.5)
    over = np.flatnonzero(np.abs(k15 - g7) > 1e-8 / (2 * Y)) - Y
    assert [(float(m), m + 1.0) for m in over] == redone
    nodes = kronrod_rule()[0]
    halves = [np.arange(m, m + 1.0, 0.5) + 0.25 + 0.25 * nodes[:, None]
              for m, _ in redone]
    calls, evaluated = [], []
    gauss_kronrod, phi_hat = ex.gauss_kronrod, ex.phi_hat

    def recorded(f, edges, tol, first_pass=None):
        calls.append((edges, tol, first_pass))
        return gauss_kronrod(f, edges, tol, first_pass)

    def counted(p, x):
        evaluated.extend(np.ravel(x).tolist())
        return phi_hat(p, x)

    monkeypatch.setattr(ex, "gauss_kronrod", recorded)
    monkeypatch.setattr(ex, "phi_hat", counted)
    ex._l1_window(p, Y)
    [(edges, tol, first_pass)] = calls
    assert np.array_equal(edges, np.arange(-Y, Y + 1.0)) and tol == 1e-8
    assert np.array_equal(first_pass, lattice)
    assert sorted(evaluated) == sorted(np.ravel(halves).tolist())


def _left_out(nu, Y):
    """The series weight the tail leaves out at window Y."""
    return math.exp(-nu * (Y - 10)) / -math.expm1(-nu)


# a geometric sweep over [0.05, 60] beside the test grid
SWEEP_NUS = tuple(round(0.05 * 1200.0 ** (i / 12), 4) for i in range(13))


@pytest.mark.parametrize("nu", GAP_NUS + SWEEP_NUS)
@pytest.mark.parametrize("side", [MAJORANT, MINORANT])
def test_l1_window_is_the_smallest_that_meets_both_conditions(
        monkeypatch, nu, side):
    """For both signs of lambda the window is the smallest integer Y that
    meets both conditions of the closed rule, Y >= 21 and a left-out
    series weight e^(-nu (Y - 10))/(1 - e^-nu) of at most 1e-15; it takes
    one _l1_tail call, whose stated remainder is at most 1e-12, and the
    quadrature is within 1e-12 of the closed form.  The largest remainder
    here is 7.3e-13 (nu = 4 majorant) and the largest difference 6.6e-15
    (nu = 0.05)."""
    tail = ex._l1_tail
    for lam in (nu, -nu):
        p = ApproximantParams.make(lam, side)
        calls = []

        def recorded(p, Y):
            out = tail(p, Y)
            calls.append((Y, out[1]))
            return out

        with monkeypatch.context() as m:
            m.setattr(ex, "_l1_tail", recorded)
            gap = ex.l1_gap_quadrature(p)
        [(Y, remainder)] = calls
        assert Y >= 21 and _left_out(nu, Y) <= 1e-15
        assert Y == 21 or _left_out(nu, Y - 1) > 1e-15
        assert remainder <= 1e-12
        assert abs(gap - ex.l1_gap(p)) <= 1e-12


# (lambda, windows): windows below, at and above the one l1_gap_quadrature
# takes (155, 81, 45, 21 and 21 at nu = 0.25, 0.5, 1, 4 and 8)
TAIL_CASES = [(lam, Y) for lam, windows in (
    (0.25, (150,)), (0.5, (80, 100)), (1.0, (45, 60)), (-1.0, (45,)),
    (4.0, (20, 30)), (-8.0, (15, 20))) for Y in windows]


@pytest.mark.parametrize("lam, Y", TAIL_CASES)
@pytest.mark.parametrize("side", [MAJORANT, MINORANT])
def test_l1_tail_against_a_window_twice_as_wide(lam, Y, side):
    """Panels on [-Y, Y] plus the tail match panels on [-2Y, 2Y] plus the
    tail to 1/100 of the stated remainder at Y plus the one at 2Y, and the
    closed form to the remainder at Y, with 4 ulps of the gap besides for
    each window: its own rounding, which the remainders (4.3e-17 to
    7.0e-12 here) do not cover.  The largest use of that allowance is 6.2
    of 8 ulps against the wide window (nu = 0.25 minorant, Y = 150) and
    0.5 of 4 against the closed form.

    The stated remainder is the integral of |G^(6)|/w^6, about the size of
    the G^(5) term.  R itself is about G^(7)(Y)/w^8, for the 1/y^2 term
    56/(w Y)^2 = 0.0063 of that at Y = 15, and the largest error here is
    0.0062 of the bound (nu = 8 majorant, Y = 15).  Without the G^(5) term
    the tails are off by up to 0.98 of the bound, and miss the 1/100."""
    p = ApproximantParams.make(lam, side)
    tail, bound = ex._l1_tail(p, float(Y))
    wide, wide_bound = ex._l1_tail(p, 2.0 * Y)
    gap = ex._l1_window(p, Y) + tail
    rounding = 4.0 * math.ulp(gap)
    assert abs(gap - (ex._l1_window(p, 2 * Y) + wide)) <= (
        bound / 100 + wide_bound + 2.0 * rounding)
    assert abs(gap - ex.l1_gap(p)) <= bound + rounding


@pytest.mark.parametrize("lam, nodes", [
    (1.0, 0), (-1.0, 0), (8.0, 30), (-8.0, 30), (0.1, 90), (-0.1, 90)])
@pytest.mark.parametrize("side", [MAJORANT, MINORANT])
def test_l1_gap_quadrature_node_count(monkeypatch, lam, side, nodes):
    """The work of one call: one lattice of 2Y rows, Y = 45, 21 and 379 at
    nu = 1, 8 and 0.1, and phi_hat at the nodes of the halves of the
    panels over their share: none at nu = 1, one panel beside 0 at
    nu = 8 (30 nodes) and three of (-2, 2) at nu = 0.1 (90)."""
    rows, evaluated = [], []
    lattice, phi_hat = ex._l1_lattice, ex.phi_hat

    def counted_lattice(p, Y):
        rows.append(len(lattice(p, Y)))
        return lattice(p, Y)

    def counted(p, x):
        evaluated.append(np.size(x))
        return phi_hat(p, x)

    monkeypatch.setattr(ex, "_l1_lattice", counted_lattice)
    monkeypatch.setattr(ex, "phi_hat", counted)
    ex.l1_gap_quadrature(ApproximantParams.make(lam, side))
    assert rows == [2 * {1.0: 45, 8.0: 21, 0.1: 379}[abs(lam)]]
    assert sum(evaluated) == nodes


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
    with pytest.raises(ValueError, match="side"):
        ApproximantParams.make(1.0, "nope")
    for lam in (0.0, -0.0, math.nan):
        with pytest.raises(ValueError, match="lambda"):
            ApproximantParams.make(lam, MAJORANT)
    for lam in (1e-3, 0.7, -0.7, -40.0):
        p = ApproximantParams.make(lam, MINORANT)
        assert p == ApproximantParams(lam, MINORANT)
        assert p.lam == lam and p.nu == abs(lam)


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
