import math

import numpy as np
import pytest

from zetabounds import cli
from zetabounds import extremal as ex
from zetabounds import formula as fm
from zetabounds import sieve as sv
from zetabounds import zeros as zr
from zetabounds.util import EULER_GAMMA, TWO_PI
from zetabounds.weights import WeightContext


# ----------------------------------------------------------------------
# trivial zeros
# ----------------------------------------------------------------------

def test_trivial_plain_sum_geometric():
    _, plain, _ = fm.trivial_zero_terms(100.0, 0.0, 10.0)
    assert abs(plain - 1.0 / 990.0) < 1e-18


def test_trivial_bound_holds():
    coth_sum, plain, rhs = fm.trivial_zero_terms(100.0, 0.0, 10.0)
    assert math.pi / 100.0 * (coth_sum + plain) <= rhs
    assert rhs == (0.5 + TWO_PI / 100.0) / (10.0 ** 3 * (1 - 10.0 ** -2))


def test_trivial_terms_vanish_at_infinity():
    c, p, r = fm.trivial_zero_terms(50.0, 0.3, 1e8)
    assert c < 1e-20 and p < 1e-20 and r < 1e-20


def test_trivial_domain_guard():
    with pytest.raises(ValueError):
        fm.trivial_zero_terms(10.0, -2.5, 100.0)


# ----------------------------------------------------------------------
# zero sums
# ----------------------------------------------------------------------

def test_abs_bound_dominates_signed(zl_med):
    ctx = WeightContext(1500.0, 0.0)
    bound, xi = fm.nontrivial_zero_sum(zl_med, ctx)
    assert xi in fm.XI_GRID and abs(xi) == 1.0
    bc = fm.BoundContext(zl_med, 1500.0, 0.0)
    assert bc.zero_sum == bound
    for x in (1500.5, 5e4, 1e6, 1e12):
        exact = bc.report(1500.0, 0.0, x).zero_sum_exact
        assert abs(exact) <= bound + 1e-12


def test_zero_sum_exact_against_mpmath(zl_med):
    """The one-sine zero sum -(2pi/T) sum |w| sin(gamma L + arg w) of a
    report against -(2pi/T) x^(1/2) Im sum w x^(rho-1) at 40 digits, over
    the same double gamma and w = omega^+(rho)."""
    mpmath = pytest.importorskip("mpmath")
    from zetabounds.weights import omega_plus_batch
    rng = np.random.default_rng(1801)
    with mpmath.workdps(40):
        for T in (50.0, 300.0, 1468.0):
            g = zl_med.ordinates[zl_med.ordinates <= T]
            xs = [T * (1.0 + 1e-9), math.exp(60.0)] + [
                math.exp(v) for v in rng.uniform(math.log(T), 60.0, 2)]
            # x^(rho - 1) = x^(-1/2) e^(i gamma log x)
            phases = {x: [mpmath.expj(mpmath.mpf(float(t))
                                      * mpmath.log(mpmath.mpf(x)))
                          for t in g] for x in xs}
            for sigma in (-0.5, 0.0, 1.0, 2.0):
                ctx = fm.BoundContext(zl_med, T, sigma)
                w = [mpmath.mpc(complex(a)) for a in omega_plus_batch(
                    WeightContext(T, sigma), 0.5 + 1j * g)]
                scale = TWO_PI / T * float(sum(abs(a) for a in w))
                for x, xf in phases.items():
                    want = -2 * mpmath.pi / T * mpmath.fsum(
                        (a * b).imag for a, b in zip(w, xf))
                    got = ctx.report(T, sigma, x).zero_sum_exact
                    assert abs(got - float(want)) <= 1e-13 * scale


def test_report_float_fields_are_python_floats(zl_med):
    # a numpy scalar formats the same but is not a float to every reader
    reps = [fm.explicit_formula_bound(zl_med, 1000.0, sigma, x)
            for sigma in (-0.5, 0.0, 0.5, 1.0, 2.0)
            for x in (1e4, 1e8)]
    reps += [fm.explicit_formula_bound(None, 2e7, sigma, 3e7)
             for sigma in (0.0, 0.5)]
    assert any(r.zero_sum_path == "closed-form" for r in reps)
    for r in reps:
        floats = [(k, v) for k, v in vars(r).items()
                  if k not in ("zero_sum_path", "error_path")
                  and v is not None]
        assert len(floats) >= 11
        for k, v in floats:
            assert type(v) is float, (k, type(v))


def test_height_guard(zl_med):
    with pytest.raises(ValueError):
        fm.nontrivial_zero_sum(zl_med, WeightContext(5000.0, 0.0))


def test_zero_sum_bound_paths(zl_med):
    v, path = fm.zero_sum_bound(zl_med, 1500.0, 0.0)
    assert path == "direct" and v > 0
    v2, path2 = fm.zero_sum_bound(None, 2e7, 0.0)
    assert path2 == "closed-form"
    assert abs(v2 - fm.vihuela_rhs(2e7)) == 0.0
    with pytest.raises(ValueError):
        fm.zero_sum_bound(None, 1500.0, 0.0)


@pytest.mark.parametrize("name, compute", [
    ("epsilon_1468", lambda zl: fm.epsilon_at(zl, 1468.0, math.exp(60.0))),
    ("direct_sum_1468", lambda zl: fm.zero_sum_bound(zl, 1468.0, 0.0)[0]),
], ids=["epsilon_1468", "direct_sum_1468"])
def test_pinned_constant_at_1468(zl_med, name, compute):
    value, tol = next((v, t) for n, _, v, t in cli.PINNED_CONSTANTS
                      if n == name)
    assert abs(compute(zl_med) - value) <= tol


# ----------------------------------------------------------------------
# archimedean components
# ----------------------------------------------------------------------

def test_arles_constant_value():
    assert abs(fm.arles_constant() - 3.86102) < 1e-4


# ----------------------------------------------------------------------
# bound reports
# ----------------------------------------------------------------------

def test_report_sigma_one_main_term(zl_med):
    rep = fm.explicit_formula_bound(zl_med, 1000.0, 1.0, 1e6)
    assert rep.main_term == math.log(1e6) - EULER_GAMMA
    assert rep.real_pole_term == 0.0


def test_report_sigma_zero_pole_term(zl_med):
    rep = fm.explicit_formula_bound(zl_med, 1000.0, 0.0, 1e6)
    assert abs(rep.real_pole_term - (-math.log(TWO_PI) / 1e6)) < 1e-12
    assert rep.total_lower < 1.0 < rep.total_upper


def test_report_requires_x_above_T(zl_med):
    with pytest.raises(ValueError):
        fm.explicit_formula_bound(zl_med, 1000.0, 0.0, 500.0)
    with pytest.raises(ValueError):
        fm.explicit_formula_bound(zl_med, 1000.0, -3.0, 1e6)


def test_report_json_round_trip(zl_med):
    import json
    rep = fm.explicit_formula_bound(zl_med, 1000.0, 0.5, 1e6)
    d = json.loads(rep.to_json())
    assert float(d["total_upper"]) == rep.total_upper
    assert d["zero_sum_path"] == "direct"


def test_report_json_template_matches_json_dumps(zl_100):
    """to_json fills a template; it must write json.dumps' bytes."""
    import json
    rng = np.random.default_rng(12)
    zl = zl_100
    reps = [fm.explicit_formula_bound(zl, 50.0, 0.0, 50.5),
            fm.explicit_formula_bound(zl, 200, 1.0, 1e5),
            fm.explicit_formula_bound(zl, 200, 0.5, 10 ** 6)]
    for _ in range(40):
        sigma = float(rng.choice([-1.5, -0.0, 0.0, 0.5, 1.0, 2.0]))
        # no zero list above the closed-form floor: zero_sum_exact is None
        zl_T = ((None, float(rng.uniform(2e7, 1e9))) if rng.random() < 0.25
                else (zl, float(rng.uniform(20.0, zl.t_max))))
        x = zl_T[1] * float(np.exp(rng.uniform(0.005, 40.0)))
        reps.append(fm.explicit_formula_bound(*zl_T, sigma, x))
    assert {r.error_path for r in reps} == {"folded", "explicit"}
    assert any(r.zero_sum_exact is None for r in reps)
    assert any(math.copysign(1.0, r.sigma) < 0 for r in reps)
    for r in reps:
        assert r.to_json() == json.dumps(r.to_dict(), indent=1,
                                         sort_keys=True)
        assert json.loads(r.to_json()) == r.to_dict()


def test_report_rejects_unknown_paths(zl_med):
    # to_json writes the path names unescaped: only the known ones pass
    import dataclasses
    rep = fm.explicit_formula_bound(zl_med, 1000.0, 0.0, 1e6)
    for k in ("error_path", "zero_sum_path"):
        with pytest.raises(ValueError):
            dataclasses.replace(rep, **{k: 'a"b'})


def test_sandwich_against_sieve_small(zl_med):
    # end-to-end at desk scale: measured partial sums stay inside
    xs = [3000, 10 ** 4, 10 ** 5, 10 ** 6]
    cps = {c.x: c for c in sv.psi_checkpoints(xs)}
    for T in (300.0, 1000.0, 2000.0):
        for x in xs:
            if x <= T:
                continue
            rep0 = fm.explicit_formula_bound(zl_med, T, 0.0, float(x))
            measured0 = cps[x].psi / x
            assert rep0.total_lower <= measured0 <= rep0.total_upper
            rep1 = fm.explicit_formula_bound(zl_med, T, 1.0, float(x))
            measured1 = cps[x].sum_lambda_over_n
            assert rep1.total_lower <= measured1 <= rep1.total_upper


def test_sandwich_sigma_half(zl_med, prime_powers):
    # direct summation of Lambda(n) n^-1/2 for a non-integer sigma
    x = 10 ** 5
    ns, ls = prime_powers.window(2, x)
    measured = float(np.sum(ls / np.sqrt(ns))) / math.sqrt(x)
    rep = fm.explicit_formula_bound(zl_med, 1000.0, 0.5, float(x))
    assert rep.total_lower <= measured <= rep.total_upper


def test_monotone_width_in_T(zl_med):
    widths = []
    for T in (300.0, 1e3, 2e3):
        r = fm.explicit_formula_bound(zl_med, T, 0.0, 1e7)
        widths.append(r.total_upper - r.total_lower)
    assert all(a >= b for a, b in zip(widths, widths[1:]))


def test_memo_rows_match_fresh_contexts(zl_med):
    # a second list with the same T and sigma: zl_med shifted by 1e-9
    zl_b = zr.ZeroList(zl_med.ordinates * (1.0 + 1e-9), zl_med.t_max)
    A, B = (zl_med, 1000.0, 0.5), (zl_b, 1000.0, 0.5)
    C, D = (zl_med, 1000.0, 0.0), (zl_med, 1000.0, -0.0)
    E, F = (zl_med, 1000.0, 1.0), (None, 2e7, 0.0)
    calls = [A + (1e4,), A + (1e6,), B + (1e4,), A + (3.5e7,), C + (1e4,),
             D + (1e6,), C + (1e12,), E + (1e5,), A + (1e30,), F + (3e7,),
             F + (1e9,), B + (1e6,), D + (2e3,)]
    memo = [fm.explicit_formula_bound(*c).to_json() for c in calls]
    fresh = []
    for c in calls:
        fm._last_context = None
        fresh.append(fm.explicit_formula_bound(*c).to_json())
    assert memo == fresh
    assert memo[0] != memo[2]       # the two lists do give other rows
    assert '"sigma": "-0.0' in memo[5]


def test_memo_builds_one_context_per_grid(zl_med, monkeypatch):
    calls = {"log_deriv": [], "omega": [], "zero_sum": []}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fm, "log_deriv_zeta",
                        counted("log_deriv", fm.log_deriv_zeta))
    monkeypatch.setattr(fm, "omega_plus_batch",
                        counted("omega", fm.omega_plus_batch))
    monkeypatch.setattr(fm, "nontrivial_zero_sum",
                        counted("zero_sum", fm.nontrivial_zero_sum))
    fm._last_context = None
    for x in np.geomspace(2e3, 1e30, 50):
        fm.explicit_formula_bound(zl_med, 1500.0, 0.5, float(x))
    assert {k: len(v) for k, v in calls.items()} == {
        "log_deriv": 1, "omega": 1, "zero_sum": 1}
    # the positional arguments a zero-sum hook reads: the list and its T
    (args,) = calls["zero_sum"]
    assert args[0] is zl_med and args[1].T == 1500.0


# ----------------------------------------------------------------------
# counterexample
# ----------------------------------------------------------------------

def test_counterexample_tiny_x():
    # K = 1, x < 2: only n = 1 contributes F_K(0) = K + 1
    spec = fm.CounterexampleSpec(K=1, T=15.0, delta=0.5)
    mean, _ = fm.counterexample_mean(spec, 1, "+")
    x = math.exp((TWO_PI + 0.5) / 15.0)
    assert abs(mean - 2.0 / x) < 1e-14


def test_counterexample_residue_structure():
    # A(s) = sum (1-|k|/(K+1)) zeta(s-ikT) has residue 1 at s = 1: the
    # k = 0 coefficient is exactly 1
    K = 17
    k = np.arange(-K, K + 1)
    w = 1.0 - np.abs(k) / (K + 1.0)
    assert w[K] == 1.0
    assert np.all(w[np.abs(k) == K] > 0.0)


def test_counterexample_brackets():
    spec = fm.CounterexampleSpec(K=200, T=1.0, delta=0.1)
    mean, pred_plus = fm.counterexample_mean(spec, 2, "+")
    x = math.exp(TWO_PI * 2 + 0.1)
    allow = fm.fandango_allowance(spec, x)
    assert mean > pred_plus - allow
    assert mean < pred_plus + allow
    mean_m, pred_minus = fm.counterexample_mean(spec, 2, "-")
    assert mean > pred_minus


def test_counterexample_guards():
    with pytest.raises(ValueError):
        fm.CounterexampleSpec(K=0, T=1.0, delta=0.1)
    with pytest.raises(ValueError):
        fm.CounterexampleSpec(K=5, T=0.5, delta=0.1)
    with pytest.raises(ValueError):
        fm.counterexample_mean(fm.CounterexampleSpec(K=5, T=0.3 + 1.0,
                                                     delta=0.1), 5, "+")


# ----------------------------------------------------------------------
# Perron identity
# ----------------------------------------------------------------------

def _pair(lam, side):
    p = ex.ApproximantParams.make(lam, side)
    return (lambda t: ex.phi_weight(p, t)), (lambda y: ex.phi_hat(p, y))


def test_perron_single_coefficient():
    phi, phi_hat = _pair(0.5, ex.MAJORANT)
    d = fm.perron_identity_check([1.0], phi, phi_hat, 30.0, 1.2, 7.3)
    assert d < 1e-10


def test_perron_mangoldt_polynomial(prime_powers):
    ns, ls = prime_powers.window(2, 50)
    co = np.zeros(50)
    co[ns - 1] = ls
    phi, phi_hat = _pair(-0.8, ex.MINORANT)
    d = fm.perron_identity_check(co, phi, phi_hat, 20.0, 1.5, 31.7)
    assert d < 1e-6


def test_perron_triangle_pair():
    tri = lambda t: np.maximum(0.0, 1.0 - np.abs(t))
    tri_hat = lambda y: np.sinc(y) ** 2
    d = fm.perron_identity_check([0.3, 1.1, 0.0, 2.2], tri, tri_hat,
                                 25.0, 0.8, 11.3)
    assert d < 1e-6


@pytest.mark.parametrize("k,case,nodes", [
    (0, (1, 0.5, ex.MAJORANT, 30.0, 1.2, 7.3), 600),
    (1, (40, 0.8, ex.MAJORANT, 20.0, 1.2, 20.0), 600),
    (2, (100, -0.6, ex.MINORANT, 35.0, 0.7, 45.0), 1050),
    (3, (17, 1.5, ex.MINORANT, 8.0, 2.0, 3.0), 210),
    (4, (60, 0.3, ex.MAJORANT, 12.0, 1.0, 11.5), 570),
    (5, (2000, 0.8, ex.MAJORANT, 20.0, 1.2, 20.0), 750)])
def test_perron_panels_follow_the_integrand_frequency(monkeypatch, k, case,
                                                      nodes):
    """The CI cases of quadrature.txt: starting from panels about
    4/Omega wide, Gauss-Kronrod takes at most the stated nodes (from the
    two panels (-T, 0, T) it took 1 050, 990, 1 890, 270, 750 and
    1 230), and the residual stays below the verify suite's 1e-6 and the
    quadrature's own tolerance 2e-9 times x^sigma / (2 pi T)."""
    m, lam, side, T, sigma, x = case
    points = []
    inner = fm.gauss_kronrod

    def counting(f, *args):
        return inner(lambda t: points.append(t.size) or f(t), *args)

    monkeypatch.setattr(fm, "gauss_kronrod", counting)
    phi, phi_hat = _pair(lam, side)
    coeffs = np.random.default_rng(k).uniform(0.0, 2.0, m)
    d = fm.perron_identity_check(coeffs, phi, phi_hat, T, sigma, x)
    assert sum(points) <= nodes
    assert d < 1e-6 and d <= 2e-9 * x ** sigma / (TWO_PI * T)


@pytest.mark.parametrize("N", [1, 40, 300, 2000])
def test_perron_dirichlet_sum_does_not_depend_on_the_batch(N):
    """A(s) at a node has the same bits whether the node comes alone, in
    a batch of 7 or in one of 390, the most a Gauss-Kronrod call passes:
    each batch is one table, of 2 (a lone node goes twice), 7 or 390
    columns."""
    rng = np.random.default_rng(N)
    A = fm._dirichlet_polynomial(rng.uniform(0.0, 2.0, N), 1.2)
    t = rng.uniform(-35.0, 35.0, 390)
    whole = A(t).tobytes()
    assert b"".join(A(t[i:i + 1]).tobytes() for i in range(390)) == whole
    assert b"".join(A(t[i:i + 7]).tobytes()
                    for i in range(0, 390, 7)) == whole


@pytest.mark.parametrize("N", [1, 17, 40, 100, 2000])
def test_perron_dirichlet_sum_against_mpmath(N):
    """A(sigma + i t) is sum a_n n^(-sigma - i t) to within
    2^-52 sum |a_n| n^-sigma (|t| log n + 1 + log2 N): the rounding of
    each phase t log n and of the products and additions that build and
    add the table (the largest share seen was 0.19)."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(100 + N)
    a = rng.uniform(0.0, 2.0, N)
    n = np.arange(1, N + 1)
    with mpmath.workdps(30):
        logs = [mpmath.log(k) for k in range(1, N + 1)]
        for sigma, T in ((1.2, 35.0), (0.6, 40.0)):
            t = rng.uniform(-T, T, 6 if N == 2000 else 20)
            got = fm._dirichlet_polynomial(a, sigma)(t)
            for tj, g in zip(t, got):
                s = mpmath.mpf(sigma) + 1j * mpmath.mpf(tj)
                want = complex(mpmath.fsum(mpmath.mpf(ak) * mpmath.exp(-s * lg)
                                           for ak, lg in zip(a, logs)))
                unit = 2.0 ** -52 * float(np.sum(
                    a * n ** -sigma
                    * (abs(tj) * np.log(n) + 1.0 + math.log2(N))))
                assert abs(g - want) <= unit
