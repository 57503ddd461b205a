"""Assembly of the finite explicit formula for prime sums.

Given zeros through height T, the partial sum sum_{n<=x} Lambda(n) n^-sigma,
normalised by x^(1-sigma), is pinned between Main(x, sigma) minus a radius
and plus the same radius, where the radius collects the trivial-zero terms,
the archimedean integral bound, the height-truncation term pi/(T-1) and the
weighted sum over nontrivial zeros divided by sqrt(x).  This module builds
those bound reports, evaluates each error component, generates the
sharpness counterexample driven by the Fejer kernel, and checks the smoothed
Perron identity numerically.

Most of a report does not depend on x.  A BoundContext holds that part for
one (zero list, T, sigma): the main term, -zeta'/zeta(sigma), the zero-sum
bound and, for each zero rho = 1/2 + i gamma through T, gamma with the
amplitude |omega^+(rho)| and phase arg omega^+(rho).  Since
Im(omega x^(rho-1)) = x^(-1/2) |omega| sin(gamma log x + arg omega), the
signed zero sum at x then costs one sine per zero and one dot product.
explicit_formula_bound keeps the last context in a one-slot memo, keyed on
the zero list's identity and on T and sigma by value, so a grid of x at one
(T, sigma) builds it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from .special import (_dirichlet_table, _factor_plan, fejer_batch,
                      log_deriv_zeta)
# adaptive_simpson stays bound: perfbench/workloads.instrument wraps it here
from .util import (EULER_GAMMA, TWO_PI,  # noqa: F401
                   KahanSum, adaptive_simpson, format_float17, gauss_kronrod)
from .weights import WeightContext, omega_plus_batch
from .zeros import ZeroList

__all__ = [
    "BoundContext", "BoundReport", "CounterexampleSpec", "trivial_zero_terms",
    "nontrivial_zero_sum", "zero_sum_bound", "vihuela_rhs", "hardin_rhs",
    "arles_constant", "explicit_formula_bound",
    "counterexample_mean", "fandango_allowance", "perron_identity_check",
    "XI_GRID",
]

XI_GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)
VIHUELA_T_FLOOR = 1e7
# phase, in radians, of the Perron integrand's fastest term across one
# starting panel, +-2 about its middle: K15 is exact to degree 22, so the
# term is at its rounding floor (2^23/23! = 3e-16), and what still splits a
# panel is the estimate |K15 - G7|, G7 being exact to degree 13 only.
# Over the six Perron cases of CI the phases 2, 3, 4, 5 and 8 took 6 060,
# 4 170, 3 600, 5 310 and 5 070 nodes, the two panels (-T, 0, T) 6 180
_PERRON_PHASE = 4.0


# ----------------------------------------------------------------------
# Trivial zeros
# ----------------------------------------------------------------------

def trivial_zero_terms(T: float, sigma: float, x: float):
    """(coth-weighted sum, plain sum, closed-form bound) over the trivial
    zeros s = -2n.

    The guarantee checked by tests: (pi/T) (coth_sum + plain_sum) <= bound,
    where bound = (1/(2+sigma) + 2 pi/T) / (x^3 (1 - x^-2)).
    """
    if sigma <= -2.0:
        raise ValueError("need sigma > -2")
    if not (x > 1.0 and T > 0.0):
        raise ValueError("need x > 1 and T > 0")
    try:
        cube = x ** 3
    except OverflowError:     # x above about 5.6e102: every term is 0
        cube = math.inf
    denom = cube * (1.0 - x ** -2)
    # a Kahan sum, kept in locals: this runs once per bound row
    coth_sum = carry = 0.0
    for n in range(1, 10_001):
        term = x ** (-2 * n - 1) / math.tanh(math.pi * (2 * n + sigma) / T)
        y = term - carry
        total = coth_sum + y
        carry = (total - coth_sum) - y
        coth_sum = total
        if term < 1e-30:
            break
    rhs = (1.0 / (2.0 + sigma) + TWO_PI / T) / denom
    return coth_sum, 1.0 / denom, rhs


# ----------------------------------------------------------------------
# Nontrivial zero sums
# ----------------------------------------------------------------------

def _zeros_through(zl: ZeroList, T: float) -> np.ndarray:
    if T > zl.t_max:
        raise ValueError("zero list does not reach the requested height")
    if not zl.rh_assumed:
        raise ValueError("zero sums need rh_assumed ordinates")
    return zl.ordinates[zl.ordinates <= T]


def _phase_sum(amp: np.ndarray, gamma: np.ndarray, phase: np.ndarray,
               L: float) -> float:
    """sum amp sin(gamma L + phase): with amp and phase the modulus and
    argument of a weight w, and L = log x, this is x^(1/2) Im of
    sum w x^(rho-1) over rho = 1/2 + i gamma."""
    arg = gamma * L
    arg += phase
    return float(np.sin(arg, out=arg) @ amp)


def nontrivial_zero_sum(zl: ZeroList, ctx: WeightContext, *, omega=None):
    """Bound on the contribution of the zeros rho = 1/2 + i gamma,
    gamma <= T: returns (2pi/T) max over the xi grid of
    sum |omega^+(rho) + xi theta_{T,1}(rho) i| and the attaining xi.

    The bound holds at every x, with no x factor (callers divide by
    sqrt(x)); the signed sum at x is BoundContext.report's zero_sum_exact.
    omega, when given, is omega^+(rho) at these zeros, already computed.
    """
    g = _zeros_through(zl, ctx.T)
    rho = 0.5 + 1j * g
    w = omega_plus_batch(ctx, rho) if omega is None else omega
    th = 1.0 - (rho - 1.0) / (1j * ctx.T)
    best = -1.0
    best_xi = None
    for xi in XI_GRID:
        val = TWO_PI / ctx.T * float(np.sum(np.abs(w + xi * th * 1j)))
        if val > best:
            best, best_xi = val, xi
    return best, best_xi


def vihuela_rhs(T: float) -> float:
    """The large-T bound (1/2pi) log^2(T/2pi) - (1.01/6pi) log(T/2pi)."""
    L = math.log(T / TWO_PI)
    return L * L / TWO_PI - 1.01 / (6.0 * math.pi) * L


def zero_sum_bound(zl: ZeroList | None, T: float, sigma: float,
                   omega=None):
    """The aggregate weighted-zero-sum bound (per 1/sqrt(x)).

    For T >= 1e7 the closed form applies; below that the sum is computed
    directly from the supplied zeros ("just literally compute the sum"),
    from omega^+ at the zeros through T if the caller passes it.
    Returns (value, path) with path in {"closed-form", "direct"}.
    """
    if T >= VIHUELA_T_FLOOR:
        if abs(sigma - 0.5) > 100.0:
            raise ValueError("closed form needs |sigma - 1/2| <= 100")
        return vihuela_rhs(T), "closed-form"
    if zl is None:
        raise ValueError("desk-scale T needs an explicit zero list")
    ctx = WeightContext(T, sigma)
    val, _ = nontrivial_zero_sum(zl, ctx, omega=omega)
    return val, "direct"


# ----------------------------------------------------------------------
# Archimedean integral bound
# ----------------------------------------------------------------------

_ARLES_C = None


def arles_constant() -> float:
    """c = zeta'/zeta(-1) - 2 (zeta'/zeta)'(-1), recomputed from the zeta
    machinery (about 3.86102)."""
    global _ARLES_C
    if _ARLES_C is None:
        from .special import zeta_em_deriv
        z0 = zeta_em_deriv(-1.0 + 0j, 0, 1e-10).value
        z1 = zeta_em_deriv(-1.0 + 0j, 1, 1e-10).value
        z2 = zeta_em_deriv(-1.0 + 0j, 2, 1e-9).value
        ld = z1 / z0
        ldp = z2 / z0 - ld * ld
        _ARLES_C = float((ld - 2.0 * ldp).real)
    return _ARLES_C


def hardin_rhs(T: float, x: float) -> float:
    """The aggregate archimedean bound (13 + 60/L) log T / L^2
    + 5 log T / sqrt(x), used for the I_+ contour term of the report.  It is
    stated for T >= 1e6 and x >= max(T, 1e6), and evaluated as-is at desk
    scale, with the report's error_path recording which path covered it."""
    if not (T >= 2.0 and x >= 2.0):
        raise ValueError("need T >= 2 and x >= 2")
    L = math.log(x)
    return (13.0 + 60.0 / L) * math.log(T) / L ** 2 \
        + 5.0 * math.log(T) / math.sqrt(x)


# ----------------------------------------------------------------------
# The bound report
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    T: float
    sigma: float
    x: float
    main_term: float
    real_pole_term: float
    zero_sum_exact: float | None
    zero_sum_bound: float
    zero_sum_path: str
    trivial_zero_bound: float
    i_plus_c_bound: float
    radius: float
    error_path: str
    total_upper: float
    total_lower: float

    def __post_init__(self):
        if self.total_lower > self.total_upper:
            raise ValueError("lower bound above upper bound")
        if (self.zero_sum_exact is not None
                and self.zero_sum_exact > self.zero_sum_bound + 1e-12):
            raise ValueError("exact zero sum above its bound")
        if not (self.zero_sum_path in _ZERO_SUM_PATHS
                and self.error_path in _ERROR_PATHS):
            raise ValueError("unknown zero-sum or error path")

    def to_dict(self) -> dict:
        """The fields by name, each float as its format_float17 string."""
        d = {}
        for k in _REPORT_KEYS:
            v = getattr(self, k)
            d[k] = format_float17(v) if isinstance(v, float) else v
        return d

    def to_json(self) -> str:
        """json.dumps(self.to_dict(), indent=1, sort_keys=True), byte for
        byte, as one % over the fields: json.dumps with an indent falls
        back to the pure-Python encoder, which cost about half of each
        row.  The template depends only on the fields' types (T and x may
        be ints, zero_sum_exact None), so it is built once per type
        tuple."""
        vals = _report_fields(self)
        # not tuple(map(...)): that grows a fresh block on every call, and
        # the tuple free list keeps up to 2000 of them (300 KB)
        types = (*map(type, vals),)
        template = _REPORT_TEMPLATES.get(types)
        if template is None:
            template = _REPORT_TEMPLATES[types] = _report_template(types)
        return template % vals


_ZERO_SUM_PATHS = frozenset(("direct", "closed-form"))
_ERROR_PATHS = frozenset(("folded", "explicit"))
_REPORT_KEYS = tuple(sorted(f.name for f in fields(BoundReport)))
_report_fields = attrgetter(*_REPORT_KEYS)
_REPORT_TEMPLATES = {}


def _json_slot(t: type) -> str:
    """The %-format that writes a value of type t as json.dumps writes its
    to_dict entry; '%.16e' is format_float17 of a float."""
    if issubclass(t, float):
        return '"%.16e"'
    if t is type(None):
        return "null%.0s"
    if issubclass(t, int) and t is not bool:
        return "%d"
    if t is str:
        # __post_init__ admits only the path names: nothing to escape
        return '"%s"'
    raise TypeError(f"no JSON slot for a {t.__name__} field")


def _report_template(types) -> str:
    return "{\n%s\n}" % ",\n".join(
        f' "{k}": {_json_slot(t)}' for k, t in zip(_REPORT_KEYS, types))


def _main_coeffs(T: float, sigma: float):
    """The x-free part of the first residue sum: (main term, -zeta'/zeta
    at sigma).  At sigma = 1 the main term log x - gamma depends on x, so
    it is None there, and the real-pole factor is 0."""
    if sigma == 1.0:
        return None, 0.0
    y = math.pi * (1.0 - sigma) / T
    main = math.pi / T * (1.0 / math.tanh(y)) if abs(y) > 1e-8 \
        else 1.0 / (1.0 - sigma)
    return main, float(-log_deriv_zeta(complex(sigma)).value.real)


def _main_at(coeffs, sigma: float, x: float):
    """(main term, real-pole term) at x from the parts of _main_coeffs."""
    main, neg_log_deriv = coeffs
    if main is None:
        return math.log(x) - EULER_GAMMA, 0.0
    return main, neg_log_deriv * x ** (sigma - 1.0)


@dataclass(frozen=True, eq=False)
class BoundContext:
    """The x-independent part of explicit_formula_bound at one (zero list,
    T, sigma), computed once: the _main_coeffs pair (main term for
    sigma != 1, -zeta'/zeta(sigma)), the zero-sum bound and its path, and
    per zero rho = 1/2 + i gamma with gamma <= T the ordinate gamma, the
    amplitude |omega^+(rho)| and the phase arg omega^+(rho) (all None when
    zl is None or stops below T).  report(T, sigma, x) does the per-x rest:
    the signed zero sum -(2pi/T) sum |omega| sin(gamma log x + arg omega),
    one sine per zero, the trivial-zero and contour terms and the
    radius."""

    zl: ZeroList | None
    T: float
    sigma: float
    main_coeffs: tuple = field(init=False)
    zero_sum: float = field(init=False)
    zero_sum_path: str = field(init=False)
    gamma: np.ndarray | None = field(init=False)
    amp: np.ndarray | None = field(init=False)
    phase: np.ndarray | None = field(init=False)

    def __post_init__(self):
        zl, T, sigma = self.zl, self.T, self.sigma
        if not (-1.999 <= sigma <= 100.0):
            raise ValueError("sigma out of the supported range")
        coeffs = _main_coeffs(T, sigma)
        g = w = amp = phase = None
        if zl is not None and T <= zl.t_max:
            g = _zeros_through(zl, T)
            w = omega_plus_batch(WeightContext(T, sigma), 0.5 + 1j * g)
            amp, phase = np.abs(w), np.angle(w)
        zs, zs_path = zero_sum_bound(zl, T, sigma, omega=w)
        for k, v in (("main_coeffs", coeffs), ("zero_sum", zs),
                     ("zero_sum_path", zs_path), ("gamma", g), ("amp", amp),
                     ("phase", phase)):
            object.__setattr__(self, k, v)

    def report(self, T: float, sigma: float, x: float) -> BoundReport:
        """The BoundReport at x.  T and sigma must equal the context's;
        the report echoes them as the caller spelt them, so sigma = -0.0
        prints as -0.0 from a context built at 0.0."""
        if not (T == self.T and sigma == self.sigma):
            raise ValueError("the context was built for another (T, sigma)")
        if not x > T:
            raise ValueError("the formula needs x > T")
        main, pole = _main_at(self.main_coeffs, sigma, x)
        zs_exact = (None if self.amp is None else -TWO_PI / T * _phase_sum(
            self.amp, self.gamma, self.phase, math.log(x)))
        coth_triv, plain_triv, triv_rhs = trivial_zero_terms(T, sigma, x)
        ipc = hardin_rhs(T, x)
        explicit = (math.pi / T * (1.0 + plain_triv + coth_triv)
                    + 2.0 * ipc / T ** 2)
        folded = math.pi / (T - 1.0)
        path = "folded" if folded >= explicit else "explicit"
        radius = ((folded if path == "folded" else explicit)
                  + self.zero_sum / math.sqrt(x))
        center = main + pole
        return BoundReport(
            T=T, sigma=sigma, x=x, main_term=main, real_pole_term=pole,
            zero_sum_exact=zs_exact, zero_sum_bound=self.zero_sum,
            zero_sum_path=self.zero_sum_path, trivial_zero_bound=triv_rhs,
            i_plus_c_bound=ipc, radius=radius, error_path=path,
            total_upper=center + radius, total_lower=center - radius)


_last_context = None    # the one-slot memo of explicit_formula_bound


def explicit_formula_bound(zl: ZeroList | None, T: float, sigma: float,
                           x: float) -> BoundReport:
    """BoundReport sandwiching sum_{n<=x} Lambda(n) n^-sigma / x^(1-sigma).

    The radius is pi/(T-1) + zero_sum/sqrt(x) whenever pi/(T-1) covers the
    explicitly evaluated pi/T + trivial-zero + contour terms (recorded as
    error_path="folded"); otherwise those terms are added outright
    (error_path="explicit").

    The x-independent work lives in a BoundContext.  A one-slot memo keeps
    the last context built and reuses it when zl is the same object (`is`)
    and T and sigma compare equal, as along a psi-bound grid of x or an
    epsilon_at scan; any other call replaces it.  ZeroList ordinates are
    read-only, so a reused context cannot go stale.
    """
    global _last_context
    if not x > T:
        raise ValueError("the formula needs x > T")
    ctx = _last_context     # read once: a concurrent caller cannot swap it
    if ctx is None or not (ctx.zl is zl and ctx.T == T
                           and ctx.sigma == sigma):
        ctx = _last_context = BoundContext(zl, T, sigma)
    return ctx.report(T, sigma, x)


def epsilon_at(zl: ZeroList | None, T: float, x: float) -> float:
    """The |psi(x) - x| <= epsilon x level implied by the report at
    sigma = 0: max deviation of the sandwich from 1."""
    rep = explicit_formula_bound(zl, T, 0.0, x)
    return max(abs(rep.total_upper - 1.0), abs(rep.total_lower - 1.0))


# ----------------------------------------------------------------------
# Sharpness counterexample
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CounterexampleSpec:
    K: int
    T: float
    delta: float

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.T < 1.0:
            raise ValueError("T must be >= 1")
        if not 0.0 < self.delta < math.pi:
            raise ValueError("delta must lie in (0, pi)")


def counterexample_mean(spec: CounterexampleSpec, N: int, sign: str):
    """((1/x) sum_{n<=x} F_K(T log n) at x = exp((2 pi N +- delta)/T),
    the predicted limit value for that branch).

    sign "+": prediction (pi/T)(coth(pi/T) + 1) e^(-delta/T);
    sign "-": prediction (pi/T)(coth(pi/T) - 1) e^(+delta/T).
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    s = 1.0 if sign == "+" else -1.0
    u = (TWO_PI * N + s * spec.delta) / spec.T
    # exp overflows from u = 709.8 on: test the exponent first
    x = math.exp(u) if u <= math.log(1e9) else math.inf
    if x > 1e9:
        raise ValueError("x exceeds the direct-summation ceiling 1e9")
    m = int(x)
    total = KahanSum()
    step = 4_000_000
    for lo in range(1, m + 1, step):
        hi = min(lo + step - 1, m)
        n = np.arange(lo, hi + 1, dtype=np.float64)
        total.add(float(np.sum(fejer_batch(spec.K, spec.T * np.log(n)),
                               dtype=np.longdouble)))
    mean = total.value() / x
    y = math.pi / spec.T
    pred = y * (1.0 / math.tanh(y) + s) * math.exp(-s * spec.delta / spec.T)
    return mean, pred


def fandango_allowance(spec: CounterexampleSpec, x: float) -> float:
    """Explicit bound on the finite-x error of the counterexample mean:
    each partial power sum sum_{n<=x} n^(ikT) differs from its limit shape
    by at most (|k| T / 2) log x + 3, weighted by the kernel coefficients
    and divided by x."""
    K, T = spec.K, spec.T
    k = np.arange(-K, K + 1, dtype=np.float64)
    w = 1.0 - np.abs(k) / (K + 1.0)
    per_k = np.abs(k) * T / 2.0 * math.log(x) + 3.0
    return float(np.sum(w * per_k)) / x


# ----------------------------------------------------------------------
# Smoothed Perron identity
# ----------------------------------------------------------------------

def _dirichlet_polynomial(coeffs: np.ndarray, sigma: float):
    """t -> A(sigma + i t) = sum_n a_n n^(-sigma - i t) on an array of t,
    for the coefficients a_1 .. a_N.

    The table n^(-1/2 - i t) of special._dirichlet_table takes pi(N)
    cosines and sines per t, for the prime rows, and N - pi(N) complex
    products; n^(1/2 - sigma) is folded into the coefficients once.  All
    the t of a call go in one table, and each column is added up by
    halving the rows, the same additions in the same order at every
    width, so A(t) does not depend on the other points of its call."""
    plan = _factor_plan(coeffs.size)
    rows_n = plan[0]
    weight = (coeffs[rows_n - 1] * rows_n ** (0.5 - sigma))[:, None]

    def A(t):
        table = _dirichlet_table(t, plan)
        table *= weight
        rows = table.shape[0]
        while rows > 1:
            half = rows // 2
            table[:half] += table[rows - half:rows]
            rows -= half
        return table[0, :t.size]

    return A


def perron_identity_check(coeffs, phi, phi_hat, T: float, sigma: float,
                          x: float) -> float:
    """|LHS - RHS| of the smoothed Perron identity for a finite Dirichlet
    polynomial A(s) = sum a_n n^-s:

      (1/(2 pi i T)) int phi(Im s / T) A(s) x^s ds
        = (1/2pi) sum_n a_n (x/n)^sigma phi_hat((T/2pi) log(n/x)),

    the line integral running over Re s = sigma (phi is supported on
    [-1, 1], so over |Im s| <= T).  It is evaluated by Gauss-Kronrod to
    a total tolerance of 2e-9.  The integrand
    sum_n a_n n^-sigma phi(t/T) e^(i t log(x/n)) oscillates at up to
    Omega = max(|log x|, |log(x/N)|), so the first pass starts from
    panels about _PERRON_PHASE/Omega wide, not from the two halves:
    each half is cut from 0 into equal panels, so that Im s = 0, where phi
    may jump or have a kink, and +-T are exact edges.  phi and phi_hat
    map an array to an array: phi is called once per block of nodes, and
    phi_hat once for all n.  A(s) comes from the prime rows of
    special._dirichlet_table, one table per block of nodes, with each
    node's column added in a fixed order (_dirichlet_polynomial).
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.size == 0 or coeffs.size > 2000:
        raise ValueError("need a finite, modest Dirichlet polynomial")
    n = np.arange(1, coeffs.size + 1, dtype=np.float64)
    A = _dirichlet_polynomial(coeffs, sigma)

    def integrand(t):
        return phi(t / T) * A(t) * np.exp(1j * math.log(x) * t)

    omega = max(abs(math.log(x)), abs(math.log(x / coeffs.size)))
    panels = max(1, math.ceil(T * omega / _PERRON_PHASE))
    half = T * (np.arange(panels + 1) / panels)   # 0 and T exact
    edges = np.concatenate([-half[:0:-1], half])
    lhs = (x ** sigma / (TWO_PI * T)
           * gauss_kronrod(integrand, edges, 2e-9)[0])
    rhs = float((coeffs * (x / n) ** sigma
                 * phi_hat(T / TWO_PI * np.log(n / x))).sum()) / TWO_PI
    return abs(lhs - rhs)
