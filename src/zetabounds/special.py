"""Numerically stable special functions used throughout the toolkit.

Everything here is double precision with explicit absolute-error budgets
carried in EvalWithError.  The zeta machinery is Euler-Maclaurin based and
is valid for |Im s| <= 1e5; the rest (digamma, trigamma, log-gamma, cot,
coth, Fejer kernel, Lerch transcendent, exponential integral) follows the
usual asymptotic-plus-recurrence or series playbook.

The series 1 - w cot w = 2 sum zeta(2n) (w/pi)^(2n) and its zeta(2n)
table live here once, in one_minus_x_cot_x: coth takes its poles out
through it (and cot through coth), and so do the weight omega^+ near
theta = 0 and theta = 1, A near z = 0 and the constants C1, C2 in
`weights`.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .util import (BERNOULLI_2K, EULER_GAMMA, TWO_PI, EvalWithError,
                   KahanSum, PoleError, PrecisionError)

__all__ = [
    "zeta_em", "zeta_em_deriv", "zeta_batch_critical", "log_deriv_zeta",
    "digamma", "trigamma", "log_gamma", "gamma_abs", "cot_stable",
    "coth_stable", "fejer_batch", "lerch", "ei_and_bound",
    "ei_upper_bound", "laurent_coeffs_A", "LaurentCoeffs", "badabook_f",
    "zeta_reflection_rhs", "one_minus_x_cot_x",
]

IM_CEILING = 1e5          # documented validity ceiling for zeta_em
_EM_K = 12                # Bernoulli correction terms
_EM_BETA = 2.2            # main-sum length multiplier vs |Im s|/2pi
_NEAR_POLE = 0.1          # cot/coth switch-over distance

# Stieltjes constants gamma_0..gamma_13 (standard published values).
_STIELTJES = [
    0.5772156649015328606065121,
    -0.07281584548367672486058638,
    -0.009690363192872318484530386,
    0.002053834420303345866160047,
    0.002325370065467300057468170,
    0.0007933238173010627017533349,
    -0.0002387693454301996098724218,
    -0.0005272895670577510460740975,
    -0.0003521233538030395096020522,
    -0.00003439477441808804817791462,
    0.0002053328149090647946837223,
    0.0002701844395439035266729021,
    0.0001672729121051401933535015,
    -0.00002746380660376015886000760,
]

# Lanczos coefficients (g = 7, n = 9).
_LANCZOS_G = 7.0
_LANCZOS_C = [
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
]


# ----------------------------------------------------------------------
# Euler-Maclaurin zeta and derivatives
# ----------------------------------------------------------------------

def _em_length(s: complex) -> int:
    return max(int(math.ceil(_EM_BETA * abs(s.imag) / TWO_PI)) + 20, 30)


def _em_coefficients():
    """B_2k / (2k)! for k = 1 .. _EM_K, and (2 _EM_K + 2)!."""
    coeffs, fact = [], 1.0
    for k in range(1, _EM_K + 2):
        fact *= (2 * k - 1) * (2 * k)
        coeffs.append(BERNOULLI_2K[k - 1] / fact)
    return coeffs[:-1], fact


_EM_COEFFS, _EM_FACT = _em_coefficients()
# the Pochhammer factors s + j, j = 0 .. 2 _EM_K, one row each
_EM_SHIFTS = np.arange(2.0 * _EM_K + 1.0)[:, None]


def _em_tail(s, N: int, f0, f1=None, f2=None):
    """Add the Euler-Maclaurin tail beyond n = N, with _EM_K Bernoulli
    corrections, to the main sums f0, f1, f2 of n^-s, -log n n^-s and
    log^2 n n^-s over n <= N.  Returns the three sums, N^-s, the
    Pochhammer product s (s+1) ... (s + 2 _EM_K) with its first two
    derivatives, and (2 _EM_K + 2)!, which set the remainder.

    With f1 and f2, s and the sums are scalars or arrays alike, and the
    product and its derivatives are carried from one order to the next.
    Without them, s is an array, only zeta's tail is added (the
    derivatives come back as None), and all orders are done at once: the
    products are one cumulative product over the rows of s + j, and the
    corrections are added to f0 in order by one cumulative sum.  These
    are the loop's operations in the loop's order, but numpy rounds some
    complex products of a long array differently from those of a short
    one, so the sums can differ from the loop's in the last bits: by at
    most 4.3e-16 relative in zeta_batch_critical, at 4 937 seeded heights
    below zeros.T_RS in calls of 1 to 3 000.
    """
    derivs = f1 is not None
    lN = math.log(N)
    NmS = (np.exp if isinstance(s, np.ndarray) else cmath.exp)(-s * lN)
    sm1 = s - 1.0
    t1 = N * NmS / sm1                # N^(1-s)/(s-1)
    f0 += t1 - 0.5 * NmS              # main sum runs through n = N inclusive
    if not derivs:
        p = np.cumprod(s + _EM_SHIFTS, axis=0)[::2]
        terms = np.multiply.outer(_EM_COEFFS, NmS)
        terms *= [[N ** (1 - 2 * k)] for k in range(1, _EM_K + 1)]
        terms *= p[:-1]
        terms[0] += f0
        return ((np.cumsum(terms, axis=0)[-1], None, None), NmS,
                (p[-1], None, None), _EM_FACT)
    f1 += t1 * (-lN - 1.0 / sm1) + 0.5 * lN * NmS
    f2 += t1 * (lN * lN + 2.0 * lN / sm1 + 2.0 / sm1 ** 2) \
        - 0.5 * lN * lN * NmS

    p, p1, p2 = 1.0 + 0.0j, 0.0j, 0.0j
    for k in range(1, _EM_K + 2):
        for j in range(max(2 * k - 3, 0), 2 * k - 1):
            f = s + j
            p1, p2 = p1 * f + p, p2 * f + 2.0 * p1
            p = p * f
        if k > _EM_K:
            break
        scale = _EM_COEFFS[k - 1] * NmS * N ** (1 - 2 * k)
        f0 += scale * p
        f1 += scale * (p1 - lN * p)
        f2 += scale * (p2 - 2.0 * lN * p1 + lN * lN * p)
    return (f0, f1, f2), NmS, (p, p1, p2), _EM_FACT


def _zeta_em_all(s: complex, N: int):
    """zeta, zeta', zeta'' at s by Euler-Maclaurin with N main terms and
    _EM_K Bernoulli corrections; returns values plus remainder bounds."""
    if abs(s - 1.0) < 1e-300:
        raise PoleError("zeta has a pole at s = 1")
    n = np.arange(1, N + 1, dtype=np.float64)
    logn = np.log(n)
    pw = np.exp(-s * logn)
    (f0, f1, f2), NmS, (pn, pn1, pn2), fact = _em_tail(
        s, N, pw.sum(), -(pw * logn).sum(), (pw * logn * logn).sum())

    # Remainder: |R| <= |s+2K+1|/(sigma+2K+1) * |first omitted term|.
    K = _EM_K
    lN = math.log(N)
    bnext = abs(BERNOULLI_2K[K]) / fact
    sigma = s.real
    if sigma + 2 * K + 1 <= 0:
        raise PrecisionError("Re s too far left for the chosen depth")
    factor = abs(s + 2 * K + 1) / (sigma + 2 * K + 1)
    base = bnext * abs(NmS) * N ** (-1 - 2 * K)
    r0 = factor * base * abs(pn)
    # Derivative remainders: first omitted differentiated term, padded.
    r1 = 4.0 * factor * base * (abs(pn1) + lN * abs(pn))
    r2 = 4.0 * factor * base * (abs(pn2) + 2 * lN * abs(pn1)
                                + lN * lN * abs(pn))
    # Rounding floor: pairwise summation plus phase rounding of n^(-i Im s).
    round0 = 1.1e-16 * (math.log2(N + 1) * float(np.abs(pw).sum())
                        + (abs(s.imag) + 1.0) * lN ** 1.5)
    return (f0, f1, f2), (r0 + round0, r1 + round0 * lN,
                          r2 + round0 * lN * lN)


def zeta_em(s: complex, target_abs_error: float = 1e-12) -> EvalWithError:
    """Riemann zeta via Euler-Maclaurin, abs_error <= target when attainable.

    Raises PoleError at s = 1, PrecisionError when the budget cannot be met,
    ValueError above the documented |Im s| ceiling.
    """
    return zeta_em_deriv(s, 0, target_abs_error)


def zeta_em_deriv(s: complex, order: int,
                  target_abs_error: float = 1e-12) -> EvalWithError:
    """zeta, zeta' or zeta'' (order 0/1/2) with a propagated error bound."""
    s = complex(s)
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    if target_abs_error <= 0:
        raise ValueError("target_abs_error must be positive")
    if abs(s.imag) > IM_CEILING:
        raise ValueError(f"|Im s| > {IM_CEILING:g} is outside the validity "
                         "ceiling")
    if s == 1.0:
        raise PoleError("zeta has a pole at s = 1")
    N = _em_length(s)
    best = None
    for _ in range(24):
        vals, errs = _zeta_em_all(s, N)
        if errs[order] <= target_abs_error:
            return EvalWithError(vals[order], errs[order])
        if best is not None and errs[order] >= best:
            break              # rounding floor reached; growing N only hurts
        best = errs[order]
        if N > 4_000_000:
            break
        N = int(N * 1.5) + 10
    raise PrecisionError(
        f"error budget {target_abs_error:g} unattainable (got "
        f"{errs[order]:g})")


@functools.lru_cache(maxsize=32)
def _factor_plan(N: int):
    """How the table of n^(-s), n <= N, is filled from its prime entries:
    (rows_n, log_p, amp_p, levels), read-only.

    Row r of the table holds n = rows_n[r]: 1 first, then the primes in
    ascending order, then the composites by Omega(n), the number of prime
    factors counted with multiplicity, by their least prime factor p
    within a level, and by n.  Each level (start, stop, b_rows, p_runs) is
    the run of rows with one Omega(n): row start + i holds
    p * rows_n[b_rows[i]], with p its least prime factor and b_rows[i] a
    row of the level below, so before start.  p_runs splits the level by
    p into (lo, hi, p_row): rows start + lo .. start + hi - 1 and the row
    of their p.  log_p and amp_p are log p and p^(-1/2) for the prime
    rows 1 .. len(log_p).  The plan depends on N alone, so the last few
    are kept: below zeros.T_RS, N <= 161 and a plan holds a few
    kilobytes.
    """
    n = np.arange(N + 1)
    spf = n.copy()                      # least prime factor, 1 at n = 0
    spf[0] = 1
    for p in range(2, math.isqrt(N) + 1):
        if spf[p] == p:
            multiples = spf[p * p::p]
            np.minimum(multiples, p, out=multiples)
    omega = np.zeros(N + 1, dtype=np.int64)
    rest = n.copy()
    for _ in range(N.bit_length() - 1):         # Omega(n) <= log2 N
        omega += rest > 1
        rest //= spf[rest]
    rows_n = np.lexsort((n, spf, omega))[1:]    # n = 0 sorts first
    row = np.empty(N + 1, dtype=np.int64)
    row[rows_n] = np.arange(N)
    p_rows, b_rows = row[spf[rows_n]], row[rows_n // spf[rows_n]]
    n_primes = int(np.count_nonzero(omega == 1))
    starts = np.flatnonzero(np.diff(omega[rows_n])) + 1
    starts = starts[starts > n_primes].tolist()
    primes = rows_n[1:1 + n_primes]
    log_p, amp_p = np.log(primes), primes ** -0.5
    for a in (rows_n, log_p, amp_p, b_rows):
        a.flags.writeable = False
    levels = []
    for start, stop in zip(starts, starts[1:] + [N]):
        runs = np.flatnonzero(np.diff(p_rows[start:stop], prepend=0)).tolist()
        levels.append((start, stop, b_rows[start:stop], tuple(
            (lo, hi, int(p_rows[start + lo]))
            for lo, hi in zip(runs, runs[1:] + [stop - start]))))
    return rows_n, log_p, amp_p, tuple(levels)


def _dirichlet_table(tt: np.ndarray, plan) -> np.ndarray:
    """n^(-1/2 - i t) for the n of a _factor_plan's rows (axis 0) and the
    heights tt (axis 1), for any N >= 1.  Column j < tt.size holds tt[j]
    with the same bits in a table of any width: a lone height is done in
    two equal columns, so callers read the first tt.size.

    n^(-1/2 - i t) is completely multiplicative in n: only the prime rows
    take a cosine and a sine, p^(-1/2) (cos(t log p) - i sin(t log p)),
    and each composite row is one complex product of two earlier rows:
    a level's rows of a lower level are gathered in one call, then
    multiplied by the row of their least prime factor.  Besides the
    table, 16 bytes per (n, t), only numpy's fixed ufunc buffer is
    allocated, and for N < 9 the phases' own rows.

    Another abscissa sigma goes through the coefficients: a_n n^(-sigma -
    i t) is a_n n^(1/2 - sigma) times the table's entry.  Two callers,
    each with one table for all the heights of a call:
    zeta_batch_critical adds the rows as they stand, and
    formula.perron_identity_check weights them by the coefficients of its
    Dirichlet polynomial A(s).  Both add the rows of a table of at least
    two columns, which numpy does row by row; it adds a lone column
    pairwise, in another order.
    """
    rows_n, log_p, amp_p, levels = plan
    # numpy multiplies a lone complex number in place without the fused
    # multiply-add of its vector loop: a lone height goes twice
    tt = tt if tt.size > 1 else np.repeat(tt, 2)
    table = np.empty((rows_n.size, tt.size), dtype=np.complex128)
    table[0] = 1.0
    prime_rows = table[1:1 + log_p.size]
    # the last rows, composites filled later, hold the phases meanwhile
    # where there are at least as many composites as primes (N >= 9): an
    # output sharing the phases' rows would make numpy copy them first,
    # and the sines would read the cosines
    if rows_n.size - 1 - log_p.size >= log_p.size:
        phase = table[rows_n.size - log_p.size:].real
    else:
        phase = np.empty((log_p.size, tt.size))
    np.multiply.outer(-log_p, tt, out=phase)
    np.cos(phase, out=prime_rows.real)
    np.sin(phase, out=prime_rows.imag)
    prime_rows *= amp_p[:, None]
    for start, stop, b_rows, p_runs in levels:
        rows = table[start:stop]
        # np.take copies its source first unless out lies apart from it
        # and mode is not "raise" (b_rows are in range)
        np.take(table[:start], b_rows, axis=0, out=rows, mode="clip")
        for lo, hi, p_row in p_runs:
            rows[lo:hi] *= table[p_row]
    return table


def zeta_batch_critical(ts: np.ndarray) -> np.ndarray:
    """Vectorised zeta(1/2 + i t) for an array of heights t, best in
    ascending order.

    The heights share one main sum, of the length _em_length of the
    largest |t|, so every height gets at least the terms of its own
    _em_length and at most the remainder that _zeta_em_all bounds for
    them: 3.4e-11 just below t = 400, 1.6e-9 at t = 2504 (zeta_em
    lengthens the sum until its target is met).  The main sum adds the
    rows of a _dirichlet_table: pi(N) cosines and sines per height, for
    the primes p <= N, instead of N of each, and about N - pi(N) complex
    products.  The tail is zeta's alone (_em_tail without the derivative
    sums).

    The main sum has about 2.2 t/2pi terms, so zeros.hardy_z_batch uses
    this only below zeros.T_RS and switches to Riemann-Siegel above; at
    any height it is the independent reference that the Riemann-Siegel
    path and the zero finder are tested against.
    """
    ts = np.asarray(ts, dtype=np.float64)
    tmax = float(np.abs(ts).max(initial=0.0))
    if tmax > IM_CEILING:
        raise ValueError("height above validity ceiling")
    N = _em_length(complex(0.5, tmax))
    order = np.argsort(ts, kind="stable")
    tt = ts[order]
    core = _dirichlet_table(tt, _factor_plan(N)).sum(axis=0)[:tt.size]
    (core, _, _), _, _, _ = _em_tail(0.5 + 1j * tt, N, core)
    out = np.empty(ts.shape, dtype=np.complex128)
    out[order] = core
    return out


def log_deriv_zeta(s: complex) -> EvalWithError:
    """zeta'(s)/zeta(s) with propagated error (Re s > -2 recommended).

    Raises PoleError when |zeta(s)| is below its own error budget, which
    signals that s is too close to a zero or to the pole.
    """
    z0 = z1 = None
    for tgt in (1e-12, 3e-11, 1e-9, 1e-7):
        try:
            z0 = zeta_em_deriv(s, 0, tgt)
            z1 = zeta_em_deriv(s, 1, 10.0 * tgt)
            break
        except PrecisionError:
            continue
    if z0 is None:
        raise PrecisionError("zeta'/zeta not evaluable at this height")
    a0 = abs(z0.value)
    if a0 <= 10.0 * z0.abs_error:
        raise PoleError("zeta(s) indistinguishable from 0 at this precision")
    val = z1.value / z0.value
    err = (z1.abs_error + abs(val) * z0.abs_error) / (a0 - z0.abs_error)
    return EvalWithError(val, err)


# ----------------------------------------------------------------------
# Digamma / trigamma / log-gamma
# ----------------------------------------------------------------------

def _is_nonpositive_int(z: complex, tol: float = 1e-14) -> bool:
    return (z.real <= 0.5 and abs(z.imag) < tol
            and abs(z.real - round(z.real)) < tol)


def digamma(z: complex) -> EvalWithError:
    """Digamma via reflection, upward recurrence and the Stirling tail."""
    z = complex(z)
    if _is_nonpositive_int(z):
        raise PoleError("digamma pole at non-positive integer")
    if z.real < 0.5:
        ref = digamma(1.0 - z)
        c = cot_stable(math.pi * z) * math.pi
        return EvalWithError(ref.value - c, ref.abs_error + 1e-14 * abs(c))
    acc = 0.0 + 0.0j
    rerr = 0.0
    while abs(z) < 16.0:
        acc -= 1.0 / z
        rerr += 1e-16 / abs(z)
        z += 1.0
    inv2 = 1.0 / (z * z)
    tail = 0.0 + 0.0j
    term = inv2
    for k in range(1, 8):
        tail += BERNOULLI_2K[k - 1] / (2 * k) * term
        term *= inv2
    val = acc + cmath.log(z) - 0.5 / z - tail
    err = abs(BERNOULLI_2K[7] / 16.0 * term) + rerr + 1e-15 * abs(val)
    return EvalWithError(val, err)


def trigamma(z: complex) -> EvalWithError:
    """Trigamma (digamma derivative), same strategy as digamma."""
    z = complex(z)
    if _is_nonpositive_int(z):
        raise PoleError("trigamma pole at non-positive integer")
    if z.real < 0.5:
        ref = trigamma(1.0 - z)
        s = cmath.sin(math.pi * z)
        c = (math.pi / s) ** 2
        return EvalWithError(c - ref.value, ref.abs_error + 1e-14 * abs(c))
    acc = 0.0 + 0.0j
    while abs(z) < 16.0:
        acc += 1.0 / (z * z)
        z += 1.0
    inv = 1.0 / z
    inv2 = inv * inv
    val = acc + inv + 0.5 * inv2
    term = inv2 * inv
    for k in range(1, 8):
        val += BERNOULLI_2K[k - 1] * term
        term *= inv2
    err = abs(BERNOULLI_2K[7] * term) + 1e-15 * abs(val)
    return EvalWithError(val, err)


def log_gamma(z: complex) -> EvalWithError:
    """Principal log-gamma via the Lanczos approximation (g = 7, n = 9)."""
    z = complex(z)
    if _is_nonpositive_int(z):
        raise PoleError("gamma pole at non-positive integer")
    if z.real < 0.5:
        # log Gamma(z) = log(pi / sin(pi z)) - log Gamma(1 - z)
        ref = log_gamma(1.0 - z)
        val = cmath.log(math.pi / cmath.sin(math.pi * z)) - ref.value
        return EvalWithError(val, ref.abs_error + 1e-13 * (1 + abs(val)))
    w = z - 1.0
    x = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        x += _LANCZOS_C[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    val = 0.5 * math.log(2 * math.pi) + (w + 0.5) * cmath.log(t) - t \
        + cmath.log(x)
    return EvalWithError(val, 1e-13 * (1.0 + abs(val)))


def gamma_abs(z: complex) -> EvalWithError:
    """|Gamma(z)| with a relative error budget around 1e-12."""
    lg = log_gamma(z)
    v = math.exp(lg.value.real)
    return EvalWithError(v, v * (math.expm1(lg.abs_error)
                                 if lg.abs_error < 1 else 2.0 * lg.abs_error))


def zeta_reflection_rhs(s: complex) -> float:
    """Upper bound on |zeta(s)| for Re s <= 1/2 from the functional equation:
    sqrt(1/(1 - sech^2(pi Im s / 2)/2)) * (|1-s|/2pi)^(1/2-Re s) * |zeta(1-s)|.
    """
    s = complex(s)
    if s.real > 0.5:
        raise ValueError("reflection bound needs Re s <= 1/2")
    y = s.imag
    sech2 = 1.0 / math.cosh(math.pi * y / 2.0) ** 2
    pref = math.sqrt(1.0 / (1.0 - 0.5 * sech2))
    z1 = zeta_em(1.0 - s, 1e-12)
    return pref * (abs(1.0 - s) / TWO_PI) ** (0.5 - s.real) * abs(z1.value)


# ----------------------------------------------------------------------
# The zeta(2n) series of w cot w; cot / coth with a near-pole switch
# ----------------------------------------------------------------------

def _even_zeta_table(count: int) -> tuple:
    """zeta(2n), n = 1 .. count: (-1)^(n+1) B_2n (2 pi)^(2n) / (2 (2n)!)
    while B_2n is tabulated (2n <= 40), beyond that the first four terms
    of the Dirichlet series, which leave out less than 2^-97."""
    vals = []
    fact = 1.0
    for n in range(1, count + 1):
        if n <= len(BERNOULLI_2K):
            fact *= (2 * n - 1) * (2 * n)
            vals.append((-1.0) ** (n + 1) * BERNOULLI_2K[n - 1]
                        * TWO_PI ** (2 * n) / (2.0 * fact))
        else:
            vals.append(1.0 + 2.0 ** -(2 * n) + 3.0 ** -(2 * n)
                        + 4.0 ** -(2 * n))
    return tuple(vals)


# the 66 terms that one_minus_x_cot_x needs for |w| up to 3 pi / 4
ZETA_EVEN = _even_zeta_table(66)


def one_minus_x_cot_x(w):
    """g(w) = 1 - w cot w = 2 sum_{n>=1} zeta(2n) (w/pi)^(2n), for a scalar
    or an array w with |w| < 3 pi / 4.

    The one home of this series: coth w = (1 - g(iw))/w near its poles,
    and so cot w = -i coth(-i w) = (1 - g(w))/w near its own, and in
    `weights`
    -theta cot(pi theta) = (g(pi theta) - 1)/pi near theta = 0,
    (1 - w) cot(pi w) = (1 - w)(1 - g(pi w))/(pi w) near theta = 1 - w = 1
    and f(z) = 1/(pi z) - cot(pi z) = g(pi z)/(pi z) near z = 0.  It sums, in
    Horner form, the first n terms, with n the least for which
    (|w|/pi)^(2n) <= 2^-54 at the largest |w|: the tail then stays below
    2^-53 of the leading term, and the relative error is a few units of
    2^-53.
    """
    r = (float(np.abs(w).max(initial=0.0)) if isinstance(w, np.ndarray)
         else abs(w)) / math.pi
    if not r < 0.75:
        raise ValueError("the zeta(2n) series needs |w| < 3 pi / 4")
    n = math.ceil(-27.0 / math.log2(r)) if r > 0.0 else 1
    x = w / math.pi
    x2 = x * x
    acc = 0.0
    for zeta_2n in ZETA_EVEN[n - 1::-1]:
        acc = acc * x2 + zeta_2n
    return 2.0 * x2 * acc


# pi = _PI_A + _PI_B + _PI_C, the first two short enough that k * _PI_A and
# k * _PI_B are exact: the reduced argument v - k pi then keeps its relative
# accuracy next to a pole, where cot and coth are about 1/(v - k pi).
_PI_A = 3.141592651605606
_PI_B = 1.984187036896401e-09
_PI_C = 1.2246467991473532e-16


def _minus_k_pi(v, k):
    """v - k pi, exact but for the rounding of the result when |v - k pi|
    is small; v and k (integer-valued) may be numbers or arrays."""
    return ((v - k * _PI_A) - k * _PI_B) - k * _PI_C


def cot_stable(z: complex) -> complex:
    """cot z = -i coth(-i z), through coth_stable: its pole reduction,
    near-pole series and overflow-safe far field.  Both products with -i
    are done as swaps of the parts, so that no zero part takes its sign
    from a multiplication by 0."""
    z = complex(z)
    c = coth_stable(complex(z.imag, -z.real))
    return complex(c.imag, -c.real)


def coth_stable(z):
    """coth z; (1 - one_minus_x_cot_x(iw))/w where z = i k pi + w with
    |w| < 0.1, an overflow-safe ratio where |Re z| > 20, cosh/sinh
    elsewhere.  z may be a number (a complex comes back) or an array (an
    array comes back); an exact pole raises PoleError either way.

    A number goes through cmath: numpy's complex cosh/sinh and division
    differ from cmath's in the last bit, and the constant c of
    `weights.WeightContext`, which enters every psi-bound row, is taken
    here."""
    if isinstance(z, np.ndarray):
        return _coth_array(z)
    z = complex(z)
    k = round(z.imag / math.pi)
    w = complex(z.real, _minus_k_pi(z.imag, k))
    if abs(w) < _NEAR_POLE:
        if w == 0:
            raise PoleError("evaluation at a pole")
        return (1.0 - one_minus_x_cot_x(1j * w)) / w
    if abs(z.real) > 20.0:
        sgn = 1.0 if z.real > 0 else -1.0
        w = cmath.exp(-2.0 * sgn * z)
        return sgn * (1.0 + 2.0 * w / (1.0 - w))
    return cmath.cosh(z) / cmath.sinh(z)


def _coth_array(z: np.ndarray) -> np.ndarray:
    """coth_stable on an array, branch by branch."""
    z = np.asarray(z, dtype=np.complex128)
    w = z.real + 1j * _minus_k_pi(z.imag, np.round(z.imag / math.pi))
    near = np.abs(w) < _NEAR_POLE
    far = ~near & (np.abs(z.real) > 20.0)
    rest = ~(near | far)
    out = np.empty_like(z)
    if near.any():
        wn = w[near]
        if not wn.all():
            raise PoleError("evaluation at a pole")
        out[near] = (1.0 - one_minus_x_cot_x(1j * wn)) / wn
    if far.any():
        sgn = np.sign(z.real[far])
        e = np.exp(-2.0 * sgn * z[far])
        out[far] = sgn * (1.0 + 2.0 * e / (1.0 - e))
    if rest.any():
        out[rest] = np.cosh(z[rest]) / np.sinh(z[rest])
    return out


def x_coth_x(x):
    """x*coth(x), stable near x = 0, where coth_stable takes its pole out
    through the series one_minus_x_cot_x; x = 0 itself raises PoleError.
    A number or an array, as for coth_stable."""
    if not isinstance(x, np.ndarray):
        x = complex(x)
    return x * coth_stable(x)


# ----------------------------------------------------------------------
# Fejer kernel
# ----------------------------------------------------------------------

def fejer_batch(K: int, t: np.ndarray) -> np.ndarray:
    """Fejer kernel F_K(t) = (1/(K+1)) (sin((K+1)t/2)/sin(t/2))^2 >= 0 on
    an array; the removable singularities at t in 2 pi Z take the value
    K + 1."""
    if K < 1:
        raise ValueError("K must be >= 1")
    u = 0.5 * np.asarray(t, dtype=np.float64)
    up = u - np.pi * np.round(u / np.pi)
    small = np.abs(up) < 1e-12
    safe = np.where(small, 1.0, up)
    r = np.sin((K + 1) * safe) / np.sin(safe)
    out = np.maximum(r * r / (K + 1), 0.0)
    out[small] = K + 1
    return out


# ----------------------------------------------------------------------
# Lerch transcendent
# ----------------------------------------------------------------------

def lerch(z: complex, s: int, alpha: complex) -> EvalWithError:
    """Lerch transcendent sum_{n>=0} z^n / (n+alpha)^s for |z| < 1.

    s must be a positive integer and alpha must stay clear of non-positive
    integers (raises PoleError when a denominator vanishes).
    """
    if not (isinstance(s, int) and s >= 1):
        raise ValueError("s must be a positive integer")
    z = complex(z)
    alpha = complex(alpha)
    az = abs(z)
    if az >= 1.0:
        raise ValueError("Lerch series diverges for |z| >= 1")
    total = KahanSum()
    total_im = KahanSum()
    zn = 1.0 + 0.0j
    n = 0
    while True:
        d = n + alpha
        ad = abs(d)
        if ad < 1e-12:
            raise PoleError("Lerch pole guard: alpha too close to a "
                            "non-positive integer")
        term = zn / d ** s
        total.add(term.real)
        total_im.add(term.imag)
        n += 1
        zn *= z
        if n >= 8 and n > abs(alpha) + 2:
            # |m + alpha| is increasing for m >= n here, so the geometric
            # factor alone bounds the tail
            tail = az ** n / (1.0 - az) / abs(n + alpha) ** s
            partial = math.hypot(total.value(), total_im.value())
            if tail < 1e-14 * max(partial, 1e-300) or tail < 1e-30:
                break
        if n > 10_000_000:
            raise PrecisionError("Lerch series did not converge")
    val = complex(total.value(), total_im.value())
    return EvalWithError(val, tail + 1e-15 * abs(val))


# ----------------------------------------------------------------------
# Exponential integral
# ----------------------------------------------------------------------

def ei_upper_bound(x: float) -> float:
    """(e^x/x)(1 + 1/x + 2/x^2 + (40/3)/x^3), an upper bound for Ei(x)."""
    if x <= 0:
        raise ValueError("x must be positive")
    return math.exp(x) / x * (1.0 + 1.0 / x + 2.0 / x ** 2
                              + (40.0 / 3.0) / x ** 3)


def ei_and_bound(x: float) -> tuple[EvalWithError, float]:
    """Exponential integral Ei(x) plus its closed-form upper bound."""
    if x <= 0:
        raise ValueError("x must be positive")
    if x <= 30.0:
        total = KahanSum(EULER_GAMMA + math.log(x))
        term = 1.0
        k = 0
        while True:
            k += 1
            term *= x / k
            piece = term / k
            total.add(piece)
            if piece < 1e-17 * abs(total.value()) and k > 4:
                break
        val = total.value()
        err = piece + 1e-15 * abs(val)
    else:
        coef = 1.0
        acc = 1.0
        for k in range(1, 11):
            coef *= k / x
            acc += coef
        val = math.exp(x) / x * acc
        err = math.exp(x) / x * coef * 11.0 / x / (1.0 - 12.0 / x) \
            + 1e-15 * val
    return EvalWithError(val, err), ei_upper_bound(x)


# ----------------------------------------------------------------------
# Laurent coefficients of -zeta'/zeta at s = 1
# ----------------------------------------------------------------------

class LaurentCoeffs:
    """Signed coefficients c_n of (s-1)^n in the regular part of -zeta'/zeta
    at s = 1; the magnitudes a_n = (-1)^(n+1) c_n are all positive."""

    def __init__(self, coeffs):
        self.coeffs = tuple(float(c) for c in coeffs)
        for n, c in enumerate(self.coeffs):
            if not (-1.0) ** (n + 1) * c > 0.0:
                raise ValueError(f"sign pattern violated at n={n}")

    def a(self, n: int) -> float:
        return (-1.0) ** (n + 1) * self.coeffs[n]

    def magnitudes(self):
        return tuple(self.a(n) for n in range(len(self.coeffs)))


def laurent_coeffs_A(n_max: int) -> LaurentCoeffs:
    """Coefficients of -zeta'/zeta(s) = 1/(s-1) + sum c_n (s-1)^n, computed
    by series division of the Stieltjes expansion of zeta at s = 1."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if n_max > 12:
        raise PrecisionError("n_max > 12 exceeds double-precision comfort")
    deg = n_max + 1
    # With u = s-1:  zeta = (1/u)(1 + P(u)),  zeta' = -1/u^2 + Q(u), where
    # P(u) = sum_{n>=1} (-1)^(n-1) g_(n-1) u^n / (n-1)!   (g = Stieltjes)
    # Q(u) = sum_{j>=0} (-1)^(j+1) g_(j+1) u^j / j!
    p = [0.0] * (deg + 1)
    fact = 1.0
    for n in range(1, deg + 1):
        if n >= 2:
            fact *= (n - 1)
        p[n] = (-1.0) ** (n - 1) * _STIELTJES[n - 1] / fact
    q = [0.0] * (deg + 1)
    fact = 1.0
    for j in range(deg - 1):   # only q_0 .. q_(deg-2) enter the division
        if j >= 1:
            fact *= j
        q[j] = (-1.0) ** (j + 1) * _STIELTJES[j + 1] / fact
    # -zeta'/zeta = (1/u^2 - Q)/((1/u)(1+P)) = (1/u)(1 - u^2 Q)/(1 + P)
    num = [1.0] + [0.0] * deg
    for n in range(2, deg + 1):
        num[n] = -q[n - 2]
    r = [0.0] * (deg + 1)
    for n in range(deg + 1):
        acc = num[n]
        for j in range(1, n + 1):
            acc -= p[j] * r[n - j]
        r[n] = acc
    # -zeta'/zeta = 1/u + sum_{n>=0} r_(n+1) u^n
    return LaurentCoeffs(r[1:n_max + 2])


# ----------------------------------------------------------------------
# The function f(t) = zeta'/zeta(t) + digamma(t) - log 2 pi
# ----------------------------------------------------------------------

def badabook_f(t: float) -> float:
    """f(t) = zeta'/zeta(t) + digamma(t) - log(2 pi) for real t > 1."""
    if t <= 1:
        raise ValueError("t must exceed 1")
    ld = log_deriv_zeta(complex(t)).value.real
    dg = digamma(complex(t)).value.real
    return ld + dg - math.log(TWO_PI)
