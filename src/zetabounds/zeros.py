"""Nontrivial zeta zeros: finding, persistence, counting statistics and
weighted sums.

Zeros are located as sign changes of the real-valued rotation
Z(t) = e^(i theta(t)) zeta(1/2 + it) on a grid finer than the local mean
gap, refined by the Illinois variant of regula falsi, and the resulting
list is vetted against the zero-counting remainder
Q(t) = N(t) - (t/2pi) log(t/(2pi e)) - 7/8.  Z(t) is evaluated by the
Riemann-Siegel formula from T_RS up and by Euler-Maclaurin below it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .special import log_deriv_zeta, zeta_batch_critical
from .util import TWO_PI, adaptive_simpson

__all__ = [
    "ZeroList", "ZeroCountStats", "MissedZeroError", "ZeroFileError",
    "hardy_theta", "hardy_z_batch", "find_zeros", "load_zeros", "save_zeros",
    "bundled_zeros", "count_and_Q", "lehman_sum", "box_count_bound",
    "inverse_square_tail", "local_log_deriv",
]

T_MAX_CEILING = 2.5e4
FIRST_ZERO = 14.134725141734694


class MissedZeroError(RuntimeError):
    """The zero scan failed its counting-function completeness check."""


class ZeroFileError(ValueError):
    """A zero file failed to parse or violated a sanity invariant."""


def _q_bound(t):
    return 0.2 * np.log(t) + 2.0


def _smooth_count(t):
    """(t/2pi) log(t/(2pi e)) + 7/8, the main term of N(t)."""
    t = np.asarray(t, dtype=np.float64)
    return t / TWO_PI * np.log(t / (TWO_PI * math.e)) + 7.0 / 8.0


@dataclass(frozen=True)
class ZeroCountStats:
    t: float
    N: int
    Q: float


@dataclass(frozen=True)
class ZeroList:
    """Ascending ordinates of nontrivial zeros, complete through t_max."""

    ordinates: np.ndarray
    t_max: float
    source: str = "computed"
    rh_assumed: bool = True

    def __post_init__(self):
        # a read-only copy: the caller's array stays writable, and no
        # in-place write can change a list that a BoundContext was built on
        g = np.array(self.ordinates, dtype=np.float64)
        g.flags.writeable = False
        object.__setattr__(self, "ordinates", g)
        if not (np.all(np.isfinite(g)) and math.isfinite(self.t_max)):
            raise ZeroFileError("ordinates and t_max must be finite")
        if g.size and not np.all(np.diff(g) > 0):
            raise ValueError("ordinates must be strictly ascending")
        if g.size and abs(g[0] - FIRST_ZERO) > 1e-4:
            raise ZeroFileError(
                f"first ordinate {g[0]:.6f} is not the known first zero")
        if g.size == 0 and self.t_max >= FIRST_ZERO + 1e-4:
            raise MissedZeroError("empty list cannot be complete past the "
                                  "first zero")
        if g.size:
            if g[-1] > self.t_max:
                raise ValueError("ordinate above t_max")
            self._check_prefix_counts()
        # the zeros listed are all zeros through t_max, so N(t_max) = size
        if self.t_max >= 1.0 and (abs(g.size - _smooth_count(self.t_max))
                                  > _q_bound(self.t_max)):
            raise MissedZeroError(
                f"{g.size} ordinates cannot be all zeros through t_max = "
                f"{self.t_max:g}")

    def _check_prefix_counts(self) -> None:
        g = self.ordinates
        k = np.arange(1, g.size + 1, dtype=np.float64)
        smooth = _smooth_count(g)
        q_after = k - smooth       # Q at gamma (count includes the zero)
        q_before = (k - 1) - smooth
        bound = _q_bound(g)
        bad = (np.abs(q_after) > bound) | (np.abs(q_before) > bound)
        if bad.any():
            i = int(np.argmax(bad))
            raise MissedZeroError(
                f"counting remainder violates its bound near t = {g[i]:.3f}")

    def count_below(self, t: float) -> int:
        return int(np.searchsorted(self.ordinates, t, side="right"))

    def __len__(self) -> int:
        return int(self.ordinates.size)


# ----------------------------------------------------------------------
# Hardy Z
# ----------------------------------------------------------------------

def hardy_theta(t):
    """Asymptotic theta(t) = (t/2) log(t/2pi) - t/2 - pi/8 + 1/(48t)
    + 7/(5760 t^3); adequate for t >= 10."""
    t = np.asarray(t, dtype=np.float64)
    return (t / 2.0 * np.log(t / TWO_PI) - t / 2.0 - math.pi / 8.0
            + 1.0 / (48.0 * t) + 7.0 / (5760.0 * t ** 3))


# Riemann-Siegel corrections C_0 .. C_4 as power series in z = p - 1/2,
# where p is the fractional part of sqrt(t/2pi).  C_k is even in z for
# even k and odd for odd k, so row k holds the coefficients of
# z^(2j + k mod 2), j = 0 .. 19.  They come from the Taylor series of
# Psi(p) = cos 2pi(p^2 - p - 1/16) / cos 2pi p at p = 1/2, through
#   C0 = Psi,  C1 = -Psi'''/(96 pi^2),
#   C2 = Psi''/(64 pi^2) + Psi^(6)/(18432 pi^4),
#   C3 = -Psi'/(64 pi^2) - Psi^(5)/(3840 pi^4) - Psi^(9)/(5308416 pi^6),
#   C4 = Psi/(128 pi^2) + 19 Psi^(4)/(24576 pi^4)
#        + 11 Psi^(8)/(5898240 pi^6) + Psi^(12)/(2038431744 pi^8),
# computed with mpmath.taylor by `rs_coefficient_table` in
# tests/test_zeros.py, which also checks these literals against it.  On
# |z| <= 1/2 the first omitted term of row k, times a^-k at t = T_RS, is
# below 2e-18.
_RS_COEFFS = (
    (0.3826834323650898, 1.7489618723100817, 2.118025207685496,
     -0.8707216670511481, -3.4733112243465167, -1.6626947308999325,
     1.216731288919232, 1.3014304161007977, 0.03051102182736167,
     -0.3755803051545095, -0.1085784416564066, 0.051832902999549624,
     0.029999480619902277, -0.0022759396706125644, -0.004382647416580339,
     -0.0004064230183729847, 0.0004006097785422114, 8.971057991388841e-05,
     -2.3025650027239108e-05, -9.380006601906792e-06),
    (-0.053650205256750697, 0.11027818741081483, 1.2317200154315227,
     1.2634964862799458, -1.695108997559503, -2.9998711967650102,
     -0.10819944959899208, 1.9407662946212714, 0.7838423561500687,
     -0.5054829667900366, -0.38450723496057976, 0.03747264646531532,
     0.09092026610973176, 0.01044923755006451, -0.012582979651583417,
     -0.003399503721151274, 0.0010410950537714891, 0.0005010949051118486,
     -3.956359669003182e-05, -4.7624592453571896e-05),
    (0.005188542830293168, 0.0012378633552253898, -0.18137505725166997,
     0.14291492748532125, 1.3303391766687565, 0.3522472353403734,
     -2.421001595891951, -1.6760787022538108, 1.3689416723328371,
     1.5539019430222982, -0.1722164273472998, -0.6359068055045431,
     -0.09911649873041208, 0.14033480067387008, 0.04782352019827292,
     -0.017356040641479782, -0.010225012534028593, 0.0009274149159794888,
     0.0013572194372373386, 6.41369012029388e-05),
    (-0.0026794321814389136, 0.02995372109103515, -0.042570172541828696,
     -0.28997965779803886, 0.4888831999235446, 1.230855876395746,
     -0.8297560708527408, -2.249763536666567, 0.07845139961005472,
     1.7467492800868893, 0.45968080979749937, -0.6619353471039775,
     -0.31590441036173633, 0.12844792545207495, 0.10073382716626152,
     -0.009530183848825268, -0.019264421687514088, -0.001246463715876929,
     0.0024243969641103086, 0.000437647697741857),
    (0.00046483389361763383, -0.004022642946136188, 0.003847177051796127,
     0.06581175135809486, -0.19604124343694448, -0.20854053686358853,
     0.9507754185141751, 0.5341535312914873, -1.67634944117634,
     -1.076747157875129, 1.235339301656597, 1.0257825340057276,
     -0.40124095793988546, -0.5036663995108304, 0.03573487795502745,
     0.14431763086785418, 0.01509152741790347, -0.026098874779194363,
     -0.006126628379519262, 0.003077503129870841),
)

# Lowest height evaluated by Riemann-Siegel; see hardy_z_batch.
T_RS = 400.0
_RS_CHUNK = 2048          # heights per main-sum block


def _riemann_siegel_z(ts: np.ndarray) -> np.ndarray:
    """Z(t) = 2 sum_{n <= N} n^(-1/2) cos(theta(t) - t log n)
    + (-1)^(N-1) a^(-1/2) sum_{k=0}^{4} C_k(p) a^(-k),
    with a = sqrt(t/2pi), N = floor(a), p = a - N."""
    a = np.sqrt(ts / TWO_PI)
    n_terms = np.floor(a)
    th = hardy_theta(ts)
    out = np.empty_like(ts)
    for lo in range(0, ts.size, _RS_CHUNK):
        blk = slice(lo, lo + _RS_CHUNK)
        n = np.arange(1.0, n_terms[blk].max() + 1.0)
        amp = np.where(n <= n_terms[blk, None], n ** -0.5, 0.0)
        phase = th[blk, None] - ts[blk, None] * np.log(n)
        out[blk] = 2.0 * (amp * np.cos(phase)).sum(axis=1)
    z = a - n_terms - 0.5
    z2 = z * z
    corr = np.zeros_like(ts)
    for k in reversed(range(len(_RS_COEFFS))):
        ck = np.zeros_like(ts)
        for c in reversed(_RS_COEFFS[k]):
            ck = ck * z2 + c
        if k % 2:
            ck *= z
        corr = corr / a + ck
    sign = np.where(n_terms % 2 == 1.0, 1.0, -1.0)     # (-1)^(N-1)
    return out + sign * corr / np.sqrt(a)


def hardy_z_batch(ts: np.ndarray) -> np.ndarray:
    """Z(t) = Re(e^(i theta) zeta(1/2+it)) for heights t >= 10, best in
    ascending order.

    From T_RS = 400 up, Z is the Riemann-Siegel main sum of
    floor(sqrt(t/2pi)) terms plus the corrections C_0 .. C_4.  Gabcke (1979)
    bounds the truncation error by 0.017 t^(-11/4) for t >= 200: 1.2e-9 at
    t = 400, and below the rounding of the phases theta - t log n from
    t ~ 1000 on.  Against mpmath.siegelz at 1200 seeded heights in
    [400, 2.5e4] the error was at most 8.1e-10, and it stayed below
        0.017 t^(-11/4) + 10 * 2^-52 * t log t,
    the bound this function is tested to (1.2e-9 at 400, 5.6e-10 at 2.5e4).
    Below T_RS, Z is e^(i theta) zeta_batch_critical(t), the Euler-Maclaurin
    sum of about 2.2 t/2pi terms.

    T_RS is set by measurement against that Euler-Maclaurin oracle.  With
    T_RS = 200, where Gabcke's bound is 8e-9, 31 ordinates of
    find_zeros(2504) between t = 201 and 322 lay more than the finder's
    tol = 1e-9 from every sign change of the oracle, and up to 3.4e-9 from
    mpmath.zetazero.  With T_RS = 400 every ordinate to 2504 lies within
    tol of one.
    """
    ts = np.asarray(ts, dtype=np.float64)
    out = np.empty(ts.shape)
    high = ts >= T_RS
    if high.any():
        out[high] = _riemann_siegel_z(ts[high])
    if not high.all():
        low = ts[~high]
        out[~high] = (np.exp(1j * hardy_theta(low))
                      * zeta_batch_critical(low)).real
    return out


# ----------------------------------------------------------------------
# Zero finding
# ----------------------------------------------------------------------

def _scan_grid(lo: float, hi: float, shrink: float = 1.0) -> np.ndarray:
    """Grid over [lo, hi] with local step 0.2 * shrink * mean gap."""
    pts = [lo]
    t = lo
    while t < hi:
        step = 0.2 * shrink * TWO_PI / max(math.log(max(t, 12.0) / TWO_PI),
                                           0.5)
        step = min(step, 1.0)
        t += step
        pts.append(min(t, hi))
    return np.array(pts)


def _refine_brackets(a: np.ndarray, b: np.ndarray, za: np.ndarray,
                     zb: np.ndarray, tol: float) -> np.ndarray:
    """Midpoints of the sign-change brackets [a, b] of Z, each narrowed to
    width <= 2 tol, so that every midpoint is within tol of a root.

    Vectorised Illinois (modified regula falsi): each step evaluates Z at
    the secant point of the bracket and keeps the part that still changes
    sign; an endpoint kept twice in a row has its Z value halved, which
    pulls the next secant point toward it, past the root.  The point is
    held at least tol inside the bracket, so once the secant estimate is
    within tol of the root the next one or two steps close the bracket to
    width <= tol.
    """
    a, b, za, zb = a.copy(), b.copy(), za.copy(), zb.copy()
    kept = np.zeros(a.size, dtype=np.int8)     # -1: a kept, +1: b kept
    live = np.flatnonzero(b - a > 2.0 * tol)
    while live.size:
        al, bl, fa, fb = a[live], b[live], za[live], zb[live]
        c = np.clip(bl - fb * (bl - al) / (fb - fa), al + tol, bl - tol)
        zc = hardy_z_batch(c)
        right = np.sign(zc) == np.sign(fa)     # root lies in [c, b]
        keep_b, keep_a = live[right], live[~right]
        a[keep_b], za[keep_b] = c[right], zc[right]
        b[keep_a], zb[keep_a] = c[~right], zc[~right]
        zb[keep_b[kept[keep_b] == 1]] *= 0.5
        za[keep_a[kept[keep_a] == -1]] *= 0.5
        kept[keep_b], kept[keep_a] = 1, -1
        live = live[b[live] - a[live] > 2.0 * tol]
    return 0.5 * (a + b)


def find_zeros(t_max: float, tol: float = 1e-9) -> ZeroList:
    """All ordinates <= t_max located to +-tol.

    Sign changes of hardy_z_batch on a grid of 0.2 local mean gaps are
    refined by the Illinois method until each bracket is at most 2 tol
    wide; each ordinate is its bracket's midpoint, within tol of a sign
    change of the computed Z (about 17 Z points per zero in all).
    Completeness is cross-checked against the Q(t) bound; suspiciously wide
    gaps get a finer local rescan (close pairs), and a global doubled
    resolution rescan is triggered if the check still fails.
    """
    if not 0 < t_max <= T_MAX_CEILING:
        raise ValueError(f"t_max must lie in (0, {T_MAX_CEILING:g}]")
    if tol < 1e-9:
        raise ValueError("tol must be at least 1e-9")
    if t_max < FIRST_ZERO - 0.5:
        return ZeroList(np.array([]), t_max, source="computed")

    lo = 10.0
    hi = t_max + 1.5
    shrink = 1.0
    for attempt in range(4):
        grid = _scan_grid(lo, hi, shrink)
        zv = hardy_z_batch(grid)
        flips = np.flatnonzero(np.sign(zv[:-1]) * np.sign(zv[1:]) < 0)
        roots = np.sort(_refine_brackets(grid[flips], grid[flips + 1],
                                         zv[flips], zv[flips + 1], tol))
        # local rescan of gaps wide enough to hide a close pair
        extra = _rescan_wide_gaps(roots, lo, hi, shrink, tol)
        if extra.size:
            roots = np.sort(np.concatenate([roots, extra]))
        roots = roots[(roots >= lo) & (roots <= t_max)]
        try:
            return ZeroList(roots, t_max, source="computed")
        except MissedZeroError:
            if attempt == 3:
                raise
            shrink *= 0.5
    raise MissedZeroError("unreachable")


def _rescan_wide_gaps(roots: np.ndarray, lo: float, hi: float,
                      shrink: float, tol: float) -> np.ndarray:
    """Rescan intervals whose gap exceeds 1.6x the local mean gap with an
    8x finer grid; returns any additional roots found.  All wide gaps
    share one Z evaluation and one refinement."""
    if roots.size < 2:
        return np.array([])
    edges = np.concatenate([[lo], roots, [hi]])
    mid = 0.5 * (edges[:-1] + edges[1:])
    mean_gap = TWO_PI / np.maximum(np.log(np.maximum(mid, 12.0) / TWO_PI),
                                   0.5)
    wide = np.flatnonzero(np.diff(edges) > 1.6 * mean_gap)
    if not wide.size:
        return np.array([])
    grids = [_scan_grid(edges[i] + 0.25 * tol, edges[i + 1] - 0.25 * tol,
                        shrink * 0.125) for i in wide]
    grid = np.concatenate(grids)
    zv = hardy_z_batch(grid)
    flip = np.sign(zv[:-1]) * np.sign(zv[1:]) < 0
    flip[np.cumsum([g.size for g in grids])[:-1] - 1] = False  # across gaps
    flips = np.flatnonzero(flip)
    cand = _refine_brackets(grid[flips], grid[flips + 1], zv[flips],
                            zv[flips + 1], tol)
    j = np.clip(np.searchsorted(roots, cand), 1, roots.size - 1)
    nearest = np.minimum(np.abs(roots[j - 1] - cand), np.abs(roots[j] - cand))
    return cand[nearest > 4 * tol]


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------

def save_zeros(zl: ZeroList, path: str) -> None:
    """Zero file: '#'-comments, '# t_max=<v> rh=<0|1>' header, one ordinate
    per line with nine decimals, ASCII, LF line endings."""
    lines = [f"# t_max={zl.t_max:.9f} rh={1 if zl.rh_assumed else 0}\n"]
    lines += [f"{g:.9f}\n" for g in zl.ordinates]
    from .util import atomic_write_text
    atomic_write_text(path, "".join(lines))


def load_zeros(path: str) -> ZeroList:
    """Parse a zero file; enforces the ZeroList invariants on load."""
    ords = []
    t_max = None
    rh = True
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    if tok.startswith("t_max="):
                        t_max = float(tok[6:])
                    elif tok.startswith("rh="):
                        rh = tok[3:] == "1"
                continue
            try:
                v = float(line)
            except ValueError as e:
                raise ZeroFileError(f"{path}:{lineno}: not a number: "
                                    f"{line!r}") from e
            if "e" in line or "E" in line:
                raise ZeroFileError(f"{path}:{lineno}: exponent notation "
                                    "not allowed")
            ords.append(v)
    arr = np.array(ords)
    if arr.size and not np.all(np.diff(arr) > 0):
        bad = int(np.argmax(np.diff(arr) <= 0)) + 2
        raise ZeroFileError(f"{path}:{bad}: ordinates not ascending")
    if t_max is None:
        t_max = float(arr[-1]) if arr.size else 0.0
    return ZeroList(arr, t_max, source=path, rh_assumed=rh)


def bundled_zeros() -> ZeroList:
    """The packaged first-100-ordinates fixture."""
    here = os.path.dirname(__file__)
    return load_zeros(os.path.join(here, "data", "zeros100.txt"))


# ----------------------------------------------------------------------
# Counting statistics and weighted sums
# ----------------------------------------------------------------------

def count_and_Q(zl: ZeroList, t: float) -> ZeroCountStats:
    """Exact N(t) from the list plus the remainder Q(t); asserts both the
    |Q| <= (1/5) log t + 2 bound and N(T) <= (T/2pi) log(T/2pi)."""
    if t > zl.t_max:
        raise ValueError("height exceeds the list's completeness range")
    n = zl.count_below(t)
    q = n - float(_smooth_count(t))
    if t >= 1.0 and abs(q) > 0.2 * math.log(t) + 2.0:
        raise MissedZeroError(f"|Q({t:g})| violates its bound")
    if t >= TWO_PI and n > t / TWO_PI * math.log(t / TWO_PI):
        raise MissedZeroError(f"N({t:g}) violates the crude upper bound")
    return ZeroCountStats(t=t, N=n, Q=q)


def lehman_sum(zl: ZeroList, phi, t0: float, t1: float, direction: str):
    """(exact sum of phi over ordinates in (t0, t1], decreasing-case RHS,
    increasing-case RHS).

    phi must be non-negative and monotone in the declared direction
    ('decreasing' or 'increasing'); a sampled direction mismatch raises.
    """
    if not (14.0 <= t0 <= t1 <= zl.t_max):
        raise ValueError("need 14 <= t0 <= t1 <= t_max")
    if direction not in ("decreasing", "increasing"):
        raise ValueError("direction must be 'decreasing' or 'increasing'")
    probe = np.linspace(t0, t1, 64)
    pv = np.array([phi(float(x)) for x in probe], dtype=np.float64)
    if pv.min() < -1e-12:
        raise ValueError("phi must be non-negative")
    d = np.diff(pv)
    if direction == "decreasing" and d.max() > 1e-12 * max(pv.max(), 1.0):
        raise ValueError("phi is not decreasing on [t0, t1]")
    if direction == "increasing" and d.min() < -1e-12 * max(pv.max(), 1.0):
        raise ValueError("phi is not increasing on [t0, t1]")

    g = zl.ordinates
    inwin = g[(g > t0) & (g <= t1)]
    exact = float(sum(phi(float(x)) for x in inwin))

    main = adaptive_simpson(lambda t: phi(t) * math.log(t / TWO_PI),
                            t0, t1, 1e-10) / TWO_PI
    invt = adaptive_simpson(lambda t: phi(t) / t, t0, t1, 1e-10)
    q0 = count_and_Q(zl, t0).Q
    q1 = count_and_Q(zl, t1).Q
    rhs_dec = main + phi(t0) * (0.2 * math.log(t0) + 2.0 - q0) + invt / 5.0
    rhs_inc = (main + phi(t1) * (0.2 * math.log(t1) + 2.0 + q1)
               - invt / 5.0 - phi(t0) * (0.2 * math.log(t0) + 2.0 + q0))
    return exact, rhs_dec, rhs_inc


def box_count_bound(T: float, a: float) -> float:
    """Upper bound for N(T+a) - N((T-a)^-): (2/5) log T + 4 plus the
    smooth-density window (a/pi) log(T/2pi)."""
    if not (T >= 1.0 and 0 < a < T):
        raise ValueError("need T >= 1 and 0 < a < T")
    return 0.4 * math.log(T) + 4.0 + a / math.pi * math.log(T / TWO_PI)


def inverse_square_tail(zl: ZeroList, t0: float):
    """(sum_{gamma > t0} 1/gamma^2 with the above-t_max part estimated
    analytically, the closed-form upper bound).

    The analytic remainder's own uncertainty must be below 1e-6.
    """
    if t0 < 14.0:
        raise ValueError("t0 must be at least 14")
    if t0 > zl.t_max:
        raise ValueError("t0 exceeds the list height")
    g = zl.ordinates
    tm = zl.t_max
    exact_part = float(np.sum(1.0 / g[g > t0] ** 2))
    # density integral for the invisible tail, with a rigorous uncertainty
    remainder = (math.log(tm / TWO_PI) + 1.0) / (TWO_PI * tm)
    q_tm = abs(count_and_Q(zl, tm).Q)
    uncertainty = (q_tm + 0.4 * math.log(tm) + 4.1) / tm ** 2
    if uncertainty >= 1e-6:
        raise ValueError("list height too small: remainder uncertainty "
                         f"{uncertainty:.2e} >= 1e-6")
    rhs = (math.log(math.e * t0 / TWO_PI) / (TWO_PI * t0)
           + (0.4 * math.log(t0) + 4.1) / t0 ** 2)
    return exact_part + remainder, rhs


def local_log_deriv(zl: ZeroList, s: complex, a: float, sigma_plus: float):
    """(sum of 1/(s - rho) over ordinates with |gamma - t| <= a, the O*
    radius within which the true zeta'/zeta(s) must lie).

    Valid for s = sigma + it with -2 <= sigma <= sigma_plus <= 2 and
    t >= max(1000, a); the RH-in-window sharpening is applied when the
    list carries rh_assumed.
    """
    s = complex(s)
    sigma, t = s.real, s.imag
    if not (-2.0 <= sigma <= sigma_plus <= 2.0 and sigma_plus > 1.0):
        raise ValueError("need -2 <= sigma <= sigma_plus <= 2, sigma_plus>1")
    if t < max(1000.0, a):
        raise ValueError("need t >= max(1000, a)")
    if t + a > zl.t_max:
        raise ValueError("window exceeds the list height")
    g = zl.ordinates
    win = g[(g >= t - a) & (g <= t + a)]
    total = complex(np.sum(1.0 / (s - (0.5 + 1j * win)))) if win.size else 0j
    denom = (sigma_plus - 0.5) if zl.rh_assumed else (sigma_plus - 1.0)
    k1 = ((sigma_plus - sigma) / a + a / denom) / math.pi
    k2 = ((sigma_plus - sigma) / a ** 2
          + abs((sigma_plus - sigma) / a ** 2 - 1.0 / denom))
    eps = ((sigma_plus - sigma) / (2.0 * t)
           + ((sigma_plus - sigma) ** 2 / 2.0
              + 1.5 * (sigma_plus - sigma) + 1.0 / (3.0 * math.sqrt(2.0)))
           / t ** 2)
    ld_plus = abs(log_deriv_zeta(complex(sigma_plus)).value.real)
    radius = (k1 * math.log(t / TWO_PI) + k2 * (0.4 * math.log(t) + 4.0)
              + eps + ld_plus)
    return total, radius
