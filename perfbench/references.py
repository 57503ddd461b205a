"""Reference values computed apart from zetabounds.

- a plain numpy sieve of Eratosthenes for Lambda(n), n <= limit;
- mpmath's zero counting function and zeros of zeta;
- mpmath quadrature of the weight integrals, written from the definition
  F(u) = 1/pi + (1 - u) cot(pi u);
- the closed form of the L1 gap of the one-sided approximants;
- the paper's published values.

Nothing here imports zetabounds.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

EULER_GAMMA = float(mpmath.euler)

# Published values of arXiv:2512.15709.
PAPER_PSI_MIN_1E4 = -0.7509024438   # min (psi(x)-x)/sqrt(x) on [1e4, X]
PAPER_PSI_MIN_AT = 36917099         # attained as the left limit at this x
PAPER_EPSILON_1468 = 0.0021431      # epsilon(T = 1468, x = e^60)
PAPER_ZERO_SUM_1468 = 4.281         # direct weighted zero sum at T = 1468


def schoenfeld_bound(x):
    """|psi(x) - x| < sqrt(x) log^2 x / (8 pi) for x >= 73.2 (under RH)."""
    return math.sqrt(x) * math.log(x) ** 2 / (8.0 * math.pi)


class Mangoldt:
    """Lambda(n) for 1 <= n <= limit, kept at the prime powers, with
    prefix sums in extended precision."""

    def __init__(self, limit: int):
        self.limit = int(limit)
        is_p = np.ones(self.limit + 1, dtype=bool)
        is_p[:2] = False
        is_p[4::2] = False
        for p in range(3, math.isqrt(self.limit) + 1, 2):
            if is_p[p]:
                is_p[p * p::2 * p] = False
        lam = np.zeros(self.limit + 1)
        primes = np.flatnonzero(is_p)
        lam[primes] = np.log(primes)
        for p in primes[primes <= math.isqrt(self.limit)]:
            q = int(p) * int(p)
            while q <= self.limit:
                lam[q] = math.log(p)
                q *= int(p)
        self.n = np.flatnonzero(lam)
        self.lam = lam[self.n]
        self._weighted = {}

    def _cum(self, sigma: float) -> np.ndarray:
        """Prefix sums of Lambda(n) n^-sigma over the prime powers."""
        if sigma not in self._weighted:
            n = self.n.astype(np.longdouble)
            self._weighted[sigma] = np.cumsum(
                self.lam.astype(np.longdouble) * n ** -np.longdouble(sigma))
        return self._weighted[sigma]

    def _at(self, sigma, x, side="right"):
        cum = self._cum(sigma)
        i = np.searchsorted(self.n, np.asarray(x, dtype=np.float64), side)
        return np.where(i > 0, cum[np.maximum(i - 1, 0)], 0.0)

    def prime_sum(self, x: float, sigma: float) -> float:
        """sum_{n <= x} Lambda(n) n^-sigma."""
        if x > self.limit:
            raise ValueError("x beyond the reference sieve")
        return float(self._at(sigma, x))

    def statistic(self, stat: str, x, left=False):
        """(psi(x) - x)/sqrt(x), or sqrt(x) (sum Lambda(n)/n - log x
        + gamma), at x or (left=True) at its left limit x^-."""
        x = np.asarray(x, dtype=np.float64)
        side = "left" if left else "right"
        if stat == "psi":
            return np.asarray((self._at(0.0, x, side) - x) / np.sqrt(x),
                              dtype=np.float64)
        return np.asarray((self._at(1.0, x, side) - np.log(x) + EULER_GAMMA)
                          * np.sqrt(x), dtype=np.float64)

    def extrema(self, stat: str, x_min: int):
        """(max, min) of the statistic over [x_min, limit]: its values at
        x_min, at each prime power n in [x_min, limit] and at the left
        limits n^- for n > x_min."""
        n = self.n[self.n >= x_min].astype(np.float64)
        vals = [self.statistic(stat, [float(x_min)]),
                self.statistic(stat, n),
                self.statistic(stat, n[n > x_min], left=True)]
        allv = np.concatenate(vals)
        return float(allv.max()), float(allv.min())


def zero_count(T: float) -> int:
    """N(T), the number of zeros with 0 < gamma <= T (mpmath.nzeros)."""
    return int(mpmath.nzeros(T))


def zero_ordinate(k: int) -> float:
    """The ordinate of the k-th zero (mpmath.zetazero)."""
    return float(mpmath.zetazero(k).imag)


def _weight_norm(t, T):
    u = t / T
    F = 1 / mpmath.pi + (1 - u) * mpmath.cot(mpmath.pi * u)
    return mpmath.sqrt(F * F + (1 - u) ** 2)


def weighted_log_integral(T: float, t0: float) -> float:
    """(2 pi/T) int_{t0}^{T} sqrt(F(t/T)^2 + (1-t/T)^2) log(t/2pi) dt."""
    with mpmath.workdps(20):
        T = mpmath.mpf(T)
        q = mpmath.quad(lambda t: _weight_norm(t, T)
                        * mpmath.log(t / (2 * mpmath.pi)), [t0, T])
        return float(2 * mpmath.pi / T * q)


def weighted_inv_integral(T: float, t0: float) -> float:
    """(2 pi/T) int_{t0}^{T} sqrt(F(t/T)^2 + (1-t/T)^2) dt / t."""
    with mpmath.workdps(20):
        T = mpmath.mpf(T)
        q = mpmath.quad(lambda t: _weight_norm(t, T) / t, [t0, T])
        return float(2 * mpmath.pi / T * q)


def l1_gap(nu: float, majorant: bool) -> float:
    """L1 distance between the extremal majorant (minorant) of the
    truncated exponential with decay nu and the exponential itself:
    1/(1 - e^-nu) - 1/nu, or 1/nu - 1/(e^nu - 1)."""
    with mpmath.workdps(30):
        nu = mpmath.mpf(nu)
        if majorant:
            return float(1 / (1 - mpmath.exp(-nu)) - 1 / nu)
        return float(1 / nu - 1 / (mpmath.exp(nu) - 1))
