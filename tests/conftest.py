import math

import numpy as np
import pytest

from zetabounds import verify as vf
from zetabounds import zeros as zr


@pytest.fixture(scope="session")
def zl_med():
    """Zeros through t = 2000 (1517 of them)."""
    return zr.find_zeros(2000.0, 1e-9)


@pytest.fixture(scope="session")
def zl_small():
    """Zeros through t = 300."""
    return zr.find_zeros(300.0, 1e-9)


@pytest.fixture(scope="session")
def zl_100():
    """The first 100 zeros, complete through t = 237."""
    return zr.find_zeros(237.0, 1e-9)


@pytest.fixture(scope="session")
def zl_deep():
    """Zeros through the height of the default appendix-b list, deep
    enough for the tail estimates."""
    return zr.find_zeros(vf.APPENDIX_B_T, 1e-9)


class PrimePowers:
    """The prime powers n <= limit with Lambda(n), from a plain sieve of
    Eratosthenes over [0, limit]: the oracle of the sieve tests, which
    shares no code with zetabounds.sieve.

    Lambda follows the program's stated convention, so the tests can ask
    for equal bits: np.log of the float n, over a contiguous array, for a
    prime, and math.log(p) for a proper power p^k.  math.log(n) would not
    do: it differs from np.log(n) at 82 of the 2 261 623 primes below
    3.7e7, the first at 285 343."""

    def __init__(self, limit):
        is_p = np.ones(limit + 1, dtype=bool)
        is_p[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if is_p[p]:
                is_p[p * p::p] = False
        self.limit = limit
        self.primes = np.flatnonzero(is_p)
        ns, lams = [self.primes], [np.log(self.primes.astype(np.float64))]
        base = self.primes[:np.searchsorted(self.primes, math.isqrt(limit),
                                            side="right")]
        power = base
        while base.size:
            power = power * base
            keep = power <= limit
            base, power = base[keep], power[keep]
            ns.append(power)
            lams.append(np.array([math.log(p) for p in base.tolist()]))
        order = np.argsort(np.concatenate(ns), kind="stable")
        self.n = np.concatenate(ns)[order]
        self.lam = np.concatenate(lams)[order]

    def window(self, lo, hi):
        """(n, Lambda(n)) for the prime powers n in [lo, hi], ascending."""
        assert hi <= self.limit
        i0, i1 = np.searchsorted(self.n, [lo, hi + 1])
        return self.n[i0:i1], self.lam[i0:i1]

    def primes_in(self, lo, hi):
        """The primes in [lo, hi], 2 <= lo, for hi up to limit^2: the
        multiples of every prime up to sqrt(hi) struck from a window."""
        root = math.isqrt(hi)
        assert 2 <= lo and root <= self.limit
        is_p = np.ones(hi - lo + 1, dtype=bool)
        for p in self.primes[:np.searchsorted(self.primes, root,
                                              side="right")].tolist():
            is_p[max(p * p, -(-lo // p) * p) - lo::p] = False
        return np.flatnonzero(is_p) + lo


@pytest.fixture(scope="session")
def prime_powers():
    """The sieve oracle through 3.7e7, past the paper's psi minimum at
    36 917 099."""
    return PrimePowers(37_000_000)
