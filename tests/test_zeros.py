import math

import mpmath as mp
import numpy as np
import pytest

from zetabounds import cli
from zetabounds import special as sp
from zetabounds import zeros as zr
from zetabounds.special import log_deriv_zeta, zeta_batch_critical
from zetabounds.util import TWO_PI
from zetabounds.zeros import MissedZeroError, ZeroFileError, ZeroList


# ----------------------------------------------------------------------
# the finder
# ----------------------------------------------------------------------

def test_first_two_ordinates(zl_small):
    for gamma, name in zip(zl_small.ordinates, ("gamma0", "gamma1")):
        value, tol = cli.pinned(name)
        assert abs(gamma - value) < tol


def test_count_to_100(zl_small):
    assert zl_small.count_below(100.0) == 29


def test_finder_soundness(zl_small):
    g = zl_small.ordinates
    vals = np.abs(zeta_batch_critical(g))
    assert vals.max() < 1e-6
    # a genuine sign change brackets every root
    tol = 2e-9
    lo = zr.hardy_z_batch(g - tol)
    hi = zr.hardy_z_batch(g + tol)
    assert np.all(np.sign(lo) * np.sign(hi) <= 0)


def test_empty_below_first_zero():
    zl = zr.find_zeros(5.0)
    assert len(zl) == 0
    assert zl.t_max == 5.0


def test_finder_domain_checks():
    with pytest.raises(ValueError):
        zr.find_zeros(3e4)
    with pytest.raises(ValueError):
        zr.find_zeros(100.0, tol=1e-12)
    for tol in (math.nan, math.inf, 0.5, 1.0001e-4):
        with pytest.raises(ValueError, match="tol must be finite"):
            zr.find_zeros(60.0, tol=tol)
    # the coarsest tol still passes ZeroList's first-ordinate check
    assert len(zr.find_zeros(60.0, tol=zr.FIRST_ZERO_TOL)) == 13


def test_zerolist_invariants():
    with pytest.raises(ZeroFileError):
        ZeroList(np.array([13.0]), 20.0)
    with pytest.raises(ValueError):
        ZeroList(np.array([14.134725, 14.134725]), 20.0)
    with pytest.raises(MissedZeroError):
        ZeroList(np.array([]), 100.0)   # cannot be complete to 100


def test_zerolist_holds_a_read_only_copy(zl_100):
    g = np.array(zl_100.ordinates)
    zl = ZeroList(g, zl_100.t_max)
    with pytest.raises(ValueError):
        zl.ordinates[5] = 0.0
    g[5] = 0.0          # the caller's own array stays writable
    assert zl.ordinates[5] != 0.0


@pytest.mark.parametrize("i", [300, 1000, 1400])
def test_zerolist_rejects_three_missing_zeros(zl_med, i):
    g = np.delete(zl_med.ordinates, [i, i + 1, i + 2])
    with pytest.raises(MissedZeroError, match="near t"):
        ZeroList(g, zl_med.t_max)


@pytest.fixture(scope="module")
def zl_ceiling():
    """The 24 944 zeros through the desk ceiling t = 21900."""
    return zr.find_zeros(21900.0, 1e-9)


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                   reason="ZeroList's completeness checks miss these gaps")
@pytest.mark.parametrize("loader", ["ZeroList", "load_zeros"])
@pytest.mark.parametrize("missing", [
    (7005.0629,),                  # the Lehmer zero
    (20000.128, 20001.194),        # an adjacent pair
    None,                          # the top 3 ordinates
], ids=["lehmer-7005", "pair-20000", "top-3"])
def test_zerolist_rejects_a_gap_at_the_ceiling(zl_ceiling, tmp_path,
                                               missing, loader):
    g = zl_ceiling.ordinates
    if missing is None:
        drop = [g.size - 3, g.size - 2, g.size - 1]
    else:
        drop = [int(np.argmin(np.abs(g - t))) for t in missing]
        assert np.allclose(g[drop], missing, atol=1e-3, rtol=0)
    g = np.delete(g, drop)
    with pytest.raises(MissedZeroError):
        if loader == "ZeroList":
            ZeroList(g, zl_ceiling.t_max)
        else:
            path = tmp_path / "gap.txt"
            path.write_text("# t_max=21900.000000000 rh=1\n"
                            + "".join(f"{v:.9f}\n" for v in g))
            zr.load_zeros(str(path))


# ----------------------------------------------------------------------
# Riemann-Siegel Z and the Anderson-Bjorck refiner, against independent
# references
# ----------------------------------------------------------------------

def rs_coefficient_table(degree, dps=30):
    """Taylor coefficients in z = p - 1/2, through z^degree, of the
    Riemann-Siegel corrections C_0 .. C_4 (as mpf), from mpmath.taylor of
    Psi(p) = cos 2pi(p^2 - p - 1/16) / cos 2pi p at p = 1/2."""
    with mp.workdps(dps):
        pi = mp.pi

        def psi(p):
            return mp.cos(2 * pi * (p * p - p - mp.mpf(1) / 16)) \
                / mp.cos(2 * pi * p)

        taylor = mp.taylor(psi, mp.mpf(1) / 2, degree + 12)

        def deriv(j):       # coefficients of Psi^(j)(1/2 + z)
            return [taylor[m + j] * mp.factorial(m + j) / mp.factorial(m)
                    for m in range(degree + 1)]

        combos = (
            ((0, 1),),
            ((3, -1 / (96 * pi ** 2)),),
            ((2, 1 / (64 * pi ** 2)), (6, 1 / (18432 * pi ** 4))),
            ((1, -1 / (64 * pi ** 2)), (5, -1 / (3840 * pi ** 4)),
             (9, -1 / (5308416 * pi ** 6))),
            ((0, 1 / (128 * pi ** 2)), (4, 19 / (24576 * pi ** 4)),
             (8, 11 / (5898240 * pi ** 6)),
             (12, 1 / (2038431744 * pi ** 8))),
        )
        table = []
        for combo in combos:
            row = [mp.mpf(0)] * (degree + 1)
            for j, w in combo:
                row = [r + w * d for r, d in zip(row, deriv(j))]
            table.append(row)
        return table


def test_rs_coefficients_regenerate():
    rows = zr._RS_COEFFS
    table = rs_coefficient_table(2 * len(rows[0]) + 1)
    a_min = math.sqrt(zr.T_RS / TWO_PI)
    for k, row in enumerate(rows):
        par = k % 2
        own, other = table[k][par::2], table[k][1 - par::2]
        assert tuple(float(c) for c in own[:len(row)]) == row
        # the other parity vanishes, and the first omitted term, at
        # |z| = 1/2 and scaled by a^-k as in the remainder, is negligible
        assert max(abs(c) for c in other) < 1e-20
        first_omitted = abs(own[len(row)]) * 0.5 ** (2 * len(row) + par)
        assert first_omitted * a_min ** -k < 2e-18


def test_riemann_siegel_against_mpmath():
    rng = np.random.default_rng(314)
    ts = np.concatenate([[zr.T_RS, 2.5e4], np.exp(
        rng.uniform(math.log(zr.T_RS), math.log(2.5e4), 24))])
    got = zr.hardy_z_batch(ts)
    with mp.workdps(25):
        want = np.array([float(mp.siegelz(float(t))) for t in ts])
    bound = 0.017 * ts ** -2.75 + 10 * 2.0 ** -52 * ts * np.log(ts)
    assert np.all(np.abs(got - want) <= bound)


def test_riemann_siegel_against_mpmath_above_the_ceiling():
    # the docstring's bound also holds over [2.5e4, 1e5]
    ts = np.sort(np.random.default_rng(2718).uniform(2.5e4, 1e5, 8))
    got = zr.hardy_z_batch(ts)
    with mp.workdps(25):
        want = np.array([float(mp.siegelz(float(t))) for t in ts])
    bound = 0.017 * ts ** -2.75 + 10 * 2.0 ** -52 * ts * np.log(ts)
    assert np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize("t", [9.999, 1.0, 0.5, 0.0, -3.0, math.nan,
                               math.inf, -math.inf])
def test_hardy_z_rejects_heights_outside_its_range(t):
    with pytest.raises(ValueError, match="finite heights t >= 10"):
        zr.hardy_z_batch(np.array([500.0, t]))
    assert zr.hardy_z_batch(np.array([])).size == 0


def test_rs_correction_matches_a_horner_per_row():
    ts = np.random.default_rng(5000).uniform(zr.T_RS, 2.5e4, 5000)
    a = np.sqrt(ts / TWO_PI)
    z = a - np.floor(a) - 0.5
    z2 = z * z
    want = np.zeros_like(ts)
    for k in reversed(range(len(zr._RS_COEFFS))):
        ck = np.zeros_like(ts)
        for c in reversed(zr._RS_COEFFS[k]):
            ck = ck * z2 + c
        if k % 2:
            ck *= z
        want = want / a + ck
    assert np.array_equal(zr._rs_correction(a, z), want)


def rs_reference(t):
    """Riemann-Siegel Z at one height, row by row: the main sum
    2 sum_{n <= N} n^(-1/2) cos(theta - t log n) summed exactly by fsum,
    plus the corrections C_0 .. C_4 from _RS_COEFFS in Horner form."""
    a = math.sqrt(t / TWO_PI)
    big_n = math.floor(a)
    n = np.arange(1.0, big_n + 1.0)
    th = float(zr.hardy_theta(t))
    main = 2.0 * math.fsum(n ** -0.5 * np.cos(th - t * np.log(n)))
    z = a - big_n - 0.5
    corr = 0.0
    for k in reversed(range(len(zr._RS_COEFFS))):
        ck = 0.0
        for c in reversed(zr._RS_COEFFS[k]):
            ck = ck * z * z + c
        corr = corr / a + (ck * z if k % 2 else ck)
    sign = 1.0 if big_n % 2 else -1.0
    return main + sign * corr / math.sqrt(a)


def test_riemann_siegel_groups_match_row_reference():
    # t = 2 pi k^2 +- 1e-9 straddles every change of N from 8 to 59
    k = np.arange(8, 60, dtype=np.float64)
    ts = np.sort(np.concatenate([TWO_PI * k * k - 1e-9,
                                 TWO_PI * k * k + 1e-9]))
    want = np.array([rs_reference(t) for t in ts])
    assert np.all(np.abs(zr._riemann_siegel_z(ts) - want) <= 1e-14)
    perm = np.random.default_rng(16).permutation(ts.size)
    assert np.all(np.abs(zr._riemann_siegel_z(ts[perm]) - want[perm])
                  <= 1e-14)
    one = np.array([ts[37]])
    assert abs(zr._riemann_siegel_z(one)[0] - want[37]) <= 1e-14


def test_zeta_batch_critical_matches_scalar_zeta_em():
    # 424 shuffled heights, more than any call of find_zeros passes
    # (test_find_zeros_sends_zeta_batch_critical_small_batches), share
    # the main sum of the top height's length
    ts = np.random.default_rng(61).uniform(10.0, zr.T_RS, 424)
    got = zeta_batch_critical(ts)
    for t, z in zip(ts, got):
        s = complex(0.5, t)
        # each height gets at least the terms of its own length; the
        # tolerance leaves out the remainder's term for the phase rounding
        # of n^(-i t), 2^-52 t sum n^(-1/2) log n, which can put zeta_em's
        # own budget above 1e-12 here
        N = sp._em_length(s)
        n = np.arange(1.0, N + 1.0)
        phase = 2.0 ** -52 * t * float(n ** -0.5 @ np.log(n))
        own_rem = sp._zeta_em_all(s, N)[1][0] - phase
        assert abs(z - sp.zeta_em(s, 1e-10).value) <= 1e-12 + own_rem
    # a single height is one block of its own length
    for t in ts[:20]:
        s = complex(0.5, t)
        alone = zeta_batch_critical(np.array([t]))[0]
        assert abs(alone - sp._zeta_em_all(s, sp._em_length(s))[0][0]) \
            <= 1e-12


@pytest.mark.parametrize("lo", [100.0, 250.0, 390.0])
def test_zeta_batch_critical_bits_do_not_depend_on_the_batch(lo):
    """Heights that share one main-sum length get the same bits alone
    and in batches of 3, 7 and 64: a batch of 3 or 7 leaves a lone
    height at the end."""
    N = sp._em_length(complex(0.5, lo))
    hi = lo + 0.3
    assert sp._em_length(complex(0.5, hi)) == N
    ts = np.sort(np.random.default_rng(int(lo)).uniform(lo, hi, 64))
    whole = zeta_batch_critical(ts).tobytes()
    for k in (1, 3, 7):
        parts = [zeta_batch_critical(ts[i:i + k]) for i in range(0, 64, k)]
        assert b"".join(p.tobytes() for p in parts) == whole


@pytest.mark.parametrize("seed", [71, 72, 73])
def test_zeta_batch_critical_bits_do_not_depend_on_the_order(seed):
    """A shuffled batch, and a reversed view of the sorted one, give each
    height the bits it gets in the sorted batch."""
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.uniform(10.0, zr.T_RS, 1000))
    want = zeta_batch_critical(ts)
    perm = rng.permutation(ts.size)
    assert zeta_batch_critical(ts[perm]).tobytes() == want[perm].tobytes()
    assert zeta_batch_critical(ts[::-1]).tobytes() == want[::-1].tobytes()


def test_hardy_z_mixed_heights_match_each_path():
    # heights on both sides of T_RS, unsorted, come back in input order
    ts = np.array([2000.0, 150.0, zr.T_RS, 390.0, 20000.0])
    mixed = zr.hardy_z_batch(ts)
    alone = np.array([zr.hardy_z_batch(np.array([t]))[0] for t in ts])
    assert np.allclose(mixed, alone, rtol=0.0, atol=1e-11)


def test_hardy_z_below_t_rs_goes_through_zeta_batch_critical(monkeypatch):
    """hardy_z_batch reaches the Euler-Maclaurin path through the name
    zeros.zeta_batch_critical, with the heights below T_RS only, so a
    wrapper put there sees every such call."""
    seen = []
    real = zr.zeta_batch_critical

    def counting(ts):
        seen.append(np.array(ts))
        return real(ts)

    monkeypatch.setattr(zr, "zeta_batch_critical", counting)
    ts = np.array([2000.0, 150.0, zr.T_RS, 390.0, 20.0])
    zr.hardy_z_batch(ts)
    assert len(seen) == 1 and np.array_equal(seen[0], [150.0, 390.0, 20.0])
    zr.hardy_z_batch(np.array([zr.T_RS, 2000.0]))
    assert len(seen) == 1


@pytest.mark.parametrize("t_max", [14.5, 400.0, 21900.0])
def test_find_zeros_sends_zeta_batch_critical_small_batches(monkeypatch,
                                                            t_max):
    """zeta_batch_critical builds one table for all the heights of a
    call, so what find_zeros passes it bounds that table.  The scan's
    call passes t = 10 and the Gram points below T_RS.  A later call
    passes one point per open bracket, one zero below T_RS in each, and
    one midpoint per gap of a short Rosser block there: the zeros and
    those gaps each number about the scan's points, so a call stays
    within twice them."""
    # every Gram point below T_RS has an index below T_RS
    gram = zr.gram_points(np.arange(int(zr.T_RS)))
    scan = 1 + int(np.count_nonzero(gram < zr.T_RS))
    sizes = []
    real = zr.zeta_batch_critical

    def counting(ts):
        sizes.append(len(ts))
        return real(ts)

    monkeypatch.setattr(zr, "zeta_batch_critical", counting)
    zr.find_zeros(t_max)
    assert sizes[0] == scan
    assert max(sizes) <= 2 * scan


def test_ordinates_bracket_em_sign_changes():
    """Every ordinate lies within tol of a sign change of the
    Euler-Maclaurin Z, which shares no code with Riemann-Siegel."""
    tol = 1e-9
    zl = zr.find_zeros(2504.0, tol)
    assert len(zl) == mp.nzeros(2504)
    g = zl.ordinates

    def oracle(t):
        return (np.exp(1j * zr.hardy_theta(t)) * zeta_batch_critical(t)).real

    lo, hi = oracle(g - 1.1 * tol), oracle(g + 1.1 * tol)
    assert np.all(np.sign(lo) * np.sign(hi) < 0)


def test_hardy_z_below_t_rs_within_its_bound():
    """The Euler-Maclaurin path stays inside _EM_Z_ERROR, the bound that
    decides which Z values below T_RS count as a sign."""
    ts = np.sort(np.random.default_rng(27).uniform(10.0, zr.T_RS, 40))
    got = zr.hardy_z_batch(ts)
    with mp.workdps(25):
        want = np.array([float(mp.siegelz(float(t))) for t in ts])
    assert np.all(np.abs(got - want) <= zr._z_error_bound(ts))


# ----------------------------------------------------------------------
# the Gram-point scan: Rosser blocks and Turing's method
# ----------------------------------------------------------------------

def test_gram_points_solve_theta():
    top = int(zr.hardy_theta(zr.T_MAX_CEILING) / math.pi) + 1
    n = np.arange(top + zr._TURING_MARGIN + 1)
    g = zr.gram_points(n)
    assert abs(g[0] - 17.8455995404) < 1e-9
    assert np.all(np.diff(g) > 0) and g[top] >= zr.T_MAX_CEILING
    npi = n * math.pi
    assert np.all(np.abs(zr.hardy_theta(g) - npi)
                  <= 8 * np.spacing(np.maximum(npi, math.pi)))


def test_gram_offset_bounds_the_placement_error():
    n = np.array([0, 1, 7, 300, 2000, 24000, 24944, 29000], dtype=float)
    g = zr.gram_points(n)
    delta = zr._gram_offset(g, n)

    def theta(t):       # hardy_theta in 40 digits
        return (t / 2 * mp.log(t / (2 * mp.pi)) - t / 2 - mp.pi / 8
                + 1 / (48 * t) + 7 / (5760 * t ** 3))

    with mp.workdps(40):
        for gi, ni, di in zip(g, n, delta):
            exact = mp.findroot(lambda t: theta(t) - ni * mp.pi, gi)
            assert abs(gi - exact) <= di


def test_z_prime_bound_against_mpmath():
    ts = np.concatenate([[10.0, 17.8, zr.T_RS], np.exp(np.random.default_rng(
        12).uniform(math.log(10.0), math.log(2.5e4), 8))])
    with mp.workdps(15):
        want = np.array([abs(float(mp.siegelz(t, derivative=1)))
                         for t in ts])
    assert np.all(zr._z_prime_bound(ts) >= want)
    # the corrections' share, a^(-3/2) / 2: the t derivative of
    # a^(-1/2) sum_k C_k(p) a^(-k) with |C_k|, |C_k'| bounded termwise
    # on |p - 1/2| <= 1/2 and a >= 1
    c, dc = [], []
    for k, row in enumerate(zr._RS_COEFFS):
        powers = np.arange(len(row)) * 2 + k % 2
        c.append(np.sum(np.abs(row) * 0.5 ** powers))
        dc.append(np.sum(np.abs(row) * powers * 0.5 ** (powers - 1.0)))
    k = np.arange(len(c))
    assert (0.5 * sum(c) + sum(dc) + np.dot(k, c)) / (4 * math.pi) <= 0.5


def test_counts_match_mpmath(zl_small, zl_med):
    assert len(zl_small) == mp.nzeros(300)
    assert len(zl_med) == mp.nzeros(2000)
    assert len(zr.find_zeros(1468.0)) == mp.nzeros(1468)


def test_lehmer_pair_at_21900():
    g = zr.find_zeros(21900.0).ordinates
    assert g.size == 24944
    pair = g[(g > 7005.0) & (g < 7005.2)]
    assert np.allclose(pair, [7005.0629, 7005.1006], rtol=0.0, atol=1e-4)


def test_z_points_per_zero(monkeypatch):
    points = []
    real = zr.hardy_z_batch

    def counting(ts):
        points.append(len(ts))
        return real(ts)

    monkeypatch.setattr(zr, "hardy_z_batch", counting)
    zl = zr.find_zeros(2504.0)
    assert sum(points) <= 7.8 * len(zl)
    # the Gram points, then Rosser rounds and refinement steps together
    assert len(points) <= 12


def _refine(a, b, za, zb, tol):
    """The brackets refined by zeros._Brackets alone, Z from
    zeros.hardy_z_batch; their midpoints, ascending."""
    brackets = zr._Brackets(tol)
    brackets.add(a, b, za, zb)
    while (c := brackets.points()).size:
        brackets.step(zr.hardy_z_batch(c))
    return brackets.roots()


def test_refiner_on_the_finders_brackets(monkeypatch):
    seen = []
    real_add = zr._Brackets.add

    def capture(self, *args):
        seen.append(args)
        return real_add(self, *args)

    monkeypatch.setattr(zr._Brackets, "add", capture)
    zr.find_zeros(2504.0)
    monkeypatch.undo()
    a, b, za, zb = (np.concatenate(part) for part in zip(*seen))
    tol = 1e-9

    real_z = zr.hardy_z_batch
    points = []

    def counting(ts):
        points.append(len(ts))
        return real_z(ts)

    monkeypatch.setattr(zr, "hardy_z_batch", counting)
    r = _refine(a, b, za, zb, tol)
    assert r.size == a.size and sum(points) <= 6.5 * a.size
    assert np.all(np.signbit(real_z(r - tol)) != np.signbit(real_z(r + tol)))

    # brackets already at most 2 tol wide come back as their midpoints,
    # alone without a Z evaluation, and among the wide ones unchanged
    points.clear()
    lo, hi = r[::100] - 0.9 * tol, r[::100] + 0.9 * tol
    zlo, zhi = real_z(lo), real_z(hi)
    assert np.array_equal(_refine(lo, hi, zlo, zhi, tol), 0.5 * (lo + hi))
    assert points == []
    mixed = _refine(np.append(a, lo), np.append(b, hi), np.append(za, zlo),
                    np.append(zb, zhi), tol)
    assert np.array_equal(mixed, np.sort(np.append(r, 0.5 * (lo + hi))))


def _hide_pair(monkeypatch, lo, hi):
    """Make hardy_z_batch return -Z on (lo, hi), so that the two zeros at
    its ends are no longer sign changes."""
    real = zr.hardy_z_batch

    def stub(ts):
        ts = np.asarray(ts, dtype=np.float64)
        z = real(ts)
        return np.where((ts > lo) & (ts < hi), -z, z)

    monkeypatch.setattr(zr, "hardy_z_batch", stub)


@pytest.mark.parametrize("j", [40, 700])
def test_short_rosser_block_raises(zl_med, monkeypatch, j):
    g = zl_med.ordinates
    _hide_pair(monkeypatch, g[j], g[j + 1])
    calls = _record_calls(monkeypatch)
    with pytest.raises(MissedZeroError, match="Rosser block"):
        zr.find_zeros(2000.0)
    # the Gram points, then _ROSSER_ROUNDS calls that bisect the short
    # block, the first of them also refining the complete blocks' zeros
    mids = _rosser_midpoints(calls)
    assert len(calls) == 1 + zr._ROSSER_ROUNDS and all(m.any() for m in mids)
    assert not mids[0].all()


@pytest.mark.parametrize("t_max", [300.0, 1000.0])
def test_pair_hidden_in_turing_blocks_raises(zl_med, monkeypatch, t_max):
    # g_N: the first good Gram point at or above max(t_max, 168 pi)
    t_top = max(t_max, zr.TURING_T_MIN)
    n0 = int(zr.hardy_theta(t_top) / math.pi)
    n = np.arange(n0, n0 + 20)
    g = zr.gram_points(n)
    z = zr.hardy_z_batch(g)
    good = (np.where(n % 2, -z, z) > zr._z_error_bound(g)) & (g >= t_top)
    g_n = g[np.argmax(good)]
    zeros = zl_med.ordinates
    j = int(np.searchsorted(zeros, g_n))
    assert zeros[j] > g_n > t_max
    _hide_pair(monkeypatch, zeros[j], zeros[j + 1])
    with pytest.raises(MissedZeroError, match="Rosser block"):
        zr.find_zeros(t_max)


def _record_calls(monkeypatch):
    """Wrap zeros.hardy_z_batch (as it stands, stubbed or not); the list
    it returns gets each call's heights."""
    calls = []
    inner = zr.hardy_z_batch

    def recording(ts):
        calls.append(np.array(ts, dtype=np.float64))
        return inner(ts)

    monkeypatch.setattr(zr, "hardy_z_batch", recording)
    return calls


def _rosser_midpoints(calls):
    """For each call after the first, which of its heights bisect two
    adjacent points of the scan so far (the Gram points of the first
    call, then the midpoints before)."""
    grid = np.sort(calls[0])
    masks = []
    for ts in calls[1:]:
        i = np.clip(np.searchsorted(grid, ts) - 1, 0, grid.size - 2)
        mid = ts == 0.5 * (grid[i] + grid[i + 1])
        masks.append(mid)
        grid = np.sort(np.append(grid, ts[mid]))
    return masks


def test_refinement_runs_beside_the_rosser_rounds(monkeypatch):
    """The second call bisects the short Rosser blocks (below 300 Gram's
    law first fails at g_126 = 282.45) and already refines the brackets
    of the complete ones; the short blocks' zeros are refined by later
    calls, once the blocks resolve."""
    tol = 1e-9
    calls = _record_calls(monkeypatch)
    g = zr.find_zeros(300.0, tol).ordinates
    monkeypatch.undo()
    mids = _rosser_midpoints(calls)
    assert mids[0].any() and not mids[0].all()
    grid = calls[0]
    gaps = np.searchsorted(grid, calls[1][mids[0]]) - 1
    assert np.searchsorted(grid, 282.455) - 1 in gaps
    in_short = g[np.isin(np.searchsorted(grid, g) - 1, gaps)]
    assert in_short.size >= 2
    late = np.concatenate([ts[~m] for ts, m in zip(calls[2:], mids[1:])])
    assert all(np.abs(late - r).min() < 1e-3 for r in in_short)
    z = zr.hardy_z_batch
    assert np.all(np.signbit(z(in_short - tol))
                  != np.signbit(z(in_short + tol)))


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

def test_round_trip(tmp_path, zl_small):
    p1 = tmp_path / "z1.txt"
    p2 = tmp_path / "z2.txt"
    zr.save_zeros(zl_small, str(p1))
    a = zr.load_zeros(str(p1))
    zr.save_zeros(a, str(p2))
    b = zr.load_zeros(str(p2))
    assert np.array_equal(a.ordinates, b.ordinates)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.max(np.abs(a.ordinates - zl_small.ordinates)) < 1e-9


def test_load_rejects_bad_first_zero(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("13.0\n")
    with pytest.raises(ZeroFileError):
        zr.load_zeros(str(p))


def test_load_reports_line_numbers(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("14.134725142\nnot-a-number\n")
    with pytest.raises(ZeroFileError, match=":2:"):
        zr.load_zeros(str(p))


def test_load_reads_tokens_from_the_header_only(tmp_path, zl_100):
    """t_max= and rh= count only in the header line: a comment below it
    is free text, whatever it says."""
    body = "".join(f"{g:.9f}\n" for g in zl_100.ordinates)
    p = tmp_path / "z.txt"
    p.write_text("# t_max=237 rh=1\n# note: rh=0 was the old default\n"
                 "# t_max=5000 is where the next list stops\n" + body)
    zl = zr.load_zeros(str(p))
    assert zl.rh_assumed is True and zl.t_max == 237.0 and len(zl) == 100
    # without a header the tokens of a later comment do not count either
    p.write_text(body[:13] + "# t_max=5000 rh=0\n" + body[13:])
    zl = zr.load_zeros(str(p))
    assert zl.rh_assumed is True and zl.t_max == zl.ordinates[-1]


@pytest.mark.parametrize("header", ["# t_max=237 rh=1 t_max=237",
                                    "# rh=1 t_max=237 rh=1"])
def test_load_rejects_a_token_repeated_in_the_header(tmp_path, header):
    p = tmp_path / "z.txt"
    p.write_text(f"{header}\n14.134725142\n")
    with pytest.raises(ZeroFileError, match=r"z\.txt:1: .* given twice"):
        zr.load_zeros(str(p))


def test_load_rejects_unsorted(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("14.134725142\n25.010857580\n21.022039639\n")
    with pytest.raises(ZeroFileError, match="ascending"):
        zr.load_zeros(str(p))


def test_first_100_zeros_against_mpmath(zl_100, zl_small):
    # the zl_100 fixture: 100 zeros through t = 237, each within the
    # finder's tol of mpmath's at a sample (zetazero takes up to 0.25 s a
    # zero), and within twice that of a longer list's first 100
    assert len(zl_100) == 100 and zl_100.t_max == 237.0
    with mp.workdps(15):
        for k in (1, 2, 50, 100):
            assert abs(zl_100.ordinates[k - 1]
                       - float(mp.zetazero(k).imag)) <= 1e-9, k
    assert np.max(np.abs(zl_100.ordinates
                         - zl_small.ordinates[:100])) <= 2e-9


# ----------------------------------------------------------------------
# counting statistics
# ----------------------------------------------------------------------

def test_count_and_q_below_first_zero(zl_small):
    st = zr.count_and_Q(zl_small, 10.0)
    assert st.N == 0
    expected = -(10.0 / TWO_PI * math.log(10.0 / (TWO_PI * math.e))
                 + 7.0 / 8.0)
    assert abs(st.Q - expected) < 1e-14


def test_count_height_guard(zl_small):
    with pytest.raises(ValueError):
        zr.count_and_Q(zl_small, 10_000.0)


# ----------------------------------------------------------------------
# monotone weighted sums
# ----------------------------------------------------------------------

def test_lehman_constant_weight(zl_small):
    exact, rhs_dec, _ = zr.lehman_sum(zl_small, lambda t: 1.0, 14.0, 30.0,
                                      "decreasing")
    assert exact == 3.0           # 14.13, 21.02, 25.01
    assert rhs_dec >= exact


def test_lehman_inverse_square(zl_small):
    exact, rhs_dec, _ = zr.lehman_sum(zl_small, lambda t: 1.0 / t ** 2,
                                      14.2, zl_small.t_max, "decreasing")
    assert 0 < exact <= rhs_dec


def test_lehman_empty_window(zl_small):
    exact, _, rhs_inc = zr.lehman_sum(zl_small, lambda t: t, 15.0, 16.0,
                                      "increasing")
    assert exact == 0.0
    assert rhs_inc >= 0.0


def test_lehman_direction_mismatch(zl_small):
    with pytest.raises(ValueError, match="not decreasing"):
        zr.lehman_sum(zl_small, lambda t: t, 15.0, 30.0, "decreasing")


def test_box_count_bound(zl_small):
    exact = (zl_small.count_below(101.0)
             - zl_small.count_below(np.nextafter(99.0, -np.inf)))
    assert exact <= zr.box_count_bound(100.0, 1.0)
    assert zl_small.count_below(25.0) - zl_small.count_below(15.0) >= 1
    assert zr.box_count_bound(20.0, 5.0) >= 1.0


# ----------------------------------------------------------------------
# inverse-square tail and the local expansion
# ----------------------------------------------------------------------

def test_inverse_square_tail_height_guard(zl_med):
    with pytest.raises(ValueError):
        zr.inverse_square_tail(zl_med, 14.0)   # remainder above 1e-6


def test_inverse_square_tail_values(zl_deep):
    zl = zl_deep
    val, rhs = zr.inverse_square_tail(zl, 14.0)
    assert val <= rhs
    g0 = float(zl.ordinates[0])
    v2, _ = zr.inverse_square_tail(zl, g0 + 1e-6)
    assert abs((val - v2) - 1.0 / g0 ** 2) < 1e-9
    v3, rhs3 = zr.inverse_square_tail(zl, 1000.0)
    assert v3 <= rhs3


def test_local_log_deriv_empty_window(zl_med):
    # pick a height with no zeros within 0.005
    g = zl_med.ordinates
    t = None
    for c in np.arange(1400.0, 1990.0, 0.013):
        if np.min(np.abs(g - c)) > 0.006:
            t = float(c)
            break
    assert t is not None
    s = complex(0.9, t)
    total, radius = zr.local_log_deriv(zl_med, s, 0.005, 1.5)
    assert total == 0j
    assert abs(log_deriv_zeta(s).value - total) <= radius


def test_local_log_deriv_guards(zl_med):
    with pytest.raises(ValueError):
        zr.local_log_deriv(zl_med, 0.4 + 500j, 1.0, 1.5)
    with pytest.raises(ValueError):
        zr.local_log_deriv(zl_med, 0.4 + 1500j, 1.0, 2.5)
