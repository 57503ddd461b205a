"""The four workloads: seeded inputs, the operations of one round, the
checks on their outputs and the per-layer trace.

A workload is built from the seed and the state that set-up left.  Its
`ops()` is the fixed operation list of one round, as (label, call) pairs;
`check(outputs)` returns one message per output that a reference or a
property of the method rejects.  Every call goes through a module
attribute (`zeros.find_zeros`, not a name bound here at import), so a
traced run sees it.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time

import numpy as np

from zetabounds import extremal, formula, sieve, weights, zeros

import references as ref

# Sizes of the full benchmark and of the self-test.
SIZES = {
    "full": {"zeros_T": 2500.0, "sieve_X": 50_000_000,
             "checkpoints": (25, 75), "ref_limit": 10_000_000,
             "bound_groups": 40, "bound_grid": 50},
    "tiny": {"zeros_T": 200.0, "sieve_X": 40_000_000,
             "checkpoints": (6, 6), "ref_limit": 1_000_000,
             "bound_groups": 4, "bound_grid": 10},
}

ZERO_TOL = 1e-8     # |ordinate - mpmath.zetazero|
PSI_TOL = 1e-6      # |psi(x) - reference|, absolute, x <= 1e7
STAT_TOL = 1e-8     # normalised statistics against the reference
QUAD_TOL = 1e-8     # weighted integrals against mpmath.quad
L1_TOL = 1e-7       # L1 gap by quadrature against its closed form
PERRON_TOL = 1e-6   # |LHS - RHS| of the smoothed Perron identity
PAPER_TOL = {"psi_min": 1e-10, "epsilon": 1e-6, "zero_sum": 1e-3}


def _expect(msgs, ok, text):
    if not ok:
        msgs.append(text)


@functools.lru_cache(maxsize=2)
def _mangoldt(limit):
    return ref.Mangoldt(limit)


# Calibration kernels.  Each is fixed code that does not touch zetabounds
# and resembles the mix of work of the workloads that use it; timed
# between the operations, it measures how fast the machine runs that kind
# of work during the run (see README, "Timing on a shared machine").  None
# holds more than about 1 MB at a time, so that the process's peak
# resident set stays the program's.

def cal_vector():
    """Complex exponentials over numpy arrays, as in zeta_batch_critical,
    in blocks of 32 heights.  Longer than the other kernels: the zeros
    round is one 2 s call, and a kernel that lasts a fair share of it
    meets the same conditions as the call more often than a brief one
    does."""
    t = np.linspace(2500.0, 2505.0, 256)[:, None]
    n = np.arange(1.0, 900.0)
    for _ in range(24):
        for lo in range(0, t.size, 32):
            phase = t[lo:lo + 32] * np.log(n)
            ((np.cos(phase) - 1j * np.sin(phase)) * n ** -0.5).sum(axis=1)


def _cal_strided():
    """Strided boolean writes and a scan over a 1 MB sieve array."""
    for _ in range(96):
        mask = np.ones(1 << 20, dtype=bool)
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            mask[p * p::p] = False
        np.count_nonzero(mask)


def _cal_scalar():
    """Interpreter-bound: many calls on one-element arrays."""
    total = 0.0
    for i in range(18000):
        a = np.array([i * 1e-3])
        total += float(np.sqrt(a * a + 1.0)[0]) * math.log(i + 2.0)


# The kernels' fastest times on the sandbox where the benchmark was built.
CAL_VECTOR_REF_S = 0.22
CAL_STRIDED_REF_S = 0.057
CAL_SCALAR_REF_S = 0.039


class Workload:
    """What the four workloads share: the number of fresh processes whose
    set-up is timed, how often the calibration kernel runs, and the time of
    a round at the reference speed, where the kernel takes cal_ref_s."""

    setup_samples = 12
    kernel_every = 1        # operations between kernel runs; None: a round

    def units(self, rounds, cal):
        """Each round's segments in kernel units.  A segment is the
        operations between two kernel runs; its time is divided by the
        mean time of the kernel runs on either side of it (the first
        segment of the run has one side only).  cal holds the kernel
        times in order, one after each segment."""
        every = self.kernel_every or len(rounds[0][2])
        segments = [sum(r[2][i:i + every])
                    for r in rounds for i in range(0, len(r[2]), every)]
        around = [cal[0]] + [(a + b) / 2 for a, b in zip(cal, cal[1:])]
        units = [t / c for t, c in zip(segments, around)]
        per_round = len(units) // len(rounds)
        return [units[i:i + per_round]
                for i in range(0, len(units), per_round)]

    def ref_wall(self, rounds, cal):
        """cal_ref_s times the sum over a round's segments of each
        segment's median over the rounds, in kernel units."""
        return self.cal_ref_s * sum(
            statistics.median(seg) for seg in zip(*self.units(rounds, cal)))


class Zeros(Workload):
    """One find_zeros(T) at T a little above 2500: zero acquisition."""

    name = "zeros"
    round_s = 2.8
    item = "zeros found"
    calibrate = staticmethod(cal_vector)
    cal_ref_s = CAL_VECTOR_REF_S

    def __init__(self, rng, state, size):
        self.T = size["zeros_T"] + 8.0 * float(rng.random())
        self.sample = rng.random(3)     # which ordinates meet mpmath

    def ops(self):
        return [("find_zeros", lambda: zeros.find_zeros(self.T))]

    def items(self, outputs):
        return 0 if outputs[0] is None else outputs[0].ordinates.size

    @staticmethod
    def digest(out):
        return out.ordinates.tobytes()

    def extra(self, rounds):
        return {"zeros_per_s": self.items(rounds[0][1]) / sum(fastest(rounds))}

    def check(self, outputs):
        zl = outputs[0]
        if zl is None:
            return []
        msgs = []
        n = zl.ordinates.size
        expect = ref.zero_count(self.T)
        _expect(msgs, n == expect,
                f"zeros: {n} zeros through T = {self.T}, mpmath counts "
                f"{expect}")
        _expect(msgs, zl.t_max == self.T, "zeros: t_max is not T")
        for k in self.sampled(n):
            want = ref.zero_ordinate(k)
            _expect(msgs, abs(zl.ordinates[k - 1] - want) <= ZERO_TOL,
                    f"zeros: ordinate {k} is {zl.ordinates[k - 1]!r}, "
                    f"mpmath gives {want!r}")
        return msgs

    def sampled(self, n):
        """1-based indices of the ordinates compared with mpmath."""
        return sorted({1 + min(int(f * n), n - 1) for f in self.sample})

    def probe(self):
        """Z points per second at T/4, T/2 and T, 2048 points each, from
        the fastest of three calls."""
        rates = {}
        for label, h in (("low", self.T / 4), ("mid", self.T / 2),
                         ("high", self.T)):
            ts = np.linspace(h, h + 5.0, 2048)
            runs = []
            for _ in range(3):
                start = time.perf_counter()
                zeros.hardy_z_batch(ts)
                runs.append(time.perf_counter() - start)
            rates[f"special.z_rate.{label}"] = ts.size / min(runs)
        return rates


class Sieve(Workload):
    """psi_checkpoints at a hundred seeded x, and extrema_scan for both
    statistics with x_min in {1, 1e4}, all to X = 5e7 on one thread."""

    name = "sieve"
    round_s = 3.5
    item = "segments swept"
    calibrate = staticmethod(_cal_strided)
    cal_ref_s = CAL_STRIDED_REF_S
    X_MINS = (1, 10_000)

    def __init__(self, rng, state, size):
        self.X = size["sieve_X"]
        self.ref_limit = size["ref_limit"]
        n_low, n_high = size["checkpoints"]
        low, high = set(), set()
        while len(low) < n_low:      # log-uniform, checked against the sieve
            low.add(int(math.exp(rng.uniform(math.log(100),
                                             math.log(self.ref_limit)))))
        while len(high) < n_high:    # dense above it, checked against RH
            high.add(int(rng.integers(self.ref_limit + 1, self.X)))
        self.xs = sorted(low) + sorted(high) + [self.X]

    def ops(self):
        return [
            ("psi_checkpoints", lambda: sieve.psi_checkpoints(self.xs)),
            ("scan_psi", lambda: sieve.extrema_scan(
                self.X, sieve.STAT_PSI, self.X_MINS)),
            ("scan_lambda", lambda: sieve.extrema_scan(
                self.X, sieve.STAT_LAMBDA_OVER_N, self.X_MINS)),
        ]

    def items(self, outputs):
        return 3 * segments(self.X)

    @staticmethod
    def digest(out):
        return repr(out).encode()

    @staticmethod
    def extra(rounds):
        cps, scan_psi, scan_lambda = fastest(rounds)
        return {"checkpoints_s": cps, "scan_s": scan_psi + scan_lambda}

    def check(self, outputs):
        cps, scan_psi, scan_lambda = outputs
        lam = _mangoldt(self.ref_limit)
        msgs = []
        if cps is not None:
            _expect(msgs, [c.x for c in cps] == self.xs,
                    "sieve: checkpoints do not match the request")
            for c in cps:
                if c.x <= lam.limit:
                    psi = lam.prime_sum(c.x, 0.0)
                    delta = (lam.prime_sum(c.x, 1.0) - math.log(c.x)
                             + ref.EULER_GAMMA)
                    _expect(msgs, abs(c.psi - psi) <= PSI_TOL,
                            f"sieve: psi({c.x}) = {c.psi!r}, reference "
                            f"{psi!r}")
                    _expect(msgs, abs(c.delta - delta) <= 1.0 / c.x + 1e-12,
                            f"sieve: delta({c.x}) = {c.delta!r}, reference "
                            f"{delta!r}")
                _expect(msgs, abs(c.psi - c.x) < ref.schoenfeld_bound(c.x),
                        f"sieve: psi({c.x}) breaks the RH bound")
        for stat, res in (("psi", scan_psi), ("lambda", scan_lambda)):
            if res is None:
                continue
            _expect(msgs, tuple(sorted(res)) == self.X_MINS,
                    f"sieve: {stat} scan x_min keys {sorted(res)}")
            for x_min, (mx, mn) in res.items():
                for rec in (mx, mn):
                    if rec.x_at <= lam.limit:
                        want = float(lam.statistic(stat, [rec.x_at],
                                                   rec.left_limit)[0])
                        _expect(msgs, abs(rec.value - want) <= STAT_TOL,
                                f"sieve: {stat} {rec.kind} at {rec.x_at} is "
                                f"{rec.value!r}, reference {want!r}")
                    if stat == "psi" and rec.x_at >= 74:
                        _expect(msgs, abs(rec.value) * math.sqrt(rec.x_at)
                                < ref.schoenfeld_bound(rec.x_at),
                                f"sieve: psi {rec.kind} breaks the RH bound")
                rmax, rmin = lam.extrema(stat, x_min)
                _expect(msgs, mx.value >= rmax - STAT_TOL
                        and mn.value <= rmin + STAT_TOL,
                        f"sieve: {stat} extrema from {x_min} miss the "
                        f"reference extrema ({rmax!r}, {rmin!r})")
        if scan_psi is not None and self.X > ref.PAPER_PSI_MIN_AT:
            mn = scan_psi[10_000][1]
            _expect(msgs, mn.x_at == ref.PAPER_PSI_MIN_AT and mn.left_limit
                    and abs(mn.value - ref.PAPER_PSI_MIN_1E4)
                    <= PAPER_TOL["psi_min"],
                    f"sieve: min on [1e4, X] is {mn.value!r} at {mn.x_at}, "
                    f"the paper has {ref.PAPER_PSI_MIN_1E4} at "
                    f"{ref.PAPER_PSI_MIN_AT}")
        return msgs


class Bound(Workload):
    """A few thousand explicit_formula_bound(...).to_json() rows from a
    zero list to T = 1468 made in set-up, asked for as psi-bound asks:
    one (T, sigma) pair over an ascending grid of x, for a few dozen
    pairs."""

    name = "bound"
    round_s = 1.1
    item = "rows"
    calibrate = staticmethod(_cal_scalar)
    cal_ref_s = CAL_SCALAR_REF_S
    setup_samples = 4       # each one builds the zero list, about 1.4 s
    kernel_every = None     # once a round: a row takes well under 1 ms
    SIGMAS = (-0.5, 0.0, 0.5, 1.0, 2.0)
    PAPER_ROW = (1468.0, 0.0, math.exp(60.0))

    def __init__(self, rng, state, size):
        self.zl = state["zero_list"]
        self.ref_limit = size["ref_limit"]
        grid = size["bound_grid"]
        n_high = grid // 10          # x above the reference sieve
        top = math.log(self.ref_limit)
        rows = []
        for group in range(size["bound_groups"]):
            if group == 0:
                T, sigma = self.PAPER_ROW[:2]
            else:
                T = float(rng.uniform(100.0, self.zl.t_max))
                sigma = float(rng.choice(self.SIGMAS))
            logs = np.concatenate([
                rng.uniform(math.log(T) + 1e-6, top, grid - n_high),
                rng.uniform(top, 60.0, n_high)])
            xs = sorted(math.exp(v) for v in logs)
            if group == 0:
                xs[-1] = self.PAPER_ROW[2]
            rows += [(T, sigma, x) for x in xs]
        self.rows = rows

    def ops(self):
        zl = self.zl
        return [(f"row {i}", lambda T=T, s=s, x=x:
                 formula.explicit_formula_bound(zl, T, s, x).to_json())
                for i, (T, s, x) in enumerate(self.rows)]

    def items(self, outputs):
        return len(outputs)

    @staticmethod
    def digest(out):
        return out.encode()

    @staticmethod
    def extra(rounds):
        per_op = fastest(rounds)
        ms = [1e3 * t for r in rounds for t in r[2]]
        return {"rows_per_s": len(per_op) / sum(per_op),
                "row_samples": len(ms), "row_p50_ms": statistics.median(ms),
                # only where at least ten samples lie beyond it
                "row_p99_ms": (statistics.quantiles(ms, n=100)[98]
                               if len(ms) >= 1000 else None)}

    def check(self, outputs):
        lam = _mangoldt(self.ref_limit)
        msgs = []
        for (T, sigma, x), out in zip(self.rows, outputs):
            if out is None:
                continue
            row = json.loads(out)
            lo, hi = float(row["total_lower"]), float(row["total_upper"])
            exact = float(row["zero_sum_exact"])
            zsb = float(row["zero_sum_bound"])
            where = f"bound: T={T!r} sigma={sigma} x={x!r}"
            _expect(msgs, (float(row["T"]), float(row["sigma"]),
                           float(row["x"])) == (T, sigma, x),
                    f"{where}: the row echoes other inputs")
            _expect(msgs, lo <= hi, f"{where}: lower above upper")
            _expect(msgs, exact <= zsb + 1e-12,
                    f"{where}: exact zero sum above its bound")
            if x <= lam.limit:
                s = lam.prime_sum(x, sigma) / x ** (1.0 - sigma)
                slack = 1e-12 * max(1.0, abs(s))
                _expect(msgs, lo - slack <= s <= hi + slack,
                        f"{where}: sandwich [{lo!r}, {hi!r}] misses the "
                        f"sieved {s!r}")
            if (T, sigma, x) == self.PAPER_ROW:
                eps = max(abs(hi - 1.0), abs(lo - 1.0))
                _expect(msgs, abs(eps - ref.PAPER_EPSILON_1468)
                        <= PAPER_TOL["epsilon"],
                        f"bound: epsilon(1468, e^60) = {eps!r}, the paper "
                        f"has {ref.PAPER_EPSILON_1468}")
                _expect(msgs, abs(zsb - ref.PAPER_ZERO_SUM_1468)
                        <= PAPER_TOL["zero_sum"],
                        f"bound: zero sum at T = 1468 is {zsb!r}, the paper "
                        f"has {ref.PAPER_ZERO_SUM_1468}")
        return msgs


class Quadrature(Workload):
    """One weighted_log_integral, weighted_inv_integral, l1_gap_quadrature
    and perron_identity_check call a round: the adaptive Simpson
    quadratures behind the verify suites.

    Each call's inputs vary with the seed inside a narrow range.  The
    number of integrand calls that adaptive Simpson makes jumps with its
    inputs: for 40 uniform coefficients on [0, 2] it ranges over 9e3-2e4.
    The Perron coefficients are therefore one fixed vector scaled by
    +-5 % per entry, which keeps the count within +-2 %."""

    name = "quadrature"
    round_s = 2.0
    item = "quadratures"
    calibrate = staticmethod(_cal_scalar)
    cal_ref_s = CAL_SCALAR_REF_S
    PERRON_BASE = np.random.default_rng(0).uniform(0.0, 2.0, 40)

    def __init__(self, rng, state, size):
        def near(v, rel=0.02):
            return v * float(rng.uniform(1.0 - rel, 1.0 + rel))
        self.calls = [
            # t0 above 2 pi e: the sharpened bound applies as well
            ("log", (near(2500.0), float(rng.uniform(50.0, 60.0)))),
            # t0 below 2 pi e: only the log^2 bound applies
            ("inv", (near(400.0), float(rng.uniform(6.3, 7.3)))),
            ("l1", (float(rng.uniform(-1.1, -0.9)), extremal.MINORANT)),
            ("perron", (self.PERRON_BASE * rng.uniform(0.95, 1.05, 40),
                        0.8, extremal.MAJORANT, near(20.0),
                        float(rng.uniform(1.0, 1.5)),
                        float(rng.uniform(19.0, 21.0)))),
        ]

    def ops(self):
        return [(f"{kind} {i}", self._op(kind, args))
                for i, (kind, args) in enumerate(self.calls)]

    @staticmethod
    def _op(kind, args):
        if kind == "log":
            return lambda: weights.weighted_log_integral(*args)
        if kind == "inv":
            return lambda: weights.weighted_inv_integral(*args)
        if kind == "l1":
            lam, side = args
            return lambda: extremal.l1_gap_quadrature(
                extremal.ApproximantParams.make(lam, side))
        coeffs, lam, side, T, sigma, x = args
        p = extremal.ApproximantParams.make(lam, side)
        return lambda: formula.perron_identity_check(
            coeffs, lambda t: extremal.phi_weight(p, t),
            lambda y: extremal.phi_hat(p, y), T, sigma, x)

    def items(self, outputs):
        return len(outputs)

    @staticmethod
    def digest(out):
        return repr(out).encode()

    @staticmethod
    def extra(rounds):
        per_op = fastest(rounds)
        return {"quads_per_s": len(per_op) / sum(per_op)}

    def check(self, outputs):
        msgs = []
        for (kind, args), out in zip(self.calls, outputs):
            if out is None:
                continue
            shown = args[1:] if kind == "perron" else args
            where = f"quadrature: {kind} {shown}"
            if kind == "log":
                T, t0 = args
                quad, simplon, adago = out
                want = ref.weighted_log_integral(T, t0)
                _expect(msgs, abs(quad - want) <= QUAD_TOL,
                        f"{where}: {quad!r}, mpmath gives {want!r}")
                closed = (math.log(T / (2 * math.pi)) ** 2
                          - math.log(t0 / (2 * math.pi)) ** 2)
                _expect(msgs, abs(simplon - closed) <= 1e-12 * abs(closed)
                        and quad <= simplon,
                        f"{where}: log^2 bound {simplon!r} (closed form "
                        f"{closed!r})")
                applies = t0 >= 2 * math.pi * math.e and T >= 3 * t0
                _expect(msgs, (adago is not None) == applies
                        and (adago is None or quad <= adago),
                        f"{where}: sharpened bound {adago!r}")
            elif kind == "inv":
                T, t0 = args
                quad, rhs = out
                want = ref.weighted_inv_integral(T, t0)
                _expect(msgs, abs(quad - want) <= QUAD_TOL,
                        f"{where}: {quad!r}, mpmath gives {want!r}")
                _expect(msgs, abs(rhs - (2 / t0 - 2 / T)) <= 1e-15
                        and quad <= rhs, f"{where}: bound {rhs!r}")
            elif kind == "l1":
                lam, side = args
                want = ref.l1_gap(abs(lam), side == extremal.MAJORANT)
                _expect(msgs, abs(out - want) <= L1_TOL,
                        f"{where}: {out!r}, closed form {want!r}")
            else:
                _expect(msgs, 0.0 <= out < PERRON_TOL,
                        f"{where}: |LHS - RHS| = {out!r}")
        return msgs


WORKLOADS = {w.name: w for w in (Zeros, Sieve, Bound, Quadrature)}


def build(name, seed, state, size="full"):
    """The workload `name` with inputs drawn from `seed`."""
    index = list(WORKLOADS).index(name)
    rng = np.random.default_rng([int(seed), index])
    return WORKLOADS[name](rng, state, SIZES[size])


def fastest(rounds):
    """Each operation's fastest time over the rounds, which run_round
    gives as (wall, outputs, per-op seconds, errors).

    On a shared machine the noise is one-sided: phases of seconds in which
    the same code runs up to twice as slow.  The fastest of several rounds
    spread over the run estimates the operation's uncontended cost."""
    return [min(ts) for ts in zip(*(r[2] for r in rounds))]


def segments(x_max):
    """Sieve segments covering [2, x_max]."""
    return len(range(2, int(x_max) + 1, sieve.SEGMENT))


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------

def instrument(tracer):
    """Wrap each traced function where zetabounds or the benchmark calls
    it."""
    w = tracer.wrap
    w(zeros, "find_zeros", "zeros.find",
      count=lambda a, r: {"zeros.found": r.ordinates.size})
    w(zeros, "hardy_z_batch", "zeros.hardy_z",
      count=lambda a, r: {"zeros.hardy_z_points": len(a[0])})
    w(zeros, "zeta_batch_critical", "special.zeta_crit")
    w(sieve, "psi_checkpoints", "sieve.checkpoints",
      count=lambda a, r: {"sieve.checkpoints": len(a[0]),
                          "sieve.checkpoint_segments":
                              segments(max(a[0])) if a[0] else 0})
    w(sieve, "extrema_scan",
      lambda a: ("sieve.scan_psi" if a[1] == sieve.STAT_PSI
                 else "sieve.scan_lambda"),
      count=lambda a, r: {"sieve.scan_segments": segments(a[0])})
    w(formula, "explicit_formula_bound", "formula.bound")
    w(formula, "nontrivial_zero_sum", "formula.zero_sum",
      count=lambda a, r: {"formula.zeros_summed": a[0].count_below(a[1].T)})
    w(formula, "omega_plus_batch", "weights.omega")
    w(formula, "log_deriv_zeta", "special.log_deriv")
    w(formula, "trivial_zero_terms", "formula.trivial")
    w(formula.BoundReport, "to_json", "formula.to_json")
    w(weights, "weighted_log_integral", "weights.log_integral")
    w(weights, "weighted_inv_integral", "weights.inv_integral")
    w(formula, "perron_identity_check", "formula.perron")
    w(extremal, "l1_gap_quadrature", "extremal.l1_gap_quad")
    for module in (weights, formula, extremal):
        w(module, "adaptive_simpson", "util.quad", integrand="util.integrand")


def layer_metrics(tracer):
    """The per-layer metrics of one traced round."""
    t, s, n, k = tracer.total, tracer.self_time, tracer.calls, tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    scan_s = t["sieve.scan_psi"] + t["sieve.scan_lambda"]
    return {
        "zeros.find_s": t["zeros.find"],
        "zeros.hardy_z_calls": n["zeros.hardy_z"],
        "zeros.hardy_z_points": k["zeros.hardy_z_points"],
        "zeros.points_per_zero": ratio(k["zeros.hardy_z_points"],
                                       k["zeros.found"]),
        "zeros.hardy_z_s": t["zeros.hardy_z"],
        "zeros.self_s": s["zeros.find"],
        "special.zeta_crit_s": t["special.zeta_crit"],
        "sieve.scan_psi_s": t["sieve.scan_psi"],
        "sieve.scan_lambda_s": t["sieve.scan_lambda"],
        "sieve.checkpoints_s": t["sieve.checkpoints"],
        "sieve.checkpoints": k["sieve.checkpoints"],
        "sieve.segments": (k["sieve.scan_segments"]
                           + k["sieve.checkpoint_segments"]),
        "sieve.scan_segments_per_s": ratio(k["sieve.scan_segments"], scan_s),
        "sieve.checkpoint_segments_per_s": ratio(
            k["sieve.checkpoint_segments"], t["sieve.checkpoints"]),
        "formula.bound_s": t["formula.bound"],
        "formula.self_s": s["formula.bound"],
        "formula.zero_sum_calls": n["formula.zero_sum"],
        "formula.zero_sum_s": t["formula.zero_sum"],
        "formula.zeros_summed": k["formula.zeros_summed"],
        "formula.trivial_s": t["formula.trivial"],
        "formula.to_json_s": t["formula.to_json"],
        "weights.omega_s": t["weights.omega"],
        "special.log_deriv_calls": n["special.log_deriv"],
        "special.log_deriv_s": t["special.log_deriv"],
        "util.quad_calls": n["util.quad"],
        "util.integrand_evals": n["util.integrand"],
        "util.evals_per_quad": ratio(n["util.integrand"], n["util.quad"]),
        "util.integrand_s": t["util.integrand"],
        "util.quad_self_s": s["util.quad"],
        "weights.log_integral_s": t["weights.log_integral"],
        "weights.inv_integral_s": t["weights.inv_integral"],
        "formula.perron_s": t["formula.perron"],
        "extremal.l1_gap_quad_s": t["extremal.l1_gap_quad"],
    }


COUNTS = ("zeros.hardy_z_calls", "zeros.hardy_z_points", "sieve.checkpoints",
          "sieve.segments", "formula.zero_sum_calls", "formula.zeros_summed",
          "special.log_deriv_calls", "util.quad_calls",
          "util.integrand_evals")
