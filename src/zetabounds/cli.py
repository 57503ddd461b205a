"""Batch front end: zero acquisition, sieving, bound assembly and the
verification suites, with JSON/CSV reports written atomically.

Exit status is 0 iff every computed check passed; a verify check that its
input cannot support is reported as skipped and does not fail the run.
Re-running a command with identical configuration and fixtures produces
byte-identical output (no timestamps, fixed key order, 17-significant-digit
decimal strings).

A command imports the modules it uses when it runs, so `zeros` loads only
`zeros`, `special` and `util`, and `--help`, `--paper-constants` and a
usage error load neither numpy nor `util`; the parser reads the constants
of `sieve` and `verify` only to check or print an option's value.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3     # a sandwich violation: must never happen


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        from .util import atomic_write_text
        atomic_write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _error_json(exc: BaseException) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)},
                      sort_keys=True) + "\n"


def _get_zeros(ns: argparse.Namespace, tol: float = 1e-9):
    from . import zeros as zr
    if ns.zero_file:
        zl = zr.load_zeros(ns.zero_file)
        if zl.t_max < ns.t_max:
            raise ValueError("zero file does not reach t_max")
        return zl
    if ns.t_max > zr.T_MAX_CEILING:
        raise ValueError("t_max above the computable ceiling needs a "
                         "zero file")
    return zr.find_zeros(ns.t_max, tol)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_zeros(ns: argparse.Namespace) -> int:
    import numpy as np

    from . import zeros as zr
    from .util import atomic_write_text, format_float17
    zl = _get_zeros(ns, ns.tol)
    if ns.out:
        zr.save_zeros(zl, ns.out)
    samples = []
    for t in np.linspace(max(1.0, zl.t_max / 20.0), zl.t_max, 20):
        if t > zl.t_max or t < 1.0:
            continue
        st = zr.count_and_Q(zl, float(t))
        samples.append({"t": format_float17(st.t), "N": st.N,
                        "Q": format_float17(st.Q)})
    stats = {
        "t_max": format_float17(zl.t_max),
        "count": len(zl),
        "first": format_float17(float(zl.ordinates[0])) if len(zl) else None,
        "Q_samples": samples,
    }
    text = json.dumps(stats, indent=1, sort_keys=True) + "\n"
    if ns.stats_out:
        atomic_write_text(ns.stats_out, text)
    elif not ns.out:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_psi_bound(ns: argparse.Namespace) -> int:
    from . import formula as fm
    from . import sieve as sv
    from .util import format_float17
    if any(b <= a for a, b in zip(ns.x, ns.x[1:])):
        raise ValueError("x grid must be ascending")
    sv._check_threads(ns.threads)    # whether or not this sigma sieves
    zl = _get_zeros(ns)
    T, sigma = ns.t_max, ns.sigma
    cps = {}
    # the sieve measures the sum only for sigma = 0 (psi) and 1 (delta)
    if sigma in (0.0, 1.0):
        # x is ascending, so x with one floor are adjacent: sieve it once
        limit = (sv.DESK_CEILING if ns.sieve_limit is None
                 else ns.sieve_limit)
        check_xs = list(dict.fromkeys(int(x) for x in ns.x if x <= limit))
        cps = {c.x: c for c in sv.psi_checkpoints(check_xs, ns.threads,
                                                  ns.long_run)}
    rows = []
    violation = False
    for x in ns.x:
        if not x > T:
            raise ValueError(f"x = {x:g} must exceed T = {T:g}")
        rep = fm.explicit_formula_bound(zl, T, sigma, float(x))
        row = rep.to_dict()
        c = cps.get(int(x))
        if c is not None:
            # sigma = 1 measures the sum over n <= c.x = floor(x)
            measured = c.psi / x if sigma == 0.0 else c.sum_lambda_over_n
            row["sieve_value"] = format_float17(float(measured))
            inside = bool(rep.total_lower <= measured <= rep.total_upper)
            row["sieve_inside"] = inside
            violation |= not inside
        rows.append(row)
    _emit(json.dumps(rows, indent=1, sort_keys=True) + "\n", ns.out)
    return EXIT_VIOLATION if violation else EXIT_OK


def cmd_counterexample(ns: argparse.Namespace) -> int:
    from . import formula as fm
    from .util import TWO_PI, format_float17
    spec = fm.CounterexampleSpec(K=ns.K, T=ns.T, delta=ns.delta)
    lines = ["N,x,empirical_mean,predicted,allowance\n"]
    for N in ns.N:
        mean, pred = fm.counterexample_mean(spec, N, ns.sign)
        s = 1.0 if ns.sign == "+" else -1.0
        x = math.exp((TWO_PI * N + s * spec.delta) / spec.T)
        allow = fm.fandango_allowance(spec, x)
        lines.append(f"{N},{format_float17(x)},{format_float17(mean)},"
                     f"{format_float17(pred)},{format_float17(allow)}\n")
    _emit("".join(lines), ns.out)
    return EXIT_OK


def cmd_sieve(ns: argparse.Namespace) -> int:
    from . import sieve as sv
    from .util import format_float17
    if ns.checkpoints is not None:
        if ns.statistic is not None or ns.x_min is not None:
            raise ValueError("--statistic and --x-min set a scan, not "
                             "--checkpoints")
        sv.check_x_max(ns.x_max, ns.long_run)
        if max(ns.checkpoints) > ns.x_max:
            raise ValueError("checkpoints must be <= x_max")
        cps = sv.psi_checkpoints(ns.checkpoints, ns.threads, ns.long_run)
        _emit(sv.checkpoints_to_csv(cps), ns.out)
        return EXIT_OK
    res = sv.extrema_scan(ns.x_max, ns.statistic or sv.STAT_PSI,
                          (1,) if ns.x_min is None else ns.x_min,
                          ns.threads, ns.long_run)
    lines = ["x_min,kind,x_at,left_limit,value\n"]
    for v in sorted(res):
        for rec in res[v]:
            lines.append(f"{v},{rec.kind},{rec.x_at},"
                         f"{int(rec.left_limit)},"
                         f"{format_float17(rec.value)}\n")
    _emit("".join(lines), ns.out)
    return EXIT_OK


def cmd_verify(ns: argparse.Namespace) -> int:
    from . import verify as vf
    from . import zeros as zr
    zl = zr.load_zeros(ns.zero_file) if ns.zero_file else None
    rows = [{"suite": suite, "check": name, "pass": result}
            for suite, name, result in vf.run_suites(ns.suite, zl)]
    _emit(json.dumps(rows, indent=1, sort_keys=True) + "\n", ns.out)
    if ns.out:
        for r in rows:
            word = {True: "PASS", False: "FAIL", None: "SKIP"}[r["pass"]]
            sys.stdout.write(f"{word} [{r['suite']}] {r['check']}\n")
    return EXIT_ERROR if any(r["pass"] is False for r in rows) else EXIT_OK


COMMANDS = {"zeros": cmd_zeros, "psi-bound": cmd_psi_bound,
            "counterexample": cmd_counterexample, "sieve": cmd_sieve,
            "verify": cmd_verify}


# ----------------------------------------------------------------------
# Pinned reference constants (printed by --paper-constants)
# ----------------------------------------------------------------------

PINNED_CONSTANTS = (
    ("zeta'/zeta(3/2)", "log-derivative of zeta at 3/2",
     -1.5052353557882679, 1e-5),
    ("Atilde(-1)", "-zeta'/zeta(-1) + 1/2", -1.4850537244054112, 1e-4),
    ("arles_c", "zeta'/zeta(-1) - 2 (zeta'/zeta)'(-1)", 3.86102, 1e-4),
    ("C1", "sum zeta(2n) second difference, k=1", 0.168938, 1e-6),
    ("C2", "sum zeta(2n) second difference, k=2", 0.164184, 1e-6),
    ("coth(pi/2)", "hyperbolic cotangent at pi/2", 1.0903314107273682, 1e-9),
    ("gamma0", "first nontrivial zero ordinate", 14.13472514, 1e-6),
    ("gamma1", "second nontrivial zero ordinate", 21.022, 1e-3),
    ("inv_gamma_sum_2e4", "2 sum 1/gamma over gamma <= 2e4",
     10.319317, 1e-4),
    ("direct_sum_1468", "weighted zero sum at T = 1468", 4.281, 1e-2),
    ("psi_stat_max", "max (psi(x)-x)/sqrt(x), x <= 1e13",
     0.79059275, 1e-7),
    ("psi_stat_min_1e4", "min (psi(x)-x)/sqrt(x) on [1e4, 1e13]",
     -0.7509024438, 1e-7),
    ("lambda_stat_min", "min sqrt(x)(sum Lambda/n - log x + gamma)",
     -0.7585825520, 1e-7),
    ("epsilon_1468", "psi error level at T=1468, x=e^60", 0.0021431, 1e-5),
    ("epsilon_21808", "psi error level at T=21808, x=e^60",
     1.44071e-4, 1e-7),
)


def print_constants() -> None:
    print(f"{'name':24} {'value':>24} {'tolerance':>10}  expression")
    for name, expr, val, tol in PINNED_CONSTANTS:
        print(f"{name:24} {val:>24.12g} {tol:>10.0e}  {expr}")


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------

def _float_list(s: str):
    return tuple(float(v) for v in s.split(",") if v)


class _NotWhole(float):
    """A value of an integer option that is not a whole number, inf and nan
    included, kept for _check_numbers to reject under the option's name."""


def _int(s: str):
    f = float(s)
    return int(f) if f.is_integer() else _NotWhole(f)


def _int_list(s: str):
    return tuple(_int(v) for v in s.split(",") if v)


class _LazyChoices:
    """The choices of an option, read from a module the first time
    argparse checks a value against them or prints them: building the
    parser imports nothing.  Set as the action's `choices` after
    add_argument, which would otherwise format them at once."""

    def __init__(self, module: str, read):
        self._module, self._read, self._values = module, read, None

    def _load(self) -> tuple:
        if self._values is None:
            self._values = tuple(self._read(
                importlib.import_module(self._module, __package__)))
        return self._values

    def __iter__(self):
        return iter(self._load())

    def __contains__(self, value) -> bool:
        return value in self._load()


def _check_numbers(ns: argparse.Namespace) -> None:
    """Every comma list on the command line holds a value, every number
    is finite, and every value of an integer option whole: ",", inf, nan
    or 2.5 is a ValueError here, not an empty output, a check skipped, an
    overflow or a value truncated further on."""
    for name, value in vars(ns).items():
        values = value if isinstance(value, tuple) else (value,)
        option = f"--{name.replace('_', '-')}"
        if not values:
            raise ValueError(f"{option} needs at least one value")
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in values):
            raise ValueError(f"{option} must be finite")
        if any(isinstance(v, _NotWhole) for v in values):
            raise ValueError(f"{option} takes integers only")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="zetabounds",
        description="Explicit prime-sum bounds from zeta-zero data, with "
                    "brute-force verification.")
    ap.add_argument("--paper-constants", action="store_true",
                    help="print the pinned reference constants and exit")
    sub = ap.add_subparsers(dest="command")

    z = sub.add_parser("zeros", help="find or load zeros, write file+stats")
    z.add_argument("--t-max", type=float, required=True)
    z.add_argument("--tol", type=float, default=1e-9)
    z.add_argument("--load", dest="zero_file")
    z.add_argument("--out")
    z.add_argument("--stats-out")

    p = sub.add_parser("psi-bound", help="bound reports with sieve check")
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--x", type=_float_list, required=True)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--zero-file")
    p.add_argument("--out")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--long-run", action="store_true")
    # default: sieve.DESK_CEILING, read by cmd_psi_bound
    p.add_argument("--sieve-limit", type=float)

    c = sub.add_parser("counterexample", help="Fejer-kernel mean table")
    c.add_argument("--K", type=int, required=True)
    c.add_argument("--T", type=float, required=True)
    c.add_argument("--delta", type=float, required=True)
    c.add_argument("--N", type=_int_list, required=True)
    c.add_argument("--sign", choices=["+", "-"], default="+")
    c.add_argument("--out")

    s = sub.add_parser("sieve", help="extrema scan or checkpoint CSV")
    s.add_argument("--x-max", type=_int, required=True,
                   help="the end of the range: an integer up to 1e9 "
                        "(1e10 with --long-run); 1e9 reads as 1000000000")
    # default: sieve.STAT_PSI, read by cmd_sieve
    s.add_argument("--statistic", help="psi scans (psi(x)-x)/sqrt(x), "
                   "lambda-over-n scans sqrt(x)(sum_{n<=x} Lambda(n)/n - "
                   "log(x) + gamma); default psi").choices = _LazyChoices(
        ".sieve", lambda sv: (sv.STAT_PSI, sv.STAT_LAMBDA_OVER_N))
    # default: (1,) for a scan, read by cmd_sieve
    s.add_argument("--x-min", type=_int_list,
                   help="comma-separated integers <= x_max: scan each "
                        "range [x_min, x_max] (default 1)")
    s.add_argument("--checkpoints", type=_int_list,
                   help="comma-separated ascending integers <= x_max: "
                        "write psi(x) and delta(x) at each x in place of "
                        "the scan")
    s.add_argument("--out", help="write the CSV here, not to stdout")
    s.add_argument("--threads", type=int, default=1,
                   help="worker threads; any count gives the same output "
                        "(default 1)")
    s.add_argument("--long-run", action="store_true",
                   help="allow x_max and checkpoints above 1e9")

    v = sub.add_parser("verify", help="run invariant suites")
    v.add_argument("--suite", default="all").choices = _LazyChoices(
        ".verify",
        lambda vf: [*dict.fromkeys(s for s, _, _ in vf.REGISTRY), "all"])
    v.add_argument("--zero-file")
    v.add_argument("--out")
    return ap


def _reported_errors() -> tuple:
    """The exceptions main reports as a JSON error: bad input (a
    ZeroFileError is a ValueError), a zero list that fails its
    completeness check, and I/O."""
    from .zeros import MissedZeroError
    return (ValueError, MissedZeroError, OSError)


def main(argv=None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    if ns.paper_constants:
        print_constants()
        return EXIT_OK
    if not ns.command:
        ap.print_help()
        return EXIT_USAGE
    try:
        _check_numbers(ns)
        return COMMANDS[ns.command](ns)
    except _reported_errors() as e:     # evaluated only once one is raised
        sys.stdout.write(_error_json(e))
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
