"""Batch front end: zero acquisition, sieving, bound assembly and the
verification suites, with JSON/CSV reports written atomically.

Exit status is 0 iff every computed check passed; a verify check that its
input cannot support is reported as skipped and does not fail the run.
Re-running a command with identical configuration and fixtures produces
byte-identical output (no timestamps, fixed key order, 17-significant-digit
decimal strings).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import formula as fm
from . import sieve as sv
from . import verify as vf
from . import zeros as zr
from .util import TWO_PI, EULER_GAMMA, atomic_write_text, format_float17

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3     # a sandwich violation: must never happen


@dataclass
class RunConfig:
    command: str
    t_max: float = 0.0
    x_grid: tuple = ()
    sigma: float = 0.0
    zero_file: str | None = None
    out_path: str | None = None
    threads: int = 1
    long_run: bool = False
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.x_grid, self.x_grid[1:])):
            raise ValueError("x grid must be ascending")
        if (self.command in ("zeros", "psi-bound")
                and self.t_max > zr.T_MAX_CEILING
                and self.zero_file is None):
            raise ValueError("t_max above the computable ceiling needs a "
                             "zero file")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        atomic_write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _error_json(exc: BaseException) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)},
                      sort_keys=True) + "\n"


def _get_zeros(cfg: RunConfig) -> zr.ZeroList:
    if cfg.zero_file:
        zl = zr.load_zeros(cfg.zero_file)
        if zl.t_max < cfg.t_max:
            raise ValueError("zero file does not reach t_max")
        return zl
    return zr.find_zeros(cfg.t_max, cfg.extra.get("tol", 1e-9))


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_zeros(cfg: RunConfig) -> int:
    zl = _get_zeros(cfg)
    if cfg.out_path:
        zr.save_zeros(zl, cfg.out_path)
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
    out = cfg.extra.get("stats_out")
    text = json.dumps(stats, indent=1, sort_keys=True) + "\n"
    if out:
        atomic_write_text(out, text)
    elif not cfg.out_path:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_psi_bound(cfg: RunConfig) -> int:
    zl = _get_zeros(cfg)
    T, sigma = cfg.t_max, cfg.sigma
    sieve_limit = cfg.extra.get("sieve_limit", sv.DESK_CEILING)
    cps = {}
    # the sieve measures the sum only for sigma = 0 (psi) and 1 (delta)
    if sigma in (0.0, 1.0) and not cfg.extra.get("no_sieve"):
        check_xs = [int(x) for x in cfg.x_grid if x <= sieve_limit]
        cps = {c.x: c for c in sv.psi_checkpoints(check_xs, cfg.threads,
                                                  cfg.long_run)}
    rows = []
    violation = False
    for x in cfg.x_grid:
        if not x > T:
            raise ValueError(f"x = {x:g} must exceed T = {T:g}")
        rep = fm.explicit_formula_bound(zl, T, sigma, float(x))
        row = json.loads(rep.to_json())
        c = cps.get(int(x))
        if c is not None:
            if sigma == 0.0:
                measured = c.psi / x
            else:
                measured = c.delta + math.log(x) - EULER_GAMMA
            row["sieve_value"] = format_float17(float(measured))
            inside = bool(rep.total_lower <= measured <= rep.total_upper)
            row["sieve_inside"] = inside
            violation |= not inside
        rows.append(row)
    _emit(json.dumps(rows, indent=1, sort_keys=True) + "\n", cfg.out_path)
    return EXIT_VIOLATION if violation else EXIT_OK


def cmd_counterexample(cfg: RunConfig) -> int:
    spec = fm.CounterexampleSpec(K=cfg.extra["K"], T=cfg.t_max,
                                 delta=cfg.extra["delta"])
    sign = cfg.extra.get("sign", "+")
    lines = ["N,x,empirical_mean,predicted,allowance\n"]
    for N in cfg.extra["N_list"]:
        mean, pred = fm.counterexample_mean(spec, N, sign)
        s = 1.0 if sign == "+" else -1.0
        x = math.exp((TWO_PI * N + s * spec.delta) / spec.T)
        allow = fm.fandango_allowance(spec, x)
        lines.append(f"{N},{format_float17(x)},{format_float17(mean)},"
                     f"{format_float17(pred)},{format_float17(allow)}\n")
    _emit("".join(lines), cfg.out_path)
    return EXIT_OK


def cmd_sieve(cfg: RunConfig) -> int:
    stat = cfg.extra.get("statistic", sv.STAT_PSI)
    x_max = int(cfg.t_max) if not cfg.x_grid else int(cfg.x_grid[-1])
    if cfg.extra.get("checkpoints"):
        cps = sv.psi_checkpoints(cfg.extra["checkpoints"], cfg.threads,
                                 cfg.long_run)
        _emit(sv.checkpoints_to_csv(cps), cfg.out_path)
        return EXIT_OK
    x_mins = cfg.extra.get("x_mins", (1,))
    res = sv.extrema_scan(x_max, stat, x_mins, cfg.threads, cfg.long_run)
    lines = ["x_min,kind,x_at,left_limit,value\n"]
    for v in sorted(res):
        for rec in res[v]:
            lines.append(f"{v},{rec.kind},{rec.x_at},"
                         f"{int(rec.left_limit)},"
                         f"{format_float17(rec.value)}\n")
    _emit("".join(lines), cfg.out_path)
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    zl = zr.load_zeros(cfg.zero_file) if cfg.zero_file else None
    rows = [{"suite": suite, "check": name, "pass": result}
            for suite, name, result
            in vf.run_suites(cfg.extra.get("suite", "all"), zl)]
    _emit(json.dumps(rows, indent=1, sort_keys=True) + "\n", cfg.out_path)
    if cfg.out_path:
        for r in rows:
            word = {True: "PASS", False: "FAIL", None: "SKIP"}[r["pass"]]
            sys.stdout.write(f"{word} [{r['suite']}] {r['check']}\n")
    return EXIT_ERROR if any(r["pass"] is False for r in rows) else EXIT_OK


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


def _int_list(s: str):
    return tuple(int(float(v)) for v in s.split(",") if v)


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
    p.add_argument("--no-sieve", action="store_true")
    p.add_argument("--sieve-limit", type=float, default=sv.DESK_CEILING)

    c = sub.add_parser("counterexample", help="Fejer-kernel mean table")
    c.add_argument("--K", type=int, required=True)
    c.add_argument("--T", type=float, required=True)
    c.add_argument("--delta", type=float, required=True)
    c.add_argument("--N", type=_int_list, required=True)
    c.add_argument("--sign", choices=["+", "-"], default="+")
    c.add_argument("--out")

    s = sub.add_parser("sieve", help="extrema scan or checkpoint CSV")
    s.add_argument("--x-max", type=float, required=True)
    s.add_argument("--statistic",
                   choices=[sv.STAT_PSI, sv.STAT_LAMBDA_OVER_N],
                   default=sv.STAT_PSI)
    s.add_argument("--x-min", type=_int_list, default=(1,))
    s.add_argument("--checkpoints", type=_int_list, default=())
    s.add_argument("--out")
    s.add_argument("--threads", type=int, default=1)
    s.add_argument("--long-run", action="store_true")

    v = sub.add_parser("verify", help="run invariant suites")
    v.add_argument("--suite", default="all",
                   choices=[*dict.fromkeys(s for s, _, _ in vf.REGISTRY),
                            "all"])
    v.add_argument("--zero-file")
    v.add_argument("--out")
    return ap


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
        if ns.command == "zeros":
            cfg = RunConfig("zeros", t_max=ns.t_max, zero_file=ns.zero_file,
                            out_path=ns.out,
                            extra={"tol": ns.tol, "stats_out": ns.stats_out})
            return cmd_zeros(cfg)
        if ns.command == "psi-bound":
            cfg = RunConfig("psi-bound", t_max=ns.t_max, x_grid=ns.x,
                            sigma=ns.sigma, zero_file=ns.zero_file,
                            out_path=ns.out, threads=ns.threads,
                            long_run=ns.long_run,
                            extra={"no_sieve": ns.no_sieve,
                                   "sieve_limit": ns.sieve_limit})
            return cmd_psi_bound(cfg)
        if ns.command == "counterexample":
            cfg = RunConfig("counterexample", t_max=ns.T, out_path=ns.out,
                            extra={"K": ns.K, "delta": ns.delta,
                                   "N_list": ns.N, "sign": ns.sign})
            return cmd_counterexample(cfg)
        if ns.command == "sieve":
            cfg = RunConfig("sieve", t_max=ns.x_max, out_path=ns.out,
                            threads=ns.threads, long_run=ns.long_run,
                            extra={"statistic": ns.statistic,
                                   "x_mins": ns.x_min,
                                   "checkpoints": ns.checkpoints})
            return cmd_sieve(cfg)
        if ns.command == "verify":
            cfg = RunConfig("verify", zero_file=ns.zero_file,
                            out_path=ns.out, extra={"suite": ns.suite})
            return cmd_verify(cfg)
        ap.print_help()
        return EXIT_USAGE
    except (ValueError, zr.ZeroFileError, zr.MissedZeroError, OSError) as e:
        sys.stdout.write(_error_json(e))
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
