#!/usr/bin/env python3
"""Byte identity of the CLI outputs, parent against change.

    python3 tools/byte_identity.py --base PARENT --head .

The byte check of ROADMAP aim 1 (tools/bench_cli.py times the CLI on
the same two trees).  Each row of OUTPUTS runs from both source
checkouts, with the checkout's src/ on PYTHONPATH.  The markdown on stdout
gives a cmp verdict per file and on the exit codes, then the numeric
report of each file's kind.
"""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

STDOUT = "-"    # the row's file is its command's stdout and stderr

# the panel quadratures' values (verify.json holds pass flags only); new
# lines go at the end, so that the others keep their positions
QUADRATURE = '''
import numpy as np
from zetabounds import extremal as ex, formula as fm, weights as wt
MAJ, MIN = ex.MAJORANT, ex.MINORANT
def print_l1_gaps(lams):
    for lam in lams:
        for side in (MAJ, MIN):
            p = ex.ApproximantParams.make(lam, side)
            print(f"l1_gap_quadrature {lam} {side} "
                  f"{ex.l1_gap_quadrature(p)!r}")
print_l1_gaps((0.25, 1.0, 4.0, -0.5))
for k, (m, lam, side, T, sigma, x) in enumerate((
        (1, 0.5, MAJ, 30.0, 1.2, 7.3), (40, 0.8, MAJ, 20.0, 1.2, 20.0),
        (100, -0.6, MIN, 35.0, 0.7, 45.0), (17, 1.5, MIN, 8.0, 2.0, 3.0),
        (60, 0.3, MAJ, 12.0, 1.0, 11.5), (2000, 0.8, MAJ, 20.0, 1.2, 20.0))):
    p = ex.ApproximantParams.make(lam, side)
    coeffs = np.random.default_rng(k).uniform(0.0, 2.0, m)
    d = fm.perron_identity_check(coeffs, lambda t: ex.phi_weight(p, t),
                                 lambda y: ex.phi_hat(p, y), T, sigma, x)
    print(f"perron_identity_check {k} {d!r}")
p = ex.ApproximantParams.make(0.25, MAJ)
for y in (0.0, 0.3, -1.2, 2.6, 4.9):
    print(f"phi_weight_quad_transform {y} "
          f"{ex.phi_weight_quad_transform(p, y)!r}")
for T, t0 in ((2500.0, 55.0), (400.0, 6.8), (1e6, 30.0)):
    for f in (wt.weighted_log_integral, wt.weighted_inv_integral):
        print(f"{f.__name__} {T} {t0} {f(T, t0)[0]!r}")
# the widest window (nu = 0.1) and panels halved beside 0 (both); the
# window's floor Y = 21, a panel beside 0 halved in three passes
print_l1_gaps((0.1, -8.0, 40.0, -40.0))
'''

# the cot and coth kernels' bits: near the poles k pi, with |Im z| > 20
# and on the real axis; digamma and F_and_A at z/pi, where they take cot.
# Then the trivial-zero sums' bits near x = 1, where they run to many
# terms (the report rows have x > T and use at most 4).  New lines go at
# the end, so that the others keep their positions
KERNELS = '''
import math
from zetabounds import special as sp, weights as wt
for z in (1e-9, -3e-5, 0.05 + 0.02j, math.pi + 1e-7, -math.pi + 0.09,
          3 * math.pi - 2e-3j, 100 * math.pi + 1e-6,
          -7 * math.pi - 0.03 + 0.04j, 1.3 + 25j, -2.0 - 40j, 100.0 + 21j,
          0.5 + 300j, -7.25 - 20.5j, 0.7, -2.5, 1.0, 12.34, -1000.1, 2.0,
          31.4):
    z = complex(z)
    for f, w in ((sp.cot_stable, z), (sp.coth_stable, z),
                 (sp.digamma, z / math.pi), (wt.F_and_A, z / math.pi)):
        print(f"{f.__name__} {w!r} {f(w)!r}")
from zetabounds import formula as fm
for T in (0.5, 2.0, 1468.0):
    for x in (1.0001, 1.01, 1.5, 1e6):
        for sigma in (0.0, 2.0):
            terms = fm.trivial_zero_terms(T, sigma, x)
            print(f"trivial_zero_terms {T} {sigma} {x}",
                  *(v.hex() for v in terms))
'''

# report rows at every sigma the bound benchmark asks for, and -0.0, from
# one zero list in one process: each (T, sigma) over a grid of x up to
# e^60, then sigma = 0.5 again at a second T, which reads -zeta'/zeta
# from its sigma memo
BOUND_ROWS = '''
import math
from zetabounds import formula as fm, zeros as zr
zl = zr.find_zeros(1468.0)
for T, sigma in ((1468.0, -0.5), (1468.0, -0.0), (1468.0, 0.0),
                 (1468.0, 0.5), (1468.0, 1.0), (1468.0, 2.0), (700.0, 0.5)):
    for x in (1.01 * T, 1e4, 3.7e6, 1e12, 2.5e20, math.exp(60.0)):
        print(fm.explicit_formula_bound(zl, T, sigma, x).to_json())
'''


def cli(args):
    return ("-m", "zetabounds.cli", *args.split())


# (file, kind, python's arguments, stdout).  A CLI row writes its file
# with --out, and its stdout goes to the file named by stdout (None: to
# nowhere), unless stdout is STDOUT.  kind picks the numeric report.
OUTPUTS = (
    ("verify.json", "text", cli("verify --suite all"), "verify.stdout"),
    ("psi-bound.json", "psi-bound",
     cli("psi-bound --t-max 1468 --sigma 0 --x 1e6"), "psi-bound.stdout"),
    ("psi-bound-sigma1.json", "psi-bound",
     cli("psi-bound --t-max 1468 --sigma 1 --x 1e5,1e6"), None),
    ("constants.txt", "text", cli("--paper-constants"), STDOUT),
    ("counterexample.csv", "text",
     cli("counterexample --K 60 --T 1 --delta 0.1 --N 1,2,3"), None),
    *((f"sieve-{name}.csv", "sieve", cli("sieve --x-max " + args), None)
      for name, args in (
          ("psi", "2e7 --x-min 1,10000 --statistic psi"),
          ("lambda-over-n", "2e7 --x-min 1,10000 --statistic lambda-over-n"),
          # x_min at prime powers, and a two-thread scan
          ("lambda-prime-powers",
           "2e7 --x-min 1,4,9,27,1024,10000 --statistic lambda-over-n"),
          ("psi-threads2", "2e7 --x-min 1,10000 --statistic psi --threads 2"),
          ("checkpoints",
           "2e7 --checkpoints 1,2,10,1000,100000,4194305,4194306,20000000"),
          ("psi-4e7", "4e7 --x-min 10000 --statistic psi"),
          # x_min deep in the range: the scan skips most blocks of segments
          *((f"{stat}-1e8", "1e8 --x-min 1,10000,1000000,50000000 "
             "--statistic " + stat) for stat in ("psi", "lambda-over-n")),
          # 601 adjacent checkpoints: one vectorised read per segment
          ("checkpoints-dense", "5e6 --checkpoints "
           + ",".join(map(str, range(4194000, 4194601)))))),
    # below T_RS = 400 Z is Euler-Maclaurin alone; at the ceiling 21900 N
    # reaches 59 and 24 944 zeros are pinned
    *((f"zeros-{t}.txt", "zeros", cli("zeros --t-max " + t), None)
      for t in ("2000", "400", "21900")),
    ("quadrature.txt", "quadrature", ("-c", QUADRATURE), STDOUT),
    ("kernels.txt", "text", ("-c", KERNELS), STDOUT),
    ("bound-rows.txt", "text", ("-c", BOUND_ROWS), STDOUT),
    # help and usage text: the parser reads some choices lazily
    ("help.txt", "text", cli("--help"), STDOUT),
    *((f"help-{cmd}.txt", "text", cli(cmd + " --help"), STDOUT) for cmd in
      ("zeros", "psi-bound", "counterexample", "sieve", "verify")),
    ("usage-suite.txt", "text", cli("verify --suite nope"), STDOUT),
)


def run_side(tree, scratch):
    """Each row's exit code, run from tree with its files in scratch."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    scratch.mkdir()
    codes = {}
    for file, _, args, stdout in OUTPUTS:
        out = () if stdout == STDOUT else ("--out", file)
        sink = file if stdout == STDOUT else stdout or os.devnull
        with open(scratch / sink, "wb") as fh:
            codes[file] = subprocess.run(
                [sys.executable, *args, *out], cwd=scratch, env=env,
                stdout=fh, stderr=fh if stdout == STDOUT else None).returncode
    return codes


def cmp(base, head):
    """cmp's verdict on two byte strings (None: no such file)."""
    if base is None or head is None:
        return f"missing in {'base' if base is None else 'head'}"
    if base == head:
        return "identical"
    n = next((i for i, (b, h) in enumerate(zip(base, head)) if b != h),
             min(len(base), len(head)))
    return "differ: byte %d, line %d" % (n + 1, base.count(b"\n", 0, n) + 1)


def zeros_report(name, base, head):
    lines = base.splitlines(), head.splitlines()
    b, h = ([float(v) for v in side if v.strip() and v[0] != "#"]
            for side in lines)
    if len(b) != len(h):
        return [f"- {name}: {len(b)} -> {len(h)} ordinates"]
    changed = sum(u != v for u, v in zip(*lines))
    return [f"- {name}: {changed} of {len(lines[0])} lines changed, max "
            f"ordinate delta {max(abs(v - u) for u, v in zip(b, h)):.3g}"]


def quadrature_report(name, base, head):
    base, head = ([line.rsplit(" ", 1) for line in text.splitlines()]
                  for text in (base, head))
    if [k for k, _ in base] != [k for k, _ in head]:
        return [f"- {name}: the value lists differ ({len(base)} -> "
                f"{len(head)} lines)"]
    rows = [(k, b, h, abs(complex(h) - complex(b)))
            for (k, b), (_, h) in zip(base, head)]
    lines = [f"- {name}: {len(rows)} values, largest |delta| "
             f"{max(d for *_, d in rows):.3g}"]
    for k, b, h, d in rows:
        if b != h and k.startswith("perron_identity_check"):
            # a residual at the rounding floor: its change counts in ulps
            # of 1, not relative to the residual itself
            lines.append(f"  - {k}: {b} -> {h}, change "
                         f"{d / math.ulp(1.0):.3g} ulps of 1")
        elif b != h:
            lines.append(f"  - {k}: {b} -> {h}, relative change "
                         f"{d / max(abs(complex(b)), 1e-300):.3g}")
    for k, b, h, _ in rows:
        if k.startswith("l1_gap_quadrature"):
            # the gap's closed form, from the lambda and side in the key
            _, lam, side = k.split()
            nu = abs(float(lam))
            gap = (1.0 / -math.expm1(-nu) - 1.0 / nu if side == "majorant"
                   else 1.0 / nu - 1.0 / math.expm1(nu))
            lines.append(f"  - {k}: |head - closed form| "
                         f"{abs(float(h) - gap):.3g}, |base - closed form| "
                         f"{abs(float(b) - gap):.3g}")
    return lines


def psi_bound_report(name, base, head):
    base, head = json.loads(base), json.loads(head)
    worst = {}      # numeric key -> largest relative |delta|
    for row_b, row_h in zip(base, head):
        for key, value in row_b.items():
            if isinstance(value, bool):
                continue
            try:
                b, h = float(value), float(row_h[key])
            except (KeyError, TypeError, ValueError):
                continue
            # the signed zero sum nearly cancels: measure its change on
            # the scale of its bound, not of its own size
            scale = (float(row_b["zero_sum_bound"])
                     if key == "zero_sum_exact" else abs(b))
            rel = 0.0 if b == h else abs(h - b) / max(scale, 1e-300)
            worst[key] = max(worst.get(key, 0.0), rel)
    per_key = ", ".join(f"{k} {v:.3g}" for k, v in sorted(worst.items()))
    return [f"- {name}: {len(base)} -> {len(head)} rows, largest relative "
            f"|delta| per numeric key (zero_sum_exact: |delta| / "
            f"zero_sum_bound): {per_key}"]


def sieve_report(name, base, head):
    base, head = (list(csv.reader(text.splitlines())) for text in (base, head))
    if len(base) != len(head):
        return [f"- {name}: {len(base)} -> {len(head)} lines"]
    cells = [(b, h) for row_b, row_h in zip(base, head)
             for b, h in zip(row_b, row_h) if b != h]
    # float cells print with a point or an exponent; the others are x,
    # x_min, x_at, left_limit and kind
    floats = [(float(b), float(h)) for b, h in cells
              if any(c in b for c in ".e")]
    ulps = max((abs(h - b) / math.ulp(b) for b, h in floats), default=0.0)
    rows = sum(b != h for b, h in zip(base, head))
    other = len(cells) - len(floats)
    return [f"- {name}: {rows} of {len(base) - 1} rows changed, largest "
            f"change {ulps:.3g} ulps"
            + (f", {other} other cells changed" if other else "")]


REPORTS = {"zeros": zeros_report, "quadrature": quadrature_report,
           "psi-bound": psi_bound_report, "sieve": sieve_report}


def report(base_dir, head_dir, codes):
    """The markdown lines on two directories of OUTPUTS' files, with each
    side's exit codes in codes = {"base": {file: code}, "head": ...}."""
    files = [f for row in OUTPUTS for f in (row[0], row[3])
             if f not in (None, STDOUT)]
    texts = {f: tuple(p.read_bytes() if p.exists() else None
                      for p in (Path(base_dir, f), Path(head_dir, f)))
             for f in files}
    lines = [f"- `{f}`: {cmp(*texts[f])}" for f in files]
    moved = [f"{f} {codes['base'].get(f)} -> {codes['head'].get(f)}"
             for f, *_ in OUTPUTS
             if codes["base"].get(f) != codes["head"].get(f)]
    lines.append(f"- `exit-codes`: {', '.join(moved) or 'identical'}")
    for kind, numeric in REPORTS.items():
        for file in (row[0] for row in OUTPUTS if row[1] == kind):
            if None in texts[file]:
                continue
            try:
                lines += numeric(file, *map(bytes.decode, texts[file]))
            except Exception as e:    # a malformed file is a finding
                lines.append(f"- {file}: no numeric report ({e!r})")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--head", required=True)
    trees = vars(ap.parse_args())
    with tempfile.TemporaryDirectory() as scratch:
        dirs = {side: Path(scratch, side) for side in trees}
        codes = {side: run_side(os.path.abspath(trees[side]), dirs[side])
                 for side in trees}
        lines = report(dirs["base"], dirs["head"], codes)
    print(f"### Byte identity against the base ({trees['base']})", *lines,
          sep="\n")


if __name__ == "__main__":
    main()
