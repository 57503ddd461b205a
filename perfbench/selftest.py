#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

From the root of a source checkout.  For each workload it:
- measures it untraced and traced, through the code run.py uses, and
  requires every metric BENCHMARK.json names, no failed operation and no
  failed check;
- requires the traced run to see the layer the workload exercises;
- perturbs the program's outputs one way at a time and requires the
  checks to reject each perturbed output, so that no check passes
  vacuously.
It also requires run.py to exit non-zero, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark.
Exits 0 when all of this holds; takes about a minute.
"""

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import types

import run

sys.path.insert(0, run.SRC)

import numpy as np  # noqa: E402

import workloads  # noqa: E402

SEED = 7
# A per-layer count that must be positive on each workload.
EXERCISED = {"zeros": "zeros.hardy_z_points", "sieve": "sieve.segments",
             "bound": "formula.zero_sum_calls",
             "quadrature": "util.integrand_evals"}


def _replace_row(out, **fields):
    row = json.loads(out)
    row.update({k: repr(v) if isinstance(v, float) else v
                for k, v in fields.items()})
    return json.dumps(row)


def _half_radius(out):
    row = json.loads(out)
    lo, hi = float(row["total_lower"]), float(row["total_upper"])
    mid, r = (lo + hi) / 2, (hi - lo) / 2
    return _replace_row(out, total_lower=mid - r / 2, total_upper=mid + r / 2)


def _shift_up(out):
    row = json.loads(out)
    lo, hi = float(row["total_lower"]), float(row["total_upper"])
    return _replace_row(out, total_lower=hi, total_upper=2 * hi - lo)


def _with(outputs, i, value):
    out = list(outputs)
    out[i] = value
    return out


def perturbations(wl, outs):
    """(what, perturbed outputs) pairs, each of which the checks must
    reject."""
    if wl.name == "zeros":
        zl = outs[0]
        g = zl.ordinates
        k = wl.sampled(g.size)[-1]
        moved = g.copy()
        moved[k - 1] += 1e-6

        def zlist(ords, t_max=zl.t_max):
            return [types.SimpleNamespace(ordinates=ords, t_max=t_max)]
        return [("one ordinate dropped", zlist(np.delete(g, g.size // 2))),
                ("a sampled ordinate moved by 1e-6", zlist(moved)),
                ("t_max differs from T", zlist(g, zl.t_max + 1.0))]
    if wl.name == "sieve":
        cps, scan_psi, scan_lambda = outs
        low, high = cps[0], cps[-2]
        psi_min = scan_psi[10_000][1]
        lam_max, lam_min = scan_lambda[1]
        rep = dataclasses.replace
        return [
            ("a checkpoint dropped", _with(outs, 0, cps[1:])),
            ("psi off by 1e-3 at a sieved x",
             _with(outs, 0, [rep(low, psi=low.psi + 1e-3)] + cps[1:])),
            ("delta off by 3/x at a sieved x",
             _with(outs, 0, [rep(low, delta=low.delta + 3 / low.x)]
                   + cps[1:])),
            ("psi beyond the RH bound above the sieve",
             _with(outs, 0, cps[:-2] + [rep(high, psi=2.0 * high.x),
                                        cps[-1]])),
            ("min on [1e4, X] off by 1e-9",
             _with(outs, 1, {**scan_psi, 10_000: (
                 scan_psi[10_000][0],
                 rep(psi_min, value=psi_min.value + 1e-9))})),
            ("min on [1e4, X] at the right, not the left, limit",
             _with(outs, 1, {**scan_psi, 10_000: (
                 scan_psi[10_000][0], rep(psi_min, left_limit=False))})),
            ("lambda extremum missed by 1e-6",
             _with(outs, 2, {**scan_lambda, 1: (
                 rep(lam_max, value=lam_max.value - 1e-6), lam_min)})),
        ]
    if wl.name == "bound":
        paper = wl.rows.index(wl.PAPER_ROW)
        sieved = next(i for i, (T, s, x) in enumerate(wl.rows)
                      if x <= wl.ref_limit)
        row = json.loads(outs[paper])
        return [
            ("the e^60 radius halved",
             _with(outs, paper, _half_radius(outs[paper]))),
            ("a sieved sandwich shifted up by its width",
             _with(outs, sieved, _shift_up(outs[sieved]))),
            ("lower above upper", _with(outs, sieved, _replace_row(
                outs[sieved], total_lower=2.0, total_upper=1.0))),
            ("exact zero sum above its bound", _with(outs, paper, _replace_row(
                outs[paper],
                zero_sum_exact=float(row["zero_sum_bound"]) + 1e-9))),
            ("zero sum at 1468 off by 1%", _with(outs, paper, _replace_row(
                outs[paper],
                zero_sum_bound=1.01 * float(row["zero_sum_bound"])))),
            ("a row echoing another x", _with(outs, sieved, _replace_row(
                outs[sieved], x=2 * float(json.loads(outs[sieved])["x"])))),
        ]
    kinds = [kind for kind, _ in wl.calls]
    out = []
    for kind, what in (("log", "log integral"), ("inv", "inv integral")):
        i = kinds.index(kind)
        moved = (outs[i][0] + 1e-6,) + tuple(outs[i][1:])
        out.append((f"{what} off by 1e-6", _with(outs, i, moved)))
    i = kinds.index("l1")
    out.append(("L1 gap off by 1e-6", _with(outs, i, outs[i] + 1e-6)))
    i = kinds.index("perron")
    out.append(("Perron gap of 1e-6", _with(outs, i, outs[i] + 1e-6)))
    return out


def outside_checkout_fails():
    """run.py in a directory with only BENCHMARK.json and perfbench/."""
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(run.HERE):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(run.HERE, name),
                        os.path.join(bare, "perfbench"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "zeros",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    return proc.returncode != 0 and not proc.stdout.strip()


def main():
    problems = []

    def expect(ok, text):
        print(("ok   " if ok else "FAIL ") + text)
        if not ok:
            problems.append(text)

    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            declared = run.declared_metrics(trace)
            rec = run.measure(name, SEED, 0, trace, size="tiny")
            expect(set(rec["metrics"]) == set(declared), f"{name} trace "
                   f"{trace}: every declared metric, and no other")
            expect(rec["correct"] and rec["failed"] == 0,
                   f"{name} trace {trace}: correct, nothing failed "
                   f"{rec['errors'] + rec['check_failures']}")
            if trace:
                expect(rec["metrics"][EXERCISED[name]] > 0,
                       f"{name}: trace sees {EXERCISED[name]}")
            else:
                expect(all(v > 0 for v in rec["metrics"].values()),
                       f"{name}: end-to-end metrics are positive")
        state, _ = run.setup(name)
        wl = workloads.build(name, SEED, state, "tiny")
        _, outs, _, errors = run.run_round(wl.ops())
        expect(wl.check(outs) == [] and not any(errors),
               f"{name}: the program's outputs pass")
        for what, bad in perturbations(wl, copy.copy(outs)):
            expect(bool(wl.check(bad)), f"{name}: rejects {what}")
    expect(outside_checkout_fails(),
           "run.py fails, printing nothing, without the program's sources")
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
