#!/usr/bin/env python3
"""Wall time and peak memory of the CLI commands, parent against change.

    python3 tools/bench_cli.py --base DIR --head DIR --base-id ID \
        --head-id ID --out BENCH_N.json

DIR is a source checkout (its src/ is put on PYTHONPATH) and ID names it
in the record.  Each command runs PAIRS times on each side, in pairs
whose order alternates (base first in even pairs, head first in odd
ones), as `python3 -m zetabounds.cli ...` in a fresh process writing its
output to a scratch directory, so start-up is part of every time.  The
record gives each side's median and quartiles of the wall time, the
median peak RSS of the process, every run, and the machine (with
numpy's dispatch targets for float64 tan, cos and sin), Python and numpy
it ran on.  The byte identity of the outputs is the other tool's:
python3 tools/byte_identity.py --base PARENT --head .
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

PAIRS = 10
COMMANDS = (
    ("zeros --t-max 2000", ["zeros", "--t-max", "2000"]),
    ("zeros --t-max 5000", ["zeros", "--t-max", "5000"]),
    ("zeros --t-max 21900", ["zeros", "--t-max", "21900"]),
    ("verify --suite extremal", ["verify", "--suite", "extremal"]),
    ("verify --suite all", ["verify", "--suite", "all"]),
    ("psi-bound --t-max 1468 --x 1e6",
     ["psi-bound", "--t-max", "1468", "--x", "1e6"]),
    ("sieve --x-max 1e8 --threads 1",
     ["sieve", "--x-max", "1e8", "--threads", "1"]),
    ("sieve --x-max 1e8 --threads 2",
     ["sieve", "--x-max", "1e8", "--threads", "2"]),
    ("sieve --x-max 1e9 --threads 1",
     ["sieve", "--x-max", "1e9", "--threads", "1"]),
    ("sieve --x-max 1e9 --threads 2",
     ["sieve", "--x-max", "1e9", "--threads", "2"]),
)


def run_once(tree, argv, scratch):
    """(wall seconds, peak RSS in MB) of one CLI run from tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    out = os.path.join(scratch, "out")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "zetabounds.cli", *argv, "--out", out],
        env=env, cwd=scratch, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} from {tree} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0


def summary(runs):
    walls = [w for w, _ in runs]
    q1, median, q3 = statistics.quantiles(walls, n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "iqr_s": q3 - q1,
            "peak_rss_mb_median": statistics.median(r for _, r in runs),
            "runs_s": walls}


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def trig_dispatch():
    """The CPU target of the loops numpy dispatches float64 tan, cos and
    sin to on this machine (numpy.lib.introspect.opt_func_info), or None
    where numpy cannot say.  special.half_angle_trig's gain rests on a
    vectorised tan.  A target is not proof of vectorisation: with numpy
    2.4 on X86_V4 all three report X86_V4, and cos and sin still take
    about 20 ns a value against 3-7 ns for tan."""
    try:
        from numpy.lib.introspect import opt_func_info
        info = opt_func_info(func_name="^(tan|cos|sin)$",
                             signature="float64")
    except ImportError:
        return None
    return {name: {sig: targets["current"]
                   for sig, targets in loops.items()}
            for name, loops in sorted(info.items())}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--head", required=True)
    ap.add_argument("--base-id", required=True)
    ap.add_argument("--head-id", required=True)
    ap.add_argument("--out", required=True)
    ns = ap.parse_args()
    trees = {"base": os.path.abspath(ns.base),
             "head": os.path.abspath(ns.head)}
    runs = {name: {"base": [], "head": []} for name, _ in COMMANDS}
    with tempfile.TemporaryDirectory() as scratch:
        for pair in range(PAIRS):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for name, argv in COMMANDS:
                for side in order:
                    runs[name][side].append(
                        run_once(trees[side], argv, scratch))
    record = {
        "what": "wall time (start-up included) and peak RSS of CLI "
                "commands, parent (base) against change (head)",
        "tool": "tools/bench_cli.py",
        "pairs": PAIRS,
        "order": "alternated: base first in even pairs, head first in odd",
        "commits": {"base": ns.base_id, "head": ns.head_id},
        "machine": {"cpu": cpu_model(), "cores": os.cpu_count(),
                    "system": platform.platform(),
                    "numpy_float64_dispatch": trig_dispatch()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": {name: {side: summary(r) for side, r in sides.items()}
                      for name, sides in runs.items()},
    }
    with open(ns.out, "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
