#!/usr/bin/env python3
"""Benchmark of zetabounds: one workload per invocation.

    python3 perfbench/run.py --workload {zeros,sieve,bound,quadrature}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
src/.  The workload runs in this process on one thread: set-up, then
whole rounds of its fixed operation list (the number of rounds follows
from --seconds), then the checks of every output against references
computed apart from the program.  With --trace 1 half of the rounds
run with spans around the calls into each module, and the per-layer
metrics are printed instead of the end-to-end ones.  The last line of standard
output is the result as one JSON object; a fuller record goes to
perfbench/out/.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

# One thread everywhere, set before numpy is imported here or in a child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 120
BOUND_T_MAX = 1468.0        # height of the bound workload's zero list
CAL_PYTHON_REF_S = 0.031    # cal_python's fastest time where this was built


def cal_python():
    """Calibration kernel for a set-up: plain Python arithmetic.  It needs
    no import, so it can run in the set-up's process before the set-up as
    well as after it."""
    total = 0.0
    for i in range(100_000):
        total += math.log(i + 2.0) * ((i * 1e-3) ** 2 + 1.0) ** 0.5
    return total


def setup(workload):
    """Everything the program does before the first timed operation:
    import, filling the module caches, and the workload's one-time work
    (the bound workload's zero list, as psi-bound pays without
    --zero-file).  Returns (state, timings)."""
    start = time.perf_counter()
    import zetabounds  # noqa: F401
    from zetabounds import formula, weights, zeros
    imported = time.perf_counter()
    weights.constants_C(1)      # fills weights._ZETA_EVEN
    formula.arles_constant()    # fills formula._ARLES_C
    state, zero_list_s = {}, 0.0
    if workload == "bound":
        begin = time.perf_counter()
        state["zero_list"] = zeros.find_zeros(BOUND_T_MAX)
        zero_list_s = time.perf_counter() - begin
    return state, {"setup_s": time.perf_counter() - start,
                   "import_s": imported - start, "zero_list_s": zero_list_s}


def _child(args):
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)] + args,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return proc.stdout


def setup_sample(workload):
    """Set-up timings from one fresh process."""
    return json.loads(_child(["--setup-sample", "--workload", workload]))


def timed(fn):
    """Seconds that fn() takes."""
    begin = time.perf_counter()
    fn()
    return time.perf_counter() - begin


def scaled_setup(workload):
    """Set-up timings with the kernel times that scale them: the mean of
    cal_python run just before and just after the set-up, and for a zero
    list cal_vector run after it."""
    before = timed(cal_python)
    timings = setup(workload)[1]
    timings["cal_python_s"] = (before + timed(cal_python)) / 2
    if timings["zero_list_s"]:
        import workloads
        timings["cal_vector_s"] = timed(workloads.cal_vector)
    return timings


def ref_setup(samples):
    """Set-up time at the reference speed: the median over samples of the
    import and caches scaled by cal_python, plus the median of the zero
    list scaled by cal_vector."""
    import workloads
    total = CAL_PYTHON_REF_S * statistics.median(
        (s["setup_s"] - s["zero_list_s"]) / s["cal_python_s"]
        for s in samples)
    if "cal_vector_s" in samples[0]:
        total += workloads.CAL_VECTOR_REF_S * statistics.median(
            s["zero_list_s"] / s["cal_vector_s"] for s in samples)
    return total


def spread(n_samples, n_rounds):
    """How many set-up samples to take before each round, so that they
    are spread over the run."""
    counts = [0] * n_rounds
    for k in range(n_samples):
        counts[k * n_rounds // n_samples] += 1
    return counts


def run_round(ops, kernel=None, every=1, cal=None):
    """Run one round; returns (seconds, outputs, per-op seconds, per-op
    error or None).  The seconds are the sum of the operations' times.
    With a kernel, it runs after every `every` operations and its times
    are appended to cal."""
    outputs, times, errors = [], [], []
    for i, (label, call) in enumerate(ops, start=1):
        begin = time.perf_counter()
        try:
            out, err = call(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, err = None, f"{label}: {type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - begin)
        outputs.append(out)
        errors.append(err)
        if kernel is not None and i % every == 0:
            cal.append(timed(kernel))
    return sum(times), outputs, times, errors


def measure(workload, seed, seconds, trace, size="full"):
    """Run one workload; returns the full result record."""
    spec = benchmark_spec()
    _child(["--warm"])    # leaves bytecode and the file cache warm
    state, own = setup(workload)
    import spans
    import workloads
    wl = workloads.build(workload, seed, state, size)
    ops = wl.ops()
    # a traced run splits its time between untraced and traced rounds
    n_rounds = max(1, round(seconds / (2 if trace else 1) / wl.round_s))
    plain, cal, samples = [], [], []
    for n_samples in spread(wl.setup_samples, n_rounds):
        samples += [setup_sample(workload) for _ in range(n_samples)]
        plain.append(run_round(ops, wl.calibrate,
                               wl.kernel_every or len(ops), cal))
        if len(plain) == 1:     # before later rounds' outputs are kept
            rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = sum(workloads.fastest(plain))
    ref_wall = wl.ref_wall(plain, cal)
    items = wl.items(plain[0][1])
    record = {"workload": workload, "seed": seed, "rounds": n_rounds,
              "ops_per_round": len(ops), "item": wl.item,
              "round_walls_s": [r[0] for r in plain], "cal_s": cal,
              "units": wl.units(plain, cal),
              "setup_samples": samples, "own_setup": own,
              "extra": {"wall_s": wall, "items_per_s": items / wall,
                        "setup_raw_s": statistics.median(
                            s["setup_s"] for s in samples),
                        **wl.extra(plain)}}
    rounds = list(plain)
    failures = []
    if trace:
        layers = []
        for i in range(n_rounds):
            tracer = spans.Tracer(unrecorded=("util.integrand",))
            workloads.instrument(tracer)
            try:
                rounds.append(run_round(ops))
            finally:
                tracer.restore()
            if i == 0:
                record["spans"] = tracer.spans
            layers.append(workloads.layer_metrics(tracer))
        for name in workloads.COUNTS:
            if len({m[name] for m in layers}) != 1:
                failures.append(f"trace: {name} differs between rounds: "
                                f"{[m[name] for m in layers]}")
        better = {m["name"]: m["better"] for m in spec["per_layer"]}
        metrics = {name: (min if better[name] == "lower" else max)(
            m[name] for m in layers) for name in layers[0]}
        metrics["setup.import_s"] = statistics.median(
            s["import_s"] for s in samples)
        metrics["setup.zero_list_s"] = statistics.median(
            s["zero_list_s"] for s in samples)
        metrics.update({f"special.z_rate.{h}": 0.0
                        for h in ("low", "mid", "high")})
        if hasattr(wl, "probe"):
            metrics.update(wl.probe())
        metrics["trace.overhead_s"] = (
            sum(workloads.fastest(rounds[n_rounds:])) - wall)
    else:
        metrics = {"setup_s": ref_setup(samples),
                   "ref_wall_s": ref_wall, "peak_rss_mb": rss_mb}
    first = rounds[0][1]
    for i, (_, outputs, _, _) in enumerate(rounds[1:], start=1):
        for (label, _), a, b in zip(ops, first, outputs):
            if a is None or b is None:
                continue
            if wl.digest(a) != wl.digest(b):
                failures.append(f"round {i}: {label} output differs from "
                                "round 0")
    failures += wl.check(first)
    errors = [e for r in rounds for e in r[3] if e is not None]
    record.update({"metrics": metrics, "attempted": len(ops) * len(rounds),
                   "failed": len(errors), "errors": errors[:20],
                   "check_failures": failures, "correct": not failures})
    return record


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def declared_metrics(trace):
    """{name: unit} of the metrics a run with this --trace prints."""
    return {m["name"]: m["unit"]
            for m in benchmark_spec()["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=["zeros", "sieve", "bound",
                                           "quadrature"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-sample", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--warm", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zetabounds", "__init__.py")):
        print("perfbench: no src/zetabounds here; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.warm:
        import zetabounds  # noqa: F401
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_sample:
        print(json.dumps(scaled_setup(args.workload)))
        return 0
    units = declared_metrics(args.trace)
    record = measure(args.workload, args.seed, args.seconds, args.trace)
    mismatch = set(units) ^ set(record["metrics"])
    if mismatch:
        print(f"perfbench: metrics out of step with BENCHMARK.json: "
              f"{sorted(mismatch)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    if args.trace:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": record.pop("spans")}, fh)
    with open(f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for msg in record["errors"] + record["check_failures"]:
        print(f"perfbench: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
