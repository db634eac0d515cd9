"""Layered benchmark of lenspot: one workload per process, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
Every input comes from the seed.  Calls form a closed loop (the next call
starts when the previous one returns) and come in rounds (workloads.py).
S sets the amount of work, not a deadline: a run makes the whole rounds
that take about S seconds at the workload's calibrated call rate
(spec.json), so the same seed and S always attempt the same operations.
Answers are graded afterwards against exact or independent values; see
workloads.py.

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json.
--trace 1 instead runs a fixed list of calls twice, untraced and then
with a span around every public function of each layer (tracing.py), and
reports the per-layer metrics: self time, call and work counts, and the
tracing overhead.  Spans are written to perfbench/out/.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object {correct, attempted, failed, metrics}.  Answers
that miss the 1e-8 reference count in `failed` and lower `pass_rate`; they
do not change the exit code.  `correct` is false when a call raised or
returned malformed or non-reproducible output.  The exit code is non-zero
only when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _import_package():
    """Import lenspot from this checkout; returns the import time in s."""
    if not os.path.isfile(os.path.join(SRC, "lenspot", "__init__.py")):
        raise SystemExit(f"error: no lenspot package under {SRC}")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import lenspot
    import lenspot.cli  # noqa: F401  (imports validation as well)
    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(lenspot.__file__))) != SRC:
        raise SystemExit(f"error: lenspot was imported from {lenspot.__file__}")
    return elapsed


def closed_loop(wl, inp, calls, settle, count, tracer=None):
    """Run the first `count` calls one after another.

    `settle(call, record)` turns each call's collected output into what is
    kept; it runs between calls, outside the timed region.  Returns
    [(latency s, settled)]."""
    results = []
    for call in itertools.islice(calls, count):
        if tracer is not None:
            tracer.call = len(results)
        start = time.perf_counter()
        try:
            output = wl.run(inp, call)
        except Exception as exc:  # graded as a failed call; the run goes on
            sys.stderr.write(f"call {len(results)} raised {exc!r}\n")
            output = None
        latency = time.perf_counter() - start
        results.append((latency, settle(call, wl.collect(inp, call, output))))
    if tracer is not None:
        tracer.call = -1
    return results


def call_count(wl, about, seconds):
    """Whole periods of rounds worth `seconds` at the workload's calibrated
    call rate.

    The amount of work depends only on --seconds, never on how fast the
    calls run, so the same seed always attempts (and fails) the same
    operations.  After a whole period every parameter set and kind has run
    every call size once, so runs differ only in points, poles and order."""
    calls = wl.round_calls * wl.period
    return calls * max(1, round(seconds * about["calls_per_s"] / calls))


def summarize(grades):
    count = sum(g.digits_count for g in grades)
    return {"attempted": sum(g.attempted for g in grades),
            "failed": sum(g.failed for g in grades),
            "accuracy_digits": (sum(g.digits_sum for g in grades) / count
                                if count else 0.0),
            "correct": all(g.well_formed for g in grades)}


def tail(latencies, percentile):
    """Nearest-rank percentile and the number of calls beyond it."""
    ordered = sorted(latencies)
    rank = min(len(ordered), max(1, math.ceil(percentile / 100.0 * len(ordered))))
    return ordered[rank - 1], len(ordered) - rank


def timed_run(wl, about, seed, seconds, import_s):
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inp = wl.inputs(seed)
        wl.warm_up(inp)
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)
    refs = wl.references(inp)
    count = call_count(wl, about, seconds)
    results = closed_loop(
        wl, inp, wl.calls(inp), count=count,
        settle=lambda call, record: wl.grade(inp, refs, call, record))
    graded = summarize([grade for _, grade in results])
    latencies = [latency for latency, _ in results]
    busy = sum(latencies)
    tail_ms, beyond = tail(latencies, about["tail_percentile"])
    values = {
        "setup_s": setup_s,
        "ops_per_s": graded["attempted"] / busy,
        "call_ms_p50": 1e3 * statistics.median(latencies),
        "call_ms_tail": 1e3 * tail_ms,
        "pass_rate": 1.0 - graded["failed"] / graded["attempted"],
        "accuracy_digits": graded["accuracy_digits"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    unit = about["unit"]
    notes = {
        "setup_s": f"import {import_s:.3f} s + median of {SETUP_REPEATS} "
                   f"set-ups {statistics.median(setups):.3f} s",
        "ops_per_s": f"= {unit}_per_s ({unit}/s): {graded['attempted']} {unit} "
                     f"in {busy:.2f} s inside {len(results)} calls",
        "call_ms_tail": f"p{about['tail_percentile']:g} of {len(results)} calls, "
                        f"{beyond} beyond",
        "pass_rate": f"fail_rate = {graded['failed'] / graded['attempted']:.6g} "
                     f"({graded['failed']} of {graded['attempted']} {unit} "
                     "miss 1e-8)",
    }
    if beyond < 10:
        notes["call_ms_tail"] += " (fewer than 10 calls beyond this percentile)"
    detail = {"latencies_s": latencies, "setups_s": setups, "import_s": import_s,
              "busy_s": busy, "tail_percentile": about["tail_percentile"],
              "tail_beyond": beyond}
    return graded, values, notes, detail


def traced_run(wl, about, seed, seconds, name):
    from tracing import MODULES, Tracer

    inp = wl.inputs(seed)
    wl.warm_up(inp)
    refs = wl.references(inp)
    count = max(1, round(seconds * about["trace_calls_per_s"] / 2.0))

    # the traced pass keeps its outputs and grades them after the tracer is
    # removed, so the checker's own kernel calls leave no spans
    keep = lambda call, record: (call, record)  # noqa: E731
    start = time.perf_counter()
    inp = wl.inputs(seed)
    closed_loop(wl, inp, wl.calls(inp), keep, count)
    untraced = time.perf_counter() - start

    tracer = Tracer()
    with tracer.installed():
        start = time.perf_counter()
        inp = wl.inputs(seed)
        results = closed_loop(wl, inp, wl.calls(inp), keep, count,
                              tracer=tracer)
        traced = time.perf_counter() - start
    graded = summarize([wl.grade(inp, refs, call, record)
                        for _, (call, record) in results])
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{name}-seed{seed}.json"))

    totals = tracer.totals
    points = (totals["solvers.solve_dirichlet"][2]
              + totals["solvers.solve_neumann"][2])
    kernels = [k for k in totals if k.startswith("kernels.")
               and k != "kernels.evaluate_on_grid"]
    evals = sum(totals[k][2] for k in kernels)
    special = {
        "trace.overhead_s": traced - untraced,
        "solvers.points": points,
        "quadrature.area_nodes_per_point":
            totals["quadrature.area_mesh"][2] / points if points else 0.0,
        "quadrature.boundary_nodes_per_point":
            totals["quadrature.boundary_mesh"][2] / points if points else 0.0,
        "kernels.ns_per_eval":
            sum(totals[k][1] for k in kernels) / evals if evals else 0.0,
    }
    fields = {"self_s": 1, "calls": 0, "evals": 2}

    def value(metric):
        if metric in special:
            return special[metric]
        base, _, field = metric.rpartition(".")
        if base in MODULES and field == "self_s":
            return tracer.module_self_s(base)
        entry = totals[base][fields[field]]
        return entry / 1e9 if field == "self_s" else entry

    notes = {"trace.overhead_s": f"traced {traced:.3f} s - untraced "
                                 f"{untraced:.3f} s over {count} calls, "
                                 f"{len(tracer.spans)} spans"}
    detail = {"calls": count, "traced_s": traced, "untraced_s": untraced,
              "spans": len(tracer.spans),
              "totals": {name: {"calls": c, "self_s": ns / 1e9, "work": w}
                         for name, (c, ns, w) in totals.items()}}
    return graded, value, notes, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_s = _import_package()
    benchmark = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = _load_json(os.path.join(HERE, "spec.json"))
    if args.workload not in spec["workloads"]:
        parser.error(f"unknown workload {args.workload!r}")
    about = spec["workloads"][args.workload]

    import workloads

    os.makedirs(OUT, exist_ok=True)
    wl = workloads.make(args.workload, OUT)
    if args.trace:
        graded, value, notes, detail = traced_run(wl, about, args.seed,
                                                  args.seconds, args.workload)
        listed = benchmark["per_layer"]
    else:
        graded, values, notes, detail = timed_run(wl, about, args.seed,
                                                  args.seconds, import_s)
        value = values.__getitem__
        listed = benchmark["end_to_end"]

    metrics = {m["name"]: {"value": value(m["name"]), "unit": m["unit"]}
               for m in listed}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    for name, m in metrics.items():
        note = f"   [{notes[name]}]" if name in notes else ""
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}{note}")
    result = {"correct": graded["correct"], "attempted": graded["attempted"],
              "failed": graded["failed"], "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, detail=detail)
    with open(os.path.join(OUT, f"run-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
