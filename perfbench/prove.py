"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/prove.py [--workloads a,b] [--seeds 1-10] [--output F]

For every workload and end-to-end metric this prints the median of the
runs and the spread, the distance between the first and third quartile
(statistics.quantiles with n=4) as a share of the median, next to the
metric's bound from BENCHMARK.json.  A spread above a third of the bound
is flagged: the benchmark is not steady enough to resolve that bound.
Runs are made one after another, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median) if median else 0.0


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"])
    parser.add_argument("--output", help="write every run's result here")
    args = parser.parse_args(argv)

    report = {}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds)
            runs.append(dict(result, seed=seed))
            runs[-1]["metrics"] = {name: m["value"]
                                   for name, m in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)
        report[workload] = {"metrics": {}, "runs": runs}
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name] for r in runs]
            median, share = spread(values)
            ok = name == "setup_s" or share <= metric["bound"] / 3.0
            steady &= ok
            report[workload]["metrics"][name] = {
                "median": median, "spread": share, "bound": metric["bound"]}
            print(f"  {name:16s} median {median:12.6g} {metric['unit']:7s} "
                  f"spread {share:7.2%}  bound {metric['bound']:.0%}"
                  f"{'' if ok else '   <-- above a third of the bound'}",
                  flush=True)
    if args.output:
        import numpy
        record = {
            "about": f"Output of `python3 perfbench/prove.py --seeds "
                     f"{args.seeds[0]}-{args.seeds[-1]}` at run_seconds "
                     f"{args.seconds:g}: per workload, each end-to-end "
                     "metric's median over the seeds and its spread "
                     "(interquartile distance / median), then every run.",
            "python": platform.python_version(), "numpy": numpy.__version__,
            "seeds": f"{args.seeds[0]}-{args.seeds[-1]}",
            "run_seconds": args.seconds, "workloads": report}
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
