#!/usr/bin/env python3
"""A/A (or A/B) runs of the end-to-end benchmark.

    python3 e2ebench/aa.py --workload farm_soak --runs 10 [--seconds 10]
        [--seed 1] [--other /path/to/second/source/tree]

Runs one workload --runs times, each with another seed (--seed, --seed + 1,
...), by invoking e2ebench/run.py from the root of the source tree. With
--other, every seed is run on both trees, alternating which goes first, and
the second tree builds into its own .bench_build. Prints, per end-to-end
metric, the median and quartiles of each set, the spread (Q3 - Q1) as a
share of the median next to the metric's bound in BENCHMARK.json, and with
--other the change of the median. Also prints each set's share of failed
operations. The bounds in BENCHMARK.json are set from this output: each
bound sits well above the spread seen here.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(tree, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(tree, "e2ebench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("aa.py: run failed in %s (seed %d):\n%s" % (tree, seed, out.stderr[-2000:]))
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--other", default=None, help="second source tree (A/B)")
    args = ap.parse_args()

    tree_a = os.path.dirname(HERE)
    spec_path = os.path.join(tree_a, "BENCHMARK.json")
    spec = json.load(open(spec_path)) if os.path.exists(spec_path) else {}
    bounds = {m["name"]: m for m in spec.get("end_to_end", [])}
    seconds = args.seconds or spec.get("run_seconds", 10)
    trees = [tree_a] + ([os.path.abspath(args.other)] if args.other else [])

    results = {t: [] for t in trees}
    for i in range(args.runs):
        seed = args.seed + i
        order = trees if i % 2 == 0 else trees[::-1]
        for t in order:
            r = run_once(t, args.workload, seed, seconds)
            results[t].append(r)
            print("run %2d seed %d %s: correct=%s failed=%d/%d %s" % (
                i, seed, "A" if t == tree_a else "B", r["correct"], r["failed"],
                r["attempted"], " ".join("%s=%.6g" % (k, v["value"])
                                         for k, v in r["metrics"].items())))

    names = list(results[tree_a][0]["metrics"].keys())
    print("\n%-22s %-4s %12s %12s %12s %8s %7s %9s" % (
        "metric", "set", "q1", "median", "q3", "spread", "bound", "vs A"))
    for name in names:
        med_a = None
        for t in trees:
            vals = [r["metrics"][name]["value"] for r in results[t]]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("nan")
            b = bounds.get(name, {})
            change = ""
            if med_a is None:
                med_a = med
            else:
                change = "%+.2f%%" % (100.0 * (med - med_a) / med_a)
            print("%-22s %-4s %12.6g %12.6g %12.6g %7.2f%% %7s %9s" % (
                name, "A" if t == tree_a else "B", q1, med, q3, 100.0 * spread,
                ("%.0f%%" % (100.0 * b["bound"])) if "bound" in b else "-", change))
    for t in trees:
        failed = sum(r["failed"] for r in results[t])
        attempted = sum(r["attempted"] for r in results[t])
        correct = all(r["correct"] for r in results[t])
        print("set %s: failed %d of %d operations (%.4f%%), all correct: %s" % (
            "A" if t == tree_a else "B", failed, attempted,
            100.0 * failed / max(1, attempted), correct))


if __name__ == "__main__":
    main()
