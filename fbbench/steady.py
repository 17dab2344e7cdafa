#!/usr/bin/env python3
"""Steadiness report: runs each workload N times, one seed per run, and
prints the median, the quartiles and the relative spread of every metric.

    python3 fbbench/steady.py [--runs 10] [--trace 0|1] [--out runs.jsonl]
        [--other ../parent --other-out parent.jsonl]

Run from the root of a fairbc source tree. Each run is the benchmark
command from BENCHMARK.json with its run_seconds, on every workload it
lists, with seeds 1..N. Every run's result line is appended to --out as
{"workload", "seed", "trace", "result"}, the format compare.py reads.

With --other, every run is repeated in a second source tree (for example
the parent commit) and the two alternate which goes first, run by run;
its results go to --other-out. compare.py then pairs the two files.

The spread is the interquartile distance over the median, as
statistics.quantiles(values, n=4) gives the quartiles. "suggest" is three
times the spread rounded up to 0.05 and capped at 0.25: a bound that the
observed spread stays below a third of.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import fbstats  # noqa: E402


def load_manifest(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, manifest, workload, seed, trace):
    cmd = manifest["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(manifest["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s in %s (exit %d)" %
                         (" ".join(cmd), root, proc.returncode))
    return json.loads(lines[-1])


def append(path, record):
    if path:
        with open(path, "a") as f:
            f.write(json.dumps(record) + "\n")


def suggest(spread):
    if math.isinf(spread):
        return 0.25
    return min(0.25, max(0.05, math.ceil(spread * 3 / 0.05) * 0.05))


def report(results, manifest, trace):
    bounds = {m["name"]: m.get("bound") for m in
              manifest["per_layer" if trace else "end_to_end"]}
    for workload, runs in results.items():
        ok = sum(1 for r in runs if r["correct"])
        print("%s: %d runs, %d correct" % (workload, len(runs), ok))
        print("  %-30s %12s %12s %12s %8s %8s %8s" %
              ("metric", "q1", "median", "q3", "spread", "bound", "suggest"))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = fbstats.quartiles(values)
            spread = fbstats.relative_spread(values)
            bound = bounds.get(name)
            print("  %-30s %12.6g %12.6g %12.6g %8.3f %8s %8.2f" %
                  (name, q1, median, q3, spread,
                   "-" if bound is None else "%.2f" % bound, suggest(spread)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--other", default=None,
                        help="second source tree; runs alternate with it")
    parser.add_argument("--other-out", default=None)
    args = parser.parse_args()
    if args.other and not args.other_out:
        parser.error("--other needs --other-out")
    root = os.getcwd()
    manifest = load_manifest(root)
    workloads = [w["name"] for w in manifest["workloads"]]
    sides = [(root, args.out)]
    if args.other:
        sides.append((os.path.abspath(args.other), args.other_out))
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        seed = 1 + i
        order = sides if i % 2 == 0 else list(reversed(sides))
        for workload in workloads:
            for tree, out in order:
                result = run_once(tree, load_manifest(tree), workload, seed,
                                  args.trace)
                append(out, {"workload": workload, "seed": seed,
                             "trace": args.trace, "result": result})
                if tree == root:
                    results[workload].append(result)
            print("run %d/%d %s done" % (i + 1, args.runs, workload),
                  file=sys.stderr, flush=True)
    report(results, manifest, args.trace)


if __name__ == "__main__":
    main()
