#!/usr/bin/env python3
"""Comparer: reads two sets of benchmark runs and prints, for each
(workload, metric) pair, better, worse, unchanged or unresolved.

    python3 fbbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds one run per line as steady.py writes them:
{"workload", "seed", "trace", "result"}. Runs pair up in file order per
workload, so record them alternating which side goes first (steady.py
--other does). The rule is fbstats.decide: a gain needs at least 10
pairs, 9 of 10 wins and a median difference beyond the parent's
interquartile distance; a loss is a median worse than the parent's by
more than the metric's bound in BENCHMARK.json; a parent spread wider than
the bound leaves the pair unresolved. End-to-end metrics come from
untraced runs. From traced runs, per-layer counts (unit "count") that
repeat exactly on each side are compared as counts.

Exits 1 when any pair is worse, 0 otherwise.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import fbstats  # noqa: E402


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                record = json.loads(line)
                runs.setdefault((record["workload"], record["trace"]), []).append(
                    record["result"])
    return runs


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def compare(parent, change, manifest):
    """Yields (workload, metric, parent values, change values, verdict)."""
    end_to_end = manifest["end_to_end"]
    counts = [m for m in manifest["per_layer"] if m["unit"] == "count"]
    for (workload, trace), parent_runs in sorted(parent.items()):
        change_runs = change.get((workload, trace), [])
        metrics = end_to_end if trace == 0 else counts
        for m in metrics:
            p = values(parent_runs, m["name"])
            c = values(change_runs, m["name"])
            if not p or not c:
                continue
            if trace == 0:
                verdict = fbstats.decide(p, c, m["better"], m["bound"])
            elif len(set(p)) == 1 and len(set(c)) == 1:
                verdict = fbstats.decide(p, c, m["better"], 0.0, exact=True)
            else:
                continue  # a count that does not repeat is not compared
            yield workload, m["name"], p, c, verdict


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        manifest = json.load(f)
    parent = load_runs(args.parent)
    change = load_runs(args.change)
    print("%-8s %-24s %6s %14s %14s %9s  %s" %
          ("workload", "metric", "pairs", "parent", "change", "diff", "verdict"))
    worse = False
    for workload, name, p, c, verdict in compare(parent, change, manifest):
        pm, cm = statistics.median(p), statistics.median(c)
        diff = (cm - pm) / abs(pm) if pm else 0.0
        print("%-8s %-24s %6d %14.6g %14.6g %+8.1f%%  %s" %
              (workload, name, min(len(p), len(c)), pm, cm, 100 * diff, verdict))
        worse = worse or verdict == fbstats.WORSE
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
