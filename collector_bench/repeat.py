#!/usr/bin/env python3
"""Run one workload N times and summarise every metric.

    python3 collector_bench/repeat.py --workload inpht-d8 --runs 10 \
        [--seed0 1] [--seconds 30] [--trace 0] [--tree DIR [--tree DIR]]

Run i uses seed seed0 + i. Each --tree is a checkout holding
collector_bench/ (default: the checkout this script is in). Given two
trees, runs alternate between them on the same seeds, and the side that
goes first alternates too, so parent-versus-change pairs share the
machine's drift. Each tree builds into its own <tree>/.bench_build.

For each tree and metric the summary gives the median, the quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median. With two
trees it adds the ratio of medians and how many pairs the second tree
won, using each metric's direction from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(tree, args, seed):
    env = dict(os.environ, CARGO_TARGET_DIR=str(tree / ".bench_build"))
    cmd = [sys.executable, str(tree / "collector_bench" / "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    ok = done.returncode == 0 and result.get("correct") and result.get("failed") == 0
    if not ok:
        for line in done.stderr.splitlines()[-5:]:
            print(f"  {line}", file=sys.stderr)
    values = {k: m["value"] for k, m in result.get("metrics", {}).items()}
    return ok, values


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def directions(tree):
    try:
        spec = json.loads((tree / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["better"]
            for key in ("end_to_end", "per_layer") for m in spec.get(key, [])}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tree", action="append", type=Path)
    args = parser.parse_args()
    trees = [t.resolve() for t in (args.tree or [HERE.parent])]
    if len(trees) > 2:
        parser.error("at most two trees")

    results = {str(t): [] for t in trees}
    failures = 0
    for i in range(args.runs):
        seed = args.seed0 + i
        for tree in (trees if i % 2 == 0 else trees[::-1]):
            ok, values = run(tree, args, seed)
            failures += not ok
            results[str(tree)].append({"seed": seed, "ok": ok, "values": values})
            status = "ok" if ok else "FAILED"
            print(f"run {i + 1}/{args.runs} seed {seed} {tree.name}: {status}", file=sys.stderr)

    better = directions(trees[-1])
    names = sorted({k for runs in results.values() for r in runs for k in r["values"]})
    for tree in trees:
        runs = results[str(tree)]
        print(f"\n{tree}  ({sum(r['ok'] for r in runs)}/{len(runs)} runs ok)")
        print(f"{'metric':<40}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/med':>9}")
        for name in names:
            vals = [r["values"][name] for r in runs if r["ok"] and name in r["values"]]
            if vals:
                med, q1, q3, spread = summarise(vals)
                print(f"{name:<40}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}")
    if len(trees) == 2:
        a, b = (results[str(t)] for t in trees)
        print(f"\n{'metric':<40}{'B/A median':>12}{'B wins':>10}")
        for name in names:
            pairs = [(x["values"][name], y["values"][name]) for x, y in zip(a, b)
                     if x["ok"] and y["ok"] and name in x["values"] and name in y["values"]]
            if not pairs:
                continue
            ma = statistics.median(p[0] for p in pairs)
            mb = statistics.median(p[1] for p in pairs)
            sign = -1 if better.get(name) == "lower" else 1
            wins = sum(sign * (y - x) > 0 for x, y in pairs)
            ratio = mb / ma if ma else float("nan")
            print(f"{name:<40}{ratio:>12.4f}{wins:>6}/{len(pairs)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
