#!/usr/bin/env python3
"""Build the collector benchmark and run one workload.

    python3 collector_bench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is built from source with
cargo into $CARGO_TARGET_DIR (default: .bench_build in the current
directory). The last line of standard output is the result: one JSON
object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of one untraced run.
--trace 1 runs the workload twice with the same seed, untraced and then
traced, and reports the per-layer metrics of the traced run plus
trace_overhead_pct.<metric>: how much the traced run moved each
end-to-end metric, in percent of the untraced value. The spans of the
traced run are written to <target dir>/collector-bench-spans/.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(done.returncode)
    return target_dir() / "release" / "collector-bench"


def run_once(binary, args, trace, extra=()):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace), *extra]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(done.returncode or 1)
    return done.returncode, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    binary = build()

    code, plain = run_once(binary, args, 0)
    if args.trace == 0:
        print(json.dumps(plain))
        return code

    spans = target_dir() / "collector-bench-spans"
    spans.mkdir(parents=True, exist_ok=True)
    spans_file = spans / f"{args.workload}-seed{args.seed}.tsv"
    traced_code, traced = run_once(binary, args, 1, ("--spans-out", str(spans_file)))
    untraced = plain["metrics"]
    per_layer = {k: v for k, v in traced["metrics"].items() if k not in untraced}
    print(f"{'end-to-end metric':<28}{'untraced':>14}{'traced':>14}{'overhead':>10}")
    for name, m in untraced.items():
        if name not in traced["metrics"]:
            continue
        t = traced["metrics"][name]["value"]
        base = m["value"]
        pct = 100.0 * (t - base) / base if base else 0.0
        per_layer[f"trace_overhead_pct.{name}"] = {"value": pct, "unit": "%"}
        print(f"{name:<28}{base:>14.6g}{t:>14.6g}{pct:>9.2f}%")
    print(f"\n{'per-layer metric':<36}{'value':>16}  unit")
    for name, m in per_layer.items():
        print(f"{name:<36}{m['value']:>16.6g}  {m['unit']}")
    print(f"spans: {spans_file}")
    result = {
        "correct": bool(plain["correct"] and traced["correct"]),
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": per_layer,
    }
    print(json.dumps(result))
    return code or traced_code


if __name__ == "__main__":
    sys.exit(main())
