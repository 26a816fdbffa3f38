#!/usr/bin/env python3
"""Regenerates README.md's tracing-overhead and time-split tables.

    python3 e2ebench/report.py --workload paper_read --seed 1 --seconds 20

Runs the benchmark once untraced and once traced on the same inputs and
prints both tables as Markdown.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# (label, per-layer metric, factor to milliseconds)
SELF_TIMES = (
    ("net: client and server transport", "net.self_ms", 1.0),
    ("serve: admission and deadline gate", "serve.self_us", 1e-3),
    ("engine: waiting for an executor worker", "engine.queue_ms", 1.0),
    ("live: delta scan and merge of answers", "live.delta_scan_ms", 1.0),
    ("shard: fan-out and merge", "shard.self_ms", 1.0),
    ("search: GAT search, summed over shards", "search.ms", 1.0),
)


def run(args, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    out = subprocess.run(command, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="paper_read")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()

    untraced = run(args, 0)
    traced = run(args, 1)

    print(f"Tracing overhead ({args.workload}, seed {args.seed}, "
          f"{args.seconds} s):\n")
    print("| metric | untraced | traced | traced - untraced |")
    print("|---|---|---|---|")
    for name in ("read_qps", "atsq_p50_ms", "oatsq_p50_ms"):
        plain = untraced[name]["value"]
        with_trace = traced["trace." + name]["value"]
        print(f"| {name} | {plain:.2f} | {with_trace:.2f} | "
              f"{with_trace - plain:+.2f} ({(with_trace / plain - 1):+.1%}) |")

    print(f"\nWhere one read's time goes ({args.workload}, mean self time "
          "per read, traced run):\n")
    print("| layer | self ms |")
    print("|---|---|")
    for label, name, scale in SELF_TIMES:
        print(f"| {label} | {traced[name]['value'] * scale:.3f} |")
    print(f"\nShare of a read's round trip covered by its server spans "
          f"(median over reads): "
          f"{traced['trace.self_coverage']['value']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
