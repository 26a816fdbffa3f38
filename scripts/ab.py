#!/usr/bin/env python3
"""A/B runner: one benchmark command, two checkouts, alternating order.

    python3 scripts/ab.py --a PARENT_DIR --b CHANGE_DIR --pairs 10 \\
        --json ab.json -- python3 e2ebench/run.py --workload live_rw \\
        --seed 1 --seconds 20

Runs the command after `--` with each checkout as its working directory,
pair i running A first when i is even and B first when i is odd (ABBA
order), so drift in the host's load falls on both sides alike. The last
line of the command's standard output must be its result JSON, with
`{"correct": C, "failed": F, "metrics": {NAME: {"value": V, ...}}}`
(the e2ebench schema). A run that exits non-zero, whose last line is not
such JSON, or that reports `"correct": false` or a non-zero `"failed"`
is reported and its pair is dropped: metrics of a wrong run count for
neither side.

CARGO_TARGET_DIR is removed from the commands' environment so that each
checkout builds into its own default directory; --env-a/--env-b set
per-side variables (repeatable KEY=VALUE).

Per metric it prints:
  * each side's median and quartiles over its runs;
  * B/A: the median of the per-pair ratios B_i / A_i with a 95%
    percentile bootstrap interval (pairs resampled; fixed seed);
  * A/A: the spread of ratios between the parent's own runs, as the
    quartiles of A_j / A_i over every ordered pair i != j — the ratio
    noise of one commit against itself in the same session;
  * wins: pairs where B is better, ties counting for neither, with the
    better direction read from BENCHMARK.json (`end_to_end` and
    `per_layer`; a metric listed in neither is taken as lower-better);
  * verdict: "gain" when B wins at least nine tenths of the pairs and
    the medians differ by more than the parent's interquartile range
    (the rule in docs/BENCH_PROTOCOL.md, "How to claim a speedup");
    "worse" when the mirrored rule holds for A; otherwise "-".
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys


def quartiles(values):
    """(q25, median, q75) by linear interpolation between order stats."""
    xs = sorted(values)

    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def bootstrap_median(values, draws=2000, seed=7):
    """95% percentile bootstrap interval of the median."""
    rng = random.Random(seed)
    medians = sorted(
        statistics.median(rng.choices(values, k=len(values)))
        for _ in range(draws))
    return medians[int(0.025 * draws)], medians[int(0.975 * draws) - 1]


def directions(path):
    """Metric name -> "lower" or "higher", from BENCHMARK.json."""
    try:
        spec = json.load(open(path))
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("better", "lower")
            for key in ("end_to_end", "per_layer") for m in spec.get(key, [])}


def run_once(command, cwd, env, label):
    proc = subprocess.run(command, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{label}: exit {proc.returncode}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
        metrics = {k: float(v["value"]) for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError):
        print(f"{label}: last line is not result JSON", file=sys.stderr)
        return None
    if result.get("correct") is False or result.get("failed", 0) != 0:
        print(f"{label}: correct={result.get('correct')} "
              f"failed={result.get('failed')}", file=sys.stderr)
        return None
    return metrics


def side_env(assignments):
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    for item in assignments:
        key, _, value = item.partition("=")
        env[key] = value
    return env


def summarize(runs, better, names):
    """One row per metric over the pairs where both runs succeeded."""
    pairs = [(a, b) for a, b in runs if a is not None and b is not None]
    a_runs = [a for a, _ in runs if a is not None]
    rows = []
    for name in names:
        avals = [a[name] for a, _ in pairs if name in a]
        bvals = [b[name] for _, b in pairs if name in b]
        if len(avals) != len(pairs) or len(bvals) != len(pairs) or not pairs:
            continue
        aq, bq = quartiles(avals), quartiles(bvals)
        ratios = [b / a for a, b in zip(avals, bvals) if a != 0]
        lower = better.get(name, "lower") == "lower"
        wins = sum((b < a) if lower else (b > a) for a, b in zip(avals, bvals))
        losses = sum((b > a) if lower else (b < a)
                     for a, b in zip(avals, bvals))
        iqr = aq[2] - aq[0]
        apart = abs(bq[1] - aq[1]) > iqr
        verdict = "-"
        if apart and wins >= 0.9 * len(pairs) and (bq[1] < aq[1]) == lower:
            verdict = "gain"
        elif apart and losses >= 0.9 * len(pairs) and (bq[1] > aq[1]) == lower:
            verdict = "worse"
        all_a = [a[name] for a in a_runs if name in a]
        aa = [y / x for i, x in enumerate(all_a) for j, y in enumerate(all_a)
              if i != j and x != 0]
        rows.append({
            "metric": name, "better": "lower" if lower else "higher",
            "a": aq, "b": bq,
            "ratio": statistics.median(ratios) if ratios else None,
            "ratio_ci": bootstrap_median(ratios) if ratios else None,
            "aa": quartiles(aa) if aa else None,
            "wins": wins, "pairs": len(pairs), "verdict": verdict})
    return rows


def fmt(x):
    return f"{x:.4g}"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        usage="%(prog)s --a DIR --b DIR [options] -- COMMAND...")
    parser.add_argument("--a", required=True, help="parent checkout")
    parser.add_argument("--b", required=True, help="change checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--env-a", action="append", default=[])
    parser.add_argument("--env-b", action="append", default=[])
    parser.add_argument("--benchmark", default="BENCHMARK.json",
                        help="where to read each metric's direction")
    parser.add_argument("--json", help="write every run and the summary")
    argv = sys.argv[1:]
    if "--" not in argv:
        parser.error("missing -- COMMAND")
    split = argv.index("--")
    args = parser.parse_args(argv[:split])
    command = argv[split + 1:]
    if not command or args.pairs < 1:
        parser.error("need a command and at least one pair")

    env = {"a": side_env(args.env_a), "b": side_env(args.env_b)}
    cwd = {"a": os.path.abspath(args.a), "b": os.path.abspath(args.b)}
    runs = []
    for i in range(args.pairs):
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        got = {}
        for side in order:
            got[side] = run_once(command, cwd[side], env[side],
                                 f"pair {i} {side.upper()}")
        runs.append((got["a"], got["b"]))
        print(f"pair {i + 1}/{args.pairs} done ({order[0].upper()} first)",
              file=sys.stderr)

    better = directions(args.benchmark)
    names = sorted({n for a, b in runs for r in (a, b) if r for n in r})
    rows = summarize(runs, better, names)
    failed = sum(r is None for pair in runs for r in pair)
    print(f"{len(runs)} pairs, {failed} failed runs; A = {cwd['a']}, "
          f"B = {cwd['b']}")
    print("metric | better | A median [q25, q75] | B median [q25, q75] | "
          "B/A median [95% CI] | A/A [q25, q75] | B wins | verdict")
    for r in rows:
        ci = r["ratio_ci"]
        aa = r["aa"]
        print(" | ".join([
            r["metric"], r["better"],
            f"{fmt(r['a'][1])} [{fmt(r['a'][0])}, {fmt(r['a'][2])}]",
            f"{fmt(r['b'][1])} [{fmt(r['b'][0])}, {fmt(r['b'][2])}]",
            (f"{r['ratio']:.3f} [{ci[0]:.3f}, {ci[1]:.3f}]"
             if ci else "-"),
            f"[{aa[0]:.3f}, {aa[2]:.3f}]" if aa else "-",
            f"{r['wins']}/{r['pairs']}", r["verdict"]]))
    if args.json:
        json.dump({"command": command, "a": cwd["a"], "b": cwd["b"],
                   "runs": [{"a": a, "b": b} for a, b in runs],
                   "summary": rows}, open(args.json, "w"), indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
