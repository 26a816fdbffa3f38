#!/usr/bin/env python3
"""Compare two BENCH_*.json artifacts for regressions.

Implements the comparison rules of docs/BENCH_PROTOCOL.md:

  * Refuses (exit 2) incompatible pairs: different bench name, or
    different ``protocol.scale`` / ``protocol.queries_per_point`` —
    those change the workload, so a diff would be meaningless. Cross-thread-count compares are refused too:
    ``ns_per_op`` is throughput time and only comparable at equal
    ``protocol.threads``. Records (or protocol blocks) stamped with a
    ``shards`` count are refused when the counts differ: per-shard
    counters scale with the partition, so the workloads are different
    experiments.
  * Fails (exit 1) when any deterministic work counter
    (candidates_verified, tas_pruned, distance_computations, disk_reads,
    index_pins = shard visits) drifts: counters are scheduling-independent, so any
    change is a behavioral change, not noise (``--allow-counter-drift``
    downgrades this to a warning for PRs that intentionally change the
    algorithm).
  * Live-reload fields (``shard_reloads`` = generations published,
    ``invalidated_blocks``, bench_live_reload): background-loop
    scheduled, so never gated —
    but a baseline showing reload activity against a candidate showing
    none warns (the live machinery stopped being exercised).
  * Block-cache fields (storage benches): records carrying a
    ``block_size`` must agree on it — block granularity defines what a
    ``blocks_read`` means, so a mismatch is refused like a protocol
    mismatch. A record carrying ``blocks_read`` whose ``block_size`` is
    nonzero on one side only is refused too: ``block_size`` 0 (or
    absent) demotes the exact ``blocks_read`` gate to an advisory, so a
    candidate that stops reporting it would otherwise loosen the gate
    without a message. ``blocks_read`` is deterministic only when the
    access sequence is (single-threaded, equal warmup and repeat
    counts): it is gated as a counter at ``protocol.threads == 1`` with
    equal ``protocol.warmup`` and ``repeats``, and advisory (>10% drift
    warns) otherwise. ``cache_hit_rate`` drift beyond 2 points warns
    (advisory at any thread count).
  * Fails (exit 1) when ``avg_ms_per_query`` — or, when both sides
    carry it, the per-query ``p95_ms`` latency — regresses by more than
    ``--max-regress-pct`` (default 15) on any record present in both
    files. ``avg_ms_per_query`` is CPU time per query and thread-count
    independent. ``--skip-timing`` disables these gates (e.g. comparing
    runs from different machines where only counters are meaningful).
  * Warns when ``ns_per_op`` regresses beyond the protocol's noise gate
    (3 x max(rsd_old, rsd_new) percent) — advisory only, since
    wall-clock throughput is the noisiest signal.
  * Live-ingestion fields (bench_ingest): ``ingested_checkins``,
    ``delta_trajectories``, ``merges_completed`` and ``generation`` are
    snapshots taken at quiesced points (ingest paused at a fixed
    watermark), so they are gated exactly like the work counters at any
    thread count. ``freshness_lag_ms`` is ingest-ack-to-queryable wall
    clock — advisory (>50% swell warns).
  * Open-loop serving runs (bench_serving): ``protocol.arrival_rate``
    and ``protocol.virtual_time`` are workload-defining — a mismatch is
    refused like a scale mismatch (comparing shed counts across offered
    loads, or virtual against wall-clock time, is meaningless). When
    BOTH runs are virtual-time, the serving counters (``admitted``,
    ``shed_count``, ``deadline_misses``) are pure functions of the
    schedule and are gated exactly like the work counters; otherwise
    they drift with the machine and only warn beyond 10%.
    ``goodput_qps`` is always advisory (>10% drop warns).

Forward compatibility: the JSON schema is append-only and this tool
compares only the fields it knows about. Unknown keys — in the top
level, the protocol block, or any record — are ignored, so baselines
recorded before a field existed keep gating candidates that carry it
(a counter/timing field present on only one side is skipped, never an
error).

Usage:
  bench_diff.py BASELINE.json CANDIDATE.json [--max-regress-pct PCT]
                [--allow-counter-drift] [--skip-timing]

Exit codes: 0 = no regression, 1 = regression/drift, 2 = refused.
"""

import argparse
import json
import sys

COUNTER_FIELDS = (
    "candidates_verified",
    "tas_pruned",
    "distance_computations",
    "disk_reads",
    # Serving-revision pins of the live-reload epoch guard: exactly
    # queries x shards per record, independent of threads, repeats and
    # of whether any reload actually happened — deterministic.
    "index_pins",
)
# Live-reload activity counters (bench_live_reload): how many hot-swaps
# completed and how many cache blocks retired mappings purged during the
# measurement. Real work, but scheduled by a wall-clock background
# loop — never comparable exactly, so drift only warns.
ADVISORY_RELOAD_FIELDS = ("shard_reloads", "invalidated_blocks")
# Serving front-door counters (bench_serving): exact when both runs are
# virtual-time (the simulated schedule fully determines them), advisory
# otherwise.
SERVING_COUNTER_FIELDS = ("admitted", "shed_count", "deadline_misses")
# Live-ingestion state counters (bench_ingest): recorded at quiesced
# points (ingest paused at a fixed watermark), so exact — any drift
# means the delta/merge machinery changed behavior. The wall-clock
# `freshness_lag_ms` companion field is advisory and handled separately.
INGEST_COUNTER_FIELDS = ("ingested_checkins", "delta_trajectories",
                         "merges_completed", "generation")
# Workload-defining protocol fields: a mismatch makes the diff meaningless.
# arrival_rate / virtual_time are the open-loop extension: offered load and
# the clock the load runs on both define the experiment (absent = 0 / false
# on closed-loop benches and pre-extension baselines).
PROTOCOL_FIELDS = ("scale", "queries_per_point")


def refuse(message):
    print(f"REFUSED: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            payload = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        refuse(f"cannot read {path}: {err}")
    for key in ("bench", "protocol", "results"):
        if key not in payload:
            refuse(f"{path} lacks required key '{key}'")
    return payload


def check_compatible(old, new):
    if old["bench"] != new["bench"]:
        refuse(f"different benches: {old['bench']!r} vs {new['bench']!r}")
    for field in PROTOCOL_FIELDS:
        a, b = old["protocol"].get(field), new["protocol"].get(field)
        if a != b:
            refuse(f"protocol.{field} differs ({a} vs {b}); the workloads "
                   "are not the same experiment")
    ta, tb = old["protocol"].get("threads"), new["protocol"].get("threads")
    if ta != tb:
        refuse(f"protocol.threads differs ({ta} vs {tb}); ns_per_op is "
               "throughput time and only comparable at equal thread counts")
    # `shards` is optional (absent on un-sharded benches and on baselines
    # that predate the field); when both sides declare it, it must match.
    sa, sb = old["protocol"].get("shards"), new["protocol"].get("shards")
    if sa is not None and sb is not None and sa != sb:
        refuse(f"protocol.shards differs ({sa} vs {sb}); per-shard work "
               "scales with the partition, so the runs are not the same "
               "experiment")
    # Open-loop extension: offered load and clock mode define what the
    # serving counters mean. Absent = closed-loop (0 / false), so old
    # baselines keep comparing against old benches.
    ra = old["protocol"].get("arrival_rate", 0) or 0
    rb = new["protocol"].get("arrival_rate", 0) or 0
    if ra != rb:
        refuse(f"protocol.arrival_rate differs ({ra} vs {rb}); shed and "
               "deadline counts are functions of the offered load, so the "
               "runs are not the same experiment")
    va = bool(old["protocol"].get("virtual_time", False))
    vb = bool(new["protocol"].get("virtual_time", False))
    if va != vb:
        refuse(f"protocol.virtual_time differs ({va} vs {vb}); virtual and "
               "wall-clock timelines produce incomparable admission and "
               "deadline outcomes")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--max-regress-pct", type=float, default=15.0,
                        help="fail when avg_ms_per_query regresses more than "
                             "this percent (default: 15)")
    parser.add_argument("--allow-counter-drift", action="store_true",
                        help="downgrade counter drift from failure to warning "
                             "(for intentional algorithm changes)")
    parser.add_argument("--skip-timing", action="store_true",
                        help="skip the avg_ms_per_query gate and the "
                             "ns_per_op advisories (cross-machine compares: "
                             "counters only)")
    args = parser.parse_args()

    old = load(args.baseline)
    new = load(args.candidate)
    check_compatible(old, new)

    for path, payload in ((args.baseline, old), (args.candidate, new)):
        names = [r["name"] for r in payload["results"]]
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            refuse(f"{path} has duplicate record names ({', '.join(dupes)}); "
                   "a keyed diff would silently shadow records")

    old_records = {r["name"]: r for r in old["results"]}
    new_records = {r["name"]: r for r in new["results"]}
    failures, warnings = [], []

    missing = sorted(set(old_records) - set(new_records))
    added = sorted(set(new_records) - set(old_records))
    if missing:
        failures.append(f"records vanished from candidate: {', '.join(missing)}")
    if added:
        warnings.append(f"new records (no baseline): {', '.join(added)}")

    for name in sorted(set(old_records) & set(new_records)):
        o, n = old_records[name], new_records[name]

        # Same record name, different shard count: refuse rather than
        # diff — the counters describe different partitions.
        if ("shards" in o and "shards" in n and o["shards"] != n["shards"]):
            refuse(f"{name}: shards differs ({o['shards']} vs "
                   f"{n['shards']}); per-shard work scales with the "
                   "partition, so the records are not comparable")

        # Same record, different cache-block granularity: blocks_read
        # and cache_hit_rate count different units — refuse. block_size
        # 0 means "not reported" (a mapped searcher measured without the
        # bench passing its BlockCache) and is treated as absent — but
        # only when both sides agree on that: one-sided reporting would
        # silently demote the exact blocks_read gate below to an
        # advisory, so it is refused as well.
        bs_old, bs_new = o.get("block_size", 0), n.get("block_size", 0)
        if bs_old and bs_new and bs_old != bs_new:
            refuse(f"{name}: block_size differs ({bs_old} vs {bs_new}); "
                   "block-granular counters are not comparable across "
                   "block sizes")
        if (("blocks_read" in o or "blocks_read" in n)
                and bool(bs_old) != bool(bs_new)):
            refuse(f"{name}: block_size reported on one side only "
                   f"({bs_old} vs {bs_new}); blocks_read would lose its "
                   "exact gate")

        # blocks_read: a deterministic counter only when the block
        # access sequence is — single-threaded and the same number of
        # warmup and timed batches (the field reports the last batch,
        # whose cache starting state depends on every batch before it).
        # (A count at unknown granularity — block_size 0 on either side
        # — can only be compared advisorily.)
        if "blocks_read" in o and "blocks_read" in n:
            deterministic = (old["protocol"].get("threads") == 1
                             and old["protocol"].get("warmup")
                             == new["protocol"].get("warmup")
                             and o.get("repeats") == n.get("repeats")
                             and bool(bs_old) and bool(bs_new))
            if o["blocks_read"] != n["blocks_read"]:
                message = (f"{name}: blocks_read {o['blocks_read']} -> "
                           f"{n['blocks_read']}")
                if deterministic:
                    if args.allow_counter_drift:
                        warnings.append(message + " (deterministic counter "
                                        "drift waived by "
                                        "--allow-counter-drift)")
                    else:
                        failures.append(message + " (deterministic at "
                                        "threads=1 + equal repeats = "
                                        "behavioral change)")
                else:
                    drift = (abs(n["blocks_read"] - o["blocks_read"])
                             / max(o["blocks_read"], 1))
                    if drift > 0.10:
                        warnings.append(message + " (advisory: block "
                                        "sequence not deterministic "
                                        "across these runs)")

        if "cache_hit_rate" in o and "cache_hit_rate" in n:
            delta = n["cache_hit_rate"] - o["cache_hit_rate"]
            if abs(delta) > 0.02:
                warnings.append(f"{name}: cache_hit_rate "
                                f"{o['cache_hit_rate']:.4f} -> "
                                f"{n['cache_hit_rate']:.4f} (advisory)")

        for field in ADVISORY_RELOAD_FIELDS:
            if field not in o or field not in n:
                continue
            # The one regression these can flag reliably: the reloader
            # stopped reloading (or invalidation stopped purging) while
            # the baseline shows the machinery was exercised.
            if o[field] > 0 and n[field] == 0:
                warnings.append(f"{name}: {field} {o[field]} -> 0 "
                                "(advisory: live-reload activity vanished)")

        for field in COUNTER_FIELDS:
            # Compare only fields both sides carry (append-only schema:
            # an old baseline may predate a counter).
            if field not in o or field not in n:
                continue
            if o[field] != n[field]:
                message = (f"{name}: {field} {o[field]} -> "
                           f"{n[field]} (deterministic counter drift "
                           "= behavioral change)")
                (warnings if args.allow_counter_drift else failures).append(
                    message)

        # Serving counters: exact under virtual time (the simulated
        # schedule fully determines admission, shedding and deadline
        # outcomes — any drift is a front-door behavior change), advisory
        # when either run raced a wall clock.
        virtual_pair = (bool(old["protocol"].get("virtual_time"))
                        and bool(new["protocol"].get("virtual_time")))
        for field in SERVING_COUNTER_FIELDS:
            if field not in o or field not in n:
                continue
            if o[field] != n[field]:
                message = f"{name}: {field} {o[field]} -> {n[field]}"
                if virtual_pair:
                    message += (" (virtual-time serving counter drift "
                                "= behavioral change)")
                    (warnings if args.allow_counter_drift
                     else failures).append(message)
                elif (abs(n[field] - o[field]) / max(o[field], 1)) > 0.10:
                    warnings.append(message + " (advisory: wall-clock "
                                    "serving counters are load-timing "
                                    "dependent)")

        # Ingest-state counters: quiesced-point snapshots, exact by
        # construction — the bench pauses ingest at a fixed watermark
        # before recording, so any drift is a delta/merge behavior
        # change, not scheduling.
        for field in INGEST_COUNTER_FIELDS:
            if field not in o or field not in n:
                continue
            if o[field] != n[field]:
                message = (f"{name}: {field} {o[field]} -> {n[field]} "
                           "(quiesced ingest counter drift = behavioral "
                           "change)")
                (warnings if args.allow_counter_drift else failures).append(
                    message)

        # Freshness lag is ingest-ack-to-queryable wall clock — never
        # gated, but a large swell deserves a look.
        if o.get("freshness_lag_ms", 0) > 0 and "freshness_lag_ms" in n:
            pct = 100.0 * (n["freshness_lag_ms"] / o["freshness_lag_ms"] - 1.0)
            if pct > 50.0:
                warnings.append(f"{name}: freshness_lag_ms {pct:+.1f}% "
                                f"({o['freshness_lag_ms']:.3f} -> "
                                f"{n['freshness_lag_ms']:.3f} ms) — advisory, "
                                "wall-clock")

        if "goodput_qps" in o and "goodput_qps" in n and o["goodput_qps"] > 0:
            pct = 100.0 * (n["goodput_qps"] / o["goodput_qps"] - 1.0)
            if pct < -10.0:
                warnings.append(f"{name}: goodput_qps {pct:+.1f}% "
                                f"({o['goodput_qps']:.1f} -> "
                                f"{n['goodput_qps']:.1f}) — advisory")

        if not args.skip_timing and o.get("avg_ms_per_query", 0) > 0:
            pct = 100.0 * (n.get("avg_ms_per_query", 0) /
                           o["avg_ms_per_query"] - 1.0)
            if pct > args.max_regress_pct:
                failures.append(f"{name}: avg_ms_per_query regressed "
                                f"{pct:+.1f}% ({o['avg_ms_per_query']:.6f} -> "
                                f"{n['avg_ms_per_query']:.6f} ms)")

        # Per-query latency tail: gate only when both sides carry the
        # field (baselines recorded before p95_ms existed still work).
        if (not args.skip_timing and o.get("p95_ms", 0) > 0
                and "p95_ms" in n):
            pct = 100.0 * (n.get("p95_ms", 0) / o["p95_ms"] - 1.0)
            if pct > args.max_regress_pct:
                failures.append(f"{name}: p95_ms latency regressed "
                                f"{pct:+.1f}% ({o['p95_ms']:.6f} -> "
                                f"{n.get('p95_ms', 0):.6f} ms)")

        # Wall-clock advisory only when timing is meaningful for this pair
        # (same machine); --skip-timing declares it is not.
        if not args.skip_timing and o.get("ns_per_op", 0) > 0:
            pct = 100.0 * (n.get("ns_per_op", 0) / o["ns_per_op"] - 1.0)
            noise_gate = 3.0 * max(o.get("rsd_pct", 0.0), n.get("rsd_pct", 0.0))
            if pct > max(noise_gate, 1e-9):
                warnings.append(f"{name}: ns_per_op {pct:+.1f}% (noise gate "
                                f"{noise_gate:.1f}%) — advisory, wall-clock")

    for w in warnings:
        print(f"WARN: {w}")
    for f in failures:
        print(f"FAIL: {f}")
    shared = len(set(old_records) & set(new_records))
    print(f"compared {shared} records: "
          f"{len(failures)} failure(s), {len(warnings)} warning(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
