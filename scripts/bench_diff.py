#!/usr/bin/env python3
"""Gate a BENCH_*.json artifact's deterministic fields against a baseline.

Each gated record field has one row in GATES; the rules, the refusals
and the reasons are in docs/BENCH_PROTOCOL.md ("scripts/bench_diff.py").
Wall-clock fields are not compared: speed claims go through
scripts/ab.py. Unknown keys are ignored, and a gated field present on
one side only is skipped, so older baselines keep gating newer
candidates.

Usage:
  bench_diff.py BASELINE.json CANDIDATE.json [--allow-counter-drift]

Exit codes: 0 = no drift, 1 = drift, 2 = refused (not the same
experiment).
"""

import argparse
import json
import sys


def vanished(old, new):
    return old > 0 and new == 0


# The one place a record field's gate lives: field -> (class, when a
# non-exact comparison warns). The bench that emits a field owns it.
#   exact        any change fails: scheduling-independent work counters,
#                shard visits (index_pins = queries x shards) and the
#                ingest state bench_ingest records at quiesced points.
#   exact_at_t1  exact while the block access sequence is deterministic
#                (threads 1, equal warmup and repeats, block_size on
#                both sides); otherwise advisory.
#   advisory     interleaving-dependent: never fails, warns on its rule.
GATES = {
    "candidates_verified": ("exact", None),
    "tas_pruned": ("exact", None),
    "distance_computations": ("exact", None),
    "disk_reads": ("exact", None),
    "index_pins": ("exact", None),
    "ingested_checkins": ("exact", None),
    "delta_trajectories": ("exact", None),
    "merges_completed": ("exact", None),
    "generation": ("exact", None),
    "blocks_read": ("exact_at_t1", lambda o, n: abs(n - o) / max(o, 1) > 0.10),
    "cache_hit_rate": ("advisory", lambda o, n: abs(n - o) > 0.02),
    # A background reloader's activity: the one regression these show
    # reliably is the live machinery no longer being exercised.
    "shard_reloads": ("advisory", vanished),
    "invalidated_blocks": ("advisory", vanished),
}
# Workload-defining protocol fields: a mismatch makes the diff meaningless.
PROTOCOL_FIELDS = ("scale", "queries_per_point", "threads")


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
    names = [r["name"] for r in payload["results"]]
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        refuse(f"{path} has duplicate record names ({', '.join(dupes)}); "
               "a keyed diff would silently shadow records")
    return payload


def check_compatible(old, new):
    if old["bench"] != new["bench"]:
        refuse(f"different benches: {old['bench']!r} vs {new['bench']!r}")
    for field in PROTOCOL_FIELDS:
        a, b = old["protocol"].get(field), new["protocol"].get(field)
        if a != b:
            refuse(f"protocol.{field} differs ({a} vs {b}); the runs are "
                   "not the same experiment")
    # `shards` is optional (absent on un-sharded benches); when both
    # sides declare it, it must match.
    sa, sb = old["protocol"].get("shards"), new["protocol"].get("shards")
    if sa is not None and sb is not None and sa != sb:
        refuse(f"protocol.shards differs ({sa} vs {sb}); per-shard work "
               "scales with the partition")


def check_record(name, o, n):
    """Refuses a record pair whose counters count different things."""
    if "shards" in o and "shards" in n and o["shards"] != n["shards"]:
        refuse(f"{name}: shards differs ({o['shards']} vs {n['shards']}); "
               "per-shard work scales with the partition")
    # block_size 0 (or absent) means "not reported" and demotes
    # blocks_read to advisory, so one-sided reporting is refused too.
    bs_old, bs_new = o.get("block_size", 0), n.get("block_size", 0)
    if bs_old and bs_new and bs_old != bs_new:
        refuse(f"{name}: block_size differs ({bs_old} vs {bs_new}); "
               "block-granular counters count different units")
    if ("blocks_read" in o or "blocks_read" in n) and bool(bs_old) != bool(bs_new):
        refuse(f"{name}: block_size reported on one side only "
               f"({bs_old} vs {bs_new}); blocks_read would lose its "
               "exact gate")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--allow-counter-drift", action="store_true",
                        help="downgrade exact-field drift from failure to "
                             "warning (for intentional algorithm changes)")
    args = parser.parse_args()

    old = load(args.baseline)
    new = load(args.candidate)
    check_compatible(old, new)

    old_records = {r["name"]: r for r in old["results"]}
    new_records = {r["name"]: r for r in new["results"]}
    failures, warnings = [], []

    missing = sorted(set(old_records) - set(new_records))
    added = sorted(set(new_records) - set(old_records))
    if missing:
        failures.append(f"records vanished from candidate: {', '.join(missing)}")
    if added:
        warnings.append(f"new records (no baseline): {', '.join(added)}")

    shared = sorted(set(old_records) & set(new_records))
    for name in shared:
        o, n = old_records[name], new_records[name]
        check_record(name, o, n)
        # blocks_read reports the last timed batch, whose cache starting
        # state depends on every batch before it.
        block_sequence_fixed = (old["protocol"].get("threads") == 1
                                and old["protocol"].get("warmup")
                                == new["protocol"].get("warmup")
                                and o.get("repeats") == n.get("repeats")
                                and o.get("block_size") and n.get("block_size"))
        for field, (gate, warns) in GATES.items():
            if field not in o or field not in n:
                continue
            a, b = o[field], n[field]
            message = f"{name}: {field} {a} -> {b}"
            if gate == "exact" or (gate == "exact_at_t1" and block_sequence_fixed):
                if a != b:
                    (warnings if args.allow_counter_drift else failures).append(
                        message + " (exact field drifted = behavioral change)")
            elif warns(a, b):
                warnings.append(message + " (advisory)")

    for w in warnings:
        print(f"WARN: {w}")
    for f in failures:
        print(f"FAIL: {f}")
    print(f"compared {len(shared)} records: "
          f"{len(failures)} failure(s), {len(warnings)} warning(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
