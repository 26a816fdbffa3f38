#!/usr/bin/env python3
"""Tests for bench_diff.py: one case per gate class and one per refusal.

Each case mutates a committed baseline in a temp dir and runs the script
on the pair, checking its exit code (0 pass, 1 drift, 2 refused) and the
record and field its WARN/FAIL lines name.

  python3 scripts/bench_diff_test.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "bench_diff.py")
BASELINES = os.path.join(ROOT, "bench", "baselines")


def baseline(name):
    with open(os.path.join(BASELINES, name), encoding="utf-8") as f:
        return json.load(f)


def record(payload, predicate):
    return next(r for r in payload["results"] if predicate(r))


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def diff(self, old, new, *flags):
        """Runs the script on two payloads; returns (exit, stdout lines)."""
        paths = []
        for label, payload in (("old", old), ("new", new)):
            path = os.path.join(self.tmp.name, f"{label}.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(payload, f)
            paths.append(path)
        proc = subprocess.run([sys.executable, SCRIPT, *paths, *flags],
                              capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout.splitlines()

    def mutated(self, name, edit):
        """Returns (baseline payload, copy with `edit` applied)."""
        old = baseline(name)
        new = copy.deepcopy(old)
        edit(new)
        return old, new

    def assert_flagged(self, lines, kind, name, field):
        prefix = f"{kind}: {name}: {field} "
        self.assertTrue(any(line.startswith(prefix) for line in lines),
                        f"no line starting {prefix!r} in {lines}")

    # ------------------------------------------------------- gate classes

    def test_identical_pair_passes(self):
        for name in sorted(os.listdir(BASELINES)):
            with self.subTest(name):
                code, _ = self.diff(baseline(name), baseline(name))
                self.assertEqual(code, 0)

    def test_exact_counter_bump_fails_or_warns_when_allowed(self):
        target = "LA/ATSQ/GAT/k=5"

        def bump(p):
            record(p, lambda r: r["name"] == target)["candidates_verified"] += 1

        old, new = self.mutated("BENCH_fig3_effect_k.t4.json", bump)
        code, lines = self.diff(old, new)
        self.assertEqual(code, 1)
        self.assert_flagged(lines, "FAIL", target, "candidates_verified")
        code, lines = self.diff(old, new, "--allow-counter-drift")
        self.assertEqual(code, 0)
        self.assert_flagged(lines, "WARN", target, "candidates_verified")

    def test_ingest_counter_bump_fails(self):
        target = "NY/ATSQ/merged"

        def bump(p):
            record(p, lambda r: r["name"] == target)["merges_completed"] += 1

        code, lines = self.diff(*self.mutated("BENCH_ingest.t4.json", bump))
        self.assertEqual(code, 1)
        self.assert_flagged(lines, "FAIL", target, "merges_completed")

    def test_blocks_read_is_exact_at_t1_and_advisory_at_t4(self):
        def bump(p):
            rec = record(p, lambda r: r.get("block_size") and "blocks_read" in r)
            rec["blocks_read"] = 2 * rec["blocks_read"] + 1
            return rec["name"]

        for name, code_want, kind in (("BENCH_storage_tier.t1.json", 1, "FAIL"),
                                      ("BENCH_storage_tier.t4.json", 0, "WARN")):
            with self.subTest(name):
                old = baseline(name)
                new = copy.deepcopy(old)
                target = bump(new)
                code, lines = self.diff(old, new)
                self.assertEqual(code, code_want)
                self.assert_flagged(lines, kind, target, "blocks_read")

    def test_shard_reloads_going_to_zero_warns(self):
        target = "NY/ATSQ/reload=live"

        def stop(p):
            record(p, lambda r: r["name"] == target)["shard_reloads"] = 0

        code, lines = self.diff(*self.mutated("BENCH_live_reload.t1.json", stop))
        self.assertEqual(code, 0)
        self.assert_flagged(lines, "WARN", target, "shard_reloads")

    def test_cache_hit_rate_drop_warns(self):
        old = baseline("BENCH_storage_tier.t1.json")
        new = copy.deepcopy(old)
        rec = record(new, lambda r: r.get("cache_hit_rate", 0) >= 0.05)
        rec["cache_hit_rate"] -= 0.05
        code, lines = self.diff(old, new)
        self.assertEqual(code, 0)
        self.assert_flagged(lines, "WARN", rec["name"], "cache_hit_rate")

    def test_wall_clock_is_not_compared(self):
        def slow(p):
            for r in p["results"]:
                r["ns_per_op"] *= 10

        code, lines = self.diff(*self.mutated("BENCH_abl_lambda.t1.json", slow))
        self.assertEqual(code, 0)
        self.assertFalse([l for l in lines if l.startswith(("WARN", "FAIL"))])

    # ----------------------------------------------------- record set

    def test_vanished_record_fails(self):
        old, new = self.mutated("BENCH_abl_lambda.t1.json",
                                lambda p: p["results"].pop(0))
        code, lines = self.diff(old, new)
        self.assertEqual(code, 1)
        self.assertTrue(any(l.startswith("FAIL: records vanished") for l in lines))

    def test_added_record_warns(self):
        def add(p):
            extra = copy.deepcopy(p["results"][0])
            extra["name"] += "/extra"
            p["results"].append(extra)

        code, lines = self.diff(*self.mutated("BENCH_abl_lambda.t1.json", add))
        self.assertEqual(code, 0)
        self.assertTrue(any(l.startswith("WARN: new records") for l in lines))

    # -------------------------------------------------------- refusals

    def assert_refused(self, old, new):
        code, _ = self.diff(old, new)
        self.assertEqual(code, 2)

    def test_block_size_dropped_or_changed_is_refused(self):
        def cached(p):
            return record(p, lambda r: r.get("block_size") and "blocks_read" in r)

        for edit in (lambda p: cached(p).pop("block_size"),
                     lambda p: cached(p).update(block_size=0),
                     lambda p: cached(p).update(block_size=4096)):
            self.assert_refused(*self.mutated("BENCH_storage_tier.t1.json", edit))

    def test_shards_change_is_refused(self):
        def record_shards(p):
            rec = record(p, lambda r: "shards" in r)
            rec["shards"] += 1

        self.assert_refused(*self.mutated("BENCH_live_reload.t1.json",
                                          record_shards))
        old = baseline("BENCH_abl_lambda.t1.json")
        old["protocol"]["shards"] = 2
        new = copy.deepcopy(old)
        new["protocol"]["shards"] = 3
        self.assert_refused(old, new)

    def test_protocol_mismatch_is_refused(self):
        for field, value in (("scale", 0.02), ("queries_per_point", 6),
                             ("threads", 4)):
            with self.subTest(field):
                self.assert_refused(*self.mutated(
                    "BENCH_abl_lambda.t1.json",
                    lambda p: p["protocol"].update({field: value})))

    def test_duplicate_name_is_refused(self):
        old, new = self.mutated(
            "BENCH_abl_lambda.t1.json",
            lambda p: p["results"].append(copy.deepcopy(p["results"][0])))
        self.assert_refused(old, new)
        self.assert_refused(new, old)


if __name__ == "__main__":
    unittest.main()
