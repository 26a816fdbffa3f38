#!/usr/bin/env python3
"""Checks one traced e2ebench smoke result.

Usage: check_e2e_smoke.py RESULT_FILE

RESULT_FILE is the stdout of `e2ebench/run.py ... --trace 1`; its last
line is the result JSON. Exits non-zero unless the run is `correct` with
0 failed operations, makes at most 2,000 search allocations per read
(`search.allocs_per_req`; about 1,450 on `paper_read` and 1,650 on
`mmap_cache`), rejects at most 50 candidates per read after an APL
fetch (`search.activity_rejected`, the activity sketch's false
positives; about 13) and submits at most 2 executor tasks per read
(`engine.tasks_per_req`: the request task plus one sweep for each shard
but the first at the benchmark's 2 shards; the request task runs the
batch and shard 0 itself, so submitting every shard makes 3 and a batch
task nested between them 4).
"""

import json
import sys

MAX_ALLOCS_PER_REQ = 2000
MAX_ACTIVITY_REJECTED = 50
MAX_TASKS_PER_REQ = 2


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    lines = open(argv[1]).read().strip().splitlines()
    result = json.loads(lines[-1])
    allocs = result["metrics"]["search.allocs_per_req"]["value"]
    rejected = result["metrics"]["search.activity_rejected"]["value"]
    tasks = result["metrics"]["engine.tasks_per_req"]["value"]
    print(json.dumps({k: v for k, v in result.items() if k != "metrics"}))
    print(f"search.allocs_per_req = {allocs:.0f}")
    print(f"search.activity_rejected = {rejected:.0f}")
    print(f"engine.tasks_per_req = {tasks:g}")
    if result.get("correct") is not True or result.get("failed") != 0:
        sys.exit("e2ebench: wrong answers or failed operations")
    if allocs > MAX_ALLOCS_PER_REQ:
        sys.exit(f"e2ebench: {allocs:.0f} search allocations per read "
                 f"(limit {MAX_ALLOCS_PER_REQ})")
    if rejected > MAX_ACTIVITY_REJECTED:
        sys.exit(f"e2ebench: {rejected:.0f} APL-rejected candidates "
                 f"per read (limit {MAX_ACTIVITY_REJECTED})")
    if tasks > MAX_TASKS_PER_REQ:
        sys.exit(f"e2ebench: {tasks:g} executor tasks per read "
                 f"(limit {MAX_TASKS_PER_REQ})")


if __name__ == "__main__":
    main(sys.argv)
