#!/usr/bin/env python3
"""Checks one e2ebench smoke result.

Usage: check_e2e_smoke.py RESULT_FILE

RESULT_FILE is the stdout of `e2ebench/run.py ...`; its last line is the
result JSON and the line before it the host stamp, which names the
workload and whether the run was traced. Every run must be `correct`
with 0 failed operations.

A traced run (`--trace 1`) must also make at most 2,000 search
allocations per read (`search.allocs_per_req`; about 1,450 on
`paper_read` and 1,650 on `mmap_cache`), reject at most 50 candidates
per read after an APL fetch (`search.activity_rejected`, the activity
sketch's false positives; about 13) and submit at most 2 executor tasks
per read (`engine.tasks_per_req`: the request task plus one sweep for
each shard but the first at the benchmark's 2 shards; the request task
runs the batch and shard 0 itself, so submitting every shard makes 3
and a batch task nested between them 4).

An untraced run (`--trace 0`) of a workload in MAX_PEAK_RSS_MB must
also peak at or below that many MB of server RSS (`peak_rss_mb`). For
`live_rw` at `--seconds 3` the server peaked at 212-243 MB with shared
trajectory points, and at 675 MB when every shard cut, merge and ingest
batch copied the points; the limit sits between the two.
"""

import json
import sys

MAX_ALLOCS_PER_REQ = 2000
MAX_ACTIVITY_REJECTED = 50
MAX_TASKS_PER_REQ = 2
MAX_PEAK_RSS_MB = {"live_rw": 420}


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    lines = open(argv[1]).read().strip().splitlines()
    result = json.loads(lines[-1])
    stamp = json.loads(lines[-2])["stamp"] if len(lines) > 1 else {}
    metrics = result["metrics"]
    print(json.dumps({k: v for k, v in result.items() if k != "metrics"}))
    if result.get("correct") is not True or result.get("failed") != 0:
        sys.exit("e2ebench: wrong answers or failed operations")

    if stamp.get("trace") == 0:
        rss = metrics["peak_rss_mb"]["value"]
        limit = MAX_PEAK_RSS_MB.get(stamp.get("workload"))
        print(f"peak_rss_mb = {rss:.0f} (limit {limit})")
        if limit is not None and rss > limit:
            sys.exit(f"e2ebench: server peaked at {rss:.0f} MB of RSS "
                     f"(limit {limit})")
        return

    allocs = metrics["search.allocs_per_req"]["value"]
    rejected = metrics["search.activity_rejected"]["value"]
    tasks = metrics["engine.tasks_per_req"]["value"]
    print(f"search.allocs_per_req = {allocs:.0f}")
    print(f"search.activity_rejected = {rejected:.0f}")
    print(f"engine.tasks_per_req = {tasks:g}")
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
