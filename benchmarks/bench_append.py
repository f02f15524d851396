"""Append refresh: the delta-maintenance perf-trajectory benchmark.

Materializes the SYN workload as an on-disk chunk store, runs SHARING
once with the delta-state cache enabled, then appends 1%/4%/5% batches
and times the refresh run after each against a from-scratch recompute
over the extended store.  Writes ``BENCH_append.json`` — the durable
baseline future PRs diff against (CI uploads it as an artifact).  The
run asserts bitwise-equal top-k and utilities per step, that every
refresh scanned only the appended rows, and that a repeat run after each
append is served warm from the never-invalidated result cache — so it
doubles as a bench-scale check of the append-path cache fix.
"""

import glob
import json
import os

from repro.bench.experiments import bench_append_refresh


def test_bench_append(benchmark):
    table = benchmark.pedantic(bench_append_refresh, rounds=1, iterations=1)
    print()
    print(table.to_text())
    steps = [r for r in table.rows if r["step"] != "cold"]
    assert len(steps) == 3
    assert all(r["wall_s"] > 0 for r in table.rows)
    # Refresh work is proportional to the delta, not the table: each step's
    # shared scan read the appended rows exactly once, and every query
    # carried its cached partial state forward.
    for row in steps:
        assert row["delta_hits"] == row["queries"] > 0
        assert row["rows_scanned"] == row["delta_rows"]
        assert row["warm_cache_hits"] > 0
    assert steps[0]["rows_scanned"] < steps[-1]["rows_scanned"]
    # The perf-trajectory entry was written.  A run smaller than an
    # existing committed baseline is diverted to a scale-suffixed sibling
    # instead of clobbering it.
    candidates = sorted(glob.glob("BENCH_append*.json"), key=os.path.getmtime)
    assert candidates
    with open(candidates[-1]) as handle:
        payload = json.load(handle)
    assert payload["bench"] == "append"
    assert payload["warm_hit_rate_positive"] is True
    assert len(payload["rows"]) == 3
