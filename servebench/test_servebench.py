"""Self-tests of the benchmark's own logic (no server is started).

Run from the repository root::

    python3 -m pytest servebench -q
"""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402
import workload  # noqa: E402


@pytest.fixture(scope="module")
def table():
    return workload.build_dataset(n_rows=3_000)


def _fake_response(seed: int, request: dict) -> dict:
    """Views over the request's dimensions, chosen by ``seed``."""
    rng = random.Random(f"{seed}:{json.dumps(request, sort_keys=True)}")
    dims = rng.sample(request["dimensions"], 3)
    return {"views": [{"dimension": d, "top_group": f"{d}_0{rng.randint(0, 1)}"} for d in dims]}


def _session(seed: int, table) -> list[dict]:
    openings = workload.opening_clauses(table, seed)
    drill = workload.DrillDown(openings[0], table.dimension_names(), random.Random(seed))
    requests, request = [], drill.request()
    while request is not None:
        requests.append(request)
        request = drill.advance(_fake_response(seed, request))
    return requests


def test_generator_is_deterministic_per_seed(table):
    assert _session(3, table) == _session(3, table)
    assert workload.opening_clauses(table, 3) == workload.opening_clauses(table, 3)
    assert workload.opening_clauses(table, 3) != workload.opening_clauses(table, 4)


def test_drill_down_reaches_its_depth_without_constrained_dimensions(table):
    requests = _session(5, table)
    assert len(requests) == workload.DEPTH
    for request in requests:
        constrained = {clause["column"] for clause in request["target"]}
        assert not constrained & set(request["dimensions"])
    assert len(requests[-1]["target"]) == workload.DEPTH + 1


def test_oracle_accepts_its_answer_and_rejects_corruptions(table):
    oracle = workload.Oracle(table)
    request = workload.recommend_request(
        [workload.SPLIT, workload.opening_clauses(table, 1)[0]], table.dimension_names()
    )
    views = [
        {"dimension": key[0], "measure": key[1], "func": key[2], "utility": utility, "top_group": top}
        for key, utility, top in oracle.answer(request)
    ]
    assert oracle.mismatch(request, {"views": views}) is None
    corruptions = [
        lambda v: v.__setitem__(0, {**v[0], "utility": v[0]["utility"] * (1 + 1e-6)}),
        lambda v: v.reverse(),
        lambda v: v.pop(),
        lambda v: v.__setitem__(0, {**v[0], "top_group": "no-such-group"}),
        lambda v: v.__setitem__(0, {**v[0], "measure": "no-such-measure"}),
    ]
    for corrupt in corruptions:
        broken = [dict(view) for view in views]
        corrupt(broken)
        assert oracle.mismatch(request, {"views": broken}) is not None


@pytest.mark.parametrize(
    "n, expected",
    [
        (0, None),
        (10, None),  # p50 of 10 leaves only 5 beyond
        (19, None),  # p50 rank 10 leaves 9 beyond
        (20, 50.0),  # p50 rank 10 leaves exactly 10 beyond
        (39, 50.0),  # p75 rank 30 leaves 9 beyond
        (40, 75.0),
        (100, 90.0),  # p90 rank 90 leaves exactly 10
        (199, 90.0),  # p95 rank 190 leaves 9
        (200, 95.0),
        (999, 95.0),  # p99 rank 990 leaves 9
        (1000, 99.0),
        (10**6, 99.9),
    ],
)
def test_tail_percentile_edges(n, expected):
    assert summary.tail_percentile(n) == expected


def test_tail_value_has_ten_samples_beyond():
    values = list(range(100, 0, -1))
    percentile, value, beyond = summary.tail(values)
    assert (percentile, value, beyond) == (90.0, 90, 10)
    assert sum(v > value for v in values) == 10
    assert summary.tail([1.0] * 5) == (None, None, 0)


def test_self_time_subtracts_nested_spans():
    now = [0.0]
    tracer = spans.Tracer(clock=lambda: now[0])

    def advance(seconds):
        now[0] += seconds

    def leaf():
        advance(1.0)

    def middle():
        advance(1.0)
        tracer.call("leaf", leaf)
        tracer.call("middle", advance, 0.5)  # same name: folded into this span
        tracer.count("things", 3)

    def root():
        advance(2.0)
        tracer.call("middle", middle)
        tracer.call("leaf", leaf)
        advance(0.25)

    tracer.call("root", root)
    (record,) = tracer.drain()
    assert record["root"] == "root"
    assert record["dur"] == pytest.approx(5.75)
    assert record["self"] == pytest.approx({"root": 2.25, "middle": 1.5, "leaf": 2.0})
    assert sum(record["self"].values()) == pytest.approx(record["dur"])
    assert record["count"] == {"root": 1, "middle": 1, "leaf": 2, "things": 3}
    assert tracer.drain() == []


def test_benchmark_json_matches_the_metrics_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
