"""Serving benchmark for the default request path of the SeeDB service.

Usage, from the repository root::

    python3 servebench/run.py --workload explore --seed 1 --seconds 10 --trace 0

Each workload launches the real server command (``python -m
repro.service`` or ``python -m repro.service.frontend``) with its default
settings, drives it from two threads with one keep-alive
``ServiceClient`` each, checks every answer against an in-process oracle,
and prints one JSON object as its last line of output.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the workload once
untraced and once with layer spans (``traced_server.py``) and reports the
per-layer metrics.  See ``servebench/README.md`` for the workloads and the
layer -> metric -> workload table.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import inspect
import json
import os
import platform
import random
import shutil
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import procs  # noqa: E402
import summary  # noqa: E402
from procs import ROOT, SRC, WORK, ServerProcess  # noqa: E402

sys.path.insert(0, str(SRC))
try:
    import numpy
    from repro.db import chunks
    from repro.exceptions import ServiceError
    from repro.service.client import ServiceClient

    import workload
    from workload import DATASET, SCALE, SPLIT, DrillDown, recommend_request
except ImportError as exc:  # a checkout without the program to measure
    sys.exit(f"servebench: cannot import the program under {SRC}: {exc}")

#: Server launches per run; ``setup_s`` is their median.
N_SETUPS = 3
N_CLIENTS = 2
#: revisit: drill-down scripts recorded in the warm-up pass and replayed.
N_SCRIPTS = 8
#: live: the writer's schedule and batch size, and the reader's cycle.
APPEND_INTERVAL_S = 0.5
APPEND_ROWS = 250
N_LIVE_READS = 48
#: live: reads re-computed by the prefix oracle (a seeded sample).
N_LIVE_CHECKS = 12
LIVE_DATASET = "diab_live"
RECOMMEND_ROUTE = "POST /v1/sessions/{id}/recommend"
MIB = float(1 << 20)

END_TO_END = [
    ("setup_s", "s"),
    ("recommend_p50_ms", "ms"),
    ("recommend_rps", "1/s"),
    ("server_cpu_ms_per_op", "ms"),
    ("server_rss_mib", "MiB"),
]

#: ``(name, unit, better)``; the span-derived ones come from the traced
#: phase, the rest from the untraced phase of the same invocation.
PER_LAYER = [
    ("recommend_tail_ms", "ms", "lower"),
    ("append_p50_ms", "ms", "lower"),
    ("append_tail_ms", "ms", "lower"),
    ("gen.late_ms", "ms", "lower"),
    ("frontend.hop_ms", "ms", "lower"),
    ("server.http_ms", "ms", "lower"),
    ("server.recommend_self_ms", "ms", "lower"),
    ("server.append_self_ms", "ms", "lower"),
    ("engine.run_self_ms", "ms", "lower"),
    ("sharing.plan_ms", "ms", "lower"),
    ("sharing.queries_per_op", "count", "lower"),
    ("cache.fingerprint_ms", "ms", "lower"),
    ("cache.probe_ms", "ms", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.delta_hit_ratio", "ratio", "higher"),
    ("state.utility_ms", "ms", "lower"),
    ("state.utility_calls_per_op", "count", "lower"),
    ("parallel.batch_ms", "ms", "lower"),
    ("backends.exec_ms", "ms", "lower"),
    ("backends.rows_per_op", "rows", "lower"),
    ("backends.bytes_per_op", "B", "lower"),
    ("backends.shared_scan_share", "ratio", "higher"),
    ("chunks.append_ms", "ms", "lower"),
    ("chunks.write_bytes_per_user_byte", "ratio", "lower"),
    ("registry.refresh_ms", "ms", "lower"),
    ("table.refresh_ms", "ms", "lower"),
    ("proc.cpu_ms_per_op.server", "ms", "lower"),
    ("proc.cpu_ms_per_op.frontend", "ms", "lower"),
    ("proc.cpu_ms_per_op.workers", "ms", "lower"),
    ("proc.cpu_ms_per_op.loadgen", "ms", "lower"),
    ("proc.rss_mib.server", "MiB", "lower"),
    ("proc.rss_mib.frontend", "MiB", "lower"),
    ("proc.rss_mib.workers", "MiB", "lower"),
    ("trace.client_ms", "ms", "lower"),
    ("trace.unaccounted_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

#: Span names whose self times make up a recommend, outermost first.
RECOMMEND_LAYERS = [
    ("server.recommend_self_ms", "server.recommend"),
    ("engine.run_self_ms", "engine.run"),
    ("sharing.plan_ms", "sharing.plan"),
    ("cache.fingerprint_ms", "cache.fingerprint"),
    ("cache.probe_ms", "cache.probe"),
    ("state.utility_ms", "state.utility"),
    ("parallel.batch_ms", "parallel.batch"),
    ("backends.exec_ms", "backends.exec"),
]
APPEND_LAYERS = [
    ("server.append_self_ms", "server.append"),
    ("chunks.append_ms", "chunks.append"),
    ("registry.refresh_ms", "registry.refresh"),
    ("table.refresh_ms", "table.refresh"),
]


# --------------------------------------------------------------------------- #
# operation log
# --------------------------------------------------------------------------- #


@dataclass
class Op:
    """One request: ``start`` is when it was due (open loop) or sent."""

    kind: str
    start: float
    end: float
    ok: bool
    request: Any = None
    response: Any = None
    error: str | None = None
    sent: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Log:
    """What one load-generator thread did."""

    ops: list[Op] = field(default_factory=list)
    #: Recommend steps completed by each drill-down session.
    session_steps: list[int] = field(default_factory=list)

    def call(
        self,
        kind: str,
        fn: Callable[[], Any],
        request: Any = None,
        due: float | None = None,
    ) -> Any:
        """Run ``fn`` as one operation; its response, or None if it failed."""

        sent = time.perf_counter()
        start = sent if due is None else due
        try:
            response = fn()
        except (ServiceError, OSError, http.client.HTTPException, ValueError) as exc:
            self.ops.append(
                Op(kind, start, time.perf_counter(), False, request, None,
                   f"{type(exc).__name__}: {exc}", sent)
            )
            return None
        self.ops.append(Op(kind, start, time.perf_counter(), True, request, response, None, sent))
        return response


Loop = Callable[[Any, float, float, Log], None]


@dataclass
class Phase:
    """One measured stretch of load against one server."""

    ops: list[Op]
    session_steps: list[int]
    wall_s: float
    cpu_s: dict[str, float]
    peak_rss: dict[str, int]
    loadgen_cpu_s: float
    stats_before: dict
    stats_after: dict
    records: list[dict] = field(default_factory=list)

    def latencies(self, kind: str) -> list[float]:
        return [op.seconds for op in self.ops if op.kind == kind and op.ok]

    @property
    def completed(self) -> int:
        return sum(op.ok for op in self.ops)


# --------------------------------------------------------------------------- #
# servers and phases
# --------------------------------------------------------------------------- #


def launch(spec: "WorkloadSpec", name: str, traced: bool) -> tuple[ServerProcess, Any, str, float]:
    """Start the workload's server; ``(server, client, session id, setup_s)``."""

    argv = list(spec.server_args(name))
    trace_dir = None
    if traced:
        trace_dir = procs.fresh_dir(WORK / f"{name}.trace")
        role = "frontend" if spec.frontend else "server"
        argv = [str(HERE / "traced_server.py"), role, *argv[2:]]
    server = ServerProcess(argv, name, trace_dir)
    launched = server.start()
    try:
        client = ServiceClient("127.0.0.1", server.port(), timeout=120.0)
        session = client.create_session(spec.dataset)
        setup_s = time.perf_counter() - launched
        server.find_roles(client.stats())
    except BaseException:
        server.stop()
        raise
    return server, client, session.session_id, setup_s


def collect_records(server: ServerProcess) -> list[dict]:
    """Ask every server process for its span records since the last ask."""
    paths = {pid: server.trace_dir / f"{pid}.json" for pid in server.pids}
    for path in paths.values():
        path.unlink(missing_ok=True)
    server.signal_all(signal.SIGUSR1)
    records: list[dict] = []
    deadline = time.monotonic() + 30.0
    for pid, path in paths.items():
        while not path.exists():
            if time.monotonic() > deadline:
                raise RuntimeError(f"no trace dump from pid {pid}")
            time.sleep(0.005)
        records.extend(json.loads(path.read_text())["records"])
    return records


def run_phase(server: ServerProcess, loops: list[Loop], seconds: float | None) -> Phase:
    """Run ``loops`` on their own threads and clients until they return.

    Loops stop starting new work once ``seconds`` have passed (None: they
    run their fixed work).  CPU, peak memory, ``/v1/stats`` and, for a
    traced server, span records are taken around the phase.
    """

    port = server.port()
    clients = [ServiceClient("127.0.0.1", port, timeout=120.0) for _ in loops]
    probe = ServiceClient("127.0.0.1", port, timeout=120.0)
    logs = [Log() for _ in loops]
    errors: list[BaseException] = []
    stats_before = probe.stats()
    if server.trace_dir is not None:
        collect_records(server)
    cpu_before = server.cpu_by_role()
    gen_before = procs.cpu_seconds(os.getpid())
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else float("inf")

    def body(loop: Loop, client: Any, log: Log) -> None:
        try:
            loop(client, start, deadline, log)
        except BaseException as exc:  # re-raised on the main thread below
            errors.append(exc)

    threads = [
        threading.Thread(target=body, args=(loop, client, log), name=f"loadgen-{i}")
        for i, (loop, client, log) in enumerate(zip(loops, clients, logs))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    gen_cpu = procs.cpu_seconds(os.getpid()) - gen_before
    cpu_after = server.cpu_by_role()
    records = collect_records(server) if server.trace_dir is not None else []
    stats_after = probe.stats()
    for client in (*clients, probe):
        client.close()
    if errors:
        raise errors[0]
    ops = sorted((op for log in logs for op in log.ops), key=lambda op: op.start)
    return Phase(
        ops=ops,
        session_steps=[s for log in logs for s in log.session_steps],
        wall_s=wall,
        cpu_s={role: cpu_after[role] - cpu_before[role] for role in cpu_after},
        peak_rss=server.peak_rss_by_role(),
        loadgen_cpu_s=gen_cpu,
        stats_before=stats_before,
        stats_after=stats_after,
        records=records,
    )


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #


class WorkloadSpec:
    """A workload: which server, which loops, how answers are checked."""

    frontend = False
    dataset = DATASET

    def __init__(self, seed: int, seconds: float) -> None:

        self.seed = seed
        self.seconds = seconds
        self.table = workload.build_dataset()
        self.dimensions = tuple(self.table.dimension_names())
        self.openings = workload.opening_clauses(self.table, seed)
        self._oracle = None

    def server_args(self, name: str) -> list[str]:

        return ["-m", "repro.service", "--port", "0", "--datasets", DATASET, "--scale", SCALE]

    def prepare_run(self) -> None:
        """Per-run state written before the server starts (not in setup_s)."""

    def warm_up(self, server: ServerProcess, client: Any, session_id: str) -> list[Op]:
        """Untimed requests before the timed phase; returns them for checking."""

        log = Log()
        request = recommend_request([SPLIT], self.dimensions)
        log.call("recommend", lambda: client.recommend_raw(session_id, request), request)
        return log.ops

    def loops(self) -> list[Loop]:
        raise NotImplementedError

    def oracle(self):

        if self._oracle is None:
            self._oracle = workload.Oracle(self.table)
        return self._oracle

    def check(self, ops: list[Op]) -> tuple[int, int, list[str]]:
        """``(answers checked, wrong, first problems)`` over ``ops``."""
        oracle = self.oracle()
        wrong, problems, checked = 0, [], 0
        for op in ops:
            if op.kind != "recommend" or not op.ok:
                continue
            checked += 1
            problem = oracle.mismatch(op.request, op.response)
            if problem is not None:
                wrong += 1
                problems.append(problem)
        return checked, wrong, problems[:5]


class Explore(WorkloadSpec):
    """First-time drill-downs: distinct targets, mostly cache misses."""

    def loops(self) -> list[Loop]:

        def make(index: int) -> Loop:
            openings = self.openings[index::N_CLIENTS]
            rng = random.Random(f"{self.seed}:{index}")

            def loop(client: Any, start: float, deadline: float, log: Log) -> None:
                n = 0
                while time.perf_counter() < deadline:
                    opening = openings[n % len(openings)]
                    n += 1
                    drill_down(client, log, DrillDown(opening, self.dimensions, rng), self.dataset)

            return loop

        return [make(i) for i in range(N_CLIENTS)]


def drill_down(client: Any, log: Log, drill: Any, dataset: str) -> list[dict]:
    """Run one drill-down session; returns the requests it sent."""
    info = log.call("create", lambda: client.create_session(dataset))
    if info is None:
        return []
    sent = []
    request = drill.request()
    while request is not None:
        response = log.call(
            "recommend", lambda: client.recommend_raw(info.session_id, request), request
        )
        if response is None:
            break
        sent.append(request)
        request = drill.advance(response)
    log.session_steps.append(drill.steps)
    return sent


class Revisit(WorkloadSpec):
    """Replayed drill-downs through the sharded front-end: cache hits."""

    frontend = True

    def server_args(self, name: str) -> list[str]:

        l2 = procs.fresh_dir(WORK / f"{name}.l2")
        return [
            "-m", "repro.service.frontend", "--port", "0", "--workers", str(N_CLIENTS),
            "--datasets", DATASET, "--scale", SCALE, "--l2-cache-dir", str(l2),
        ]

    def warm_up(self, server: ServerProcess, client: Any, session_id: str) -> list[Op]:

        self.scripts: list[list[dict]] = [[] for _ in range(N_SCRIPTS)]

        def make(index: int) -> Loop:
            def loop(client: Any, start: float, deadline: float, log: Log) -> None:
                for i in range(index, N_SCRIPTS, N_CLIENTS):
                    rng = random.Random(f"{self.seed}:script:{i}")
                    drill = DrillDown(self.openings[i], self.dimensions, rng)
                    self.scripts[i] = drill_down(client, log, drill, self.dataset)

            return loop

        return run_phase(server, [make(i) for i in range(N_CLIENTS)], None).ops

    def loops(self) -> list[Loop]:
        def make(index: int) -> Loop:
            def loop(client: Any, start: float, deadline: float, log: Log) -> None:
                n = index * (N_SCRIPTS // N_CLIENTS)
                while time.perf_counter() < deadline:
                    script = self.scripts[n % N_SCRIPTS]
                    n += 1
                    info = log.call("create", lambda: client.create_session(self.dataset))
                    if info is None:
                        continue
                    steps = 0
                    for request in script:
                        steps += log.call(
                            "recommend",
                            lambda: client.recommend_raw(info.session_id, request),
                            request,
                        ) is not None
                    log.session_steps.append(steps)

            return loop

        return [make(i) for i in range(N_CLIENTS)]


class Live(WorkloadSpec):
    """Appends on a fixed schedule beside a closed-loop reader."""

    dataset = LIVE_DATASET

    def __init__(self, seed: int, seconds: float) -> None:

        super().__init__(seed, seconds)
        n_batches = int(seconds / APPEND_INTERVAL_S) + 2
        self.appended = workload.build_dataset(seed=10_000 + seed, n_rows=n_batches * APPEND_ROWS)
        self.batches = workload.append_batches(self.appended, APPEND_ROWS)
        self.reads = [
            recommend_request([SPLIT, opening], self.dimensions)
            for opening in self.openings[:N_LIVE_READS]
        ]
        self.store = WORK / "live_store"
        self._prefix_oracle = None

    def server_args(self, name: str) -> list[str]:

        return [
            "-m", "repro.service", "--port", "0", "--datasets", DATASET,
            "--data-dir", str(self.store),
        ]

    def prepare_run(self) -> None:

        shutil.rmtree(self.store, ignore_errors=True)
        chunks.write_table(
            self.table.slice_rows(0, self.table.nrows, name=LIVE_DATASET),
            self.store,
            split_column=SPLIT[0],
            target_value=SPLIT[1],
            other_value="no",
        )

    def warm_up(self, server: ServerProcess, client: Any, session_id: str) -> list[Op]:
        """Read every request once, so timed reads refresh by delta, not cold."""
        log = Log()
        for request in self.reads:
            log.call("recommend", lambda: client.recommend_raw(session_id, request), request)
        return log.ops

    def loops(self) -> list[Loop]:
        def writer(client: Any, start: float, deadline: float, log: Log) -> None:
            path = f"/datasets/{LIVE_DATASET}/append"
            for i, rows in enumerate(self.batches):
                due = start + i * APPEND_INTERVAL_S
                if due >= deadline:
                    break
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                log.call("append", lambda: client.call("POST", path, {"rows": rows}), i, due)

        def reader(client: Any, start: float, deadline: float, log: Log) -> None:
            info = log.call("create", lambda: client.create_session(LIVE_DATASET))
            if info is None:
                return
            n = 0
            while time.perf_counter() < deadline:
                request = self.reads[n % len(self.reads)]
                n += 1
                log.call(
                    "recommend", lambda: client.recommend_raw(info.session_id, request), request
                )

        return [writer, reader]

    def check(self, ops: list[Op]) -> tuple[int, int, list[str]]:
        """Appends must land in order; sampled reads must match some prefix.

        A read may have run against any row count the store held while it
        was in flight: from the appends acknowledged before it was sent to
        the appends sent before it returned.
        """

        if self._prefix_oracle is None:
            self._prefix_oracle = workload.PrefixOracle(self.table, self.appended)
        base = self.table.nrows
        appends = [op for op in ops if op.kind == "append"]
        wrong, problems = 0, []
        for op in appends:
            if op.ok and op.response.get("n_rows") != base + (op.request + 1) * APPEND_ROWS:
                wrong += 1
                problems.append(f"append {op.request}: n_rows {op.response.get('n_rows')}")
        reads = [op for op in ops if op.kind == "recommend" and op.ok]
        sample = random.Random(f"{self.seed}:oracle").sample(reads, min(N_LIVE_CHECKS, len(reads)))
        for op in sample:
            low = sum(a.end <= op.sent for a in appends if a.ok)
            high = sum(a.sent < op.end for a in appends)
            candidates = [base + j * APPEND_ROWS for j in range(high, low - 1, -1)]
            if not any(
                self._prefix_oracle.at(n).mismatch(op.request, op.response) is None
                for n in candidates
            ):
                wrong += 1
                problems.append(f"read matches no prefix in {candidates}")
        self.sampled = len(sample)
        return len(appends) + len(sample), wrong, problems[:5]


WORKLOADS = {"explore": Explore, "revisit": Revisit, "live": Live}


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #


def _cache_counters(stats: dict) -> dict[str, int]:
    blocks = [w.get("cache") for w in stats.get("workers", [])] or [stats.get("cache")]
    return {
        key: sum(int(block.get(key, 0)) for block in blocks if block)
        for key in ("hits", "misses", "evictions")
    }


def _delta(before: dict, after: dict, *path: str) -> dict[str, float]:
    for key in path:
        before, after = before.get(key) or {}, after.get(key) or {}
    return {k: float(after.get(k, 0)) - float(before.get(k, 0)) for k in after}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end_metrics(phase: Phase, setups: list[float]) -> dict[str, float]:
    recommends = phase.latencies("recommend")
    return {
        "setup_s": summary.median(setups),
        "recommend_p50_ms": 1e3 * summary.median(recommends),
        "recommend_rps": len(recommends) / phase.wall_s,
        "server_cpu_ms_per_op": 1e3 * _ratio(sum(phase.cpu_s.values()), phase.completed),
        "server_rss_mib": sum(phase.peak_rss.values()) / MIB,
    }


def untraced_layer_metrics(phase: Phase) -> dict[str, float]:
    """Per-layer numbers that need no spans: client, /proc and /v1/stats."""
    recommends = phase.latencies("recommend")
    appends = phase.latencies("append")
    n_rec = len(recommends)
    metrics: dict[str, float] = {}
    metrics["recommend_tail_ms"] = 1e3 * (summary.tail(recommends)[1] or 0.0)
    if appends:
        metrics["append_p50_ms"] = 1e3 * summary.median(appends)
        metrics["append_tail_ms"] = 1e3 * (summary.tail(appends)[1] or 0.0)
        metrics["gen.late_ms"] = 1e3 * summary.mean(
            [op.sent - op.start for op in phase.ops if op.kind == "append"]
        )
    if "workers" in phase.stats_after:
        # The workers' own route timer, merged by the front-end, over the
        # phase: whatever the client saw beyond it is the proxy hop.
        before, after = (
            (stats.get("routes") or {}).get(RECOMMEND_ROUTE) or {}
            for stats in (phase.stats_before, phase.stats_after)
        )
        route_ms = _ratio(
            after.get("mean_ms", 0.0) * after.get("count", 0)
            - before.get("mean_ms", 0.0) * before.get("count", 0),
            after.get("count", 0) - before.get("count", 0),
        )
        metrics["frontend.hop_ms"] = 1e3 * summary.mean(recommends) - route_ms
    cache = {
        k: _cache_counters(phase.stats_after)[k] - _cache_counters(phase.stats_before)[k]
        for k in ("hits", "misses", "evictions")
    }
    metrics["cache.hit_ratio"] = _ratio(cache["hits"], cache["hits"] + cache["misses"])
    metrics["cache.evictions"] = float(cache["evictions"])
    delta = _delta(phase.stats_before, phase.stats_after, "delta_cache")
    metrics["cache.delta_hit_ratio"] = _ratio(
        delta.get("hits", 0.0), delta.get("hits", 0.0) + delta.get("misses", 0.0)
    )
    executed = _delta(phase.stats_before, phase.stats_after, "executed")
    metrics["backends.rows_per_op"] = _ratio(executed.get("rows_scanned", 0.0), n_rec)
    metrics["backends.bytes_per_op"] = _ratio(executed.get("bytes_scanned", 0.0), n_rec)
    for role, seconds in phase.cpu_s.items():
        metrics[f"proc.cpu_ms_per_op.{role}"] = 1e3 * _ratio(seconds, phase.completed)
    metrics["proc.cpu_ms_per_op.loadgen"] = 1e3 * _ratio(phase.loadgen_cpu_s, phase.completed)
    for role, nbytes in phase.peak_rss.items():
        metrics[f"proc.rss_mib.{role}"] = nbytes / MIB
    return metrics


def span_metrics(phase: Phase) -> dict[str, float]:
    """Per-layer self times from a traced phase.

    ``trace.client_ms`` (traced client mean per recommend) equals
    ``server.http_ms`` plus every recommend layer's self time plus
    ``trace.unaccounted_ms`` (spans outside any request).
    """
    recommends = [r for r in phase.records if r["root"] == "server.recommend"]
    appends = [r for r in phase.records if r["root"] == "server.append"]
    others = [r for r in phase.records if r["root"] not in ("server.recommend", "server.append")]

    def per_op(records: list[dict], name: str, part: str = "self") -> float:
        return _ratio(sum(r[part].get(name, 0.0) for r in records), len(records))

    metrics: dict[str, float] = {}
    client_ms = 1e3 * summary.mean(phase.latencies("recommend"))
    if recommends:
        span_ms = 1e3 * summary.mean([r["dur"] for r in recommends])
        metrics["server.http_ms"] = client_ms - span_ms
        for metric, name in RECOMMEND_LAYERS:
            metrics[metric] = 1e3 * per_op(recommends, name)
        layers_ms = sum(metrics[m] for m, _ in RECOMMEND_LAYERS)
        orphan_ms = 1e3 * _ratio(sum(r["dur"] for r in others), len(recommends))
        metrics["trace.client_ms"] = client_ms
        metrics["trace.unaccounted_ms"] = span_ms - layers_ms + orphan_ms
        metrics["sharing.queries_per_op"] = per_op(recommends, "sharing.queries", "count")
        metrics["state.utility_calls_per_op"] = per_op(recommends, "state.utility", "count")
        executed = _delta(phase.stats_before, phase.stats_after, "executed")
        shared = sum(r["count"].get("backends.shared_queries", 0) for r in recommends)
        metrics["backends.shared_scan_share"] = _ratio(
            shared, executed.get("queries_executed", 0.0)
        )
    if appends:
        for metric, name in APPEND_LAYERS:
            metrics[metric] = 1e3 * per_op(appends, name)
        metrics["chunks.write_bytes_per_user_byte"] = _ratio(
            sum(r["count"].get("chunks.write_bytes", 0) for r in appends),
            sum(r["count"].get("chunks.user_bytes", 0) for r in appends),
        )
    return metrics


# --------------------------------------------------------------------------- #
# running a workload
# --------------------------------------------------------------------------- #


@dataclass
class Outcome:
    """Everything one phase contributes to the result line."""

    phase: Phase
    checked: int
    wrong: int
    problems: list[str]
    warm_ops: list[Op]


def measure(spec: WorkloadSpec, name: str, traced: bool, n_launches: int) -> tuple[Outcome, list[float]]:
    """Launch ``n_launches`` times, load the last server, check the answers."""
    spec.prepare_run()
    setups = []
    for i in range(n_launches):
        server, client, session_id, setup_s = launch(spec, f"{name}-{i}", traced)
        setups.append(setup_s)
        if i + 1 < n_launches:
            client.close()
            server.stop()
    try:
        warm_ops = spec.warm_up(server, client, session_id)
        client.close()
        phase = run_phase(server, spec.loops(), spec.seconds)
    finally:
        server.stop()
    checked, wrong, problems = spec.check(warm_ops + phase.ops)
    return Outcome(phase, checked, wrong, problems, warm_ops), setups


def git_sha() -> str | None:
    """The checked-out commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_digest() -> str:
    """sha256 over every ``src`` Python file (identifies a checkout without git)."""
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sha.update(str(path.relative_to(SRC)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def stamp(args: argparse.Namespace, spec: WorkloadSpec, outcome: Outcome) -> dict[str, Any]:
    """What a result needs to be compared with another: versions, sizes, samples."""
    recommends = outcome.phase.latencies("recommend")
    appends = outcome.phase.latencies("append")
    rec_tail = summary.tail(recommends)
    app_tail = summary.tail(appends)
    steps = outcome.phase.session_steps
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "host_cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "dataset_rows": spec.table.nrows,
        "recommend_samples": len(recommends),
        "recommend_tail_percentile": rec_tail[0],
        "recommend_tail_ms": None if rec_tail[1] is None else 1e3 * rec_tail[1],
        "recommend_tail_beyond": rec_tail[2],
        "append_samples": len(appends),
        "append_tail_percentile": app_tail[0],
        "sessions": len(steps),
        "session_steps": {str(s): steps.count(s) for s in sorted(set(steps))},
        "answers_checked": outcome.checked,
        "live_reads_sampled": getattr(spec, "sampled", None),
        "store_flush": "fsync" if "fsync" in inspect.getsource(chunks) else "no-fsync",
    }


def run(args: argparse.Namespace) -> dict[str, Any]:
    spec = WORKLOADS[args.workload](args.seed, args.seconds)
    WORK.mkdir(exist_ok=True)
    procs.fresh_dir(WORK / "tmp")
    plain, setups = measure(spec, args.workload, False, 1 if args.trace else N_SETUPS)
    outcomes = [plain]
    if args.trace:
        traced, _ = measure(spec, f"{args.workload}-traced", True, 1)
        outcomes.append(traced)
        measured = untraced_layer_metrics(plain.phase)
        measured.update(span_metrics(traced.phase))
        plain_ms = summary.mean(plain.phase.latencies("recommend"))
        traced_ms = summary.mean(traced.phase.latencies("recommend"))
        measured["trace.overhead_pct"] = 100.0 * (_ratio(traced_ms, plain_ms) - 1.0)
        # A layer the workload never reaches reads 0 and is listed as n/a.
        metrics = {name: measured.get(name, 0.0) for name, _, _ in PER_LAYER}
        units = {name: unit for name, unit, _ in PER_LAYER}
        not_applicable = [name for name in metrics if name not in measured]
    else:
        metrics = end_to_end_metrics(plain.phase, setups)
        units = dict(END_TO_END)
        not_applicable = []
    ops = [op for o in outcomes for op in (*o.warm_ops, *o.phase.ops)]
    attempted = len(ops)
    failed = sum(not op.ok for op in ops) + sum(o.wrong for o in outcomes)
    info = stamp(args, spec, plain)
    info["not_applicable"] = not_applicable
    info["wrong_answers"] = sum(o.wrong for o in outcomes)
    info["problems"] = [p for o in outcomes for p in o.problems][:5]
    info["setup_samples_s"] = setups
    print(json.dumps({"stamp": info}))
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.4f} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so the servers under test are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
