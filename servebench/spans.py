"""Span recorder for the traced benchmark run.

The benchmark wraps the public entry points of each layer from outside
``src/`` (see :func:`install`); every wrapped call opens a span on a
thread-local stack.  A span's *self* time is its duration minus the time
its direct child spans took, so the self times of one request's spans sum
to the request's root span.  When a root span closes, the request is
folded into one record::

    {"root": "server.recommend", "dur": 0.012,
     "self": {"server.recommend": 0.001, "engine.run": 0.002, ...},
     "count": {"cache.probe": 11, ...}}

Records stay in memory; on ``SIGUSR1`` the server process writes the
records gathered since the previous signal to ``<dir>/<pid>.json`` (see
:func:`install_dump_handler`), so the benchmark brackets its timed phase
with two signals and keeps what the second one writes.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import threading
import time
from typing import Any, Callable

import numpy as np

#: Environment variable naming the directory trace dumps are written to.
TRACE_DIR_ENV = "SERVEBENCH_TRACE_DIR"


class _Span:
    __slots__ = ("name", "child_seconds")

    def __init__(self, name: str) -> None:
        self.name = name
        self.child_seconds = 0.0


class _Request:
    __slots__ = ("self_seconds", "counts")

    def __init__(self) -> None:
        self.self_seconds: dict[str, float] = {}
        self.counts: dict[str, float] = {}


class Tracer:
    """Collects one record per root span; thread-safe.

    ``clock`` is injectable so the self-tests can drive exact timings.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._records: list[dict[str, Any]] = []

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _request(self) -> _Request:
        return self._local.request

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` of the current request."""
        if not self._stack():
            return  # a counter outside any span has no request to belong to
        counts = self._request().counts
        counts[name] = counts.get(name, 0) + value

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name``.

        A call nested directly inside a span of the same name (a subclass
        method calling its wrapped base, say) is folded into the outer span.
        """
        stack = self._stack()
        if stack and stack[-1].name == name:
            return fn(*args, **kwargs)
        if not stack:
            self._local.request = _Request()
        span = _Span(name)
        stack.append(span)
        started = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self.clock() - started
            stack.pop()
            request = self._request()
            request.self_seconds[name] = (
                request.self_seconds.get(name, 0.0) + duration - span.child_seconds
            )
            request.counts[name] = request.counts.get(name, 0) + 1
            if stack:
                stack[-1].child_seconds += duration
            else:
                record = {
                    "root": name,
                    "dur": duration,
                    "self": request.self_seconds,
                    "count": request.counts,
                }
                with self._lock:
                    self._records.append(record)

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        after: Callable[["Tracer", tuple, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` traced as ``name``; ``after(tracer, args, result)`` counts."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if after is None:
                return self.call(name, fn, *args, **kwargs)

            def body() -> Any:
                result = fn(*args, **kwargs)
                after(self, args, result)
                return result

            return self.call(name, body)

        return traced

    def drain(self) -> list[dict[str, Any]]:
        """Return and forget every record gathered so far."""
        with self._lock:
            records, self._records = self._records, []
        return records


def _thread_write_chars() -> int:
    """Bytes this thread has passed to write(2)-family calls so far."""
    with open("/proc/thread-self/io", "rb") as handle:
        for line in handle:
            if line.startswith(b"wchar:"):
                return int(line.split()[1])
    raise OSError("no wchar field in /proc/thread-self/io")


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points with ``tracer`` spans.

    Patched where the caller looks the name up: functions imported into
    another module (``plan_queries`` into the engine, ``append_rows`` into
    the server) are replaced in that module's namespace.
    """
    from repro.core import engine, parallel, state
    from repro.core.cache import TieredViewResultCache, ViewResultCache
    from repro.data import registry
    from repro.db.backends.native import NativeBackend
    from repro.db.executor import QueryExecutor
    from repro.db.shared_scan import SharedScanExecutor
    from repro.db.table import Table
    from repro.service import server

    def wrap_method(cls: type, attr: str, name: str, after=None) -> None:
        setattr(cls, attr, tracer.wrap(cls.__dict__[attr], name, after))

    service = server.RecommendationService
    wrap_method(service, "recommend", "server.recommend")
    wrap_method(service, "append_dataset", "server.append")
    wrap_method(engine.ExecutionEngine, "run", "engine.run")

    def planned(tr: Tracer, args: tuple, plan: Any) -> None:
        tr.count("sharing.queries", len(plan.queries))

    engine.plan_queries = tracer.wrap(engine.plan_queries, "sharing.plan", planned)
    engine.query_fingerprint = tracer.wrap(engine.query_fingerprint, "cache.fingerprint")
    engine.execution_fingerprint = tracer.wrap(
        engine.execution_fingerprint, "cache.fingerprint"
    )

    def probed(tr: Tracer, args: tuple, entry: Any) -> None:
        tr.count("cache.hits", entry is not None)

    wrap_method(ViewResultCache, "get", "cache.probe", probed)
    wrap_method(TieredViewResultCache, "get", "cache.probe", probed)
    wrap_method(state.ViewState, "utility", "state.utility")
    wrap_method(parallel.ParallelDispatcher, "run_batch", "parallel.batch")
    wrap_method(NativeBackend, "execute", "backends.exec")
    wrap_method(NativeBackend, "execute_batch", "backends.exec")
    wrap_method(QueryExecutor, "execute", "backends.exec")

    def shared(tr: Tracer, args: tuple, outcomes: Any) -> None:
        tr.count("backends.shared_queries", len(outcomes))

    wrap_method(SharedScanExecutor, "execute_batch", "backends.exec", shared)

    original_append = server.chunk_append_rows

    def append_rows(path: Any, data: Any) -> Any:
        before = _thread_write_chars()
        manifest = original_append(path, data)
        tracer.count("chunks.write_bytes", _thread_write_chars() - before)
        row_bytes = sum(
            4 if col.encoding == "dict32" else np.dtype(col.dtype).itemsize
            for col in manifest.columns
        )
        n_rows = len(next(iter(data.values())))
        tracer.count("chunks.user_bytes", n_rows * row_bytes)
        return manifest

    server.chunk_append_rows = tracer.wrap(append_rows, "chunks.append")
    registry.refresh_on_disk = tracer.wrap(registry.refresh_on_disk, "registry.refresh")
    wrap_method(Table, "refresh_from_disk", "table.refresh")


def install_dump_handler(tracer: Tracer, directory: str) -> None:
    """On ``SIGUSR1``, write the records drained so far to ``<pid>.json``.

    The write runs on a helper thread (the handler interrupts the main
    thread's serve loop) and lands via rename, so a reader never sees a
    partial file.
    """

    def dump() -> None:
        records = tracer.drain()
        target = os.path.join(directory, f"{os.getpid()}.json")
        tmp = f"{target}.tmp"
        with open(tmp, "w") as handle:
            json.dump({"pid": os.getpid(), "records": records}, handle)
        os.replace(tmp, target)

    def on_signal(signum: int, frame: object) -> None:
        threading.Thread(target=dump, name="servebench-trace-dump").start()

    signal.signal(signal.SIGUSR1, on_signal)
