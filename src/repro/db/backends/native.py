"""The native backend: this package's own columnar executor.

A thin :class:`~repro.db.backends.base.Backend` adapter around
:class:`~repro.db.executor.QueryExecutor` — the storage engine, buffer
pool, spill simulation, and cost accounting all live below it, so this is
the only backend whose :class:`ExecutionStats` drive a meaningful modeled
latency.

It is also the only backend with a true batch path:
:meth:`NativeBackend.execute_batch` hands the whole batch to a
:class:`~repro.db.shared_scan.SharedScanExecutor`, which serves every query
in it from **one** scan (shared pages charged once, shared expressions
evaluated once) and fans only the per-query grouping out to the
dispatcher's pool.  With a delta cache attached the two compose: each
full-prefix query resumes from its cached partial state and the batch
shares one scan of the appended rows.  Per-query ``execute`` stays on the
classic executor, so ``EngineConfig(shared_scan=False)`` is an exact
ablation baseline.
"""

from __future__ import annotations

from typing import Sequence

from repro.config import ExecutionStats
from repro.db.backends.base import Backend, BackendCapabilities, register_backend
from repro.db.executor import QueryExecutor
from repro.db.query import AggregateQuery, QueryResult
from repro.db.shared_scan import Fanout, SharedScanExecutor
from repro.db.storage import StorageEngine

_CAPABILITIES = BackendCapabilities(
    supports_row_range=True,
    supports_group_budget=True,
    accounts_io=True,
    parallel_safe=True,
    shares_batch_scans=True,
    result_fingerprint="native-v1",
    notes="in-process numpy executor; stats feed the paper's cost model",
)


class NativeBackend(Backend):
    """Executes queries with the in-process numpy engine."""

    name = "native"

    def __init__(self, store: StorageEngine) -> None:
        self.store = store
        self.executor = QueryExecutor(store)
        self.shared_executor = SharedScanExecutor(store)

    def execute(self, query: AggregateQuery) -> tuple[QueryResult, ExecutionStats]:
        return self.executor.execute(query)

    def execute_batch(
        self,
        queries: Sequence[AggregateQuery],
        fanout: Fanout | None = None,
    ) -> list[tuple[QueryResult, ExecutionStats]]:
        return self.shared_executor.execute_batch(queries, fanout=fanout)

    def capabilities(self) -> BackendCapabilities:
        return _CAPABILITIES

    def cost_hint(self, query: AggregateQuery) -> float | None:
        start, stop = query.row_range or (0, self.store.nrows)
        return float(
            self.store.scan_bytes(sorted(query.base_columns_needed()), start, stop)
        )


register_backend(NativeBackend.name, NativeBackend)
