"""The query executor: scan → derive → filter → group → aggregate.

One :class:`QueryExecutor` wraps one storage engine.  Each
:meth:`~QueryExecutor.execute` call runs a single logical
:class:`~repro.db.query.AggregateQuery` and returns the result together with
a fresh :class:`~repro.config.ExecutionStats` describing exactly the work
that query did — callers (the SeeDB engine) merge those into run-level stats
and group them into parallel batches for the cost model.

``execute`` is **stateless per call**: it keeps no mutable state on the
instance, allocates its working arrays and stats record locally, and only
touches shared structures that are themselves thread-safe (the storage
engine's locked buffer pool and the table's locked dictionary cache).  The
parallel dispatcher (:mod:`repro.core.parallel`) relies on this to run many
``execute`` calls concurrently against one executor.
"""

from __future__ import annotations

import time

import numpy as np

from repro.config import ExecutionStats
from repro.db.groupby import GroupKeyColumn, GroupResult, group_aggregate
from repro.db.query import AggregateQuery, QueryResult
from repro.db.storage import StorageEngine
from repro.db.streaming import StreamingGroupAggregator
from repro.db.types import Schema
from repro.exceptions import QueryError


def spill_bytes(
    schema: Schema, query: AggregateQuery, n_filtered: int, result: GroupResult
) -> int:
    """Bytes charged for re-reading spilled partitions.

    Each extra pass re-reads the filtered rows' group-by and aggregate
    columns once (spill files bypass the buffer pool, so these are charged
    at miss rate).  Shared by the per-query and shared-scan executors.
    """
    width = 0
    for name in query.group_by:
        width += schema[name].byte_width if name in schema else 4
    for spec in query.aggregates:
        for col in spec.referenced_columns():
            if col in schema:
                width += schema[col].byte_width
    return result.spill_passes * n_filtered * max(width, 1)


def tally_aggregation(
    stats: ExecutionStats,
    schema: Schema,
    query: AggregateQuery,
    result: GroupResult,
    n_filtered: int,
) -> None:
    """Fold one query's grouping work into its stats record.

    Shared by the per-query and shared-scan executors so the two paths stay
    in accounting lockstep (the differential oracle compares them).
    """
    stats.queries_issued += 1
    stats.agg_rows_processed += n_filtered * len(query.aggregates)
    stats.groups_maintained += result.n_groups
    stats.spill_passes += result.spill_passes
    if result.spill_passes:
        stats.bytes_scanned_miss += spill_bytes(schema, query, n_filtered, result)


def build_query_result(
    query: AggregateQuery, result: GroupResult, n_filtered: int
) -> QueryResult:
    """Adapt a :class:`GroupResult` into the backend result contract.

    Per-aggregate arrays keyed by alias plus the hidden ``__group_count__``
    per-group row count the phased AVG merge needs.  Shared by both
    executors.
    """
    values = {
        spec.alias: result.aggregate_values[i]
        for i, spec in enumerate(query.aggregates)
    }
    values["__group_count__"] = result.group_counts
    return QueryResult(
        groups=dict(result.key_values),
        values=values,
        n_groups=result.n_groups,
        input_rows=n_filtered,
    )


def global_group_key(n_rows: int) -> GroupKeyColumn:
    """The single synthetic group a global (no GROUP BY) aggregate uses."""
    return GroupKeyColumn(
        "__all__", np.zeros(n_rows, dtype=np.int32), np.asarray(["all"])
    )


def dict_key_only_columns(
    table, base_columns, value_columns
) -> frozenset[str]:
    """Dictionary-encoded columns needed only as group-by keys.

    These are scanned (pages charged — the physical read *is* the 4-byte
    codes) but never decoded: the executors fetch their codes via
    ``dictionary_slice``, so materializing string values would be pure
    waste.  Shared by the per-query and shared-scan executors.
    """
    return frozenset(
        name
        for name in base_columns
        if name not in value_columns
        and table.chunked_column(name).is_dict_encoded
    )


def new_aggregator(
    query: AggregateQuery, dense_limit: int | None
) -> StreamingGroupAggregator:
    """A fresh streaming aggregator for ``query``'s aggregates and budget."""
    return StreamingGroupAggregator(
        [spec.func for spec in query.aggregates], query.group_budget, dense_limit
    )


class DeltaSeed:
    """Where one full-prefix query resumes in a ``DeltaStateCache``.

    Looks up the query's partial-aggregation state.  A cached entry is
    usable when the current table either *is* the table it was captured
    over or append-extends it (checked via
    :attr:`~repro.db.table.Table.append_lineage`): then :attr:`aggregator`
    restores the snapshot and the caller scans only rows from
    :attr:`scan_from` to ``stop``, which is exactly the carry-seeded
    continuation of the one-shot accumulation (bitwise-identical results;
    the oracle's append leg enforces this).  Otherwise :attr:`aggregator`
    is fresh and :attr:`scan_from` is 0.  :meth:`save` snapshots a
    full-table state back for the next append.  Shared by the per-query
    and shared-scan executors.
    """

    def __init__(
        self, store: StorageEngine, cache, query: AggregateQuery, stop: int
    ) -> None:
        from repro.core.cache import delta_state_key

        self._store = store
        self._cache = cache
        self._stop = stop
        self._key = delta_state_key(store, query)
        self.scan_from = 0
        self.hit = False
        table = store.table
        entry = cache.get(self._key)
        if entry is not None and entry.rows <= stop:
            current = entry.fingerprint == table.fingerprint() and entry.rows <= table.nrows
            extends = table.append_lineage.get(entry.fingerprint) == entry.rows
            self.hit = current or extends
        if self.hit:
            self.aggregator = StreamingGroupAggregator.from_snapshot(entry.state)
            self.scan_from = entry.rows
        else:
            self.aggregator = new_aggregator(query, store.dense_group_limit)

    def save(self) -> None:
        """Cache the aggregator's state if it covers the whole table."""
        if self._stop == self._store.nrows:
            self._cache.put(
                self._key,
                self.aggregator.snapshot(),
                self._stop,
                self._store.table.fingerprint(),
                self.aggregator.snapshot_nbytes(),
            )


class QueryExecutor:
    """Executes logical aggregate queries against one storage engine.

    Safe for concurrent use from multiple threads: every call works on
    locals only (see module docstring).
    """

    def __init__(self, store: StorageEngine, delta_cache=None) -> None:
        self.store = store
        #: Optional :class:`~repro.core.cache.DeltaStateCache` enabling the
        #: append-aware execution path (attached by the engine when
        #: ``EngineConfig.delta_cache`` is on).
        self.delta_cache = delta_cache

    @property
    def table_name(self) -> str:
        return self.store.table.name

    def execute(self, query: AggregateQuery) -> tuple[QueryResult, ExecutionStats]:
        """Run ``query``; return its result and per-query accounting."""
        if query.table != self.store.table.name:
            raise QueryError(
                f"query targets table {query.table!r} but executor holds "
                f"{self.store.table.name!r}"
            )
        stats = ExecutionStats()
        started = time.perf_counter()

        start, stop = query.row_range or (0, self.store.nrows)
        ranges = self.store.stream_ranges(start, stop)
        seed: DeltaSeed | None = None
        if self.delta_cache is not None and start == 0 and stop > 0:
            seed = DeltaSeed(self.store, self.delta_cache, query, stop)
            stats.delta_hits += seed.hit
            scan_from = seed.scan_from
            ranges = self.store.stream_ranges(scan_from, stop) if scan_from < stop else []
        if seed is not None or len(ranges) > 1:
            aggregator = (
                seed.aggregator
                if seed is not None
                else new_aggregator(query, self.store.dense_group_limit)
            )
            self._stream_into(aggregator, query, ranges, stats)
            if seed is not None:
                seed.save()
            result, n_filtered = aggregator.finalize(), aggregator.total_rows
        else:
            base_columns = sorted(query.base_columns_needed())
            skip = dict_key_only_columns(
                self.store.table, base_columns, query.value_columns_needed()
            )
            arrays = dict(
                self.store.scan(
                    base_columns, start, stop, stats, skip_materialize=skip
                )
            )

            for derived in query.derived:
                arrays[derived.alias] = np.asarray(derived.expression.evaluate(arrays))

            if query.predicate is not None:
                mask = query.predicate.evaluate(arrays).astype(bool)
                selector = np.flatnonzero(mask)
            else:
                selector = None

            key_columns = self._group_key_columns(query, arrays, start, stop, selector)
            aggregate_inputs = self._aggregate_inputs(query, arrays, selector)

            result = group_aggregate(
                key_columns,
                aggregate_inputs,
                query.group_budget,
                dense_limit=self.store.dense_group_limit,
            )
            n_filtered = len(selector) if selector is not None else (stop - start)

        tally_aggregation(stats, self.store.table.schema, query, result, n_filtered)
        stats.wall_seconds = time.perf_counter() - started
        return build_query_result(query, result, n_filtered), stats

    def _stream_into(
        self,
        aggregator: StreamingGroupAggregator,
        query: AggregateQuery,
        ranges: list[tuple[int, int]],
        stats: ExecutionStats,
    ) -> None:
        """Fold ``ranges`` chunk-at-a-time into ``aggregator``.

        Runs the same scan → derive → filter → key/input preparation as the
        one-shot path, one chunk-aligned subrange at a time.  Peak memory
        is O(chunk + groups) while the finalized result is value-identical
        to the one-shot computation (see :mod:`repro.db.streaming` for why,
        including the float ordering).
        """
        base_columns = sorted(query.base_columns_needed())
        skip = dict_key_only_columns(
            self.store.table, base_columns, query.value_columns_needed()
        )
        for sub_start, sub_stop in ranges:
            arrays = dict(
                self.store.scan(
                    base_columns, sub_start, sub_stop, stats, skip_materialize=skip
                )
            )
            for derived in query.derived:
                arrays[derived.alias] = np.asarray(derived.expression.evaluate(arrays))
            if query.predicate is not None:
                mask = query.predicate.evaluate(arrays).astype(bool)
                selector = np.flatnonzero(mask)
            else:
                selector = None
            key_columns = self._group_key_columns(
                query, arrays, sub_start, sub_stop, selector
            )
            aggregate_inputs = self._aggregate_inputs(query, arrays, selector)
            aggregator.update(key_columns, aggregate_inputs)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _group_key_columns(
        self,
        query: AggregateQuery,
        arrays: dict[str, np.ndarray],
        start: int,
        stop: int,
        selector: np.ndarray | None,
    ) -> list[GroupKeyColumn]:
        """Dictionary-encoded key columns, filtered to selected rows.

        Physical dimension columns reuse the table's cached global
        dictionary (codes are stable across phases, so partial results merge
        on category values); derived columns are factorized on the fly.
        """
        key_columns: list[GroupKeyColumn] = []
        for name in query.group_by:
            if name in query.derived_aliases:
                values = arrays[name]
                if selector is not None:
                    values = values[selector]
                categories, codes = np.unique(values, return_inverse=True)
                key_columns.append(
                    GroupKeyColumn(name, codes.astype(np.int32), categories)
                )
            else:
                sliced, categories = self.store.dictionary_slice(
                    name, start, stop, values=arrays.get(name)
                )
                if selector is not None:
                    sliced = sliced[selector]
                key_columns.append(GroupKeyColumn(name, sliced, categories))
        if not key_columns:
            # Global aggregate: a single synthetic group.
            n = len(selector) if selector is not None else (stop - start)
            key_columns.append(global_group_key(n))
        return key_columns

    @staticmethod
    def _aggregate_inputs(
        query: AggregateQuery,
        arrays: dict[str, np.ndarray],
        selector: np.ndarray | None,
    ):
        inputs = []
        for spec in query.aggregates:
            if spec.argument is None:
                values = None
            elif isinstance(spec.argument, str):
                values = arrays[spec.argument]
            else:
                values = np.asarray(spec.argument.evaluate(arrays), dtype=np.float64)
            if values is not None and selector is not None:
                values = values[selector]
            inputs.append((spec.func, values))
        return inputs
