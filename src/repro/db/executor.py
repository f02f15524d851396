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

Expressions run in code space (:class:`CodeSpace`, also used by the
shared-scan executor): each call compiles its subtrees over one
dictionary-backed column into lookups over that column's categories, so
predicates and flags gather by dictionary codes instead of comparing every
row's value, with bitwise-identical results.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.config import ExecutionStats
from repro.db.expressions import (
    Expression,
    codes_key,
    compile_codes,
    lookup_columns,
    value_columns,
)
from repro.db.groupby import GroupKeyColumn, GroupResult, factorize, group_aggregate
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


def _query_expressions(query: AggregateQuery) -> list[Expression]:
    """Every expression ``query`` evaluates: derived, predicate, arguments."""
    exprs = [d.expression for d in query.derived]
    if query.predicate is not None:
        exprs.append(query.predicate)
    exprs.extend(
        spec.argument
        for spec in query.aggregates
        if spec.argument is not None and not isinstance(spec.argument, str)
    )
    return exprs


class CodeSpace:
    """One execution call's expressions, compiled to read dictionary codes.

    Built once per :meth:`QueryExecutor.execute` /
    :meth:`~repro.db.shared_scan.SharedScanExecutor.execute_batch` call
    and passed down as a local — never stored on an executor, so
    concurrent calls never see each other's compiled trees.  Each
    expression that references none of its query's derived aliases is
    compiled once (:func:`~repro.db.expressions.compile_codes`) over the
    columns whose dictionary is free
    (:meth:`~repro.db.table.Table.code_space_categories`) and smaller than
    the rows the call scans, so a lookup never outgrows the rows it
    replaces.  Results are bitwise those of value-space evaluation.

    :meth:`scan` then serves each range: value arrays for the columns some
    query reads by value, int32 codes (under
    :func:`~repro.db.expressions.codes_key`) for the columns lookups read.
    A dictionary-encoded column read only through codes — a pure group
    key, or a column every reference to which compiled to a lookup — is
    charged but never decoded.  Page and byte charges are those of a
    value scan of every base column.  A range whose dictionary is no
    longer the compiled one (the table was refreshed mid-call with new
    categories) gets decoded values instead, so its lookups run in value
    space.
    """

    def __init__(
        self, store: StorageEngine, queries: Sequence[AggregateQuery], n_rows: int
    ) -> None:
        self._store = store
        table = store.table
        uses = [
            (expr, query.derived_aliases)
            for query in queries
            for expr in _query_expressions(query)
        ]
        self._categories: dict[str, np.ndarray] = {}
        names = set().union(*(expr.referenced_columns() for expr, _ in uses))
        for name in names:
            if name in table.schema:
                cats = table.code_space_categories(name)
                if cats is not None and len(cats) < n_rows:
                    self._categories[name] = cats
        # Keyed by the queries' own expression objects, so :meth:`compile`
        # never re-hashes a tree; equal pairs (the batch's shared target
        # flag above all) compile once.
        self._compiled: dict[tuple[int, frozenset[str]], Expression] = {}
        by_value: dict[tuple[Expression, frozenset[str]], Expression] = {}
        for expr, aliases in uses:
            if not self._categories or expr.referenced_columns() & aliases:
                compiled: Expression | None = expr
            else:
                try:
                    compiled = by_value.get((expr, aliases))
                except TypeError:  # unhashable literal: stays in value space
                    compiled = expr
                if compiled is None:
                    compiled = compile_codes(expr, self._categories)
                    by_value[(expr, aliases)] = compiled
            self._compiled[(id(expr), aliases)] = compiled
        value_read = {
            spec.argument
            for query in queries
            for spec in query.aggregates
            if isinstance(spec.argument, str)
        }
        lookups: set[str] = set()
        for compiled in self._compiled.values():
            value_read |= value_columns(compiled)
            lookups |= lookup_columns(compiled)
        #: Columns some query reads by value (materialized by :meth:`scan`).
        self.value_columns = frozenset(value_read)
        #: Columns some compiled expression reads through codes.
        self.lookup_columns = tuple(sorted(lookups))

    def compile(self, expr: Expression, aliases: frozenset[str]) -> Expression:
        """``expr`` (an expression of this call's queries) in code space.

        ``expr`` itself when it stays in value space: it references a
        derived alias in ``aliases``, carries unhashable literals, or is
        not one of the queries' expression objects.
        """
        return self._compiled.get((id(expr), aliases), expr)

    def scan(
        self,
        base_columns: Sequence[str],
        start: int,
        stop: int,
        stats: ExecutionStats,
    ) -> dict[object, np.ndarray]:
        """Arrays for rows ``[start, stop)``: values, plus lookup codes."""
        store = self._store
        skip = frozenset(
            name
            for name in base_columns
            if name not in self.value_columns
            and store.table.chunked_column(name).is_dict_encoded
        )
        arrays: dict[object, np.ndarray] = dict(
            store.scan(base_columns, start, stop, stats, skip_materialize=skip)
        )
        for name in self.lookup_columns:
            if name in base_columns:
                codes, cats = store.dictionary_slice(name, start, stop)
                if _same_categories(cats, self._categories[name]):
                    arrays[codes_key(name)] = codes
                elif name not in arrays:
                    arrays[name] = cats[codes]
        return arrays


def _same_categories(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two category arrays are bit for bit the same."""
    return a is b or (
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
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
        code_space = CodeSpace(self.store, [query], sum(b - a for a, b in ranges))
        base_columns = sorted(query.base_columns_needed())
        if seed is not None or len(ranges) > 1:
            aggregator = (
                seed.aggregator
                if seed is not None
                else new_aggregator(query, self.store.dense_group_limit)
            )
            # Streaming: the same preparation one chunk-aligned subrange at
            # a time.  Peak memory is O(chunk + groups) while the finalized
            # result is value-identical to the one-shot computation (see
            # :mod:`repro.db.streaming` for why, including float ordering).
            for sub_start, sub_stop in ranges:
                key_columns, aggregate_inputs, _ = self._prepare(
                    query, code_space, base_columns, sub_start, sub_stop, stats
                )
                aggregator.update(key_columns, aggregate_inputs)
            if seed is not None:
                seed.save()
            result, n_filtered = aggregator.finalize(), aggregator.total_rows
        else:
            key_columns, aggregate_inputs, n_filtered = self._prepare(
                query, code_space, base_columns, start, stop, stats
            )
            result = group_aggregate(
                key_columns,
                aggregate_inputs,
                query.group_budget,
                dense_limit=self.store.dense_group_limit,
            )

        tally_aggregation(stats, self.store.table.schema, query, result, n_filtered)
        stats.wall_seconds = time.perf_counter() - started
        return build_query_result(query, result, n_filtered), stats

    def _prepare(
        self,
        query: AggregateQuery,
        code_space: CodeSpace,
        base_columns: list[str],
        start: int,
        stop: int,
        stats: ExecutionStats,
    ) -> tuple[list[GroupKeyColumn], list, int]:
        """Scan → derive → filter → key/input preparation of one range."""
        aliases = query.derived_aliases
        arrays = code_space.scan(base_columns, start, stop, stats)
        for derived in query.derived:
            expr = code_space.compile(derived.expression, aliases)
            arrays[derived.alias] = np.asarray(expr.evaluate(arrays))
        if query.predicate is not None:
            mask = code_space.compile(query.predicate, aliases).evaluate(arrays)
            selector = np.flatnonzero(mask.astype(bool))
        else:
            selector = None
        key_columns = self._group_key_columns(query, arrays, start, stop, selector)
        aggregate_inputs = self._aggregate_inputs(query, code_space, arrays, selector)
        n_filtered = len(selector) if selector is not None else (stop - start)
        return key_columns, aggregate_inputs, n_filtered

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
                categories, codes = factorize(values)
                key_columns.append(GroupKeyColumn(name, codes, categories))
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
        code_space: CodeSpace,
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
                expr = code_space.compile(spec.argument, query.derived_aliases)
                values = np.asarray(expr.evaluate(arrays), dtype=np.float64)
            if values is not None and selector is not None:
                values = values[selector]
            inputs.append((spec.func, values))
        return inputs
