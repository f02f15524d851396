"""Hash aggregation with a distinct-group memory budget and multi-pass spill.

The paper's "Combine Multiple GROUP BYs" optimization (§4.1) hinges on a
property of real aggregation engines: grouping is fast while the hash table
fits in memory and degrades sharply once it does not (Figure 8a shows the
cliff at ~10^4 distinct groups for their row store and ~10^2 for the column
store).  This module reproduces that mechanism: when the *estimated* group
cardinality (product of per-attribute distinct counts, capped at the row
count — the same upper bound the paper uses) exceeds the budget, aggregation
falls back to multi-pass range partitioning, each pass re-reading its share
of the input.  The executor charges the extra passes as additional scan
bytes, which is what produces the latency cliff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.db.aggregates import compute_group_aggregate
from repro.db.query import AggregateFunction
from repro.exceptions import QueryError

#: Stride-encoding of composite keys is only safe while the cardinality
#: product fits comfortably in int64.
_MAX_STRIDE_PRODUCT = 2**62

#: Partitioning fan-out of the simulated Grace-style spill: each recursion
#: level splits the key space 32 ways and re-reads its input once (write +
#: read charged as two data passes per level).
_SPILL_FANOUT = 32

#: Cap on the dense-grouping fast path: when the stride-encoded composite
#: key space has at most this many slots (and fits the group budget), rows
#: are aggregated with O(n) ``np.bincount`` over the full dense domain
#: instead of the O(n log n) ``np.unique`` sort.  The low-cardinality
#: dimensions of the SeeDB view space land here almost always.
_DENSE_GROUP_LIMIT = 1 << 16


def spill_data_passes(n_partitions: int) -> int:
    """Extra input passes charged for a spill into ``n_partitions``.

    Grace hash aggregation partitions recursively with a fixed fan-out, so
    the *data* is re-read logarithmically many times even when the final
    partition count is large: 2 passes (write + read) per recursion level.
    """
    if n_partitions <= 1:
        return 0
    levels = math.ceil(math.log(n_partitions) / math.log(_SPILL_FANOUT))
    return 2 * max(levels, 1)


def factorize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(categories, int32 codes)`` of ``values``, as ``np.unique`` gives them.

    Identical to ``np.unique(values, return_inverse=True)`` with the
    inverse cast to int32 (categories dtype included).  Bool and integer
    arrays (up to 32-bit unsigned) whose value span is at most
    ``max(len(values), 1024)`` are mapped in O(n) with one ``np.bincount``
    instead of a sort; that is the common case of a derived key such as
    the sharing optimizer's 0/1 target flag.  Everything else sorts.
    """
    values = np.asarray(values)
    kind, size = values.dtype.kind, values.dtype.itemsize
    if len(values) and (kind in "bi" or (kind == "u" and size < 8)):
        wide = values.astype(np.int64, copy=False)
        lo = int(wide.min())
        span = int(wide.max()) - lo + 1
        if span <= max(len(values), 1024):
            offsets = wide - lo
            present = np.bincount(offsets, minlength=span) > 0
            categories = (np.flatnonzero(present) + lo).astype(values.dtype)
            ranks = (np.cumsum(present) - 1).astype(np.int32)
            return categories, ranks[offsets]
    categories, codes = np.unique(values, return_inverse=True)
    return categories, codes.astype(np.int32)


@dataclass(frozen=True)
class GroupKeyColumn:
    """One group-by key: row-aligned dictionary codes plus categories."""

    name: str
    codes: np.ndarray
    categories: np.ndarray

    @property
    def n_categories(self) -> int:
        return len(self.categories)


@dataclass
class GroupResult:
    """Output of :func:`group_aggregate`, sorted by composite key."""

    #: Per-key-column arrays of group key *values* (decoded categories).
    key_values: dict[str, np.ndarray]
    #: Per-aggregate arrays, aligned with the key arrays.
    aggregate_values: list[np.ndarray]
    #: Row count of each group (needed to merge AVG partials across phases).
    group_counts: np.ndarray
    n_groups: int
    #: Extra input passes charged for the budget-forced spill (0 = in-core;
    #: logarithmic in the partition count, see :func:`spill_data_passes`).
    spill_passes: int
    #: Number of physical partitions the input was processed in.
    n_partitions: int
    #: Estimated distinct-group cardinality used for the budget decision.
    estimated_groups: int


def estimate_group_cardinality(category_sizes: list[int], n_rows: int) -> int:
    """Paper's upper bound on distinct groups: ``min(prod |a_i|, num_rows)``."""
    product = 1
    for size in category_sizes:
        product *= max(size, 1)
        if product >= n_rows:
            return n_rows
    return min(product, max(n_rows, 1)) if n_rows else 0


def _encode_composite(key_columns: list[GroupKeyColumn]) -> np.ndarray:
    """Row-aligned composite group codes.

    Uses stride (mixed-radix) encoding when the cardinality product fits in
    int64; otherwise combines keys pairwise, re-densifying with ``np.unique``
    after each step so intermediate codes stay bounded by the row count.
    """
    if not key_columns:
        raise QueryError("grouping requires at least one key column")
    if len(key_columns) == 1:
        # A single key needs no mixed-radix packing: reuse the dictionary
        # code slice directly (the int64 copy would only add memory traffic;
        # every consumer below reads the composite without mutating it).
        return key_columns[0].codes
    product = math.prod(kc.n_categories or 1 for kc in key_columns)
    if product < _MAX_STRIDE_PRODUCT:
        composite = key_columns[0].codes.astype(np.int64, copy=True)
        for kc in key_columns[1:]:
            composite *= max(kc.n_categories, 1)
            composite += kc.codes
        return composite
    composite = key_columns[0].codes.astype(np.int64)
    for kc in key_columns[1:]:
        paired = composite * max(kc.n_categories, 1) + kc.codes
        composite = np.unique(paired, return_inverse=True)[1].astype(np.int64)
    return composite


def _dense_group_result(
    key_columns: list[GroupKeyColumn],
    aggregate_inputs: list[tuple[AggregateFunction, np.ndarray | None]],
    composite: np.ndarray,
    product: int,
    estimate: int,
) -> GroupResult:
    """O(n) dense aggregation over the full stride-encoded key domain.

    Every row's composite code *is* its hash-table slot, so grouping is one
    ``np.bincount`` instead of a sort; occupied slots come out ascending,
    which is exactly the composite-key order the sorted path produces, and
    the per-key codes are recovered arithmetically (mixed-radix decode)
    rather than via representative-row indexing.
    """
    counts_full = np.bincount(composite, minlength=product)
    occupied = np.flatnonzero(counts_full)
    key_values: dict[str, np.ndarray] = {}
    stride = product
    for kc in key_columns:
        card = max(kc.n_categories, 1)
        stride //= card
        key_values[kc.name] = kc.categories[(occupied // stride) % card]
    return GroupResult(
        key_values=key_values,
        aggregate_values=[
            compute_group_aggregate(func, composite, product, values)[occupied]
            for func, values in aggregate_inputs
        ],
        group_counts=counts_full[occupied],
        n_groups=len(occupied),
        spill_passes=0,
        n_partitions=1,
        estimated_groups=estimate,
    )


def group_aggregate(
    key_columns: list[GroupKeyColumn],
    aggregate_inputs: list[tuple[AggregateFunction, np.ndarray | None]],
    budget: int | None = None,
    *,
    allow_dense: bool = True,
    dense_limit: int | None = None,
) -> GroupResult:
    """Group rows by the key columns and compute each aggregate per group.

    All input arrays must be row-aligned (the executor filters them by the
    WHERE mask first).  ``budget`` is the distinct-group memory budget; when
    the estimated cardinality exceeds it, input is processed in
    ``ceil(estimate / budget)`` range partitions of the composite key space,
    and the number of *extra* passes is reported in ``spill_passes``.

    In-core aggregation picks between two equivalent plans: when the
    stride-encoded composite key space fits the group budget (capped at
    ``dense_limit``, defaulting to the static ``_DENSE_GROUP_LIMIT``) rows
    are aggregated densely in O(n) with ``np.bincount`` — the common SeeDB
    case of low-cardinality dimensions — otherwise the sparse ``np.unique``
    sort path runs.  The two plans are bitwise-equal, so the workload
    optimizer may move ``dense_limit`` from measured cardinalities without
    changing a result bit.  ``allow_dense=False`` forces the sparse path
    (regression tests compare the two).
    """
    if not key_columns:
        raise QueryError("grouping requires at least one key column")
    n_rows = len(key_columns[0].codes)
    for kc in key_columns:
        if len(kc.codes) != n_rows:
            raise QueryError("group key columns must be row-aligned")
    for _, values in aggregate_inputs:
        if values is not None and len(values) != n_rows:
            raise QueryError("aggregate input not row-aligned with keys")

    estimate = estimate_group_cardinality(
        [kc.n_categories for kc in key_columns], n_rows
    )
    if n_rows == 0:
        return GroupResult(
            key_values={kc.name: kc.categories[:0] for kc in key_columns},
            aggregate_values=[np.empty(0) for _ in aggregate_inputs],
            group_counts=np.empty(0, dtype=np.int64),
            n_groups=0,
            spill_passes=0,
            n_partitions=1,
            estimated_groups=0,
        )

    composite = _encode_composite(key_columns)
    if budget is not None and budget > 0 and estimate > budget:
        n_passes = math.ceil(estimate / budget)
    else:
        n_passes = 1

    if n_passes == 1:
        product = math.prod(max(kc.n_categories, 1) for kc in key_columns)
        limit = dense_limit if dense_limit is not None and dense_limit > 0 else _DENSE_GROUP_LIMIT
        dense_cap = min(budget, limit) if budget is not None and budget > 0 else limit
        if allow_dense and product <= dense_cap:
            return _dense_group_result(
                key_columns, aggregate_inputs, composite, product, estimate
            )
        # Sparse single-partition path: np.unique output is already sorted
        # by composite key, so the multi-pass argsort + concatenate below
        # would be an identity permutation — skip it (and the fancy-indexed
        # copies a one-element partition list would force).
        uniq, rep_rows, inverse = np.unique(
            composite, return_index=True, return_inverse=True
        )
        n_groups = len(uniq)
        return GroupResult(
            key_values={
                kc.name: kc.categories[kc.codes[rep_rows]] for kc in key_columns
            },
            aggregate_values=[
                compute_group_aggregate(func, inverse, n_groups, values)
                for func, values in aggregate_inputs
            ],
            group_counts=np.bincount(inverse, minlength=n_groups),
            n_groups=n_groups,
            spill_passes=0,
            n_partitions=1,
            estimated_groups=estimate,
        )

    # Range-partition the composite key space so each pass's hash table
    # stays within budget (real systems hash-partition; range keeps the
    # final output globally sorted for free).
    lo, hi = int(composite.min()), int(composite.max())
    span = hi - lo + 1
    width = max(1, math.ceil(span / n_passes))
    bucket = (composite - lo) // width
    order = np.argsort(bucket, kind="stable")
    boundaries = np.searchsorted(bucket[order], np.arange(1, n_passes))
    partitions = [p for p in np.split(order, boundaries) if len(p)]

    key_value_parts: dict[str, list[np.ndarray]] = {kc.name: [] for kc in key_columns}
    agg_parts: list[list[np.ndarray]] = [[] for _ in aggregate_inputs]
    count_parts: list[np.ndarray] = []
    composite_parts: list[np.ndarray] = []
    total_groups = 0

    for part in partitions:
        comp_part = composite[part]
        uniq, rep_local, inverse = np.unique(
            comp_part, return_index=True, return_inverse=True
        )
        n_groups = len(uniq)
        total_groups += n_groups
        rep_rows = part[rep_local]
        for kc in key_columns:
            key_value_parts[kc.name].append(kc.categories[kc.codes[rep_rows]])
        counts = np.bincount(inverse, minlength=n_groups)
        count_parts.append(counts)
        composite_parts.append(uniq)
        for j, (func, values) in enumerate(aggregate_inputs):
            part_values = values[part] if values is not None else None
            agg_parts[j].append(
                compute_group_aggregate(func, inverse, n_groups, part_values)
            )

    all_composites = np.concatenate(composite_parts)
    order = np.argsort(all_composites, kind="stable")
    return GroupResult(
        key_values={
            name: np.concatenate(parts)[order] for name, parts in key_value_parts.items()
        },
        aggregate_values=[np.concatenate(parts)[order] for parts in agg_parts],
        group_counts=np.concatenate(count_parts)[order],
        n_groups=total_groups,
        spill_passes=spill_data_passes(n_passes),
        n_partitions=len(partitions),
        estimated_groups=estimate,
    )
