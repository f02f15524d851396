"""Code-space evaluation: compiled expressions equal value-space ones bitwise.

The executors compile each call's expressions once
(:class:`~repro.db.executor.CodeSpace`): every subtree over one column
whose dictionary is free becomes a lookup over that column's categories,
gathered by the chunk's int32 codes.  The contract is that this never
changes a value or a dtype.  These tests check it over a resident table
and over a multi-chunk dictionary-encoded chunk store, at the expression
level and through both executors, and check that concurrent batches never
see each other's compiled state.
"""

from __future__ import annotations

import dataclasses
import threading
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ExecutionStats
from repro.db import expressions as E
from repro.db.chunks import ChunkStoreWriter, append_rows, open_table
from repro.db.executor import CodeSpace, QueryExecutor
from repro.db.query import (
    AggregateFunction,
    AggregateQuery,
    AggregateSpec,
    DerivedColumn,
)
from repro.db.shared_scan import SharedScanExecutor
from repro.db.storage import make_store
from repro.db.table import Table
from repro.db.types import ColumnRole

N_ROWS = 300
CHUNK_ROWS = 64
#: ``"None"`` is a real category: a ``None`` literal must never match it.
CATEGORIES = {
    "s": np.array(["None", "a", "b", "c"]),
    "i": np.array([-3, 0, 2, 7]),
    "f": np.array([-2.5, -0.0, 0.0, 1.0, np.nan]),  # NaN is a category
}
RANGES = [(0, N_ROWS), (0, CHUNK_ROWS), (CHUNK_ROWS, 2 * CHUNK_ROWS), (17, 251)]


def _columns():
    rng = np.random.default_rng(13)
    codes = {
        name: rng.integers(0, len(cats), N_ROWS).astype(np.int32)
        for name, cats in CATEGORIES.items()
    }
    return codes, rng.gamma(2.0, 10.0, N_ROWS)


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """The same rows resident and as a multi-chunk dict-encoded store."""
    codes, measure = _columns()
    data = {name: cats[codes[name]] for name, cats in CATEGORIES.items()}
    data["m"] = measure
    roles = {name: ColumnRole.DIMENSION for name in CATEGORIES}
    roles["m"] = ColumnRole.MEASURE
    resident = Table("t", data, roles=roles)
    chunked = _write_chunk_store(tmp_path_factory.mktemp("code_space") / "t")
    return {"resident": resident, "chunked": chunked}


def _write_chunk_store(path):
    """The test rows as a multi-chunk dict-encoded chunk store at ``path``."""
    codes, measure = _columns()
    writer = ChunkStoreWriter(path, "t", chunk_rows=CHUNK_ROWS)
    for name, cats in CATEGORIES.items():
        writer.add_column(
            name, cats.dtype, ColumnRole.DIMENSION, categories=cats
        ).append(codes[name])
    writer.add_column("m", measure.dtype, ColumnRole.MEASURE).append(measure)
    writer.finish()
    chunked = open_table(path)
    assert chunked.is_chunked
    assert all(chunked.chunked_column(name).is_dict_encoded for name in CATEGORIES)
    return chunked


# --------------------------------------------------------------------------- #
# random expression trees
# --------------------------------------------------------------------------- #

_TEXT_LITERALS = ["a", "c", "zz", "None"]  # "zz" is in no dictionary
_NUMBER_LITERALS = [0, 2, 5, -3, -0.0, 1.0, 2.5]  # 5 and 2.5 are absent
_IN_VALUES = [("a", 1), ("b", "zz"), (0, 2.5), ("None", 2), (7, "7", -0.0), (1.0,)]


_OPS = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
_NUMBERS = st.recursive(
    st.one_of(
        st.sampled_from([E.Col("i"), E.Col("f"), E.Col("m")]),
        st.sampled_from(_NUMBER_LITERALS).map(E.Lit),
    ),
    lambda children: st.one_of(
        st.builds(E.Arithmetic, st.sampled_from("+-*/"), children, children),
        st.builds(
            E.CaseWhen, st.builds(E.Comparison, _OPS, children, children), children, children
        ),
    ),
    max_leaves=5,
)
_TEXT_LEAVES = st.one_of(st.just(E.Col("s")), st.sampled_from(_TEXT_LITERALS).map(E.Lit))
_TEXTS = st.one_of(
    _TEXT_LEAVES,
    st.builds(
        E.CaseWhen, st.builds(E.Comparison, _OPS, _TEXT_LEAVES, _TEXT_LEAVES),
        _TEXT_LEAVES, _TEXT_LEAVES,
    ),
)
_VALUES = st.one_of(_NUMBERS, _TEXTS)


def _predicates():
    return st.one_of(
        st.builds(E.Comparison, _OPS, _NUMBERS, _NUMBERS),
        st.builds(E.Comparison, _OPS, _TEXTS, _TEXTS),
        st.builds(E.Comparison, _OPS, _VALUES, _VALUES),  # mixed types too
        st.builds(E.In, _VALUES, st.sampled_from(_IN_VALUES)),
    )


@st.composite
def _boolean_trees(draw, depth=2):
    if depth == 0:
        return draw(_predicates())
    node = draw(st.sampled_from(["leaf", "not", "and", "or"]))
    if node == "leaf":
        return draw(_predicates())
    if node == "not":
        return E.Not(draw(_boolean_trees(depth - 1)))
    operands = tuple(draw(st.lists(_boolean_trees(depth - 1), min_size=2, max_size=3)))
    return (E.And if node == "and" else E.Or)(operands)


_TREES = st.one_of(_boolean_trees(), _VALUES)


def _outcome(fn):
    """``("ok", array)`` or ``("raised", exception type)``."""
    try:
        with np.errstate(all="ignore"):
            return "ok", np.asarray(fn())
    except Exception as exc:  # noqa: BLE001 - the type itself is compared
        return "raised", type(exc)


def _assert_bitwise(actual, expected):
    assert actual[0] == expected[0], (actual, expected)
    if expected[0] == "raised":
        assert actual[1] is expected[1]
        return
    got, want = actual[1], expected[1]
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def _query(expr, derived=()):
    return AggregateQuery(
        table="t",
        group_by=(),
        aggregates=(AggregateSpec(AggregateFunction.COUNT, None, "n"),),
        derived=derived + (DerivedColumn("x", expr),),
    )


def _check_tree(table, expr):
    store = make_store("col", table)
    query = _query(expr)
    code_space = CodeSpace(store, [query], N_ROWS)
    compiled = code_space.compile(expr, query.derived_aliases)
    base_columns = sorted(query.base_columns_needed())
    for start, stop in RANGES:
        values = {name: table.materialize_range(name, start, stop) for name in "sifm"}
        arrays = code_space.scan(base_columns, start, stop, ExecutionStats())
        _assert_bitwise(
            _outcome(lambda: compiled.evaluate(arrays)),
            _outcome(lambda: expr.evaluate(values)),
        )
    return compiled


@pytest.mark.parametrize("kind", ["resident", "chunked"])
@settings(max_examples=150, deadline=None)
@given(expr=_TREES)
def test_property_compiled_evaluation_is_bitwise_value_space(tables, kind, expr):
    _check_tree(tables[kind], expr)


# --------------------------------------------------------------------------- #
# the named edge cases, each checked to really compile
# --------------------------------------------------------------------------- #

_EDGE_CASES = {
    "absent-literal": E.eq("s", "zz"),
    "absent-number": E.Comparison("<=", E.Col("i"), E.Lit(5)),
    "nan-category": E.Comparison("!=", E.Col("f"), E.Col("f")),
    "nan-arm": E.CaseWhen(E.Comparison(">", E.Col("f"), E.Lit(0.0)), E.Col("f"), E.Lit(-1)),
    "signed-zero": E.Arithmetic("/", E.Lit(1.0), E.Col("f")),
    "text-vs-int": E.eq("s", 2),
    "text-vs-int-ordering": E.Comparison("<", E.Col("s"), E.Lit(2)),
    "in-mixed": E.isin("s", ["a", 1, 2.5]),
    "in-mixed-numeric": E.isin("i", ["7", 2, 2.5]),
    # Fifteen values: np.isin sorts for 4 categories but loops over a
    # 64-row chunk, so a size-dependent IN would differ between spaces.
    "in-long-text-list-on-ints": E.isin("i", [str(v) for v in range(-5, 10)]),
    "none-literal": E.eq("s", None),
    "flag": E.CaseWhen(E.And((E.eq("s", "a"), E.eq("i", 2))), E.Lit(1), E.Lit(0)),
    "two-bit-flag": E.Arithmetic(
        "+",
        E.Arithmetic("*", E.Lit(2), E.CaseWhen(E.eq("s", "b"), E.Lit(1), E.Lit(0))),
        E.CaseWhen(E.Not(E.eq("s", "b")), E.Lit(1), E.Lit(0)),
    ),
}


@pytest.mark.parametrize("kind", ["resident", "chunked"])
@pytest.mark.parametrize("name", sorted(_EDGE_CASES))
def test_edge_cases_are_bitwise(tables, kind, name):
    compiled = _check_tree(tables[kind], _EDGE_CASES[name])
    if name == "text-vs-int-ordering":
        assert compiled is _EDGE_CASES[name]  # raises over categories: stays
        return
    # Resident float columns stay in value space (np.unique merges -0.0
    # with 0.0); everything else must really have compiled.
    resident_float = kind == "resident" and E.value_columns(_EDGE_CASES[name]) == {"f"}
    assert bool(E.lookup_columns(compiled)) != resident_float


def test_resident_floats_and_measures_keep_value_space(tables):
    resident = tables["resident"]
    assert resident.code_space_categories("f") is None
    assert resident.code_space_categories("m") is None
    assert resident.code_space_categories("s") is not None
    assert tables["chunked"].code_space_categories("f") is not None


def test_resident_measures_never_qualify_whatever_is_cached():
    # Whether a column runs in code space must not depend on what an
    # earlier call happened to cache: an integer measure stays in value
    # space even once its dictionary exists.
    table = Table(
        "t",
        {"d": np.array([1, 2, 1]), "n": np.array([5, 6, 5])},
        roles={"d": ColumnRole.DIMENSION, "n": ColumnRole.MEASURE},
    )
    assert table.code_space_categories("n") is None
    table.dictionary("n")
    assert table.code_space_categories("n") is None
    assert table.code_space_categories("d").tolist() == [1, 2]


def test_code_only_columns_are_never_decoded(tables):
    table = tables["chunked"]
    store = make_store("col", table)
    query = _query(E.eq("s", "a"))
    code_space = CodeSpace(store, [query], N_ROWS)
    arrays = code_space.scan(["s"], 0, CHUNK_ROWS, ExecutionStats())
    assert "s" not in arrays and E.codes_key("s") in arrays
    assert code_space.lookup_columns == ("s",)


def test_no_code_space_below_the_dictionary_size(tables):
    # Compiling over more categories than the call scans rows would cost
    # more than it saves: the call stays in value space.
    store = make_store("col", tables["chunked"])
    expr = E.eq("s", "a")
    assert CodeSpace(store, [_query(expr)], 3).compile(expr, frozenset()) is expr


# --------------------------------------------------------------------------- #
# through the executors
# --------------------------------------------------------------------------- #


@contextmanager
def _value_space_only():
    with mock.patch.object(Table, "code_space_categories", return_value=None):
        yield


def _flag_queries(target, predicate=None, derived=()):
    flag = DerivedColumn("seedb_flag", E.CaseWhen(target, E.Lit(1), E.Lit(0)))
    return [
        AggregateQuery(
            table="t",
            group_by=(dim, "seedb_flag"),
            aggregates=(
                AggregateSpec(AggregateFunction.SUM, "m", "sum_m"),
                AggregateSpec(
                    AggregateFunction.AVG,
                    E.CaseWhen(E.eq("s", "b"), E.Col("m"), E.Lit(0.0)),
                    "avg_case",
                ),
                AggregateSpec(AggregateFunction.COUNT, None, "n"),
            ),
            predicate=predicate,
            derived=derived + (flag,),
        )
        for dim in ("s", "i", "f")
    ]


def _run_both_executors(table, queries):
    store = make_store("col", table)
    per_query = QueryExecutor(store)
    return (
        [result for result, _ in SharedScanExecutor(store).execute_batch(queries)],
        [per_query.execute(query)[0] for query in queries],
    )


def _assert_results_bitwise(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.n_groups == want.n_groups
        assert got.input_rows == want.input_rows
        for side_got, side_want in ((got.groups, want.groups), (got.values, want.values)):
            assert list(side_got) == list(side_want)
            for name in side_want:
                a, b = np.asarray(side_got[name]), np.asarray(side_want[name])
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def _check_executors(table, queries):
    """Both executors' results, asserted bitwise those without code space.

    An ill-formed tree (text < number, a column-free flag) must fail the
    same way without code space; then ``None`` is returned.
    """
    with np.errstate(all="ignore"):
        try:
            compiled = _run_both_executors(table, queries)
        except Exception as exc:  # noqa: BLE001 - the type itself is compared
            with _value_space_only(), pytest.raises(type(exc)):
                _run_both_executors(table, queries)
            return None
        with _value_space_only():
            reference = _run_both_executors(table, queries)
    for got, want in zip(compiled, reference):
        _assert_results_bitwise(got, want)
    return compiled


@pytest.mark.parametrize("kind", ["resident", "chunked"])
@settings(max_examples=40, deadline=None)
@given(target=_boolean_trees(), predicate=st.none() | _boolean_trees(depth=1))
def test_property_executors_are_bitwise_value_space(tables, kind, target, predicate):
    _check_executors(tables[kind], _flag_queries(target, predicate))


@pytest.mark.parametrize("kind", ["resident", "chunked"])
def test_derived_alias_shadowing_a_base_column_stays_in_value_space(tables, kind):
    # The query's own "s" is derived; its predicate and flag must read the
    # derived values, never the base column's dictionary codes.
    shadow = DerivedColumn(
        "s", E.CaseWhen(E.eq("i", 2), E.Lit("zz"), E.Lit("a"))
    )
    predicate = E.Not(E.eq("s", "zz"))
    queries = _flag_queries(E.eq("s", "a"), predicate, derived=(shadow,))[1:]
    queries.append(_flag_queries(E.eq("s", "a"))[1])  # a base-"s" neighbour
    results = _check_executors(tables[kind], queries)[0]
    code_space = CodeSpace(make_store("col", tables[kind]), queries, N_ROWS)
    aliases = queries[0].derived_aliases
    assert code_space.compile(predicate, aliases) is predicate
    flag = queries[-1].derived[-1].expression
    compiled_flag = code_space.compile(flag, queries[-1].derived_aliases)
    assert E.lookup_columns(compiled_flag) == {"s"}
    # The derived "s" is never "zz" after the filter, so flag == 1 everywhere.
    assert set(results[0].groups["seedb_flag"].tolist()) == {1}


# --------------------------------------------------------------------------- #
# concurrency
# --------------------------------------------------------------------------- #


def test_concurrent_batches_never_share_compiled_state(tables):
    """Two targets over different columns, compiled before either scans.

    Every thread's first scan waits for the other thread, so both calls
    have compiled their batch before either prepares a range.  An
    executor that kept its compiled state on the instance would then
    serve one thread the other's lookups and skip list.
    """
    table = tables["chunked"]
    # The two batches read different columns through codes, so neither's
    # lookups or skip list can serve the other.
    batches = [
        [
            AggregateQuery(
                table="t",
                group_by=(dim, "seedb_flag"),
                aggregates=(AggregateSpec(AggregateFunction.SUM, "m", "sum_m"),),
                predicate=predicate,
                derived=(DerivedColumn("seedb_flag", E.CaseWhen(target, E.Lit(1), E.Lit(0))),),
            )
            for dim in ("s", "i", "f")
        ]
        for target, predicate in (
            (E.eq("s", "a"), E.Not(E.eq("s", "c"))),
            (E.isin("i", [0, 7]), E.Comparison("<", E.Col("i"), E.Lit(7))),
        )
    ]
    serial = [
        [r for r, _ in SharedScanExecutor(make_store("col", table)).execute_batch(b)]
        for b in batches
    ]
    store = make_store("col", table)
    executor = SharedScanExecutor(store)
    barrier = threading.Barrier(len(batches), timeout=30)
    waited: set[int] = set()
    real_scan = store.scan

    def scan(*args, **kwargs):
        me = threading.get_ident()
        if me not in waited:
            waited.add(me)
            barrier.wait()
        return real_scan(*args, **kwargs)

    store.scan = scan
    outcomes: list[object] = [None] * len(batches)

    def run(k: int) -> None:
        try:
            outcomes[k] = [r for r, _ in executor.execute_batch(batches[k])]
        except BaseException as exc:  # surfaced below
            outcomes[k] = exc

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(batches))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
        assert not thread.is_alive()
    for outcome, expected in zip(outcomes, serial):
        if isinstance(outcome, BaseException):
            raise outcome
        _assert_results_bitwise(outcome, expected)


# --------------------------------------------------------------------------- #
# a refresh from disk between compiling and scanning
# --------------------------------------------------------------------------- #

#: Appended rows: every dimension gains a category that sorts before all
#: the others, so each existing row's code shifts by one after a refresh.
_APPENDED = {
    "s": ["0", "b"],
    "i": [-10, 2],
    "f": [-9.0, 1.0],
    "m": [1.0, 2.0],
}
_REFRESH_EXPRS = [
    E.eq("s", "a"),
    E.CaseWhen(E.eq("s", "c"), E.Col("s"), E.Lit("zz")),
    E.Comparison(">=", E.Col("i"), E.Lit(2)),
    E.isin("f", [1.0, -2.5]),
    # "i" is read by value and through a lookup in one tree.
    E.Arithmetic("+", E.Col("i"), E.CaseWhen(E.eq("i", 2), E.Col("m"), E.Lit(0.0))),
]


def _appended_store(path):
    """A table opened before rows were appended to its store on disk."""
    table = _write_chunk_store(path)
    append_rows(path, _APPENDED)
    assert table.nrows == N_ROWS
    return table


def _refresh_at_first_scan(store):
    """Make ``store``'s first scan refresh its table from disk first."""
    real_scan = store.scan

    def scan(*args, **kwargs):
        store.scan = real_scan
        assert store.table.refresh_from_disk()
        return real_scan(*args, **kwargs)

    store.scan = scan


@pytest.mark.parametrize("expr", _REFRESH_EXPRS, ids=str)
def test_refresh_between_compile_and_scan_is_bitwise(tmp_path, expr):
    """Lookups compiled over the old categories never read the new codes.

    ``Table.refresh_from_disk`` may run alongside a call (the service
    refreshes on append without a reader lock).  The new dictionary
    recodes every row, so a range scanned after it must fall back to
    value space rather than gather the old lookup by the new codes.
    """
    table = _appended_store(tmp_path / "t")
    store = make_store("col", table)
    query = _query(expr)
    code_space = CodeSpace(store, [query], N_ROWS)
    compiled = code_space.compile(expr, query.derived_aliases)
    assert E.lookup_columns(compiled)
    assert table.refresh_from_disk()
    base_columns = sorted(query.base_columns_needed())
    for start, stop in RANGES:
        values = {name: table.materialize_range(name, start, stop) for name in "sifm"}
        arrays = code_space.scan(base_columns, start, stop, ExecutionStats())
        _assert_bitwise(
            _outcome(lambda: compiled.evaluate(arrays)),
            _outcome(lambda: expr.evaluate(values)),
        )


def test_refresh_mid_call_through_the_executors(tmp_path):
    target = E.Or((E.eq("s", "a"), E.isin("i", [0, 7])))
    queries = [
        dataclasses.replace(query, row_range=(0, N_ROWS))
        for query in _flag_queries(target, E.Not(E.eq("s", "c")))
    ]

    def refreshed_mid_call(name, run):
        path = tmp_path / name
        store = make_store("col", _appended_store(path))
        _refresh_at_first_scan(store)
        result = run(store)
        assert store.table.nrows == N_ROWS + len(_APPENDED["s"])
        return result

    shared = refreshed_mid_call(
        "shared",
        lambda store: [r for r, _ in SharedScanExecutor(store).execute_batch(queries)],
    )
    per_query = [
        refreshed_mid_call(f"q{k}", lambda store: QueryExecutor(store).execute(q)[0])
        for k, q in enumerate(queries)
    ]
    # The same rows, read from a fresh open of the appended store in value
    # space.
    fresh = make_store("col", open_table(tmp_path / "shared"))
    with _value_space_only():
        want = [QueryExecutor(fresh).execute(q)[0] for q in queries]
    _assert_results_bitwise(shared, want)
    _assert_results_bitwise(per_query, want)
