"""Tests for the expression tree: evaluation, SQL text, column tracking."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.db import expressions as E
from repro.exceptions import QueryError

COLS = {
    "a": np.array([1, 2, 3, 4]),
    "b": np.array([4.0, 3.0, 2.0, 1.0]),
    "s": np.array(["x", "y", "x", "z"]),
}


class TestLeaves:
    def test_col_eval(self):
        np.testing.assert_array_equal(E.col("a").evaluate(COLS), COLS["a"])

    def test_col_missing_raises(self):
        with pytest.raises(QueryError):
            E.col("nope").evaluate(COLS)

    def test_lit_eval(self):
        assert E.lit(5).evaluate(COLS) == 5

    def test_sql_literals(self):
        assert E.lit(5).to_sql() == "5"
        assert E.lit(2.5).to_sql() == "2.5"
        assert E.lit("it's").to_sql() == "'it''s'"
        assert E.lit(True).to_sql() == "TRUE"

    def test_non_finite_float_literals_raise(self):
        # Regression: repr(inf) / repr(nan) are not valid SQL literals; a
        # real backend would reject the generated text far from the source
        # of the bad value, so rendering must fail loudly instead.
        for bad in (float("inf"), float("-inf"), float("nan"), np.float64("nan")):
            with pytest.raises(QueryError, match="non-finite"):
                E.lit(bad).to_sql()
            with pytest.raises(QueryError, match="non-finite"):
                E.In(E.col("a"), (1.0, bad)).to_sql()

    def test_none_literal_raises(self):
        # Regression: str(None) rendered the string 'None', so SQLite's
        # ``c = 'None'`` matched rows holding "None" while native
        # ``eq(c, None)`` matched nothing — a silent backend divergence.
        with pytest.raises(QueryError, match="None"):
            E.eq("s", None).to_sql()
        with pytest.raises(QueryError, match="None"):
            E.isin("s", ["x", None]).to_sql()

    def test_in_never_matches_text_against_numbers(self):
        # np.isin promotes text and numbers to a common dtype only on its
        # size-chosen sort path; IN must not depend on how many rows come.
        many = tuple(str(i) for i in range(40))
        for n in (3, 100_000):
            cols = {"a": np.arange(n), "s": np.arange(n).astype(str)}
            assert not E.isin("a", many).evaluate(cols).any()
            assert not E.isin("s", tuple(range(40))).evaluate(cols).any()

    def test_mixed_in_list_matches_like_a_disjunction_of_equalities(self):
        # Regression: a mixed list was promoted to one dtype, so the
        # numbers in ('7', 2) became text and i IN ('7', 2) missed i == 2.
        cols = {"i": np.array([2, 7, 3]), "s": np.array(["2", "7", "a"])}
        for column, values in (
            ("i", ("7", 2)),
            ("i", ("7", 2, 2.5)),
            ("i", (7, "x", 3.0)),
            ("s", ("7", 2)),
            ("s", (2, "a", 7.0)),
        ):
            either = E.Or(tuple(E.eq(column, v) for v in values))
            np.testing.assert_array_equal(
                E.isin(column, values).evaluate(cols), either.evaluate(cols)
            )
        assert E.isin("i", ("7", 2)).evaluate(cols).tolist() == [True, False, False]
        assert E.isin("s", ("7", 2)).evaluate(cols).tolist() == [False, True, False]

    def test_numpy_scalar_literals_render_as_plain_numbers(self):
        assert E.lit(np.int64(3)).to_sql() == "3"
        assert E.lit(np.float64(2.5)).to_sql() == "2.5"

    def test_numpy_bool_literals_render_as_sql_booleans(self):
        # Regression: np.bool_ fell through to the string branch and
        # rendered as 'True' — a quoted string no backend reads as a bool.
        assert E.lit(np.True_).to_sql() == "TRUE"
        assert E.lit(np.False_).to_sql() == "FALSE"


class TestComparisons:
    @pytest.mark.parametrize(
        "op,expected",
        [
            ("=", [False, True, False, False]),
            ("!=", [True, False, True, True]),
            ("<", [True, False, False, False]),
            ("<=", [True, True, False, False]),
            (">", [False, False, True, True]),
            (">=", [False, True, True, True]),
        ],
    )
    def test_each_operator(self, op, expected):
        expr = E.Comparison(op, E.col("a"), E.lit(2))
        assert expr.evaluate(COLS).tolist() == expected

    def test_string_equality(self):
        assert E.eq("s", "x").evaluate(COLS).tolist() == [True, False, True, False]

    def test_unknown_operator_rejected(self):
        with pytest.raises(QueryError):
            E.Comparison("~", E.col("a"), E.lit(1))

    def test_sql_text(self):
        assert E.eq("s", "x").to_sql() == "s = 'x'"


class TestBooleans:
    def test_and_or_not(self):
        both = E.eq("s", "x").and_(E.Comparison(">", E.col("a"), E.lit(1)))
        assert both.evaluate(COLS).tolist() == [False, False, True, False]
        either = E.eq("s", "x").or_(E.eq("s", "z"))
        assert either.evaluate(COLS).tolist() == [True, False, True, True]
        negated = E.eq("s", "x").not_()
        assert negated.evaluate(COLS).tolist() == [False, True, False, True]

    def test_nary_validation(self):
        with pytest.raises(QueryError):
            E.And((E.eq("s", "x"),))
        with pytest.raises(QueryError):
            E.Or((E.eq("s", "x"),))

    def test_between(self):
        expr = E.between("a", 2, 3)
        assert expr.evaluate(COLS).tolist() == [False, True, True, False]

    def test_isin(self):
        expr = E.isin("s", ["x", "z"])
        assert expr.evaluate(COLS).tolist() == [True, False, True, True]
        with pytest.raises(QueryError):
            E.In(E.col("s"), ())

    def test_true_predicate(self):
        assert E.true().evaluate(COLS).tolist() is True or E.true().evaluate(
            COLS
        ).all()


class TestArithmeticAndCase:
    def test_arithmetic(self):
        expr = E.Arithmetic("+", E.col("a"), E.col("b"))
        assert expr.evaluate(COLS).tolist() == [5.0, 5.0, 5.0, 5.0]
        with pytest.raises(QueryError):
            E.Arithmetic("%", E.col("a"), E.col("b"))

    def test_case_when(self):
        expr = E.CaseWhen(E.eq("s", "x"), E.lit(1), E.lit(0))
        assert expr.evaluate(COLS).tolist() == [1, 0, 1, 0]

    def test_case_sql(self):
        expr = E.CaseWhen(E.eq("s", "x"), E.lit(1), E.lit(0))
        assert expr.to_sql() == "CASE WHEN s = 'x' THEN 1 ELSE 0 END"


class TestReferencedColumns:
    def test_collects_across_tree(self):
        expr = E.CaseWhen(
            E.eq("s", "x"), E.col("a"), E.Arithmetic("*", E.col("b"), E.lit(2))
        )
        assert expr.referenced_columns() == {"s", "a", "b"}

    def test_literal_references_nothing(self):
        assert E.lit(1).referenced_columns() == frozenset()


@given(
    values=st.lists(st.integers(-100, 100), min_size=1, max_size=50),
    threshold=st.integers(-100, 100),
)
def test_comparison_matches_numpy_semantics(values, threshold):
    """Property: expression eval agrees with direct numpy comparison."""
    cols = {"v": np.asarray(values)}
    expr = E.Comparison("<", E.col("v"), E.lit(threshold))
    np.testing.assert_array_equal(expr.evaluate(cols), np.asarray(values) < threshold)


@given(
    values=st.lists(st.integers(0, 10), min_size=1, max_size=50),
    low=st.integers(0, 10),
    high=st.integers(0, 10),
)
def test_between_is_conjunction_of_bounds(values, low, high):
    cols = {"v": np.asarray(values)}
    result = E.between("v", low, high).evaluate(cols)
    expected = (np.asarray(values) >= low) & (np.asarray(values) <= high)
    np.testing.assert_array_equal(result, expected)
