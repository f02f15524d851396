"""Typed expression trees with vectorized evaluation.

Expressions power WHERE predicates and the CASE arms of combined
target/reference queries.  Every node can

* evaluate itself over a mapping of column name → numpy array,
* report the columns it references (so the executor scans only those), and
* print itself as SQL text (so the generator can ship it to a real DBMS).

The tree is deliberately small: column/literal leaves, comparisons, boolean
connectives, IN, arithmetic, and CASE WHEN.

Every node is elementwise, so a subtree that reads one column ``c`` obeys
``f(values)[i] == f(categories)[codes[i]]`` whenever ``values ==
categories[codes]`` holds bit for bit.  :func:`compile_codes` uses that to
rewrite such subtrees into :class:`Lookup` leaves evaluated once over the
column's dictionary; the executors then gather them by dictionary codes
instead of comparing every row's value.
"""

from __future__ import annotations

import abc
import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.exceptions import QueryError

ColumnValues = Mapping[str, np.ndarray]

_COMPARISON_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_ARITHMETIC_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


def _sql_literal(value: object) -> str:
    """Render a Python value as a SQL literal.

    Non-finite floats are rejected: ``repr(float("inf"))`` is ``'inf'``,
    which no SQL dialect accepts as a numeric literal, so shipping it to a
    real backend would fail far from the source of the bad value.
    ``None`` is rejected too: ``str(None)`` would render the string
    ``'None'``, which SQL matches while native evaluation matches nothing.
    """
    if value is None:
        raise QueryError("cannot render None as a SQL literal (NULL is not supported)")
    if isinstance(value, (bool, np.bool_)):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float, np.integer, np.floating)):
        number = value if not isinstance(value, (np.integer, np.floating)) else value.item()
        if isinstance(number, float) and not math.isfinite(number):
            raise QueryError(
                f"cannot render non-finite float {number!r} as a SQL literal"
            )
        return repr(number)
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"


class Expression(abc.ABC):
    """Base class for all expression nodes."""

    #: Names of the fields holding sub-expressions (or tuples of them).
    _child_fields: tuple[str, ...] = ()

    @abc.abstractmethod
    def evaluate(self, columns: ColumnValues) -> np.ndarray:
        """Vectorized evaluation over column arrays."""

    @abc.abstractmethod
    def referenced_columns(self) -> frozenset[str]:
        """Names of all columns this expression reads."""

    @abc.abstractmethod
    def to_sql(self) -> str:
        """SQL text rendering of this expression."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.to_sql()})"

    # Convenience combinators -------------------------------------------------

    def and_(self, other: "Expression") -> "Expression":
        return And((self, other))

    def or_(self, other: "Expression") -> "Expression":
        return Or((self, other))

    def not_(self) -> "Expression":
        return Not(self)


@dataclass(frozen=True, repr=False)
class Col(Expression):
    """A column reference."""

    name: str

    def evaluate(self, columns: ColumnValues) -> np.ndarray:
        try:
            return columns[self.name]
        except KeyError:
            raise QueryError(f"expression references missing column {self.name!r}") from None

    def referenced_columns(self) -> frozenset[str]:
        return frozenset({self.name})

    def to_sql(self) -> str:
        return self.name


@dataclass(frozen=True, repr=False)
class Lit(Expression):
    """A literal constant."""

    value: object

    def evaluate(self, columns: ColumnValues) -> np.ndarray:
        return np.asarray(self.value)

    def referenced_columns(self) -> frozenset[str]:
        return frozenset()

    def to_sql(self) -> str:
        return _sql_literal(self.value)


@dataclass(frozen=True, repr=False)
class Comparison(Expression):
    """Binary comparison producing a boolean array."""

    _child_fields = ("left", "right")

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARISON_OPS:
            raise QueryError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, columns: ColumnValues) -> np.ndarray:
        result = _COMPARISON_OPS[self.op](
            self.left.evaluate(columns), self.right.evaluate(columns)
        )
        return np.asarray(result, dtype=bool)

    def referenced_columns(self) -> frozenset[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def to_sql(self) -> str:
        return f"{self.left.to_sql()} {self.op} {self.right.to_sql()}"


@dataclass(frozen=True, repr=False)
class Arithmetic(Expression):
    """Binary arithmetic over numeric expressions."""

    _child_fields = ("left", "right")

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _ARITHMETIC_OPS:
            raise QueryError(f"unknown arithmetic operator {self.op!r}")

    def evaluate(self, columns: ColumnValues) -> np.ndarray:
        return _ARITHMETIC_OPS[self.op](
            self.left.evaluate(columns), self.right.evaluate(columns)
        )

    def referenced_columns(self) -> frozenset[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"


@dataclass(frozen=True, repr=False)
class And(Expression):
    """N-ary conjunction."""

    _child_fields = ("operands",)

    operands: tuple[Expression, ...]

    def __post_init__(self) -> None:
        if len(self.operands) < 2:
            raise QueryError("AND requires at least two operands")

    def evaluate(self, columns: ColumnValues) -> np.ndarray:
        result = self.operands[0].evaluate(columns).astype(bool)
        for operand in self.operands[1:]:
            result = result & operand.evaluate(columns)
        return result

    def referenced_columns(self) -> frozenset[str]:
        return frozenset().union(*(o.referenced_columns() for o in self.operands))

    def to_sql(self) -> str:
        return "(" + " AND ".join(o.to_sql() for o in self.operands) + ")"


@dataclass(frozen=True, repr=False)
class Or(Expression):
    """N-ary disjunction."""

    _child_fields = ("operands",)

    operands: tuple[Expression, ...]

    def __post_init__(self) -> None:
        if len(self.operands) < 2:
            raise QueryError("OR requires at least two operands")

    def evaluate(self, columns: ColumnValues) -> np.ndarray:
        result = self.operands[0].evaluate(columns).astype(bool)
        for operand in self.operands[1:]:
            result = result | operand.evaluate(columns)
        return result

    def referenced_columns(self) -> frozenset[str]:
        return frozenset().union(*(o.referenced_columns() for o in self.operands))

    def to_sql(self) -> str:
        return "(" + " OR ".join(o.to_sql() for o in self.operands) + ")"


@dataclass(frozen=True, repr=False)
class Not(Expression):
    """Boolean negation."""

    _child_fields = ("operand",)

    operand: Expression

    def evaluate(self, columns: ColumnValues) -> np.ndarray:
        return ~self.operand.evaluate(columns).astype(bool)

    def referenced_columns(self) -> frozenset[str]:
        return self.operand.referenced_columns()

    def to_sql(self) -> str:
        return f"NOT ({self.operand.to_sql()})"


@dataclass(frozen=True, repr=False)
class In(Expression):
    """Membership test against a literal value list."""

    _child_fields = ("operand",)

    operand: Expression
    values: tuple[object, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise QueryError("IN requires at least one value")

    def evaluate(self, columns: ColumnValues) -> np.ndarray:
        arr = np.asarray(self.operand.evaluate(columns))
        values = self.values
        if arr.dtype.kind in "USbiufc":
            # Keep the literals ``=`` could match: text never equals a
            # number.  Promoting a mixed list to one dtype would turn every
            # number into text (or, on np.isin's size-chosen sort path,
            # every operand value too), so ``i IN ('7', 2)`` would miss 2.
            text = arr.dtype.kind in "US"
            values = tuple(v for v in values if isinstance(v, (str, bytes)) == text)
            if not values:
                return np.zeros(arr.shape, dtype=bool)
        return np.isin(arr, np.asarray(values))

    def referenced_columns(self) -> frozenset[str]:
        return self.operand.referenced_columns()

    def to_sql(self) -> str:
        rendered = ", ".join(_sql_literal(v) for v in self.values)
        return f"{self.operand.to_sql()} IN ({rendered})"


@dataclass(frozen=True, repr=False)
class CaseWhen(Expression):
    """``CASE WHEN cond THEN a ELSE b END`` (single arm).

    Used by the sharing optimizer to fold target and reference into one
    query, e.g. ``SUM(CASE WHEN <target predicate> THEN m ELSE 0 END)``.
    """

    _child_fields = ("condition", "then", "otherwise")

    condition: Expression
    then: Expression
    otherwise: Expression

    def evaluate(self, columns: ColumnValues) -> np.ndarray:
        cond = self.condition.evaluate(columns).astype(bool)
        return np.where(cond, self.then.evaluate(columns), self.otherwise.evaluate(columns))

    def referenced_columns(self) -> frozenset[str]:
        return (
            self.condition.referenced_columns()
            | self.then.referenced_columns()
            | self.otherwise.referenced_columns()
        )

    def to_sql(self) -> str:
        return (
            f"CASE WHEN {self.condition.to_sql()} THEN {self.then.to_sql()} "
            f"ELSE {self.otherwise.to_sql()} END"
        )


# --------------------------------------------------------------------------- #
# code-space compilation
# --------------------------------------------------------------------------- #


def codes_key(column: str) -> tuple[str, str]:
    """Evaluation-mapping key under which ``column``'s dictionary codes go.

    A tuple, so it can never collide with a column name.
    """
    return ("codes", column)


@dataclass(frozen=True, repr=False, eq=False)
class Lookup(Expression):
    """A single-column subtree pre-evaluated over that column's dictionary.

    ``values[k]`` is ``source`` evaluated at category ``k``; evaluation
    gathers it by the int32 codes passed under :func:`codes_key`, or
    evaluates ``source`` by value when the mapping holds no codes for
    ``column`` (a range whose dictionary is not the compiled one).  Built
    only by :func:`compile_codes`, for one execution call: it compares and
    hashes by identity and prints as its source.
    """

    column: str
    values: np.ndarray
    source: Expression

    def evaluate(self, columns: ColumnValues) -> np.ndarray:
        codes = columns.get(codes_key(self.column))  # type: ignore[call-overload]
        if codes is None:  # no codes over these categories: value space
            return self.source.evaluate(columns)
        return self.values[codes]

    def referenced_columns(self) -> frozenset[str]:
        return frozenset({self.column})

    def to_sql(self) -> str:
        return self.source.to_sql()


def _children(node: Expression) -> list[Expression]:
    """Direct sub-expressions of ``node``."""
    children: list[Expression] = []
    for name in node._child_fields:
        value = getattr(node, name)
        children.extend(value if isinstance(value, tuple) else (value,))
    return children


def _map_children(
    node: Expression, fn: Callable[[Expression], Expression]
) -> Expression:
    """``node`` with ``fn`` applied to each direct sub-expression."""
    changes: dict[str, object] = {}
    for name in node._child_fields:
        value = getattr(node, name)
        if isinstance(value, tuple):
            mapped: object = tuple(fn(v) for v in value)
            changed = any(m is not v for m, v in zip(mapped, value))
        else:
            mapped = fn(value)
            changed = mapped is not value
        if changed:
            changes[name] = mapped
    return dataclasses.replace(node, **changes) if changes else node  # type: ignore[type-var]


def compile_codes(
    expr: Expression, categories: Mapping[str, np.ndarray]
) -> Expression:
    """Rewrite ``expr`` to read the columns in ``categories`` through codes.

    Every maximal subtree that reads exactly one column named in
    ``categories`` (other than a bare :class:`Col`) becomes a
    :class:`Lookup` holding the subtree evaluated over that column's
    sorted categories.  Because every node is elementwise, evaluating the
    result with ``codes_key(c) -> codes`` in the mapping is bitwise equal
    (values and dtype) to evaluating ``expr`` over ``categories[c][codes]``.
    A subtree whose evaluation over the categories raises or does not come
    out one value per category is left as is, so value-space evaluation
    still reports the same error.
    """
    columns = expr.referenced_columns()
    if not columns or isinstance(expr, (Col, Lit)):
        return expr
    if len(columns) > 1:
        return _map_children(expr, lambda child: compile_codes(child, categories))
    (name,) = columns
    cats = categories.get(name)
    if cats is None:
        return expr
    try:
        with np.errstate(all="ignore"):
            values = np.asarray(expr.evaluate({name: cats}))
    except (TypeError, ValueError):  # ill-typed, e.g. text < number
        return expr
    if values.shape != cats.shape:
        return expr
    return Lookup(name, values, expr)


def value_columns(expr: Expression) -> frozenset[str]:
    """Columns ``expr`` reads by value (a :class:`Lookup` reads only codes)."""
    if isinstance(expr, Lookup):
        return frozenset()
    if isinstance(expr, Col):
        return frozenset({expr.name})
    return frozenset().union(*(value_columns(c) for c in _children(expr)))


def lookup_columns(expr: Expression) -> frozenset[str]:
    """Columns ``expr`` reads through :class:`Lookup` leaves (codes)."""
    if isinstance(expr, Lookup):
        return frozenset({expr.column})
    return frozenset().union(*(lookup_columns(c) for c in _children(expr)))


# --------------------------------------------------------------------------- #
# convenience constructors
# --------------------------------------------------------------------------- #


def col(name: str) -> Col:
    return Col(name)


def lit(value: object) -> Lit:
    return Lit(value)


def eq(column: str, value: object) -> Comparison:
    """``column = value`` — the most common SeeDB target-selection shape."""
    return Comparison("=", Col(column), Lit(value))


def neq(column: str, value: object) -> Comparison:
    return Comparison("!=", Col(column), Lit(value))


def between(column: str, low: object, high: object) -> Expression:
    """``low <= column AND column <= high``."""
    return And(
        (Comparison("<=", Lit(low), Col(column)), Comparison("<=", Col(column), Lit(high)))
    )


def isin(column: str, values: Sequence[object]) -> In:
    return In(Col(column), tuple(values))


def true() -> Expression:
    """A predicate that keeps every row (SQL renders as ``1 = 1``)."""
    return Comparison("=", Lit(1), Lit(1))
