"""Seeded request generators and the reference oracle.

Everything here is a pure function of the seed and of the responses the
service returns, so the same seed replays the same analyst behaviour.
"""

from __future__ import annotations

import json
import random
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.recommender import SeeDB, tuned_config
from repro.data import registry
from repro.db.expressions import And, eq
from repro.db.table import Table

DATASET = "diab"
SCALE = "small"
#: The dataset's split attribute: every target starts with this clause.
SPLIT = ("readmitted", "yes")
K = 5
#: Recommend steps per drill-down session.
DEPTH = 3
#: Utilities must agree to this tolerance (the repo's determinism contract).
UTILITY_TOLERANCE = 1e-9

Clause = tuple[str, Any]


def build_dataset(seed: int = 0, n_rows: int | None = None) -> Table:
    """DIAB at the benchmark's scale, exactly as the service builds it."""
    return registry.build(DATASET, seed=seed, scale=SCALE, n_rows=n_rows)


def opening_clauses(table: Table, seed: int) -> list[Clause]:
    """Every ``(dimension, value)`` pair of ``table``, in a seeded order."""
    pairs = [
        (dim, value.item() if hasattr(value, "item") else value)
        for dim in table.dimension_names()
        for value in table.categories(dim)
    ]
    random.Random(seed).shuffle(pairs)
    return pairs


def recommend_request(target: Sequence[Clause], dimensions: Sequence[str]) -> dict:
    """A recommend body whose view space skips the constrained columns.

    Views over a column the target pins to one value are degenerate and
    crowd the top-k, so a drill-down that offered them would stall.
    """
    constrained = {column for column, _ in target}
    return {
        "target": [{"column": c, "value": v} for c, v in target],
        "k": K,
        "dimensions": [d for d in dimensions if d not in constrained],
    }


class DrillDown:
    """One analyst session: open on a target, then drill ``depth - 1`` times.

    Each drill adds ``dimension = top_group`` of a seeded pick among the
    returned top-k views.  ``steps`` counts the responses consumed.
    """

    def __init__(
        self,
        opening: Clause,
        dimensions: Sequence[str],
        rng: random.Random,
        depth: int = DEPTH,
    ) -> None:
        self.target: list[Clause] = [SPLIT, opening]
        self.dimensions = tuple(dimensions)
        self.rng = rng
        self.depth = depth
        self.steps = 0

    def request(self) -> dict:
        """The body for the current target."""
        return recommend_request(self.target, self.dimensions)

    def advance(self, response: Mapping[str, Any]) -> dict | None:
        """Consume one response; the next request, or None when done."""
        self.steps += 1
        if self.steps >= self.depth:
            return None
        views = [v for v in response.get("views", []) if v.get("top_group") is not None]
        if not views:
            return None
        view = self.rng.choice(views)
        self.target.append((view["dimension"], view["top_group"]))
        return self.request()


def append_batches(table: Table, batch_rows: int) -> list[dict[str, list]]:
    """``table``'s rows as consecutive columnar append bodies."""
    columns = {name: table.column(name).tolist() for name in table.column_names}
    return [
        {name: values[start : start + batch_rows] for name, values in columns.items()}
        for start in range(0, table.nrows, batch_rows)
    ]


def _predicate(target: Sequence[Mapping[str, Any]]):
    parts = [eq(clause["column"], clause["value"]) for clause in target]
    return parts[0] if len(parts) == 1 else And(tuple(parts))


class Oracle:
    """Answers recommend requests with a fresh in-process ``SeeDB``.

    The result and delta caches are off, so every answer is computed from
    the rows alone.  Answers are memoized per request body.
    """

    def __init__(self, table: Table) -> None:
        config = tuned_config("col").with_(result_cache=False, delta_cache=False)
        self.seedb = SeeDB.over_table(table, store="col", config=config)
        self._answers: dict[str, list[tuple[tuple[str, str, str], float, Any]]] = {}

    def answer(self, request: Mapping[str, Any]) -> list[tuple[tuple[str, str, str], float, Any]]:
        """``[(view key, utility, top_group), ...]`` best first."""
        memo_key = json.dumps(request, sort_keys=True)
        cached = self._answers.get(memo_key)
        if cached is not None:
            return cached
        run = self.seedb.run_engine(
            _predicate(request["target"]),
            k=request["k"],
            strategy="sharing",
            pruner="none",
            dimensions=request["dimensions"],
            parallelism="modeled",
        )
        answer = []
        for key in run.selected:
            dists = run.distributions[key]
            top = None
            if len(dists.keys):
                top = dists.keys[int(np.argmax(np.abs(dists.target - dists.reference)))]
                top = top.item() if hasattr(top, "item") else top
            answer.append((tuple(key), float(run.utilities[key]), top))
        self._answers[memo_key] = answer
        return answer

    def mismatch(self, request: Mapping[str, Any], response: Mapping[str, Any]) -> str | None:
        """Why ``response`` is a wrong answer to ``request``; None if right."""
        expected = self.answer(request)
        views = response.get("views")
        if not isinstance(views, list) or len(views) != len(expected):
            return f"expected {len(expected)} views, got {views!r:.200}"
        for rank, (view, (key, utility, top)) in enumerate(zip(views, expected), start=1):
            got = (view.get("dimension"), view.get("measure"), view.get("func"))
            if got != key:
                return f"rank {rank}: view {got} != {key}"
            value = view.get("utility")
            tolerance = UTILITY_TOLERANCE * max(1.0, abs(utility))
            if not isinstance(value, (int, float)) or abs(value - utility) > tolerance:
                return f"rank {rank}: utility {value!r} != {utility!r}"
            if view.get("top_group") != top:
                return f"rank {rank}: top_group {view.get('top_group')!r} != {top!r}"
        return None


class PrefixOracle:
    """Oracles over each row prefix of a table that only grows by appends."""

    def __init__(self, base: Table, appended: Table) -> None:
        self.base = base
        self.appended = appended
        self._oracles: dict[int, Oracle] = {}

    def at(self, n_rows: int) -> Oracle:
        """The oracle over the first ``n_rows`` rows."""
        oracle = self._oracles.get(n_rows)
        if oracle is None:
            extra = n_rows - self.base.nrows
            if not 0 <= extra <= self.appended.nrows:
                raise ValueError(f"no prefix of {n_rows} rows")
            table = self.base
            if extra:
                table = Table.concat(
                    self.base.name, [self.base, self.appended.slice_rows(0, extra)]
                )
            oracle = self._oracles[n_rows] = Oracle(table)
        return oracle
