"""Batch-at-a-time execution equals row-at-a-time execution.

:meth:`QueryIterator.next_batch` hands out a fetch-free stretch of rows
per call.  Over random relations (duplicates, divisor values missing
from the dividend, dividend values missing from the divisor, empty
divisors for the direct algorithms, deleted records) stored under
random tiny storage configurations, every division strategy's plan must
give, drained with ``next()`` (the serve scheduler's path) and with
:func:`run_to_relation` (batches): the same rows in the same order,
equal CPU counters, equal I/O event logs, equal ``rows_produced`` on
every operator, and the oracle's answer.  Both must also equal a
record-at-a-time reference (:func:`row_at_a_time`): every operator
pulling its inputs one row per call and sorts merging through a heap.
Mixing ``next()`` and ``next_batch()`` on one batch-producing operator
-- the scans, sorts and mapping operators, the merge semi-join, and the
division roots -- must give the row sequence, counters and I/O events of
the reference.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.aggregate_division import HashAggregateDivision, SortAggregateDivision
from repro.core.hash_division import HashDivision
from repro.core.naive_division import NaiveDivision
from repro.errors import DivisionError, ReproError
from repro.executor.filter import Select
from repro.executor.hash_join import HashSemiJoin
from repro.executor import sort as sort_module
from repro.executor.iterator import ExecContext, QueryIterator, run_to_relation
from repro.executor.merge_join import MergeSemiJoin
from repro.executor.project import Project
from repro.executor.scan import RelationSource, StoredRelationScan
from repro.executor.sort import ExternalSort, count_reducer
from repro.obs.iotrace import IoEventLog
from repro.plan.physical import DIVISION_OPERATOR_STRATEGIES, build_division_operator
from repro.relalg.algebra import divide_set_semantics
from repro.relalg.predicates import ComparisonPredicate
from repro.relalg.relation import Relation
from repro.relalg.schema import Schema
from repro.storage.catalog import Catalog
from repro.storage.config import StorageConfig

DIVIDEND_SCHEMA = Schema.of_ints("q", "d", "pad")
DIVISOR_SCHEMA = Schema.of_ints("d")

#: Strategies that divide by counting: they reject an empty divisor and
#: are only correct when every dividend ``d`` occurs in the divisor or
#: they join first.
COUNTING = ("sort-agg no join", "sort-agg with join", "hash-agg no join", "hash-agg with join")


@st.composite
def configs(draw):
    """Tiny pages and pools: sorts spill, merge passes run, frames evict."""
    page_size = draw(st.sampled_from([256, 512, 1024]))
    buffer_size = page_size * draw(st.integers(2, 4))
    return StorageConfig(
        page_size=page_size,
        sort_run_page_size=draw(st.sampled_from([64, 128, 256])),
        buffer_size=buffer_size,
        memory_limit=buffer_size * draw(st.sampled_from([1, 1, 2])),
        sort_buffer_size=draw(st.sampled_from([128, 256, 512, 2048])),
    )


@st.composite
def divisions(draw):
    """A dividend (q, d, pad) with duplicates and a divisor (d,)."""
    quotients = draw(st.integers(1, 20))
    values = draw(st.integers(1, 10))
    divisor = draw(st.lists(st.integers(0, values + 2), max_size=values + 3))
    rows = []
    for q in range(quotients):
        for d in range(values):
            if draw(st.booleans()):
                rows.extend([(q, d, q * d)] * draw(st.integers(1, 3)))
    random.Random(draw(st.integers(0, 2**16))).shuffle(rows)
    return rows, [(d,) for d in divisor]


@st.composite
def cases(draw):
    dividend, divisor = draw(divisions())
    return {
        "config": draw(configs()),
        "dividend": dividend,
        "divisor": divisor,
        # Delete the stored dividend rows with q % k == 0 (tombstones,
        # possibly whole empty pages); 0 deletes nothing.
        "delete_mod": draw(st.sampled_from([0, 0, 2, 3])),
        # Read the dividend through Project (dropping ``pad``) or
        # through Select then Project.
        "select_below": draw(st.one_of(st.none(), st.integers(0, 20))),
    }


class _HeapMerge:
    """Reference for the page-exact merge: a heap merge of the runs'
    rows with one row of lookahead, handing out one row per stretch and
    charging as it pops."""

    def __init__(self, sort, runs):
        # The sort's key is None when it orders whole rows.
        key, cpu, reducer = sort._key or (lambda row: row), sort.ctx.cpu, sort.reducer
        per_pop = max(1, math.ceil(math.log2(max(2, len(runs)))))
        collapse = sort.distinct or reducer is not None
        merged = heapq.merge(*(run.scan_tuples(sort._codec) for run in runs), key=key)

        def rows():
            pending = None
            for row in merged:
                cpu.comparisons += per_pop
                if pending is None:
                    pending = row
                    continue
                if collapse:
                    cpu.comparisons += 1
                    if key(row) == key(pending):
                        if reducer is not None:
                            pending = reducer.combine(pending, row)
                        elif row != pending:
                            yield pending
                            pending = row
                        continue
                yield pending
                pending = row
            if pending is not None:
                yield pending

        self._rows = rows()

    def stretch(self):
        row = next(self._rows, None)
        return ([], []) if row is None else ([row], [0])


def _one_row(operator):
    row = operator.next()
    return [] if row is None else [row]


@contextlib.contextmanager
def row_at_a_time():
    """Record-at-a-time execution: every ``next_batch()`` returns one
    row, and sorts merge row by row through a heap."""
    with mock.patch.object(QueryIterator, "next_batch", _one_row), mock.patch.object(
        sort_module, "_RunMerge", _HeapMerge
    ):
        yield


def _store(case):
    """A fresh context with both relations stored cold."""
    trace = IoEventLog(capacity=1_000_000)
    ctx = ExecContext(config=case["config"], io_trace=trace)
    catalog = Catalog(ctx.pool, ctx.data_disk)
    catalog.store(Relation(DIVIDEND_SCHEMA, case["dividend"]), name="dividend", cold=True)
    catalog.store(Relation(DIVISOR_SCHEMA, case["divisor"]), name="divisor", cold=True)
    if case["delete_mod"]:
        catalog.delete_rows("dividend", lambda row: row[0] % case["delete_mod"] != 0)
    ctx.pool.flush_device("data")
    ctx.reset_meters()
    return ctx, catalog, trace


def _dividend_input(ctx, catalog, case):
    source = StoredRelationScan(ctx, catalog.get("dividend"))
    if case["select_below"] is not None:
        source = Select(source, ComparisonPredicate("q", "<", case["select_below"]))
    return Project(source, ["q", "d"])


def _walk(operator):
    yield operator
    for child in operator.children():
        yield from _walk(child)


def _observe(case, strategy, drain):
    """Run ``strategy`` in a fresh context; every observable."""
    ctx, catalog, trace = _store(case)
    try:
        root = build_division_operator(
            strategy,
            _dividend_input(ctx, catalog, case),
            StoredRelationScan(ctx, catalog.get("divisor")),
            expected_divisor=len(case["divisor"]),
            expected_quotient=12,
            eliminate_duplicates=True,
        )
        try:
            rows = drain(root)
        except ReproError as exc:
            rows = (type(exc).__name__, str(exc))
        assert ctx.pool.fixed_page_count() == 0
        return {
            "rows": rows,
            "cpu": ctx.cpu.snapshot(),
            "events": trace.events(),
            "io_ms": ctx.io_cost_ms(),
            "rows_produced": [op.rows_produced for op in _walk(root)],
        }
    finally:
        ctx.close()


def _drain_by_rows(root):
    root.open()
    try:
        rows = []
        while (row := root.next()) is not None:
            rows.append(row)
        return rows
    finally:
        root.close()


def _drain_by_batches(root):
    return run_to_relation(root).rows


def _oracle(case):
    dividend = [
        (q, d)
        for q, d, _ in case["dividend"]
        if not (case["delete_mod"] and q % case["delete_mod"] == 0)
        and (case["select_below"] is None or q < case["select_below"])
    ]
    quotient = divide_set_semantics(
        Relation(Schema.of_ints("q", "d"), dividend), Relation(DIVISOR_SCHEMA, case["divisor"])
    )
    return quotient.as_set()


SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Run pages of a few rows and a 128-byte sort buffer: every sort spills
#: and its merge hands out stretches of one to five rows.
TINY_SORTS = StorageConfig(
    page_size=256, sort_run_page_size=64, buffer_size=512,
    memory_limit=512, sort_buffer_size=128,
)

#: The merge semi-join's inner input (d = 0) ends on an outer batch that
#: also matched rows: the operator returns them and must stay finished,
#: not pull the outer input again.
INNER_ENDS_MID_BATCH = {
    "config": TINY_SORTS,
    "dividend": [
        (17, 1, 17), (2, 0, 0), (17, 2, 34), (2, 1, 2),
        (1, 5, 5), (2, 2, 4), (17, 4, 68), (17, 3, 51),
    ],
    "divisor": [(0,)],
    "delete_mod": 0,
    "select_below": None,
}

#: Every naive quotient group spans two or more sort stretches, so the
#: group state must carry across batches.
GROUPS_SPAN_STRETCHES = {
    "config": TINY_SORTS,
    "dividend": [
        (2, 2, 4), (0, 2, 0), (2, 3, 6), (1, 3, 3), (0, 1, 0), (0, 3, 0),
        (1, 2, 2), (0, 0, 0), (2, 0, 0), (1, 1, 1), (1, 0, 0), (2, 1, 2),
    ],
    "divisor": [(0,), (1,), (2,), (3,)],
    "delete_mod": 0,
    "select_below": None,
}


@given(cases())
@example(case=INNER_ENDS_MID_BATCH)
@example(case=GROUPS_SPAN_STRETCHES)
@SETTINGS
def test_batches_equal_rows_for_every_strategy(case):
    expected = _oracle(case)
    divisor_values = {d for (d,) in case["divisor"]}
    covered = all(d in divisor_values for _, d, _ in case["dividend"])
    for strategy in DIVISION_OPERATOR_STRATEGIES:
        if strategy in COUNTING and not case["divisor"]:
            continue
        with row_at_a_time():
            reference = _observe(case, strategy, _drain_by_rows)
        by_rows = _observe(case, strategy, _drain_by_rows)
        by_batches = _observe(case, strategy, _drain_by_batches)
        assert by_rows == reference, strategy
        assert by_batches == reference, strategy
        if strategy in ("sort-agg no join", "hash-agg no join") and not covered:
            continue  # counting without the join needs the coverage precondition
        assert set(by_rows["rows"]) == expected, strategy


def _pipelines(ctx, catalog, case):
    """Batch-producing operators over the stored relations."""
    dividend, divisor = catalog.get("dividend"), catalog.get("divisor")
    scan = lambda stored: StoredRelationScan(ctx, stored)  # noqa: E731
    return {
        "scan": scan(dividend),
        "select": Select(scan(dividend), ComparisonPredicate("q", "<", 5)),
        "project": Project(scan(dividend), ["d", "q"]),
        "sort": ExternalSort(scan(dividend), ["q", "d"]),
        "sort-distinct": ExternalSort(scan(dividend), ["d", "q", "pad"], distinct=True),
        "sort-reduce": ExternalSort(
            scan(dividend), ["q"], reducer=count_reducer(DIVIDEND_SCHEMA, ["q"])
        ),
        "merge-semijoin": MergeSemiJoin(
            ExternalSort(scan(dividend), ["d", "q"]),
            ExternalSort(scan(divisor), ["d"]),
            ["d"],
        ),
        "hash-semijoin": HashSemiJoin(
            scan(dividend),
            RelationSource(ctx, Relation(DIVISOR_SCHEMA, case["divisor"])),
            ["d"],
        ),
        "naive": NaiveDivision(
            ExternalSort(Project(scan(dividend), ["q", "d"]), ["q", "d"], distinct=True),
            ExternalSort(scan(divisor), ["d"], distinct=True),
        ),
        "hash-division-early": HashDivision(
            Project(scan(dividend), ["q", "d"]), scan(divisor), early_output=True
        ),
        "hash-division-early-counter": HashDivision(
            Project(scan(dividend), ["q", "d"]), scan(divisor),
            early_output=True, mode="counter",
        ),
        "sort-agg-join": SortAggregateDivision(
            Project(scan(dividend), ["q", "d"]), scan(divisor),
            with_join=True, eliminate_duplicates=True,
        ),
        "sort-agg": SortAggregateDivision(
            Project(scan(dividend), ["q", "d"]), scan(divisor),
            with_join=False, eliminate_duplicates=True,
        ),
        "hash-agg": HashAggregateDivision(
            Project(scan(dividend), ["q", "d"]), scan(divisor),
            with_join=False, eliminate_duplicates=True, expected_quotient=12,
        ),
    }


def _mixed(case, name, choices):
    """Drain pipeline ``name``: ``next()`` where ``choices`` says 0,
    ``next_batch()`` where it says 1 (cycled); ``None`` means ``next()``
    only."""
    ctx, catalog, trace = _store(case)
    try:
        operator = _pipelines(ctx, catalog, case)[name]
        if name in COUNTING_PIPELINES and not case["divisor"]:
            with pytest.raises(DivisionError):  # counting needs a divisor
                operator.open()
            return None
        operator.open()
        rows = []
        try:
            for call in range(10**6):
                if choices is None or not choices[call % len(choices)]:
                    row = operator.next()
                    if row is None:
                        break
                    rows.append(row)
                else:
                    batch = operator.next_batch()
                    if not batch:
                        break
                    rows.extend(batch)
        finally:
            operator.close()
        assert ctx.pool.fixed_page_count() == 0
        return rows, ctx.cpu.snapshot(), trace.events(), operator.rows_produced
    finally:
        ctx.close()


COUNTING_PIPELINES = ("sort-agg-join", "sort-agg", "hash-agg")

PIPELINES = (
    "scan", "select", "project", "sort", "sort-distinct", "sort-reduce",
    "merge-semijoin", "hash-semijoin", "naive", "hash-division-early",
    "hash-division-early-counter", *COUNTING_PIPELINES,
)


@given(cases(), st.sampled_from(PIPELINES), st.lists(st.integers(0, 1), min_size=1, max_size=6))
@SETTINGS
def test_mixing_next_and_next_batch_keeps_the_sequence(case, name, choices):
    with row_at_a_time():
        reference = _mixed(case, name, None)
    assert _mixed(case, name, choices) == reference


def test_cases_reach_spills_merge_passes_and_empty_pages():
    """A fixed case exercises the paths the properties are about."""
    case = {
        "config": StorageConfig(
            page_size=256, sort_run_page_size=64, buffer_size=512,
            memory_limit=512, sort_buffer_size=256,
        ),
        # Even q first: deleting them empties whole pages.
        "dividend": sorted(
            [(q, d, q * d) for q in range(12) for d in range(8)] * 2,
            key=lambda row: row[0] % 2,
        ),
        "divisor": [(d,) for d in range(6)],
        "delete_mod": 2,
        "select_below": None,
    }
    ctx, catalog, _trace = _store(case)
    try:
        sort = _pipelines(ctx, catalog, case)["sort"]
        pages = list(catalog.get("dividend").file.scan_pages(DIVIDEND_SCHEMA.codec()))
        run_to_relation(sort)
        assert sort.runs_spilled > ctx.config.sort_fan_in
        assert sort.merge_passes_performed > 0
        assert [] in pages
        assert ctx.pool.stats.evictions > 0
    finally:
        ctx.close()


def test_examples_reach_the_paths_they_pin():
    """The merge semi-join finishes on a batch that also matched rows,
    and every naive quotient group spans stretches."""
    filtered = []
    semi_join_filter = MergeSemiJoin._filter

    def recording_filter(self, batch):
        matched = semi_join_filter(self, batch)
        filtered.append((len(matched), self._finished))
        return matched

    with mock.patch.object(MergeSemiJoin, "_filter", recording_filter):
        _observe(INNER_ENDS_MID_BATCH, "sort-agg with join", _drain_by_batches)
    assert filtered[-1][0] > 0 and filtered[-1][1]

    batches = []  # (the batch iterator being walked, its quotient keys)
    walk = NaiveDivision._walk

    def recording_walk(self):
        if not batches or batches[-1][0] is not self._rows:
            rows = list(self._rows)
            self._rows = iter(rows)
            batches.append((self._rows, {self._quotient_of(row) for row in rows}))
        return walk(self)

    with mock.patch.object(NaiveDivision, "_walk", recording_walk):
        result = _observe(GROUPS_SPAN_STRETCHES, "naive", _drain_by_batches)
    assert result["rows"] == [(0,), (1,), (2,)]
    for group in result["rows"]:
        assert sum(group in keys for _, keys in batches) >= 2
