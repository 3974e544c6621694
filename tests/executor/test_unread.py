"""The batch hand-back: ``QueryIterator.unread``.

Giving back the last rows of a batch must leave the operator exactly
where a row-by-row pull of the rows it kept would: the same Comp, the
same ``rows_produced``, and the same rows after it.  It is legal only
for rows taken since the last fetch; EXPLAIN ANALYZE books the refund to
the operator that made the charge.
"""

from unittest import mock

import pytest

from repro.core.aggregate_division import SortAggregateDivision
from repro.errors import ExecutionError
from repro.executor.iterator import ExecContext, QueryIterator, drain, run_to_relation
from repro.executor.merge_join import MergeSemiJoin
from repro.executor.scan import RelationSource, StoredRelationScan
from repro.executor.sort import ExternalSort
from repro.obs.profile import build_profile
from repro.obs.span import Tracer
from repro.relalg.relation import Relation
from repro.storage.catalog import Catalog
from repro.storage.config import StorageConfig

#: Small run pages and sort buffer: a 600-row sort spills and merges.
SPILLING = StorageConfig(
    page_size=512, sort_run_page_size=128, buffer_size=1024,
    memory_limit=2048, sort_buffer_size=512,
)

ROWS = [((i * 37) % 101, i) for i in range(600)]


def _spilled_sort(ctx):
    return ExternalSort(RelationSource(ctx, Relation.of_ints(("a", "b"), ROWS)), ["a"])


def _memory_sort(ctx):
    return ExternalSort(RelationSource(ctx, Relation.of_ints(("a", "b"), ROWS[:50])), ["a"])


def _stored_scan(ctx):
    catalog = Catalog(ctx.pool, ctx.data_disk)
    catalog.store(Relation.of_ints(("a", "b"), ROWS), name="r", cold=True)
    ctx.reset_meters()
    return StoredRelationScan(ctx, catalog.get("r"))


def _source(ctx):
    return RelationSource(ctx, Relation.of_ints(("a", "b"), ROWS[:40]))


PRODUCERS = {
    "spilled-sort": (_spilled_sort, SPILLING),
    "memory-sort": (_memory_sort, None),
    "stored-scan": (_stored_scan, SPILLING),
    "relation-source": (_source, None),
}


def _by_rows(make, config):
    """Every row pulled with ``next()``, and the Comp after each."""
    ctx = ExecContext(config=config)
    operator = make(ctx)
    operator.open()
    rows, comparisons = [], [ctx.cpu.comparisons]
    while (row := operator.next()) is not None:
        rows.append(row)
        comparisons.append(ctx.cpu.comparisons)
    operator.close()
    return rows, comparisons


@pytest.mark.parametrize("name", PRODUCERS)
@pytest.mark.parametrize("rows_before", [0, 3])
def test_hand_back_equals_a_row_by_row_pull(name, rows_before):
    make, config = PRODUCERS[name]
    rows, comparisons = _by_rows(make, config)
    ctx = ExecContext(config=config)
    operator = make(ctx)
    operator.open()
    taken = [operator.next() for _ in range(rows_before)]
    batch = operator.next_batch()
    assert len(batch) >= 2
    if name == "spilled-sort":
        assert operator._charges is not None
    back = len(batch) // 2 + 1
    operator.unread(back)
    taken.extend(batch[: len(batch) - back])
    assert operator.rows_produced == len(taken)
    assert ctx.cpu.comparisons == comparisons[len(taken)]
    assert taken + drain(operator) == rows
    assert ctx.cpu.comparisons == comparisons[-1]
    assert operator.rows_produced == len(rows)
    operator.close()
    assert ctx.pool.fixed_page_count() == 0


@pytest.mark.parametrize("name", PRODUCERS)
def test_handing_back_more_than_was_taken_raises(name):
    make, config = PRODUCERS[name]
    ctx = ExecContext(config=config)
    operator = make(ctx)
    operator.open()
    batch = operator.next_batch()
    comparisons = ctx.cpu.comparisons
    with pytest.raises(ExecutionError, match="cannot give back"):
        operator.unread(len(batch) + 1)
    with pytest.raises(ExecutionError, match="cannot give back -1"):
        operator.unread(-1)
    # A refused hand-back changes nothing.
    assert ctx.cpu.comparisons == comparisons
    assert operator.rows_produced == len(batch)
    operator.unread(len(batch))
    assert operator.next_batch() == batch
    operator.close()


@pytest.mark.parametrize("name", ["spilled-sort", "stored-scan"])
def test_hand_back_after_a_fetch_raises(name):
    make, config = PRODUCERS[name]
    ctx = ExecContext(config=config)
    operator = make(ctx)
    operator.open()
    operator.next_batch()
    fixes = ctx.pool.stats.fixes
    assert operator.next() is not None  # fixes the next page
    assert ctx.pool.stats.fixes > fixes
    with pytest.raises(ExecutionError, match="since its last fetch"):
        operator.unread(2)
    operator.unread(1)
    operator.close()


def test_hand_back_at_the_end_or_before_open_raises(ctx):
    source = _source(ctx)
    with pytest.raises(ExecutionError, match="state closed"):
        source.unread(0)
    source.open()
    drain(source)
    with pytest.raises(ExecutionError, match="state finished"):
        source.unread(1)
    source.close()


def _one_row(operator):
    row = operator.next()
    return [] if row is None else [row]


DIVIDEND = Relation.of_ints(("q", "d"), [(q, d) for q in range(40) for d in range(20)])
DIVISOR = Relation.of_ints(("d",), [(d,) for d in range(10)])


def _operator_comparisons(batches: bool):
    """Per-operator self Comp and rows out of sort-agg with join, whose
    merge semi-join's inner input (divisor d < 10) ends before its outer
    input (dividend d < 20).
    """
    tracer = Tracer()
    ctx = ExecContext(config=SPILLING, tracer=tracer)
    root = SortAggregateDivision(
        RelationSource(ctx, DIVIDEND), RelationSource(ctx, DIVISOR),
        with_join=True, eliminate_duplicates=True,
    )
    if batches:
        quotient = run_to_relation(root)
    else:
        with mock.patch.object(QueryIterator, "next_batch", _one_row):
            quotient = run_to_relation(root)
    assert quotient.as_set() == {(q,) for q in range(40)}
    profile = build_profile(tracer, ctx)
    assert profile.operator_cpu_total().comparisons == profile.cpu.comparisons
    return [
        (stats.op_class, stats.cpu.comparisons, stats.rows_out, stats.calls.get("unread", 0))
        for stats in profile.all_operators()
    ]


def test_explain_analyze_books_the_refund_to_the_sort():
    by_rows = _operator_comparisons(batches=False)
    by_batches = _operator_comparisons(batches=True)
    assert [entry[:3] for entry in by_batches] == [entry[:3] for entry in by_rows]
    # The merge semi-join's outer sort gave rows back exactly once.
    handed_back = [(name, unread) for name, _, _, unread in by_batches if unread]
    assert handed_back == [("ExternalSort", 1)]
    assert all(comparisons >= 0 for _, comparisons, _, _ in by_batches)


def test_the_profile_counts_the_rows_kept_before_close():
    """The hand-back is the outer sort's last call until ``close``, so
    its rows out already count only the rows the semi-join looked at:
    every d < 10 row and the one that found the divisor ended."""
    tracer = Tracer()
    ctx = ExecContext(config=SPILLING, tracer=tracer)
    outer = ExternalSort(RelationSource(ctx, DIVIDEND), ["d", "q"])
    join = MergeSemiJoin(outer, ExternalSort(RelationSource(ctx, DIVISOR), ["d"]), ["d"])
    join.open()
    assert len(drain(join)) == 400
    handed_back = [
        stats for stats in build_profile(tracer, ctx).all_operators()
        if "unread" in stats.calls
    ]
    assert [stats.rows_out for stats in handed_back] == [401]
    assert outer.rows_produced == 401
    join.close()
