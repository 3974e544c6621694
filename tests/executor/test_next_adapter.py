"""``next()`` as an adapter over the batch hook.

Every operator implements ``_next_batch`` only; ``QueryIterator.next``
hands out the batch it pulled row by row, and ``next_batch`` returns the
held rest before it pulls again.  ``BufferedIterator`` keeps its own
per-row hand-out, so a sort read row by row and left mid-batch is
charged only for the rows taken.
"""

import importlib
import pkgutil
from unittest import mock

import pytest

import repro
from repro.executor.filter import Select
from repro.executor.iterator import ExecContext, QueryIterator
from repro.executor.scan import RelationSource, StoredRelationScan
from repro.executor.sort import ExternalSort
from repro.relalg.predicates import ComparisonPredicate
from repro.relalg.relation import Relation
from repro.storage.catalog import Catalog
from repro.storage.config import StorageConfig

#: 512-byte pages hold a few dozen rows each; the sort spills and merges.
SMALL = StorageConfig(
    page_size=512, sort_run_page_size=128, buffer_size=1024,
    memory_limit=2048, sort_buffer_size=512,
)

ROWS = [((i * 37) % 101, i) for i in range(600)]


def _select_over_scan(ctx):
    catalog = Catalog(ctx.pool, ctx.data_disk)
    catalog.store(Relation.of_ints(("a", "b"), ROWS), name="r", cold=True)
    ctx.reset_meters()
    scan = StoredRelationScan(ctx, catalog.get("r"))
    return Select(scan, ComparisonPredicate("a", "<", 90)), scan


def _first_batch():
    """The first batch of a fresh Select, with the Comp, page reads
    and row counts it leaves."""
    ctx = ExecContext(config=SMALL)
    select, scan = _select_over_scan(ctx)
    select.open()
    batch = select.next_batch()
    observed = (
        ctx.cpu.comparisons, ctx.io_stats.totals().reads,
        select.rows_produced, scan.rows_produced,
    )
    select.close()
    return batch, observed


@pytest.mark.parametrize("taken", [1, 5])
def test_next_batch_after_next_returns_the_held_rest(taken):
    batch, observed = _first_batch()
    assert len(batch) > taken
    ctx = ExecContext(config=SMALL)
    select, scan = _select_over_scan(ctx)
    select.open()
    with mock.patch.object(Select, "_next_batch", autospec=True,
                           side_effect=Select._next_batch) as pulls:
        rows = [select.next() for _ in range(taken)]
        assert pulls.call_count == 1
        rest = select.next_batch()
        assert pulls.call_count == 1  # the rest came without a pull
    assert rows + rest == batch
    assert (
        ctx.cpu.comparisons, ctx.io_stats.totals().reads,
        select.rows_produced, scan.rows_produced,
    ) == observed
    select.close()


def test_next_batch_after_the_held_batch_is_used_up_pulls_again():
    batch, _ = _first_batch()
    ctx = ExecContext(config=SMALL)
    select, _scan = _select_over_scan(ctx)
    select.open()
    assert [select.next() for _ in batch] == batch
    second = select.next_batch()
    assert second and second[0] != batch[-1]
    assert select.rows_produced == len(batch) + len(second)
    select.close()


def test_a_sort_left_mid_batch_by_next_is_charged_for_the_rows_taken():
    """Row by row a spilled sort charges each row's merge Comp as it is
    taken; the Comp of ``taken`` rows is that of the whole stretch with
    the rest given back."""
    taken = 3

    def spilled_sort():
        ctx = ExecContext(config=SMALL)
        sort = ExternalSort(RelationSource(ctx, Relation.of_ints(("a", "b"), ROWS)), ["a"])
        sort.open()
        return ctx, sort

    ctx, sort = spilled_sort()
    rows = [sort.next() for _ in range(taken)]
    by_rows = ctx.cpu.comparisons
    sort.close()

    ctx, sort = spilled_sort()
    stretch = sort.next_batch()
    whole_stretch = ctx.cpu.comparisons
    assert len(stretch) > taken and stretch[:taken] == rows
    sort.unread(len(stretch) - taken)
    assert by_rows == ctx.cpu.comparisons < whole_stretch
    sort.close()


def _operator_classes():
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    classes, pending = [], [QueryIterator]
    while pending:
        cls = pending.pop()
        classes.append(cls)
        pending.extend(cls.__subclasses__())
    return [cls for cls in classes if cls.__module__.startswith("repro.")]


def test_only_the_adapters_define_a_per_row_hook():
    operators = _operator_classes()
    assert len(operators) > 20
    per_row = {cls.__name__ for cls in operators if "_next" in vars(cls)}
    assert per_row == {"QueryIterator", "BufferedIterator"}
    missing = [
        cls.__name__
        for cls in operators
        if cls is not QueryIterator and cls._next_batch is QueryIterator._next_batch
    ]
    assert missing == []
