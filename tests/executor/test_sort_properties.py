"""Property-based tests for the external sort."""

from collections import Counter
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.scan import RelationSource
from repro.executor.sort import ExternalSort, count_reducer
from repro.relalg.relation import Relation
from repro.relalg.schema import Attribute, DataType, Schema
from repro.relalg.tuples import projector
from repro.storage.config import StorageConfig
from repro.storage.heapfile import HeapFile

rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=-100, max_value=100),
        st.integers(min_value=-100, max_value=100),
    ),
    max_size=300,
)


def spilling_ctx() -> ExecContext:
    """A context whose sort buffer holds only 8 records of 16 bytes."""
    return ExecContext(
        config=StorageConfig(
            page_size=8192,
            sort_run_page_size=1024,
            buffer_size=64 * 1024,
            memory_limit=256 * 1024,
            sort_buffer_size=8 * 16,
        )
    )


@given(rows_strategy)
@settings(max_examples=60, deadline=None)
def test_sort_output_is_sorted_permutation(rows):
    ctx = spilling_ctx()
    relation = Relation.of_ints(("a", "b"), rows)
    plan = ExternalSort(RelationSource(ctx, relation), ["a", "b"])
    result = run_to_relation(plan)
    assert result.rows == sorted(rows)
    assert Counter(result.rows) == Counter(tuple(r) for r in rows)


@given(rows_strategy)
@settings(max_examples=60, deadline=None)
def test_distinct_output_matches_set(rows):
    ctx = spilling_ctx()
    relation = Relation.of_ints(("a", "b"), rows)
    plan = ExternalSort(RelationSource(ctx, relation), ["a", "b"], distinct=True)
    result = run_to_relation(plan)
    assert result.rows == sorted(set(map(tuple, rows)))


@given(rows_strategy)
@settings(max_examples=60, deadline=None)
def test_count_reducer_matches_counter(rows):
    ctx = spilling_ctx()
    relation = Relation.of_ints(("a", "b"), rows)
    reducer = count_reducer(relation.schema, ["a"])
    plan = ExternalSort(RelationSource(ctx, relation), ["a"], reducer=reducer)
    result = run_to_relation(plan)
    expected = Counter(row[0] for row in rows)
    assert dict(((k,), v) for k, v in expected.items()) == {
        (row[0],): row[1] for row in result.rows
    }
    assert [row[0] for row in result.rows] == sorted(expected)


#: One NaN object, so equal-key tests see the same NaN twice.
NAN = float("nan")
KEY_ATTRIBUTES = {
    "int": Attribute("k"),
    "string": Attribute("k", DataType.STRING, 6),
    "float": Attribute("k", DataType.FLOAT64),
}
KEY_VALUES = {
    "int": st.integers(-5, 5),
    "string": st.sampled_from(["", "a", "ab", "b", "é", "zz"]),
    "float": st.sampled_from([-1.5, -0.0, 0.0, 2.0, NAN]),
}


@st.composite
def keyed_sorts(draw):
    """A (k, v, w) relation with a key type for ``k`` and a sort: plain,
    distinct or count-reducing, on an ordered subset of the attributes
    (the whole row included), with ties on every attribute."""
    kind = draw(st.sampled_from(sorted(KEY_ATTRIBUTES)))
    schema = Schema((KEY_ATTRIBUTES[kind], Attribute("v"), Attribute("w", DataType.STRING, 2)))
    row = st.tuples(KEY_VALUES[kind], st.integers(-3, 3), st.sampled_from(["", "x", "y"]))
    rows = draw(st.lists(row, max_size=200))
    order = draw(st.permutations(["k", "v", "w"]))
    keys = order[: draw(st.integers(1, 3))]
    mode = draw(st.sampled_from(["plain", "distinct", "reducer"]))
    return Relation(schema, rows), mode, keys, keys if mode == "reducer" else None


def _run_sort(case, tuple_keys):
    relation, mode, keys, group = case
    ctx = spilling_ctx()
    reducer = count_reducer(relation.schema, group) if group else None
    sort = ExternalSort(
        RelationSource(ctx, relation), keys, distinct=mode == "distinct", reducer=reducer
    )
    if tuple_keys:
        # The keys every sort used before: a tuple per row, or the row,
        # and a counting sort's group-key tuples.
        sort._key = projector(sort.schema, keys)
        sort._passes = None
        if reducer is not None:
            sort._group, sort._bare_groups = reducer.group, False
    runs = []
    append_rows = HeapFile.append_rows

    def spy(heap, rows, codec):
        runs.append((heap.name, repr(rows)))
        return append_rows(heap, rows, codec)

    with mock.patch.object(HeapFile, "append_rows", spy):
        rows = run_to_relation(sort).rows
    # repr: rows decoded from runs hold fresh NaN objects, unequal to
    # any other NaN.
    return repr(rows), ctx.cpu.snapshot(), sort.run_lengths, sort.merge_passes_performed, runs


@given(keyed_sorts())
@settings(max_examples=150, deadline=None)
def test_sort_keys_order_and_group_as_the_tuple_keys(case):
    """Per-attribute ``itemgetter`` passes, one-attribute scalar keys
    and scalar group keys (a FLOAT64 attribute keeps its tuple): rows,
    the order of equal keys, Comp and the run files written are those
    of a tuple key per row."""
    assert _run_sort(case, tuple_keys=False) == _run_sort(case, tuple_keys=True)
