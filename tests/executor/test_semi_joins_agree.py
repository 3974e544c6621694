"""The three semi-joins of Section 2.2 against the semi-join's definition.

``HashSemiJoin``, ``MergeSemiJoin`` and ``IndexSemiJoin`` must each
produce exactly the outer tuples that have at least one inner tuple
with equal join attributes: every outer duplicate kept, none repeated
for several inner matches, in outer order (the merge semi-join gets its
inputs sorted on the join attributes, as its plans give them), with the
outer schema, and with no memory left charged.  Each case runs under
all three operators.
"""

from __future__ import annotations

import random

import pytest

from repro.executor.hash_join import HashSemiJoin
from repro.executor.index_join import IndexSemiJoin
from repro.executor.iterator import run_to_relation
from repro.executor.merge_join import MergeSemiJoin
from repro.executor.scan import RelationSource
from repro.relalg.relation import Relation
from repro.storage.index import SecondaryIndex


def _random_case(seed):
    rng = random.Random(seed)
    inner = [(rng.randrange(60),) for _ in range(25)]  # duplicates likely
    outer = [(rng.randrange(60), i) for i in range(300)]
    return (("k", "a"), outer, ("k",), inner, ("k",))


#: id -> (outer names, outer rows, inner names, inner rows, join names)
CASES = {
    "basic": (("k", "a"), [(1, 10), (2, 20), (3, 30)], ("k",), [(2,), (3,), (4,)], ("k",)),
    "disjoint": (
        ("k", "a"), [(i, i) for i in range(10)], ("k",), [(i,) for i in range(10, 20)], ("k",)
    ),
    "all-match": (
        ("k", "a"), [(i % 5, i) for i in range(20)], ("k",), [(i,) for i in range(5)], ("k",)
    ),
    "outer-duplicates": (("k", "a"), [(1, 10)] * 3 + [(2, 20)] * 2, ("k",), [(1,)], ("k",)),
    "inner-duplicates": (("k", "a"), [(1, 10), (2, 20)], ("k",), [(1,)] * 4 + [(2,)] * 2, ("k",)),
    "empty-outer": (("k", "a"), [], ("k",), [(1,), (2,)], ("k",)),
    "empty-inner": (("k", "a"), [(1, 10), (2, 20)], ("k",), [], ("k",)),
    # One outer tuple, many inner tuples with its key: produced once.
    "inner-payload": (
        ("k", "a"),
        [(1, 10), (2, 20), (3, 30)],
        ("k", "p"),
        [(1, 0), (1, 1), (1, 2), (3, 9)],
        ("k",),
    ),
    # The inner input holds the join attributes in another order.
    "composite-key": (
        ("k1", "k2", "a"),
        [(i % 4, i % 3, i) for i in range(24)],
        ("k2", "k1"),
        [(0, 0), (2, 1), (1, 3), (2, 3)],
        ("k1", "k2"),
    ),
    # The inner input ends while the outer batch still has keys left.
    "inner-ends-first": (("k", "a"), [(i, i) for i in range(50)], ("k",), [(0,), (7,)], ("k",)),
    **{f"random-{seed}": _random_case(seed) for seed in range(3)},
}


def _semi_join(operator, ctx, catalog, outer, inner, join_names):
    if operator == "HashSemiJoin":
        return HashSemiJoin(RelationSource(ctx, outer), RelationSource(ctx, inner), join_names)
    if operator == "MergeSemiJoin":
        return MergeSemiJoin(
            RelationSource(ctx, outer.sorted_by(join_names)),
            RelationSource(ctx, inner.sorted_by(join_names)),
            join_names,
        )
    assert operator == "IndexSemiJoin", operator
    index = SecondaryIndex.build(catalog.store(inner, name="inner"), join_names)
    return IndexSemiJoin(RelationSource(ctx, outer), index)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("operator", ["HashSemiJoin", "MergeSemiJoin", "IndexSemiJoin"])
def test_semi_join_matches_its_definition(ctx, catalog, operator, case):
    outer_names, outer_rows, inner_names, inner_rows, join_names = CASES[case]
    outer = Relation.of_ints(outer_names, outer_rows, name="outer")
    inner = Relation.of_ints(inner_names, inner_rows, name="inner")
    if operator == "MergeSemiJoin":
        outer_rows = outer.sorted_by(join_names).rows
    inner_keys = {tuple(row[inner_names.index(n)] for n in join_names) for row in inner_rows}
    expected = [
        row
        for row in outer_rows
        if tuple(row[outer_names.index(n)] for n in join_names) in inner_keys
    ]

    result = run_to_relation(_semi_join(operator, ctx, catalog, outer, inner, join_names))

    assert result.rows == expected
    assert result.schema == outer.schema
    assert ctx.memory.bytes_in_use == 0
