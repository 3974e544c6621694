"""Tests for the index semi-join."""

import pytest

from repro.errors import ExecutionError
from repro.executor.index_join import IndexSemiJoin
from repro.executor.iterator import run_to_relation
from repro.executor.scan import RelationSource
from repro.relalg.relation import Relation
from repro.storage.index import SecondaryIndex


@pytest.fixture
def course_index(catalog, courses):
    stored = catalog.store(courses)
    return SecondaryIndex.build(stored, ["course_no"])


class TestIndexSemiJoin:
    def test_filters_by_index_existence(self, ctx, transcript, course_index):
        plan = IndexSemiJoin(RelationSource(ctx, transcript), course_index)
        result = run_to_relation(plan)
        # Course-99 tuples match no indexed course.
        assert all(row[1] in {10, 11} for row in result.rows)
        assert len(result) == 6

    def test_duplicates_in_outer_preserved(self, ctx, courses, catalog):
        stored = catalog.store(courses, name="c2")
        index = SecondaryIndex.build(stored, ["course_no"])
        outer = Relation.of_ints(
            ("student_id", "course_no"), [(1, 10), (1, 10)]
        )
        plan = IndexSemiJoin(RelationSource(ctx, outer), index)
        assert len(run_to_relation(plan)) == 2

    def test_missing_key_attribute_rejected(self, ctx, course_index):
        outer = Relation.of_ints(("x",), [])
        with pytest.raises(ExecutionError):
            IndexSemiJoin(RelationSource(ctx, outer), course_index)

    def test_agrees_with_hash_semi_join(self, ctx, catalog):
        import random

        rng = random.Random(4)
        inner = Relation.of_ints(
            ("k",), [(v,) for v in rng.sample(range(50), 20)], name="inner"
        )
        outer = Relation.of_ints(
            ("k", "a"), [(rng.randrange(50), i) for i in range(200)]
        )
        stored = catalog.store(inner)
        index = SecondaryIndex.build(stored, ["k"])
        via_index = run_to_relation(
            IndexSemiJoin(RelationSource(ctx, outer), index)
        )
        from repro.executor.hash_join import HashSemiJoin

        via_hash = run_to_relation(
            HashSemiJoin(
                RelationSource(ctx, outer), RelationSource(ctx, inner), ["k"]
            )
        )
        assert via_index.bag_equal(via_hash)
