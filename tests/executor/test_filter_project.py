"""Tests for Select and Project."""

from repro.executor.filter import Select
from repro.executor.iterator import run_to_relation
from repro.executor.project import Project
from repro.executor.scan import RelationSource
from repro.relalg.predicates import AttributeEquals, ComparisonPredicate
from repro.relalg.relation import Relation


class TestSelect:
    def test_filters_rows(self, ctx):
        relation = Relation.of_ints(("a",), [(1,), (2,), (3,)])
        plan = Select(RelationSource(ctx, relation), ComparisonPredicate("a", ">", 1))
        assert run_to_relation(plan).rows == [(2,), (3,)]

    def test_charges_one_comparison_per_input_tuple(self, ctx):
        relation = Relation.of_ints(("a",), [(i,) for i in range(10)])
        plan = Select(RelationSource(ctx, relation), AttributeEquals("a", 3))
        run_to_relation(plan)
        assert ctx.cpu.comparisons == 10

    def test_empty_result(self, ctx):
        relation = Relation.of_ints(("a",), [(1,)])
        plan = Select(RelationSource(ctx, relation), AttributeEquals("a", 99))
        assert run_to_relation(plan).rows == []


class TestProject:
    def test_keeps_duplicates(self, ctx):
        relation = Relation.of_ints(("a", "b"), [(1, 10), (1, 20)])
        plan = Project(RelationSource(ctx, relation), ["a"])
        assert run_to_relation(plan).rows == [(1,), (1,)]

    def test_reorders_attributes(self, ctx):
        relation = Relation.of_ints(("a", "b"), [(1, 2)])
        plan = Project(RelationSource(ctx, relation), ["b", "a"])
        result = run_to_relation(plan)
        assert result.rows == [(2, 1)]
        assert result.schema.names == ("b", "a")

    def test_composes_with_select(self, ctx):
        relation = Relation.of_ints(("a", "b"), [(1, 10), (2, 20), (3, 30)])
        plan = Project(
            Select(RelationSource(ctx, relation), ComparisonPredicate("a", ">=", 2)),
            ["b"],
        )
        assert run_to_relation(plan).rows == [(20,), (30,)]

    def test_identity_projection_passes_the_input_batch_through(self, ctx):
        relation = Relation.of_ints(("a", "b"), [(1, 10), (2, 20)])
        source = RelationSource(ctx, relation)
        plan = Project(source, ["a", "b"])
        handed_out = []
        source_next_batch = source.next_batch

        def recording_next_batch():
            handed_out.append(source_next_batch())
            return handed_out[-1]

        source.next_batch = recording_next_batch
        plan.open()
        batch = plan.next_batch()
        plan.close()
        assert batch == relation.rows
        assert batch is handed_out[0]
