"""Tests for the merge semi-join."""

import pytest

from repro.errors import ExecutionError
from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.merge_join import MergeSemiJoin
from repro.executor.project import Project
from repro.executor.scan import RelationSource
from repro.relalg.relation import Relation


def sorted_source(ctx, names, rows):
    return RelationSource(ctx, Relation.of_ints(names, sorted(rows)))


class TestMergeSemiJoin:
    def test_keeps_matching_outer_rows(self, ctx):
        outer = sorted_source(ctx, ("k", "a"), [(1, 10), (2, 20), (3, 30)])
        inner = sorted_source(ctx, ("k",), [(2,), (3,)])
        result = run_to_relation(MergeSemiJoin(outer, inner, ["k"]))
        assert result.rows == [(2, 20), (3, 30)]
        assert result.schema.names == ("k", "a")

    def test_outer_duplicates_preserved(self, ctx):
        outer = sorted_source(ctx, ("k", "a"), [(1, 10), (1, 10)])
        inner = sorted_source(ctx, ("k",), [(1,)])
        assert len(run_to_relation(MergeSemiJoin(outer, inner, ["k"]))) == 2

    def test_inner_duplicates_do_not_multiply_output(self, ctx):
        outer = sorted_source(ctx, ("k", "a"), [(1, 10)])
        inner = sorted_source(ctx, ("k",), [(1,), (1,)])
        assert len(run_to_relation(MergeSemiJoin(outer, inner, ["k"]))) == 1

    def test_exhausted_inner_ends_output(self, ctx):
        outer = sorted_source(ctx, ("k", "a"), [(1, 10), (5, 50)])
        inner = sorted_source(ctx, ("k",), [(1,)])
        result = run_to_relation(MergeSemiJoin(outer, inner, ["k"]))
        assert result.rows == [(1, 10)]

    def test_outer_must_be_able_to_give_rows_back(self, ctx):
        outer = Project(sorted_source(ctx, ("k", "a"), [(1, 10)]), ["k"])
        inner = sorted_source(ctx, ("k",), [(1,)])
        with pytest.raises(ExecutionError, match="give rows back, not Project"):
            MergeSemiJoin(outer, inner, ["k"])

    def test_contexts_must_match(self, ctx):
        outer = sorted_source(ctx, ("k",), [])
        inner = sorted_source(ExecContext(), ("k",), [])
        with pytest.raises(ExecutionError, match="share one execution context"):
            MergeSemiJoin(outer, inner, ["k"])

    def test_paper_semi_join_shape(self, ctx, transcript, courses):
        """The paper's with-join preprocessing: keep only transcript
        tuples whose course appears in the (restricted) divisor."""
        outer = RelationSource(ctx, transcript.sorted_by(("course_no",)))
        inner = RelationSource(ctx, courses.sorted_by(("course_no",)))
        result = run_to_relation(MergeSemiJoin(outer, inner, ["course_no"]))
        assert all(row[1] in {10, 11} for row in result.rows)
        assert len(result) == 6  # the two course-99 tuples are gone
