"""Tests for the 'contains' query construct (§5.2's recommendation)."""

import pytest

from repro.query import Query
from repro.relalg import algebra
from repro.relalg.predicates import AttributeContains, ComparisonPredicate
from repro.relalg.relation import Relation
from repro.workloads.university import make_university


@pytest.fixture
def university():
    return make_university(
        students=40, courses=10, database_courses=3, completionists=4,
        enrollment_probability=0.5, seed=3,
    )


class TestPipeline:
    def test_where_project_run(self, university):
        database_courses = (
            Query(university.courses)
            .where(AttributeContains("title", "database"))
            .project("course_no")
            .run()
        )
        assert len(database_courses) == 3
        assert database_courses.schema.names == ("course_no",)

    def test_project_is_bag_semantics(self):
        relation = Relation.of_ints(("a", "b"), [(1, 1), (1, 2)])
        projected = Query(relation).project("a").run()
        assert projected.rows == [(1,), (1,)]

    def test_distinct(self):
        relation = Relation.of_ints(("a",), [(1,), (1,), (2,)])
        assert Query(relation).distinct().run().rows == [(1,), (2,)]

    def test_queries_are_immutable(self):
        relation = Relation.of_ints(("a",), [(1,), (2,)])
        base = Query(relation)
        restricted = base.where(ComparisonPredicate("a", ">", 1))
        assert base.run().rows == [(1,), (2,)]
        assert restricted.run().rows == [(2,)]

    def test_describe(self, university):
        text = (
            Query(university.courses)
            .where(AttributeContains("title", "database"))
            .project("course_no")
            .describe()
        )
        assert "Courses" in text and "where" in text and "project" in text


class TestContains:
    def test_first_example_query(self, university):
        """Students who took ALL courses -- the unrestricted divisor."""
        query = (
            Query(university.transcript)
            .project("student_id", "course_no")
            .contains(Query(university.courses).project("course_no"))
        )
        expected = algebra.divide_set_semantics(
            university.enrollment_dividend(), university.all_courses_divisor()
        )
        assert query.run().set_equal(expected)

    def test_second_example_query(self, university):
        """Students who took all DATABASE courses -- restricted divisor."""
        query = (
            Query(university.transcript)
            .project("student_id", "course_no")
            .contains(
                Query(university.courses)
                .where(AttributeContains("title", "database"))
                .project("course_no")
            )
        )
        expected = algebra.divide_set_semantics(
            university.enrollment_dividend(),
            university.database_courses_divisor(),
        )
        assert query.run().set_equal(expected)

    def test_planner_respects_restriction(self, university):
        unrestricted = (
            Query(university.transcript)
            .project("student_id", "course_no")
            .contains(Query(university.courses).project("course_no"))
        )
        restricted = (
            Query(university.transcript)
            .project("student_id", "course_no")
            .contains(
                Query(university.courses)
                .where(AttributeContains("title", "database"))
                .project("course_no")
            )
        )
        # A restricted divisor must never plan a no-join counting
        # strategy (Section 2.2's correctness requirement).
        assert "no join" not in restricted.plan().strategy
        assert restricted.plan().estimates.divisor_restricted
        assert not unrestricted.plan().estimates.divisor_restricted

    def test_duplicates_detected_in_plan(self):
        dividend = Relation.of_ints(("q", "d"), [(1, 5), (1, 5), (1, 6)])
        divisor = Relation.of_ints(("d",), [(5,), (6,)])
        query = Query(dividend).contains(Query(divisor))
        plan = query.plan()
        assert plan.estimates.may_contain_duplicates
        assert query.run().rows == [(1,)]

    def test_explain_names_the_strategy(self, university):
        query = (
            Query(university.transcript)
            .project("student_id", "course_no")
            .contains(
                Query(university.courses)
                .where(AttributeContains("title", "database"))
                .project("course_no")
            )
        )
        text = query.explain()
        assert "relational division via" in text
        assert "(restricted)" in text
        assert "quotient: student_id" in text

    def test_plan_is_the_compiled_decision(self, university):
        from repro.plan.planner import DivisionDecision

        query = (
            Query(university.transcript)
            .project("student_id", "course_no")
            .contains(Query(university.courses).project("course_no"))
        )
        decision = query.plan()
        assert isinstance(decision, DivisionDecision)
        assert query.compile().decisions == [decision]

    def test_explain_runs_the_statistics_pass_once(
        self, university, statistics_passes
    ):
        query = (
            Query(university.transcript)
            .project("student_id", "course_no")
            .contains(Query(university.courses).project("course_no"))
        )
        query.explain()
        assert len(statistics_passes) == 1

    def test_ctx_metering(self, university, ctx):
        query = (
            Query(university.transcript)
            .project("student_id", "course_no")
            .contains(Query(university.courses).project("course_no"))
        )
        query.run(ctx=ctx)
        assert ctx.cpu.comparisons + ctx.cpu.hashes > 0


class TestProfiling:
    def test_pipeline_profile_tree(self, university):
        from repro.obs.span import FakeClock
        from repro.query import ProfiledResult

        query = (
            Query(university.transcript)
            .project("student_id", "course_no")
            .distinct()
        )
        result = query.run(profile=True, clock=FakeClock(auto_tick=0.001))
        assert isinstance(result, ProfiledResult)
        assert result.relation.rows == query.run().rows
        # The compiled pipeline is a physical iterator tree, so the
        # profile names the streaming operators, not the logical steps.
        ops = [stats.op_class for stats in result.profile.all_operators()]
        assert ops == ["HashDistinct", "Project", "RelationSource"]
        assert result.profile.wall_s > 0

    def test_contains_explain_analyze_tree(self, university):
        query = (
            Query(university.transcript)
            .project("student_id", "course_no")
            .contains(
                Query(university.courses)
                .where(AttributeContains("title", "database"))
                .project("course_no")
            )
        )
        profile = query.explain_analyze()
        text = profile.render()
        assert "EXPLAIN ANALYZE" in text
        # The restricted divisor forces hash-division; the quotient must
        # still be the completionists, tracing or not.
        assert "HashDivision" in text
        assert query.last_profile is profile

    def test_profiled_run_matches_plain_run(self, university, ctx):
        from repro.query import ProfiledResult

        query = (
            Query(university.transcript)
            .project("student_id", "course_no")
            .contains(Query(university.courses).project("course_no"))
        )
        plain = query.run()
        profiled = query.run(profile=True)
        assert isinstance(profiled, ProfiledResult)
        assert sorted(plain.rows) == sorted(profiled.relation.rows)
        # The borrowed context's tracer is restored afterwards.
        query.run(ctx=ctx, profile=True)
        assert ctx.tracer.enabled is False
