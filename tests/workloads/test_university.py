"""Tests for the university workload generator."""

import pytest

from repro import divide
from repro.errors import WorkloadError
from repro.relalg import algebra
from repro.workloads.university import (
    figure2_courses,
    figure2_transcript,
    make_university,
)


class TestFigure2:
    def test_exact_instance(self):
        transcript = figure2_transcript()
        assert transcript.rows == [
            ("Ann", "Database1"),
            ("Barb", "Database2"),
            ("Ann", "Database2"),
            ("Barb", "Optics"),
        ]
        assert figure2_courses().rows == [("Database1",), ("Database2",)]


class TestGenerator:
    def test_sizes(self):
        workload = make_university(
            students=20, courses=10, database_courses=3, completionists=2
        )
        assert len(workload.courses) == 10
        assert workload.database_course_count == 3
        assert len(workload.all_courses_divisor()) == 10
        assert len(workload.database_courses_divisor()) == 3

    def test_completionists_take_everything(self):
        workload = make_university(
            students=10, courses=5, database_courses=2, completionists=3,
            enrollment_probability=0.1, seed=4,
        )
        quotient = divide(
            workload.enrollment_dividend(), workload.all_courses_divisor()
        )
        # Every completionist qualifies; others may by chance.
        assert {(s,) for s in range(3)} <= set(quotient.rows)

    def test_first_example_query_consistency(self):
        workload = make_university(
            students=30, courses=8, database_courses=3, completionists=4, seed=1
        )
        expected = algebra.divide_set_semantics(
            workload.enrollment_dividend(), workload.all_courses_divisor()
        )
        for strategy in ("hash-division", "naive"):
            got = divide(
                workload.enrollment_dividend(),
                workload.all_courses_divisor(),
                strategy=strategy,
            )
            assert got.set_equal(expected)

    def test_second_example_query_needs_join(self):
        """The paper's second example: divisor restricted to database
        courses, so counting strategies require the join."""
        workload = make_university(
            students=30, courses=8, database_courses=3, completionists=4, seed=2
        )
        dividend = workload.enrollment_dividend()
        divisor = workload.database_courses_divisor()
        expected = algebra.divide_set_semantics(dividend, divisor)
        assert divide(dividend, divisor).set_equal(expected)
        assert divide(dividend, divisor, strategy="hash-agg with join").set_equal(
            expected
        )

    def test_determinism_per_seed(self):
        a = make_university(10, 5, 2, 1, seed=42)
        b = make_university(10, 5, 2, 1, seed=42)
        assert a.transcript.bag_equal(b.transcript)
        c = make_university(10, 5, 2, 1, seed=43)
        assert not a.transcript.bag_equal(c.transcript)

    def test_database_titles_match_predicate(self):
        workload = make_university(5, 6, 4, 0)
        titles = workload.courses.column("title")
        assert sum("database" in t for t in titles) == 4


class TestValidation:
    def test_too_many_database_courses(self):
        with pytest.raises(WorkloadError):
            make_university(5, 3, 4, 0)

    def test_too_many_completionists(self):
        with pytest.raises(WorkloadError):
            make_university(3, 3, 1, 4)

    def test_probability_range(self):
        with pytest.raises(WorkloadError):
            make_university(3, 3, 1, 1, enrollment_probability=1.5)
