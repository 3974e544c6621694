"""The worked example of Figure 2, end to end.

Transcript = {(Ann, Database1), (Barb, Database2), (Ann, Database2),
(Barb, Optics)}, Courses = {Database1, Database2}; the quotient is Ann
-- "the only student who has taken both database courses".
"""

from repro import divide
from repro.relalg import algebra
from repro.workloads.university import figure2_courses, figure2_transcript


class TestFigure2:
    def test_oracle(self):
        quotient = algebra.divide_set_semantics(
            figure2_transcript(), figure2_courses()
        )
        assert quotient.rows == [("Ann",)]

    def test_every_algorithm_agrees(self):
        transcript = figure2_transcript()
        courses = figure2_courses()
        # Barb's Optics tuple matches no divisor course, so the
        # counting strategies need the semi-join ("with join").
        for strategy in (
            "hash-division", "naive", "algebraic", "oracle",
            "sort-agg with join", "hash-agg with join",
        ):
            quotient = divide(transcript, courses, strategy=strategy)
            assert set(quotient.rows) == {("Ann",)}, strategy

    def test_counting_without_join_fails_here(self):
        """The Optics tuple is exactly why the paper's second example
        needs a join: without it Barb's two tuples count as two
        'courses' and she wrongly qualifies."""
        wrong = divide(
            figure2_transcript(), figure2_courses(), strategy="sort-agg no join"
        )
        assert set(wrong.rows) == {("Ann",), ("Barb",)}

    def test_walkthrough_divisor_numbers(self):
        """Follow the narrative of Section 3.2: Database1 gets divisor
        number 0, Database2 gets 1, Ann's bit map fills, Barb's never
        does, (Barb, Optics) is discarded."""
        from repro.core.hash_division import HashDivision
        from repro.executor.iterator import ExecContext
        from repro.executor.scan import RelationSource

        ctx = ExecContext()
        plan = HashDivision(
            RelationSource(ctx, figure2_transcript()),
            RelationSource(ctx, figure2_courses()),
        )
        plan.open()
        quotient = list(plan)
        plan.close()
        assert quotient == [("Ann",)]
