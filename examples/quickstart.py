"""Quickstart: relational division in three minutes.

Runs the paper's Figure 2 example ("which student has taken *all*
database courses?") through every division strategy in the library,
then shows the cost meters that the experiments are built on.

Run with:  python examples/quickstart.py
"""

from repro import ExecContext, Relation, divide
from repro.costmodel.units import PAPER_UNITS
from repro.workloads.university import figure2_courses, figure2_transcript


def main() -> None:
    # -- the Figure 2 instance ---------------------------------------
    transcript = figure2_transcript()   # (student, course) pairs
    courses = figure2_courses()         # the database courses
    print("Transcript:", transcript.rows)
    print("Courses:   ", courses.rows)

    # -- division with the default strategy (hash-division) -----------
    quotient = divide(transcript, courses)
    print("\nStudents who took ALL database courses:", quotient.rows)
    assert quotient.rows == [("Ann",)]

    # -- every strategy gives the same answer -------------------------
    # The counting strategies need the semi-join ("with join") here,
    # because Barb's Optics tuple references a course outside the divisor.
    print("\nAll strategies agree:")
    for strategy in (
        "hash-division", "naive", "algebraic", "oracle",
        "sort-agg with join", "hash-agg with join",
    ):
        result = divide(transcript, courses, strategy=strategy)
        print(f"  {strategy:18s} -> {sorted(result.rows)}")

    # -- integer relations and the cost meters ------------------------
    enrollment = Relation.of_ints(
        ("student_id", "course_no"),
        [(s, c) for s in range(100) for c in range(10)]  # everyone took all
        + [(s, 999) for s in range(100)],                # plus one elective
        name="enrollment",
    )
    catalog_courses = Relation.of_ints(
        ("course_no",), [(c,) for c in range(10)], name="required"
    )
    ctx = ExecContext()
    quotient = divide(enrollment, catalog_courses, ctx=ctx)
    print(f"\n{len(quotient)} of 100 students completed all 10 required courses.")
    print(
        "Hash-division metering: "
        f"{ctx.cpu.hashes} hash computations, "
        f"{ctx.cpu.comparisons} comparisons, "
        f"{ctx.cpu.bit_ops} bit operations "
        f"= {PAPER_UNITS.cpu_cost_ms(ctx.cpu):.1f} model ms "
        "(Table 1 weights)"
    )


if __name__ == "__main__":
    main()
