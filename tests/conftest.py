"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import ExecContext, Relation
from repro.storage.catalog import Catalog


@pytest.fixture
def ctx() -> ExecContext:
    """A fresh, unbudgeted execution context."""
    return ExecContext()


@pytest.fixture
def catalog(ctx: ExecContext) -> Catalog:
    """A catalog on the context's data disk."""
    return Catalog(ctx.pool, ctx.data_disk)


@pytest.fixture
def transcript() -> Relation:
    """The running example's dividend: (student_id, course_no).

    Students: 1 took all of {10, 11}; 2 took 11 and an unlisted 99;
    3 took 10 only; 4 took both plus 99.
    """
    return Relation.of_ints(
        ("student_id", "course_no"),
        [(1, 10), (1, 11), (2, 11), (2, 99), (3, 10), (4, 10), (4, 11), (4, 99)],
        name="transcript",
    )


@pytest.fixture
def courses() -> Relation:
    """The running example's divisor: courses {10, 11}."""
    return Relation.of_ints(("course_no",), [(10,), (11,)], name="courses")


@pytest.fixture
def expected_quotient() -> set:
    """Who took all courses: students 1 and 4."""
    return {(1,), (4,)}


@pytest.fixture
def statistics_passes(monkeypatch) -> list:
    """Count planner statistics passes.

    Replaces ``collect_division_estimates`` in ``repro.plan.planner``,
    the one module that calls it, with a counting wrapper; the returned
    list gets one entry per call.
    """
    from repro.plan import planner

    calls: list = []
    original = planner.collect_division_estimates

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(planner, "collect_division_estimates", counting)
    return calls
