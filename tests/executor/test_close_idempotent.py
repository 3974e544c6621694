"""Satellite regression: ``close()`` is idempotent on every operator.

The serving layer's unwind paths (scheduler-thrown cancellation, the
hash-overflow fallback, ``finally: root.close()`` after either) can
close the same operator twice -- or close an operator whose ``open()``
failed partway.  Before this PR a second ``close()`` raised
``ExecutionError`` mid-unwind, aborting cleanup and leaking sibling
resources.  This module pins the contract for **every** operator class:

* ``open -> drain -> close -> close`` is silent,
* ``open -> close -> close`` (no draining) is silent,
* ``close()`` on a *never-opened* operator is still a protocol error
  (it holds nothing: the call is a caller bug),
* a failed ``open()`` leaves the operator closable (no resources held).
"""

import pytest

from repro.core.partitioned import PartitionedHashDivision
from repro.errors import ExecutionError, HashTableOverflowError
from repro.executor.aggregate import HashGroupCount, SortedGroupCount
from repro.executor.distinct import HashDistinct
from repro.executor.filter import Select
from repro.executor.hash_join import HashSemiJoin
from repro.executor.index_join import IndexSemiJoin
from repro.executor.iterator import ExecContext
from repro.executor.merge_join import MergeSemiJoin
from repro.executor.project import Project
from repro.executor.scan import RelationSource, StoredRelationScan, TempFileScan
from repro.executor.sort import ExternalSort
from repro.plan.physical import (
    DIVISION_OPERATOR_STRATEGIES,
    build_division_operator,
)
from repro.relalg.predicates import TruePredicate
from repro.storage.index import SecondaryIndex

# -- operator builders ----------------------------------------------------
# Each builder returns a fresh operator tree over the running example
# (transcript / courses).  ``env`` carries (ctx, catalog, transcript,
# courses) so index/scan builders can store relations first.


def _stored(env, relation, name):
    ctx, catalog = env[0], env[1]
    try:
        return catalog.get(name)
    except Exception:  # noqa: BLE001 - first build stores it
        return catalog.store(relation, name)


def _temp_scan(env, relation):
    ctx = env[0]
    file = ctx.temp_file("temp")
    file.append_rows(relation.rows, relation.schema.codec())
    return TempFileScan(ctx, file, relation.schema, destroy_on_close=True)


def _src(env, which):
    ctx, _, transcript, courses = env
    return RelationSource(ctx, transcript if which == "dividend" else courses)


BUILDERS = {
    "RelationSource": lambda env: _src(env, "dividend"),
    "StoredRelationScan": lambda env: StoredRelationScan(
        env[0], _stored(env, env[2], "transcript")
    ),
    "Select": lambda env: Select(_src(env, "dividend"), TruePredicate()),
    "Project": lambda env: Project(_src(env, "dividend"), ("student_id",)),
    "TempFileScan": lambda env: _temp_scan(env, env[2]),
    "ExternalSort": lambda env: ExternalSort(
        _src(env, "dividend"), key_names=("student_id", "course_no")
    ),
    "ExternalSortDistinct": lambda env: ExternalSort(
        _src(env, "dividend"), key_names=("course_no",), distinct=True
    ),
    "HashDistinct": lambda env: HashDistinct(_src(env, "dividend")),
    "SortedGroupCount": lambda env: SortedGroupCount(
        ExternalSort(_src(env, "dividend"), key_names=("student_id",)),
        ("student_id",),
    ),
    "HashGroupCount": lambda env: HashGroupCount(
        _src(env, "dividend"), ("student_id",)
    ),
    "HashSemiJoin": lambda env: HashSemiJoin(
        _src(env, "dividend"), _src(env, "divisor"), ("course_no",)
    ),
    "MergeSemiJoin": lambda env: MergeSemiJoin(
        ExternalSort(_src(env, "dividend"), key_names=("course_no",)),
        ExternalSort(_src(env, "divisor"), key_names=("course_no",)),
        ("course_no",),
    ),
    "PartitionedHashDivision": lambda env: PartitionedHashDivision(
        _src(env, "dividend"),
        _src(env, "divisor"),
        quotient_partitions=2,
        divisor_partitions=2,
    ),
    "IndexSemiJoin": lambda env: IndexSemiJoin(
        _src(env, "dividend"),
        SecondaryIndex.build(_stored(env, env[3], "courses"), ["course_no"]),
    ),
}


@pytest.fixture
def env(ctx, catalog, transcript, courses):
    return (ctx, catalog, transcript, courses)


@pytest.mark.parametrize("name", sorted(BUILDERS))
class TestEveryOperator:
    def test_double_close_after_drain_is_silent(self, env, name):
        op = BUILDERS[name](env)
        op.open()
        while op.next() is not None:
            pass
        op.close()
        op.close()  # must be a no-op, not an ExecutionError

    def test_double_close_without_drain_is_silent(self, env, name):
        op = BUILDERS[name](env)
        op.open()
        op.close()
        op.close()

    def test_close_before_any_open_is_a_protocol_error(self, env, name):
        op = BUILDERS[name](env)
        with pytest.raises(ExecutionError):
            op.close()


@pytest.mark.parametrize("strategy", DIVISION_OPERATOR_STRATEGIES)
def test_division_trees_survive_double_close(env, strategy):
    ctx, _, transcript, courses = env
    root = build_division_operator(
        strategy,
        RelationSource(ctx, transcript),
        RelationSource(ctx, courses),
        expected_divisor=2,
        expected_quotient=4,
    )
    root.open()
    rows = set()
    while True:
        row = root.next()
        if row is None:
            break
        rows.add(row)
    root.close()
    root.close()
    # Still computed a quotient.  (Only student 1's membership is
    # strategy-independent here: the "no join" counting variants assume
    # a divisor-restricted dividend, which the raw transcript is not.)
    assert (1,) in rows


def test_failed_open_leaves_the_operator_closable():
    """A budget overflow *inside* ``open()`` must not poison ``close()``.

    This is the overflow fallback path: ``root.open()`` raises
    ``HashTableOverflowError``, and the stepping loop calls
    ``root.close()`` on the never-successfully-opened root before it
    moves on to partitioned division.
    """
    from repro.relalg.relation import Relation

    ctx = ExecContext(memory_budget=256)
    rows = [(i, j) for i in range(32) for j in range(4)]
    big = Relation.of_ints(("q", "d"), rows, name="big")
    op = HashGroupCount(RelationSource(ctx, big), ("q",), expected_groups=32)
    with pytest.raises(HashTableOverflowError):
        op.open()
    op.close()  # idempotent: the failed open cleaned up after itself
    op.close()
    assert ctx.memory.bytes_in_use == 0  # nothing leaked by the failed open
