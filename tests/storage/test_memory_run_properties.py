"""``MemoryPool.allocate_run`` books what ``allocate`` books one at a time.

A run is ``count`` repeats of a pattern of ``(size, tag)`` allocations
(a hash table's chain elements, and hash-division's chain elements
interleaved with bit maps).  Booked in one call, it must leave the
pool exactly as the same allocations made one ``allocate`` at a time:
``bytes_in_use``, the live tags, ``stats`` (so the peak), the budget,
the allocation that fails and its exact message.  Without an injector
this is checked with the budget at every boundary of the run (one byte
under, at, and one byte over each cumulative size); with a
``FaultInjector`` using ``exhaust``, ``pressure``, every-Nth and
probabilistic rules, the fault schedules must be byte-identical too.
"""

from __future__ import annotations

import dataclasses
import itertools

from hypothesis import example, given, settings, strategies as st

from repro.errors import MemoryPoolError
from repro.faults.injector import FaultInjector, FaultRule, schedule_to_jsonl
from repro.storage.memory import MemoryPool

tags = st.sampled_from(("chain#1", "bits#2", "chain#3"))
patterns = st.lists(st.tuples(st.integers(0, 48), tags), min_size=1, max_size=3)
counts = st.integers(0, 12)
earlier = st.lists(st.tuples(st.integers(0, 64), tags), max_size=3)


def _one_at_a_time(pool: MemoryPool, pattern, count: int):
    booked = 0
    try:
        for _ in range(count):
            for size, tag in pattern:
                pool.allocate(size, tag)
                booked += 1
    except MemoryPoolError as exc:
        return booked, str(exc)
    return None


def _as_run(pool: MemoryPool, pattern, count: int):
    try:
        pool.allocate_run(pattern, count)
    except MemoryPoolError as exc:
        return exc.allocated, str(exc)
    return None


def _observe(pool: MemoryPool, failure) -> tuple:
    return (
        failure,
        pool.bytes_in_use,
        dict(pool.live_tags),
        dataclasses.asdict(pool.stats),
        pool.budget,
        pool.pressure_events,
    )


def _pool(before, budget, injector=None) -> MemoryPool:
    """A pool holding ``before``, then held to ``budget``."""
    pool = MemoryPool()
    for size, tag in before:
        pool.allocate(size, tag)
    pool.budget = budget
    pool.injector = injector
    return pool


def _boundaries(before, pattern, count) -> list[int]:
    """Every budget one byte under, at and over a cumulative size of
    the run (``bytes_in_use`` first), kept positive."""
    held = sum(size for size, _ in before)
    sizes = [size for size, _ in pattern] * count
    cumulative = [held, *(held + total for total in itertools.accumulate(sizes))]
    return sorted({max(1, edge + delta) for edge in cumulative for delta in (-1, 0, 1)})


@given(before=earlier, pattern=patterns, count=counts)
@example(before=[], pattern=[(40, "chain#1"), (8, "bits#2")], count=5)
@example(before=[(64, "chain#1")], pattern=[(0, "bits#2")], count=3)
@example(before=[], pattern=[(16, "chain#1")], count=0)
@settings(max_examples=200, deadline=None)
def test_run_matches_one_at_a_time_at_every_budget_boundary(before, pattern, count):
    for budget in [None, *_boundaries(before, pattern, count)]:
        loop_pool, run_pool = _pool(before, budget), _pool(before, budget)
        expected = _observe(loop_pool, _one_at_a_time(loop_pool, pattern, count))
        assert _observe(run_pool, _as_run(run_pool, pattern, count)) == expected, budget


def test_run_over_an_already_exceeded_budget_fails_at_once():
    """A pressure event can leave more bytes in use than the budget;
    even a zero-byte allocation then fails, as ``allocate`` does."""
    loop_pool = _pool([(100, "chain#1")], 60)
    run_pool = _pool([(100, "chain#1")], 60)
    expected = _observe(loop_pool, _one_at_a_time(loop_pool, [(0, "bits#2")], 2))
    assert expected[0][0] == 0
    assert _observe(run_pool, _as_run(run_pool, [(0, "bits#2")], 2)) == expected


memory_rules = st.lists(
    st.one_of(
        st.builds(
            FaultRule,
            kind=st.just("exhaust"),
            tag=st.sampled_from((None, "chain", "bits")),
            every_nth=st.one_of(st.none(), st.integers(1, 6)),
            max_fires=st.one_of(st.none(), st.integers(1, 3)),
        ),
        st.builds(
            FaultRule,
            kind=st.just("pressure"),
            tag=st.sampled_from((None, "chain", "bits")),
            every_nth=st.integers(1, 6),
            pressure_factor=st.sampled_from((0.5, 0.9)),
        ),
        st.builds(
            FaultRule,
            kind=st.sampled_from(("exhaust", "pressure")),
            probability=st.sampled_from((0.2, 0.5)),
        ),
    ),
    min_size=1,
    max_size=3,
)


@given(
    before=earlier,
    pattern=patterns,
    count=counts,
    rules=memory_rules,
    seed=st.integers(0, 3),
    slack=st.one_of(st.none(), st.integers(0, 400)),
)
@example(
    before=[], pattern=[(40, "chain#1"), (8, "bits#2")], count=6,
    rules=[FaultRule(kind="exhaust", tag="bits", every_nth=4)], seed=0, slack=None,
)
@example(
    before=[(64, "chain#1")], pattern=[(40, "chain#1")], count=6,
    rules=[FaultRule(kind="pressure", every_nth=2, pressure_factor=0.9)], seed=0, slack=300,
)
@settings(max_examples=200, deadline=None)
def test_run_under_fault_injection_keeps_the_schedule(before, pattern, count, rules, seed, slack):
    budget = None if slack is None else sum(size for size, _ in before) + slack
    loop_injector, run_injector = FaultInjector(rules, seed), FaultInjector(rules, seed)
    loop_pool = _pool(before, budget, loop_injector)
    run_pool = _pool(before, budget, run_injector)
    expected = _observe(loop_pool, _one_at_a_time(loop_pool, pattern, count))
    assert _observe(run_pool, _as_run(run_pool, pattern, count)) == expected
    assert schedule_to_jsonl(run_injector.schedule) == schedule_to_jsonl(loop_injector.schedule)
    assert run_injector.operations_seen == loop_injector.operations_seen
