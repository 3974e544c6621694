"""Golden plan-time statistics for ``contains``-shaped divisions (§5.2).

The planner's statistics pass reads every input once to price the
division strategies.  This file pins what that pass reports for the
query shapes of the ``contains-planned`` benchmark, at two seeds:

* university "all" and "database" divisions over stored inputs (one
  transcript larger than the 1 MB buffer pool, three that fit) and
  over in-memory ``Query`` inputs;
* a duplicate-carrying dividend, divided as a bag and as a
  ``Distinct`` input, stored and in memory.

For each query it records the :class:`DivisionEstimates`, the
strategy the advisor chose, the page reads and model I/O ms of the
pass, the context's CPU counters (the pass charges none) and the
sha256 of the pass's page-level I/O event log.  The passes run one
after the other in one context, after every relation was stored cold, so a pass
meets the buffer-pool state the passes before it left behind.

The golden file was recorded before the pass was rewritten to work a
page at a time.  To re-record it after a deliberate change::

    PYTHONPATH=src python tests/plan/test_estimates_golden.py \\
        > tests/plan/estimates_golden.json
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.executor.iterator import ExecContext
from repro.obs.iotrace import IoEventLog, events_to_jsonl
from repro.plan.logical import (
    DistinctNode,
    DivideNode,
    FilterNode,
    LogicalNode,
    ProjectNode,
    StoredSourceNode,
)
from repro.plan.planner import decide_division
from repro.query import Query
from repro.relalg.predicates import AttributeContains
from repro.storage.catalog import Catalog
from repro.workloads.synthetic import make_with_duplicates
from repro.workloads.university import make_university

GOLDEN_PATH = Path(__file__).with_name("estimates_golden.json")

SEEDS = (1, 7919)

#: Students per university; the first one's stored transcript is about
#: 140 pages, more than the buffer pool holds.
STUDENTS = (1700, 200, 400, 800)

#: (|S|, |Q|) of the dividends that carry 50% duplicate copies.
DUPLICATED = ((20, 100), (30, 200))


def build_queries(seed: int, catalog: Catalog) -> list[tuple[str, DivideNode]]:
    """Store one seed's inputs cold; returns its labelled divisions."""
    database = AttributeContains("title", "database")
    queries: list[tuple[str, DivideNode]] = []
    for i, count in enumerate(STUDENTS):
        tag = f"u{count}"
        courses = 40 if i == 0 else 20
        u = make_university(
            count, courses, courses // 4, completionists=3,
            enrollment_probability=0.6, seed=seed + i,
        )
        transcript = StoredSourceNode(catalog.store(u.transcript, name=f"{tag}-transcript"))
        offered = StoredSourceNode(catalog.store(u.courses, name=f"{tag}-courses"))
        enrolled = ProjectNode(transcript, ("student_id", "course_no"))
        queries += [
            (f"{tag} stored all", DivideNode(enrolled, ProjectNode(offered, ("course_no",)))),
            (f"{tag} stored database", DivideNode(
                enrolled,
                ProjectNode(FilterNode(offered, database), ("course_no",)),
                divisor_restricted=True,
            )),
        ]
        if i > 0:
            memory = Query(u.transcript).project("student_id", "course_no")
            queries += [
                (f"{tag} memory all", memory.contains(
                    Query(u.courses).project("course_no")).logical_plan()),
                (f"{tag} memory database", memory.contains(
                    Query(u.courses).where(database).project("course_no")).logical_plan()),
            ]
    for j, (divisor_tuples, quotient_tuples) in enumerate(DUPLICATED):
        tag = f"dup{divisor_tuples}x{quotient_tuples}"
        dividend, divisor = make_with_duplicates(
            divisor_tuples, quotient_tuples, 0.5, seed=seed + 10 + j
        )
        names = dividend.schema.names
        bag: LogicalNode = ProjectNode(
            StoredSourceNode(catalog.store(dividend, name=f"{tag}-dividend")), names
        )
        stored_divisor = StoredSourceNode(catalog.store(divisor, name=f"{tag}-divisor"))
        memory = Query(dividend).project(*names)
        queries += [
            (f"{tag} stored bag", DivideNode(bag, stored_divisor)),
            (f"{tag} stored distinct", DivideNode(DistinctNode(bag), stored_divisor)),
            (f"{tag} memory bag", memory.contains(Query(divisor)).logical_plan()),
            (f"{tag} memory distinct",
             memory.distinct().contains(Query(divisor)).logical_plan()),
        ]
    return queries


def measure(seed: int) -> dict:
    """Run every query's statistics pass; returns ``label -> record``."""
    events = IoEventLog()
    ctx = ExecContext(io_trace=events)
    try:
        queries = build_queries(seed, Catalog(ctx.pool, ctx.data_disk))
        records = {}
        for label, node in queries:
            events.clear()
            reads_before = ctx.io_stats.totals().reads
            io_ms_before = ctx.io_cost_ms()
            decision = decide_division(node)
            assert events.dropped == 0
            log = events_to_jsonl(events.events()).encode()
            records[f"seed={seed}/{label}"] = {
                "estimates": dataclasses.asdict(decision.estimates),
                "strategy": decision.strategy,
                "page_reads": ctx.io_stats.totals().reads - reads_before,
                "io_ms": ctx.io_cost_ms() - io_ms_before,
                "cpu": dataclasses.asdict(ctx.cpu),
                "io_events_sha256": hashlib.sha256(log).hexdigest(),
            }
        return records
    finally:
        ctx.close()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("seed", SEEDS)
def test_statistics_pass_matches_golden(seed, golden):
    expected = {k: v for k, v in golden.items() if k.startswith(f"seed={seed}/")}
    assert measure(seed) == expected


def test_golden_covers_both_seeds_and_every_shape(golden):
    assert len(golden) == 2 * 22
    strategies = {record["strategy"] for record in golden.values()}
    assert len(strategies) > 1
    # The in-memory queries read no page; the first pass over each
    # cold stored dividend does.
    for label, record in golden.items():
        if "memory" in label:
            assert record["page_reads"] == 0, label
        if label.endswith(("stored all", "stored bag")):
            assert record["page_reads"] > 0, label


if __name__ == "__main__":
    lines = [
        f"{json.dumps(key)}: {json.dumps(record, sort_keys=True)}"
        for seed in SEEDS
        for key, record in measure(seed).items()
    ]
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
