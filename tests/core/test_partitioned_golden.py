"""Golden meters for partitioned and parallel hash-division (§3.4, §6).

Each serial case runs one partitioning entry point -- quotient,
hybrid, divisor or combined partitioning, or the overflow driver -- on
one input at one memory budget, in a fresh context.  It pins the
quotient rows in order (or the error type and message), every
``CpuCounters`` field, the per-device I/O counters, the sha256 of the
page-level I/O event log (which names every temp file), the memory
pool's peak and the temp pages left behind.  A two-frame buffer pool
evicts the spooled clusters, so their pages reach the temp device.
Each parallel case pins the quotient rows, every node's model ms, the
interconnect's per-link traffic and fault counters and, where an
injector is attached, its fault schedule.

The cases run in a child process with ``PYTHONHASHSEED=0``, as in
``test_divide.py``.  The golden file was recorded before the
partitioning code was collapsed to one spooler, one phase runner, one
collection phase and one exchange loop.  To re-record it after a
deliberate model change::

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/core/test_partitioned_golden.py \\
        > tests/core/partitioned_golden.json
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.partitioned import PartitionedHashDivision, hash_division_with_overflow
from repro.errors import ReproError
from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.scan import RelationSource
from repro.faults import FaultInjector, FaultRule
from repro.obs.iotrace import IoEventLog, events_to_jsonl
from repro.parallel import parallel_hash_division
from repro.relalg.relation import Relation
from repro.storage.config import KIB, StorageConfig
from repro.workloads.synthetic import (
    make_exact_division,
    make_with_duplicates,
    make_with_nonmatching,
)

GOLDEN_PATH = Path(__file__).with_name("partitioned_golden.json")


def _empty_divisor() -> tuple[Relation, Relation]:
    dividend, divisor = make_exact_division(12, 30, seed=3)
    return dividend, Relation(divisor.schema, [], name=divisor.name)


INPUTS = {
    "exact-12x30": lambda: make_exact_division(12, 30, seed=3),
    "duplicates-8x12": lambda: make_with_duplicates(8, 12, duplication_factor=1.0),
    "empty-divisor": _empty_divisor,
    # Two divisor values over three divisor clusters leave one empty,
    # and its dividend cluster holds non-matching tuples to discard.
    "nonmatching-2x40": lambda: make_with_nonmatching(2, 40, nonmatching_fraction=1.0),
}

BUDGETS = (None, 2500, 1200)

#: A two-frame buffer pool, so that the spooled clusters are evicted to
#: the temp device and their page writes, reads and file names reach the
#: I/O counters and the event log.
SMALL_POOL = StorageConfig(buffer_size=16 * KIB, memory_limit=16 * KIB)

def _run(dividend, divisor, **partitioning) -> Relation:
    return run_to_relation(PartitionedHashDivision(dividend, divisor, **partitioning))


#: Serial entry points: name -> call(dividend_op, divisor_op).
PARTITIONED = {
    "quotient-1": lambda r, s: _run(r, s, quotient_partitions=1),
    "quotient-4": lambda r, s: _run(r, s, quotient_partitions=4),
    "hybrid-1": lambda r, s: _run(r, s, quotient_partitions=1, hybrid=True),
    "hybrid-3": lambda r, s: _run(r, s, quotient_partitions=3, hybrid=True),
    "divisor-1": lambda r, s: _run(r, s, divisor_partitions=1),
    "divisor-3": lambda r, s: _run(r, s, divisor_partitions=3),
    "combined-3x2": lambda r, s: _run(r, s, quotient_partitions=3, divisor_partitions=2),
    "driver-quotient": lambda r, s: hash_division_with_overflow(r, s, "quotient"),
    "driver-divisor": lambda r, s: hash_division_with_overflow(r, s, "divisor"),
}

#: Parallel configurations: name -> keyword arguments.
PARALLEL = {
    f"{strategy}/{collection}/bits={bits}": dict(
        strategy=strategy, collection=collection, bit_vector_bits=bits
    )
    for strategy in ("quotient", "divisor")
    for collection in ("central", "decentralized")
    for bits in (None, 256)
}
PARALLEL["divisor/decentralized/bits=256/faults"] = dict(
    strategy="divisor", collection="decentralized", bit_vector_bits=256, faulted=True
)


def _outcome(call) -> dict:
    """Quotient rows in order, or the typed error it raised."""
    try:
        return {"rows": [list(row) for row in call()]}
    except ReproError as error:
        return {"error": [type(error).__name__, str(error)]}


def _ctx_meters(ctx: ExecContext) -> dict:
    return {
        "cpu": dataclasses.asdict(ctx.cpu),
        "io": {
            name: dataclasses.asdict(counters)
            for name, counters in sorted(ctx.io_stats.devices.items())
        },
        "peak_bytes": ctx.memory.stats.peak_bytes,
        "bytes_in_use": ctx.memory.bytes_in_use,
        "temp_pages": ctx.temp_disk.page_count,
    }


def _run_partitioned(input_name: str, budget, entry: str) -> dict:
    dividend, divisor = INPUTS[input_name]()
    events = IoEventLog(capacity=1 << 16)
    ctx = ExecContext(SMALL_POOL, memory_budget=budget, io_trace=events)
    result = _outcome(
        lambda: PARTITIONED[entry](
            RelationSource(ctx, dividend), RelationSource(ctx, divisor)
        ).rows
    )
    assert events.dropped == 0
    result.update(_ctx_meters(ctx))
    result["io_events_sha256"] = hashlib.sha256(
        events_to_jsonl(events).encode()
    ).hexdigest()
    return result


def _run_parallel(config: str) -> dict:
    options = dict(PARALLEL[config])
    injector = None
    if options.pop("faulted", False):
        injector = FaultInjector(
            [FaultRule("duplicate", probability=0.3), FaultRule("drop", probability=0.2)],
            seed=23,
        )
    dividend, divisor = make_exact_division(6, 24, seed=5)
    run = parallel_hash_division(
        dividend, divisor, processors=4, injector=injector, **options
    )
    network = run.network
    return {
        "rows": [list(row) for row in run.quotient.rows],
        "local_ms": run.local_ms,
        "coordinator_ms": run.coordinator_ms,
        "shipped": run.dividend_tuples_shipped,
        "filtered": run.dividend_tuples_filtered,
        "detail": run.detail,
        "links": {
            f"{sender}->{receiver}": dataclasses.asdict(link)
            for (sender, receiver), link in sorted(network._links.items())
        },
        "network_faults": network.fault_counters.to_dict(),
        "schedule": [] if injector is None else [e.to_dict() for e in injector.schedule],
    }


def _cases() -> list[str]:
    serial = [
        f"{input_name}/budget={budget}/{entry}"
        for input_name in INPUTS
        for budget in BUDGETS
        for entry in PARTITIONED
    ]
    return serial + [f"parallel/{config}" for config in PARALLEL]


def _run_case(case: str) -> dict:
    if case.startswith("parallel/"):
        return _run_parallel(case.removeprefix("parallel/"))
    input_name, budget, entry = case.split("/")
    budget = budget.removeprefix("budget=")
    return _run_partitioned(input_name, None if budget == "None" else int(budget), entry)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def measured() -> dict:
    """Run every case in a child process with a fixed string-hash seed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_cases())


def test_golden_reaches_overflow_and_spills(golden):
    """The budgets make some cases overflow and others spool."""
    errors = [c for c in golden.values() if "error" in c]
    spooled = [c for c in golden.values() if c.get("io", {}).get("temp")]
    assert errors and spooled
    assert all(c["temp_pages"] == 0 for c in golden.values() if "temp_pages" in c)


@pytest.mark.parametrize("case", _cases())
def test_matches_golden(case, golden, measured):
    assert measured[case] == golden[case]


if __name__ == "__main__":
    lines = [
        f"{json.dumps(case)}: {json.dumps(_run_case(case), sort_keys=True)}"
        for case in _cases()
    ]
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
