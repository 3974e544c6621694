"""Golden meters for three Table 4 points: every model counter pinned.

Each (|S|, |Q|) point below divides a 10,000-tuple dividend, large
enough that sort runs spill to the ``runs`` device and the buffer pool
evicts.  For every strategy the test pins the Table 1 operation counts
(Comp/Hash/Move/Bit), the Table 3 I/O milliseconds, per-device
transfers (``io_detail``) and seeks, and buffer evictions and
write-backs; the cold load of the inputs (``setup``) is pinned the
same way.  Wall-clock work on the storage or executor hot paths must
leave every one of these numbers unchanged.

The golden file was recorded before the page-at-a-time record path
existed.  To re-record it after a deliberate model change::

    PYTHONPATH=src python -m tests.experiments.test_meter_golden --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.executor.iterator import ExecContext
from repro.experiments.runner import STRATEGIES, run_strategy
from repro.storage.catalog import Catalog
from repro.workloads.synthetic import make_exact_division

GOLDEN = Path(__file__).with_name("table4_meters.json")

#: (|S|, |Q|) points, 10,000 dividend tuples each.
POINTS = ((25, 400), (100, 100), (400, 25))


def _io_meters(ctx: ExecContext, evictions: int, writebacks: int) -> dict:
    """I/O and buffer meters since the last reset (pool counts as deltas)."""
    devices = ctx.io_stats.devices
    return {
        "io_ms": ctx.io_cost_ms(),
        "io_detail": {name: c.transfers for name, c in sorted(devices.items())},
        "seeks": {name: c.seeks for name, c in sorted(devices.items())},
        "evictions": ctx.pool.stats.evictions - evictions,
        "writebacks": ctx.pool.stats.writebacks - writebacks,
    }


def measure(divisor_tuples: int, quotient_tuples: int, strategy: str) -> dict:
    """Store one cold ``R = Q x S`` point, run ``strategy``, read every meter."""
    dividend, divisor = make_exact_division(divisor_tuples, quotient_tuples)
    ctx = ExecContext()
    try:
        catalog = Catalog(ctx.pool, ctx.data_disk)
        catalog.store(dividend, name="dividend", cold=True)
        catalog.store(divisor, name="divisor", cold=True)
        setup = _io_meters(ctx, 0, 0)
        ctx.reset_meters()
        evictions, writebacks = ctx.pool.stats.evictions, ctx.pool.stats.writebacks
        run = run_strategy(
            strategy, ctx, catalog, "dividend", "divisor",
            expected_quotient=quotient_tuples,
        )
        cpu = ctx.cpu
        return {
            "quotient_tuples": run.quotient_tuples,
            "comp": cpu.comparisons,
            "hash": cpu.hashes,
            "move": cpu.moves,
            "bit": cpu.bit_ops,
            **_io_meters(ctx, evictions, writebacks),
            "setup": setup,
        }
    finally:
        ctx.close()


def _key(divisor_tuples: int, quotient_tuples: int, strategy: str) -> str:
    return f"S={divisor_tuples} Q={quotient_tuples} {strategy}"


CASES = [(s, q, strategy) for s, q in POINTS for strategy in STRATEGIES]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*case) for case in CASES)


@pytest.mark.parametrize("divisor_tuples,quotient_tuples,strategy", CASES)
def test_meters_match_golden(golden, divisor_tuples, quotient_tuples, strategy):
    measured = measure(divisor_tuples, quotient_tuples, strategy)
    assert measured == golden[_key(divisor_tuples, quotient_tuples, strategy)]


def test_points_spill_and_evict(golden):
    """The pinned points exercise run spills and pool eviction."""
    spilled = [e for e in golden.values() if e["io_detail"].get("runs", 0) > 0]
    assert spilled and all(e["evictions"] > 0 and e["writebacks"] > 0 for e in spilled)


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    cells = sorted((_key(*case), measure(*case)) for case in CASES)
    lines = [f"{json.dumps(key)}: {json.dumps(cell, sort_keys=True)}" for key, cell in cells]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} cells to {GOLDEN}")
