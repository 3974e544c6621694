"""Golden meters for three Table 4 points: every model counter pinned.

Each (|S|, |Q|) point below divides a 10,000-tuple dividend, large
enough that sort runs spill to the ``runs`` device and the buffer pool
evicts.  For every strategy the test pins the Table 1 operation counts
(Comp/Hash/Move/Bit), the Table 3 I/O milliseconds, per-device
transfers (``io_detail``) and seeks, buffer evictions and write-backs,
and the sha256 of the run's page-level I/O event log (every transfer,
in order); the cold load of the inputs (``setup``) is pinned the same
way.  Two more storage configurations run one point each: a 16 KB pool
that evicts during run generation and the final merge, and a 2 KB sort
buffer whose runs outnumber the merge fan-in, so merge passes run in a
32 KB pool.  Wall-clock work on the storage or executor hot paths must
leave every one of these numbers unchanged.

A second golden, ``table4_buffer_golden.json``, pins the buffer pool's
per-device ``fixes``, ``misses``, ``evictions`` and ``writebacks`` of
every case, for the cold load and the run apart: a write path that
books page fixes itself (instead of calling ``fix``/``unfix``) must book
the same ones.

The meter golden was recorded before the page-at-a-time record path
existed, the buffer golden before run pages were written as whole page
images.  To re-record both after a deliberate model change::

    PYTHONPATH=src python -m tests.experiments.test_meter_golden --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import cache
from pathlib import Path

import pytest

from repro.executor.iterator import ExecContext
from repro.experiments.runner import STRATEGIES, run_strategy
from repro.obs.iotrace import IoEventLog, events_to_jsonl
from repro.storage.catalog import Catalog
from repro.storage.config import KIB, StorageConfig
from repro.workloads.synthetic import make_exact_division

GOLDEN = Path(__file__).with_name("table4_meters.json")
BUFFER_GOLDEN = Path(__file__).with_name("table4_buffer_golden.json")

#: (|S|, |Q|) points, 10,000 dividend tuples each.
POINTS = ((25, 400), (100, 100), (400, 25))

#: Small-memory configurations, each run at one point: name -> config.
CONFIGS = {
    "small-pool": StorageConfig(
        buffer_size=16 * KIB, memory_limit=16 * KIB, sort_buffer_size=32 * KIB
    ),
    "merge-passes": StorageConfig(
        buffer_size=32 * KIB, memory_limit=32 * KIB, sort_buffer_size=2 * KIB
    ),
}
CONFIG_POINT = (100, 100)


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


def _buffer_counters(pool, since: dict | None = None) -> dict:
    """Per-device buffer-pool counters (as deltas from ``since``)."""
    since = since or {}
    counters = {}
    for device, c in sorted(pool.stats.by_device.items()):
        now = {"fixes": c.fixes, "misses": c.misses, "evictions": c.evictions,
               "writebacks": c.writebacks}
        before = since.get(device, {})
        counters[device] = {name: value - before.get(name, 0) for name, value in now.items()}
    return counters


def measure(
    divisor_tuples: int, quotient_tuples: int, strategy: str, config: str = ""
) -> dict:
    """Store one cold ``R = Q x S`` point, run ``strategy``, read every meter."""
    return _measured(divisor_tuples, quotient_tuples, strategy, config)[0]


@cache
def _measured(
    divisor_tuples: int, quotient_tuples: int, strategy: str, config: str
) -> tuple[dict, dict]:
    """The meters of :func:`measure`, and the per-device buffer-pool
    counters of the cold load (``setup``) and of the run."""
    dividend, divisor = make_exact_division(divisor_tuples, quotient_tuples)
    events = IoEventLog(capacity=1 << 20)
    ctx = ExecContext(CONFIGS.get(config), io_trace=events)
    try:
        catalog = Catalog(ctx.pool, ctx.data_disk)
        catalog.store(dividend, name="dividend", cold=True)
        catalog.store(divisor, name="divisor", cold=True)
        setup = _io_meters(ctx, 0, 0)
        setup_buffers = _buffer_counters(ctx.pool)
        ctx.reset_meters()
        evictions, writebacks = ctx.pool.stats.evictions, ctx.pool.stats.writebacks
        run = run_strategy(
            strategy, ctx, catalog, "dividend", "divisor",
            expected_quotient=quotient_tuples,
        )
        cpu = ctx.cpu
        assert events.dropped == 0
        buffers = {
            "setup": setup_buffers,
            "run": _buffer_counters(ctx.pool, setup_buffers),
        }
        meters = {
            "quotient_tuples": run.quotient_tuples,
            "comp": cpu.comparisons,
            "hash": cpu.hashes,
            "move": cpu.moves,
            "bit": cpu.bit_ops,
            **_io_meters(ctx, evictions, writebacks),
            "io_events_sha256": hashlib.sha256(
                events_to_jsonl(events).encode()
            ).hexdigest(),
            "setup": setup,
        }
        return meters, buffers
    finally:
        ctx.close()


def _key(
    divisor_tuples: int, quotient_tuples: int, strategy: str, config: str = ""
) -> str:
    prefix = f"{config} " if config else ""
    return f"{prefix}S={divisor_tuples} Q={quotient_tuples} {strategy}"


CASES = [(s, q, strategy, "") for s, q in POINTS for strategy in STRATEGIES] + [
    (*CONFIG_POINT, strategy, config) for config in CONFIGS for strategy in STRATEGIES
]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*case) for case in CASES)


@pytest.mark.parametrize("divisor_tuples,quotient_tuples,strategy,config", CASES)
def test_meters_match_golden(golden, divisor_tuples, quotient_tuples, strategy, config):
    measured = measure(divisor_tuples, quotient_tuples, strategy, config)
    assert measured == golden[_key(divisor_tuples, quotient_tuples, strategy, config)]


@pytest.mark.parametrize("divisor_tuples,quotient_tuples,strategy,config", CASES)
def test_buffer_counters_match_golden(divisor_tuples, quotient_tuples, strategy, config):
    golden = json.loads(BUFFER_GOLDEN.read_text())
    measured = _measured(divisor_tuples, quotient_tuples, strategy, config)[1]
    assert measured == golden[_key(divisor_tuples, quotient_tuples, strategy, config)]


def test_buffer_golden_covers_every_case():
    golden = json.loads(BUFFER_GOLDEN.read_text())
    assert sorted(golden) == sorted(_key(*case) for case in CASES)
    # The run pages of the spilling cases are fixed in the pinned counts.
    assert any(cell["run"].get("runs", {}).get("fixes", 0) > 0 for cell in golden.values())


def test_points_spill_and_evict(golden):
    """The pinned points exercise run spills and pool eviction."""
    spilled = [e for e in golden.values() if e["io_detail"].get("runs", 0) > 0]
    assert spilled and all(e["evictions"] > 0 and e["writebacks"] > 0 for e in spilled)


def _write(path: Path, cells: list[tuple[str, dict]]) -> None:
    lines = [f"{json.dumps(key)}: {json.dumps(cell, sort_keys=True)}" for key, cell in cells]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} cells to {path}")


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    keyed = sorted((_key(*case), _measured(*case)) for case in CASES)
    _write(GOLDEN, [(key, meters) for key, (meters, _) in keyed])
    _write(BUFFER_GOLDEN, [(key, buffers) for key, (_, buffers) in keyed])
