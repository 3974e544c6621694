"""Property-based conservation tests for the I/O event log.

For random storage workloads -- heap-file append/scan/delete mixes,
multi-file interleavings, and externally sorted inputs that spill runs
-- replaying the event log through the Table 3 weights must reproduce
``IoStatistics.cost_ms`` *exactly*, per device.  The replay rebuilds
integer counters and prices them with the aggregate formula, so the
assertion is ``==``, never ``approx``.
"""

from hypothesis import given, settings, strategies as st

from repro.executor.iterator import ExecContext
from repro.executor.scan import RelationSource
from repro.executor.sort import ExternalSort
from repro.obs.iotrace import IoEventLog, replay_cost_ms, verify_conservation
from repro.relalg.relation import Relation
from repro.relalg.schema import Attribute, DataType, Schema
from repro.storage.config import KIB, StorageConfig
from repro.storage.heapfile import HeapFile


def assert_conserves(ctx: ExecContext, log: IoEventLog) -> None:
    report = verify_conservation(log, ctx.io_stats)
    assert report.ok, str(report)
    replayed = replay_cost_ms(log.events(), ctx.io_stats.weights)
    for device, ms in replayed.items():
        assert ms == ctx.io_stats.cost_ms(device)


# One operation = (op_code, size) applied to a rotating set of files.
ops = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.integers(1, 30)),
    min_size=1,
    max_size=40,
)


def _bytes_codec(width):
    """Codec of one-string records ``width`` bytes long."""
    return Schema((Attribute("r", DataType.STRING, width),)).codec()


@given(ops)
@settings(max_examples=40, deadline=None)
def test_heapfile_workloads_conserve(operations):
    log = IoEventLog()
    ctx = ExecContext(io_trace=log)
    files: list[HeapFile] = []
    for code, size in operations:
        if code == 0 or not files:  # append to a (possibly new) file
            heap = HeapFile(ctx.pool, ctx.data_disk, name=f"h{len(files)}")
            heap.append_rows([(b"x" * 200,)] * size, _bytes_codec(200))
            files.append(heap)
        elif code == 1:  # flush + cold scan
            heap = files[size % len(files)]
            heap.flush()
            ctx.pool.drop_device_pages(ctx.data_disk.name)
            for _ in heap.scan():
                pass
        elif code == 2:  # grow an existing file
            files[size % len(files)].append_rows([(b"y" * 150,)] * size, _bytes_codec(150))
        else:  # destroy one (dirty pages dropped, not written)
            heap = files.pop(size % len(files))
            heap.destroy()
    ctx.pool.flush_device(ctx.data_disk.name)
    assert_conserves(ctx, log)


@given(
    rows=st.integers(min_value=100, max_value=400),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=15, deadline=None)
def test_spilling_sort_conserves(rows, seed):
    """External sorts that spill runs to the 1 KB-page device conserve."""
    import random

    rng = random.Random(seed)
    log = IoEventLog()
    # A 1 KiB sort buffer forces run files for any non-trivial input.
    config = StorageConfig(sort_buffer_size=1 * KIB)
    ctx = ExecContext(config=config, io_trace=log)
    relation = Relation.of_ints(
        ("a", "b"),
        [(rng.randrange(1000), rng.randrange(1000)) for _ in range(rows)],
    )
    sort = ExternalSort(RelationSource(ctx, relation), key_names=("a", "b"))
    sort.open()
    drained = list(sort)
    sort.close()
    assert len(drained) == rows
    assert sort.runs_spilled > 0  # the workload actually exercised runs
    assert_conserves(ctx, log)


@given(
    divisor=st.sampled_from([5, 10, 25]),
    quotient=st.sampled_from([5, 25, 50]),
    strategy=st.sampled_from(["naive", "hash-division", "hash-agg no join"]),
)
@settings(max_examples=10, deadline=None)
def test_division_strategies_conserve(divisor, quotient, strategy):
    from repro.experiments.runner import run_strategy
    from repro.storage.catalog import Catalog
    from repro.workloads.synthetic import make_exact_division

    log = IoEventLog()
    ctx = ExecContext(io_trace=log)
    dividend, divisor_rel = make_exact_division(divisor, quotient, seed=1)
    catalog = Catalog(ctx.pool, ctx.data_disk)
    catalog.store(dividend, name="dividend", cold=True)
    catalog.store(divisor_rel, name="divisor", cold=True)
    ctx.reset_meters()
    run = run_strategy(
        strategy, ctx, catalog, "dividend", "divisor", expected_quotient=quotient
    )
    assert run.quotient_tuples == quotient
    assert_conserves(ctx, log)
