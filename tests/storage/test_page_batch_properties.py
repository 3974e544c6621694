"""The page-at-a-time record path equals the record-at-a-time one.

:meth:`HeapFile.append_many` fixes the last page once per batch and
:meth:`HeapFile.scan_tuples` decodes a whole page while it is fixed.
Against :meth:`HeapFile.append` per record and :meth:`HeapFile.scan`
plus :meth:`RecordCodec.decode` per record, these properties demand the
same page bytes, rows and record-id order; the same I/O statistics and
I/O event log; no frame left fixed after a :class:`PageError`; and,
under the chaos storage config with injected disk faults, the same
outcomes and the same fault schedule.
"""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import PageError, ReproError
from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.materialize import Materialize
from repro.executor.project import Project
from repro.executor.scan import StoredRelationScan
from repro.faults.chaos import CHAOS_CONFIG, default_chaos_rules
from repro.faults.injector import FaultInjector, FaultRule, schedule_to_jsonl
from repro.obs.iotrace import IoEventLog
from repro.relalg.relation import Relation
from repro.relalg.schema import Attribute, DataType, Schema
from repro.storage.catalog import Catalog
from repro.storage.config import StorageConfig
from repro.storage.heapfile import HeapFile
from repro.storage.page import SlottedPage

INT_SCHEMA = Schema.of_ints("a", "b")
STRING_SCHEMA = Schema((Attribute("a"), Attribute("name", DataType.STRING, 11)))
#: 64-byte rows; projected onto ``a`` they shrink to 8 bytes.
WIDE_SCHEMA = Schema((Attribute("a"), Attribute("pad", DataType.STRING, 56)))

#: A record no 512-byte chaos page can hold.
OVERSIZED = b"\x7f" * CHAOS_CONFIG.page_size
#: A row of the wrong arity: encoding it raises SchemaError.
BAD_ROW = (1,)

names = st.text(alphabet="abcxyz", max_size=11)


@st.composite
def workloads(draw):
    """A schema and a step list: inserts, deletes, reads and evictions."""
    schema = draw(st.sampled_from([INT_SCHEMA, STRING_SCHEMA]))
    value = st.integers(-(2**40), 2**40)
    row = st.tuples(value, value if schema is INT_SCHEMA else names)
    insert = st.tuples(st.just("insert"), st.lists(row, max_size=120))
    steps = draw(
        st.lists(
            st.one_of(
                insert,
                insert,
                st.tuples(st.just("delete"), st.integers(2, 5)),
                st.tuples(st.just("read")),
                st.tuples(st.just("evict")),
            ),
            min_size=1,
            max_size=8,
        )
    )
    # Optionally plant, inside one insert, a record no page can hold or
    # a row the codec rejects (the record source fails mid-stream).
    inserts = [i for i, step in enumerate(steps) if step[0] == "insert"]
    planted = None
    if inserts and draw(st.booleans()):
        step = draw(st.sampled_from(inserts))
        position = draw(st.integers(0, len(steps[step][1])))
        planted = (step, position, draw(st.sampled_from([OVERSIZED, BAD_ROW])))
    return schema, steps, planted


def _records(codec, step_index, rows, planted):
    """Encode lazily, as Catalog.insert_rows does."""
    rows = list(rows)
    if planted is not None and planted[0] == step_index:
        rows.insert(planted[1], planted[2])
    return (row if row is OVERSIZED else codec.encode(row) for row in rows)


def _apply(step, index, heap, other, codec, planted, batched):
    kind = step[0]
    if kind == "insert":
        records = _records(codec, index, step[1], planted)
        if batched:
            heap.append_many(records)
        else:
            for record in records:
                heap.append(record)
        return heap.record_count
    if kind == "delete":
        victims = [rid for rid, rec in heap.scan() if codec.decode(rec)[0] % step[1] == 0]
        for rid in victims:
            heap.delete(rid)
        return len(victims)
    if kind == "read":
        if batched:
            return list(heap.scan_tuples(codec))
        return [codec.decode(record) for _rid, record in heap.scan()]
    # "evict": writing the other file fills the pool with dirty pages
    # and pushes this one's out.
    assert kind == "evict", kind
    filler = [codec.encode(row) for row in _filler(codec.schema)]
    if batched:
        other.append_many(filler)
    else:
        for record in filler:
            other.append(record)
    return other.record_count


def _filler(schema):
    return [(i, i if schema is INT_SCHEMA else "pad") for i in range(100)]


def run(schema, steps, planted, batched, rules=(), fault_seed=0):
    """Apply ``steps`` to a fresh heap file; returns every observable."""
    trace = IoEventLog(capacity=1_000_000)
    ctx = ExecContext(config=CHAOS_CONFIG, io_trace=trace)
    codec = schema.codec()
    try:
        other = HeapFile(ctx.pool, ctx.data_disk, name="other")
        other.append_many(codec.encode(row) for row in _filler(schema))
        heap = HeapFile(ctx.pool, ctx.data_disk, name="heap")
        injector = None
        if rules:
            injector = FaultInjector(rules, seed=fault_seed)
            ctx.attach_fault_injector(injector)
        outcomes = []
        for index, step in enumerate(steps):
            if step[0] == "faults":
                injector = FaultInjector(step[1], seed=fault_seed)
                ctx.attach_fault_injector(injector)
                continue
            try:
                outcomes.append(_apply(step, index, heap, other, codec, planted, batched))
            except ReproError as exc:
                outcomes.append((type(exc).__name__, str(exc)))
            assert ctx.pool.fixed_page_count() == 0, "frames left fixed"
        ctx.attach_fault_injector(None)
        pool = ctx.pool.stats
        observed = {
            "outcomes": outcomes,
            "io": dict(ctx.io_stats.devices),
            "io_ms": ctx.io_cost_ms(),
            "events": trace.events(),
            "pool": (pool.misses, pool.evictions, pool.writebacks),
            "schedule": schedule_to_jsonl(injector.schedule) if injector else "",
            "record_count": heap.record_count,
            "pages": heap.page_numbers,
        }
        try:
            observed["rids"] = [rid for rid, _ in heap.scan()]
            observed["bytes"] = [_page_bytes(ctx, page) for page in heap.page_numbers]
        except ReproError as exc:  # a persistent corruption stays visible
            observed["rids"] = (type(exc).__name__, str(exc))
        return observed
    finally:
        ctx.close()


def _page_bytes(ctx, page_no):
    view = ctx.pool.fix("data", page_no)
    try:
        return bytes(view)
    finally:
        ctx.pool.unfix("data", page_no)


SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@given(workloads())
@SETTINGS
def test_page_path_equals_record_path(workload):
    schema, steps, planted = workload
    batched = run(schema, steps, planted, batched=True)
    assert batched == run(schema, steps, planted, batched=False)


@given(workloads(), st.integers(0, 2**32))
@SETTINGS
def test_page_path_equals_record_path_under_faults(workload, fault_seed):
    schema, steps, planted = workload
    rules = default_chaos_rules(random.Random(fault_seed))
    batched = run(schema, steps, planted, True, rules, fault_seed)
    assert batched == run(schema, steps, planted, False, rules, fault_seed)


@pytest.mark.parametrize("planted,error", [(OVERSIZED, "PageError"), (BAD_ROW, "SchemaError")])
def test_a_failed_record_keeps_the_records_before_it(planted, error):
    for batched in (True, False):
        observed = run(INT_SCHEMA, [("insert", [(1, 2)] * 50)], (0, 30, planted), batched)
        assert observed["outcomes"][0][0] == error
        assert observed["record_count"] == 30


def test_workloads_reach_the_interesting_paths():
    """Many pages, tombstoned pages and a cold tail page all occur."""
    steps = [
        ("insert", [(i, i) for i in range(100)]),
        ("delete", 3),
        ("evict",),
        ("insert", [(i, -i) for i in range(60)]),
        ("read",),
    ]
    observed = run(INT_SCHEMA, steps, None, batched=True)
    assert len(observed["pages"]) > 3
    assert observed["pool"][0] > 0  # evicted pages were read back
    assert len(observed["outcomes"][-1]) == 160 - 34


def test_eviction_fault_after_a_cold_tail_fix():
    """A fix that grows the pool is followed by an evicting unfix.

    Record at a time, that unfix comes after one record; when the
    write-back of the evicted (dirty) frame fails, exactly one record
    of the batch has been appended on either path.
    """
    steps = [
        ("insert", [(i, i) for i in range(90)]),  # 25 records fill a page
        ("evict",),
        ("faults", [FaultRule("permanent", op="write", device="data")]),
        ("insert", [(i, -i) for i in range(10)]),
    ]
    for batched in (True, False):
        observed = run(INT_SCHEMA, steps, None, batched)
        assert observed["outcomes"][-1][0] == "DiskFaultError"
        assert observed["record_count"] == 91


class TestUnpackRecords:
    def test_dense_page_matches_per_record_decode(self):
        codec = INT_SCHEMA.codec()
        page = SlottedPage.format(bytearray(256))
        records = [codec.encode((i, -i)) for i in range(12)]
        assert page.insert_many(records) == 12
        assert codec.decode_page(page) == [codec.decode(r) for _, r in page.records()]

    def test_tombstones_take_the_per_slot_path(self):
        codec = STRING_SCHEMA.codec()
        page = SlottedPage.format(bytearray(256))
        page.insert_many([codec.encode((i, f"n{i}")) for i in range(10)])
        page.delete(0)
        page.delete(7)
        expected = [(i, f"n{i}") for i in range(10) if i not in (0, 7)]
        assert codec.decode_page(page) == expected

    def test_other_record_lengths_are_not_taken_for_dense(self):
        page = SlottedPage.format(bytearray(128))
        page.insert_many([b"x" * 16, b"y" * 16])
        # Two 8-byte records' worth of bytes, but the directory says 16:
        # iter_unpack with an 8-byte struct would yield four tuples.
        with pytest.raises(struct.error):
            INT_SCHEMA.project(["a"]).codec().decode_page(page)


class TestInsertMany:
    def test_stops_at_the_first_record_insert_refuses(self):
        page = SlottedPage.format(bytearray(64))
        records = [b"a" * 20, b"b" * 20, b"c" * 20, b"d" * 2]
        assert page.insert_many(records) == 2
        assert page.slot_count == 2
        with pytest.raises(PageError):
            page.insert(records[2])

    def test_same_bytes_as_one_record_at_a_time(self):
        records = [bytes([i]) * (i % 7 + 1) for i in range(30)]
        one_buf, many_buf = bytearray(256), bytearray(256)
        one = SlottedPage.format(one_buf)
        for record in records:
            if not one.fits(len(record)):
                break
            one.insert(record)
        assert SlottedPage.format(many_buf).insert_many(records) == one.slot_count
        assert one_buf == many_buf


def _spool_io(spool):
    """Model I/O of spooling a projecting scan in a three-frame pool."""
    config = StorageConfig(
        page_size=512, sort_run_page_size=256, buffer_size=3 * 512,
        memory_limit=16 * 512, sort_buffer_size=2 * 512,
    )
    ctx = ExecContext(config=config)
    try:
        catalog = Catalog(ctx.pool, ctx.data_disk)
        catalog.store(Relation(WIDE_SCHEMA, [(i, f"p{i}") for i in range(300)], name="w"))
        source = Project(StoredRelationScan(ctx, catalog.get("w")), ["a"])
        rows = spool(ctx, source)
        return rows, ctx.io_cost_ms(), ctx.io_stats.totals().transfers
    finally:
        ctx.close()


def _per_record_spool(ctx, source):
    file = ctx.temp_file("temp")
    codec = source.schema.codec()
    source.open()
    for row in source:
        file.append(codec.encode(row))
    source.close()
    return list(file.scan_tuples(codec))


def _batched_spool(ctx, source):
    file = ctx.temp_file("temp")
    codec = source.schema.codec()
    source.open()
    file.append_many(codec.encode(row) for row in source)
    source.close()
    return list(file.scan_tuples(codec))


def test_materialize_spools_record_at_a_time():
    """A source that fixes pages while the spool is written must not be
    batched: the spool's page would age in the LRU list between fixes
    and a small pool would evict and re-read it."""
    materialized = _spool_io(lambda ctx, source: list(run_to_relation(Materialize(source))))
    assert materialized == _spool_io(_per_record_spool)
    batched = _spool_io(_batched_spool)
    assert batched[0] == materialized[0] and batched[1] > materialized[1]
