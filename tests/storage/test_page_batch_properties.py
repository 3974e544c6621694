"""The page-at-a-time record path equals the record-at-a-time one.

:meth:`HeapFile.append_rows` packs the rows that fit the last page with
one ``struct`` call and fixes the page once, builds each page the rows
start as one page image installed by
:meth:`BufferPool.write_new_page`, and :meth:`HeapFile.scan_tuples`
decodes a whole page while it is fixed.  Against :meth:`HeapFile.append`
of :meth:`RecordCodec.encode` per row and :meth:`HeapFile.scan` plus
:meth:`RecordCodec.decode` per record, these properties demand, for
rows appended as a stream and as a list, the same page bytes, rows and
record-id order; the same I/O statistics and I/O event log; the same
per-device buffer-pool counters and, with an observer attached, the
same buffer event sequence; the same error, with the rows before it
written, when the source fails or a row is refused; no frame left fixed
after a :class:`PageError`; and, under the chaos storage config with
injected disk faults, the same outcomes and the same fault schedule.
Files sit on the data device or the run device, with the chaos config's
512/256-byte pages or the default 8 KB data and 1 KB run pages, in a
four-frame pool.  Some inserts run while every frame of another file is
fixed, so each fresh page evicts itself before it is filled; there
record by record differs (see :func:`_equal_paths`), and a list is held
to a stream and to its contents only.
"""

from __future__ import annotations

import random
import struct
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import PageError, ReproError
from repro.executor.iterator import ExecContext
from repro.faults.chaos import CHAOS_CONFIG, default_chaos_rules
from repro.faults.injector import FaultInjector, FaultRule, schedule_to_jsonl
from repro.obs.iotrace import IoEventLog
from repro.relalg.schema import Attribute, DataType, Schema
from repro.storage.buffer import BufferPool
from repro.storage.config import KIB, StorageConfig
from repro.storage.heapfile import HeapFile, RecordId
from repro.storage.page import SlottedPage

INT_SCHEMA = Schema.of_ints("a", "b")
STRING_SCHEMA = Schema((Attribute("a"), Attribute("name", DataType.STRING, 11)))
#: Records no 512-byte chaos page can hold.
OVERSIZED_SCHEMA = Schema(
    (Attribute("a"), Attribute("blob", DataType.STRING, CHAOS_CONFIG.page_size))
)

CONFIGS = {
    "chaos": CHAOS_CONFIG,
    # The default page sizes (8 KB data, 1 KB runs) in four data frames.
    "default-pages": StorageConfig(
        page_size=8 * KIB,
        sort_run_page_size=1 * KIB,
        buffer_size=4 * 8 * KIB,
        memory_limit=16 * 8 * KIB,
        sort_buffer_size=4 * 8 * KIB,
    ),
}


class SourceFailed(Exception):
    """Raised by a row source partway through."""


#: Planted inside an insert, each of these fails the write there.
BAD_ARITY = (1,)  # SchemaError
NOT_AN_INT = ("x", 0)  # struct.error
TOO_WIDE = (1, "€" * 4)  # 12 UTF-8 bytes: SchemaError for an 11-byte name
SOURCE_FAILS = "source fails"  # the source raises SourceFailed
PLANTS = [BAD_ARITY, NOT_AN_INT, TOO_WIDE, SOURCE_FAILS]


def _utf8_prefix(text, width=11):
    """The longest prefix of ``text`` whose UTF-8 encoding fits ``width``."""
    return text.encode("utf-8")[:width].decode("utf-8", "ignore")


#: Names of up to 11 UTF-8 bytes, with two- and three-byte characters.
names = st.text(alphabet="abcxyzé€", max_size=11).map(_utf8_prefix)


@st.composite
def workloads(draw):
    """A file placement, a schema and a step list (inserts, deletes,
    reads and evictions), optionally with a failure planted in one
    insert."""
    config = draw(st.sampled_from(sorted(CONFIGS)))
    device = draw(st.sampled_from(["data", "runs"]))
    schema = draw(st.sampled_from([INT_SCHEMA, STRING_SCHEMA]))
    value = st.integers(-(2**40), 2**40)
    row = st.tuples(value, value if schema is INT_SCHEMA else names)
    # Rows repeated up to 8 times: an insert can span 8 KB pages.
    rows = st.lists(row, max_size=60)
    insert = st.tuples(st.just("insert"), rows, st.integers(1, 8))
    steps = draw(
        st.lists(
            st.one_of(
                insert,
                insert,
                st.tuples(st.just("pinned"), rows, st.integers(1, 8)),
                st.tuples(st.just("delete"), st.integers(2, 5)),
                st.tuples(st.just("read")),
                st.tuples(st.just("evict")),
            ),
            min_size=1,
            max_size=8,
        )
    )
    inserts = [i for i, step in enumerate(steps) if step[0] in ("insert", "pinned")]
    planted = None
    if inserts and draw(st.booleans()):
        step = draw(st.sampled_from(inserts))
        position = draw(st.integers(0, len(steps[step][1]) * steps[step][2]))
        planted = (step, position, draw(st.sampled_from(PLANTS)))
    return config, device, schema, steps, planted


def _rows(step_index, rows, planted):
    """The insert's rows, lazily, with the planted failure in place."""
    rows = list(rows)
    if planted is not None and planted[0] == step_index:
        rows.insert(planted[1], planted[2])
    for row in rows:
        if row is SOURCE_FAILS:
            raise SourceFailed("the source failed mid-page")
        yield row


#: How rows are appended: one record at a time (the reference), or
#: with append_rows of the source itself or of a list of its rows.
MODES = ("records", "stream", "list")


def _append(heap, rows, codec, mode):
    if mode == "stream":
        heap.append_rows(rows, codec)
    elif mode == "list":
        taken = []
        try:
            taken.extend(rows)
        finally:
            # A failing source leaves the rows it yielded before.
            heap.append_rows(taken, codec)
    else:
        for row in rows:
            heap.append(codec.encode(row))


def _apply(step, index, heap, other, codec, planted, mode):
    kind = step[0]
    if kind == "insert":
        _append(heap, _rows(index, step[1] * step[2], planted), codec, mode)
        return heap.record_count
    if kind == "pinned":
        # Every frame of the other file stays fixed while the rows go
        # in: a fresh page then evicts itself before it is filled.
        pool, device = other.pool, other.disk.name
        pinned = []
        try:
            for page_no in other.page_numbers:
                pool.fix(device, page_no)
                pinned.append(page_no)
            _append(heap, _rows(index, step[1] * step[2], planted), codec, mode)
        finally:
            for page_no in pinned:
                pool.unfix(device, page_no)
        return heap.record_count
    if kind == "delete":
        victims = [rid for rid, rec in heap.scan() if codec.decode(rec)[0] % step[1] == 0]
        for rid in victims:
            heap.delete(rid)
        return len(victims)
    if kind == "read":
        if mode != "records":
            return list(heap.scan_tuples(codec))
        return [codec.decode(record) for _rid, record in heap.scan()]
    # "evict": writing the other file fills the pool with dirty pages
    # and pushes this one's out.
    assert kind == "evict", kind
    _append(other, _filler(codec.schema, other.disk.page_size), codec, mode)
    return other.record_count


def _filler(schema, page_size):
    """Rows enough for five data pages: more than the pool's frames."""
    count = 5 * SlottedPage.capacity_for(page_size, schema.record_size)
    return [(i, i if schema is INT_SCHEMA else "pad") for i in range(count)]


def run(workload, mode, rules=(), fault_seed=0, observe=False):
    """Apply the workload's steps to a fresh heap file; returns every
    observable (with ``observe``, also the pool's observer events)."""
    config, device, schema, steps, planted = workload
    trace = IoEventLog(capacity=1_000_000)
    ctx = ExecContext(config=CONFIGS[config], io_trace=trace)
    codec = schema.codec()
    pool_events = []
    if observe:
        ctx.pool.observer = lambda *event: pool_events.append(event)
    try:
        other = HeapFile(ctx.pool, ctx.data_disk, name="other")
        _append(other, _filler(schema, ctx.data_disk.page_size), codec, mode)
        disk = ctx.data_disk if device == "data" else ctx.run_disk
        heap = HeapFile(ctx.pool, disk, name="heap")
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
                outcomes.append(_apply(step, index, heap, other, codec, planted, mode))
            except (ReproError, struct.error, SourceFailed) as exc:
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
            "pool_devices": {
                name: (c.misses, c.evictions, c.writebacks)
                for name, c in pool.by_device.items()
            },
            # A page-at-a-time write fixes a page once for many records.
            "page_fixes": {name: c.fixes for name, c in pool.by_device.items()},
            "page_events": pool_events,
            "schedule": schedule_to_jsonl(injector.schedule) if injector else "",
            "record_count": heap.record_count,
            "pages": heap.page_numbers,
        }
        try:
            observed["rids"] = [rid for rid, _ in heap.scan()]
            observed["bytes"] = [_page_bytes(ctx, disk.name, page) for page in heap.page_numbers]
        except ReproError as exc:  # a persistent corruption stays visible
            observed["rids"] = (type(exc).__name__, str(exc))
        return observed
    finally:
        ctx.close()


def _page_bytes(ctx, device, page_no):
    view = ctx.pool.fix(device, page_no)
    try:
        return bytes(view)
    finally:
        ctx.pool.unfix(device, page_no)


def _per_record(observed):
    """The observables that appending record by record shares."""
    return {k: v for k, v in observed.items() if not k.startswith("page_")}


def _equal_paths(workload, rules=(), fault_seed=0, observe=False):
    """Runs the workload every way, asserts they agree, and returns the
    observables of appending lists.  Appending a list and a stream
    (pulled into a list first) must agree on everything, fixes and
    observer events included."""
    listed = run(workload, "list", rules, fault_seed, observe)
    streamed = run(workload, "stream", rules, fault_seed, observe)
    assert listed == streamed
    if not any(step[0] == "pinned" for step in workload[3]):
        # With every other frame fixed, the last page is evicted by its
        # own unfix, so append()'s fits probe at each page change misses
        # where append_rows (which probes once per call) fixes nothing.
        records = run(workload, "records", rules, fault_seed, observe)
        assert _per_record(streamed) == _per_record(records)
    return listed


SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@given(workloads(), st.booleans())
@SETTINGS
def test_page_path_equals_record_path(workload, observe):
    _equal_paths(workload, observe=observe)


@given(workloads(), st.integers(0, 2**32))
@SETTINGS
def test_page_path_equals_record_path_under_faults(workload, fault_seed):
    _equal_paths(workload, default_chaos_rules(random.Random(fault_seed)), fault_seed)


@pytest.mark.parametrize(
    "rule",
    [
        FaultRule("transient", op="write", device="runs", probability=0.3),
        FaultRule("permanent", op="write", device="runs", probability=0.1, max_fires=1),
        FaultRule("torn", op="write", device="runs", probability=0.2),
    ],
    ids=["transient", "permanent", "torn"],
)
@pytest.mark.parametrize("fault_seed", range(4))
def test_run_device_write_faults(rule, fault_seed):
    """Run pages written under injected run-device write faults, with
    evictions and fixed frames: the same outcomes and fault schedule."""
    steps = [
        ("insert", [(i, -i) for i in range(300)], 1),
        ("evict",),
        ("insert", [(i, 2 * i) for i in range(200)], 1),
        ("read",),
    ]
    observed = _equal_paths(("chaos", "runs", INT_SCHEMA, steps, None), [rule], fault_seed)
    assert observed["schedule"]
    pinned = [("pinned", [(i, i) for i in range(120)], 1), *steps]
    _equal_paths(("chaos", "runs", INT_SCHEMA, pinned, None), [rule], fault_seed)


@pytest.mark.parametrize(
    "schema,planted,error",
    [
        (INT_SCHEMA, BAD_ARITY, "SchemaError"),
        (INT_SCHEMA, NOT_AN_INT, "error"),
        (STRING_SCHEMA, NOT_AN_INT, "error"),
        (STRING_SCHEMA, TOO_WIDE, "SchemaError"),
        (INT_SCHEMA, SOURCE_FAILS, "SourceFailed"),
    ],
)
def test_a_failed_row_keeps_the_rows_before_it(schema, planted, error):
    """Row 30 of 50 fails mid-way down the second page (25 rows fill a
    512-byte page): 30 rows are written, and the error is the one
    appending record by record raises."""
    rows = [(i, i if schema is INT_SCHEMA else f"n{i}") for i in range(50)]
    observed = _equal_paths(("chaos", "data", schema, [("insert", rows, 1)], (0, 30, planted)))
    assert observed["outcomes"][0][0] == error
    assert observed["record_count"] == 30


def test_an_oversized_record_raises_with_no_frame_fixed():
    """A record no empty page can hold raises PageError, on an empty
    file and behind an existing last page; run() checks that no frame
    stays fixed."""
    steps = [("insert", [(1, "x")], 1), ("insert", [(2, "y")] * 3, 1)]
    observed = _equal_paths(("chaos", "data", OVERSIZED_SCHEMA, steps, None))
    assert [outcome[0] for outcome in observed["outcomes"]] == ["PageError"] * 2
    assert observed["record_count"] == 0


def test_a_partly_full_tail_page_with_tombstones():
    """Rows 25..39 leave the second page partly full; deleting every
    third row tombstones slots on it; the next insert goes on from its
    slot 15."""
    steps = [
        ("insert", [(i, i) for i in range(40)], 1),
        ("delete", 3),
        ("insert", [(i, -i) for i in range(30)], 1),
    ]
    observed = _equal_paths(("chaos", "data", INT_SCHEMA, steps, None))
    tail = observed["pages"][1]
    assert RecordId(tail, 2) not in observed["rids"]  # row 27, deleted
    assert RecordId(tail, 15) in observed["rids"]  # the first row appended


def test_default_page_sizes_on_both_devices():
    """8 KB data pages and 1 KB run pages, several pages per insert."""
    steps = [
        ("insert", [(i, -i) for i in range(300)], 3),
        ("delete", 4),
        ("evict",),
        ("insert", [(i, i) for i in range(200)], 1),
        ("read",),
    ]
    for device in ("data", "runs"):
        observed = _equal_paths(("default-pages", device, INT_SCHEMA, steps, None))
        assert len(observed["pages"]) > (1 if device == "data" else 10)


def test_multibyte_utf8_strings():
    names = ["€uro", "ééééé", "a€é", "€€€", ""] * 20
    rows = [(i, name) for i, name in enumerate(names)]
    steps = [("insert", rows, 1), ("read",)]
    observed = _equal_paths(("chaos", "data", STRING_SCHEMA, steps, None))
    assert observed["outcomes"][1] == rows


def test_workloads_reach_the_interesting_paths():
    """Many pages, tombstoned pages and a cold tail page all occur."""
    steps = [
        ("insert", [(i, i) for i in range(100)], 1),
        ("delete", 3),
        ("evict",),
        ("insert", [(i, -i) for i in range(60)], 1),
        ("read",),
    ]
    observed = run(("chaos", "data", INT_SCHEMA, steps, None), "list")
    assert len(observed["pages"]) > 3
    assert observed["pool"][0] > 0  # evicted pages were read back
    assert len(observed["outcomes"][-1]) == 160 - 34


def test_a_cold_tail_fix_puts_the_pool_over_target():
    """Fixing the evicted last page grows the pool past its size, so
    the first row of the insert gets a fix of its own."""
    steps = [
        ("insert", [(i, i) for i in range(90)], 1),
        ("evict",),
        ("insert", [(i, -i) for i in range(10)], 1),
    ]
    seen = []
    over_target = BufferPool.over_target

    def spy(pool):
        seen.append(over_target.fget(pool))
        return seen[-1]

    with mock.patch.object(BufferPool, "over_target", property(spy)):
        _equal_paths(("chaos", "data", INT_SCHEMA, steps, None))
    assert True in seen


def test_eviction_fault_after_a_cold_tail_fix():
    """A fix that grows the pool is followed by an evicting unfix.

    Record at a time, that unfix comes after one record; when the
    write-back of the evicted (dirty) frame fails, exactly one record
    of the batch has been appended on either path.
    """
    steps = [
        ("insert", [(i, i) for i in range(90)], 1),  # 25 records fill a page
        ("evict",),
        ("faults", [FaultRule("permanent", op="write", device="data")]),
        ("insert", [(i, -i) for i in range(10)], 1),
    ]
    for mode in MODES:
        observed = run(("chaos", "data", INT_SCHEMA, steps, None), mode)
        assert observed["outcomes"][-1][0] == "DiskFaultError"
        assert observed["record_count"] == 91


class TestPageImageFallbacks:
    """Each case where a fresh page is not installed whole by one
    write_new_page call, and the rows before a refused or oversized
    row."""

    @staticmethod
    def _spy(calls):
        """Record, per write_new_page call, whether the page was already
        resident and what the call returned."""
        write_new_page = BufferPool.write_new_page

        def spy(pool, device, page_no, blank, image):
            resident = (device, page_no) in pool._frames
            filled = write_new_page(pool, device, page_no, blank, image)
            calls.append((resident, filled))
            return filled

        return mock.patch.object(BufferPool, "write_new_page", spy)

    def test_a_fresh_page_that_evicts_itself_is_filled_by_a_fix(self):
        """Every other frame fixed: the formatted page is evicted by its
        own unfix and read back to be filled, split by the over-target
        rule."""
        steps = [("pinned", [(i, i) for i in range(60)], 1), ("read",)]
        calls = []
        with self._spy(calls):
            observed = _equal_paths(("chaos", "data", INT_SCHEMA, steps, None), observe=True)
        assert (False, False) in calls
        assert observed["outcomes"][-1] == [(i, i) for i in range(60)]

    def test_a_page_left_by_a_failed_eviction_is_installed_again(self):
        """Installing a fresh page evicts a dirty frame whose write-back
        fails; the next append finds the fresh page still in the pool.
        (The first write-back is the fits probe's, on the full last page.)"""
        fault = FaultRule("permanent", op="write", device="data", every_nth=2, max_fires=1)
        steps = [
            ("insert", [(i, i) for i in range(50)], 1),  # two full pages
            ("evict",),
            ("faults", [fault]),
            ("insert", [(i, -i) for i in range(30)], 1),
            ("insert", [(i, -i) for i in range(30)], 1),
        ]
        calls = []
        with self._spy(calls):
            observed = _equal_paths(("chaos", "data", INT_SCHEMA, steps, None))
        assert observed["outcomes"][2][0] == "DiskFaultError"
        assert (True, True) in calls

    @pytest.mark.parametrize(
        "schema,steps,packed",
        [
            # A refused row: the rows before it are packed.
            (INT_SCHEMA, [("insert", [(i, i) for i in range(40)] + [NOT_AN_INT], 1)], [40]),
            # A record too large for an empty page goes in by append().
            (OVERSIZED_SCHEMA, [("insert", [(1, "x")], 1)], []),
        ],
        ids=["refused-row", "oversized"],
    )
    def test_rows_before_a_failing_row(self, schema, steps, packed):
        written = []
        append_packed = HeapFile._append_packed

        def spy(heap, data, count, size):
            if heap.name == "heap":
                written.append(count)
            return append_packed(heap, data, count, size)

        with mock.patch.object(HeapFile, "_append_packed", spy):
            observed = run(("chaos", "data", schema, steps, None), "list")
        assert written == packed
        assert observed["record_count"] == sum(packed)
        _equal_paths(("chaos", "data", schema, steps, None))


class TestUnpackRecords:
    def test_dense_page_matches_per_record_decode(self):
        codec = INT_SCHEMA.codec()
        page = SlottedPage.format(bytearray(256))
        page.insert_packed(codec.pack_rows([(i, -i) for i in range(12)]), 12)
        assert page.slot_count == 12
        assert codec.decode_page(page) == [codec.decode(r) for _, r in page.records()]

    def test_tombstones_take_the_per_slot_path(self):
        codec = STRING_SCHEMA.codec()
        page = SlottedPage.format(bytearray(256))
        page.insert_packed(codec.pack_rows([(i, f"n{i}") for i in range(10)]), 10)
        page.delete(0)
        page.delete(7)
        expected = [(i, f"n{i}") for i in range(10) if i not in (0, 7)]
        assert codec.decode_page(page) == expected

    def test_other_record_lengths_are_not_taken_for_dense(self):
        page = SlottedPage.format(bytearray(128))
        page.insert_packed(b"x" * 16 + b"y" * 16, 2)
        # Two 8-byte records' worth of bytes, but the directory says 16:
        # iter_unpack with an 8-byte struct would yield four tuples.
        with pytest.raises(struct.error):
            INT_SCHEMA.project(["a"]).codec().decode_page(page)


class TestInsertPacked:
    def test_refuses_records_that_do_not_all_fit(self):
        buf = bytearray(64)
        page = SlottedPage.format(buf)
        empty = bytes(buf)
        with pytest.raises(PageError, match="3 records of 20 bytes do not fit"):
            page.insert_packed(b"a" * 60, 3)
        assert bytes(buf) == empty
        page.insert_packed(b"a" * 40, 2)
        assert page.slot_count == 2
        with pytest.raises(PageError, match="record of 20 bytes does not fit"):
            page.insert_packed(b"c" * 20, 1)

    @pytest.mark.parametrize("deleted", [(), (0,), (1, 3)])
    def test_same_bytes_as_one_record_at_a_time(self, deleted):
        """On a fresh page (the cached dense directory) and behind
        records already there, tombstoned or not (entries packed)."""
        first = [bytes([i]) * 6 for i in range(5)]
        records = [bytes([i]) * 6 for i in range(5, 40)]
        one_buf, many_buf = bytearray(256), bytearray(256)
        one, many = SlottedPage.format(one_buf), SlottedPage.format(many_buf)
        for page in (one, many):
            for record in first:
                page.insert(record)
            for slot in deleted:
                page.delete(slot)
        for record in records:
            if not one.fits(len(record)):
                break
            one.insert(record)
        fitting = one.slot_count - len(first)
        many.insert_packed(b"".join(records[:fitting]), fitting)
        assert one_buf == many_buf

    def test_fresh_page_matches_one_record_at_a_time(self):
        records = [bytes([i]) * 7 for i in range(20)]
        one_buf, many_buf = bytearray(256), bytearray(256)
        one = SlottedPage.format(one_buf)
        for record in records:
            one.insert(record)
        SlottedPage.format(many_buf).insert_packed(b"".join(records), len(records))
        assert one_buf == many_buf
