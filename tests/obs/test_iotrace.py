"""Tests for repro.obs.iotrace: the page-level I/O event log.

Covers the ring buffer itself, the file/operator attribution, the
conservation and attribution validators, the exporters (JSONL round
trip, Chrome trace_event structure), the seek-offender summary, the
metrics absorber, and -- critically -- the zero-cost claim of the
disabled path.
"""

import json

import pytest

from repro.executor.iterator import ExecContext
from repro.obs.iotrace import (
    IoEvent,
    IoEventLog,
    absorb_io_event_log,
    attribution_by_operator,
    events_from_jsonl,
    events_to_chrome_trace,
    events_to_jsonl,
    read_jsonl,
    render_summary,
    replay_cost_ms,
    replay_counters,
    top_seek_offenders,
    verify_attribution,
    verify_conservation,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Tracer
from repro.relalg.schema import Attribute, DataType, Schema
from repro.storage.catalog import Catalog
from repro.storage.heapfile import HeapFile
from repro.storage.stats import IoStatistics, IoWeights, _NullIoTraceSink
from repro.workloads.synthetic import make_exact_division


def traced_ctx(**kwargs) -> tuple[ExecContext, IoEventLog]:
    log = IoEventLog(**kwargs)
    return ExecContext(io_trace=log), log


def drive_heapfile(ctx: ExecContext, records: int = 40) -> HeapFile:
    """Append records spanning several pages, then scan cold."""
    heap = HeapFile(ctx.pool, ctx.data_disk, name="drive")
    codec = Schema((Attribute("r", DataType.STRING, 600),)).codec()
    heap.append_rows(((bytes([i % 251]) * 600,) for i in range(records)), codec)
    ctx.pool.flush_device(ctx.data_disk.name)
    ctx.pool.drop_device_pages(ctx.data_disk.name)
    for _rid, _record in heap.scan():
        pass
    return heap


class TestIoEventLog:
    def test_event_per_physical_transfer(self):
        ctx, log = traced_ctx()
        drive_heapfile(ctx)
        stats = ctx.io_stats.counters("data")
        assert len(log) == stats.transfers
        kinds = {e.kind for e in log}
        assert kinds == {"read", "write"}
        for event in log:
            assert event.device == "data"
            assert event.nbytes == ctx.config.page_size
            assert event.cost_ms > 0

    def test_sequence_numbers_are_monotonic(self):
        ctx, log = traced_ctx()
        drive_heapfile(ctx)
        seqs = [e.seq for e in log]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_first_transfer_is_a_seek_with_parked_arm(self):
        ctx, log = traced_ctx()
        heap = HeapFile(ctx.pool, ctx.data_disk)
        heap.append(b"x" * 100)
        heap.flush()
        first = log.events()[0]
        assert not first.sequential
        # The arm is modelled as parked at page 0: distance == page_no.
        assert first.seek_distance == first.page_no

    def test_sequential_scan_classified_sequential(self):
        ctx, log = traced_ctx()
        drive_heapfile(ctx)
        reads = [e for e in log if e.kind == "read"]
        # After the first read positions the head, the rest of the cold
        # scan over a contiguous extent is sequential.
        assert all(e.sequential for e in reads[1:])
        assert all(e.seek_distance == 0 for e in reads if e.sequential)

    def test_file_attribution_from_extent_registration(self):
        ctx, log = traced_ctx()
        drive_heapfile(ctx)
        files = {e.file for e in log}
        assert files == {"drive"}

    def test_capacity_bounds_and_counts_drops(self):
        log = IoEventLog(capacity=4)
        stats = IoStatistics(trace=log)
        for page in range(10):
            stats.record_transfer("data", page * 7, 1024, False)
        assert len(log) == 4
        assert log.dropped == 6
        # The newest events are kept, the oldest dropped.
        assert [e.seq for e in log] == [6, 7, 8, 9]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            IoEventLog(capacity=0)

    def test_clear_forgets_events_keeps_ownership(self):
        ctx, log = traced_ctx()
        heap = drive_heapfile(ctx)
        log.clear()
        assert len(log) == 0 and log.dropped == 0
        ctx.pool.drop_device_pages(ctx.data_disk.name)
        for _ in heap.scan():
            pass
        assert len(log) > 0
        assert {e.file for e in log} == {"drive"}

    def test_destroy_forgets_ownership(self):
        ctx, log = traced_ctx()
        heap = drive_heapfile(ctx)
        pages = heap.page_numbers
        heap.destroy()
        assert all(("data", p) not in log._owners for p in pages)

    def test_reset_meters_clears_log_with_stats(self):
        ctx, log = traced_ctx()
        drive_heapfile(ctx)
        assert len(log) > 0
        ctx.reset_meters()
        assert len(log) == 0
        assert ctx.io_stats.cost_ms() == 0.0

    def test_from_events_roundtrip(self):
        ctx, log = traced_ctx()
        drive_heapfile(ctx)
        rebuilt = IoEventLog.from_events(log.events())
        assert rebuilt.events() == log.events()
        assert rebuilt.dropped == 0


class TestConservation:
    def test_heapfile_workload_conserves_exactly(self):
        ctx, log = traced_ctx()
        drive_heapfile(ctx)
        report = verify_conservation(log, ctx.io_stats)
        assert report.ok, str(report)
        for device, (replayed, reported) in report.per_device.items():
            assert replayed == reported  # exact, not approx

    def test_temp_and_run_devices_conserve(self):
        ctx, log = traced_ctx()
        for kind in ("temp", "runs"):
            f = ctx.temp_file(kind)
            codec = Schema((Attribute("r", DataType.STRING, 64),)).codec()
            f.append_rows([(b"r" * 64,)] * 50, codec)
            f.flush()
        report = verify_conservation(log, ctx.io_stats)
        assert report.ok, str(report)
        assert set(report.per_device) >= {"temp", "runs"}

    def test_replay_cost_matches_cost_ms_per_device(self):
        ctx, log = traced_ctx()
        drive_heapfile(ctx)
        replayed = replay_cost_ms(log.events(), ctx.io_stats.weights)
        for device, ms in replayed.items():
            assert ms == ctx.io_stats.cost_ms(device)

    def test_dropped_events_fail_conservation(self):
        log = IoEventLog(capacity=2)
        stats = IoStatistics(trace=log)
        for page in range(5):
            stats.record_transfer("data", page, 512, False)
        report = verify_conservation(log, stats)
        assert not report.ok
        assert report.dropped == 3
        assert "dropped" in str(report)

    def test_tampered_log_fails_conservation(self):
        ctx, log = traced_ctx()
        drive_heapfile(ctx)
        log._events.append(
            IoEvent(
                seq=10_000,
                device="data",
                page_no=999,
                kind="read",
                nbytes=8192,
                sequential=False,
                seek_distance=3,
                cost_ms=34.0,
            )
        )
        report = verify_conservation(log, ctx.io_stats)
        assert not report.ok
        assert report.mismatches

    def test_missing_device_in_log_fails(self):
        ctx, log = traced_ctx()
        drive_heapfile(ctx)
        # The stats saw transfers the (cleared) log did not.
        log.clear()
        report = verify_conservation(log, ctx.io_stats)
        assert not report.ok

    def test_empty_log_empty_stats_is_ok(self):
        log = IoEventLog()
        report = verify_conservation(log, IoStatistics(trace=log))
        assert report.ok
        assert "no I/O" in str(report)

    def test_replay_counters_rebuild_integers(self):
        ctx, log = traced_ctx()
        drive_heapfile(ctx)
        replayed = replay_counters(log.events())["data"]
        want = ctx.io_stats.counters("data")
        assert replayed.reads == want.reads
        assert replayed.writes == want.writes
        assert replayed.seeks == want.seeks
        assert replayed.bytes_read == want.bytes_read
        assert replayed.bytes_written == want.bytes_written


class TestStrategyRunConservation:
    @pytest.mark.parametrize("strategy", ["naive", "hash-division"])
    def test_cold_strategy_run_conserves(self, strategy):
        from repro.experiments.runner import run_strategy

        tracer = Tracer()
        log = IoEventLog()
        ctx = ExecContext(tracer=tracer, io_trace=log)
        dividend, divisor = make_exact_division(25, 100, seed=0)
        catalog = Catalog(ctx.pool, ctx.data_disk)
        catalog.store(dividend, name="dividend", cold=True)
        catalog.store(divisor, name="divisor", cold=True)
        ctx.reset_meters()
        run = run_strategy(
            strategy, ctx, catalog, "dividend", "divisor", expected_quotient=100
        )
        assert run.quotient_tuples == 100
        report = verify_conservation(log, ctx.io_stats)
        assert report.ok, str(report)
        # And the run's reported io_ms is the same replayed total.
        assert sum(replay_cost_ms(log.events(), ctx.io_stats.weights).values()) == (
            run.io_ms
        )

    def test_operator_attribution_matches_profile(self):
        from repro.experiments.runner import run_strategy_on_relations

        tracer = Tracer()
        log = IoEventLog()
        dividend, divisor = make_exact_division(25, 100, seed=0)
        run = run_strategy_on_relations(
            "naive",
            dividend,
            divisor,
            expected_quotient=100,
            tracer=tracer,
            io_trace=log,
        )
        assert run.profile is not None
        report = verify_attribution(log, run.profile)
        assert report.ok, str(report)
        # Every event was stamped with an operator during the run.
        assert all(e.operator is not None for e in log)

    def test_attribution_detects_mislabeled_events(self):
        from repro.experiments.runner import run_strategy_on_relations

        tracer = Tracer()
        log = IoEventLog()
        dividend, divisor = make_exact_division(25, 25, seed=0)
        run = run_strategy_on_relations(
            "hash-division",
            dividend,
            divisor,
            expected_quotient=25,
            tracer=tracer,
            io_trace=log,
        )
        original = log.events()[0]
        log._events[0] = IoEvent(
            seq=original.seq,
            device=original.device,
            page_no=original.page_no,
            kind=original.kind,
            nbytes=original.nbytes,
            sequential=original.sequential,
            seek_distance=original.seek_distance,
            cost_ms=original.cost_ms,
            file=original.file,
            operator="NoSuchOperator",
        )
        report = verify_attribution(log, run.profile)
        assert not report.ok

    def test_attribution_by_operator_groups(self):
        events = [
            IoEvent(0, "data", 0, "read", 8192, False, 0, 34.0, operator="A"),
            IoEvent(1, "data", 1, "read", 8192, True, 0, 14.0, operator="A"),
            IoEvent(2, "temp", 5, "write", 8192, False, 5, 34.0, operator="B"),
            IoEvent(3, "temp", 9, "write", 8192, False, 3, 34.0),
        ]
        groups = attribution_by_operator(events)
        assert groups["A"].reads == 2 and groups["A"].seeks == 1
        assert groups["B"].writes == 1
        assert groups[None].writes == 1


class TestDisabledPathIsFree:
    def test_null_sink_record_never_called(self, monkeypatch):
        def boom(self, *args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("null I/O trace sink was entered")

        for method in ("record", "register_pages", "forget_pages"):
            monkeypatch.setattr(_NullIoTraceSink, method, boom)
        ctx = ExecContext()  # default: NULL_IO_TRACE
        drive_heapfile(ctx)
        assert ctx.io_stats.cost_ms() > 0

    def test_no_event_allocation_when_disabled(self, monkeypatch):
        import repro.obs.iotrace as iotrace

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("IoEvent allocated while tracing disabled")

        monkeypatch.setattr(iotrace, "IoEvent", boom)
        ctx = ExecContext()
        drive_heapfile(ctx)
        assert ctx.io_stats.counters("data").transfers > 0

    def test_disabled_tracing_does_not_change_meters(self):
        ctx_plain = ExecContext()
        drive_heapfile(ctx_plain)
        ctx_traced, log = traced_ctx()
        drive_heapfile(ctx_traced)
        plain = ctx_plain.io_stats.counters("data")
        traced = ctx_traced.io_stats.counters("data")
        assert (plain.reads, plain.writes, plain.seeks) == (
            traced.reads,
            traced.writes,
            traced.seeks,
        )
        assert ctx_plain.io_stats.cost_ms() == ctx_traced.io_stats.cost_ms()


class TestExporters:
    def _sample_log(self) -> IoEventLog:
        ctx, log = traced_ctx()
        drive_heapfile(ctx, records=20)
        return log

    def test_jsonl_roundtrip(self):
        log = self._sample_log()
        text = events_to_jsonl(log.events())
        assert text.endswith("\n")
        assert events_from_jsonl(text) == log.events()

    def test_jsonl_file_roundtrip(self, tmp_path):
        log = self._sample_log()
        path = tmp_path / "events.jsonl"
        write_jsonl(path, log.events())
        assert read_jsonl(path) == log.events()

    def test_jsonl_empty(self):
        assert events_to_jsonl(()) == ""
        assert events_from_jsonl("") == ()

    def test_jsonl_rejects_garbage(self):
        with pytest.raises(ValueError, match="line 1"):
            events_from_jsonl("not json\n")
        with pytest.raises(ValueError):
            events_from_jsonl('{"seq": 1}\n')

    def test_chrome_trace_structure(self):
        log = self._sample_log()
        doc = events_to_chrome_trace(log.events())
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        slices = [e for e in events if e["ph"] == "X"]
        assert any(e["name"] == "process_name" for e in meta)
        assert any(e["name"] == "thread_name" for e in meta)
        assert len(slices) == len(log)
        # Timestamps are cumulative model ms per device lane: each
        # slice starts where the previous one on its lane ended.
        by_tid: dict = {}
        for s in slices:
            expected = by_tid.get(s["tid"], 0.0)
            assert s["ts"] == pytest.approx(expected)
            by_tid[s["tid"]] = s["ts"] + s["dur"]
        # Lane width equals the device's total model cost.
        total_us = sum(s["dur"] for s in slices)
        assert total_us == pytest.approx(
            sum(e.cost_ms for e in log) * 1000.0
        )
        assert {s["cat"] for s in slices} <= {"seek", "sequential"}

    def test_chrome_trace_file_is_valid_json(self, tmp_path):
        log = self._sample_log()
        path = tmp_path / "trace.json"
        write_chrome_trace(path, log.events())
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) >= len(log)


class TestSummaries:
    def test_top_seek_offenders_ordering(self):
        events = [
            IoEvent(0, "data", 0, "read", 8192, False, 0, 34.0, operator="A"),
            IoEvent(1, "data", 50, "read", 8192, False, 49, 34.0, operator="A"),
            IoEvent(2, "data", 7, "read", 8192, False, 44, 34.0, operator="B"),
            IoEvent(3, "temp", 1, "write", 8192, True, 0, 14.0, operator="B"),
        ]
        offenders = top_seek_offenders(events, n=5)
        assert offenders[0].operator == "A" and offenders[0].seeks == 2
        assert offenders[0].seek_ms == 2 * IoWeights().seek_ms
        assert offenders[1].operator == "B" and offenders[1].seeks == 1
        # Sequential-only groups never appear.
        assert all(off.seeks for off in offenders)

    def test_top_seek_offenders_truncates(self):
        events = [
            IoEvent(i, "data", i * 5, "read", 8192, False, 4, 34.0, operator=f"Op{i}")
            for i in range(10)
        ]
        assert len(top_seek_offenders(events, n=3)) == 3

    def test_render_summary_mentions_devices_and_verdict(self):
        ctx, log = traced_ctx()
        drive_heapfile(ctx)
        text = render_summary(log, ctx.io_stats)
        assert "data" in text
        assert "conservation OK" in text

    def test_render_summary_without_stats_omits_verdict(self):
        ctx, log = traced_ctx()
        drive_heapfile(ctx)
        text = render_summary(log)
        assert "conservation" not in text


class TestAbsorbIoEventLog:
    def test_families_and_values(self):
        ctx, log = traced_ctx()
        drive_heapfile(ctx)
        registry = MetricsRegistry()
        absorb_io_event_log(registry, log)
        names = registry.names()
        assert "repro_io_events_total" in names
        assert "repro_io_event_bytes_total" in names
        assert "repro_io_event_cost_ms_total" in names
        assert "repro_io_events_dropped_total" in names
        assert "repro_io_seek_distance_pages" in names
        total_events = sum(
            sample.metric.value
            for sample in registry.collect()
            if sample.name == "repro_io_events_total"
        )
        assert total_events == len(log)
        assert registry.value(
            "repro_io_event_bytes_total", device="data"
        ) == ctx.io_stats.counters("data").bytes_total
        cost = registry.value("repro_io_event_cost_ms_total", device="data")
        assert cost == pytest.approx(ctx.io_stats.cost_ms("data"))

    def test_seek_histogram_counts_only_seeks(self):
        ctx, log = traced_ctx()
        drive_heapfile(ctx)
        registry = MetricsRegistry()
        absorb_io_event_log(registry, log)
        seeks = ctx.io_stats.counters("data").seeks
        hist = registry.histogram(
            "repro_io_seek_distance_pages",
            boundaries=(1, 2, 4, 8, 16, 32, 64, 128, 256, 1024),
            device="data",
        )
        assert hist.count == seeks

    def test_dropped_counter(self):
        log = IoEventLog(capacity=2)
        stats = IoStatistics(trace=log)
        for page in range(5):
            stats.record_transfer("data", page * 3, 256, True)
        registry = MetricsRegistry()
        absorb_io_event_log(registry, log)
        assert registry.value("repro_io_events_dropped_total") == 3
