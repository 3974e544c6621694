"""Tests for scan operators."""

from repro.executor.iterator import run_to_relation
from repro.executor.scan import RelationSource, StoredRelationScan, TempFileScan
from repro.relalg.relation import Relation


class TestRelationSource:
    def test_yields_all_rows_without_io(self, ctx):
        relation = Relation.of_ints(("a",), [(i,) for i in range(10)])
        result = run_to_relation(RelationSource(ctx, relation))
        assert result.bag_equal(relation)
        assert ctx.io_cost_ms() == 0.0

    def test_schema_passthrough(self, ctx):
        relation = Relation.of_ints(("x", "y"), [])
        assert RelationSource(ctx, relation).schema == relation.schema


class TestStoredRelationScan:
    def test_scans_stored_tuples(self, ctx, catalog, transcript):
        stored = catalog.store(transcript)
        result = run_to_relation(StoredRelationScan(ctx, stored))
        assert result.bag_equal(transcript)

    def test_cold_scan_pays_sequential_read_io(self, ctx, catalog):
        relation = Relation.of_ints(
            ("a", "b"), [(i, i) for i in range(5000)], name="big"
        )
        stored = catalog.store(relation, cold=True)
        ctx.io_stats.reset()
        run_to_relation(StoredRelationScan(ctx, stored))
        counters = ctx.io_stats.counters("data")
        assert counters.reads == stored.page_count
        assert counters.writes == 0
        # Contiguous extents: far fewer seeks than reads.
        assert counters.seeks <= stored.page_count // 2 + 1

    def test_second_scan_hits_buffer(self, ctx, catalog, courses):
        stored = catalog.store(courses, cold=True)
        run_to_relation(StoredRelationScan(ctx, stored))
        ctx.io_stats.reset()
        run_to_relation(StoredRelationScan(ctx, stored))
        assert ctx.io_stats.counters("data").reads == 0

    def test_rescan_via_reopen(self, ctx, catalog, courses):
        stored = catalog.store(courses)
        scan = StoredRelationScan(ctx, stored)
        first = run_to_relation(scan)
        second = run_to_relation(scan)
        assert first.bag_equal(second)


class TestTempFileScan:
    def test_scans_prewritten_file(self, ctx):
        schema = Relation.of_ints(("a",), []).schema
        codec = schema.codec()
        file = ctx.temp_file("temp")
        file.append_rows(((i,) for i in range(5)), codec)
        plan = TempFileScan(ctx, file, schema)
        assert run_to_relation(plan).rows == [(i,) for i in range(5)]
        # Not destroyed: scan again.
        plan2 = TempFileScan(ctx, file, schema, destroy_on_close=True)
        assert run_to_relation(plan2).rows == [(i,) for i in range(5)]
        assert ctx.temp_disk.page_count == 0

    def test_destroy_on_close(self, ctx):
        schema = Relation.of_ints(("a",), []).schema
        file = ctx.temp_file("temp")
        file.append(schema.codec().encode((1,)))
        run_to_relation(TempFileScan(ctx, file, schema, destroy_on_close=True))
        assert ctx.temp_disk.page_count == 0

    def test_multi_page_spool_round_trips_and_is_released(self, ctx):
        relation = Relation.of_ints(("a", "b"), [(i, -i) for i in range(2000)])
        file = ctx.temp_file("temp")
        codec = relation.schema.codec()
        for row in relation:
            file.append(codec.encode(row))
        assert file.page_count > 1
        scan = TempFileScan(ctx, file, relation.schema, destroy_on_close=True)
        assert run_to_relation(scan).rows == relation.rows
        assert ctx.temp_disk.page_count == 0

    def test_small_spool_stays_in_buffer(self, ctx):
        # One page, written and read entirely inside the pool.
        schema = Relation.of_ints(("a", "b"), []).schema
        file = ctx.temp_file("temp")
        file.append(schema.codec().encode((1, 1)))
        run_to_relation(TempFileScan(ctx, file, schema, destroy_on_close=True))
        counters = ctx.io_stats.counters("temp")
        assert (counters.reads, counters.writes) == (0, 0)
