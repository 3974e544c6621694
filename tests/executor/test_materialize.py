"""Tests for materialization and temp file scans."""

from repro.executor.iterator import run_to_relation
from repro.executor.materialize import Materialize, TempFileScan
from repro.executor.scan import RelationSource
from repro.relalg.relation import Relation


class TestMaterialize:
    def test_passthrough_contents(self, ctx):
        relation = Relation.of_ints(("a", "b"), [(1, 2), (3, 4)])
        plan = Materialize(RelationSource(ctx, relation))
        assert run_to_relation(plan).bag_equal(relation)

    def test_temp_pages_released_on_close(self, ctx):
        relation = Relation.of_ints(("a", "b"), [(i, i) for i in range(2000)])
        plan = Materialize(RelationSource(ctx, relation))
        run_to_relation(plan)
        assert ctx.temp_disk.page_count == 0

    def test_small_result_stays_in_buffer(self, ctx):
        relation = Relation.of_ints(("a", "b"), [(1, 1)])
        plan = Materialize(RelationSource(ctx, relation))
        run_to_relation(plan)
        # One page, written and read entirely inside the pool.
        assert ctx.io_stats.counters("temp").reads == 0


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
