"""QueryService: correctness, caching, locking, deadlines, leak audit."""

import pytest

from repro.errors import QueryCancelledError, ServeError
from repro.executor.iterator import ExecContext
from repro.relalg.algebra import divide_set_semantics
from repro.serve.service import (
    DeleteRequest,
    InsertRequest,
    QueryRequest,
    QueryService,
    ServiceConfig,
    TableLockManager,
)
from repro.storage.catalog import Catalog
from repro.workloads.synthetic import make_exact_division


def make_service(seed=0, memory_budget=1 << 20, divisor=4, quotient=16,
                 storage=None, **config_kwargs):
    ctx = ExecContext(config=storage, memory_budget=memory_budget)
    catalog = Catalog(ctx.pool, ctx.data_disk)
    dividend, divisor_rel = make_exact_division(divisor, quotient, seed=seed)
    catalog.store(dividend, "enrollment")
    catalog.store(divisor_rel, "courses")
    service = QueryService(
        ctx, catalog, ServiceConfig(seed=seed, **config_kwargs)
    )
    if config_kwargs.get("track_oracle"):
        service.seed_shadow("enrollment", dividend.rows)
        service.seed_shadow("courses", divisor_rel.rows)
    oracle = frozenset(divide_set_semantics(dividend, divisor_rel))
    return service, oracle


class TestLockManager:
    def test_shared_locks_coexist(self):
        locks = TableLockManager()
        a = locks.request(("t",), "shared")
        b = locks.request(("t",), "shared")
        assert locks.try_acquire(a) and locks.try_acquire(b)
        assert locks.held_tables == 1
        locks.release(a)
        locks.release(b)
        assert locks.held_tables == 0

    def test_exclusive_excludes_and_is_fifo(self):
        locks = TableLockManager()
        reader = locks.request(("t",), "shared")
        assert locks.try_acquire(reader)
        writer = locks.request(("t",), "exclusive")
        late_reader = locks.request(("t",), "shared")
        assert not locks.try_acquire(writer)
        # The late reader cannot overtake the waiting writer.
        assert not locks.try_acquire(late_reader)
        locks.release(reader)
        assert locks.try_acquire(writer)
        assert not locks.try_acquire(late_reader)
        locks.release(writer)
        assert locks.try_acquire(late_reader)
        locks.release(late_reader)

    def test_release_is_idempotent_and_withdraws_waiters(self):
        locks = TableLockManager()
        held = locks.request(("t",), "exclusive")
        assert locks.try_acquire(held)
        waiter = locks.request(("t",), "exclusive")
        locks.release(waiter)  # withdraw before grant
        locks.release(held)
        locks.release(held)  # second release is a no-op
        assert locks.held_tables == 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ServeError):
            TableLockManager().request(("t",), "intent")


class TestSingleQuery:
    def test_answer_matches_the_algebraic_oracle(self):
        service, oracle = make_service()
        task = service.submit_query("enrollment", "courses")
        service.run()
        assert frozenset(task.result.rows) == oracle
        assert task.result.cached is False

    def test_caches_off_still_answers(self):
        service, oracle = make_service(plan_cache=False, result_cache=False)
        task = service.submit_query("enrollment", "courses")
        service.run()
        assert frozenset(task.result.rows) == oracle
        assert service.plan_cache is None and service.result_cache is None

    def test_repeat_query_hits_the_result_cache(self):
        # One session issues the same query twice *sequentially*, so the
        # second lookup deterministically follows the first put.  (Two
        # concurrent submissions may legitimately both miss: the second
        # get can precede the first put under interleaving.)
        service, oracle = make_service()
        service.submit_script(
            "c",
            [
                QueryRequest("enrollment", "courses"),
                QueryRequest("enrollment", "courses"),
            ],
        )
        outcomes = service.run()
        assert [o.cached for o in outcomes] == [False, True]
        assert outcomes[1].result_tuples == len(oracle)
        assert service.result_cache.stats.hits == 1

    def test_plan_cache_hit_compiles_without_statistics_pass(
        self, statistics_passes
    ):
        from repro.plan.logical import DivideNode, StoredSourceNode
        from repro.plan.planner import DivisionDecision
        from repro.serve.cache import plan_key

        service, oracle = make_service(result_cache=False)
        first = service.submit_query("enrollment", "courses")
        service.run()
        assert len(statistics_passes) == 1 and not first.result.plan_cached
        second = service.submit_query("enrollment", "courses")
        service.run()
        assert len(statistics_passes) == 1  # the cached decision skipped the pass
        assert second.result.plan_cached and not second.result.cached
        assert frozenset(second.result.rows) == oracle

        catalog = service.catalog
        node = DivideNode(
            StoredSourceNode(catalog.get("enrollment")),
            StoredSourceNode(catalog.get("courses")),
        )
        payload = service.plan_cache.get(
            plan_key(node), catalog.versions_of(("enrollment", "courses"))
        )
        assert isinstance(payload, DivisionDecision)
        assert payload.strategy == second.result.strategy

    def test_rows_per_step_below_one_is_rejected(self):
        with pytest.raises(ServeError, match="rows_per_step"):
            make_service(rows_per_step=0)

    def test_leak_report_counts_temp_and_run_pages(self):
        from repro.relalg.schema import Schema

        service, _ = make_service()
        record = Schema.of_ints("a").codec().encode((1,))
        files = [service.ctx.temp_file(kind) for kind in ("temp", "runs")]
        for file in files:
            file.append(record)
        ctx = service.ctx
        assert ctx.temp_disk.page_count > 0 and ctx.run_disk.page_count > 0
        assert service.leak_report() == [
            f"{ctx.temp_disk.page_count} temp pages allocated",
            f"{ctx.run_disk.page_count} runs pages allocated",
        ]
        with pytest.raises(ServeError, match="temp pages allocated"):
            service.run()
        for file in files:
            file.destroy()
        assert service.leak_report() == []

    def test_unknown_table_is_a_typed_error(self):
        service, _ = make_service()
        service.submit_query("nope", "courses")
        outcomes = service.run()
        assert outcomes[0].outcome == "error"
        assert outcomes[0].error_type == "StorageError"
        assert service.leak_report() == []


class TestWritesAndInvalidation:
    def test_insert_invalidates_cached_results(self):
        service, _ = make_service(track_oracle=True)
        divisor_value = service.catalog.get("courses").to_relation().rows[0][0]
        service.submit_script(
            "w",
            [
                QueryRequest("enrollment", "courses"),
                QueryRequest("enrollment", "courses"),  # hit
                InsertRequest("enrollment", ((999_999, divisor_value),)),
                QueryRequest("enrollment", "courses"),  # invalidated: miss
            ],
        )
        outcomes = service.run()
        kinds = [(o.kind, o.outcome, o.cached) for o in outcomes]
        assert kinds == [
            ("query", "ok", False),
            ("query", "ok", True),
            ("insert", "ok", False),
            ("query", "ok", False),
        ]
        assert service.result_cache.stats.invalidations == 1
        assert all(o.oracle_ok is not False for o in outcomes)

    def test_delete_bumps_versions_and_reconverges(self):
        service, oracle = make_service(track_oracle=True)
        divisor_value = service.catalog.get("courses").to_relation().rows[0][0]
        service.submit_script(
            "w",
            [
                InsertRequest("enrollment", ((999_999, divisor_value),)),
                DeleteRequest("enrollment", lambda r: r[0] != 999_999),
                QueryRequest("enrollment", "courses"),
            ],
        )
        outcomes = service.run()
        assert [o.outcome for o in outcomes] == ["ok", "ok", "ok"]
        assert outcomes[-1].oracle_ok is True
        assert service.catalog.version("enrollment") == 3  # load + 2 writes


class TestConcurrency:
    def test_interleaved_clients_all_serializable(self):
        service, oracle = make_service(seed=13, track_oracle=True)
        divisor_value = service.catalog.get("courses").to_relation().rows[0][0]
        for c in range(3):
            script = [QueryRequest("enrollment", "courses") for _ in range(3)]
            if c == 1:
                script.insert(
                    1, InsertRequest("enrollment", ((999_000 + c, divisor_value),))
                )
            service.submit_script(f"c{c}", script)
        outcomes = service.run()
        queries = [o for o in outcomes if o.kind == "query"]
        assert all(o.outcome == "ok" for o in outcomes)
        assert all(o.oracle_ok is True for o in queries)
        assert service.leak_report() == []

    def test_same_seed_replays_the_same_interleaving(self):
        def digest(seed):
            service, _ = make_service(seed=seed)
            for c in range(3):
                service.submit_script(
                    f"c{c}", [QueryRequest("enrollment", "courses")] * 2
                )
            service.run()
            return service.scheduler.trace_digest()

        assert digest(21) == digest(21)

    def test_deadline_times_out_without_leaks(self):
        service, _ = make_service()
        task = service.submit_query(
            "enrollment", "courses", deadline_ms=0.02
        )
        outcomes = service.run()
        assert outcomes[0].outcome == "timeout"
        assert task.error is not None
        assert service.leak_report() == []
        assert service.admission.outstanding_bytes == 0

    def test_cancellation_is_typed_and_clean(self):
        service, _ = make_service()
        task = service.submit_query("enrollment", "courses")
        service.scheduler.cancel(task)
        outcomes = service.run()
        assert outcomes[0].outcome == "cancelled"
        assert isinstance(task.error, QueryCancelledError)
        assert service.leak_report() == []

    def test_session_survives_per_request_timeouts(self):
        service, oracle = make_service()
        task = service.submit_script(
            "c",
            [QueryRequest("enrollment", "courses")] * 3,
            deadline_ms=0.02,  # every request times out...
        )
        outcomes = service.run()
        assert task.state.value == "done"  # ...but the session completes
        assert all(o.outcome == "timeout" for o in outcomes)


class TestAdmissionIntegration:
    def test_overload_sheds_with_zero_waiters(self):
        # Budget fits roughly one grant; no waiting allowed: with three
        # concurrent queries at least one is shed, at least one answers.
        service, oracle = make_service(
            memory_budget=4096, max_waiters=0, divisor=8, quotient=64,
            result_cache=False, plan_cache=False,
        )
        for c in range(3):
            service.submit_query("enrollment", "courses", client=f"c{c}")
        outcomes = service.run()
        results = sorted(o.outcome for o in outcomes)
        assert "shed" in results
        assert "ok" in results
        assert service.admission.shed_total >= 1
        assert service.leak_report() == []

    def test_grants_drain_to_zero_after_mixed_run(self):
        service, _ = make_service(memory_budget=1 << 14, max_waiters=4)
        for c in range(4):
            service.submit_script(
                f"c{c}", [QueryRequest("enrollment", "courses")] * 2
            )
        service.run()
        assert service.admission.outstanding_bytes == 0
        assert service.locks.held_tables == 0

    def test_tiny_budget_degrades_via_partitioned_fallback(self):
        service, oracle = make_service(
            memory_budget=2048, divisor=8, quotient=64, result_cache=False,
        )
        task = service.submit_query("enrollment", "courses")
        outcomes = service.run()
        assert outcomes[0].outcome == "ok"
        assert frozenset(task.result.rows) == oracle
        # With 2 KiB the hash tables cannot fit: the overflow path ran.
        assert outcomes[0].fell_back is True

    def test_deadlines_inside_the_fallback_leak_no_page(self):
        """The fallback steps a stretch at a time, so a deadline can
        land between two of its clusters; the drain's leak audit, which
        counts temp and run pages, stays clean wherever it lands."""
        from repro.storage.config import StorageConfig

        timed_out_in_fallback = 0
        for deadline in range(300, 6000, 250):
            service, _ = make_service(
                memory_budget=2048, divisor=8, quotient=64, result_cache=False,
                plan_cache=False, rows_per_step=8,
                storage=StorageConfig(page_size=512, buffer_size=4 * 512),
            )
            service.submit_query("enrollment", "courses", deadline_ms=deadline)
            (outcome,) = service.run()  # raises on any leak
            assert outcome.outcome in ("ok", "timeout")
            timed_out_in_fallback += outcome.outcome == "timeout" and outcome.fell_back
        assert timed_out_in_fallback > 1

    def test_failing_fallback_is_still_recorded_as_a_fallback(self):
        """A temp-device write fault while the fallback spools its
        partitions fails the query with a typed error, and the request
        still counts as one that fell back."""
        from repro.faults import FaultInjector, FaultRule
        from repro.storage.config import StorageConfig

        # A four-frame pool, so the spool writes temp pages to the device.
        service, _ = make_service(
            memory_budget=2048, divisor=8, quotient=64, result_cache=False,
            storage=StorageConfig(page_size=512, buffer_size=4 * 512),
        )
        service.ctx.attach_fault_injector(
            FaultInjector(
                [FaultRule("permanent", op="write", device="temp")], seed=0
            )
        )
        service.submit_query("enrollment", "courses")
        (outcome,) = service.run()
        assert outcome.outcome == "error"
        assert outcome.error_type == "DiskFaultError"
        assert outcome.fell_back is True
        fallbacks = service.metrics.counter("repro_serve_overflow_fallbacks_total")
        assert fallbacks.value == 1
        assert service.leak_report() == []
        assert service.ctx.temp_disk.page_count == 0
