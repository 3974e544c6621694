"""Load harness: determinism, the cache-speedup bar, BENCH v4 export."""

from dataclasses import replace

import pytest

from repro.errors import ServeError
from repro.faults.injector import FaultRule
from repro.obs.export import load_bench_json, validate_bench_payload
from repro.serve.bench import (
    SMOKE_CONFIG,
    LoadConfig,
    cache_comparison,
    export_serve_bench,
    percentile,
    run_load,
)


def small_config(**kwargs):
    base = dict(
        clients=2,
        requests_per_client=3,
        seed=5,
        table_pairs=2,
        divisor_tuples=3,
        quotient_tuples=8,
    )
    base.update(kwargs)
    return LoadConfig(**base)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 99) == 0.0

    def test_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 50) == 20.0
        assert percentile(values, 100) == 40.0
        assert percentile(values, 0) == 10.0  # rank clamps to 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ServeError):
            percentile([1.0], 101)


class TestLoadConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"clients": 0},
            {"requests_per_client": 0},
            {"table_pairs": 0},
            {"update_fraction": 1.5},
            {"rows_per_step": 0},
        ],
    )
    def test_invalid_shapes_rejected(self, kwargs):
        with pytest.raises(ServeError):
            run_load(small_config(**kwargs))


class TestRunLoad:
    def test_all_requests_answer_and_match_the_oracle(self):
        report = run_load(small_config())
        assert report.requests == 6
        assert report.ok == 6
        assert report.oracle_checked == report.queries_ok
        assert report.oracle_mismatches == 0
        assert report.untyped_failures == []
        assert report.elapsed_ms > 0
        assert report.throughput_rps > 0

    def test_same_seed_is_byte_identical(self):
        config = small_config(seed=21, update_fraction=0.25)
        a = run_load(config)
        b = run_load(config)
        assert a.trace_digest == b.trace_digest
        assert a.to_dict() == b.to_dict()

    def test_different_seeds_diverge(self):
        a = run_load(small_config(seed=1))
        b = run_load(small_config(seed=2))
        assert a.trace_digest != b.trace_digest

    def test_updates_invalidate_and_still_converge(self):
        report = run_load(
            small_config(
                clients=3, requests_per_client=6, update_fraction=0.4, seed=9
            )
        )
        assert report.updates_ok > 0
        assert report.oracle_mismatches == 0
        assert report.untyped_failures == []

    def test_faulted_run_fails_only_with_typed_errors(self):
        rules = (
            FaultRule("transient", op="read", probability=0.05, max_fires=4),
        )
        report = run_load(
            small_config(
                seed=3,
                storage_config=SMOKE_CONFIG,
                fault_rules=rules,
                fault_seed=77,
            )
        )
        assert report.untyped_failures == []
        assert report.oracle_mismatches == 0
        assert report.fault_summary  # injector attached and reported

    def test_deadline_pressure_times_out_typed(self):
        report = run_load(
            small_config(deadline_ms=0.05, result_cache=False, plan_cache=False)
        )
        assert report.timeouts > 0
        assert report.untyped_failures == []


class TestCacheComparison:
    def test_result_cache_meets_the_2x_bar_on_zipf_mix(self):
        # The headline acceptance experiment, at CI-friendly scale:
        # read-mostly, Zipf-skewed repeats => the cache elides most
        # executions and virtual throughput at least doubles.
        config = LoadConfig(
            clients=4,
            requests_per_client=8,
            seed=11,
            skew=1.2,
            table_pairs=3,
            divisor_tuples=4,
            quotient_tuples=16,
        )
        on, off, speedup = cache_comparison(config)
        assert on.ok == on.requests and off.ok == off.requests
        assert on.cached_results > 0
        assert off.cached_results == 0
        assert speedup >= 2.0

    def test_comparison_does_not_mutate_the_config(self):
        config = small_config()
        cache_comparison(config)
        assert config.result_cache is True  # replace(), not mutation


class TestExport:
    def test_v4_artifact_round_trips_with_serve_block(self, tmp_path):
        config = small_config(seed=13)
        report = run_load(config)
        baseline = run_load(
            replace(config, result_cache=False, plan_cache=False)
        )
        path = export_serve_bench(tmp_path, "serve_smoke", report, baseline)
        payload = load_bench_json(path)  # validates on load
        assert payload["schema_version"] == 4
        serve = payload["serve"]
        assert serve["trace_digest"] == report.trace_digest
        assert serve["requests"] == report.requests
        assert serve["baseline"]["trace_digest"] == baseline.trace_digest
        assert payload["metrics"]["cache_speedup"] > 0
        assert len(serve["request_log"]) == report.requests

    def test_exported_payload_passes_validation(self, tmp_path):
        report = run_load(small_config())
        path = export_serve_bench(tmp_path, "solo", report)
        validate_bench_payload(load_bench_json(path))
