"""Tests of the benchmark's own machinery.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import loads  # noqa: E402
import run  # noqa: E402
from spans import SpanRecorder  # noqa: E402

from repro import query as query_module  # noqa: E402
from repro.experiments import runner  # noqa: E402
from repro.plan import planner  # noqa: E402
from repro.relalg.relation import Relation  # noqa: E402
from repro.serve import service as service_module  # noqa: E402
from repro.workloads.synthetic import make_exact_division  # noqa: E402

SMALL_POINTS = ((10, 40), (40, 10))


@pytest.fixture
def table4():
    workload = loads.Table4Cold(seed=5)
    workload.points = SMALL_POINTS
    yield workload
    workload.close()


def test_cell_model_ms_matches_run_strategy_on_relations(table4):
    for divisor_tuples, quotient_tuples in SMALL_POINTS:
        dividend, divisor = make_exact_division(divisor_tuples, quotient_tuples, seed=5)
        for strategy in runner.STRATEGIES:
            tally = loads.Tally()
            cell_ms = table4.cell(strategy, divisor_tuples, quotient_tuples, tally)
            reference = runner.run_strategy_on_relations(
                strategy, dividend, divisor, expected_quotient=quotient_tuples
            )
            assert cell_ms == reference.total_ms
            assert tally.attempted == 1 and tally.failed == 0


def test_units_of_one_seed_price_identically(table4):
    tally = loads.Tally()
    table4.unit(tally)
    table4.unit(tally)
    assert len(tally.unit_model_ms) == 2
    table4.verify(tally)


def test_wrong_quotient_is_caught(table4):
    dividend, divisor = make_exact_division(10, 40, seed=5)
    table4._drained = Relation(dividend.schema.project(("quotient_key",)), [(0,)])
    with pytest.raises(loads.WrongAnswer):
        table4._check("tampered", dividend, divisor, 40, 40)


def test_table4_tap_is_removed_on_close():
    original = runner.run_to_relation
    workload = loads.Table4Cold(seed=0)
    assert runner.run_to_relation is not original
    workload.close()
    assert runner.run_to_relation is original


def test_self_time_excludes_child_spans():
    recorder = SpanRecorder()

    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    def install(rec):
        rec.patch_method(Box, "outer", "outer")
        rec.patch_method(Box, "inner", "inner")

    with recorder.installed(install):
        assert Box().outer() == 2
    assert recorder.calls == {"outer": 1, "inner": 1}
    assert recorder.self_s["outer"] == pytest.approx(
        recorder.total_s["outer"] - recorder.total_s["inner"]
    )
    assert not hasattr(Box.outer, "__wrapped__")


def test_function_patch_reaches_every_binding_site():
    original = planner.collect_division_estimates
    recorder = SpanRecorder()

    def install(rec):
        rec.patch_function(planner, "collect_division_estimates", "plan.estimates")

    with recorder.installed(install):
        for module in (planner, query_module, service_module):
            assert module.collect_division_estimates is not original
    for module in (planner, query_module, service_module):
        assert module.collect_division_estimates is original


def test_serve_round_counts_and_latencies():
    workload = loads.ServeHot(3)
    workload.table_pairs, workload.requests_per_client = 4, 10
    tally = loads.Tally()
    workload.unit(tally)
    workload.unit(tally)
    # A unit serves 4 clients x 10 requests for each of 4 sub-seeds.
    assert tally.attempted == 2 * 160 and tally.failed == 0
    assert [r.ok for r in tally.rounds] == [160, 160]
    assert all(0 < r.p50_s <= r.p99_s < r.wall_s for r in tally.rounds)
    # Only result-cache misses count: at least one execution per
    # service, never more than one per request (pairs of 256 tuples).
    assert all(4 * 256 <= r.tuples < 160 * 256 for r in tally.rounds)
    workload.verify(tally)


def test_unit_count_depends_only_on_the_arguments():
    workload = loads.ServeHot(0)
    assert loads.unit_count(workload, 0) == workload.min_units
    assert loads.unit_count(workload, 100 * workload.unit_s) == 100


def test_contains_unit_checks_every_query():
    workload = loads.ContainsPlanned(seed=2)
    workload.big_students = 150
    workload.small_students = (30,)
    workload.duplicated = ((4, 10),)
    tally = loads.Tally()
    workload.unit(tally)
    assert tally.attempted == len(tally.op_wall_s) == 2 + 4 + 4
    assert set(tally.op_family.values()) == {"hash"}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_matches_reported_metrics(capsys):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(loads.WORKLOADS)
    assert run.main(["--workload", "serve-hot", "--seconds", "0", "--trace", "0"]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0
    assert set(report["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in report["metrics"].values())
