"""Wall-clock benchmark of the repro division stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table4-cold --seed 1 --seconds 30 --trace 0

Runs one workload (see ``loads.py`` and ``README.md``) for a fixed
number of units worth about ``--seconds`` of measured work, checks every
answer, and prints each metric with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, measured with no instrumentation.  With
``--trace 1`` the same untraced run is followed by one traced unit whose
span wrappers give the per-layer metrics, plus ``trace.overhead``.

A wrong answer, a leak or a replay mismatch exits with status 1 and
prints no numbers; a checkout without ``src/repro`` exits with status 2.

Run as a script, it first re-executes itself with ``PYTHONHASHSEED=0``:
with per-process string-hash randomisation, five runs of one serve-hot
seed spread their ``latency_p99_ms`` by 19 % (IQR / median), and by
6.5 % with the hash seed fixed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The seed runs use unless told otherwise, and a seed kept out of
#: tuning, for confirming a claim on inputs it was not tuned on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

WORKLOADS = ("table4-cold", "contains-planned", "serve-hot")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def install_spans(recorder) -> None:
    """Wrap the public functions of every layer the workloads reach."""
    from repro.core import partitioned
    from repro.core.bitmap import Bitmap
    from repro.costmodel import advisor
    from repro.executor.hash_table import ChainedHashTable
    from repro.executor.iterator import QueryIterator
    from repro.plan import planner
    from repro.relalg.schema import RecordCodec
    from repro.serve.scheduler import CooperativeScheduler
    from repro.serve.service import TableLockManager
    from repro.storage.buffer import BufferPool
    from repro.storage.catalog import Catalog
    from repro.storage.heapfile import HeapFile
    from repro.storage.memory import MemoryPool

    def operator(args) -> str:
        return f"executor.op.{type(args[0]).__name__}"

    def estimated_rows(rec, result) -> None:
        estimates = result[0]
        rec.counts["plan.estimates.rows"] += estimates.dividend_tuples + estimates.divisor_tuples

    def lock_outcome(rec, granted) -> None:
        if not granted:
            rec.counts["serve.lock.try_acquire.failed"] += 1

    recorder.patch_method(BufferPool, "fix", "storage.fix")
    recorder.patch_method(RecordCodec, "decode", "storage.decode")
    recorder.patch_method(RecordCodec, "encode", "storage.encode")
    recorder.patch_method(HeapFile, "append", "storage.heap_append")
    recorder.patch_method(Catalog, "store", "storage.catalog.store")
    recorder.patch_method(MemoryPool, "allocate", "storage.memory.allocate")
    recorder.patch_method(MemoryPool, "free_all", "storage.memory.free_all")
    recorder.patch_method(QueryIterator, "open", "executor.open", label=operator)
    recorder.patch_method(QueryIterator, "next", "executor.next", label=operator)
    recorder.patch_method(ChainedHashTable, "find_or_insert", "executor.hash_table.find_or_insert")
    recorder.patch_method(ChainedHashTable, "find", "executor.hash_table.find")
    recorder.patch_method(Bitmap, "set", "core.bitmap.set")
    recorder.patch_method(Bitmap, "all_set", "core.bitmap.all_set")
    recorder.patch_function(partitioned, "hash_division_with_overflow", "core.fallback")
    recorder.patch_function(planner, "compile_plan", "plan.compile")
    recorder.patch_function(
        planner, "collect_division_estimates", "plan.estimates", on_result=estimated_rows
    )
    recorder.patch_function(advisor, "advise", "costmodel.advise")
    recorder.patch_method(CooperativeScheduler, "step", "serve.step")
    recorder.patch_method(
        TableLockManager, "try_acquire", "serve.lock.try_acquire", on_result=lock_outcome
    )


def per_layer(recorder, traced, names: list[str]) -> dict[str, float]:
    """Span and stats-object metrics of the traced unit."""
    calls, self_s, total_s = recorder.calls, recorder.self_s, recorder.total_s
    counters = traced.counters

    def ratio(hits: float, lookups: float) -> float:
        return hits / lookups if lookups else 0.0

    metrics = {
        "storage.fix.calls": calls["storage.fix"],
        "storage.fix.self_s": self_s["storage.fix"],
        "storage.buffer.lookups": counters["storage.buffer.lookups"],
        "storage.buffer.hit_ratio": ratio(
            counters["storage.buffer.lookups"] - counters["storage.buffer.misses"],
            counters["storage.buffer.lookups"],
        ),
        "storage.page_reads": counters["storage.page_reads"],
        "storage.page_writes": counters["storage.page_writes"],
        "storage.run_pages_written": counters["storage.run_pages_written"],
        "storage.decode.calls": calls["storage.decode"],
        "storage.decode.self_s": self_s["storage.decode"],
        "storage.encode.self_s": self_s["storage.encode"],
        "storage.heap_append.self_s": self_s["storage.heap_append"],
        "storage.catalog.store_s": total_s["storage.catalog.store"],
        "storage.memory.allocate.calls": calls["storage.memory.allocate"],
        "storage.memory.allocate.self_s": self_s["storage.memory.allocate"],
        "storage.memory.free_all.self_s": self_s["storage.memory.free_all"],
        "executor.next.calls": calls["executor.next"],
        "executor.next.self_s": self_s["executor.next"],
        "executor.open.self_s": self_s["executor.open"],
        "executor.cpu.comp": counters["executor.cpu.comp"],
        "executor.cpu.hash": counters["executor.cpu.hash"],
        "executor.cpu.move": counters["executor.cpu.move"],
        "executor.cpu.bit": counters["executor.cpu.bit"],
        "executor.hash_table.find_or_insert.calls": calls["executor.hash_table.find_or_insert"],
        "executor.hash_table.find_or_insert.self_s": self_s["executor.hash_table.find_or_insert"],
        "executor.hash_table.find.calls": calls["executor.hash_table.find"],
        "executor.hash_table.find.self_s": self_s["executor.hash_table.find"],
        "core.bitmap.set.calls": calls["core.bitmap.set"],
        "core.bitmap.set.self_s": self_s["core.bitmap.set"],
        "core.bitmap.all_set.calls": calls["core.bitmap.all_set"],
        "core.fallbacks": calls["core.fallback"],
        "plan.compile.calls": calls["plan.compile"],
        "plan.compile.self_s": self_s["plan.compile"],
        "plan.estimates.calls": calls["plan.estimates"],
        "plan.estimates.self_s": self_s["plan.estimates"],
        "plan.estimates.rows": recorder.counts["plan.estimates.rows"],
        "costmodel.advise.self_s": self_s["costmodel.advise"],
        "serve.step.calls": calls["serve.step"],
        "serve.step.self_s": self_s["serve.step"],
        "serve.result_cache.lookups": counters["serve.result_cache.lookups"],
        "serve.result_cache.hit_ratio": ratio(
            counters["serve.result_cache.hits"], counters["serve.result_cache.lookups"]
        ),
        "serve.plan_cache.lookups": counters["serve.plan_cache.lookups"],
        "serve.plan_cache.hit_ratio": ratio(
            counters["serve.plan_cache.hits"], counters["serve.plan_cache.lookups"]
        ),
        "serve.lock.try_acquire.calls": calls["serve.lock.try_acquire"],
        "serve.lock.try_acquire.failed": recorder.counts["serve.lock.try_acquire.failed"],
        "serve.admission.waited": counters["serve.admission.waited"],
        "serve.admission.shed": counters["serve.admission.shed"],
    }
    # One self-time metric per operator class BENCHMARK.json names;
    # classes it does not name are summed into executor.op.other.
    named_ops = {name for name in names if name.startswith("executor.op.")}
    for name in named_ops:
        metrics[name] = 0.0
    for label, seconds in self_s.items():
        if label.startswith("executor.op."):
            key = f"{label}.self_s"
            key = key if key in named_ops else "executor.op.other.self_s"
            metrics[key] = metrics.get(key, 0.0) + seconds
    return metrics


def measure(workload, units: int, tally) -> None:
    for _ in range(units):
        started = time.perf_counter()
        workload.unit(tally)
        tally.unit_wall_s.append(time.perf_counter() - started)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})",
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import loads
    from spans import SpanRecorder

    spec = json.loads(spec_path.read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in section}

    workload = loads.make_workload(args.workload, args.seed)
    try:
        workload.warm_up()
        timed = loads.Tally()
        measure(workload, loads.unit_count(workload, args.seconds), timed)
        rss_mb = peak_rss_mb()
        workload.verify(timed)
        if args.trace:
            traced = loads.Tally()
            recorder = SpanRecorder()
            with recorder.installed(install_spans):
                started = time.perf_counter()
                workload.unit(traced)
                traced_s = time.perf_counter() - started
            metrics = {
                **per_layer(recorder, traced, list(units)),
                **loads.family_rates(timed),
                "failed_ratio": timed.failed / timed.attempted,
                "trace.overhead": traced_s / statistics.median(timed.unit_wall_s) - 1.0,
            }
        else:
            metrics = {**loads.end_to_end(timed), "peak_rss_mb": rss_mb}
    except loads.WrongAnswer as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: WRONG: {exc}", file=sys.stderr)
        return 1
    finally:
        workload.close()

    report = {}
    for name, unit in units.items():
        value = metrics[name]
        report[name] = {"value": value, "unit": unit}
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": timed.attempted,
        "failed": timed.failed,
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
