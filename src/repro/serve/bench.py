"""Multi-client load harness over :class:`~repro.serve.service.QueryService`.

The rank-aware-division serving literature (PAPERS.md) frames division
as a *repeated* query over slowly-changing relations; this harness
measures that regime.  It builds a family of stored ``R = Q x S`` table
pairs, gives each simulated client a deterministic script whose table
choices follow a Zipf(``skew``) popularity distribution (a few hot
pairs, a long cold tail -- the shape that makes result caching pay),
mixes in catalog updates at a configurable rate (each one invalidates
the hot pair's cached quotient), and drives everything through the
deterministic scheduler.

Everything reported is **virtual model time**: latency percentiles are
model milliseconds (Table 1 CPU + Table 3 I/O plus scheduling quanta)
and throughput is requests per model second, so two runs of one seed
produce byte-identical reports -- the scheduler's interleaving digest
is exported as the replay witness and CI compares it across two runs.

The headline experiment is :func:`cache_comparison`: the same seed,
script, and tables with the result cache on and off.  The acceptance
bar (ISSUE.md) is a >= 2x throughput win on the skewed mix, recorded
in a schema-v4 ``BENCH_*.json`` via :func:`export_serve_bench`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.errors import ReproError, ServeError
from repro.executor.iterator import ExecContext
from repro.faults.injector import FaultInjector, FaultRule
from repro.obs.export import write_bench_json
from repro.obs.metrics import MetricsRegistry
from repro.serve.service import (
    InsertRequest,
    QueryRequest,
    QueryService,
    RequestOutcome,
    ServiceConfig,
)
from repro.storage.catalog import Catalog
from repro.storage.config import StorageConfig
from repro.workloads.synthetic import make_exact_division
from repro.workloads.zipf import zipf_weights

#: Tiny-page storage configuration for smoke runs (CI ``serve-smoke``):
#: small workloads still span many pages, so injected faults find
#: eligible transfers and the buffer pool actually churns.
SMOKE_CONFIG = StorageConfig(
    page_size=512,
    sort_run_page_size=256,
    buffer_size=8 * 512,
    memory_limit=32 * 512,
    sort_buffer_size=4 * 512,
)

#: Quotient keys for harness-inserted rows start here -- far above any
#: key :func:`~repro.workloads.synthetic.make_exact_division` emits, so
#: inserts never collide with generated tuples.
_INSERT_KEY_BASE = 10_000_000


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``values``.

    Deterministic and library-free on purpose: BENCH artifacts must be
    byte-stable across interpreter versions.
    """
    if not values:
        return 0.0
    if not 0 <= q <= 100:
        raise ServeError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class LoadConfig:
    """Shape of one load-harness run (everything derives from ``seed``).

    Attributes:
        clients: Simulated client sessions (each is one scheduler task).
        requests_per_client: Script length per client.
        seed: Master seed: scheduler tie-breaking, script draws, table
            contents, and the fault schedule all derive from it.
        skew: Zipf exponent over table-pair popularity (0 = uniform).
        table_pairs: Number of stored ``(dividend, divisor)`` pairs.
        divisor_tuples / quotient_tuples: Per-pair ``R = Q x S`` shape.
        update_fraction: Probability a script entry is an insert into
            the chosen pair's dividend (invalidates its cached results).
        deadline_ms: Per-request deadline in model ms (``None`` = off).
        plan_cache / result_cache: Cache toggles, passed through to
            :class:`~repro.serve.service.ServiceConfig`.
        memory_budget: Admission capacity in bytes (``None`` =
            unbounded -- every grant admits immediately).
        max_waiters: Admission wait-queue bound.
        rows_per_step: Cooperative execution quantum.
        track_oracle: Verify every answer against the serial-order
            algebraic oracle (cheap at harness sizes; the chaos serve
            scenario requires it).
        storage_config: Physical parameters (``None`` = paper defaults;
            :data:`SMOKE_CONFIG` for fault-friendly tiny pages).
        fault_rules: Fault programme attached *after* the fault-free
            bulk load, so experiments start from intact data.
        fault_seed: Injector seed (independent of ``seed`` so one
            workload can be replayed under many fault schedules).
    """

    clients: int = 4
    requests_per_client: int = 8
    seed: int = 0
    skew: float = 1.0
    table_pairs: int = 4
    divisor_tuples: int = 4
    quotient_tuples: int = 16
    update_fraction: float = 0.0
    deadline_ms: float | None = None
    plan_cache: bool = True
    result_cache: bool = True
    memory_budget: int | None = 1 << 20
    max_waiters: int = 16
    rows_per_step: int = 64
    track_oracle: bool = True
    storage_config: StorageConfig | None = None
    fault_rules: tuple[FaultRule, ...] = ()
    fault_seed: int = 0

    def validate(self) -> None:
        if self.clients <= 0:
            raise ServeError("clients must be positive")
        if self.requests_per_client <= 0:
            raise ServeError("requests_per_client must be positive")
        if self.table_pairs <= 0:
            raise ServeError("table_pairs must be positive")
        if not 0.0 <= self.update_fraction <= 1.0:
            raise ServeError("update_fraction must be in [0, 1]")
        if self.rows_per_step < 1:
            raise ServeError("rows_per_step must be at least 1")


@dataclass
class LoadReport:
    """One harness run's deterministic results (all times virtual ms)."""

    config_seed: int
    clients: int
    requests: int
    ok: int
    timeouts: int
    cancelled: int
    shed: int
    errors: int
    queries_ok: int
    updates_ok: int
    cached_results: int
    plan_cache_hits: int
    fallbacks: int
    oracle_checked: int
    oracle_mismatches: int
    elapsed_ms: float
    throughput_rps: float
    latency_ms: dict
    result_cache: dict
    plan_cache: dict
    admission: dict
    trace_digest: str
    fault_summary: dict = field(default_factory=dict)
    #: Non-:class:`~repro.errors.ReproError` failures that escaped a
    #: session task -- always a bug (the chaos serve scenario treats
    #: any entry here as an invariant violation).
    untyped_failures: list[str] = field(default_factory=list)
    outcomes: list[RequestOutcome] = field(default_factory=list, repr=False)
    metrics: MetricsRegistry | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        """The BENCH v4 ``serve`` block (JSON-stable, no object refs)."""
        return {
            "seed": self.config_seed,
            "clients": self.clients,
            "requests": self.requests,
            "ok": self.ok,
            "timeouts": self.timeouts,
            "cancelled": self.cancelled,
            "shed": self.shed,
            "errors": self.errors,
            "queries_ok": self.queries_ok,
            "updates_ok": self.updates_ok,
            "cached_results": self.cached_results,
            "plan_cache_hits": self.plan_cache_hits,
            "fallbacks": self.fallbacks,
            "oracle_checked": self.oracle_checked,
            "oracle_mismatches": self.oracle_mismatches,
            "elapsed_ms": round(self.elapsed_ms, 4),
            "throughput_rps": round(self.throughput_rps, 4),
            "latency_ms": {k: round(v, 4) for k, v in self.latency_ms.items()},
            "result_cache": dict(self.result_cache),
            "plan_cache": dict(self.plan_cache),
            "admission": dict(self.admission),
            "trace_digest": self.trace_digest,
            "fault_summary": dict(self.fault_summary),
            "untyped_failures": list(self.untyped_failures),
            "request_log": [rec.to_dict() for rec in self.outcomes],
        }

    def summary_line(self) -> str:
        hit = self.result_cache.get("hit_ratio", 0.0)
        return (
            f"serve seed {self.config_seed}: {self.clients} clients x "
            f"{self.requests // max(1, self.clients)} requests -- "
            f"{self.ok}/{self.requests} ok ({self.timeouts} timeout, "
            f"{self.shed} shed, {self.errors} error), "
            f"p50 {self.latency_ms['p50']:.2f} ms, "
            f"p99 {self.latency_ms['p99']:.2f} ms, "
            f"{self.throughput_rps:.1f} req/s (virtual), "
            f"result-cache hit {hit:.0%}, digest {self.trace_digest[:12]}"
        )


def build_tables(
    catalog: Catalog, config: LoadConfig
) -> list[tuple[str, str, int]]:
    """Store ``table_pairs`` cold ``R = Q x S`` pairs; return their
    ``(dividend_name, divisor_name, first_divisor_value)`` triples.

    Pair ``i``'s contents derive from ``seed + i`` so distinct pairs
    hold distinct (but deterministic) data; the first divisor value is
    kept so harness inserts can append well-typed partial members.
    """
    pairs: list[tuple[str, str, int]] = []
    for i in range(config.table_pairs):
        dividend, divisor = make_exact_division(
            config.divisor_tuples,
            config.quotient_tuples,
            seed=config.seed + i,
        )
        dividend_name = f"dividend_{i}"
        divisor_name = f"divisor_{i}"
        catalog.store(dividend, dividend_name, cold=True)
        catalog.store(divisor, divisor_name, cold=True)
        pairs.append((dividend_name, divisor_name, divisor.rows[0][0]))
    return pairs


def build_scripts(
    config: LoadConfig, pairs: list[tuple[str, str, int]]
) -> dict[str, list]:
    """Each client's deterministic request script.

    Table choices are drawn Zipf(``skew``) over the pairs; with
    probability ``update_fraction`` an entry becomes an insert of one
    fresh partial-member row into the chosen dividend (a version bump
    that invalidates that pair's cached plan and result).  All draws
    come from one ``random.Random(seed)`` stream, so the script set is
    a pure function of the config.
    """
    rng = random.Random(config.seed ^ 0x5EEDBA5E)
    weights = zipf_weights(len(pairs), config.skew)
    indices = list(range(len(pairs)))
    next_key = _INSERT_KEY_BASE
    scripts: dict[str, list] = {}
    for c in range(config.clients):
        client = f"client{c:02d}"
        script: list = []
        for _ in range(config.requests_per_client):
            pair = pairs[rng.choices(indices, weights=weights, k=1)[0]]
            dividend_name, divisor_name, divisor_value = pair
            if rng.random() < config.update_fraction:
                script.append(
                    InsertRequest(
                        dividend_name, ((next_key, divisor_value),)
                    )
                )
                next_key += 1
            else:
                script.append(QueryRequest(dividend_name, divisor_name))
        scripts[client] = script
    return scripts


def run_load(
    config: LoadConfig, metrics: MetricsRegistry | None = None
) -> LoadReport:
    """Run one load experiment; returns its :class:`LoadReport`.

    Deterministic end to end: tables, scripts, scheduler interleaving,
    and (when enabled) the fault schedule all derive from the config's
    seeds, and every duration is virtual.  The service's post-drain
    leak audit runs (grants, locks, fixed frames, pool bytes, temp and
    run pages); a dirty drain raises :class:`~repro.errors.ServeError`
    rather than reporting numbers measured on a leaking stack.
    """
    config.validate()
    metrics = metrics if metrics is not None else MetricsRegistry()
    ctx = ExecContext(
        config=config.storage_config, memory_budget=config.memory_budget
    )
    try:
        catalog = Catalog(ctx.pool, ctx.data_disk)
        pairs = build_tables(catalog, config)
        scripts = build_scripts(config, pairs)

        # Snapshot the shadow-oracle rows while the stack is still
        # fault-free: seeding is harness setup, and a corrupt-read
        # fault firing during this scan would kill the experiment
        # before any request ran.
        shadow_rows: dict[str, list] = {}
        if config.track_oracle:
            for dividend_name, divisor_name, _ in pairs:
                for name in (dividend_name, divisor_name):
                    shadow_rows[name] = list(catalog.get(name).scan_tuples())

        injector = None
        if config.fault_rules:
            # Setup above was fault-free: experiments start from intact
            # stored data, exactly like the chaos harness.
            injector = FaultInjector(
                list(config.fault_rules), seed=config.fault_seed
            )
            ctx.attach_fault_injector(injector)

        service = QueryService(
            ctx,
            catalog,
            ServiceConfig(
                seed=config.seed,
                rows_per_step=config.rows_per_step,
                max_waiters=config.max_waiters,
                plan_cache=config.plan_cache,
                result_cache=config.result_cache,
                default_deadline_ms=config.deadline_ms,
                track_oracle=config.track_oracle,
            ),
            metrics=metrics,
        )
        for name, rows in shadow_rows.items():
            service.seed_shadow(name, rows)
        for client, script in scripts.items():
            service.submit_script(client, script)
        outcomes = service.run(check_leaks=True)
        if injector is not None:
            ctx.attach_fault_injector(None)
        return _build_report(config, service, outcomes, injector, metrics)
    finally:
        ctx.close()


def _cache_stats_dict(cache) -> dict:
    if cache is None:
        return {"enabled": False}
    return {
        "enabled": True,
        "hits": cache.stats.hits,
        "misses": cache.stats.misses,
        "invalidations": cache.stats.invalidations,
        "evictions": cache.stats.evictions,
        "hit_ratio": round(cache.stats.hit_ratio, 4),
        "entries": len(cache),
    }


def _build_report(
    config: LoadConfig,
    service: QueryService,
    outcomes: list[RequestOutcome],
    injector,
    metrics: MetricsRegistry,
) -> LoadReport:
    ok = [r for r in outcomes if r.outcome == "ok"]
    latencies = [r.latency_ms for r in ok if r.latency_ms is not None]
    elapsed_ms = service.clock.now_ms
    checked = [r for r in outcomes if r.oracle_ok is not None]
    admission = service.admission
    untyped = [
        f"{task.name}: {type(task.error).__name__}: {task.error}"
        for task in service.scheduler.tasks
        if task.error is not None and not isinstance(task.error, ReproError)
    ]
    report = LoadReport(
        config_seed=config.seed,
        clients=config.clients,
        requests=len(outcomes),
        ok=len(ok),
        timeouts=sum(1 for r in outcomes if r.outcome == "timeout"),
        cancelled=sum(1 for r in outcomes if r.outcome == "cancelled"),
        shed=sum(1 for r in outcomes if r.outcome == "shed"),
        errors=sum(1 for r in outcomes if r.outcome == "error"),
        queries_ok=sum(1 for r in ok if r.kind == "query"),
        updates_ok=sum(1 for r in ok if r.kind in ("insert", "delete")),
        cached_results=sum(1 for r in outcomes if r.cached),
        plan_cache_hits=sum(1 for r in outcomes if r.plan_cached),
        fallbacks=sum(1 for r in outcomes if r.fell_back),
        oracle_checked=len(checked),
        oracle_mismatches=sum(1 for r in checked if not r.oracle_ok),
        elapsed_ms=elapsed_ms,
        throughput_rps=(
            len(ok) / (elapsed_ms / 1000.0) if elapsed_ms > 0 else 0.0
        ),
        latency_ms={
            "p50": percentile(latencies, 50),
            "p95": percentile(latencies, 95),
            "p99": percentile(latencies, 99),
            "max": max(latencies) if latencies else 0.0,
            "mean": (
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
        },
        result_cache=_cache_stats_dict(service.result_cache),
        plan_cache=_cache_stats_dict(service.plan_cache),
        admission={
            "admitted": admission.admitted_total,
            "waited": admission.waited_total,
            "shed": admission.shed_total,
            "capacity_bytes": admission.capacity_bytes,
        },
        trace_digest=service.scheduler.trace_digest(),
        fault_summary=injector.summary() if injector is not None else {},
        untyped_failures=untyped,
        outcomes=outcomes,
        metrics=metrics,
    )
    return report


def cache_comparison(
    config: LoadConfig,
) -> tuple[LoadReport, LoadReport, float]:
    """The headline experiment: same seed/scripts, result cache on vs off.

    Returns ``(report_on, report_off, speedup)`` where ``speedup`` is
    the virtual-throughput ratio on/off.  The ISSUE acceptance bar is
    ``speedup >= 2`` on a Zipf-skewed read-mostly mix.
    """
    report_on = run_load(replace(config, result_cache=True))
    report_off = run_load(replace(config, result_cache=False, plan_cache=False))
    if report_off.throughput_rps > 0:
        speedup = report_on.throughput_rps / report_off.throughput_rps
    else:
        speedup = float("inf") if report_on.throughput_rps > 0 else 0.0
    return report_on, report_off, speedup


def export_serve_bench(
    directory: Path | str,
    name: str,
    report: LoadReport,
    baseline: LoadReport | None = None,
    created_unix: float | None = None,
) -> Path:
    """Write one schema-v4 ``BENCH_<name>.json`` serving artifact.

    ``metrics`` carries the flat scalars the perf trajectory compares
    (throughput, percentiles, hit ratio); the full report -- including
    the interleaving ``trace_digest`` replay witness and per-request
    log -- rides in the v4 ``serve`` block.  With ``baseline`` (a
    cache-off run) the cache speedup is recorded too.
    """
    metrics = {
        "throughput_rps": report.throughput_rps,
        "latency_p50_ms": report.latency_ms["p50"],
        "latency_p95_ms": report.latency_ms["p95"],
        "latency_p99_ms": report.latency_ms["p99"],
        "elapsed_ms": report.elapsed_ms,
        "ok": report.ok,
        "requests": report.requests,
        "result_cache_hit_ratio": report.result_cache.get("hit_ratio", 0.0),
    }
    serve_block = report.to_dict()
    if baseline is not None:
        metrics["baseline_throughput_rps"] = baseline.throughput_rps
        if baseline.throughput_rps > 0:
            metrics["cache_speedup"] = (
                report.throughput_rps / baseline.throughput_rps
            )
        serve_block["baseline"] = {
            "throughput_rps": round(baseline.throughput_rps, 4),
            "elapsed_ms": round(baseline.elapsed_ms, 4),
            "latency_ms": {
                k: round(v, 4) for k, v in baseline.latency_ms.items()
            },
            "trace_digest": baseline.trace_digest,
        }
    return write_bench_json(
        directory,
        name,
        metrics,
        created_unix=created_unix,
        serve=serve_block,
    )
