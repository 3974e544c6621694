"""The benchmark's workloads, driven through the program's public API.

Each workload is built from a seed and runs in *units*: one complete,
repeatable slice of work that includes its own set-up (fresh execution
context, generated inputs, ``Catalog.store``).  Every unit of one seed
does exactly the same work, so the repeats of an operation are
comparable and the model-ms total of every unit must be identical.

* :class:`Table4Cold` -- the paper's Table 4 experiment: all six
  strategies through ``run_strategy`` on cold stored ``R = Q x S``.
* :class:`ContainsPlanned` -- ``contains``-shaped divisions compiled by
  ``compile_plan`` and run with ``PhysicalPlan.execute``.
* :class:`ServeHot` -- a read-only closed loop of four client sessions
  against ``QueryService``.

A run executes a fixed number of units, :func:`unit_count`, worked out
from ``--seconds`` and a constant nominal unit time, never from a
deadline: the parent commit and a change run the same units, so a slow
commit is not measured on fewer samples.

Wall seconds are reported at a reference host speed (:class:`HostSpeed`):
the host this was tuned on alternates between its normal speed and
phases 1.5-2x slower that last from a second to over a minute, so raw
wall time measures the neighbours as much as the program.

Answers are checked outside the timed regions: against
``divide_set_semantics`` for the batch workloads, and by an untimed
oracle-tracking replay for the serve workloads.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

from repro.costmodel.units import PAPER_UNITS
from repro.errors import ReproError
from repro.executor.iterator import ExecContext
from repro.experiments import runner
from repro.plan import planner
from repro.plan.logical import (
    DistinctNode,
    DivideNode,
    FilterNode,
    ProjectNode,
    StoredSourceNode,
)
from repro.query import Query
from repro.relalg.algebra import divide_set_semantics
from repro.relalg.predicates import AttributeContains
from repro.serve import bench as serve_bench
from repro.serve.service import QueryService, ServiceConfig
from repro.storage.catalog import Catalog
from repro.workloads.synthetic import make_exact_division, make_with_duplicates
from repro.workloads.university import make_university

HASH_STRATEGIES = frozenset({"hash-agg no join", "hash-agg with join", "hash-division"})


class WrongAnswer(Exception):
    """A wrong result or a broken invariant: the run reports no numbers."""


@dataclass
class Tally:
    """What one run measured, accumulated over its units."""

    setup_s: list[float] = field(default_factory=list)
    unit_wall_s: list[float] = field(default_factory=list)
    unit_model_ms: list[float] = field(default_factory=list)
    #: Batch workloads: seconds per operation label, one per unit.
    #: Every time here but ``unit_wall_s`` is scaled by :class:`HostSpeed`.
    op_wall_s: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    op_tuples: dict[str, int] = field(default_factory=dict)
    op_family: dict[str, str] = field(default_factory=dict)
    #: Serve workloads: one record per unit.
    rounds: list["Round"] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Layer counts read from the program's stats objects.
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))


@dataclass
class Round:
    """One serve unit: its timed ``QueryService.run`` calls."""

    wall_s: float
    ok: int
    #: Dividend tuples of the queries that executed (result-cache misses).
    tuples: int
    #: Percentiles of the seconds per ok request.
    p50_s: float
    p99_s: float


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


#: Seconds :func:`probe_s` takes on the reference host (an idle Intel
#: Xeon vCPU, CPython 3.11).  Only a scale: both sides of a comparison
#: are scaled to it.
REFERENCE_PROBE_S = 0.0008


def _probe_work() -> None:
    table: dict[int, int] = {}
    rows = [(i, (i * 7919) % 1009) for i in range(3000)]
    for key, value in rows:
        slot = key % 257
        table[slot] = table.get(slot, 0) + value
    rows.sort(key=lambda row: row[1])


def probe_s() -> float:
    """Best of five timings of a fixed pure-Python loop: the host's
    current speed, independent of the program under test."""
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        _probe_work()
        best = min(best, time.perf_counter() - started)
    return best


class HostSpeed:
    """Scales wall seconds to the reference host speed.

    Created before a stretch of timed work and asked for
    :meth:`scale` after it; the host's speed over the stretch is taken
    as the mean of the probes at both ends.  Over 235 repeats of each of
    two Table 4 cells on the reference host, cell time moved with probe
    time in proportion (log-log slope 0.97 and 0.96), and scaling
    nearly halved the spread (IQR / median 0.14 -> 0.08 and
    0.13 -> 0.08).  What remains is mostly speed changes the two probes
    do not sample.
    """

    def __init__(self) -> None:
        self._before = probe_s()

    def scale(self) -> float:
        return 2.0 * REFERENCE_PROBE_S / (self._before + probe_s())


def unit_count(workload, seconds: float) -> int:
    """Units a run of ``seconds`` executes: fixed by the arguments alone."""
    return max(workload.min_units, round(seconds / workload.unit_s))


def end_to_end(tally: Tally) -> dict[str, float]:
    """The end-to-end metrics of an untraced run (all but peak RSS).

    Batch workloads time each operation by its fastest of the run's
    repeats (best of a fixed N, as ``timeit`` does).  Serve metrics are
    per-unit values -- percentiles over every request of the unit --
    and the run reports their median over all units.
    """
    metrics = {
        "setup_s": statistics.median(tally.setup_s),
        "model_ms": tally.unit_model_ms[0],
    }
    if tally.op_wall_s:
        fastest = {label: min(walls) for label, walls in tally.op_wall_s.items()}
        busy_s = sum(fastest.values())
        metrics["tuples_per_s"] = sum(tally.op_tuples[label] for label in fastest) / busy_s
        metrics["requests_per_s"] = len(fastest) / busy_s
        metrics["latency_p50_ms"] = 1000.0 * percentile(list(fastest.values()), 50)
        metrics["latency_p99_ms"] = 1000.0 * percentile(list(fastest.values()), 99)
    else:
        rounds = tally.rounds
        metrics["tuples_per_s"] = statistics.median(r.tuples / r.wall_s for r in rounds)
        metrics["requests_per_s"] = statistics.median(r.ok / r.wall_s for r in rounds)
        metrics["latency_p50_ms"] = 1000.0 * statistics.median(r.p50_s for r in rounds)
        metrics["latency_p99_ms"] = 1000.0 * statistics.median(r.p99_s for r in rounds)
    return metrics


def family_rates(tally: Tally) -> dict[str, float]:
    """Dividend tuples per wall second of the hash and the sort strategies."""
    rates = {}
    for family in ("hash", "sort"):
        labels = [label for label, f in tally.op_family.items() if f == family]
        busy_s = sum(min(tally.op_wall_s[label]) for label in labels)
        tuples = sum(tally.op_tuples[label] for label in labels)
        rates[f"tuples_per_s.{family}"] = tuples / busy_s if busy_s else 0.0
    return rates


def meter_snapshot(ctx: ExecContext) -> dict[str, float]:
    """The context's CPU, I/O and buffer counters, keyed by metric name."""
    cpu = ctx.cpu
    io = ctx.io_stats.totals()
    runs = ctx.io_stats.devices.get("runs")
    pool = ctx.pool.stats
    return {
        "executor.cpu.comp": cpu.comparisons,
        "executor.cpu.hash": cpu.hashes,
        "executor.cpu.move": cpu.moves,
        "executor.cpu.bit": cpu.bit_ops,
        "storage.page_reads": io.reads,
        "storage.page_writes": io.writes,
        "storage.run_pages_written": runs.writes if runs is not None else 0,
        "storage.buffer.lookups": pool.fixes,
        "storage.buffer.misses": pool.misses,
    }


def absorb_meters(tally: Tally, ctx: ExecContext, before: dict[str, float]) -> None:
    for name, value in meter_snapshot(ctx).items():
        tally.counters[name] += value - before[name]


def _model_ms(ctx: ExecContext, cpu_before, io_ms_before: float) -> float:
    return PAPER_UNITS.cpu_cost_ms(ctx.cpu.delta_since(cpu_before)) + (
        ctx.io_cost_ms() - io_ms_before
    )


class Table4Cold:
    """Table 4: every strategy on cold stored ``R = Q x S`` inputs."""

    name = "table4-cold"
    #: (|S|, |Q|): the larger paper points, 40,000 dividend tuples each.
    points: tuple[tuple[int, int], ...] = ((100, 400), (400, 100))
    min_units = 3
    #: Nominal wall seconds of one unit (12 cells), for unit_count.
    unit_s = 7.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._oracles: dict[tuple[int, int], frozenset] = {}
        self._drained = None
        self._run_to_relation = runner.run_to_relation
        # Keep the quotient run_strategy drains, so the answer can be
        # checked after the timed call returns.
        runner.run_to_relation = self._tap

    def _tap(self, operator, name=""):
        self._drained = self._run_to_relation(operator, name=name)
        return self._drained

    def close(self) -> None:
        runner.run_to_relation = self._run_to_relation

    def warm_up(self) -> None:
        self.cell("hash-division", 10, 20, Tally())

    def unit(self, tally: Tally) -> None:
        model_ms = 0.0
        for divisor_tuples, quotient_tuples in self.points:
            for strategy in runner.STRATEGIES:
                model_ms += self.cell(strategy, divisor_tuples, quotient_tuples, tally)
        tally.unit_model_ms.append(model_ms)

    def cell(self, strategy: str, divisor_tuples: int, quotient_tuples: int, tally: Tally) -> float:
        """Set up and time one Table 4 cell; returns its model ms."""
        label = f"{strategy} |S|={divisor_tuples} |Q|={quotient_tuples}"
        speed = HostSpeed()
        started = time.perf_counter()
        dividend, divisor = make_exact_division(divisor_tuples, quotient_tuples, seed=self.seed)
        ctx = ExecContext()
        catalog = Catalog(ctx.pool, ctx.data_disk)
        catalog.store(dividend, name="dividend", cold=True)
        catalog.store(divisor, name="divisor", cold=True)
        ctx.reset_meters()
        setup_s = time.perf_counter() - started
        before = meter_snapshot(ctx)
        tally.attempted += 1
        try:
            started = time.perf_counter()
            run = runner.run_strategy(
                strategy, ctx, catalog, "dividend", "divisor",
                expected_quotient=quotient_tuples,
            )
            wall = time.perf_counter() - started
        except ReproError:
            tally.failed += 1
            return 0.0
        finally:
            ctx.close()
        scale = speed.scale()
        absorb_meters(tally, ctx, before)
        self._check(label, dividend, divisor, quotient_tuples, run.quotient_tuples)
        tally.setup_s.append(setup_s * scale)
        tally.op_wall_s[label].append(wall * scale)
        tally.op_tuples[label] = len(dividend)
        tally.op_family[label] = "hash" if strategy in HASH_STRATEGIES else "sort"
        return run.total_ms

    def _check(self, label, dividend, divisor, quotient_tuples, reported) -> None:
        key = (len(divisor), quotient_tuples)
        if key not in self._oracles:
            self._oracles[key] = divide_set_semantics(dividend, divisor).as_set()
        quotient, self._drained = self._drained, None
        if quotient is None or quotient.has_duplicates():
            raise WrongAnswer(f"{label}: quotient missing or not a set")
        if len(quotient) != quotient_tuples or reported != quotient_tuples:
            raise WrongAnswer(f"{label}: |quotient| = {len(quotient)}, expected |Q| = {quotient_tuples}")
        if quotient.as_set() != self._oracles[key]:
            raise WrongAnswer(f"{label}: quotient differs from divide_set_semantics")

    def verify(self, tally: Tally) -> None:
        """Answers were checked per cell; every unit must price the same."""
        _same_model_ms(self.name, tally)


def _same_model_ms(name: str, tally: Tally) -> None:
    if len(set(tally.unit_model_ms)) > 1:
        raise WrongAnswer(f"{name}: model ms differs between identical units: {tally.unit_model_ms}")


@dataclass
class _Division:
    """One ``contains`` query of a :class:`ContainsPlanned` unit."""

    label: str
    node: DivideNode
    dividend_tuples: int
    #: Builds the in-memory (dividend, divisor) the oracle divides.
    oracle_inputs: Callable[[], tuple]


class ContainsPlanned:
    """Planned ``contains`` divisions over university and duplicate data."""

    name = "contains-planned"
    #: Five units run at least 110 queries.
    min_units = 5
    #: Nominal wall seconds of one unit (22 queries), for unit_count.
    unit_s = 1.8
    #: Students of the university whose stored transcript exceeds the
    #: buffer pool's 1 MB ceiling (about 41k rows, ~140 pages of 8 KB).
    big_students = 1700
    #: Students of the universities that fit the pool (13-45 pages);
    #: these are also divided as in-memory ``Query`` inputs.
    small_students = (200, 400, 800)
    #: (|S|, |Q|) of the duplicate-carrying dividends (+50% copies).
    duplicated = ((20, 100), (30, 200))

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._oracles: dict[str, frozenset] = {}

    def _setup(self) -> tuple[ExecContext, list[_Division]]:
        """Generate and store one unit's inputs; returns its queries."""
        ctx = ExecContext()
        catalog = Catalog(ctx.pool, ctx.data_disk)
        queries: list[_Division] = []
        database = AttributeContains("title", "database")
        students = (self.big_students,) + self.small_students
        for i, count in enumerate(students):
            tag = f"u{count}"
            courses = 40 if i == 0 else 20
            u = make_university(
                count, courses, courses // 4, completionists=3,
                enrollment_probability=0.6, seed=self.seed + i,
            )
            every = lambda u=u: (u.enrollment_dividend(), u.all_courses_divisor())
            some = lambda u=u: (u.enrollment_dividend(), u.database_courses_divisor())
            transcript = StoredSourceNode(catalog.store(u.transcript, name=f"{tag}-transcript"))
            offered = StoredSourceNode(catalog.store(u.courses, name=f"{tag}-courses"))
            enrolled = ProjectNode(transcript, ("student_id", "course_no"))
            divisions = [
                ("stored all", DivideNode(enrolled, ProjectNode(offered, ("course_no",))), every),
                ("stored database", DivideNode(
                    enrolled,
                    ProjectNode(FilterNode(offered, database), ("course_no",)),
                    divisor_restricted=True,
                ), some),
            ]
            if i > 0:
                memory = Query(u.transcript).project("student_id", "course_no")
                divisions += [
                    ("memory all", memory.contains(
                        Query(u.courses).project("course_no")).logical_plan(), every),
                    ("memory database", memory.contains(
                        Query(u.courses).where(database).project("course_no")).logical_plan(), some),
                ]
            queries += [
                _Division(f"{tag} {kind}", node, len(u.transcript), oracle)
                for kind, node, oracle in divisions
            ]
        for j, (divisor_tuples, quotient_tuples) in enumerate(self.duplicated):
            tag = f"dup{divisor_tuples}x{quotient_tuples}"
            dividend, divisor = make_with_duplicates(
                divisor_tuples, quotient_tuples, 0.5, seed=self.seed + 10 + j
            )
            names = dividend.schema.names
            bag = ProjectNode(
                StoredSourceNode(catalog.store(dividend, name=f"{tag}-dividend")), names
            )
            stored_divisor = StoredSourceNode(catalog.store(divisor, name=f"{tag}-divisor"))
            memory = Query(dividend).project(*names)
            divisions = [
                ("stored bag", DivideNode(bag, stored_divisor)),
                ("stored distinct", DivideNode(DistinctNode(bag), stored_divisor)),
                ("memory bag", memory.contains(Query(divisor)).logical_plan()),
                ("memory distinct", memory.distinct().contains(Query(divisor)).logical_plan()),
            ]
            queries += [
                _Division(f"{tag} {kind}", node, len(dividend), lambda d=dividend, s=divisor: (d, s))
                for kind, node in divisions
            ]
        return ctx, queries

    def warm_up(self) -> None:
        u = make_university(20, 4, 1, completionists=1, seed=self.seed)
        Query(u.transcript).project("student_id", "course_no").contains(
            Query(u.courses).project("course_no")
        ).compile(ExecContext()).execute()

    def unit(self, tally: Tally) -> None:
        speed = HostSpeed()
        started = time.perf_counter()
        ctx, queries = self._setup()
        setup_s = time.perf_counter() - started
        walls: dict[str, float] = {}
        before = meter_snapshot(ctx)
        model_ms = 0.0
        for query in queries:
            tally.attempted += 1
            cpu_before, io_ms_before = ctx.cpu.snapshot(), ctx.io_cost_ms()
            try:
                started = time.perf_counter()
                plan = planner.compile_plan(query.node, ctx)
                quotient = plan.execute(name="quotient")
                wall = time.perf_counter() - started
            except ReproError:
                tally.failed += 1
                continue
            model_ms += _model_ms(ctx, cpu_before, io_ms_before)
            self._check(query, quotient, ctx)
            walls[query.label] = wall
            tally.op_tuples[query.label] = query.dividend_tuples
            strategy = plan.decisions[0].strategy
            tally.op_family[query.label] = "hash" if strategy in HASH_STRATEGIES else "sort"
        absorb_meters(tally, ctx, before)
        ctx.close()
        scale = speed.scale()
        tally.setup_s.append(setup_s * scale)
        for label, wall in walls.items():
            tally.op_wall_s[label].append(wall * scale)
        tally.unit_model_ms.append(model_ms)

    def _check(self, query: _Division, quotient, ctx: ExecContext) -> None:
        if query.label not in self._oracles:
            dividend, divisor = query.oracle_inputs()
            self._oracles[query.label] = divide_set_semantics(dividend, divisor).as_set()
        if quotient.has_duplicates() or quotient.as_set() != self._oracles[query.label]:
            raise WrongAnswer(f"{query.label}: quotient differs from divide_set_semantics")
        if ctx.pool.fixed_page_count() or ctx.memory.bytes_in_use:
            raise WrongAnswer(f"{query.label}: frames or pool bytes leaked")

    def verify(self, tally: Tally) -> None:
        _same_model_ms(self.name, tally)

    def close(self) -> None:
        pass


class _StampedOutcomes(list):
    """A ``service.outcomes`` list that reports each record it receives."""

    def __init__(self, on_append) -> None:
        super().__init__()
        self._on_append = on_append

    def append(self, rec) -> None:
        super().append(rec)
        self._on_append(rec)


def stamp_request_latency(service: QueryService, latencies: list[float]) -> None:
    """Time each ok request in real seconds, from the moment its
    ``RequestOutcome`` appears in ``service.outcomes`` until its outcome
    is set.

    A client session settles one request and appends its next one in
    the same breath, so the next record's arrival stamps the previous
    request's end; a session's last request is stamped when the
    scheduler step that settled it returns.  Only this service instance
    is touched (its ``outcomes`` list and ``scheduler.step``), and the
    work per step is proportional to the clients.
    """
    clock = time.perf_counter
    in_flight: dict[str, tuple] = {}

    def settle(client: str, now: float) -> None:
        rec, since = in_flight.pop(client)
        if rec.outcome == "ok":
            latencies.append(now - since)

    def appeared(rec) -> None:
        now = clock()
        if rec.client in in_flight:
            settle(rec.client, now)
        in_flight[rec.client] = (rec, now)

    step = service.scheduler.step

    def timed_step(task) -> None:
        step(task)
        now = clock()
        for client in [c for c, (rec, _) in in_flight.items() if rec.outcome != "pending"]:
            settle(client, now)

    stamped = _StampedOutcomes(appeared)
    stamped.extend(service.outcomes)
    service.outcomes = stamped
    service.scheduler.step = timed_step


def _serve_counts(service: QueryService) -> dict[str, int]:
    counts = {
        "serve.admission.waited": service.admission.waited_total,
        "serve.admission.shed": service.admission.shed_total,
    }
    for name, cache in (("result_cache", service.result_cache), ("plan_cache", service.plan_cache)):
        counts[f"serve.{name}.hits"] = cache.stats.hits
        counts[f"serve.{name}.lookups"] = cache.stats.lookups
    return counts


class ServeHot:
    """A read-only closed loop of four client sessions against one
    ``QueryService``, Zipf 1.1 over stored pairs that fit the pool.

    A *service* is one fresh context, ``build_tables`` and
    ``build_scripts`` (set-up), then ``QueryService.run`` (timed).  A
    unit runs one service for each of the seed's :attr:`services`
    sub-seeds: which requests race a pair's first touch changes from
    script to script, and one script alone moved the miss count and
    the tail latency by 10-15 % between seeds.  Every unit replays the
    same scripts, so every unit must end with the same scheduler
    ``trace_digest`` per sub-seed.  The caches start cold, so first
    touches are the only misses and the only points where sessions
    interleave: a cache hit never yields to the scheduler, and with
    warm caches each session would run its whole script in one step.
    """

    name = "serve-hot"
    min_units = 4
    #: Nominal wall seconds of one unit, for unit_count.
    unit_s = 1.25
    services = 4
    #: 16 pairs of 256 tuples, about 32 of the pool's 128 frames.
    table_pairs = 16
    requests_per_client = 2500

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._digests: set[tuple[str, ...]] = set()

    def _sub_seeds(self) -> range:
        return range(self.seed * self.services, (self.seed + 1) * self.services)

    def _serve(self, seed: int, tally: Tally | None, latencies: list[float] | None = None,
               track_oracle: bool = False) -> tuple[QueryService, float, float, int]:
        """Set up and run one service; returns it with its set-up and run
        seconds and the dividend tuples its executed queries read."""
        config = serve_bench.LoadConfig(
            clients=4,
            requests_per_client=self.requests_per_client,
            seed=seed,
            skew=1.1,
            table_pairs=self.table_pairs,
            divisor_tuples=16,
            quotient_tuples=16,
            track_oracle=track_oracle,
        )
        started = time.perf_counter()
        ctx = ExecContext(config=config.storage_config, memory_budget=config.memory_budget)
        catalog = Catalog(ctx.pool, ctx.data_disk)
        pairs = serve_bench.build_tables(catalog, config)
        scripts = serve_bench.build_scripts(config, pairs)
        setup_s = time.perf_counter() - started
        service = QueryService(
            ctx,
            catalog,
            ServiceConfig(
                seed=config.seed,
                rows_per_step=config.rows_per_step,
                max_waiters=config.max_waiters,
                track_oracle=track_oracle,
            ),
        )
        if track_oracle:
            for dividend_name, divisor_name, _ in pairs:
                for name in (dividend_name, divisor_name):
                    service.seed_shadow(name, [row for _, row in catalog.get(name).scan_rows()])
        try:
            for client, script in scripts.items():
                service.submit_script(client, script)
            if latencies is not None:
                stamp_request_latency(service, latencies)
            # Read-only, so these are also the sizes at execution time.
            sizes = {name: catalog.get(name).record_count for name, _, _ in pairs}
            before = {**meter_snapshot(ctx), **_serve_counts(service)}
            started = time.perf_counter()
            service.run(check_leaks=True)
            wall = time.perf_counter() - started
        except ReproError as exc:
            raise WrongAnswer(f"{self.name}: {exc}") from exc
        finally:
            ctx.close()
        untyped = [
            f"{task.name}: {type(task.error).__name__}: {task.error}"
            for task in service.scheduler.tasks
            if task.error is not None and not isinstance(task.error, ReproError)
        ]
        if untyped:
            raise WrongAnswer(f"{self.name}: untyped failures: {untyped}")
        ok = [rec for rec in service.outcomes if rec.outcome == "ok"]
        if tally is not None:
            tally.attempted += len(service.outcomes)
            tally.failed += len(service.outcomes) - len(ok)
            for name, value in {**meter_snapshot(ctx), **_serve_counts(service)}.items():
                tally.counters[name] += value - before[name]
        tuples = sum(sizes[rec.tables[0]] for rec in ok if not rec.cached)
        return service, setup_s, wall, tuples

    def warm_up(self) -> None:
        warm = ServeHot(self.seed)
        warm.table_pairs, warm.requests_per_client = 2, 4
        warm._serve(self.seed, None)

    def unit(self, tally: Tally) -> None:
        speed = HostSpeed()
        latencies: list[float] = []
        setup_s = wall = model_ms = 0.0
        ok = tuples = 0
        digests = []
        for seed in self._sub_seeds():
            service, service_setup_s, service_wall, service_tuples = self._serve(seed, tally, latencies)
            setup_s += service_setup_s
            wall += service_wall
            tuples += service_tuples
            ok += sum(1 for rec in service.outcomes if rec.outcome == "ok")
            model_ms += service.clock.now_ms
            digests.append(service.scheduler.trace_digest())
        scale = speed.scale()
        tally.setup_s.append(setup_s * scale)
        tally.rounds.append(Round(
            wall * scale,
            ok,
            tuples,
            percentile(latencies, 50) * scale,
            percentile(latencies, 99) * scale,
        ))
        tally.unit_model_ms.append(model_ms)
        self._digests.add(tuple(digests))

    def verify(self, tally: Tally) -> None:
        """Replay every script with the oracle on; it must agree exactly."""
        _same_model_ms(self.name, tally)
        digests = []
        for seed in self._sub_seeds():
            service = self._serve(seed, None, track_oracle=True)[0]
            checked = [rec for rec in service.outcomes if rec.oracle_ok is not None]
            mismatches = sum(1 for rec in checked if not rec.oracle_ok)
            if not checked or mismatches:
                raise WrongAnswer(
                    f"{self.name}: seed {seed}: {mismatches} of {len(checked)} answers differ from the oracle"
                )
            digests.append(service.scheduler.trace_digest())
        if self._digests | {tuple(digests)} != {tuple(digests)}:
            raise WrongAnswer(f"{self.name}: interleaving differs between replays of one seed")

    def close(self) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (Table4Cold, ContainsPlanned, ServeHot)}


def make_workload(name: str, seed: int):
    """The workload called ``name``, built from ``seed``."""
    return WORKLOADS[name](seed)
