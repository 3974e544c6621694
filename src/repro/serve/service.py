"""The concurrent query service: sessions, locks, caches, execution.

:class:`QueryService` turns the single-query planner/executor into a
deterministic multi-client service.  One request travels:

1. **table locks** -- shared for queries, exclusive for updates,
   FIFO-fair per table (no overtaking on a contended table, so writers
   cannot starve), acquired all-at-once to exclude deadlock,
2. **caches** -- under the shared locks the input versions cannot
   move, so the version-keyed result / plan caches
   (:mod:`repro.serve.cache`) are consulted race-free,
3. **admission** -- a memory grant sized from the planner's estimates
   (:mod:`repro.serve.admission`); bounded waiting, shed on overload,
4. **execution** -- the compiled plan is stepped cooperatively by
   :meth:`~repro.plan.physical.PhysicalPlan.steps`, ``rows_per_step``
   tuples per scheduler step, with the Table 3 I/O meter delta as the
   step's virtual cost; hash-table overflow degrades to the Section
   3.4 partitioned fallback inside that generator,
5. **teardown** -- grants, locks, and iterators are released in
   ``finally`` blocks, so timeouts/cancellations (thrown in at step
   boundaries by the scheduler) cannot leak; :meth:`QueryService.run`
   audits for leaks after drain.

Because locking is two-phase per request and requests are stepped by a
seeded deterministic scheduler, the service is **serializable**: the
equivalent serial order is the lock-grant order, and the optional
oracle shadow (:meth:`QueryService.seed_shadow`) recomputes each
query's answer in exactly that order -- the harness the Hypothesis
suite uses to prove cache-on ≡ cache-off ≡ oracle under any
interleaving of updates and queries.

The service allocates nothing on the single-query path: it is a layer
*above* :mod:`repro.plan` and touches no operator code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Iterable, Sequence

from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
    ServeError,
    ServiceOverloadError,
)
from repro.executor.iterator import ExecContext
from repro.obs.metrics import MetricsRegistry
from repro.plan.logical import DivideNode, StoredSourceNode
from repro.plan.planner import DivisionDecision, compile_plan, decide_division
from repro.relalg.algebra import divide_set_semantics
from repro.relalg.relation import Relation
from repro.serve.admission import AdmissionController, estimate_grant_bytes
from repro.serve.cache import CachedResult, VersionedCache, plan_key
from repro.serve.scheduler import (
    CooperativeScheduler,
    Task,
    VirtualClock,
    Wait,
)
from repro.storage.catalog import Catalog

#: Histogram buckets for request latency in model milliseconds.
LATENCY_BUCKETS = (0.1, 1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0)


# -- table locks -------------------------------------------------------


@dataclass
class _LockTicket:
    ticket_id: int
    names: tuple[str, ...]
    mode: str  # "shared" | "exclusive"
    granted: bool = False
    abandoned: bool = False


class TableLockManager:
    """Shared/exclusive table locks with FIFO fairness.

    All of a request's locks are requested as one ticket and granted
    atomically, in submission order per contended table -- so there is
    no lock-ordering deadlock and no writer starvation.  Determinism
    follows from the scheduler polling tickets in submission order.
    """

    def __init__(self) -> None:
        self._shared: dict[str, int] = {}
        self._exclusive: set[str] = set()
        self._waiting: list[_LockTicket] = []
        self._next_ticket = 0

    @property
    def held_tables(self) -> int:
        """Tables with at least one live lock (leak-audit probe)."""
        return len(self._exclusive) + sum(
            1 for count in self._shared.values() if count > 0
        )

    def request(self, names: Iterable[str], mode: str) -> _LockTicket:
        if mode not in ("shared", "exclusive"):
            raise ServeError(f"unknown lock mode {mode!r}")
        ticket = _LockTicket(
            ticket_id=self._next_ticket,
            names=tuple(sorted(set(names))),
            mode=mode,
        )
        self._next_ticket += 1
        self._waiting.append(ticket)
        return ticket

    def _held_conflict(self, name: str, mode: str) -> bool:
        if name in self._exclusive:
            return True
        return mode == "exclusive" and self._shared.get(name, 0) > 0

    @staticmethod
    def _tickets_conflict(a: _LockTicket, b: _LockTicket) -> bool:
        if a.mode == "shared" and b.mode == "shared":
            return False
        return bool(set(a.names) & set(b.names))

    def can_grant(self, ticket: _LockTicket) -> bool:
        """True when the ticket could be granted right now (fairly)."""
        if ticket.granted or ticket.abandoned:
            return ticket.granted
        for earlier in self._waiting:
            if earlier is ticket:
                break
            if not earlier.abandoned and self._tickets_conflict(earlier, ticket):
                return False  # no overtaking on contended tables
        return not any(self._held_conflict(n, ticket.mode) for n in ticket.names)

    def try_acquire(self, ticket: _LockTicket) -> bool:
        """Grant the ticket if fair and conflict-free."""
        if ticket.granted:
            return True
        if not self.can_grant(ticket):
            return False
        self._waiting.remove(ticket)
        ticket.granted = True
        for name in ticket.names:
            if ticket.mode == "exclusive":
                self._exclusive.add(name)
            else:
                self._shared[name] = self._shared.get(name, 0) + 1
        return True

    def release(self, ticket: _LockTicket) -> None:
        """Release a granted ticket, or withdraw a waiting one.

        Idempotent -- the teardown path may run more than once.
        """
        if ticket.abandoned:
            return
        if not ticket.granted:
            ticket.abandoned = True
            if ticket in self._waiting:
                self._waiting.remove(ticket)
            return
        ticket.abandoned = True
        for name in ticket.names:
            if ticket.mode == "exclusive":
                self._exclusive.discard(name)
            else:
                remaining = self._shared.get(name, 0) - 1
                if remaining > 0:
                    self._shared[name] = remaining
                else:
                    self._shared.pop(name, None)


# -- requests and outcomes ---------------------------------------------


@dataclass(frozen=True)
class QueryRequest:
    """Divide ``dividend`` by ``divisor`` (both catalog names)."""

    dividend: str
    divisor: str


@dataclass(frozen=True)
class InsertRequest:
    """Append ``rows`` to stored relation ``table``."""

    table: str
    rows: tuple


@dataclass(frozen=True)
class DeleteRequest:
    """Delete rows of ``table`` failing ``keep(row)``."""

    table: str
    keep: Callable

    def __repr__(self) -> str:  # keep outcomes reprs deterministic
        return f"DeleteRequest(table={self.table!r})"


Request = "QueryRequest | InsertRequest | DeleteRequest"


@dataclass
class ServeResult:
    """A successful query's answer plus serving provenance."""

    rows: tuple
    strategy: str
    cached: bool = False
    plan_cached: bool = False
    fell_back: bool = False


@dataclass
class RequestOutcome:
    """One request's lifecycle record (appended at submission, in
    deterministic submission order; completed in place)."""

    client: str
    index: int
    kind: str  # "query" | "insert" | "delete"
    tables: tuple[str, ...]
    submitted_ms: float
    outcome: str = "pending"  # ok|timeout|cancelled|shed|error|pending
    error_type: str | None = None
    latency_ms: float | None = None
    strategy: str | None = None
    cached: bool = False
    plan_cached: bool = False
    fell_back: bool = False
    result_tuples: int | None = None
    oracle_ok: bool | None = None

    def to_dict(self) -> dict:
        return {
            "client": self.client,
            "index": self.index,
            "kind": self.kind,
            "tables": list(self.tables),
            "outcome": self.outcome,
            "error_type": self.error_type,
            "latency_ms": (
                None if self.latency_ms is None else round(self.latency_ms, 4)
            ),
            "strategy": self.strategy,
            "cached": self.cached,
            "plan_cached": self.plan_cached,
            "fell_back": self.fell_back,
            "result_tuples": self.result_tuples,
            "oracle_ok": self.oracle_ok,
        }


@dataclass
class ServiceConfig:
    """Tunables of one :class:`QueryService`.

    Attributes:
        seed: Scheduler tie-breaking seed -- the whole service replay
            derives from it.
        rows_per_step: Cooperative quantum: output tuples produced per
            scheduler step (stop-and-go phases like sort still run
            within one step).
        quantum_ms: Fixed dispatch cost per scheduler step.
        max_waiters: Admission wait-queue bound; beyond it, shed.
        plan_cache / result_cache: Enable the two caches.
        plan_cache_entries / result_cache_entries: LRU capacities.
        default_deadline_ms: Per-request deadline applied by
            :meth:`QueryService.submit_script` when the script does not
            override it; ``None`` = no deadline.
        track_oracle: Maintain the serial-order shadow copies seeded
            via :meth:`QueryService.seed_shadow` and verify each query
            against the algebraic oracle (test/chaos harness mode;
            zero work when off).
    """

    seed: int = 0
    rows_per_step: int = 64
    quantum_ms: float = 0.01
    max_waiters: int = 16
    plan_cache: bool = True
    result_cache: bool = True
    plan_cache_entries: int = 64
    result_cache_entries: int = 64
    default_deadline_ms: float | None = None
    track_oracle: bool = False


class QueryService:
    """Deterministic concurrent serving over one execution context.

    Args:
        ctx: Execution context (devices, buffer pool, memory pool);
            its ``memory`` budget is the admission capacity.
        catalog: Stored relations served (and updated) by requests.
        config: :class:`ServiceConfig`; defaults are test-friendly.
        metrics: Metric registry; one is created when omitted.  All
            service families are prefixed ``repro_serve_``.
    """

    def __init__(
        self,
        ctx: ExecContext,
        catalog: Catalog,
        config: ServiceConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.ctx = ctx
        self.catalog = catalog
        self.config = config or ServiceConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.clock = VirtualClock()
        self.scheduler = CooperativeScheduler(
            seed=self.config.seed,
            clock=self.clock,
            quantum_ms=self.config.quantum_ms,
        )
        self.admission = AdmissionController(
            ctx.memory,
            self.clock,
            max_waiters=self.config.max_waiters,
            metrics=self.metrics,
        )
        self.locks = TableLockManager()
        self.plan_cache: VersionedCache | None = (
            VersionedCache(
                "plan", self.config.plan_cache_entries, metrics=self.metrics
            )
            if self.config.plan_cache
            else None
        )
        self.result_cache: VersionedCache | None = (
            VersionedCache(
                "result", self.config.result_cache_entries, metrics=self.metrics
            )
            if self.config.result_cache
            else None
        )
        self.outcomes: list[RequestOutcome] = []
        self._shadow: dict[str, list] = {}
        self._tainted: set[str] = set()

    # -- oracle shadow (harness mode) ----------------------------------

    def seed_shadow(self, name: str, rows: Iterable) -> None:
        """Install the oracle shadow copy of one stored relation.

        Only meaningful with ``track_oracle=True``: update requests
        mutate the shadow at the moment they hold the exclusive lock
        (the serialization point), and every query recomputes the
        algebraic oracle from the shadows at its own lock point.
        """
        self._shadow[name] = list(rows)

    def _oracle_rows(self, dividend: str, divisor: str) -> frozenset | None:
        if not self.config.track_oracle:
            return None
        if dividend in self._tainted or divisor in self._tainted:
            return None
        if dividend not in self._shadow or divisor not in self._shadow:
            return None
        dividend_rel = Relation(
            self.catalog.get(dividend).schema, list(self._shadow[dividend])
        )
        divisor_rel = Relation(
            self.catalog.get(divisor).schema, list(self._shadow[divisor])
        )
        return frozenset(divide_set_semantics(dividend_rel, divisor_rel))

    # -- submission API ------------------------------------------------

    def submit_query(
        self,
        dividend: str,
        divisor: str,
        client: str = "client",
        deadline_ms: float | None = None,
    ) -> Task:
        """Queue one division query; returns its scheduler task.

        The task's ``result`` is a :class:`ServeResult` on success; on
        timeout/cancel/shed/typed failure the task is FAILED with the
        typed error (the matching :class:`RequestOutcome` is recorded
        either way).
        """
        rec = self._new_outcome(client, "query", (dividend, divisor))
        absolute = None if deadline_ms is None else self.clock.now_ms + deadline_ms
        return self.scheduler.spawn(
            gen=self._division_request(rec, dividend, divisor),
            name=f"{client}/q{rec.index}",
            deadline_ms=absolute,
        )

    def submit_script(
        self,
        client: str,
        requests: Sequence,
        deadline_ms: float | None = None,
    ) -> Task:
        """Queue one client *session*: requests run sequentially.

        This is the load-harness entry point: each simulated client is
        one session task, so requests of different clients interleave
        while each client waits for its previous answer.  Per-request
        deadlines are re-armed from ``deadline_ms`` (or the config
        default); a timed-out / shed / failed request is recorded and
        the session continues with the next one.
        """
        effective = (
            deadline_ms
            if deadline_ms is not None
            else self.config.default_deadline_ms
        )
        return self.scheduler.spawn(
            factory=lambda task: self._client_session(
                task, client, list(requests), effective
            ),
            name=f"{client}/session",
        )

    def run(self, check_leaks: bool = True) -> list[RequestOutcome]:
        """Drive every queued task to completion; audit; return outcomes.

        Raises:
            ServeError: With ``check_leaks`` (the default), when any
                grant bytes, table locks, fixed buffer frames, or live
                memory-pool bytes survive the drain.
        """
        self.scheduler.run_until_complete()
        if check_leaks:
            leaks = self.leak_report()
            if leaks:
                raise ServeError("service drained dirty: " + "; ".join(leaks))
        return self.outcomes

    def leak_report(self) -> list[str]:
        """Post-drain invariant audit (empty == clean)."""
        leaks = []
        if self.admission.outstanding_bytes:
            leaks.append(
                f"{self.admission.outstanding_bytes} grant bytes outstanding"
            )
        if self.locks.held_tables:
            leaks.append(f"{self.locks.held_tables} table locks still held")
        fixed = self.ctx.pool.fixed_page_count()
        if fixed:
            leaks.append(f"{fixed} buffer frames still fixed")
        if self.ctx.memory.bytes_in_use:
            leaks.append(f"{self.ctx.memory.bytes_in_use} pool bytes live")
        return leaks

    # -- request lifecycle ---------------------------------------------

    def _new_outcome(
        self, client: str, kind: str, tables: tuple[str, ...]
    ) -> RequestOutcome:
        rec = RequestOutcome(
            client=client,
            index=len(self.outcomes),
            kind=kind,
            tables=tables,
            submitted_ms=self.clock.now_ms,
        )
        self.outcomes.append(rec)
        self.metrics.counter("repro_serve_requests_total", kind=kind).inc()
        return rec

    def _complete(
        self, rec: RequestOutcome, outcome: str, error: BaseException | None = None
    ) -> None:
        rec.outcome = outcome
        rec.error_type = type(error).__name__ if error is not None else None
        rec.latency_ms = self.clock.now_ms - rec.submitted_ms
        self.metrics.counter(
            "repro_serve_request_outcomes_total", kind=rec.kind, outcome=outcome
        ).inc()
        self.metrics.histogram(
            "repro_serve_latency_ms", LATENCY_BUCKETS, kind=rec.kind
        ).observe(rec.latency_ms)

    def _classify(self, error: BaseException) -> str:
        if isinstance(error, QueryTimeoutError):
            return "timeout"
        if isinstance(error, QueryCancelledError):
            return "cancelled"
        if isinstance(error, ServiceOverloadError):
            return "shed"
        return "error"

    # -- the query path ------------------------------------------------

    def _division_request(
        self, rec: RequestOutcome, dividend_name: str, divisor_name: str
    ) -> Generator:
        """The full serving path of one division query (generator)."""
        names = (dividend_name, divisor_name)
        lock = self.locks.request(names, "shared")
        grant = None
        try:
            while not self.locks.try_acquire(lock):
                yield Wait("lock", lambda: self.locks.can_grant(lock))
            node = DivideNode(
                StoredSourceNode(self.catalog.get(dividend_name)),
                StoredSourceNode(self.catalog.get(divisor_name)),
            )
            key = plan_key(node)
            versions = self.catalog.versions_of(names)
            oracle = self._oracle_rows(dividend_name, divisor_name)

            # Result cache: a hit answers under the shared locks with
            # zero execution I/O; staleness is excluded by the version
            # key (the locks pin the versions for the whole lookup).
            if self.result_cache is not None:
                hit = self.result_cache.get(key, versions)
                if hit is not None:
                    result = ServeResult(
                        rows=hit.rows, strategy=hit.strategy, cached=True
                    )
                    rec.cached = True
                    rec.strategy = hit.strategy
                    rec.result_tuples = len(hit.rows)
                    self._check_oracle(rec, hit.rows, oracle)
                    self._complete(rec, "ok")
                    return result

            # Plan: reuse the advisor decision when the versions still
            # match; otherwise pay the exact statistics pass (metered
            # reads of both inputs) and re-decide.
            decision = (
                self.plan_cache.get(key, versions)
                if self.plan_cache is not None
                else None
            )
            rec.plan_cached = decision is not None
            if decision is None:
                io_before = self.ctx.io_cost_ms()
                decision = decide_division(node)
                if self.plan_cache is not None:
                    self.plan_cache.put(key, versions, decision)
                yield self.ctx.io_cost_ms() - io_before
            rec.strategy = decision.strategy

            # Admission: reserve the estimated footprint before any
            # operator allocates; shed/waits happen here, not mid-build.
            grant = yield from self.admission.wait_for_grant(
                estimate_grant_bytes(decision.estimates), tag=rec.client
            )

            rows = yield from self._execute_division(rec, node, decision)
            result = ServeResult(
                rows=tuple(rows),
                strategy=decision.strategy,
                plan_cached=rec.plan_cached,
                fell_back=rec.fell_back,
            )
            rec.result_tuples = len(result.rows)
            if self.result_cache is not None:
                self.result_cache.put(
                    key,
                    versions,
                    CachedResult(
                        rows=result.rows,
                        schema=node.schema,
                        strategy=decision.strategy,
                    ),
                )
            self._check_oracle(rec, result.rows, oracle)
            self._complete(rec, "ok")
            return result
        except ReproError as exc:
            self._complete(rec, self._classify(exc), exc)
            raise
        finally:
            if grant is not None:
                self.admission.release(grant)
            self.locks.release(lock)

    def _execute_division(
        self, rec: RequestOutcome, node: DivideNode, decision: DivisionDecision
    ) -> Generator:
        """Cooperatively step the compiled plan (generator).

        :meth:`PhysicalPlan.steps` yields the Table 3 I/O-meter delta
        of each stretch as its virtual cost and degrades a hash-table
        overflow to the Section 3.4 partitioned fallback; this records
        the fallback, also when the fallback itself fails.
        """
        plan = compile_plan(node, self.ctx, decision=decision)
        try:
            result = yield from plan.steps(self.config.rows_per_step, "quotient")
        finally:
            if plan.fell_back:
                rec.fell_back = True
                self.metrics.counter("repro_serve_overflow_fallbacks_total").inc()
        return result.rows

    def _check_oracle(
        self, rec: RequestOutcome, rows: tuple, oracle: frozenset | None
    ) -> None:
        if oracle is None:
            return
        rec.oracle_ok = frozenset(rows) == oracle
        if not rec.oracle_ok:
            self.metrics.counter("repro_serve_oracle_mismatches_total").inc()

    # -- the update path -----------------------------------------------

    def _update_request(
        self,
        rec: RequestOutcome,
        table: str,
        rows: tuple | None = None,
        keep: Callable | None = None,
    ) -> Generator:
        lock = self.locks.request((table,), "exclusive")
        try:
            while not self.locks.try_acquire(lock):
                yield Wait("lock", lambda: self.locks.can_grant(lock))
            io_before = self.ctx.io_cost_ms()
            try:
                if rows is not None:
                    version = self.catalog.insert_rows(table, rows)
                    if self.config.track_oracle and table in self._shadow:
                        self._shadow[table].extend(rows)
                else:
                    deleted, version = self.catalog.delete_rows(table, keep)
                    if self.config.track_oracle and table in self._shadow:
                        self._shadow[table] = [
                            r for r in self._shadow[table] if keep(r)
                        ]
            except ReproError:
                # The write may have partially applied: the catalog
                # already bumped the version (cache safety), but the
                # shadow no longer reflects ground truth.
                self._tainted.add(table)
                raise
            yield self.ctx.io_cost_ms() - io_before
            self._complete(rec, "ok")
            return version
        except ReproError as exc:
            self._complete(rec, self._classify(exc), exc)
            raise
        finally:
            self.locks.release(lock)

    # -- client sessions -----------------------------------------------

    def _client_session(
        self,
        task: Task,
        client: str,
        requests: list,
        deadline_ms: float | None,
    ) -> Generator:
        """Run one client's requests sequentially; survive per-request
        typed failures (timeout/shed/typed error); stop on cancel."""
        completed = 0
        for request in requests:
            if deadline_ms is not None:
                task.deadline_ms = self.clock.now_ms + deadline_ms
            try:
                if isinstance(request, QueryRequest):
                    rec = self._new_outcome(
                        client, "query", (request.dividend, request.divisor)
                    )
                    yield from self._division_request(
                        rec, request.dividend, request.divisor
                    )
                elif isinstance(request, InsertRequest):
                    rec = self._new_outcome(client, "insert", (request.table,))
                    yield from self._update_request(
                        rec, request.table, rows=request.rows
                    )
                elif isinstance(request, DeleteRequest):
                    rec = self._new_outcome(client, "delete", (request.table,))
                    yield from self._update_request(
                        rec, request.table, keep=request.keep
                    )
                else:
                    raise ServeError(f"unknown request {request!r}")
                completed += 1
            except QueryCancelledError:
                raise  # cancelling the session cancels the client
            except (QueryTimeoutError, ServiceOverloadError, ReproError):
                # Recorded by the request generator; session continues.
                continue
            finally:
                task.deadline_ms = None
        return completed
