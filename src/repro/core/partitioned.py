"""Hash-table overflow handling: partitioned hash-division (Section 3.4).

When divisor table plus quotient table exceed available memory, "the
input data must be partitioned into disjoint subsets called clusters
that can be processed in multiple phases".  Two strategies:

* **Quotient partitioning** -- partition the dividend on the *quotient*
  attributes.  Every cluster is divided by the *entire* divisor (whose
  table therefore stays in memory across all phases), and the quotient
  is simply the concatenation of the per-cluster quotients.

* **Divisor partitioning** -- partition both inputs on the *divisor*
  attributes with the same hash function.  Each phase divides one
  dividend cluster by one divisor cluster; a quotient tuple must
  survive *every* phase, so the per-phase quotients are tagged with
  their phase number and a final *collection phase* divides the union
  of all tagged clusters by the set of phase numbers -- "this problem
  is exactly the division problem again", and this implementation
  indeed reuses :class:`~repro.core.hash_division.HashDivision` for it
  (:func:`collection_division`, which the parallel divisor strategy of
  :mod:`repro.parallel.division` also runs).

:class:`PartitionedHashDivision` is both strategies, and their
combination, as one open-next-close operator.  ``open()`` reads the
divisor once and spools the dividend into its quotient clusters
(:func:`_spool_partitions`, which keeps cluster 0 in memory for the
hybrid variant); each ``next_batch()`` divides the next cluster;
``close()`` destroys the cluster files not yet read, so a deadline that
lands between two clusters leaks no temp page.

:func:`overflow_attempts` is the adaptive sequence: single-phase
hash-division, then the operator with a doubling number of partitions,
up to :data:`MAX_PARTITIONS`.  :func:`step_attempts`, the one stepping
loop, runs it for :meth:`repro.plan.physical.PhysicalPlan.steps` and
:func:`hash_division_with_overflow`.
"""

from __future__ import annotations

import sys
from itertools import chain, islice
from typing import Generator, Iterable, Iterator, Sequence

from repro.errors import ExecutionError, HashTableOverflowError, PartitioningError
from repro.core.hash_division import HashDivision
from repro.executor.iterator import ExecContext, QueryIterator, run_to_relation
from repro.executor.scan import RelationSource, TempFileScan
from repro.relalg.algebra import division_attribute_split
from repro.relalg.relation import Relation
from repro.relalg.schema import Attribute, Schema
from repro.relalg.tuples import Row, projector
from repro.storage.heapfile import HeapFile

#: Name of the synthetic column carrying the phase number in the
#: collection phase's dividend.
PHASE_COLUMN = "__phase__"

#: Most partitions :func:`overflow_attempts` tries before it gives up.
MAX_PARTITIONS = 256


def tagged_schema(quotient_schema: Schema) -> Schema:
    """Schema of phase-tagged quotient tuples: the quotient attributes
    followed by :data:`PHASE_COLUMN`."""
    return Schema(tuple(quotient_schema) + (Attribute(PHASE_COLUMN),))


def collection_division(
    ctx: ExecContext, tagged: Relation, phase_count: int
) -> HashDivision:
    """The collection phase of divisor partitioning (§3.4, §6).

    A quotient tuple qualifies only if it survived every phase, so the
    phase-tagged quotients (schema :func:`tagged_schema`) are divided by
    the set of phase numbers -- "exactly the division problem again".
    """
    phases = Relation.of_ints((PHASE_COLUMN,), [(i,) for i in range(phase_count)])
    return HashDivision(
        RelationSource(ctx, tagged),
        RelationSource(ctx, phases),
        expected_divisor=phase_count,
    )


def _destroy_files(files: Sequence[HeapFile]) -> None:
    """Best-effort destruction of partition temp files.

    :meth:`~repro.storage.heapfile.HeapFile.destroy` is idempotent, so
    files already consumed (and destroyed) by a ``TempFileScan`` are
    skipped harmlessly; files whose phases never ran are reclaimed.
    Destruction never raises, so cleanup cannot mask the original error.
    """
    for file in files:
        file.destroy()


def _drain(divisor: QueryIterator) -> Relation:
    """Read the divisor once into memory: its table must outlive every
    phase, so each phase replays it from here."""
    divisor.open()
    try:
        return Relation(divisor.schema, list(divisor), name="divisor")
    finally:
        divisor.close()


def _spool_partitions(
    source: QueryIterator,
    key_names: Sequence[str],
    partitions: int,
    ctx: ExecContext,
    hybrid: bool = False,
) -> tuple[list[QueryIterator], list[HeapFile]]:
    """Hash-partition a stream into ``partitions`` clusters.

    Each tuple is hashed on ``key_names`` (one ``Hash`` charged) and
    appended to its cluster file on the 8 KB temp device.  With
    ``hybrid=True``, "the first cluster is kept in main memory while the
    other clusters are spooled to temporary files ... in a way similar
    to hybrid hash-join" (§3.4): cluster 0 never touches the temp
    device.

    Returns ``(phase_inputs, files)``: one input per cluster, in
    cluster order, and the spooled files.  Each file's scan destroys
    it on close; the caller destroys the rest on a failure.
    """
    schema = source.schema
    codec = schema.codec()
    key_of = projector(schema, key_names)
    resident: list[tuple] = []
    first_spooled = 1 if hybrid else 0
    files = [ctx.temp_file("temp") for _ in range(partitions - first_spooled)]
    cpu = ctx.cpu
    try:
        source.open()
        try:
            for row in source:
                cpu.hashes += 1
                cluster = hash(key_of(row)) % partitions
                if cluster < first_spooled:
                    resident.append(row)
                else:
                    files[cluster - first_spooled].append(codec.encode(row))
        finally:
            source.close()
    except BaseException:
        # A failed spool (e.g. a temp-device fault mid-write) must not
        # leak the partition files it already allocated.
        _destroy_files(files)
        raise
    phase_inputs: list[QueryIterator] = []
    if hybrid:
        phase_inputs.append(
            RelationSource(ctx, Relation(schema, resident, name="cluster-0"))
        )
    phase_inputs.extend(
        TempFileScan(ctx, file, schema, destroy_on_close=True) for file in files
    )
    return phase_inputs, files


def _single_phase(cluster: QueryIterator, divisor: Relation) -> list[Row]:
    """Single-phase hash-division of one cluster by an in-memory divisor."""
    return run_to_relation(
        HashDivision(
            cluster,
            RelationSource(cluster.ctx, divisor),
            expected_divisor=len(divisor),
        )
    ).rows


class PartitionedHashDivision(QueryIterator):
    """Multi-phase hash-division (§3.4) as one operator.

    Args:
        dividend, divisor: The inputs, each read once per ``open()``.
        quotient_partitions: Hash-partition the dividend on the
            quotient attributes into this many clusters, each divided
            by the whole divisor.  The clusters are disjoint in their
            quotient values, so the quotient is the concatenation of
            the per-cluster quotients -- no collection phase.  ``None``:
            the dividend itself is the one cluster.
        divisor_partitions: Divide each cluster by divisor partitioning
            with this many phases plus the collection phase.  Empty
            divisor clusters are dropped together with their dividend
            clusters: a dividend tuple routed there matches no divisor
            tuple and would be discarded by step 2 anyway.  ``None``:
            divide each cluster by single-phase hash-division.
        hybrid: Keep quotient cluster 0 in memory (see
            :func:`_spool_partitions`), saving one write+read round
            trip for its share of the dividend.

    A count of 1 is a one-cluster spool, not the absence of
    partitioning.  Both counts together are §3.4's "combinations of the
    techniques" for when "both divisor and quotient are too large": a
    phase holds ``1/divisor_partitions`` of the divisor table and about
    ``1/quotient_partitions`` of the quotient candidates.  Each batch is
    the quotient of the next cluster whose quotient is not empty.
    """

    def __init__(
        self,
        dividend: QueryIterator,
        divisor: QueryIterator,
        quotient_partitions: int | None = None,
        divisor_partitions: int | None = None,
        hybrid: bool = False,
    ) -> None:
        for partitions in (quotient_partitions, divisor_partitions):
            if partitions is not None and partitions <= 0:
                raise PartitioningError(f"partitions must be positive, got {partitions}")
        if hybrid and quotient_partitions is None:
            raise PartitioningError("hybrid partitioning needs quotient_partitions")
        quotient_names, divisor_names = division_attribute_split(
            dividend.schema, divisor.schema
        )
        super().__init__(dividend.ctx, dividend.schema.project(quotient_names))
        self.dividend = dividend
        self.divisor = divisor
        self.quotient_partitions = quotient_partitions
        self.divisor_partitions = divisor_partitions
        self.hybrid = hybrid
        self.quotient_names = quotient_names
        self.divisor_names = divisor_names
        self._divisor_relation: Relation | None = None
        self._clusters: Iterator[QueryIterator] = iter(())
        self._files: list[HeapFile] = []

    def _open(self) -> None:
        self._divisor_relation = _drain(self.divisor)
        if self.quotient_partitions is None:
            clusters: list[QueryIterator] = [self.dividend]
        else:
            clusters, self._files = _spool_partitions(
                self.dividend,
                self.quotient_names,
                self.quotient_partitions,
                self.ctx,
                self.hybrid,
            )
        self._clusters = iter(clusters)

    def _next_batch(self) -> list[Row]:
        divisor = self._divisor_relation
        for cluster in self._clusters:
            if self.divisor_partitions is None or not divisor:
                # Single phase; it also resolves an empty divisor to
                # "every candidate", which divisor clusters cannot.
                rows = _single_phase(cluster, divisor)
            else:
                rows = self._divide_by_divisor_clusters(cluster, divisor)
            if rows:
                return rows
        return []

    def _divide_by_divisor_clusters(
        self, cluster: QueryIterator, divisor: Relation
    ) -> list[Row]:
        """Divisor partitioning of one cluster: its phases, in order,
        then the collection phase over their phase-tagged quotients."""
        ctx, partitions = self.ctx, self.divisor_partitions
        cpu = ctx.cpu
        divisor_clusters: list[list[tuple]] = [[] for _ in range(partitions)]
        for row in divisor:
            cpu.hashes += 1
            divisor_clusters[hash(tuple(row)) % partitions].append(row)
        phase_inputs, files = _spool_partitions(
            cluster, self.divisor_names, partitions, ctx
        )
        phase_quotients = []
        try:
            for phase_input, file, cluster_divisor in zip(
                phase_inputs, files, divisor_clusters
            ):
                if cluster_divisor:
                    phase_quotients.append(
                        _single_phase(
                            phase_input, Relation(divisor.schema, cluster_divisor)
                        )
                    )
                else:
                    file.destroy()
        finally:
            # A failed phase destroyed its own file when its scan
            # closed; the files queued behind it are reclaimed here.
            _destroy_files(files)
        # Phase numbering skips empty divisor clusters.
        tagged = Relation(
            tagged_schema(self.schema),
            (row + (phase,) for phase, rows in enumerate(phase_quotients) for row in rows),
        )
        return run_to_relation(
            collection_division(ctx, tagged, len(phase_quotients))
        ).rows

    def _close(self) -> None:
        # The clusters not yet read; the others' scans destroyed theirs.
        _destroy_files(self._files)


def overflow_attempts(
    dividend: QueryIterator, divisor: QueryIterator, strategy: str = "quotient"
) -> Iterator[QueryIterator]:
    """The §3.4 attempt sequence over two re-openable inputs.

    Single-phase hash-division first, then
    :class:`PartitionedHashDivision` with 2, 4, 8, ... partitions of
    ``strategy`` (``"quotient"`` or ``"divisor"``).  Asking for an
    attempt past :data:`MAX_PARTITIONS` raises
    :class:`~repro.errors.HashTableOverflowError`.
    """
    if strategy not in ("quotient", "divisor"):
        raise PartitioningError(f"unknown partitioning strategy {strategy!r}")
    yield HashDivision(dividend, divisor)
    tracer = dividend.ctx.tracer
    partitions = 2
    while partitions <= MAX_PARTITIONS:
        if tracer.enabled:
            # One retry per doubling; the gauge keeps the last fan-out
            # attempted, i.e. the one that succeeded (or the ceiling).
            tracer.count("repro_division_overflow_retries_total", strategy=strategy)
            tracer.gauge(
                "repro_division_partition_fanout", partitions, strategy=strategy
            )
        yield PartitionedHashDivision(
            dividend, divisor, **{f"{strategy}_partitions": partitions}
        )
        partitions *= 2
    raise HashTableOverflowError(
        f"hash-division still overflows with {MAX_PARTITIONS} partitions; "
        "increase the memory budget"
    )


def step_attempts(
    ctx: ExecContext,
    attempts: Iterable[QueryIterator],
    rows_per_step: int,
    name: str = "",
) -> Generator[float, None, Relation]:
    """Run the first of ``attempts`` that does not overflow, a stretch
    at a time; returns its result relation.

    Yields the Table 3 I/O-meter delta of an attempt's ``open()``
    (sorts, hash builds and spools finish there), then of each stretch
    of ``rows_per_step`` result tuples, pulled batch by batch, each
    batch exactly where row-at-a-time ``next()`` would pull it.  A delta
    counts from the resumption after the previous yield, so what the
    caller does in between is not charged here.  An attempt that raises
    :class:`~repro.errors.HashTableOverflowError` is closed, its rows
    dropped and its I/O yielded; then the next one runs, or the last
    overflow propagates.  The next attempt is asked for before that
    yield, so ``attempts`` learns of the overflow even when the run
    ends there.  So the deltas sum to the meter's growth on every run
    that finishes or overflows.  Each attempt is closed however the
    generator ends: an error thrown in at a yield (a cancellation, a
    deadline) leaks nothing.  ``attempts`` must not be empty.
    """
    if rows_per_step < 1:
        raise ExecutionError(f"rows_per_step must be at least 1, got {rows_per_step}")
    mark = ctx.io_cost_ms()
    attempts = iter(attempts)
    attempt = next(attempts, None)
    if attempt is None:
        raise ExecutionError("step_attempts needs at least one attempt")
    while attempt is not None:
        try:
            attempt.open()
            yield ctx.io_cost_ms() - mark
            mark = ctx.io_cost_ms()
            rows: list[Row] = []
            pull = chain.from_iterable(iter(attempt.next_batch, []))
            while True:
                before = len(rows)
                rows.extend(islice(pull, rows_per_step))
                yield ctx.io_cost_ms() - mark
                mark = ctx.io_cost_ms()
                if len(rows) - before < rows_per_step:
                    return Relation(attempt.schema, rows, name=name)
        except HashTableOverflowError as error:
            overflow = error
        finally:
            attempt.close()
        try:
            attempt = next(attempts, None)
        except HashTableOverflowError as error:
            overflow, attempt = error, None
        yield ctx.io_cost_ms() - mark
        mark = ctx.io_cost_ms()
    raise overflow


def finish(run: Generator[float, None, Relation]) -> Relation:
    """Drive a stepping generator to its end; returns its result."""
    while True:
        try:
            next(run)
        except StopIteration as done:
            return done.value


def hash_division_with_overflow(
    dividend: QueryIterator,
    divisor: QueryIterator,
    strategy: str = "quotient",
    name: str = "quotient",
) -> Relation:
    """Adaptive hash-division that survives hash-table overflow.

    Runs :func:`overflow_attempts` through :func:`step_attempts` in one
    stretch: single-phase hash-division first; when the memory pool
    overflows, 2, 4, 8, ... partitions of the requested strategy until
    it fits or :data:`MAX_PARTITIONS` is exceeded.

    Args:
        dividend: The dividend; re-opened by every attempt (a failed
            attempt consumes its input).
        divisor: The divisor; re-opened by every attempt.
        strategy: ``"quotient"`` or ``"divisor"`` partitioning.
    """
    attempts = overflow_attempts(dividend, divisor, strategy)
    return finish(step_attempts(dividend.ctx, attempts, sys.maxsize, name))
