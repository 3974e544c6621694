"""Parallel hash-division on a simulated shared-nothing machine (Section 6).

Both adaptations from the paper are implemented:

* ``strategy="quotient"`` -- quotient partitioning: "the divisor table
  must be replicated in the main memory of all participating
  processors.  After replication, all local hash-division operators
  work completely independently of each other."  The dividend is
  repartitioned on the quotient attributes and each node's quotient is
  final -- no collection phase.

* ``strategy="divisor"`` -- divisor partitioning: both inputs are
  repartitioned on the divisor attributes; each node divides its
  cluster, tags its quotient tuples with its phase number, and ships
  them to a collection site that "divides the set of all incoming
  tuples over the set of processor network addresses" -- implemented,
  as the paper notes, with hash-division itself
  (:func:`repro.core.partitioned.collection_division`, the serial
  §3.4 collection phase).

* ``bit_vector_bits=n`` -- Babb-style filtering: before shipping a
  dividend tuple, the sender probes a bit vector built from the
  divisor; tuples that cannot match any divisor tuple are never
  shipped.  False positives travel anyway (harmless); true matches are
  never dropped.

Base relations start round-robin-declustered across the processors (the
GAMMA default).  Execution is simulated: local phases run one node at a
time in this process, but each node meters into its own context, so
elapsed time is ``max`` over nodes plus interconnect time at the
busiest receiver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import PartitioningError
from repro.core.hash_division import HashDivision
from repro.core.partitioned import collection_division, tagged_schema
from repro.costmodel.units import CostUnits, PAPER_UNITS
from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.scan import RelationSource
from repro.metering import CpuCounters
from repro.parallel.bitvector import BitVectorFilter
from repro.parallel.network import Interconnect, NetworkWeights
from repro.parallel.partitioning import round_robin
from repro.parallel.processor import Cluster
from repro.relalg.algebra import division_attribute_split
from repro.relalg.relation import Relation
from repro.relalg.tuples import projector


@dataclass
class ParallelDivisionResult:
    """Outcome and accounting of one parallel division run."""

    quotient: Relation
    strategy: str
    processors: int
    local_ms: list[float]
    coordinator_ms: float
    network: Interconnect
    dividend_tuples_shipped: int
    dividend_tuples_filtered: int
    detail: dict = field(default_factory=dict)

    @property
    def elapsed_ms(self) -> float:
        """Simulated wall clock: slowest node + busiest inbound link +
        coordinator work."""
        slowest = max(self.local_ms, default=0.0)
        return slowest + self.network.busiest_receiver_ms() + self.coordinator_ms

    @property
    def total_work_ms(self) -> float:
        """Sum of all node work (the resource cost, not the latency)."""
        return sum(self.local_ms) + self.coordinator_ms

    def __repr__(self) -> str:
        return (
            f"<ParallelDivisionResult {self.strategy} x{self.processors}: "
            f"{len(self.quotient)} tuples, {self.elapsed_ms:.1f} ms elapsed>"
        )


def parallel_hash_division(
    dividend: Relation,
    divisor: Relation,
    processors: int,
    strategy: str = "quotient",
    bit_vector_bits: int | None = None,
    memory_budget_per_node: int | None = None,
    network_weights: NetworkWeights | None = None,
    units: CostUnits = PAPER_UNITS,
    name: str = "quotient",
    collection: str = "central",
    injector=None,
) -> ParallelDivisionResult:
    """Divide on a simulated shared-nothing machine.

    Args:
        dividend, divisor: The inputs (declustered round-robin first).
        processors: Number of shared-nothing nodes.
        strategy: ``"quotient"`` or ``"divisor"`` (see module docs).
        bit_vector_bits: Enable sender-side bit-vector filtering of the
            dividend with a filter of this many bits.
        memory_budget_per_node: Per-node memory pool budget; lets tests
            demonstrate that partitioning fits divisions whose tables
            overflow a single node.
        network_weights: Interconnect pricing.
        units: CPU unit costs for pricing local work.
        collection: For ``strategy="divisor"``: ``"central"`` ships all
            tagged quotient clusters to one collection site;
            ``"decentralized"`` repartitions them on the quotient
            attributes so every node runs a share of the collection
            division -- the paper's answer "in the unlikely case that
            the central collection site becomes a bottleneck" (§6).
        injector: Optional :class:`repro.faults.injector.FaultInjector`
            attached to the interconnect: batches may be dropped
            (retransmitted by the sender) or duplicated (delivered
            twice; the receivers are idempotent, so the quotient is
            unchanged).
    """
    if strategy not in ("quotient", "divisor"):
        raise PartitioningError(f"unknown parallel strategy {strategy!r}")
    if collection not in ("central", "decentralized"):
        raise PartitioningError(f"unknown collection mode {collection!r}")
    if processors <= 0:
        raise PartitioningError(f"processors must be positive, got {processors}")
    quotient_names, divisor_names = division_attribute_split(dividend.schema, divisor.schema)
    cluster = Cluster.build(processors, memory_budget_per_node=memory_budget_per_node)
    network = Interconnect(network_weights, injector=injector)
    dividend_fragments = round_robin(dividend.rows, processors)
    divisor_fragments = round_robin(divisor.rows, processors)
    runner = _QuotientStrategy if strategy == "quotient" else _DivisorStrategy
    return runner(
        dividend,
        divisor,
        quotient_names,
        divisor_names,
        cluster,
        network,
        dividend_fragments,
        divisor_fragments,
        bit_vector_bits,
        units,
        name,
        collection,
    ).run()


class _StrategyBase:
    """Shared plumbing for the two parallel strategies."""

    def __init__(
        self,
        dividend: Relation,
        divisor: Relation,
        quotient_names: tuple[str, ...],
        divisor_names: tuple[str, ...],
        cluster: Cluster,
        network: Interconnect,
        dividend_fragments: list[list[tuple]],
        divisor_fragments: list[list[tuple]],
        bit_vector_bits: int | None,
        units: CostUnits,
        name: str,
        collection: str = "central",
    ) -> None:
        self.dividend = dividend
        self.divisor = divisor
        self.quotient_names = quotient_names
        self.divisor_names = divisor_names
        self.cluster = cluster
        self.network = network
        self.dividend_fragments = dividend_fragments
        self.divisor_fragments = divisor_fragments
        self.bit_vector_bits = bit_vector_bits
        self.units = units
        self.name = name
        self.collection = collection
        self.processors = len(cluster)
        self.divisor_key_of = projector(dividend.schema, divisor_names)
        self.shipped = 0
        self.filtered = 0
        self.detail: dict = {}

    def make_filter(self, keys, node_ctx: ExecContext) -> BitVectorFilter | None:
        if self.bit_vector_bits is None:
            return None
        if not len(self.divisor):
            # A filter over an empty divisor would drop every dividend
            # tuple, but an empty divisor means the division is vacuous
            # and every candidate qualifies -- so do not filter at all.
            return None
        return BitVectorFilter.built_from(
            keys, self.bit_vector_bits, cpu=node_ctx.cpu
        )

    def exchange(
        self,
        fragments: Sequence[Sequence[tuple]],
        destination_of: Callable[[tuple], int],
        tuple_bytes: int,
        admit: Callable[[tuple, CpuCounters], bool] | None = None,
    ) -> tuple[list[list[tuple]], int]:
        """Repartition per-node fragments; returns the rows each node
        received and the number of rows that changed machines.

        The sender charges one partitioning ``Hash`` per row, then
        drops the rows ``admit(row, sender_cpu)`` rejects.  Rows that
        stay on their node are kept in place; the others travel as one
        batch per (sender, destination) through
        :meth:`~repro.parallel.network.Interconnect.send`.  A
        duplicated batch lands at its destination twice (every
        consumer is idempotent under duplicates: divisor tables
        deduplicate, bits are set twice); a dropped batch is
        retransmitted by the interconnect before this method sees it.
        """
        received: list[list[tuple]] = [[] for _ in range(self.processors)]
        shipped = 0
        for origin, (node, fragment) in enumerate(zip(self.cluster, fragments)):
            cpu = node.ctx.cpu
            batches: dict[int, list[tuple]] = {}
            for row in fragment:
                cpu.hashes += 1  # partitioning hash
                if admit is not None and not admit(row, cpu):
                    continue
                destination = destination_of(row)
                if destination == origin:
                    received[origin].append(row)
                else:
                    batches.setdefault(destination, []).append(row)
            for destination, batch in batches.items():
                copies = self.network.send(origin, destination, len(batch), tuple_bytes)
                shipped += len(batch)
                for _ in range(copies):
                    received[destination].extend(batch)
        return received, shipped

    def ship_dividend(
        self, destination_of: Callable[[tuple], int], bit_vector: BitVectorFilter | None
    ) -> list[list[tuple]]:
        """Repartition the dividend fragments, applying the bit-vector
        filter at the sender; returns per-destination clusters."""
        admit = None
        if bit_vector is not None:

            def admit(row: tuple, cpu: CpuCounters) -> bool:
                cpu.hashes += 1
                cpu.bit_ops += 1
                if bit_vector.may_contain(self.divisor_key_of(row)):
                    return True
                self.filtered += 1
                return False

        clusters, shipped = self.exchange(
            self.dividend_fragments,
            destination_of,
            self.dividend.schema.record_size,
            admit,
        )
        self.shipped += shipped
        return clusters

    def finish(self, quotient: Relation, coordinator_ms: float) -> ParallelDivisionResult:
        return ParallelDivisionResult(
            quotient=quotient,
            strategy=self.strategy_name,
            processors=self.processors,
            local_ms=[node.busy_ms(self.units) for node in self.cluster],
            coordinator_ms=coordinator_ms,
            network=self.network,
            dividend_tuples_shipped=self.shipped,
            dividend_tuples_filtered=self.filtered,
            detail=self.detail,
        )

    strategy_name = "base"


class _QuotientStrategy(_StrategyBase):
    """Divisor replication + quotient partitioning of the dividend."""

    strategy_name = "quotient"

    def run(self) -> ParallelDivisionResult:
        divisor_bytes = self.divisor.schema.record_size
        # Replicate the divisor: every fragment goes to every other node.
        # A duplicated batch appends its fragment a second time at that
        # node; the divisor table eliminates duplicates while building
        # (Section 3.3), so replication stays exactly-once in effect.
        extra_rows: list[list[tuple]] = [[] for _ in range(self.processors)]
        for origin, fragment in enumerate(self.divisor_fragments):
            for destination in range(self.processors):
                copies = self.network.send(
                    origin, destination, len(fragment), divisor_bytes
                )
                if copies > 1 and fragment:
                    extra_rows[destination].extend(fragment * (copies - 1))
        full_divisor = Relation(self.divisor.schema, self.divisor.rows, name="divisor")
        node_divisors = [
            full_divisor
            if not extra
            else Relation(
                self.divisor.schema,
                list(self.divisor.rows) + extra,
                name="divisor",
            )
            for extra in extra_rows
        ]
        # Senders own a bit vector built from the (replicated) divisor.
        nodes = list(self.cluster)
        bit_vector = self.make_filter(
            (tuple(row) for row in full_divisor), nodes[0].ctx
        )
        if bit_vector is not None:
            # Building is charged to node 0 above; the broadcast of the
            # vector itself crosses the network once per other node.
            for destination in range(1, self.processors):
                self.network.send(0, destination, 1, bit_vector.size_bytes)
        quotient_of = projector(self.dividend.schema, self.quotient_names)
        destination_of = lambda row: hash(quotient_of(row)) % self.processors
        clusters = self.ship_dividend(destination_of, bit_vector)
        quotient = Relation(self.dividend.schema.project(self.quotient_names), name=self.name)
        for node, cluster_rows, node_divisor in zip(nodes, clusters, node_divisors):
            local = HashDivision(
                RelationSource(node.ctx, Relation(self.dividend.schema, cluster_rows)),
                RelationSource(node.ctx, node_divisor),
                expected_divisor=len(full_divisor),
            )
            quotient.extend(run_to_relation(local))
        self.detail["divisor_replicas"] = self.processors
        return self.finish(quotient, coordinator_ms=0.0)


class _DivisorStrategy(_StrategyBase):
    """Divisor partitioning + tagged collection phase."""

    strategy_name = "divisor"

    def run(self) -> ParallelDivisionResult:
        nodes = list(self.cluster)
        # Repartition the divisor on its own attributes.  Duplicated
        # batches append twice; the divisor table deduplicates.
        divisor_clusters, _ = self.exchange(
            self.divisor_fragments,
            lambda row: hash(tuple(row)) % self.processors,
            self.divisor.schema.record_size,
        )
        if not any(divisor_clusters):
            # Vacuous division: run locally on node 0.
            ctx = nodes[0].ctx
            local = HashDivision(
                RelationSource(ctx, self.dividend),
                RelationSource(ctx, Relation(self.divisor.schema)),
            )
            return self.finish(run_to_relation(local, name=self.name), 0.0)
        bit_vector = self.make_filter(
            (tuple(row) for row in self.divisor.rows), nodes[0].ctx
        )
        if bit_vector is not None:
            for destination in range(1, self.processors):
                self.network.send(0, destination, 1, bit_vector.size_bytes)
        destination_of = lambda row: hash(self.divisor_key_of(row)) % self.processors
        dividend_clusters = self.ship_dividend(destination_of, bit_vector)
        # Local divisions; quotient tuples are tagged with their phase
        # number.  Per-node tagged outputs are kept separate so the
        # collection phase can be central (all to node 0) or
        # decentralized (repartitioned on the quotient attributes).
        schema = tagged_schema(self.dividend.schema.project(self.quotient_names))
        tagged_per_node: list[list[tuple]] = [[] for _ in range(self.processors)]
        phase = 0
        for node_index, node in enumerate(nodes):
            if not divisor_clusters[node_index]:
                # No divisor values here: any routed dividend tuples
                # match nothing and are discarded without a phase.
                continue
            local = HashDivision(
                RelationSource(
                    node.ctx,
                    Relation(self.dividend.schema, dividend_clusters[node_index]),
                ),
                RelationSource(
                    node.ctx,
                    Relation(self.divisor.schema, divisor_clusters[node_index]),
                ),
                expected_divisor=len(divisor_clusters[node_index]),
            )
            phase_quotient = run_to_relation(local)
            tagged_per_node[node_index] = [
                row + (phase,) for row in phase_quotient
            ]
            phase += 1
        self.detail["phases"] = phase
        self.detail["collection_input_tuples"] = sum(
            len(tagged) for tagged in tagged_per_node
        )
        if self.collection == "central":
            quotient, coordinator_ms = self._central_collection(
                tagged_per_node, schema, phase
            )
        else:
            quotient, coordinator_ms = self._decentralized_collection(
                tagged_per_node, schema, phase
            )
        return self.finish(quotient, coordinator_ms)

    def _central_collection(self, tagged_per_node, schema, phase_count):
        """Ship every tagged cluster to node 0 and divide there."""
        collection_site = 0
        tagged_rows: list[tuple] = []
        for origin, tagged in enumerate(tagged_per_node):
            copies = self.network.send(
                origin, collection_site, len(tagged), schema.record_size
            )
            for _ in range(copies):
                tagged_rows.extend(tagged)
        coordinator_ctx = ExecContext()
        collection = collection_division(
            coordinator_ctx, Relation(schema, tagged_rows), phase_count
        )
        quotient = run_to_relation(collection, name=self.name)
        return quotient, self.units.cpu_cost_ms(coordinator_ctx.cpu)

    def _decentralized_collection(self, tagged_per_node, schema, phase_count):
        """Repartition tagged clusters on the quotient attributes and
        run the collection division on every node ("it is possible to
        decentralize the collection step using quotient partitioning").
        """
        tagged_quotient_of = projector(schema, self.quotient_names)
        shares, _ = self.exchange(
            tagged_per_node,
            lambda row: hash(tagged_quotient_of(row)) % self.processors,
            schema.record_size,
        )
        quotient = Relation(
            self.dividend.schema.project(self.quotient_names), name=self.name
        )
        for node, share in zip(self.cluster, shares):
            collection = collection_division(
                node.ctx, Relation(schema, share), phase_count
            )
            quotient.extend(run_to_relation(collection))
        return quotient, 0.0
