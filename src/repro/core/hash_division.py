"""Hash-division -- the paper's new algorithm (Section 3, Figure 1).

Two hash tables:

* the **divisor table** maps each distinct divisor tuple to a unique
  integer *divisor number* (step 1; duplicates in the divisor are
  eliminated on the fly),
* the **quotient table** maps each quotient candidate (the dividend
  tuple projected on the quotient attributes) to a *bit map* with one
  bit per divisor tuple (step 2; a dividend tuple that matches no
  divisor tuple is discarded immediately, and dividend duplicates are
  ignored automatically because they map to the same bit in the same
  bit map),
* the quotient is the set of candidates whose bit map contains no zero
  (step 3).

Variants from the paper's discussion (Section 3.3):

* ``early_output=True`` -- the second observation: keep a counter per
  candidate; when a fresh bit raises the counter to the divisor count,
  emit the quotient tuple immediately, making the operator a streaming
  producer for dataflow systems.
* ``mode="counter"`` -- the sixth observation: "If duplicates are known
  not to be a problem, hash-division could be modified to employ
  counters instead of divisor numbers and bit maps."  Cheaper per
  tuple, but dividend duplicates are double-counted (the tests
  demonstrate exactly that failure).

Division convention: an empty divisor yields every distinct quotient
candidate (the universal quantifier over an empty set is vacuously
true), matching the algebraic identity.  Figure 1 read literally would
return nothing because no dividend tuple finds a divisor match; the
implementation special-cases ``divisor count == 0`` to keep all
algorithms and oracles in agreement.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import DivisionError, ExecutionError, HashTableOverflowError, MemoryPoolError
from repro.core.bitmap import Bitmap
from repro.executor.hash_table import ChainedHashTable
from repro.executor.iterator import QueryIterator, drain
from repro.relalg.algebra import division_attribute_split
from repro.relalg.tuples import Row, projector

import itertools

#: Per-instance tags for quotient-table bit maps, so two concurrently
#: open operators on one context never free each other's maps.
_bitmap_tags = itertools.count()

_MODES = ("bitmap", "counter")


class HashDivision(QueryIterator):
    """The hash-division operator.

    Args:
        dividend: Input producing dividend tuples; its schema must
            contain every divisor attribute plus at least one quotient
            attribute.
        divisor: Input producing divisor tuples.
        early_output: Emit each quotient tuple as soon as its bit map
            completes (streaming producer) instead of scanning the
            quotient table after the dividend is exhausted.
        mode: ``"bitmap"`` (duplicate-safe, the algorithm of Figure 1)
            or ``"counter"`` (Section 3.3's cheaper variant that
            assumes a duplicate-free dividend).
        expected_divisor: Sizing hint for the divisor table's bucket
            array (defaults to sizing after the divisor is consumed).
        expected_quotient: Sizing hint for the quotient table.
    """

    def __init__(
        self,
        dividend: QueryIterator,
        divisor: QueryIterator,
        early_output: bool = False,
        mode: str = "bitmap",
        expected_divisor: int = 0,
        expected_quotient: int = 0,
    ) -> None:
        if dividend.ctx is not divisor.ctx:
            raise ExecutionError("division inputs must share one execution context")
        if mode not in _MODES:
            raise DivisionError(f"unknown hash-division mode {mode!r}; expected {_MODES}")
        quotient_names, divisor_names = division_attribute_split(dividend.schema, divisor.schema)
        super().__init__(dividend.ctx, dividend.schema.project(quotient_names))
        self.dividend = dividend
        self.divisor = divisor
        self.early_output = early_output
        self.mode = mode
        self.expected_divisor = expected_divisor
        self.expected_quotient = expected_quotient
        self.quotient_names = quotient_names
        self.divisor_names = divisor_names
        self._divisor_of = projector(dividend.schema, divisor_names)
        self._quotient_of = projector(dividend.schema, quotient_names)
        self._divisor_table: ChainedHashTable | None = None
        self._quotient_table: ChainedHashTable | None = None
        self._divisor_count = 0
        self._output = None
        self._bitmap_tag = f"quotient-bitmaps#{next(_bitmap_tags)}"

    # -- protocol ----------------------------------------------------------

    def _open(self) -> None:
        tracer = self.ctx.tracer
        try:
            with tracer.span("hash_division.build_divisor_table"):
                self._build_divisor_table()
            tracer.count(
                "repro_division_divisor_tuples_total",
                self._divisor_count,
                algorithm="hash-division",
            )
            self._make_quotient_table()
            if self.early_output:
                # Step 2 runs lazily as output is pulled; the dividend
                # is opened here so the operator streams.
                self.dividend.open()
                self._output = None
            else:
                with tracer.span("hash_division.consume_dividend") as span:
                    self.dividend.open()
                    try:
                        for batch in iter(self.dividend.next_batch, []):
                            self._consume(batch)
                    finally:
                        self.dividend.close()
                    span.annotate(
                        dividend_tuples=self.dividend.rows_produced,
                        quotient_candidates=len(self._quotient_table),
                    )
                tracer.count(
                    "repro_division_quotient_candidates_total",
                    len(self._quotient_table),
                    algorithm="hash-division",
                )
                self._free_divisor_table()
                self._output = self._scan_quotient_table()
        except MemoryPoolError as exc:
            # A raw pool failure mid-build (e.g. an injected memory
            # fault firing outside the hash table's own conversion
            # sites) degrades exactly like a hash-table overflow, so
            # the partitioned fallback can take over instead of the
            # query aborting.
            self._release_tables()
            raise HashTableOverflowError(
                f"memory pool exhausted during hash-division build: {exc}"
            ) from exc
        except BaseException:
            # Release everything so an overflow driver can retry with
            # partitioning against the same memory pool -- and so any
            # other failure during open leaves no charged table behind
            # and no child input open (each build/consume step closes
            # its own input on the way out).
            self._release_tables()
            raise

    def _next_batch(self) -> list[Row]:
        if not self.early_output:
            assert self._output is not None
            return list(self._output)
        # A quotient tuple is emitted when the dividend tuple that
        # completes it arrives, so the dividend is taken a tuple at a
        # time: the first output never waits for the rest of a batch.
        dividend = self.dividend
        while True:
            row = dividend.next()
            if row is None:
                return []
            emitted = self._consume((row,))
            if emitted:
                return emitted

    def _close(self) -> None:
        if self.early_output:
            self.dividend.close()
        self._release_tables()
        self._output = None
        self.ctx.tracer.count(
            "repro_division_quotient_tuples_total",
            self.rows_produced,
            algorithm="hash-division",
        )

    def _release_tables(self) -> None:
        self._free_divisor_table()
        if self._quotient_table is not None:
            self._quotient_table.free()
            self.ctx.memory.free_all(tag=self._bitmap_tag)
            self._quotient_table = None

    def children(self) -> tuple[QueryIterator, ...]:
        return (self.dividend, self.divisor)

    def describe(self) -> str:
        flags = [self.mode]
        if self.early_output:
            flags.append("early-output")
        return f"HashDivision(÷{','.join(self.divisor_names)}; {' '.join(flags)})"

    # -- step 1: divisor table ------------------------------------------------

    def _build_divisor_table(self) -> None:
        """Insert all divisor tuples, numbering them 0..n-1.

        Duplicates in the divisor are "eliminated while building the
        divisor table" (Section 3.3): a tuple already present is not
        inserted and does not advance the divisor count.
        """
        self.divisor.open()
        try:
            rows = drain(self.divisor)
        finally:
            self.divisor.close()
        expected = self.expected_divisor or max(1, len(rows))
        table = ChainedHashTable(
            self.ctx.cpu,
            self.ctx.memory,
            bucket_count=ChainedHashTable.buckets_for(expected),
            entry_bytes=self.divisor.schema.record_size + 8,
            tag="divisor-table",
            tracer=self.ctx.tracer,
        )
        # Assign before filling so an overflow mid-build is released by
        # the _open() cleanup path rather than leaked.
        self._divisor_table = table
        # Each insert numbers its tuple with the next divisor number.
        table.find_or_insert_many(list(map(tuple, rows)), itertools.count().__next__)
        self._divisor_count = len(table)

    def _free_divisor_table(self) -> None:
        if self._divisor_table is not None:
            self._divisor_table.free()
            self._divisor_table = None

    # -- step 2: quotient table --------------------------------------------------

    def _make_quotient_table(self) -> None:
        expected = self.expected_quotient or 64
        self._quotient_table = ChainedHashTable(
            self.ctx.cpu,
            self.ctx.memory,
            bucket_count=ChainedHashTable.buckets_for(expected),
            entry_bytes=self.schema.record_size + 8,
            tag="quotient-table",
            tracer=self.ctx.tracer,
        )

    def _consume(self, rows: Sequence[Row]) -> list[Row]:
        """Step 2 over dividend tuples, in order; returns the quotient
        tuples the early-output variant completes (always ``[]``
        without early output).

        The batch is probed with the tables' batch kernels and its bits
        set with :meth:`Bitmap.set_many`, which charge what a
        tuple-at-a-time loop would.  When a quotient-table insert
        fails, exactly the charges that loop had made when it failed
        stay booked: the divisor probes of later tuples are refunded,
        and the bits of earlier tuples charged.
        """
        quotient_table = self._quotient_table
        assert self._divisor_table is not None and quotient_table is not None
        divisor_count, early_output = self._divisor_count, self.early_output
        if divisor_count == 0:
            # Vacuous division: no divisor to find, no bit to set or
            # count; every candidate is complete once it exists.
            keys = list(map(self._quotient_of, rows))
            _, fresh = quotient_table.find_or_insert_many(
                keys, self._new_candidate, self._candidate_allocation
            )
            return fresh if early_output else []
        divisor_keys = list(map(self._divisor_of, rows))
        numbers = self._divisor_table.find_many(divisor_keys)
        matched = None
        if None in numbers:
            # Tuples that match no divisor tuple are discarded.
            matched = [i for i, number in enumerate(numbers) if number is not None]
            rows = [rows[i] for i in matched]
            numbers = [numbers[i] for i in matched]
        keys = list(map(self._quotient_of, rows))
        try:
            payloads, _ = quotient_table.find_or_insert_many(
                keys, self._new_candidate, self._candidate_allocation
            )
        except Exception:
            done = sum(1 for _ in itertools.takewhile(quotient_table.__contains__, keys))
            if done < len(keys):
                failed = done if matched is None else matched[done]
                self._divisor_table.refund_probes(divisor_keys[failed + 1 :])
                if self.mode == "bitmap":
                    self.ctx.cpu.bit_ops += done
            raise
        if self.mode == "bitmap":
            completed = Bitmap.set_many(payloads, numbers, self.ctx.cpu)
            return [keys[i] for i in completed] if early_output else []
        # Counter mode: a candidate completes when its count reaches
        # the divisor count, which it passes exactly once.
        emitted: list[Row] = []
        for key, counter in zip(keys, payloads):
            counter[0] += 1
            if counter[0] == divisor_count and early_output:
                emitted.append(key)
        return emitted

    def _new_candidate(self):
        """Payload for a fresh quotient candidate.

        Bitmap mode: a :class:`Bitmap`.  Counter mode: ``[count]``.  The
        quotient table books a bit map's bytes under its own tag
        (:attr:`_candidate_allocation`) so overflow accounting sees them.
        """
        if self.mode == "counter":
            return [0]
        return Bitmap(self._divisor_count, cpu=self.ctx.cpu)

    @property
    def _candidate_allocation(self) -> tuple[int, str] | None:
        """``(size, tag)`` of a fresh candidate's bit map, if any."""
        if self.mode == "counter":
            return None
        return Bitmap.bytes_for(self._divisor_count), self._bitmap_tag

    # -- step 3: scan the quotient table --------------------------------------------

    def _scan_quotient_table(self):
        assert self._quotient_table is not None
        if self.mode == "counter":
            target = self._divisor_count
            return (
                key
                for key, payload in self._quotient_table.items()
                if payload[0] == target
            )
        return (
            key for key, bitmap in self._quotient_table.items() if bitmap.all_set()
        )

