"""Tests for the bucket-chained hash table."""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import HashTableOverflowError, MemoryPoolError
from repro.executor.hash_table import ChainedHashTable
from repro.metering import CpuCounters
from repro.obs.span import Tracer
from repro.storage.memory import (
    BUCKET_HEADER_BYTES,
    CHAIN_ELEMENT_BYTES,
    MemoryPool,
)


def make_table(buckets=8, entry_bytes=8, budget=None):
    cpu = CpuCounters()
    memory = MemoryPool(budget)
    table = ChainedHashTable(cpu, memory, buckets, entry_bytes, tag="t")
    return table, cpu, memory


def put(table, key, payload):
    """Insert a new key through the table's one writer."""
    _, inserted = table.find_or_insert(key, lambda: payload)
    assert inserted


class TestBasics:
    def test_insert_and_find(self):
        table, _, _ = make_table()
        put(table, (1,), "a")
        assert table.find((1,)) == "a"
        assert table.find((2,)) is None
        assert len(table) == 1

    def test_find_or_insert(self):
        table, _, _ = make_table()
        payload, inserted = table.find_or_insert((1,), lambda: [0])
        assert inserted
        payload[0] += 1
        again, inserted = table.find_or_insert((1,), lambda: [0])
        assert not inserted
        assert again[0] == 1
        assert len(table) == 1

    def test_items_covers_all_entries(self):
        table, _, _ = make_table(buckets=4)
        for i in range(20):
            put(table, (i,), i)
        assert sorted(table.items()) == [((i,), i) for i in range(20)]

    def test_chains_handle_collisions(self):
        table, _, _ = make_table(buckets=1)
        for i in range(10):
            put(table, (i,), i)
        assert all(table.find((i,)) == i for i in range(10))
        assert table.average_chain_length == 10.0

    def test_buckets_for_targets_hbs_two(self):
        # hbs = 2 (Section 4.6): bucket count ~ entries / 2, power of 2.
        assert ChainedHashTable.buckets_for(64) == 32
        assert ChainedHashTable.buckets_for(100) == 64
        assert ChainedHashTable.buckets_for(0) == 16

    def test_bucket_count_must_be_positive(self):
        with pytest.raises(ValueError):
            make_table(buckets=0)


class TestMetering:
    def test_insert_charges_one_hash(self):
        table, cpu, _ = make_table()
        put(table, (1,), "a")
        assert cpu.hashes == 1
        assert cpu.comparisons == 0

    def test_find_charges_hash_plus_chain_comparisons(self):
        table, cpu, _ = make_table(buckets=1)
        for i in range(4):
            put(table, (i,), i)
        cpu.reset()
        table.find((3,))
        assert cpu.hashes == 1
        assert cpu.comparisons == 4  # walked the whole chain

    def test_miss_walks_entire_chain(self):
        table, cpu, _ = make_table(buckets=1)
        for i in range(4):
            put(table, (i,), i)
        cpu.reset()
        table.find((99,))
        assert cpu.comparisons == 4


class TestMemoryCharging:
    def test_creation_charges_bucket_array(self):
        _, _, memory = make_table(buckets=8)
        assert memory.bytes_in_use == 8 * BUCKET_HEADER_BYTES

    def test_insert_charges_chain_element_plus_entry(self):
        table, _, memory = make_table(buckets=8, entry_bytes=16)
        base = memory.bytes_in_use
        put(table, (1,), "x")
        assert memory.bytes_in_use == base + CHAIN_ELEMENT_BYTES + 16

    def test_overflow_raises_hash_table_overflow(self):
        table, _, _ = make_table(buckets=4, entry_bytes=64, budget=256)
        with pytest.raises(HashTableOverflowError):
            for i in range(100):
                put(table, (i,), i)

    def test_creation_overflow(self):
        with pytest.raises(HashTableOverflowError):
            make_table(buckets=1024, budget=64)

    def test_free_releases_everything(self):
        table, _, memory = make_table()
        for i in range(10):
            put(table, (i,), i)
        table.free()
        assert memory.bytes_in_use == 0

    def test_free_is_idempotent_and_blocks_use(self):
        table, _, _ = make_table()
        table.free()
        table.free()
        with pytest.raises(HashTableOverflowError):
            table.find_or_insert((1,), lambda: 1)

    def test_two_tables_free_independently(self):
        cpu = CpuCounters()
        memory = MemoryPool()
        a = ChainedHashTable(cpu, memory, 4, 8, tag="a")
        b = ChainedHashTable(cpu, memory, 4, 8, tag="b")
        put(a, (1,), 1)
        put(b, (1,), 1)
        a.free()
        assert b.find((1,)) == 1
        assert memory.bytes_in_use > 0
        b.free()
        assert memory.bytes_in_use == 0


class TestBatchProbes:
    def test_find_many_charges_positions_and_chain_lengths(self):
        table, cpu, _ = make_table(buckets=1)
        for i in range(4):
            put(table, (i,), i)
        cpu.reset()
        assert table.find_many([(0,), (3,), (9,), (3,)]) == [0, 3, None, 3]
        assert cpu.hashes == 4
        # Hits at positions 1, 4 and 4; the miss walks all 4 entries.
        assert cpu.comparisons == 1 + 4 + 4 + 4

    def test_find_or_insert_many_reports_new_keys_in_first_occurrence_order(self):
        table, _, _ = make_table()
        put(table, (5,), "old")
        payloads, fresh = table.find_or_insert_many(
            [(7,), (5,), (2,), (7,)], itertools.count().__next__
        )
        assert fresh == [(7,), (2,)]
        assert payloads == [0, "old", 1, 0]

    def test_refund_takes_back_find_many(self):
        table, cpu, _ = make_table(buckets=2)
        for i in range(5):
            put(table, (i,), i)
        before = cpu.snapshot()
        keys = [(1,), (8,), (4,), (4,)]
        table.find_many(keys)
        table.refund_probes(keys)
        assert cpu == before

    def test_membership_charges_nothing(self):
        table, cpu, _ = make_table()
        put(table, (1,), 1)
        cpu.reset()
        assert (1,) in table and (2,) not in table
        assert cpu == CpuCounters()


def _payload_factory(table, payload_bytes, allocates):
    """Numbered payloads with ``payload_bytes`` each, like bit maps:
    allocated by the factory itself for the per-key loop, where a
    failure counts as an overflow of ``table``, and booked by the table
    (``payload_allocation``) for the batch kernel."""
    numbers = itertools.count()

    def make():
        if allocates:
            try:
                table.memory.allocate(payload_bytes, tag="payloads")
            except MemoryPoolError as exc:
                raise table._overflow(exc, site="bitmap") from exc
        return [next(numbers)]

    return make


def _run(keys, cuts, finds, buckets, budget, payload_bytes, batched):
    """Probe ``keys`` cut into batches, with the batch kernels or key by
    key; returns everything a caller can observe, up to the first
    failure."""
    cpu, memory = CpuCounters(), MemoryPool(budget)
    table = ChainedHashTable(cpu, memory, buckets, 8, tag="t")
    make = _payload_factory(table, payload_bytes, allocates=not batched)
    results, failed = [], None
    bounds = list(itertools.accumulate(cuts))
    batches = [keys[a:b] for a, b in zip([0] + bounds, bounds + [len(keys)])]
    for batch, find in zip(batches, itertools.cycle(finds)):
        try:
            if batched and find:
                results.append(table.find_many(batch))
            elif batched:
                results.append(
                    table.find_or_insert_many(batch, make, (payload_bytes, "payloads"))[0]
                )
            elif find:
                results.append([table.find(key) for key in batch])
            else:
                out = []
                for key in batch:
                    failed = key
                    out.append(table.find_or_insert(key, make)[0])
                failed = None
                results.append(out)
        except HashTableOverflowError:
            if batched:
                failed = next(key for key in batch if key not in table)
            break
    # Every payload handed out is the one the table holds for its key.
    held = dict(table.items())
    for batch, out in zip(batches, results):
        assert all(p is None or p is held[key] for key, p in zip(batch, out))
    return (
        results,
        failed,
        list(table.items()),
        cpu,
        memory.bytes_in_use,
        table.overflows,
    )


@given(
    keys=st.lists(st.tuples(st.integers(0, 25)), max_size=80),
    cuts=st.lists(st.integers(1, 12), max_size=10),
    finds=st.lists(st.booleans(), min_size=1, max_size=4),
    buckets=st.integers(1, 8),
    spare=st.one_of(st.none(), st.integers(0, 2000)),
    payload_bytes=st.sampled_from([0, 0, 24]),
)
@example(
    keys=[(i % 13,) for i in range(60)],
    cuts=[],
    finds=[False],
    buckets=4,
    spare=None,
    payload_bytes=0,
).via("one giant batch into an empty table")
@example(
    keys=[(i % 7,) for i in range(30)],
    cuts=[1] * 29,
    finds=[False, True],
    buckets=2,
    spare=900,
    payload_bytes=24,
).via("batches of one key, overflowing")
@example(
    keys=[(0,), (1,), (0,), (2,), (1,)],
    cuts=[],
    finds=[False],
    buckets=1,
    spare=2 * (CHAIN_ELEMENT_BYTES + 8),
    payload_bytes=0,
).via("an insert fails after a hit in its batch")
@settings(max_examples=300, deadline=None)
def test_batch_kernels_match_key_at_a_time(keys, cuts, finds, buckets, spare, payload_bytes):
    """find_many / find_or_insert_many give the payloads, items() order,
    counters, bytes and overflow of a key-by-key find / find_or_insert
    loop, also when an insert fails part way through a batch."""
    budget = None if spare is None else buckets * BUCKET_HEADER_BYTES + spare
    args = (keys, cuts, finds, buckets, budget, payload_bytes)
    assert _run(*args, batched=True) == _run(*args, batched=False)


#: Keys with repeats (nine distinct), and the bit map each new key's
#: payload is charged, as in hash-division's quotient table.
REPEATING_KEYS = [(k * 7 % 9,) for k in range(30)]
BITMAP = (16, "payloads")
CHAIN = CHAIN_ELEMENT_BYTES + 8


def _fill(budget, batched):
    """Insert REPEATING_KEYS with bit-map payloads into a four-bucket
    table, in one batch or key by key through find_or_insert; returns
    everything a caller can observe after the first failure."""
    cpu, memory, tracer = CpuCounters(), MemoryPool(budget), Tracer()
    table = ChainedHashTable(cpu, memory, 4, 8, tag="t", tracer=tracer)
    make = _payload_factory(table, BITMAP[0], allocates=not batched)
    error = None
    try:
        if batched:
            table.find_or_insert_many(REPEATING_KEYS, make, BITMAP)
        else:
            for key in REPEATING_KEYS:
                table.find_or_insert(key, make)
    except HashTableOverflowError as exc:
        error = str(exc)
    overflows = tracer.metrics.to_dict().get("repro_hash_table_overflows_total")

    def by_tag(tagged):
        # The table's tag carries a process-wide instance number.
        return {("t" if tag == table.tag else tag): size for tag, size in tagged.items()}

    stats = memory.stats
    return (
        error and error.replace(table.tag, "t"),
        cpu,
        table.overflows,
        overflows,
        list(table.items()),
        memory.bytes_in_use,
        by_tag(memory.live_tags),
        (stats.peak_bytes, stats.total_allocations, by_tag(stats.by_tag)),
    )


@pytest.mark.parametrize("site", ["chain-element", "bitmap"])
@pytest.mark.parametrize("i", range(9))
def test_batch_insert_failing_at_key_i_matches_per_key_loop(i, site):
    """Key i's chain element, or its bit map, is the first allocation
    that does not fit.  The batch leaves the Hash and Comp, the table's
    overflow count, the overflow metric, the entries and the pool as
    the per-key loop does, and either failure counts as one overflow of
    the table."""
    before = 4 * BUCKET_HEADER_BYTES + i * (CHAIN + BITMAP[0])
    budget = before + (CHAIN - 1 if site == "chain-element" else CHAIN + BITMAP[0] - 1)
    expected = _fill(budget, batched=False)
    assert expected[0] is not None and len(expected[4]) == i
    assert expected[2] == 1
    assert _fill(budget, batched=True) == expected


def test_batch_insert_within_budget_matches_per_key_loop():
    assert _fill(None, batched=True) == _fill(None, batched=False)
