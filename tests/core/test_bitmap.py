"""Tests for the word-at-a-time bit map."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bitmap import WORD_BITS, Bitmap
from repro.metering import CpuCounters


class TestBasics:
    def test_starts_cleared(self):
        bitmap = Bitmap(10)
        assert bitmap.set_count == 0
        assert not any(bitmap.test(i) for i in range(10))

    def test_set_and_test(self):
        bitmap = Bitmap(10)
        assert bitmap.set(3) is True
        assert bitmap.test(3)
        assert not bitmap.test(4)

    def test_set_returns_false_when_already_set(self):
        bitmap = Bitmap(10)
        bitmap.set(3)
        assert bitmap.set(3) is False
        assert bitmap.set_count == 1

    def test_out_of_range_rejected(self):
        bitmap = Bitmap(10)
        with pytest.raises(IndexError):
            bitmap.set(10)
        with pytest.raises(IndexError):
            bitmap.test(-1)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Bitmap(-1)


class TestAllSet:
    def test_empty_bitmap_is_all_set(self):
        assert Bitmap(0).all_set()

    def test_all_set_detection(self):
        bitmap = Bitmap(5)
        for i in range(5):
            assert not bitmap.all_set()
            bitmap.set(i)
        assert bitmap.all_set()

    def test_word_boundary_sizes(self):
        for size in (1, WORD_BITS - 1, WORD_BITS, WORD_BITS + 1, 3 * WORD_BITS):
            bitmap = Bitmap(size)
            for i in range(size):
                bitmap.set(i)
            assert bitmap.all_set(), size
            # Unsetting is not supported; rebuild with one hole.
            holey = Bitmap(size)
            for i in range(size):
                if i != size // 2:
                    holey.set(i)
            assert not holey.all_set(), size


class TestSizing:
    def test_size_bytes_word_aligned(self):
        assert Bitmap(1).size_bytes == 8
        assert Bitmap(64).size_bytes == 8
        assert Bitmap(65).size_bytes == 16

    def test_bytes_for_matches_instance(self):
        for nbits in (0, 1, 63, 64, 65, 400):
            assert Bitmap.bytes_for(nbits) == Bitmap(nbits).size_bytes


class TestMetering:
    def test_construction_charges_per_word(self):
        cpu = CpuCounters()
        Bitmap(3 * WORD_BITS, cpu=cpu)
        assert cpu.bit_ops == 3

    def test_set_and_test_charge_one_bit_each(self):
        cpu = CpuCounters()
        bitmap = Bitmap(8, cpu=cpu)
        cpu.reset()
        bitmap.set(1)
        bitmap.test(1)
        assert cpu.bit_ops == 2

    def test_all_set_scans_word_at_a_time(self):
        cpu = CpuCounters()
        bitmap = Bitmap(4 * WORD_BITS, cpu=cpu)
        for i in range(4 * WORD_BITS):
            bitmap.set(i)
        cpu.reset()
        bitmap.all_set()
        assert cpu.bit_ops == 4  # one per word, not one per bit

    def test_all_set_stops_at_first_zero_word(self):
        cpu = CpuCounters()
        bitmap = Bitmap(4 * WORD_BITS, cpu=cpu)
        cpu.reset()
        bitmap.all_set()
        assert cpu.bit_ops == 1  # first word already has a zero

    def test_unmetered_bitmap_charges_nothing(self):
        bitmap = Bitmap(100)
        bitmap.set(0)
        bitmap.all_set()
        assert bitmap.cpu is None


@given(
    sizes=st.lists(st.integers(1, 150), min_size=1, max_size=4),
    sets=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 149)), max_size=120),
)
@settings(max_examples=150, deadline=None)
def test_set_many_matches_set_one_at_a_time(sizes, sets):
    """Bitmap.set_many sets the bits, counts and charges of a set()
    loop, and names the sets that fill a map."""
    pairs = [(m % len(sizes), i % sizes[m % len(sizes)]) for m, i in sets]
    one_cpu, many_cpu = CpuCounters(), CpuCounters()
    one = [Bitmap(size, cpu=one_cpu) for size in sizes]
    many = [Bitmap(size, cpu=many_cpu) for size in sizes]
    filled = []
    for n, (m, i) in enumerate(pairs):
        if one[m].set(i) and one[m].set_count == one[m].nbits:
            filled.append(n)
    assert Bitmap.set_many([many[m] for m, _ in pairs], [i for _, i in pairs], many_cpu) == filled
    assert many_cpu == one_cpu
    for a, b in zip(one, many):
        assert a.set_count == b.set_count
        assert [a.test(i) for i in range(a.nbits)] == [b.test(i) for i in range(b.nbits)]
