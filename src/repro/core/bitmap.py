"""Word-at-a-time bit maps for hash-division's quotient table.

Each quotient candidate carries "a bit map ... with one bit for each
divisor tuple" (Section 3.1).  The paper notes the algorithm "requires
efficient handling of bit maps, including a scan over a possibly large
bit map ... initializing a bit map and searching for a single zero in a
bit map can be done by inspecting a word at a time" (Section 3.3).

:class:`Bitmap` stores bits in 64-bit words and meters its work in the
cost model's ``Bit`` unit: one per set/test, and one per *word*
inspected during initialization and all-ones scans.
"""

from __future__ import annotations

from array import array
from typing import Sequence

from repro.metering import CpuCounters

WORD_BITS = 64
_FULL_WORD = (1 << WORD_BITS) - 1


class Bitmap:
    """A fixed-size bit map over 64-bit words.

    Args:
        nbits: Number of bits (one per divisor tuple).
        cpu: Optional counter sink; when given, operations charge the
            ``Bit`` unit as described in the module docstring.
            Construction charges one ``Bit`` per word (the "clear bit
            map" of Figure 1, word at a time).
    """

    __slots__ = ("nbits", "_words", "cpu", "_set_count")

    def __init__(self, nbits: int, cpu: CpuCounters | None = None) -> None:
        if nbits < 0:
            raise ValueError(f"nbits must be >= 0, got {nbits}")
        self.nbits = nbits
        self.cpu = cpu
        nwords = (nbits + WORD_BITS - 1) // WORD_BITS
        self._words = array("Q", [0]) * nwords if nwords else array("Q")
        self._set_count = 0
        if cpu is not None:
            cpu.bit_ops += max(1, nwords)

    @property
    def size_bytes(self) -> int:
        """Memory footprint charged to the memory pool (word-aligned)."""
        return max(8, len(self._words) * 8)

    @staticmethod
    def bytes_for(nbits: int) -> int:
        """Footprint of a bitmap of ``nbits`` bits, without building it."""
        nwords = (nbits + WORD_BITS - 1) // WORD_BITS
        return max(8, nwords * 8)

    # -- single-bit operations ----------------------------------------

    def _locate(self, index: int) -> tuple[int, int]:
        if not 0 <= index < self.nbits:
            raise IndexError(f"bit {index} out of range ({self.nbits} bits)")
        return index // WORD_BITS, 1 << (index % WORD_BITS)

    def set(self, index: int) -> bool:
        """Set one bit; returns True when the bit was previously zero.

        The return value is what the early-output variant of
        hash-division tests "whether or not this bit position is set
        already" (Section 3.3) -- one ``Bit`` covers the test-and-set.
        """
        word, mask = self._locate(index)
        if self.cpu is not None:
            self.cpu.bit_ops += 1
        if self._words[word] & mask:
            return False
        self._words[word] |= mask
        self._set_count += 1
        return True

    def test(self, index: int) -> bool:
        """Return the value of one bit (charges one ``Bit``)."""
        word, mask = self._locate(index)
        if self.cpu is not None:
            self.cpu.bit_ops += 1
        return bool(self._words[word] & mask)

    @staticmethod
    def set_many(
        bitmaps: Sequence["Bitmap"], indexes: Sequence[int], cpu: CpuCounters | None
    ) -> list[int]:
        """Set bit ``indexes[i]`` of ``bitmaps[i]`` for each ``i``, in
        order; returns the ``i`` whose set made its map full.

        Charges ``cpu`` one ``Bit`` per set, as :meth:`set` does; a map
        fills on exactly one fresh set, which is where early-output
        hash-division emits its quotient tuple.  The indexes must be in
        range for their maps.
        """
        filled: list[int] = []
        for i, (bitmap, index) in enumerate(zip(bitmaps, indexes)):
            words, word, mask = bitmap._words, index // WORD_BITS, 1 << (index % WORD_BITS)
            if not words[word] & mask:
                words[word] |= mask
                bitmap._set_count += 1
                if bitmap._set_count == bitmap.nbits:
                    filled.append(i)
        if cpu is not None:
            cpu.bit_ops += len(bitmaps)
        return filled

    # -- whole-map operations -------------------------------------------

    @property
    def set_count(self) -> int:
        """Number of one-bits (maintained incrementally, free to read)."""
        return self._set_count

    def all_set(self) -> bool:
        """True when no zero bit remains (Figure 1, step 3).

        Scans word at a time, stopping at the first word containing a
        zero; charges one ``Bit`` per word inspected.
        """
        if self.nbits == 0:
            if self.cpu is not None:
                self.cpu.bit_ops += 1
            return True
        full_words, tail_bits = divmod(self.nbits, WORD_BITS)
        for word_index in range(full_words):
            if self.cpu is not None:
                self.cpu.bit_ops += 1
            if self._words[word_index] != _FULL_WORD:
                return False
        if tail_bits:
            if self.cpu is not None:
                self.cpu.bit_ops += 1
            tail_mask = (1 << tail_bits) - 1
            return self._words[full_words] & tail_mask == tail_mask
        return True

    def __repr__(self) -> str:
        return f"<Bitmap {self._set_count}/{self.nbits} set>"
