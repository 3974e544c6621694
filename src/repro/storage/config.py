"""Storage configuration mirroring the paper's experimental setup.

Section 5.1 fixes the parameters this dataclass defaults to:

* transfer (page) size 8 KB, "except for sort runs where it was 1 KB to
  allow high fan-in",
* initial buffer size 256 KB, of which 100 KB may be used as sort
  buffer,
* the buffer pool "grows dynamically until the main memory pool is
  exhausted".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import StorageError
from repro.storage.stats import IoWeights

KIB = 1024
"""One kibibyte; the paper quotes sizes in KB."""


@dataclass(frozen=True)
class StorageConfig:
    """Physical parameters of the simulated storage stack.

    Attributes:
        page_size: Bytes per data page / I/O transfer (paper: 8 KB).
        sort_run_page_size: Bytes per page of sort-run temp files
            (paper: 1 KB, to allow high merge fan-in).
        buffer_size: Initial buffer-pool budget in bytes (paper: 256 KB).
        memory_limit: Hard ceiling the buffer pool may grow to; the
            paper's pool grows "until the main memory pool is
            exhausted".  Defaults to 4x the initial buffer.
        sort_buffer_size: Bytes of buffer usable by a sort operator for
            run generation (paper: 100 KB of the 256 KB).
        io_weights: Table 3 cost weights for converting I/O counters to
            model milliseconds.
    """

    page_size: int = 8 * KIB
    sort_run_page_size: int = 1 * KIB
    buffer_size: int = 256 * KIB
    memory_limit: int = 1024 * KIB
    sort_buffer_size: int = 100 * KIB
    io_weights: IoWeights = field(default_factory=IoWeights)

    def __post_init__(self) -> None:
        if self.page_size <= 0 or self.sort_run_page_size <= 0:
            raise StorageError("page sizes must be positive")
        if self.buffer_size < self.page_size:
            raise StorageError("buffer must hold at least one page")
        if self.memory_limit < self.buffer_size:
            raise StorageError("memory_limit must be >= buffer_size")
        if self.sort_buffer_size <= 0:
            raise StorageError("sort buffer must be positive")

    @property
    def sort_fan_in(self) -> int:
        """Maximum merge fan-in: sort-run pages that fit in the sort buffer."""
        return max(2, self.sort_buffer_size // self.sort_run_page_size)

    def sort_run_capacity_records(self, record_size: int) -> int:
        """Records of ``record_size`` bytes quick-sortable in one run.

        Run generation fills the sort buffer with records, sorts them
        in place, and writes one run -- so run length is the sort
        buffer capacity.
        """
        if record_size <= 0:
            raise StorageError("record_size must be positive")
        return max(1, self.sort_buffer_size // record_size)
