"""The buffer manager.

Models the paper's buffer pool (Section 5.1):

* pages are *fixed* in the pool and accessed by memory address (here, a
  ``memoryview``); copying is avoided,
* an *unfix* call indicates whether the page can be replaced
  immediately (``discard=True``) or should be inserted into an LRU
  list,
* the pool "grows dynamically until the main memory pool is exhausted,
  and shrinks as buffer slots are unfixed": fixing more pages than the
  configured buffer size is allowed up to ``memory_limit``; once pages
  are unfixed, the pool evicts back down to its configured size,
* *virtual devices* hold intermediate results: their pages live only in
  the pool, are never written to disk, and disappear once unfixed and
  evicted.

Physical I/O happens only on a buffer miss (read) and on eviction or
flush of a dirty page (write), which is how the experimental runs where
"the entire dividend relation fits into the buffer" (Section 5.2)
naturally incur no sort I/O in the Table 4 reproduction.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import BufferPoolError, StorageError
from repro.storage.config import StorageConfig
from repro.storage.disk import SimulatedDisk

PageKey = tuple[str, int]
"""(device name, page number)"""


@dataclass
class _Frame:
    data: bytearray
    fix_count: int = 0
    dirty: bool = False


@dataclass
class _VirtualDevice:
    """A device with no backing disk; pages exist only in the pool."""

    name: str
    page_size: int
    next_page: int = 0
    live_pages: set = field(default_factory=set)


@dataclass
class DeviceBufferCounters:
    """Buffer-pool activity against one device."""

    fixes: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def hits(self) -> int:
        """Fixes served from the pool without physical I/O."""
        return self.fixes - self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of fixes served without physical I/O."""
        return 0.0 if self.fixes == 0 else 1.0 - self.misses / self.fixes


@dataclass
class BufferPoolStats:
    """Logical access statistics (hits/misses), for reporting only.

    Global counters plus a per-device breakdown (``by_device``), so the
    ``repro_buffer_*`` metrics can say not just *that* the pool missed
    but *against which device* -- the paper's Table 4 analysis hinges
    on whether the dividend (``data``) or the sort runs (``runs``)
    caused the physical I/O.
    """

    fixes: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    by_device: dict = field(default_factory=dict)

    @property
    def hits(self) -> int:
        """Fixes served from the pool without physical I/O."""
        return self.fixes - self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of fixes served without physical I/O."""
        return 0.0 if self.fixes == 0 else 1.0 - self.misses / self.fixes

    def device(self, name: str) -> DeviceBufferCounters:
        """Counters for one device (created on first use)."""
        counters = self.by_device.get(name)
        if counters is None:
            counters = self.by_device[name] = DeviceBufferCounters()
        return counters


class BufferPool:
    """Fix/unfix buffer manager over one or more simulated devices.

    Args:
        config: Sizes and growth limits.
    """

    def __init__(self, config: StorageConfig | None = None) -> None:
        self.config = config or StorageConfig()
        self.stats = BufferPoolStats()
        #: Optional observer hook ``callable(event, device, page_no)``
        #: invoked on ``"fix"`` / ``"miss"`` / ``"unfix"`` /
        #: ``"eviction"`` / ``"writeback"`` events.  ``None`` (the
        #: default) costs one comparison per event site; see
        #: :func:`repro.obs.metrics.observe_buffer_pool` for a wiring
        #: that streams events into a metrics registry.
        self.observer = None
        self._disks: dict[str, SimulatedDisk] = {}
        self._virtuals: dict[str, _VirtualDevice] = {}
        self._frames: dict[PageKey, _Frame] = {}
        self._lru: OrderedDict[PageKey, None] = OrderedDict()
        self._bytes_in_use = 0

    # -- accounting helpers --------------------------------------------

    def _count_fix(self, device: str, page_no: int) -> None:
        self.stats.fixes += 1
        self.stats.device(device).fixes += 1
        if self.observer is not None:
            self.observer("fix", device, page_no)

    def _count_miss(self, device: str, page_no: int) -> None:
        self.stats.misses += 1
        self.stats.device(device).misses += 1
        if self.observer is not None:
            self.observer("miss", device, page_no)

    def _count_eviction(self, device: str, page_no: int) -> None:
        self.stats.evictions += 1
        self.stats.device(device).evictions += 1
        if self.observer is not None:
            self.observer("eviction", device, page_no)

    def _count_writeback(self, device: str, page_no: int) -> None:
        self.stats.writebacks += 1
        self.stats.device(device).writebacks += 1
        if self.observer is not None:
            self.observer("writeback", device, page_no)

    # -- device registry -----------------------------------------------

    def register_device(self, disk: SimulatedDisk) -> SimulatedDisk:
        """Attach a simulated disk so its pages can be buffered."""
        if disk.name in self._disks or disk.name in self._virtuals:
            raise StorageError(f"device name {disk.name!r} already registered")
        self._disks[disk.name] = disk
        return disk

    def create_virtual_device(self, name: str, page_size: int | None = None) -> str:
        """Create a virtual (pool-only) device and return its name."""
        if name in self._disks or name in self._virtuals:
            raise StorageError(f"device name {name!r} already registered")
        self._virtuals[name] = _VirtualDevice(
            name, page_size or self.config.page_size
        )
        return name

    def is_virtual(self, device: str) -> bool:
        """True when ``device`` is a virtual (pool-only) device."""
        return device in self._virtuals

    def page_size_of(self, device: str) -> int:
        """Page size of a registered device."""
        if device in self._disks:
            return self._disks[device].page_size
        if device in self._virtuals:
            return self._virtuals[device].page_size
        raise StorageError(f"unknown device {device!r}")

    # -- memory accounting -----------------------------------------------

    @property
    def bytes_in_use(self) -> int:
        """Bytes of pool memory currently holding page frames."""
        return self._bytes_in_use

    @property
    def over_target(self) -> bool:
        """True when the pool has grown past its configured buffer size,
        so the next unfix shrinks it (evicting unfixed frames)."""
        return self._bytes_in_use > self.config.buffer_size

    def fixed_page_count(self) -> int:
        """Frames with a non-zero fix count."""
        return sum(1 for f in self._frames.values() if f.fix_count > 0)

    # -- page lifecycle --------------------------------------------------

    def new_page(self, device: str) -> tuple[int, memoryview]:
        """Allocate a fresh page on ``device``, fixed and zeroed.

        Returns ``(page_no, writable view)``.  The frame starts dirty
        for disk devices so it reaches the disk on eviction or flush.
        """
        page_size = self.page_size_of(device)
        if device in self._virtuals:
            vdev = self._virtuals[device]
            page_no = vdev.next_page
            vdev.next_page += 1
            vdev.live_pages.add(page_no)
            frame = self._install(device, page_no, bytearray(page_size))
        else:
            page_no = self._disks[device].allocate_page()
            frame = self._install(device, page_no, bytearray(page_size))
            frame.dirty = True
        frame.fix_count = 1
        self._count_fix(device, page_no)
        return page_no, memoryview(frame.data)

    def fix_new(self, device: str, page_no: int) -> memoryview:
        """Fix a freshly allocated disk page without reading it.

        The caller guarantees ``page_no`` was just allocated (its disk
        contents are zeroed), so installing a zeroed frame is
        equivalent to -- and cheaper than -- a physical read.
        """
        key = (device, page_no)
        if key in self._frames:
            return self.fix(device, page_no)
        if device in self._virtuals:
            raise StorageError("fix_new is for disk devices; virtual pages use new_page")
        self._count_fix(device, page_no)
        frame = self._install(device, page_no, bytearray(self.page_size_of(device)))
        frame.fix_count = 1
        return memoryview(frame.data)

    def write_new_page(
        self, device: str, page_no: int, blank: bytes, image: bytearray
    ) -> bool:
        """Put a freshly allocated disk page in the pool, holding ``image``.

        One call for what :meth:`fix_new`, writing ``blank`` (the page
        formatted empty) into it, ``unfix(dirty=True)``, :meth:`fix`,
        writing ``image`` over it and ``unfix(dirty=True)`` book: the
        same fixes, evictions and write-backs of other frames, observer
        events, LRU order and, if an eviction fails, the same frame
        left behind.  The pool keeps ``image`` as the frame.

        Returns ``False`` when every other frame is fixed, so the first
        unfix evicts the page itself: it is written back as ``blank``,
        ``image`` is dropped, and the caller's next :meth:`fix` misses,
        as on the per-call path.
        """
        key = (device, page_no)
        disk = self._disks.get(device)
        frame = self._frames.get(key)
        if disk is None or len(image) != disk.page_size or (frame and frame.fix_count):
            raise BufferPoolError(f"page ({device!r}, {page_no}) is not a fresh disk page")
        self._count_fix(device, page_no)
        if frame is None:
            frame = self._install(device, page_no, bytearray(blank))
        else:
            # Left formatted by an append whose eviction failed, as
            # fix_new leaves it: fix_new fixes it again.
            self._lru.pop(key, None)
        frame.dirty = True
        observer = self.observer
        if observer is not None:
            observer("unfix", device, page_no)
        lru = self._lru
        lru[key] = None
        target = self.config.buffer_size
        while self._bytes_in_use > target and lru:
            if next(iter(lru)) == key:
                self._shrink_to_target()
                return False
            self._evict_one()
        # The fix that fills the page hits, and its unfix leaves the
        # page last in the LRU list with the pool at its target size.
        self._count_fix(device, page_no)
        frame.data = image
        if observer is not None:
            observer("unfix", device, page_no)
        return True

    def fix(self, device: str, page_no: int) -> memoryview:
        """Fix a page in the pool, reading it from disk on a miss.

        Returns a writable view of the frame.  Call :meth:`unfix`
        exactly once per successful fix.
        """
        key = (device, page_no)
        self._count_fix(device, page_no)
        frame = self._frames.get(key)
        if frame is not None:
            frame.fix_count += 1
            if key in self._lru:
                del self._lru[key]
            return memoryview(frame.data)
        self._count_miss(device, page_no)
        if device in self._virtuals:
            vdev = self._virtuals[device]
            if page_no in vdev.live_pages:
                raise BufferPoolError(
                    f"virtual page ({device!r}, {page_no}) was evicted and is lost"
                )
            raise BufferPoolError(f"unknown virtual page ({device!r}, {page_no})")
        if device not in self._disks:
            raise StorageError(f"unknown device {device!r}")
        data = self._disks[device].read_page(page_no)
        frame = self._install(device, page_no, data)
        frame.fix_count = 1
        return memoryview(frame.data)

    def unfix(self, device: str, page_no: int, dirty: bool = False, discard: bool = False) -> None:
        """Release one fix on a page.

        Args:
            device: Device name.
            page_no: Page number.
            dirty: Mark the frame modified so eviction writes it back
                (ignored for virtual devices, which have no backing).
            discard: Hint that the page "can be replaced immediately"
                (Section 5.1): once its fix count reaches zero the frame
                is dropped at once -- written back first if dirty and
                disk-backed, simply forgotten if virtual.
        """
        key = (device, page_no)
        frame = self._frames.get(key)
        if frame is None:
            raise BufferPoolError(f"page ({device!r}, {page_no}) is not fixed")
        if frame.fix_count <= 0:
            # The frame is resident but fully released: an unbalanced
            # fix/unfix in the caller, distinct from unfixing a page
            # that was never brought in at all.
            raise BufferPoolError(
                f"double unfix of page ({device!r}, {page_no}): "
                "frame is resident but its fix count is already zero"
            )
        if dirty:
            frame.dirty = True
        frame.fix_count -= 1
        if self.observer is not None:
            self.observer("unfix", device, page_no)
        if frame.fix_count > 0:
            return
        if discard:
            self._drop(key, frame, write_back=not self.is_virtual(device))
        else:
            self._lru[key] = None
        self._shrink_to_target()

    # -- maintenance ---------------------------------------------------------

    def flush_device(self, device: str) -> None:
        """Write back every dirty frame of a disk device (keeps frames)."""
        if device in self._virtuals:
            return
        disk = self._disks[device]
        for (dev, page_no), frame in self._frames.items():
            if dev == device and frame.dirty:
                disk.write_page(page_no, frame.data)
                frame.dirty = False
                self._count_writeback(device, page_no)

    def forget_page(self, device: str, page_no: int) -> None:
        """Drop one unfixed frame without write-back (dead data).

        Used when a file page is freed: its contents are dead, so a
        dirty frame must not be charged as a disk write.  A frame that
        is still fixed raises; an absent frame is a no-op.
        """
        key = (device, page_no)
        frame = self._frames.get(key)
        if frame is None:
            if device in self._virtuals:
                self._virtuals[device].live_pages.discard(page_no)
            return
        if frame.fix_count > 0:
            raise BufferPoolError(f"page ({device!r}, {page_no}) is still fixed")
        self._frames.pop(key)
        self._lru.pop(key, None)
        self._bytes_in_use -= len(frame.data)
        if device in self._virtuals:
            self._virtuals[device].live_pages.discard(page_no)

    def drop_device_pages(self, device: str, discard_dirty: bool = False) -> None:
        """Evict every unfixed frame of ``device`` (a cache drop).

        Dirty disk-backed frames are written back first so no data is
        lost -- this is how experiments cool the cache between setup
        and measurement.  Pass ``discard_dirty=True`` only when the
        device's buffered contents are known dead (virtual frames are
        always simply forgotten; per-page dead-data release for files
        being destroyed uses :meth:`forget_page` instead).
        """
        victims = [
            key
            for key, frame in self._frames.items()
            if key[0] == device and frame.fix_count == 0
        ]
        for key in victims:
            frame = self._frames.pop(key)
            self._lru.pop(key, None)
            self._bytes_in_use -= len(frame.data)
            if key[0] in self._virtuals:
                self._virtuals[key[0]].live_pages.discard(key[1])
            elif frame.dirty and not discard_dirty:
                self._disks[device].write_page(key[1], frame.data)
                self._count_writeback(device, key[1])

    # -- internals ------------------------------------------------------------

    def _install(self, device: str, page_no: int, data: bytearray) -> _Frame:
        page_size = len(data)
        self._make_room(page_size)
        frame = _Frame(data=data)
        self._frames[(device, page_no)] = frame
        self._bytes_in_use += page_size
        return frame

    def _make_room(self, needed: int) -> None:
        limit = self.config.memory_limit
        while self._bytes_in_use + needed > limit and self._lru:
            self._evict_one()
        if self._bytes_in_use + needed > limit:
            raise BufferPoolError(
                f"buffer pool exhausted: {self._bytes_in_use} bytes fixed, "
                f"{needed} more requested, limit {limit}"
            )

    def _shrink_to_target(self) -> None:
        target = self.config.buffer_size
        while self._bytes_in_use > target and self._lru:
            self._evict_one()

    def _evict_one(self) -> None:
        key, _ = self._lru.popitem(last=False)
        frame = self._frames[key]
        self._drop(key, frame, write_back=True)
        self._count_eviction(key[0], key[1])

    def _drop(self, key: PageKey, frame: _Frame, write_back: bool) -> None:
        device, page_no = key
        if device in self._virtuals:
            self._virtuals[device].live_pages.discard(page_no)
        elif write_back and frame.dirty:
            self._disks[device].write_page(page_no, frame.data)
            self._count_writeback(device, page_no)
        self._frames.pop(key, None)
        self._lru.pop(key, None)
        self._bytes_in_use -= len(frame.data)
