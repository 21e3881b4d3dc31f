"""Page file and buffer pool for the disk-resident index.

``PageFile`` reads one page of a segment file back on demand and hands
its bytes to the caller's decoder; ``BufferPool`` keeps a bounded LRU
set of parsed pages and counts physical reads versus hits — the I/O
metric the disk-resident benches report.

PR 9 extensions (the out-of-core data plane, see ``docs/storage.md``):

* **mmap-backed reads** — a ``PageFile`` opened with ``use_mmap=True``
  slices a read-only memory map instead of seek+read, so concurrent
  readers need no shared-file-position lock on the data path (the
  counters stay lock-protected).  Handles ``mmap`` refuses (empty file,
  pipe, fault-injection wrapper) fall back to buffered reads.
* **page checksums** — when the caller supplies per-page CRCs (the
  segment format stores them in its footer), every physical read is
  verified before decoding; a mismatch raises a ``ValueError`` naming
  the page key and never returns bytes.
* **pin counts** — ``BufferPool.pin``/``unpin`` (or the ``pinned``
  context manager) keep a page resident; eviction skips pinned pages,
  overshooting capacity rather than dropping a page a reader holds.
* **admission policy** — ``admission="scan"`` admits first-touch pages
  on probation (next in eviction order) so a one-pass scan cannot wipe
  the hot set; a page re-admitted soon after eviction (tracked in a
  small ghost list) goes straight to the protected end.
"""

from __future__ import annotations

import mmap
import struct
import threading
import zlib
from collections import OrderedDict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

DEFAULT_PAGE_SIZE = 4096

_M_READS = _metrics.REGISTRY.counter(
    "pager_reads_total", "physical page reads (parsed successfully)")
_M_CORRUPT = _metrics.REGISTRY.counter(
    "pager_corrupt_pages_total", "page reads rejected as corrupt")
_M_HITS = _metrics.REGISTRY.counter(
    "pager_pool_hits_total", "page requests served from the buffer pool")
_M_MISSES = _metrics.REGISTRY.counter(
    "pager_pool_misses_total", "page requests that went to disk")
_M_EVICTIONS = _metrics.REGISTRY.counter(
    "pager_evictions_total", "pages evicted from the buffer pool")


@dataclass(frozen=True)
class PageRef:
    """Location of one page inside the index file."""

    offset: int
    length: int


class PageFile:
    """Random-access page reader over an on-disk index payload.

    ``pages`` maps a page key (``(0, page_number)`` for segments) to a
    :class:`PageRef`.  ``decoder`` turns raw page bytes into the parsed
    form the pool caches; ``checksums`` maps page keys to expected
    CRC-32s, verified before decoding.  ``handle`` lets tests inject a
    fault-wrapped file object.
    """

    def __init__(self, path: str, pages: dict[tuple[int, int], PageRef],
                 *, decoder: "Callable[[bytes], Any]",
                 checksums: "dict[tuple[int, int], int] | None" = None,
                 use_mmap: bool = True,
                 handle: Any = None) -> None:
        self.path = path
        self.pages = pages
        self._decoder = decoder
        self._checksums = checksums if checksums is not None else {}
        self._handle = handle if handle is not None else open(path, "rb")
        self._mmap: mmap.mmap | None = None
        if use_mmap:
            try:
                self._mmap = mmap.mmap(self._handle.fileno(), 0,
                                       access=mmap.ACCESS_READ)
            except (ValueError, OSError, AttributeError):
                self._mmap = None  # empty file / pipe / fake handle
        #: Physical page reads performed (monotone).
        self.reads = 0
        #: Serialises seek+read pairs and the ``reads`` counter — the
        #: buffered file handle's position is shared state, so two
        #: concurrent readers would otherwise interleave seeks and parse
        #: garbage.  The mmap path slices without seeking but keeps the
        #: counter update under the same lock.
        self._lock = threading.Lock()

    @property
    def mmapped(self) -> bool:
        """Whether page reads slice a memory map (no shared seek)."""
        return self._mmap is not None

    def _read_raw(self, ref: PageRef) -> bytes:
        if self._mmap is not None:
            return self._mmap[ref.offset:ref.offset + ref.length]
        with self._lock:
            self._handle.seek(ref.offset)
            return self._handle.read(ref.length)

    def read_page(self, key: tuple[int, int]) -> Any:
        """Read, verify, and parse one page; one physical read.

        Raises ``ValueError`` naming the page key when the read comes up
        short, the stored checksum mismatches, or the page bytes do not
        decode as whole records.  ``reads`` counts only successfully
        parsed pages, so a corrupt page never inflates the I/O metric
        while returning nothing.
        """
        tracer = _trace.TRACER
        span = tracer.span("pager.read_page", component=key[0],
                           page=key[1]) if tracer.enabled \
            else _trace.NULL_SPAN
        with span:
            ref = self.pages[key]
            data = self._read_raw(ref)
            if len(data) != ref.length:
                _M_CORRUPT.inc()
                raise ValueError(f"truncated page {key} in {self.path}")
            expected = self._checksums.get(key)
            if expected is not None:
                computed = zlib.crc32(data)
                if computed != expected:
                    _M_CORRUPT.inc()
                    raise ValueError(
                        f"corrupt page {key} in {self.path}: checksum "
                        f"mismatch (stored 0x{expected:08x}, computed "
                        f"0x{computed:08x})")
            try:
                records = self._decoder(data)
            except (struct.error, ValueError, IndexError, KeyError) as exc:
                _M_CORRUPT.inc()
                raise ValueError(
                    f"corrupt page {key} in {self.path}: {exc}") from exc
            with self._lock:
                self.reads += 1
            _M_READS.inc()
            try:
                span.tag(records=len(records))
            except TypeError:
                pass  # decoder may return an unsized object
            return records

    def close(self) -> None:
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        self._handle.close()

    def __enter__(self) -> "PageFile":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


class BufferPool:
    """Bounded LRU cache of parsed pages with hit/read accounting.

    Safe for concurrent readers (the sharded service points several
    shard engines at one pool): one lock covers the lookup, the LRU
    reorder, the miss fill, and the counters, so under any interleaving
    ``hits + misses == requests``, every miss is exactly one physical
    read, and the pool never exceeds its capacity while unpinned pages
    remain.  Holding the lock across the physical read also means
    concurrent requests for the *same* cold page collapse into one read
    instead of racing to fill the slot.

    Pinned pages (see :meth:`pin`) are never evicted: when every
    resident page is pinned the pool overshoots capacity (counted in
    ``pin_overflows``) rather than invalidating a page a reader holds.
    """

    #: Ghost-list length, as a multiple of capacity (scan admission).
    GHOST_FACTOR = 4

    def __init__(self, file: PageFile, capacity_pages: int,
                 *, admission: str = "lru") -> None:
        if capacity_pages < 1:
            raise ValueError("capacity_pages must be >= 1")
        if admission not in ("lru", "scan"):
            raise ValueError(f"unknown admission policy {admission!r}")
        self.file = file
        self.capacity = capacity_pages
        self.admission = admission
        self._cached: OrderedDict[tuple[int, int], object] = OrderedDict()
        #: Recently evicted keys (scan admission promotes re-admissions).
        self._ghosts: OrderedDict[tuple[int, int], None] = OrderedDict()
        self._pins: dict[tuple[int, int], int] = {}
        #: Logical page requests served from the pool.
        self.hits = 0
        #: Logical page requests that went to disk.
        self.misses = 0
        #: Pages dropped to make room (monotone).
        self.evictions = 0
        #: Times capacity was overshot because every page was pinned.
        self.pin_overflows = 0
        self._lock = threading.Lock()

    @property
    def reads(self) -> int:
        """Physical page reads (one per cache miss) so far."""
        return self.file.reads

    # ------------------------------------------------------------------
    # Core paths (call with the lock held)
    # ------------------------------------------------------------------
    def _admit(self, key: tuple[int, int], records: Any) -> None:
        self._cached[key] = records
        if self.admission == "scan" and key not in self._ghosts:
            # First touch: probation — next in eviction order unless it
            # is referenced again while resident.
            self._cached.move_to_end(key, last=False)
        self._ghosts.pop(key, None)
        self._evict_for_space()

    def _evict_for_space(self) -> None:
        while len(self._cached) > self.capacity:
            victim = None
            for key in self._cached:
                if not self._pins.get(key):
                    victim = key
                    break
            if victim is None:
                # Everything resident is pinned; overshoot rather than
                # evict under a pin.
                self.pin_overflows += 1
                return
            del self._cached[victim]
            self._ghosts[victim] = None
            while len(self._ghosts) > self.GHOST_FACTOR * self.capacity:
                self._ghosts.popitem(last=False)
            self.evictions += 1
            _M_EVICTIONS.inc()

    def _page_locked(self, key: tuple[int, int]) -> Any:
        cached = self._cached.get(key)
        if cached is not None:
            self._cached.move_to_end(key)
            self.hits += 1
            _M_HITS.inc()
            return cached
        self.misses += 1
        _M_MISSES.inc()
        records = self.file.read_page(key)
        self._admit(key, records)
        return records

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def page(self, key: tuple[int, int]) -> Any:
        """Fetch one page through the pool."""
        with self._lock:
            return self._page_locked(key)

    def pin(self, key: tuple[int, int]) -> Any:
        """Fetch one page and pin it resident; returns the parsed page.

        Balance every ``pin`` with :meth:`unpin` (or use the
        :meth:`pinned` context manager).  The pin count is registered
        *before* the fetch, all under one lock acquisition: a miss fill
        that overflows capacity must never pick the page being pinned
        as its own eviction victim.
        """
        with self._lock:
            self._pins[key] = self._pins.get(key, 0) + 1
            try:
                return self._page_locked(key)
            except BaseException:
                self._unpin_locked(key)
                raise

    def _unpin_locked(self, key: tuple[int, int]) -> None:
        count = self._pins.get(key, 0)
        if count <= 0:
            raise ValueError(f"page {key} is not pinned")
        if count == 1:
            del self._pins[key]
        else:
            self._pins[key] = count - 1
        self._evict_for_space()

    def unpin(self, key: tuple[int, int]) -> None:
        with self._lock:
            self._unpin_locked(key)

    @contextmanager
    def pinned(self, key: tuple[int, int]) -> Iterator[Any]:
        """Context manager: fetch + pin ``key``, unpin on exit."""
        records = self.pin(key)
        try:
            yield records
        finally:
            self.unpin(key)

    def pin_count(self, key: tuple[int, int]) -> int:
        with self._lock:
            return self._pins.get(key, 0)

    def pinned_pages(self) -> int:
        with self._lock:
            return len(self._pins)

    def cached_pages(self) -> int:
        """Pages currently resident in the pool."""
        with self._lock:
            return len(self._cached)

    def resident(self, key: tuple[int, int]) -> bool:
        with self._lock:
            return key in self._cached

    def reset_stats(self) -> None:
        """Zero the counters (the cache contents stay warm)."""
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.pin_overflows = 0
            self.file.reads = 0

    def __repr__(self) -> str:
        with self._lock:
            return (f"BufferPool(capacity={self.capacity}, "
                    f"cached={len(self._cached)}, reads={self.reads}, "
                    f"hits={self.hits}, misses={self.misses}, "
                    f"pinned={len(self._pins)}, evictions={self.evictions})")
