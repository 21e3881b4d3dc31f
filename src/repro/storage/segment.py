"""Immutable paged index segments: sorted key runs + offset footer.

The on-disk building block of the out-of-core data plane (bzrlib's
``index.py`` is the design exemplar: bisect-based lookup over immutable
on-disk nodes that never loads a whole index).  A segment is written
once, streaming, in ascending key order, and read forever after through
a page directory kept in memory — a point lookup bisects the directory
and reads exactly one page; a sorted multi-get coalesces keys by page
(readv-style) and reads each touched page once.

Byte layout (all integers little-endian ``u32``; see the golden tests
in ``tests/test_storage_format.py`` which pin it byte-for-byte):

.. code-block:: text

    offset 0   magic   b"RPSG"
    offset 4   version u32          (SEGMENT_VERSION)
    offset 8   pages…               (concatenated record runs)
    F          footer:
                 meta_len u32, meta bytes (UTF-8 JSON)
                 page_count u32
                 page_count × (first_key u32, last_key u32,
                               offset u32, length u32, crc32 u32)
                 record_count u32
    size-12    trailer: footer_offset u32, footer_crc32 u32,
               tail magic b"GSPR"

A record inside a page is ``key u32, value_len u32, value bytes``; keys
are strictly ascending across the whole file.  Every page carries a
CRC-32 in the footer, verified by :class:`~repro.storage.pager.PageFile`
on each physical read — a torn write or bit flip surfaces as a
``ValueError`` naming the page key, never as wrong bytes.  The trailer
is written last: a crash mid-build leaves a file with no valid trailer,
which :meth:`Segment.open` refuses with a clear error instead of
guessing at a partial footer.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from bisect import bisect_right
from collections.abc import Callable, Iterable, Iterator
from typing import IO, Any

from repro.storage.pager import DEFAULT_PAGE_SIZE, BufferPool, PageFile, PageRef

SEGMENT_MAGIC = b"RPSG"
SEGMENT_TAIL = b"GSPR"
SEGMENT_VERSION = 2
_HEADER_SIZE = 8
_TRAILER_SIZE = 12
_U32 = struct.Struct("<I")
_REC = struct.Struct("<II")
_DIR_ENTRY = struct.Struct("<IIIII")


class SegmentError(ValueError):
    """Base class for segment format/corruption errors."""


class SegmentFormatError(SegmentError):
    """The file is not a (readable, current-version) segment."""


class SegmentCorruption(SegmentError):
    """Stored bytes failed a checksum or structural check."""


def decode_segment_page(
        data: bytes,
        decode_value: "Callable[[bytes], Any] | None" = None,
) -> dict[int, Any]:
    """Parse one page into ``{key: value}`` (insertion = ascending keys).

    ``decode_value`` parses each record's value bytes once, at page
    load, so the pool caches parsed records; it must raise
    ``ValueError``/``struct.error`` on bytes it cannot parse whole.
    """
    records: dict[int, Any] = {}
    offset = 0
    end = len(data)
    while offset < end:
        key, length = _REC.unpack_from(data, offset)
        offset += _REC.size
        if offset + length > end:
            raise ValueError(
                f"record for key {key} overruns the page "
                f"({offset + length} > {end})")
        value = data[offset:offset + length]
        records[key] = value if decode_value is None else decode_value(value)
        offset += length
    return records


class SegmentWriter:
    """Streams ``(ascending int key, bytes)`` records into a segment.

    Keys must be strictly ascending (the reader's bisect depends on it).
    ``opener`` is injectable for fault testing; write failures propagate
    to the caller and leave a trailer-less file that
    :meth:`Segment.open` refuses cleanly.
    """

    def __init__(self, path: str, *, page_size: int = DEFAULT_PAGE_SIZE,
                 meta: dict | None = None,
                 opener: "Callable[..., IO[bytes]]" = open) -> None:
        if page_size < 64:
            raise ValueError("page_size must be >= 64 bytes")
        self.path = path
        self.page_size = page_size
        self.meta = dict(meta) if meta else {}
        self._out = opener(path, "wb")
        self._out.write(SEGMENT_MAGIC)
        self._out.write(_U32.pack(SEGMENT_VERSION))
        self._position = _HEADER_SIZE
        self._current: list[bytes] = []
        self._current_size = 0
        self._first_key = -1
        self._prev_key = -1
        #: (first_key, last_key, offset, length, crc32) per flushed page.
        self._directory: list[tuple[int, int, int, int, int]] = []
        self.records = 0
        self._finished = False

    @property
    def buffered_bytes(self) -> int:
        """Bytes currently buffered for the open page (working set)."""
        return self._current_size

    def add(self, key: int, value: bytes) -> None:
        if self._finished:
            raise ValueError("segment already finished")
        if key <= self._prev_key:
            raise ValueError(
                f"segment keys must be strictly ascending "
                f"(got {key} after {self._prev_key})")
        record = _REC.pack(key, len(value)) + value
        if self._current and \
                self._current_size + len(record) > self.page_size:
            self._flush_page()
        if not self._current:
            self._first_key = key
        self._current.append(record)
        self._current_size += len(record)
        self._prev_key = key
        self.records += 1

    def _flush_page(self) -> None:
        data = b"".join(self._current)
        self._directory.append(
            (self._first_key, self._prev_key, self._position, len(data),
             zlib.crc32(data)))
        self._out.write(data)
        self._position += len(data)
        self._current = []
        self._current_size = 0

    def finish(self) -> int:
        """Flush, write footer + trailer, fsync, close; returns file size."""
        if self._finished:
            raise ValueError("segment already finished")
        if self._current:
            self._flush_page()
        footer_offset = self._position
        meta_bytes = json.dumps(self.meta, sort_keys=True,
                                separators=(",", ":")).encode("utf-8")
        footer = bytearray()
        footer += _U32.pack(len(meta_bytes))
        footer += meta_bytes
        footer += _U32.pack(len(self._directory))
        for entry in self._directory:
            footer += _DIR_ENTRY.pack(*entry)
        footer += _U32.pack(self.records)
        self._out.write(footer)
        self._out.write(_U32.pack(footer_offset))
        self._out.write(_U32.pack(zlib.crc32(bytes(footer))))
        self._out.write(SEGMENT_TAIL)
        self._out.flush()
        # Trailer-last recovery is only sound once the bytes are durable;
        # injected fault-test handles may have no descriptor to sync.
        fileno = getattr(self._out, "fileno", None)
        if fileno is not None:
            os.fsync(fileno())
        self._finished = True
        size = footer_offset + len(footer) + _TRAILER_SIZE
        self._out.close()
        return size

    def abort(self) -> None:
        """Close without a trailer (the file stays unopenable)."""
        if not self._finished:
            self._finished = True
            self._out.close()

    def __enter__(self) -> "SegmentWriter":
        return self

    def __exit__(self, exc_type: object, *_exc: object) -> None:
        if exc_type is not None:
            self.abort()
        elif not self._finished:
            self.finish()


class Segment:
    """Read-only view of one segment file, paged through a buffer pool.

    The page directory (first/last key + offset + CRC per page) lives in
    memory; page payloads are fetched on demand through an LRU
    :class:`~repro.storage.pager.BufferPool` with checksum verification
    on every physical read.  ``decode_value`` (see
    :func:`decode_segment_page`) lets an index family cache parsed
    records instead of value bytes.
    """

    def __init__(self, path: str, *, buffer_pages: int = 16,
                 use_mmap: bool = True, admission: str = "lru",
                 opener: "Callable[..., IO[bytes]]" = open,
                 decode_value: "Callable[[bytes], Any] | None" = None,
                 ) -> None:
        self.path = path
        handle = opener(path, "rb")
        try:
            self._parse_catalog(handle, path)
        except Exception:
            handle.close()
            raise
        pages: dict[tuple[int, int], PageRef] = {}
        checksums: dict[tuple[int, int], int] = {}
        for number, (_first, _last, offset, length, crc) in \
                enumerate(self._directory):
            pages[(0, number)] = PageRef(offset, length)
            checksums[(0, number)] = crc
        self._file = PageFile(
            path, pages,
            decoder=lambda data: decode_segment_page(data, decode_value),
            checksums=checksums, use_mmap=use_mmap, handle=handle)
        self.pool = BufferPool(self._file, max(1, buffer_pages),
                               admission=admission)
        self._first_keys = [entry[0] for entry in self._directory]

    def _parse_catalog(self, handle: Any, path: str) -> None:
        handle.seek(0, 2)
        size = handle.tell()
        if size < _HEADER_SIZE + _TRAILER_SIZE:
            raise SegmentFormatError(
                f"{path} is too short ({size} bytes) to be a segment")
        handle.seek(0)
        magic = handle.read(4)
        if magic != SEGMENT_MAGIC:
            hint = ("; it is a v1 index file (the RPMS/RPDI layouts are no "
                    "longer read) — rebuild it with 'repro index'"
                    if magic in (b"RPMS", b"RPDI") else "")
            raise SegmentFormatError(
                f"{path} is not a repro segment file "
                f"(magic {magic!r}, expected {SEGMENT_MAGIC!r}){hint}")
        version_bytes = handle.read(4)
        if len(version_bytes) != 4:
            raise SegmentFormatError(f"{path}: truncated segment header")
        (version,) = _U32.unpack(version_bytes)
        if version != SEGMENT_VERSION:
            raise SegmentFormatError(
                f"{path}: unsupported segment format version {version} "
                f"(this build reads version {SEGMENT_VERSION}); rebuild "
                f"the segment from its source index")
        handle.seek(size - _TRAILER_SIZE)
        trailer = handle.read(_TRAILER_SIZE)
        if len(trailer) != _TRAILER_SIZE or \
                trailer[8:] != SEGMENT_TAIL:
            raise SegmentFormatError(
                f"{path}: no valid segment trailer — the file is "
                f"truncated or a build crashed before finish(); rebuild "
                f"the segment")
        (footer_offset,) = _U32.unpack_from(trailer, 0)
        (footer_crc,) = _U32.unpack_from(trailer, 4)
        footer_length = size - _TRAILER_SIZE - footer_offset
        if footer_offset < _HEADER_SIZE or footer_length < 8:
            raise SegmentCorruption(
                f"{path}: footer offset {footer_offset} out of range")
        handle.seek(footer_offset)
        footer = handle.read(footer_length)
        if len(footer) != footer_length:
            raise SegmentCorruption(f"{path}: truncated segment footer")
        if zlib.crc32(footer) != footer_crc:
            raise SegmentCorruption(
                f"{path}: segment footer checksum mismatch — the footer "
                f"bytes are damaged; rebuild the segment")
        position = 0
        (meta_length,) = _U32.unpack_from(footer, position)
        position += 4
        if position + meta_length > len(footer):
            raise SegmentCorruption(f"{path}: footer meta overruns footer")
        try:
            self.meta = json.loads(
                footer[position:position + meta_length].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SegmentCorruption(
                f"{path}: segment meta is not valid JSON: {exc}") from exc
        position += meta_length
        (page_count,) = _U32.unpack_from(footer, position)
        position += 4
        needed = page_count * _DIR_ENTRY.size + 4
        if position + needed > len(footer):
            raise SegmentCorruption(
                f"{path}: page directory overruns footer "
                f"({page_count} pages)")
        self._directory = []
        for _ in range(page_count):
            self._directory.append(_DIR_ENTRY.unpack_from(footer, position))
            position += _DIR_ENTRY.size
        (self.num_records,) = _U32.unpack_from(footer, position)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def num_pages(self) -> int:
        return len(self._directory)

    def page_of(self, key: int) -> int | None:
        """Directory bisect: page number that could hold ``key``."""
        position = bisect_right(self._first_keys, key) - 1
        if position < 0:
            return None
        if key > self._directory[position][1]:  # past the page's last key
            return None
        return position

    def get(self, key: int) -> Any:
        """Point lookup: bisect the directory, read exactly one page."""
        number = self.page_of(key)
        if number is None:
            return None
        return self.pool.page((0, number)).get(key)

    def get_many(self, keys: Iterable[int]) -> Iterator[tuple[int, Any]]:
        """Sorted multi-get: reads each touched page once (readv-style).

        ``keys`` must be sorted ascending; absent keys are skipped.
        """
        current_page = -1
        records: dict[int, Any] = {}
        for key in keys:
            number = self.page_of(key)
            if number is None:
                continue
            if number != current_page:
                records = self.pool.page((0, number))
                current_page = number
            value = records.get(key)
            if value is not None:
                yield key, value

    def iter_all(self) -> Iterator[tuple[int, Any]]:
        """Every record in key order, one page resident at a time."""
        for number in range(len(self._directory)):
            yield from self.pool.page((0, number)).items()

    def keys_in_page(self, number: int) -> tuple[int, int]:
        """(first_key, last_key) of page ``number`` (directory only)."""
        entry = self._directory[number]
        return entry[0], entry[1]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "Segment":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"Segment({self.path!r}, records={self.num_records}, "
                f"pages={self.num_pages})")
