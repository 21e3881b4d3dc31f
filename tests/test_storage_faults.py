"""Fault injection for the storage layer: the no-silent-wrong-answers
contract.

Every scenario scripts a physical fault — a torn (bit-damaged) page
write, a mid-flush crash, a short read, a full disk — through
:class:`FaultyFile`, a file wrapper injectable into
:class:`~repro.storage.segment.SegmentWriter` / ``Segment`` via their
``opener`` (and from there into the pager's ``handle``).  The contract
under test: corrupt bytes are *detected* (checksum, sized reads) and
surface as a ``ValueError`` naming the damaged page, a damaged file is
*refused* on open with a clear error, and healthy sibling pages keep
answering correctly — the storage layer may fail loudly, but it may
never return wrong bytes.
"""

import errno
import functools
import os
import random
import struct

import pytest

from repro.indexes.mstarindex import MStarIndex
from repro.queries.evaluator import evaluate_on_data_graph
from repro.queries.workload import Workload
from repro.storage import diskindex
from repro.storage.diskindex import DiskMStarIndex
from repro.storage.pager import BufferPool, PageFile
from repro.storage.segment import (
    Segment,
    SegmentError,
    SegmentFormatError,
    SegmentWriter,
)
from repro.storage.spill import build_hierarchy_segment


class FaultyFile:
    """Binary-file wrapper with scripted faults.

    * ``corrupt_write_index`` — that ``write()`` call's bytes are
      bit-flipped before hitting disk (a torn/damaged write; the length
      is preserved so later offsets stay valid and only checksums can
      catch it);
    * ``crash_write_index`` — that ``write()`` raises ``crash_exc``
      (process death mid-flush: everything already written persists,
      nothing after does);
    * ``short_read_offsets`` — ``read()`` calls starting at these file
      offsets return only half the requested bytes;
    * ``capacity_bytes`` — cumulative writes past this limit raise
      ``ENOSPC``.
    """

    def __init__(self, handle, *, corrupt_write_index=None,
                 crash_write_index=None, crash_exc=None,
                 short_read_offsets=(), capacity_bytes=None):
        self._handle = handle
        self._corrupt_write_index = corrupt_write_index
        self._crash_write_index = crash_write_index
        self._crash_exc = crash_exc or RuntimeError("simulated crash")
        self._short_read_offsets = set(short_read_offsets)
        self._capacity_bytes = capacity_bytes
        self._writes = 0
        self._written_bytes = 0

    def write(self, data):
        index = self._writes
        self._writes += 1
        if index == self._crash_write_index:
            raise self._crash_exc
        if self._capacity_bytes is not None and \
                self._written_bytes + len(data) > self._capacity_bytes:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        if index == self._corrupt_write_index:
            data = bytes(byte ^ 0xFF for byte in data)
        self._written_bytes += len(data)
        return self._handle.write(data)

    def read(self, size=-1):
        position = self._handle.tell()
        if position in self._short_read_offsets and size > 1:
            return self._handle.read(size // 2)
        return self._handle.read(size)

    def __getattr__(self, name):
        return getattr(self._handle, name)


def faulty_opener(**faults):
    return lambda path, mode: FaultyFile(open(path, mode), **faults)


def record_value(key: int) -> bytes:
    return struct.pack("<I", key * 7) * 3


def write_records(path: str, count: int = 200, page_size: int = 256,
                  opener=open) -> None:
    with SegmentWriter(path, page_size=page_size,
                       meta={"kind": "fault-test"}, opener=opener) as writer:
        for key in range(count):
            writer.add(key, record_value(key))


class TestTornWrites:
    """A damaged page write is caught by its checksum, by key."""

    def test_corrupt_page_error_names_the_page(self, tmp_path):
        path = str(tmp_path / "torn.seg")
        # Write index 2 is the first page body (0 = magic, 1 = version).
        write_records(path, opener=faulty_opener(corrupt_write_index=2))
        with Segment(path, use_mmap=False) as segment:
            with pytest.raises(ValueError,
                               match=r"corrupt page \(0, 0\).*checksum "
                                     r"mismatch"):
                segment.get(0)

    def test_sibling_pages_still_answer_correctly(self, tmp_path):
        path = str(tmp_path / "torn.seg")
        write_records(path, opener=faulty_opener(corrupt_write_index=2))
        with Segment(path, use_mmap=False) as segment:
            first_key, last_key = segment.keys_in_page(0)
            for key in range(last_key + 1, 200):
                assert segment.get(key) == record_value(key)

    def test_corrupt_page_is_never_cached_as_good(self, tmp_path):
        path = str(tmp_path / "torn.seg")
        write_records(path, opener=faulty_opener(corrupt_write_index=2))
        with Segment(path, use_mmap=False) as segment:
            for _ in range(3):
                with pytest.raises(ValueError, match=r"corrupt page"):
                    segment.get(0)
            # Three attempts, three physical reads: nothing corrupt was
            # admitted to the pool, nothing was silently served.
            assert segment.pool.misses == 3
            assert segment.pool.hits == 0


class TestMidFlushCrash:
    """A build that dies before finish() leaves a file open() refuses."""

    def test_crash_during_page_write_refused_on_reopen(self, tmp_path):
        path = str(tmp_path / "crashed.seg")
        writer = SegmentWriter(
            path, page_size=128, meta={"kind": "fault-test"},
            opener=faulty_opener(crash_write_index=4))
        with pytest.raises(RuntimeError, match="simulated crash"):
            for key in range(500):
                writer.add(key, record_value(key))
        writer.abort()
        with pytest.raises(SegmentFormatError,
                           match="no valid segment trailer"):
            Segment(path)

    def test_crash_during_footer_write_refused_on_reopen(self, tmp_path):
        path = str(tmp_path / "crashed.seg")
        # 16 records at page_size 128 flush 2 pages inside add();
        # finish() writes the third page, then the footer (write index
        # 5), then the trailer — crashing on the footer write leaves
        # all data pages intact but no trailer.
        writer = SegmentWriter(
            path, page_size=128, meta={"kind": "fault-test"},
            opener=faulty_opener(crash_write_index=5))
        for key in range(16):
            writer.add(key, record_value(key))
        with pytest.raises(RuntimeError, match="simulated crash"):
            writer.finish()
        writer.abort()
        with pytest.raises(SegmentFormatError,
                           match="no valid segment trailer"):
            Segment(path)

    def test_truncated_segment_refused_on_reopen(self, tmp_path):
        path = str(tmp_path / "truncated.seg")
        write_records(path)
        with open(path, "rb") as handle:
            data = handle.read(os.path.getsize(path))
        with open(path, "wb") as handle:
            handle.write(data[:-5])
        with pytest.raises(SegmentFormatError,
                           match="truncated or a build crashed"):
            Segment(path)


class TestShortReads:
    """A read that comes up short is a truncation error, by page key."""

    def test_short_page_read_names_the_page(self, tmp_path):
        path = str(tmp_path / "short.seg")
        write_records(path)
        # Page 0 starts right after the 8-byte header.
        opener = faulty_opener(short_read_offsets={8})
        with Segment(path, use_mmap=False, opener=opener) as segment:
            with pytest.raises(ValueError,
                               match=r"truncated page \(0, 0\)"):
                segment.get(0)
            # Later pages read at other offsets and stay healthy.
            first_key, last_key = segment.keys_in_page(0)
            assert segment.get(last_key + 1) == record_value(last_key + 1)

    def test_short_read_through_buffer_pool_is_not_admitted(self, tmp_path):
        path = str(tmp_path / "short.seg")
        write_records(path)
        opener = faulty_opener(short_read_offsets={8})
        with Segment(path, use_mmap=False, opener=opener) as segment:
            with pytest.raises(ValueError, match="truncated page"):
                segment.pool.page((0, 0))
            assert not segment.pool.resident((0, 0))


class TestDiskFull:
    """ENOSPC propagates out of the build; the partial file is refused."""

    def test_enospc_during_spill_build(self, fig1, tmp_path):
        path = str(tmp_path / "full.seg")
        opener = faulty_opener(capacity_bytes=64)
        with pytest.raises(OSError) as excinfo:
            build_hierarchy_segment(fig1, 2, path, budget_bytes=4096,
                                    opener=opener)
        assert excinfo.value.errno == errno.ENOSPC
        with pytest.raises(SegmentError):
            DiskMStarIndex(path, fig1)

    def test_enospc_during_writer_finish(self, tmp_path):
        path = str(tmp_path / "full.seg")
        writer = SegmentWriter(path, page_size=128,
                               meta={"kind": "fault-test"},
                               opener=faulty_opener(capacity_bytes=150))
        for key in range(8):
            writer.add(key, record_value(key))
        with pytest.raises(OSError):
            writer.finish()
        writer.abort()
        with pytest.raises(SegmentFormatError):
            Segment(path)


class TestFinishIsDurable:
    """finish() must fsync before close: trailer-last recovery is only
    sound if the pages are on disk before the trailer says they are."""

    def test_fsync_follows_the_trailer_and_precedes_close(self, tmp_path,
                                                          monkeypatch):
        events = []

        class Recording:
            def __init__(self, handle):
                self._handle = handle

            def write(self, data):
                events.append(("write", bytes(data[-4:])))
                return self._handle.write(data)

            def close(self):
                events.append(("close", self._handle.fileno()))
                return self._handle.close()

            def __getattr__(self, name):
                return getattr(self._handle, name)

        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync",
            lambda fd: (events.append(("fsync", fd)), real_fsync(fd))[1])
        path = str(tmp_path / "durable.seg")
        write_records(path, opener=lambda p, mode: Recording(open(p, mode)))
        kinds = [kind for kind, _ in events]
        assert kinds.count("fsync") == 1
        synced = kinds.index("fsync")
        assert events[synced - 1] == ("write", b"GSPR")
        assert kinds[synced + 1:] == ["close"]
        assert events[synced][1] == events[-1][1]  # the segment's own fd

    def test_handle_without_a_descriptor_still_finishes(self, tmp_path):
        class NoDescriptor:
            def __init__(self, handle):
                self.write, self.flush = handle.write, handle.flush
                self.close = handle.close

        path = str(tmp_path / "nofd.seg")
        write_records(path, opener=lambda p, mode: NoDescriptor(open(p, mode)))
        with Segment(path) as segment:
            assert segment.get(7) == record_value(7)


@pytest.fixture(scope="module")
def refined_xmark(small_xmark):
    workload = list(Workload.generate(small_xmark, num_queries=40,
                                      max_length=6, seed=61))
    index = MStarIndex(small_xmark)
    for expr in workload:
        index.refine(expr, index.query(expr))
    return index, workload


class TestMStarIndexFileFaults:
    """The M*(k) index file is a segment: damage is a refusal at open or
    a ``ValueError`` naming the page, never a wrong answer set."""

    def test_single_bit_flips_never_change_an_answer(self, small_xmark,
                                                     refined_xmark,
                                                     tmp_path):
        index, workload = refined_xmark
        probes = [(expr, evaluate_on_data_graph(small_xmark, expr))
                  for expr in workload[:5]]
        path = str(tmp_path / "clean.seg")
        DiskMStarIndex.build(index, path, page_size=256).close()
        with open(path, "rb") as handle:
            clean = handle.read(os.path.getsize(path))
        rng = random.Random(20260927)
        damaged_path = str(tmp_path / "flipped.seg")
        outcomes = {"refused": 0, "raised": 0, "harmless": 0}
        for _ in range(300):
            position = rng.randrange(len(clean))
            flipped = bytearray(clean)
            flipped[position] ^= 1 << rng.randrange(8)
            with open(damaged_path, "wb") as handle:
                handle.write(flipped)
            try:
                disk = DiskMStarIndex(damaged_path, small_xmark)
            except SegmentError:
                outcomes["refused"] += 1
                continue
            with disk:
                try:
                    for expr, truth in probes:
                        assert disk.query(expr).answers == truth, \
                            f"silent wrong answer, byte {position}"
                    outcomes["harmless"] += 1
                except ValueError as exc:
                    assert "corrupt page (0, " in str(exc)
                    outcomes["raised"] += 1
        # Header, footer and trailer flips are refused; page flips raise
        # only when a probe reads that page.
        assert all(outcomes.values()), outcomes

    def test_truncated_file_refused_at_open(self, small_xmark,
                                            refined_xmark, tmp_path):
        index, _ = refined_xmark
        path = str(tmp_path / "truncated.seg")
        DiskMStarIndex.build(index, path).close()
        size = os.path.getsize(path)
        for keep in (size * 2 // 3, size - 1, 10):
            with open(path, "rb+") as handle:
                handle.truncate(keep)
            with pytest.raises(SegmentFormatError):
                DiskMStarIndex(path, small_xmark)

    @pytest.mark.parametrize("faults, raised", [
        ({"crash_write_index": 6}, RuntimeError),      # mid-pages
        ({"capacity_bytes": 4096}, OSError),           # ENOSPC mid-pages
    ])
    def test_interrupted_build_refused_at_open(self, small_xmark,
                                               refined_xmark, tmp_path,
                                               monkeypatch, faults, raised):
        index, _ = refined_xmark
        path = str(tmp_path / "partial.seg")
        monkeypatch.setattr(
            diskindex, "SegmentWriter",
            functools.partial(SegmentWriter, opener=faulty_opener(**faults)))
        with pytest.raises(raised):
            DiskMStarIndex.build(index, path, page_size=256)
        assert os.path.getsize(path) > 8  # pages were written ...
        with pytest.raises(SegmentFormatError,       # ... but no trailer
                           match="no valid segment trailer"):
            DiskMStarIndex(path, small_xmark)

    def test_crash_before_trailer_refused_at_open(self, small_xmark,
                                                  refined_xmark, tmp_path,
                                                  monkeypatch):
        """Every page and the footer reach the disk; only the trailer
        (the last three writes) is missing."""
        index, _ = refined_xmark
        counted = str(tmp_path / "counted.seg")
        writes = []

        def counting_opener(path, mode):
            handle = FaultyFile(open(path, mode))
            real_write = handle.write
            handle.write = lambda data: (writes.append(1), real_write(data))[1]
            return handle

        monkeypatch.setattr(
            diskindex, "SegmentWriter",
            functools.partial(SegmentWriter, opener=counting_opener))
        DiskMStarIndex.build(index, counted, page_size=256).close()
        path = str(tmp_path / "crashed.seg")
        monkeypatch.setattr(
            diskindex, "SegmentWriter",
            functools.partial(SegmentWriter, opener=faulty_opener(
                crash_write_index=len(writes) - 3)))
        with pytest.raises(RuntimeError, match="simulated crash"):
            DiskMStarIndex.build(index, path, page_size=256)
        assert os.path.getsize(path) == os.path.getsize(counted) - 12
        with pytest.raises(SegmentFormatError,
                           match="no valid segment trailer"):
            DiskMStarIndex(path, small_xmark)


class TestLegacyPageFileFaults:
    """The raw pager path honours the same detection contract."""

    def _page_file(self, tmp_path, **faults):
        path = str(tmp_path / "pages.bin")
        payload = b"\x01\x02\x03\x04" * 8
        with open(path, "wb") as out:
            out.write(payload)
        import zlib

        from repro.storage.pager import PageRef

        pages = {(0, 0): PageRef(0, len(payload))}
        checksums = {(0, 0): zlib.crc32(payload)}
        handle = FaultyFile(open(path, "rb"), **faults)
        return PageFile(path, pages, decoder=lambda data: data,
                        checksums=checksums, use_mmap=False, handle=handle)

    def test_short_read_raises_truncation(self, tmp_path):
        page_file = self._page_file(tmp_path, short_read_offsets={0})
        with page_file:
            with pytest.raises(ValueError,
                               match=r"truncated page \(0, 0\)"):
                page_file.read_page((0, 0))
            assert page_file.reads == 0

    def test_pool_surfaces_page_file_errors(self, tmp_path):
        page_file = self._page_file(tmp_path, short_read_offsets={0})
        with page_file:
            pool = BufferPool(page_file, 4)
            with pytest.raises(ValueError, match="truncated page"):
                pool.page((0, 0))
            assert pool.misses == 1
            assert not pool.resident((0, 0))
