"""Golden tests pinning the segment byte layout (see fixtures README).

The on-disk format is a public contract the moment one segment outlives
one process: these tests pin the magic, version field, endianness,
footer/trailer offsets, and the exact bytes of a checked-in fixture
segment, so any layout drift — intentional or not — fails loudly here
instead of corrupting somebody's index.  Version bumps must *refuse*
old readers with a clear message, never misparse.
"""

import hashlib
import os
import struct

import pytest

from repro.graph.examples import figure1_auction_site
from repro.indexes.mstarindex import MStarIndex
from repro.queries.evaluator import evaluate_on_data_graph
from repro.queries.pathexpr import PathExpression
from repro.storage.diskindex import DiskMStarIndex
from repro.storage.segment import (
    SEGMENT_MAGIC,
    SEGMENT_TAIL,
    SEGMENT_VERSION,
    Segment,
    SegmentCorruption,
    SegmentFormatError,
    SegmentWriter,
)

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures", "storage")
GOLDEN = os.path.join(FIXTURES, "golden_v2.seg")
GOLDEN_SHA256 = \
    "362e3977676a90f85410957b47ec0632bfd550adc26c94cfcb36b0f388766f90"
GOLDEN_META = {"format": "segment-v2", "kind": "golden"}
GOLDEN_MSTAR = os.path.join(FIXTURES, "golden_mstar_v2.seg")
GOLDEN_MSTAR_SHA256 = \
    "971e9d6bbe7cdcc899e57adf7e1ab2329e812041d1072ccc5d5e2fdcbf528778"
GOLDEN_MSTAR_FUPS = ("//site/people/person",
                     "//auctions/auction/seller/person")


def golden_records():
    for key in range(100):
        yield key, bytes((key * 7 + i) % 256 for i in range(key % 17))


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read(os.path.getsize(path))


def golden_bytes() -> bytes:
    return read_bytes(GOLDEN)


class TestGoldenFixture:
    def test_fixture_sha256_is_pinned(self):
        assert hashlib.sha256(golden_bytes()).hexdigest() == GOLDEN_SHA256

    def test_rebuild_is_byte_identical(self, tmp_path):
        path = str(tmp_path / "rebuilt.seg")
        with SegmentWriter(path, page_size=128, meta=GOLDEN_META) as writer:
            for key, value in golden_records():
                writer.add(key, value)
        with open(path, "rb") as handle:
            rebuilt = handle.read(os.path.getsize(path))
        assert rebuilt == golden_bytes()

    def test_fixture_reads_back_every_record(self):
        with Segment(GOLDEN, use_mmap=False) as segment:
            assert segment.meta == GOLDEN_META
            assert segment.num_records == 100
            for key, value in golden_records():
                assert segment.get(key) == value


class TestGoldenMStarFixture:
    """The M*(k) index file (segment kind ``mstar-nodes``): Figure 1's
    document refined for two FUPs, page size 128."""

    def test_fixture_sha256_is_pinned(self):
        assert hashlib.sha256(read_bytes(GOLDEN_MSTAR)).hexdigest() == \
            GOLDEN_MSTAR_SHA256

    def test_rebuild_is_byte_identical(self, tmp_path):
        graph = figure1_auction_site()
        index = MStarIndex(graph)
        for text in GOLDEN_MSTAR_FUPS:
            expr = PathExpression.parse(text)
            index.refine(expr, index.query(expr))
        path = str(tmp_path / "rebuilt.seg")
        DiskMStarIndex.build(index, path, page_size=128).close()
        assert read_bytes(path) == read_bytes(GOLDEN_MSTAR)

    def test_fixture_answers_and_loads(self):
        graph = figure1_auction_site()
        with DiskMStarIndex(GOLDEN_MSTAR, graph) as disk:
            assert disk.num_components == 4
            for text in GOLDEN_MSTAR_FUPS:
                expr = PathExpression.parse(text)
                result = disk.query(expr)
                assert result.answers == evaluate_on_data_graph(graph, expr)
                assert not result.validated
            loaded = disk.to_memory()
        loaded.check_invariants()
        assert (loaded.size_nodes(), loaded.size_edges()) == (14, 22)

    def test_record_layout_inside_first_page(self):
        data = read_bytes(GOLDEN_MSTAR)
        # Component 0, dense node 0 (the root): key u32, value_len u32,
        # then label_id u32, k u16, and three count-prefixed u32 lists.
        key, length, label_id, k = struct.unpack_from("<IIIH", data, 8)
        assert (key, length, k) == (0, 30, 0)
        extent_count, root_oid = struct.unpack_from("<II", data, 22)
        assert (extent_count, root_oid) == (1, 0)


class TestByteLayout:
    def test_header_magic_and_little_endian_version(self):
        data = golden_bytes()
        assert data[:4] == SEGMENT_MAGIC == b"RPSG"
        assert struct.unpack_from("<I", data, 4)[0] == SEGMENT_VERSION == 2
        # Version 2 in little-endian: low byte first.
        assert data[4:8] == b"\x02\x00\x00\x00"

    def test_trailer_tail_magic_and_footer_offset(self):
        data = golden_bytes()
        assert data[-4:] == SEGMENT_TAIL == b"GSPR"
        footer_offset, footer_crc = struct.unpack_from("<II", data, len(data) - 12)
        assert 8 <= footer_offset < len(data) - 12
        import zlib
        footer = data[footer_offset:len(data) - 12]
        assert zlib.crc32(footer) == footer_crc

    def test_first_record_layout_inside_first_page(self):
        data = golden_bytes()
        # Page data starts at offset 8: key u32 LE, value_len u32 LE,
        # value bytes.  Key 0 has a zero-length value; key 1 follows.
        key0, len0 = struct.unpack_from("<II", data, 8)
        assert (key0, len0) == (0, 0)
        key1, len1 = struct.unpack_from("<II", data, 16)
        assert (key1, len1) == (1, 1)
        assert data[24] == 7  # (1*7 + 0) % 256


class TestVersionRefusal:
    def _patched(self, tmp_path, offset, new_bytes, name="patched.seg"):
        data = bytearray(golden_bytes())
        data[offset:offset + len(new_bytes)] = new_bytes
        path = str(tmp_path / name)
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        return path

    def test_future_version_refused_with_clear_error(self, tmp_path):
        path = self._patched(tmp_path, 4, struct.pack("<I", 3))
        with pytest.raises(SegmentFormatError) as excinfo:
            Segment(path)
        message = str(excinfo.value)
        assert "unsupported segment format version 3" in message
        assert "this build reads version 2" in message
        assert "rebuild" in message

    def test_bad_magic_refused(self, tmp_path):
        path = self._patched(tmp_path, 0, b"XXXX")
        with pytest.raises(SegmentFormatError,
                           match="not a repro segment file"):
            Segment(path)

    def test_damaged_footer_detected_by_crc(self, tmp_path):
        data = golden_bytes()
        footer_offset = struct.unpack_from("<I", data, len(data) - 12)[0]
        path = self._patched(tmp_path, footer_offset + 2, b"\xFF")
        with pytest.raises(SegmentCorruption,
                           match="footer checksum mismatch"):
            Segment(path)

    def test_damaged_page_detected_on_read_not_open(self, tmp_path):
        # Flip a byte inside page data: open succeeds (the footer is
        # intact), the damaged page raises on first read.
        path = self._patched(tmp_path, 24, b"\x00")
        with Segment(path, use_mmap=False) as segment:
            with pytest.raises(ValueError, match="checksum mismatch"):
                segment.get(1)
