"""Unit tests for the low-level serialisation primitives."""

import io
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.extents import Extent
from repro.storage.diskindex import decode_index_node, encode_index_node
from repro.storage.segment import decode_segment_page
from repro.storage.serialization import (
    pack_u32list,
    read_label_table,
    read_string,
    read_u32,
    read_u32_list,
    unpack_u32list,
    write_label_table,
    write_string,
    write_u32,
    write_u32_list,
)
from tests.conftest import MAX_OID, ascending_runs

RUN_SETTINGS = settings(max_examples=60, deadline=None)


def roundtrip(write, read, value):
    buffer = io.BytesIO()
    write(buffer, value)
    buffer.seek(0)
    return read(buffer)


class TestPrimitives:
    def test_u32_roundtrip(self):
        for value in (0, 1, 2**16, 2**32 - 1):
            assert roundtrip(write_u32, read_u32, value) == value

    def test_u32_truncation_detected(self):
        with pytest.raises(ValueError, match="truncated"):
            read_u32(io.BytesIO(b"\x01\x02"))

    def test_u32_list_roundtrip(self):
        for values in ([], [7], list(range(100))):
            assert roundtrip(write_u32_list, read_u32_list, values) == values

    def test_u32_list_truncation_detected(self):
        buffer = io.BytesIO()
        write_u32_list(buffer, [1, 2, 3])
        data = buffer.getvalue()[:-2]
        with pytest.raises(ValueError, match="truncated"):
            read_u32_list(io.BytesIO(data))

    def test_string_roundtrip_unicode(self):
        for text in ("", "plain", "mélange — ünïcode ✓"):
            assert roundtrip(write_string, read_string, text) == text

    def test_label_table_sorted_and_deduplicated(self):
        buffer = io.BytesIO()
        ids = write_label_table(buffer, ["b", "a", "b", "c", "a"])
        assert ids == {"a": 0, "b": 1, "c": 2}
        buffer.seek(0)
        assert read_label_table(buffer) == ["a", "b", "c"]


class TestU32List:
    """The one ``u32list`` codec the graph file, the index-node record
    and the wire reply share."""

    @RUN_SETTINGS
    @given(ascending_runs())
    @example([])
    @example([0])
    @example([MAX_OID])
    @example(list(range(100_000)))
    def test_round_trip(self, values):
        packed = pack_u32list(values)
        assert packed == struct.pack(f"<I{len(values)}I", len(values),
                                     *values)
        assert pack_u32list(Extent.from_sorted(values)) == packed
        assert pack_u32list(iter(values)) == packed
        assert unpack_u32list(packed) == (tuple(values), len(packed))

    @RUN_SETTINGS
    @given(ascending_runs(max_size=1_000), st.binary(max_size=16))
    def test_unpack_at_an_offset_reports_where_the_list_ends(
            self, values, prefix):
        packed = pack_u32list(values)
        data = prefix + packed + b"tail"
        assert unpack_u32list(data, len(prefix)) == \
            (tuple(values), len(prefix) + len(packed))

    def test_every_truncation_raises_value_error(self):
        packed = pack_u32list([5, 6, 7])
        for cut in range(len(packed)):
            with pytest.raises(ValueError, match="overruns"):
                unpack_u32list(packed[:cut])

    def test_count_past_the_buffer_raises_value_error(self):
        for count in (4, 1000, 2**32 - 1):
            with pytest.raises(ValueError, match="overruns"):
                unpack_u32list(struct.pack("<4I", count, 1, 2, 3))

    def test_graph_file_list_is_the_codec(self):
        buffer = io.BytesIO()
        write_u32_list(buffer, (value for value in (3, 1, 2)))
        assert buffer.getvalue() == pack_u32list([3, 1, 2])


class TestIndexNodeRecords:
    @RUN_SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**16 - 1),
           ascending_runs(), ascending_runs(max_size=500),
           ascending_runs(max_size=500))
    @example(0, 0, [], [], [])
    @example(2**32 - 1, 2**16 - 1, [0, MAX_OID], [0], [MAX_OID])
    def test_round_trip_property(self, label_id, k, extent, children,
                                 subnodes):
        record = encode_index_node(label_id, k, Extent.from_sorted(extent),
                                   children, subnodes)
        assert record == encode_index_node(label_id, k, extent, children,
                                           subnodes)
        assert decode_index_node(record) == {
            "label_id": label_id, "k": k, "extent": tuple(extent),
            "children": tuple(children), "subnodes": tuple(subnodes)}

    def test_roundtrip(self):
        record = encode_index_node(2, 3, [10, 11, 12], [1, 2], [7])
        assert decode_index_node(record) == {
            "label_id": 2, "k": 3, "extent": (10, 11, 12),
            "children": (1, 2), "subnodes": (7,)}

    def test_empty_lists(self):
        record = encode_index_node(0, 0, [], [], [])
        decoded = decode_index_node(record)
        assert decoded["extent"] == ()
        assert decoded["children"] == ()
        assert decoded["subnodes"] == ()

    def test_consecutive_records_parse(self):
        """Records sit back to back in a segment page, each behind its
        ``key u32, value_len u32`` frame."""
        first = encode_index_node(0, 0, [1], [], [])
        second = encode_index_node(1, 5, [2, 3], [1], [])
        data = b"".join(struct.pack("<II", key, len(record)) + record
                        for key, record in ((1, first), (2, second)))
        page = decode_segment_page(data, decode_index_node)
        assert list(page) == [1, 2]
        assert page[2]["extent"] == (2, 3)

    def test_record_must_be_exactly_its_lists(self):
        record = encode_index_node(2, 3, [10, 11, 12], [1, 2], [7])
        for damaged in (record[:-4], record + b"\0" * 4, record[:9]):
            with pytest.raises(ValueError):
                decode_index_node(damaged)
