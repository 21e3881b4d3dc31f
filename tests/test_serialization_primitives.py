"""Unit tests for the low-level serialisation primitives."""

import io
import struct

import pytest

from repro.storage.diskindex import decode_index_node, encode_index_node
from repro.storage.segment import decode_segment_page
from repro.storage.serialization import (
    read_label_table,
    read_string,
    read_u32,
    read_u32_list,
    write_label_table,
    write_string,
    write_u32,
    write_u32_list,
)


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


class TestIndexNodeRecords:
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
            with pytest.raises((ValueError, IndexError, struct.error)):
                decode_index_node(damaged)
