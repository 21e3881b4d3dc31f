"""Binary serialisation of data graphs (the ``.rpgr`` file).

A small, dependency-free binary format (struct-packed, little-endian)
with length-prefixed UTF-8 label tables.  ``save_graph``/``load_graph``
round-trip :class:`~repro.graph.datagraph.DataGraph`.  Indexes are
persisted as v2 segments by :mod:`repro.storage.diskindex`.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable
from io import BufferedReader, BufferedWriter

from repro.graph.datagraph import DataGraph, EdgeKind

GRAPH_MAGIC = b"RPGR"
FORMAT_VERSION = 1

_U32 = struct.Struct("<I")


def write_u32(out: BufferedWriter, value: int) -> None:
    out.write(_U32.pack(value))


def read_u32(source: BufferedReader) -> int:
    data = source.read(4)
    if len(data) != 4:
        raise ValueError("truncated file")
    return _U32.unpack(data)[0]


def write_u32_list(out: BufferedWriter, values: "Iterable[int]") -> None:
    values = list(values)
    write_u32(out, len(values))
    out.write(struct.pack(f"<{len(values)}I", *values))


def read_u32_list(source: BufferedReader) -> list[int]:
    count = read_u32(source)
    data = source.read(4 * count)
    if len(data) != 4 * count:
        raise ValueError("truncated file")
    return list(struct.unpack(f"<{count}I", data))


def write_string(out: BufferedWriter, text: str) -> None:
    encoded = text.encode("utf-8")
    write_u32(out, len(encoded))
    out.write(encoded)


def read_string(source: BufferedReader) -> str:
    length = read_u32(source)
    data = source.read(length)
    if len(data) != length:
        raise ValueError("truncated file")
    return data.decode("utf-8")


def write_label_table(out: BufferedWriter, labels: list[str]) -> dict[str, int]:
    """Write a distinct-label table; return label -> id mapping."""
    table = sorted(set(labels))
    write_u32(out, len(table))
    for label in table:
        write_string(out, label)
    return {label: index for index, label in enumerate(table)}


def read_label_table(source: BufferedReader) -> list[str]:
    count = read_u32(source)
    return [read_string(source) for _ in range(count)]


# ----------------------------------------------------------------------
# Data graphs
# ----------------------------------------------------------------------
def save_graph(graph: DataGraph, path: str) -> None:
    """Write a data graph to ``path`` (losslessly, including edge kinds)."""
    with open(path, "wb") as out:
        out.write(GRAPH_MAGIC)
        write_u32(out, FORMAT_VERSION)
        label_ids = write_label_table(out, graph.labels)
        write_u32_list(out, (label_ids[label] for label in graph.labels))
        write_u32(out, graph.root)
        regular = []
        references = []
        for parent, child in graph.edges():
            if graph.edge_kind(parent, child) is EdgeKind.REFERENCE:
                references.append((parent, child))
            else:
                regular.append((parent, child))
        for edges in (regular, references):
            write_u32(out, len(edges))
            flat = [oid for edge in edges for oid in edge]
            out.write(struct.pack(f"<{len(flat)}I", *flat))


def load_graph(path: str) -> DataGraph:
    """Read a data graph written by :func:`save_graph`."""
    with open(path, "rb") as source:
        if source.read(4) != GRAPH_MAGIC:
            raise ValueError(f"{path} is not a repro graph file")
        version = read_u32(source)
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported graph format version {version}")
        table = read_label_table(source)
        label_ids = read_u32_list(source)
        root = read_u32(source)
        graph = DataGraph()
        for label_id in label_ids:
            graph.add_node(table[label_id])
        for kind in (EdgeKind.REGULAR, EdgeKind.REFERENCE):
            count = read_u32(source)
            flat = struct.unpack(f"<{2 * count}I", source.read(8 * count))
            for index in range(count):
                graph.add_edge(flat[2 * index], flat[2 * index + 1], kind=kind)
        graph.root = root
        return graph
