"""Binary serialisation of data graphs (the ``.rpgr`` file).

A small, dependency-free binary format (struct-packed, little-endian)
with length-prefixed UTF-8 label tables.  ``save_graph``/``load_graph``
round-trip :class:`~repro.graph.datagraph.DataGraph`.  Indexes are
persisted as v2 segments by :mod:`repro.storage.diskindex`.

This module also owns the ``u32list`` primitive — ``u32 count`` then
``count × u32``, little-endian — as one buffer-level pair,
:func:`pack_u32list` / :func:`unpack_u32list`.  Three formats spell a
list with it: the ``.rpgr`` label-id column, the ``mstar-nodes``
index-node record and the answer run of a wire ``QUERY`` reply.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable
from io import BufferedReader, BufferedWriter

from repro.core.extents import Extent
from repro.graph.datagraph import DataGraph, EdgeKind

GRAPH_MAGIC = b"RPGR"
FORMAT_VERSION = 1

_U32 = struct.Struct("<I")
#: Compiled ``count × u32`` layouts for the short lists index-node
#: records are made of (building the format per call costs more than
#: unpacking a few members).
_RUNS = tuple(struct.Struct(f"<{count}I") for count in range(256))


def pack_u32list(values: "Iterable[int] | Extent") -> bytes:
    """``values`` as one ``u32list``: ``u32 count``, ``count × u32``.

    An :class:`Extent` is copied out of its buffer as it stands (no
    per-member int); anything else is packed member by member.
    """
    if isinstance(values, Extent):
        return _U32.pack(len(values)) + values.tobytes()
    if not isinstance(values, (list, tuple)):
        values = list(values)
    return struct.pack(f"<I{len(values)}I", len(values), *values)


def unpack_u32list(data: bytes, offset: int = 0
                   ) -> tuple[tuple[int, ...], int]:
    """The ``u32list`` at ``offset`` (>= 0) of ``data`` and the offset
    just past it.

    Raises ``ValueError`` when the count or the members it announces do
    not fit in ``data``.
    """
    try:
        (count,) = _U32.unpack_from(data, offset)
        run = _RUNS[count] if count < len(_RUNS) \
            else struct.Struct(f"<{count}I")
        start = offset + _U32.size
        return run.unpack_from(data, start), start + run.size
    except struct.error:
        raise ValueError(f"u32list at offset {offset} overruns "
                         f"{len(data)} bytes") from None


def write_u32(out: BufferedWriter, value: int) -> None:
    out.write(_U32.pack(value))


def read_u32(source: BufferedReader) -> int:
    data = source.read(4)
    if len(data) != 4:
        raise ValueError("truncated file")
    return _U32.unpack(data)[0]


def write_u32_list(out: BufferedWriter, values: "Iterable[int]") -> None:
    out.write(pack_u32list(values))


def read_u32_list(source: BufferedReader) -> list[int]:
    head = source.read(4)
    count = _U32.unpack(head)[0] if len(head) == 4 else 0
    try:
        values, _ = unpack_u32list(head + source.read(4 * count))
    except ValueError:
        raise ValueError("truncated file") from None
    return list(values)


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
