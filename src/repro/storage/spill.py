"""Spill-path construction: bounded-RAM external runs merged into segments.

Partition refinement assigns every data node a block id; materialising
the extents of a large graph all at once is exactly the in-RAM comfort
zone ROADMAP item 3 retires.  :class:`SpillSorter` accumulates
``(block, oid)`` pairs under a byte budget (``REPRO_STORAGE_BUDGET``),
spilling sorted struct-packed runs to disk whenever the buffer would
exceed it, and merges the runs back (``heapq.merge`` over bounded-chunk
readers) into one globally sorted stream — which the builders group by
block, pack through ``Extent.from_sorted`` (the merge output is already
sorted and deduplicated), and write into an immutable
:class:`~repro.storage.segment.Segment`.

The budget governs the *data-plane working set*: the pair buffer, the
per-run merge read chunks, the largest single extent being assembled,
and the open segment page.  ``OocBuildReport.peak_tracked_bytes``
records the high-water mark of exactly that sum; process RSS is not
part of it (the interpreter baseline dwarfs any small test budget and
is not what the pager controls — see ``docs/storage.md``).
"""

from __future__ import annotations

import hashlib
import heapq
import os
import struct
import tempfile
import time
from array import array
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING, Any

from repro.core.extents import Extent
from repro.indexes.partition import kbisimulation_blocks, kbisimulation_levels
from repro.obs import trace as _trace
from repro.storage.pager import DEFAULT_PAGE_SIZE
from repro.storage.segment import SegmentWriter

if TYPE_CHECKING:
    from repro.graph.datagraph import DataGraph

#: Environment knob: spill budget in bytes for the construction path.
BUDGET_ENV = "REPRO_STORAGE_BUDGET"
DEFAULT_BUDGET_BYTES = 64 * 1024 * 1024

_PAIR = struct.Struct("<II")
#: Upper bound on pairs per merge read chunk; the effective chunk size
#: shrinks so that all open runs together stay under ~half the budget.
MAX_CHUNK_PAIRS = 2048
MIN_CHUNK_PAIRS = 16


def budget_from_env(default: int = DEFAULT_BUDGET_BYTES) -> int:
    raw = os.environ.get(BUDGET_ENV, "")
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"{BUDGET_ENV} must be an integer byte count, got {raw!r}"
        ) from exc
    if value < 4096:
        raise ValueError(f"{BUDGET_ENV} must be >= 4096 bytes, got {value}")
    return value


class SpillSorter:
    """External sort of ``(key, value)`` u32 pairs under a byte budget.

    ``add`` pairs in any order; ``merge`` yields them sorted (stable
    duplicates preserved).  The in-memory buffer is bounded: whenever
    its packed size would exceed ``budget_bytes`` it is sorted and
    written to a run file, so construction RAM stays ~budget no matter
    how many pairs flow through.
    """

    def __init__(self, budget_bytes: int | None = None,
                 tmpdir: str | None = None) -> None:
        self.budget_bytes = budget_bytes if budget_bytes is not None \
            else budget_from_env()
        if self.budget_bytes < 4096:
            raise ValueError("budget_bytes must be >= 4096")
        self._buffer: list[tuple[int, int]] = []
        self._buffer_capacity = max(64, self.budget_bytes // _PAIR.size)
        self._owned_tmpdir: tempfile.TemporaryDirectory | None = None
        if tmpdir is None:
            self._owned_tmpdir = tempfile.TemporaryDirectory(
                prefix="repro-spill-")
            tmpdir = self._owned_tmpdir.name
        self._tmpdir = tmpdir
        self._runs: list[str] = []
        self.pairs = 0
        self.spills = 0
        #: High-water mark of the buffer + merge working set, in bytes.
        self.peak_bytes = 0

    @property
    def runs(self) -> int:
        return len(self._runs)

    def buffer_bytes(self) -> int:
        return len(self._buffer) * _PAIR.size

    def chunk_pairs(self) -> int:
        """Pairs per merge read chunk, sized so all runs fit ~budget/2."""
        if not self._runs:
            return MAX_CHUNK_PAIRS
        fair = self.budget_bytes // (2 * _PAIR.size * len(self._runs))
        return max(MIN_CHUNK_PAIRS, min(MAX_CHUNK_PAIRS, fair))

    def merge_bytes(self) -> int:
        """Merge-time working set: one read chunk per run."""
        return len(self._runs) * self.chunk_pairs() * _PAIR.size

    def _note_peak(self, extra: int = 0) -> None:
        used = self.buffer_bytes() + extra
        if used > self.peak_bytes:
            self.peak_bytes = used

    def add(self, key: int, value: int) -> None:
        self._buffer.append((key, value))
        self.pairs += 1
        if len(self._buffer) >= self._buffer_capacity:
            self._note_peak()
            self._spill()

    def _spill(self) -> None:
        if not self._buffer:
            return
        tracer = _trace.TRACER
        span = tracer.span("spill.run_write", pairs=len(self._buffer)) \
            if tracer.enabled else _trace.NULL_SPAN
        with span:
            self._buffer.sort()
            path = os.path.join(self._tmpdir,
                                f"run-{len(self._runs):05d}.pairs")
            with open(path, "wb") as out:
                chunk: list[int] = []
                for key, value in self._buffer:
                    chunk.append(key)
                    chunk.append(value)
                    if len(chunk) >= 2 * MAX_CHUNK_PAIRS:
                        out.write(struct.pack(f"<{len(chunk)}I", *chunk))
                        chunk = []
                if chunk:
                    out.write(struct.pack(f"<{len(chunk)}I", *chunk))
            self._runs.append(path)
            self._buffer = []
            self.spills += 1

    def _iter_run(self, path: str) -> Iterator[tuple[int, int]]:
        chunk_bytes = self.chunk_pairs() * _PAIR.size
        with open(path, "rb") as source:
            while True:
                data = source.read(chunk_bytes)
                if not data:
                    break
                count = len(data) // 4
                flat = struct.unpack(f"<{count}I", data)
                for position in range(0, count, 2):
                    yield flat[position], flat[position + 1]

    def merge(self) -> "Iterator[tuple[int, int]]":
        """All pairs in sorted order; bounded-chunk run readers."""
        self._buffer.sort()
        self._note_peak(self.merge_bytes())
        streams = [self._iter_run(path) for path in self._runs]
        streams.append(iter(self._buffer))
        return heapq.merge(*streams)

    def close(self) -> None:
        self._buffer = []
        self._runs = []
        if self._owned_tmpdir is not None:
            self._owned_tmpdir.cleanup()
            self._owned_tmpdir = None

    def __enter__(self) -> "SpillSorter":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


@dataclass
class OocBuildReport:
    """What one spill-path segment build did and cost."""

    path: str
    kind: str
    records: int = 0
    pairs: int = 0
    spills: int = 0
    runs: int = 0
    budget_bytes: int = 0
    #: High-water mark of the tracked data-plane working set (pair
    #: buffer + merge chunks + largest extent under assembly + open
    #: segment page).
    peak_tracked_bytes: int = 0
    #: Total extent payload bytes written (the "dataset size" the
    #: budget-ratio criterion compares against).
    payload_bytes: int = 0
    seconds: float = 0.0
    digest: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def peak_ratio(self) -> float:
        if not self.budget_bytes:
            return 0.0
        return self.peak_tracked_bytes / self.budget_bytes

    @property
    def dataset_ratio(self) -> float:
        """Extent payload bytes over the budget (>= 4 forces real spills)."""
        if not self.budget_bytes:
            return 0.0
        return self.payload_bytes / self.budget_bytes


def extents_digest(
        groups: "Iterable[tuple[int, Iterable[int]]]") -> str:
    """SHA-256 over ``(dense_key, sorted oids)`` groups.

    ``groups`` yields ``(key, iterable-of-ascending-oids)`` in key
    order; the digest is over the canonical text rendering, so the
    in-RAM and spill-path builders land on identical digests exactly
    when they produce identical extents in identical order.
    """
    digest = hashlib.sha256()
    for key, oids in groups:
        digest.update(b"%d:" % key)
        digest.update(",".join(str(oid) for oid in oids).encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


def _grouped(
        pairs: "Iterable[tuple[int, int]]") -> Iterator[tuple[int, array]]:
    """Group a sorted pair stream by key; dedupes values per group."""
    current = -1
    values = array("i")
    for key, value in pairs:
        if key != current:
            if current >= 0:
                yield current, values
            current = key
            values = array("i")
        if not values or values[-1] != value:
            values.append(value)
    if current >= 0:
        yield current, values


def _pack_oids(values: array) -> bytes:
    return struct.pack(f"<{len(values)}I", *values)


def _block_meta(graph: "DataGraph", blocks: list[int],
                dense_of: dict[int, int],
                label_ids: dict[str, int]) -> dict:
    """Skeleton meta for one partition level: labels, adjacency, directory.

    All O(index size), kept in the segment footer: the skeleton is what
    a query navigates (small), the extents are what it avoids loading
    (large) — the paper's "loaded selectively and incrementally" split.
    """
    num_blocks = len(dense_of)
    label_of: list[int] = [-1] * num_blocks
    children: list[set[int]] = [set() for _ in range(num_blocks)]
    node_of = [dense_of[block] for block in blocks]
    for oid, nid in enumerate(node_of):
        if label_of[nid] < 0:
            label_of[nid] = label_ids[graph.labels[oid]]
    rows = graph.child_rows()
    for oid in range(graph.num_nodes):
        up = node_of[oid]
        row = rows[oid]
        for child in row:
            children[up].add(node_of[child])
    by_label: dict[str, list[int]] = {}
    for nid, label_id in enumerate(label_of):
        by_label.setdefault(str(label_id), []).append(nid)
    return {
        "num_nodes": num_blocks,
        "label_of": label_of,
        "children": [sorted(kids) for kids in children],
        "by_label": by_label,
        "root": node_of[graph.root],
    }


def build_ak_segment(graph: "DataGraph", k: int, path: str, *,
                     budget_bytes: int | None = None,
                     page_size: int = DEFAULT_PAGE_SIZE,
                     tmpdir: str | None = None,
                     opener: "Callable[..., IO[bytes]]" = open,
                     ) -> OocBuildReport:
    """Build the A(k) extent segment via the spill path.

    The block assignment itself is O(n) ints and rides the graph's own
    footprint; the extent payload — what actually dominates index size —
    flows through :class:`SpillSorter` under ``budget_bytes`` and never
    materialises at once.  Record keys are the dense index-node ids the
    in-RAM ``AkIndex`` would assign (blocks sorted ascending), so the
    two builds are digest-comparable record for record.
    """
    started = time.perf_counter()
    blocks = kbisimulation_blocks(graph, k)
    dense_of = {block: dense
                for dense, block in enumerate(sorted(set(blocks)))}
    label_ids = {label: position
                 for position, label in enumerate(sorted(graph.alphabet()))}
    meta = {
        "kind": "ak-extents",
        "k": k,
        "labels": sorted(graph.alphabet()),
        "levels": [_block_meta(graph, blocks, dense_of, label_ids)],
    }
    report = OocBuildReport(path=path, kind=f"A({k})")
    _write_extent_segment(report, [(blocks, dense_of, 0)], meta, path,
                          budget_bytes=budget_bytes, page_size=page_size,
                          tmpdir=tmpdir, opener=opener)
    report.seconds = time.perf_counter() - started
    report.meta = {"k": k, "num_blocks": len(dense_of)}
    return report


def build_hierarchy_segment(graph: "DataGraph", k: int, path: str, *,
                            budget_bytes: int | None = None,
                            page_size: int = DEFAULT_PAGE_SIZE,
                            tmpdir: str | None = None,
                            opener: "Callable[..., IO[bytes]]" = open,
                            ) -> OocBuildReport:
    """Build the M*(k) resolution hierarchy I_0..I_k via the spill path.

    M*(k) draws its components from the k-bisimulation levels (I_0 at
    the coarse end, A(k) at the fine end); this writes every level's
    extents into one segment under composite keys ``level * stride +
    dense_nid`` (stride = ``graph.num_nodes``, so keys stay ascending
    level-major and fit u32 for any graph the u32 record format holds).
    """
    started = time.perf_counter()
    levels = kbisimulation_levels(graph, k)
    level_specs = []
    level_metas = []
    label_ids = {label: position
                 for position, label in enumerate(sorted(graph.alphabet()))}
    for level, blocks in enumerate(levels):
        dense_of = {block: dense
                    for dense, block in enumerate(sorted(set(blocks)))}
        level_specs.append((blocks, dense_of, level))
        level_metas.append(_block_meta(graph, blocks, dense_of, label_ids))
    meta = {
        "kind": "mstar-hierarchy",
        "k": k,
        "stride": graph.num_nodes,
        "labels": sorted(graph.alphabet()),
        "levels": level_metas,
    }
    report = OocBuildReport(path=path, kind=f"M*({k})")
    _write_extent_segment(report, level_specs, meta, path,
                          budget_bytes=budget_bytes, page_size=page_size,
                          tmpdir=tmpdir, opener=opener)
    report.seconds = time.perf_counter() - started
    report.meta = {"k": k,
                   "blocks_per_level": [m["num_nodes"] for m in level_metas]}
    return report


def _write_extent_segment(
        report: OocBuildReport,
        level_specs: "list[tuple[list[int], dict[int, int], int]]",
        meta: dict, path: str, *, budget_bytes: int | None,
        page_size: int, tmpdir: str | None,
        opener: "Callable[..., IO[bytes]]") -> None:
    stride = meta.get("stride", 0)
    digest = hashlib.sha256()
    with SpillSorter(budget_bytes, tmpdir=tmpdir) as sorter:
        for blocks, dense_of, level in level_specs:
            base = level * stride
            for oid, block in enumerate(blocks):
                sorter.add(base + dense_of[block], oid)
        writer = SegmentWriter(path, page_size=page_size, meta=meta,
                               opener=opener)
        try:
            max_group = 0
            for key, oids in _grouped(sorter.merge()):
                payload = _pack_oids(oids)
                writer.add(key, payload)
                digest.update(b"%d:" % key)
                digest.update(",".join(str(oid) for oid in oids)
                              .encode("ascii"))
                digest.update(b"\n")
                report.payload_bytes += len(payload)
                group_bytes = len(oids) * 4
                if group_bytes > max_group:
                    max_group = group_bytes
            sorter._note_peak(sorter.merge_bytes() + max_group
                              + writer.buffered_bytes)
            writer.finish()
        except BaseException:
            writer.abort()
            raise
        report.records = writer.records
        report.pairs = sorter.pairs
        report.spills = sorter.spills
        report.runs = sorter.runs
        report.budget_bytes = sorter.budget_bytes
        report.peak_tracked_bytes = sorter.peak_bytes
    report.digest = digest.hexdigest()


# ----------------------------------------------------------------------
# In-RAM reference digests (what the spill path must reproduce)
# ----------------------------------------------------------------------
def inram_ak_digest(index: Any) -> str:
    """Digest of an in-RAM ``AkIndex`` in the segment's key order.

    ``IndexGraph.from_blocks`` assigns dense nids over blocks sorted
    ascending — the same order the spill merge yields — so the digests
    agree iff the extents agree.
    """
    graph_index = getattr(index, "index", index)  # AkIndex wraps IndexGraph
    return extents_digest(
        (nid, list(graph_index.nodes[nid].extent))
        for nid in sorted(graph_index.nodes))


def inram_hierarchy_digest(graph: "DataGraph", k: int) -> str:
    """Digest of the in-RAM level extents, composite-keyed like the segment."""
    levels = kbisimulation_levels(graph, k)
    stride = graph.num_nodes

    def groups() -> Iterator[tuple[int, list[int]]]:
        for level, blocks in enumerate(levels):
            extents: dict[int, list[int]] = {}
            for oid, block in enumerate(blocks):
                extents.setdefault(block, []).append(oid)
            dense_of = {block: dense
                        for dense, block in enumerate(sorted(extents))}
            for block in sorted(extents):
                yield level * stride + dense_of[block], extents[block]

    return extents_digest(groups())
