"""Spill-path construction: bounded-RAM external runs merged into a segment.

Partition refinement assigns every data node a block id; materialising
the extents of a large graph all at once is exactly the in-RAM comfort
zone ROADMAP item 3 retires.  :class:`SpillSorter` accumulates
``(block, oid)`` pairs under a byte budget, spilling sorted
struct-packed runs to disk whenever the buffer would exceed it, and
merges the runs back (``heapq.merge`` over bounded-chunk readers) into
one globally sorted stream — which :func:`build_hierarchy_segment`
groups by block (the merge output is already sorted and deduplicated)
and streams through :func:`~repro.storage.diskindex.write_index_nodes`
into the ``mstar-nodes`` file :class:`~repro.storage.diskindex.
DiskMStarIndex` reads.

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
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING

from repro.indexes.partition import kbisimulation_levels
from repro.obs import trace as _trace
from repro.storage.diskindex import IndexNodeRow, write_index_nodes
from repro.storage.pager import DEFAULT_PAGE_SIZE
from repro.storage.segment import SegmentWriter

if TYPE_CHECKING:
    from repro.graph.datagraph import DataGraph

DEFAULT_BUDGET_BYTES = 64 * 1024 * 1024

_PAIR = struct.Struct("<II")
#: Upper bound on pairs per merge read chunk; the effective chunk size
#: shrinks so that all open runs together stay under ~half the budget.
MAX_CHUNK_PAIRS = 2048
MIN_CHUNK_PAIRS = 16
#: Smallest budget a sort may run under.
MIN_BUDGET_BYTES = 4096


def check_budget(budget_bytes: int) -> None:
    """Raise ``ValueError`` unless a sort may run under ``budget_bytes``."""
    if budget_bytes < MIN_BUDGET_BYTES:
        raise ValueError(f"budget must be >= {MIN_BUDGET_BYTES} bytes, "
                         f"got {budget_bytes}")


class SpillSorter:
    """External sort of ``(key, value)`` u32 pairs under a byte budget.

    ``add`` pairs in any order; ``merge`` yields them sorted (stable
    duplicates preserved).  The in-memory buffer is bounded: whenever
    its packed size would exceed ``budget_bytes`` it is sorted and
    written to a run file, so construction RAM stays ~budget no matter
    how many pairs flow through.
    """

    def __init__(self, budget_bytes: int = DEFAULT_BUDGET_BYTES,
                 tmpdir: str | None = None) -> None:
        check_budget(budget_bytes)
        self.budget_bytes = budget_bytes
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
        if self._runs:
            # Once anything spilled, the tail goes to disk too: the merge
            # then holds one read chunk per run and no pair buffer.
            self._spill()
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
        _digest_group(digest, key, oids)
    return digest.hexdigest()


def _digest_group(digest: "hashlib._Hash", key: int,
                  oids: Iterable[int]) -> None:
    digest.update(b"%d:" % key)
    digest.update(",".join(str(oid) for oid in oids).encode("ascii"))
    digest.update(b"\n")


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


def build_hierarchy_segment(graph: "DataGraph", k: int, path: str, *,
                            budget_bytes: int = DEFAULT_BUDGET_BYTES,
                            page_size: int = DEFAULT_PAGE_SIZE,
                            tmpdir: str | None = None,
                            opener: "Callable[..., IO[bytes]]" = open,
                            ) -> OocBuildReport:
    """Build the M*(k) resolution hierarchy I_0..I_k via the spill path.

    M*(k) draws its components from the k-bisimulation levels (I_0 at
    the coarse end, A(k) at the fine end); this writes every level's
    blocks into one ``mstar-nodes`` segment, block ``dense`` of level
    ``i`` as node ``dense`` of component ``i`` with ``k = i``.

    The block assignments are O(n) ints a level and ride the graph's own
    footprint; the extents — what actually dominates index size — flow
    through :class:`SpillSorter` under ``budget_bytes`` and never
    materialise at once.  A node's child edges and subnode links are
    read off its extent as it leaves the merge, so no skeleton is held
    either.  ``report.digest`` is over the ``(key, oids)`` groups, which
    :func:`inram_hierarchy_digest` reproduces from the in-RAM levels.
    A budget the sorter would refuse raises ``ValueError`` before
    ``path`` is opened, so an existing file there is left as it was.
    """
    check_budget(budget_bytes)
    started = time.perf_counter()
    # Per level, each data node's block renumbered densely in ascending
    # block order: its node id in that component.
    levels: list[list[int]] = []
    for blocks in kbisimulation_levels(graph, k):
        dense_of = {block: dense
                    for dense, block in enumerate(sorted(set(blocks)))}
        levels.append([dense_of[block] for block in blocks])
    stride = graph.num_nodes
    child_rows = graph.child_rows()
    report = OocBuildReport(path=path, budget_bytes=budget_bytes)
    digest = hashlib.sha256()

    def rows(writer: SegmentWriter) -> Iterator[IndexNodeRow]:
        # Keys are level-major, so each level sorts on its own: the runs
        # open at once, and with them the merge working set, do not grow
        # with k.
        for level, here in enumerate(levels):
            finer = levels[level + 1] if level < k else None
            max_group = 0
            with SpillSorter(budget_bytes, tmpdir=tmpdir) as sorter:
                for oid, dense in enumerate(here):
                    sorter.add(dense, oid)
                for dense, oids in _grouped(sorter.merge()):
                    _digest_group(digest, level * stride + dense, oids)
                    max_group = max(max_group, 4 * len(oids))
                    report.payload_bytes += 4 * len(oids)
                    children = sorted({here[child] for oid in oids
                                       for child in child_rows[oid]})
                    subnodes = (sorted({finer[oid] for oid in oids})
                                if finer is not None else [])
                    yield (level, dense, graph.labels[oids[0]], level, oids,
                           children, subnodes)
                sorter._note_peak(sorter.merge_bytes() + max_group
                                  + writer.buffered_bytes)
                report.pairs += sorter.pairs
                report.spills += sorter.spills
                report.runs += sorter.runs
                report.peak_tracked_bytes = max(report.peak_tracked_bytes,
                                                sorter.peak_bytes)

    with SegmentWriter(path, page_size=page_size, opener=opener) as writer:
        write_index_nodes(writer, graph, rows(writer))
    report.records = writer.records
    report.digest = digest.hexdigest()
    report.seconds = time.perf_counter() - started
    return report


# ----------------------------------------------------------------------
# In-RAM reference digest (what the spill path must reproduce)
# ----------------------------------------------------------------------
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
