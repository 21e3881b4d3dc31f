"""Disk-resident index storage — the paper's stated future work.

Section 6 closes with: "We are currently studying how to make the
M*(k)-index I/O-efficient by turning it into a disk-resident structure
that can be loaded into memory selectively and incrementally during
query processing."  This subpackage builds that structure:

* :mod:`repro.storage.serialization` — binary round-tripping of data
  graphs (``.rpgr``);
* :mod:`repro.storage.pager` — a page file (optionally mmap-backed,
  checksum-verified) plus an LRU buffer pool with pin counts, a
  scan-resistant admission policy, and read/hit accounting;
* :mod:`repro.storage.segment` — the immutable paged segment format:
  sorted key runs + offset footer, bisect/readv lookup that touches
  only the pages a query needs;
* :mod:`repro.storage.diskindex` — :class:`DiskMStarIndex`, a read-only
  M*(k)-index stored as one segment, whose top-down query algorithm
  touches only the pages holding the index nodes it walks, so short
  queries stay inside the (small, hot) coarse components; the same file
  is the only persisted form of an M*(k)-index;
* :mod:`repro.storage.spill` — bounded-RAM spill-path construction of
  that file (external runs under a byte budget, merged and streamed
  out) for the M*(k) resolution hierarchy of a data graph.

See ``docs/storage.md`` for the format, pager policy, and recovery
semantics.
"""

from repro.storage.diskindex import DiskMStarIndex
from repro.storage.pager import BufferPool, PageFile
from repro.storage.segment import (
    Segment,
    SegmentCorruption,
    SegmentError,
    SegmentFormatError,
    SegmentWriter,
)
from repro.storage.serialization import load_graph, save_graph
from repro.storage.spill import (
    OocBuildReport,
    SpillSorter,
    build_hierarchy_segment,
    extents_digest,
    inram_hierarchy_digest,
)

__all__ = [
    "BufferPool",
    "DiskMStarIndex",
    "OocBuildReport",
    "PageFile",
    "Segment",
    "SegmentCorruption",
    "SegmentError",
    "SegmentFormatError",
    "SegmentWriter",
    "SpillSorter",
    "build_hierarchy_segment",
    "extents_digest",
    "inram_hierarchy_digest",
    "load_graph",
    "save_graph",
]
