"""Segment-backed A(k): extents stay on disk, the skeleton navigates.

The out-of-core split the paper's Section 6 sketches: the index
*skeleton* (per-node label, block-level child edges, label directory —
all O(index size)) lives in the segment's footer meta and is held in
RAM, while the *extents* — the payload that actually scales with the
document — stay in the segment's checksummed pages and are fetched
through the buffer pool only for the index nodes a query's final
frontier reaches.  Navigation and cost accounting mirror the in-RAM
``AkIndex`` / the paged ``DiskMStarIndex``: index-node visits charge
the counter, imprecise extents validate against the data graph, and
physical I/O shows up in ``index.pool`` (reads/hits).
"""

from __future__ import annotations

import struct
from array import array
from collections.abc import Iterator

from repro.core.extents import Extent
from repro.cost.counters import CostCounter
from repro.graph.datagraph import DataGraph
from repro.indexes.base import QueryResult, answer_stored_nodes
from repro.obs import trace as _trace
from repro.queries.pathexpr import WILDCARD, PathExpression
from repro.storage.segment import Segment


class SegmentAkIndex:
    """Read-only A(k) answered from an on-disk extent segment.

    Open over a segment built by
    :func:`repro.storage.spill.build_ak_segment`; ``graph`` must be the
    data graph the segment was built over (validation and
    ``required_similarity`` run against it, as in the paper's cost
    model).
    """

    def __init__(self, path: str, graph: DataGraph, *,
                 buffer_pages: int = 32, use_mmap: bool = True,
                 admission: str = "lru") -> None:
        self.path = path
        self.graph = graph
        self.segment = Segment(path, buffer_pages=buffer_pages,
                               use_mmap=use_mmap, admission=admission)
        meta = self.segment.meta
        if meta.get("kind") != "ak-extents":
            raise ValueError(
                f"{path} is not an A(k) extent segment "
                f"(kind={meta.get('kind')!r})")
        self.k = int(meta["k"])
        self.labels: list[str] = list(meta["labels"])
        level = meta["levels"][0]
        self.num_nodes = int(level["num_nodes"])
        self._label_of: list[int] = [int(v) for v in level["label_of"]]
        self._children: list[list[int]] = [
            [int(v) for v in row] for row in level["children"]]
        self._by_label: dict[str, list[int]] = {
            self.labels[int(label_id)]: [int(v) for v in nids]
            for label_id, nids in level["by_label"].items()}
        self._root_nid = int(level["root"])
        if len(self._label_of) != self.num_nodes or \
                len(self._children) != self.num_nodes:
            raise ValueError(f"{path}: skeleton meta is inconsistent")

    @property
    def pool(self):
        return self.segment.pool

    # ------------------------------------------------------------------
    # Skeleton access (RAM) and extent access (disk)
    # ------------------------------------------------------------------
    def label_of(self, nid: int) -> str:
        return self.labels[self._label_of[nid]]

    def children_of(self, nid: int) -> list[int]:
        return self._children[nid]

    def nodes_with_label(self, label: str) -> list[int]:
        return self._by_label.get(label, [])

    def extent(self, nid: int) -> Extent:
        """Fetch one node's extent — touches exactly one segment page."""
        payload = self.segment.get(nid)
        if payload is None:
            raise ValueError(
                f"{self.path}: no extent record for index node {nid}")
        values = array("i")
        count = len(payload) // 4
        values.extend(struct.unpack(f"<{count}I", payload))
        return Extent.from_sorted(values)

    # ------------------------------------------------------------------
    # Querying (the paper's algorithm, extents loaded lazily)
    # ------------------------------------------------------------------
    def query(self, expr: PathExpression,
              counter: CostCounter | None = None) -> QueryResult:
        tracer = _trace.TRACER
        if tracer.enabled:
            with tracer.span("segindex.query", query=str(expr)) as span:
                result = self._query_impl(expr, counter)
                span.tag(answers=len(result.answers),
                         validated=result.validated)
                return result
        return self._query_impl(expr, counter)

    def _query_impl(self, expr: PathExpression,
                    counter: CostCounter | None) -> QueryResult:
        cost = counter if counter is not None else CostCounter()
        if expr.rooted:
            root_label = self.graph.labels[self.graph.root]
            frontier = set(self.nodes_with_label(root_label))
            cost.index_visits += len(frontier)
            positions = range(len(expr.labels))
        else:
            first = expr.labels[0]
            if first == WILDCARD:
                frontier = set(range(self.num_nodes))
            else:
                frontier = set(self.nodes_with_label(first))
            cost.index_visits += len(frontier)
            positions = range(1, len(expr.labels))
        for position in positions:
            label = expr.labels[position]
            if position in expr.descendant_steps:
                reached: set[int] = set()
                queue = list(frontier)
                while queue:
                    nid = queue.pop()
                    for child in self._children[nid]:
                        cost.index_visits += 1
                        if child not in reached:
                            reached.add(child)
                            queue.append(child)
                frontier = {nid for nid in reached
                            if label == WILDCARD
                            or self.label_of(nid) == label}
            else:
                stepped: set[int] = set()
                for nid in frontier:
                    for child in self._children[nid]:
                        cost.index_visits += 1
                        if label == WILDCARD or \
                                self.label_of(child) == label:
                            stepped.add(child)
                frontier = stepped
            if not frontier:
                break

        return answer_stored_nodes(self.graph, expr,
                                   self._stored(sorted(frontier)), cost)

    def _stored(self, ordered: list[int]
                ) -> Iterator[tuple[int, str, int, tuple[int, ...]]]:
        # Sorted frontier + get_many: extent pages are read in key order,
        # each touched page exactly once (the readv path).
        extents = dict(self.segment.get_many(ordered))
        for nid in ordered:
            payload = extents.get(nid)
            if payload is None:
                raise ValueError(
                    f"{self.path}: no extent record for index node {nid}")
            members = struct.unpack(f"<{len(payload) // 4}I", payload)
            yield nid, self.label_of(nid), self.k, members

    # ------------------------------------------------------------------
    # Stats and lifecycle
    # ------------------------------------------------------------------
    def io_stats(self) -> tuple[int, int]:
        """(physical page reads, pool hits) since the last reset."""
        return self.pool.reads, self.pool.hits

    def close(self) -> None:
        self.segment.close()

    def __enter__(self) -> "SegmentAkIndex":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"SegmentAkIndex(k={self.k}, nodes={self.num_nodes}, "
                f"pages={self.segment.num_pages})")
