"""The disk-resident M*(k)-index (Section 6's future work, built).

An M*(k)-index is stored as one v2 segment
(:mod:`repro.storage.segment`, kind ``mstar-nodes``): one record per
index node under the composite key ``component * stride + dense nid``
(``stride`` = data-graph size), with the per-component label directory
in the footer meta.  :func:`write_index_nodes` is the kind's one
encoder; it has two producers — ``DiskMStarIndex.build`` streams a
refined in-memory :class:`~repro.indexes.mstarindex.MStarIndex` into it,
and :func:`repro.storage.spill.build_hierarchy_segment` the
k-bisimulation levels of a data graph under a byte budget — and
:class:`DiskMStarIndex` is its one reader.  Queries run the paper's
top-down strategy, fetching index nodes through the segment's
:class:`~repro.storage.pager.BufferPool` — so a short
query touches only the pages of the coarse components, which is exactly
the "loaded into memory selectively and incrementally" goal the paper
states — and every page read is CRC-checked.

The same file is the only persisted form of an M*(k)-index: the
structure is read-only, refinement happens in memory
(:meth:`DiskMStarIndex.to_memory`) and a new file is built (the classic
build/serve split for secondary indexes).  Validation uses the
in-memory data graph, as in the paper's cost model.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator, Sequence

from repro.cost.counters import CostCounter
from repro.graph.datagraph import DataGraph
from repro.indexes.base import IndexGraph, QueryResult, answer_stored_nodes
from repro.indexes.mstarindex import MStarIndex
from repro.obs import trace as _trace
from repro.queries.pathexpr import WILDCARD, PathExpression
from repro.storage.pager import DEFAULT_PAGE_SIZE
from repro.storage.segment import Segment, SegmentWriter
from repro.storage.serialization import pack_u32list, unpack_u32list

SEGMENT_KIND = "mstar-nodes"
#: Kinds earlier trees wrote; refused at open, never parsed.
_RETIRED_KINDS = ("ak-extents", "mstar-hierarchy")
_NODE_HEAD = struct.Struct("<IH")

#: One index node as the writer takes it: ``(component, dense nid,
#: label, k, extent, children, subnodes)``; ``children`` are dense nids
#: of the same component, ``subnodes`` of the next one.
IndexNodeRow = tuple[int, int, str, int, Sequence[int], Sequence[int],
                     Sequence[int]]


def encode_index_node(label_id: int, k: int, extent: Sequence[int],
                      children: Sequence[int],
                      subnodes: Sequence[int]) -> bytes:
    """Encode one index-node record: ``label_id u32, k u16``, then the
    extent, child and subnode lists, each a ``u32list``."""
    return b"".join((_NODE_HEAD.pack(label_id, k), pack_u32list(extent),
                     pack_u32list(children), pack_u32list(subnodes)))


def decode_index_node(data: bytes) -> dict:
    """Decode one whole record; raises unless ``data`` is exactly one."""
    label_id, k = _NODE_HEAD.unpack_from(data)
    extent, position = unpack_u32list(data, _NODE_HEAD.size)
    children, position = unpack_u32list(data, position)
    subnodes, position = unpack_u32list(data, position)
    if position != len(data):
        raise ValueError("index-node record length does not match its lists")
    return {"label_id": label_id, "k": k, "extent": extent,
            "children": children, "subnodes": subnodes}


def write_index_nodes(writer: SegmentWriter, graph: DataGraph,
                      rows: Iterable[IndexNodeRow]) -> None:
    """Stream index nodes into ``writer`` as an ``mstar-nodes`` segment.

    ``rows`` must come component-major, dense nids ascending from 0
    within each component (the order :meth:`DiskMStarIndex.to_memory`
    relies on).  The caller owns ``writer`` and finishes it.
    """
    labels = sorted(graph.alphabet())
    label_ids = {label: position for position, label in enumerate(labels)}
    stride = graph.num_nodes
    # The footer (meta included) is serialised by finish(), so the label
    # directories can fill in while the records stream out.
    directories: list[dict[str, list[int]]] = []
    writer.meta.update(kind=SEGMENT_KIND, stride=stride, labels=labels,
                       components=directories)
    for component, dense, label, k, extent, children, subnodes in rows:
        if component == len(directories):
            directories.append({})
        directories[component].setdefault(label, []).append(dense)
        writer.add(component * stride + dense, encode_index_node(
            label_ids[label], k, extent, children, subnodes))


class DiskMStarIndex:
    """Read-only, paged M*(k)-index queried through a buffer pool."""

    def __init__(self, path: str, graph: DataGraph,
                 buffer_pages: int = 64) -> None:
        self.path = path
        self.graph = graph
        self._segment = Segment(path, buffer_pages=buffer_pages,
                                decode_value=decode_index_node)
        meta = self._segment.meta
        try:
            kind = meta.get("kind")
            if kind != SEGMENT_KIND:
                hint = ("; that kind is no longer read — rebuild the file "
                        "with 'repro ooc'" if kind in _RETIRED_KINDS else "")
                raise ValueError(
                    f"{path} is a {kind!r} segment, not an M*(k) index "
                    f"({SEGMENT_KIND!r}){hint}")
            if meta.get("stride") != graph.num_nodes:
                raise ValueError(
                    f"{path} does not match this data graph (built over "
                    f"{meta.get('stride')} nodes, given {graph.num_nodes})")
        except ValueError:
            self._segment.close()
            raise
        self._stride: int = meta["stride"]
        self.labels: list[str] = meta["labels"]
        # Per-component label -> dense node ids (small; kept in memory
        # like a catalog).
        self._by_label: list[dict[str, list[int]]] = meta["components"]
        self.num_components = len(self._by_label)
        self.pool = self._segment.pool

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, index: MStarIndex, path: str,
              page_size: int = DEFAULT_PAGE_SIZE,
              buffer_pages: int = 64) -> "DiskMStarIndex":
        """Serialise ``index`` into a segment at ``path`` and open it."""
        graph = index.graph
        # Node ids are sparse after refinement; renumber densely per
        # component (to_memory recreates them in this order).
        mappings = [{nid: dense
                     for dense, nid in enumerate(sorted(component.nodes))}
                    for component in index.components]

        def rows() -> Iterator[IndexNodeRow]:
            for i, component in enumerate(index.components):
                mapping = mappings[i]
                is_last = i == index.max_resolution
                for nid, dense in mapping.items():
                    node = component.nodes[nid]
                    children = sorted(mapping[child]
                                      for child in component.children_of(nid))
                    subnodes = (sorted(mappings[i + 1][sub]
                                       for sub in index.subnodes[i][nid])
                                if not is_last else [])
                    yield (i, dense, node.label, node.k, node.extent,
                           children, subnodes)

        with SegmentWriter(path, page_size=page_size) as writer:
            write_index_nodes(writer, graph, rows())
        return cls(path, graph, buffer_pages=buffer_pages)

    # ------------------------------------------------------------------
    # Record access through the pool
    # ------------------------------------------------------------------
    def _record(self, component: int, nid: int) -> dict:
        record: dict = self._segment.get(component * self._stride + nid)
        return record

    def nodes_with_label(self, component: int, label: str) -> list[int]:
        return self._by_label[component].get(label, [])

    def to_memory(self) -> MStarIndex:
        """Load the whole index into RAM (to refine it and build anew).

        Streams :meth:`Segment.iter_all`, so only the pool's pages are
        resident beside the index being rebuilt.  Raises ``ValueError``
        when the records do not describe an index over ``self.graph``.
        """
        graph = self.graph
        components = [IndexGraph(graph) for _ in range(self.num_components)]
        subnodes: list[dict[int, set[int]]] = [
            {} for _ in range(self.num_components)]
        for key, record in self._segment.iter_all():
            number, dense = divmod(key, self._stride)
            label = self.labels[record["label_id"]]
            if any(graph.labels[oid] != label for oid in record["extent"]):
                raise ValueError(
                    f"{self.path} does not match this data graph")
            # _add_node numbers sequentially and build() wrote each
            # component in dense order, so the ids must line up.
            if components[number]._add_node(record["extent"], record["k"],
                                            label=label) != dense:
                raise ValueError(f"non-dense node ids in {self.path}")
            subnodes[number][dense] = set(record["subnodes"])
        for component in components:
            component._assert_covering()
            component._rebuild_edges()
        index = MStarIndex.__new__(MStarIndex)
        index.graph = graph
        index.components = components
        index.subnodes = subnodes[:-1]
        inverted = [self._supernodes(number, components, links)
                    for number, links in enumerate(subnodes)]
        # Nothing lies above I0, and the last inversion is checked empty.
        index.supernode = [{}] + inverted[:-1]
        index._optimizer = None
        return index

    def _supernodes(self, number: int, components: list[IndexGraph],
                    links: dict[int, set[int]]) -> dict[int, int]:
        """Invert one component's subnode lists, checking what ``build``
        guarantees by construction and another producer might not: no
        node's ``k`` exceeds the component number, and every node of the
        next component is the subnode of exactly one node here and lies
        inside its extent (so the last component links to nothing)."""
        nodes = components[number].nodes
        if any(node.k > number for node in nodes.values()):
            raise ValueError(f"{self.path}: component {number} holds a node "
                             f"whose k exceeds {number}")
        finer = (components[number + 1].nodes
                 if number + 1 < len(components) else {})
        supernode: dict[int, int] = {}
        for nid, subs in links.items():
            extent = nodes[nid].extent
            for sub in subs:
                if sub in supernode or sub not in finer \
                        or not finer[sub].extent <= extent:
                    raise ValueError(
                        f"{self.path}: component {number}: subnode link "
                        f"{nid} -> {sub} is repeated, dangling or leaves "
                        f"the node's extent")
                supernode[sub] = nid
        if len(supernode) != len(finer):
            raise ValueError(
                f"{self.path}: component {number + 1} has "
                f"{len(finer) - len(supernode)} nodes that are the subnode "
                f"of no node of component {number}")
        return supernode

    # ------------------------------------------------------------------
    # Querying (top-down, the paper's strategy)
    # ------------------------------------------------------------------
    def query(self, expr: PathExpression,
              counter: CostCounter | None = None) -> QueryResult:
        """Top-down evaluation with on-demand page loads.

        Index-node visits are charged as in the in-memory index; physical
        I/O shows up in :attr:`pool` (``reads`` / ``hits``).
        """
        tracer = _trace.TRACER
        if tracer.enabled:
            with tracer.span("diskindex.query", query=str(expr)) as span:
                result = self._query_impl(expr, counter)
                span.tag(answers=len(result.answers),
                         validated=result.validated)
                return result
        return self._query_impl(expr, counter)

    def _query_impl(self, expr: PathExpression,
                    counter: CostCounter | None = None) -> QueryResult:
        cost = counter if counter is not None else CostCounter()
        last = self.num_components - 1
        if expr.rooted:
            # Start from every node carrying the root's label: the label
            # class need not be a singleton, but navigation only ever
            # overapproximates — the precision test below (via
            # required_similarity) refuses to certify rooted answers
            # unless the root's label is unique, so impostor paths are
            # caught by validation.
            root_label = self.graph.labels[self.graph.root]
            frontier = set(self.nodes_with_label(0, root_label))
            cost.index_visits += len(frontier)
            positions = range(len(expr.labels))
        else:
            first = expr.labels[0]
            if first == WILDCARD:
                frontier = {nid for nids in self._by_label[0].values()
                            for nid in nids}
            else:
                frontier = set(self.nodes_with_label(0, first))
            cost.index_visits += len(frontier)
            positions = range(1, len(expr.labels))
        edge_offset = 1 if expr.rooted else 0
        current = 0
        for position in positions:
            target_component = min(position + edge_offset, last)
            while current < target_component and frontier:
                descended: set[int] = set()
                for nid in frontier:
                    subs = self._record(current, nid)["subnodes"]
                    cost.index_visits += len(subs)
                    descended.update(subs)
                frontier = descended
                current += 1
            label = expr.labels[position]
            if position in expr.descendant_steps:
                # Descendant axis: close over >= 1 child edges, then match.
                reached: set[int] = set()
                queue = list(frontier)
                while queue:
                    nid = queue.pop()
                    for child in self._record(current, nid)["children"]:
                        cost.index_visits += 1
                        if child not in reached:
                            reached.add(child)
                            queue.append(child)
                stepped = {nid for nid in reached
                           if label == WILDCARD or self.labels[
                               self._record(current, nid)["label_id"]] == label}
            else:
                stepped = set()
                for nid in frontier:
                    for child in self._record(current, nid)["children"]:
                        cost.index_visits += 1
                        child_record = self._record(current, child)
                        if label == WILDCARD or \
                                self.labels[child_record["label_id"]] == label:
                            stepped.add(child)
            frontier = stepped
            if not frontier:
                break
        return answer_stored_nodes(
            self.graph, expr, self._stored(current, sorted(frontier)), cost)

    def _stored(self, component: int, ordered: list[int]
                ) -> Iterator[tuple[int, str, int, tuple[int, ...]]]:
        for nid in ordered:
            record = self._record(component, nid)
            yield (nid, self.labels[record["label_id"]], record["k"],
                   record["extent"])

    # ------------------------------------------------------------------
    # Stats and lifecycle
    # ------------------------------------------------------------------
    @property
    def page_count(self) -> int:
        return self._segment.num_pages

    def io_stats(self) -> tuple[int, int]:
        """(physical page reads, pool hits) since the last reset."""
        return self.pool.reads, self.pool.hits

    def reset_io_stats(self) -> None:
        self.pool.reset_stats()

    def close(self) -> None:
        self._segment.close()

    def __enter__(self) -> "DiskMStarIndex":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"DiskMStarIndex(components={self.num_components}, "
                f"pages={self.page_count}, "
                f"buffer={self.pool.capacity} pages)")
