"""The labeled directed data-graph model from Section 2 of the paper.

An XML document is represented by a labeled directed graph
``G = (V_G, E_G, root_G, Sigma_G)``.  Each node is identified by an integer
*oid* and carries a string label.  Two kinds of edges exist:

* **regular** edges for parent-child element nesting, and
* **reference** edges for ID/IDREF links.

Both kinds participate identically in path-expression semantics (a label
path may traverse either), which is how the paper treats them; the kind is
retained only for statistics and serialisation.

Compact data plane
------------------
Labels are interned at :meth:`DataGraph.add_node` time into a dense
first-occurrence table, so every node also carries an integer *label id*
(``label_ids()``) — the same numbering :func:`repro.indexes.partition.label_blocks`
assigns, which makes level-0 block assignment a straight array copy.

After construction, :meth:`DataGraph.freeze` packs both adjacency
directions into CSR arrays (:class:`repro.graph.compact.CompactAdjacency`)
— ``array('i')`` offsets plus flat targets.  Frozen graphs answer the
same adjacency queries from contiguous memory; :meth:`thaw` (invoked
automatically by the mutating methods) restores the append-friendly
list-of-lists form, so document updates keep working unchanged.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator

from repro.graph.compact import AdjacencyListView, CompactAdjacency, ReadonlyRow


class EdgeKind(enum.Enum):
    """Kind of a data-graph edge."""

    REGULAR = "regular"
    REFERENCE = "reference"


def _edge_key(parent: int, child: int) -> int:
    # Packed (parent, child) pair; oids are dense ints far below 2**31.
    return (parent << 32) | child


class DataGraph:
    """A labeled directed graph over integer oids.

    Nodes are created with :meth:`add_node` and receive consecutive oids
    starting at 0.  The first node added is the root by default (it can be
    changed via :attr:`root`).  Edges are added with :meth:`add_edge`.

    Indexes built on top of the graph read its adjacency through
    :meth:`child_rows`/:meth:`parent_rows` (internal fast path) or the
    read-only public accessors; the experiments in the paper never mutate
    the document while an index is live, and incremental maintenance goes
    through the mutating methods here, which automatically :meth:`thaw` a
    frozen graph first.
    """

    __slots__ = ("_labels", "_label_table", "_label_to_id", "_label_ids",
                 "_children", "_parents", "_csr_children", "_csr_parents",
                 "_edge_set", "_edge_kinds", "root", "_label_index_cache")

    def __init__(self) -> None:
        self._labels: list[str] = []
        # Interned labels: dense ids in first-occurrence order.
        self._label_table: list[str] = []
        self._label_to_id: dict[str, int] = {}
        self._label_ids: list[int] = []
        self._children: list[list[int]] | None = []
        self._parents: list[list[int]] | None = []
        self._csr_children: CompactAdjacency | None = None
        self._csr_parents: CompactAdjacency | None = None
        # Packed (parent << 32 | child) keys: O(1) duplicate-edge checks.
        self._edge_set: set[int] = set()
        # (u, v) -> EdgeKind; absent for REGULAR to keep the dict small.
        self._edge_kinds: dict[tuple[int, int], EdgeKind] = {}
        self.root: int = 0
        self._label_index_cache: dict[str, list[int]] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, label: str) -> int:
        """Add a node with the given label and return its oid."""
        if not isinstance(label, str) or not label:
            raise ValueError(f"node label must be a non-empty string, got {label!r}")
        self._ensure_mutable()
        oid = len(self._labels)
        self._labels.append(label)
        label_id = self._label_to_id.get(label)
        if label_id is None:
            label_id = len(self._label_table)
            self._label_to_id[label] = label_id
            self._label_table.append(label)
        self._label_ids.append(label_id)
        self._children.append([])
        self._parents.append([])
        self._label_index_cache = None
        return oid

    def add_edge(self, parent: int, child: int,
                 kind: EdgeKind = EdgeKind.REGULAR) -> None:
        """Add a directed edge ``parent -> child``.

        Parallel edges are rejected: the index definitions in the paper are
        in terms of edge *existence* between extents, so multi-edges carry
        no information.  The membership check is O(1) against the packed
        edge set, keeping bulk loads linear on high-fanout nodes.
        """
        self._check_oid(parent)
        self._check_oid(child)
        key = _edge_key(parent, child)
        if key in self._edge_set:
            raise ValueError(f"duplicate edge ({parent}, {child})")
        self._ensure_mutable()
        self._edge_set.add(key)
        self._children[parent].append(child)
        self._parents[child].append(parent)
        if kind is not EdgeKind.REGULAR:
            self._edge_kinds[(parent, child)] = kind

    def _check_oid(self, oid: int) -> None:
        if not 0 <= oid < len(self._labels):
            raise KeyError(f"no node with oid {oid}")

    # ------------------------------------------------------------------
    # Freeze / thaw (compact data plane)
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        """Is the adjacency currently in compact CSR form?"""
        return self._children is None

    def freeze(self) -> "DataGraph":
        """Pack both adjacency directions into CSR arrays.

        Row order is preserved exactly, so everything observable through
        the accessors — including digests — is unchanged.  Returns
        ``self`` so builders can end with ``return graph.freeze()``.
        """
        if self.frozen:
            return self
        self._csr_children = CompactAdjacency(self._children)
        self._csr_parents = CompactAdjacency(self._parents)
        self._children = None
        self._parents = None
        return self

    def thaw(self) -> "DataGraph":
        """Restore list-of-lists adjacency (the mutable form)."""
        if not self.frozen:
            return self
        csr_children, csr_parents = self._csr_children, self._csr_parents
        self._children = [csr_children.row_list(oid)
                          for oid in range(len(csr_children))]
        self._parents = [csr_parents.row_list(oid)
                         for oid in range(len(csr_parents))]
        self._csr_children = None
        self._csr_parents = None
        return self

    def _ensure_mutable(self) -> None:
        if self.frozen:
            self.thaw()

    def adjacency_nbytes(self) -> int | None:
        """CSR payload bytes when frozen (``None`` while mutable)."""
        if not self.frozen:
            return None
        return self._csr_children.nbytes() + self._csr_parents.nbytes()

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        return len(self._edge_set)

    @property
    def num_reference_edges(self) -> int:
        return len(self._edge_kinds)

    def label(self, oid: int) -> str:
        """Return the label of node ``oid``."""
        return self._labels[oid]

    @property
    def labels(self) -> list[str]:
        """The label list indexed by oid (do not mutate)."""
        return self._labels

    @property
    def label_table(self) -> tuple[str, ...]:
        """Distinct labels in first-occurrence (interning) order."""
        return tuple(self._label_table)

    def label_ids(self) -> list[int]:
        """Interned label ids indexed by oid (do not mutate).

        Ids are dense, assigned in first-occurrence order — the same
        numbering :func:`repro.indexes.partition.label_blocks` produces,
        so level-0 partition blocks are a copy of this list.
        """
        return self._label_ids

    def label_id_of(self, label: str) -> int:
        """The interned id of ``label`` (-1 when absent from the graph)."""
        return self._label_to_id.get(label, -1)

    def children(self, oid: int) -> ReadonlyRow:
        """Children of ``oid`` (regular and reference targets alike).

        The returned view is read-only; it compares equal to a plain
        list with the same contents.
        """
        return ReadonlyRow(self.child_rows()[oid])

    def parents(self, oid: int) -> ReadonlyRow:
        """Parents of ``oid`` (regular and reference sources alike).

        Read-only view; see :meth:`children`.
        """
        return ReadonlyRow(self.parent_rows()[oid])

    @property
    def child_lists(self) -> AdjacencyListView:
        """Read-only adjacency (children) view indexed by oid."""
        return AdjacencyListView(self, forward=True)

    @property
    def parent_lists(self) -> AdjacencyListView:
        """Read-only reverse adjacency (parents) view indexed by oid."""
        return AdjacencyListView(self, forward=False)

    def child_rows(self):
        """Raw children adjacency rows (internal fast path).

        ``rows[oid]`` is the row of ``oid``: a list while mutable, a
        read-only CSR slice when frozen.  Callers must treat rows as
        immutable — the public accessors enforce this; this accessor
        skips the wrapper for hot loops.
        """
        if self._children is not None:
            return self._children
        return self._csr_children

    def parent_rows(self):
        """Raw parents adjacency rows (internal fast path); see
        :meth:`child_rows`."""
        if self._parents is not None:
            return self._parents
        return self._csr_parents

    def has_edge(self, parent: int, child: int) -> bool:
        """Does the edge ``parent -> child`` exist? (O(1))."""
        return _edge_key(parent, child) in self._edge_set

    def edge_kind(self, parent: int, child: int) -> EdgeKind:
        """Return the kind of edge ``parent -> child``.

        Raises ``KeyError`` if the edge does not exist.
        """
        if not self.has_edge(parent, child):
            raise KeyError(f"no edge ({parent}, {child})")
        return self._edge_kinds.get((parent, child), EdgeKind.REGULAR)

    def nodes(self) -> range:
        """All oids, in insertion order."""
        return range(len(self._labels))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over all edges as ``(parent, child)`` pairs."""
        rows = self.child_rows()
        for parent in range(len(self._labels)):
            for child in rows[parent]:
                yield parent, int(child)

    def alphabet(self) -> set[str]:
        """The set of distinct labels (``Sigma_G``)."""
        return set(self._label_table)

    def nodes_with_label(self, label: str) -> list[int]:
        """All oids carrying ``label`` (cached; cache reset on mutation)."""
        if self._label_index_cache is None:
            index: dict[str, list[int]] = {}
            for oid, node_label in enumerate(self._labels):
                index.setdefault(node_label, []).append(oid)
            self._label_index_cache = index
        return self._label_index_cache.get(label, [])

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, oid: object) -> bool:
        return isinstance(oid, int) and 0 <= oid < len(self._labels)

    def __repr__(self) -> str:
        return (f"DataGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
                f"references={self.num_reference_edges}, "
                f"root={self.root!r}:{self._labels[self.root] if self._labels else '?'})")

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    def reachable_from_root(self) -> set[int]:
        """Oids reachable from the root (a well-formed document covers all)."""
        rows = self.child_rows()
        seen = {self.root}
        stack = [self.root]
        while stack:
            node = stack.pop()
            for child in rows[node]:
                child = int(child)
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen

    def check_well_formed(self) -> None:
        """Raise ``ValueError`` unless every node is reachable from the root.

        The paper's datasets are single documents, so every element hangs
        off the document root; indexes rely on this when enumerating rooted
        label paths.
        """
        unreachable = set(self.nodes()) - self.reachable_from_root()
        if unreachable:
            sample = sorted(unreachable)[:5]
            raise ValueError(
                f"{len(unreachable)} nodes unreachable from root, e.g. {sample}")

    def subgraph_labels(self, oids: Iterable[int]) -> list[str]:
        """Labels of the given oids, in the given order (test convenience)."""
        return [self._labels[oid] for oid in oids]
