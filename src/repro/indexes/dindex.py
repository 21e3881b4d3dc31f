"""The D(k)-index of Chen, Lim and Ong (SIGMOD 2003).

The D(k)-index allows a different local-similarity value per index node,
tailored to a set of frequently-used path expressions (FUPs).  The paper
under reproduction evaluates it in two flavours, both implemented here:

* **construct** (:meth:`DkIndex.construct`) — build from scratch for a FUP
  set.  Every index node with the same label receives the same similarity
  value (the restriction the M(k) paper criticises as *over-refinement of
  irrelevant index nodes*): a FUP assigns its position-``i`` label a
  requirement of ``i``, requirements are propagated upwards so that a
  parent's value is never more than one below a child's, and each label
  class is then partitioned by k-bisimilarity at its own level.
* **promote** (:meth:`DkIndex.refine`) — start from an A(0)-index and run
  the paper's ``PROMOTE`` procedure for each FUP.  ``PROMOTE`` recursively
  promotes *all* parents (over-refining irrelevant data nodes) and splits
  using whatever similarity the parents happen to have (over-refining under
  overqualified parents).  Reproducing these flaws faithfully is the point:
  Figures 10-26 quantify them against M(k)/M*(k).  The procedure itself is
  the shared kernel of :mod:`repro.indexes.refine` run with "all data is
  relevant" and no target set; this file keeps construction and querying.
"""

from __future__ import annotations

from repro.cost.counters import CostCounter
from repro.graph.datagraph import DataGraph
from repro.indexes.base import IndexGraph, QueryResult
from repro.indexes.partition import kbisimulation_levels, label_blocks
from repro.indexes.refine import flat_family, refine_fup
from repro.queries.pathexpr import WILDCARD, PathExpression


# D(k)-construct preprocessing: one edges() sweep to build the label
# graph, before any metered query runs.
# repro-lint: disable=cost-accounting
def required_similarity_by_label(graph: DataGraph,
                                 fups: list[PathExpression]) -> dict[str, int]:
    """Per-label similarity requirements for D(k)-construct.

    A label at position ``i`` of a FUP needs similarity ``i`` (one more
    for rooted expressions, whose instances implicitly traverse the edge
    from the synthetic root).  Requirements are then propagated upwards
    through the label graph until every data edge ``(u, v)`` satisfies
    ``req[label(u)] >= req[label(v)] - 1``.
    """
    requirement: dict[str, int] = {label: 0 for label in graph.alphabet()}
    for expr in fups:
        if expr.has_descendant_steps:
            raise ValueError(f"FUP {expr} uses the descendant axis; "
                             f"no finite similarity requirement exists")
        offset = 1 if expr.rooted else 0
        for position, label in enumerate(expr.labels):
            if label == WILDCARD:
                continue
            needed = position + offset
            if requirement.get(label, -1) < needed:
                requirement[label] = needed

    label_edges = {(graph.labels[parent], graph.labels[child])
                   for parent, child in graph.edges()}
    changed = True
    while changed:
        changed = False
        for parent_label, child_label in label_edges:
            needed = requirement[child_label] - 1
            if requirement[parent_label] < needed:
                requirement[parent_label] = needed
                changed = True
    return requirement


class DkIndex:
    """Adaptive structural index with per-node similarity values."""

    def __init__(self, graph: DataGraph) -> None:
        """Initialise as an A(0)-index, ready for incremental promotion."""
        self.graph = graph
        self.index = IndexGraph.from_blocks(graph, label_blocks(graph), k=0)

    @classmethod
    def from_partition(cls, graph: DataGraph,
                       extents: list[tuple[set[int], int]]) -> "DkIndex":
        """Start from an explicit ``(extent, k)`` partition (test/fixture
        support, e.g. the over-refined starting index of Figure 4)."""
        index = cls.__new__(cls)
        index.graph = graph
        index.index = IndexGraph.from_extents(graph, extents)
        return index

    # ------------------------------------------------------------------
    # Construction from a FUP set (D(k)-construct)
    # ------------------------------------------------------------------
    @classmethod
    def construct(cls, graph: DataGraph,
                  fups: list[PathExpression]) -> "DkIndex":
        """Build a D(k)-index from scratch supporting all ``fups``."""
        requirement = required_similarity_by_label(graph, fups)
        max_k = max(requirement.values(), default=0)
        levels = kbisimulation_levels(graph, max_k)
        node_labels = graph.labels
        extents: dict[tuple[str, int], set[int]] = {}
        for oid in graph.nodes():
            label = node_labels[oid]
            block = levels[requirement[label]][oid]
            extents.setdefault((label, block), set()).add(oid)
        instance = cls.__new__(cls)
        instance.graph = graph
        instance.index = IndexGraph.from_extents(
            graph, ((extent, requirement[label])
                    for (label, _), extent in sorted(extents.items())))
        return instance

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def query(self, expr: PathExpression,
              counter: CostCounter | None = None) -> QueryResult:
        """Evaluate ``expr``, validating extents with insufficient ``k``."""
        return self.index.answer(expr, counter)

    def cache_fingerprint(self, expr: PathExpression) -> tuple:
        """Validity token for engine-level result caching."""
        return self.index.cache_token(expr)

    # ------------------------------------------------------------------
    # Incremental refinement (D(k)-promote)
    # ------------------------------------------------------------------
    def refine(self, expr: PathExpression,
               result: QueryResult | None = None,
               counter: CostCounter | None = None) -> None:
        """Refine the index to support FUP ``expr`` using ``PROMOTE``.

        ``result`` is accepted for interface compatibility with M(k)/M*(k)
        but ignored: the D(k)-index does not use target-set information —
        precisely why it over-refines irrelevant data nodes.  ``counter``
        meters the refinement work (evaluations plus mutation work via
        the index graph's work sink).
        """
        refine_fup(flat_family("dk", self.index, target_aware=False),
                   expr, result, counter)

    # ------------------------------------------------------------------
    # Size metrics
    # ------------------------------------------------------------------
    def size_nodes(self) -> int:
        return self.index.size_nodes()

    def size_edges(self) -> int:
        return self.index.size_edges()

    def __repr__(self) -> str:
        return (f"DkIndex(nodes={self.size_nodes()}, "
                f"edges={self.size_edges()})")
