"""The M(k)-index (Section 3 of the paper).

Like the D(k)-index, the M(k)-index gives each index node its own local
similarity and refines incrementally to support frequently-used path
expressions (FUPs).  Unlike the D(k)-index, its refinement procedure
receives the FUP's *target set in the data graph* (obtained for free by
the query algorithm's validation step) and uses it twice:

* a parent is refined only when its extent contains parents of relevant
  data nodes (``REFINENODE`` lines 4-7), avoiding over-refinement of
  irrelevant *index* nodes; and
* after splitting, pieces holding no relevant data are merged back into a
  single remainder node that keeps the old similarity value
  (``REFINENODE`` lines 19-26), avoiding over-refinement for irrelevant
  *data* nodes.

Refinement can occasionally create a brand-new false instance of the FUP
(Figure 6 of the paper); the final loop of ``REFINE`` breaks those with
``PROMOTE'``, a promote variant that long-jumps out as soon as no false
instance remains.

``REFINE`` / ``REFINENODE`` / ``PROMOTE'`` are the shared kernel of
:mod:`repro.indexes.refine` run over this one index graph (parents and
splits in the same graph); its docstring states the deliberate
deviations from the published pseudocode — above all that the split
inside ``REFINENODE`` partitions by *every* parent of the node, not only
the qualified ones, which the differential oracle (:mod:`repro.verify`,
``docs/verification.md``) showed to be needed for soundness.  This file
keeps construction and querying.
"""

from __future__ import annotations

from repro.cost.counters import CostCounter
from repro.graph.datagraph import DataGraph
from repro.indexes.base import IndexGraph, QueryResult
from repro.indexes.partition import label_blocks
from repro.indexes.refine import flat_family, refine_fup
from repro.queries.pathexpr import PathExpression


class MkIndex:
    """Workload-aware structural index without irrelevant over-refinement."""

    def __init__(self, graph: DataGraph, merge_remainder: bool = True) -> None:
        """Initialise with ``k = 0`` everywhere (an A(0)-index).

        ``merge_remainder=False`` disables lines 19-26 of ``REFINENODE``
        (the irrelevant-split merge), leaving qualified-parent splitting
        only — an ablation quantifying how much of M(k)'s size advantage
        the merge contributes.
        """
        self.graph = graph
        self.merge_remainder = merge_remainder
        self.index = IndexGraph.from_blocks(graph, label_blocks(graph), k=0)

    @classmethod
    def from_partition(cls, graph: DataGraph,
                       extents: list[tuple[set[int], int]]) -> "MkIndex":
        """Start from an explicit ``(extent, k)`` partition (test/fixture
        support, e.g. the over-refined starting index of Figure 4)."""
        index = cls.__new__(cls)
        index.graph = graph
        index.merge_remainder = True
        index.index = IndexGraph.from_extents(graph, extents)
        return index

    # ------------------------------------------------------------------
    # Querying (Section 3.1)
    # ------------------------------------------------------------------
    def query(self, expr: PathExpression,
              counter: CostCounter | None = None) -> QueryResult:
        """Evaluate ``expr``, validating extents whose ``k`` is too small.

        The validated answer doubles as the FUP target set handed to
        :meth:`refine` — the information that lets M(k) avoid
        over-refinement.
        """
        return self.index.answer(expr, counter)

    def cache_fingerprint(self, expr: PathExpression) -> tuple:
        """Validity token for engine-level result caching."""
        return self.index.cache_token(expr)

    # ------------------------------------------------------------------
    # Refinement (Section 3.2)
    # ------------------------------------------------------------------
    def refine(self, expr: PathExpression,
               result: QueryResult | None = None,
               counter: CostCounter | None = None) -> None:
        """``REFINE(l, S, T)``: support FUP ``expr`` precisely from now on.

        ``result`` should be the :class:`QueryResult` of querying ``expr``
        on this index (its ``answers`` are the target set ``T``); when
        omitted, the target set is recomputed from the data graph.
        ``counter`` meters the refinement work: index/data visits of the
        internal evaluations plus the mutation work routed through the
        index graph's work sink.
        """
        refine_fup(flat_family("mk", self.index,
                               merge_remainder=self.merge_remainder),
                   expr, result, counter)

    # ------------------------------------------------------------------
    # Size metrics
    # ------------------------------------------------------------------
    def size_nodes(self) -> int:
        return self.index.size_nodes()

    def size_edges(self) -> int:
        return self.index.size_edges()

    def __repr__(self) -> str:
        return (f"MkIndex(nodes={self.size_nodes()}, "
                f"edges={self.size_edges()})")
