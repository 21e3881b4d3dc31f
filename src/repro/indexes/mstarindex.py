"""The M*(k)-index (Section 4 of the paper).

An M*(k)-index is a sequence of component indexes ``I0, I1, ..., Ik``
organised in a partition hierarchy: component ``Ii`` caps local similarity
at ``i`` and ``I(i+1)`` refines ``Ii``; *cross-component links* connect
each supernode with its subnodes.  Keeping every resolution from 0 up to
the finest one required lets the index

* answer short queries on coarse (small) components and long queries
  top-down through progressively finer components, and
* split nodes using parents from the *previous* component, whose
  similarity is exactly ``k - 1`` — never overqualified — eliminating the
  over-refinement that D(k)-promote and M(k) suffer (Figure 4).

``REFINE*`` / ``REFINENODE*`` / ``SPLITNODE*`` / ``PROMOTE*`` are the
shared kernel of :mod:`repro.indexes.refine` with this file's hooks
plugged in: parents come from the supernode in ``I(k-1)``, a level-``k``
piece has its ancestor-supernode chain ``I1..Ik`` split coarsest first,
and :meth:`MStarIndex._replace` propagates every change to all
subsequent components immediately, so the hierarchy stays a chain of
refinements (the paper explains why delaying propagation breaks
Properties 3 and 4).

Query strategies (naive, top-down, subpath pre-filtering) live in
:mod:`repro.indexes.strategies`; :meth:`MStarIndex.query` defaults to the
top-down strategy the paper uses in its experiments.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.cost.counters import CostCounter
from repro.graph.datagraph import DataGraph
from repro.indexes.base import IndexGraph, IndexNode, QueryResult
from repro.indexes.partition import label_blocks
from repro.indexes.refine import Family, Parts, fup_requirement, refine_fup
from repro.obs import trace as _trace
from repro.queries.pathexpr import PathExpression


class MStarIndex:
    """Multiresolution structural index (a hierarchy of M(k) components)."""

    def __init__(self, graph: DataGraph) -> None:
        """Initialise with the single component ``I0`` (an A(0)-index)."""
        self.graph = graph
        self.components: list[IndexGraph] = [
            IndexGraph.from_blocks(graph, label_blocks(graph), k=0)]
        # supernode[i][nid] = id of nid's supernode in component i-1
        # (supernode[0] stays empty).
        self.supernode: list[dict[int, int]] = [{}]
        # subnodes[i][nid] = ids of nid's subnodes in component i+1
        # (absent for the last component).
        self.subnodes: list[dict[int, set[int]]] = []
        # Lazily created cost-based strategy chooser (strategy="auto").
        self._optimizer = None

    # ------------------------------------------------------------------
    # Component management
    # ------------------------------------------------------------------
    @property
    def max_resolution(self) -> int:
        """Index of the finest component (``k`` in "M*(k)")."""
        return len(self.components) - 1

    def extend_components(self, resolution: int) -> None:
        """Ensure components ``I0..Iresolution`` exist (REFINE* lines 1-3).

        Missing components are created by copying the last existing one;
        each copied node becomes the single subnode of its source.
        """
        while self.max_resolution < resolution:
            source = self.components[-1]
            copy = IndexGraph(self.graph)
            mapping: dict[int, int] = {}
            for nid in sorted(source.nodes):
                node = source.nodes[nid]
                # Share the immutable extent and trust its label: the
                # copy holds the identical partition, so the per-node
                # homogeneity scan and re-sort would be pure overhead.
                mapping[nid] = copy._add_node(node.extent, node.k,
                                              label=node.label)
            # Identical partitions induce identical index edges — clone
            # them through the id mapping instead of re-deriving from
            # every data edge (_rebuild_edges is O(E) per new component).
            for nid, new in mapping.items():
                copy._children[new] = {mapping[child]
                                       for child in source._children[nid]}
                copy._parents[new] = {mapping[parent]
                                      for parent in source._parents[nid]}
            self.subnodes.append({nid: {new} for nid, new in mapping.items()})
            self.supernode.append({new: nid for nid, new in mapping.items()})
            self.components.append(copy)

    def supernode_chain(self, nid: int, from_component: int,
                        to_component: int) -> int:
        """``supernode*(v, Ii)``: follow links from ``from_component`` up."""
        if not 0 <= to_component <= from_component:
            raise ValueError("need 0 <= to_component <= from_component")
        current = nid
        for i in range(from_component, to_component, -1):
            current = self.supernode[i][current]
        return current

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def query(self, expr: PathExpression,
              counter: CostCounter | None = None,
              strategy: str = "topdown") -> QueryResult:
        """Evaluate ``expr`` using the given strategy.

        ``strategy`` is one of ``"topdown"`` (the paper's experiments),
        ``"naive"``, ``"prefilter"``, ``"bottomup"``, ``"hybrid"`` (the
        last two are the Section 4.1 "other approaches", complete with
        the downward re-checks that make them lose to top-down), or
        ``"auto"`` — a cost-based chooser for the strategy-selection
        problem the paper leaves open (see
        :mod:`repro.indexes.optimizer`).
        """
        from repro.indexes import strategies

        dispatch = {
            "topdown": strategies.query_topdown,
            "naive": strategies.query_naive,
            "prefilter": strategies.query_prefilter,
            "bottomup": strategies.query_bottomup,
            "hybrid": strategies.query_hybrid,
        }
        if strategy != "auto" and strategy not in dispatch:
            raise ValueError(f"unknown strategy {strategy!r}")
        tracer = _trace.TRACER
        if expr.has_descendant_steps:
            # Descendant axes have unbounded instance length: no prefix-
            # per-component scheme applies, so evaluate in the finest
            # component and validate (the safe route).
            if tracer.enabled:
                with tracer.span("mstar.query", query=str(expr),
                                 strategy="naive-descendant"):
                    return strategies.query_naive(self, expr, counter)
            return strategies.query_naive(self, expr, counter)

        chosen = strategy
        if strategy == "auto":
            if self._optimizer is None:
                from repro.indexes.optimizer import StrategyOptimizer

                self._optimizer = StrategyOptimizer(self)
            chosen = self._optimizer.choose(expr)
        if tracer.enabled:
            # The strategy tag records the per-component evaluation route
            # actually taken (after the cost-based "auto" choice resolves).
            with tracer.span("mstar.query", query=str(expr),
                             strategy=chosen, requested=strategy):
                return dispatch[chosen](self, expr, counter)
        return dispatch[chosen](self, expr, counter)

    def cache_fingerprint(self, expr: PathExpression) -> tuple:
        """Validity token for engine-level result caching.

        Every component can contribute to an answer (strategies descend
        the hierarchy), so the token pins each component's own token plus
        the component count (``extend_components`` deepens the stack).
        """
        return (len(self.components),
                tuple(component.cache_token(expr)
                      for component in self.components))

    def query_branching(self, expr,
                        counter: CostCounter | None = None) -> QueryResult:
        """Evaluate a branching path expression (``//a[b/c]/d``).

        The trunk runs over the finest component the trunk length needs,
        with index-level predicate pruning; candidates are validated on
        the data graph (k-bisimilarity carries no downward guarantee, so
        branching answers always validate here).
        """
        from repro.queries.branching import branching_answer

        required = expr.length + (1 if expr.rooted else 0)
        component = min(required, self.max_resolution)
        return branching_answer(self.components[component], expr, counter)

    # ------------------------------------------------------------------
    # Refinement (REFINE*)
    # ------------------------------------------------------------------
    def refine(self, expr: PathExpression,
               result: QueryResult | None = None,
               counter: CostCounter | None = None) -> None:
        """``REFINE*(l, S, T)``: support FUP ``expr`` precisely from now on.

        ``counter`` meters the refinement work: index/data visits of the
        internal evaluations plus mutation work routed through each
        component's work sink.
        """
        if fup_requirement(expr) == 0:
            return  # I0 answers single-label queries precisely already
        refine_fup(Family(name="mstar", levels=self._levels,
                          parents_of=self._parents_in_previous,
                          commit=self._replace,
                          chain=lambda k: range(1, k + 1),
                          frontier=self._topdown_targets),
                   expr, result, counter)

    # -- what M*(k) plugs into the shared kernel --------------------------
    def _levels(self, required: int) -> list[IndexGraph]:
        """``REFINE*`` lines 1-3: level ``i`` lives in component ``Ii``."""
        self.extend_components(required)
        return self.components

    def _parents_in_previous(self, i: int, nid: int) -> list[IndexNode]:
        """Parents of the supernode in ``I(i-1)``: their similarity is
        exactly ``i - 1``, never more, so no split is overqualified."""
        previous = self.components[i - 1]
        return [previous.nodes[parent] for parent
                in sorted(previous.parents_of(self.supernode[i][nid]))]

    def _topdown_targets(self, expr: PathExpression, cost: CostCounter
                         ) -> tuple[int, list[IndexNode]]:
        """Targets along the top-down route queries take, which can reach
        a superset of the plain finest-component target set."""
        from repro.indexes.strategies import topdown_frontier

        component, frontier = topdown_frontier(self, expr, cost)
        nodes = self.components[component].nodes
        return component, [nodes[nid] for nid in sorted(frontier)]

    def _mutations(self) -> int:
        """Total replace_node count across components (progress probe)."""
        return sum(component.mutations for component in self.components)

    # ------------------------------------------------------------------
    # Split-with-links plumbing
    # ------------------------------------------------------------------
    def _replace(self, i: int, nid: int, parts: Parts,
                 piece_supernodes: Sequence[int] | None = None) -> list[int]:
        """Replace a node in component ``i`` and propagate downwards.

        The new pieces inherit the old node's supernode unless explicit
        ``piece_supernodes`` are given (used during propagation, where each
        piece of a subnode attaches to the piece of its split supernode
        that contains it).  Subnodes straddling several pieces are split
        recursively; their similarity becomes ``max(own k, supernode k)``
        capped at the component's resolution, which keeps Properties 4 and
        5 intact.
        """
        comp = self.components[i]
        is_last = i == self.max_resolution
        if i > 0:
            old_sup = self.supernode[i].pop(nid)
            # During downward propagation the old supernode is itself being
            # replaced and its subnode entry is already gone.
            old_sup_subs = self.subnodes[i - 1].get(old_sup)
            if old_sup_subs is not None:
                old_sup_subs.discard(nid)
            if piece_supernodes is None:
                piece_supernodes = [old_sup] * len(parts)
        old_subs = [] if is_last else sorted(self.subnodes[i].pop(nid))

        new_ids = comp.replace_node(nid, parts)

        for position, new_id in enumerate(new_ids):
            if i > 0:
                sup = piece_supernodes[position]
                self.supernode[i][new_id] = sup
                self.subnodes[i - 1][sup].add(new_id)
            if not is_last:
                self.subnodes[i][new_id] = set()

        if old_subs:
            piece_of = comp.node_of.__getitem__
            deeper = self.components[i + 1]
            for sub_nid in old_subs:
                sub_node = deeper.nodes[sub_nid]
                # Usually the subnode lies inside one piece and the
                # same extent comes back, uncopied, to change its ``k``.
                groups = sub_node.extent.split_by(
                    map(piece_of, sub_node.extent))
                piece_ids = sorted(groups)
                sub_parts: Parts = []
                for piece_id in piece_ids:
                    piece_k = comp.nodes[piece_id].k
                    if piece_k < i:
                        # Growth stopped below this component's cap:
                        # Property 5 pins every subnode to the same value
                        # (lowering a claim is always sound).
                        sub_k = piece_k
                    else:
                        # Piece at the cap: the subnode keeps its own
                        # similarity, raised to at least the piece's
                        # (subsets of a k-bisimilar set are k-bisimilar)
                        # and capped at the finer component's resolution.
                        sub_k = min(i + 1, max(sub_node.k, piece_k))
                    sub_parts.append((groups[piece_id], sub_k))
                self._replace(i + 1, sub_nid, sub_parts,
                              piece_supernodes=piece_ids)
        return new_ids

    # ------------------------------------------------------------------
    # Size metrics (Section 5 conventions)
    # ------------------------------------------------------------------
    def _is_duplicate(self, i: int, nid: int) -> bool:
        """Is this node the only subnode of its supernode (hence unstored)?"""
        if i == 0:
            return False
        sup = self.supernode[i][nid]
        return len(self.subnodes[i - 1][sup]) == 1

    def size_nodes(self) -> int:
        """Total nodes across components, skipping unstored duplicates."""
        total = self.components[0].num_nodes
        for i in range(1, len(self.components)):
            total += sum(1 for nid in self.components[i].nodes
                         if not self._is_duplicate(i, nid))
        return total

    def size_edges(self) -> int:
        """Total edges across components plus stored cross-component links.

        An edge in ``Ii`` whose endpoints are both unstored duplicates is a
        copy of the corresponding ``I(i-1)`` edge, so it is skipped; links
        from a supernode with a single subnode are skipped likewise.
        """
        total = self.components[0].num_edges
        for i in range(1, len(self.components)):
            comp = self.components[i]
            for nid in comp.nodes:
                nid_duplicate = self._is_duplicate(i, nid)
                for child in comp.children_of(nid):
                    if not (nid_duplicate and self._is_duplicate(i, child)):
                        total += 1
        for i in range(len(self.components) - 1):
            for subs in self.subnodes[i].values():
                if len(subs) >= 2:
                    total += len(subs)
        return total

    # ------------------------------------------------------------------
    # Invariants (Properties 1-5 of Section 4), used by the test suite
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify component structure, links, and Properties 2-5.

        (Property 1 — extents being k-bisimilar — can be overstated by the
        published refinement algorithms, see Figure 6; tests check it via
        ``IndexGraph.property1_violations`` where theory guarantees it.)
        """
        for i, comp in enumerate(self.components):
            comp.check_partition()
            comp.check_edges()
            for node in comp.nodes.values():
                if node.k > i:
                    raise AssertionError(
                        f"Property 2 violated: node {node.nid} in I{i} "
                        f"has k={node.k}")
        for i in range(1, len(self.components)):
            comp = self.components[i]
            coarser = self.components[i - 1]
            if set(self.supernode[i]) != set(comp.nodes):
                raise AssertionError(f"supernode map of I{i} out of sync")
            for nid, node in comp.nodes.items():
                sup = self.supernode[i][nid]
                sup_node = coarser.nodes[sup]
                if not node.extent <= sup_node.extent:
                    raise AssertionError(
                        f"Property 3 violated: I{i} node {nid} not inside "
                        f"its supernode")
                if not sup_node.k <= node.k <= sup_node.k + 1:
                    raise AssertionError(
                        f"Property 4 violated between I{i - 1}:{sup} "
                        f"(k={sup_node.k}) and I{i}:{nid} (k={node.k})")
                if sup_node.k < i - 1 and node.k != sup_node.k:
                    raise AssertionError(
                        f"Property 5 violated between I{i - 1}:{sup} "
                        f"(k={sup_node.k}) and I{i}:{nid} (k={node.k})")
            for sup, subs in self.subnodes[i - 1].items():
                extent_union: set[int] = set()
                for sub in subs:
                    if self.supernode[i][sub] != sup:
                        raise AssertionError("sub/supernode maps disagree")
                    extent_union.update(comp.nodes[sub].extent)
                if extent_union != coarser.nodes[sup].extent:
                    raise AssertionError(
                        f"subnodes of I{i - 1}:{sup} do not cover its extent")

    def __repr__(self) -> str:
        return (f"MStarIndex(components={len(self.components)}, "
                f"nodes={self.size_nodes()}, edges={self.size_edges()})")
