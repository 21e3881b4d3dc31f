"""The one REFINE kernel behind D(k), M(k) and M*(k).

The paper presents ``REFINENODE*`` / ``PROMOTE*`` (Section 4.2) as
``REFINENODE`` / ``PROMOTE'`` (Section 3.2) with a single change —
parents come from the supernode in ``I(k-1)`` — and ``PROMOTE'`` as the
D(k)-index's ``PROMOTE`` plus a long jump.  This module holds that one
algorithm once; :class:`Family` is everything an index family plugs in:

==========================  =======================  =======================
hook                        D(k) / M(k)              M*(k)
==========================  =======================  =======================
``levels`` (graph of a      the one index graph at   ``components`` (after
level-``i`` node)           every level              ``extend_components``)
``parents_of`` (where a     the node's own parents   parents of its supernode
node's parents live)                                 in ``I(i-1)``
``commit`` (how a split     ``replace_node``         ``_replace`` (propagates
is written)                                          to finer components)
``chain`` (levels split     just ``k``               ``1..k``, the ancestor-
for a level-``k`` piece)                             supernode chain
``frontier`` (targets of    ``evaluate`` (as for     ``topdown_frontier``
phases 1-2)                 phase 0)
==========================  =======================  =======================

``target_aware=False`` is D(k): it ignores the FUP's target set, so only
the promote phase runs and it never long-jumps.  ``merge_remainder=False``
is M(k)'s ablation of ``REFINENODE`` lines 19-26.

Three deliberate deviations from the published pseudocode, each stated
here once (``docs/algorithms.md`` has the history):

* **Split by every parent.**  ``REFINENODE`` lines 9-18 split only by
  *qualified* parents (those containing parents of relevant data).  That
  leaves relevant pieces mixed with data nodes that differ with respect
  to an unqualified parent — yet stamps them ``k``, a claim any later
  query of length <= k trusts without validation, returning false
  positives.  :meth:`_Refinement._split` partitions by every parent: a
  piece holding relevant data is reached only by qualified parent nodes
  (any parent node reaching it contains a parent of its relevant member),
  and those were just recursively refined to ``k - 1``, so the ``k``
  claim on relevant pieces is sound.  Pieces without relevant data still
  merge into one remainder at the old similarity, so neither of M(k)'s
  over-refinement avoidances is lost.
* **Phase 2, the overstated-target break.**  ``REFINE`` lines 3-4 test
  ``v.k < length(l)``, a proxy for the text's "an instance of l that
  leads to false positives": an unsound claim inherited from earlier
  history can leave a precise-looking target whose extent strays outside
  the true target set.  Phase 2 splits such targets along the truth
  boundary (:meth:`_Refinement.break_overstated`).
* **The long-jump probe is unmetered.**  ``PROMOTE'`` / ``PROMOTE*``
  re-evaluate the FUP after every split to bail out once no false
  instance remains; that ``evaluate(expr)`` charges a throwaway counter,
  not the refinement's, exactly as both forks did before the merge — so
  ``refine`` cost counters stay comparable across versions.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from itertools import chain

from repro.core.extents import Extent
from repro.cost.counters import CostCounter
from repro.graph.datagraph import DataGraph
from repro.graph.paths import pred_set
from repro.indexes.base import IndexGraph, IndexNode, QueryResult
from repro.obs import trace as _trace
from repro.queries.evaluator import evaluate_on_data_graph
from repro.queries.pathexpr import PathExpression

#: Hard stop for every refinement loop (safety net, not tuning): a correct
#: run needs far fewer rounds, so hitting this indicates a bug.
_MAX_REFINE_ROUNDS = 10_000

#: What a split hands to ``Family.commit``: packed ``(extent, k)`` pieces
#: that disjointly cover the node being replaced.
Parts = list[tuple[Extent, int]]


class _FalseInstancesGone(Exception):
    """Long jump out of ``PROMOTE'`` / ``PROMOTE*``: no false instance left."""


def fup_requirement(expr: PathExpression) -> int:
    """Similarity a FUP's targets need; refuses unsupportable FUPs."""
    if expr.has_wildcard:
        raise ValueError("FUPs must be simple label paths (no wildcards)")
    if expr.has_descendant_steps:
        raise ValueError("FUPs must use the child axis only "
                         "(descendant-axis instances have unbounded "
                         "length; no finite k can support them)")
    # A rooted expression implicitly traverses the edge from the
    # synthetic root: one more level of similarity.
    return expr.length + (1 if expr.rooted else 0)


# The scan of the extent's parent rows is charged where the split is
# committed: ``replace_node`` adds ``data_visits += len(old.extent)``.
# repro-lint: disable=cost-accounting
def partition_by_succ(graph: DataGraph, extent: Extent,
                      parent_nodes: Iterable[IndexNode],
                      node_of: Sequence[int]) -> list[Extent]:
    """Partition ``extent`` by each parent's ``Succ`` set, in order.

    The result is what splitting by ``Succ(parent.extent)`` for each of
    ``parent_nodes`` in turn gives, the part inside ``Succ`` before the
    part outside it — but computed from the extent side: one pass keys
    each member by the ranks (positions in ``parent_nodes``) of the
    parent nodes holding its data parents, found through ``node_of``
    (the oid -> node-id map of the graph ``parent_nodes`` live in).  Data
    parents held by no listed node do not count.

    Two members part ways at the first parent that holds a data parent
    of only one of them, and the one inside goes first; on sorted rank
    tuples that is lexicographic order with a trailing +inf (a proper
    prefix has fewer parents, so it sorts after; no parent at all sorts
    last).

    A member under one listed parent node — nearly every member, on XML —
    is keyed by that rank itself, and one under none by ``None``: a key
    tuple per member is a garbage-collector-tracked allocation per
    member, held until the groups are cut, and on a large extent that
    alone pushes the process into generation after generation of
    collections.
    """
    rank_of = {parent.nid: rank for rank, parent in enumerate(parent_nodes)}
    rank = rank_of.get
    parent_rows = graph.parent_rows()
    keys: list[int | tuple[int, ...] | None] = []
    for oid in extent:
        row = parent_rows[oid]
        if len(row) == 1:  # the XML case: one data parent
            keys.append(rank(node_of[row[0]]))
        else:
            held = {rank(node_of[parent]) for parent in row}
            held.discard(None)
            ranks = sorted(held)
            keys.append(tuple(ranks) if len(ranks) > 1
                        else ranks[0] if ranks else None)
    groups = extent.split_by(keys)
    infinity = len(rank_of)     # a rank no parent has

    def chain_order(key: int | tuple[int, ...] | None) -> tuple[int, ...]:
        if key is None:
            return (infinity,)
        if key.__class__ is tuple:
            return key + (infinity,)
        return (key, infinity)

    return [groups[key] for key in sorted(groups, key=chain_order)]


@dataclass(frozen=True)
class Family:
    """What one index family plugs into the kernel (see the module table)."""

    #: Span prefix: ``<name>.refine`` / ``.refinenode`` / ``.promote``.
    name: str
    #: ``levels(required)[i]`` is the index graph holding level-``i``
    #: nodes, for every ``i <= required``; M*(k) extends its hierarchy
    #: here (``REFINE*`` lines 1-3).  Every graph listed gets the
    #: refinement's counter as its work sink.
    levels: Callable[[int], Sequence[IndexGraph]]
    #: ``parents_of(i, nid)``: the parent nodes a level-``i`` node is split
    #: by, in ascending id order.  They are nodes of ``levels(...)[i - 1]``,
    #: whose ``node_of`` the split reads to place each data parent.
    parents_of: Callable[[int, int], list[IndexNode]]
    #: ``commit(i, nid, parts)``: replace a level-``i`` node by ``parts``.
    commit: Callable[[int, int, Parts], object]
    #: ``chain(k)``: the levels whose node around a level-``k`` piece is
    #: split, coarsest first (default: ``k`` alone).
    chain: Callable[[int], Iterable[int]] | None = None
    #: ``frontier(expr, cost)``: ``(level, targets)`` inspected by the
    #: promote and overstated phases (default: phase 0's ``evaluate``).
    frontier: Callable[[PathExpression, CostCounter],
                       tuple[int, list[IndexNode]]] | None = None
    merge_remainder: bool = True
    target_aware: bool = True


def flat_family(name: str, index: IndexGraph, *, merge_remainder: bool = True,
                target_aware: bool = True) -> Family:
    """D(k) / M(k): one index graph, parents and splits in that graph."""
    return Family(
        name=name,
        levels=lambda required: [index] * (required + 1),
        parents_of=lambda level, nid: [index.nodes[parent] for parent
                                    in sorted(index.parents_of(nid))],
        commit=lambda level, nid, parts: index.replace_node(nid, parts),
        merge_remainder=merge_remainder, target_aware=target_aware)


def refine_fup(family: Family, expr: PathExpression,
               result: QueryResult | None = None,
               counter: CostCounter | None = None) -> None:
    """``REFINE(l, S, T)`` / ``REFINE*`` / promote-until-supported.

    ``result`` is the :class:`QueryResult` of ``expr`` on this index (its
    ``answers`` are the target set ``T``); when omitted the target set is
    recomputed from the data graph.  ``counter`` meters the work: visits
    of the internal evaluations plus the mutation work every level's
    graph routes through its work sink.
    """
    required = fup_requirement(expr)
    cost = counter if counter is not None else CostCounter()
    tracer = _trace.TRACER
    span = tracer.span(f"{family.name}.refine", query=str(expr),
                       required=required) if tracer.enabled \
        else _trace.NULL_SPAN
    with span:
        levels = family.levels(required)
        outer_sinks = [graph.work_sink for graph in levels]
        for graph in levels:
            graph.work_sink = cost
        try:
            _Refinement(family, levels, expr, required, cost).run(result)
        finally:
            for graph, sink in zip(levels, outer_sinks):
                graph.work_sink = sink


class _Refinement:
    """One ``refine`` call: the three phases and the shared worklist."""

    def __init__(self, family: Family, levels: Sequence[IndexGraph],
                 expr: PathExpression, required: int,
                 cost: CostCounter) -> None:
        self.family = family
        self.levels = levels
        self.graph = levels[0].graph
        self.expr = expr
        self.required = required
        self.cost = cost

    def _mutations(self) -> int:
        """Progress probe: ``replace_node`` count over every level."""
        return sum(graph.mutations for graph in self.levels)

    def _frontier(self) -> tuple[int, list[IndexNode]]:
        if self.family.frontier is not None:
            return self.family.frontier(self.expr, self.cost)
        return self.required, self.levels[self.required].evaluate(
            self.expr, self.cost)

    def _stuck(self, what: str) -> RuntimeError:
        return RuntimeError(f"{self.family.name} {what} failed to converge "
                            f"for {self.expr}")

    # -- REFINE / REFINE* -------------------------------------------------
    def run(self, result: QueryResult | None) -> None:
        expr, required, cost = self.expr, self.required, self.cost
        truth: set[int] = set()
        if self.family.target_aware:
            target_data = (set(result.answers) if result is not None
                           else evaluate_on_data_graph(self.graph, expr, cost))
            # Phase 0 (REFINE lines 1-2, REFINE* lines 4-6): one walk of
            # the FUP per round, then ``foreach v in S`` — refine every
            # target node holding relevant data, passing only that data,
            # in the order the walk returned them.  Refining one target
            # can split a later one (cyclic data); ``descend`` tracks its
            # node by extent, so the stale node's pieces are re-resolved
            # and only those still short of ``required`` are refined.
            # The next round's walk confirms the fixpoint.
            finest = self.levels[required]
            for _ in range(_MAX_REFINE_ROUNDS):
                pending = [node for node in finest.evaluate(expr, cost)
                           if node.k < required and node.extent & target_data]
                if not pending:
                    break
                for node in pending:
                    self.descend(required, node.extent,
                                 node.extent & target_data)
            else:
                raise self._stuck("REFINENODE")
            truth = (target_data if result is None
                     else evaluate_on_data_graph(self.graph, expr, cost))

        # Phase 1 (the published false-instance loop, a cost optimisation;
        # all there is to D(k)): promote under-refined targets so future
        # runs of the FUP skip validation.  Promotion can stall when its
        # splits separate nothing (unsound parent claims inherited from
        # earlier refinement); stalled targets are left to validation.
        for _ in range(_MAX_REFINE_ROUNDS):
            _, targets = self._frontier()
            under = [node for node in targets if node.k < required]
            if not under:
                break
            before = self._mutations()
            try:
                self.descend(required, under[0].extent, None)
            except _FalseInstancesGone:
                break
            if self._mutations() == before:
                break  # no progress possible; validation keeps us correct
        else:
            raise self._stuck("PROMOTE")
        if not self.family.target_aware:
            return

        # Phase 2 (correctness): split overstated targets along the
        # true-target boundary, along the routes queries take.  Each
        # break removes one overstated target and creates none, so the
        # loop strictly decreases.
        for _ in range(_MAX_REFINE_ROUNDS):
            level, targets = self._frontier()
            over = [node for node in targets
                    if node.k >= required and not node.extent <= truth]
            if not over:
                return
            self.break_overstated(level, over[0], truth)
        raise self._stuck("REFINE")

    def break_overstated(self, level: int, node: IndexNode,
                         truth: set[int]) -> None:
        """Split an overstated target along the true-target boundary.

        The true part keeps the claimed similarity (its members all carry
        the FUP); the impostor part drops below ``required`` so every
        future query of this length validates it.
        """
        pieces = node.extent.split_by([oid in truth for oid in node.extent])
        parts: Parts = []
        if True in pieces:
            parts.append((pieces[True], node.k))
        if False in pieces:
            parts.append((pieces[False],
                          max(0, min(node.k, self.required - 1))))
        self.family.commit(level, node.nid, parts)

    # -- REFINENODE(*) / PROMOTE / PROMOTE' / PROMOTE* ----------------------
    def descend(self, k: int, extent: Extent,
                relevant: set[int] | None) -> None:
        """Raise the pieces of ``extent`` holding ``relevant`` data to ``k``.

        ``relevant=None`` means all data is relevant: the walk is then
        ``PROMOTE`` (recurse into *all* parents, keep every split piece
        at ``k``) and, for target-aware families, ``PROMOTE'`` /
        ``PROMOTE*`` — it re-checks the FUP after each fully split node
        (never between individual parent splits, so every assigned ``k``
        is backed by a full split) and long-jumps out once no under-
        refined target remains.  That probe is deliberately unmetered
        (see the module docstring).

        The node is tracked by extent, not id: refining ancestors can
        split the node itself (it may be its own ancestor on cyclic
        data), so each piece is re-resolved through a live data node
        just before it is processed.
        """
        if k <= 0:
            return
        tracer = _trace.TRACER
        if not tracer.enabled:
            self._descend(k, extent, relevant)
        elif relevant is None:
            # A long jump unwinds through the span, which records it as
            # an ``error`` tag — the signal PROMOTE converged, no failure.
            with tracer.span(f"{self.family.name}.promote", k=k,
                             extent=len(extent), query=str(self.expr)):
                self._descend(k, extent, relevant)
        else:
            with tracer.span(f"{self.family.name}.refinenode", k=k,
                             extent=len(extent), relevant=len(relevant)):
                self._descend(k, extent, relevant)

    def _descend(self, k: int, extent: Extent,
                 relevant: set[int] | None) -> None:
        family = self.family
        graph = self.levels[k]
        node_of = graph.node_of
        split_levels = family.chain(k) if family.chain is not None else (k,)
        probing = relevant is None and family.target_aware
        pending = extent.to_set()
        while pending:
            piece = graph.nodes[node_of[min(pending)]]
            members = piece.extent.members()
            pending.difference_update(members)
            piece_relevant = members if relevant is None \
                else relevant & members
            if piece.k >= k or not piece_relevant:
                continue
            # REFINENODE lines 4-7: refine only parents containing
            # parents of relevant data (PROMOTE lines 3-4: all parents —
            # where D(k) drags irrelevant data nodes in).
            relevant_parents = None if relevant is None \
                else pred_set(self.graph, piece_relevant)
            parent_extents = [parent.extent
                              for parent in family.parents_of(k, piece.nid)]
            for parent_extent in parent_extents:
                if relevant_parents is None:
                    self.descend(k - 1, parent_extent, None)
                elif pred_data := relevant_parents & parent_extent:
                    self.descend(k - 1, parent_extent, pred_data)
            # REFINENODE lines 9-26 / REFINENODE* lines 9-13: split every
            # surviving relevant sub-piece — for M*(k) its whole ancestor
            # chain, coarsest first, re-resolved through a representative
            # data node because each split propagates down and renames
            # nodes (and can split sibling sub-pieces).
            sub_pending = set(members)
            while sub_pending:
                sub = graph.nodes[node_of[min(sub_pending)]]
                sub_members = sub.extent.members()
                sub_pending.difference_update(sub_members)
                sub_relevant = sub_members if relevant is None \
                    else relevant & sub_members
                if sub.k >= k or not sub_relevant:
                    continue
                representative = min(sub_relevant)
                for level in split_levels:
                    ancestor = self.levels[level].node_containing(
                        representative)
                    if ancestor.k >= level:
                        continue
                    self._split(level, ancestor, relevant)
                    if probing and not any(
                            node.k < self.required for node in
                            self.levels[self.required].evaluate(self.expr)):
                        raise _FalseInstancesGone

    def _split(self, level: int, node: IndexNode,
               relevant: set[int] | None) -> None:
        """Split ``node`` by every parent; relevant parts get ``level``.

        Parts without relevant data merge into one remainder keeping the
        old similarity (``REFINENODE`` lines 19-26).  With
        ``merge_remainder=False`` they stay apart but still keep the old
        similarity — their parents were never refined, so claiming
        ``level`` for them would be unsound.
        """
        k_old = node.k
        parts = partition_by_succ(self.graph, node.extent,
                                  self.family.parents_of(level, node.nid),
                                  self.levels[level - 1].node_of)
        kept = [relevant is None or not relevant.isdisjoint(part)
                for part in parts]
        if self.family.merge_remainder:
            replacement: Parts = [(part, level)
                                  for part, keep in zip(parts, kept) if keep]
            rest = [part for part, keep in zip(parts, kept) if not keep]
            if len(rest) == 1:
                replacement.append((rest[0], k_old))
            elif rest:
                # Ascending runs: merging them needs no deduplication.
                replacement.append((Extent.from_sorted(
                    sorted(chain.from_iterable(rest))), k_old))
        else:
            replacement = [(part, level if keep else k_old)
                           for part, keep in zip(parts, kept)]
        self.family.commit(level, node.nid, replacement)
