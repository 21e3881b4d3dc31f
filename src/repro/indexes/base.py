"""Index-graph core shared by all structural indexes.

An index graph ``I_G`` partitions the data nodes of ``G`` into *index
nodes*; each index node ``v`` stores its ``extent`` (set of oids), its
``label`` (all data nodes in an extent share one), and its local-similarity
value ``v.k``.  There is an index edge ``(u, v)`` iff some data edge runs
from ``u.extent`` to ``v.extent`` (Property 2 of the paper), which is
maintained incrementally as nodes are split.

The module also implements the generic query algorithm of Section 3.1:
evaluate the label path over the index graph (counting index-node visits),
then return extents verbatim where ``v.k >= length(query)`` and validate
them against the data graph otherwise (counting data-node visits).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain

from repro.core.extents import Extent
from repro.cost.counters import CostCounter
from repro.graph.datagraph import DataGraph
from repro.indexes.partition import kbisimulation_blocks, refine_once
from repro.obs import trace as _trace
from repro.queries.evaluator import required_similarity, validate_extent
from repro.queries.pathexpr import WILDCARD, PathExpression


_NOT_A_COVER = "parts must disjointly cover the old extent"


class IndexNode:
    """One equivalence class of data nodes.

    ``extent`` is an immutable sorted int array (:class:`Extent`); the
    constructor canonicalises whatever iterable it is given.  All set
    algebra against plain sets keeps working (``Extent`` interoperates),
    but iteration order is now always ascending-oid.
    """

    __slots__ = ("nid", "label", "k", "extent")

    def __init__(self, nid: int, label: str, k: int,
                 extent: Iterable[int]) -> None:
        self.nid = nid
        self.label = label
        self.k = k
        self.extent = Extent.from_iterable(extent)

    def __repr__(self) -> str:
        # The extent is pre-sorted: sampling the first few elements is
        # O(1), where sorting the whole extent for a sample was O(n log n)
        # per repr call inside debug/trace paths.
        shown: list = self.extent[:6]
        if len(self.extent) > 6:
            shown = shown + ["..."]
        return f"IndexNode({self.nid}, {self.label!r}, k={self.k}, extent={shown})"


@dataclass
class QueryResult:
    """Outcome of running a query through an index.

    ``answers`` is the returned target set of data nodes; ``target_nodes``
    are the index nodes the query reached; ``cost`` is the two-part cost
    counter; ``validated`` tells whether any extent needed validation
    (i.e. the index was not precise enough for this query on its own).
    """

    answers: set[int]
    target_nodes: list[IndexNode]
    cost: CostCounter = field(default_factory=CostCounter)
    validated: bool = False


def answer_run(result: QueryResult) -> Extent:
    """``result.answers`` as one immutable ascending run.

    An unvalidated answer *is* the union of the target nodes' extents,
    and those are ascending runs already, so the run is put together
    from them (:meth:`Extent.from_disjoint_runs`: shared, concatenated
    or merged) instead of ordering every member of a hash set.  Target
    extents that overlap, or targets that do not carry the whole
    answer, do not add up to ``len(answers)``; that case and validated
    results are canonicalised from the answer set itself.
    """
    answers = result.answers
    if not result.validated:
        extents = [node.extent for node in result.target_nodes]
        if all(isinstance(extent, Extent) for extent in extents):
            run = Extent.from_disjoint_runs(extents, len(answers))
            if run is not None:
                return run
    return Extent.from_iterable(answers)


@dataclass
class _TargetNode:
    """Materialised view of one on-disk index node (query result detail)."""

    nid: int
    label: str
    k: int
    extent: set[int]


def answer_stored_nodes(graph: DataGraph, expr: PathExpression,
                        stored: Iterable[tuple[int, str, int, Iterable[int]]],
                        cost: CostCounter) -> QueryResult:
    """Section 3.1's epilogue for target nodes read back from disk.

    ``stored`` yields ``(nid, label, k, extent members)`` per target
    node; as in :meth:`IndexGraph.answer`, an extent whose ``k`` meets
    :func:`required_similarity` is returned verbatim and any other is
    validated against ``graph``, charging data-node visits to ``cost``.
    """
    required = required_similarity(graph, expr)
    answers: set[int] = set()
    targets: list[_TargetNode] = []
    validated = False
    for nid, label, k, members in stored:
        node = _TargetNode(nid, label, k, set(members))
        targets.append(node)
        if k >= required:
            answers |= node.extent
        else:
            validated = True
            answers |= validate_extent(graph, expr, node.extent, cost)
    return QueryResult(answers=answers, target_nodes=targets,  # type: ignore[arg-type]
                       cost=cost, validated=validated)


class IndexGraph:
    """A mutable structural-index graph over a fixed data graph."""

    def __init__(self, graph: DataGraph) -> None:
        self.graph = graph
        self.nodes: dict[int, IndexNode] = {}
        self._parents: dict[int, set[int]] = {}
        self._children: dict[int, set[int]] = {}
        self._by_label: dict[str, set[int]] = {}
        # oid -> index-node id; filled as nodes are added.
        self.node_of: list[int] = [-1] * graph.num_nodes
        self._next_id = 0
        #: Bumped by every replace_node call; refinement loops use it to
        #: detect that a pass made no progress.
        self.mutations = 0
        #: Per-label mutation counters: a split (or k change) of a node
        #: labelled ``l`` bumps ``label_versions[l]`` only, so cached
        #: results for expressions not mentioning ``l`` stay live.
        self.label_versions: dict[str, int] = {}
        #: Bumped by data-graph maintenance (node/edge registration and
        #: demotions), which can change answers or similarity claims for
        #: labels far from the touched nodes — every cached result dies.
        self.epoch = 0
        #: When set, structural mutations charge their work here (index
        #: visits for nodes written, data visits for extents scanned while
        #: rebuilding edges) — how refinement cost gets metered.
        self.work_sink: CostCounter | None = None
        # expr -> sorted label tuple used by cache_token (the label set
        # of an expression never changes; recomputing it per query
        # showed up in replay profiles).
        self._token_labels: dict[PathExpression, tuple[str, ...]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_extents(cls, graph: DataGraph,
                     extents: Iterable[tuple[set[int], int]]) -> "IndexGraph":
        """Build an index graph from ``(extent, k)`` pairs.

        The extents must partition the oids of ``graph`` and each must be
        label-homogeneous.  Edges are derived from the data graph in one
        pass.
        """
        index = cls(graph)
        for extent, k in extents:
            index._add_node(extent, k)
        index._assert_covering()
        index._rebuild_edges()
        return index

    @classmethod
    def from_blocks(cls, graph: DataGraph, blocks: Sequence[int],
                    k: int) -> "IndexGraph":
        """Build from a block assignment (one block id per oid), uniform k."""
        extents: dict[int, set[int]] = {}
        for oid, block in enumerate(blocks):
            extents.setdefault(block, set()).add(oid)
        return cls.from_extents(graph, ((extent, k)
                                        for _, extent in sorted(extents.items())))

    def _add_node(self, extent: Iterable[int], k: int,
                  label: str | None = None) -> int:
        """Add one index node.  ``label`` may be passed by callers that
        already know the extent is homogeneous (splits of an existing
        node, component copies) to skip the per-oid homogeneity scan."""
        if not extent:
            raise ValueError("index node extent must be non-empty")
        if label is None:
            labels = {self.graph.labels[oid] for oid in extent}
            if len(labels) != 1:
                raise ValueError(f"extent mixes labels {sorted(labels)}")
            # labels has exactly one element (checked above), so pop()
            # cannot depend on hash order.
            # repro-lint: disable=determinism
            label = labels.pop()
        nid = self._register_node(extent, k, label)
        for oid in extent:
            self.node_of[oid] = nid
        return nid

    def _register_node(self, extent: Iterable[int], k: int,
                       label: str) -> int:
        """Allocate the next node id for ``extent``; the caller owns the
        ``node_of`` entries of its members."""
        nid = self._next_id
        self._next_id += 1
        self.nodes[nid] = IndexNode(nid, label, k, extent)
        self._parents[nid] = set()
        self._children[nid] = set()
        self._by_label.setdefault(label, set()).add(nid)
        return nid

    def _assert_covering(self) -> None:
        missing = [oid for oid, nid in enumerate(self.node_of) if nid < 0]
        if missing:
            raise ValueError(
                f"{len(missing)} data nodes not covered, e.g. {missing[:5]}")

    # Construction-time edge walk: runs once when the index is (re)built,
    # outside the per-query cost metric.
    # repro-lint: disable=cost-accounting
    def _rebuild_edges(self) -> None:
        for nid in self.nodes:
            self._parents[nid].clear()
            self._children[nid].clear()
        node_of = self.node_of
        children = self._children
        parents = self._parents
        # Walk the raw adjacency rows instead of the edges() generator:
        # one frame and no per-edge int() boxing on this O(E) pass.
        rows = self.graph.child_rows()
        for parent_oid in range(self.graph.num_nodes):
            row = rows[parent_oid]
            if not len(row):
                continue
            up = node_of[parent_oid]
            out = children[up]
            for child in row:
                down = node_of[child]
                out.add(down)
                parents[down].add(up)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return sum(len(kids) for kids in self._children.values())

    def size_nodes(self) -> int:
        """Paper size metric: number of index nodes."""
        return len(self.nodes)

    def size_edges(self) -> int:
        """Paper size metric: number of index edges."""
        return self.num_edges

    def parents_of(self, nid: int) -> set[int]:
        return self._parents[nid]

    def children_of(self, nid: int) -> set[int]:
        return self._children[nid]

    def nodes_with_label(self, label: str) -> set[int]:
        return self._by_label.get(label, set())

    def child_rows(self) -> Mapping[int, set[int]]:
        """Every node's :meth:`children_of` set by node id, for gathering
        many rows at once; read-only."""
        return self._children

    def parent_rows(self) -> Mapping[int, set[int]]:
        """Every node's :meth:`parents_of` set by node id; read-only."""
        return self._parents

    def node_containing(self, oid: int) -> IndexNode:
        """The index node whose extent contains data node ``oid``."""
        return self.nodes[self.node_of[oid]]

    def extents(self) -> list[frozenset[int]]:
        """All extents as a canonical (sorted) list of frozensets."""
        # Extents are pre-sorted arrays: their first element IS min().
        return [frozenset(node.extent) for node in
                sorted(self.nodes.values(), key=lambda node: node.extent[0])]

    def root_node(self) -> IndexNode:
        return self.node_containing(self.graph.root)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(nodes={self.num_nodes}, "
                f"edges={self.num_edges})")

    # ------------------------------------------------------------------
    # Mutation: node splitting
    # ------------------------------------------------------------------
    def replace_node(self, nid: int,
                     parts: Sequence[tuple[Iterable[int], int]]) -> list[int]:
        """Replace index node ``nid`` with the given ``(extent, k)`` parts.

        The parts must be a disjoint cover of the old extent.  Refinement
        hands them over packed (:class:`Extent`, which is stored as is);
        any other iterable of oids is canonicalised first.  Index edges
        incident to the node (including self-loops) are recomputed from
        the data graph; edges elsewhere are untouched.  Returns the new
        node ids, in the order given.  A rejected call (``ValueError``)
        leaves the index as it was.

        Passing a single part simply updates ``k`` (and keeps the node id),
        which is how refinement procedures "promote without splitting".
        """
        old = self.nodes[nid]
        old_extent = old.extent
        packed = [(Extent.from_iterable(extent), k) for extent, k in parts]

        if len(packed) == 1:
            extent, k = packed[0]
            if extent is not old_extent and extent != old_extent:
                raise ValueError(_NOT_A_COVER)
            if old.k != k:
                old.k = k
                self.mutations += 1
                self._bump_label(old.label)
                if self.work_sink is not None:
                    self.work_sink.index_visits += 1
            return [nid]

        # Cover check: the sizes add up, every member still belongs to
        # the old node, and — because each part is handed to its new id
        # as soon as it is checked — no member is claimed twice.
        if sum(len(extent) for extent, _ in packed) != len(old_extent):
            raise ValueError(_NOT_A_COVER)
        node_of = self.node_of
        owner = node_of.__getitem__
        for new_id, (extent, _) in enumerate(packed, self._next_id):
            if set(map(owner, extent)) != {nid}:
                for oid in old_extent:
                    node_of[oid] = nid
                raise ValueError(_NOT_A_COVER)
            for oid in extent:
                node_of[oid] = new_id

        self.mutations += 1
        self._bump_label(old.label)
        if self.work_sink is not None:
            self.work_sink.index_visits += len(packed)
            self.work_sink.data_visits += len(old_extent)

        # Detach the old node.
        for parent in self._parents[nid]:
            if parent != nid:
                self._children[parent].discard(nid)
        for child in self._children[nid]:
            if child != nid:
                self._parents[child].discard(nid)
        del self._parents[nid]
        del self._children[nid]
        del self.nodes[nid]
        self._by_label[old.label].discard(nid)

        # The parts cover the old extent, so they share its label.
        new_ids = [self._register_node(extent, k, old.label)
                   for extent, k in packed]

        # Derive edges touching the new parts from the data graph: one
        # gather over ``node_of`` per direction.  Every member already
        # maps to its new node, so edges among the parts themselves come
        # out right too.  Many data edges collapse onto one index edge;
        # the shared adjacency maps are touched once per *distinct*
        # neighbour, not once per data edge.
        child_row = self.graph.child_rows().__getitem__
        parent_row = self.graph.parent_rows().__getitem__
        flatten = chain.from_iterable
        all_parents = self._parents
        all_children = self._children
        for new_id, (extent, _) in zip(new_ids, packed):
            downs = set(map(owner, flatten(map(child_row, extent))))
            ups = set(map(owner, flatten(map(parent_row, extent))))
            # Rebinding the part's own rows is safe: edges added by
            # sibling parts processed earlier are recomputed from the
            # same data edges, and nothing external holds a reference to
            # a row this young.
            all_children[new_id] = downs
            all_parents[new_id] = ups
            for down in downs:
                all_parents[down].add(new_id)
            for up in ups:
                all_children[up].add(new_id)
        return new_ids

    # ------------------------------------------------------------------
    # Incremental data-graph maintenance (library extension; the paper
    # treats documents as static)
    # ------------------------------------------------------------------
    def insert_data_node(self, oid: int) -> int:
        """Register a data node appended to the graph after construction.

        The node becomes a singleton index node with ``k = 0`` (always
        sound: label equality holds trivially).  Its edges are registered
        separately via :meth:`register_data_edge`.
        """
        if oid != len(self.node_of):
            raise ValueError(
                f"data nodes must be registered in oid order "
                f"(expected {len(self.node_of)}, got {oid})")
        self.node_of.append(-1)
        self.epoch += 1
        return self._add_node({oid}, 0)

    def register_data_edge(self, parent_oid: int, child_oid: int) -> None:
        """Mirror a data edge added after construction; demote stale claims.

        The index edge keeps the safety property.  A new edge into
        ``child_oid`` changes the incoming label paths (beyond length
        ``d``) of every data node ``d`` steps below it, so each index
        node within BFS distance ``d`` of the child's node is demoted to
        ``k = min(k, d)`` — lowering a similarity claim is always sound.
        Subtree insertions under fresh singletons never demote anything
        (new nodes start at ``k = 0``; existing nodes' incoming paths are
        unchanged by gaining a child).
        """
        up = self.node_of[parent_oid]
        down = self.node_of[child_oid]
        if up < 0 or down < 0:
            raise ValueError("both endpoints must be registered first")
        self._children[up].add(down)
        self._parents[down].add(up)
        self.mutations += 1
        self.demote_below(down)

    def demote_below(self, nid: int) -> None:
        """BFS demotion: ``k = min(k, depth)`` below a changed node.

        A node ``d`` steps below keeps its incoming-path guarantees only
        up to length ``d`` (longer paths may cross the change), and the
        extent stays ``d``-bisimilar, so the demoted claim is sound.  The
        walk stops at the largest claim present — deeper nodes cannot
        need demotion.
        """
        # Demotion can lower k across arbitrary labels; per-label
        # versions cannot track it, so the whole cache generation dies.
        self.epoch += 1
        max_k = max((node.k for node in self.nodes.values()), default=0)
        frontier = {nid}
        seen = {nid}
        depth = 0
        while frontier and depth < max_k:
            for current in frontier:
                node = self.nodes[current]
                if node.k > depth:
                    node.k = depth
            next_frontier: set[int] = set()
            for current in frontier:
                for child in self._children[current]:
                    if child not in seen:
                        seen.add(child)
                        next_frontier.add(child)
            frontier = next_frontier
            depth += 1
        # Nodes at depth >= max_k have k <= depth already; nothing deeper
        # can need demotion.

    def _bump_label(self, label: str) -> None:
        self.label_versions[label] = self.label_versions.get(label, 0) + 1

    # ------------------------------------------------------------------
    # Result caching
    # ------------------------------------------------------------------
    def cache_token(self, expr: PathExpression) -> tuple:
        """Validity token for cached results of ``expr``.

        A stored result may be served verbatim while its token still
        matches: the token pins everything the answer (and its
        ``validated`` flag) can depend on.  Expressions with wildcards or
        descendant axes can touch nodes of any label, so they pin the
        global ``mutations`` counter; plain label paths pin only the
        versions of their own labels — splits elsewhere never alter which
        index nodes a label-filtered navigation can reach.  Rooted
        expressions additionally pin the root node's label (navigation
        starts there), and every token pins ``epoch`` because data-graph
        maintenance invalidates all bets.
        """
        if expr.has_wildcard or expr.has_descendant_steps:
            return (self.epoch, self.mutations)
        labels = self._token_labels.get(expr)
        if labels is None:
            label_set = set(expr.labels)
            if expr.rooted:
                # The root's label is fixed for the graph's lifetime, so
                # memoising it with the expression's labels is safe.
                label_set.add(self.nodes[self.node_of[self.graph.root]].label)
            labels = tuple(sorted(label_set))
            if len(self._token_labels) >= 4096:
                self._token_labels.clear()
            self._token_labels[expr] = labels
        versions = self.label_versions
        return (self.epoch,) + tuple(
            (label, versions.get(label, 0)) for label in labels)

    # ------------------------------------------------------------------
    # Query evaluation (Section 3.1)
    # ------------------------------------------------------------------
    def evaluate(self, expr: PathExpression,
                 counter: CostCounter | None = None) -> list[IndexNode]:
        """Target set of ``expr`` in the index graph.

        Returns the index nodes reachable by the expression's label path.
        Each index node examined during navigation is charged as one
        index-node visit.
        """
        counter = counter if counter is not None else CostCounter()
        first = expr.labels[0]
        if expr.rooted:
            root_nid = self.node_of[self.graph.root]
            counter.index_visits += 1
            frontier = {root_nid}
            positions = list(range(len(expr.labels)))
        else:
            if first == WILDCARD:
                frontier = set(self.nodes)
            else:
                # Read-only below (steps rebind, never mutate), so the
                # by-label set is used directly instead of copied.
                frontier = self._by_label.get(first, set())
            counter.index_visits += len(frontier)
            positions = list(range(1, len(expr.labels)))
        for position in positions:
            label = expr.labels[position]
            if position in expr.descendant_steps:
                candidates = self._descendant_closure(frontier, counter)
                frontier = {nid for nid in candidates
                            if label == WILDCARD
                            or self.nodes[nid].label == label}
            else:
                # Each child examined costs one index visit; the charge
                # is batched per row (identical totals, fewer attribute
                # stores in the hottest navigation loop).
                # Stays a loop: REFINE phase 0 takes its order as pending.
                next_frontier: set[int] = set()
                children = self._children
                nodes = self.nodes
                examined = 0
                if label == WILDCARD:
                    for nid in frontier:
                        row = children[nid]
                        examined += len(row)
                        next_frontier.update(row)
                else:
                    for nid in frontier:
                        row = children[nid]
                        examined += len(row)
                        for child in row:
                            if nodes[child].label == label:
                                next_frontier.add(child)
                counter.index_visits += examined
                frontier = next_frontier
            if not frontier:
                break
        return [self.nodes[nid] for nid in frontier]

    def _descendant_closure(self, frontier: set[int],
                            counter: CostCounter) -> set[int]:
        """Index nodes reachable from ``frontier`` via >= 1 edges."""
        reached: set[int] = set()
        queue = list(frontier)
        while queue:
            nid = queue.pop()
            for child in self._children[nid]:
                counter.index_visits += 1
                if child not in reached:
                    reached.add(child)
                    queue.append(child)
        return reached

    def answer(self, expr: PathExpression,
               counter: CostCounter | None = None) -> QueryResult:
        """Run the full query algorithm: evaluate, then validate if needed.

        For each target index node ``v``: when ``v.k >= length(expr)`` the
        extent is returned as-is (the index is precise for the query at
        ``v``); otherwise each data node in the extent is validated against
        the data graph, charging data-node visits.
        """
        cost = counter if counter is not None else CostCounter()
        tracer = _trace.TRACER
        outer = tracer.span("index.answer", query=str(expr)) \
            if tracer.enabled else _trace.NULL_SPAN
        with outer:
            targets = self.evaluate(expr, cost)
            answers: set[int] = set()
            validated = False
            # A rooted expression implicitly traverses one more edge (from
            # the synthetic root), so precision needs one extra level of
            # similarity — and only when the root's label is unique to the
            # root (see required_similarity); descendant axes make the
            # instance length unbounded, so no finite similarity can
            # certify them.
            required = required_similarity(self.graph, expr)
            for node in targets:
                if node.k >= required:
                    answers.update(node.extent.members())
                else:
                    validated = True
                    answers |= validate_extent(self.graph, expr,
                                               node.extent, cost)
            return QueryResult(answers=answers, target_nodes=targets,
                               cost=cost, validated=validated)

    # ------------------------------------------------------------------
    # Invariant checking (used heavily by the test suite)
    # ------------------------------------------------------------------
    def check_partition(self) -> None:
        """Extents disjointly cover the data nodes; ``node_of`` agrees."""
        seen: set[int] = set()
        for node in self.nodes.values():
            if not node.extent:
                raise AssertionError(f"empty extent in {node}")
            overlap = seen & node.extent
            if overlap:
                raise AssertionError(f"extent overlap at oids {sorted(overlap)[:5]}")
            seen.update(node.extent)
            for oid in node.extent:
                if self.node_of[oid] != node.nid:
                    raise AssertionError(f"node_of[{oid}] stale")
        if len(seen) != self.graph.num_nodes:
            raise AssertionError("extents do not cover the data graph")

    # Invariant checker (tests/oracles only), not a metered query path.
    # repro-lint: disable=cost-accounting
    def check_edges(self) -> None:
        """Property 2: index edges mirror data edges exactly."""
        expected_children: dict[int, set[int]] = {nid: set() for nid in self.nodes}
        node_of = self.node_of
        for parent, child in self.graph.edges():
            expected_children[node_of[parent]].add(node_of[child])
        for nid, expected in expected_children.items():
            if self._children[nid] != expected:
                raise AssertionError(f"children of index node {nid} wrong: "
                                     f"{self._children[nid]} != {expected}")
        expected_parents: dict[int, set[int]] = {nid: set() for nid in self.nodes}
        for nid, expected in expected_children.items():
            for child in expected:
                expected_parents[child].add(nid)
        for nid, expected in expected_parents.items():
            if self._parents[nid] != expected:
                raise AssertionError(f"parents of index node {nid} wrong")

    def property3_violations(self) -> list[tuple[int, int]]:
        """Edges ``(u, v)`` where ``u.k < v.k - 1`` (Property 3 breaches)."""
        violations = []
        for nid, node in self.nodes.items():
            for child in self._children[nid]:
                if node.k < self.nodes[child].k - 1:
                    violations.append((nid, child))
        return violations

    def property1_violations(self) -> list[int]:
        """Index nodes whose extent is not ``v.k``-bisimilar.

        Guaranteed empty for 1-/A(k)-/D(k)-construct indexes; the published
        M(k)/M*(k) refinement can (rarely) overstate ``k`` — see Figure 6
        of the paper — so tests treat this as a report, not an assertion,
        for those indexes.
        """
        max_k = max((node.k for node in self.nodes.values()), default=0)
        level_blocks = [kbisimulation_blocks(self.graph, 0)]
        for _ in range(max_k):
            level_blocks.append(refine_once(self.graph, level_blocks[-1]))
        violating = []
        for nid, node in self.nodes.items():
            blocks = level_blocks[node.k]
            if len({blocks[oid] for oid in node.extent}) > 1:
                violating.append(nid)
        return violating
