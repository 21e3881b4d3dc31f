"""Query-evaluation strategies for the M*(k)-index (Section 4.1).

Five strategies (the paper presents the first three in detail and
sketches bottom-up/hybrid as "other approaches"):

* **naive** — jump straight to component ``I(length)`` (clamped to the
  finest available) and run the plain M(k) query algorithm there.
* **top-down** (``QUERYTOPDOWN``) — evaluate prefixes of increasing length,
  each in the coarsest component that can support it, descending through
  cross-component links between steps.  This is the strategy the paper's
  experiments use.
* **subpath pre-filtering** — evaluate a selective subpath in a coarse
  component first, descend the few survivors to the fine component, and
  verify the rest of the expression only through the surviving cone.

All strategies are safe; whenever a target node's similarity is below the
query length its extent is validated against the data graph, with both
cost components charged to the same counter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cost.counters import CostCounter
from repro.indexes.base import QueryResult
from repro.queries.evaluator import (
    required_similarity,
    validate_candidate,
    validate_extent,
)
from repro.queries.pathexpr import WILDCARD, PathExpression

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.indexes.base import IndexGraph
    from repro.indexes.mstarindex import MStarIndex


def _finish(index: "MStarIndex", expr: PathExpression, component: int,
            frontier: set[int], cost: CostCounter) -> QueryResult:
    """Shared epilogue: extract answers, validating under-refined extents."""
    comp = index.components[component]
    required = required_similarity(index.graph, expr)
    targets = [comp.nodes[nid] for nid in sorted(frontier)]
    answers: set[int] = set()
    validated = False
    for node in targets:
        if node.k >= required:
            answers.update(node.extent.members())
        else:
            validated = True
            answers |= validate_extent(index.graph, expr, node.extent, cost)
    return QueryResult(answers=answers, target_nodes=targets, cost=cost,
                       validated=validated)


def _start_frontier(index: "MStarIndex", expr: PathExpression,
                    cost: CostCounter) -> tuple[set[int], range]:
    """Initial component-0 frontier and the label positions left to step."""
    comp0 = index.components[0]
    if expr.rooted:
        frontier = {comp0.node_of[index.graph.root]}
        cost.index_visits += 1
        return frontier, range(len(expr.labels))
    first = expr.labels[0]
    if first == WILDCARD:
        frontier = set(comp0.nodes)
    else:
        frontier = set(comp0.nodes_with_label(first))
    cost.index_visits += len(frontier)
    return frontier, range(1, len(expr.labels))


#: Probe when a forward step examines 4x more children than the label has
#: nodes: one probe's parent-row test costs a few unioned children.
_PROBE_RATIO = 4


def _step(comp: "IndexGraph", frontier: set[int], label: str,
          cost: CostCounter) -> set[int]:
    """The children of ``frontier`` in ``comp`` labelled ``label``.

    Charges one index visit per child examined, i.e. the frontier's row
    lengths, whichever side the set is computed from: forward, as the
    union of the rows intersected with the label's nodes, or, when the
    label's nodes are few, by keeping those with a parent in the frontier.
    """
    rows = list(map(comp.child_rows().__getitem__, frontier))
    examined = sum(map(len, rows))
    cost.index_visits += examined
    if label == WILDCARD:
        return set().union(*rows)
    candidates = comp.nodes_with_label(label)
    if len(candidates) * _PROBE_RATIO < examined:
        parents = comp.parent_rows()
        return {child for child in candidates
                if not frontier.isdisjoint(parents[child])}
    return set().union(*rows) & candidates


def _descend_one(index: "MStarIndex", component: int, frontier: set[int],
                 cost: CostCounter) -> set[int]:
    """Follow cross-component links one component down, charging one
    index visit per subnode."""
    rows = list(map(index.subnodes[component].__getitem__, frontier))
    cost.index_visits += sum(map(len, rows))
    return set().union(*rows)


def query_naive(index: "MStarIndex", expr: PathExpression,
                counter: CostCounter | None = None) -> QueryResult:
    """Evaluate entirely in the finest component the query length needs."""
    required = expr.length + (1 if expr.rooted else 0)
    component = min(required, index.max_resolution)
    cost = counter if counter is not None else CostCounter()
    frontier = {node.nid
                for node in index.components[component].evaluate(expr, cost)}
    return _finish(index, expr, component, frontier, cost)


def query_topdown(index: "MStarIndex", expr: PathExpression,
                  counter: CostCounter | None = None,
                  eager_validation: bool = False) -> QueryResult:
    """``QUERYTOPDOWN``: evaluate prefixes in increasingly fine components.

    A prefix consuming ``p`` edges is evaluated in component ``Ip``
    (clamped to the finest available); before each step the frontier
    descends through cross-component links, and every subnode or child
    examined costs one index-node visit.
    """
    cost = counter if counter is not None else CostCounter()
    component, frontier = topdown_frontier(index, expr, cost,
                                           eager_validation=eager_validation)
    return _finish(index, expr, component, frontier, cost)


def topdown_frontier(index: "MStarIndex", expr: PathExpression,
                     counter: CostCounter | None = None,
                     eager_validation: bool = False) -> tuple[int, set[int]]:
    """The top-down walk's final ``(component, target-node-id set)``.

    Shared by :func:`query_topdown` and the M*(k) refinement procedure,
    which must break false instances along the same routes queries take.

    ``eager_validation`` implements the remark after ``QUERYTOPDOWN`` —
    "in practice, it would be more efficient to validate after
    evaluating each prefix": after each step, frontier nodes whose
    similarity cannot certify the prefix are checked against the data
    graph and dropped when no extent member carries the prefix, pruning
    dead branches before they fan out (data-node visits are charged as
    usual).
    """
    cost = counter if counter is not None else CostCounter()
    frontier, positions = _start_frontier(index, expr, cost)
    last = index.max_resolution
    current = 0
    edge_offset = 1 if expr.rooted else 0
    for position in positions:
        target_component = min(position + edge_offset, last)
        while current < target_component and frontier:
            frontier = _descend_one(index, current, frontier, cost)
            current += 1
        comp = index.components[current]
        frontier = _step(comp, frontier, expr.labels[position], cost)
        if not frontier:
            break
        if eager_validation and position < len(expr.labels) - 1:
            prefix = expr.prefix(position + 1)
            prefix_required = required_similarity(index.graph, prefix)
            pruned: set[int] = set()
            for nid in frontier:
                node = comp.nodes[nid]
                if node.k >= prefix_required:
                    pruned.add(nid)
                    continue
                if any(validate_candidate(index.graph, prefix, oid, cost)
                       for oid in node.extent):
                    pruned.add(nid)
            frontier = pruned
            if not frontier:
                break
    return current, frontier


def choose_subpath(index: "MStarIndex", expr: PathExpression) -> tuple[int, int]:
    """Pick ``(start, num_labels)`` of a selective subpath for pre-filtering.

    Heuristic: among windows of about half the expression, choose the one
    whose labels are rarest in component 0 (fewest data nodes carrying
    them), i.e. the most selective filter per node visited.
    """
    num_labels = len(expr.labels)
    window = max(1, (num_labels + 1) // 2)
    graph = index.graph

    def label_weight(label: str) -> int:
        if label == WILDCARD:
            return graph.num_nodes
        return len(graph.nodes_with_label(label))

    weights = [label_weight(label) for label in expr.labels]
    best_start = 0
    best_score = None
    for start in range(num_labels - window + 1):
        score = sum(weights[start:start + window])
        if best_score is None or score < best_score:
            best_score = score
            best_start = start
    return best_start, window


def _filter_by_outgoing(index: "MStarIndex", component: int,
                        heads: set[int], labels: tuple[str, ...],
                        cost: CostCounter) -> set[int]:
    """Heads (index-node ids in ``component``) that really have the label
    sequence as an outgoing path *within that component*.

    Bisimulation components only guarantee incoming paths, so moving to a
    finer component can lose outgoing paths; this is the "check
    downwards" step Section 4.1 says bottom-up evaluation must perform.
    Implemented as a forward walk recording level sets followed by a
    backward survival pass, charging one index-node visit per node
    examined in each direction.
    """
    if len(labels) == 1:
        return heads
    comp = index.components[component]
    levels: list[set[int]] = [set(heads)]
    for label in labels[1:]:
        stepped: set[int] = set()
        for nid in levels[-1]:
            for child in comp.children_of(nid):
                cost.index_visits += 1
                if label == WILDCARD or comp.nodes[child].label == label:
                    stepped.add(child)
        levels.append(stepped)
        if not stepped:
            return set()
    surviving = levels[-1]
    for position in range(len(labels) - 2, -1, -1):
        kept: set[int] = set()
        for nid in levels[position]:
            for child in comp.children_of(nid):
                cost.index_visits += 1
                if child in surviving:
                    kept.add(nid)
                    break
        surviving = kept
        if not surviving:
            return set()
    return surviving


def query_bottomup(index: "MStarIndex", expr: PathExpression,
                   counter: CostCounter | None = None) -> QueryResult:
    """Bottom-up evaluation (Section 4.1, "Other approaches").

    Evaluates progressively longer *suffixes* in progressively finer
    components: the heads of a length-``s`` suffix live in component
    ``Is``.  Because k-bisimilarity gives no outgoing-path guarantee,
    every move to a finer component re-checks that the suffix still
    exists below each head — the overhead that makes this strategy lose
    to top-down, exactly as the paper argues.  Rooted expressions fall
    back to top-down (their anchor is at the wrong end for this walk).
    """
    cost = counter if counter is not None else CostCounter()
    if expr.rooted:
        return query_topdown(index, expr, cost)
    required = expr.length
    target_component = min(required, index.max_resolution)

    last_label = expr.labels[-1]
    comp0 = index.components[0]
    if last_label == WILDCARD:
        heads = set(comp0.nodes)
    else:
        heads = set(comp0.nodes_with_label(last_label))
    cost.index_visits += len(heads)

    current = 0
    for suffix_edges in range(1, required + 1):
        needed = min(suffix_edges, target_component)
        while current < needed and heads:
            heads = _descend_one(index, current, heads, cost)
            current += 1
        comp = index.components[current]
        label = expr.labels[required - suffix_edges]
        climbed: set[int] = set()
        for nid in heads:
            for parent in comp.parents_of(nid):
                cost.index_visits += 1
                if label == WILDCARD or comp.nodes[parent].label == label:
                    climbed.add(parent)
        heads = _filter_by_outgoing(index, current, climbed,
                                    expr.labels[required - suffix_edges:],
                                    cost)
        if not heads:
            return _finish(index, expr, target_component, set(), cost)

    # The heads start full instances; walk forward to collect the targets.
    comp = index.components[current]
    frontier = heads
    for position in range(1, len(expr.labels)):
        frontier = _step(comp, frontier, expr.labels[position], cost)
        if not frontier:
            break
    return _finish(index, expr, current, frontier, cost)


def query_hybrid(index: "MStarIndex", expr: PathExpression,
                 counter: CostCounter | None = None,
                 split: int | None = None) -> QueryResult:
    """Hybrid evaluation: top-down prefix meets bottom-up suffix.

    The expression is split at a join position (by default the rarest
    label); the prefix is evaluated top-down, the suffix bottom-up, the
    two frontiers are intersected in the finest component the query
    needs, and the targets are collected by a forward walk from the
    survivors.  Inherits the bottom-up downward-check overhead for its
    suffix half.
    """
    cost = counter if counter is not None else CostCounter()
    if expr.rooted or len(expr.labels) < 3:
        return query_topdown(index, expr, cost)

    if split is None:
        graph = index.graph
        weights = [graph.num_nodes if label == WILDCARD
                   else len(graph.nodes_with_label(label))
                   for label in expr.labels]
        interior = range(1, len(expr.labels) - 1)
        split = min(interior, key=lambda position: weights[position])

    target_component = min(expr.length, index.max_resolution)

    prefix = expr.prefix(split + 1)
    component, prefix_frontier = topdown_frontier(index, prefix, cost)
    while component < target_component and prefix_frontier:
        prefix_frontier = _descend_one(index, component, prefix_frontier,
                                       cost)
        component += 1

    # Suffix half, bottom-up within the final component: the nodes labeled
    # like the join position that really head the suffix there.
    comp = index.components[target_component]
    join_label = expr.labels[split]
    if join_label == WILDCARD:
        candidates = set(comp.nodes)
    else:
        candidates = set(comp.nodes_with_label(join_label))
    cost.index_visits += len(candidates)
    heads = _filter_by_outgoing(index, target_component, candidates,
                                expr.labels[split:], cost)

    survivors = prefix_frontier & heads
    frontier = survivors
    for position in range(split + 1, len(expr.labels)):
        frontier = _step(comp, frontier, expr.labels[position], cost)
        if not frontier:
            break
    return _finish(index, expr, target_component, frontier, cost)


def query_prefilter(index: "MStarIndex", expr: PathExpression,
                    counter: CostCounter | None = None,
                    subpath: tuple[int, int] | None = None) -> QueryResult:
    """Subpath pre-filtering evaluation.

    Evaluates a selective subpath in a coarse component, descends the
    surviving index nodes to the component the full query needs, verifies
    the expression's prefix backwards through the survivors' cone, and
    finishes the suffix forwards.  ``subpath`` may pin the
    ``(start, num_labels)`` window; by default :func:`choose_subpath`
    picks one.
    """
    cost = counter if counter is not None else CostCounter()
    required = expr.length + (1 if expr.rooted else 0)
    target_component = min(required, index.max_resolution)

    if expr.rooted or len(expr.labels) == 1:
        # Rooted expressions are anchored already; single labels have no
        # subpath to exploit.  Fall back to top-down.
        return query_topdown(index, expr, cost)

    start, window = subpath if subpath is not None else choose_subpath(index, expr)
    sub_expr = expr.subpath(start, window)
    sub_component = min(sub_expr.length, index.max_resolution)

    candidates = {node.nid for node in
                  index.components[sub_component].evaluate(sub_expr, cost)}

    # Descend the candidates to the component the full query runs in.
    current = sub_component
    while current < target_component and candidates:
        candidates = _descend_one(index, current, candidates, cost)
        current += 1
    comp = index.components[target_component]

    end = start + window - 1  # label position the candidates sit at
    # Backward phase: verify labels[0..end] upwards through the candidates,
    # recording the level sets of the surviving cone.
    levels: list[set[int]] = [set() for _ in range(end)] + [set(candidates)]
    for position in range(end - 1, -1, -1):
        above: set[int] = set()
        label = expr.labels[position]
        for nid in levels[position + 1]:
            for parent in comp.parents_of(nid):
                cost.index_visits += 1
                if label == WILDCARD or comp.nodes[parent].label == label:
                    above.add(parent)
        levels[position] = above
        if not above:
            return _finish(index, expr, target_component, set(), cost)

    # Forward phase: walk back down inside the cone, then finish the
    # suffix beyond the subpath normally.  A step charges every child
    # examined, inside the cone or not.
    frontier = levels[0]
    for position in range(1, len(expr.labels)):
        frontier = _step(comp, frontier, expr.labels[position], cost)
        if position <= end:
            frontier &= levels[position]
        if not frontier:
            break
    return _finish(index, expr, target_component, frontier, cost)
