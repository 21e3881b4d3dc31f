"""Incremental index maintenance under document updates.

The paper treats documents as static (its dynamism is workload-side);
a deployable library also needs *data* updates.  This module supports
the two growth operations XML documents see in practice:

* **subtree insertion** — a new element fragment appears under an
  existing node.  New data nodes enter every live index as ``k = 0``
  singletons; no existing claim is affected (gaining a child changes
  nobody's *incoming* paths), so this is cheap and exact.
* **reference addition** — a new IDREF edge between existing nodes.
  The target's incoming paths change, so every index node within BFS
  distance ``d`` below it is demoted to ``k = min(k, d)`` (sound: the
  demoted claims never reach the new edge).  Precision lost to the
  demotion is regained lazily by the normal FUP refinement loop.

Which families can be maintained is decided by their *query path*, not
by whether they refine: the demotions above keep an index sound only if
queries consult the per-node similarity claims (``v.k``) and fall back
to validation when a claim is too small.  That holds for the adaptive
families (M*(k), M(k), D(k)-promote), for a bare ``IndexGraph``, and
for A(k) (static, but it answers through ``IndexGraph.answer``).  The
1-index, F&B, and UD(k,l) return extents verbatim without ever reading
the claims, and DataGuide/APEX have no ``IndexGraph`` at all — for all
of these the helpers raise ``TypeError``: rebuild them after updates.

Every entry point ends by bumping each maintained ``IndexGraph.epoch``,
the counter all result-cache tokens pin, so cached answers (engine- or
index-level) can never survive a document update.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections.abc import Iterable, Sequence

from repro.graph.datagraph import DataGraph, EdgeKind
from repro.indexes.base import IndexGraph
from repro.indexes.fbindex import FBIndex
from repro.indexes.mstarindex import MStarIndex
from repro.indexes.oneindex import OneIndex
from repro.indexes.udindex import UDIndex

#: A subtree specification: ``(label, [children...])`` nested tuples.
SubtreeSpec = tuple

#: Families whose query paths never consult the per-node similarity
#: claims maintenance demotes (1-index, F&B return extents verbatim
#: without validation; UD(k,l) trusts its construction-time ``(k, l)``
#: parameters).  Registering an update cannot make them re-validate, so
#: "maintaining" them leaves a live index that serves wrong answers —
#: they must be rebuilt.  They all expose an ``.index`` IndexGraph, so
#: the duck-typed acceptance below used to let them through silently.
_REBUILD_ONLY = (OneIndex, FBIndex, UDIndex)


def _index_graphs(index) -> list[IndexGraph]:
    """The IndexGraph(s) behind an adaptive index object."""
    if isinstance(index, _REBUILD_ONLY):
        raise TypeError(
            f"cannot maintain {type(index).__name__} incrementally: its "
            f"query path does not consult per-node similarity claims, so "
            f"demotion cannot force re-validation and updates would leave "
            f"it serving stale answers; rebuild it instead")
    if isinstance(index, MStarIndex):
        return index.components
    if isinstance(index, IndexGraph):
        return [index]
    inner = getattr(index, "index", None)
    if isinstance(inner, IndexGraph):
        return [inner]
    raise TypeError(f"cannot maintain {type(index).__name__} incrementally; "
                    f"rebuild it instead")


def maintainable(index) -> bool:
    """Can ``index`` be maintained incrementally by this module?

    True for the families whose query path consults per-node similarity
    claims (M(k), M*(k), A(k), D(k), bare ``IndexGraph``); False for the
    rebuild-only families (1-index, F&B, UD(k,l), DataGuide, APEX).  The
    serving layer uses this to decide up front whether a
    :class:`~repro.serving.ServingEngine` can accept writer traffic.
    """
    try:
        _index_graphs(index)
    except TypeError:
        return False
    return True


def _register_node(index, oid: int) -> None:
    if isinstance(index, MStarIndex):
        previous_nid = -1
        for i, component in enumerate(index.components):
            nid = component.insert_data_node(oid)
            if i > 0:
                index.supernode[i][nid] = previous_nid
                index.subnodes[i - 1][previous_nid] = {nid}
            if i < index.max_resolution:
                index.subnodes[i][nid] = set()
            previous_nid = nid
        return
    for index_graph in _index_graphs(index):
        index_graph.insert_data_node(oid)


def _register_edge(index, parent_oid: int, child_oid: int) -> None:
    for index_graph in _index_graphs(index):
        index_graph.register_data_edge(parent_oid, child_oid)
    if isinstance(index, MStarIndex):
        _reclamp_links(index)


def _reclamp_links(index: MStarIndex) -> None:
    """Restore Properties 4/5 after per-component demotions.

    Coarser components demote at least as hard (their BFS distances are
    no longer), so only the upper bounds can break: clamp each node to
    its supernode's value (+1 when the supernode sits at its component's
    cap), walking coarse to fine so clamps cascade.

    Clamps go through ``replace_node`` (single-part form) rather than
    assigning ``node.k`` directly: a ``k`` change alters what cached
    results may rely on, and ``replace_node`` is the one mutation path
    that bumps the mutation counter and per-label versions the cache
    tokens pin.

    Every clamp then relaxes Property 3 below the clamped node
    (:func:`_restore_property3`).  The BFS demotion itself preserves
    Property 3, but a clamp lowers one node out-of-band: a child keeping
    ``k`` much larger than its parent's holds a certificate that chains
    through that parent — queries reaching the child through it would be
    served verbatim on the strength of paths the parent no longer
    vouches for.
    """
    for i in range(1, len(index.components)):
        coarser = index.components[i - 1]
        component = index.components[i]
        clamps: list[tuple[int, int]] = []
        for nid, node in component.nodes.items():
            sup = coarser.nodes[index.supernode[i][nid]]
            limit = sup.k + 1 if sup.k >= i - 1 else sup.k
            if node.k > limit:
                clamps.append((nid, limit))
        for nid, limit in clamps:
            component.replace_node(
                nid, [(component.nodes[nid].extent, limit)])
        _restore_property3(component, [nid for nid, _ in clamps])


def _restore_property3(component: IndexGraph, seeds: Sequence[int]) -> None:
    """Push lowered similarity claims down from ``seeds`` until every
    index edge again satisfies ``u.k >= v.k - 1`` (Property 3).

    The verbatim-serving certificate is chained: ``v.k >= len(p)`` only
    proves every member of ``v.extent`` has incoming path ``p`` when
    each ancestor along ``p`` vouches for the remaining prefix, which is
    exactly what Property 3 encodes.  A node whose parent's claim just
    dropped must therefore drop to ``parent.k + 1`` itself, recursively.
    Lowering ``k`` is always sound, and the relaxation is monotone, so
    the fixpoint is unique and termination is bounded by total ``k``
    mass.  Children are visited in sorted order to keep the number of
    ``replace_node`` commits (and hence cache-token counters)
    deterministic.
    """
    frontier = sorted(seeds)
    while frontier:
        next_frontier: list[int] = []
        for nid in frontier:
            bound = component.nodes[nid].k + 1
            for child in sorted(component.children_of(nid)):
                node = component.nodes[child]
                if node.k > bound:
                    component.replace_node(child, [(node.extent, bound)])
                    next_frontier.append(child)
        frontier = next_frontier


def _commit_epoch(indexes: Iterable) -> None:
    """Invalidate every cached result of every maintained index.

    Each maintenance entry point ends here: data-graph updates can
    change answers (and similarity claims) for labels far from the
    touched nodes, and ``epoch`` is the one counter every cache token
    pins unconditionally (engine fingerprints and ``IndexGraph.answer``
    tokens alike).  The inner registration paths already bump it where
    they mutate, but the entry-point bump is the *contract* — it keeps
    cached answers from surviving an update even if those inner paths
    are later optimised.
    """
    for index in indexes:
        for index_graph in _index_graphs(index):
            index_graph.epoch += 1


def insert_subtree(graph: DataGraph, parent_oid: int, subtree: SubtreeSpec,
                   indexes: Iterable = ()) -> list[int]:
    """Insert ``(label, [children])`` under ``parent_oid``; update indexes.

    Returns the new oids (preorder).  Every index in ``indexes`` is kept
    safe and exact (new nodes are ``k = 0`` singletons, so their answers
    are validated until refinement promotes them).
    """
    if parent_oid not in graph:
        raise KeyError(f"no node with oid {parent_oid}")
    indexes = list(indexes)
    for index in indexes:
        _index_graphs(index)  # reject unmaintainable families up front
    new_oids: list[int] = []
    new_edges: list[tuple[int, int]] = []

    def build(spec: SubtreeSpec, parent: int) -> None:
        if not isinstance(spec, tuple) or not spec or \
                not isinstance(spec[0], str):
            raise ValueError(f"bad subtree spec {spec!r}; "
                             f"expected (label, [children])")
        label = spec[0]
        children: Sequence = spec[1] if len(spec) > 1 else ()
        oid = graph.add_node(label)
        new_oids.append(oid)
        new_edges.append((parent, oid))
        for child_spec in children:
            build(child_spec, oid)

    build(subtree, parent_oid)
    for oid in new_oids:
        for index in indexes:
            _register_node(index, oid)
    for parent, child in new_edges:
        graph.add_edge(parent, child)
        for index in indexes:
            _register_edge(index, parent, child)
    _commit_epoch(indexes)
    return new_oids


def insert_xml_fragment(graph: DataGraph, parent_oid: int, xml_text: str,
                        indexes: Iterable = ()) -> list[int]:
    """Parse an XML fragment and insert it under ``parent_oid``."""
    element = ET.fromstring(xml_text)

    def to_spec(node: ET.Element) -> SubtreeSpec:
        return (node.tag, [to_spec(child) for child in node])

    return insert_subtree(graph, parent_oid, to_spec(element),
                          indexes=indexes)


def add_reference(graph: DataGraph, source_oid: int, target_oid: int,
                  indexes: Iterable = ()) -> None:
    """Add an IDREF edge between existing nodes; demote affected claims."""
    indexes = list(indexes)
    for index in indexes:
        _index_graphs(index)  # reject unmaintainable families up front
    graph.add_edge(source_oid, target_oid, kind=EdgeKind.REFERENCE)
    for index in indexes:
        _register_edge(index, source_oid, target_oid)
    _commit_epoch(indexes)
