"""Lock-order pass: compose per-function acquisitions into a global
lock-ordering graph; any cycle is a potential deadlock.

The Eraser-style discipline: every lock gets a stable identity
``OwnerClass.attr`` (owner = the base-most class *assigning* the
attribute, so a subclass method taking ``self._lock`` maps to the
base-class lock it actually shares).  Two acquisition shapes
are classified:

* ``with self._lock:`` — attribute matching the configured lock-name
  pattern;
* ``with <recv>.clock.write():`` / ``pause_writers()`` — the seqlock's
  writer/pauser side, owned by the class holding the ``clock``.

Edges come from lexical nesting (``with A: with B:``) *and* from calls
made while a lock is held: holding ``A`` and calling ``g`` adds ``A ->
B`` for every lock ``B`` in ``g``'s transitive acquisition set (a
fixpoint over the call graph).  Witness chains are reconstructed from
the fixpoint's provenance so a cycle report names the exact call path
that closes it.  Lock *implementation* classes (``EpochClock``) are
excluded — the graph speaks in public lock identities, not the mutex
inside the seqlock.
"""

from __future__ import annotations

import re
from collections.abc import Mapping

from repro.analysis.callgraph import FunctionNode, ProjectGraph
from repro.analysis.engine import ProjectContext, project_rule

RULE_ID = "lock-order"


def _classify(descriptor: Mapping[str, object], caller: FunctionNode,
              graph: ProjectGraph, attr_re: re.Pattern[str],
              method_groups: Mapping[str, str],
              impl_classes: frozenset[str]) -> list[str]:
    """Lock ids acquired by one ``with`` descriptor (usually 0 or 1)."""
    chain = descriptor.get("chain")
    if not isinstance(chain, list) or not chain:
        return []
    chain = [str(part) for part in chain]
    if caller.cls in impl_classes:
        return []
    if bool(descriptor.get("call")):
        method = chain[-1]
        group = method_groups.get(method)
        if group is None or len(chain) < 3 or chain[-2] != group:
            return []
        owner_elem = chain[-3]
        owners = _owner_classes(owner_elem, caller, graph)
        return [f"{graph.attr_owner(owner, group)}.{group}"
                for owner in owners]
    attr = chain[-1]
    if not attr_re.fullmatch(attr):
        return []
    receiver = chain[:-1]
    if not receiver:
        return []
    owners = _owner_classes(receiver[-1], caller, graph)
    return [f"{graph.attr_owner(owner, attr)}.{attr}"
            for owner in owners]


def _owner_classes(element: str, caller: FunctionNode,
                   graph: ProjectGraph) -> list[str]:
    if element in ("self", "cls"):
        return [caller.cls] if caller.cls is not None else []
    return list(graph.receiver_roles.get(element, ()))


def _expand_witness(start: str, lock_id: str,
                    prov: Mapping[tuple[str, str], tuple[object, ...]],
                    graph: ProjectGraph) -> list[str]:
    """Call-chain hops from ``start`` to the direct acquire of
    ``lock_id`` (each hop rendered ``Qual (path:line)``)."""
    hops: list[str] = []
    current = start
    for _ in range(32):  # defensive bound; chains are short
        entry = prov.get((current, lock_id))
        if entry is None:
            break
        node = graph.functions.get(current)
        where = f"{node.qual} ({node.path}:{entry[1]})" if node else \
            current
        hops.append(where)
        if entry[0] == "direct":
            break
        current = str(entry[2])
    return hops


@project_rule(RULE_ID,
              "the global lock-ordering graph (lexical nesting + "
              "transitive acquisitions through the call graph) must be "
              "cycle-free")
def check_lock_order(context: ProjectContext) -> None:
    config = context.config
    graph = context.graph
    attr_re = re.compile(config.lock_attribute_pattern)
    method_groups = config.lock_method_calls
    impl = config.lock_impl_classes

    # 1. Direct acquisitions (lock id, line, lock ids held outside).
    direct: dict[str, list[tuple[str, int, list[str]]]] = {}
    for key, node in graph.functions.items():
        entries: list[tuple[str, int, list[str]]] = []
        for descriptor in node.withs:
            ids = _classify(descriptor, node, graph, attr_re,
                            method_groups, impl)
            if not ids:
                continue
            held_ids: list[str] = []
            held = descriptor.get("held")
            if isinstance(held, list):
                for outer in held:
                    if isinstance(outer, dict):
                        held_ids.extend(_classify(
                            outer, node, graph, attr_re,
                            method_groups, impl))
            line = descriptor.get("line")
            for lock_id in ids:
                entries.append((lock_id,
                                line if isinstance(line, int) else 0,
                                held_ids))
        if entries:
            direct[key] = entries

    # 2. Transitive acquisition sets, with provenance for witnesses.
    locks_of: dict[str, set[str]] = {}
    prov: dict[tuple[str, str], tuple[object, ...]] = {}
    for key, entries in direct.items():
        locks_of[key] = set()
        for lock_id, line, _held in entries:
            if lock_id not in locks_of[key]:
                locks_of[key].add(lock_id)
                prov[(key, lock_id)] = ("direct", line)
    changed = True
    while changed:
        changed = False
        for key, node in graph.functions.items():
            if node.cls in impl:
                continue
            for call in node.calls:
                line = call.get("line")
                line_no = line if isinstance(line, int) else 0
                for target in graph.resolve_call(call, node):
                    target_node = graph.functions.get(target)
                    if target_node is None or target_node.cls in impl:
                        continue
                    for lock_id in locks_of.get(target, set()):
                        mine = locks_of.setdefault(key, set())
                        if lock_id not in mine:
                            mine.add(lock_id)
                            prov[(key, lock_id)] = \
                                ("call", line_no, target)
                            changed = True

    # 3. Edges: held -> acquired, lexically and through calls.
    #    edge key -> (function key, line, witness hops)
    edges: dict[tuple[str, str], tuple[str, int, list[str]]] = {}

    def add_edge(src: str, dst: str, key: str, line: int,
                 hops: list[str]) -> None:
        if (src, dst) not in edges:
            edges[(src, dst)] = (key, line, hops)

    for key, entries in direct.items():
        node = graph.functions[key]
        for lock_id, line, held_ids in entries:
            for held_id in held_ids:
                add_edge(held_id, lock_id, key, line,
                         [f"{node.qual} ({node.path}:{line})"])
    for key, node in graph.functions.items():
        if node.cls in impl:
            continue
        for call in node.calls:
            held = call.get("held")
            if not isinstance(held, list) or not held:
                continue
            held_ids: list[str] = []
            for outer in held:
                if isinstance(outer, dict):
                    held_ids.extend(_classify(
                        outer, node, graph, attr_re, method_groups,
                        impl))
            if not held_ids:
                continue
            line = call.get("line")
            line_no = line if isinstance(line, int) else 0
            for target in graph.resolve_call(call, node):
                target_node = graph.functions.get(target)
                if target_node is None or target_node.cls in impl:
                    continue
                for lock_id in locks_of.get(target, set()):
                    hops = [f"{node.qual} ({node.path}:{line_no})"]
                    hops.extend(_expand_witness(target, lock_id, prov,
                                                graph))
                    for held_id in held_ids:
                        add_edge(held_id, lock_id, key, line_no, hops)

    # 4. Self-edges: re-entry is fine on reentrant locks only.
    reentrant = config.reentrant_lock_ids
    for (src, dst), (key, line, hops) in sorted(edges.items()):
        if src == dst and src not in reentrant:
            node = graph.functions[key]
            context.report(
                node.path, line, RULE_ID,
                f"non-reentrant lock {src} may be re-acquired while "
                f"already held (via {' -> '.join(hops)}); this "
                f"self-deadlocks unless the lock is an RLock")

    # 5. Cycles among distinct locks (SCCs of the lock digraph).
    adjacency: dict[str, set[str]] = {}
    for (src, dst) in edges:
        if src != dst:
            adjacency.setdefault(src, set()).add(dst)
            adjacency.setdefault(dst, set())
    cycles = _cycle_components(adjacency)
    for component in cycles:
        ordered = sorted(component)
        witness_parts: list[str] = []
        anchor: tuple[str, int] | None = None
        for src in ordered:
            for dst in sorted(adjacency.get(src, ())):
                if dst in component and (src, dst) in edges:
                    key, line, hops = edges[(src, dst)]
                    node = graph.functions[key]
                    witness_parts.append(
                        f"{src} -> {dst} via {' -> '.join(hops)}")
                    if anchor is None:
                        anchor = (node.path, line)
        if anchor is None:  # pragma: no cover - component implies edges
            continue
        context.report(
            anchor[0], anchor[1], RULE_ID,
            f"lock-order cycle among {{{', '.join(ordered)}}}: "
            + "; ".join(witness_parts)
            + " — pick one global order and acquire in it everywhere")

    # 6. Stash the graph for ``repro lint --graph`` and CI gating.
    context.graph_report["lock_order"] = {
        "nodes": sorted({lock for pair in edges for lock in pair}),
        "edges": [
            {"from": src, "to": dst, "function": edges[(src, dst)][0],
             "line": edges[(src, dst)][1],
             "witness": edges[(src, dst)][2]}
            for (src, dst) in sorted(edges)],
        "cycles": [sorted(component) for component in cycles],
    }


def _cycle_components(adjacency: Mapping[str, set[str]],
                      ) -> list[set[str]]:
    """Strongly connected components of size > 1 (iterative Tarjan)."""
    index_of: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[set[str]] = []
    counter = [0]

    for root in sorted(adjacency):
        if root in index_of:
            continue
        work: list[tuple[str, list[str]]] = [
            (root, sorted(adjacency.get(root, ())))]
        index_of[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            if children:
                child = children.pop(0)
                if child not in index_of:
                    index_of[child] = lowlink[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append(
                        (child, sorted(adjacency.get(child, ()))))
                elif child in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent],
                                          lowlink[node])
                if lowlink[node] == index_of[node]:
                    component: set[str] = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        components.append(component)
    return components
