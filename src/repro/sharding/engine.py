"""The sharded index service: N shard engines behind one combiner.

:class:`ShardedEngine` splits a document across ``num_shards`` shards by
deterministic subtree-hash placement (:mod:`repro.sharding.placement`).
Each shard owns a local :class:`~repro.graph.datagraph.DataGraph` — the
replicated spine plus its owned placement units — with its own index
family behind a :class:`~repro.serving.engine.ServingEngine`, so every
shard keeps the full snapshot-isolation protocol it already had when it
was the whole database.

The combiner is itself a
:class:`~repro.serving.engine.SnapshotReader` — one more epoch clock on
top, running the same read protocol as its shards — and supplies only
the fan-out and the cross-edge routing:

* **readers** fan a query to every shard under an optimistic combiner
  read, on every call, and get each shard's answer as the immutable run
  its serving cache holds.  The runs are translated to global oids and
  merged **once per distinct tuple of shard answers**: the combiner
  keeps, per expression, the shard answer objects it last merged and
  the merged global run, and while every shard hands back the same
  objects (which is what their token-guarded caches do until something
  changes) it returns that run as is.  The merged run is a function of
  those objects and of the local-to-global tables alone — the tables
  only ever grow at the end, so a translated oid never changes — which
  is why the entry needs no epoch and a torn fan-out cannot poison it;
* queries that could traverse a **cross-shard edge** (an edge leaving a
  placement unit — detected conservatively from the query's label
  pairs) are answered exactly on the combiner's global mirror graph
  under the writer mutex, counted as ``fallbacks`` in the stats; the
  exact path remembers its answers for the current epoch
  (:meth:`SnapshotReader._exact`);
* **writers** update the global mirror first (allocating the same oids
  a single-shard engine would, which is what makes the replay digests
  comparable), then route the update to the owning shard.  An update
  thaws that shard's frozen graph and nothing re-freezes it yet.

Completeness rests on placement: every tree path from the root lies
inside one shard (the spine is replicated everywhere), so a query
instance can only escape its shard by traversing an edge that *leaves*
a placement unit.  All such edges are recorded as cross edges, and any
query whose label sequence could match one falls back to the exact
global path.  Soundness is free: every shard graph is a subgraph of the
document, so a local match is a global match.
"""

from __future__ import annotations

import operator
import threading
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from itertools import chain
from typing import Any

from repro.core.extents import Extent
from repro.cost.counters import CostCounter
from repro.graph.datagraph import DataGraph, EdgeKind
from repro.indexes import maintenance as _maintenance
from repro.indexes.maintenance import SubtreeSpec
from repro.indexes.mstarindex import MStarIndex
from repro.queries.pathexpr import PathExpression, WILDCARD
from repro.serving.engine import (_UNSET, ServedResult, ServingEngine,
                                  SnapshotReader, _fifo_store)
from repro.sharding.placement import (Placement, SPINE, compute_placement,
                                      shard_of_key, structural_key)


class _Shard:
    """One shard: local graph + serving engine + oid maps."""

    __slots__ = ("shard_id", "serving", "to_global", "g2l")

    def __init__(self, shard_id: int, serving: ServingEngine,
                 to_global: list[int], g2l: dict[int, int]) -> None:
        self.shard_id = shard_id
        self.serving = serving
        #: local oid -> global oid; append-only (inserts add at the end,
        #: nothing is ever rewritten), so a merged answer stays the
        #: translation of the shard answers it was made from.
        self.to_global = to_global
        self.g2l = g2l


def _build_local_graph(graph: DataGraph,
                       members: list[int]) -> tuple[DataGraph, dict[int, int]]:
    """The shard-local subgraph over ``members`` (ascending global oids).

    Nodes are added in ascending global order so the local->global map
    is monotone; edges keep their kinds and their child-row order (a
    subsequence of the global row).
    """
    local = DataGraph()
    g2l: dict[int, int] = {}
    for gid in members:
        g2l[gid] = local.add_node(graph.label(gid))
    rows = graph.child_rows()
    kinds = getattr(graph, "_edge_kinds")
    for gid in members:
        local_parent = g2l[gid]
        for child in rows[gid]:
            child = int(child)
            local_child = g2l.get(child)
            if local_child is not None:
                kind = kinds.get((gid, child), EdgeKind.REGULAR)
                local.add_edge(local_parent, local_child, kind=kind)
    local.root = g2l[graph.root]
    return local.freeze(), g2l


class ShardedEngine(SnapshotReader):
    """N shard serving engines behind one epoch-clocked combiner.

    Shares :class:`~repro.serving.engine.SnapshotReader` with
    :class:`~repro.serving.engine.ServingEngine` (``query``, ``serve``,
    ``pin``, ``stats``, ``epoch`` are inherited; the writers are its
    own), so workload replay, the CLI, and the benchmark run unchanged
    against it.

    ``graph`` is the combiner's *global mirror*: the authoritative
    whole document, used for cross-shard fallback queries, pinned
    oracles, and oid allocation (updates hit the mirror first so global
    oids match what a single-shard engine would assign).
    """

    _layer = "sharding"

    def __init__(self, graph: DataGraph, num_shards: int,
                 index_factory: "Callable[..., Any]" = MStarIndex, *,
                 cache: bool = True,
                 max_attempts: int = 6,
                 default_timeout: float | None = None,
                 now: "Callable[[], float] | None" = None) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        super().__init__(graph, max_attempts=max_attempts,
                         default_timeout=default_timeout, now=now)
        self.num_shards = num_shards
        self.cache_enabled = cache
        # expr -> (shard answer objects last merged, their global run).
        self._merged: dict[PathExpression,
                           tuple[tuple[Extent, ...], Extent]] = {}
        self._merged_lock = threading.Lock()
        self.placement: Placement = compute_placement(graph, num_shards)
        self.construction_s = 0.0

        started = time.perf_counter()
        member_lists = [self.placement.members(s) for s in range(num_shards)]

        def build(shard_id: int) -> _Shard:
            members = member_lists[shard_id]
            local, g2l = _build_local_graph(graph, members)
            serving = ServingEngine(local, index_factory=index_factory,
                                    cache=cache, max_attempts=max_attempts)
            return _Shard(shard_id, serving, list(members), g2l)

        if num_shards > 1:
            with ThreadPoolExecutor(max_workers=num_shards) as pool:
                self._shards = list(pool.map(build, range(num_shards)))
        else:
            self._shards = [build(s) for s in range(num_shards)]
        self.construction_s = time.perf_counter() - started
        #: Shard 0's index (family introspection; shards are homogeneous).
        self.index = self._shards[0].serving.index

        # Cross edges: every edge leaving a placement unit.  A query
        # instance can only span two shards by traversing one, so the
        # label pairs below are exactly what the router must screen for.
        owner = self.placement.owner
        rows = graph.child_rows()
        self._cross_pairs: set[tuple[str, str]] = set()
        self._num_cross_edges = 0
        for source in range(graph.num_nodes):
            who = owner[source]
            if who == SPINE:
                continue
            for target in rows[source]:
                target = int(target)
                if owner[target] != who:
                    self._cross_pairs.add((graph.label(source),
                                           graph.label(target)))
                    self._num_cross_edges += 1

        # Structural keys of spine nodes, for placing units inserted
        # later under a spine parent.  The spine never grows (new nodes
        # always land inside a unit), so this cache is complete.
        self._spine_keys: dict[int, str] = {}
        tree_parent = self._spine_tree_parents()
        for oid, who in enumerate(owner):
            if who == SPINE:
                structural_key(graph, oid, tree_parent, self._spine_keys)

    def _spine_tree_parents(self) -> dict[int, int]:
        """Tree parents of spine nodes (REGULAR edges, first reach wins)."""
        owner = self.placement.owner
        rows = self.graph.child_rows()
        kinds = getattr(self.graph, "_edge_kinds")
        tree_parent: dict[int, int] = {}
        frontier = [self.graph.root]
        seen = {self.graph.root}
        while frontier:
            next_frontier: list[int] = []
            for oid in frontier:
                for child in rows[oid]:
                    child = int(child)
                    if child in seen or owner[child] != SPINE:
                        continue
                    if kinds.get((oid, child),
                                 EdgeKind.REGULAR) is not EdgeKind.REGULAR:
                        continue
                    seen.add(child)
                    tree_parent[child] = oid
                    next_frontier.append(child)
            frontier = next_frontier
        return tree_parent

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def supports_updates(self) -> bool:
        return all(shard.serving.supports_updates for shard in self._shards)

    @property
    def shards(self) -> list[_Shard]:
        return self._shards

    @property
    def num_cross_edges(self) -> int:
        return self._num_cross_edges

    # ------------------------------------------------------------------
    # Reader path
    # ------------------------------------------------------------------
    def _crosses(self, expr: PathExpression) -> bool:
        """Could an instance of ``expr`` traverse a cross-shard edge?

        Conservative: a descendant step can hide arbitrary labels, so
        any cross edge at all routes those to the fallback; otherwise
        the expression's consecutive label pairs (wildcards match
        anything) are screened against the recorded cross-edge pairs.
        """
        if not self._cross_pairs:
            return False
        if expr.descendant_steps:
            return True
        labels = expr.labels
        for position in range(1, len(labels)):
            step_from = labels[position - 1]
            step_to = labels[position]
            for edge_from, edge_to in self._cross_pairs:
                if ((step_from == WILDCARD or step_from == edge_from)
                        and (step_to == WILDCARD or step_to == edge_to)):
                    return True
        return False

    def _fanout(self, expr: PathExpression, deadline: float | None,
                ) -> "tuple[Extent, bool, bool, CostCounter, None]":
        """Query every shard and union the answers in global-oid space.

        The trailing ``None`` is the token slot of
        :meth:`SnapshotReader._attempt`: the combiner publishes nothing
        under a token — what it keeps is keyed by the shard answers
        themselves (:meth:`_merge`).

        ``deadline`` bounds the *total* fan-out: every shard query gets
        the budget **remaining** at the moment it starts (a slow shard
        eats into its successors' budgets), never the caller's full
        timeout reapplied per shard.  Without a deadline the ``_UNSET``
        sentinel is passed through unchanged, so each shard engine
        applies its own ``default_timeout`` exactly as if it were
        queried directly — this is the shared sentinel from
        :mod:`repro.serving.engine`, not a combiner-private copy.
        """
        cost = CostCounter()
        parts: list[Extent] = []
        validated = False
        cache_hit = True
        for shard in self._shards:
            if deadline is None:
                budget = _UNSET
            else:
                budget = max(deadline - self._now(), 0.0)
            result = shard.serving.query(expr, timeout=budget)
            cost.add(result.cost)
            validated = validated or result.validated
            cache_hit = cache_hit and result.cache_hit
            parts.append(result.answers)
        return self._merge(expr, tuple(parts)), validated, cache_hit, \
            cost, None

    def _merge(self, expr: PathExpression,
               parts: tuple[Extent, ...]) -> Extent:
        """The shard answers ``parts`` as one run of global oids.

        Translated and merged only when some shard handed back another
        object than last time: an entry is valid exactly while every
        part *is* the object it was merged from (holding the old parts
        keeps their ids from being reused).  Spine nodes live in every
        shard, so the runs may overlap and the merge deduplicates.
        """
        if self.cache_enabled:
            with self._merged_lock:
                entry = self._merged.get(expr)
            if entry is not None and \
                    all(map(operator.is_, entry[0], parts)):
                return entry[1]
        merged = Extent.from_iterable(
            chain.from_iterable(map(shard.to_global.__getitem__, part)
                                for shard, part in zip(self._shards, parts)))
        if self.cache_enabled:
            with self._merged_lock:
                _fifo_store(self._merged, expr, (parts, merged),
                            self._cache_size)
        return merged

    #: The combiner's optimistic evaluation is the fan-out.
    _attempt = _fanout

    def _query_inner(self, expr: PathExpression,
                     deadline: float | None) -> ServedResult:
        """Route crossing queries to the exact path on the global
        mirror; everything else runs the shared retry loop."""
        if self._crosses(expr):
            return self._exact(expr, attempts=1, conflicts=0, fallback=True)
        return super()._query_inner(expr, deadline)

    # ------------------------------------------------------------------
    # Writer path
    # ------------------------------------------------------------------
    def _owner_for_insert(self, parent_gid: int, new_root_gid: int,
                          label: str) -> int:
        """Which shard absorbs a subtree inserted under ``parent_gid``.

        Inside a unit the subtree stays with the unit's shard.  Under a
        spine parent it *is* a fresh placement unit: its structural key
        extends the parent's spine key with the same ``label[ordinal]``
        rule :func:`compute_placement` uses, so placement of later
        inserts is exactly as deterministic as the initial build.
        """
        who = self.placement.owner[parent_gid]
        if who != SPINE:
            return who
        ordinal = 0
        for sibling in self.graph.children(parent_gid):
            sibling = int(sibling)
            if sibling == new_root_gid:
                break
            if self.graph.label(sibling) == label:
                ordinal += 1
        key = f"{self._spine_keys[parent_gid]}/{label}[{ordinal}]"
        self.placement.unit_keys[new_root_gid] = key
        return shard_of_key(key, self.num_shards)

    def insert_subtree(self, parent_oid: int,
                       subtree: SubtreeSpec) -> list[int]:
        """Insert ``(label, [children])`` under global oid ``parent_oid``.

        One combiner write window covers the mirror mutation, the
        placement extension and the owning shard's (index-maintaining)
        insert — a combiner reader sees none of it or all of it.
        Returns the new *global* oids, matching what a single-shard
        engine would have allocated.
        """
        with self.clock.write():
            new_gids = _maintenance.insert_subtree(
                self.graph, parent_oid, subtree, indexes=())
            who = self._owner_for_insert(parent_oid, new_gids[0], subtree[0])
            self.placement.owner.extend([who] * len(new_gids))
            shard = self._shards[who]
            local_parent = shard.g2l[parent_oid]
            new_lids = shard.serving.insert_subtree(local_parent, subtree)
            for gid, lid in zip(new_gids, new_lids):
                shard.g2l[gid] = lid
                shard.to_global.append(gid)
        self.stats.record_update()
        return new_gids

    def add_reference(self, source_oid: int, target_oid: int) -> None:
        """Add an IDREF edge between existing global oids.

        The edge is materialised in every shard that holds both
        endpoints (one shard normally; all of them for spine-to-spine).
        An edge leaving a placement unit exists in no single shard with
        both roles intact — it becomes a *cross edge*: recorded on the
        mirror, its label pair added to the router's screen so affected
        queries take the exact global path.
        """
        with self.clock.write():
            _maintenance.add_reference(self.graph, source_oid, target_oid,
                                       indexes=())
            owner = self.placement.owner
            who_source = owner[source_oid]
            who_target = owner[target_oid]
            if who_source == SPINE and who_target == SPINE:
                targets = range(self.num_shards)
            elif who_source == SPINE:
                targets = (who_target,)
            elif who_target == SPINE or who_target == who_source:
                targets = (who_source,)
            else:
                targets = ()
            for shard_id in targets:
                shard = self._shards[shard_id]
                shard.serving.add_reference(shard.g2l[source_oid],
                                            shard.g2l[target_oid])
            if who_source != SPINE and who_target != who_source:
                self._cross_pairs.add((self.graph.label(source_oid),
                                       self.graph.label(target_oid)))
                self._num_cross_edges += 1
        self.stats.record_update()

    def refine_pending(self, limit: int | None = None) -> int:
        """Drain shard refinement backlogs; returns refinements applied.

        Each shard refines through its own serving engine (its own
        write windows), so shard readers stay live; the combiner clock
        is untouched — refinement never changes answers, only cost.
        """
        applied = 0
        for shard in self._shards:
            remaining = None if limit is None else limit - applied
            if remaining is not None and remaining <= 0:
                break
            count = shard.serving.refine_pending(remaining)
            applied += count
            for _ in range(count):
                self.stats.record_refinement()
        return applied

    def __repr__(self) -> str:
        sizes = self.placement.shard_sizes()
        return (f"ShardedEngine(shards={self.num_shards}, "
                f"epoch={self.clock.epoch}, "
                f"owned_nodes={sizes}, "
                f"cross_edges={self._num_cross_edges})")
