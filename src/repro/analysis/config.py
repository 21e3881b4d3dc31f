"""Annotation registries and knobs driving the ``repro lint`` rules.

The registries are *seeded from the code they protect*: the writer-lock
map mirrors what :class:`repro.core.engine.EngineStats` and the
:mod:`repro.serving.engine` classes declare as lock-guarded today, the
commit-path allowlist mirrors the mutation paths
:class:`repro.indexes.base.IndexGraph` documents as the only ones that
may touch node state, and the adjacency registry names the
:class:`repro.graph.datagraph.DataGraph` accessors whose traversal the
paper's Section 5 cost metric meters.  Tests (and third-party callers)
construct their own :class:`LintConfig` to lint fixture code without
touching these defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

#: Writer-lock-guarded attributes: class name -> {attribute -> lock
#: attribute that must be held (``with self.<lock>:``) to write it}.
#: Reads stay free (the runtime contract: torn reads are tolerated,
#: lost updates are not — see ``tests/test_engine_stats_threadsafe.py``).
GUARDED_ATTRIBUTES: Mapping[str, Mapping[str, str]] = MappingProxyType({
    "EngineStats": MappingProxyType({
        "queries": "_lock", "validated_queries": "_lock",
        "refinements": "_lock", "cache_hits": "_lock",
        "cost": "_lock", "refine_cost": "_lock",
    }),
    "ServingStats": MappingProxyType({
        "queries": "_lock", "cache_hits": "_lock", "misses": "_lock",
        "conflicts": "_lock", "degraded": "_lock", "timeouts": "_lock",
        "updates": "_lock", "refinements": "_lock", "fallbacks": "_lock",
    }),
    "ServingEngine": MappingProxyType({
        "_cache": "_cache_lock",
        "_pending": "_fup_lock", "_pending_set": "_fup_lock",
    }),
    "ShardedEngine": MappingProxyType({"_merged": "_merged_lock"}),
})

#: Call names that mutate a container in place (flagged on guarded
#: attributes outside their lock; also used for ``.extent`` mutations).
MUTATING_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend", "insert",
    "pop", "popleft", "remove", "setdefault", "update",
})

#: Data-graph adjacency: property/attribute names whose *iteration* is a
#: data-node walk the paper's cost metric meters...
ADJACENCY_ATTRIBUTES = frozenset({"child_lists", "parent_lists"})
#: ... and method calls that hand out adjacency (``graph.children(oid)``,
#: ``graph.parents(oid)``, ``graph.edges()``), including the raw row
#: accessors hot loops use post-freeze and the O(1) edge probe.
ADJACENCY_METHODS = frozenset({"children", "parents", "edges",
                               "child_rows", "parent_rows", "has_edge"})

#: Evidence that a function charges (or forwards) cost: a parameter or
#: local with one of these names, an attribute access on a counter
#: component, or constructing a counter outright.
CHARGE_NAMES = frozenset({"counter", "cost", "CostCounter"})
CHARGE_ATTRIBUTES = frozenset({"data_visits", "index_visits", "work_sink"})

#: IndexGraph node state (``IndexNode.k`` / ``IndexNode.extent``) and the
#: cache-token counters; both may only change on the commit paths below.
NODE_STATE_ATTRIBUTES = frozenset({"k", "extent"})
TOKEN_ATTRIBUTES = frozenset({"epoch", "mutations", "label_versions"})

#: The only functions allowed to mutate node state or token counters —
#: the ``replace_node``/maintenance commit paths of ``IndexGraph`` (and
#: object construction).  Everything else must route through these so
#: cache fingerprints and demotion bookkeeping observe the change.
NODE_MUTATOR_ALLOWLIST = frozenset({
    "__init__", "_add_node", "_bump_label", "_commit_epoch", "demote_below",
    "insert_data_node", "register_data_edge", "replace_node",
})

#: Serving writer operations (document maintenance, engine refinement)
#: that must commit inside a ``with <...>.clock.write()`` epoch window.
SERVING_WRITER_MODULES = frozenset({"repro.indexes.maintenance"})
SERVING_WRITER_CALLS = frozenset({
    "insert_subtree", "insert_xml_fragment", "add_reference",
})
#: ``self``-relative call chains that replay refinement through the
#: wrapped engine (also writer-side).
SERVING_ENGINE_CHAINS = frozenset({("self", "engine", "execute")})

#: Wall-clock reads banned where replay digests and the differential
#: oracle require run-to-run determinism.  ``time.monotonic`` /
#: ``time.perf_counter`` / ``time.sleep`` stay allowed: they pace and
#: measure, but their values must never reach answers or digests.
BANNED_CALLS: Mapping[str, str] = MappingProxyType({
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
})

#: ``random.<member>`` calls that do NOT share the process-global
#: unseeded generator (constructing a seeded generator is the fix).
RANDOM_ALLOWED_MEMBERS = frozenset({"Random"})

# ---------------------------------------------------------------------------
# Interprocedural pass registries (call graph / CFG passes, PR 10)
# ---------------------------------------------------------------------------

#: Paired resource methods the resource-balance pass proves balanced on
#: every CFG path: acquire method -> the release that discharges it.
#: ``__enter__``/``__exit__`` covers manually driven context managers
#: (``cm = lock_factory(); cm.__enter__()``).
RESOURCE_PAIRS: Mapping[str, str] = MappingProxyType({
    "pin": "unpin",
    "acquire": "release",
    "__enter__": "__exit__",
})

#: Constructors whose result is an owned OS resource: import-resolved
#: dotted call -> the method that releases it.  Binding the result to a
#: local opens an obligation; storing/returning/passing it transfers
#: ownership instead.
RESOURCE_CONSTRUCTORS: Mapping[str, str] = MappingProxyType({
    "socket.socket": "close",
    "socket.create_connection": "close",
})

#: Reviewed receiver-name -> candidate-classes map used to resolve
#: ``<receiver>.<method>()`` calls whose receiver is not ``self``.  The
#: names mirror this repo's conventions (``shard.serving``, ``self.pool``,
#: ``conn.send_lock`` ...); unknown receivers resolve to nothing, so
#: widening coverage is a config review, not a heuristic change.
RECEIVER_ROLES: Mapping[str, tuple[str, ...]] = MappingProxyType({
    "serving": ("ServingEngine",),
    "_serving": ("ServingEngine",),
    "sharded": ("ShardedEngine",),
    "engine": ("AdaptiveIndexEngine", "ServingEngine", "ShardedEngine"),
    "_engine": ("ServingEngine", "ShardedEngine"),
    "clock": ("EpochClock",),
    "stats": ("EngineStats", "ServingStats"),
    "pool": ("BufferPool",),
    "_pool": ("BufferPool",),
    "pools": (),
    "file": ("PageFile",),
    "conn": ("_Connection",),
    "shard": ("_Shard",),
    "client": ("NetClient",),
    "server": ("IndexServer",),
})

#: Attribute names that *are* locks: ``with self.<attr>:`` on a match
#: becomes a lock-order graph node ``<OwnerClass>.<attr>`` (owner = the
#: base-most class assigning the attribute).
LOCK_ATTRIBUTE_PATTERN = r"^_?[a-z_]*(lock|mutex)$"

#: Call-shaped lock acquisitions: ``with <recv>.clock.write():`` and
#: ``pause_writers`` enter the seqlock's writer side; both classify as
#: the ``<OwnerClass>.clock`` node keyed by the receiver before
#: ``clock`` (``self`` -> enclosing class, else the role map).
LOCK_METHOD_CALLS: Mapping[str, str] = MappingProxyType({
    "write": "clock",
    "pause_writers": "clock",
})

#: Classes that *implement* a lock: their internal acquisitions (the
#: seqlock's ``_mutex``) are excluded from composition so the graph
#: speaks in terms of the public lock, not its implementation detail.
LOCK_IMPL_CLASSES = frozenset({"EpochClock"})

#: Lock nodes backed by an ``RLock`` (or reentrant seqlock writer):
#: self-edges on these are legal re-entry, not self-deadlock.
REENTRANT_LOCK_IDS = frozenset({"SnapshotReader.clock"})

#: Functions that fan a query out to multiple downstream engines: inside
#: these, forwarding a budget *parameter verbatim* in a loop repeats the
#: PR 8 deadline bug (each hop must receive the decremented remainder).
FANOUT_FUNCTION_NAMES = frozenset({"_fanout", "fanout", "scatter"})


@dataclass(frozen=True)
class LintConfig:
    """All knobs for one lint run (defaults mirror the repo's contracts)."""

    guarded_attributes: Mapping[str, Mapping[str, str]] = field(
        default_factory=lambda: GUARDED_ATTRIBUTES)
    mutating_methods: frozenset[str] = MUTATING_METHODS
    adjacency_attributes: frozenset[str] = ADJACENCY_ATTRIBUTES
    adjacency_methods: frozenset[str] = ADJACENCY_METHODS
    charge_names: frozenset[str] = CHARGE_NAMES
    charge_attributes: frozenset[str] = CHARGE_ATTRIBUTES
    node_state_attributes: frozenset[str] = NODE_STATE_ATTRIBUTES
    token_attributes: frozenset[str] = TOKEN_ATTRIBUTES
    node_mutator_allowlist: frozenset[str] = NODE_MUTATOR_ALLOWLIST
    serving_writer_modules: frozenset[str] = SERVING_WRITER_MODULES
    serving_writer_calls: frozenset[str] = SERVING_WRITER_CALLS
    serving_engine_chains: frozenset[tuple[str, ...]] = SERVING_ENGINE_CHAINS
    banned_calls: Mapping[str, str] = field(
        default_factory=lambda: BANNED_CALLS)
    random_allowed_members: frozenset[str] = RANDOM_ALLOWED_MEMBERS
    resource_pairs: Mapping[str, str] = field(
        default_factory=lambda: RESOURCE_PAIRS)
    resource_constructors: Mapping[str, str] = field(
        default_factory=lambda: RESOURCE_CONSTRUCTORS)
    receiver_roles: Mapping[str, tuple[str, ...]] = field(
        default_factory=lambda: RECEIVER_ROLES)
    lock_attribute_pattern: str = LOCK_ATTRIBUTE_PATTERN
    lock_method_calls: Mapping[str, str] = field(
        default_factory=lambda: LOCK_METHOD_CALLS)
    lock_impl_classes: frozenset[str] = LOCK_IMPL_CLASSES
    reentrant_lock_ids: frozenset[str] = REENTRANT_LOCK_IDS
    fanout_function_names: frozenset[str] = FANOUT_FUNCTION_NAMES
    #: Extra per-rule scope tokens merged into each rule's defaults (so a
    #: config can pull, say, ``storage/`` into the determinism net).
    extra_scope_tokens: tuple[str, ...] = field(default_factory=tuple)

    def fingerprint(self) -> str:
        """Stable digest of every registry — part of the analysis-cache
        key, so editing the config invalidates cached results."""
        import hashlib

        def _stable(value: object) -> object:
            if isinstance(value, Mapping):
                return sorted((str(k), _stable(v))
                              for k, v in value.items())
            if isinstance(value, (frozenset, set)):
                return sorted(str(v) for v in value)
            if isinstance(value, tuple):
                return [_stable(v) for v in value]
            return str(value)

        import dataclasses
        import json
        payload = {f.name: _stable(getattr(self, f.name))
                   for f in dataclasses.fields(self)}
        text = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()
