"""The differential correctness oracle.

Ground truth for any query is :func:`evaluate_on_data_graph` — forward
navigation over the raw data graph, no index involved.  The oracle runs
the same query through every index family and demands set-equality of
answers, for static indexes (:func:`check_static_suite`) and at every
step of an :class:`~repro.core.engine.AdaptiveIndexEngine` refinement
sequence (:func:`check_engine_sequence`).

Every failure is reported as a :class:`Discrepancy` carrying a minimal
repro (graph profile + graph seed + query text), so any CI hit can be
replayed with ``repro verify --profile <p> --graph-seed <s>``.
"""

from __future__ import annotations

import os
import random
import tempfile
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from repro.core.engine import AdaptiveIndexEngine
from repro.core.fup import FupExtractor
from repro.graph.datagraph import DataGraph
from repro.indexes.aindex import AkIndex
from repro.indexes.apex import ApexIndex
from repro.indexes.dataguide import DataGuide
from repro.indexes.dindex import DkIndex
from repro.indexes.fbindex import FBIndex
from repro.indexes.mindex import MkIndex
from repro.indexes.mstarindex import MStarIndex
from repro.indexes.oneindex import OneIndex
from repro.indexes.udindex import UDIndex
from repro.queries.evaluator import evaluate_on_data_graph, find_instance
from repro.queries.pathexpr import PathExpression
from repro.storage.diskindex import DiskMStarIndex
from repro.storage.spill import build_hierarchy_segment
from repro.verify.invariants import (
    check_cost_counter,
    check_extent_path_consistency,
    check_index_partition,
    check_mstar_links,
)


@dataclass(frozen=True)
class Discrepancy:
    """One verification failure, with enough context to replay it."""

    kind: str  # "answers" | "invariant" | "witness" | "cost" | "cache"
    # | "update" | "shard" | "stored" | "error"
    family: str
    detail: str
    query: str | None = None
    profile: str | None = None
    graph_seed: int | None = None
    step: int | None = None

    def repro(self) -> str:
        """Minimal repro line: graph seed + query (+ replay command)."""
        parts = [f"kind={self.kind}", f"family={self.family}"]
        if self.profile is not None:
            parts.append(f"profile={self.profile}")
        if self.graph_seed is not None:
            parts.append(f"graph-seed={self.graph_seed}")
        if self.query is not None:
            parts.append(f"query={self.query}")
        if self.step is not None:
            parts.append(f"step={self.step}")
        line = " ".join(parts)
        if self.profile is not None and self.graph_seed is not None:
            line += (f"  [replay: repro verify --profile {self.profile} "
                     f"--graph-seed {self.graph_seed}]")
        return line

    def __str__(self) -> str:
        return f"{self.repro()}: {self.detail}"


@dataclass(frozen=True)
class FamilySpec:
    """How to build one index family for a graph + FUP set.

    ``trusted_k`` marks families whose local-similarity annotations must
    hold, so their extents are checked for k-label-path-consistency —
    exactly the property the query algorithm relies on when it trusts an
    extent without validation.  This now includes the adaptive families:
    the published M(k)/M*(k) refinement could overstate ``k`` (its
    qualified-parent split left claimed extents mixed across unqualified
    parents — found by this oracle), and the repo's split-by-all-parents
    correction makes the annotations sound, so the oracle enforces them.
    """

    name: str
    build: Callable[[DataGraph, list[PathExpression], int], object]
    trusted_k: bool = True
    adaptive: bool = False


def _refined(index, fups: list[PathExpression]):
    for expr in fups:
        index.refine(expr, index.query(expr))
    return index


DEFAULT_FAMILIES: tuple[FamilySpec, ...] = (
    FamilySpec("1", lambda g, fups, k: OneIndex(g)),
    FamilySpec("A(k)", lambda g, fups, k: AkIndex(g, k)),
    FamilySpec("D(k)-construct",
               lambda g, fups, k: DkIndex.construct(g, fups)),
    FamilySpec("D(k)-promote",
               lambda g, fups, k: _refined(DkIndex(g), fups),
               trusted_k=True, adaptive=True),
    FamilySpec("UD(k,l)", lambda g, fups, k: UDIndex(g, k, 1)),
    FamilySpec("M(k)", lambda g, fups, k: _refined(MkIndex(g), fups),
               trusted_k=True, adaptive=True),
    FamilySpec("M*(k)", lambda g, fups, k: _refined(MStarIndex(g), fups),
               trusted_k=True, adaptive=True),
    FamilySpec("F&B", lambda g, fups, k: FBIndex(g)),
    FamilySpec("APEX", lambda g, fups, k: _refined(ApexIndex(g), fups)),
    FamilySpec("DataGuide", lambda g, fups, k: DataGuide(g)),
)

FAMILY_NAMES = tuple(spec.name for spec in DEFAULT_FAMILIES)
_FAMILIES_BY_NAME = {spec.name: spec for spec in DEFAULT_FAMILIES}


def resolve_families(names: Iterable[str] | None) -> list[FamilySpec]:
    """Family specs for the given names (``None`` = all of them)."""
    if names is None:
        return list(DEFAULT_FAMILIES)
    specs = []
    for name in names:
        spec = _FAMILIES_BY_NAME.get(name)
        if spec is None:
            known = ", ".join(FAMILY_NAMES)
            raise ValueError(f"unknown index family {name!r} (known: {known})")
        specs.append(spec)
    return specs


def refinable_fups(queries: Sequence[PathExpression],
                   limit: int | None = None) -> list[PathExpression]:
    """The child-axis, wildcard-free subset of a workload (refine targets)."""
    seen: set[PathExpression] = set()
    fups: list[PathExpression] = []
    for expr in queries:
        if expr.has_wildcard or expr.has_descendant_steps:
            continue
        if expr in seen:
            continue
        seen.add(expr)
        fups.append(expr)
        if limit is not None and len(fups) >= limit:
            break
    return fups


def build_index_suite(graph: DataGraph, fups: list[PathExpression],
                      k: int = 2,
                      families: Iterable[str] | None = None,
                      profile: str | None = None,
                      graph_seed: int | None = None
                      ) -> tuple[dict[str, object], list[Discrepancy]]:
    """Build every requested family; build crashes become discrepancies."""
    indexes: dict[str, object] = {}
    failures: list[Discrepancy] = []
    for spec in resolve_families(families):
        try:
            indexes[spec.name] = spec.build(graph, list(fups), k)
        except Exception as exc:  # noqa: BLE001 - the whole point
            failures.append(Discrepancy(
                kind="error", family=spec.name, profile=profile,
                graph_seed=graph_seed,
                detail=f"index construction raised {type(exc).__name__}: "
                       f"{exc}"))
    return indexes, failures


def check_query(graph: DataGraph, family: str, index, expr: PathExpression,
                profile: str | None = None,
                graph_seed: int | None = None,
                truth: set[int] | None = None) -> list[Discrepancy]:
    """Differential check of one query on one index."""
    if truth is None:
        truth = evaluate_on_data_graph(graph, expr)
    context = dict(family=family, query=str(expr), profile=profile,
                   graph_seed=graph_seed)
    try:
        result = index.query(expr)
    except Exception as exc:  # noqa: BLE001 - fuzzing wants the crash
        return [Discrepancy(kind="error",
                            detail=f"query raised {type(exc).__name__}: "
                                   f"{exc}",
                            **context)]
    discrepancies: list[Discrepancy] = []
    if result.answers != truth:
        false_positives = sorted(result.answers - truth)[:5]
        false_negatives = sorted(truth - result.answers)[:5]
        discrepancies.append(Discrepancy(
            kind="answers",
            detail=f"answers differ from data-graph oracle: "
                   f"false positives {false_positives}, "
                   f"false negatives {false_negatives} "
                   f"(got {len(result.answers)}, want {len(truth)})",
            **context))
    for violation in check_cost_counter(result.cost):
        discrepancies.append(Discrepancy(kind="cost", detail=violation,
                                         **context))
    return discrepancies


def check_witnesses(graph: DataGraph, expr: PathExpression,
                    answers: set[int],
                    profile: str | None = None,
                    graph_seed: int | None = None,
                    max_witnesses: int = 10) -> list[Discrepancy]:
    """Every answer to a child-axis query must yield a valid witness path."""
    if expr.has_descendant_steps:
        return []
    discrepancies: list[Discrepancy] = []
    context = dict(family="oracle", query=str(expr), profile=profile,
                   graph_seed=graph_seed)
    for oid in sorted(answers)[:max_witnesses]:
        witness = find_instance(graph, expr, oid)
        if witness is None:
            discrepancies.append(Discrepancy(
                kind="witness",
                detail=f"find_instance found no witness for answer {oid}",
                **context))
            continue
        problem = _witness_problem(graph, expr, oid, witness)
        if problem:
            discrepancies.append(Discrepancy(
                kind="witness",
                detail=f"witness {witness} for answer {oid} invalid: "
                       f"{problem}",
                **context))
    return discrepancies


def _witness_problem(graph: DataGraph, expr: PathExpression, oid: int,
                     witness: list[int]) -> str | None:
    if len(witness) != len(expr.labels):
        return f"length {len(witness)} != {len(expr.labels)} labels"
    if witness[-1] != oid:
        return "does not end at the answer node"
    for position, node in enumerate(witness):
        if not expr.matches_label(position, graph.labels[node]):
            return (f"label {graph.labels[node]!r} at position {position} "
                    f"does not match step {expr.labels[position]!r}")
    for parent, child in zip(witness, witness[1:]):
        if not graph.has_edge(parent, child):
            return f"edge ({parent}, {child}) missing from the data graph"
    if expr.rooted and not graph.has_edge(graph.root, witness[0]):
        return "rooted witness does not start at a child of the root"
    return None


def _index_graphs_of(index) -> list:
    """The IndexGraph objects inside one index family instance."""
    if isinstance(index, MStarIndex):
        return list(index.components)
    if isinstance(index, ApexIndex):
        return [index.summary]
    inner = getattr(index, "index", None)
    return [inner] if inner is not None else []


def check_structure(graph: DataGraph, family: str, index,
                    trusted_k: bool = True,
                    profile: str | None = None,
                    graph_seed: int | None = None) -> list[Discrepancy]:
    """Structural invariants of one built index."""
    discrepancies: list[Discrepancy] = []
    context = dict(family=family, profile=profile, graph_seed=graph_seed)
    for position, index_graph in enumerate(_index_graphs_of(index)):
        where = (f"component I{position}: "
                 if isinstance(index, MStarIndex) else "")
        for violation in check_index_partition(index_graph):
            discrepancies.append(Discrepancy(
                kind="invariant", detail=where + violation, **context))
        if trusted_k:
            for violation in check_extent_path_consistency(graph,
                                                           index_graph):
                discrepancies.append(Discrepancy(
                    kind="invariant", detail=where + violation, **context))
    if isinstance(index, MStarIndex):
        for violation in check_mstar_links(index):
            discrepancies.append(Discrepancy(
                kind="invariant", detail=violation, **context))
    return discrepancies


def check_static_suite(graph: DataGraph, queries: Sequence[PathExpression],
                       k: int = 2,
                       families: Iterable[str] | None = None,
                       profile: str | None = None,
                       graph_seed: int | None = None,
                       max_fups: int | None = 12) -> list[Discrepancy]:
    """Build all families, run every query through each, check invariants."""
    fups = refinable_fups(queries, limit=max_fups)
    indexes, discrepancies = build_index_suite(
        graph, fups, k=k, families=families, profile=profile,
        graph_seed=graph_seed)
    truths = {expr: evaluate_on_data_graph(graph, expr) for expr in queries}
    for name, index in indexes.items():
        spec = _FAMILIES_BY_NAME[name]
        for expr in queries:
            discrepancies.extend(check_query(
                graph, name, index, expr, profile=profile,
                graph_seed=graph_seed, truth=truths[expr]))
        discrepancies.extend(check_structure(
            graph, name, index, trusted_k=spec.trusted_k,
            profile=profile, graph_seed=graph_seed))
    for expr, truth in truths.items():
        discrepancies.extend(check_witnesses(
            graph, expr, truth, profile=profile, graph_seed=graph_seed))
    return discrepancies


def check_cache_equivalence(graph: DataGraph,
                            stream: Sequence[PathExpression],
                            index_factory: Callable[[DataGraph], object]
                            = MStarIndex,
                            extractor_factory: Callable[[], FupExtractor]
                            | None = None,
                            profile: str | None = None,
                            graph_seed: int | None = None
                            ) -> list[Discrepancy]:
    """The result cache must be semantically invisible.

    Drives two engines through the same stream — one with the
    refinement-aware result cache enabled, one without — and demands
    per-step equality of answers and of the ``validated`` flag (a cache
    hit must be indistinguishable from re-running the query), plus
    matching refinement counts at the end: a stale cache entry would
    diverge exactly here, because refinement decisions feed on
    ``result.validated``.  Each engine gets its own extractor instance
    (extractors are stateful).
    """
    make_extractor = extractor_factory if extractor_factory is not None \
        else FupExtractor
    cached = AdaptiveIndexEngine(graph, index_factory=index_factory,
                                 extractor=make_extractor(), cache=True)
    plain = AdaptiveIndexEngine(graph, index_factory=index_factory,
                                extractor=make_extractor(), cache=False)
    family = f"cache[{type(cached.index).__name__}]"
    discrepancies: list[Discrepancy] = []
    context = dict(family=family, profile=profile, graph_seed=graph_seed)
    for step, expr in enumerate(stream):
        try:
            hot = cached.execute(expr)
            cold = plain.execute(expr)
        except Exception as exc:  # noqa: BLE001 - fuzzing wants the crash
            discrepancies.append(Discrepancy(
                kind="error", query=str(expr), step=step,
                detail=f"execute raised {type(exc).__name__}: {exc}",
                **context))
            break
        if hot.answers != cold.answers:
            discrepancies.append(Discrepancy(
                kind="cache", query=str(expr), step=step,
                detail=f"cached answers diverge after {cached.stats.cache_hits} "
                       f"hits: only-cached "
                       f"{sorted(hot.answers - cold.answers)[:5]}, "
                       f"only-uncached "
                       f"{sorted(cold.answers - hot.answers)[:5]}",
                **context))
        if hot.validated != cold.validated:
            discrepancies.append(Discrepancy(
                kind="cache", query=str(expr), step=step,
                detail=f"validated flag diverges: cached={hot.validated} "
                       f"uncached={cold.validated}",
                **context))
    if cached.stats.refinements != plain.stats.refinements:
        discrepancies.append(Discrepancy(
            kind="cache", step=len(stream) - 1,
            detail=f"refinement counts diverge: cached engine "
                   f"{cached.stats.refinements}, uncached "
                   f"{plain.stats.refinements}",
            **context))
    return discrepancies


def check_engine_sequence(graph: DataGraph,
                          stream: Sequence[PathExpression],
                          index_factory: Callable[[DataGraph], object]
                          = MStarIndex,
                          extractor: FupExtractor | None = None,
                          profile: str | None = None,
                          graph_seed: int | None = None,
                          check_every: int = 1) -> list[Discrepancy]:
    """Drive an adaptive engine through a stream, checking every step.

    After each executed query the answers are compared against the
    data-graph oracle and (every ``check_every`` steps, plus at the end)
    the index's structural invariants are re-checked — refinement is
    exactly where the partition/link invariants are at risk.
    """
    engine = AdaptiveIndexEngine(graph, index_factory=index_factory,
                                 extractor=extractor)
    family = f"engine[{type(engine.index).__name__}]"
    discrepancies: list[Discrepancy] = []
    context = dict(profile=profile, graph_seed=graph_seed)
    previous_total = 0
    for step, expr in enumerate(stream):
        try:
            result = engine.execute(expr)
        except Exception as exc:  # noqa: BLE001 - fuzzing wants the crash
            discrepancies.append(Discrepancy(
                kind="error", family=family, query=str(expr), step=step,
                detail=f"engine.execute raised {type(exc).__name__}: {exc}",
                **context))
            break
        truth = evaluate_on_data_graph(graph, expr)
        if result.answers != truth:
            discrepancies.append(Discrepancy(
                kind="answers", family=family, query=str(expr), step=step,
                detail=f"engine answers differ from oracle after "
                       f"{engine.stats.refinements} refinements: "
                       f"false positives "
                       f"{sorted(result.answers - truth)[:5]}, "
                       f"false negatives {sorted(truth - result.answers)[:5]}",
                **context))
        total = engine.stats.cost.total
        if total < previous_total:
            discrepancies.append(Discrepancy(
                kind="cost", family=family, query=str(expr), step=step,
                detail=f"running cost decreased: {previous_total} -> {total}",
                **context))
        previous_total = total
        if step % check_every == 0 or step == len(stream) - 1:
            for issue in check_structure(graph, family, engine.index,
                                         trusted_k=True, profile=profile,
                                         graph_seed=graph_seed):
                discrepancies.append(Discrepancy(
                    kind=issue.kind, family=issue.family, query=str(expr),
                    step=step, detail=issue.detail, **context))
    return discrepancies


# ----------------------------------------------------------------------
# The updates axis: document mutations interleaved with engine rounds
# ----------------------------------------------------------------------
def _apply_random_update(graph: DataGraph, rng: random.Random,
                         indexes: list) -> str:
    """One random document update through the maintenance entry points.

    Mutates ``graph`` (and every index in ``indexes``) in place and
    returns a human-readable description for discrepancy details.
    Roughly half the updates are subtree insertions, half IDREF edge
    additions (falling back to insertion when no fresh edge is found).
    """
    from repro.indexes.maintenance import add_reference, insert_subtree

    labels = sorted(graph.alphabet())
    if rng.random() >= 0.5:
        for _ in range(8):
            source = rng.randrange(graph.num_nodes)
            target = rng.randrange(1, graph.num_nodes)
            if target != source and not graph.has_edge(source, target):
                add_reference(graph, source, target, indexes=indexes)
                return f"add_reference({source} -> {target})"
    parent = rng.randrange(graph.num_nodes)
    label = labels[rng.randrange(len(labels))]
    child = labels[rng.randrange(len(labels))]
    insert_subtree(graph, parent, (label, [(child, [])]), indexes=indexes)
    return f"insert_subtree(({label} -> {child}) under {parent})"


def check_update_equivalence(graph: DataGraph,
                             stream: Sequence[PathExpression],
                             index_factory: Callable[[DataGraph], object]
                             = MStarIndex,
                             extractor_factory: Callable[[], FupExtractor]
                             | None = None,
                             update_every: int = 5,
                             profile: str | None = None,
                             graph_seed: int | None = None
                             ) -> list[Discrepancy]:
    """Document updates must invalidate caches and keep indexes exact.

    Drives a cache-on and a cache-off engine of the same family through
    one stream over one *shared* graph, interleaving a random document
    update (``insert_subtree`` / ``add_reference`` via the maintenance
    module, registered into both engines' indexes) every
    ``update_every`` steps.  After every step three things must hold:

    * the cached engine matches the data-graph oracle (a stale cache
      entry surviving an update surfaces here first),
    * the uncached engine matches the oracle (the demotion-based index
      maintenance itself is sound),
    * both engines agree on answers and the ``validated`` flag (the
      cache stays semantically invisible across updates).

    All divergences are reported as ``kind="update"`` discrepancies
    naming the last update applied.  **Mutates ``graph``** — callers
    must run this check last on a given graph (the campaign driver
    does).
    """
    make_extractor = extractor_factory if extractor_factory is not None \
        else FupExtractor
    cached = AdaptiveIndexEngine(graph, index_factory=index_factory,
                                 extractor=make_extractor(), cache=True)
    plain = AdaptiveIndexEngine(graph, index_factory=index_factory,
                                extractor=make_extractor(), cache=False)
    family = f"update[{type(cached.index).__name__}]"
    rng = random.Random(f"updates:{graph_seed}")
    discrepancies: list[Discrepancy] = []
    context = dict(family=family, profile=profile, graph_seed=graph_seed)
    last_update = "none yet"
    updates_applied = 0
    for step, expr in enumerate(stream):
        if step and step % update_every == 0:
            try:
                last_update = _apply_random_update(
                    graph, rng, [cached.index, plain.index])
                updates_applied += 1
            except Exception as exc:  # noqa: BLE001 - fuzzing wants the crash
                discrepancies.append(Discrepancy(
                    kind="error", step=step,
                    detail=f"maintenance raised {type(exc).__name__}: {exc}",
                    **context))
                break
        try:
            hot = cached.execute(expr)
            cold = plain.execute(expr)
        except Exception as exc:  # noqa: BLE001 - fuzzing wants the crash
            discrepancies.append(Discrepancy(
                kind="error", query=str(expr), step=step,
                detail=f"execute raised {type(exc).__name__} after "
                       f"{last_update}: {exc}", **context))
            break
        truth = evaluate_on_data_graph(graph, expr)
        for name, result in (("cache-on", hot), ("cache-off", cold)):
            if result.answers != truth:
                discrepancies.append(Discrepancy(
                    kind="update", query=str(expr), step=step,
                    detail=f"{name} engine diverges from oracle after "
                           f"{updates_applied} updates (last: {last_update}):"
                           f" false positives "
                           f"{sorted(result.answers - truth)[:5]}, "
                           f"false negatives "
                           f"{sorted(truth - result.answers)[:5]}",
                    **context))
        if hot.answers == truth and cold.answers == truth and \
                hot.validated != cold.validated:
            discrepancies.append(Discrepancy(
                kind="update", query=str(expr), step=step,
                detail=f"validated flag diverges after {last_update}: "
                       f"cached={hot.validated} uncached={cold.validated}",
                **context))
    return discrepancies


def _copy_graph(graph: DataGraph) -> DataGraph:
    """An independent mutable replica of ``graph`` (same oids, edges,
    kinds, root)."""
    from repro.graph.datagraph import EdgeKind

    clone = DataGraph()
    for oid in range(graph.num_nodes):
        clone.add_node(graph.label(oid))
    rows = graph.child_rows()
    kinds = getattr(graph, "_edge_kinds")
    for parent in range(graph.num_nodes):
        for child in rows[parent]:
            child = int(child)
            clone.add_edge(parent, child,
                           kind=kinds.get((parent, child), EdgeKind.REGULAR))
    clone.root = graph.root
    return clone


def check_shard_equivalence(graph: DataGraph,
                            stream: Sequence[PathExpression],
                            num_shards: int = 3,
                            update_every: int = 5,
                            profile: str | None = None,
                            graph_seed: int | None = None
                            ) -> list[Discrepancy]:
    """A sharded engine must answer exactly like one unsharded database.

    Builds a :class:`~repro.sharding.ShardedEngine` over a private copy
    of ``graph`` and drives it through the stream, interleaving random
    document updates through the combiner's writer path every
    ``update_every`` steps.  After every step the combiner's answer
    must equal forward navigation over its own global mirror — which
    evolves exactly like an unsharded document, so this is the
    single-shard equivalence check in one engine: placement, per-shard
    indexing, extent merging, cross-edge routing, and update routing
    all have to be right for every query to pass.  Right after each
    update every expression asked since the previous one is asked
    again: those are the expressions whose merged runs and remembered
    exact answers the combiner holds, so one kept across the write
    shows here.

    Also checks placement invariants after every update: each node is
    owned by exactly one shard or the spine, and the per-shard oid maps
    stay mutually consistent.  Divergences are ``kind="shard"``.
    """
    from repro.sharding import ShardedEngine
    from repro.sharding.placement import SPINE

    discrepancies: list[Discrepancy] = []
    family = f"shard[{num_shards}]"
    context = dict(family=family, profile=profile, graph_seed=graph_seed)
    try:
        sharded = ShardedEngine(_copy_graph(graph).freeze(),
                                num_shards=num_shards)
    except Exception as exc:  # noqa: BLE001 - fuzzing wants the crash
        return [Discrepancy(
            kind="error",
            detail=f"ShardedEngine construction raised "
                   f"{type(exc).__name__}: {exc}", **context)]
    rng = random.Random(f"shards:{graph_seed}:{num_shards}")
    last_update = "none yet"

    def ask(expr: PathExpression, step: int) -> bool:
        """One combiner answer against the mirror; False on a crash."""
        try:
            served = sharded.query(expr)
        except Exception as exc:  # noqa: BLE001 - fuzzing wants the crash
            discrepancies.append(Discrepancy(
                kind="error", query=str(expr), step=step,
                detail=f"sharded query raised {type(exc).__name__} after "
                       f"{last_update}: {exc}", **context))
            return False
        truth = evaluate_on_data_graph(sharded.graph, expr)
        if served.answers != truth:
            discrepancies.append(Discrepancy(
                kind="shard", query=str(expr), step=step,
                detail=f"combiner diverges from oracle after {last_update}: "
                       f"false positives "
                       f"{sorted(served.answers - truth)[:5]}, "
                       f"false negatives "
                       f"{sorted(truth - served.answers)[:5]}",
                **context))
        return True

    window: list[PathExpression] = []
    for step, expr in enumerate(stream):
        if step and step % update_every == 0:
            from repro.serving.replay import random_update
            try:
                last_update = random_update(sharded, rng)
            except Exception as exc:  # noqa: BLE001 - fuzzing wants the crash
                discrepancies.append(Discrepancy(
                    kind="error", step=step,
                    detail=f"sharded update raised {type(exc).__name__}: "
                           f"{exc}", **context))
                break
            mirror = sharded.graph
            owner = sharded.placement.owner
            if len(owner) != mirror.num_nodes:
                discrepancies.append(Discrepancy(
                    kind="shard", step=step,
                    detail=f"placement covers {len(owner)} oids but the "
                           f"mirror has {mirror.num_nodes} after "
                           f"{last_update}", **context))
                break
            mapped = sum(len(shard.to_global) for shard in sharded.shards)
            spine = sum(1 for who in owner if who == SPINE)
            expected = mirror.num_nodes + spine * (num_shards - 1)
            if mapped != expected:
                discrepancies.append(Discrepancy(
                    kind="shard", step=step,
                    detail=f"shard oid maps hold {mapped} entries, expected "
                           f"{expected} (spine={spine}) after {last_update}",
                    **context))
                break
            if not all(ask(asked, step) for asked in window):
                break
            window = []
        if not ask(expr, step):
            break
        window.append(expr)
    return discrepancies


def check_stored_equivalence(graph: DataGraph,
                             stream: Sequence[PathExpression],
                             k: int = 2,
                             profile: str | None = None,
                             graph_seed: int | None = None
                             ) -> list[Discrepancy]:
    """The stored index must be the in-RAM index, read through a pool.

    The index file has two producers and one reader, so both producers
    run: ``DiskMStarIndex.build`` writes an M*(k) refined for the
    stream's FUPs, ``build_hierarchy_segment`` spill-builds the A(0)..A(k)
    hierarchy of the graph under the minimum budget.  Through
    :class:`~repro.storage.diskindex.DiskMStarIndex` on a 2-page pool
    (every walk evicts), both files must answer the stream like forward
    navigation and load back into an index that passes
    ``check_invariants``; on child-axis queries the built file must
    also report the ``validated`` flag and index visits of the in-RAM
    index it was written from (with a descendant step the two take
    different routes: the in-RAM index answers in its finest component,
    the reader still walks top-down).  The page size is drawn from 64-4096 by the graph
    seed, so records land on page breaks differently every round.
    Divergences are ``kind="stored"``.
    """
    discrepancies: list[Discrepancy] = []
    page_size = random.Random(f"stored:{graph_seed}").randint(64, 4096)
    refined = _refined(MStarIndex(graph), refinable_fups(stream, limit=12))
    truths = {expr: evaluate_on_data_graph(graph, expr)
              for expr in set(stream)}
    with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
        producers = (
            ("build", refined, lambda path: DiskMStarIndex.build(
                refined, path, page_size=page_size).close()),
            ("spill", None, lambda path: build_hierarchy_segment(
                graph, k, path, budget_bytes=4096, page_size=page_size,
                tmpdir=tmp)),
        )
        for producer, twin, write in producers:
            context = dict(family=f"stored[{producer}]", profile=profile,
                           graph_seed=graph_seed)
            path = os.path.join(tmp, f"{producer}.seg")
            try:
                write(path)
                with DiskMStarIndex(path, graph, buffer_pages=2) as disk:
                    for step, expr in enumerate(stream):
                        discrepancies.extend(_stored_query_problems(
                            disk, twin, expr, truths[expr], step, context))
                    disk.to_memory().check_invariants()
            except Exception as exc:  # noqa: BLE001 - fuzzing wants the crash
                discrepancies.append(Discrepancy(
                    kind="error",
                    detail=f"stored index (page size {page_size}) raised "
                           f"{type(exc).__name__}: {exc}", **context))
    return discrepancies


def _stored_query_problems(disk: DiskMStarIndex, twin: MStarIndex | None,
                           expr: PathExpression, truth: set[int],
                           step: int, context: dict) -> list[Discrepancy]:
    served = disk.query(expr)
    problems = []
    if served.answers != truth:
        problems.append(
            f"diverges from oracle: false positives "
            f"{sorted(served.answers - truth)[:5]}, false negatives "
            f"{sorted(truth - served.answers)[:5]}")
    if twin is not None and not expr.has_descendant_steps:
        in_ram = twin.query(expr)
        if (served.validated, served.cost.index_visits) != \
                (in_ram.validated, in_ram.cost.index_visits):
            problems.append(
                f"validated/index visits {served.validated}/"
                f"{served.cost.index_visits} on disk, {in_ram.validated}/"
                f"{in_ram.cost.index_visits} in RAM")
    return [Discrepancy(kind="stored", query=str(expr), step=step,
                        detail=detail, **context) for detail in problems]
