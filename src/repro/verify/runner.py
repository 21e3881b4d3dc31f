"""Verification campaign driver behind ``repro verify``.

A campaign of ``rounds`` rounds cycles through the standard graph
profiles.  Each round derives a graph seed from the campaign seed,
generates a graph and a fuzzed workload, differential-checks every index
family against the data-graph oracle, checks structural invariants, and
(on adaptive rounds) drives :class:`AdaptiveIndexEngine` refinement
sequences step by step — including one with a windowed FUP extractor
over a drifting stream, the regime the engine's refresh gate exists for —
and replays each stream through cache-on vs cache-off engines, which
must be observationally identical (:func:`check_cache_equivalence`).
Each adaptive round ends with the *updates* axis
(:func:`check_update_equivalence`): document updates (subtree
insertions, IDREF additions) interleaved into the stream through the
maintenance module, after which cached and uncached engines must still
match the data-graph oracle — the regime that catches stale caches and
unsound incremental maintenance.  Adaptive rounds also run the
*sharding* axis (:func:`check_shard_equivalence`): a
:class:`~repro.sharding.ShardedEngine` over 2-4 shards of a private
copy of the round's graph, fed the same stream with interleaved
updates, must answer byte-for-byte like an unsharded database — and
the *stored* axis (:func:`check_stored_equivalence`): the index file
written by each of its two producers, read back through
:class:`~repro.storage.diskindex.DiskMStarIndex` on a 2-page pool, must
answer like the in-RAM index and load back with every invariant intact.

Deterministic: the same ``(seed, rounds, options)`` always replays the
same campaign, and every discrepancy reduces to a
``(profile, graph seed, query)`` triple replayable via
``repro verify --profile <p> --graph-seed <s>``.

The campaign doubles as the differential oracle for the compact data
plane: every round's graph is frozen to the CSR adjacency after
generation (the updates axis thaws it automatically on its first
mutation, so both backends get exercised in one round), and the whole
campaign runs under :func:`repro.core.extents.differential_checks`, so
every merge-based extent operation is recomputed against Python set
semantics and any divergence raises immediately.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.extents import differential_checks
from repro.core.fup import FupExtractor
from repro.indexes.dindex import DkIndex
from repro.indexes.mindex import MkIndex
from repro.indexes.mstarindex import MStarIndex
from repro.verify.fuzz import (
    GRAPH_PROFILES,
    GraphProfile,
    profile_named,
    random_data_graph,
    random_fup_stream,
    random_workload,
)
from repro.verify.oracle import (
    Discrepancy,
    check_cache_equivalence,
    check_engine_sequence,
    check_shard_equivalence,
    check_static_suite,
    check_stored_equivalence,
    check_update_equivalence,
)

#: Engine index factories exercised on adaptive rounds.
ENGINE_FACTORIES = {
    "M*(k)": MStarIndex,
    "M(k)": MkIndex,
    "D(k)-promote": DkIndex,
}


@dataclass
class VerificationReport:
    """Aggregated outcome of one verification campaign."""

    rounds: int = 0
    graphs_checked: int = 0
    queries_checked: int = 0
    engine_steps: int = 0
    discrepancies: list[Discrepancy] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def summary(self) -> str:
        lines = [
            f"verify: {self.rounds} rounds, {self.graphs_checked} graphs, "
            f"{self.queries_checked} index/query checks, "
            f"{self.engine_steps} engine steps",
        ]
        if self.ok:
            lines.append("verify: OK — no answer-set discrepancies, "
                         "no invariant violations")
        else:
            lines.append(f"verify: FAILED — {len(self.discrepancies)} "
                         f"discrepancies")
            for discrepancy in self.discrepancies:
                lines.append(f"  {discrepancy}")
        return "\n".join(lines)

    def repro_lines(self) -> list[str]:
        return [discrepancy.repro() for discrepancy in self.discrepancies]


def _graph_seed(seed: int, round_number: int) -> int:
    # Spread rounds across seed space deterministically; the multiplier
    # keeps campaigns with nearby base seeds from overlapping.
    return seed * 1_000_003 + round_number


def run_verification(seed: int = 0, rounds: int = 25,
                     families: Iterable[str] | None = None,
                     k: int = 2,
                     queries_per_round: int = 24,
                     engine_queries: int = 40,
                     profile: str | None = None,
                     graph_seed: int | None = None,
                     max_rounds_with_engine: int | None = None,
                     progress=None) -> VerificationReport:
    """Run a verification campaign; see the module docstring.

    ``profile``/``graph_seed`` switch to replay mode: a single round on
    exactly that graph (the form discrepancy repro lines name).
    ``progress`` is an optional callable receiving one status line per
    round.
    """
    report = VerificationReport()
    if profile is not None or graph_seed is not None:
        profiles: list[GraphProfile] = [
            profile_named(profile) if profile is not None
            else GRAPH_PROFILES[0]]
        seeds = [graph_seed if graph_seed is not None
                 else _graph_seed(seed, 0)]
        rounds = 1
    else:
        profiles = [GRAPH_PROFILES[r % len(GRAPH_PROFILES)]
                    for r in range(rounds)]
        seeds = [_graph_seed(seed, r) for r in range(rounds)]

    family_list = None if families is None else list(families)
    with differential_checks():
        _run_rounds(report, profiles, seeds, family_list, k,
                    queries_per_round, engine_queries,
                    max_rounds_with_engine, progress)
    return report


def _run_rounds(report: VerificationReport, profiles, seeds, family_list,
                k: int, queries_per_round: int, engine_queries: int,
                max_rounds_with_engine: int | None, progress) -> None:
    for round_number, (round_profile, round_seed) in enumerate(
            zip(profiles, seeds)):
        report.rounds += 1
        # Freeze to the CSR backend: the static suite and engine checks
        # read through the compact adjacency, and the updates axis thaws
        # the graph on its first mutation — one round covers both.
        graph = random_data_graph(round_profile, round_seed).freeze()
        report.graphs_checked += 1
        queries = random_workload(graph, queries_per_round, round_seed)
        found = check_static_suite(
            graph, queries, k=k, families=family_list,
            profile=round_profile.name, graph_seed=round_seed)
        report.queries_checked += len(queries)

        # Adaptive engines are exercised on a rotating subset of rounds:
        # refinement sequences dominate runtime, so each round drives one
        # factory, and every third round additionally runs the windowed-
        # extractor drift scenario.
        engine_budget = (max_rounds_with_engine is None
                         or round_number < max_rounds_with_engine)
        if engine_budget:
            factory_names = sorted(ENGINE_FACTORIES)
            factory_name = factory_names[round_number % len(factory_names)]
            stream = random_fup_stream(graph, engine_queries, round_seed)
            found.extend(check_engine_sequence(
                graph, stream, index_factory=ENGINE_FACTORIES[factory_name],
                profile=round_profile.name, graph_seed=round_seed))
            report.engine_steps += len(stream)
            # The result cache must be invisible: replay the stream
            # through cache-on vs cache-off engines of the same family.
            found.extend(check_cache_equivalence(
                graph, stream, index_factory=ENGINE_FACTORIES[factory_name],
                profile=round_profile.name, graph_seed=round_seed))
            report.engine_steps += len(stream)
            if round_number % 3 == 0:
                windowed = FupExtractor(threshold=2, window=8)
                found.extend(check_engine_sequence(
                    graph, stream, index_factory=MStarIndex,
                    extractor=windowed, profile=round_profile.name,
                    graph_seed=round_seed))
                report.engine_steps += len(stream)
            # The sharding axis: a combiner over 2-4 shards (rotating
            # with the round) must answer exactly like one unsharded
            # database, through interleaved updates.  It works on a
            # private copy of the graph, so round order is unaffected.
            found.extend(check_shard_equivalence(
                graph, stream, num_shards=2 + round_number % 3,
                profile=round_profile.name, graph_seed=round_seed))
            report.engine_steps += len(stream)
            # The stored axis: the index file of both producers, read
            # through a 2-page pool, is the in-RAM index.
            found.extend(check_stored_equivalence(
                graph, stream, k=k, profile=round_profile.name,
                graph_seed=round_seed))
            report.engine_steps += 2 * len(stream)
            # The updates axis mutates the graph, so it must be the last
            # user of this round's graph: document updates interleave
            # with the stream and caches/indexes must stay exact.
            found.extend(check_update_equivalence(
                graph, stream, index_factory=ENGINE_FACTORIES[factory_name],
                profile=round_profile.name, graph_seed=round_seed))
            report.engine_steps += len(stream)

        report.discrepancies.extend(found)
        if progress is not None:
            status = "ok" if not found else f"{len(found)} DISCREPANCIES"
            progress(f"round {round_number}: profile={round_profile.name} "
                     f"graph-seed={round_seed} "
                     f"nodes={graph.num_nodes} edges={graph.num_edges} "
                     f"-> {status}")
