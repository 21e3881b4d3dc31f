"""Property-based tests for the serving layer's snapshot model.

Hypothesis drives random interleavings of the four operation kinds the
serving layer exposes — ``query``, ``insert_subtree``,
``add_reference``, and ``refine`` — against a deterministic base
document, and checks the invariants that the threaded stress suite can
only sample:

* **Exactness everywhere**: after *every* operation, every probe query
  answered through the serving layer equals the data-graph oracle.
* **Snapshot monotonicity**: the engine epoch never decreases, each
  served answer carries an epoch between the epochs observed before
  and after the call, and a sequence of reads never observes an epoch
  older than one it already saw.
* **Cache tokens never cross an epoch bump**: a cache hit whose entry
  was stored at an older epoch is only legal because its token (the
  PR 2 cache fingerprint) still matches — and such a hit must still
  agree with the present-day oracle.  A stale entry surviving a
  maintenance commit with a *matching* token would be an index bug;
  one surviving with a *mismatched* token would be a serving bug.
  Both fail here.

``max_examples`` is kept modest and ``deadline=None`` because each
example builds a fresh graph and index; the suite still explores a few
thousand distinct interleavings across a CI run thanks to per-example
shrinking.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from tests.conftest import random_graph
from repro.core.extents import Extent
from repro.indexes.base import IndexNode, QueryResult, answer_run
from repro.indexes.mindex import MkIndex
from repro.indexes.mstarindex import MStarIndex
from repro.queries.evaluator import evaluate_on_data_graph
from repro.queries.pathexpr import as_expression
from repro.queries.workload import Workload
from repro.serving import ServingEngine

SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: Operation alphabet: every op is (kind, seed); the seed makes the
#: op's own randomness (which parent, which labels, which probe)
#: reproducible under shrinking.
_ops = st.lists(
    st.tuples(st.sampled_from(["query", "insert", "addref", "refine"]),
              st.integers(min_value=0, max_value=2**16)),
    min_size=1, max_size=14)


def _fresh_serving(factory, graph_seed: int = 11):
    graph = random_graph(graph_seed, num_nodes=30, num_labels=4,
                         extra_edges=8)
    serving = ServingEngine(graph, index_factory=factory)
    probes = sorted({expr for expr in Workload.generate(
        graph, num_queries=15, max_length=4, seed=5)}, key=str)
    assert probes
    return serving, probes


def _apply(serving: ServingEngine, kind: str, seed: int, probes) -> None:
    rng = random.Random(seed)
    graph = serving.graph
    labels = sorted(graph.alphabet())
    if kind == "insert":
        parent = rng.randrange(graph.num_nodes)
        serving.insert_subtree(
            parent, (labels[rng.randrange(len(labels))],
                     [(labels[rng.randrange(len(labels))], [])]))
    elif kind == "addref":
        for _ in range(8):
            source = rng.randrange(graph.num_nodes)
            target = rng.randrange(1, graph.num_nodes)
            if target != source and target not in graph.children(source):
                serving.add_reference(source, target)
                return
        # Dense corner: no fresh edge found in 8 tries; degrade to an
        # insert so the interleaving still performs a maintenance op.
        serving.insert_subtree(0, (labels[0], []))
    elif kind == "refine":
        serving.refine_pending()
    else:
        serving.query(probes[rng.randrange(len(probes))])


class TestInterleavingExactness:
    @SETTINGS
    @given(ops=_ops)
    def test_every_probe_matches_oracle_after_every_op(self, ops):
        serving, probes = _fresh_serving(MStarIndex)
        for kind, seed in ops:
            _apply(serving, kind, seed, probes)
            for expr in probes:
                result = serving.query(expr)
                assert result.answers == evaluate_on_data_graph(
                    serving.graph, expr), \
                    f"{expr} wrong after {kind}(seed={seed})"

    def test_reclamp_restores_property3_regression(self):
        """Pinned interleaving where ``_reclamp_links`` used to lower a
        node's claim without re-clamping its index children.

        The dangling child kept ``k`` two above its parent (a Property 3
        breach, ``u.k >= v.k - 1``), and M*(k)'s coarse-resolution
        drill-down then served the child's extent verbatim on the
        strength of ancestor paths the parent no longer vouched for —
        returning a non-answer for one probe.  Found by the hypothesis
        interleaving test above; kept as a deterministic case so the
        fix cannot regress silently.
        """
        ops = [("insert", 0), ("addref", 637), ("refine", 0),
               ("insert", 0), ("addref", 4174)]
        serving, probes = _fresh_serving(MStarIndex)
        for kind, seed in ops:
            _apply(serving, kind, seed, probes)
            for component in serving.index.components:
                assert component.property3_violations() == []
            serving.index.check_invariants()
            for expr in probes:
                result = serving.query(expr)
                assert result.answers == evaluate_on_data_graph(
                    serving.graph, expr), \
                    f"{expr} wrong after {kind}(seed={seed})"

    @SETTINGS
    @given(ops=_ops)
    def test_mk_index_family_matches_oracle_too(self, ops):
        serving, probes = _fresh_serving(MkIndex)
        rng = random.Random(3)
        for kind, seed in ops:
            _apply(serving, kind, seed, probes)
            expr = probes[rng.randrange(len(probes))]
            assert serving.query(expr).answers == evaluate_on_data_graph(
                serving.graph, expr)


class TestSnapshotMonotonicity:
    @SETTINGS
    @given(ops=_ops)
    def test_epoch_never_decreases_and_results_are_bracketed(self, ops):
        serving, probes = _fresh_serving(MStarIndex)
        observed = -1
        for kind, seed in ops:
            before = serving.epoch
            assert before >= observed
            _apply(serving, kind, seed, probes)
            after = serving.epoch
            assert after >= before, f"{kind} rewound the epoch"
            result = serving.query(probes[seed % len(probes)])
            # The answer's epoch is bracketed by the clock values read
            # around the call — no reader ever sees an epoch older than
            # one already observed (snapshot monotonicity).
            assert after <= result.epoch <= serving.epoch
            observed = max(observed, result.epoch)

    @SETTINGS
    @given(ops=_ops)
    def test_writers_advance_exactly_one_epoch_per_commit(self, ops):
        serving, probes = _fresh_serving(MStarIndex)
        for kind, seed in ops:
            before = serving.epoch
            pending = len(serving.pending_fups())
            _apply(serving, kind, seed, probes)
            bumped = serving.epoch - before
            if kind in ("insert", "addref"):
                assert bumped == 1, f"{kind} committed {bumped} epochs"
            elif kind == "refine":
                # One commit per refined FUP, bounded by what was queued.
                assert 0 <= bumped <= pending
            else:
                assert bumped == 0, "a read moved the clock"


class TestCacheTokenEpochDiscipline:
    @SETTINGS
    @given(ops=_ops)
    def test_cache_hits_never_serve_across_a_stale_token(self, ops):
        """Every cache hit is re-justified: its entry token must equal
        the index's *current* fingerprint for that query, and its
        answers must equal the *current* oracle — even when the entry
        was stored at an older epoch (legal only because the fingerprint
        proves the relevant partitions did not change)."""
        serving, probes = _fresh_serving(MStarIndex)
        hits = 0
        for kind, seed in ops:
            _apply(serving, kind, seed, probes)
            for expr in probes:
                result = serving.query(expr)
                if not result.cache_hit:
                    continue
                hits += 1
                entry = serving._cache[expr]
                assert entry.epoch <= result.epoch
                assert entry.token == serving._fingerprint(expr), \
                    "cache hit served on a token that no longer matches"
                assert entry.answers == frozenset(evaluate_on_data_graph(
                    serving.graph, expr)), \
                    "cache hit crossed an epoch bump with stale answers"
        # The interleavings must actually exercise the cache: querying
        # each probe twice in a row with no intervening write is a hit.
        serving.query(probes[0])
        repeat = serving.query(probes[0])
        assert repeat.cache_hit

    @SETTINGS
    @given(ops=_ops)
    def test_maintenance_invalidates_affected_cache_entries(self, ops):
        """After any maintenance commit, a stored entry either keeps a
        matching token (and stays exact) or its next probe misses —
        there is no third state where a mismatched token still hits."""
        serving, probes = _fresh_serving(MStarIndex)
        for expr in probes:
            serving.query(expr)
        for kind, seed in ops:
            if kind == "query":
                continue
            tokens_before = {expr: serving._cache[expr].token
                             for expr in probes if expr in serving._cache}
            _apply(serving, kind, seed, probes)
            for expr, stale_token in tokens_before.items():
                result = serving.query(expr)
                if result.cache_hit:
                    assert serving._cache[expr].token == \
                        serving._fingerprint(expr)
                else:
                    assert stale_token != serving._fingerprint(expr), \
                        "token still matches but the probe missed"


class TestAnswerRun:
    """The run a miss stores is the kernel's answer set, in order."""

    @SETTINGS
    @given(ops=_ops, graph_seed=st.integers(min_value=0, max_value=40),
           factory=st.sampled_from([MStarIndex, MkIndex]))
    def test_equals_the_sorted_answer_set(self, ops, graph_seed, factory):
        serving, probes = _fresh_serving(factory, graph_seed)
        for kind, seed in ops:
            _apply(serving, kind, seed, probes)
            for expr in probes:
                result = serving.index.query(expr)
                run = answer_run(result)
                event(f"validated={result.validated}")
                assert run.tolist() == sorted(result.answers), \
                    f"{expr} after {kind}(seed={seed})"

    def test_both_kinds_of_result_are_reached(self):
        serving, probes = _fresh_serving(MStarIndex)
        seen = set()
        for round_ in range(2):
            for expr in probes:
                result = serving.index.query(expr)
                seen.add(result.validated)
                assert answer_run(result).tolist() == sorted(result.answers)
                serving.query(expr)
            serving.refine_pending()
        assert seen == {True, False}

    def test_one_target_node_is_shared_not_copied(self, simple_tree):
        index = MStarIndex(simple_tree)
        result = index.query(as_expression("//r"))
        assert not result.validated and len(result.target_nodes) == 1
        assert answer_run(result) is result.target_nodes[0].extent

    def test_interleaved_target_extents_are_merged(self):
        nodes = [IndexNode(0, "a", 1, [1, 4, 9]),
                 IndexNode(1, "a", 1, [2, 3, 12]),
                 IndexNode(2, "a", 1, [])]
        result = QueryResult(answers={1, 2, 3, 4, 9, 12}, target_nodes=nodes)
        assert answer_run(result).tolist() == [1, 2, 3, 4, 9, 12]

    def test_overlapping_target_extents_take_the_fallback(self):
        """Two target extents sharing a member concatenate to one more
        than the answer holds; the length guard must send that to the
        canonicalising path, not emit a duplicate."""
        nodes = [IndexNode(0, "a", 1, [1, 5, 9]),
                 IndexNode(1, "a", 1, [5, 7])]
        result = QueryResult(answers={1, 5, 7, 9}, target_nodes=nodes)
        assert Extent.from_disjoint_runs(
            [node.extent for node in nodes], len(result.answers)) is None
        assert answer_run(result).tolist() == [1, 5, 7, 9]

    def test_targets_that_do_not_carry_the_answer_take_the_fallback(self):
        # APEX and the DataGuide report no target nodes at all.
        result = QueryResult(answers={3, 1, 2}, target_nodes=[])
        assert answer_run(result).tolist() == [1, 2, 3]
