"""Characterization pin for the REFINE kernels of D(k), M(k) and M*(k).

Recorded at the commit *before* the three refinement procedures were
merged into :mod:`repro.indexes.refine`, and required to pass unedited
after it: every ``refine`` call on every case below must leave the same
partition, the same ``k`` values, the same node ids and the same
refinement cost as the golden file says.

Regenerate (only when a behaviour change is intended and reviewed)::

    PYTHONPATH=src python tests/test_refine_equivalence.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from repro.cost.counters import CostCounter
from repro.datasets import generate_nasa, generate_xmark
from repro.graph.builder import graph_from_edges
from repro.graph.examples import (
    figure3_refinement_comparison,
    figure4_overqualified_parents,
    figure7_mstar_example,
)
from repro.indexes.dindex import DkIndex
from repro.indexes.mindex import MkIndex
from repro.indexes.mstarindex import MStarIndex
from repro.queries.pathexpr import PathExpression
from repro.queries.workload import Workload
from repro.verify.fuzz import profile_named, random_data_graph

GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures",
                      "refine_equivalence.json")
#: The golden as recorded before phase 0 became one walk per round (the
#: only regeneration so far); see test_regeneration_only_lowers_walk_cost.
GOLDEN_PR15 = os.path.join(os.path.dirname(__file__), "fixtures",
                           "refine_equivalence_pr15.json")


def _parse(*texts: str) -> list[PathExpression]:
    return [PathExpression.parse(text) for text in texts]


def _cycle_graph():
    return graph_from_edges(["r", "a", "b", "a", "b"],
                            [(0, 1), (1, 2), (2, 3), (3, 4)],
                            references=[(4, 1)])


def _fuzz_cyclic():
    return random_data_graph(profile_named("cyclic"), 33)


def _workload(graph, num_queries: int, max_length: int, seed: int):
    return list(Workload.generate(graph, num_queries=num_queries,
                                  max_length=max_length, seed=seed))


def _label_claims(graph, claims: tuple[int, ...]) -> dict[str, int]:
    """Cycle ``claims`` over the sorted alphabet: label -> claimed ``k``."""
    return {label: claims[rank % len(claims)]
            for rank, label in enumerate(sorted(graph.alphabet()))}


def _label_blocks(graph, claims: tuple[int, ...]):
    """One block per label, each *claiming* its label's similarity."""
    claimed = _label_claims(graph, claims)
    blocks: dict[str, set[int]] = {}
    for oid in graph.nodes():
        blocks.setdefault(graph.labels[oid], set()).add(oid)
    return [(extent, claimed[label])
            for label, extent in sorted(blocks.items())]


#: name -> (graph factory, start, FUP list factory).  ``start`` is None
#: (the A(0) start every family has), ``("partition", factory)`` (an
#: explicit sound ``(extent, k)`` start: Figure 4's overqualified
#: parents; M*(k) has no such constructor and starts at I0), or
#: ``("overclaim", claims)``: label blocks whose similarity claims are
#: unsound on purpose, the only way to reach phase 2 (the overstated-
#: target break), which sound histories no longer produce.
SCENARIOS = {
    "fig3": (figure3_refinement_comparison, None,
             lambda graph: _parse("//r/a/b", "//a/b", "/r/a/b/c", "//b")),
    "fig3_overclaimed": (figure3_refinement_comparison, ("overclaim", (3,)),
                         lambda graph: _parse("//r/a/b", "//a/b/c", "/r/a",
                                              "//r/a/b/c")),
    "fig4": (lambda: figure4_overqualified_parents()[0],
             ("partition", lambda: figure4_overqualified_parents()[1]),
             lambda graph: _parse("//b/c", "//a/b/c", "/r/a")),
    "fig7": (figure7_mstar_example, None,
             lambda graph: _parse("//b/a/c", "//a/c", "/r/a/c", "//r/b/a")),
    "cycle": (_cycle_graph, None,
              lambda graph: _parse("//a/b/a/b", "//b/a", "/r/a/b/a/b/a")),
    "fuzz_cyclic": (_fuzz_cyclic, None,
                    lambda graph: _parse("//a/c/b/c", "/b/a", "//a", "//d",
                                         "//b", "//a/b/b", "//c",
                                         "//a/b/b/d/a", "/b")
                    + _workload(graph, 25, 6, 5)),
    "fuzz_cyclic_overclaimed": (_fuzz_cyclic, ("overclaim", (2, 0, 3, 1)),
                                lambda graph: _workload(graph, 25, 6, 5)),
    "xmark": (lambda: generate_xmark(scale=0.01, seed=7), None,
              lambda graph: _workload(graph, 40, 7, 31)),
    "nasa": (lambda: generate_nasa(scale=0.01, seed=11), None,
             lambda graph: _workload(graph, 40, 7, 32)),
}


def _start_partition(graph, start):
    if start is None:
        return None
    kind, value = start
    return value() if kind == "partition" else _label_blocks(graph, value)


def _make_dk(graph, start):
    partition = _start_partition(graph, start)
    if partition is None:
        return DkIndex(graph)
    return DkIndex.from_partition(graph, partition)


def _make_mk(merge_remainder):
    def make(graph, start):
        partition = _start_partition(graph, start)
        if partition is None:
            return MkIndex(graph, merge_remainder=merge_remainder)
        index = MkIndex.from_partition(graph, partition)
        index.merge_remainder = merge_remainder
        return index
    return make


def _make_mstar(graph, start):
    index = MStarIndex(graph)
    if start is not None and start[0] == "overclaim":
        # Every component ``Ii`` claims ``min(i, label's claim)`` on
        # plain label blocks: Properties 2-5 hold, Property 1 does not.
        claimed = _label_claims(graph, start[1])
        index.extend_components(max(start[1]))
        for cap, component in enumerate(index.components):
            for node in component.nodes.values():
                node.k = min(cap, claimed[node.label])
    return index


FAMILIES = {
    "dk": _make_dk,
    "mk": _make_mk(True),
    "mk_nomerge": _make_mk(False),
    "mstar": _make_mstar,
}


def _components(index):
    if isinstance(index, MStarIndex):
        return index.components
    return [index.index]


def _digest(rows) -> str:
    text = "\n".join(",".join(str(field) for field in row)
                     for row in sorted(rows))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _snapshot(index, counter: CostCounter) -> dict:
    partition = []
    ids = []
    for position, component in enumerate(_components(index)):
        for node in component.nodes.values():
            partition.append((position, node.extent[0], len(node.extent),
                              node.k))
            ids.append((position, node.nid, node.extent[0]))
    return {
        "size_nodes": index.size_nodes(),
        "size_edges": index.size_edges(),
        "index_visits": counter.index_visits,
        "data_visits": counter.data_visits,
        "partition_sha256": _digest(partition),
        # Not asked for by name, but "same node-id allocation order" is
        # part of the contract and costs one more hash.
        "node_ids_sha256": _digest(ids),
    }


def record(scenario: str, family: str) -> list[dict]:
    """Refine one index through one scenario; one row per refine call.

    Even-numbered calls hand ``refine`` the query's own result (the
    engine's route); odd-numbered ones pass ``None`` so the target set
    is recomputed from the data graph (the other branch of every
    driver).
    """
    make_graph, start, make_fups = SCENARIOS[scenario]
    graph = make_graph()
    index = FAMILIES[family](graph, start)
    rows = []
    for position, expr in enumerate(make_fups(graph)):
        result = index.query(expr) if position % 2 == 0 else None
        counter = CostCounter()
        index.refine(expr, result, counter)
        row = {"fup": str(expr)}
        row.update(_snapshot(index, counter))
        rows.append(row)
    return rows


CASES = [(scenario, family) for scenario in SCENARIOS for family in FAMILIES]


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(f"{scenario}/{family}"
                                    for scenario, family in CASES)


@pytest.mark.parametrize("scenario,family", CASES)
def test_refine_matches_golden(golden, scenario, family):
    expected = golden[f"{scenario}/{family}"]
    actual = record(scenario, family)
    assert len(actual) == len(expected)
    for step, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, (f"{scenario}/{family}: refine call {step} "
                             f"({want['fup']}) diverged")


def test_regeneration_only_lowers_walk_cost(golden):
    """What the one regeneration was allowed to change.

    Phase 0 now walks the FUP once per round instead of once per target
    node, so a refine call may charge fewer index visits, and the order
    in which M(k) meets its targets may move node ids.  Partitions,
    similarities, sizes and the data-visit charge may not move, and D(k)
    (which has no phase 0) may not move at all.
    """
    with open(GOLDEN_PR15, encoding="utf-8") as handle:
        before = json.load(handle)
    assert sorted(before) == sorted(golden)
    for name, rows in golden.items():
        family = name.split("/")[1]
        assert len(rows) == len(before[name])
        for step, (new, old) in enumerate(zip(rows, before[name])):
            where = f"{name}: refine call {step} ({old['fup']})"
            for field in ("fup", "partition_sha256", "size_nodes",
                          "size_edges", "data_visits"):
                assert new[field] == old[field], f"{where}: {field} moved"
            assert new["index_visits"] <= old["index_visits"], where
            if family == "dk":
                assert new == old, f"{where}: a dk row changed"
            if family != "mk":
                assert new["node_ids_sha256"] == old["node_ids_sha256"], \
                    f"{where}: node ids moved outside M(k)"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_refine_equivalence.py --write")
    recorded = {f"{scenario}/{family}": record(scenario, family)
                for scenario, family in CASES}
    # One refine call per line keeps the file diffable and half the size
    # of an indented dump.
    cases = ",\n".join(
        json.dumps(name) + ": [\n  "
        + ",\n  ".join(json.dumps(row, sort_keys=True) for row in rows)
        + "\n ]" for name, rows in sorted(recorded.items()))
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write("{\n" + cases + "\n}\n")
    print(f"wrote {GOLDEN}: {len(recorded)} cases, "
          f"{sum(len(rows) for rows in recorded.values())} refine calls")
