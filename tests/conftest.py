"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from repro.datasets import generate_nasa, generate_xmark
from repro.graph.builder import GraphBuilder
from repro.graph.datagraph import DataGraph
from repro.graph.examples import (
    figure1_auction_site,
    figure2_same_paths_not_bisimilar,
    figure3_refinement_comparison,
    figure4_overqualified_parents,
    figure7_mstar_example,
)


@pytest.fixture
def fig1():
    return figure1_auction_site()


@pytest.fixture
def fig2():
    return figure2_same_paths_not_bisimilar()


@pytest.fixture
def fig3():
    return figure3_refinement_comparison()


@pytest.fixture
def fig4():
    return figure4_overqualified_parents()


@pytest.fixture
def fig7():
    return figure7_mstar_example()


@pytest.fixture(scope="session")
def small_xmark():
    """A tiny XMark-like document shared by integration tests."""
    return generate_xmark(scale=0.01, seed=7)


@pytest.fixture(scope="session")
def small_nasa():
    """A tiny NASA-like document shared by integration tests."""
    return generate_nasa(scale=0.01, seed=11)


@pytest.fixture
def simple_tree() -> DataGraph:
    """r -> (a, a, b); each a -> c; b -> c."""
    builder = GraphBuilder()
    builder.node("r")              # 0
    builder.node("a", parent=0)    # 1
    builder.node("a", parent=0)    # 2
    builder.node("b", parent=0)    # 3
    builder.node("c", parent=1)    # 4
    builder.node("c", parent=2)    # 5
    builder.node("c", parent=3)    # 6
    return builder.build()


def random_graph(seed: int, num_nodes: int = 30, num_labels: int = 4,
                 extra_edges: int = 8) -> DataGraph:
    """A random rooted DAG-ish labeled graph (extra edges may form DAG
    cross links and reference-style back edges)."""
    rng = random.Random(seed)
    graph = DataGraph()
    graph.add_node("r")
    labels = [chr(ord("a") + i) for i in range(num_labels)]
    for oid in range(1, num_nodes):
        graph.add_node(rng.choice(labels))
        parent = rng.randrange(oid)
        graph.add_edge(parent, oid)
    for _ in range(extra_edges):
        parent = rng.randrange(num_nodes)
        child = rng.randrange(1, num_nodes)
        if child not in graph.children(parent) and parent != child:
            graph.add_edge(parent, child)
    return graph


#: The largest oid an ``Extent`` holds (its members are C ints).
MAX_OID = 2**31 - 1


def ascending_runs(max_size: int = 100_000) -> st.SearchStrategy:
    """Strictly ascending oid runs in ``[0, MAX_OID]``: short arbitrary
    ones, and evenly spaced ones of up to ``max_size`` members."""
    arbitrary = st.lists(st.integers(0, MAX_OID), max_size=64,
                         unique=True).map(sorted)
    spaced = st.builds(
        lambda start, step, size: list(
            range(start, min(start + step * size, MAX_OID + 1), step)),
        st.integers(0, MAX_OID), st.integers(1, 1_000),
        st.integers(0, max_size))
    return st.one_of(arbitrary, spaced)
