"""Property-based tests for the storage layer (hypothesis)."""

import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.indexes.mstarindex import MStarIndex
from repro.indexes.partition import kbisimulation_levels
from repro.queries.evaluator import evaluate_on_data_graph
from repro.queries.workload import Workload
from repro.storage.diskindex import DiskMStarIndex
from repro.storage.serialization import load_graph, save_graph
from repro.storage.spill import build_hierarchy_segment, inram_hierarchy_digest
from tests.test_properties import graphs

SETTINGS = settings(max_examples=15, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestGraphRoundTrip:
    @SETTINGS
    @given(graphs())
    def test_save_load_identity(self, graph):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.rpgr")
            save_graph(graph, path)
            loaded = load_graph(path)
        assert loaded.labels == graph.labels
        assert sorted(loaded.edges()) == sorted(graph.edges())
        assert loaded.root == graph.root
        assert loaded.num_reference_edges == graph.num_reference_edges


class TestMStarRoundTrip:
    @SETTINGS
    @given(graphs(), st.integers(0, 99))
    def test_refined_index_round_trips(self, graph, seed):
        queries = list(Workload.generate(graph, num_queries=5, max_length=4,
                                         seed=seed))
        index = MStarIndex(graph)
        for expr in queries:
            index.refine(expr, index.query(expr))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "i.seg")
            with DiskMStarIndex.build(index, path) as disk:
                loaded = disk.to_memory()
        loaded.check_invariants()
        assert loaded.size_nodes() == index.size_nodes()
        assert loaded.size_edges() == index.size_edges()
        for expr in queries:
            assert loaded.query(expr).answers == index.query(expr).answers


class TestDiskIndexProperties:
    @SETTINGS
    @given(graphs(), st.integers(0, 99), st.sampled_from([128, 512, 4096]))
    def test_disk_answers_equal_ground_truth(self, graph, seed, page_size):
        queries = list(Workload.generate(graph, num_queries=5, max_length=4,
                                         seed=seed))
        index = MStarIndex(graph)
        for expr in queries:
            index.refine(expr, index.query(expr))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "i.seg")
            with DiskMStarIndex.build(index, path, page_size=page_size,
                                      buffer_pages=3) as disk:
                for expr in queries:
                    assert disk.query(expr).answers == \
                        evaluate_on_data_graph(graph, expr)

    @SETTINGS
    @given(graphs(), st.integers(0, 99),
           st.sampled_from([64, 128, 512, 4096]))
    def test_disk_equals_memory_index(self, graph, seed, page_size):
        """Paged and in-RAM evaluation are the same algorithm: equal
        answers, ``validated`` flag, visit counts and target nodes at
        every page size — from 64 bytes, where a record often exceeds
        the budget and takes an oversize page of its own, to 4096, where
        the whole index is one page — and loading the file back gives
        an index of the original size."""
        queries = list(Workload.generate(graph, num_queries=6, max_length=4,
                                         seed=seed))
        index = MStarIndex(graph)
        for expr in queries:
            index.refine(expr, index.query(expr))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "i.seg")
            with DiskMStarIndex.build(index, path, page_size=page_size,
                                      buffer_pages=2) as disk:
                for expr in queries:
                    paged, memory = disk.query(expr), index.query(expr)
                    assert paged.answers == memory.answers, expr
                    assert paged.validated == memory.validated, expr
                    assert paged.cost.index_visits == \
                        memory.cost.index_visits, expr
                    assert paged.cost.data_visits == \
                        memory.cost.data_visits, expr
                    assert [(t.label, t.k, set(t.extent))
                            for t in paged.target_nodes] == \
                        [(t.label, t.k, set(t.extent))
                         for t in memory.target_nodes], expr
                loaded = disk.to_memory()
        assert loaded.size_nodes() == index.size_nodes()
        assert loaded.size_edges() == index.size_edges()


class TestSpillBuiltIndexProperties:
    @SETTINGS
    @given(graphs(), st.integers(0, 3), st.integers(0, 99),
           st.sampled_from([64, 128, 512, 4096]))
    def test_spill_built_file_is_the_bisimulation_hierarchy(
            self, graph, k, seed, page_size):
        """The second producer of the index file: component ``i`` of the
        file it writes is the partition ``kbisimulation_levels[i]`` (the
        digest says so before the file is opened, the loaded components
        after), every invariant of an M*(k)-index holds on it, and the
        one reader answers from it like forward navigation."""
        queries = list(Workload.generate(graph, num_queries=6, max_length=4,
                                         seed=seed))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "i.seg")
            report = build_hierarchy_segment(graph, k, path,
                                             budget_bytes=4096,
                                             page_size=page_size, tmpdir=tmp)
            assert report.digest == inram_hierarchy_digest(graph, k)
            with DiskMStarIndex(path, graph, buffer_pages=2) as disk:
                for expr in queries:
                    assert disk.query(expr).answers == \
                        evaluate_on_data_graph(graph, expr), expr
                loaded = disk.to_memory()
        loaded.check_invariants()
        for component, blocks in zip(loaded.components,
                                     kbisimulation_levels(graph, k),
                                     strict=True):
            by_block: dict[int, set[int]] = {}
            for oid, block in enumerate(blocks):
                by_block.setdefault(block, set()).add(oid)
            assert sorted(map(sorted, component.extents())) == \
                sorted(map(sorted, by_block.values()))
