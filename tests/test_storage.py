"""Tests for the disk-resident storage layer (repro.storage)."""

import os

import pytest

from repro.indexes.mstarindex import MStarIndex
from repro.queries.evaluator import evaluate_on_data_graph
from repro.queries.pathexpr import PathExpression
from repro.queries.workload import Workload
from repro.storage.diskindex import DiskMStarIndex
from repro.storage.pager import BufferPool, PageFile, PageRef
from repro.storage.segment import SegmentFormatError, decode_segment_page
from repro.storage.serialization import load_graph, save_graph


@pytest.fixture
def refined_mstar(small_xmark):
    workload = Workload.generate(small_xmark, num_queries=60, max_length=6,
                                 seed=61)
    index = MStarIndex(small_xmark)
    for expr in workload:
        index.refine(expr, index.query(expr))
    return index, workload


class TestGraphSerialization:
    def test_roundtrip_preserves_everything(self, fig1, tmp_path):
        path = str(tmp_path / "g.rpgr")
        save_graph(fig1, path)
        loaded = load_graph(path)
        assert loaded.labels == fig1.labels
        assert list(loaded.edges()) == list(fig1.edges())
        assert loaded.root == fig1.root
        assert loaded.num_reference_edges == fig1.num_reference_edges

    def test_edge_kinds_survive(self, fig1, tmp_path):
        from repro.graph.datagraph import EdgeKind
        path = str(tmp_path / "g.rpgr")
        save_graph(fig1, path)
        loaded = load_graph(path)
        assert loaded.edge_kind(16, 7) is EdgeKind.REFERENCE

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad.rpgr")
        with open(path, "wb") as out:
            out.write(b"NOPE" + b"\0" * 16)
        with pytest.raises(ValueError, match="not a repro graph"):
            load_graph(path)

    def test_truncated_file_rejected(self, fig1, tmp_path):
        path = str(tmp_path / "g.rpgr")
        save_graph(fig1, path)
        with open(path, "rb") as source:
            data = source.read()
        with open(path, "wb") as out:
            out.write(data[:len(data) // 2])
        with pytest.raises((ValueError, Exception)):
            load_graph(path)


def reload_in_memory(index, path, graph):
    """Build the index file, reopen it, and load it back into RAM."""
    DiskMStarIndex.build(index, path).close()
    with DiskMStarIndex(path, graph) as disk:
        return disk.to_memory()


class TestMStarSerialization:
    def test_roundtrip_preserves_answers(self, small_xmark, refined_mstar,
                                         tmp_path):
        index, workload = refined_mstar
        loaded = reload_in_memory(index, str(tmp_path / "i.seg"),
                                  small_xmark)
        loaded.check_invariants()
        for expr in list(workload)[:25]:
            assert loaded.query(expr).answers == index.query(expr).answers

    def test_roundtrip_preserves_sizes(self, small_xmark, refined_mstar,
                                       tmp_path):
        index, _ = refined_mstar
        loaded = reload_in_memory(index, str(tmp_path / "i.seg"),
                                  small_xmark)
        assert loaded.size_nodes() == index.size_nodes()
        assert loaded.size_edges() == index.size_edges()

    def test_wrong_graph_rejected(self, small_xmark, small_nasa,
                                  refined_mstar, tmp_path):
        index, _ = refined_mstar
        path = str(tmp_path / "i.seg")
        DiskMStarIndex.build(index, path).close()
        # A graph of another size is refused at open ...
        with pytest.raises(ValueError, match="does not match this data"):
            DiskMStarIndex(path, small_nasa)
        # ... one of the same size but other labels when loaded.
        from repro.graph.datagraph import DataGraph
        relabelled = DataGraph()
        for _ in range(small_xmark.num_nodes):
            relabelled.add_node("x")
        with DiskMStarIndex(path, relabelled) as disk:
            with pytest.raises(ValueError, match="does not match this data"):
                disk.to_memory()

    def test_bad_magic_rejected(self, small_xmark, tmp_path):
        path = str(tmp_path / "bad.seg")
        with open(path, "wb") as out:
            out.write(b"NOPE" + b"\0" * 16)
        with pytest.raises(ValueError, match="not a repro"):
            DiskMStarIndex(path, small_xmark)

    @pytest.mark.parametrize("name", ["v1_fig1.rpms", "v1_fig1.rpdi"])
    def test_v1_files_refused_with_rebuild_message(self, fig1, name):
        """Files of the two removed v1 layouts (written by the last build
        that had them) are refused at open, never misread."""
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "fixtures", "storage", name)
        with pytest.raises(SegmentFormatError,
                           match="v1 index file.*rebuild it with"):
            DiskMStarIndex(path, fig1)

    @pytest.mark.parametrize("name, kind", [
        ("retired_fig1_ak_extents.seg", "ak-extents"),
        ("retired_fig1_hierarchy.seg", "mstar-hierarchy"),
    ])
    def test_retired_kinds_refused_with_rebuild_message(self, fig1, name,
                                                        kind):
        """Segments of the two retired kinds (written by the last build
        that had them) open as segments but are refused as indexes."""
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "fixtures", "storage", name)
        with pytest.raises(ValueError,
                           match=f"'{kind}' segment.*rebuild the file "
                                 f"with 'repro ooc'"):
            DiskMStarIndex(path, fig1)


class TestPager:
    def test_page_file_reads_and_counts(self, small_xmark, refined_mstar,
                                        tmp_path):
        index, _ = refined_mstar
        path = str(tmp_path / "i.seg")
        disk = DiskMStarIndex.build(index, path, page_size=512)
        assert disk.page_count > 1
        file = disk.pool.file
        records = file.read_page(next(iter(file.pages)))
        assert records
        assert file.reads == 1
        disk.close()

    def test_buffer_pool_lru_and_hits(self, small_xmark, refined_mstar,
                                      tmp_path):
        index, _ = refined_mstar
        path = str(tmp_path / "i.seg")
        disk = DiskMStarIndex.build(index, path, page_size=512,
                                    buffer_pages=2)
        keys = list(disk.pool.file.pages)[:3]
        pool = disk.pool
        pool.page(keys[0])
        pool.page(keys[0])
        assert pool.hits == 1
        pool.page(keys[1])
        pool.page(keys[2])  # evicts keys[0]
        reads_before = pool.reads
        pool.page(keys[0])
        assert pool.reads == reads_before + 1
        disk.close()

    def test_concurrent_readers_account_exactly(self, small_xmark,
                                                refined_mstar, tmp_path):
        # Concurrent shard readers share one pool; under any
        # interleaving every request must be exactly one hit or one
        # miss, every miss exactly one physical read, and the pool must
        # respect its capacity.  The unlocked pool lost hit increments,
        # double-read pages, and raced the OrderedDict reorder.
        import threading

        index, _ = refined_mstar
        path = str(tmp_path / "i.seg")
        disk = DiskMStarIndex.build(index, path, page_size=256,
                                    buffer_pages=4)
        pool = disk.pool
        keys = list(disk.pool.file.pages)
        assert len(keys) >= 2
        pool.reset_stats()
        requests_per_thread = 400
        num_threads = 8
        barrier = threading.Barrier(num_threads)
        failures: list[BaseException] = []

        def reader(worker: int) -> None:
            barrier.wait()
            try:
                for i in range(requests_per_thread):
                    key = keys[(i * (worker + 1)) % len(keys)]
                    records = pool.page(key)
                    assert records
            except BaseException as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        threads = [threading.Thread(target=reader, args=(worker,))
                   for worker in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        total = num_threads * requests_per_thread
        assert pool.hits + pool.misses == total
        assert pool.reads == pool.misses
        assert pool.cached_pages() <= pool.capacity
        disk.close()

    def test_capacity_validation(self, tmp_path):
        path = str(tmp_path / "x")
        with open(path, "wb") as out:
            out.write(b"data")
        file = PageFile(path, {(0, 0): PageRef(0, 4)},
                        decoder=decode_segment_page)
        with pytest.raises(ValueError):
            BufferPool(file, 0)
        file.close()

    def test_corrupt_page_names_the_page(self, tmp_path):
        """Garbage bytes must raise a ValueError naming the page key, and
        must not count as a successful read."""
        path = str(tmp_path / "bad")
        with open(path, "wb") as out:
            out.write(b"\xff" * 64)
        file = PageFile(path, {(0, 0): PageRef(0, 64)},
                        decoder=decode_segment_page)
        with pytest.raises(ValueError, match=r"corrupt page \(0, 0\)"):
            file.read_page((0, 0))
        assert file.reads == 0
        file.close()

    def test_truncated_page_names_the_page(self, tmp_path):
        path = str(tmp_path / "short")
        with open(path, "wb") as out:
            out.write(b"\x00" * 8)
        file = PageFile(path, {(3, 1): PageRef(0, 64)},
                        decoder=decode_segment_page)
        with pytest.raises(ValueError, match=r"truncated page \(3, 1\)"):
            file.read_page((3, 1))
        assert file.reads == 0
        file.close()

    def test_reset_stats_keeps_cache_warm(self, small_xmark, refined_mstar,
                                          tmp_path):
        index, workload = refined_mstar
        path = str(tmp_path / "i.seg")
        disk = DiskMStarIndex.build(index, path, buffer_pages=1000)
        for expr in list(workload)[:10]:
            disk.query(expr)
        disk.reset_io_stats()
        for expr in list(workload)[:10]:
            disk.query(expr)
        reads, hits = disk.io_stats()
        assert reads == 0  # everything already cached
        assert hits > 0
        disk.close()


class TestDiskIndex:
    def test_answers_match_memory_index(self, small_xmark, refined_mstar,
                                        tmp_path):
        index, workload = refined_mstar
        path = str(tmp_path / "i.seg")
        with DiskMStarIndex.build(index, path) as disk:
            for expr in workload:
                assert disk.query(expr).answers == \
                    evaluate_on_data_graph(small_xmark, expr)

    def test_rooted_queries(self, fig1, tmp_path):
        index = MStarIndex(fig1)
        expr = PathExpression.parse("/site/people/person")
        index.refine(expr, index.query(expr))
        path = str(tmp_path / "fig1.seg")
        with DiskMStarIndex.build(index, path) as disk:
            result = disk.query(expr)
            assert result.answers == {7, 8, 9}
            assert not result.validated

    def test_validation_on_unrefined_queries(self, fig1, tmp_path):
        index = MStarIndex(fig1)
        path = str(tmp_path / "fig1.seg")
        with DiskMStarIndex.build(index, path) as disk:
            result = disk.query(PathExpression.parse("//site/people/person"))
            assert result.answers == {7, 8, 9}
            assert result.validated

    def test_small_buffer_costs_more_io(self, small_xmark, refined_mstar,
                                        tmp_path):
        index, workload = refined_mstar
        path = str(tmp_path / "i.seg")
        DiskMStarIndex.build(index, path, page_size=512).close()

        def total_reads(buffer_pages):
            with DiskMStarIndex(path, small_xmark,
                                buffer_pages=buffer_pages) as disk:
                for expr in workload:
                    disk.query(expr)
                return disk.io_stats()[0]

        assert total_reads(2) > total_reads(100_000)

    def test_short_queries_touch_few_pages(self, small_xmark, refined_mstar,
                                           tmp_path):
        """The selective-loading goal: a single-label query reads only
        the coarse component's pages."""
        index, _ = refined_mstar
        path = str(tmp_path / "i.seg")
        with DiskMStarIndex.build(index, path, page_size=512,
                                  buffer_pages=100_000) as disk:
            disk.query(PathExpression.parse("//item"))
            short_reads, _ = disk.io_stats()
            assert short_reads < disk.page_count / 2

    def test_records_larger_than_the_page_budget(self, small_xmark,
                                                 refined_mstar, tmp_path):
        """Records are never split: one that exceeds ``page_size`` takes
        an oversize page of its own and reads back whole."""
        index, workload = refined_mstar
        path = str(tmp_path / "i.seg")
        with DiskMStarIndex.build(index, path, page_size=64,
                                  buffer_pages=3) as disk:
            lengths = [ref.length for ref in disk.pool.file.pages.values()]
            assert max(lengths) > 64 > min(lengths)
            for expr in list(workload)[:20]:
                paged, memory = disk.query(expr), index.query(expr)
                assert paged.answers == memory.answers
                assert paged.cost.index_visits == memory.cost.index_visits

    def test_build_validation(self, fig1, tmp_path):
        index = MStarIndex(fig1)
        with pytest.raises(ValueError):
            DiskMStarIndex.build(index, str(tmp_path / "x"), page_size=8)

    def test_bad_magic_rejected(self, fig1, tmp_path):
        path = str(tmp_path / "bad.seg")
        with open(path, "wb") as out:
            out.write(b"NOPE" + b"\0" * 16)
        with pytest.raises(SegmentFormatError,
                           match="not a repro segment"):
            DiskMStarIndex(path, fig1)

    def test_file_size_reasonable(self, small_xmark, refined_mstar, tmp_path):
        index, _ = refined_mstar
        path = str(tmp_path / "i.seg")
        DiskMStarIndex.build(index, path).close()
        assert os.path.getsize(path) > 0
