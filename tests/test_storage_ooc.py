"""Out-of-core storage tests: spill builds, pinning, serving.

Three contracts from the PR 9 data plane:

* **spill construction is exact** — `SpillSorter` under a byte budget
  merges to the same sorted stream an in-RAM sort produces, and
  `build_hierarchy_segment` lands digest-identical to the in-RAM
  k-bisimulation levels while tracking a working set bounded by the
  budget;
* **stored queries are the in-RAM queries** — `DiskMStarIndex` over the
  spill-built file answers byte-identically to `AkIndex` with index
  nodes paged in on demand;
* **pins beat eviction** — a pinned page survives any cache pressure
  (including a concurrent pin/evict hammer) and scan admission protects
  the hot set.
"""

import random
import struct
import threading

import pytest

from repro.indexes.aindex import AkIndex
from repro.queries.workload import Workload
from repro.storage.diskindex import DiskMStarIndex
from repro.storage.pager import BufferPool
from repro.storage.segment import Segment, SegmentWriter
from repro.storage.spill import (
    SpillSorter,
    build_hierarchy_segment,
    inram_hierarchy_digest,
)


def make_segment(path, num_keys=64, page_size=128):
    with SegmentWriter(path, page_size=page_size,
                       meta={"kind": "ooc-test"}) as writer:
        for key in range(num_keys):
            writer.add(key, struct.pack("<I", key) * 4)
    return Segment(path, buffer_pages=4, use_mmap=False)


class TestSpillSorter:
    def test_merge_equals_inram_sort(self):
        rng = random.Random(5)
        pairs = [(rng.randrange(500), rng.randrange(10_000))
                 for _ in range(5_000)]
        with SpillSorter(budget_bytes=4096) as sorter:
            for key, value in pairs:
                sorter.add(key, value)
            assert sorter.spills > 0  # the budget actually forced runs
            assert list(sorter.merge()) == sorted(pairs)

    def test_no_spill_when_under_budget(self):
        with SpillSorter(budget_bytes=1 << 20) as sorter:
            for key in range(100):
                sorter.add(key, key)
            assert sorter.spills == 0
            assert list(sorter.merge()) == [(key, key) for key in range(100)]

    def test_peak_stays_near_budget(self):
        budget = 4096
        with SpillSorter(budget_bytes=budget) as sorter:
            for key in range(20_000):
                sorter.add(key % 97, key)
            list(sorter.merge())
            assert sorter.peak_bytes <= 1.5 * budget

    def test_budget_below_minimum_rejected(self):
        with pytest.raises(ValueError, match=">= 4096"):
            SpillSorter(budget_bytes=512)


class TestSpillBuilders:
    def test_ak_build_digest_equals_inram(self, small_xmark, tmp_path):
        # A(k) is the file's last component: same extents, same node
        # ids as the in-RAM AkIndex, built inside the budget.
        path = str(tmp_path / "mstar.seg")
        report = build_hierarchy_segment(small_xmark, 3, path,
                                         budget_bytes=4096, page_size=512)
        assert report.spills > 0
        assert report.peak_ratio <= 1.5
        ram_nodes = AkIndex(small_xmark, 3).index.nodes
        with DiskMStarIndex(path, small_xmark) as disk:
            finest = disk.to_memory().components[3].nodes
        assert {nid: list(node.extent) for nid, node in finest.items()} == \
            {nid: list(node.extent) for nid, node in ram_nodes.items()}

    def test_hierarchy_build_digest_equals_inram(self, small_xmark,
                                                 tmp_path):
        path = str(tmp_path / "mstar.seg")
        report = build_hierarchy_segment(small_xmark, 3, path,
                                         budget_bytes=8192, page_size=512)
        assert report.spills > 0
        assert report.digest == inram_hierarchy_digest(small_xmark, 3)
        with DiskMStarIndex(path, small_xmark) as disk:
            memory = disk.to_memory()
        memory.check_invariants()
        assert report.records == sum(len(component.nodes)
                                     for component in memory.components)

    def test_refused_budget_leaves_an_existing_file_byte_identical(
            self, small_xmark, tmp_path):
        path = tmp_path / "keep.seg"
        build_hierarchy_segment(small_xmark, 2, str(path), budget_bytes=4096,
                                page_size=512)
        before = path.read_bytes()
        with pytest.raises(ValueError, match=">= 4096"):
            build_hierarchy_segment(small_xmark, 2, str(path),
                                    budget_bytes=512, page_size=512)
        assert path.read_bytes() == before

    def test_segment_queries_match_inram_index(self, small_xmark, tmp_path):
        path = str(tmp_path / "mstar.seg")
        build_hierarchy_segment(small_xmark, 3, path, budget_bytes=4096,
                                page_size=512)
        ram_index = AkIndex(small_xmark, 3)
        workload = Workload.generate(small_xmark, num_queries=40,
                                     max_length=6, seed=3)
        with DiskMStarIndex(path, small_xmark) as disk_index:
            for expr in workload.queries:
                assert disk_index.query(expr).answers == \
                    ram_index.query(expr).answers
            reads, hits = disk_index.io_stats()
            assert reads > 0  # index nodes really came from disk

    def test_validation_path_on_low_resolution(self, small_xmark, tmp_path):
        # k=1 cannot cover long queries; answers must still match
        # because imprecise extents validate against the data graph.
        path = str(tmp_path / "mstar1.seg")
        build_hierarchy_segment(small_xmark, 1, path, budget_bytes=4096,
                                page_size=512)
        ram_index = AkIndex(small_xmark, 1)
        workload = Workload.generate(small_xmark, num_queries=30,
                                     max_length=6, seed=9)
        validated = 0
        with DiskMStarIndex(path, small_xmark) as disk_index:
            for expr in workload.queries:
                result = disk_index.query(expr)
                assert result.answers == ram_index.query(expr).answers
                validated += bool(result.validated)
        assert validated > 0  # the imprecise path actually ran


class TestPinning:
    def test_pinned_page_survives_pressure(self, tmp_path):
        with make_segment(str(tmp_path / "s.seg")) as segment:
            pool = BufferPool(segment._file, 1)
            with pool.pinned((0, 0)):
                for number in range(1, segment.num_pages):
                    pool.page((0, number))
                    assert pool.resident((0, 0))
            assert pool.pin_count((0, 0)) == 0

    def test_all_pinned_overshoots_instead_of_evicting(self, tmp_path):
        with make_segment(str(tmp_path / "s.seg")) as segment:
            pool = BufferPool(segment._file, 1)
            pool.pin((0, 0))
            pool.pin((0, 1))
            assert pool.cached_pages() == 2  # over capacity, both pinned
            assert pool.pin_overflows > 0
            pool.unpin((0, 0))
            pool.unpin((0, 1))
            assert pool.cached_pages() <= 1  # trimmed on release

    def test_unpin_without_pin_raises(self, tmp_path):
        with make_segment(str(tmp_path / "s.seg")) as segment:
            pool = BufferPool(segment._file, 2)
            with pytest.raises(ValueError, match="not pinned"):
                pool.unpin((0, 0))

    def test_nested_pins_need_matching_unpins(self, tmp_path):
        with make_segment(str(tmp_path / "s.seg")) as segment:
            pool = BufferPool(segment._file, 1)
            pool.pin((0, 0))
            pool.pin((0, 0))
            pool.unpin((0, 0))
            assert pool.pin_count((0, 0)) == 1
            for number in range(1, segment.num_pages):
                pool.page((0, number))
            assert pool.resident((0, 0))
            pool.unpin((0, 0))

    def test_concurrent_pin_evict_hammer(self, tmp_path):
        with make_segment(str(tmp_path / "s.seg"),
                          num_keys=256) as segment:
            pool = BufferPool(segment._file, 2)
            pages = segment.num_pages
            failures = []

            def hammer(worker: int) -> None:
                rng = random.Random(worker)
                try:
                    for _ in range(300):
                        key = (0, rng.randrange(pages))
                        if rng.random() < 0.5:
                            with pool.pinned(key):
                                # While pinned, the page must never be
                                # evicted out from under us.
                                assert pool.resident(key)
                                pool.page((0, rng.randrange(pages)))
                                assert pool.resident(key)
                        else:
                            pool.page(key)
                except BaseException as exc:  # propagated to the test
                    failures.append(exc)

            threads = [threading.Thread(target=hammer, args=(worker,))
                       for worker in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert failures == []
            assert pool.pinned_pages() == 0
            pool.page((0, 0))  # one more admission triggers a trim
            assert pool.cached_pages() <= pool.capacity
            assert pool.hits + pool.misses >= 8 * 300


class TestScanAdmission:
    def test_scan_does_not_wipe_hot_set(self, tmp_path):
        with make_segment(str(tmp_path / "s.seg"),
                          num_keys=512) as segment:
            pool = BufferPool(segment._file, 4, admission="scan")
            hot = (0, 0)
            pool.page(hot)
            pool.page(hot)  # second touch promotes out of probation
            for number in range(1, segment.num_pages):
                pool.page((0, number))  # one-pass scan
            assert pool.resident(hot)

    def test_lru_admission_does_wipe_hot_set(self, tmp_path):
        # Negative control: plain LRU loses the hot page to the scan.
        with make_segment(str(tmp_path / "s.seg"),
                          num_keys=512) as segment:
            pool = BufferPool(segment._file, 4, admission="lru")
            hot = (0, 0)
            pool.page(hot)
            pool.page(hot)
            for number in range(1, segment.num_pages):
                pool.page((0, number))
            assert not pool.resident(hot)

    def test_ghost_readmission_is_protected(self, tmp_path):
        with make_segment(str(tmp_path / "s.seg"),
                          num_keys=256) as segment:
            pool = BufferPool(segment._file, 2, admission="scan")
            pool.page((0, 1))
            pool.page((0, 2))  # pool now at capacity
            target = (0, 3)
            pool.page(target)  # probationary at capacity: self-evicted,
            assert not pool.resident(target)  # remembered as a ghost
            pool.page(target)  # re-touch within the ghost window:
            assert pool.resident(target)  # admitted protected this time
            pool.page((0, 4))  # a fresh scan page evicts probation,
            assert pool.resident(target)  # never the promoted page

    def test_unknown_admission_rejected(self, tmp_path):
        with make_segment(str(tmp_path / "s.seg")) as segment:
            with pytest.raises(ValueError, match="admission"):
                BufferPool(segment._file, 2, admission="mystery")
