"""Property tests differencing on-disk segment lookup against a dict.

The reference semantics of :class:`~repro.storage.segment.Segment` are
one line: it is a read-only ``dict[int, bytes]``.  Hypothesis generates
random key sets, value payloads, and page sizes; every property builds
the segment and differences it against the plain dict — point lookups
(present keys, absent keys, and the boundary keys around every page
break), the sorted multi-get, and the full iterator.

Read amplification is asserted, not assumed, via the buffer-pool
counters: a cold point lookup performs **at most one** physical page
read (the page directory bisect happens in RAM — stronger than the
O(log n) pages a disk-resident B-tree descent would need), and a cold
sorted multi-get reads each touched page exactly once.

The index file has two producers, so :meth:`DiskMStarIndex.to_memory`
checks the cross-component links it reads instead of trusting them:
``TestLoadChecksLinks`` doctors a built file record by record (valid
pages, valid CRCs, wrong content) and demands a ``ValueError`` at load.
"""

import os
import struct
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexes.mstarindex import MStarIndex
from repro.queries.pathexpr import PathExpression
from repro.storage.diskindex import (
    DiskMStarIndex,
    decode_index_node,
    encode_index_node,
)
from repro.storage.segment import Segment, SegmentWriter


@st.composite
def segment_cases(draw):
    keys = sorted(draw(st.sets(st.integers(min_value=0,
                                           max_value=2**32 - 2),
                               min_size=1, max_size=80)))
    values = [
        struct.pack("<I", key & 0xFFFFFFFF) * draw(
            st.integers(min_value=0, max_value=6))
        for key in keys
    ]
    page_size = draw(st.sampled_from([64, 96, 128, 512, 4096]))
    return dict(zip(keys, values)), page_size


def build_segment(path, reference, page_size):
    with SegmentWriter(path, page_size=page_size,
                       meta={"kind": "property-test"}) as writer:
        for key in sorted(reference):
            writer.add(key, reference[key])


def boundary_probes(segment):
    """Keys around every page break (first/last per page, +-1)."""
    probes = set()
    for number in range(segment.num_pages):
        first, last = segment.keys_in_page(number)
        for key in (first, last):
            probes.add(key)
            if key > 0:
                probes.add(key - 1)
            probes.add(key + 1)
    return probes


class TestSegmentDifferential:
    @given(segment_cases())
    @settings(max_examples=50, deadline=None)
    def test_point_lookup_matches_dict(self, case):
        reference, page_size = case
        with tempfile.TemporaryDirectory(prefix="repro-prop-") as tmp:
            path = os.path.join(tmp, "case.seg")
            build_segment(path, reference, page_size)
            with Segment(path, buffer_pages=4, use_mmap=False) as segment:
                assert segment.num_records == len(reference)
                for key in reference:
                    assert segment.get(key) == reference[key]
                for key in boundary_probes(segment):
                    assert segment.get(key) == reference.get(key)

    @given(segment_cases())
    @settings(max_examples=50, deadline=None)
    def test_get_many_matches_dict(self, case):
        reference, page_size = case
        with tempfile.TemporaryDirectory(prefix="repro-prop-") as tmp:
            path = os.path.join(tmp, "case.seg")
            build_segment(path, reference, page_size)
            with Segment(path, buffer_pages=4, use_mmap=False) as segment:
                absent = [key + 1 for key in reference
                          if key + 1 not in reference]
                asked = sorted(set(reference) | set(absent))
                got = dict(segment.get_many(asked))
                assert got == reference

    @given(segment_cases())
    @settings(max_examples=30, deadline=None)
    def test_iter_all_matches_sorted_items(self, case):
        reference, page_size = case
        with tempfile.TemporaryDirectory(prefix="repro-prop-") as tmp:
            path = os.path.join(tmp, "case.seg")
            build_segment(path, reference, page_size)
            with Segment(path, buffer_pages=2, use_mmap=False) as segment:
                assert list(segment.iter_all()) == sorted(reference.items())


class TestReadAmplification:
    @given(segment_cases())
    @settings(max_examples=30, deadline=None)
    def test_cold_point_lookup_reads_at_most_one_page(self, case):
        reference, page_size = case
        with tempfile.TemporaryDirectory(prefix="repro-prop-") as tmp:
            path = os.path.join(tmp, "case.seg")
            build_segment(path, reference, page_size)
            for key in list(reference)[:10]:
                # Fresh segment per probe: a genuinely cold pool.
                with Segment(path, buffer_pages=4,
                             use_mmap=False) as segment:
                    assert segment.get(key) == reference[key]
                    assert segment.pool.reads <= 1
                    assert segment.pool.misses <= 1

    @given(segment_cases())
    @settings(max_examples=30, deadline=None)
    def test_cold_multi_get_reads_each_touched_page_once(self, case):
        reference, page_size = case
        with tempfile.TemporaryDirectory(prefix="repro-prop-") as tmp:
            path = os.path.join(tmp, "case.seg")
            build_segment(path, reference, page_size)
            with Segment(path, buffer_pages=1, use_mmap=False) as segment:
                asked = sorted(reference)
                touched = {segment.page_of(key) for key in asked}
                touched.discard(None)
                list(segment.get_many(asked))
                # Ascending keys visit pages in order, so even a
                # one-page pool reads each touched page exactly once.
                assert segment.pool.reads == len(touched)

    @given(segment_cases())
    @settings(max_examples=20, deadline=None)
    def test_warm_lookups_are_pool_hits(self, case):
        reference, page_size = case
        with tempfile.TemporaryDirectory(prefix="repro-prop-") as tmp:
            path = os.path.join(tmp, "case.seg")
            build_segment(path, reference, page_size)
            pages = max(1, len(reference))
            with Segment(path, buffer_pages=pages,
                         use_mmap=False) as segment:
                for key in reference:
                    segment.get(key)
                reads_cold = segment.pool.reads
                for key in reference:
                    assert segment.get(key) == reference[key]
                assert segment.pool.reads == reads_cold
                assert segment.pool.hits >= len(reference)


def rewrite_index_file(source, target, edit):
    """Copy an ``mstar-nodes`` file record by record through
    ``edit(component, record)``, which may change the decoded record."""
    with Segment(source, decode_value=decode_index_node) as segment:
        stride = segment.meta["stride"]
        with SegmentWriter(target, page_size=128,
                           meta=segment.meta) as writer:
            for key, record in segment.iter_all():
                record = dict(record)
                edit(key // stride, record)
                writer.add(key, encode_index_node(
                    record["label_id"], record["k"], record["extent"],
                    record["children"], record["subnodes"]))


def drop_links_of_component_0(component, record):
    if component == 0:
        record["subnodes"] = ()


def link_below_the_last_component(component, record):
    if component == 3:
        record["subnodes"] = (0,)


def link_every_node_to_subnode_0(component, record):
    if component == 0:
        record["subnodes"] = (0,)


def overstate_k(component, record):
    if component == 1:
        record["k"] = 2


class TestLoadChecksLinks:
    @pytest.fixture
    def built(self, fig1, tmp_path):
        index = MStarIndex(fig1)
        for text in ("//site/people/person",
                     "//auctions/auction/seller/person"):
            expr = PathExpression.parse(text)
            index.refine(expr, index.query(expr))
        assert len(index.components) == 4
        path = str(tmp_path / "built.seg")
        DiskMStarIndex.build(index, path, page_size=128).close()
        return path

    def test_faithful_copy_loads(self, fig1, built, tmp_path):
        copy = str(tmp_path / "copy.seg")
        rewrite_index_file(built, copy, lambda component, record: None)
        with DiskMStarIndex(copy, fig1) as disk:
            disk.to_memory().check_invariants()

    @pytest.mark.parametrize("edit, complaint", [
        (drop_links_of_component_0,
         "component 1 has 13 nodes that are the subnode of no node"),
        (link_below_the_last_component, "component 3: subnode link"),
        (link_every_node_to_subnode_0, "component 0: subnode link"),
        (overstate_k, "component 1 holds a node whose k exceeds 1"),
    ])
    def test_doctored_links_refused_at_load(self, fig1, built, tmp_path,
                                            edit, complaint):
        doctored = str(tmp_path / "doctored.seg")
        rewrite_index_file(built, doctored, edit)
        with DiskMStarIndex(doctored, fig1) as disk:
            with pytest.raises(ValueError) as excinfo:
                disk.to_memory()
        assert doctored in str(excinfo.value)
        assert complaint in str(excinfo.value)
