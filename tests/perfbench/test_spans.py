"""Self-time arithmetic and wrapper hygiene."""

import pytest

from perfbench.layers import from_spans, operation_self_error
from perfbench.spans import Recorder, Span, self_times


def span(name, start, end, span_id, parent=-1, op=0, tag=None):
    return Span(name, start, end, span_id, parent, op, "timed", tag)


class TestSelfTime:
    def test_nested_children_are_subtracted(self):
        spans = [span("outer", 0.0, 10.0, 0),
                 span("mid", 1.0, 7.0, 1, parent=0),
                 span("leaf", 2.0, 4.0, 2, parent=1),
                 span("mid", 8.0, 9.0, 3, parent=0)]
        own = self_times(spans)
        assert own == {0: pytest.approx(3.0), 1: pytest.approx(4.0),
                       2: pytest.approx(2.0), 3: pytest.approx(1.0)}
        assert operation_self_error(spans) == pytest.approx(0.0)

    def test_overlapping_children_count_their_union_once(self):
        # Two parallel parts covering [1, 5] and [3, 8]: union is 7 wide.
        spans = [span("outer", 0.0, 10.0, 0),
                 span("part", 1.0, 5.0, 1, parent=0),
                 span("part", 3.0, 8.0, 2, parent=0)]
        assert self_times(spans)[0] == pytest.approx(3.0)

    def test_child_sticking_out_is_clipped_to_the_parent(self):
        spans = [span("outer", 0.0, 10.0, 0),
                 span("late", 9.0, 12.0, 1, parent=0)]
        assert self_times(spans)[0] == pytest.approx(9.0)

    def test_contained_child_inside_a_wider_sibling(self):
        spans = [span("outer", 0.0, 10.0, 0),
                 span("wide", 1.0, 9.0, 1, parent=0),
                 span("narrow", 2.0, 3.0, 2, parent=0)]
        assert self_times(spans)[0] == pytest.approx(2.0)


class _Layered:
    def __init__(self):
        self.calls = 0

    def outer(self, value):
        return self.inner(value) + 1

    def inner(self, value):
        self.calls += 1
        return value * 2


class TestRecorder:
    def test_records_parent_and_operation_ids(self):
        recorder = Recorder()
        target = _Layered()
        recorder.wrap(target, "outer", "top", lambda _a, _k, r: r)
        recorder.wrap(target, "inner", "bottom")
        recorder.phase = "timed"
        assert target.outer(3) == 7 and target.outer(4) == 9
        inner_a, outer_a, inner_b, outer_b = recorder.spans
        assert (outer_a.name, outer_a.parent, outer_a.tag) == ("top", -1, 7)
        assert inner_a.parent == outer_a.span_id
        assert inner_a.op == outer_a.op == outer_a.span_id
        assert inner_b.op == outer_b.span_id != outer_a.span_id
        assert operation_self_error(recorder.spans) < 1e-9

    def test_detach_leaves_no_wrapper_and_attach_restores(self):
        recorder = Recorder()
        target = _Layered()
        recorder.wrap(target, "inner", "bottom")
        assert recorder.installed() == 1
        recorder.detach()
        assert recorder.installed() == 0 and "inner" not in vars(target)
        target.inner(1)
        assert recorder.spans == []
        recorder.wrap(target, "outer", "top")     # ignored while detached
        assert "outer" not in vars(target)
        recorder.attach()
        target.inner(1)
        assert len(recorder.spans) == 1

    def test_a_raising_call_still_closes_its_span(self):
        recorder = Recorder()
        target = _Layered()
        target.inner = lambda value: 1 / value
        recorder.wrap(target, "inner", "bottom")
        with pytest.raises(ZeroDivisionError):
            target.inner(0)
        target.inner(1)
        assert [s.parent for s in recorder.spans] == [-1, -1]


class TestLayerMetrics:
    def test_hits_and_misses_split_by_tag_and_phase(self):
        spans = [
            Span("serving.query", 0.0, 10e-6, 0, -1, 0, "timed", True),
            Span("serving.query", 1.0, 1.0 + 30e-6, 1, -1, 1, "timed", False),
            Span("indexes.query", 1.0, 1.0 + 20e-6, 2, 1, 1, "timed",
                 (5, 7, True)),
            Span("serving.query", 2.0, 2.5, 3, -1, 3, "setup", False),
            Span("indexes.refine", 3.0, 3.002, 4, -1, 4, "setup", 40),
        ]
        out = from_spans(spans)
        assert out["serving.hit_us"] == pytest.approx(10.0)
        assert out["serving.miss_us"] == pytest.approx(30.0)
        assert out["serving.query_us"] == pytest.approx(20.0)
        assert out["serving.self_us"] == pytest.approx(10.0)
        assert out["indexes.query_calls"] == 1
        assert out["indexes.validated_share"] == 1.0
        assert out["indexes.refine_ms"] == pytest.approx(2.0)
        assert out["indexes.refine_visits"] == 40
        assert out["storage.query_us"] == 0.0
