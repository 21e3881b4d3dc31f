"""The benchmark's own spans, recorded around public calls.

``Recorder.wrap`` shadows a bound method with an instance attribute that
times the call; ``detach`` deletes those attributes again, so nothing
under ``src/`` is edited and ``repro.obs.TRACER`` stays disabled.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from collections.abc import Callable, Iterable
from time import perf_counter
from typing import Any, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    span_id: int
    parent: int      # span_id of the caller's span, -1 at a root
    op: int          # span_id of the root: one identifier per operation
    phase: str
    tag: Any

    @property
    def duration(self) -> float:
        return self.end - self.start


#: ``tag(args, kwargs, result)`` keeps the few counters a layer metric
#: needs from a call (cache hit, visit counts, reply size).
Tagger = Callable[[tuple, dict, Any], Any]


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self._ids = itertools.count()
        self._local = threading.local()
        self._wrapped: list[tuple[Any, str, Callable]] = []
        self._attached = True

    def wrap(self, obj: Any, attr: str, name: str,
             tag: Tagger | None = None) -> None:
        """Record a span named ``name`` around every ``obj.attr(...)``."""
        if not self._attached:
            return
        original = getattr(obj, attr)
        spans, ids, local = self.spans, self._ids, self._local

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent, op = stack[-1] if stack else (-1, span_id)
            stack.append((span_id, op))
            kept = None
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                if tag is not None:
                    kept = tag(args, kwargs, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans.append(Span(name, start, end, span_id, parent, op,
                                  self.phase, kept))

        setattr(obj, attr, traced)
        self._wrapped.append((obj, attr, traced))

    def detach(self) -> None:
        """Remove every wrapper (the class's own method shows again)."""
        for obj, attr, _ in self._wrapped:
            if attr in vars(obj):
                delattr(obj, attr)
        self._attached = False

    def attach(self) -> None:
        """Re-install the wrappers removed by :meth:`detach`."""
        for obj, attr, traced in self._wrapped:
            setattr(obj, attr, traced)
        self._attached = True

    def installed(self) -> int:
        """Wrappers currently shadowing a method (0 after ``detach``)."""
        return sum(1 for obj, attr, traced in self._wrapped
                   if vars(obj).get(attr) is traced)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict(), default=str))
                out.write("\n")


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover.

    Children may overlap each other (parallel parts) or stick out of the
    parent; the covered part is the union of their intervals clipped to
    the parent's.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start = max(start, reach)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span.span_id] = span.duration - covered
    return out
