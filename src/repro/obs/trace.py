"""Zero-dependency structured tracing (spans) for the hot paths.

The span model is deliberately small:

* a **span** is a named interval with string/number **tags**, produced by
  ``Tracer.span(name, **tags)`` used as a context manager;
* spans **nest**: the tracer keeps a stack of open spans per instance,
  so a span opened while another is open records that span as its
  parent (``parent``/``depth`` in the record);
* completed spans land in a bounded in-memory **ring buffer** — when it
  fills, the oldest records are overwritten and ``dropped`` counts how
  many were lost (tracing must never grow without bound inside a
  long-running engine).

Exports:

* :meth:`Tracer.export` — raw span dicts (``sid``/``parent``/``depth``
  preserved), the form the nesting validator consumes;
* :meth:`Tracer.export_chrome` — the Chrome trace-event format
  (``chrome://tracing`` / Perfetto): one ``"ph": "X"`` complete event
  per span with microsecond ``ts``/``dur``.

**Disabled fast path.**  ``Tracer.span`` returns the shared
:data:`NULL_SPAN` singleton when the tracer is disabled — no object
allocation, no clock read, no tag materialisation.  Call sites that
would do work *building* tags (``str(expr)`` etc.) should guard on
``tracer.enabled`` and pass ``NULL_SPAN`` themselves::

    sp = tracer.span("engine.execute", query=str(expr)) \
        if tracer.enabled else NULL_SPAN
    with sp:
        ...

``tests/test_obs_integration.py`` measures this path and asserts that
the instrumentation costs <= 5% of replay time when disabled (see
``docs/observability.md``).
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable
from types import TracebackType

#: Default ring-buffer capacity (completed spans retained).
DEFAULT_CAPACITY = 65_536


class SpanRecord:
    """One completed span (immutable once it leaves the tracer)."""

    __slots__ = ("sid", "parent", "depth", "name", "tags",
                 "start_us", "duration_us")

    def __init__(self, sid: int, parent: int, depth: int, name: str,
                 tags: dict[str, object], start_us: float,
                 duration_us: float) -> None:
        self.sid = sid
        self.parent = parent  # -1 for a root span
        self.depth = depth
        self.name = name
        self.tags = tags
        self.start_us = start_us
        self.duration_us = duration_us

    def as_dict(self) -> dict[str, object]:
        return {"sid": self.sid, "parent": self.parent, "depth": self.depth,
                "name": self.name, "tags": dict(self.tags),
                "start_us": self.start_us, "duration_us": self.duration_us}

    def __repr__(self) -> str:
        return (f"SpanRecord({self.name!r}, sid={self.sid}, "
                f"parent={self.parent}, dur={self.duration_us:.1f}us)")


class _NullSpan:
    """Shared no-op span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc: object) -> bool:
        return False

    def tag(self, **_tags: object) -> "_NullSpan":
        return self


#: The disabled-path singleton; ``is``-comparable for tests.
NULL_SPAN = _NullSpan()


class _LiveSpan:
    """An open span; finishes (and records itself) on ``__exit__``."""

    __slots__ = ("_tracer", "sid", "parent", "depth", "name", "tags",
                 "_start_ns")

    def __init__(self, tracer: "Tracer", sid: int, parent: int, depth: int,
                 name: str, tags: dict[str, object]) -> None:
        self._tracer = tracer
        self.sid = sid
        self.parent = parent
        self.depth = depth
        self.name = name
        self.tags = tags
        self._start_ns = 0

    def tag(self, **tags: object) -> "_LiveSpan":
        """Attach tags discovered mid-span (e.g. an outcome)."""
        self.tags.update(tags)
        return self

    def __enter__(self) -> "_LiveSpan":
        self._start_ns = self._tracer._clock()
        self._tracer._open.append(self.sid)
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 _tb: TracebackType | None) -> bool:
        end_ns = self._tracer._clock()
        if exc_type is not None:
            self.tags["error"] = exc_type.__name__
        stack = self._tracer._open
        # Tolerate exception-driven unwinding that skipped inner exits.
        while stack and stack[-1] != self.sid:
            stack.pop()
        if stack:
            stack.pop()
        self._tracer._record(SpanRecord(
            self.sid, self.parent, self.depth, self.name, self.tags,
            start_us=(self._start_ns - self._tracer._origin_ns) / 1000.0,
            duration_us=(end_ns - self._start_ns) / 1000.0))
        return False


class Tracer:
    """Span recorder with a bounded ring buffer and a disabled fast path.

    A module-level default instance, :data:`TRACER`, is what the library
    instruments against; tests may construct private tracers.  The
    tracer is *disabled* by default — instrumented code costs one
    attribute check plus a no-op context manager per call site.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 clock: Callable[[], int] = time.perf_counter_ns) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.enabled = False
        self.capacity = capacity
        self._clock = clock
        self._origin_ns = clock()
        self._ring: list[SpanRecord] = []
        self._cursor = 0  # next overwrite position once the ring is full
        self.dropped = 0
        self.recorded = 0  # monotone count of completed spans
        self._open: list[int] = []
        self._next_sid = 0

    # -- recording -----------------------------------------------------
    def span(self, name: str, **tags: object) -> "_LiveSpan | _NullSpan":
        """Open a span (use as a context manager).

        Returns :data:`NULL_SPAN` when disabled.  Note the keyword tags
        are still *evaluated* by Python before this returns; guard the
        call site on :attr:`enabled` when building a tag is not free.
        """
        if not self.enabled:
            return NULL_SPAN
        parent = self._open[-1] if self._open else -1
        sid = self._next_sid
        self._next_sid += 1
        return _LiveSpan(self, sid, parent, len(self._open), name, tags)

    def _record(self, record: SpanRecord) -> None:
        self.recorded += 1
        if len(self._ring) < self.capacity:
            self._ring.append(record)
        else:
            self._ring[self._cursor] = record
            self._cursor = (self._cursor + 1) % self.capacity
            self.dropped += 1

    # -- lifecycle -----------------------------------------------------
    def enable(self, clear: bool = True) -> None:
        if clear:
            self.clear()
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        """Drop all recorded spans and reset counters (keeps ``enabled``)."""
        self._ring = []
        self._cursor = 0
        self.dropped = 0
        self.recorded = 0
        self._open = []
        self._next_sid = 0
        self._origin_ns = self._clock()

    # -- reading -------------------------------------------------------
    def spans(self) -> list[SpanRecord]:
        """Completed spans, oldest first (ring order unrolled)."""
        if len(self._ring) < self.capacity:
            return list(self._ring)
        return self._ring[self._cursor:] + self._ring[:self._cursor]

    def export(self) -> list[dict[str, object]]:
        """Raw span dicts (``sid``/``parent``/``depth`` preserved)."""
        return [record.as_dict() for record in self.spans()]

    def export_chrome(self) -> dict[str, object]:
        """Chrome trace-event JSON: one complete ("X") event per span.

        ``ts``/``dur`` are microseconds since the tracer's origin, the
        unit the trace-event format specifies; ``args`` carries the tags
        plus the span/parent ids so tooling can rebuild the tree.
        """
        events: list[dict[str, object]] = []
        for record in self.spans():
            args: dict[str, object] = {str(key): value
                                       for key, value in record.tags.items()}
            args["sid"] = record.sid
            args["parent"] = record.parent
            events.append({
                "name": record.name,
                "cat": record.name.split(".", 1)[0],
                "ph": "X",
                "ts": record.start_us,
                "dur": record.duration_us,
                "pid": 1,
                "tid": 1,
                "args": args,
            })
        return {"traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": {"dropped": self.dropped,
                              "recorded": self.recorded}}

    def write_chrome(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.export_chrome(), handle, indent=1)
            handle.write("\n")

    def __repr__(self) -> str:
        return (f"Tracer(enabled={self.enabled}, recorded={self.recorded}, "
                f"retained={len(self._ring)}, dropped={self.dropped})")


#: The default tracer every instrumented module uses.
TRACER = Tracer()


# ----------------------------------------------------------------------
# Validation (used by ``repro trace --check`` and the CI smoke job)
# ----------------------------------------------------------------------
def validate_chrome_trace(payload: object) -> list[str]:
    """Validate a Chrome-trace payload against the span schema.

    Returns a list of problems (empty when valid): the payload must be a
    dict with a ``traceEvents`` list of complete events, each carrying a
    non-empty ``name``, ``ph == "X"``, non-negative numeric ``ts`` and
    ``dur``, integer ``pid``/``tid``, and an ``args`` dict with integer
    ``sid``/``parent`` ids.
    """
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"payload is {type(payload).__name__}, expected dict"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["payload has no traceEvents list"]
    seen_sids: set[int] = set()
    for position, event in enumerate(events):
        where = f"traceEvents[{position}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not a dict")
            continue
        name = event.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: missing/empty name")
        if event.get("ph") != "X":
            problems.append(f"{where}: ph is {event.get('ph')!r}, "
                            f"expected 'X'")
        for field in ("ts", "dur"):
            value = event.get(field)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(f"{where}: bad {field} {value!r}")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where}: bad {field}")
        args = event.get("args")
        if not isinstance(args, dict) or \
                not isinstance(args.get("sid"), int) or \
                not isinstance(args.get("parent"), int):
            problems.append(f"{where}: args must carry integer sid/parent")
        else:
            seen_sids.add(args["sid"])
    return problems


def validate_nesting(records: list[SpanRecord]) -> list[str]:
    """Check parent/child consistency of completed spans.

    Every non-root span's parent must exist (unless it was dropped from
    the ring, which the caller should avoid for validation runs), carry
    a smaller depth, and its interval must enclose the child's —
    i.e. the spans really do nest.
    """
    problems: list[str] = []
    by_sid = {record.sid: record for record in records}
    for record in records:
        if record.parent < 0:
            if record.depth != 0:
                problems.append(f"span {record.sid} ({record.name}) is a "
                                f"root but has depth {record.depth}")
            continue
        parent = by_sid.get(record.parent)
        if parent is None:
            problems.append(f"span {record.sid} ({record.name}) has "
                            f"unknown parent {record.parent}")
            continue
        if parent.depth != record.depth - 1:
            problems.append(f"span {record.sid} ({record.name}) depth "
                            f"{record.depth} vs parent depth {parent.depth}")
        # Enclosure with a microsecond of slack for clock granularity.
        if record.start_us + 1e-3 < parent.start_us or \
                (record.start_us + record.duration_us) > \
                (parent.start_us + parent.duration_us) + 1e-3:
            problems.append(f"span {record.sid} ({record.name}) not "
                            f"enclosed by parent {parent.sid} "
                            f"({parent.name})")
    return problems
