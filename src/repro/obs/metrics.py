"""Zero-dependency metrics registry: counters, gauges, histograms.

This absorbs the ad-hoc counting previously scattered across
``EngineStats`` into one queryable place.  The
model is Prometheus-shaped but in-process only:

* a **metric** has a unique name, a help string, and an optional tuple
  of **label names** (e.g. ``("index",)`` for per-index-family
  breakdowns);
* ``metric.labels(index="MStarIndex")`` returns (and memoises) the
  child holding the values for that label combination — hot paths bind
  the child once and call ``inc()``/``observe()`` on it directly;
* an unlabeled metric *is* its own child — ``counter.inc()`` just
  works;
* **histograms** use fixed bucket boundaries chosen at registration
  (defaults suit the repo's visit-count cost model) and record
  cumulative bucket counts, a running sum, and a count.

Registration is idempotent: re-registering the same name with the same
kind returns the existing metric, so modules can declare their metrics
at import time without coordination.  ``REGISTRY`` is the module-level
default the library instruments against.
"""

from __future__ import annotations

from bisect import bisect_left

#: Default histogram buckets, tuned for visit-count costs (the repo's
#: two-part cost model): most queries cost a handful of visits, heavy
#: refinements reach the tens of thousands.
DEFAULT_BUCKETS = (1, 2, 5, 10, 25, 50, 100, 250, 500,
                   1000, 2500, 5000, 10_000, 50_000, 100_000)


def _label_key(labelnames: tuple[str, ...],
               labels: dict[str, str]) -> tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(f"expected labels {labelnames}, got "
                         f"{tuple(sorted(labels))}")
    return tuple(labels[name] for name in labelnames)


class Counter:
    """Monotonically increasing value (per label combination)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labelnames: tuple[str, ...] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple[str, ...], "Counter"] = {}
        self.value: float = 0

    def labels(self, **labels: str) -> "Counter":
        key = _label_key(self.labelnames, labels)
        child = self._children.get(key)
        if child is None:
            child = Counter(self.name, self.help)
            self._children[key] = child
        return child

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def collect(self) -> dict[str, object]:
        if not self.labelnames:
            return {"type": self.kind, "help": self.help, "value": self.value}
        return {"type": self.kind, "help": self.help,
                "labelnames": list(self.labelnames),
                "values": {",".join(map(str, key)): child.value
                           for key, child in sorted(self._children.items())}}

    def _reset(self) -> None:
        self.value = 0
        for child in self._children.values():
            child._reset()


class Gauge(Counter):
    """A value that can go up and down (e.g. current cache size)."""

    kind = "gauge"

    def labels(self, **labels: str) -> "Gauge":
        key = _label_key(self.labelnames, labels)
        # A Gauge's children are always Gauges; isinstance (rather than
        # an is-None check) lets the checker see that.
        child = self._children.get(key)
        if not isinstance(child, Gauge):
            child = Gauge(self.name, self.help)
            self._children[key] = child
        return child

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Distribution over fixed buckets (cumulative counts + sum/count)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: tuple[str, ...] = (),
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a sorted non-empty sequence")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(buckets)
        self._children: dict[tuple[str, ...], "Histogram"] = {}
        # counts[i] counts observations <= buckets[i]; the implicit +inf
        # bucket is ``count`` itself.
        self.counts = [0] * len(self.buckets)
        self.sum = 0.0
        self.count = 0

    def labels(self, **labels: str) -> "Histogram":
        key = _label_key(self.labelnames, labels)
        child = self._children.get(key)
        if child is None:
            child = Histogram(self.name, self.help, buckets=self.buckets)
            self._children[key] = child
        return child

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        position = bisect_left(self.buckets, value)
        if position < len(self.counts):
            # Buckets are cumulative on collect; store per-bucket here
            # and accumulate once when reading (observe stays O(log B)).
            self.counts[position] += 1

    def cumulative_counts(self) -> list[int]:
        out: list[int] = []
        running = 0
        for count in self.counts:
            running += count
            out.append(running)
        return out

    def collect(self) -> dict[str, object]:
        def one(h: "Histogram") -> dict[str, object]:
            return {"buckets": list(h.buckets),
                    "counts": h.cumulative_counts(),
                    "sum": h.sum, "count": h.count}

        base: dict[str, object] = {"type": self.kind, "help": self.help}
        if not self.labelnames:
            base.update(one(self))
            return base
        base["labelnames"] = list(self.labelnames)
        base["values"] = {",".join(map(str, key)): one(child)
                          for key, child in sorted(self._children.items())}
        return base

    def _reset(self) -> None:
        self.counts = [0] * len(self.buckets)
        self.sum = 0.0
        self.count = 0
        for child in self._children.values():
            child._reset()


class MetricsRegistry:
    """Name -> metric map with idempotent registration."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Histogram] = {}

    def _register(self, cls: type[Counter | Histogram], name: str, help: str,
                  labelnames: tuple[str, ...],
                  buckets: tuple[float, ...] | None = None,
                  ) -> Counter | Histogram:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise TypeError(f"metric {name!r} already registered as "
                                f"{type(existing).__name__}")
            if existing.labelnames != tuple(labelnames):
                raise ValueError(f"metric {name!r} already registered with "
                                 f"labels {existing.labelnames}")
            return existing
        metric: Counter | Histogram
        if buckets is not None:
            metric = Histogram(name, help, tuple(labelnames), buckets)
        else:
            metric = cls(name, help, tuple(labelnames))
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "",
                labelnames: tuple[str, ...] = ()) -> Counter:
        metric = self._register(Counter, name, help, labelnames)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help: str = "",
              labelnames: tuple[str, ...] = ()) -> Gauge:
        metric = self._register(Gauge, name, help, labelnames)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, name: str, help: str = "",
                  labelnames: tuple[str, ...] = (),
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        metric = self._register(Histogram, name, help, labelnames,
                                buckets=buckets)
        assert isinstance(metric, Histogram)
        return metric

    def get(self, name: str) -> Counter | Histogram | None:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def collect(self) -> dict[str, dict[str, object]]:
        """JSON-able dump of every registered metric."""
        return {name: metric.collect()
                for name, metric in sorted(self._metrics.items())}

    def snapshot(self) -> dict[str, float]:
        """Flat ``name{labels}`` -> numeric view of counters and gauges.

        Histograms contribute their ``_count`` and ``_sum``.  Handy for
        before/after deltas in benches and tests.
        """
        flat: dict[str, float] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Histogram):
                items = ([(name, metric)] if not metric.labelnames
                         else [(f"{name}{{{','.join(map(str, key))}}}", child)
                               for key, child in metric._children.items()])
                for key_name, child in items:
                    flat[f"{key_name}_count"] = child.count
                    flat[f"{key_name}_sum"] = child.sum
            else:
                if not metric.labelnames:
                    flat[name] = metric.value
                else:
                    for key, child in metric._children.items():
                        flat[f"{name}{{{','.join(map(str, key))}}}"] = \
                            child.value
        return flat

    def reset(self) -> None:
        """Zero every value; registrations (and bound children) survive."""
        for metric in self._metrics.values():
            metric._reset()


#: The default registry every instrumented module uses.
REGISTRY = MetricsRegistry()
