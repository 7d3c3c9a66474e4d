"""The zero-dependency metrics registry (see :mod:`repro.obs`).

Design constraints, in order:

1. **Hot-path cost ≈ an attribute increment.**  Layers hold direct
   references to :class:`Counter` objects and do ``c.value += 1`` —
   no name lookup, no locking, no allocation.  The bench-regression
   gate holds the whole observability core to ≤2% overhead.
2. **One name schema, many owners.**  Each layer (engine, session,
   service) owns a registry for its metrics and *attaches* its
   child's registry, so one ``snapshot()`` at the top walks the whole
   tree.  Names are globally namespaced, so flattening never collides.
3. **Process-global layers stay where they are.**  The intern /
   canonical / bitset counters are module-wide by design; registries
   pull them in through *collector* callbacks instead of re-homing
   state that other processes' tooling already reads.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

Number = Union[int, float]
Snapshot = Dict[str, object]

# Names with one of these suffixes are gauges in merged snapshots:
# summing a size across workers is meaningless, the maximum is the
# honest aggregate.
GAUGE_SUFFIXES = (".cached", ".entries", ".compiled", ".peak_entries",
                  ".uptime_s", ".workers", ".counts", ".exists", ".shards")


class Counter:
    """A monotonic counter.  Hot paths increment ``value`` directly."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value: either set explicitly or read through a
    callback (``fn``) at snapshot time — the callback form costs the
    instrumented layer nothing between snapshots."""

    __slots__ = ("name", "value", "fn")

    def __init__(self, name: str, fn: Optional[Callable[[], Number]] = None):
        self.name = name
        self.value: Number = 0
        self.fn = fn

    def set(self, value: Number) -> None:
        self.value = value

    def read(self) -> Number:
        return self.fn() if self.fn is not None else self.value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.read()})"


class Histogram:
    """A log2-bucketed histogram of non-negative values.

    A value ``v`` (truncated to int) lands in the bucket whose label is
    ``2 ** v.bit_length()`` — the least power of two strictly greater
    than ``v``.  Bucket boundaries are therefore exact and
    machine-independent: ``0 → 1``, ``1 → 2``, ``2..3 → 4``,
    ``4..7 → 8``, and so on.  ``count`` and ``sum`` accumulate
    alongside, so mean latency falls out of one snapshot.
    """

    __slots__ = ("name", "count", "sum", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.sum: Number = 0
        self.buckets: Dict[int, int] = {}

    def observe(self, value: Number) -> None:
        clipped = int(value)
        if clipped < 0:
            clipped = 0
        le = 1 << clipped.bit_length()
        self.count += 1
        self.sum += value
        self.buckets[le] = self.buckets.get(le, 0) + 1

    def reset(self) -> None:
        self.count = 0
        self.sum = 0
        self.buckets.clear()

    def snapshot(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": {str(le): n for le, n in sorted(self.buckets.items())},
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, count={self.count})"


Collector = Callable[[], Dict[str, Number]]


class MetricsRegistry:
    """A named collection of metrics plus attached child registries.

    ``counter``/``gauge``/``histogram`` create-or-return by name (so
    re-instantiating a layer against a shared registry is safe);
    ``register_collector`` adds a callback returning ``{name: number}``
    read at snapshot time (``monotonic=False`` marks its values as
    gauges for merging); ``attach`` includes another registry's
    metrics in this one's snapshots.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: List[Tuple[Collector, bool]] = []
        self._children: List["MetricsRegistry"] = []

    # -------------------------------------------------- construction
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str,
              fn: Optional[Callable[[], Number]] = None) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name, fn)
        elif fn is not None:
            metric.fn = fn
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name)
        return metric

    def register_collector(self, collector: Collector,
                           monotonic: bool = True) -> None:
        self._collectors.append((collector, monotonic))

    def attach(self, child: "MetricsRegistry") -> None:
        if child is not self and child not in self._children:
            self._children.append(child)

    # -------------------------------------------------- reading
    def snapshot(self) -> Snapshot:
        """The full flat snapshot: ``{namespaced name: value}`` where a
        value is a number (counter/gauge) or a histogram dict."""
        report: Snapshot = {}
        for registry in self._walk():
            for name, counter in registry._counters.items():
                report[name] = counter.value
            for name, gauge in registry._gauges.items():
                report[name] = gauge.read()
            for name, histogram in registry._histograms.items():
                report[name] = histogram.snapshot()
            for collector, _ in registry._collectors:
                report.update(collector())
        return report

    def counters_snapshot(self) -> Dict[str, Number]:
        """Monotonic values only (counters, histogram components, and
        monotonic collector entries), flattened to plain numbers —
        the mergeable cross-process slice of :meth:`snapshot`.
        Histograms expand to ``<name>.count``, ``<name>.sum`` and
        ``<name>.bucket.<le>`` entries."""
        report: Dict[str, Number] = {}
        for registry in self._walk():
            for name, counter in registry._counters.items():
                report[name] = counter.value
            for name, histogram in registry._histograms.items():
                report[f"{name}.count"] = histogram.count
                report[f"{name}.sum"] = histogram.sum
                for le, value in histogram.buckets.items():
                    report[f"{name}.bucket.{le}"] = value
            for collector, monotonic in registry._collectors:
                if monotonic:
                    report.update(collector())
        return report

    def gauges_snapshot(self) -> Dict[str, Number]:
        """The rest of :meth:`snapshot` bar histograms: gauges and
        non-monotonic collector entries, read now."""
        report: Dict[str, Number] = {}
        for registry in self._walk():
            for name, gauge in registry._gauges.items():
                report[name] = gauge.read()
            for collector, monotonic in registry._collectors:
                if not monotonic:
                    report.update(collector())
        return report

    def exposition(self) -> str:
        """Prometheus-style text exposition of :meth:`snapshot`.

        Dots become underscores; histograms render cumulative
        ``_bucket{le="..."}`` series plus ``_sum``/``_count``.
        """
        lines: List[str] = []
        for registry in self._walk():
            for name, counter in registry._counters.items():
                flat = _prom_name(name)
                lines.append(f"# TYPE {flat} counter")
                lines.append(f"{flat} {counter.value}")
            for name, gauge in registry._gauges.items():
                flat = _prom_name(name)
                lines.append(f"# TYPE {flat} gauge")
                lines.append(f"{flat} {gauge.read()}")
            for name, histogram in registry._histograms.items():
                flat = _prom_name(name)
                lines.append(f"# TYPE {flat} histogram")
                running = 0
                for le, count in sorted(histogram.buckets.items()):
                    running += count
                    lines.append(f'{flat}_bucket{{le="{le}"}} {running}')
                lines.append(f'{flat}_bucket{{le="+Inf"}} {histogram.count}')
                lines.append(f"{flat}_sum {histogram.sum}")
                lines.append(f"{flat}_count {histogram.count}")
            for collector, monotonic in registry._collectors:
                kind = "counter" if monotonic else "gauge"
                for name, value in sorted(collector().items()):
                    flat = _prom_name(name)
                    lines.append(f"# TYPE {flat} {kind}")
                    lines.append(f"{flat} {value}")
        return "\n".join(lines) + "\n"

    # -------------------------------------------------- internals
    def _walk(self) -> Iterable["MetricsRegistry"]:
        seen = {id(self)}
        stack = [self]
        while stack:
            registry = stack.pop()
            yield registry
            for child in registry._children:
                if id(child) not in seen:
                    seen.add(id(child))
                    stack.append(child)

    def __repr__(self) -> str:
        return (f"MetricsRegistry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, "
                f"histograms={len(self._histograms)}, "
                f"children={len(self._children)})")


#: Process-wide layers above the engine (the batch codec's payload
#: memo) register their collectors here; every session attaches it, so
#: a layer the session cannot import still reports in its snapshots.
PROCESS_METRICS = MetricsRegistry()


def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def merge_counter_snapshots(into: Dict[str, Number],
                            delta: Dict[str, Number]) -> Dict[str, Number]:
    """Merge one worker's counter snapshot (or delta) into ``into``.

    Monotonic entries add; entries whose names carry a gauge suffix
    (sizes, peaks) take the maximum — summing live cache sizes across
    workers would fabricate capacity no process ever had.
    """
    for name, value in delta.items():
        if name.endswith(GAUGE_SUFFIXES):
            into[name] = max(into.get(name, 0), value)
        else:
            into[name] = into.get(name, 0) + value
    return into
