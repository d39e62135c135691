"""Labeled metric primitives with deterministic cross-process merge.

The registry is the observability substrate of the enforcement path:
sampled stage latency lands in one in-process :class:`MetricsRegistry`.
Snapshots taken elsewhere (another process, an earlier run, a
:meth:`~MetricsRegistry.drain` delta) fold in with
:meth:`~MetricsRegistry.merge_snapshot`.  Merging is associative and
commutative by construction — counters and histogram bucket counts are
integers, histogram sums are integer *nanoseconds* (never floats, whose
addition order would leak into the export), and gauges merge by
``max`` (a merged gauge reads as a high-water mark) — so any merge
order yields the identical exported snapshot, which the property suite
pins.

Instrumented code holds *bound children* (``counter.labels(...)``)
so the hot path pays one method call and one dict update per event.
Uninstrumented runs attach :data:`NULL_REGISTRY` instead: its
instruments are shared no-op singletons, so call sites stay
branch-free while a disabled registry keeps today's throughput.
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = [
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "histogram_quantile",
]

#: Fixed log-scaled latency buckets (seconds): powers of two from 1 µs
#: to ~16.8 s, plus the implicit +Inf overflow slot.  Fixed — not
#: configurable per call site — so histograms from any process always
#: share a bucket layout and merge without resampling.
LATENCY_BUCKETS: tuple[float, ...] = tuple((1 << i) * 1e-6 for i in range(25))

_NS = 1_000_000_000


class _CounterChild:
    __slots__ = ("_series", "_key")

    def __init__(self, series: dict, key: tuple) -> None:
        self._series = series
        self._key = key

    def inc(self, amount: int = 1) -> None:
        self._series[self._key] = self._series.get(self._key, 0) + amount


class _GaugeChild:
    __slots__ = ("_series", "_key")

    def __init__(self, series: dict, key: tuple) -> None:
        self._series = series
        self._key = key

    def set(self, value: float) -> None:
        self._series[self._key] = value


class _HistState:
    __slots__ = ("counts", "count", "sum_ns")

    def __init__(self, num_buckets: int) -> None:
        self.counts = [0] * (num_buckets + 1)  # +1: the +Inf overflow slot
        self.count = 0
        self.sum_ns = 0


class _HistogramChild:
    __slots__ = ("_state", "_buckets")

    def __init__(self, state: _HistState, buckets: tuple[float, ...]) -> None:
        self._state = state
        self._buckets = buckets

    def observe(self, seconds: float) -> None:
        state = self._state
        state.counts[bisect_left(self._buckets, seconds)] += 1
        state.count += 1
        state.sum_ns += int(seconds * _NS + 0.5)


class _Instrument:
    """Shared family plumbing: name, label schema, child cache."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: tuple[str, ...]) -> None:
        self.name = name
        self.help = help
        self.label_names = label_names
        self._series: dict = {}
        self._children: dict = {}

    def _key(self, labels: dict) -> tuple:
        if tuple(labels) != self.label_names:
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(labels)}"
            )
        return tuple(str(value) for value in labels.values())

    def labels(self, **labels):
        key = self._key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child(key)
        return child

    def clear(self) -> None:
        self._series.clear()
        self._children.clear()


class Counter(_Instrument):
    kind = "counter"

    def _make_child(self, key: tuple) -> _CounterChild:
        return _CounterChild(self._series, key)

    def inc(self, amount: int = 1, **labels) -> None:
        self.labels(**labels).inc(amount)

    def value(self, **labels) -> int:
        return self._series.get(self._key(labels), 0)

    def _snapshot_series(self, key: tuple) -> dict:
        return {"labels": list(key), "value": self._series[key]}


class Gauge(_Instrument):
    kind = "gauge"

    def _make_child(self, key: tuple) -> _GaugeChild:
        return _GaugeChild(self._series, key)

    def set(self, value: float, **labels) -> None:
        self.labels(**labels).set(value)

    def value(self, **labels) -> float:
        return self._series.get(self._key(labels), 0)

    def _snapshot_series(self, key: tuple) -> dict:
        return {"labels": list(key), "value": self._series[key]}


class Histogram(_Instrument):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: tuple[str, ...],
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, label_names)
        self.buckets = tuple(buckets)

    def _make_child(self, key: tuple) -> _HistogramChild:
        state = self._series.get(key)
        if state is None:
            state = self._series[key] = _HistState(len(self.buckets))
        return _HistogramChild(state, self.buckets)

    def observe(self, seconds: float, **labels) -> None:
        self.labels(**labels).observe(seconds)

    def state(self, **labels) -> _HistState | None:
        return self._series.get(self._key(labels))

    def count(self, **labels) -> int:
        state = self.state(**labels)
        return 0 if state is None else state.count

    def sum_seconds(self, **labels) -> float:
        state = self.state(**labels)
        return 0.0 if state is None else state.sum_ns / _NS

    def quantile(self, q: float, **labels) -> float:
        state = self.state(**labels)
        if state is None:
            return 0.0
        return histogram_quantile(self.buckets, state.counts, state.count, q)

    def _snapshot_series(self, key: tuple) -> dict:
        state = self._series[key]
        return {
            "labels": list(key),
            "counts": list(state.counts),
            "count": state.count,
            "sum_ns": state.sum_ns,
        }


def histogram_quantile(
    buckets: tuple[float, ...], counts: list[int], total: int, q: float
) -> float:
    """Estimate the q-quantile as the upper bound of the bucket where the
    cumulative count crosses ``q * total`` (the Prometheus convention;
    the overflow slot reports the largest finite bound)."""
    if total <= 0:
        return 0.0
    rank = q * total
    cumulative = 0
    for index, count in enumerate(counts):
        cumulative += count
        if cumulative >= rank and count:
            return buckets[min(index, len(buckets) - 1)]
    return buckets[-1]


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A process-local set of metric families keyed by name."""

    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[str, _Instrument] = {}

    def _register(self, cls, name: str, help: str, labels, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.label_names != tuple(labels):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind} "
                    f"with labels {existing.label_names}"
                )
            return existing
        metric = cls(name, help, tuple(labels), **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "", labels=()) -> Counter:
        return self._register(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels=()) -> Gauge:
        return self._register(Gauge, name, help, labels)

    def histogram(
        self, name: str, help: str = "", labels=(), buckets=LATENCY_BUCKETS
    ) -> Histogram:
        metric = self._register(Histogram, name, help, labels, buckets=tuple(buckets))
        if metric.buckets != tuple(buckets):
            raise ValueError(f"histogram {name!r} already registered with other buckets")
        return metric

    def get(self, name: str) -> _Instrument | None:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> dict:
        """A deterministic, JSON-able view: families sorted by name,
        series sorted by label values."""
        out: dict = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            family: dict = {
                "type": metric.kind,
                "help": metric.help,
                "label_names": list(metric.label_names),
                "series": [
                    metric._snapshot_series(key) for key in sorted(metric._series)
                ],
            }
            if metric.kind == "histogram":
                family["buckets"] = list(metric.buckets)
            out[name] = family
        return out

    def drain(self) -> dict:
        """Snapshot, then zero every series (registrations survive).

        The exactly-once delta idiom: each drained snapshot is merged
        into an aggregate precisely once, mirroring
        ``EnforcerStats.delta_since``.
        """
        snap = self.snapshot()
        for metric in self._metrics.values():
            metric.clear()
        return snap

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a snapshot (local or from another process) into this
        registry.  Counters and histogram counts/sums add; gauges take
        the elementwise max."""
        for name in sorted(snapshot):
            family = snapshot[name]
            kind = family["type"]
            cls = _KINDS.get(kind)
            if cls is None:
                raise ValueError(f"cannot merge unknown metric type {kind!r}")
            labels = tuple(family["label_names"])
            if kind == "histogram":
                metric = self.histogram(
                    name, family.get("help", ""), labels, buckets=family["buckets"]
                )
            elif kind == "counter":
                metric = self.counter(name, family.get("help", ""), labels)
            else:
                metric = self.gauge(name, family.get("help", ""), labels)
            for series in family["series"]:
                key = tuple(series["labels"])
                if kind == "counter":
                    metric._series[key] = metric._series.get(key, 0) + series["value"]
                elif kind == "gauge":
                    current = metric._series.get(key)
                    value = series["value"]
                    metric._series[key] = value if current is None else max(current, value)
                else:
                    state = metric._series.get(key)
                    if state is None:
                        state = metric._series[key] = _HistState(len(metric.buckets))
                    if len(series["counts"]) != len(state.counts):
                        raise ValueError(
                            f"histogram {name!r} bucket layout mismatch on merge"
                        )
                    for index, count in enumerate(series["counts"]):
                        state.counts[index] += count
                    state.count += series["count"]
                    state.sum_ns += series["sum_ns"]


class _NullChild:
    """Accepts any instrument call and does nothing; ``labels`` returns
    itself so chained call sites stay allocation-free."""

    __slots__ = ()

    def labels(self, **labels):
        return self

    def inc(self, amount: int = 1, **labels) -> None:
        pass

    def set(self, value: float, **labels) -> None:
        pass

    def observe(self, seconds: float, **labels) -> None:
        pass

    def value(self, **labels) -> int:
        return 0

    def count(self, **labels) -> int:
        return 0

    def sum_seconds(self, **labels) -> float:
        return 0.0

    def quantile(self, q: float, **labels) -> float:
        return 0.0


_NULL_CHILD = _NullChild()


class NullRegistry:
    """API-compatible no-op registry: instrumented code runs unchanged
    while every observation is discarded at the cost of one no-op call."""

    enabled = False

    def counter(self, name: str, help: str = "", labels=()) -> _NullChild:
        return _NULL_CHILD

    def gauge(self, name: str, help: str = "", labels=()) -> _NullChild:
        return _NULL_CHILD

    def histogram(self, name: str, help: str = "", labels=(), buckets=()) -> _NullChild:
        return _NULL_CHILD

    def get(self, name: str) -> None:
        return None

    def __contains__(self, name: str) -> bool:
        return False

    def snapshot(self) -> dict:
        return {}

    def drain(self) -> dict:
        return {}

    def merge_snapshot(self, snapshot: dict) -> None:
        pass


NULL_REGISTRY = NullRegistry()
