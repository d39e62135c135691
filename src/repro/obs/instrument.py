"""Instrumentation glue between the registry and the runtime hot paths.

Two cost tiers, chosen so today's throughput survives:

* **Detached** (the default): ``PolicyEnforcer._obs is None`` — one
  attribute load and an ``is None`` branch per packet, nothing else.
* **Attached**: per-packet work is a counter tick; every
  ``sample_every``-th packet additionally collects perf_counter stage
  marks in ``PolicyEnforcer.process_batch`` (extract, cache_lookup) and,
  on a cache miss, ``PolicyEnforcer._decide`` (decode, eval, cache_put),
  and feeds the ``enforcer_stage_seconds`` histogram.  Attaching with :data:`~repro.obs.metrics.NULL_REGISTRY`
  keeps the full instrumented code path while every observation is a
  no-op — that is the "null registry" overhead the obs bench bounds.

:class:`RuntimeObservability` is the parent-side bundle a
``ShardedEnforcer`` or ``GatewayFleet`` attaches: it owns the registry,
the bounded trace log, the pool stage/batch histograms, and the
:class:`ObsConfig` that rides the pool seed specs into forked workers
(so a respawned worker comes back instrumented).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.obs.trace import BatchTrace, TraceLog

__all__ = [
    "ENFORCER_STAGES",
    "DEFAULT_SAMPLE_EVERY",
    "ObsConfig",
    "EnforcerObservability",
    "RuntimeObservability",
]

#: Stage marks the enforcement loop can emit, in pipeline order.
ENFORCER_STAGES: tuple[str, ...] = (
    "extract",
    "cache_lookup",
    "decode",
    "eval",
    "cache_put",
)

DEFAULT_SAMPLE_EVERY = 32


@dataclass(frozen=True)
class ObsConfig:
    """Picklable recipe for a worker-side observability setup; rides the
    pool seed specs so every (re)spawned worker self-instruments."""

    sample_every: int = DEFAULT_SAMPLE_EVERY
    null: bool = False

    def build_registry(self):
        return NULL_REGISTRY if self.null else MetricsRegistry()


class EnforcerObservability:
    """Sampled per-stage latency for one or more enforcers.

    One instance may be shared by every enforcement unit in a process
    (the tick counter then samples across the combined packet stream).
    """

    __slots__ = ("registry", "sample_every", "tick", "_stage")

    def __init__(self, registry, sample_every: int = DEFAULT_SAMPLE_EVERY) -> None:
        self.registry = registry
        self.sample_every = max(1, sample_every)
        self.tick = 0
        hist = registry.histogram(
            "enforcer_stage_seconds",
            "Sampled per-stage enforcement latency",
            labels=("stage",),
        )
        self._stage = {stage: hist.labels(stage=stage) for stage in ENFORCER_STAGES}

    def record(self, started: float, marks: list[tuple[str, float]]) -> None:
        """Fold one sampled packet's stage marks into the histogram.
        ``marks`` holds ``(stage, completed_at)`` stamps in path order;
        early-exit paths (untagged, cache hit) simply emit fewer."""
        previous = started
        stages = self._stage
        for stage, stamp in marks:
            stages[stage].observe(stamp - previous)
            previous = stamp


class _PoolCounters:
    """Bound per-pool counter children a :class:`WorkerPool` increments
    alongside its ``EnforcerStats`` fields."""

    __slots__ = ("ring", "pickled", "crashes", "respawns", "replays", "batches")

    def __init__(self, registry, pool: str) -> None:
        def bound(name: str, help: str):
            return registry.counter(name, help, labels=("pool",)).labels(pool=pool)

        self.ring = bound("pool_ring_batches_total", "Batches shipped via the shared ring")
        self.pickled = bound(
            "pool_pickled_batches_total", "Batches that fell back to pickle transport"
        )
        self.crashes = bound("pool_worker_crashes_total", "Worker deaths detected")
        self.respawns = bound("pool_worker_respawns_total", "Workers re-forked")
        self.replays = bound(
            "pool_batches_replayed_total", "Batches replayed after a crash"
        )
        self.batches = bound("pool_batches_total", "Batches harvested")


class RuntimeObservability:
    """Parent-side observability bundle for pools and their enforcers."""

    def __init__(
        self,
        registry=None,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
        trace_capacity: int = 256,
    ) -> None:
        self.registry = MetricsRegistry() if registry is None else registry
        self.sample_every = max(1, sample_every)
        #: False with the null registry: pools then skip span capture
        #: entirely while call sites still exercise the no-op registry.
        self.enabled = bool(self.registry.enabled)
        self.traces = TraceLog(trace_capacity)
        self.enforcer = EnforcerObservability(self.registry, self.sample_every)
        self.stage_seconds = self.registry.histogram(
            "pool_stage_seconds",
            "Per-stage pool pipeline latency (serialize/ring_write/queue_wait/enforce/fold)",
            labels=("pool", "stage"),
        )
        self.batch_seconds = self.registry.histogram(
            "pool_worker_batch_seconds",
            "Worker-measured enforce time per batch",
            labels=("pool", "worker"),
        )
        self.ipc_seconds = self.registry.histogram(
            "pool_batch_ipc_seconds",
            "Per-batch overhead outside worker compute (pipes, ring, queueing)",
            labels=("pool",),
        )

    def worker_config(self) -> ObsConfig:
        return ObsConfig(sample_every=self.sample_every, null=not self.enabled)

    def bind_pool(self, pool: str) -> _PoolCounters:
        return _PoolCounters(self.registry, pool)

    def merge_worker(self, snapshot: dict) -> None:
        """Fold a worker registry delta piped back with a batch result."""
        if snapshot:
            self.registry.merge_snapshot(snapshot)

    def observe_batch(self, pool: str, worker: int, trace: BatchTrace) -> None:
        """Record one completed batch trace: retain it and feed the
        stage/batch/IPC histograms."""
        self.traces.append(trace)
        enforce_s = 0.0
        total_s = 0.0
        for span in trace.spans:
            self.stage_seconds.labels(pool=pool, stage=span.stage).observe(
                span.duration_s
            )
            total_s += span.duration_s
            if span.stage == "enforce":
                enforce_s = span.duration_s
        self.batch_seconds.labels(pool=pool, worker=str(worker)).observe(enforce_s)
        self.ipc_seconds.labels(pool=pool).observe(max(0.0, total_s - enforce_s))

    def stage_breakdown(self, pool: str | None = None) -> dict[str, float]:
        """Total seconds per pool stage from the registry histograms
        (covers every batch ever observed, unlike the bounded trace log)."""
        hist = self.registry.get("pool_stage_seconds")
        totals: dict[str, float] = {}
        if hist is None or not hasattr(hist, "_series"):
            return totals
        for key in hist._series:
            pool_label, stage = key
            if pool is not None and pool_label != pool:
                continue
            state = hist._series[key]
            totals[stage] = totals.get(stage, 0.0) + state.sum_ns / 1e9
        return totals
