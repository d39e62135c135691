"""Runtime observability: metrics registry, exporters, and the
sampled-stage profiler.

Attach a :class:`RuntimeObservability` to a
:class:`~repro.netstack.sharding.ShardedEnforcer` or
:class:`~repro.core.fleet.GatewayFleet` via ``attach_obs`` and every
enforcer reports sampled per-stage latency into one
:class:`MetricsRegistry`; leave it detached (or use
:data:`NULL_REGISTRY`) and the enforcement loop keeps today's
throughput.
"""

from repro.obs.export import (
    merge_snapshots,
    record_enforcer_stats,
    to_jsonl,
    to_prometheus,
)
from repro.obs.instrument import (
    DEFAULT_SAMPLE_EVERY,
    ENFORCER_STAGES,
    EnforcerObservability,
    RuntimeObservability,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    histogram_quantile,
)
from repro.obs.profiler import render_top

__all__ = [
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "histogram_quantile",
    "to_prometheus",
    "to_jsonl",
    "merge_snapshots",
    "record_enforcer_stats",
    "ENFORCER_STAGES",
    "DEFAULT_SAMPLE_EVERY",
    "EnforcerObservability",
    "RuntimeObservability",
    "render_top",
]
