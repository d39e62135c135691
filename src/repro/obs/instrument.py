"""Instrumentation glue between the registry and the runtime hot paths.

Two cost tiers, chosen so today's throughput survives:

* **Detached** (the default): ``PolicyEnforcer._obs is None`` — one
  attribute load and an ``is None`` branch per packet, nothing else.
* **Attached**: per-packet work is a counter tick; every
  ``sample_every``-th packet additionally collects perf_counter stage
  marks in ``PolicyEnforcer.process_batch`` (extract, cache_lookup) and,
  on a cache miss, ``PolicyEnforcer._decide`` (decode, eval, cache_put),
  and feeds the ``enforcer_stage_seconds`` histogram.  Attaching with
  :data:`~repro.obs.metrics.NULL_REGISTRY` keeps the full instrumented code path while every observation is a
  no-op — that is the "null registry" overhead the obs bench bounds.

:class:`RuntimeObservability` is the bundle a ``ShardedEnforcer`` or
``GatewayFleet`` attaches: it owns the registry and the shared
:class:`EnforcerObservability`, and sums the sampled stage histogram
back into per-stage totals for reports.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "ENFORCER_STAGES",
    "DEFAULT_SAMPLE_EVERY",
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


class RuntimeObservability:
    """The registry plus the enforcer sampling that reports into it."""

    def __init__(self, registry=None, sample_every: int = DEFAULT_SAMPLE_EVERY) -> None:
        self.registry = MetricsRegistry() if registry is None else registry
        self.sample_every = max(1, sample_every)
        self.enforcer = EnforcerObservability(self.registry, self.sample_every)

    def stage_breakdown(self) -> dict[str, tuple[int, float]]:
        """``stage -> (samples, total seconds)`` for every sampled
        enforcer stage, in pipeline order (stages never reached are
        left out; empty with the null registry)."""
        hist = self.registry.get("enforcer_stage_seconds")
        if hist is None:
            return {}
        return {
            stage: (hist.count(stage=stage), hist.sum_seconds(stage=stage))
            for stage in ENFORCER_STAGES
            if hist.count(stage=stage)
        }
