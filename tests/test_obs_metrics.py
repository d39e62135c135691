"""Observability substrate: metrics and exports.

Tier-1 coverage for :mod:`repro.obs` — the registry's merge algebra,
the exporters' determinism, and the single-enforcer sampling path (the
sharded and fleet attach paths live in ``tests/test_obs_runtime.py``).
"""

from __future__ import annotations

import json

import pytest

from repro.core.policy import Policy
from repro.core.policy_enforcer import PolicyEnforcer
from repro.experiments.benchmeta import bench_metadata, record_bench_metadata
from repro.experiments.gateway_throughput import (
    DEFAULT_DENY_LIBRARIES,
    build_replay,
    build_signature_database,
)
from repro.obs import (
    LATENCY_BUCKETS,
    NULL_REGISTRY,
    EnforcerObservability,
    MetricsRegistry,
    histogram_quantile,
    merge_snapshots,
    record_enforcer_stats,
    to_jsonl,
    to_prometheus,
)


# -- metric primitives -----------------------------------------------------------------


class TestPrimitives:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", "test", ("kind",))
        counter.inc(kind="a")
        counter.labels(kind="a").inc(2)
        counter.inc(kind="b")
        assert counter.value(kind="a") == 3
        assert counter.value(kind="b") == 1
        assert counter.value(kind="missing") == 0

    def test_gauge_holds_last_set(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(5)
        gauge.set(2)
        assert gauge.value() == 2

    def test_label_schema_is_enforced(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", "test", ("kind",))
        with pytest.raises(ValueError):
            counter.inc(wrong="a")
        with pytest.raises(ValueError):
            registry.gauge("events_total")  # name taken by a counter

    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("c", "help", ("k",))
        assert registry.counter("c", "help", ("k",)) is first
        assert "c" in registry
        assert registry.get("missing") is None

    def test_histogram_buckets_are_log_scaled_with_overflow(self):
        assert LATENCY_BUCKETS[0] == 1e-6
        ratios = {
            round(b / a) for a, b in zip(LATENCY_BUCKETS, LATENCY_BUCKETS[1:])
        }
        assert ratios == {2}
        registry = MetricsRegistry()
        hist = registry.histogram("latency_seconds")
        hist.observe(0.5e-6)  # below the first bound
        hist.observe(1e-3)
        hist.observe(1e9)  # past the last bound: the +Inf slot
        state = hist.state()
        assert len(state.counts) == len(LATENCY_BUCKETS) + 1
        assert state.counts[-1] == 1
        assert state.count == 3

    def test_quantile_follows_upper_bound_convention(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_seconds")
        for _ in range(99):
            hist.observe(1e-3)
        hist.observe(0.1)
        p50 = hist.quantile(0.5)
        p999 = hist.quantile(0.999)
        assert 1e-3 <= p50 < 3e-3  # the bucket bound containing 1 ms
        assert p999 >= 0.1
        assert histogram_quantile(LATENCY_BUCKETS, [0] * 26, 0, 0.5) == 0.0


# -- snapshot / drain / merge ----------------------------------------------------------


class TestMergeAlgebra:
    def test_drain_returns_delta_exactly_once(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(4)
        first = registry.drain()
        assert first["c"]["series"][0]["value"] == 4
        assert registry.drain()["c"]["series"] == []
        # Registration survived the drain.
        registry.counter("c").inc(1)
        assert registry.get("c").value() == 1

    def test_merge_semantics_counter_add_gauge_max_histogram_add(self):
        a = MetricsRegistry()
        a.counter("c").inc(2)
        a.gauge("g").set(5)
        a.histogram("h").observe(1e-3)
        b = MetricsRegistry()
        b.counter("c").inc(3)
        b.gauge("g").set(3)
        b.histogram("h").observe(1e-3)
        a.merge_snapshot(b.snapshot())
        assert a.get("c").value() == 5
        assert a.get("g").value() == 5  # high-water mark, not last-write
        assert a.get("h").count() == 2

    def test_merge_auto_registers_unknown_families(self):
        registry = MetricsRegistry()
        other = MetricsRegistry()
        other.counter("new_total", "fresh", ("k",)).inc(7, k="x")
        registry.merge_snapshot(other.snapshot())
        assert registry.get("new_total").value(k="x") == 7

    def test_merge_rejects_bucket_layout_mismatch(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=(0.1, 1.0))
        b = MetricsRegistry()
        b.histogram("h", buckets=(0.1, 1.0, 10.0)).observe(0.5)
        snapshot = b.snapshot()
        # Same name, different layout: the registration itself refuses.
        with pytest.raises(ValueError):
            a.merge_snapshot(snapshot)

    def test_null_registry_is_inert(self):
        assert NULL_REGISTRY.enabled is False
        child = NULL_REGISTRY.counter("anything", "x", ("k",))
        child.inc(5, k="v")
        child.labels(k="v").observe(1.0)
        assert NULL_REGISTRY.snapshot() == {}
        assert NULL_REGISTRY.drain() == {}
        assert "anything" not in NULL_REGISTRY


# -- exporters -------------------------------------------------------------------------


class TestExports:
    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", "All requests", ("code",)).inc(3, code="200")
        registry.histogram("latency_seconds", buckets=(0.1, 1.0)).observe(0.05)
        text = to_prometheus(registry)
        assert '# TYPE requests_total counter' in text
        assert 'requests_total{code="200"} 3' in text
        assert 'latency_seconds_bucket{le="0.1"} 1' in text
        assert 'latency_seconds_bucket{le="+Inf"} 1' in text
        assert "latency_seconds_count 1" in text

    def test_jsonl_round_trips_through_merge(self):
        registry = MetricsRegistry()
        registry.counter("c", "x", ("k",)).inc(2, k="a")
        lines = to_jsonl(registry).strip().splitlines()
        parsed = {
            row["name"]: {k: v for k, v in row.items() if k != "name"}
            for row in map(json.loads, lines)
        }
        merged = merge_snapshots([parsed, parsed])
        assert merged["c"]["series"][0]["value"] == 4

    def test_record_enforcer_stats_projects_counters_to_gauges(self):
        database = build_signature_database(corpus_apps=2, seed=7)
        policy = Policy.deny_libraries(DEFAULT_DENY_LIBRARIES, name="obs-test")
        enforcer = PolicyEnforcer(database=database, policy=policy, keep_records=False)
        for packet in build_replay(database.entries(), packets=40, flows=8, seed=7):
            enforcer.process(packet)
        registry = MetricsRegistry()
        record_enforcer_stats(
            registry, enforcer.stats, source="gw0", flow_cache_len=3
        )
        assert registry.get("enforcer_packets_seen").value(source="gw0") == 40
        assert registry.get("flow_cache_entries").value(source="gw0") == 3


# -- enforcer sampling ---------------------------------------------------------------


class TestEnforcerSampling:
    def test_sampled_stages_record_without_changing_verdicts(self):
        database = build_signature_database(corpus_apps=3, seed=7)
        replay = build_replay(database.entries(), packets=200, flows=16, seed=7)
        policy = Policy.deny_libraries(DEFAULT_DENY_LIBRARIES, name="obs-test")
        plain = PolicyEnforcer(database=database, policy=policy, keep_records=False)
        observed = PolicyEnforcer(database=database, policy=policy, keep_records=False)
        registry = MetricsRegistry()
        observed.attach_observability(EnforcerObservability(registry, sample_every=8))
        baseline = [plain.process(packet)[0] for packet in replay]
        verdicts = [observed.process(packet)[0] for packet in replay]
        assert verdicts == baseline
        hist = registry.get("enforcer_stage_seconds")
        total = sum(state.count for state in hist._series.values())
        # 200 packets at 1/8 sampling: 25 sampled packets, >=1 mark each.
        assert total >= 25

    def test_null_observability_keeps_the_path_silent(self):
        database = build_signature_database(corpus_apps=2, seed=7)
        replay = build_replay(database.entries(), packets=50, flows=8, seed=7)
        policy = Policy.deny_libraries(DEFAULT_DENY_LIBRARIES, name="obs-test")
        enforcer = PolicyEnforcer(database=database, policy=policy, keep_records=False)
        enforcer.attach_observability(
            EnforcerObservability(NULL_REGISTRY, sample_every=4)
        )
        for packet in replay:
            enforcer.process(packet)
        assert NULL_REGISTRY.snapshot() == {}


# -- bench metadata (satellite) --------------------------------------------------------


class TestBenchMetadata:
    def test_metadata_fields(self):
        meta = bench_metadata(smoke=True)
        assert meta["smoke"] is True
        assert meta["cpus"] >= 1
        assert meta["python"].count(".") == 2
        assert isinstance(meta["platform"], str)

    def test_record_stamps_host_block(self):
        extra: dict = {}
        returned = record_bench_metadata(extra, smoke=False)
        assert extra["host"] == returned
        assert extra["host"]["smoke"] is False
