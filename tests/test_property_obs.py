"""Property-based tests (hypothesis) for the metrics merge algebra.

Snapshot merging depends on one invariant: **folding registry
snapshots into an aggregate is order-independent**.  Snapshots from
separate processes or runs arrive in whatever order they were taken —
and the merged registry must come out identical regardless.  Counters
merge by addition, gauges by high-water maximum, histograms by
elementwise bucket addition; all three are commutative and associative,
and chunking a stream into multiple drained deltas must change nothing
either.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.obs import MetricsRegistry
from repro.obs.export import merge_snapshots, to_prometheus

WORKERS = ("0", "1", "2")
STAGES = ("decode", "eval", "fold")

counter_events = st.tuples(
    st.just("counter"), st.sampled_from(WORKERS), st.integers(1, 1_000)
)
gauge_events = st.tuples(
    st.just("gauge"), st.sampled_from(WORKERS), st.integers(0, 64)
)
histogram_events = st.tuples(
    st.just("histogram"),
    st.sampled_from(STAGES),
    st.floats(min_value=1e-6, max_value=0.5, allow_nan=False),
)
event_streams = st.lists(
    st.one_of(counter_events, gauge_events, histogram_events), max_size=24
)
worker_streams = st.lists(event_streams, min_size=1, max_size=4)


def _apply(registry: MetricsRegistry, events) -> None:
    batches = registry.counter("pool_batches_total", labels=("worker",))
    depth = registry.gauge("queue_depth", labels=("worker",))
    stages = registry.histogram("stage_seconds", labels=("stage",))
    for kind, label, amount in events:
        if kind == "counter":
            batches.inc(amount, worker=label)
        elif kind == "gauge":
            depth.set(amount, worker=label)
        else:
            stages.observe(amount, stage=label)


def _worker_snapshots(streams):
    snapshots = []
    for events in streams:
        registry = MetricsRegistry()
        _apply(registry, events)
        snapshots.append(registry.snapshot())
    return snapshots


def _merged(snapshots):
    parent = MetricsRegistry()
    for snapshot in snapshots:
        parent.merge_snapshot(snapshot)
    return parent


@settings(max_examples=60, deadline=None)
@given(streams=worker_streams, seed=st.integers(0, 2**32 - 1))
def test_merge_order_never_changes_the_parent(streams, seed):
    snapshots = _worker_snapshots(streams)
    shuffled = list(snapshots)
    random.Random(seed).shuffle(shuffled)
    in_order = _merged(snapshots)
    out_of_order = _merged(shuffled)
    assert in_order.snapshot() == out_of_order.snapshot()
    assert to_prometheus(in_order) == to_prometheus(out_of_order)


delta_streams = st.lists(
    st.lists(st.one_of(counter_events, histogram_events), max_size=24),
    min_size=1,
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(streams=delta_streams, splits=st.integers(1, 5))
def test_chunked_drains_equal_one_shot_snapshots(streams, splits):
    # A worker that drains after every few events ships several small
    # deltas; folding them must land on the same parent as one snapshot
    # of the whole stream.  Gauges are excluded by construction: they
    # merge as high-water marks, so a chunk boundary between two ``set``
    # calls legitimately preserves the higher reading instead of the
    # last one.
    one_shot = _merged(_worker_snapshots(streams))
    parent = MetricsRegistry()
    for events in streams:
        registry = MetricsRegistry()
        _apply(registry, ())  # register the families up front
        parent.merge_snapshot(registry.drain())
        step = max(1, len(events) // splits) if events else 1
        for start in range(0, len(events), step):
            _apply(registry, events[start : start + step])
            parent.merge_snapshot(registry.drain())
        # A final empty drain must be a no-op, not a reset.
        parent.merge_snapshot(registry.drain())
    assert parent.snapshot() == one_shot.snapshot()


@settings(max_examples=60, deadline=None)
@given(streams=worker_streams)
def test_merge_snapshots_helper_agrees_with_registry_merge(streams):
    snapshots = _worker_snapshots(streams)
    via_registry = _merged(snapshots).snapshot()
    via_helper = merge_snapshots(snapshots)
    assert to_prometheus(via_helper) == to_prometheus(via_registry)


@settings(max_examples=40, deadline=None)
@given(streams=worker_streams)
def test_merged_histogram_matches_a_registry_that_saw_everything(streams):
    # The quantile read on the folded parent must agree with a single
    # registry fed every observation directly — the fold loses nothing.
    union = MetricsRegistry()
    for events in streams:
        _apply(union, events)
    merged = _merged(_worker_snapshots(streams))
    for registry in (union, merged):
        registry.histogram("stage_seconds", labels=("stage",))
    for stage in STAGES:
        u = union.get("stage_seconds")
        m = merged.get("stage_seconds")
        assert u.count(stage=stage) == m.count(stage=stage)
        if u.count(stage=stage):
            assert u.quantile(0.5, stage=stage) == m.quantile(0.5, stage=stage)
            assert u.quantile(0.99, stage=stage) == m.quantile(0.99, stage=stage)
