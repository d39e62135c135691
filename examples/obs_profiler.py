#!/usr/bin/env python3
"""Watching a sharded gateway run: sampled stages, the top view, the export.

A :class:`ShardedEnforcer` replays a batched trace with a
:class:`RuntimeObservability` attached, and we read what the
instrumentation captures:

1. **sampled stages** — every 16th packet carries perf_counter stage
   marks (extract, decode, eval, ...) into one shared histogram, across
   every shard;
2. **the top view** — ``render_top`` turns the registry plus the
   enforcer's counters into the ``obs`` CLI's terminal frame: samples,
   p50/p99 and total time per stage;
3. **the export** — the registry serializes to Prometheus text and
   JSONL, ready for a scrape endpoint or a trajectory file.

Run with:  python examples/obs_profiler.py
"""

from repro.core.policy import Policy
from repro.experiments.common import split_into_bursts
from repro.experiments.gateway_throughput import (
    DEFAULT_DENY_LIBRARIES,
    build_replay,
    build_signature_database,
)
from repro.netstack.sharding import ShardedEnforcer
from repro.obs import RuntimeObservability, record_enforcer_stats, render_top, to_prometheus


def main() -> None:
    database = build_signature_database(corpus_apps=4, seed=7)
    replay = build_replay(database.entries(), packets=2_000, flows=64, seed=11)
    policy = Policy.deny_libraries(DEFAULT_DENY_LIBRARIES, name="obs-example")

    # -- 1. attach observability, then replay in bursts.  No flow cache,
    # so every packet is decoded and evaluated.
    obs = RuntimeObservability(sample_every=16)
    enforcer = ShardedEnforcer(
        database=database,
        policy=policy,
        num_shards=2,
        keep_records=False,
        flow_cache_size=0,
    )
    enforcer.attach_obs(obs)

    bursts = [burst for burst in split_into_bursts(replay, 8) if burst]
    measured = sum(enforcer.process_batch_timed(burst).measured_wall_s for burst in bursts)
    print(f"replayed {len(replay)} packets in {len(bursts)} bursts: "
          f"{measured * 1e3:.1f} ms measured\n")

    # -- 2. the top view: what `python -m repro.cli obs` renders live.
    print(render_top(obs, title="obs walkthrough", stats=enforcer.aggregate_stats()))

    # -- 3. the export: the registry plus the enforcer counters, scrape-ready.
    record_enforcer_stats(obs.registry, enforcer.aggregate_stats(), source="gw0")
    lines = to_prometheus(obs.registry).splitlines()
    print(f"\nprometheus export: {len(lines)} lines; sampled stage counts:")
    for line in lines:
        if line.startswith("enforcer_stage_seconds_count"):
            print(f"  {line}")


if __name__ == "__main__":
    main()
