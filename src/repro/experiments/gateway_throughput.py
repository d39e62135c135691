"""Gateway fast-path throughput: naive vs compiled vs flow-cached vs sharded.

The paper's border-side bottleneck is the per-packet user-space NFQUEUE
path (§V-C; Figure 4 attributes ~+1 ms to the Python consumer).  This
driver measures how far the production-gateway techniques — policy
compilation to raw index sets, a conntrack-style flow cache, and
``--queue-balance`` flow sharding — push packets-per-second over the
same replay, and verifies all paths are verdict-identical:

* ``naive``     — per-packet decode + string-matched policy evaluation
  (the prototype's pipeline);
* ``compiled``  — :meth:`repro.core.policy.Policy.compile` lowers rules
  to per-app method-index sets, so evaluation is integer set membership;
* ``cached``    — compiled plus the :class:`~repro.core.policy_enforcer.FlowCache`,
  so repeated packets of a flow skip decode and evaluation entirely;
* ``sharded-N`` — ``cached`` fanned out over N enforcer shards by flow
  hash; reported throughput models the parallel deployment (the burst's
  wall-clock is the slowest shard, see
  :class:`repro.netstack.sharding.BatchResult`).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.core.database import DatabaseEntry, SignatureDatabase
from repro.core.encoding import StackTraceEncoder
from repro.core.offline_analyzer import OfflineAnalyzer
from repro.core.policy import Policy
from repro.core.policy_enforcer import PolicyEnforcer
from repro.experiments.common import format_churn_by_app, format_table
from repro.netstack.ip import IPPacket
from repro.netstack.netfilter import Verdict
from repro.netstack.sharding import ShardedEnforcer
from repro.workloads.corpus import CorpusConfig, CorpusGenerator

#: Library prefixes the replay policy blacklists (all in the builtin
#: catalogue, so a realistic share of replay flows is denied).
DEFAULT_DENY_LIBRARIES = (
    "com/flurry",
    "com/google/android/gms/ads",
    "com/mixpanel/android",
    "com/crashlytics/android",
)


@dataclass(frozen=True)
class ReplayFlow:
    """One synthetic flow: a 5-tuple plus the context tag its packets carry."""

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    app_id: str
    indexes: tuple[int, ...]


@dataclass
class GatewayConfigResult:
    """Throughput and counter snapshot for one enforcement configuration."""

    name: str
    packets: int
    wall_s: float
    verdicts: tuple[Verdict, ...]
    full_decodes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    compiled_evals: int = 0
    fallback_evals: int = 0
    #: Integrity failures: tag-less packets, tags naming no enrolled app,
    #: and tags whose indexes fail to decode (previously only visible by
    #: walking raw enforcement records).
    untagged_packets: int = 0
    unknown_apps: int = 0
    decode_errors: int = 0
    shard_packet_counts: tuple[int, ...] = ()
    #: Flow-cache entries lost per app (invalidations + LRU evictions).
    churn_by_app: dict = field(default_factory=dict)

    @property
    def pps(self) -> float:
        """Modelled packets per second (parallel wall-clock for shards)."""
        return self.packets / self.wall_s if self.wall_s > 0 else float("inf")


@dataclass
class GatewayBenchResult:
    """All configurations measured over one identical packet replay."""

    packets: int
    flows: int
    results: dict[str, GatewayConfigResult] = field(default_factory=dict)

    def pps(self, name: str) -> float:
        return self.results[name].pps

    def speedup(self, name: str, baseline: str = "naive") -> float:
        return self.pps(name) / self.pps(baseline)

    @property
    def verdicts_match(self) -> bool:
        """True when every configuration produced the identical verdict sequence."""
        sequences = [result.verdicts for result in self.results.values()]
        return all(sequence == sequences[0] for sequence in sequences[1:])

    def table(self) -> str:
        rows = []
        for name, result in self.results.items():
            rows.append(
                (
                    name,
                    result.packets,
                    f"{result.wall_s * 1e3:.1f}",
                    f"{result.pps / 1e3:.1f}",
                    f"{self.speedup(name):.2f}x",
                    result.full_decodes,
                    result.cache_hits,
                )
            )
        table = format_table(
            (
                "configuration",
                "packets",
                "wall (ms)",
                "kpps",
                "vs naive",
                "full decodes",
                "cache hits",
            ),
            rows,
        )
        churn: dict[str, int] = {}
        for result in self.results.values():
            for app, count in result.churn_by_app.items():
                churn[app] = churn.get(app, 0) + count
        # Every configuration processes the identical replay, so the
        # integrity counters agree across rows; report them once.
        integrity = (
            max((r.untagged_packets for r in self.results.values()), default=0),
            max((r.unknown_apps for r in self.results.values()), default=0),
            max((r.decode_errors for r in self.results.values()), default=0),
        )
        lines = [
            table,
            f"flow-cache churn by app: {format_churn_by_app(churn)}",
            "integrity outcomes: %d untagged, %d unknown-app, %d decode-failure"
            % integrity,
        ]
        lines.append(f"all paths verdict-identical: {self.verdicts_match}")
        return "\n".join(lines)


def build_signature_database(corpus_apps: int = 6, seed: int = 7) -> SignatureDatabase:
    """A database populated from a small deterministic corpus."""
    database = SignatureDatabase()
    generator = CorpusGenerator(CorpusConfig(n_apps=corpus_apps, seed=seed))
    OfflineAnalyzer(database).analyze_batch([app.apk for app in generator.generate()])
    return database


def build_replay(
    entries: list[DatabaseEntry],
    packets: int,
    flows: int,
    seed: int = 7,
    index_width=None,
) -> list[IPPacket]:
    """A deterministic replay of ``packets`` spread over ``flows`` flows.

    Flow popularity is skewed (heavy-tailed, like real gateway traffic)
    so the flow cache has both hot flows and a long tail.  Every packet
    of a flow carries the same tag bytes, matching how the Context
    Manager tags per socket.
    """
    if not entries:
        raise ValueError("need at least one database entry to build a replay")
    rng = random.Random(seed)
    encoder = StackTraceEncoder() if index_width is None else StackTraceEncoder(index_width)

    replay_flows: list[ReplayFlow] = []
    for flow_index in range(flows):
        entry = rng.choice(entries)
        depth = rng.randint(2, 6)
        indexes = tuple(rng.randrange(entry.method_count) for _ in range(depth))
        replay_flows.append(
            ReplayFlow(
                src_ip=f"10.10.{flow_index % 32}.{2 + flow_index % 200}",
                src_port=20000 + flow_index,
                dst_ip=f"203.0.113.{1 + flow_index % 200}",
                dst_port=443,
                app_id=entry.app_id,
                indexes=indexes,
            )
        )

    weights = [1.0 / (1 + rank) for rank in range(flows)]
    chosen = rng.choices(replay_flows, weights=weights, k=packets)
    replay: list[IPPacket] = []
    for flow in chosen:
        replay.append(
            IPPacket(
                src_ip=flow.src_ip,
                dst_ip=flow.dst_ip,
                src_port=flow.src_port,
                dst_port=flow.dst_port,
                payload_size=512,
                options=encoder.encode_option(flow.app_id, flow.indexes),
            )
        )
    return replay


def _snapshot(name: str, packets: int, wall_s: float, verdicts, stats) -> GatewayConfigResult:
    return GatewayConfigResult(
        name=name,
        packets=packets,
        wall_s=wall_s,
        verdicts=tuple(verdicts),
        full_decodes=stats.full_decodes,
        cache_hits=stats.cache_hits,
        cache_misses=stats.cache_misses,
        compiled_evals=stats.compiled_evals,
        fallback_evals=stats.fallback_evals,
        untagged_packets=stats.untagged_packets,
        unknown_apps=stats.unknown_apps,
        decode_errors=stats.decode_errors,
        churn_by_app=dict(stats.cache_churn_by_app),
    )


def run_gateway_bench(
    packets: int = 10_000,
    flows: int = 256,
    shards: int = 4,
    corpus_apps: int = 6,
    seed: int = 7,
    keep_records: bool = True,
    policy: Policy | None = None,
) -> GatewayBenchResult:
    """Measure every enforcement path over one identical replay.

    Sharded rows report the modelled parallel wall (slowest shard).
    """
    if packets < 1:
        raise ValueError("the replay needs at least one packet")
    if flows < 1:
        raise ValueError("the replay needs at least one flow")
    if shards < 1:
        raise ValueError("need at least one enforcer shard")
    if corpus_apps < 1:
        raise ValueError("the signature database needs at least one corpus app")
    database = build_signature_database(corpus_apps=corpus_apps, seed=seed)
    replay = build_replay(database.entries(), packets=packets, flows=flows, seed=seed)
    if policy is None:
        policy = Policy.deny_libraries(DEFAULT_DENY_LIBRARIES, name="gateway-bench")
    result = GatewayBenchResult(packets=len(replay), flows=flows)

    single_queue = {
        "naive": dict(compile_policy=False, flow_cache_size=0),
        "compiled": dict(compile_policy=True, flow_cache_size=0),
        "cached": dict(compile_policy=True, flow_cache_size=4096),
    }
    for name, kwargs in single_queue.items():
        enforcer = PolicyEnforcer(
            database=database, policy=policy, keep_records=keep_records, **kwargs
        )
        started = time.perf_counter()
        processed = enforcer.process_batch(replay)
        wall_s = time.perf_counter() - started
        result.results[name] = _snapshot(
            name, len(replay), wall_s, (verdict for verdict, _ in processed), enforcer.stats
        )

    for num_shards in sorted({1, shards}):
        name = f"sharded-{num_shards}"
        sharded = ShardedEnforcer(
            database=database,
            policy=policy,
            num_shards=num_shards,
            keep_records=keep_records,
        )
        batch = sharded.process_batch_timed(replay)
        snapshot = _snapshot(
            name,
            batch.packets,
            batch.parallel_wall_s,
            (verdict for verdict, _ in batch.results),
            sharded.aggregate_stats(),
        )
        snapshot.shard_packet_counts = tuple(batch.shard_packet_counts)
        result.results[name] = snapshot

    return result
