"""The four benchmark workloads.

Every workload builds its deployment through the program's public API,
makes its inputs from the seed, and runs fixed-size rounds of
closed-loop operations:

* a gateway burst is a saturated NFQUEUE handing the consumer 256
  packets and waiting for every verdict;
* a device request is one app thread waiting for its reply.

Nothing crosses a real link: the whole packet path is the in-process
simulation.  Payload bytes are never materialised (``payload_size`` only
feeds telemetry volumes), so packet size is not a cost dimension; flow
reuse, tag reuse and stack depth are.

The benchmark sets deployment shape only (gateway count,
``keep_records``, policy) and passes no execution options, so a change
to how the program executes is measured by this same code.

Each operation's outcome is kept compactly for the verdict oracle
(:mod:`oracle`), which runs after the timed window.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

from repro import (
    BorderPatrolDeployment,
    Policy,
    PolicyAction,
    PolicyLevel,
    PolicyRule,
    PolicyUpdate,
    StackTraceEncoder,
)
from repro.core.policy_enforcer import EnforcerStats
from repro.netstack.ip import IPPacket
from repro.network.capture import CapturePoint
from repro.ops.console import OperatorControlPlane, online_detector_factory
from repro.telemetry.pipeline import FleetAuditor
from repro.workloads.corpus import CorpusConfig, CorpusGenerator
from repro.workloads.fleet import DeviceFleet, DeviceFleetConfig

from oracle import DeviceOutcomes, ReferenceVerdicts, VerdictLog, leaked_option_packets

#: Packets per gateway burst: one saturated NFQUEUE hand-off.
BURST = 256
#: Apps in the benchmark corpus.
CORPUS_APPS = 8
#: The corpus, the policy and the device population (which apps each
#: device runs) are the deployment's fixed configuration; the run seed
#: samples only the traffic (flows, tags, request schedules, the fleet
#: trace), so seeds vary the inputs without changing the workload's
#: character -- runs with different seeds must agree within the bounds.
CONFIG_SEED = 7


@dataclass
class RoundResult:
    """One fixed-size round of closed-loop operations."""

    #: Packets (gateway workloads) or requests (device workload) done.
    ops: int = 0
    #: Sum of the walls of the round's operations (bursts, their
    #: ``drive()`` and commits, or invokes) -- harness bookkeeping
    #: between operations is excluded.
    wall_s: float = 0.0
    #: Wall of each closed-loop operation: a burst or one request.
    latencies_s: list[float] = field(default_factory=list)
    #: Wall of each policy commit (fleet-churn only).
    commits_s: list[float] = field(default_factory=list)
    #: Operations inside a call that raised.
    raised: int = 0


class SetupClock:
    """Set-up stopwatch that leaves out input generation."""

    def __init__(self) -> None:
        self.started = perf_counter()
        self.excluded_s = 0.0

    @contextmanager
    def excluded(self):
        started = perf_counter()
        try:
            yield
        finally:
            self.excluded_s += perf_counter() - started

    def elapsed(self) -> float:
        return perf_counter() - self.started - self.excluded_s


# -- inputs ------------------------------------------------------------------------


def corpus() -> list:
    """The benchmark's app corpus (8 BUSINESS/PRODUCTIVITY apps)."""
    return CorpusGenerator(CorpusConfig(n_apps=CORPUS_APPS, seed=CONFIG_SEED)).generate()


def bench_policy(apps: list) -> Policy:
    """Deny every other third-party library the corpus bundles.

    Gives every workload a mix of accepted and dropped verdicts, so the
    oracle checks both outcomes.
    """
    libraries = sorted({library for app in apps for library in app.libraries})
    return Policy.deny_libraries(libraries[::2], name="bench-deny")


def app_deny_rule(app) -> PolicyRule:
    """The per-app rule fleet-churn toggles: deny the app's own package."""
    return PolicyRule(PolicyAction.DENY, PolicyLevel.LIBRARY, app.package_name)


def random_tag(rng: random.Random, entry, encoder: StackTraceEncoder):
    """A context tag for a random stack of depth 2-6 over one app's methods."""
    depth = rng.randint(2, 6)
    indexes = [rng.randrange(entry.method_count) for _ in range(depth)]
    return encoder.encode_option(entry.app_id, indexes)


def _server_ip(index: int) -> str:
    return f"198.51.100.{index % 250 + 1}"


def hot_replay(entries: list, seed: int, packets: int, flows: int = 256) -> list[IPPacket]:
    """A heavy-tailed (Zipf, s=1) replay of ``packets`` over ``flows`` flows.

    ``entries`` are signature-database entries; every flow carries one
    random-stack tag of one enrolled app, like a Context-Manager-tagged
    socket.
    """
    rng = random.Random(seed)
    encoder = StackTraceEncoder()
    specs = [
        (
            f"10.10.{flow // 250}.{flow % 250 + 2}",
            30000 + flow,
            _server_ip(rng.randrange(64)),
            rng.randint(64, 1400),
            random_tag(rng, rng.choice(entries), encoder),
        )
        for flow in range(flows)
    ]
    weights = [1.0 / (rank + 1) for rank in range(flows)]
    chosen = rng.choices(specs, weights=weights, k=packets)
    return [
        IPPacket(
            src_ip=src_ip,
            dst_ip=dst_ip,
            src_port=src_port,
            dst_port=443,
            payload_size=payload,
            options=options,
            packet_id=packet_id,
        )
        for packet_id, (src_ip, src_port, dst_ip, payload, options) in enumerate(chosen)
    ]


def cold_replay(
    entries: list,
    seed: int,
    packets: int,
    tag_pool: int = 20000,
    interleave: int = 64,
) -> list[IPPacket]:
    """Short flows (1-4 packets, fresh 5-tuple each), at most ``interleave``
    in flight at once, tags drawn from a pool of ``tag_pool`` random stacks.

    Only packets after the first of a flow can hit a flow cache, so the
    expected hit ratio is 1 - 1/2.5 = 60%.
    """
    rng = random.Random(seed)
    encoder = StackTraceEncoder()
    pool = [random_tag(rng, rng.choice(entries), encoder) for _ in range(tag_pool)]
    next_flow = 0

    def new_flow() -> list:
        nonlocal next_flow
        flow = next_flow
        next_flow += 1
        return [
            f"10.{20 + flow // 62500}.{flow // 250 % 250}.{flow % 250 + 2}",
            1024 + flow % 60000,
            _server_ip(rng.randrange(64)),
            rng.choice(pool),
            rng.randint(1, 4),
        ]

    active = [new_flow() for _ in range(interleave)]
    replay: list[IPPacket] = []
    for packet_id in range(packets):
        slot = rng.randrange(interleave)
        src_ip, src_port, dst_ip, options, remaining = active[slot]
        replay.append(
            IPPacket(
                src_ip=src_ip,
                dst_ip=dst_ip,
                src_port=src_port,
                dst_port=443,
                payload_size=512,
                options=options,
                packet_id=packet_id,
            )
        )
        if remaining == 1:
            active[slot] = new_flow()
        else:
            active[slot][4] = remaining - 1
    return replay


def fleet_trace(flows: list, seed: int, packets: int) -> list[IPPacket]:
    """``packets`` drawn from a device fleet's flows by their heavy-tailed
    weights -- ``DeviceFleet.build_trace`` with the run seed in place of
    the fleet's own."""
    rng = random.Random(seed)
    chosen = rng.choices(flows, weights=[flow.weight for flow in flows], k=packets)
    return [
        IPPacket(
            src_ip=flow.src_ip,
            dst_ip=flow.dst_ip,
            src_port=flow.src_port,
            dst_port=flow.dst_port,
            payload_size=flow.payload_size,
            options=flow.options,
            packet_id=packet_id,
        )
        for packet_id, flow in enumerate(chosen)
    ]


def into_bursts(replay: list[IPPacket]) -> list[list[IPPacket]]:
    return [replay[start : start + BURST] for start in range(0, len(replay), BURST)]


def _sized(count: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(count * scale))


# -- workloads ---------------------------------------------------------------------


class Workload:
    """Set-up, one round of work, and the oracle check for one workload."""

    name = ""

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale
        self.raised = 0

    def setup(self, clock: SetupClock) -> None:
        raise NotImplementedError

    def run_round(self, tracer=None) -> RoundResult:
        raise NotImplementedError

    def start_counters(self) -> None:
        """Snapshot program counters at the start of the timed rounds."""

    def counters(self) -> dict[str, float]:
        """Per-layer ratios read from public stats since :meth:`start_counters`."""
        return {}

    def check(self) -> tuple[int, int]:
        """(operations checked, operations failed), after the timed window."""
        raise NotImplementedError


def _enforcer_ratios(stats, commits: int = 0) -> dict[str, float]:
    seen = stats.packets_seen
    lookups = stats.cache_hits + stats.cache_misses
    ratios = {
        "policy_enforcer.cache_hit_ratio": stats.cache_hits / lookups if lookups else 0.0,
        "policy_enforcer.full_decodes_per_pkt": stats.full_decodes / seen if seen else 0.0,
        "policy_enforcer.cache_evictions_per_pkt": (
            stats.cache_evictions / seen if seen else 0.0
        ),
        "policy_enforcer.integrity_failures_per_pkt": (
            (stats.untagged_packets + stats.unknown_apps + stats.decode_errors) / seen
            if seen
            else 0.0
        ),
        "policy_store.apps_recompiled_per_commit": (
            stats.apps_recompiled / commits if commits else 0.0
        ),
        "policy_store.entries_invalidated_per_commit": (
            stats.cache_entries_invalidated / commits if commits else 0.0
        ),
        "pool.ring_batches": float(stats.pool_ring_batches),
        "pool.pickled_batches": float(stats.pool_pickled_batches),
        "pool.worker_crashes": float(stats.pool_worker_crashes),
    }
    return ratios


class _GatewayReplay(Workload):
    """Set-up and round loop shared by workloads that replay bursts at a gateway."""

    round_bursts = 0
    #: Bursts run during set-up, filling the flow cache's hot entries.
    warmup_bursts = 16

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        self.bursts: list[list[IPPacket]] = []
        self.position = 0
        self.verdicts = VerdictLog()

    def _replay(self, entries: list) -> list[IPPacket]:
        raise NotImplementedError

    def setup(self, clock: SetupClock) -> None:
        with clock.excluded():
            apps = corpus()
        self.deployment = BorderPatrolDeployment(policy=bench_policy(apps), keep_records=False)
        self.deployment.enroll_apps([app.apk for app in apps])
        with clock.excluded():
            entries = sorted(
                self.deployment.database.entries(), key=lambda entry: entry.package_name
            )
            self.bursts = into_bursts(self._replay(entries))
            self.reference = ReferenceVerdicts(
                self.deployment.database, {0: bench_policy(apps)}
            )
        process_batch = self.deployment.enforcer.process_batch
        for position in range(self.warmup_bursts):
            process_batch(self.bursts[position % len(self.bursts)])
        self.position = self.warmup_bursts % len(self.bursts)

    def run_round(self, tracer=None) -> RoundResult:
        result = RoundResult()
        process_batch = self.deployment.enforcer.process_batch
        bursts = self.bursts
        log = self.verdicts
        for _ in range(_sized(self.round_bursts, self.scale, 2)):
            position = self.position
            burst = bursts[position]
            self.position = (position + 1) % len(bursts)
            if tracer is not None:
                tracer.begin_op(len(burst))
            started = perf_counter()
            try:
                results = process_batch(burst)
            except Exception:
                result.raised += len(burst)
                continue
            finally:
                elapsed = perf_counter() - started
            result.wall_s += elapsed
            result.latencies_s.append(elapsed)
            result.ops += len(burst)
            log.add((0, position), [verdict for verdict, _ in results])
        self.raised += result.raised
        return result

    def start_counters(self) -> None:
        self._stats_start = self.deployment.enforcer.stats.copy()

    def counters(self) -> dict[str, float]:
        return _enforcer_ratios(self.deployment.enforcer.stats.delta_since(self._stats_start))

    def check(self) -> tuple[int, int]:
        checked, failed = self.verdicts.check(self.reference, self.bursts)
        return checked + self.raised, failed + self.raised


class HotFlows(_GatewayReplay):
    """Single gateway, no telemetry, 256 Zipf-popular flows: ~100% cache hits.

    Isolates the flow-cache hit path (extract, lookup, record build).
    """

    name = "hot-flows"
    round_bursts = 100

    def _replay(self, entries: list) -> list[IPPacket]:
        return hot_replay(entries, self.seed, _sized(128, self.scale, 32) * BURST)


class ColdFlows(_GatewayReplay):
    """The same gateway fed short flows over 20k random stacks.

    The working set is far above the 4,096-entry flow cache, so decode,
    compiled evaluation and cache put/evict dominate.
    """

    name = "cold-flows"
    round_bursts = 40

    def _replay(self, entries: list) -> list[IPPacket]:
        return cold_replay(
            entries,
            self.seed + 1,
            _sized(128, self.scale, 32) * BURST,
            tag_pool=_sized(20000, self.scale),
        )


class DeviceRequests(Workload):
    """16 devices, each running 1-3 of the 8 corpus apps; uniform invokes.

    The full device path: hook, ``getStackTrace``, resolve, encode,
    ``setsockopt``, iptables/NFQUEUE, sanitizer, routers, server.  Every
    request opens a fresh socket, so flows are never reused but tags are.
    """

    name = "device-requests"
    devices = 16
    round_requests = 500

    def setup(self, clock: SetupClock) -> None:
        with clock.excluded():
            apps = corpus()
            population = random.Random(CONFIG_SEED)
            rng = random.Random(self.seed + 2)
        deployment = BorderPatrolDeployment(policy=bench_policy(apps))
        CorpusGenerator.register_endpoints(deployment.network, apps)
        deployment.enroll_apps([app.apk for app in apps])
        processes = []
        for index in range(self.devices):
            provisioned = deployment.provision_device(name=f"bench-{index:02d}")
            for app in population.sample(apps, population.randint(1, 3)):
                provisioned.device.install(app.apk, app.behavior)
                processes.append(provisioned.device.launch(app.package_name))
        self.deployment = deployment
        self.pairs = [
            (process, functionality)
            for process in processes
            for functionality in process.behavior
        ]
        with clock.excluded():
            self.schedule = [rng.randrange(len(self.pairs)) for _ in range(16384)]
            self.cursor = 0
            self.outcomes = DeviceOutcomes(len(self.pairs))
            self.reference = ReferenceVerdicts(deployment.database, {0: bench_policy(apps)})
            self.warm_packets: list[IPPacket | None] = []
        records = deployment.network.capture.records
        for process, functionality in self.pairs:
            process.invoke(functionality)
            with clock.excluded():
                self.warm_packets.append(
                    next(
                        (
                            captured.packet
                            for captured in reversed(records)
                            if captured.point is CapturePoint.PRE_ENFORCER
                        ),
                        None,
                    )
                )
        with clock.excluded():
            deployment.reset_observations()

    def run_round(self, tracer=None) -> RoundResult:
        result = RoundResult()
        pairs = self.pairs
        schedule = self.schedule
        observe = self.outcomes.observe
        for _ in range(_sized(self.round_requests, self.scale)):
            pair = schedule[self.cursor]
            self.cursor = (self.cursor + 1) % len(schedule)
            process, functionality = pairs[pair]
            if tracer is not None:
                tracer.begin_op()
            started = perf_counter()
            try:
                outcome = process.invoke(functionality)
            except Exception:
                result.raised += 1
                continue
            finally:
                elapsed = perf_counter() - started
            result.wall_s += elapsed
            result.latencies_s.append(elapsed)
            result.ops += 1
            observe(pair, outcome)
        self.raised += result.raised
        # Keep the simulation's observation logs bounded: check what the
        # servers received, fold the round's enforcer counters, then clear.
        self.outcomes.leaked += leaked_option_packets(self.deployment.network.servers.values())
        self._stats.merge(self.deployment.enforcer.stats)
        self.deployment.reset_observations()
        return result

    def start_counters(self) -> None:
        self._stats = EnforcerStats()
        managers = [provisioned.context_manager for provisioned in self.deployment.devices]
        self._frames_start = [
            (manager.stats.frames_seen, manager.stats.frames_mapped) for manager in managers
        ]

    def counters(self) -> dict[str, float]:
        seen = mapped = 0
        for provisioned, (seen_start, mapped_start) in zip(
            self.deployment.devices, self._frames_start
        ):
            seen += provisioned.context_manager.stats.frames_seen - seen_start
            mapped += provisioned.context_manager.stats.frames_mapped - mapped_start
        ratios = _enforcer_ratios(self._stats)
        ratios["context_manager.frames_mapped_ratio"] = mapped / seen if seen else 0.0
        return ratios

    def check(self) -> tuple[int, int]:
        checked, failed = self.outcomes.check(self.reference, self.warm_packets)
        return checked + self.raised, failed + self.raised


class FleetChurn(_GatewayReplay):
    """2 gateways, 120 devices, live telemetry and a commit every 2 bursts.

    Writes beside reads: each commit toggles one app's deny rule
    (rotating over the corpus), invalidating that app's flow-cache
    entries under read load, and ``drive()`` runs the operator tick
    after every burst.
    """

    name = "fleet-churn"
    round_bursts = 6
    commit_every = 2
    devices = 120
    #: Enough bursts to fill both gateways' 4,096-packet telemetry windows
    #: and start the online baselines; until then bursts run up to 3x
    #: faster than in the steady state the timed rounds measure.
    warmup_bursts = 48

    def setup(self, clock: SetupClock) -> None:
        with clock.excluded():
            self.apps = corpus()
        base = bench_policy(self.apps)
        deployment = BorderPatrolDeployment(policy=base, num_gateways=2, keep_records=False)
        fleet = DeviceFleet(
            deployment,
            self.apps,
            DeviceFleetConfig(devices=_sized(self.devices, self.scale, 12), seed=CONFIG_SEED),
        )
        fleet.provision()
        with clock.excluded():
            self.bursts = into_bursts(
                fleet_trace(fleet.build_flows(), self.seed, _sized(128, self.scale, 32) * BURST)
            )
            self.base = base
            self.reference = ReferenceVerdicts(deployment.database, {})
            self.denied: set[int] = set()
            self.state_ids: dict[frozenset, int] = {}
            self.commits = 0
            self.bursts_done = 0
            self.buffer_depth_max = 0
        self.auditor = FleetAuditor(
            detector_factory=online_detector_factory(provisioned=fleet.provisioning_map())
        )
        self.console = OperatorControlPlane(self.auditor)
        deployment.attach_ops(self.console)
        self.deployment = deployment
        for position in range(self.warmup_bursts):
            deployment.fleet.process_batch_timed(self.bursts[position % len(self.bursts)])
            self.console.drive()
        self.position = self.warmup_bursts % len(self.bursts)

    def _state(self) -> int:
        """Id of the policy in force; registers its reference policy."""
        key = frozenset(self.denied)
        state = self.state_ids.get(key)
        if state is None:
            state = self.state_ids[key] = len(self.state_ids)
            rules = list(self.base.rules) + [
                app_deny_rule(self.apps[index]) for index in sorted(self.denied)
            ]
            self.reference.add_policy(state, Policy(rules=rules, name=f"churn-{state}"))
        return state

    def _toggle(self) -> PolicyUpdate:
        index = self.commits % len(self.apps)
        rule_id = f"bench-app-{index}"
        update = PolicyUpdate(reason=f"toggle {rule_id}")
        if index in self.denied:
            self.denied.discard(index)
            return update.remove_rule(rule_id)
        self.denied.add(index)
        return update.add_rule(app_deny_rule(self.apps[index]), rule_id=rule_id)

    def run_round(self, tracer=None) -> RoundResult:
        result = RoundResult()
        fleet = self.deployment.fleet
        drive = self.console.drive
        buffers = self.auditor.buffers.values()
        bursts = self.bursts
        for _ in range(_sized(self.round_bursts, self.scale, 2)):
            position = self.position
            burst = bursts[position]
            self.position = (position + 1) % len(bursts)
            state = self._state()
            if tracer is not None:
                tracer.begin_op(len(burst))
            started = perf_counter()
            try:
                results = fleet.process_batch_timed(burst).results
            except Exception:
                result.raised += len(burst)
                continue
            finally:
                enforced = perf_counter() - started
            self.buffer_depth_max = max([self.buffer_depth_max, *map(len, buffers)])
            started = perf_counter()
            try:
                drive()
            except Exception:
                result.raised += len(burst)
                continue
            finally:
                elapsed = enforced + perf_counter() - started
            result.wall_s += elapsed
            result.latencies_s.append(elapsed)
            result.ops += len(burst)
            self.verdicts.add((state, position), [verdict for verdict, _ in results])
            self.bursts_done += 1
            if self.bursts_done % self.commit_every == 0:
                update = self._toggle()
                if tracer is not None:
                    tracer.begin_op()
                started = perf_counter()
                try:
                    self.deployment.apply_update(update)
                except Exception:
                    result.raised += 1
                    continue
                finally:
                    elapsed = perf_counter() - started
                    self.commits += 1
                result.wall_s += elapsed
                result.commits_s.append(elapsed)
        self.raised += result.raised
        return result

    def start_counters(self) -> None:
        self._stats_start = self.deployment.fleet.aggregate_stats()
        self._commits_start = self.commits
        self._alerts_start = self.console.bus.published
        self.buffer_depth_max = 0

    def counters(self) -> dict[str, float]:
        stats = self.deployment.fleet.aggregate_stats().delta_since(self._stats_start)
        ratios = _enforcer_ratios(stats, self.commits - self._commits_start)
        packets = stats.packets_seen
        alerts = self.console.bus.published - self._alerts_start
        ratios["telemetry.buffer_depth_max"] = float(self.buffer_depth_max)
        ratios["ops.alerts_per_kpkt"] = 1000.0 * alerts / packets if packets else 0.0
        return ratios

    def check(self) -> tuple[int, int]:
        checked, failed = self.verdicts.check(self.reference, self.bursts)
        return checked + self.commits + self.raised, failed + self.raised


WORKLOADS = {
    workload.name: workload for workload in (HotFlows, ColdFlows, DeviceRequests, FleetChurn)
}
