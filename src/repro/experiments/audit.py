"""Audit-subsystem evaluation: detection quality and telemetry overhead.

A provisioned device fleet generates benign traffic; the adversarial
workload hides five attack scenarios in it
(:mod:`repro.workloads.adversarial`).  The mixed trace replays across a
replicated gateway fleet with the telemetry pipeline attached, and the
same packets replay through the two conventional baselines the paper
argues against:

* the **IP/DNS filter** (:mod:`repro.baselines.ip_dns_filter`) armed
  with the threat-intel blocklist (which, as in reality, lags: the
  evasive scenarios use a destination it has never seen);
* the **flow-size threshold** (:mod:`repro.baselines.size_threshold`),
  which low-and-slow fragmentation is designed to slip under.

Scoring is per packet against the generator's ground-truth labels.  A
packet counts as *flagged* by BorderPatrol when the gateway dropped it
for a tag-integrity reason (stripped/unknown/undecodable tags — policy
denials are enforcement, not attack detection) or when a telemetry
alert attributes its (device, app) or (device, destination) pair; the
baselines flag exactly the packets they drop.

The telemetry *volume budget* is calibrated from the benign trace (the
maximum windowed per-(device, destination) volume, plus margin), the
way an operator would baseline an anomaly detector before arming it —
so benign traffic cannot trip the exfiltration detector by
construction, and the attacker still has to move real data.

Overhead is measured separately: the identical benign replay through an
identical fleet with telemetry attached vs detached, reported as kpps
(the acceptance bar: telemetry-on within 15% of telemetry-off).
"""

from __future__ import annotations

import gc
import random
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field

from repro.baselines.ip_dns_filter import OnNetworkFilter
from repro.baselines.size_threshold import FlowSizeThresholdFilter
from repro.core.deployment import BorderPatrolDeployment
from repro.core.policy import Policy
from repro.experiments.common import format_table, split_into_bursts
from repro.experiments.gateway_throughput import DEFAULT_DENY_LIBRARIES
from repro.netstack.netfilter import Verdict
from repro.telemetry.detectors import INTEGRITY_REASONS
from repro.telemetry.pipeline import FleetAuditor
from repro.workloads.adversarial import (
    SCENARIOS,
    AdversarialConfig,
    AdversarialTrace,
    AdversarialWorkload,
)
from repro.workloads.corpus import CorpusConfig, CorpusGenerator
from repro.workloads.fleet import DeviceFleet, DeviceFleetConfig


@dataclass
class SystemScore:
    """Per-packet detection quality of one system over the mixed trace."""

    name: str
    flagged: int = 0
    true_positives: int = 0
    recall_by_scenario: dict[str, float] = field(default_factory=dict)

    @property
    def precision(self) -> float:
        return self.true_positives / self.flagged if self.flagged else 1.0

    def recall(self, scenario: str) -> float:
        return self.recall_by_scenario.get(scenario, 0.0)


@dataclass
class AuditBenchResult:
    """Everything the audit experiment measured."""

    packets: int = 0
    benign_packets: int = 0
    attack_packets: int = 0
    devices: int = 0
    gateways: int = 0
    scenario_counts: dict[str, int] = field(default_factory=dict)
    scores: dict[str, SystemScore] = field(default_factory=dict)
    alert_counts: dict[str, int] = field(default_factory=dict)
    #: Calibrated telemetry volume budget and the size baseline's threshold.
    exfil_budget_bytes: int = 0
    size_threshold_bytes: int = 0
    #: Benign-replay throughput with and without telemetry attached.
    telemetry_on_kpps: float = 0.0
    telemetry_off_kpps: float = 0.0
    #: Audit-log rotation round-trip over the full mixed replay.
    records_published: int = 0
    segments_written: int = 0
    audit_roundtrip_ok: bool = False

    @property
    def telemetry_overhead_pct(self) -> float:
        if self.telemetry_off_kpps <= 0:
            return 0.0
        return 100.0 * (1.0 - self.telemetry_on_kpps / self.telemetry_off_kpps)

    @property
    def borderpatrol_dominates_spoof_replay(self) -> bool:
        """BorderPatrol strictly ahead of both baselines on the two
        attribution scenarios (mimicry and stale-tag replay)."""
        borderpatrol = self.scores.get("borderpatrol")
        if borderpatrol is None:
            return False
        for scenario in ("tag_spoofing", "tag_replay"):
            for baseline in ("ip-dns", "size-threshold"):
                other = self.scores.get(baseline)
                if other is None or borderpatrol.recall(scenario) <= other.recall(scenario):
                    return False
        return True

    def table(self) -> str:
        headers = ["system"] + [scenario for scenario in SCENARIOS] + ["precision"]
        rows = []
        for score in self.scores.values():
            rows.append(
                [score.name]
                + [f"{score.recall(scenario):.2f}" for scenario in SCENARIOS]
                + [f"{score.precision:.2f}"]
            )
        table = format_table(headers, rows)
        alerts = (
            ", ".join(f"{kind}:{count}" for kind, count in sorted(self.alert_counts.items()))
            or "(none)"
        )
        lines = [
            f"mixed replay: {self.packets} packets ({self.attack_packets} adversarial "
            f"across {len(self.scenario_counts)} scenarios), {self.devices} devices, "
            f"{self.gateways} gateways",
            "per-scenario recall (fraction of attack packets flagged):",
            table,
            f"alerts: {alerts}",
            f"volume budget {self.exfil_budget_bytes} B (calibrated from benign "
            f"windows), size threshold {self.size_threshold_bytes} B",
            f"telemetry overhead: {self.telemetry_off_kpps:.1f} kpps off vs "
            f"{self.telemetry_on_kpps:.1f} kpps on "
            f"({self.telemetry_overhead_pct:+.1f}%)",
            f"audit log: {self.records_published} records published, "
            f"{self.segments_written} segment(s) rotated, lossless round-trip: "
            f"{self.audit_roundtrip_ok}",
            "BorderPatrol strictly dominates on spoof/replay: "
            f"{self.borderpatrol_dominates_spoof_replay}",
        ]
        return "\n".join(lines)


def _max_window_volume(packets, window_packets: int) -> int:
    """Peak windowed per-(device, destination) outbound volume of a trace."""
    volumes: dict[tuple[str, str], int] = {}
    events: deque = deque()
    peak = 0
    for packet in packets:
        key = (packet.src_ip, packet.dst_ip)
        total = volumes.get(key, 0) + packet.payload_size
        volumes[key] = total
        if total > peak:
            peak = total
        events.append((key, packet.payload_size))
        if len(events) > window_packets:
            old_key, size = events.popleft()
            volumes[old_key] -= size
    return peak


def _mix_bursts(
    benign: list, attacks: AdversarialTrace, bursts: int, seed: int
) -> tuple[list[list], int]:
    """Interleave attack packets into the benign bursts.

    Stripping and spoofing run for the whole trace; the replay,
    low-and-slow and bulk scenarios start at the revocation burst (the
    midpoint), so the volume scenarios cluster inside one window span
    and the replayed tags are genuinely stale.  Returns the mixed
    bursts plus the index before which the contractor app is revoked.
    """
    benign_bursts = split_into_bursts(benign, bursts)
    revoke_at = len(benign_bursts) // 2
    placement = {
        "tag_stripping": list(range(len(benign_bursts))),
        "tag_spoofing": list(range(len(benign_bursts))),
        "tag_replay": list(range(revoke_at, len(benign_bursts))),
        "low_and_slow": list(range(revoke_at, len(benign_bursts))),
        "bulk_exfil": list(range(revoke_at, len(benign_bursts))),
    }
    per_burst: list[list] = [[] for _ in benign_bursts]
    for scenario, packets in attacks.packets_by_scenario.items():
        slots = placement.get(scenario, list(range(len(benign_bursts))))
        for index, packet in enumerate(packets):
            per_burst[slots[index % len(slots)]].append(packet)
    rng = random.Random(seed)
    mixed = []
    for benign_burst, attack_burst in zip(benign_bursts, per_burst):
        burst = list(benign_burst) + attack_burst
        rng.shuffle(burst)
        mixed.append(burst)
    return mixed, revoke_at


def _build_fleet(
    gateways: int,
    shards_per_gateway: int,
    devices: int,
    corpus_apps: int,
    seed: int,
) -> tuple[BorderPatrolDeployment, DeviceFleet]:
    apps = CorpusGenerator(CorpusConfig(n_apps=corpus_apps, seed=seed)).generate()
    deployment = BorderPatrolDeployment(
        policy=Policy.deny_libraries(DEFAULT_DENY_LIBRARIES, name="audit-base"),
        num_gateways=gateways,
        enforcer_shards=shards_per_gateway,
        keep_records=False,
    )
    device_fleet = DeviceFleet(
        deployment,
        apps,
        DeviceFleetConfig(devices=devices, seed=seed),
    )
    return deployment, device_fleet


def _burst_wall(deployment, burst: list, auditor: FleetAuditor | None) -> float:
    """One burst's wall-clock under the parallel fleet model.

    With an auditor attached, each gateway's collector consumes its
    record stream on its own core, pipelined with enforcement: the
    burst costs the slower of the two stages, plus the (small)
    fleet-level exfiltration scan.
    """
    fleet = deployment.fleet
    if fleet is not None:
        enforce_wall = fleet.process_batch_timed(burst).parallel_wall_s
    elif hasattr(deployment.enforcer, "process_batch_timed"):
        enforce_wall = deployment.enforcer.process_batch_timed(burst).parallel_wall_s
    else:
        started = time.perf_counter()
        deployment.enforcer.process_batch(burst)
        enforce_wall = time.perf_counter() - started
    if auditor is None:
        return enforce_wall
    collect_wall = auditor.drain()
    started = time.perf_counter()
    auditor.scan_exfiltration()
    return max(enforce_wall, collect_wall) + (time.perf_counter() - started)


def _measure_overhead(
    gateways: int,
    shards_per_gateway: int,
    devices: int,
    corpus_apps: int,
    seed: int,
    packets: int,
    bursts: int,
    window_packets: int,
    exfil_budget: int,
    rounds: int = 7,
) -> tuple[float, float]:
    """(telemetry-off kpps, telemetry-on kpps) over identical benign replays.

    The two fleets replay in rounds, interleaved at *burst*
    granularity (off-burst, on-burst, off-burst, …): a scheduler blip
    or frequency step lands on adjacent bursts of both configurations
    instead of contaminating one whole replay.  The reported pair then
    comes from the round with the *median* on/off ratio — the median
    discards the rounds where noise still landed asymmetrically (each
    side's independent minimum lets one lucky telemetry-off round
    masquerade as overhead, the minimum *ratio* is biased just as far
    the other way).
    """
    deployment_off, fleet_off = _build_fleet(
        gateways, shards_per_gateway, devices, corpus_apps, seed
    )
    bursts_off = split_into_bursts(fleet_off.build_trace(packets), bursts)
    deployment_on, fleet_on = _build_fleet(
        gateways, shards_per_gateway, devices, corpus_apps, seed
    )
    bursts_on = split_into_bursts(fleet_on.build_trace(packets), bursts)
    auditor = FleetAuditor(
        window_packets=window_packets,
        provisioned=fleet_on.provisioning_map(),
        exfil_window_bytes=exfil_budget,
    )
    deployment_on.attach_telemetry(auditor)
    pairs: list[tuple[float, float]] = []
    # Collector pauses are not the only thing that can land inside a
    # timed section: the cyclic GC walks telemetry's live window state
    # during enforcement too.  Collect between rounds, keep the
    # automatic collector out of the timed walls (both configurations,
    # same treatment).
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(max(1, rounds)):
            gc.collect()
            gc.disable()
            try:
                wall_off = wall_on = 0.0
                for burst_off, burst_on in zip(bursts_off, bursts_on):
                    wall_off += _burst_wall(deployment_off, burst_off, None)
                    wall_on += _burst_wall(deployment_on, burst_on, auditor)
                pairs.append((wall_off, wall_on))
            finally:
                if gc_was_enabled:
                    gc.enable()
    finally:
        if gc_was_enabled:
            gc.enable()
    pairs.sort(key=lambda pair: pair[1] / pair[0])
    wall_off, wall_on = pairs[len(pairs) // 2]
    return (
        packets / wall_off / 1e3 if wall_off > 0 else float("inf"),
        packets / wall_on / 1e3 if wall_on > 0 else float("inf"),
    )


def run_audit_bench(
    packets: int = 8000,
    devices: int = 60,
    gateways: int = 2,
    shards_per_gateway: int = 2,
    corpus_apps: int = 6,
    seed: int = 7,
    bursts: int = 8,
    window_packets: int = 4096,
    size_threshold_bytes: int = 131072,
    attack_packets_per_scenario: int = 160,
    measure_overhead: bool = True,
) -> AuditBenchResult:
    """Replay mixed benign/adversarial fleet traffic; score every system."""
    if bursts < 1:
        raise ValueError("the mixed replay needs at least one burst")
    if attack_packets_per_scenario < 1:
        raise ValueError("need at least one packet per attack scenario")
    if packets < bursts:
        raise ValueError("need at least one benign packet per burst")
    if gateways < 1:
        raise ValueError("the audit bench needs at least one gateway")

    deployment, device_fleet = _build_fleet(
        gateways, shards_per_gateway, devices, corpus_apps, seed
    )
    benign = device_fleet.build_trace(packets)

    # Operator-style calibration: arm the volume detector just above the
    # worst benign window, with margin.
    merged_window = window_packets * max(1, deployment.num_gateways)
    exfil_budget = int(_max_window_volume(benign, merged_window) * 1.5) + 1

    workload = AdversarialWorkload(
        device_fleet,
        AdversarialConfig(seed=seed + 17, packets_per_scenario=attack_packets_per_scenario),
    )
    attacks = workload.build(exfil_budget, size_threshold_bytes)
    mixed_bursts, revoke_at = _mix_bursts(benign, attacks, bursts, seed + 29)
    mixed = [packet for burst in mixed_bursts for packet in burst]

    result = AuditBenchResult(
        packets=len(mixed),
        benign_packets=len(benign),
        attack_packets=attacks.attack_packet_count(),
        devices=device_fleet.device_count(),
        gateways=deployment.num_gateways,
        scenario_counts={
            scenario: len(packets_)
            for scenario, packets_ in attacks.packets_by_scenario.items()
        },
        exfil_budget_bytes=exfil_budget,
        size_threshold_bytes=size_threshold_bytes,
    )

    # -- BorderPatrol: fleet replay with the telemetry pipeline attached.
    with tempfile.TemporaryDirectory(prefix="bp-audit-") as spool_dir:
        auditor = FleetAuditor(
            window_packets=window_packets,
            provisioned=device_fleet.provisioning_map(),
            exfil_window_bytes=exfil_budget,
            spool_dir=spool_dir,
            audit_capacity=len(mixed) + 1,
            segment_records=max(256, len(mixed) // 16),
        )
        fleet = deployment.fleet
        deployment.attach_telemetry(auditor)
        for index, burst in enumerate(mixed_bursts):
            if index == revoke_at:
                attacks.revoke(deployment.database)
            if fleet is not None:
                fleet.process_batch_timed(burst)
            else:
                deployment.enforcer.process_batch(burst)
            auditor.drain()
            auditor.scan_exfiltration()
        auditor.flush()

        spooled = auditor.spooled_records()
        published = [
            record
            for pipeline in auditor.pipelines.values()
            if pipeline.audit_log is not None
            for record in pipeline.audit_log
        ]
        published.sort(key=lambda record: record.packet_id)
        result.records_published = auditor.records_seen
        result.segments_written = sum(
            pipeline.audit_log.segments_written
            for pipeline in auditor.pipelines.values()
            if pipeline.audit_log is not None
        )
        result.audit_roundtrip_ok = (
            len(spooled) == result.records_published and spooled == published
        )
        result.alert_counts = auditor.alert_counts()

        flagged_bp: set[int] = set()
        spoof_keys = {
            (alert.device, alert.app)
            for alert in auditor.alerts
            if alert.kind == "spoofed-tag"
        }
        exfil_keys = {
            (alert.device, alert.dst_ip)
            for alert in auditor.alerts
            if alert.kind == "exfil-volume"
        }
        for record in published:
            if record.verdict is Verdict.DROP and record.reason in INTEGRITY_REASONS:
                flagged_bp.add(record.packet_id)
            elif (record.src_ip, record.package_name) in spoof_keys:
                flagged_bp.add(record.packet_id)
            elif (record.src_ip, record.dst_ip) in exfil_keys:
                flagged_bp.add(record.packet_id)

    # -- baselines: identical packet order, flagged = dropped.
    network = deployment.network
    ip_dns = OnNetworkFilter(
        dns=network.dns,
        blocked_names={workload.config.known_bad_endpoint},
    )
    size = FlowSizeThresholdFilter(threshold_bytes=size_threshold_bytes)
    flagged_ip: set[int] = set()
    flagged_size: set[int] = set()
    for packet in mixed:
        if ip_dns.process(packet)[0] is Verdict.DROP:
            flagged_ip.add(packet.packet_id)
        if size.process(packet)[0] is Verdict.DROP:
            flagged_size.add(packet.packet_id)

    # -- scoring.
    labels = attacks.labels
    for name, flagged in (
        ("borderpatrol", flagged_bp),
        ("ip-dns", flagged_ip),
        ("size-threshold", flagged_size),
    ):
        score = SystemScore(name=name, flagged=len(flagged))
        score.true_positives = sum(1 for packet_id in flagged if packet_id in labels)
        for scenario, scenario_packets in attacks.packets_by_scenario.items():
            hits = sum(1 for packet in scenario_packets if packet.packet_id in flagged)
            score.recall_by_scenario[scenario] = (
                hits / len(scenario_packets) if scenario_packets else 0.0
            )
        result.scores[name] = score

    # -- telemetry overhead: identical benign replays, pipeline on vs off.
    if measure_overhead:
        result.telemetry_off_kpps, result.telemetry_on_kpps = _measure_overhead(
            gateways, shards_per_gateway, devices, corpus_apps, seed,
            packets, bursts, window_packets, exfil_budget,
        )
    return result
