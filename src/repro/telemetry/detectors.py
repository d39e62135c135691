"""Pluggable detectors over the telemetry windows.

A detector sees every published record together with the publishing
gateway's :class:`~repro.telemetry.aggregate.SlidingWindowAggregator`
and may emit a structured :class:`Alert`.  Detectors are deterministic
functions of the record stream (no clocks, no randomness), so a fixed
trace always produces the same alerts — the property tests replay
traces twice and assert exactly that.

The four built-ins cover the attack surface the paper's contextual
tags make visible and the conventional baselines cannot attribute:

* :class:`UnknownTagDetector` — packets whose tag fails integrity
  checks (missing, unknown app hash — which is also what a replayed
  tag of a *revoked* app looks like — or out-of-range indexes);
* :class:`SpoofedTagDetector` — structurally valid tags of an app the
  sending device never enrolled: mimicry of a whitelisted app.  Needs
  the provisioning map (device IP → enrolled app ids) only the
  enterprise back office has;
* :class:`ExfiltrationVolumeDetector` — outbound volume from one
  device to one destination exceeding a window budget, no matter how
  many flows the sender fragments it across;
* :class:`PolicyViolationBurstDetector` — one (device, app) pair
  hitting policy denials in bursts.

Alert dedup is cooldown-based: a detector re-arms a key after
``rearm_packets`` further records, so a sustained condition produces a
bounded alert stream instead of one alert per packet.  Cooldown keys
always include the publishing *gateway*: detector instances may be
shared across several gateway pipelines, and a campaign observed on two
gateways must not half-suppress itself by disarming the other gateway's
key.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.core.policy_enforcer import (
    REASON_DECODE_RANGE,
    REASON_MALFORMED_TAG,
    REASON_UNKNOWN_APP,
    REASON_UNTAGGED,
)
from repro.netstack.netfilter import Verdict
from repro.telemetry.aggregate import SlidingWindowAggregator

#: Integrity-failure reasons: enforcement outcomes that indicate tag
#: tampering rather than an ordinary policy denial.
INTEGRITY_REASONS = frozenset(
    {REASON_UNTAGGED, REASON_UNKNOWN_APP, REASON_DECODE_RANGE, REASON_MALFORMED_TAG}
)


@dataclass(frozen=True)
class Alert:
    """One structured detection event."""

    kind: str
    device: str
    detail: str
    app: str = ""
    dst_ip: str = ""
    source: str = ""
    #: Aggregator sequence number at which the alert fired.
    seq: int = 0
    packet_id: int = 0
    #: Absolute wall-clock timestamp (unix seconds).  Detectors leave it
    #: at 0.0 (they are deterministic functions of the record stream);
    #: the alert bus stamps it at publish time, so spooled and
    #: webhook-delivered alerts carry real operator-facing timestamps.
    ts: float = 0.0

    def summary(self) -> str:
        parts = [f"[{self.kind}] device {self.device}"]
        if self.app:
            parts.append(f"app {self.app}")
        if self.dst_ip:
            parts.append(f"-> {self.dst_ip}")
        if self.source:
            parts.append(f"@ {self.source}")
        return " ".join(parts) + f": {self.detail}"

    def to_dict(self) -> dict:
        """A stable JSON-serializable mapping of every field.

        The bus spool and webhook sinks both encode alerts through this
        single codepath, so a spooled alert, a webhook payload and a
        live :class:`Alert` always agree field for field (including the
        absolute timestamp and the gateway ``source`` attribution).
        """
        return {field.name: getattr(self, field.name) for field in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "Alert":
        """Rebuild an alert written by :meth:`to_dict`.

        Unknown keys are rejected (a spool written by a newer schema
        should fail loudly, not silently drop attribution); missing
        optional fields fall back to their defaults.
        """
        known = {field.name for field in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown alert fields: {sorted(unknown)}")
        return cls(**payload)


class Detector:
    """Base class: observe records, emit alerts, stay deterministic."""

    #: Records after which a fired (detector, key) pair may fire again.
    rearm_packets: int = 2048
    #: True when the pipeline knows a cheap firing precondition for this
    #: detector (builtin classes hard-code theirs; custom detectors set
    #: this and implement :meth:`interesting` to keep the publish fast
    #: path alive).
    guarded: bool = False

    def __init__(self, rearm_packets: int | None = None) -> None:
        if rearm_packets is not None:
            self.rearm_packets = rearm_packets
        self._armed_at: dict = {}

    def _ready(self, key, seq: int, source: str = "") -> bool:
        """True when ``key`` is armed; firing disarms it for the cooldown.

        ``source`` (the publishing gateway) is folded into the stored
        key: a detector instance shared by several gateway pipelines
        must keep one independent cooldown per gateway, or the same
        campaign seen on two gateways suppresses half of itself.
        """
        full_key = (source, key)
        fired = self._armed_at.get(full_key)
        if fired is not None and seq - fired < self.rearm_packets:
            return False
        self._armed_at[full_key] = seq
        return True

    def observe(self, record, source: str, window: SlidingWindowAggregator) -> Alert | None:
        raise NotImplementedError

    def interesting(self, record, window: SlidingWindowAggregator) -> bool:
        """Cheap precondition: may this record make :meth:`observe` fire?

        Only consulted for ``guarded`` detectors that are not one of the
        builtin classes (whose guards the pipeline inlines).  Returning
        ``False`` must be exact — the pipeline will skip ``observe``.
        """
        return True


class UnknownTagDetector(Detector):
    """Tag integrity failures: stripped, unknown-hash or undecodable tags.

    ``threshold`` failures from one device inside the window raise the
    alert; 1 (the default) means every first offence per cooldown is
    reported — at a real gateway even a single forged hash is worth a
    ticket.
    """

    guarded = True

    def __init__(self, threshold: int = 1, rearm_packets: int | None = None) -> None:
        super().__init__(rearm_packets)
        if threshold < 1:
            raise ValueError("the integrity-failure threshold must be positive")
        self.threshold = threshold

    def observe(self, record, source, window) -> Alert | None:
        reason = record.reason
        if reason not in INTEGRITY_REASONS:
            return None
        failures = sum(window.device_integrity(record.src_ip))
        if failures < self.threshold:
            return None
        if not self._ready((record.src_ip, reason), window.seq, source):
            return None
        return Alert(
            kind="unknown-tag",
            device=record.src_ip,
            app=record.package_name or record.app_id,
            dst_ip=record.dst_ip,
            source=source,
            seq=window.seq,
            packet_id=record.packet_id,
            detail=f"{failures} tag integrity failure(s) in window ({reason})",
        )


class SpoofedTagDetector(Detector):
    """Valid tags from devices that never enrolled the tagged app.

    ``provisioned`` maps a device's enterprise IP to the set of app ids
    (truncated apk hashes) installed on it — the attribution ground the
    enterprise holds and the network layer lacks.  A record whose tag
    decodes to a known app the sending device does not have is mimicry:
    some process is borrowing a whitelisted app's identity.
    """

    guarded = True

    def __init__(
        self,
        provisioned: dict[str, frozenset[str]],
        rearm_packets: int | None = None,
    ) -> None:
        super().__init__(rearm_packets)
        self.provisioned = {
            device: frozenset(app_ids) for device, app_ids in provisioned.items()
        }

    def observe(self, record, source, window) -> Alert | None:
        app_id = record.app_id
        if not app_id or not record.package_name:
            # No tag, or a hash the database does not know: integrity
            # territory, handled by UnknownTagDetector.
            return None
        allowed = self.provisioned.get(record.src_ip)
        if allowed is None or app_id in allowed:
            return None
        if not self._ready((record.src_ip, app_id), window.seq, source):
            return None
        return Alert(
            kind="spoofed-tag",
            device=record.src_ip,
            app=record.package_name,
            dst_ip=record.dst_ip,
            source=source,
            seq=window.seq,
            packet_id=record.packet_id,
            detail=(
                f"tag of {record.package_name} seen from a device that never "
                "enrolled it"
            ),
        )


class ExfiltrationVolumeDetector(Detector):
    """Per-(device, destination) outbound volume over a window budget.

    Fragmenting an upload across many small flows defeats per-flow size
    thresholds (paper §VII); the window volume is summed per (device,
    destination) pair regardless of flow, so the fragments re-aggregate
    here.
    """

    guarded = True

    def __init__(
        self, window_bytes: int = 262144, rearm_packets: int | None = None
    ) -> None:
        super().__init__(rearm_packets)
        if window_bytes < 1:
            raise ValueError("the volume budget must be positive")
        self.window_bytes = window_bytes

    def observe(self, record, source, window) -> Alert | None:
        if record.verdict is Verdict.DROP or not record.src_ip:
            return None
        volume = window.window_volume(record.src_ip, record.dst_ip)
        if volume <= self.window_bytes:
            return None
        if not self._ready((record.src_ip, record.dst_ip), window.seq, source):
            return None
        return Alert(
            kind="exfil-volume",
            device=record.src_ip,
            app=record.package_name or record.app_id,
            dst_ip=record.dst_ip,
            source=source,
            seq=window.seq,
            packet_id=record.packet_id,
            detail=(
                f"{volume} bytes to one destination inside the window "
                f"(budget {self.window_bytes})"
            ),
        )


class PolicyViolationBurstDetector(Detector):
    """Bursts of policy denials from one (device, app) pair.

    Integrity failures are excluded (they have their own detector);
    this one watches an *enrolled* app repeatedly steering into denied
    functionality — misbehaving update, misconfigured policy, or an
    app probing what it can get out.
    """

    guarded = True

    def __init__(self, burst: int = 8, rearm_packets: int | None = None) -> None:
        super().__init__(rearm_packets)
        if burst < 1:
            raise ValueError("the burst threshold must be positive")
        self.burst = burst
        self._drops: dict = {}

    def observe(self, record, source, window) -> Alert | None:
        if record.verdict is not Verdict.DROP or record.reason in INTEGRITY_REASONS:
            return None
        # The burst counter is per gateway too: a shared instance must
        # not let two gateways' independent drop trickles sum into one
        # phantom burst neither gateway actually saw.
        key = (record.src_ip, record.package_name or record.app_id)
        counter_key = (source, key)
        count = self._drops.get(counter_key, 0) + 1
        self._drops[counter_key] = count
        if count < self.burst:
            return None
        self._drops[counter_key] = 0
        if not self._ready(key, window.seq, source):
            return None
        return Alert(
            kind="policy-burst",
            device=record.src_ip,
            app=record.package_name or record.app_id,
            dst_ip=record.dst_ip,
            source=source,
            seq=window.seq,
            packet_id=record.packet_id,
            detail=f"{self.burst} policy denials in a burst",
        )


def default_detectors(
    provisioned: dict[str, frozenset[str]] | None = None,
    exfil_window_bytes: int = 262144,
    burst: int = 8,
) -> list[Detector]:
    """The standard detector stack; spoof detection needs a provisioning map."""
    detectors: list[Detector] = [
        UnknownTagDetector(),
        ExfiltrationVolumeDetector(window_bytes=exfil_window_bytes),
        PolicyViolationBurstDetector(burst=burst),
    ]
    if provisioned is not None:
        detectors.insert(1, SpoofedTagDetector(provisioned))
    return detectors
