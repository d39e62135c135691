"""Sliding-window aggregation of the enforcement record stream.

One gateway publishes a record per enforced packet; the aggregator
folds that stream into rolling views an operator (or a detector) can
ask questions of:

* per **device** (source IP), per **app** (package name, falling back
  to the on-wire app id) and per **gateway** (the publishing source
  label): packets seen, packets dropped, bytes out (accepted packets
  only — a dropped payload never left the network), and the three
  integrity outcomes — untagged packets, unknown/spoofed tag hashes,
  decode failures (:meth:`SlidingWindowAggregator.window_stats`);
* per **(device, destination)** pair: outbound payload bytes inside the
  window — the input to exfiltration-volume anomaly detection
  (:attr:`SlidingWindowAggregator.volumes`, maintained incrementally);
* per **(device, app)** pair: policy denials (integrity failures
  excluded) inside the window
  (:attr:`SlidingWindowAggregator.policy_drops`, maintained
  incrementally) — the input the fleet-level burst scan sums across
  gateways to reassemble a denial campaign flow hashing split up;
* per device: windowed tag-integrity failure counts
  (:meth:`SlidingWindowAggregator.device_integrity`), maintained on a
  side deque that only integrity events touch.

Windows are counted in *packets*, not wall-clock: the simulation has no
real clock at the gateway, and a packet-count window makes every
analysis deterministic for a fixed trace (a property the telemetry
tests assert).

The observe path sits inside the gateway's timed hot loop, so it is
deliberately asymmetric: per benign packet it only appends one compact
event tuple and maintains the volume dict (O(1), no per-key stats
objects); the full per-device/app/gateway tables are *derived* from the
event window on demand — reports ask for them a handful of times per
run, the hot path never does.
"""

from __future__ import annotations

from collections import deque

from repro.core.policy_enforcer import (
    REASON_DECODE_RANGE,
    REASON_MALFORMED_TAG,
    REASON_UNKNOWN_APP,
    REASON_UNTAGGED,
)
from repro.netstack.netfilter import Verdict

#: Integrity reason -> index into the per-device integrity counts
#: (untagged, unknown tag, decode failure).  One dict probe classifies a
#: record on the hot path.
_REASON_FLAGS = {
    REASON_UNTAGGED: 0,
    REASON_UNKNOWN_APP: 1,
    REASON_DECODE_RANGE: 2,
    REASON_MALFORMED_TAG: 2,
}


class WindowStats:
    """Rolling counters for one aggregation key (device, app or gateway)."""

    __slots__ = (
        "packets",
        "dropped",
        "bytes_out",
        "untagged",
        "unknown_tags",
        "decode_failures",
    )

    def __init__(self) -> None:
        self.packets = 0
        self.dropped = 0
        self.bytes_out = 0
        self.untagged = 0
        self.unknown_tags = 0
        self.decode_failures = 0

    @property
    def drop_rate(self) -> float:
        return self.dropped / self.packets if self.packets else 0.0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{name}={getattr(self, name)}" for name in self.__slots__)
        return f"WindowStats({inner})"


class SlidingWindowAggregator:
    """Rolling per-device / per-app / per-gateway views of recent records."""

    def __init__(self, window_packets: int = 4096) -> None:
        if window_packets < 1:
            raise ValueError("the aggregation window must be at least one packet")
        self.window_packets = window_packets
        #: Monotonic count of records observed (the window's clock).
        self.seq = 0
        #: Outbound bytes per (device, destination) inside the window.
        self.volumes: dict[tuple[str, str], int] = {}
        #: Policy denials (integrity failures excluded) per (device,
        #: app) inside the window.
        self.policy_drops: dict[tuple[str, str], int] = {}
        #: One compact tuple per in-window record:
        #: (device, app, source, dst, size, dropped, reason_flag).
        self._events: deque = deque()
        #: Integrity events only: (seq, device, flag index).
        self._integrity: deque = deque()
        self._integrity_counts: dict[str, list[int]] = {}

    # -- ingestion (the hot path) ------------------------------------------------------

    def observe(self, record, source: str = "") -> None:
        """Fold one record into the window, evicting what slid out."""
        self.seq += 1
        device = record.src_ip or "(unknown-device)"
        dst = record.dst_ip
        dropped = record.verdict is Verdict.DROP
        # Dropped payloads never left the network: counting them as
        # bytes-out would let traffic the gateway already blocked raise
        # exfiltration alerts for data that was never exfiltrated.
        size = 0 if dropped else record.payload_bytes
        flag = _REASON_FLAGS.get(record.reason, -1)
        app = record.package_name or record.app_id or "(untagged)"
        volumes = self.volumes
        key = (device, dst)
        volumes[key] = volumes.get(key, 0) + size
        if dropped and flag < 0:
            drops = self.policy_drops
            drop_key = (device, app)
            drops[drop_key] = drops.get(drop_key, 0) + 1
        events = self._events
        events.append(
            (
                device,
                app,
                source or "(gateway)",
                dst,
                size,
                dropped,
                flag,
            )
        )
        if len(events) > self.window_packets:
            old = events.popleft()
            old_key = (old[0], old[3])
            # get/pop, not indexing: a zero-byte record can still sit in
            # the event window after its pair's volume entry hit zero
            # and was dropped by an earlier eviction.
            remaining = volumes.get(old_key, 0) - old[4]
            if remaining > 0:
                volumes[old_key] = remaining
            else:
                volumes.pop(old_key, None)
            if old[5] and old[6] < 0:
                drops = self.policy_drops
                old_drop_key = (old[0], old[1])
                remaining_drops = drops.get(old_drop_key, 0) - 1
                if remaining_drops > 0:
                    drops[old_drop_key] = remaining_drops
                else:
                    drops.pop(old_drop_key, None)
        if flag >= 0:
            counts = self._integrity_counts.get(device)
            if counts is None:
                counts = self._integrity_counts[device] = [0, 0, 0]
            counts[flag] += 1
            self._integrity.append((self.seq, device, flag))
            # Expire on ingest too: detectors query device_integrity()
            # only when one is installed, and the side deque must stay
            # bounded by the window either way.  Amortized O(1), paid
            # only on (rare) integrity events.
            self._expire_integrity()

    # -- queries -----------------------------------------------------------------------

    def _expire_integrity(self) -> None:
        horizon = self.seq - self.window_packets
        integrity = self._integrity
        counts = self._integrity_counts
        while integrity and integrity[0][0] <= horizon:
            _, device, flag = integrity.popleft()
            entry = counts[device]
            entry[flag] -= 1
            if entry[0] == 0 and entry[1] == 0 and entry[2] == 0:
                del counts[device]

    def device_integrity(self, src_ip: str) -> tuple[int, int, int]:
        """(untagged, unknown-tag, decode-failure) counts for one device
        inside the window.  Maintained on a side deque only integrity
        events touch, so querying it costs nothing on benign traffic."""
        self._expire_integrity()
        counts = self._integrity_counts.get(src_ip or "(unknown-device)")
        return tuple(counts) if counts else (0, 0, 0)

    def window_volume(self, src_ip: str, dst_ip: str) -> int:
        return self.volumes.get((src_ip or "(unknown-device)", dst_ip), 0)

    def window_stats(self) -> dict[str, dict[str, WindowStats]]:
        """The full per-device / per-app / per-gateway window tables.

        Derived by one pass over the event window (reports call this a
        handful of times; the per-packet path never does).
        """
        tables: dict[str, dict[str, WindowStats]] = {
            "devices": {},
            "apps": {},
            "sources": {},
        }
        for device, app, source, _dst, size, dropped, flag in self._events:
            for table, key in (
                (tables["devices"], device),
                (tables["apps"], app),
                (tables["sources"], source),
            ):
                stats = table.get(key)
                if stats is None:
                    stats = table[key] = WindowStats()
                stats.packets += 1
                stats.bytes_out += size
                if dropped:
                    stats.dropped += 1
                if flag == 0:
                    stats.untagged += 1
                elif flag == 1:
                    stats.unknown_tags += 1
                elif flag == 2:
                    stats.decode_failures += 1
        return tables

    def device(self, src_ip: str) -> WindowStats | None:
        return self.window_stats()["devices"].get(src_ip)

    def app(self, label: str) -> WindowStats | None:
        return self.window_stats()["apps"].get(label)

    def source(self, label: str) -> WindowStats | None:
        return self.window_stats()["sources"].get(label)

    def snapshot(self) -> dict:
        """A JSON-friendly dump of every window (for reports and tests)."""
        tables = self.window_stats()
        return {
            "seq": self.seq,
            "devices": {key: stats.as_dict() for key, stats in tables["devices"].items()},
            "apps": {key: stats.as_dict() for key, stats in tables["apps"].items()},
            "sources": {key: stats.as_dict() for key, stats in tables["sources"].items()},
            "volumes": {
                f"{device}->{dst}": total
                for (device, dst), total in sorted(self.volumes.items())
            },
            "policy_drops": {
                f"{device}:{app}": count
                for (device, app), count in sorted(self.policy_drops.items())
            },
        }
