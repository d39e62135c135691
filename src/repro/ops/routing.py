"""Operator routing and escalation: which alerts wake somebody up.

Detectors emit one :class:`~repro.telemetry.detectors.Alert` per firing
with no notion of urgency; paging a human for every policy-denial burst
in a hundred-gateway fleet would bury the real campaigns.  This module
is the operator's triage layer, consuming the bus as an ordinary
:class:`~repro.ops.bus.AlertSink`:

* every alert kind carries a default **severity** (bumped one level for
  fleet-sourced alerts — a campaign only the federated scans can see is
  by construction cross-gateway and worth more attention);
* a :class:`RoutingTable` of first-match :class:`RouteRule` rows maps
  (kind, device group, severity) to a **route** — ``page``, ``ticket``
  or ``log`` — with ``"*"`` wildcards, mirroring how on-call routing
  tables are actually written;
* **fleet-level dedup**: one (kind, device, destination) key routes at
  most once per ``cooldown`` routed alerts, across all gateways — the
  per-detector cooldowns are per gateway and cannot see that three
  gateways just reported the same device;
* **escalation**: a deduped key that keeps re-firing is itself the
  signal; when one key fires ``threshold`` times inside a ``window`` of
  routed alerts, the router synthesizes an ``escalated:`` page even if
  the table had routed the kind to a ticket.

Everything is counted in *routed alerts*, not wall-clock, for the same
reason the telemetry windows are counted in packets: determinism for a
fixed alert stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.detectors import Alert

#: Ascending urgency; index = comparable rank.
SEVERITY_ORDER = ("info", "warning", "critical")

#: Default severity per alert kind.  Unlisted kinds route as "warning".
DEFAULT_SEVERITIES = {
    "unknown-tag": "warning",
    "spoofed-tag": "critical",
    "exfil-volume": "critical",
    "policy-burst": "warning",
    "spoof-campaign": "critical",
}

#: The three places a routed alert can land.
ROUTES = ("page", "ticket", "log")


def severity_for(alert: Alert) -> str:
    """Default severity of one alert, with the fleet-source bump."""
    severity = DEFAULT_SEVERITIES.get(alert.kind, "warning")
    if alert.source == "fleet" and severity != "critical":
        severity = SEVERITY_ORDER[SEVERITY_ORDER.index(severity) + 1]
    return severity


@dataclass(frozen=True)
class RouteRule:
    """One routing-table row; ``"*"`` matches anything in that column."""

    kind: str = "*"
    group: str = "*"
    severity: str = "*"
    route: str = "log"

    def __post_init__(self) -> None:
        if self.route not in ROUTES:
            raise ValueError(f"unknown route {self.route!r} (expected one of {ROUTES})")
        if self.severity != "*" and self.severity not in SEVERITY_ORDER:
            raise ValueError(f"unknown severity {self.severity!r}")

    def matches(self, kind: str, group: str, severity: str) -> bool:
        return (
            self.kind in ("*", kind)
            and self.group in ("*", group)
            and self.severity in ("*", severity)
        )


class RoutingTable:
    """First-match routing over (kind, device group, severity).

    ``device_groups`` maps device IPs to operator-defined groups
    (tenant, site, VIP list); unmapped devices fall into
    ``default_group``.  Rules are evaluated in order and the first
    match wins — write the specific rows first, end with a catch-all.
    Alerts no rule matches fall through to ``log``.
    """

    def __init__(
        self,
        rules: list[RouteRule] | None = None,
        device_groups: dict[str, str] | None = None,
        default_group: str = "default",
    ) -> None:
        self.rules: list[RouteRule] = list(rules) if rules else []
        self.device_groups = dict(device_groups) if device_groups else {}
        self.default_group = default_group

    def add_rule(self, rule: RouteRule) -> None:
        self.rules.append(rule)

    def group_of(self, device: str) -> str:
        return self.device_groups.get(device, self.default_group)

    def route(self, alert: Alert, severity: str | None = None) -> str:
        severity = severity or severity_for(alert)
        group = self.group_of(alert.device)
        for rule in self.rules:
            if rule.matches(alert.kind, group, severity):
                return rule.route
        return "log"

    @classmethod
    def default(cls, device_groups: dict[str, str] | None = None) -> "RoutingTable":
        """The out-of-the-box table: criticals page, warnings ticket,
        the rest logs — the shape every on-call rotation starts from."""
        return cls(
            rules=[
                RouteRule(severity="critical", route="page"),
                RouteRule(severity="warning", route="ticket"),
                RouteRule(route="log"),
            ],
            device_groups=device_groups,
        )


@dataclass
class EscalationPolicy:
    """Re-fire escalation: N routed firings of one key inside a window.

    ``threshold`` firings of the same dedup key within the last
    ``window`` routed alerts escalate it to a page.  Counted in routed
    alerts (the router's clock), so a fixed alert stream always
    escalates at the same points.
    """

    threshold: int = 3
    window: int = 256

    def __post_init__(self) -> None:
        if self.threshold < 2:
            raise ValueError("escalation threshold must be at least 2 firings")
        if self.window < 1:
            raise ValueError("escalation window must be positive")


@dataclass
class RoutedAlert:
    """One routing decision: the alert plus where and why it landed."""

    alert: Alert
    severity: str
    group: str
    route: str
    escalated: bool = False


class AlertRouter:
    """The bus sink that turns alerts into pages, tickets and log lines.

    Plug into an :class:`~repro.ops.bus.AlertBus` via ``add_sink``; the
    bus's at-least-once pump may redeliver, and the dedup layer makes
    redelivery harmless (a duplicate inside the cooldown is suppressed,
    which is exactly the dedup contract sinks must honour).
    """

    name = "router"

    def __init__(
        self,
        table: RoutingTable | None = None,
        escalation: EscalationPolicy | None = None,
        cooldown: int = 64,
    ) -> None:
        if cooldown < 1:
            raise ValueError("dedup cooldown must be positive")
        self.table = table if table is not None else RoutingTable.default()
        self.escalation = escalation if escalation is not None else EscalationPolicy()
        self.cooldown = cooldown
        #: Monotonic count of alerts delivered to the router (its clock).
        self.seen = 0
        #: Dedup key -> router clock of the last *routed* firing.
        self._last_routed: dict[tuple, int] = {}
        #: Dedup key -> recent routed-firing clocks (escalation window).
        self._firings: dict[tuple, list[int]] = {}
        self._escalated: set[tuple] = set()
        self.pages: list[RoutedAlert] = []
        self.tickets: list[RoutedAlert] = []
        self.logs: list[RoutedAlert] = []
        #: Alerts suppressed as duplicates inside the cooldown.
        self.deduped = 0

    # -- the sink contract -------------------------------------------------------------

    def deliver(self, alert: Alert) -> None:
        self.seen += 1
        key = self.dedup_key(alert)
        last = self._last_routed.get(key)
        if last is not None and self.seen - last < self.cooldown:
            self.deduped += 1
            return
        self._last_routed[key] = self.seen
        severity = severity_for(alert)
        route = self.table.route(alert, severity)
        escalated = self._note_firing(key)
        if escalated and route != "page":
            route = "page"
        routed = RoutedAlert(
            alert=alert,
            severity=severity,
            group=self.table.group_of(alert.device),
            route=route,
            escalated=escalated,
        )
        {"page": self.pages, "ticket": self.tickets, "log": self.logs}[route].append(routed)

    def _note_firing(self, key: tuple) -> bool:
        """Record one routed firing; True when it crosses the escalation bar."""
        horizon = self.seen - self.escalation.window
        firings = [clock for clock in self._firings.get(key, ()) if clock > horizon]
        firings.append(self.seen)
        self._firings[key] = firings
        if len(firings) >= self.escalation.threshold:
            self._escalated.add(key)
            return True
        return False

    # -- keys and inspection -----------------------------------------------------------

    @staticmethod
    def dedup_key(alert: Alert) -> tuple:
        """Fleet-level identity of a firing: kind + device + destination.

        Deliberately excludes the gateway source — three gateways
        reporting the same (kind, device, dst) are one incident, which
        is precisely the duplication the per-detector cooldowns (keyed
        *with* the gateway) cannot collapse.
        """
        return (alert.kind, alert.device, alert.dst_ip)

    def routed(self) -> list[RoutedAlert]:
        """Every routing decision, in delivery order."""
        merged = self.pages + self.tickets + self.logs
        merged.sort(key=lambda routed: (routed.alert.seq, routed.alert.kind))
        return merged

    def counts(self) -> dict[str, int]:
        return {
            "seen": self.seen,
            "pages": len(self.pages),
            "tickets": len(self.tickets),
            "logs": len(self.logs),
            "deduped": self.deduped,
            "escalated": len(self._escalated),
        }
