"""Operator control plane: the consumer side of fleet telemetry.

The telemetry subsystem (PR 4) made the gateway fleet *observable* —
durable audit spools, sliding windows, structured alerts.  This package
makes it *operable*: the on-call surface that decides what an alert is
worth and gets it to a human.

* :mod:`repro.ops.bus` — the durable alert bus: a bounded queue with
  pluggable :class:`~repro.ops.bus.AlertSink` delivery (JSON-lines
  spool with segment rotation, webhook-shaped callables, in-memory),
  backpressure counters and at-least-once redelivery per sink;
* :mod:`repro.ops.routing` — the triage layer: severity defaults, a
  first-match routing table over (kind, device group, severity) →
  page/ticket/log, fleet-level cooldown dedup, and escalation when one
  key keeps re-firing;
* :mod:`repro.ops.baselines` — streaming calibration: one flat EWMA
  and P² quantile estimator per (device, destination) folded from live
  windows, so exfiltration thresholds adapt online with no calibration
  replay;
* :mod:`repro.ops.federation` — fleet-federated detectors that re-merge
  the campaigns flow-hash routing splits across gateways (source-port
  rotation included), which per-gateway detectors provably miss;
* :mod:`repro.ops.console` — :class:`~repro.ops.console
  .OperatorControlPlane`, the assembled machine: bus + router +
  federation wired onto a :class:`~repro.telemetry.pipeline
  .FleetAuditor`, driven one tick per burst.
"""

from repro.ops.baselines import (
    BaselineEstimator,
    OnlineExfilBaselines,
    OnlineExfiltrationDetector,
)
from repro.ops.bus import (
    AlertBus,
    AlertSink,
    JsonlSpoolSink,
    MemorySink,
    WebhookSink,
    replay_spool,
)
from repro.ops.console import OperatorControlPlane, online_detector_factory
from repro.ops.federation import FleetFederation
from repro.ops.routing import (
    AlertRouter,
    EscalationPolicy,
    RouteRule,
    RoutingTable,
    severity_for,
)

__all__ = [
    "AlertBus",
    "AlertRouter",
    "AlertSink",
    "BaselineEstimator",
    "EscalationPolicy",
    "FleetFederation",
    "JsonlSpoolSink",
    "MemorySink",
    "OnlineExfilBaselines",
    "OnlineExfiltrationDetector",
    "OperatorControlPlane",
    "RouteRule",
    "RoutingTable",
    "WebhookSink",
    "online_detector_factory",
    "replay_spool",
    "severity_for",
]
