"""Outside-in layer trace: spans around calls into each layer's public functions.

The tracer wraps public functions of each layer at class level, keeps a
span stack, and aggregates calls, total time and self time (a span's
duration minus the part its child spans cover) per function online.  Raw
spans -- name, start, end, parent, op id -- are kept only for the first
``keep_ops`` ops (packets, requests or commits) and written as JSON lines
at the end of a run.

Wrappers go in before the deployment is built: the program binds some
methods once at wiring time (the enforcer's audit-sink ``publish``, a
pipeline's alert sink), and a wrapper installed after set-up would never
see those calls.  Recording is switched on only for the traced rounds.

A target the program no longer has is reported as ``absent``, not as an
error, so the trace keeps working across refactors of the program.
"""

from __future__ import annotations

import importlib
import inspect
import json
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Target:
    """One public function of one layer."""

    layer: str
    module: str
    qualname: str

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.qualname}"


def _targets(layer: str, *specs: str) -> tuple[Target, ...]:
    targets = []
    for spec in specs:
        module, _, qualname = spec.partition(":")
        targets.append(Target(layer, f"repro.{module}", qualname))
    return tuple(targets)


#: Layers whose operations are policy commits rather than packets/requests.
COMMIT_LAYERS = ("control-plane",)

#: The reported targets, grouped by layer.  Roots -- spans no other
#: target encloses -- are ``AppProcess.invoke``, ``PolicyEnforcer.process_batch``,
#: ``GatewayFleet.process_batch_timed``, ``PolicyStore.apply`` and
#: ``OperatorControlPlane.drive``.
TARGETS: tuple[Target, ...] = (
    *_targets(
        "device",
        "android.runtime:AppProcess.invoke",
        "android.hooks:HookManager.dispatch_socket_connected",
        "android.runtime:AppProcess.get_stack_trace",
        "core.context_manager:ContextManager.resolve_stack",
        "core.encoding:StackTraceEncoder.encode_option",
        "android.javasocket:JavaSocket.connect",
        "netstack.sockets:Kernel.send",
        "android.device:Device.transmit",
    ),
    *_targets(
        "network",
        "network.topology:EnterpriseNetwork.transmit",
        "netstack.routing:Router.forward",
        "netstack.netfilter:Iptables.process",
        "netstack.netfilter:NetfilterQueue.handle",
        "core.packet_sanitizer:PacketSanitizer.process",
        "network.server:Server.handle",
    ),
    *_targets(
        "enforcer-hit",
        "core.policy_enforcer:PolicyEnforcer.process_batch",
        "core.policy_enforcer:PolicyEnforcer.process",
        "core.encoding:StackTraceEncoder.extract_tag_bytes",
        "core.policy_enforcer:FlowCache.get",
    ),
    *_targets(
        "enforcer-miss",
        "core.encoding:StackTraceEncoder.decode",
        "core.database:SignatureDatabase.lookup_app_id",
        "core.database:DatabaseEntry.decode_indexes",
        "core.policy:CompiledAppPolicy.evaluate_indexes",
        "core.policy:Policy.evaluate",
        "core.policy_enforcer:FlowCache.put",
    ),
    *_targets(
        "fleet",
        "core.fleet:GatewayFleet.process_batch_timed",
        "netstack.sharding:ShardedEnforcer.process_batch_timed",
        "runtime.pool:WorkerPool.submit",
        "runtime.pool:WorkerPool.collect",
    ),
    *_targets(
        "control-plane",
        "core.policy_store:PolicyStore.apply",
        "core.policy_store:GatewayReplica.apply_delta",
        "core.policy_enforcer:PolicyEnforcer.apply_policy_delta",
        "core.policy:CompiledPolicy.apply_delta",
        "core.policy:Policy.compile",
        "core.policy_enforcer:FlowCache.invalidate_apps",
    ),
    *_targets(
        "telemetry",
        "ops.console:OperatorControlPlane.drive",
        "telemetry.pipeline:TelemetryBuffer.publish",
        "telemetry.pipeline:FleetAuditor.drain",
        "telemetry.pipeline:TelemetryPipeline.publish",
        "telemetry.aggregate:SlidingWindowAggregator.observe",
        "ops.baselines:OnlineExfilBaselines.fold_volumes",
        "ops.federation:FleetFederation.scan",
        "ops.bus:AlertBus.publish",
        "ops.bus:AlertBus.pump",
    ),
)

#: Detector ``observe`` methods: counted for ``telemetry.detector_loop_ratio``
#: (how often a published record runs the detector loop), not reported
#: one by one.
DETECTOR_TARGETS: tuple[Target, ...] = _targets(
    "detectors",
    "telemetry.detectors:UnknownTagDetector.observe",
    "telemetry.detectors:SpoofedTagDetector.observe",
    "telemetry.detectors:ExfiltrationVolumeDetector.observe",
    "telemetry.detectors:PolicyViolationBurstDetector.observe",
    "ops.baselines:OnlineExfiltrationDetector.observe",
)

#: Per-layer ratios read from the program's public stats (see
#: ``workloads.Workload.counters``) and from the trace itself.
DERIVED_METRICS: tuple[tuple[str, str], ...] = (
    ("policy_enforcer.cache_hit_ratio", "ratio"),
    ("policy_enforcer.full_decodes_per_pkt", "count"),
    ("policy_enforcer.cache_evictions_per_pkt", "count"),
    ("policy_enforcer.integrity_failures_per_pkt", "count"),
    ("policy_store.apps_recompiled_per_commit", "count"),
    ("policy_store.entries_invalidated_per_commit", "count"),
    ("telemetry.buffer_depth_max", "count"),
    ("telemetry.detector_loop_ratio", "ratio"),
    ("ops.alerts_per_kpkt", "count"),
    ("context_manager.frames_mapped_ratio", "ratio"),
    ("pool.ring_batches", "count"),
    ("pool.pickled_batches", "count"),
    ("pool.worker_crashes", "count"),
    ("trace.op_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unaccounted_ratio", "ratio"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    metrics: list[tuple[str, str]] = []
    for target in TARGETS:
        metrics.append((f"{target.name}.calls_per_op", "count"))
        metrics.append((f"{target.name}.self_share", "ratio"))
    metrics.extend(DERIVED_METRICS)
    return metrics


def _resolve(target: Target):
    """(class, attribute name, raw attribute) or None when absent."""
    try:
        module = importlib.import_module(target.module)
    except ImportError:
        return None
    class_name, _, attribute = target.qualname.partition(".")
    cls = getattr(module, class_name, None)
    if not inspect.isclass(cls):
        return None
    try:
        raw = inspect.getattr_static(cls, attribute)
    except AttributeError:
        return None
    if not callable(raw) and not isinstance(raw, (staticmethod, classmethod)):
        return None
    return cls, attribute, raw


class Tracer:
    """Span stack plus per-function aggregates; optional raw spans."""

    def __init__(self, keep_ops: int = 2000, clock=perf_counter) -> None:
        self.keep_ops = keep_ops
        self.clock = clock
        self.recording = False
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        #: Time covered by spans with no traced parent.
        self.root_s = 0.0
        self.absent: list[str] = []
        #: Raw spans: [name, start, end, parent span index or -1, op id].
        self.spans: list = []
        #: First op of the current harness operation.
        self.op_id = -1
        self._next_op = 0
        self._stack: list = []
        self._installed: list = []

    # -- wiring ------------------------------------------------------------------------

    def install(self, targets) -> None:
        for target in targets:
            resolved = _resolve(target)
            if resolved is None:
                self.absent.append(target.name)
                continue
            cls, attribute, raw = resolved
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self.wrap(target.name, raw.__func__))
            else:
                wrapped = self.wrap(target.name, raw)
            self._installed.append((cls, attribute, cls.__dict__.get(attribute)))
            setattr(cls, attribute, wrapped)

    def uninstall(self) -> None:
        for cls, attribute, original in reversed(self._installed):
            if original is None:
                delattr(cls, attribute)
            else:
                setattr(cls, attribute, original)
        self._installed.clear()

    def wrap(self, name: str, function):
        """``function`` with a span around every call made while recording."""
        tracer = self
        clock = self.clock
        stack = self._stack

        def traced(*args, **kwargs):
            if not tracer.recording:
                return function(*args, **kwargs)
            # frame: [time covered by child spans, raw span index or -1]
            frame = [0.0, -1]
            if tracer.op_id < tracer.keep_ops:
                frame[1] = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._close(name, start, end, frame)

        traced.__name__ = getattr(function, "__name__", name)
        traced.__qualname__ = getattr(function, "__qualname__", name)
        traced.__doc__ = getattr(function, "__doc__", None)
        traced.__wrapped__ = function
        return traced

    def _close(self, name: str, start: float, end: float, frame: list) -> None:
        elapsed = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + elapsed
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - frame[0]
        if self._stack:
            parent = self._stack[-1]
            parent[0] += elapsed
            parent_index = parent[1]
        else:
            self.root_s += elapsed
            parent_index = -1
        if frame[1] >= 0:
            self.spans[frame[1]] = [name, start, end, parent_index, self.op_id]

    # -- operations --------------------------------------------------------------------

    def begin_op(self, ops: int = 1) -> None:
        """Start the next harness operation: a burst of ``ops`` packets, one
        request or one commit.  Raw spans are kept while the operation's
        first op is below ``keep_ops``."""
        self.op_id = self._next_op
        self._next_op += ops

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is not None:
                    name, start, end, parent, op_id = span
                    handle.write(
                        json.dumps(
                            {"name": name, "start": start, "end": end, "parent": parent, "op": op_id}
                        )
                        + "\n"
                    )

    # -- report ------------------------------------------------------------------------

    def report(self, ops: int, commits: int, wall_s: float) -> dict:
        """Per-target figures for ``ops`` packets/requests and ``commits``
        commits whose operations took ``wall_s`` in total.

        ``calls_per_op`` divides by commits for control-plane targets and
        by packets/requests for every other layer; ``self_share`` is the
        target's self time as a share of ``wall_s``.
        """
        targets = {}
        for target in TARGETS:
            per = commits if target.layer in COMMIT_LAYERS else ops
            calls = self.calls.get(target.name, 0)
            total_s = self.total_s.get(target.name, 0.0)
            self_s = self.self_s.get(target.name, 0.0)
            targets[target.name] = {
                "layer": target.layer,
                "absent": target.name in self.absent,
                "calls": calls,
                "calls_per_op": calls / per if per else 0.0,
                "total_us_per_op": 1e6 * total_s / per if per else 0.0,
                "self_us_per_op": 1e6 * self_s / per if per else 0.0,
                "self_share": self_s / wall_s if wall_s else 0.0,
            }
        publishes = self.calls.get("pipeline.TelemetryPipeline.publish", 0)
        observes = sum(self.calls.get(target.name, 0) for target in DETECTOR_TARGETS)
        return {
            "targets": targets,
            "absent": sorted(self.absent),
            "detector_loop_ratio": observes / publishes if publishes else 0.0,
            "unaccounted_ratio": (wall_s - self.root_s) / wall_s if wall_s else 0.0,
        }
