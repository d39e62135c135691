"""The Policy Enforcer — BorderPatrol's border-side decision point.

A user-space NFQUEUE consumer (the prototype uses Python's
``netfilterqueue`` bindings plus Scapy, §V-C) that runs three stages per
packet:

1. *extraction* — pull the BorderPatrol option out of ``IP_OPTIONS``;
2. *decoding*   — select the app's signature mapping by the embedded
   (truncated) apk hash and map each index back to a method signature,
   rebuilding the stack trace;
3. *enforcement* — evaluate the company policy against the decoded
   context and accept or drop the packet.

Packets without a tag are dropped by default: per the paper's
compatibility discussion (§VII) every packet leaving the work profile
must originate from a socket BorderPatrol controls, so an untagged
packet inside the perimeter is either personal-profile traffic that
should not exit through the corporate uplink or an app evading the
Context Manager.

Fast path
---------
The naive pipeline above decodes every tag index back to a full
signature string and re-evaluates the policy for every packet — the
per-packet cost Figure 4 attributes to the Python NFQUEUE consumer.
Production gateways avoid this with two standard techniques this module
implements:

* **policy compilation** (:meth:`repro.core.policy.Policy.compile`):
  rules are lowered, per app, into raw method-index sets, so stage 3
  matches the integer tag indexes directly; signature strings are only
  decoded for audit records (or when a rule cannot be compiled);
* **flow caching** (:class:`FlowCache`): a conntrack-style LRU keyed on
  (flow 5-tuple, raw tag bytes) lets repeated packets of a flow skip
  decoding and evaluation entirely.  The cache is invalidated by
  :meth:`PolicyEnforcer.set_policy` and :meth:`PolicyEnforcer.reset`.

Both layers are verdict-preserving: for any replay, the fast path and
the naive path produce identical verdicts, matched rules and reasons.

Every packet goes through one loop, :meth:`PolicyEnforcer.process_batch`
(:meth:`~PolicyEnforcer.process` is a one-packet burst of it).  A cache
hit runs inline — tag extraction, cache probe, counters — and builds no
audit record unless something consumes it: kept records or an attached
sink.  Only misses call ``_decide``.

Control plane
-------------
:meth:`PolicyEnforcer.set_policy` is the legacy whole-replacement path:
it recompiles every app and flushes the entire flow cache.  Under
continuous admin edits the enforcer instead subscribes to a
:class:`~repro.core.policy_store.PolicyStore` and receives versioned
:class:`~repro.core.policy_store.PolicyDelta` objects
(:meth:`PolicyEnforcer.apply_policy_delta`): only the apps a changed
rule can touch are recompiled, and only those apps' flow-cache entries
are dropped (:meth:`FlowCache.invalidate_apps`), keeping unrelated hot
flows warm across rule edits.  Whole-cache invalidation remains the
fallback for database-generation changes and whitelist-mode
transitions.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, fields
from time import perf_counter
from typing import NamedTuple

from repro.core.database import SignatureDatabase
from repro.core.encoding import EncodingError, IndexWidth, StackTraceEncoder
from repro.core.policy import CompiledPolicy, DecodedContext, Policy, PolicyDecision
from repro.netstack.ip import BORDERPATROL_OPTION_TYPE, IPPacket
from repro.netstack.netfilter import Verdict

#: Canonical integrity-failure reasons.  These are enforcement outcomes
#: that indicate tag tampering/evasion rather than an ordinary policy
#: denial; the telemetry detectors match on them, so they are constants
#: instead of repeated string literals.
REASON_UNTAGGED = "untagged packet"
REASON_UNKNOWN_APP = "unknown app hash"
REASON_DECODE_RANGE = "index out of range for app mapping"
REASON_MALFORMED_TAG = "malformed context tag"


@dataclass(frozen=True)
class EnforcementRecord:
    """One enforcement decision, kept for auditing and experiments."""

    packet_id: int
    dst_ip: str
    verdict: Verdict
    reason: str
    app_id: str = ""
    package_name: str = ""
    signatures: tuple[str, ...] = ()
    #: Telemetry attribution: the sending device's enterprise IP and the
    #: outbound payload size (bytes-out aggregation needs both).
    src_ip: str = ""
    payload_bytes: int = 0

    @property
    def dropped(self) -> bool:
        return self.verdict is Verdict.DROP


@dataclass
class EnforcerStats:
    packets_seen: int = 0
    packets_allowed: int = 0
    packets_dropped: int = 0
    untagged_packets: int = 0
    unknown_apps: int = 0
    decode_errors: int = 0
    #: Flow-cache behaviour (conntrack-style fast path).
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_invalidations: int = 0
    #: Control-plane deltas applied (:meth:`PolicyEnforcer.apply_policy_delta`).
    policy_deltas_applied: int = 0
    #: Apps recompiled incrementally by deltas (vs whole-policy recompiles).
    apps_recompiled: int = 0
    #: Deltas that invalidated surgically instead of flushing the cache.
    cache_surgical_invalidations: int = 0
    #: Flow-cache entries dropped by surgical (per-app) invalidation.
    cache_entries_invalidated: int = 0
    #: How many packets required a full index→string decode.
    full_decodes: int = 0
    #: Policy evaluations through the compiled (integer) path.
    compiled_evals: int = 0
    #: Policy evaluations that fell back to string matching.
    fallback_evals: int = 0
    #: Always zero: enforcement runs in-process.  ``bench/workloads.py``
    #: (``_enforcer_ratios``) reads them into its ``pool.*`` metrics;
    #: drop them together with those.
    pool_ring_batches: int = 0
    pool_pickled_batches: int = 0
    pool_worker_crashes: int = 0
    #: Flow-cache entries lost per app (surgical invalidations + LRU
    #: evictions): which apps churn the cache hardest.
    cache_churn_by_app: dict = field(default_factory=dict)

    def merge(self, other: "EnforcerStats") -> None:
        """Accumulate ``other`` into this stats object (counters add,
        per-app churn maps merge key-wise)."""
        for stat_field in fields(EnforcerStats):
            mine = getattr(self, stat_field.name)
            theirs = getattr(other, stat_field.name)
            if isinstance(mine, dict):
                for key, count in theirs.items():
                    mine[key] = mine.get(key, 0) + count
            else:
                setattr(self, stat_field.name, mine + theirs)

    def delta_since(self, baseline: "EnforcerStats") -> "EnforcerStats":
        """The counters accrued since ``baseline`` was snapshotted.

        A benchmark snapshots the stats after set-up and reports only the
        work its measured rounds did.
        """
        delta = EnforcerStats()
        for stat_field in fields(EnforcerStats):
            mine = getattr(self, stat_field.name)
            base = getattr(baseline, stat_field.name)
            if isinstance(mine, dict):
                churn = {
                    key: count - base.get(key, 0)
                    for key, count in mine.items()
                    if count - base.get(key, 0)
                }
                setattr(delta, stat_field.name, churn)
            else:
                setattr(delta, stat_field.name, mine - base)
        return delta

    def top_churn_apps(self, limit: int = 3) -> list[tuple[str, int]]:
        """The apps losing the most flow-cache entries, hottest first."""
        ranked = sorted(self.cache_churn_by_app.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:limit]

    def copy(self) -> "EnforcerStats":
        snapshot = EnforcerStats()
        snapshot.merge(self)
        return snapshot


class _CachedDecision(NamedTuple):
    """What the flow cache remembers about one (flow, tag) combination,
    and the template every :class:`EnforcementRecord` is stamped from."""

    verdict: Verdict
    reason: str
    app_id: str
    package_name: str
    signatures: tuple[str, ...]


_UNTAGGED_DROP = _CachedDecision(Verdict.DROP, REASON_UNTAGGED, "", "", ())
_UNTAGGED_ACCEPT = _CachedDecision(Verdict.ACCEPT, REASON_UNTAGGED, "", "", ())
#: A tag too short for the app identifier, or whose index body does not
#: split into whole indexes.
_MALFORMED = _CachedDecision(Verdict.DROP, REASON_MALFORMED_TAG, "", "", ())


def distinct_stacks(
    records: list[EnforcementRecord], dst_ip: str
) -> list[tuple[str, ...]]:
    """Distinct decoded stacks towards ``dst_ip``, in first-seen order."""
    seen: set[tuple[str, ...]] = set()
    stacks: list[tuple[str, ...]] = []
    for record in records:
        if record.dst_ip != dst_ip or not record.signatures:
            continue
        if record.signatures in seen:
            continue
        seen.add(record.signatures)
        stacks.append(record.signatures)
    return stacks


class FlowCache:
    """Conntrack-style LRU of enforcement outcomes.

    Keys are ``(flow 5-tuple, raw tag bytes)``: every field that can
    change the verdict for a given policy.  Values are
    :class:`_CachedDecision` templates; a hit returns the template's
    verdict, and a per-packet audit record is stamped from it only when
    a consumer wants one.  The enforcement loop probes ``_entries``
    directly; :meth:`get` and :meth:`put` are the same operations for
    everything else.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("flow cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, _CachedDecision]" = OrderedDict()

    def get(self, key: tuple) -> _CachedDecision | None:
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
        return cached

    def put(self, key: tuple, value: _CachedDecision) -> str | None:
        """Store ``value``; returns the evicted flow's app label (None if
        no older flow was evicted)."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            return evicted.package_name or evicted.app_id
        return None

    def invalidate_apps(self, app_ids: set[str]) -> dict[str, int]:
        """Drop every cached verdict belonging to one of ``app_ids``.

        The surgical counterpart of :meth:`clear`: a policy delta that
        can only affect some apps removes exactly those apps' entries,
        so unrelated hot flows keep their cached verdicts.  Returns the
        number of entries removed per app, keyed by package name (the
        label administrators see in churn reports) with the on-wire app
        id as fallback.
        """
        stale = [key for key, value in self._entries.items() if value.app_id in app_ids]
        removed: dict[str, int] = {}
        for key in stale:
            entry = self._entries.pop(key)
            label = entry.package_name or entry.app_id
            removed[label] = removed.get(label, 0) + 1
        return removed

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class PolicyEnforcer:
    """NFQUEUE consumer applying the company policy to tagged packets.

    ``compile_policy`` and ``flow_cache_size`` control the fast path;
    ``compile_policy=False`` together with ``flow_cache_size=0`` yields
    the paper's naive per-packet decode-and-evaluate pipeline.
    """

    def __init__(
        self,
        database: SignatureDatabase,
        policy: Policy | None = None,
        drop_untagged: bool = True,
        drop_unknown_apps: bool = True,
        index_width: IndexWidth = IndexWidth.FIXED_2,
        keep_records: bool = True,
        compile_policy: bool = True,
        flow_cache_size: int = 4096,
        record_capacity: int = 65536,
        audit_log=None,
        audit_sink=None,
        audit_source: str = "gateway",
    ) -> None:
        self.database = database
        # `policy or ...` would discard an *empty* Policy (its __len__
        # makes it falsy) and silently sever the caller's reference —
        # rules added to it later would never be enforced.
        self.policy = policy if policy is not None else Policy.allow_all()
        self.drop_untagged = drop_untagged
        self.drop_unknown_apps = drop_unknown_apps
        self.encoder = StackTraceEncoder(index_width=index_width)
        self.keep_records = keep_records
        self.compile_policy = compile_policy
        self.stats = EnforcerStats()
        # Imported lazily: the telemetry package sits on top of this
        # module, so a top-level import would be circular.
        from repro.telemetry.audit import AuditLog

        #: Audit trail of recent decisions: a bounded ring (optionally
        #: spooling JSON segments) instead of the unbounded list it used
        #: to be, so ``keep_records=True`` cannot grow without limit.
        self.records: AuditLog = (
            audit_log if audit_log is not None else AuditLog(capacity=record_capacity)
        )
        #: Streaming telemetry: every decided record is published here
        #: (even with ``keep_records=False``) when a sink is attached.
        self.audit_sink = audit_sink
        self.audit_source = audit_source
        # Bound-method cache: one attribute lookup per packet matters on
        # the hot path.
        self._sink_publish = audit_sink.publish if audit_sink is not None else None
        self.flow_cache: FlowCache | None = (
            FlowCache(flow_cache_size) if flow_cache_size > 0 else None
        )
        #: Observability hook (see ``repro.obs.instrument``).  Detached
        #: by default: the hot path pays one attribute check per packet.
        self._obs = None
        self._obs_tick = 0
        #: Control-plane policy version this enforcer has converged to
        #: (0 until a PolicyStore syncs or deltas it).
        self.policy_version = 0
        self._cache_generation = database.generation
        self._active_policy = self.policy
        self._active_revision = self.policy.revision
        self._active_rule_count = len(self.policy.rules)
        self._compiled: CompiledPolicy | None = (
            self.policy.compile(database) if compile_policy else None
        )

    # -- policy management ------------------------------------------------------------

    def set_policy(self, policy: Policy) -> None:
        """Swap the active policy; takes effect for the next packet.

        Recompiles the fast path and flushes the flow cache — cached
        verdicts were computed under the old policy.
        """
        self.policy = policy
        self.invalidate_caches()

    def sync_policy(self, policy: Policy, version: int) -> None:
        """Full resync from a control plane: swap the policy, adopt its version.

        Used by :meth:`repro.core.policy_store.PolicyStore.subscribe`
        and :meth:`~repro.core.policy_store.PolicyStore.reset_to`; the
        delta path is :meth:`apply_policy_delta`.
        """
        self.set_policy(policy)
        self.policy_version = version

    def apply_policy_delta(self, delta) -> None:
        """Apply a versioned :class:`~repro.core.policy_store.PolicyDelta`.

        The surgical path: recompile only the apps the delta's changed
        rules can touch, and invalidate only those apps' flow-cache
        entries.  Falls back to :meth:`invalidate_caches` (whole cache,
        full recompile) when the delta says so (``delta.full``: default
        action change or whitelist-mode transition), when this enforcer
        runs without compilation, when the database generation moved, or
        when the active policy does not match the delta's base — it was
        mutated outside the control plane (in-place ``add_rule`` on the
        live policy object), so the compiled state is not a valid base
        for an incremental patch.  In every fallback the store's
        snapshot still wins: enforcement converges to the store's rules,
        never to a mix.
        """
        self.stats.policy_deltas_applied += 1
        self.policy_version = delta.version
        previous = self.policy
        self.policy = delta.policy
        if (
            delta.full
            or not self.compile_policy
            or self._compiled is None
            or previous is not self._active_policy
            or previous.revision != self._active_revision
            or len(previous.rules) != self._active_rule_count
            or tuple(previous.rules) != delta.base_rules
            or previous.default_action is not delta.base_default
        ):
            self.invalidate_caches()
            return
        affected = self._compiled.apply_delta(delta.policy, delta.changed_rules)
        if affected is None:
            self.invalidate_caches()
            return
        self._active_policy = self.policy
        self._active_revision = self.policy.revision
        self._active_rule_count = len(self.policy.rules)
        self.stats.apps_recompiled += len(affected)
        if self.flow_cache is not None:
            self.stats.cache_surgical_invalidations += 1
            if affected:
                removed = self.flow_cache.invalidate_apps(affected)
                self.stats.cache_entries_invalidated += sum(removed.values())
                for label, count in removed.items():
                    self.stats.cache_churn_by_app[label] = (
                        self.stats.cache_churn_by_app.get(label, 0) + count
                    )

    def invalidate_caches(self) -> None:
        """Recompile the policy and drop every cached flow verdict.

        Runs automatically on :meth:`set_policy` and whenever the
        enforcer notices the active policy gained rules in place
        (``policy.add_rule``) or was swapped by attribute assignment.
        """
        self._compiled = self.policy.compile(self.database) if self.compile_policy else None
        self._cache_generation = self.database.generation
        self._active_policy = self.policy
        self._active_revision = self.policy.revision
        self._active_rule_count = len(self.policy.rules)
        if self.flow_cache is not None:
            self.flow_cache.clear()
            self.stats.cache_invalidations += 1

    # -- QueueConsumer interface ---------------------------------------------------------

    def attach_audit_sink(self, sink, source: str | None = None) -> None:
        """Publish every future decision into ``sink`` (an
        :class:`~repro.telemetry.pipeline.AuditSink`), labelled with
        ``source`` — typically the gateway name telemetry aggregates by."""
        self.audit_sink = sink
        self._sink_publish = sink.publish if sink is not None else None
        if source is not None:
            self.audit_source = source

    def attach_observability(self, obs) -> None:
        """Attach (or detach, with ``None``) an
        :class:`~repro.obs.instrument.EnforcerObservability`: every
        ``obs.sample_every``-th packet then reports per-stage latency
        marks.  Verdicts are untouched — instrumentation only times the
        path the packet takes anyway."""
        self._obs = obs
        self._obs_tick = 0

    def process(self, packet: IPPacket) -> tuple[Verdict, IPPacket]:
        """Enforce one packet: a one-packet burst of :meth:`process_batch`."""
        return self.process_batch([packet])[0]

    def process_batch(self, packets: list[IPPacket]) -> list[tuple[Verdict, IPPacket]]:
        """Enforce a burst of packets, preserving input order.

        The one enforcement loop.  Per packet it runs the in-place policy
        mutation check, the sampled obs tick, tag extraction and the
        flow-cache probe inline; only a miss calls :meth:`_decide`.  An
        :class:`EnforcementRecord` is stamped only when something
        consumes it (kept records or an audit sink), so a cache hit with
        neither builds no object at all.  Consumers and the obs hook are
        bound once per burst.
        """
        stats = self.stats
        database = self.database
        cache = self.flow_cache
        if cache is not None:
            cache_get = cache._entries.get
            cache_touch = cache._entries.move_to_end
        keep = self.keep_records
        append_record = self.records.append
        publish = self._sink_publish
        source = self.audit_source
        stamp = keep or publish is not None
        obs = self._obs
        tick = self._obs_tick
        sample_every = obs.sample_every if obs is not None else 0
        untagged = _UNTAGGED_DROP if self.drop_untagged else _UNTAGGED_ACCEPT
        accept = Verdict.ACCEPT
        # Snapshots of the state the per-packet checks compare against;
        # refreshed whenever this loop invalidates.
        active_policy = self._active_policy
        active_revision = self._active_revision
        active_rule_count = self._active_rule_count
        generation = self._cache_generation
        results: list[tuple[Verdict, IPPacket]] = []
        for packet in packets:
            stats.packets_seen += 1
            # The naive path read the live rule list every packet, so
            # rules added in place (policy.add_rule) — or removed by
            # mutating the public ``rules`` list directly — took effect
            # immediately; three integer/identity compares keep that
            # contract.  (Same-length in-place rule *replacement* is the
            # one mutation this cannot see; call invalidate_caches()
            # after doing that.)
            policy = self.policy
            if (
                policy is not active_policy
                or policy.revision != active_revision
                or len(policy.rules) != active_rule_count
            ):
                self.invalidate_caches()
                active_policy = self._active_policy
                active_revision = self._active_revision
                active_rule_count = self._active_rule_count
                generation = self._cache_generation
            # ``marks`` collects (stage, perf_counter) completion stamps
            # for the sampled packet; None on every other packet.
            marks = None
            if obs is not None:
                tick += 1
                if tick >= sample_every:
                    tick = 0
                    marks = []
                    started = perf_counter()

            # Stage 1: extraction.
            tag_bytes = None
            for option in packet.options.options:
                if option.option_type == BORDERPATROL_OPTION_TYPE:
                    tag_bytes = option.data
                    break
            if marks is not None:
                marks.append(("extract", perf_counter()))

            if tag_bytes is None:
                stats.untagged_packets += 1
                decision = untagged
            elif cache is None:
                decision = self._decide(tag_bytes, None, marks)
            else:
                if database.generation != generation:
                    # The database changed (enrolment/removal): cached
                    # verdicts may be stale, e.g. an ACCEPT for a
                    # since-revoked app.
                    cache.clear()
                    generation = self._cache_generation = database.generation
                    stats.cache_invalidations += 1
                # Flow-cache probe: repeated packets of a flow skip
                # stages 2 and 3.
                key = (
                    (packet.src_ip, packet.src_port, packet.dst_ip, packet.dst_port,
                     packet.protocol),
                    tag_bytes,
                )
                decision = cache_get(key)
                if marks is not None:
                    marks.append(("cache_lookup", perf_counter()))
                if decision is None:
                    stats.cache_misses += 1
                    decision = self._decide(tag_bytes, key, marks)
                else:
                    cache_touch(key)
                    stats.cache_hits += 1

            verdict = decision.verdict
            if verdict is accept:
                stats.packets_allowed += 1
            else:
                stats.packets_dropped += 1
            if marks is not None:
                obs.record(started, marks)
            if stamp:
                record = EnforcementRecord(
                    packet_id=packet.packet_id,
                    dst_ip=packet.dst_ip,
                    verdict=verdict,
                    reason=decision.reason,
                    app_id=decision.app_id,
                    package_name=decision.package_name,
                    signatures=decision.signatures,
                    src_ip=packet.src_ip,
                    payload_bytes=packet.payload_size,
                )
                if keep:
                    append_record(record)
                if publish is not None:
                    publish(record, source)
            results.append((verdict, packet))
        self._obs_tick = tick
        return results

    # -- stages 2 and 3 -------------------------------------------------------------------

    def _decide(
        self, tag_bytes: bytes, cache_key: tuple | None, marks: list | None
    ) -> _CachedDecision:
        """Decode ``tag_bytes`` and evaluate the policy for a flow-cache miss.

        Returns the decision template the caller stamps records from; a
        policy decision is also cached under ``cache_key`` (when not
        None).  Integrity failures — a malformed tag, an unknown app, an
        out-of-range index — are never cached.
        """
        stats = self.stats
        # Stage 2: decoding.
        try:
            tag = self.encoder.decode(tag_bytes)
        except EncodingError:
            tag = entry = None
        else:
            entry = self.database.lookup_app_id(tag.app_id)
        if marks is not None:
            marks.append(("decode", perf_counter()))
        if tag is None:
            stats.decode_errors += 1
            return _MALFORMED
        if entry is None:
            stats.unknown_apps += 1
            return _CachedDecision(
                Verdict.DROP if self.drop_unknown_apps else Verdict.ACCEPT,
                REASON_UNKNOWN_APP,
                tag.app_id,
                "",
                (),
            )
        if any(not 0 <= index < entry.method_count for index in tag.indexes):
            stats.decode_errors += 1
            return _CachedDecision(
                Verdict.DROP, REASON_DECODE_RANGE, tag.app_id, entry.package_name, ()
            )

        # Stage 3: enforcement — compiled integer matching when possible,
        # string decoding only for audit records or uncompilable rules.
        compiled = self._compiled.for_app(tag.app_id) if self._compiled is not None else None
        signatures: tuple[str, ...] = ()
        if compiled is not None:
            outcome = compiled.evaluate_indexes(tag.indexes)
            stats.compiled_evals += 1
            if self.keep_records:
                signatures = tuple(entry.decode_indexes(tag.indexes))
                stats.full_decodes += 1
        else:
            signatures = tuple(entry.decode_indexes(tag.indexes))
            stats.full_decodes += 1
            context = DecodedContext(
                app_id=tag.app_id,
                signatures=signatures,
                app_md5=entry.md5,
                package_name=entry.package_name,
            )
            outcome = self.policy.evaluate(context)
            stats.fallback_evals += 1
        if marks is not None:
            marks.append(("eval", perf_counter()))

        decision = _CachedDecision(
            outcome.verdict, outcome.reason, tag.app_id, entry.package_name, signatures
        )
        if cache_key is not None:
            evicted_app = self.flow_cache.put(cache_key, decision)
            if evicted_app is not None:
                stats.cache_evictions += 1
                stats.cache_churn_by_app[evicted_app] = (
                    stats.cache_churn_by_app.get(evicted_app, 0) + 1
                )
            if marks is not None:
                marks.append(("cache_put", perf_counter()))
        return decision

    # -- inspection -----------------------------------------------------------------------

    def dropped_records(self) -> list[EnforcementRecord]:
        return [r for r in self.records if r.dropped]

    def allowed_records(self) -> list[EnforcementRecord]:
        return [r for r in self.records if not r.dropped]

    def decoded_stacks_to(self, dst_ip: str) -> list[tuple[str, ...]]:
        """Distinct decoded stack traces observed towards ``dst_ip``.

        Each stack appears once, in first-seen order, no matter how many
        packets carried it.
        """
        return distinct_stacks(self.records, dst_ip)

    def clear_records(self) -> None:
        """Drop the audit records while keeping stats and caches intact."""
        self.records.clear()

    def reset(self) -> None:
        self.stats = EnforcerStats()
        self.records.clear()
        if self.flow_cache is not None:
            self.flow_cache.clear()
