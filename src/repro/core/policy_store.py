"""The versioned policy control plane.

The paper treats the company policy as a static blob an administrator
swaps wholesale; at production scale (continuous admin edits over a
gateway serving millions of flows) that model collapses the fast path
exactly when it matters, because every swap recompiles every app and
flushes every cached flow verdict.  This module is the control plane
that replaces it:

* **addressable rules** — every rule in a :class:`PolicyStore` has a
  stable id (``r1``, ``r2``, …) that survives serialization;
* **delta updates** — mutations are :class:`PolicyUpdate` transactions
  built from :class:`AddRule` / :class:`RemoveRule` / :class:`ReplaceRule` /
  :class:`SetDefault` operations, applied atomically; every committed
  transaction bumps a monotonic :attr:`PolicyStore.version`;
* **immutable snapshots** — the store derives frozen
  :class:`~repro.core.policy.Policy` snapshots; data-plane components
  never see a half-applied transaction;
* **surgical propagation** — subscribed enforcers receive a
  :class:`PolicyDelta` naming exactly the rules whose membership
  changed, so they can recompile only the apps those rules can touch
  and invalidate only those apps' flow-cache entries
  (:meth:`repro.core.policy_enforcer.PolicyEnforcer.apply_policy_delta`);
* **first-class serialization** — :meth:`PolicyStore.to_json` /
  :meth:`PolicyStore.from_json` persist rules in the paper's Snippet 1
  grammar (each serialized rule is the grammar rendering, re-parsed on
  load), so the on-disk format round-trips through the same parser the
  text format uses.

``Policy``-level full replacement remains available —
:meth:`PolicyStore.set_policy` records it as one replace-all
transaction — which is what keeps the legacy ``set_policy(policy)``
entry points working as thin compatibility shims.

Replication
-----------
Every committed transaction is also appended — ids resolved, rules
rendered in the Snippet 1 grammar — to the store's :class:`DeltaLog`, an
append-only, JSON-serializable record of the store's whole history.
A :class:`GatewayReplica` is one remote gateway's mirror of the store:
it attaches at some version, consumes :class:`DeltaLogRecord` entries
(pushed live through :meth:`PolicyStore.subscribe_replica`, or replayed
in bulk via :meth:`GatewayReplica.catch_up`), and re-applies each
transaction to its own shadow rule table, fanning the same surgical
:class:`PolicyDelta` out to its local enforcer.  Chained fingerprints
over the rule table make divergence detectable at apply time: a replica
whose state does not hash to a record's parent fingerprint refuses the
record instead of silently forking the fleet's policy.

Compaction
----------
The log is not append-only forever: :meth:`DeltaLog.compact` folds the
record prefix into a :class:`SnapshotRecord` (the full rule table at
that version, carrying the same chained fingerprint the folded prefix
ended on) followed by the surviving delta suffix.  A late-joining
replica bootstraps from the snapshot — one fingerprint-verified full
sync through its shadow store — and replays only the suffix, converging
in O(suffix) instead of O(history); ``PolicyStore(compact_every=N)``
folds automatically every N committed versions so long-lived stores
stay bounded.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace as dataclass_replace
from typing import Iterator

from repro.core.policy import (
    Policy,
    PolicyAction,
    PolicyParseError,
    PolicyRule,
    parse_policy,
)


class PolicyUpdateError(ValueError):
    """Raised when a transaction cannot be applied; the store is unchanged."""


class ReplicationError(RuntimeError):
    """Raised when a replica cannot consume a delta-log record.

    Either the log cannot serve the replica's version (truncated /
    non-contiguous), the replica's rule table no longer hashes to the
    record's parent fingerprint (it was mutated out of band and has
    diverged), or the record is opaque (an out-of-band full sync whose
    rules could not be serialized).  In every case the safe recovery is
    to re-attach the replica from the store's current state.
    """


def _fingerprint_state(items, default_action: PolicyAction) -> str:
    """Stable hash of an id-addressed rule table plus its default action.

    Covers exactly the enforcement-relevant state (ids, order, action/
    level/target, default) so two gateways with equal fingerprints are
    guaranteed verdict-identical.
    """
    hasher = hashlib.sha256()
    hasher.update(default_action.value.encode("utf-8"))
    for rule_id, rule in items:
        hasher.update(b"\x00")
        hasher.update(rule_id.encode("utf-8"))
        hasher.update(
            f"|{rule.action.value}|{rule.level.name}|{rule.target}".encode("utf-8")
        )
    return hasher.hexdigest()


def _next_free_id(taken, next_id: int) -> tuple[str, int]:
    """The next unused ``rN`` id given already-taken ids and a counter."""
    while f"r{next_id}" in taken:
        next_id += 1
    return f"r{next_id}", next_id + 1


def _validate_rule(rule: PolicyRule, rule_id) -> None:
    """Reject rules/ids that :meth:`PolicyStore.from_json` could not re-read.

    Commit-time validation keeps the serialization round-trip total: any
    state :meth:`PolicyStore.apply` accepts, ``from_json(to_json(...))``
    can restore.
    """
    if rule_id is not None and not isinstance(rule_id, str):
        raise PolicyUpdateError(f"rule id must be a string, got: {rule_id!r}")
    if '"' in rule.target:
        raise PolicyUpdateError(
            f"rule target {rule.target!r} cannot be rendered in the Snippet 1 "
            "grammar (double quotes are the target delimiter)"
        )


# -- update operations ----------------------------------------------------------------


@dataclass(frozen=True)
class AddRule:
    """Append ``rule``; ``rule_id`` is allocated at commit time if None."""

    rule: PolicyRule
    rule_id: str | None = None

    def describe(self) -> str:
        rid = self.rule_id or "r?"
        return f"+ {rid} {self.rule.render()}"


@dataclass(frozen=True)
class RemoveRule:
    rule_id: str

    def describe(self) -> str:
        return f"- {self.rule_id}"


@dataclass(frozen=True)
class ReplaceRule:
    """Swap the rule behind ``rule_id`` in place (position preserved)."""

    rule_id: str
    rule: PolicyRule

    def describe(self) -> str:
        return f"~ {self.rule_id} {self.rule.render()}"


@dataclass(frozen=True)
class SetDefault:
    action: PolicyAction

    def describe(self) -> str:
        return f"! default {self.action.value}"


@dataclass
class PolicyUpdate:
    """A batch of operations applied as one atomic transaction.

    The builder methods return ``self`` so updates chain fluently::

        store.apply(
            PolicyUpdate(reason="block flurry")
            .add_rule(PolicyRule(PolicyAction.DENY, PolicyLevel.LIBRARY, "com/flurry"))
            .remove_rule("r3")
        )
    """

    ops: list = field(default_factory=list)
    reason: str = ""

    def add_rule(self, rule: PolicyRule, rule_id: str | None = None) -> "PolicyUpdate":
        self.ops.append(AddRule(rule=rule, rule_id=rule_id))
        return self

    def remove_rule(self, rule_id: str) -> "PolicyUpdate":
        self.ops.append(RemoveRule(rule_id=rule_id))
        return self

    def replace_rule(self, rule_id: str, rule: PolicyRule) -> "PolicyUpdate":
        self.ops.append(ReplaceRule(rule_id=rule_id, rule=rule))
        return self

    def set_default(self, action: PolicyAction) -> "PolicyUpdate":
        self.ops.append(SetDefault(action=action))
        return self

    def describe(self) -> str:
        return "\n".join(op.describe() for op in self.ops) or "(no-op)"

    def __len__(self) -> int:
        return len(self.ops)


@dataclass(frozen=True)
class PolicyDelta:
    """What subscribers receive after a transaction commits.

    ``changed_rules`` lists every rule whose membership changed (added,
    removed, and both sides of a replace) — the reachability inputs for
    surgical invalidation.  ``full`` is True when the delta's effect
    cannot be localised to the apps those rules touch: the default
    action changed, or the policy transitioned into/out of whitelist
    mode (the presence of *any* allow rule changes the evaluation of
    packets no individual rule matches).

    ``base_rules``/``base_default`` record the store state the delta was
    computed *from*; a subscriber whose active policy does not match the
    base (it was mutated out of band, or synced from elsewhere) must not
    patch incrementally — applying this delta there falls back to a full
    resync to ``policy``, keeping enforcement consistent with the store.
    """

    version: int
    policy: Policy
    changed_rules: tuple[PolicyRule, ...]
    full: bool
    base_rules: tuple[PolicyRule, ...] = ()
    base_default: PolicyAction = PolicyAction.ALLOW
    reason: str = ""


# -- the replicated delta log ----------------------------------------------------------


def _rule_payload(rule_id: str, rule: PolicyRule) -> dict:
    """One rule as a log/store payload: grammar rendering plus id."""
    payload = {"id": rule_id, "rule": rule.render()}
    if rule.comment:
        payload["comment"] = rule.comment
    return payload


class RuleInternCache:
    """Process-wide intern table for parsed Snippet 1 rule strings.

    Catch-up replay re-parses every logged rule rendering on every
    replica: N gateways replaying the same :class:`DeltaLogRecord`
    stream perform N identical ``parse_policy`` calls per rule, and churn
    schedules that toggle the same rule repeatedly re-parse the same
    string on every toggle.  :class:`~repro.core.policy.PolicyRule` is a
    frozen dataclass, so the parse result can be shared safely; this
    cache interns rules by their exact ``(rendering, comment)`` payload
    and hands every later consumer the already-parsed object.

    ``hits``/``misses`` are observability counters — the fleet bench
    asserts catch-up convergence reuses parses instead of re-doing them.
    """

    def __init__(self, capacity: int = 8192) -> None:
        if capacity < 1:
            raise ValueError("the rule intern cache needs capacity for at least one rule")
        self.capacity = capacity
        self._rules: dict[tuple[str, str], PolicyRule] = {}
        self.hits = 0
        self.misses = 0

    def intern(self, text: str, comment: str = "") -> PolicyRule:
        """The parsed rule behind ``text`` (one rule in the Snippet 1
        grammar), parsing only on first sight of the payload."""
        key = (text, comment)
        cached = self._rules.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        parsed = parse_policy(text)
        if len(parsed.rules) != 1:
            raise PolicyParseError(f"expected exactly one rule, got: {text!r}")
        rule = parsed.rules[0]
        if comment:
            rule = dataclass_replace(rule, comment=comment)
        if len(self._rules) >= self.capacity:
            # FIFO eviction: policy vocabularies are tiny next to the
            # capacity, so anything evicted here is long-stale churn.
            self._rules.pop(next(iter(self._rules)))
        self._rules[key] = rule
        return rule

    def clear(self) -> None:
        self._rules.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._rules)


#: The shared intern table every replication consumer parses through.
RULE_INTERN_CACHE = RuleInternCache()


def _rule_from_payload(payload: dict) -> tuple[str, PolicyRule]:
    if not isinstance(payload, dict) or "rule" not in payload or "id" not in payload:
        raise PolicyParseError(f"malformed rule payload: {payload!r}")
    rule = RULE_INTERN_CACHE.intern(payload["rule"], payload.get("comment") or "")
    return payload["id"], rule


@dataclass(frozen=True)
class SnapshotRecord:
    """A full store state the delta-log prefix before it folded into.

    Compaction (:meth:`DeltaLog.compact`) replaces the log's record
    prefix with one of these: the complete id-addressed rule table
    (every rule rendered in the Snippet 1 grammar), the default action,
    the version the snapshot represents, and the chained SHA-256
    fingerprint of that state — the same hash the folded prefix's last
    record carried, so the surviving suffix keeps chaining off it
    unbroken.  A replica bootstrapping from the snapshot re-hashes the
    parsed table and refuses a snapshot whose rules do not hash to
    ``fingerprint`` (a tampered or corrupted snapshot raises
    :class:`ReplicationError` instead of silently seeding a fork).

    ``compacted_records`` counts every record ever folded into this
    snapshot (cumulative across repeated compactions) — the history a
    late joiner no longer replays.
    """

    version: int
    rules: tuple[dict, ...]
    default_action: str
    fingerprint: str
    compacted_records: int = 0
    reason: str = ""

    def to_payload(self) -> dict:
        return {
            "kind": "snapshot",
            "version": self.version,
            "rules": list(self.rules),
            "default_action": self.default_action,
            "fingerprint": self.fingerprint,
            "compacted_records": self.compacted_records,
            "reason": self.reason,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SnapshotRecord":
        try:
            return cls(
                version=payload["version"],
                rules=tuple(payload["rules"]),
                default_action=payload["default_action"],
                fingerprint=payload["fingerprint"],
                compacted_records=payload.get("compacted_records", 0),
                reason=payload.get("reason", ""),
            )
        except (KeyError, TypeError) as exc:
            raise PolicyParseError(f"malformed snapshot record: {payload!r}") from exc

    def state(self) -> tuple[dict, PolicyAction]:
        """The parsed, fingerprint-verified rule table behind this snapshot."""
        rules = dict(_rule_from_payload(body) for body in self.rules)
        default = PolicyAction(self.default_action)
        if _fingerprint_state(rules.items(), default) != self.fingerprint:
            raise ReplicationError(
                f"snapshot @v{self.version} is tampered or corrupted: its rule "
                "table does not hash to its fingerprint"
            )
        return rules, default


def _state_snapshot(
    rules: dict, default: PolicyAction, version: int,
    compacted_records: int = 0, reason: str = "",
) -> SnapshotRecord | None:
    """Render a store state as a :class:`SnapshotRecord`.

    Returns None when the state cannot be rendered in the Snippet 1
    grammar (legacy seeded targets containing double quotes) — such a
    log stays replayable but cannot serve snapshot bootstraps.
    """
    if any('"' in rule.target for rule in rules.values()):
        return None
    return SnapshotRecord(
        version=version,
        rules=tuple(_rule_payload(rule_id, rule) for rule_id, rule in rules.items()),
        default_action=default.value,
        fingerprint=_fingerprint_state(rules.items(), default),
        compacted_records=compacted_records,
        reason=reason,
    )


@dataclass(frozen=True)
class DeltaLogRecord:
    """One committed transaction, serialized for replication.

    ``kind`` is ``"update"`` for ordinary :class:`PolicyUpdate`
    transactions (``ops`` holds the normalized operations, every id
    resolved and every rule rendered in the Snippet 1 grammar) and
    ``"sync"`` for full replacements recorded by :meth:`PolicyStore.reset_to`
    (``rules`` holds the complete resulting table).  A sync whose rules
    cannot be rendered in the grammar is *opaque* (``rules is None``):
    the version bump is logged so contiguity holds, but replicas cannot
    replay it and must re-attach.

    ``parent_fingerprint``/``fingerprint`` chain the store states before
    and after the transaction, which is what lets a replica prove it is
    applying the record onto exactly the base the head committed on.
    """

    version: int
    kind: str
    reason: str
    full: bool
    parent_fingerprint: str
    fingerprint: str
    ops: tuple[dict, ...] = ()
    rules: tuple[dict, ...] | None = None
    default_action: str = PolicyAction.ALLOW.value

    def to_payload(self) -> dict:
        payload = {
            "version": self.version,
            "kind": self.kind,
            "reason": self.reason,
            "full": self.full,
            "parent_fingerprint": self.parent_fingerprint,
            "fingerprint": self.fingerprint,
            "default_action": self.default_action,
        }
        if self.kind == "update":
            payload["ops"] = list(self.ops)
        else:
            payload["rules"] = None if self.rules is None else list(self.rules)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "DeltaLogRecord":
        try:
            rules = payload.get("rules")
            return cls(
                version=payload["version"],
                kind=payload["kind"],
                reason=payload.get("reason", ""),
                full=payload["full"],
                parent_fingerprint=payload["parent_fingerprint"],
                fingerprint=payload["fingerprint"],
                ops=tuple(payload.get("ops", ())),
                rules=None if rules is None else tuple(rules),
                default_action=payload.get("default_action", PolicyAction.ALLOW.value),
            )
        except (KeyError, TypeError) as exc:
            raise PolicyParseError(f"malformed delta log record: {payload!r}") from exc

    def as_update(self) -> PolicyUpdate:
        """Reconstruct the transaction for replay on a replica's shadow store."""
        if self.kind != "update":
            raise ReplicationError(f"record v{self.version} is a {self.kind}, not an update")
        update = PolicyUpdate(reason=self.reason)
        for op in self.ops:
            kind = op.get("op")
            if kind == "add":
                rule_id, rule = _rule_from_payload(op)
                update.add_rule(rule, rule_id=rule_id)
            elif kind == "remove":
                update.remove_rule(op["id"])
            elif kind == "replace":
                rule_id, rule = _rule_from_payload(op)
                update.replace_rule(rule_id, rule)
            elif kind == "set_default":
                update.set_default(PolicyAction(op["action"]))
            else:
                raise ReplicationError(f"unknown logged operation: {op!r}")
        return update


class DeltaLog:
    """Contiguous, serializable history of a policy store: snapshot + suffix.

    The log starts at ``base_version`` and holds exactly one record per
    subsequent version.  ``snapshot``, when present, is the full store
    state *at* ``base_version`` — initially the genesis state the log
    was created from, and after :meth:`compact` the folded prefix.  A
    replica older than ``base_version`` bootstraps from the snapshot
    (one full sync) instead of replaying history; without a snapshot it
    cannot be served and must re-attach out of band.  ``since(v)`` is
    the catch-up primitive: every record a subscriber at version ``v``
    needs to converge to the head.
    """

    def __init__(
        self,
        base_version: int = 0,
        records: list[DeltaLogRecord] | None = None,
        snapshot: SnapshotRecord | None = None,
    ) -> None:
        if snapshot is not None and snapshot.version != base_version:
            raise ValueError(
                f"log base snapshot must sit at the base version "
                f"({snapshot.version} != {base_version})"
            )
        self.base_version = base_version
        self.snapshot = snapshot
        self._records: list[DeltaLogRecord] = []
        for record in records or []:
            self.append(record)

    @property
    def head_version(self) -> int:
        return self.base_version + len(self._records)

    def append(self, record: DeltaLogRecord) -> None:
        if record.version != self.head_version + 1:
            raise ReplicationError(
                f"delta log at head v{self.head_version} cannot append "
                f"non-contiguous record v{record.version}"
            )
        self._records.append(record)

    def record(self, version: int) -> DeltaLogRecord:
        if not self.base_version < version <= self.head_version:
            raise ReplicationError(
                f"delta log holds versions {self.base_version + 1}..{self.head_version}; "
                f"no record for v{version}"
            )
        return self._records[version - self.base_version - 1]

    def since(self, version: int) -> list[DeltaLogRecord]:
        """Every record a subscriber at ``version`` is missing, in order.

        A subscriber older than ``base_version`` predates the suffix: it
        must bootstrap from :attr:`snapshot` first (what
        :meth:`GatewayReplica.catch_up` does) — asking for its records
        is a clear error, because the prefix was compacted away.
        """
        if version < self.base_version:
            raise ReplicationError(
                f"delta log starts at v{self.base_version} (history before it "
                f"{'is folded into the base snapshot' if self.snapshot is not None else 'was not serialized'}); "
                f"a replica at v{version} predates the suffix and must "
                f"{'bootstrap from the snapshot' if self.snapshot is not None else 're-attach from the store'}"
            )
        return self._records[max(0, version - self.base_version):]

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[DeltaLogRecord]:
        return iter(self._records)

    # -- compaction --------------------------------------------------------------------

    def _materialize(self, version: int) -> "PolicyStore":
        """Fold snapshot + records up to ``version`` into a scratch store.

        Every replayed record is fingerprint-verified, so a log whose
        chain does not hold cannot be compacted into a wrong snapshot.
        """
        if self.snapshot is None:
            raise ReplicationError(
                f"delta log at base v{self.base_version} has no base snapshot "
                "to fold records into; compact through the owning store"
            )
        rules, default = self.snapshot.state()
        scratch = PolicyStore(name="compaction")
        scratch._rules = rules
        scratch._default_action = default
        scratch.version = self.snapshot.version
        scratch.delta_log = DeltaLog(base_version=self.snapshot.version)
        # An opaque sync makes the state unknowable until a later clean
        # sync re-establishes it in full.  Records inside the unknown
        # region are skipped — they can neither be applied nor verified,
        # and the next clean sync supersedes whatever they did — so only
        # a fold *ending* inside the region is unfoldable.
        state_known = True
        for record in self._records[: version - self.base_version]:
            if record.kind == "sync":
                if record.rules is None:
                    state_known = False
                    continue
                scratch._adopt_state(
                    dict(_rule_from_payload(body) for body in record.rules),
                    PolicyAction(record.default_action),
                    record.version,
                )
                state_known = True
            elif state_known:
                scratch.apply(record.as_update())
            else:
                continue
            if scratch.fingerprint() != record.fingerprint:
                raise ReplicationError(
                    f"compaction replay diverged from the fingerprint chain "
                    f"at v{record.version}; refusing to fold a wrong snapshot"
                )
        if not state_known:
            raise ReplicationError(
                f"cannot compact through v{version}: it sits inside an opaque "
                "sync's unknown-state region"
            )
        return scratch

    def compact(self, up_to_version: int | None = None, reason: str = "") -> SnapshotRecord | None:
        """Fold every record up to ``up_to_version`` (default: the head)
        into a new base :class:`SnapshotRecord`; the suffix survives.

        The new snapshot's fingerprint equals the last folded record's,
        so the suffix keeps chaining off it: a record appended after
        compaction carries the snapshot's fingerprint as its parent.
        Compacting to the current base is a no-op.
        """
        up_to = self.head_version if up_to_version is None else up_to_version
        if up_to == self.base_version:
            return self.snapshot
        if not self.base_version < up_to <= self.head_version:
            raise ReplicationError(
                f"delta log holds versions {self.base_version + 1}..{self.head_version}; "
                f"cannot compact up to v{up_to}"
            )
        scratch = self._materialize(up_to)
        snapshot = _state_snapshot(
            scratch._rules,
            scratch._default_action,
            up_to,
            compacted_records=self.snapshot.compacted_records + (up_to - self.base_version),
            reason=reason or f"compacted through v{up_to}",
        )
        if snapshot is None:
            raise ReplicationError(
                f"state at v{up_to} cannot be rendered in the Snippet 1 "
                "grammar; compaction would strand replicas"
            )
        self._records = self._records[up_to - self.base_version:]
        self.base_version = up_to
        self.snapshot = snapshot
        return snapshot

    # -- persistence -------------------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "base_version": self.base_version,
            "snapshot": None if self.snapshot is None else self.snapshot.to_payload(),
            "records": [record.to_payload() for record in self._records],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "DeltaLog":
        if not isinstance(payload, dict) or "records" not in payload:
            raise PolicyParseError("delta log payload needs a 'records' list")
        snapshot = payload.get("snapshot")
        try:
            return cls(
                base_version=payload.get("base_version", 0),
                records=[DeltaLogRecord.from_payload(body) for body in payload["records"]],
                snapshot=None if snapshot is None else SnapshotRecord.from_payload(snapshot),
            )
        except ValueError as exc:  # snapshot/base mismatch: a corrupt file, not a bug
            raise PolicyParseError(f"malformed delta log payload: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "DeltaLog":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PolicyParseError(f"delta log json is unreadable: {exc}") from exc
        return cls.from_payload(payload)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path) -> "DeltaLog":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


# -- the store -------------------------------------------------------------------------


class PolicyStore:
    """Addressable, versioned rule storage plus subscriber fan-out.

    The store is the single writer: the data plane only ever sees the
    frozen snapshots and deltas it derives.  ``version`` starts at 0 and
    increases by exactly 1 per committed transaction (including
    :meth:`reset_to` full syncs), so two replicas holding the same
    version hold the same rules.
    """

    def __init__(
        self,
        name: str = "policy",
        default_action: PolicyAction = PolicyAction.ALLOW,
        compact_every: int | None = None,
    ) -> None:
        self.name = name
        self._rules: dict[str, PolicyRule] = {}
        self._default_action = default_action
        self.version = 0
        self._next_id = 1
        self._snapshot: Policy | None = None
        self._subscribers: list = []
        #: Retention policy: once the delta log holds this many records,
        #: a commit folds them into the base snapshot (None = keep all).
        self.compact_every = compact_every
        #: Serialized history of every committed transaction; replicas
        #: converge from any starting version by replaying it (or, once
        #: the log is compacted, by bootstrapping from its snapshot).
        self.delta_log = self._fresh_log()
        self._replicas: list = []

    @classmethod
    def from_policy(cls, policy: Policy, name: str | None = None) -> "PolicyStore":
        """Seed a store (version 0) from an existing policy's rules."""
        store = cls(name=name or policy.name, default_action=policy.default_action)
        for rule in policy.rules:
            store._rules[store._allocate_id(store._rules)] = rule
        # The seeded rules are this log's genesis state; re-base the log
        # so its snapshot lets late joiners bootstrap without the store.
        store.delta_log = store._fresh_log()
        return store

    def _fresh_log(self) -> DeltaLog:
        """A new delta log based at the store's current state.

        The genesis snapshot (None when the state cannot be rendered in
        the grammar) is what makes a log self-contained: a replica can
        attach from the serialized log alone, with no access to the
        head store's memory.
        """
        return DeltaLog(
            base_version=self.version,
            snapshot=_state_snapshot(self._rules, self._default_action, self.version),
        )

    @property
    def compact_every(self) -> int | None:
        return self._compact_every

    @compact_every.setter
    def compact_every(self, value: int | None) -> None:
        # Validated on every assignment path (constructor, fleet /
        # deployment threading, CLI, from_json): 0 would otherwise read
        # as "never compact" while looking like "compact constantly".
        if value is not None and (
            not isinstance(value, int) or isinstance(value, bool) or value < 1
        ):
            raise ValueError(
                f"compact_every must be a positive integer or None, got: {value!r}"
            )
        self._compact_every = value

    # -- read side ---------------------------------------------------------------------

    @property
    def default_action(self) -> PolicyAction:
        return self._default_action

    def rule_ids(self) -> list[str]:
        return list(self._rules)

    def items(self) -> list[tuple[str, PolicyRule]]:
        return list(self._rules.items())

    def get(self, rule_id: str) -> PolicyRule | None:
        return self._rules.get(rule_id)

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._rules

    def __iter__(self) -> Iterator[PolicyRule]:
        return iter(self._rules.values())

    def snapshot(self) -> Policy:
        """The current rules as an immutable Policy (cached per version)."""
        if self._snapshot is None:
            self._snapshot = Policy(
                rules=list(self._rules.values()),
                default_action=self._default_action,
                name=f"{self.name}@v{self.version}",
                frozen=True,
            )
        return self._snapshot

    def fingerprint(self) -> str:
        """Stable hash of the current rule table (ids, order, default).

        Two stores — or a store and a :class:`GatewayReplica` — with
        equal fingerprints enforce identically; the delta log chains
        these hashes so replicas can verify every step of a replay.
        """
        return _fingerprint_state(self._rules.items(), self._default_action)

    # -- write side --------------------------------------------------------------------

    def _allocate_id(self, taken: dict[str, PolicyRule]) -> str:
        rule_id, self._next_id = _next_free_id(taken, self._next_id)
        return rule_id

    def apply(self, update: PolicyUpdate) -> PolicyDelta:
        """Atomically commit ``update``; bump the version; notify subscribers.

        Validation runs against a working copy, so a transaction that
        fails (unknown or duplicate rule id) raises
        :class:`PolicyUpdateError` and leaves the store untouched.
        """
        base_rules = tuple(self._rules.values())
        base_default = self._default_action
        parent_fingerprint = self.fingerprint()
        working = dict(self._rules)
        default = self._default_action
        next_id = self._next_id
        changed: list[PolicyRule] = []
        #: The transaction with every id resolved and every rule rendered —
        #: what the delta log records and replicas replay.
        normalized: list[dict] = []
        for op in update.ops:
            if isinstance(op, AddRule):
                _validate_rule(op.rule, op.rule_id)
                rule_id = op.rule_id
                if rule_id is None:
                    rule_id, next_id = _next_free_id(working, next_id)
                elif rule_id in working:
                    raise PolicyUpdateError(f"rule id {rule_id!r} already exists")
                working[rule_id] = op.rule
                changed.append(op.rule)
                normalized.append({"op": "add", **_rule_payload(rule_id, op.rule)})
            elif isinstance(op, RemoveRule):
                if op.rule_id not in working:
                    raise PolicyUpdateError(f"cannot remove unknown rule id {op.rule_id!r}")
                changed.append(working.pop(op.rule_id))
                normalized.append({"op": "remove", "id": op.rule_id})
            elif isinstance(op, ReplaceRule):
                _validate_rule(op.rule, op.rule_id)
                old = working.get(op.rule_id)
                if old is None:
                    raise PolicyUpdateError(f"cannot replace unknown rule id {op.rule_id!r}")
                if old != op.rule:
                    changed.extend((old, op.rule))
                working[op.rule_id] = op.rule
                normalized.append({"op": "replace", **_rule_payload(op.rule_id, op.rule)})
            elif isinstance(op, SetDefault):
                default = op.action
                normalized.append({"op": "set_default", "action": op.action.value})
            else:
                raise PolicyUpdateError(f"unknown policy operation: {op!r}")

        def has_allow(rules: dict[str, PolicyRule]) -> bool:
            return any(rule.action is PolicyAction.ALLOW for rule in rules.values())

        full = default is not self._default_action
        if has_allow(self._rules) != has_allow(working):
            full = True

        self._rules = working
        self._default_action = default
        self._next_id = next_id
        self.version += 1
        self._snapshot = None
        delta = PolicyDelta(
            version=self.version,
            policy=self.snapshot(),
            changed_rules=tuple(dict.fromkeys(changed)),
            full=full,
            base_rules=base_rules,
            base_default=base_default,
            reason=update.reason,
        )
        record = DeltaLogRecord(
            version=self.version,
            kind="update",
            reason=update.reason,
            full=full,
            parent_fingerprint=parent_fingerprint,
            fingerprint=self.fingerprint(),
            ops=tuple(normalized),
            default_action=self._default_action.value,
        )
        self.delta_log.append(record)
        self._notify(delta)
        for replica in list(self._replicas):
            replica.apply_delta(record)
        self._maybe_autocompact()
        return delta

    def set_policy(self, policy: Policy) -> PolicyDelta:
        """Full replacement, recorded as one replace-all transaction.

        Every old rule is removed and every new rule added, so the delta
        is still surgical per app: apps no rule of either policy touches
        keep their compiled state and cached flows.
        """
        update = PolicyUpdate(reason=f"replace all from {policy.name!r}")
        for rule_id in self._rules:
            update.remove_rule(rule_id)
        for rule in policy.rules:
            update.add_rule(rule)
        if policy.default_action is not self._default_action:
            update.set_default(policy.default_action)
        return self.apply(update)

    def reset_to(self, policy: Policy) -> int:
        """Legacy full sync: adopt ``policy``'s rules and push the caller's
        *object* (not a snapshot) to every subscriber by reference.

        This is the compatibility path behind
        :meth:`repro.core.deployment.BorderPatrolDeployment.set_policy`:
        existing callers rely on the enforcer holding their Policy
        instance so later in-place ``add_rule`` edits keep taking effect.
        Mixing such in-place edits with subsequent :meth:`apply` calls is
        unsupported — the next transaction rebuilds from the store's own
        rule table.
        """
        parent_fingerprint = self.fingerprint()
        self._rules = {}
        self._next_id = 1
        for rule in policy.rules:
            self._rules[self._allocate_id(self._rules)] = rule
        self._default_action = policy.default_action
        self.version += 1
        self._snapshot = None
        if any('"' in rule.target for rule in self._rules.values()):
            # Legacy policies may hold targets the Snippet 1 grammar cannot
            # render; log the version bump as an opaque sync so contiguity
            # holds (replicas consuming it must re-attach).
            rules: tuple[dict, ...] | None = None
        else:
            rules = tuple(
                _rule_payload(rule_id, rule) for rule_id, rule in self._rules.items()
            )
        self.delta_log.append(
            DeltaLogRecord(
                version=self.version,
                kind="sync",
                reason=f"full sync from {policy.name!r}",
                full=True,
                parent_fingerprint=parent_fingerprint,
                fingerprint=self.fingerprint(),
                rules=rules,
                default_action=self._default_action.value,
            )
        )
        for subscriber in self._subscribers:
            subscriber.sync_policy(policy, self.version)
        for replica in list(self._replicas):
            replica.apply_delta(self.delta_log.record(self.version))
        self._maybe_autocompact()
        return self.version

    def _maybe_autocompact(self) -> None:
        """Fold the log when the retention budget is reached.

        Legacy state the grammar cannot render (opaque syncs with no
        later clean sync, quoted targets) is not compactable; such a log
        silently keeps growing rather than failing the commit that
        tripped the budget.  Foldability is pre-checked with an O(suffix)
        scan so an uncompactable log does not pay a doomed full-prefix
        replay on every commit.
        """
        if not self.compact_every or len(self.delta_log) < self.compact_every:
            return
        if self.delta_log.snapshot is None:
            return
        state_known = True
        for record in self.delta_log:
            if record.kind == "sync":
                state_known = record.rules is not None
        if not state_known:
            return
        if any('"' in rule.target for rule in self._rules.values()):
            return  # the head state itself cannot be rendered
        try:
            self.delta_log.compact(self.version)
        except (ReplicationError, PolicyParseError):
            pass

    def compact(self, up_to_version: int | None = None) -> SnapshotRecord | None:
        """Fold the delta log's prefix into a snapshot + surviving suffix.

        Late-joining replicas then converge in O(suffix) records — one
        snapshot bootstrap plus the suffix replay — instead of O(history).
        """
        return self.delta_log.compact(up_to_version)

    def _adopt_state(
        self, rules: dict[str, PolicyRule], default: PolicyAction, version: int
    ) -> None:
        """Install a complete replicated state (sync-record replay path).

        Unlike :meth:`reset_to` this preserves the replicated rule ids
        verbatim — replicas must keep the head's addressing so later
        ``remove r6``-style records resolve — and adopts the head's
        version instead of bumping its own.
        """
        self._rules = dict(rules)
        self._default_action = default
        self.version = version
        self._snapshot = None
        # Re-base this store's own log at the adopted state: the local
        # history did not produce it, so appending the *next* replayed
        # update must chain from here, not from the stale head.  (A
        # replica replaying an update record after a sync record used to
        # trip the log's contiguity check exactly because of this.)
        self.delta_log = self._fresh_log()
        for rule_id in self._rules:
            if rule_id.startswith("r") and rule_id[1:].isdigit():
                self._next_id = max(self._next_id, int(rule_id[1:]) + 1)
        for subscriber in self._subscribers:
            subscriber.sync_policy(self.snapshot(), self.version)

    # -- diffing ---------------------------------------------------------------------

    def diff_update(self, target: Policy) -> PolicyUpdate:
        """The smallest transaction turning this store's rules into ``target``'s.

        Rules are matched by value; surviving rules keep their ids.  If
        the edit cannot be expressed as removals plus appended additions
        without reordering the surviving rules (rule order is
        significant: the first matching rule wins ties), the update falls
        back to a full replace-all so snapshot evaluation order is
        preserved exactly.
        """
        update = PolicyUpdate(reason=f"diff to {target.name!r}")
        target_rules = list(target.rules)

        # Multiset of rules present on both sides.
        kept: dict[PolicyRule, int] = {}
        remaining = list(target_rules)
        for rule in self._rules.values():
            if rule in remaining:
                remaining.remove(rule)
                kept[rule] = kept.get(rule, 0) + 1

        def kept_sequence(rules) -> list[PolicyRule]:
            budget = dict(kept)
            sequence = []
            for rule in rules:
                if budget.get(rule, 0) > 0:
                    budget[rule] -= 1
                    sequence.append(rule)
            return sequence

        kept_in_current = kept_sequence(self._rules.values())
        added = remaining  # target rules with no current counterpart, in order
        # After removals the store keeps kept_in_current's order; adds append.
        if kept_in_current + added != target_rules:
            update.reason = f"replace all (reordered) from {target.name!r}"
            for rule_id in self._rules:
                update.remove_rule(rule_id)
            for rule in target_rules:
                update.add_rule(rule)
        else:
            budget = dict(kept)
            for rule_id, rule in self._rules.items():
                if budget.get(rule, 0) > 0:
                    budget[rule] -= 1
                else:
                    update.remove_rule(rule_id)
            for rule in added:
                update.add_rule(rule)
        if target.default_action is not self._default_action:
            update.set_default(target.default_action)
        return update

    def unified_diff(
        self,
        target: Policy,
        update: PolicyUpdate | None = None,
        from_label: str | None = None,
        to_label: str | None = None,
    ) -> str:
        """Rule-id-aware unified-diff rendering of ``diff_update(target)``.

        Surviving rules print as context lines under their stable ids;
        removals/additions as ``-rN:``/``+rN:`` hunk lines (a replace is
        a paired ``-``/``+`` on the same id).  Ids for additions are the
        ones :meth:`apply` would allocate, so the diff an administrator
        reviews names exactly the rules a later ``policy push`` commits.
        """
        if update is None:
            update = self.diff_update(target)
        # Dry-run the id allocation the transaction would perform.
        working = dict(self._rules)
        next_id = self._next_id
        removed: set[str] = set()
        replaced: dict[str, PolicyRule] = {}
        added: list[tuple[str, PolicyRule]] = []
        new_default: PolicyAction | None = None
        for op in update.ops:
            if isinstance(op, AddRule):
                rule_id = op.rule_id
                if rule_id is None:
                    rule_id, next_id = _next_free_id(working, next_id)
                working[rule_id] = op.rule
                added.append((rule_id, op.rule))
            elif isinstance(op, RemoveRule):
                working.pop(op.rule_id, None)
                removed.add(op.rule_id)
            elif isinstance(op, ReplaceRule):
                working[op.rule_id] = op.rule
                replaced[op.rule_id] = op.rule
            elif isinstance(op, SetDefault):
                new_default = op.action
        lines = [
            f"--- {from_label or f'{self.name}@v{self.version}'}",
            f"+++ {to_label or target.name}",
        ]
        for rule_id, rule in self._rules.items():
            if rule_id in removed:
                lines.append(f"-{rule_id}: {rule.render()}")
            elif rule_id in replaced:
                lines.append(f"-{rule_id}: {rule.render()}")
                lines.append(f"+{rule_id}: {replaced[rule_id].render()}")
            else:
                lines.append(f" {rule_id}: {rule.render()}")
        for rule_id, rule in added:
            lines.append(f"+{rule_id}: {rule.render()}")
        if new_default is not None and new_default is not self._default_action:
            lines.append(f"-default: {self._default_action.value}")
            lines.append(f"+default: {new_default.value}")
        return "\n".join(lines)

    # -- subscribers -------------------------------------------------------------------

    def subscribe(self, enforcer, push: bool = True) -> None:
        """Register a data-plane consumer of this store's deltas.

        ``enforcer`` must expose ``apply_policy_delta(delta)`` and
        ``sync_policy(policy, version)`` — both
        :class:`~repro.core.policy_enforcer.PolicyEnforcer` and
        :class:`~repro.netstack.sharding.ShardedEnforcer` do.  With
        ``push`` (the default) the subscriber is immediately fully
        synced to the current snapshot and version; pass ``push=False``
        when the subscriber was constructed from this store's state
        already.
        """
        self._subscribers.append(enforcer)
        if push:
            enforcer.sync_policy(self.snapshot(), self.version)

    def unsubscribe(self, enforcer) -> None:
        if enforcer in self._subscribers:
            self._subscribers.remove(enforcer)

    def _notify(self, delta: PolicyDelta) -> None:
        for subscriber in self._subscribers:
            subscriber.apply_policy_delta(delta)

    def subscribe_replica(self, replica: "GatewayReplica", catch_up: bool = True) -> None:
        """Push every future :class:`DeltaLogRecord` to ``replica`` live.

        With ``catch_up`` (the default) the replica first replays any
        records it is missing, so subscription leaves it converged.  A
        replica left unsubscribed lags instead and converges on demand
        via :meth:`GatewayReplica.catch_up` — that is how staged
        rollouts hold back part of the fleet.
        """
        if catch_up:
            replica.catch_up(self.delta_log)
        self._replicas.append(replica)

    def unsubscribe_replica(self, replica: "GatewayReplica") -> None:
        if replica in self._replicas:
            self._replicas.remove(replica)

    # -- persistence -------------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize: rules are stored as their Snippet 1 grammar rendering.

        Rules that entered through :meth:`apply` are round-trip-safe by
        construction; seeding paths (:meth:`from_policy`, :meth:`reset_to`)
        stay permissive for legacy enforcement, so unserializable targets
        are rejected here rather than written as unreadable grammar.
        """
        for rule_id, rule in self._rules.items():
            if '"' in rule.target:
                raise PolicyParseError(
                    f"rule {rule_id!r} target {rule.target!r} cannot be rendered "
                    "in the Snippet 1 grammar"
                )
        payload = {
            "name": self.name,
            "version": self.version,
            "default_action": self._default_action.value,
            "rules": [
                {
                    "id": rule_id,
                    "rule": rule.render(),
                    **({"comment": rule.comment} if rule.comment else {}),
                }
                for rule_id, rule in self._rules.items()
            ],
            # The replication history rides along (snapshot + suffix, so
            # retention bounds it): replicas can bootstrap from a saved
            # store file, and `policy push`/`policy compact` round-trip
            # the log instead of discarding it on every load.
            "delta_log": self.delta_log.to_payload(),
        }
        if self.compact_every is not None:
            payload["compact_every"] = self.compact_every
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "PolicyStore":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PolicyParseError(f"policy store json is unreadable: {exc}") from exc
        if not isinstance(payload, dict) or "rules" not in payload:
            raise PolicyParseError("policy store json needs a top-level 'rules' list")
        try:
            default_action = PolicyAction(payload.get("default_action", "allow"))
        except ValueError as exc:
            raise PolicyParseError(f"unknown default action: {payload['default_action']!r}") from exc
        store = cls(name=payload.get("name", "policy"), default_action=default_action)
        for body in payload["rules"]:
            if not isinstance(body, dict) or "rule" not in body:
                raise PolicyParseError(f"malformed rule entry in store json: {body!r}")
            parsed = parse_policy(body["rule"])
            if len(parsed.rules) != 1:
                raise PolicyParseError(
                    f"expected exactly one rule per entry, got: {body['rule']!r}"
                )
            rule = parsed.rules[0]
            if body.get("comment"):
                rule = dataclass_replace(rule, comment=body["comment"])
            rule_id = body.get("id") or store._allocate_id(store._rules)
            if not isinstance(rule_id, str):
                raise PolicyParseError(f"rule id must be a string, got: {rule_id!r}")
            if rule_id in store._rules:
                raise PolicyParseError(f"duplicate rule id in store json: {rule_id!r}")
            store._rules[rule_id] = rule
        # Future ids must not collide with loaded numeric ids.
        for rule_id in store._rules:
            if rule_id.startswith("r") and rule_id[1:].isdigit():
                store._next_id = max(store._next_id, int(rule_id[1:]) + 1)
        version = payload.get("version", 0)
        if not isinstance(version, int) or isinstance(version, bool):
            raise PolicyParseError(f"store version must be an integer, got: {version!r}")
        store.version = version
        compact_every = payload.get("compact_every")
        if compact_every is not None:
            if not isinstance(compact_every, int) or isinstance(compact_every, bool) or compact_every < 1:
                raise PolicyParseError(
                    f"compact_every must be a positive integer, got: {compact_every!r}"
                )
            store.compact_every = compact_every
        if "delta_log" in payload:
            log = DeltaLog.from_payload(payload["delta_log"])
            if log.head_version != version:
                raise PolicyParseError(
                    f"store json is inconsistent: delta log head v{log.head_version} "
                    f"does not match store version v{version}"
                )
            # The rule table must hash to the log head's chained
            # fingerprint, or the head and a replica bootstrapping from
            # this same file would enforce different tables at the same
            # version — catch the fork at load time, not at the next
            # commit's parent-fingerprint check.
            records = list(log)
            head_fingerprint = (
                records[-1].fingerprint
                if records
                else (log.snapshot.fingerprint if log.snapshot is not None else None)
            )
            if head_fingerprint is not None and head_fingerprint != store.fingerprint():
                raise PolicyParseError(
                    "store json is inconsistent: the rule table does not hash "
                    "to the delta log head's fingerprint"
                )
            store.delta_log = log
        else:
            # Legacy store json without a serialized log: the loaded
            # state becomes the log's genesis snapshot, so replicas can
            # still bootstrap from it even though older history is gone.
            store.delta_log = store._fresh_log()
        return store

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path) -> "PolicyStore":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


# -- gateway replication ---------------------------------------------------------------


class GatewayReplica:
    """One gateway's converging mirror of a :class:`PolicyStore`.

    The replica owns a *shadow* store (the head's id-addressed rule
    table at some version) plus the gateway's local enforcer, which
    subscribes to the shadow.  Consuming a :class:`DeltaLogRecord`
    re-applies the head's transaction to the shadow, so the enforcer
    receives exactly the same surgical :class:`PolicyDelta` the head's
    own data plane saw — verdict identity and warm flow caches come for
    free, no matter how late the record arrives.

    Replicas attach from a store's current state (any version) and
    converge by :meth:`catch_up` replay over the shared
    :class:`DeltaLog`, or live via
    :meth:`PolicyStore.subscribe_replica`.  Every applied record is
    fingerprint-verified against the head's chained hashes;
    :class:`ReplicationError` means the replica diverged and must
    re-attach rather than keep enforcing a forked policy.
    """

    def __init__(self, enforcer, store: PolicyStore, name: str = "gateway") -> None:
        self.name = name
        self.enforcer = enforcer
        self._shadow = PolicyStore(name=f"{name}:{store.name}")
        self._shadow._rules = dict(store._rules)
        self._shadow._default_action = store._default_action
        self._shadow._next_id = store._next_id
        self._shadow.version = store.version
        # The shadow keeps the head's retention policy: its own log is
        # never replayed by anyone, so folding it aggressively just
        # bounds replica memory over a long-lived deployment.
        self._shadow.compact_every = store.compact_every
        self._shadow.delta_log = self._shadow._fresh_log()
        self._shadow.subscribe(enforcer, push=True)
        #: Records applied through :meth:`apply_delta` or
        #: :meth:`bootstrap` (catch-up included) — the convergence cost.
        self.records_applied = 0

    @classmethod
    def from_log(
        cls, enforcer, log: DeltaLog, name: str = "gateway",
        compact_every: int | None = None,
    ) -> "GatewayReplica":
        """Attach a brand-new gateway from a serialized log alone.

        This is the late-joiner path: the gateway has no access to the
        head store's memory, only the replicated log.  It bootstraps
        from the log's base snapshot (one ``reset_to``-style full sync
        through the shadow store) and replays the suffix as ordinary
        surgical deltas — O(suffix) records, however long the fleet has
        been alive.
        """
        if log.snapshot is None:
            raise ReplicationError(
                f"gateway {name!r} cannot attach from a log without a base "
                f"snapshot (base v{log.base_version}); re-attach from the store"
            )
        # Verify the snapshot *before* constructing the replica: building
        # it would subscribe the enforcer to the blank shadow store, and
        # a tampered snapshot must not leave a previously-configured
        # enforcer reset to allow-all as a side effect of the failure.
        log.snapshot.state()
        replica = cls(
            enforcer, PolicyStore(name="unattached", compact_every=compact_every), name=name
        )
        replica.bootstrap(log.snapshot)
        replica.catch_up(log)
        return replica

    def bootstrap(self, snapshot: SnapshotRecord) -> None:
        """Adopt a log's base snapshot as this replica's state.

        The parsed rule table is re-hashed against the snapshot's
        chained fingerprint *before* anything reaches the enforcer — a
        tampered snapshot raises :class:`ReplicationError` instead of
        seeding a forked policy.  Counts as one applied record.
        """
        if snapshot.version < self.version:
            raise ReplicationError(
                f"replica {self.name!r} at v{self.version} refuses to regress "
                f"to snapshot @v{snapshot.version}"
            )
        rules, default = snapshot.state()  # fingerprint-verified
        self._shadow._adopt_state(rules, default, snapshot.version)
        self.records_applied += 1

    @property
    def version(self) -> int:
        """The policy version this replica has converged to."""
        return self._shadow.version

    def fingerprint(self) -> str:
        return self._shadow.fingerprint()

    def snapshot(self) -> Policy:
        return self._shadow.snapshot()

    # -- convergence -------------------------------------------------------------------

    def apply_delta(self, record: DeltaLogRecord) -> bool:
        """Consume one log record; returns False if already applied.

        Records must arrive contiguously (the log replays gaps —
        :meth:`catch_up`); an update record is re-applied through the
        shadow store so the local enforcer gets the same surgical delta
        the head fanned out, a sync record installs the full replicated
        table.  Fingerprints are verified before (updates) and after
        (always) the apply.
        """
        if record.version <= self.version:
            return False
        if record.version != self.version + 1:
            raise ReplicationError(
                f"replica {self.name!r} at v{self.version} cannot apply "
                f"non-contiguous record v{record.version}; catch up from the log"
            )
        if record.kind == "sync":
            if record.rules is None:
                raise ReplicationError(
                    f"record v{record.version} is an opaque sync (unserializable "
                    f"rules); replica {self.name!r} must re-attach from the store"
                )
            rules = dict(_rule_from_payload(body) for body in record.rules)
            self._shadow._adopt_state(
                rules, PolicyAction(record.default_action), record.version
            )
        elif record.kind == "update":
            if record.parent_fingerprint != self.fingerprint():
                raise ReplicationError(
                    f"replica {self.name!r} diverged: v{self.version} state does "
                    f"not match record v{record.version}'s parent fingerprint"
                )
            try:
                self._shadow.apply(record.as_update())
            except PolicyUpdateError as exc:
                raise ReplicationError(
                    f"replica {self.name!r} failed to replay record "
                    f"v{record.version}: {exc}"
                ) from exc
        else:
            raise ReplicationError(f"unknown record kind: {record.kind!r}")
        if self.fingerprint() != record.fingerprint:
            raise ReplicationError(
                f"replica {self.name!r} hash mismatch after applying record "
                f"v{record.version}; state diverged from the head"
            )
        self.records_applied += 1
        return True

    def catch_up(self, log: DeltaLog, target_version: int | None = None) -> int:
        """Converge on ``log`` (up to ``target_version``); returns how
        many records were applied, the snapshot bootstrap included.

        A replica still within the log's record range replays the
        missing suffix.  One that fell behind a compaction (its version
        predates ``log.base_version``) cannot replay the folded prefix;
        it re-bootstraps from the base snapshot instead, then replays
        the suffix — or gets a clear :class:`ReplicationError` when the
        log carries no snapshot to bootstrap from.
        """
        applied = 0
        if self.version < log.base_version:
            if target_version is not None and target_version < log.base_version:
                raise ReplicationError(
                    f"replica {self.name!r} at v{self.version} cannot stop at "
                    f"v{target_version}: the log compacted history through "
                    f"v{log.base_version}"
                )
            if log.snapshot is None:
                # Same clear refusal `since` gives: the prefix is gone
                # and there is no snapshot to stand in for it.
                log.since(self.version)
            self.bootstrap(log.snapshot)
            applied += 1
        for record in log.since(self.version):
            if target_version is not None and record.version > target_version:
                break
            if self.apply_delta(record):
                applied += 1
        return applied

    def lag(self, log: DeltaLog) -> int:
        """How many committed versions this replica is behind the log head."""
        return max(0, log.head_version - self.version)

    def verify_against(self, store: PolicyStore) -> bool:
        """True when this replica is converged with ``store`` (version and
        rule-table fingerprint both equal)."""
        return self.version == store.version and self.fingerprint() == store.fingerprint()
