"""Policy model, grammar and evaluation.

The paper defines (§IV-B) policies as triples of an *action* (allow or
deny), an *enforcement level* (hash < library < class < method, ordered
by granularity) and a *target* (a search string matched against the
app hash or the method signatures of a packet's decoded stack trace).

Evaluation rules, with ``s`` ranging over the stack signatures in the
packet header and ``ℓθ`` the level at which the target matches ``s``:

* ``deny``  — drop the packet if **there exists** an ``s`` whose match
  level is at least the rule's level (blacklisting);
* ``allow`` — the packet may pass only if **every** ``s`` matches the
  target at the rule's level or higher (whitelisting).

A policy is an ordered collection of such rules plus a default action.
Deny rules are authoritative: any triggered deny drops the packet.  If
the policy contains allow rules, at least one of them must be satisfied
for the packet to pass (whitelist mode); otherwise the default action
applies.

The concrete grammar of the paper's Snippet 1 is supported verbatim::

    {[deny][library]["com/flurry"]}
    {[deny][method]["Lcom/dropbox/android/taskqueue/UploadTask;->c()Lcom/dropbox/hairball/taskqueue/TaskResult"]}
    {[allow][hash]["da6880ab1f9919747d39e2bd895b95a5"]}
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.dex.signature import MethodSignature
from repro.netstack.netfilter import Verdict


class PolicyParseError(ValueError):
    """Raised when policy text does not follow the Snippet 1 grammar."""


class FrozenPolicyError(TypeError):
    """Raised on in-place mutation of an immutable policy snapshot.

    Snapshots handed out by :class:`repro.core.policy_store.PolicyStore`
    are derived state; mutating one in place would silently desynchronise
    it from the store's rule table and version counter.  Route edits
    through :meth:`~repro.core.policy_store.PolicyStore.apply` instead.
    """


class PolicyAction(str, enum.Enum):
    ALLOW = "allow"
    DENY = "deny"


class PolicyLevel(enum.IntEnum):
    """Enforcement granularity, ordered: hash < library < class < method."""

    HASH = 1
    LIBRARY = 2
    CLASS = 3
    METHOD = 4

    @classmethod
    def parse(cls, text: str) -> "PolicyLevel":
        try:
            return cls[text.strip().upper()]
        except KeyError as exc:
            raise PolicyParseError(f"unknown policy level: {text!r}") from exc


@dataclass(frozen=True)
class DecodedContext:
    """What the Policy Enforcer reconstructs from one packet's tag."""

    app_id: str
    signatures: tuple[str, ...]
    app_md5: str = ""
    package_name: str = ""

    @property
    def parsed_signatures(self) -> tuple[MethodSignature, ...]:
        parsed = []
        for signature in self.signatures:
            try:
                parsed.append(MethodSignature.parse(signature))
            except ValueError:
                continue
        return tuple(parsed)


def _normalise(text: str) -> str:
    return text.strip().strip("/").replace(".", "/")


@functools.lru_cache(maxsize=1 << 16)  # one dex file's method-reference limit
def _signature_parts(signature: str) -> tuple[str, str, str] | None:
    """``(str(parsed), slash_class, library)`` of one signature string, or None."""
    try:
        parsed = MethodSignature.parse(signature)
    except ValueError:
        return None
    return str(parsed), parsed.slash_class, parsed.library


def match_level(target: str, signature: str) -> PolicyLevel | None:
    """Highest granularity at which ``target`` matches ``signature``.

    Returns None when the target does not match or the signature is
    malformed.  Targets read as in the paper's examples: a slash-separated
    package/class prefix, or a full (possibly return-type-less) method
    signature.  Signature parses are memoised in a bounded LRU, since
    compilation asks for every (rule, signature) pair.
    """
    parts = _signature_parts(signature)
    if parts is None:
        return None
    rendered, slash_class, library = parts
    stripped_target = target.strip()
    # Method-level: the target is (a prefix of) the full signature string.
    if "->" in stripped_target:
        if rendered.startswith(stripped_target.rstrip(";")) or rendered == stripped_target:
            return PolicyLevel.METHOD
        return None
    normalised_target = _normalise(stripped_target)
    if slash_class == normalised_target:
        return PolicyLevel.CLASS
    if slash_class.startswith(normalised_target + "/") or library == normalised_target:
        return PolicyLevel.LIBRARY
    if library.startswith(normalised_target + "/"):
        return PolicyLevel.LIBRARY
    return None


@dataclass(frozen=True)
class PolicyRule:
    """One ``{[action][level][target]}`` rule."""

    action: PolicyAction
    level: PolicyLevel
    target: str
    comment: str = ""

    def __post_init__(self) -> None:
        if not self.target:
            raise PolicyParseError("policy rules need a non-empty target")

    # -- matching ------------------------------------------------------------------

    def _hash_matches(self, context: DecodedContext) -> bool:
        target = self.target.lower()
        return target in (context.app_id.lower(), context.app_md5.lower())

    def hash_matches_entry(self, entry) -> bool:
        """HASH-level comparison against a database entry's identifiers.

        The single definition shared by compilation, delta reachability
        and the CLI compileability report, so hash-matching semantics
        can never diverge between them.
        """
        return self.target.lower() in (entry.app_id.lower(), entry.md5.lower())

    def signature_matches(self, signature: str) -> bool:
        """True if the target matches ``signature`` at this rule's level or higher."""
        if self.level is PolicyLevel.HASH:
            return False
        level = match_level(self.target, signature)
        return level is not None and level >= self.level

    def triggers_deny(self, context: DecodedContext) -> bool:
        """Deny semantics: ∃ s matching at level ≥ L (or the hash matches)."""
        if self.action is not PolicyAction.DENY:
            return False
        if self.level is PolicyLevel.HASH:
            return self._hash_matches(context)
        return any(self.signature_matches(s) for s in context.signatures)

    def touches_app(self, entry) -> bool:
        """Whether this rule can influence verdicts for ``entry``'s app.

        This is the reachability primitive behind delta compilation: a
        rule that matches none of an app's identifiers or signatures can
        never change that app's verdicts (an empty deny index set never
        triggers; an unsatisfiable allow rule is skipped — whitelist-mode
        *transitions* are handled separately by the control plane), so
        adding, removing or replacing it leaves the app's compiled policy
        and cached flow verdicts valid.  Matchers that raise are assumed
        to touch everything, matching the compile-time fallback.
        """
        if self.level is PolicyLevel.HASH:
            return self.hash_matches_entry(entry)
        try:
            return bool(entry.matching_indexes(self.signature_matches))
        except Exception:
            return True

    def satisfies_allow(self, context: DecodedContext) -> bool:
        """Allow semantics: ∀ s matching at level ≥ L (or the hash matches)."""
        if self.action is not PolicyAction.ALLOW:
            return False
        if self.level is PolicyLevel.HASH:
            return self._hash_matches(context)
        if not context.signatures:
            return False
        return all(self.signature_matches(s) for s in context.signatures)

    # -- rendering ------------------------------------------------------------------

    def render(self) -> str:
        return f'{{[{self.action.value}][{self.level.name.lower()}]["{self.target}"]}}'


@dataclass(frozen=True)
class PolicyDecision:
    """The enforcement outcome for one packet."""

    verdict: Verdict
    matched_rule: PolicyRule | None = None
    reason: str = ""

    @property
    def allowed(self) -> bool:
        return self.verdict is Verdict.ACCEPT


@dataclass
class Policy:
    """An ordered set of rules plus a default action."""

    rules: list[PolicyRule] = field(default_factory=list)
    default_action: PolicyAction = PolicyAction.ALLOW
    name: str = "policy"
    #: Bumped by :meth:`add_rule`; fast paths (compiled policies, flow
    #: caches) compare it to detect in-place rule additions.
    revision: int = field(default=0, compare=False, repr=False)
    #: True for immutable snapshots derived by the policy control plane
    #: (:class:`repro.core.policy_store.PolicyStore`); ``add_rule`` on a
    #: frozen snapshot raises instead of desynchronising the store.
    frozen: bool = field(default=False, compare=False, repr=False)

    def add_rule(self, rule: PolicyRule) -> None:
        if self.frozen:
            raise FrozenPolicyError(
                f"policy {self.name!r} is an immutable control-plane snapshot; "
                "apply a PolicyUpdate through the PolicyStore instead"
            )
        self.rules.append(rule)
        self.revision += 1

    def deny_rules(self) -> list[PolicyRule]:
        return [r for r in self.rules if r.action is PolicyAction.DENY]

    def allow_rules(self) -> list[PolicyRule]:
        return [r for r in self.rules if r.action is PolicyAction.ALLOW]

    def evaluate(self, context: DecodedContext) -> PolicyDecision:
        """Apply the paper's rule semantics to one decoded packet context."""
        for rule in self.deny_rules():
            if rule.triggers_deny(context):
                return PolicyDecision(
                    verdict=Verdict.DROP,
                    matched_rule=rule,
                    reason=f"deny rule matched: {rule.render()}",
                )
        allow_rules = self.allow_rules()
        if allow_rules:
            for rule in allow_rules:
                if rule.satisfies_allow(context):
                    return PolicyDecision(
                        verdict=Verdict.ACCEPT,
                        matched_rule=rule,
                        reason=f"allow rule satisfied: {rule.render()}",
                    )
            return PolicyDecision(
                verdict=Verdict.DROP,
                reason="whitelist mode: no allow rule satisfied",
            )
        if self.default_action is PolicyAction.ALLOW:
            return PolicyDecision(verdict=Verdict.ACCEPT, reason="default allow")
        return PolicyDecision(verdict=Verdict.DROP, reason="default deny")

    def render(self) -> str:
        return "\n".join(rule.render() for rule in self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[PolicyRule]:
        return iter(self.rules)

    # -- convenience constructors ---------------------------------------------------

    @classmethod
    def deny_libraries(cls, libraries: Iterable[str], name: str = "library-blacklist") -> "Policy":
        """A blacklist policy that denies every listed library prefix."""
        policy = cls(name=name)
        for library in libraries:
            policy.add_rule(
                PolicyRule(action=PolicyAction.DENY, level=PolicyLevel.LIBRARY, target=library)
            )
        return policy

    @classmethod
    def allow_all(cls, name: str = "allow-all") -> "Policy":
        return cls(name=name, default_action=PolicyAction.ALLOW)

    # -- compilation -----------------------------------------------------------------

    def compile(self, database) -> "CompiledPolicy":
        """Lower this policy against a signature database for fast enforcement.

        The returned :class:`CompiledPolicy` specialises every rule, per
        app, into raw method-index sets so the Policy Enforcer's hot path
        can match the integer tag indexes straight off the wire instead of
        decoding them back to signature strings first.  Compilation is
        lazy (per app, on first packet) and self-invalidating when the
        database generation changes; rules that cannot be lowered fall
        back to the string-based :meth:`evaluate` path.
        """
        return CompiledPolicy(self, database)


@dataclass(frozen=True)
class CompiledRule:
    """One policy rule lowered to one app's method-index space.

    ``hash_match`` precomputes the HASH-level comparison against the
    app's identifiers; ``index_set`` holds every signature index of the
    app that the rule's target matches at the rule's level or higher.
    """

    rule: PolicyRule
    hash_match: bool
    index_set: frozenset[int]


class CompiledAppPolicy:
    """A policy specialised to a single app's signature index space.

    :meth:`evaluate_indexes` reproduces :meth:`Policy.evaluate` —
    identical verdicts, matched rules and reason strings — using only
    integer set membership on the raw tag indexes.
    """

    __slots__ = ("app_id", "method_count", "deny", "allow", "default_action")

    def __init__(
        self,
        app_id: str,
        method_count: int,
        deny: tuple[CompiledRule, ...],
        allow: tuple[CompiledRule, ...],
        default_action: PolicyAction,
    ) -> None:
        self.app_id = app_id
        self.method_count = method_count
        self.deny = deny
        self.allow = allow
        self.default_action = default_action

    def evaluate_indexes(self, indexes: tuple[int, ...]) -> PolicyDecision:
        """Deny-∃ / allow-∀ semantics over raw method indexes."""
        for compiled in self.deny:
            if compiled.hash_match or any(i in compiled.index_set for i in indexes):
                return PolicyDecision(
                    verdict=Verdict.DROP,
                    matched_rule=compiled.rule,
                    reason=f"deny rule matched: {compiled.rule.render()}",
                )
        if self.allow:
            for compiled in self.allow:
                if compiled.hash_match or (
                    indexes and all(i in compiled.index_set for i in indexes)
                ):
                    return PolicyDecision(
                        verdict=Verdict.ACCEPT,
                        matched_rule=compiled.rule,
                        reason=f"allow rule satisfied: {compiled.rule.render()}",
                    )
            return PolicyDecision(
                verdict=Verdict.DROP,
                reason="whitelist mode: no allow rule satisfied",
            )
        if self.default_action is PolicyAction.ALLOW:
            return PolicyDecision(verdict=Verdict.ACCEPT, reason="default allow")
        return PolicyDecision(verdict=Verdict.DROP, reason="default deny")


class CompiledPolicy:
    """Per-app lowering of a :class:`Policy` against a signature database.

    Apps are compiled lazily on first lookup and cached; the cache is
    dropped whenever the database generation moves (new enrolments,
    removals), so late-enrolled apps compile on their first packet.
    """

    def __init__(self, policy: Policy, database) -> None:
        self.policy = policy
        self.database = database
        self._rules = tuple(policy.rules)
        self._default_action = policy.default_action
        self._apps: dict[str, CompiledAppPolicy | None] = {}
        self._generation = database.generation

    def for_app(self, app_id: str) -> CompiledAppPolicy | None:
        """The compiled policy for ``app_id``, or None to use the slow path."""
        if self._generation != self.database.generation:
            self._apps.clear()
            self._generation = self.database.generation
        if app_id in self._apps:
            return self._apps[app_id]
        entry = self.database.lookup_app_id(app_id)
        compiled = None if entry is None else self._compile_entry(entry)
        self._apps[app_id] = compiled
        return compiled

    def apply_delta(
        self, policy: Policy, changed_rules: tuple[PolicyRule, ...]
    ) -> set[str] | None:
        """Incrementally re-lower after a control-plane delta.

        ``policy`` is the new snapshot (same rule list minus the delta's
        edits); only the apps a changed rule can :meth:`~PolicyRule.touches_app`
        are recompiled — everything else keeps its compiled object, which
        is what lets the enforcer keep those apps' flow-cache entries
        warm.  Returns the set of recompiled (affected) app ids, or None
        when the delta cannot be applied incrementally (the database
        generation moved underneath us) and the caller must fall back to
        a full invalidation.

        Apps that previously failed to lower (``None`` entries backed by
        a database app) are retried and always reported as affected: we
        cannot reason about which rules touch an app we never compiled.
        """
        if self._generation != self.database.generation:
            return None
        self.policy = policy
        self._rules = tuple(policy.rules)
        self._default_action = policy.default_action
        affected: set[str] = set()
        for app_id, compiled in list(self._apps.items()):
            entry = self.database.lookup_app_id(app_id)
            if entry is None:
                # Unknown app: its None entry stays None — packets from
                # it are dropped before policy evaluation either way.
                continue
            if compiled is None or any(
                rule.touches_app(entry) for rule in changed_rules
            ):
                self._apps[app_id] = self._compile_entry(entry)
                affected.add(app_id)
        return affected

    def _compile_entry(self, entry) -> CompiledAppPolicy | None:
        deny: list[CompiledRule] = []
        allow: list[CompiledRule] = []
        for rule in self._rules:
            try:
                if rule.level is PolicyLevel.HASH:
                    compiled = CompiledRule(
                        rule=rule,
                        hash_match=rule.hash_matches_entry(entry),
                        index_set=frozenset(),
                    )
                else:
                    compiled = CompiledRule(
                        rule=rule,
                        hash_match=False,
                        index_set=entry.matching_indexes(rule.signature_matches),
                    )
            except Exception:
                # Uncompilable rule: let the whole app use the string path
                # so compiled and naive evaluation can never diverge.
                return None
            (deny if rule.action is PolicyAction.DENY else allow).append(compiled)
        return CompiledAppPolicy(
            app_id=entry.app_id,
            method_count=entry.method_count,
            deny=tuple(deny),
            allow=tuple(allow),
            default_action=self._default_action,
        )


_RULE_RE = re.compile(
    r"""\{\s*\[(?P<action>allow|deny)\]\s*\[(?P<level>hash|library|class|method)\]\s*\["(?P<target>[^"]+)"\]\s*\}""",
    re.IGNORECASE,
)


def parse_policy(text: str, name: str = "policy", default_action: PolicyAction = PolicyAction.ALLOW) -> Policy:
    """Parse policy text written in the paper's Snippet 1 grammar.

    Lines starting with ``//`` are comments; blank lines are ignored;
    rules may span multiple lines (the Dropbox example in the paper wraps
    its method target).
    """
    # Strip comments line-wise, then scan the whole remaining text for rules
    # so that a rule broken across lines still parses.
    stripped_lines = []
    for line in text.splitlines():
        if line.strip().startswith("//"):
            continue
        stripped_lines.append(line)
    body = "\n".join(stripped_lines)
    policy = Policy(name=name, default_action=default_action)
    matched_spans = 0
    for match in _RULE_RE.finditer(body.replace("\n", "")):
        matched_spans += 1
        policy.add_rule(
            PolicyRule(
                action=PolicyAction(match.group("action").lower()),
                level=PolicyLevel.parse(match.group("level")),
                target=match.group("target"),
            )
        )
    leftover = _RULE_RE.sub("", body.replace("\n", "")).strip()
    if leftover and not matched_spans:
        raise PolicyParseError(f"no valid policy rules found in: {text[:80]!r}")
    if leftover and "{" in leftover:
        raise PolicyParseError(f"unparseable policy fragment: {leftover[:80]!r}")
    return policy
