"""Tests for the policy model, grammar parser and evaluation semantics."""

import pytest

from repro.core.policy import (
    DecodedContext,
    Policy,
    PolicyAction,
    PolicyLevel,
    PolicyParseError,
    PolicyRule,
    _signature_parts,
    match_level,
    parse_policy,
)
from repro.dex.signature import MethodSignature
from repro.netstack.netfilter import Verdict
from repro.workloads.apps import build_box_like_app, build_calendar_app, build_cloud_storage_app
from repro.workloads.corpus import CorpusConfig, CorpusGenerator
from repro.workloads.libraries import builtin_catalog

FLURRY_SIG = "Lcom/flurry/sdk/FlurryAgent;->onEvent(Ljava/lang/String;)V"
APP_SIG = "Lcom/example/app/MainActivity;->onClick(Landroid/view/View;)V"
UPLOAD_SIG = (
    "Lcom/dropbox/android/taskqueue/UploadTask;->c()Lcom/dropbox/hairball/taskqueue/TaskResult;"
)


def context(*signatures, app_id="00112233aabbccdd", md5="f" * 32):
    return DecodedContext(app_id=app_id, signatures=tuple(signatures), app_md5=md5)


class TestMatchLevel:
    def test_library_prefix_match(self):
        assert match_level("com/flurry", FLURRY_SIG) is PolicyLevel.LIBRARY
        assert match_level("com.flurry", FLURRY_SIG) is PolicyLevel.LIBRARY

    def test_class_match(self):
        assert match_level("com/flurry/sdk/FlurryAgent", FLURRY_SIG) is PolicyLevel.CLASS

    def test_method_match_with_and_without_trailing_semicolon(self):
        assert match_level(UPLOAD_SIG, UPLOAD_SIG) is PolicyLevel.METHOD
        # The paper's Example 3 omits the trailing ';' of the return type.
        assert match_level(UPLOAD_SIG.rstrip(";"), UPLOAD_SIG) is PolicyLevel.METHOD

    def test_no_match(self):
        assert match_level("com/facebook", FLURRY_SIG) is None
        assert match_level("com/flur", FLURRY_SIG) is None
        assert match_level(UPLOAD_SIG, FLURRY_SIG) is None

    def test_unparseable_signature(self):
        assert match_level("com/flurry", "garbage") is None

    def test_levels_are_ordered(self):
        assert PolicyLevel.HASH < PolicyLevel.LIBRARY < PolicyLevel.CLASS < PolicyLevel.METHOD


def _unmemoised_match_level(target, signature):
    """The match computed straight from a fresh parse (no memo)."""
    try:
        parsed = MethodSignature.parse(signature)
    except ValueError:
        return None
    stripped = target.strip()
    if "->" in stripped:
        rendered = str(parsed)
        if rendered.startswith(stripped.rstrip(";")) or rendered == stripped:
            return PolicyLevel.METHOD
        return None
    normalised = stripped.strip("/").replace(".", "/")
    if parsed.slash_class == normalised:
        return PolicyLevel.CLASS
    if (
        parsed.slash_class.startswith(normalised + "/")
        or parsed.library == normalised
        or parsed.library.startswith(normalised + "/")
    ):
        return PolicyLevel.LIBRARY
    return None


class TestMatchLevelMemo:
    @pytest.fixture(scope="class")
    def corpus_signatures(self):
        apks = [app.apk for app in CorpusGenerator(CorpusConfig(n_apps=6, seed=5)).generate()]
        apks += [
            build().apk
            for build in (build_cloud_storage_app, build_box_like_app, build_calendar_app)
        ]
        return sorted(
            {str(signature) for apk in apks for signature in apk.merged_dex().method_signatures()}
        )

    def test_memo_matches_a_fresh_parse_for_every_target_and_signature(self, corpus_signatures):
        targets = {profile.slash_package for profile in builtin_catalog()}
        targets |= {profile.package for profile in builtin_catalog()}
        for signature in corpus_signatures:
            parsed = MethodSignature.parse(signature)
            targets |= {parsed.library, parsed.slash_class, signature, signature.rstrip(";")}
        targets |= {"com/flur", "com", "/com/flurry/", "Lcom/nothing;->x()V"}
        signatures = corpus_signatures + ["garbage", "", "Lcom/broken;->"]
        seen = set()
        for target in sorted(targets):
            for signature in signatures:
                level = match_level(target, signature)
                assert level is _unmemoised_match_level(target, signature), (target, signature)
                seen.add(level)
        assert seen == {None, PolicyLevel.LIBRARY, PolicyLevel.CLASS, PolicyLevel.METHOD}

    def test_malformed_signature_is_none_on_every_call(self):
        malformed = "Lcom/example/Broken;->never-seen-before"
        assert match_level("com/example", malformed) is None
        assert match_level("com/example", malformed) is None
        assert match_level("com/example/Broken", malformed) is None

    def test_memo_is_bounded(self):
        maxsize = _signature_parts.cache_info().maxsize
        assert maxsize is not None
        try:
            for index in range(maxsize + 100):
                match_level("com/example", f"not a signature {index}")
            assert _signature_parts.cache_info().currsize == maxsize
        finally:
            _signature_parts.cache_clear()


class TestPolicyRuleSemantics:
    def test_deny_exists_semantics(self):
        rule = PolicyRule(PolicyAction.DENY, PolicyLevel.LIBRARY, "com/flurry")
        assert rule.triggers_deny(context(APP_SIG, FLURRY_SIG))
        assert not rule.triggers_deny(context(APP_SIG))

    def test_deny_requires_level_at_least_rule_level(self):
        # A library-granularity match does not satisfy a class-level rule.
        rule = PolicyRule(PolicyAction.DENY, PolicyLevel.CLASS, "com/flurry")
        assert not rule.triggers_deny(context(FLURRY_SIG))
        class_rule = PolicyRule(PolicyAction.DENY, PolicyLevel.CLASS, "com/flurry/sdk/FlurryAgent")
        assert class_rule.triggers_deny(context(FLURRY_SIG))

    def test_allow_forall_semantics(self):
        rule = PolicyRule(PolicyAction.ALLOW, PolicyLevel.LIBRARY, "com/flurry")
        assert rule.satisfies_allow(context(FLURRY_SIG))
        assert not rule.satisfies_allow(context(FLURRY_SIG, APP_SIG))
        assert not rule.satisfies_allow(context())

    def test_hash_level_rules(self):
        deny = PolicyRule(PolicyAction.DENY, PolicyLevel.HASH, "00112233aabbccdd")
        assert deny.triggers_deny(context(APP_SIG))
        assert not deny.triggers_deny(context(APP_SIG, app_id="ffffffffffffffff", md5="e" * 32))
        allow = PolicyRule(PolicyAction.ALLOW, PolicyLevel.HASH, "f" * 32)
        assert allow.satisfies_allow(context(APP_SIG))

    def test_empty_target_rejected(self):
        with pytest.raises(PolicyParseError):
            PolicyRule(PolicyAction.DENY, PolicyLevel.LIBRARY, "")

    def test_render_round_trips_through_parser(self):
        rule = PolicyRule(PolicyAction.DENY, PolicyLevel.LIBRARY, "com/flurry")
        parsed = parse_policy(rule.render())
        assert parsed.rules[0] == rule


class TestPolicyEvaluation:
    def test_default_allow(self):
        assert Policy.allow_all().evaluate(context(APP_SIG)).allowed

    def test_default_deny(self):
        policy = Policy(default_action=PolicyAction.DENY)
        assert not policy.evaluate(context(APP_SIG)).allowed

    def test_deny_rule_wins(self):
        policy = Policy.deny_libraries(["com/flurry"])
        decision = policy.evaluate(context(APP_SIG, FLURRY_SIG))
        assert decision.verdict is Verdict.DROP
        assert decision.matched_rule is not None
        assert "com/flurry" in decision.reason

    def test_whitelist_mode_requires_an_allow_match(self):
        policy = Policy()
        policy.add_rule(PolicyRule(PolicyAction.ALLOW, PolicyLevel.LIBRARY, "com/example/app"))
        assert policy.evaluate(context(APP_SIG)).allowed
        assert not policy.evaluate(context(FLURRY_SIG)).allowed
        assert not policy.evaluate(context(APP_SIG, FLURRY_SIG)).allowed

    def test_deny_beats_allow(self):
        policy = Policy()
        policy.add_rule(PolicyRule(PolicyAction.ALLOW, PolicyLevel.LIBRARY, "com/example/app"))
        policy.add_rule(PolicyRule(PolicyAction.DENY, PolicyLevel.METHOD, APP_SIG))
        assert not policy.evaluate(context(APP_SIG)).allowed

    def test_method_level_blocks_only_that_method(self):
        policy = Policy()
        policy.add_rule(PolicyRule(PolicyAction.DENY, PolicyLevel.METHOD, UPLOAD_SIG))
        assert not policy.evaluate(context(APP_SIG, UPLOAD_SIG)).allowed
        download = UPLOAD_SIG.replace("UploadTask", "DownloadTask")
        assert policy.evaluate(context(APP_SIG, download)).allowed

    def test_deny_libraries_constructor(self):
        policy = Policy.deny_libraries(["com/flurry", "com/facebook"])
        assert len(policy) == 2
        assert all(r.action is PolicyAction.DENY for r in policy)

    def test_iteration_and_render(self):
        policy = Policy.deny_libraries(["com/flurry"])
        assert "[deny][library]" in policy.render()
        assert list(policy)[0].level is PolicyLevel.LIBRARY


class TestPolicyGrammar:
    def test_paper_snippet_examples(self):
        text = """
        // Example 1: prevent ad library connections
        {[deny][library]["com/flurry"]}
        // Example 2: prevent functions of an entire class
        {[deny][class]["com/google/gms"]}
        // Example 3: prevent uploads for Dropbox
        {[deny][method]["Lcom/dropbox/android/taskqueue/UploadTask;
        ->c()Lcom/dropbox/hairball/taskqueue/TaskResult"]}
        // Example 4: whitelist company app connections by hash
        {[allow][hash]["da6880ab1f9919747d39e2bd895b95a5"]}
        """
        # The multi-line Example 3 target wraps exactly as in the paper;
        # normalise it onto one line the way an admin would actually write it.
        text = text.replace("UploadTask;\n        ->c()", "UploadTask;->c()")
        policy = parse_policy(text)
        assert len(policy) == 4
        actions = [rule.action for rule in policy]
        assert actions == [PolicyAction.DENY] * 3 + [PolicyAction.ALLOW]
        levels = [rule.level for rule in policy]
        assert levels == [PolicyLevel.LIBRARY, PolicyLevel.CLASS, PolicyLevel.METHOD, PolicyLevel.HASH]

    def test_comments_and_blank_lines_ignored(self):
        policy = parse_policy("// nothing but comments\n\n{[deny][library][\"com/flurry\"]}\n")
        assert len(policy) == 1

    def test_garbage_rejected(self):
        with pytest.raises(PolicyParseError):
            parse_policy("{[deny][library][com/flurry]}")
        with pytest.raises(PolicyParseError):
            parse_policy("this is not a policy at all")

    def test_unparseable_fragment_next_to_valid_rule_rejected(self):
        with pytest.raises(PolicyParseError):
            parse_policy('{[deny][library]["com/flurry"]} {[deny][bogus]["x"]}')

    def test_case_insensitive_action_and_level(self):
        policy = parse_policy('{[DENY][Library]["com/flurry"]}')
        assert policy.rules[0].action is PolicyAction.DENY
        assert policy.rules[0].level is PolicyLevel.LIBRARY

    def test_unknown_level_rejected(self):
        with pytest.raises(PolicyParseError):
            PolicyLevel.parse("package")


class TestDecodedContext:
    def test_parsed_signatures_skips_garbage(self):
        ctx = DecodedContext(app_id="00" * 8, signatures=(APP_SIG, "garbage"))
        assert len(ctx.parsed_signatures) == 1
