"""Command-line front end.

The prototype ships the Offline Analyzer as a stand-alone Java tool and
the policy tooling as scripts an administrator runs; this module exposes
the same operator workflows over the reproduction:

* ``analyze``      — run the Offline Analyzer over generated corpus apps or the
                     built-in case-study apps and write the json signature database;
* ``check-policy`` — parse a policy file (grammar text or serialized
                     store json) and report its rules; with ``--database``
                     also report per-rule compileability;
* ``policy``       — control-plane operations: ``policy diff`` shows the
                     delta between two policy files, ``policy push``
                     applies a policy file to a versioned store as one
                     delta transaction, ``policy compact`` folds a
                     store's delta-log prefix into a snapshot so
                     late-joining gateways bootstrap in O(suffix);
* ``case-study``   — run one of the §VI-C case studies and print the comparison table;
* ``experiments``  — run the figure/table drivers at a chosen scale;
* ``gateway-bench``— measure gateway packets/sec across the enforcement
                     fast paths (naive vs compiled vs flow-cached vs
                     sharded), plus the Figure-4 workload's latency and
                     throughput through the sharded gateway;
* ``policy-churn`` — measure sustained gateway kpps under continuous
                     rule churn: delta control plane vs whole-flush;
* ``fleet``        — replay a provisioned device fleet across replicated
                     gateways under live policy churn: convergence lag,
                     verdict identity vs a single gateway, and the
                     measured fleet wall beside its parallel model;
* ``audit``        — replay mixed benign/adversarial fleet traffic with
                     the telemetry pipeline attached: per-scenario
                     detection precision/recall for BorderPatrol vs the
                     IP/DNS and size-threshold baselines, audit-log
                     rotation round-trip, and telemetry overhead;
* ``ops``          — replay cross-gateway evasion campaigns under the
                     operator control plane: per-gateway vs federated
                     recall, streaming (no-calibration) exfil budgets,
                     durable alert-spool round-trip, and alert-bus
                     overhead;
* ``obs``          — run an instrumented sharded replay and render live
                     ``top``-style profiler frames (per-stage sampled
                     enforcer latency, p50/p99, cache hit ratio), or a
                     one-shot ``--snapshot``;
                     ``--export prom|jsonl`` additionally emits the
                     metrics registry in that format.

Usage::

    python -m repro.cli analyze --output db.json --case-study-apps
    python -m repro.cli check-policy policy.txt --database db.json
    python -m repro.cli policy diff old.json new.txt
    python -m repro.cli policy push corp.txt --store store.json
    python -m repro.cli policy compact store.json
    python -m repro.cli case-study cloud-storage
    python -m repro.cli experiments --fig3-apps 200 --fig4-iterations 300
    python -m repro.cli gateway-bench --packets 10000 --shards 4
    python -m repro.cli policy-churn --packets 10000 --edits 24
    python -m repro.cli fleet --packets 10000 --devices 120 --gateways 3
    python -m repro.cli audit --packets 8000 --devices 60 --gateways 2
    python -m repro.cli ops --packets 12000 --devices 60 --gateways 4
    python -m repro.cli obs --packets 4000 --shards 4 --frames 4
    python -m repro.cli obs --snapshot --export prom --output metrics.prom
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.offline_analyzer import OfflineAnalyzer
from repro.core.policy import PolicyLevel, PolicyParseError, parse_policy
from repro.core.policy_store import PolicyStore, PolicyUpdateError
from repro.experiments.audit import run_audit_bench
from repro.experiments.case_studies import run_cloud_storage_case_study, run_facebook_case_study
from repro.experiments.fig3_ioi import run_fig3
from repro.experiments.fig4_latency import run_fig4, run_fig4_gateway_throughput
from repro.experiments.fleet import run_fleet_bench, run_late_joiner_bench
from repro.experiments.gateway_throughput import run_gateway_bench
from repro.experiments.obs import run_obs_profile
from repro.experiments.ops import run_ops_bench
from repro.experiments.policy_churn import run_policy_churn
from repro.experiments.table_validation import run_validation
from repro.workloads.apps import build_box_like_app, build_calendar_app, build_cloud_storage_app
from repro.workloads.corpus import CorpusConfig, CorpusGenerator


def _cmd_analyze(args: argparse.Namespace) -> int:
    analyzer = OfflineAnalyzer()
    apks = []
    if args.case_study_apps:
        apks.extend(
            app.apk for app in (build_cloud_storage_app(), build_box_like_app(), build_calendar_app())
        )
    if args.corpus_apps:
        generator = CorpusGenerator(CorpusConfig(n_apps=args.corpus_apps, seed=args.seed))
        apks.extend(app.apk for app in generator.generate())
    if not apks:
        print("nothing to analyze: pass --case-study-apps and/or --corpus-apps N", file=sys.stderr)
        return 2
    report = analyzer.analyze_batch(apks)
    Path(args.output).write_text(analyzer.database.to_json(), encoding="utf-8")
    print(
        f"analyzed {report.apps_processed} apps "
        f"({report.total_methods} method signatures, {report.multidex_apps} multi-dex); "
        f"database written to {args.output}"
    )
    return 0


def _load_policy_store(path: str, fmt: str = "auto") -> PolicyStore:
    """Load a policy file as a store: serialized json or Snippet 1 grammar text."""
    text = Path(path).read_text(encoding="utf-8")
    if fmt == "auto":
        try:
            json.loads(text)
            fmt = "json"
        except json.JSONDecodeError:
            fmt = "text"
    if fmt == "json":
        return PolicyStore.from_json(text)
    return PolicyStore.from_policy(parse_policy(text, name=Path(path).stem))


def _rule_compile_report(rule, entries) -> str:
    """How a rule lowers against every app of a signature database."""
    if rule.level is PolicyLevel.HASH:
        touched = sum(1 for entry in entries if rule.hash_matches_entry(entry))
        return f"hash rule: matches {touched}/{len(entries)} enrolled apps"
    touched = methods = fallbacks = 0
    for entry in entries:
        try:
            indexes = entry.matching_indexes(rule.signature_matches)
        except Exception:
            fallbacks += 1
            continue
        if indexes:
            touched += 1
            methods += len(indexes)
    report = f"compiles for {touched}/{len(entries)} apps, {methods} methods matched"
    if fallbacks:
        report += f" ({fallbacks} apps fall back to the string path)"
    return report


def _cmd_check_policy(args: argparse.Namespace) -> int:
    try:
        store = _load_policy_store(args.policy_file, fmt=args.format)
    except (PolicyParseError, KeyError, TypeError) as error:
        print(f"policy rejected: {error}", file=sys.stderr)
        return 1
    print(f"policy {store.name!r} (version {store.version}): {len(store)} rule(s)")
    entries = None
    if args.database:
        from repro.core.database import SignatureDatabase

        entries = SignatureDatabase.load(args.database).entries()
    for rule_id, rule in store.items():
        line = f"  {rule_id:6s} {rule.render()}"
        if entries is not None:
            line += f"  -> {_rule_compile_report(rule, entries)}"
        print(line)
    return 0


def _cmd_policy_diff(args: argparse.Namespace) -> int:
    try:
        old = _load_policy_store(args.old)
        new = _load_policy_store(args.new)
    except (PolicyParseError, KeyError, TypeError) as error:
        print(f"policy rejected: {error}", file=sys.stderr)
        return 1
    target = new.snapshot()
    update = old.diff_update(target)
    print(
        old.unified_diff(
            target, update=update, from_label=args.old, to_label=args.new
        )
    )
    print(f"{len(update)} op(s) turn {args.old} (version {old.version}) into {args.new}")
    return 0


def _cmd_policy_push(args: argparse.Namespace) -> int:
    store_path = Path(args.store)
    if args.compact_every is not None and args.compact_every < 1:
        print("policy push rejected: --compact-every must be >= 1", file=sys.stderr)
        return 2
    try:
        store = PolicyStore.load(store_path) if store_path.exists() else PolicyStore()
        if args.compact_every is not None:
            store.compact_every = args.compact_every
        target = _load_policy_store(args.policy_file).snapshot()
        update = store.diff_update(target)
        if args.dry_run:
            print(update.describe())
            print(f"dry run: {len(update)} op(s), store stays at version {store.version}")
            return 0
        before = store.version
        delta = store.apply(update)
        store.save(store_path)
    except (PolicyParseError, PolicyUpdateError, KeyError, TypeError, OSError) as error:
        print(f"policy push rejected: {error}", file=sys.stderr)
        return 1
    invalidation = "whole-cache" if delta.full else "surgical"
    print(update.describe())
    print(
        f"pushed {args.policy_file} -> {args.store}: version {before} -> {delta.version} "
        f"({len(update)} op(s), {len(delta.changed_rules)} changed rule(s), "
        f"{invalidation} invalidation at subscribed gateways)"
    )
    return 0


def _cmd_policy_compact(args: argparse.Namespace) -> int:
    from repro.core.policy_store import ReplicationError

    try:
        store = PolicyStore.load(args.store)
        log = store.delta_log
        before_records, before_bytes = len(log), len(log.to_json())
        snapshot = store.compact(args.up_to)
        store.save(args.store)
    except (PolicyParseError, ReplicationError, KeyError, TypeError, OSError) as error:
        print(f"policy compact rejected: {error}", file=sys.stderr)
        return 1
    if snapshot is None or before_records == len(log):
        print(
            f"{args.store}: nothing to compact "
            f"(log already based at v{log.base_version}, {len(log)} record(s))"
        )
        return 0
    print(
        f"compacted {args.store}: {before_records} record(s) ({before_bytes} bytes) "
        f"-> snapshot @v{snapshot.version} ({len(snapshot.rules)} rule(s)) "
        f"+ {len(log)}-record suffix ({len(log.to_json())} bytes); "
        f"{snapshot.compacted_records} record(s) folded over the log's lifetime"
    )
    print(
        f"late joiners now bootstrap in {len(log) + 1} record(s) instead of "
        f"replaying {before_records} version(s) of history"
    )
    return 0


def _cmd_case_study(args: argparse.Namespace) -> int:
    if args.name == "cloud-storage":
        result = run_cloud_storage_case_study()
    else:
        result = run_facebook_case_study()
    print(result.table())
    selective = result.achieves_selective_blocking("borderpatrol")
    print(f"\nselective enforcement achieved with BorderPatrol: {selective}")
    return 0 if selective else 1


def _cmd_experiments(args: argparse.Namespace) -> int:
    print(run_fig3(n_apps=args.fig3_apps, events_per_app=args.fig3_events).table())
    print()
    print(
        run_validation(
            corpus_size=args.validation_corpus,
            apps_to_test=args.validation_apps,
            events_per_app=args.fig3_events,
        ).table()
    )
    print()
    print(run_fig4(iterations=args.fig4_iterations).table())
    return 0


def _cmd_gateway_bench(args: argparse.Namespace) -> int:
    try:
        result = run_gateway_bench(
            packets=args.packets,
            flows=args.flows,
            shards=args.shards,
            corpus_apps=args.corpus_apps,
            seed=args.seed,
        )
    except ValueError as error:
        print(f"gateway-bench rejected: {error}", file=sys.stderr)
        return 2
    print(result.table())
    if args.fig4_iterations > 0:
        print()
        print(
            run_fig4_gateway_throughput(
                iterations=args.fig4_iterations, shards=args.shards
            ).summary()
        )
    if not result.verdicts_match:
        print("FAST PATH DIVERGED FROM NAIVE ENFORCEMENT", file=sys.stderr)
        return 1
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    try:
        result = run_fleet_bench(
            packets=args.packets,
            devices=args.devices,
            gateways=args.gateways,
            shards_per_gateway=args.shards,
            edits=args.edits,
            corpus_apps=args.corpus_apps,
            seed=args.seed,
        )
    except ValueError as error:
        print(f"fleet rejected: {error}", file=sys.stderr)
        return 2
    print(result.table())
    if not result.converged:
        print("GATEWAY REPLICAS FAILED TO CONVERGE", file=sys.stderr)
        return 1
    if not result.verdicts_match:
        print("FLEET DIVERGED FROM SINGLE-GATEWAY ENFORCEMENT", file=sys.stderr)
        return 1
    if not args.skip_late_joiner:
        try:
            late = run_late_joiner_bench(
                versions=args.late_joiner_versions,
                compact_every=args.compact_every,
                packets=min(args.packets, 2_000),
                corpus_apps=args.corpus_apps,
                seed=args.seed,
            )
        except ValueError as error:
            print(f"late-joiner bench rejected: {error}", file=sys.stderr)
            return 2
        print()
        print(late.summary())
        if not late.bootstrap_bound_held:
            print("LATE JOINER REPLAYED MORE THAN SNAPSHOT + SUFFIX", file=sys.stderr)
            return 1
        if not late.converged or not late.verdicts_match:
            print("LATE JOINER DIVERGED FROM THE HEAD GATEWAY", file=sys.stderr)
            return 1
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    try:
        result = run_audit_bench(
            packets=args.packets,
            devices=args.devices,
            gateways=args.gateways,
            shards_per_gateway=args.shards,
            corpus_apps=args.corpus_apps,
            seed=args.seed,
            bursts=args.bursts,
            attack_packets_per_scenario=args.attack_packets,
            measure_overhead=not args.skip_overhead,
        )
    except ValueError as error:
        print(f"audit rejected: {error}", file=sys.stderr)
        return 2
    print(result.table())
    if not result.audit_roundtrip_ok:
        print("AUDIT LOG ROTATION LOST RECORDS", file=sys.stderr)
        return 1
    if not result.borderpatrol_dominates_spoof_replay:
        print(
            "BORDERPATROL DID NOT DOMINATE THE BASELINES ON SPOOF/REPLAY",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_ops(args: argparse.Namespace) -> int:
    try:
        result = run_ops_bench(
            packets=args.packets,
            devices=args.devices,
            gateways=args.gateways,
            shards_per_gateway=args.shards,
            corpus_apps=args.corpus_apps,
            seed=args.seed,
            bursts=args.bursts,
            measure_overhead=not args.skip_overhead,
        )
    except ValueError as error:
        print(f"ops rejected: {error}", file=sys.stderr)
        return 2
    print(result.table())
    if not result.spool_replay_ok:
        print("DURABLE ALERT SPOOL LOST OR REORDERED ALERTS", file=sys.stderr)
        return 1
    if not result.per_gateway_misses_split:
        print(
            "SPLIT CAMPAIGNS WERE NOT SPLIT: per-gateway detectors caught "
            "what the federation exists to catch",
            file=sys.stderr,
        )
        return 1
    if not result.federated_catches_all:
        print("FEDERATION MISSED A CROSS-GATEWAY CAMPAIGN", file=sys.stderr)
        return 1
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    try:
        profile = run_obs_profile(
            packets=args.packets,
            flows=args.flows,
            shards=args.shards,
            corpus_apps=args.corpus_apps,
            seed=args.seed,
            batches=args.batches,
            sample_every=args.sample_every,
            frames=1 if args.snapshot else args.frames,
        )
    except ValueError as error:
        print(f"obs rejected: {error}", file=sys.stderr)
        return 2
    if args.snapshot:
        print(profile.final_frame())
    else:
        for frame in profile.frames:
            print(frame)
            print()
    if args.export:
        text = profile.prometheus if args.export == "prom" else profile.jsonl
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
            print(f"wrote {args.export} export ({len(text)} bytes) to {args.output}")
        else:
            print(text, end="")
    return 0


def _cmd_policy_churn(args: argparse.Namespace) -> int:
    try:
        result = run_policy_churn(
            packets=args.packets,
            flows=args.flows,
            edits=args.edits,
            corpus_apps=args.corpus_apps,
            seed=args.seed,
            shards=args.shards,
        )
    except ValueError as error:
        print(f"policy-churn rejected: {error}", file=sys.stderr)
        return 2
    print(result.table())
    if not result.verdicts_match:
        print("DELTA PATH DIVERGED FROM FULL RECOMPILATION", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser("analyze", help="run the Offline Analyzer and write the json database")
    analyze.add_argument("--output", default="signatures.json")
    analyze.add_argument("--case-study-apps", action="store_true")
    analyze.add_argument("--corpus-apps", type=int, default=0, metavar="N")
    analyze.add_argument("--seed", type=int, default=7)
    analyze.set_defaults(func=_cmd_analyze)

    check = subparsers.add_parser(
        "check-policy",
        help="validate a policy file (grammar text or store json) and report its rules",
    )
    check.add_argument("policy_file")
    check.add_argument(
        "--format",
        choices=("auto", "text", "json"),
        default="auto",
        help="input format: Snippet 1 grammar text or serialized PolicyStore json",
    )
    check.add_argument(
        "--database",
        default=None,
        metavar="DB.json",
        help="signature database to report per-rule compileability against",
    )
    check.set_defaults(func=_cmd_check_policy)

    policy = subparsers.add_parser("policy", help="versioned policy control-plane operations")
    policy_sub = policy.add_subparsers(dest="policy_command", required=True)
    diff = policy_sub.add_parser("diff", help="show the delta update between two policy files")
    diff.add_argument("old")
    diff.add_argument("new")
    diff.set_defaults(func=_cmd_policy_diff)
    push = policy_sub.add_parser(
        "push", help="apply a policy file to a versioned store as one delta transaction"
    )
    push.add_argument("policy_file")
    push.add_argument("--store", required=True, metavar="STORE.json")
    push.add_argument("--dry-run", action="store_true")
    push.add_argument(
        "--compact-every",
        type=int,
        default=None,
        metavar="N",
        help="retention policy persisted with the store: auto-compact its "
        "delta log every N committed versions",
    )
    push.set_defaults(func=_cmd_policy_push)
    compact = policy_sub.add_parser(
        "compact",
        help="fold a store's delta-log prefix into a base snapshot + suffix "
        "so late-joining gateways bootstrap in O(suffix)",
    )
    compact.add_argument("store", metavar="STORE.json")
    compact.add_argument(
        "--up-to",
        type=int,
        default=None,
        metavar="VERSION",
        help="compact through this version only (default: the log head)",
    )
    compact.set_defaults(func=_cmd_policy_compact)

    case = subparsers.add_parser("case-study", help="run a §VI-C case study")
    case.add_argument("name", choices=("cloud-storage", "facebook"))
    case.set_defaults(func=_cmd_case_study)

    experiments = subparsers.add_parser("experiments", help="run the evaluation drivers")
    experiments.add_argument("--fig3-apps", type=int, default=200)
    experiments.add_argument("--fig3-events", type=int, default=150)
    experiments.add_argument("--validation-corpus", type=int, default=100)
    experiments.add_argument("--validation-apps", type=int, default=30)
    experiments.add_argument("--fig4-iterations", type=int, default=500)
    experiments.set_defaults(func=_cmd_experiments)

    gateway = subparsers.add_parser(
        "gateway-bench",
        help="measure gateway pps: naive vs compiled vs flow-cached vs sharded",
    )
    gateway.add_argument("--packets", type=int, default=10_000)
    gateway.add_argument("--flows", type=int, default=256)
    gateway.add_argument("--shards", type=int, default=4)
    gateway.add_argument("--corpus-apps", type=int, default=6, metavar="N")
    gateway.add_argument("--seed", type=int, default=7)
    gateway.add_argument(
        "--fig4-iterations",
        type=int,
        default=200,
        help="also drive the Figure-4 stress workload through the sharded "
        "gateway and report latency + kpps (0 disables)",
    )
    gateway.set_defaults(func=_cmd_gateway_bench)

    churn = subparsers.add_parser(
        "policy-churn",
        help="measure sustained gateway kpps under continuous rule churn: "
        "delta control plane vs whole-flush baseline",
    )
    churn.add_argument("--packets", type=int, default=10_000)
    churn.add_argument("--flows", type=int, default=256)
    churn.add_argument("--edits", type=int, default=24)
    churn.add_argument("--shards", type=int, default=4)
    churn.add_argument("--corpus-apps", type=int, default=6, metavar="N")
    churn.add_argument("--seed", type=int, default=7)
    churn.set_defaults(func=_cmd_policy_churn)

    fleet = subparsers.add_parser(
        "fleet",
        help="replay a device-fleet workload across replicated gateways "
        "under live policy churn",
    )
    fleet.add_argument("--packets", type=int, default=10_000)
    fleet.add_argument("--devices", type=int, default=120)
    fleet.add_argument("--gateways", type=int, default=3)
    fleet.add_argument("--shards", type=int, default=2,
                       help="enforcer shards per gateway")
    fleet.add_argument("--edits", type=int, default=12,
                       help="policy-churn bursts committed during the replay")
    fleet.add_argument("--corpus-apps", type=int, default=8, metavar="N")
    fleet.add_argument("--seed", type=int, default=7)
    fleet.add_argument(
        "--late-joiner-versions",
        type=int,
        default=240,
        metavar="N",
        help="policy versions committed before the late-joiner gateway "
        "attaches (bootstrap-cost / log-size report)",
    )
    fleet.add_argument(
        "--compact-every",
        type=int,
        default=50,
        metavar="N",
        help="delta-log retention for the late-joiner scenario",
    )
    fleet.add_argument(
        "--skip-late-joiner",
        action="store_true",
        help="skip the late-joiner bootstrap-cost scenario",
    )
    fleet.set_defaults(func=_cmd_fleet)

    audit = subparsers.add_parser(
        "audit",
        help="replay mixed benign/adversarial fleet traffic; report detection "
        "precision/recall for BorderPatrol vs the IP/DNS and size-threshold "
        "baselines, plus telemetry overhead",
    )
    audit.add_argument("--packets", type=int, default=8000,
                       help="benign fleet packets in the mixed replay")
    audit.add_argument("--devices", type=int, default=60)
    audit.add_argument("--gateways", type=int, default=2)
    audit.add_argument("--shards", type=int, default=2,
                       help="enforcer shards per gateway")
    audit.add_argument("--corpus-apps", type=int, default=6, metavar="N")
    audit.add_argument("--seed", type=int, default=7)
    audit.add_argument("--bursts", type=int, default=8,
                       help="replay bursts (collectors drain per burst)")
    audit.add_argument("--attack-packets", type=int, default=160,
                       help="packets per stripping/spoofing/replay scenario")
    audit.add_argument(
        "--skip-overhead",
        action="store_true",
        help="skip the telemetry-on vs telemetry-off throughput comparison",
    )
    audit.set_defaults(func=_cmd_audit)

    ops = subparsers.add_parser(
        "ops",
        help="replay cross-gateway evasion campaigns under the operator "
        "control plane; report per-gateway vs federated recall, streaming "
        "budgets, alert-spool durability, and alert-bus overhead",
    )
    ops.add_argument("--packets", type=int, default=12_000,
                     help="benign fleet packets in the mixed replay")
    ops.add_argument("--devices", type=int, default=60)
    ops.add_argument("--gateways", type=int, default=4)
    ops.add_argument("--shards", type=int, default=2,
                     help="enforcer shards per gateway")
    ops.add_argument("--corpus-apps", type=int, default=6, metavar="N")
    ops.add_argument("--seed", type=int, default=7)
    ops.add_argument("--bursts", type=int, default=24,
                     help="replay bursts (the first two thirds are warm-up)")
    ops.add_argument(
        "--skip-overhead",
        action="store_true",
        help="skip the bus-on vs bus-off throughput comparison",
    )
    ops.set_defaults(func=_cmd_ops)

    obs = subparsers.add_parser(
        "obs",
        help="run an instrumented sharded replay and render live profiler "
        "frames: per-stage sampled enforcer latency (p50/p99) and the "
        "flow-cache hit ratio",
    )
    obs.add_argument("--packets", type=int, default=4_000)
    obs.add_argument("--flows", type=int, default=128)
    obs.add_argument("--shards", type=int, default=4)
    obs.add_argument("--corpus-apps", type=int, default=6, metavar="N")
    obs.add_argument("--seed", type=int, default=7)
    obs.add_argument("--batches", type=int, default=8,
                     help="bursts the replay is split into")
    obs.add_argument("--frames", type=int, default=4,
                     help="profiler frames rendered over the replay")
    obs.add_argument("--sample-every", type=int, default=32, metavar="N",
                     help="sample enforcer stage latency on every Nth packet")
    obs.add_argument(
        "--snapshot",
        action="store_true",
        help="one-shot mode: render only the final frame",
    )
    obs.add_argument(
        "--export",
        choices=("prom", "jsonl"),
        default=None,
        help="also emit the metrics registry as Prometheus text or JSONL",
    )
    obs.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the --export text to FILE instead of stdout",
    )
    obs.set_defaults(func=_cmd_obs)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
