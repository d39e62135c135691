"""Tests for the command-line front end."""

import json

import pytest

from repro.cli import build_parser, main


class TestAnalyzeCommand:
    def test_analyze_case_study_apps(self, tmp_path, capsys):
        output = tmp_path / "db.json"
        code = main(["analyze", "--output", str(output), "--case-study-apps"])
        assert code == 0
        payload = json.loads(output.read_text())
        packages = {entry["package"] for entry in payload.values()}
        assert "com.cloudbox.android" in packages
        assert "analyzed 3 apps" in capsys.readouterr().out

    def test_analyze_corpus_apps(self, tmp_path):
        output = tmp_path / "db.json"
        assert main(["analyze", "--output", str(output), "--corpus-apps", "3"]) == 0
        assert len(json.loads(output.read_text())) == 3

    def test_analyze_without_inputs_fails(self, tmp_path):
        assert main(["analyze", "--output", str(tmp_path / "db.json")]) == 2


class TestCheckPolicyCommand:
    def test_valid_policy(self, tmp_path, capsys):
        policy_file = tmp_path / "policy.txt"
        policy_file.write_text('// deny flurry\n{[deny][library]["com/flurry"]}\n')
        assert main(["check-policy", str(policy_file)]) == 0
        out = capsys.readouterr().out
        assert "1 rule(s)" in out and "com/flurry" in out

    def test_invalid_policy(self, tmp_path, capsys):
        policy_file = tmp_path / "bad.txt"
        policy_file.write_text("{[deny][library][unquoted]}")
        assert main(["check-policy", str(policy_file)]) == 1
        assert "rejected" in capsys.readouterr().err

    def test_json_store_format(self, tmp_path, capsys):
        from repro.core.policy import Policy
        from repro.core.policy_store import PolicyStore

        store_file = tmp_path / "store.json"
        PolicyStore.from_policy(
            Policy.deny_libraries(["com/flurry"]), name="corp"
        ).save(store_file)
        assert main(["check-policy", str(store_file), "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert "'corp'" in out and "r1" in out and "com/flurry" in out

    def test_compileability_report_against_database(self, tmp_path, capsys):
        database_file = tmp_path / "db.json"
        assert main(["analyze", "--output", str(database_file), "--corpus-apps", "3"]) == 0
        policy_file = tmp_path / "policy.txt"
        policy_file.write_text(
            '{[deny][library]["com/flurry"]}\n{[allow][hash]["da6880ab1f9919747d39e2bd895b95a5"]}\n'
        )
        assert main(["check-policy", str(policy_file), "--database", str(database_file)]) == 0
        out = capsys.readouterr().out
        assert "compiles for" in out and "methods matched" in out
        assert "hash rule: matches 0/3 enrolled apps" in out


class TestPolicyControlPlaneCommands:
    def test_push_creates_store_and_diff_reports_delta(self, tmp_path, capsys):
        policy_file = tmp_path / "corp.txt"
        policy_file.write_text('{[deny][library]["com/flurry"]}\n')
        store_file = tmp_path / "store.json"
        assert main(["policy", "push", str(policy_file), "--store", str(store_file)]) == 0
        out = capsys.readouterr().out
        assert "version 0 -> 1" in out and store_file.exists()

        updated = tmp_path / "corp2.txt"
        updated.write_text(
            '{[deny][library]["com/flurry"]}\n{[deny][library]["com/mixpanel"]}\n'
        )
        assert main(["policy", "diff", str(store_file), str(updated)]) == 0
        out = capsys.readouterr().out
        assert "com/mixpanel" in out and "1 op(s)" in out

        assert main(["policy", "push", str(updated), "--store", str(store_file)]) == 0
        out = capsys.readouterr().out
        assert "version 1 -> 2" in out and "surgical" in out

    def test_diff_prints_rule_id_aware_unified_hunks(self, tmp_path, capsys):
        old = tmp_path / "old.txt"
        old.write_text(
            '{[deny][library]["com/flurry"]}\n{[deny][library]["com/old"]}\n'
        )
        new = tmp_path / "new.txt"
        new.write_text(
            '{[deny][library]["com/flurry"]}\n{[deny][library]["com/mixpanel"]}\n'
        )
        assert main(["policy", "diff", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert f"--- {old}" in out and f"+++ {new}" in out
        # Kept rule as context, removal/addition as id-tagged hunk lines.
        assert ' r1: {[deny][library]["com/flurry"]}' in out
        assert '-r2: {[deny][library]["com/old"]}' in out
        assert '+r3: {[deny][library]["com/mixpanel"]}' in out

    def test_push_dry_run_leaves_store_untouched(self, tmp_path, capsys):
        policy_file = tmp_path / "corp.txt"
        policy_file.write_text('{[deny][library]["com/flurry"]}\n')
        store_file = tmp_path / "store.json"
        assert main(
            ["policy", "push", str(policy_file), "--store", str(store_file), "--dry-run"]
        ) == 0
        assert "dry run" in capsys.readouterr().out
        assert not store_file.exists()

    def test_push_rejects_bad_policy(self, tmp_path, capsys):
        policy_file = tmp_path / "bad.txt"
        policy_file.write_text("{[deny][library][unquoted]}")
        assert main(
            ["policy", "push", str(policy_file), "--store", str(tmp_path / "s.json")]
        ) == 1
        assert "rejected" in capsys.readouterr().err


class TestPolicyCompactCommand:
    def push(self, tmp_path, store_file, *rules):
        policy_file = tmp_path / "next.txt"
        policy_file.write_text(
            "".join(f'{{[deny][library]["{target}"]}}\n' for target in rules)
        )
        assert main(["policy", "push", str(policy_file), "--store", str(store_file)]) == 0

    def test_compact_leaves_suffix_only_log_on_disk(self, tmp_path, capsys):
        store_file = tmp_path / "store.json"
        self.push(tmp_path, store_file, "com/flurry")
        self.push(tmp_path, store_file, "com/flurry", "com/mixpanel")
        self.push(tmp_path, store_file, "com/mixpanel")
        payload = json.loads(store_file.read_text())
        assert len(payload["delta_log"]["records"]) == 3  # full history so far

        assert main(["policy", "compact", str(store_file)]) == 0
        out = capsys.readouterr().out
        assert "snapshot @v3" in out and "bootstrap in 1 record(s)" in out

        payload = json.loads(store_file.read_text())
        log = payload["delta_log"]
        # Suffix-only on disk: the prefix folded into the base snapshot.
        assert log["records"] == [] and log["base_version"] == 3
        assert log["snapshot"]["version"] == 3
        assert len(log["snapshot"]["rules"]) == 1

        # The compacted store keeps working: a later push appends to the
        # suffix and the file still loads as version 4.
        self.push(tmp_path, store_file, "com/flurry")
        payload = json.loads(store_file.read_text())
        assert payload["version"] == 4
        assert len(payload["delta_log"]["records"]) == 1

    def test_compact_to_intermediate_version(self, tmp_path, capsys):
        store_file = tmp_path / "store.json"
        self.push(tmp_path, store_file, "com/flurry")
        self.push(tmp_path, store_file, "com/mixpanel")
        self.push(tmp_path, store_file, "com/crashlytics")
        assert main(["policy", "compact", str(store_file), "--up-to", "2"]) == 0
        payload = json.loads(store_file.read_text())
        assert payload["delta_log"]["base_version"] == 2
        assert len(payload["delta_log"]["records"]) == 1

    def test_compact_on_fresh_store_is_a_noop(self, tmp_path, capsys):
        store_file = tmp_path / "store.json"
        self.push(tmp_path, store_file, "com/flurry")
        assert main(["policy", "compact", str(store_file)]) == 0
        capsys.readouterr()
        assert main(["policy", "compact", str(store_file)]) == 0
        assert "nothing to compact" in capsys.readouterr().out

    def test_compact_rejects_bad_version(self, tmp_path, capsys):
        store_file = tmp_path / "store.json"
        self.push(tmp_path, store_file, "com/flurry")
        assert main(["policy", "compact", str(store_file), "--up-to", "9"]) == 1
        assert "rejected" in capsys.readouterr().err

    def test_push_persists_retention_policy(self, tmp_path):
        store_file = tmp_path / "store.json"
        policy_file = tmp_path / "corp.txt"
        policy_file.write_text('{[deny][library]["com/flurry"]}\n')
        assert main(
            ["policy", "push", str(policy_file), "--store", str(store_file),
             "--compact-every", "2"]
        ) == 0
        assert json.loads(store_file.read_text())["compact_every"] == 2
        # Two more pushes trip the retention budget: the store compacts
        # itself on commit, no operator involvement.
        for target in ("com/mixpanel", "com/crashlytics"):
            update = tmp_path / "update.txt"
            update.write_text(f'{{[deny][library]["{target}"]}}\n')
            assert main(["policy", "push", str(update), "--store", str(store_file)]) == 0
        payload = json.loads(store_file.read_text())
        assert payload["version"] == 3
        assert payload["delta_log"]["base_version"] >= 2


class TestPolicyChurnCommand:
    def test_policy_churn_reports_delta_vs_flush(self, capsys):
        assert main(
            ["policy-churn", "--packets", "800", "--flows", "32", "--edits", "4",
             "--shards", "2", "--corpus-apps", "3"]
        ) == 0
        out = capsys.readouterr().out
        for configuration in ("delta", "flush", "delta-sharded-2"):
            assert configuration in out
        assert "all paths verdict-identical: True" in out

    def test_policy_churn_surfaces_hottest_apps(self, capsys):
        assert main(
            ["policy-churn", "--packets", "800", "--flows", "32", "--edits", "4",
             "--shards", "2", "--corpus-apps", "3"]
        ) == 0
        out = capsys.readouterr().out
        # The churn rule only touches one app; it must top the ranking
        # with a human-readable package name, not an opaque hash.
        assert "apps churning the cache hardest (delta path): com." in out


class TestCaseStudyCommand:
    def test_facebook_case_study(self, capsys):
        assert main(["case-study", "facebook"]) == 0
        out = capsys.readouterr().out
        assert "login_with_facebook" in out
        assert "selective enforcement achieved with BorderPatrol: True" in out


class TestGatewayBenchCommand:
    def test_gateway_bench_reports_fast_path_table(self, capsys):
        assert main(
            ["gateway-bench", "--packets", "600", "--flows", "32", "--shards", "2",
             "--corpus-apps", "2", "--fig4-iterations", "0"]
        ) == 0
        out = capsys.readouterr().out
        for configuration in ("naive", "compiled", "cached", "sharded-1", "sharded-2"):
            assert configuration in out
        assert "flow-cache churn by app:" in out
        # The all-valid replay surfaces zeroed integrity counters —
        # previously these outcomes were only visible in raw records.
        assert "integrity outcomes: 0 untagged, 0 unknown-app, 0 decode-failure" in out
        assert "all paths verdict-identical: True" in out

    def test_gateway_bench_pool_backend_rows(self, capsys):
        assert main(
            ["gateway-bench", "--packets", "600", "--flows", "32", "--shards", "2",
             "--corpus-apps", "2", "--fig4-iterations", "0", "--backend", "pool"]
        ) == 0
        out = capsys.readouterr().out
        # The sharded rows name the execution engine they actually ran on.
        assert "sharded-2-pool" in out
        # The health tail: crash/respawn/fallback counters plus the
        # ring-vs-pickle transport split for the pool rows.
        assert "pool health:" in out
        assert "via ring" in out
        assert "all paths verdict-identical: True" in out

    def test_gateway_bench_surfaces_fig4_throughput(self, capsys):
        assert main(
            ["gateway-bench", "--packets", "400", "--flows", "16", "--shards", "2",
             "--corpus-apps", "2", "--fig4-iterations", "50"]
        ) == 0
        out = capsys.readouterr().out
        assert "fig4 stress workload through the sharded gateway" in out
        assert "mean per-request latency" in out
        assert "kpps modelled parallel" in out


class TestFleetCommand:
    def test_fleet_pool_backend_summary(self, capsys):
        assert main(
            ["fleet", "--packets", "900", "--devices", "16", "--gateways", "3",
             "--shards", "1", "--edits", "3", "--corpus-apps", "4",
             "--backend", "pool", "--skip-backend", "--skip-late-joiner"]
        ) == 0
        out = capsys.readouterr().out
        assert "fleet verdict-identical to single gateway: True" in out
        assert "replicas converged (fingerprint-verified): True" in out
        # The pool summary line: measured pipelined wall + live delta pushes.
        assert "gateway pool:" in out
        assert "delta pushes to live workers" in out
        assert "pool health:" in out

    def test_fleet_serial_backend_has_no_pool_line(self, capsys):
        assert main(
            ["fleet", "--packets", "900", "--devices", "16", "--gateways", "3",
             "--shards", "1", "--edits", "3", "--corpus-apps", "4",
             "--backend", "serial", "--skip-backend", "--skip-late-joiner"]
        ) == 0
        out = capsys.readouterr().out
        assert "fleet verdict-identical to single gateway: True" in out
        assert "gateway pool:" not in out

    def test_fleet_backend_flag_parses(self):
        args = build_parser().parse_args(["fleet", "--backend", "pool"])
        assert args.backend == "pool"
        args = build_parser().parse_args(["fleet"])
        assert args.backend == "serial"
        for rejected in ("threads", "process"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["fleet", "--backend", rejected])

    def test_gateway_bench_backend_flag_parses(self):
        args = build_parser().parse_args(["gateway-bench", "--backend", "pool"])
        assert args.backend == "pool"
        for rejected in ("fork", "process"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["gateway-bench", "--backend", rejected])

    def test_backend_help_notes_fork_requirement(self):
        parser = build_parser()
        for command in ("fleet", "gateway-bench"):
            subparser_help = None
            for action in parser._subparsers._group_actions:
                subparser_help = action.choices[command].format_help()
            # argparse line-wraps the help; compare whitespace-normalized.
            assert "fork start method" in " ".join(subparser_help.split())


class TestObsCommand:
    def test_obs_snapshot_renders_the_worker_table(self, capsys):
        assert main(
            ["obs", "--packets", "400", "--flows", "16", "--shards", "2",
             "--corpus-apps", "2", "--batches", "4", "--snapshot"]
        ) == 0
        out = capsys.readouterr().out
        assert "obs profile" in out
        assert "p50 ms" in out and "p99 ms" in out and "respawns" in out
        assert "stages:" in out
        assert "health events" in out

    def test_obs_live_mode_prints_every_frame(self, capsys):
        assert main(
            ["obs", "--packets", "400", "--flows", "16", "--shards", "2",
             "--corpus-apps", "2", "--batches", "4", "--frames", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("obs profile [") == 2

    def test_obs_export_writes_prometheus_text(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.prom"
        assert main(
            ["obs", "--packets", "400", "--flows", "16", "--shards", "2",
             "--corpus-apps", "2", "--batches", "4", "--snapshot",
             "--export", "prom", "--output", str(metrics)]
        ) == 0
        assert "wrote prom export" in capsys.readouterr().out
        text = metrics.read_text(encoding="utf-8")
        assert "# TYPE enforcer_packets_seen gauge" in text
        assert "pool_batches_total" in text or "enforcer_stage_seconds" in text

    def test_obs_export_jsonl_round_trips(self, capsys):
        assert main(
            ["obs", "--packets", "400", "--flows", "16", "--shards", "2",
             "--corpus-apps", "2", "--batches", "4", "--snapshot",
             "--export", "jsonl"]
        ) == 0
        out = capsys.readouterr().out
        families = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
        assert any(family.get("name") == "enforcer_packets_seen" for family in families)

    def test_obs_rejects_degenerate_replay(self, capsys):
        assert main(["obs", "--packets", "2", "--batches", "8"]) == 2
        assert "obs rejected" in capsys.readouterr().err

    def test_obs_flag_defaults(self):
        args = build_parser().parse_args(["obs"])
        assert args.packets == 4000 and args.frames == 4 and not args.snapshot
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "--export", "csv"])


class TestAuditCommand:
    def test_audit_reports_detection_and_roundtrip(self, capsys):
        assert main(
            ["audit", "--packets", "400", "--devices", "10", "--gateways", "2",
             "--shards", "1", "--corpus-apps", "4", "--bursts", "4",
             "--attack-packets", "24", "--skip-overhead"]
        ) == 0
        out = capsys.readouterr().out
        for system in ("borderpatrol", "ip-dns", "size-threshold"):
            assert system in out
        assert "lossless round-trip: True" in out
        assert "BorderPatrol strictly dominates on spoof/replay: True" in out

    def test_audit_rejects_degenerate_replay(self, capsys):
        assert main(["audit", "--packets", "2", "--bursts", "4"]) == 2
        assert "audit rejected" in capsys.readouterr().err


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_experiments_defaults(self):
        args = build_parser().parse_args(["experiments"])
        assert args.fig3_apps == 200 and args.fig4_iterations == 500
