"""Tests for the benchmark harness itself (run with ``pytest bench -q``)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import BorderPatrolDeployment
from repro.netstack.ip import IPOptions, IPPacket
from repro.netstack.netfilter import Verdict
from repro.network.server import Server

import compare
import run
import trace
import workloads
from oracle import (
    DELIVERED,
    DROPPED,
    DeviceOutcomes,
    ReferenceVerdicts,
    VerdictLog,
    leaked_option_packets,
)

BENCH_DIR = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def gateway():
    """An enrolled single-gateway deployment plus its database entries."""
    apps = workloads.corpus()
    deployment = BorderPatrolDeployment(policy=workloads.bench_policy(apps), keep_records=False)
    deployment.enroll_apps([app.apk for app in apps])
    entries = sorted(deployment.database.entries(), key=lambda entry: entry.package_name)
    return deployment, entries, apps


def _fields(packets):
    return [
        (p.packet_id, p.flow_tuple, p.payload_size, p.options.to_bytes()) for p in packets
    ]


class TestGenerators:
    @pytest.mark.parametrize("make", [workloads.hot_replay, workloads.cold_replay])
    def test_same_seed_same_packets_other_seed_other_packets(self, gateway, make):
        _, entries, _ = gateway
        first = make(entries, 3, 1024)
        assert _fields(first) == _fields(make(entries, 3, 1024))
        assert _fields(first) != _fields(make(entries, 4, 1024))

    def test_cold_flows_are_short_and_fresh(self, gateway):
        _, entries, _ = gateway
        replay = workloads.cold_replay(entries, 1, 4096, tag_pool=500)
        per_flow: dict = {}
        for packet in replay:
            per_flow[packet.flow_tuple] = per_flow.get(packet.flow_tuple, 0) + 1
        assert max(per_flow.values()) <= 4
        assert len(per_flow) > 4096 / 4


class TestOracle:
    def _burst_and_reference(self, gateway):
        deployment, entries, apps = gateway
        burst = workloads.hot_replay(entries, 5, workloads.BURST)
        reference = ReferenceVerdicts(deployment.database, {0: workloads.bench_policy(apps)})
        verdicts = [verdict for verdict, _ in deployment.enforcer.process_batch(burst)]
        return burst, reference, verdicts

    def test_matching_verdicts_pass(self, gateway):
        burst, reference, verdicts = self._burst_and_reference(gateway)
        assert {Verdict.ACCEPT, Verdict.DROP} <= set(verdicts)
        log = VerdictLog()
        log.add((0, 0), verdicts)
        log.add((0, 0), list(verdicts))
        assert log.check(reference, [burst]) == (2 * len(burst), 0)

    def test_flags_a_flipped_verdict(self, gateway):
        burst, reference, verdicts = self._burst_and_reference(gateway)
        flipped = list(verdicts)
        flipped[7] = Verdict.ACCEPT if flipped[7] is Verdict.DROP else Verdict.DROP
        log = VerdictLog()
        log.add((0, 0), verdicts)
        log.add((0, 0), flipped)
        assert log.check(reference, [burst]) == (2 * len(burst), 1)

    def test_flags_a_leaked_ip_option(self, gateway):
        burst, reference, _ = self._burst_and_reference(gateway)
        server = Server(ip="198.51.100.9")
        server.handle(IPPacket("10.10.0.2", "198.51.100.9", 40000, 443))
        outcomes = DeviceOutcomes(0)
        outcomes.leaked += leaked_option_packets([server])
        assert outcomes.check(reference, []) == (0, 0)
        server.handle(burst[0])
        assert burst[0].options != IPOptions()
        outcomes.leaked += leaked_option_packets([server])
        assert outcomes.check(reference, []) == (0, 1)

    def test_flags_a_wrong_device_outcome(self, gateway):
        burst, reference, verdicts = self._burst_and_reference(gateway)
        accepted = burst[verdicts.index(Verdict.ACCEPT)]
        outcomes = DeviceOutcomes(1)
        outcomes.counts[0][DELIVERED] = 3
        assert outcomes.check(reference, [accepted]) == (3, 0)
        outcomes.counts[0][DROPPED] = 2
        assert outcomes.check(reference, [accepted]) == (5, 2)


class FakeClock:
    """Returns 0, 1, 2, ... on successive calls."""

    def __init__(self) -> None:
        self.now = -1

    def __call__(self) -> float:
        self.now += 1
        return float(self.now)


class TestTracer:
    def test_self_time_subtracts_nested_child_spans(self):
        tracer = trace.Tracer(clock=FakeClock())
        inner = tracer.wrap("inner", lambda: None)

        def body():
            inner()
            inner()

        outer = tracer.wrap("outer", body)
        tracer.recording = True
        tracer.begin_op()
        outer()
        # outer spans 0..5, the two inner spans 1..2 and 3..4.
        assert tracer.calls == {"outer": 1, "inner": 2}
        assert tracer.total_s == {"outer": 5.0, "inner": 2.0}
        assert tracer.self_s == {"outer": 3.0, "inner": 2.0}
        assert tracer.root_s == 5.0
        assert tracer.spans == [
            ["outer", 0.0, 5.0, -1, 0],
            ["inner", 1.0, 2.0, 0, 0],
            ["inner", 3.0, 4.0, 0, 0],
        ]

    def test_not_recording_leaves_no_trace(self):
        tracer = trace.Tracer()
        assert tracer.wrap("f", lambda x: x + 1)(1) == 2
        assert tracer.calls == {} and tracer.spans == []

    def test_raw_spans_stop_after_keep_ops(self):
        tracer = trace.Tracer(keep_ops=3, clock=FakeClock())
        function = tracer.wrap("f", lambda: None)
        tracer.recording = True
        for _ in range(3):
            tracer.begin_op(2)
            function()
        assert tracer.calls == {"f": 3}
        assert [span[4] for span in tracer.spans] == [0, 2]

    def test_missing_targets_are_absent(self):
        tracer = trace.Tracer()
        tracer.install(
            [
                trace.Target("x", "repro.no_such_module", "Thing.run"),
                trace.Target("x", "repro.core.encoding", "NoSuchClass.run"),
                trace.Target("x", "repro.core.encoding", "StackTraceEncoder.no_such_method"),
            ]
        )
        assert tracer.absent == [
            "no_such_module.Thing.run",
            "encoding.NoSuchClass.run",
            "encoding.StackTraceEncoder.no_such_method",
        ]
        report = tracer.report(ops=10, commits=0, wall_s=1.0)
        assert report["absent"] == sorted(tracer.absent)
        assert all(not target["absent"] for target in report["targets"].values())

    def test_static_methods_stay_static_and_uninstall_restores(self):
        from repro.core.encoding import StackTraceEncoder

        original = StackTraceEncoder.__dict__["extract_tag_bytes"]
        tracer = trace.Tracer()
        tracer.install([trace.Target("x", "repro.core.encoding", "StackTraceEncoder.extract_tag_bytes")])
        try:
            assert isinstance(StackTraceEncoder.__dict__["extract_tag_bytes"], staticmethod)
            tracer.recording = True
            assert StackTraceEncoder.extract_tag_bytes(IPOptions()) is None
            assert StackTraceEncoder().extract_tag_bytes(IPOptions()) is None
            assert tracer.calls == {"encoding.StackTraceEncoder.extract_tag_bytes": 2}
        finally:
            tracer.uninstall()
        assert StackTraceEncoder.__dict__["extract_tag_bytes"] is original

    def test_every_target_resolves_today(self):
        tracer = trace.Tracer()
        tracer.install(trace.TARGETS + trace.DETECTOR_TARGETS)
        try:
            assert tracer.absent == []
        finally:
            tracer.uninstall()


class TestCompare:
    def test_verdicts(self):
        parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
        improved = [value * 1.2 for value in parent]
        assert compare.verdict(parent, improved, "higher", 0.1)["verdict"] == "improved"
        assert compare.verdict(parent, parent, "higher", 0.1)["verdict"] == "no regression"
        slower = [value * 0.8 for value in parent]
        assert compare.verdict(parent, slower, "higher", 0.1)["verdict"] == "regressed"
        assert compare.verdict(parent, improved, "lower", 0.1)["verdict"] == "regressed"
        noisy = [50.0, 150.0, 80.0, 120.0, 100.0]
        assert compare.verdict(noisy, noisy, "higher", 0.1)["verdict"] == "unresolved"


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["paths"] == ["bench"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == trace.per_layer_metrics()
    assert {m["name"] for m in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "ops_per_s",
        "latency_p50_ms",
        "setup_s",
        "peak_rss_mb",
    }


def test_smoke_run_has_no_failures(tmp_path):
    out = tmp_path / "smoke.json"
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", "--seconds", "1", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    line = json.loads(completed.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    document = json.loads(out.read_text(encoding="utf-8"))
    assert set(document["workloads"]) == set(run.WORKLOADS)
    for summary in document["workloads"].values():
        assert summary["failed"] == 0 and summary["attempted"] > 0
        assert all(entry["value"] > 0 for entry in summary["metrics"].values())
