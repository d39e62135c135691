"""One benchmark child: set up one workload, run timed rounds, check the outputs.

``run.py`` starts children one at a time, each in a fresh interpreter,
so every child pays (and reports) a cold set-up and has its own peak
RSS and GC heap.  The child prints one JSON object as its last line.

Set-up time covers importing the program plus everything the workload
does before its first timed round -- deployment, enrolment,
provisioning, telemetry wiring and warm-up -- but not input generation.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest process it has reaped."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + children_kb) / 1024.0


def run(args: argparse.Namespace) -> dict:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    started = perf_counter()
    import workloads  # imports the program under test

    import_s = perf_counter() - started
    tracer = None
    if args.traced:
        from trace import DETECTOR_TARGETS, TARGETS, Tracer

        tracer = Tracer()
        tracer.install(TARGETS + DETECTOR_TARGETS)

    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    clock = workloads.SetupClock()
    workload.setup(clock)
    setup_s = import_s + clock.elapsed()

    # Inputs and set-up state live for the whole run; freezing them keeps
    # full collections during the rounds from rescanning the replay.
    gc.collect()
    gc.freeze()
    workload.start_counters()
    rounds = []
    rss_mb = 0.0
    deadline = perf_counter() + args.seconds
    while True:
        gc.collect()
        if tracer is not None:
            tracer.recording = True
        result = workload.run_round(tracer)
        if tracer is not None:
            tracer.recording = False
        rounds.append(result)
        if len(rounds) == 1:
            # Measured after a fixed amount of work, so a faster program
            # that completes more rounds is not charged for the extra
            # state the simulation keeps per request.
            rss_mb = peak_rss_mb()
        if args.rounds:
            if len(rounds) >= args.rounds:
                break
        elif perf_counter() >= deadline:
            break

    counters = workload.counters()
    checked, failed = workload.check()
    report = {
        "workload": args.workload,
        "traced": args.traced,
        "import_s": import_s,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "rounds": [
            {
                "ops": result.ops,
                "wall_s": result.wall_s,
                "p50_s": statistics.median(result.latencies_s) if result.latencies_s else 0.0,
                "raised": result.raised,
            }
            for result in rounds
        ],
        "latencies_s": [value for result in rounds for value in result.latencies_s],
        "commits_s": [value for result in rounds for value in result.commits_s],
        "checked": checked,
        "failed": failed,
        "counters": counters,
    }
    if tracer is not None:
        ops = sum(result.ops for result in rounds)
        commits = len(report["commits_s"])
        wall_s = sum(result.wall_s for result in rounds)
        report["trace"] = tracer.report(ops, commits, wall_s)
        if args.spans:
            tracer.write_spans(args.spans)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--rounds", type=int, default=0, help="fixed round count (0: timed)")
    parser.add_argument("--scale", type=float, default=1.0, help="input and round size factor")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", default="", help="write raw trace spans here (JSON lines)")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
