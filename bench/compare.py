"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 bench/compare.py PARENT_DIR/ CHANGE_DIR/

Each directory holds result documents written by ``run.py --out`` (one
per run; traced results are ignored).  For every (workload, end-to-end
metric) pair the report gives each side's median and quartiles, the
share of run pairs the change wins, and one verdict:

* ``improved``: the change wins at least 9/10 of the pairs (ties count
  for neither side) and its median beats the parent's by more than the
  parent's interquartile spread;
* ``unresolved``: a side's interquartile spread is wider than the bound,
  unless every run of the change beats every run of the parent;
* ``no regression``: the change's median is within the bound;
* ``regressed``: otherwise.

Runs are paired in file-name order.  The exit status is 1 when any row
regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def load_bounds(path: Path) -> dict[str, dict]:
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def load_runs(directory: Path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per untraced run, in file-name order."""
    values: dict[tuple[str, str], list[float]] = {}
    files = sorted(directory.glob("*.json"))
    if not files:
        raise SystemExit(f"no result documents in {directory}")
    for path in files:
        document = json.loads(path.read_text(encoding="utf-8"))
        if document.get("trace"):
            continue
        for workload, summary in document["workloads"].items():
            for metric, entry in summary["metrics"].items():
                values.setdefault((workload, metric), []).append(entry["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One comparison row; see the module docstring for the rules."""
    sign = 1.0 if better == "higher" else -1.0
    p_low, p_median, p_high = quartiles(parent)
    c_low, c_median, c_high = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    gain = sign * (c_median - p_median)
    spread = max((p_high - p_low) / p_median, (c_high - c_low) / c_median)
    dominates = min(sign * b for b in change) > max(sign * a for a in parent)
    if win_share >= 0.9 and gain > p_high - p_low:
        outcome = "improved"
    elif spread > bound and not dominates:
        outcome = "unresolved"
    elif -gain <= bound * p_median:
        outcome = "no regression"
    else:
        outcome = "regressed"
    return {
        "parent": (p_low, p_median, p_high),
        "change": (c_low, c_median, c_high),
        "wins": win_share,
        "spread": spread,
        "verdict": outcome,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    bounds = load_bounds(BENCH_DIR.parent / "BENCHMARK.json")
    parent = load_runs(args.parent)
    change = load_runs(args.change)
    regressed = False
    print(
        f"{'workload':<16} {'metric':<15} {'parent q1/med/q3':>30} "
        f"{'change q1/med/q3':>30} {'wins':>5} {'spread':>7}  verdict"
    )
    for (workload, metric), parent_values in sorted(parent.items()):
        spec = bounds.get(metric)
        change_values = change.get((workload, metric))
        if spec is None or not change_values:
            continue
        row = verdict(parent_values, change_values, spec["better"], spec["bound"])
        regressed |= row["verdict"] == "regressed"
        p = "/".join(f"{value:.4g}" for value in row["parent"])
        c = "/".join(f"{value:.4g}" for value in row["change"])
        print(
            f"{workload:<16} {metric:<15} {p:>30} {c:>30} "
            f"{row['wins']:>5.2f} {row['spread']:>7.3f}  {row['verdict']}"
        )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
