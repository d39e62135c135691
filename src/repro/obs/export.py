"""Snapshot exporters: Prometheus text format and JSONL.

Both exporters work from the deterministic
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` dict (families
sorted by name, series by label values), so two registries that merged
the same snapshots — in any order — export byte-identical text.
:func:`merge_snapshots` reduces snapshots taken in separate processes or
runs (e.g. parsed JSONL exports) into one.
"""

from __future__ import annotations

import json
from dataclasses import fields as _dataclass_fields

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "to_prometheus",
    "to_jsonl",
    "merge_snapshots",
    "record_enforcer_stats",
]

_NS = 1_000_000_000


def _snapshot_of(registry_or_snapshot) -> dict:
    snapshot = getattr(registry_or_snapshot, "snapshot", None)
    return snapshot() if callable(snapshot) else registry_or_snapshot


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels_text(names, values, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [(name, value) for name, value in zip(names, values)]
    pairs.extend(extra)
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape(str(value))}"' for name, value in pairs)
    return "{" + body + "}"


def to_prometheus(registry_or_snapshot) -> str:
    """Render a registry/snapshot in the Prometheus text exposition
    format (histograms as cumulative ``_bucket``/``_sum``/``_count``)."""
    snapshot = _snapshot_of(registry_or_snapshot)
    lines: list[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        kind = family["type"]
        names = family["label_names"]
        if family.get("help"):
            lines.append(f"# HELP {name} {_escape(family['help'])}")
        lines.append(f"# TYPE {name} {kind}")
        for series in family["series"]:
            values = series["labels"]
            if kind == "histogram":
                buckets = family["buckets"]
                cumulative = 0
                for index, count in enumerate(series["counts"]):
                    cumulative += count
                    bound = (
                        repr(buckets[index]) if index < len(buckets) else "+Inf"
                    )
                    labels = _labels_text(names, values, (("le", bound),))
                    lines.append(f"{name}_bucket{labels} {cumulative}")
                labels = _labels_text(names, values)
                lines.append(f"{name}_sum{labels} {series['sum_ns'] / _NS}")
                lines.append(f"{name}_count{labels} {series['count']}")
            else:
                labels = _labels_text(names, values)
                lines.append(f"{name}{labels} {series['value']}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_jsonl(registry_or_snapshot) -> str:
    """One JSON object per metric family per line, sorted by name —
    the replayable snapshot format (``merge_snapshots`` accepts the
    parsed lines)."""
    snapshot = _snapshot_of(registry_or_snapshot)
    lines = [
        json.dumps({"name": name, **snapshot[name]}, sort_keys=True)
        for name in sorted(snapshot)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def merge_snapshots(snapshots) -> dict:
    """Reduce separately taken snapshots into one snapshot dict.  The merge
    is order-independent (see :mod:`repro.obs.metrics`)."""
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.merge_snapshot(snapshot)
    return merged.snapshot()


def record_enforcer_stats(registry, stats, source: str = "gateway", flow_cache_len=None):
    """Project cumulative :class:`EnforcerStats` counters into gauges.

    Stats totals are point-in-time readings, not deltas, so they map to
    gauges (merge = max = most recent total), one per integer field,
    labeled by the reporting source.  ``flow_cache_len`` additionally
    feeds the ``flow_cache_entries`` gauge.
    """
    for field in _dataclass_fields(stats):
        value = getattr(stats, field.name)
        if not isinstance(value, int):
            continue  # cache_churn_by_app: a dict, exported elsewhere
        registry.gauge(
            f"enforcer_{field.name}",
            f"EnforcerStats.{field.name} running total",
            labels=("source",),
        ).set(value, source=source)
    if flow_cache_len is not None:
        registry.gauge(
            "flow_cache_entries",
            "Live flow-cache entries",
            labels=("source",),
        ).set(flow_cache_len, source=source)

