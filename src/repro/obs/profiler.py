"""`top`-style text rendering of the sampled enforcement stages.

Pure formatting: one frame is a string built from a
:class:`~repro.obs.instrument.RuntimeObservability` bundle and,
optionally, the enforcer's cumulative :class:`EnforcerStats`.  The
``obs`` CLI prints successive frames while a replay runs; tests assert
on frame content, so rendering stays deterministic given identical
inputs.
"""

from __future__ import annotations

__all__ = ["render_top"]


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = ["  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))]
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells.extend(cell.rjust(widths[i]) for i, cell in enumerate(row) if i)
        lines.append("  ".join(cells))
    return lines


def render_top(obs, title: str = "obs", stats=None) -> str:
    """One profiler frame: a row per sampled enforcer stage (samples,
    p50/p99 latency, total sampled time) in pipeline order."""
    lines = [f"{title} — sampling 1/{obs.sample_every} packets"]
    if stats is not None:
        lookups = stats.cache_hits + stats.cache_misses
        hit_ratio = stats.cache_hits / lookups if lookups else 0.0
        lines.append(
            f"packets: {stats.packets_seen} seen, {stats.packets_dropped} dropped; "
            f"flow-cache hit ratio {hit_ratio:.2f}, {stats.full_decodes} full decode(s)"
        )
    breakdown = obs.stage_breakdown()
    if not breakdown:
        lines.append("no stage samples yet")
        return "\n".join(lines)
    hist = obs.registry.get("enforcer_stage_seconds")
    rows = [
        [
            stage,
            str(samples),
            f"{hist.quantile(0.50, stage=stage) * 1e6:.1f}",
            f"{hist.quantile(0.99, stage=stage) * 1e6:.1f}",
            f"{seconds * 1e3:.3f}",
        ]
        for stage, (samples, seconds) in breakdown.items()
    ]
    lines.extend(_table(["stage", "samples", "p50 us", "p99 us", "total ms"], rows))
    return "\n".join(lines)
