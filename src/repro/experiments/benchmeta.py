"""Shared host-context metadata for every ``BENCH_*.json`` artifact.

The benchmark suites stash their structured results in pytest-benchmark's
``extra_info``; CI gates and humans reading the JSON later need to know
*where* a number came from — a 1-CPU smoke container and a 16-core full
run produce wildly different walls, and timing gates must only bind on
the latter.  :func:`record_bench_metadata` stamps one uniform ``host``
block into ``extra_info`` so every artifact is self-describing.
"""

from __future__ import annotations

import os
import platform
import sys


def available_cpus() -> int:
    """CPUs this process may schedule on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def bench_metadata(smoke: bool) -> dict:
    """Host context every benchmark artifact should carry.

    ``smoke`` records whether the run used reduced packet counts (CI
    smoke mode); downstream gates skip timing assertions when it is
    true, mirroring the in-suite ``timing_sensitive`` convention.
    """
    return {
        "cpus": available_cpus(),
        "python": platform.python_version(),
        "platform": sys.platform,
        "smoke": bool(smoke),
    }


def record_bench_metadata(extra_info, smoke: bool) -> dict:
    """Stamp the shared ``host`` block into a benchmark's ``extra_info``."""
    meta = bench_metadata(smoke)
    extra_info["host"] = meta
    return meta
