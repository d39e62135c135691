"""IP-of-interest analysis (paper §VI-B, Figure 3).

An *IP-of-interest* (IoI) is a destination address that receives
packets carrying more than one distinct stack trace from the same app —
the situations where address-based enforcement cannot tell desirable
and undesirable traffic apart and BorderPatrol's contextual tag is the
only discriminator.  The analysis groups decoded stack traces by
(app, destination), counts how many IoIs each app exhibits, and
classifies each IoI by whether its distinct calling contexts originate
from the same Java package (the paper reports 75% same-package / 25%
cross-package, the latter typically via a shared HTTP client library).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.core.policy_enforcer import EnforcementRecord
from repro.dex.signature import MethodSignature
from repro.netstack.ip import IPPacket


def _package_root(package: str, depth: int = 2) -> str:
    """Collapse a Java package to its root (``com.facebook.appevents`` -> ``com.facebook``).

    The §VI-B statistic asks whether the contexts of an IoI originate
    from "the same Java package"; the paper treats an SDK such as the
    Facebook SDK as one package even though it spans sub-packages, so
    the comparison happens on the first ``depth`` segments.
    """
    parts = package.split(".")
    return ".".join(parts[:depth]) if parts else ""


def _innermost_package(stack: Sequence[str]) -> str:
    """Root package of the innermost resolvable signature of a decoded stack."""
    for signature in stack:
        try:
            return _package_root(MethodSignature.parse(signature).package)
        except ValueError:
            continue
    return ""


@dataclass
class AppIoIReport:
    """Per-app IoI findings."""

    package_name: str
    #: destination ip -> distinct decoded stacks observed towards it.
    destinations: dict[str, set[tuple[str, ...]]] = field(default_factory=dict)

    def ioi_destinations(self, min_distinct_stacks: int = 2) -> dict[str, set[tuple[str, ...]]]:
        return {
            ip: stacks
            for ip, stacks in self.destinations.items()
            if len(stacks) >= min_distinct_stacks
        }

    def ioi_count(self, min_distinct_stacks: int = 2) -> int:
        return len(self.ioi_destinations(min_distinct_stacks))

    def is_same_package(self, min_distinct_stacks: int = 2) -> bool:
        """True if every IoI's distinct contexts share one originating package.

        The originating package of a context is the package of the
        innermost app/library frame — the code that actually initiated
        the connection.
        """
        for stacks in self.ioi_destinations(min_distinct_stacks).values():
            roots = {_innermost_package(stack) for stack in stacks}
            roots.discard("")
            if len(roots) > 1:
                return False
        return True

    def cross_package_iois(self, min_distinct_stacks: int = 2) -> int:
        count = 0
        for stacks in self.ioi_destinations(min_distinct_stacks).values():
            roots = {_innermost_package(stack) for stack in stacks}
            roots.discard("")
            if len(roots) > 1:
                count += 1
        return count


class IoIAnalysis:
    """Aggregated IoI statistics over a whole corpus run."""

    def __init__(self, reports: Mapping[str, AppIoIReport], total_apps: int | None = None) -> None:
        self.reports = dict(reports)
        self.total_apps = total_apps if total_apps is not None else len(self.reports)

    # -- constructors ---------------------------------------------------------------

    @classmethod
    def from_enforcement_records(
        cls, records: Iterable[EnforcementRecord], total_apps: int | None = None
    ) -> "IoIAnalysis":
        """Build the analysis from the Policy Enforcer's decoded records.

        This is the BorderPatrol-eye view: only what was actually carried
        in IP options and decoded at the border is used.
        """
        reports: dict[str, AppIoIReport] = {}
        for record in records:
            if not record.signatures or not record.package_name:
                continue
            report = reports.setdefault(
                record.package_name, AppIoIReport(package_name=record.package_name)
            )
            report.destinations.setdefault(record.dst_ip, set()).add(record.signatures)
        return cls(reports, total_apps=total_apps)

    @classmethod
    def from_ground_truth(
        cls, packets: Iterable[IPPacket], total_apps: int | None = None
    ) -> "IoIAnalysis":
        """Build the analysis from packet provenance (simulation ground truth)."""
        reports: dict[str, AppIoIReport] = {}
        for packet in packets:
            package = str(packet.provenance.get("package", ""))
            chain = tuple(packet.provenance.get("call_chain", ()))
            if not package or not chain:
                continue
            report = reports.setdefault(package, AppIoIReport(package_name=package))
            # Ground-truth chains are outermost-first; reverse them so the
            # innermost frame comes first, matching decoded stacks.
            report.destinations.setdefault(packet.dst_ip, set()).add(tuple(reversed(chain)))
        return cls(reports, total_apps=total_apps)

    # -- Figure 3 ------------------------------------------------------------------------

    def apps_with_iois(self, min_distinct_stacks: int = 2) -> list[AppIoIReport]:
        return [r for r in self.reports.values() if r.ioi_count(min_distinct_stacks) > 0]

    def histogram(self, min_distinct_stacks: int = 2) -> dict[int, int]:
        """Number of apps per IoI count — the bars of Figure 3."""
        out: dict[int, int] = defaultdict(int)
        for report in self.reports.values():
            count = report.ioi_count(min_distinct_stacks)
            if count > 0:
                out[count] += 1
        return dict(sorted(out.items()))

    def total_apps_with_ioi(self, min_distinct_stacks: int = 2) -> int:
        return len(self.apps_with_iois(min_distinct_stacks))

    # -- §VI-B package-overlap statistics ----------------------------------------------------

    def same_package_fraction(self, min_distinct_stacks: int = 2) -> float:
        """Fraction of IoI apps whose IoI contexts all share one package."""
        apps = self.apps_with_iois(min_distinct_stacks)
        if not apps:
            return 0.0
        same = sum(1 for r in apps if r.is_same_package(min_distinct_stacks))
        return same / len(apps)

    def cross_package_ioi_fraction(self, min_distinct_stacks: int = 2) -> float:
        """Fraction of IoIs (not apps) whose contexts span different packages."""
        total = 0
        cross = 0
        for report in self.reports.values():
            total += report.ioi_count(min_distinct_stacks)
            cross += report.cross_package_iois(min_distinct_stacks)
        return cross / total if total else 0.0

    def summary(self) -> dict:
        return {
            "total_apps": self.total_apps,
            "apps_with_ioi": self.total_apps_with_ioi(),
            "histogram": self.histogram(),
            "same_package_app_fraction": round(self.same_package_fraction(), 3),
            "cross_package_ioi_fraction": round(self.cross_package_ioi_fraction(), 3),
        }
