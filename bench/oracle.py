"""The verdict oracle: the program's outputs against a naive reference.

The reference is the paper's naive pipeline -- a
``PolicyEnforcer(compile_policy=False, flow_cache_size=0)`` on the same
signature database -- which decodes every tag and evaluates the policy
from scratch.  A verdict depends only on the policy in force and the
packet's tag bytes, so reference verdicts are memoised per
(policy state, tag bytes).  They are computed after the timed window and
are excluded from every metric.
"""

from __future__ import annotations

from repro import PolicyEnforcer, StackTraceEncoder
from repro.netstack.netfilter import Verdict


class ReferenceVerdicts:
    """Naive verdicts per (policy state, tag bytes)."""

    def __init__(self, database, policies: dict) -> None:
        self.database = database
        self._enforcers: dict = {}
        self._memo: dict = {}
        for state, policy in policies.items():
            self.add_policy(state, policy)

    def add_policy(self, state, policy) -> None:
        self._enforcers[state] = PolicyEnforcer(
            database=self.database,
            policy=policy,
            keep_records=False,
            compile_policy=False,
            flow_cache_size=0,
        )

    def verdict(self, state, packet) -> Verdict:
        key = (state, StackTraceEncoder.extract_tag_bytes(packet.options))
        verdict = self._memo.get(key)
        if verdict is None:
            verdict = self._memo[key] = self._enforcers[state].process(packet)[0]
        return verdict


class VerdictLog:
    """Burst verdicts keyed by (policy state, burst position).

    Replays are cycled, so the same burst under the same policy recurs;
    each distinct verdict vector is kept once with its occurrence count,
    which keeps memory independent of how many bursts a run completes.
    """

    def __init__(self) -> None:
        self._seen: dict = {}

    def add(self, key, verdicts: list) -> None:
        vectors = self._seen.get(key)
        if vectors is None:
            self._seen[key] = [[verdicts, 1]]
            return
        for vector in vectors:
            if vector[0] == verdicts:
                vector[1] += 1
                return
        vectors.append([verdicts, 1])

    def check(self, reference: ReferenceVerdicts, bursts: list) -> tuple[int, int]:
        """(packets checked, packets whose verdict differs from the reference)."""
        checked = failed = 0
        for (state, position), vectors in self._seen.items():
            expected = [reference.verdict(state, packet) for packet in bursts[position]]
            for verdicts, count in vectors:
                wrong = sum(got is not want for got, want in zip(verdicts, expected))
                wrong += abs(len(expected) - len(verdicts))
                checked += len(expected) * count
                failed += wrong * count
        return checked, failed


#: Outcome classes of one device request.
DELIVERED, DROPPED, MIXED = 0, 1, 2


def outcome_class(outcome) -> int:
    if outcome.packets_dropped == 0 and outcome.packets_delivered == outcome.packets_sent:
        return DELIVERED
    if outcome.packets_delivered == 0 and outcome.packets_dropped == outcome.packets_sent:
        return DROPPED
    return MIXED


class DeviceOutcomes:
    """Per device pair (process, functionality): how often each outcome occurred."""

    def __init__(self, pairs: int) -> None:
        self.counts = [[0, 0, 0] for _ in range(pairs)]
        #: Packets that reached a server still carrying IP options.
        self.leaked = 0

    def observe(self, pair: int, outcome) -> None:
        self.counts[pair][outcome_class(outcome)] += 1

    def check(self, reference: ReferenceVerdicts, warm_packets: list) -> tuple[int, int]:
        """(requests checked, requests with a wrong outcome + leaked packets).

        A pair's expected outcome comes from the tagged packet its
        warm-up invoke left in front of the enforcer; a pair with no such
        packet has no expectation and all of its requests fail.
        """
        checked = failed = 0
        for counts, packet in zip(self.counts, warm_packets):
            checked += sum(counts)
            if packet is None:
                failed += sum(counts)
                continue
            expected = (
                DELIVERED if reference.verdict(0, packet) is Verdict.ACCEPT else DROPPED
            )
            failed += sum(counts) - counts[expected]
        return checked, failed + self.leaked


def leaked_option_packets(servers) -> int:
    """Packets any server received that still carry IP options."""
    return sum(len(server.received_options()) for server in servers)
