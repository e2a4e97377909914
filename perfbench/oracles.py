"""Oracles written in plain Python: none of them calls an engine.

Each oracle keeps its own model of the workload's state, predicts the
outcome of every goal from that model, and compares it with what the
program returned.  ``check`` returns ``None`` when the outcome matches
and a one-line description of the mismatch otherwise.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Set, Tuple

from .gen import Link, Reach, Transfer

#: Tasks of the gel pipeline (``repro.lims.lab.gel_pipeline`` with
#: ``iterate=False``); every sample must complete each exactly once.
LAB_TASKS = ("receive", "prep_dna", "load_gel", "run_gel", "read_gel", "analyze")


class LedgerOracle:
    """Replays transfers against a dictionary of balances.

    A transfer commits iff the source balance covers the amount; the
    program's outcome (an execution, or ``None`` for a refusal) must
    agree, and after a commit the two touched balances in the program's
    state must equal the ledger's.
    """

    def __init__(self, balances: Mapping[int, int]):
        self.balances: Dict[int, int] = dict(balances)
        self.total = sum(self.balances.values())

    def check(
        self, goal: Transfer, committed: bool, touched: Mapping[int, Optional[int]]
    ) -> Optional[str]:
        expect = self.balances[goal.src] >= goal.amount
        if expect:
            self.balances[goal.src] -= goal.amount
            self.balances[goal.dst] += goal.amount
        if committed != expect:
            return "%s: %s, ledger says %s" % (
                goal.text(),
                "committed" if committed else "refused",
                "commit" if expect else "refuse",
            )
        for acct in (goal.src, goal.dst):
            if touched.get(acct) != self.balances[acct]:
                return "%s: balance(a%d) is %s, ledger says %d" % (
                    goal.text(), acct, touched.get(acct), self.balances[acct],
                )
        return None

    def check_final(self, stored: Mapping[int, int]) -> Optional[str]:
        """Conservation plus equality with the state reopened from disk."""
        if sum(stored.values()) != self.total:
            return "stored total %d, expected %d" % (sum(stored.values()), self.total)
        if dict(stored) != self.balances:
            bad = set(stored).symmetric_difference(self.balances) | {
                a for a in self.balances if stored.get(a) != self.balances[a]
            }
            return "reopened store differs from ledger on %d account(s)" % len(bad)
        return None


def check_lab_batch(
    items: Iterable[str],
    done_events: Iterable[Tuple[str, str]],
    available: FrozenSet[str],
    agents: FrozenSet[str],
    leftover_items: int,
) -> Optional[str]:
    """Every sample completes every pipeline task exactly once, no work
    item is left queued, and every agent is available again."""
    counts = Counter(done_events)
    items = list(items)
    for item in items:
        for task in LAB_TASKS:
            done = counts[(task, item)]
            if done != 1:
                return "%s: task %s done %d time(s)" % (item, task, done)
    expected = len(items) * len(LAB_TASKS)
    if sum(counts.values()) != expected:
        return "%d done events, expected %d" % (sum(counts.values()), expected)
    if leftover_items:
        return "%d work item(s) left queued" % leftover_items
    if available != agents:
        return "agent pool not restored: missing %s" % sorted(agents - available)
    return None


class ReachOracle:
    """A mirror of the edge relation plus a breadth-first closure."""

    def __init__(self, edges: Iterable[Tuple[int, int]]):
        self.edges: Set[Tuple[int, int]] = set(edges)

    def closure(self, node: int) -> Set[int]:
        succ: Dict[int, list] = {}
        for a, b in self.edges:
            succ.setdefault(a, []).append(b)
        seen: Set[int] = set()
        frontier = [node]
        while frontier:
            nxt = []
            for a in frontier:
                for b in succ.get(a, ()):
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        return seen

    def check_read(self, goal: Reach, answers: Set[int]) -> Optional[str]:
        expect = self.closure(goal.node)
        if answers != expect:
            return "%s: %d answer(s), closure has %d (%d missing, %d extra)" % (
                goal.text(), len(answers), len(expect),
                len(expect - answers), len(answers - expect),
            )
        return None

    def check_write(self, goal: Link, committed: bool) -> Optional[str]:
        # ``link`` always commits (inserting a present edge is a no-op);
        # ``unlink`` tests the edge first, so it needs it present.
        expect = goal.add or (goal.src, goal.dst) in self.edges
        if expect:
            if goal.add:
                self.edges.add((goal.src, goal.dst))
            else:
                self.edges.discard((goal.src, goal.dst))
        if committed != expect:
            return "%s: %s, mirror says %s" % (
                goal.text(),
                "committed" if committed else "refused",
                "commit" if expect else "refuse",
            )
        return None
