"""The three workloads: set-up, one goal, and the oracle check.

A workload builds sessions.  ``setup`` does everything the program pays
before the first goal (parsing the program, loading the initial facts,
closing and reopening the store, choosing the engine); ``execute`` runs
one goal through the public API and is the only code the latency timer
covers; ``check`` compares the outcome with the oracle and runs outside
the timer; ``finish`` runs the end-of-run checks and releases the
session's resources.

Every call into a layer sits inside a recorder span, so the traced run
sees the same calls the untraced run makes.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from repro import (
    Engine,
    SqliteStore,
    parse_database,
    parse_goal,
    parse_program,
    select_engine,
)
from repro.core.terms import Variable, atom
from repro.lims.lab import build_lab_simulator

from . import gen
from .oracles import LedgerOracle, ReachOracle, check_lab_batch
from .tracing import TimedStore

#: The banking rules of the paper's Examples 2.1-2.2.
BANK_TD = """
transfer(F, T, Amt) <- iso(withdraw(F, Amt) * deposit(T, Amt)).
withdraw(Acct, Amt) <-
    balance(Acct, Bal) * Bal >= Amt *
    del.balance(Acct, Bal) * B2 is Bal - Amt * ins.balance(Acct, B2).
deposit(Acct, Amt) <-
    balance(Acct, Bal) *
    del.balance(Acct, Bal) * B2 is Bal + Amt * ins.balance(Acct, B2).
"""

#: Reachability over a stored edge relation, with update transactions.
REACH_TD = """
reach(X, Y) <- edge(X, Y).
reach(X, Y) <- edge(X, Z) * reach(Z, Y).
link(X, Y) <- ins.edge(X, Y).
unlink(X, Y) <- edge(X, Y) * del.edge(X, Y).
"""


def _walk(actions) -> Iterator:
    """Every elementary action of a trace, nested ones included."""
    for action in actions:
        if action.kind in ("iso", "table"):
            yield from _walk(action.subtrace)
        else:
            yield action


class _StoreSession:
    """Shared set-up of the two store-backed workloads."""

    program_text = ""
    #: ``finish`` reopens the store and compares it with the oracle.
    final_checks = 1

    def __init__(self, facts_text: str, path: str, rec, traced: bool):
        self.rec = rec
        self.path = path
        with rec.span("parser.program"):
            program = parse_program(self.program_text)
        with rec.span("parser.database"):
            db = parse_database(facts_text)
        with rec.span("store.load"):
            store = SqliteStore(path)
            with store.transaction():
                store.insert_all(db)
            store.close()
        with rec.span("store.reopen"):
            self.store = SqliteStore(path)
        self.proxy: Optional[TimedStore] = (
            TimedStore(self.store, rec) if traced else None
        )
        with rec.span("engine.select"):
            self.engine: Engine = select_engine(
                program, store=self.proxy if traced else self.store
            )

    def store_bytes(self) -> Tuple[int, int]:
        """(bytes of the store file and its ``-wal`` file, rendered
        bytes of the facts the store holds)."""
        files = sum(
            os.path.getsize(p)
            for p in (self.path, self.path + "-wal")
            if os.path.exists(p)
        )
        return files, sum(len(str(f)) for f in self.store.database())

    def reopened_facts(self, pred: str) -> List:
        """The facts of *pred* in the store as reopened from disk."""
        self.store.close()
        reopened = SqliteStore(self.path)
        try:
            return list(reopened.database().facts(pred))
        finally:
            reopened.close()

    def close(self) -> None:
        self.store.close()


class BankSession(_StoreSession):
    program_text = BANK_TD

    def __init__(self, workload: "BankDurable", rec, traced: bool, path: str):
        super().__init__(workload.facts_text, path, rec, traced)
        self.oracle = LedgerOracle(workload.balances)

    def execute(self, goal: gen.Transfer):
        with self.rec.span("parser.goal"):
            formula = parse_goal(goal.text())
        with self.rec.span("engine.simulate"):
            return self.engine.simulate(formula)

    def answers(self, outcome) -> int:
        return 0 if outcome is None else 1

    def check(self, goal: gen.Transfer, outcome) -> Optional[str]:
        db = self.store.database()
        touched = {}
        for acct in (goal.src, goal.dst):
            rows = list(db.match(atom("balance", "a%d" % acct, Variable("B"))))
            touched[acct] = rows[0][Variable("B")].value if len(rows) == 1 else None
        return self.oracle.check(goal, outcome is not None, touched)

    def finish(self) -> List[str]:
        stored = {
            int(f.args[0].value[1:]): f.args[1].value
            for f in self.reopened_facts("balance")
        }
        problem = self.oracle.check_final(stored)
        return [] if problem is None else ["durability: " + problem]


class ReachSession(_StoreSession):
    program_text = REACH_TD

    def __init__(self, workload: "ReachMixed", rec, traced: bool, path: str):
        super().__init__(workload.facts_text, path, rec, traced)
        self.oracle = ReachOracle(workload.edges)

    def execute(self, goal):
        with self.rec.span("parser.goal"):
            formula = parse_goal(goal.text())
        if isinstance(goal, gen.Reach):
            with self.rec.span("engine.solve"):
                return list(self.engine.solve(formula))
        with self.rec.span("engine.simulate"):
            return self.engine.simulate(formula)

    def answers(self, outcome) -> int:
        if isinstance(outcome, list):
            return len(outcome)
        return 0 if outcome is None else 1

    def check(self, goal, outcome) -> Optional[str]:
        if isinstance(goal, gen.Reach):
            nodes = {
                int(term.value[1:])
                for solution in outcome
                for term in solution.bindings.values()
            }
            return self.oracle.check_read(goal, nodes)
        return self.oracle.check_write(goal, outcome is not None)

    def finish(self) -> List[str]:
        stored = {
            (int(f.args[0].value[1:]), int(f.args[1].value[1:]))
            for f in self.reopened_facts("edge")
        }
        if stored != self.oracle.edges:
            return ["durability: reopened edge set differs from the mirror"]
        return []


class LabSession:
    final_checks = 0

    def __init__(self, rec):
        self.rec = rec
        with rec.span("workflow.compile"):
            self.sim = build_lab_simulator()
        self.agents = frozenset(a.name for a in self.sim.agents)
        self.actions = 0
        self.items = 0

    def execute(self, goal: gen.Batch):
        with self.rec.span("workflow.run"):
            return self.sim.run(goal.items(), seed=goal.dfs_seed)

    def answers(self, outcome) -> int:
        return 1

    def check(self, goal: gen.Batch, outcome) -> Optional[str]:
        actions = list(_walk(outcome.execution.trace))
        self.actions += len(actions)
        self.items += goal.size
        done = [
            (a.atom.args[0].value, a.atom.args[1].value)
            for a in actions
            if a.kind == "ins" and a.atom.pred == "done"
        ]
        history = outcome.history
        available = frozenset(f.args[0].value for f in history.facts("available"))
        return check_lab_batch(
            goal.items(), done, available, self.agents,
            len(history.facts("workitem")),
        )

    def store_bytes(self) -> Tuple[int, int]:
        return 0, 0

    def finish(self) -> List[str]:
        return []

    def close(self) -> None:
        pass


class BankDurable:
    """Durable transfers: tiny searches, one fsync'ed commit each."""

    name = "bank_durable"
    #: Goals per ``--seconds`` in each phase of the traced run.
    trace_rate = 30
    setup_repeats = 5
    #: ``goal_p50_ms`` is the plain median of the run.
    window = None

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.balances = gen.bank_balances(seed)
        self.facts_text = " ".join(
            "balance(a%d, %d)." % kv for kv in sorted(self.balances.items())
        )
        self._serial = 0

    def goals(self) -> Iterable[gen.Transfer]:
        return gen.bank_transfers(self.seed)

    def setup(self, rec, traced: bool = False) -> BankSession:
        self._serial += 1
        path = os.path.join(self.workdir, "bank%d.tdlog" % self._serial)
        return BankSession(self, rec, traced, path)


class ReachMixed:
    """Skewed reachability reads on one long-lived engine, 2% writes."""

    name = "reach_mixed"
    trace_rate = 15
    setup_repeats = 21
    window = None

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.edges: Set[Tuple[int, int]] = gen.reach_edges(seed)
        self.facts_text = " ".join("edge(n%d, n%d)." % e for e in sorted(self.edges))
        self._serial = 0

    def goals(self) -> Iterable[object]:
        return gen.reach_goals(self.seed)

    def setup(self, rec, traced: bool = False) -> ReachSession:
        self._serial += 1
        path = os.path.join(self.workdir, "reach%d.tdlog" % self._serial)
        return ReachSession(self, rec, traced, path)


class LabBatches:
    """Genome-lab batches in memory: search and concurrency, no store."""

    name = "lab_batches"
    trace_rate = 3
    setup_repeats = 101
    #: ``goal_p50_ms`` averages the medians of windows of one batch of
    #: each size: the sizes' costs are distinct modes, and the plain
    #: median would sit between two of them.
    window = len(gen.LAB_BATCH_SIZES)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def goals(self) -> Iterable[gen.Batch]:
        return gen.lab_batches(self.seed)

    def setup(self, rec, traced: bool = False) -> LabSession:
        return LabSession(rec)


WORKLOADS = {w.name: w for w in (BankDurable, LabBatches, ReachMixed)}
