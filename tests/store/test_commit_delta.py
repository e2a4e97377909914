"""The commit path: a simulated execution is written to its store as one
net delta (``Store.commit_delta``), and ``SqliteStore`` tracks its WAL
tail length without querying it.

The oracle throughout is :func:`repro.core.transitions.replay_actions`
of the execution's trace from the state the search started in: the net
delta must leave the store -- and the reopened ``.tdlog`` -- exactly
where replaying the trace action by action would.
"""

import random
import sqlite3

import pytest

from repro import (
    Interpreter,
    MemoryStore,
    SqliteStore,
    StoreCrashed,
    parse_atom,
    parse_database,
    parse_program,
    select_engine,
)
from repro.core.transitions import replay_actions
from repro.faults import FaultPlan, StoreCrash, Window
from repro.faults.fuzz import _script
from repro.obs.context import Instrumentation, instrumented
from repro.store import Store
from repro.store.sqlite import decode_record

BANK = """
transfer(F, T, Amt) <- iso(withdraw(F, Amt) * deposit(T, Amt)).
withdraw(Acct, Amt) <-
    balance(Acct, Bal) * Bal >= Amt *
    del.balance(Acct, Bal) * B2 is Bal - Amt * ins.balance(Acct, B2).
deposit(Acct, Amt) <-
    balance(Acct, Bal) *
    del.balance(Acct, Bal) * B2 is Bal + Amt * ins.balance(Acct, B2).
"""

#: Reads, writes, and a write whose net effect is nothing.
REACH = """
reach(X, Y) <- edge(X, Y).
reach(X, Y) <- edge(X, Z) * reach(Z, Y).
link(X, Y) <- ins.edge(X, Y).
unlink(X, Y) <- edge(X, Y) * del.edge(X, Y).
churn(X, Y) <- iso(ins.edge(X, Y) * ins.tmp(X)) * del.edge(X, Y) * del.tmp(X).
"""

ACCOUNTS = 8


def bank_db():
    return parse_database(
        " ".join("balance(a%d, %d)." % (i, 40 + 10 * i) for i in range(ACCOUNTS))
    )


def bank_goals(seed, n=12):
    rng = random.Random(seed)
    goals = []
    for _ in range(n):
        src, dst = rng.sample(range(ACCOUNTS), 2)
        goals.append("transfer(a%d, a%d, %d)" % (src, dst, rng.randrange(5, 90)))
    return goals


def reach_db():
    return parse_database(
        " ".join("edge(n%d, n%d)." % (i, i + 1) for i in range(6))
    )


def reach_goals(seed, n=16):
    """Edges only ever point from a lower to a higher node: the graph
    stays acyclic, so every reach search terminates."""
    rng = random.Random(seed)
    goals = []
    for _ in range(n):
        x, y = sorted(rng.sample(range(7), 2))
        goals.append(rng.choice(
            ["reach(n%d, n%d)", "link(n%d, n%d)", "unlink(n%d, n%d)",
             "churn(n%d, n%d)"]
        ) % (x, y))
    return goals


class Delegating(Store):
    """A store that forwards every protocol call to *inner* and logs it
    -- the shape of a tracing proxy, which inherits the base-class
    ``commit_delta`` rather than the inner backend's override."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def database(self):
        return self.inner.database()

    def insert(self, fact):
        self.calls.append("insert")
        return self.inner.insert(fact)

    def delete(self, fact):
        self.calls.append("delete")
        return self.inner.delete(fact)

    def savepoint(self):
        self.calls.append("savepoint")
        return self.inner.savepoint()

    def release(self, sp):
        self.calls.append("release")
        self.inner.release(sp)

    def rollback(self, sp):
        self.calls.append("rollback")
        self.inner.rollback(sp)


def seeded_sqlite(path, db, **kwargs):
    """A store at *path* holding *db*, reopened so that its crash ticks
    and counters start from zero."""
    with SqliteStore(path) as store:
        store.insert_all(db)
    return SqliteStore(path, **kwargs)


def wal_and_snapshot(path):
    conn = sqlite3.connect(path)
    try:
        return (
            list(conn.execute("SELECT seq, op, pred, fact FROM wal ORDER BY seq")),
            sorted(conn.execute("SELECT pred, fact FROM snapshot")),
        )
    finally:
        conn.close()


@pytest.fixture(params=["mem", "sqlite"])
def make_store(request, tmp_path):
    opened = []

    def make(db):
        if request.param == "mem":
            store = MemoryStore(db)
        else:
            store = seeded_sqlite(str(tmp_path / "commit.tdlog"), db)
        opened.append(store)
        return store

    make.backend = request.param
    yield make
    for store in opened:
        store.close()


class TestCommittedStateEqualsReplay:
    @pytest.mark.parametrize("seed", [1, 7, 13])
    def test_bank(self, make_store, tmp_path, seed):
        store = make_store(bank_db())
        interp = Interpreter(parse_program(BANK), store=store)
        for i, goal in enumerate(bank_goals(seed)):
            before = store.database()
            execution = interp.simulate(goal, seed=seed + i)
            expected = (
                before if execution is None
                else replay_actions(execution.trace, before)
            )
            assert store.database() == expected
        self._check_reopen(make_store, tmp_path, store)

    @pytest.mark.parametrize("seed", [2, 5, 11])
    def test_reach(self, make_store, tmp_path, seed):
        store = make_store(reach_db())
        engine = select_engine(parse_program(REACH), store=store)
        for i, goal in enumerate(reach_goals(seed)):
            before = store.database()
            execution = engine.simulate(goal, seed=seed + i)
            expected = (
                before if execution is None
                else replay_actions(execution.trace, before)
            )
            assert store.database() == expected
            assert "tmp" not in store.predicates()
        self._check_reopen(make_store, tmp_path, store)

    @staticmethod
    def _check_reopen(make_store, tmp_path, store):
        if make_store.backend != "sqlite":
            return
        final = store.database()
        store.close()
        with SqliteStore(str(tmp_path / "commit.tdlog")) as reopened:
            assert reopened.database() == final


class TestCrashDuringCommit:
    """A crash anywhere inside one net-delta commit recovers to exactly
    the state before it or the state after it."""

    def _states(self):
        before = bank_db()
        execution = Interpreter(parse_program(BANK)).simulate(
            "transfer(a1, a5, 30)", before
        )
        return before, execution.database

    @pytest.mark.parametrize(
        "point,tick",
        [("pre-fsync", t) for t in range(1, 5)]
        + [("post-fsync", t) for t in range(1, 5)]
        + [("mid-savepoint-release", 1), ("mid-checkpoint-fold", 1)],
    )
    def test_reopen_is_before_or_after(self, tmp_path, point, tick):
        before, after = self._states()
        path = str(tmp_path / "crash.tdlog")
        plan = FaultPlan(
            seed=0, store_crashes=(StoreCrash(Window(tick, tick + 1), point=point),)
        )
        # snapshot_every=4: the commit's four rows trip a checkpoint at
        # the release, so the fold's crash point fires too.
        store = seeded_sqlite(path, before, faults=plan, snapshot_every=4)
        try:
            with pytest.raises(StoreCrashed):
                Interpreter(parse_program(BANK), store=store).simulate(
                    "transfer(a1, a5, 30)"
                )
        finally:
            store.close()
        with SqliteStore(path) as reopened:
            recovered = reopened.database()
        # The four rows commit together with the release; a crash that
        # tears the later fold leaves them committed.
        assert recovered == (after if point == "mid-checkpoint-fold" else before)


class TestCommitRouting:
    def test_explicit_db_off_the_store_replays_the_trace(self, make_store):
        held = bank_db().insert_all(parse_database("audit(on)."))
        proxy = Delegating(make_store(held))
        start = bank_db()
        execution = Interpreter(parse_program(BANK), store=proxy).simulate(
            "transfer(a0, a3, 20)", start
        )
        assert execution.database == replay_actions(execution.trace, start)
        assert proxy.database() == replay_actions(execution.trace, held)
        # Trace replay: one savepoint for the run, one for the iso and
        # one for each of the two tabled calls inside it.
        assert proxy.calls.count("savepoint") == 4

    def test_explicit_db_equal_to_the_store_commits_the_delta(self, make_store):
        proxy = Delegating(make_store(bank_db()))
        Interpreter(parse_program(BANK), store=proxy).simulate(
            "transfer(a0, a3, 20)", bank_db()
        )
        assert proxy.calls == [
            "savepoint", "delete", "delete", "insert", "insert", "release"
        ]

    def test_read_only_simulate_opens_no_savepoint(self, make_store):
        proxy = Delegating(make_store(reach_db()))
        engine = select_engine(parse_program(REACH), store=proxy)
        assert engine.simulate("reach(n0, n4)") is not None
        # A write whose net effect is nothing is read-only too.
        assert engine.simulate("churn(n0, n3)") is not None
        assert proxy.calls == []
        assert proxy.database() == reach_db()

    def test_sqlite_mirror_not_before_takes_the_base_path(self, tmp_path):
        held = bank_db().insert_all(parse_database("audit(on)."))
        before = bank_db()
        after = before.delete_all(parse_database("balance(a0, 40).")).insert_all(
            parse_database("balance(a0, 1).")
        )
        with seeded_sqlite(str(tmp_path / "s.tdlog"), held) as store:
            state = store.commit_delta(before, after)
            assert state == after.insert_all(parse_database("audit(on)."))
            assert state is not after


class TestDeltaRows:
    def test_deletes_then_inserts_in_sorted_order(self, tmp_path):
        path = str(tmp_path / "rows.tdlog")
        before = parse_database("p(0). p(1). p(2). p(3). p(4).")
        after = before.delete_all(parse_database("p(4). p(1). p(3).")).insert_all(
            parse_database("q(3). q(0). p(9).")
        )
        with seeded_sqlite(path, before) as store:
            assert store.commit_delta(before, after) is after
        rows = [
            (op, decode_record(blob, path=path, table="wal", rowid=seq))
            for seq, op, _, blob in wal_and_snapshot(path)[0]
        ][len(before):]
        assert rows == [
            ("-", parse_atom(text)) for text in ("p(1)", "p(3)", "p(4)")
        ] + [("+", parse_atom(text)) for text in ("p(9)", "q(0)", "q(3)")]


class TestOverrideMatchesBasePath:
    """``SqliteStore``'s staged-and-adopted commit against the
    base-class delete/insert path, driven through a delegating proxy:
    same counters, same state, same bytes on disk."""

    def _run(self, path, wrap):
        inst = Instrumentation.create()
        with instrumented(inst):
            store = seeded_sqlite(path, bank_db(), snapshot_every=8)
            target = Delegating(store) if wrap else store
            interp = Interpreter(parse_program(BANK), store=target)
            for i, goal in enumerate(bank_goals(3, n=20)):
                interp.simulate(goal, seed=i)
            content = store.content_hash()
            state = store.database()
            store.close()
        return inst.metrics.snapshot()["counters"], content, state

    def test_counters_state_and_bytes_agree(self, tmp_path):
        fast = str(tmp_path / "fast.tdlog")
        base = str(tmp_path / "base.tdlog")
        counters, content, state = self._run(fast, wrap=False)
        base_counters, base_content, base_state = self._run(base, wrap=True)
        assert counters == base_counters
        assert counters["store.snapshots"] > 0
        assert content == base_content
        assert state == base_state
        assert wal_and_snapshot(fast) == wal_and_snapshot(base)


def on_disk_tail(store):
    return store._conn.execute(
        "SELECT COUNT(*) FROM wal WHERE seq > ?",
        (store._meta("checkpoint_seq", 0),),
    ).fetchone()[0]


def check_tail(store):
    assert store._wal_length() == on_disk_tail(store) + len(store._wal_buffer)


class TestWalTailCounter:
    def test_counter_follows_fuzz_scripts(self, tmp_path):
        inst = Instrumentation.create()
        with instrumented(inst):
            for seed in range(16):
                path = str(tmp_path / ("tail%d.tdlog" % seed))
                store = SqliteStore(path, snapshot_every=5)
                stack = []
                for op in _script(seed):
                    kind = op[0]
                    if kind == "ins":
                        store.insert(op[1])
                    elif kind == "del":
                        store.delete(op[1])
                    elif kind == "savepoint":
                        stack.append(store.savepoint())
                    elif kind == "release":
                        store.release(stack.pop())
                    elif kind == "rollback":
                        store.rollback(stack.pop())
                    elif kind == "checkpoint":
                        store.checkpoint()
                    check_tail(store)
                store.close()
        counters = inst.metrics.counters
        assert counters["store.rollbacks"] > 0
        assert counters["store.checkpoint_deferred"] > 0
        assert counters["store.snapshots"] > 16

    def test_counter_after_reopen_with_torn_final_record(self, tmp_path):
        path = str(tmp_path / "torn.tdlog")
        with SqliteStore(path, snapshot_every=100) as store:
            store.insert_all(parse_database("p(1). p(2). p(3)."))
            store.checkpoint()
            store.insert_all(parse_database("q(1). q(2). q(3)."))
        conn = sqlite3.connect(path, isolation_level=None)
        seq, blob = conn.execute(
            "SELECT seq, fact FROM wal ORDER BY seq DESC LIMIT 1"
        ).fetchone()
        conn.execute("UPDATE wal SET fact=? WHERE seq=?", (bytes(blob[:-3]), seq))
        conn.close()
        with SqliteStore(path, snapshot_every=100) as store:
            assert store._wal_length() == 2
            check_tail(store)
            store.commit_delta(
                store.database(), store.database().insert_all(
                    parse_database("r(1). r(2).")
                )
            )
            assert store._wal_length() == 4
            check_tail(store)
            assert store.stats()["wal_length"] == 4

    def test_readonly_degraded_stats_count_on_disk(self, tmp_path):
        path = str(tmp_path / "ro.tdlog")
        with SqliteStore(path) as store:
            store.insert_all(parse_database("p(1). p(2). p(3). p(4)."))
        conn = sqlite3.connect(path, isolation_level=None)
        conn.execute("UPDATE wal SET fact=? WHERE seq=2", (b"\x00" * 20,))
        conn.close()
        with SqliteStore(path, readonly=True) as store:
            assert store.degraded is not None
            assert store._wal_length() == 1
            assert store.stats()["wal_length"] == 4

