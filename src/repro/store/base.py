"""The ``Store`` storage protocol: the database surface the engines use.

A TD execution is a sequence of database states, and until this package
existed every state was an in-memory immutable
:class:`~repro.core.database.Database` that died with the process.  The
protocol below carves out the storage surface the engines actually
touch -- fact enumeration (``facts``), tuple testing (``matching`` /
``holds``), elementary updates (``insert`` / ``delete`` and their batch
forms), content identity for memo keys (``content_hash``), and the
per-``(pred, position)`` lazy indexes (``arg_index``) -- so that the
same search code can run against an in-memory state or a durable one.

Two backends ship with the repo (see docs/STORAGE.md for the matrix):

* :class:`repro.store.memory.MemoryStore` -- the reference backend: a
  thin transactional shell over the copy-on-write ``Database``.
* :class:`repro.store.sqlite.SqliteStore` -- the durable backend: an
  append-only write-ahead log of fact deltas with periodic snapshots
  over stdlib ``sqlite3``, where ``iso`` boundaries map to SQLite
  savepoints and recovery replays the WAL tail into the last snapshot.

Transactional semantics follow the paper's isolation construct: an
``iso(a)`` sub-execution is atomic, so a store maps it to a *savepoint*
-- ``savepoint()`` at entry, ``release()`` on commit, ``rollback()`` on
failure/backtrack (the logical-update-view-to-transaction mapping of
Wielemaker's transaction support for Prolog).  Savepoints nest and are
strictly LIFO, exactly like the nested ``iso`` they model.

The engines never import this package: they duck-type on the protocol
(the same discipline ``faults=`` uses), so ``repro.core`` stays free of
storage dependencies and a user-supplied store only needs to quack.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import AbstractSet, Dict, FrozenSet, Iterable, Iterator, Mapping

from ..core.database import Database
from ..core.terms import Atom
from ..core.transitions import replay_into_store
from ..core.unify import Substitution

__all__ = [
    "Store",
    "StoreError",
    "StoreCorrupt",
    "StoreBusy",
    "StoreCrashed",
    "Savepoint",
    "replay_trace",
]


class StoreError(RuntimeError):
    """A storage backend failed (bad savepoint discipline, closed store,
    unreadable file)."""


class StoreCorrupt(StoreError):
    """A durable store's bytes failed verification: a checksum mismatch,
    an unreadable record frame, or an unpicklable payload.

    Carries the location of the damage as structured fields so callers
    (CLI, fsck) can report it without a raw traceback: ``path`` (store
    file), ``table`` (``wal`` or ``snapshot``), ``rowid`` (the offending
    row, ``None`` when the damage is file-level), and ``reason``.
    """

    def __init__(self, path: str, table: str, rowid, reason: str):
        self.path = path
        self.table = table
        self.rowid = rowid
        self.reason = reason
        where = table if rowid is None else "%s row %s" % (table, rowid)
        super().__init__("%s: corrupt %s: %s" % (path, where, reason))


class StoreBusy(StoreError):
    """Another live process holds the writer lease (or SQLite kept
    reporting ``SQLITE_BUSY`` past the retry budget).  Read-only opens
    are still possible; see docs/STORAGE.md."""


class StoreCrashed(StoreError):
    """The store's simulated crash point fired (see
    :class:`repro.faults.plan.StoreCrash`): the process is considered
    dead from the store's point of view, and every further operation on
    this instance raises.  Recovery happens by *reopening* the store --
    the WAL tail replays into the last snapshot and any uncommitted
    savepoint is rolled back, exactly as after a real kill."""


class Savepoint:
    """An opaque savepoint token, returned by :meth:`Store.savepoint`.

    Tokens are positional: they record the depth at which they were
    taken so backends can enforce the LIFO discipline that nested
    ``iso`` guarantees.
    """

    __slots__ = ("name", "depth")

    def __init__(self, name: str, depth: int):
        self.name = name
        self.depth = depth

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Savepoint(%s, depth=%d)" % (self.name, self.depth)


class Store(ABC):
    """Abstract storage backend: a current database state plus a
    transactional update API.

    The *query* half of the protocol is implemented here once, by
    delegation to the immutable :meth:`database` snapshot -- backends
    only provide the state transitions.  This keeps every backend
    semantically interchangeable with the plain ``Database`` the
    engines search over: ``matching`` yields the same substitutions,
    ``content_hash`` agrees with ``hash(store.database())``, and the
    lazy ``arg_index`` structures are the exact objects PR 3's
    copy-on-write machinery builds.
    """

    # -- state ----------------------------------------------------------------

    @abstractmethod
    def database(self) -> Database:
        """The current state as an immutable :class:`Database`.

        This is the object engines memoize on and search over; it must
        be cheap (backends keep a live in-memory mirror rather than
        materializing on demand).
        """

    # -- queries (concrete: delegation to the mirror) -------------------------

    def facts(self, pred: str) -> FrozenSet[Atom]:
        """All facts for a predicate (empty frozenset if none)."""
        return self.database().facts(pred)

    def matching(
        self, pattern: Atom, subst: Substitution = {}
    ) -> Iterator[Substitution]:
        """Tuple testing: one extended substitution per matching fact
        (the elementary query operation of TD)."""
        return self.database().match(pattern, subst)

    def holds(self, pattern: Atom, subst: Substitution = {}) -> bool:
        """True if at least one fact matches *pattern*."""
        return self.database().holds(pattern, subst)

    def predicates(self) -> AbstractSet[str]:
        """Predicates that currently have at least one fact."""
        return self.database().predicates()

    def arg_index(self, pred: str, pos: int) -> Mapping:
        """The lazy per-``(pred, position)`` index of the current state
        (built on first use, shared copy-on-write across successor
        states).  Treat as read-only."""
        return self.database().arg_index(pred, pos)

    def content_hash(self) -> int:
        """Content identity of the current state -- equal for two stores
        holding the same facts, which is the property every memo table
        keyed on states relies on."""
        return hash(self.database())

    def __contains__(self, fact: Atom) -> bool:
        return fact in self.database()

    def __len__(self) -> int:
        return len(self.database())

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.database())

    # -- updates --------------------------------------------------------------

    @abstractmethod
    def insert(self, fact: Atom) -> Database:
        """Elementary insertion ``ins.p(t)``; returns the new state.
        Inserting a present fact is a no-op (states are sets)."""

    @abstractmethod
    def delete(self, fact: Atom) -> Database:
        """Elementary deletion ``del.p(t)``; returns the new state.
        Deleting an absent fact is a no-op."""

    def insert_all(self, facts: Iterable[Atom]) -> Database:
        db = self.database()
        for fact in facts:
            db = self.insert(fact)
        return db

    def delete_all(self, facts: Iterable[Atom]) -> Database:
        db = self.database()
        for fact in facts:
            db = self.delete(fact)
        return db

    # -- transactions ---------------------------------------------------------

    @abstractmethod
    def savepoint(self) -> Savepoint:
        """Open a nested transaction scope (an ``iso`` boundary)."""

    @abstractmethod
    def release(self, sp: Savepoint) -> None:
        """Commit the scope opened by *sp* into its parent."""

    @abstractmethod
    def rollback(self, sp: Savepoint) -> None:
        """Abort the scope opened by *sp*: the state reverts to the
        moment the savepoint was taken (rollback-on-failure leaves no
        trace, as the paper's semantics demand)."""

    @contextmanager
    def transaction(self) -> Iterator[Savepoint]:
        """``with store.transaction():`` -- savepoint on entry, release
        on success, rollback on any exception."""
        sp = self.savepoint()
        try:
            yield sp
        except BaseException:
            try:
                self.rollback(sp)
            except StoreCrashed:
                # A crashed store cannot roll back; reopening it will
                # (the uncommitted savepoint dies with the process).
                pass
            raise
        else:
            self.release(sp)

    # -- lifecycle ------------------------------------------------------------

    def sync(self) -> None:
        """Flush durable state (no-op for volatile backends)."""

    def close(self) -> None:
        """Release backend resources (no-op for volatile backends)."""

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- introspection --------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Backend-described state summary (see ``tdlog store inspect``)."""
        db = self.database()
        counts: Dict[str, int] = {
            pred: len(db.facts(pred)) for pred in sorted(db.predicates())
        }
        return {
            "backend": type(self).__name__,
            "facts": len(db),
            "predicates": counts,
        }


def replay_trace(store: Store, actions: Iterable) -> Database:
    """Replay an execution trace's elementary updates into *store*.

    ``ins``/``del`` actions apply directly; an ``iso`` action replays
    its subtrace inside a nested savepoint -- the savepoint mapping of
    the paper's isolation construct.  A ``table`` action (the cached
    big-step execution of a tabled call) replays the same way.  Query
    actions (``test``, ``neg``, ``call``, ``builtin``) read but never
    write and are skipped.  The whole replay is one savepoint: if it
    fails, the store is rolled back and the error propagates.  Returns
    the store's final state.

    This is :func:`repro.core.transitions.replay_into_store`, the
    durable twin of :func:`repro.core.transitions.replay_actions`.
    """
    replay_into_store(store, actions)
    return store.database()
