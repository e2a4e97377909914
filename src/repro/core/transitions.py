"""Small-step operational semantics of Transaction Datalog.

A *configuration* pairs a residual process (a formula; ``true`` means
finished) with a database state.  The transition relation below is the
procedural interpretation from the paper:

* an elementary operation (tuple test, ``ins``, ``del``, absence test,
  builtin) executes atomically, possibly binding variables;
* a call to a derived predicate unfolds, nondeterministically, into the
  body of any rule whose head unifies with it;
* ``a * b`` (sequential composition) steps in ``a`` until it finishes;
* ``a | b`` (concurrent composition) steps in either side -- the
  interleaving semantics through which concurrent TD processes
  communicate via the database;
* ``iso(a)`` contributes a *single* transition for each complete
  execution of ``a`` from the current state: isolation means no sibling
  steps are interleaved within ``a``.

Bindings made by a step apply to the *entire* residual process, which is
how a value read by one concurrent branch becomes visible to another
branch sharing the variable.

The module also provides configuration canonicalization (variables are
renamed apart in traversal order, and concurrent branches are optionally
sorted) so searches can memoize visited configurations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .database import Database
from .errors import SafetyError
from .formulas import (
    BinOp,
    Builtin,
    Call,
    Conc,
    Del,
    Formula,
    Ins,
    Isol,
    Neg,
    Seq,
    Test,
    TRUTH,
    Truth,
    apply_subst,
    conc,
    seq,
    walk_formulas,
)
from .program import Program
from .terms import Atom, Term, Variable
from .unify import Substitution, apply_atom, unify_atoms

__all__ = [
    "Action",
    "Step",
    "Configuration",
    "is_final",
    "enabled_steps",
    "canonical_key",
    "update_footprint",
    "dead_config",
]


@dataclass(frozen=True)
class Action:
    """A record of one executed elementary step, for execution traces.

    ``kind`` is one of ``test ins del neg builtin call iso table``.  For
    ``iso`` the nested trace of the isolated sub-execution is attached;
    ``table`` is a call served whole from the interpreter's answer table
    (see :mod:`repro.core.tabling`) and carries the cached execution's
    trace the same way, so replay still reproduces the final state.
    """

    kind: str
    atom: Optional[Atom] = None
    detail: str = ""
    subtrace: Tuple["Action", ...] = ()

    def __str__(self) -> str:
        if self.kind == "iso":
            inner = "; ".join(str(a) for a in self.subtrace)
            return "iso[%s]" % inner
        if self.kind == "table":
            inner = "; ".join(str(a) for a in self.subtrace)
            return "table %s[%s]" % (self.atom, inner)
        if self.kind == "builtin":
            return self.detail
        if self.kind in ("ins", "del"):
            return "%s.%s" % (self.kind, self.atom)
        if self.kind == "neg":
            return "not %s" % (self.atom,)
        if self.kind == "call":
            return "call %s" % (self.atom,)
        return str(self.atom)


@dataclass(frozen=True)
class Step:
    """One enabled transition out of a configuration.

    ``residual`` is the full remaining process; ``local`` is just the
    subformula that replaced the stepped redex (``true`` for elementary
    operations, the instantiated rule body for a call).  Schedulers use
    ``local`` to notice that a rule choice left its own branch blocked --
    e.g. an iteration's stop rule unfolded before its flag exists -- and
    defer that choice behind immediately runnable ones.
    """

    action: Action
    subst: Substitution
    residual: Formula  # the full residual process, *before* applying subst
    database: Database
    local: Formula = TRUTH


@dataclass(frozen=True)
class Configuration:
    """A process/database pair, plus the answer terms accumulated so far
    for the goal's free variables."""

    process: Formula
    database: Database
    answers: Tuple[Term, ...] = ()



def _display_atom(a: Atom) -> Atom:
    """Normalize an atom for trace display: unbound variables keep their
    source name but lose the per-unfold freshness suffix, so traces are
    reproducible across runs and engines."""
    if a.is_ground():
        return a
    args = tuple(
        Variable(t.name.split("#")[0]) if isinstance(t, Variable) else t
        for t in a.args
    )
    return Atom(a.pred, args)


def is_final(proc: Formula) -> bool:
    """A configuration is final when its process has reduced to ``true``."""
    return isinstance(proc, Truth)


#: Type of the callback used to execute isolated sub-processes: given a
#: body, a database, and an optional attempt-budget cap (``Isol.budget``)
#: it yields (answer substitution, final database, trace) triples for
#: the body's complete executions.  A capped attempt that exhausts its
#: budget yields nothing further (failure, hence rollback) instead of
#: raising.
IsolRunner = Callable[
    [Formula, Database, Optional[int]],
    Iterator[Tuple[Substitution, Database, Tuple[Action, ...]]],
]


def _never_steps(proc: Formula) -> bool:
    """True if ``proc`` provably yields no step *in any database state*.

    This is the freeness summary behind the indexed redex enumeration:
    non-ground updates and under-instantiated builtins are blocked until
    a sibling binds their variables, and that blockedness is decidable
    from the node alone.  The verdict is cached on the (immutable) node,
    so a deep concurrent process pays for each blocked branch once, not
    once per enumeration.  The summary is *exact* for the redexes it
    skips -- skipping never changes the multiset of steps enumerated
    (see the differential test in ``tests/core/test_transitions_diff.py``).
    """
    cached = getattr(proc, "_never_steps", None)
    if cached is not None:
        return cached
    if isinstance(proc, (Ins, Del)):
        verdict = not proc.atom.is_ground()
    elif isinstance(proc, Builtin):
        if proc.op == "is":
            # ``X is expr`` fires once the right side is ground; a
            # non-term left side always raises at evaluation time.
            verdict = isinstance(proc.left, BinOp) or _expr_has_vars(proc.right)
        else:
            verdict = _expr_has_vars(proc.left) or _expr_has_vars(proc.right)
    elif isinstance(proc, Seq):
        verdict = _never_steps(proc.parts[0]) if proc.parts else True
    elif isinstance(proc, Conc):
        verdict = all(_never_steps(p) for p in proc.parts)
    elif isinstance(proc, Isol):
        # The nested search yields one step per complete execution of
        # the body; a body that cannot take a first step (and is not
        # already ``true``) has none.
        verdict = not isinstance(proc.body, Truth) and _never_steps(proc.body)
    elif isinstance(proc, Truth):
        return True  # no transitions out of the empty process
    else:
        verdict = False  # Test / Neg / Call: depends on db or program
    object.__setattr__(proc, "_never_steps", verdict)
    return verdict


def _expr_has_vars(expr) -> bool:
    if isinstance(expr, Variable):
        return True
    if hasattr(expr, "op"):
        return _expr_has_vars(expr.left) or _expr_has_vars(expr.right)
    return False


def enabled_steps(
    program: Program,
    proc: Formula,
    db: Database,
    isol_runner: IsolRunner,
    *,
    optimized: bool = True,
    reducer=None,
    metrics=None,
    tracer=None,
    prov=None,
    prov_parent=None,
) -> Iterator[Step]:
    """Yield every transition enabled in ``(proc, db)``.

    The ``residual`` of each step is the whole remaining process with the
    stepped redex replaced; the step's substitution has *not* yet been
    applied (callers apply it once, to the whole tree).

    ``optimized=False`` selects the naive reference enumeration (scan
    every rule, descend into every branch); the default indexed path
    skips provably blocked branches and dispatches calls through the
    program's per-signature rule index.  Both enumerate the same steps
    -- the naive path exists as the oracle for the differential test.

    ``reducer`` (a :class:`repro.core.por.PartialOrderReducer`) selects
    the partial-order-reduced enumeration instead: a sound *subset* of
    the full step set that preserves every reachable (answers, final
    database) pair.  ``metrics`` (a :class:`repro.obs.metrics.Metrics`)
    lets the reducer report ``por.*`` counters; ``tracer`` additionally
    receives one ``por.pruned`` event per deferring ample decision and
    ``prov``/``prov_parent`` (a provenance recorder plus the node of
    the configuration under expansion) the full ample-set witness.
    All three are ignored on the unreduced paths.
    """
    if reducer is not None:
        yield from reducer.steps(
            proc, db, isol_runner, metrics, tracer, prov, prov_parent
        )
    elif optimized:
        yield from _steps(program, proc, db, isol_runner)
    else:
        yield from _steps_naive(program, proc, db, isol_runner)


def _steps(
    program: Program, proc: Formula, db: Database, isol_runner: IsolRunner
) -> Iterator[Step]:
    if isinstance(proc, Truth) or _never_steps(proc):
        return
    if isinstance(proc, Test):
        for theta in db.match(proc.atom):
            yield Step(
                Action("test", _display_atom(apply_atom(proc.atom, theta))),
                theta,
                Truth(),
                db,
            )
        return
    if isinstance(proc, Neg):
        if not db.holds(proc.atom):
            yield Step(Action("neg", _display_atom(proc.atom)), {}, Truth(), db)
        return
    if isinstance(proc, Ins):
        if not proc.atom.is_ground():
            # Not an error: a sibling branch sharing the variable may
            # still bind it (cross-branch dataflow); until then the
            # update is simply not enabled.  Genuinely unsafe programs
            # are flagged by the static analysis instead.
            return
        yield Step(Action("ins", proc.atom), {}, Truth(), db.insert(proc.atom))
        return
    if isinstance(proc, Del):
        if not proc.atom.is_ground():
            return  # blocked until a sibling binds the variables
        yield Step(Action("del", proc.atom), {}, Truth(), db.delete(proc.atom))
        return
    if isinstance(proc, Builtin):
        try:
            theta = proc.evaluate({})
        except ValueError:
            # Unbound arguments: blocked until a sibling binds them
            # (same convention as unbound updates).
            return
        if theta is not None:
            yield Step(Action("builtin", detail=str(proc)), theta, Truth(), db)
        return
    if isinstance(proc, Call):
        sig = proc.atom.signature
        if not program.is_derived(sig):
            raise SafetyError(
                "call to undefined predicate %s/%d" % sig
            )
        # Indexed dispatch: the program memoizes which rule heads match
        # this call shape, so repeated unfoldings skip the unification
        # scan over non-matching rules entirely.
        for rule, theta in program.match_rules(proc.atom):
            yield Step(
                Action("call", _display_atom(apply_atom(proc.atom, theta))),
                theta,
                rule.body,
                db,
                rule.body,
            )
        return
    if isinstance(proc, Seq):
        head, rest = proc.parts[0], proc.parts[1:]
        for step in _steps(program, head, db, isol_runner):
            yield Step(
                step.action,
                step.subst,
                seq(step.residual, *rest),
                step.database,
                step.local,
            )
        return
    if isinstance(proc, Conc):
        for i, branch in enumerate(proc.parts):
            if _never_steps(branch):
                continue  # provably blocked: a sibling must bind it first
            others_before = proc.parts[:i]
            others_after = proc.parts[i + 1 :]
            for step in _steps(program, branch, db, isol_runner):
                yield Step(
                    step.action,
                    step.subst,
                    conc(*others_before, step.residual, *others_after),
                    step.database,
                    step.local,
                )
        return
    if isinstance(proc, Isol):
        for theta, final_db, trace in isol_runner(proc.body, db, proc.budget):
            yield Step(
                Action("iso", subtrace=tuple(trace)),
                theta,
                Truth(),
                final_db,
            )
        return
    raise TypeError("cannot step formula of type %r" % type(proc).__name__)


def _steps_naive(
    program: Program, proc: Formula, db: Database, isol_runner: IsolRunner
) -> Iterator[Step]:
    """Reference enumeration: no blocked-branch skipping, calls resolved
    by scanning every freshly-renamed rule.  Kept as the oracle for the
    optimized path's differential test."""
    if isinstance(proc, Truth):
        return
    if isinstance(proc, Test):
        for theta in db.match(proc.atom):
            yield Step(
                Action("test", _display_atom(apply_atom(proc.atom, theta))),
                theta,
                Truth(),
                db,
            )
        return
    if isinstance(proc, Neg):
        if not db.holds(proc.atom):
            yield Step(Action("neg", _display_atom(proc.atom)), {}, Truth(), db)
        return
    if isinstance(proc, Ins):
        if not proc.atom.is_ground():
            return
        yield Step(Action("ins", proc.atom), {}, Truth(), db.insert(proc.atom))
        return
    if isinstance(proc, Del):
        if not proc.atom.is_ground():
            return
        yield Step(Action("del", proc.atom), {}, Truth(), db.delete(proc.atom))
        return
    if isinstance(proc, Builtin):
        try:
            theta = proc.evaluate({})
        except ValueError:
            return
        if theta is not None:
            yield Step(Action("builtin", detail=str(proc)), theta, Truth(), db)
        return
    if isinstance(proc, Isol):
        for theta, final_db, trace in isol_runner(proc.body, db, proc.budget):
            yield Step(
                Action("iso", subtrace=tuple(trace)),
                theta,
                Truth(),
                final_db,
            )
        return
    if isinstance(proc, Call):
        sig = proc.atom.signature
        if not program.is_derived(sig):
            raise SafetyError(
                "call to undefined predicate %s/%d" % sig
            )
        for rule in program.fresh_rules_for(sig):
            theta = unify_atoms(rule.head, proc.atom)
            if theta is not None:
                yield Step(
                    Action("call", _display_atom(apply_atom(proc.atom, theta))),
                    theta,
                    rule.body,
                    db,
                    rule.body,
                )
        return
    if isinstance(proc, Seq):
        head, rest = proc.parts[0], proc.parts[1:]
        for step in _steps_naive(program, head, db, isol_runner):
            yield Step(
                step.action,
                step.subst,
                seq(step.residual, *rest),
                step.database,
                step.local,
            )
        return
    if isinstance(proc, Conc):
        for i, branch in enumerate(proc.parts):
            others_before = proc.parts[:i]
            others_after = proc.parts[i + 1 :]
            for step in _steps_naive(program, branch, db, isol_runner):
                yield Step(
                    step.action,
                    step.subst,
                    conc(*others_before, step.residual, *others_after),
                    step.database,
                    step.local,
                )
        return
    raise TypeError("cannot step formula of type %r" % type(proc).__name__)


def apply_step(step: Step) -> Formula:
    """The residual process after applying the step's bindings."""
    return apply_subst(step.residual, step.subst)


# ---------------------------------------------------------------------------
# Trace replay
# ---------------------------------------------------------------------------


def replay_actions(actions, db: Database) -> Database:
    """Re-apply a trace's update actions to *db*.

    Execution traces are certificates: replaying the inserts and deletes
    of a successful execution (including those inside ``iso`` subtraces)
    over the initial state must reproduce the execution's final state.
    Tests use this to validate every engine's traces; tools can use it
    to audit a logged run against a claimed outcome.
    """
    for action in actions:
        if action.kind == "ins":
            db = db.insert(action.atom)
        elif action.kind == "del":
            db = db.delete(action.atom)
        elif action.kind in ("iso", "table"):
            db = replay_actions(action.subtrace, db)
        # tests / negs / builtins / calls do not change the state
    return db


def replay_into_store(store, actions) -> None:
    """The durable twin of :func:`replay_actions`: re-apply a trace's
    updates to a store.

    The store is duck-typed (``insert``, ``delete``, ``savepoint``,
    ``release``, ``rollback`` -- the :class:`repro.store.Store`
    protocol), so the core never imports the store package.  The replay
    runs under one savepoint, and each ``iso`` (or ``table``, whose
    subtrace is the recorded big-step execution) subtrace under a
    nested one -- the savepoint mapping of the paper's isolation.  On
    any failure the savepoint is rolled back (best-effort on a crashed
    store: reopening it rolls back for us) and the original error
    propagates, so a partial replay is never left visible.
    """
    sp = store.savepoint()
    try:
        for action in actions:
            kind = action.kind
            if kind == "ins":
                store.insert(action.atom)
            elif kind == "del":
                store.delete(action.atom)
            elif kind in ("iso", "table"):
                replay_into_store(store, action.subtrace)
    except BaseException:
        try:
            store.rollback(sp)
        except Exception:
            pass
        raise
    store.release(sp)


# ---------------------------------------------------------------------------
# Dead-configuration pruning
# ---------------------------------------------------------------------------


def update_footprint(program: Program, *goals: Formula):
    """Predicates the program (plus the given goals) can ever insert or
    delete.  Used by :func:`dead_config`: tests on predicates outside the
    insert footprint can never *become* true, absence tests on predicates
    outside the delete footprint can never become true either.

    The rulebase's contribution is cached on the program (rulebases are
    immutable), so nested isolation searches -- which recompute the
    footprint for each sub-goal -- only walk the sub-goal itself.
    """
    insertable, deletable = program.update_footprint()
    if not goals:
        return insertable, deletable
    ins_extra = set(insertable)
    del_extra = set(deletable)
    for body in goals:
        for sub in walk_formulas(body):
            if isinstance(sub, Ins):
                ins_extra.add(sub.atom.pred)
            elif isinstance(sub, Del):
                del_extra.add(sub.atom.pred)
    return frozenset(ins_extra), frozenset(del_extra)


def dead_config(
    proc: Formula,
    db: Database,
    insertable: frozenset,
    deletable: frozenset,
) -> bool:
    """True if *proc* can provably never complete from *db*.

    The check looks at each concurrent branch's *frontier* (the next
    formula it must execute).  A branch is permanently stuck -- and the
    whole configuration dead -- when its frontier is

    * a tuple test with no matching fact, on a predicate nothing can
      insert (waiting for a fact that can never arrive);
    * an absence test that currently fails, on a predicate nothing can
      delete; or
    * a failing builtin (builtins are state-independent).

    This prunes exponentially many doomed interleavings: without it, a
    branch that grabbed the wrong resource keeps every *other* branch
    exploring before the failure is discovered.  Pruning is sound
    because frontier failure of such a branch is invariant under any
    sibling activity.
    """
    if isinstance(proc, Truth):
        return False
    if isinstance(proc, Test):
        return proc.atom.pred not in insertable and not db.holds(proc.atom)
    if isinstance(proc, Neg):
        return proc.atom.pred not in deletable and db.holds(proc.atom)
    if isinstance(proc, Builtin):
        try:
            return proc.evaluate({}) is None
        except ValueError:
            # Unbound variables: a sibling may still bind them.
            return False
    if isinstance(proc, Seq):
        return dead_config(proc.parts[0], db, insertable, deletable)
    if isinstance(proc, Conc):
        return any(dead_config(p, db, insertable, deletable) for p in proc.parts)
    if isinstance(proc, Isol):
        # Every execution of the isolated body starts with the body's
        # own frontier, so a dead body frontier kills the iso too.
        return dead_config(proc.body, db, insertable, deletable)
    # Ins/Del/Call frontiers can always act (or need deeper search).
    return False


def frontier_blocked(proc: Formula, db: Database) -> bool:
    """True if *proc* currently has no enabled elementary frontier.

    Weaker than :func:`dead_config`: a blocked configuration may be
    unblocked by facts a sibling inserts later, so it cannot be pruned --
    but a scheduler should *defer* it.  The depth-first simulator orders
    successor configurations so that blocked ones are explored last;
    without this, a rule choice whose guard is not yet satisfied (e.g.
    the stop rule of an iteration testing a flag the loop body has not
    emitted yet) poisons the search, which then enumerates every
    interleaving of the sibling processes before backtracking out.
    """
    if isinstance(proc, Truth):
        return False
    if isinstance(proc, Test):
        return not db.holds(proc.atom)
    if isinstance(proc, Neg):
        return db.holds(proc.atom)
    if isinstance(proc, Builtin):
        try:
            return proc.evaluate({}) is None
        except ValueError:
            return True  # unbound: cannot fire until a sibling binds it
    if isinstance(proc, (Ins, Del)):
        return not proc.atom.is_ground()
    if isinstance(proc, Seq):
        return frontier_blocked(proc.parts[0], db)
    if isinstance(proc, Conc):
        return all(frontier_blocked(p, db) for p in proc.parts)
    if isinstance(proc, Isol):
        # An isolated body that cannot currently run should be deferred
        # (e.g. a stop rule's atomic emptiness check taken while work
        # remains -- committing to it early abandons the only consumer
        # of that work and poisons the search).  For pure-read bodies we
        # can decide enabledness exactly and cheaply; otherwise fall
        # back to the body's frontier.
        verdict = _pure_read_satisfiable(proc.body, db)
        if verdict is not None:
            return not verdict
        return frontier_blocked(proc.body, db)
    return False


def _pure_read_satisfiable(body: Formula, db: Database) -> Optional[bool]:
    """For bodies built only from tests / absence tests / builtins and
    sequential composition: is the body satisfiable in *db* right now?
    Returns None when the body contains updates, calls, or concurrency
    (not decidable by inspection)."""

    def pure(f: Formula) -> bool:
        if isinstance(f, (Test, Neg, Builtin, Truth)):
            return True
        if isinstance(f, Seq):
            return all(pure(p) for p in f.parts)
        return False

    if not pure(body):
        return None

    def sat(f: Formula, theta) -> bool:
        if isinstance(f, Truth):
            return True
        if isinstance(f, Test):
            return any(True for _ in db.match(f.atom, theta))
        if isinstance(f, Neg):
            return not db.holds(f.atom, theta)
        if isinstance(f, Builtin):
            try:
                return f.evaluate(theta) is not None
            except ValueError:
                return False
        if isinstance(f, Seq):
            return _sat_seq(f.parts, 0, theta)
        raise TypeError  # pragma: no cover - `pure` excludes the rest

    def _sat_seq(parts, idx, theta) -> bool:
        if idx == len(parts):
            return True
        part = parts[idx]
        if isinstance(part, Test):
            return any(
                _sat_seq(parts, idx + 1, t2) for t2 in db.match(part.atom, theta)
            )
        if isinstance(part, Builtin):
            try:
                t2 = part.evaluate(theta)
            except ValueError:
                return False
            return t2 is not None and _sat_seq(parts, idx + 1, t2)
        return sat(part, theta) and _sat_seq(parts, idx + 1, theta)

    return sat(body, {})


# ---------------------------------------------------------------------------
# Canonicalization for memoization
# ---------------------------------------------------------------------------
#
# The canonical key of a node is computed *compositionally* and cached on
# the node (formula trees are immutable, so nothing ever invalidates).
# Each node stores a pair
#
#     (shape, varseq)
#
# where ``shape`` is a hashable structure in which this node's variables
# appear as local first-occurrence indices ``('v', i)``, and ``varseq``
# is the tuple of distinct variables in that numbering order.  A
# composite node embeds each child as ``(child_shape, perm)`` with
# ``perm`` mapping the child's local indices to the parent's -- so
# cross-branch variable sharing is captured without renumbering the
# child's whole subtree.  Because a step's residual shares all untouched
# subtrees with its parent process (see ``apply_subst``), re-keying a
# successor configuration only does work proportional to the changed
# spine, not the whole tree.
#
# ``shape`` alone is the public key: ``varseq`` is first-occurrence
# ordered by construction, so the key is invariant under variable
# renaming, and composing the perms bottom-up reproduces exactly the
# global first-occurrence numbering the previous from-scratch algorithm
# produced.

#: Bound on how many concurrent-branch orderings are tried when several
#: branches have identical shapes.  Tied groups are tiny in practice
#: (the bound allows e.g. one group of 4 plus a pair); past it we keep
#: the stable order, which is sound and only costs memo sharing.
_MAX_TIE_CANDIDATES = 64


def _ckey_pair(f: Formula, sort_conc: bool):
    cache = getattr(f, "_ckey_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(f, "_ckey_cache", cache)
    pair = cache.get(sort_conc)
    if pair is None:
        pair = _ckey_build(f, sort_conc)
        cache[sort_conc] = pair
    return pair


def _ckey_build(f: Formula, sort_conc: bool):
    if isinstance(f, Truth):
        return (("T",), ())
    if isinstance(f, (Test, Neg, Ins, Del, Call)):
        local: Dict[Variable, int] = {}
        keys = []
        for t in f.atom.args:
            if isinstance(t, Variable):
                idx = local.get(t)
                if idx is None:
                    idx = len(local)
                    local[t] = idx
                keys.append(("v", idx))
            else:
                keys.append(("c", type(t.value).__name__, str(t.value)))
        shape = (type(f).__name__, f.atom.pred, tuple(keys))
        return (shape, tuple(local))
    if isinstance(f, Builtin):
        local = {}
        shape = (
            "B",
            f.op,
            _ckey_expr(f.left, local),
            _ckey_expr(f.right, local),
        )
        return (shape, tuple(local))
    if isinstance(f, Isol):
        # A single child: its local numbering *is* the parent's.  The
        # attempt budget is part of the shape: a capped iso and an
        # uncapped one are different processes (one can fail where the
        # other diverges).
        cshape, cvars = _ckey_pair(f.body, sort_conc)
        return (("I", f.budget, cshape), cvars)
    if isinstance(f, Seq):
        return _ckey_assemble(
            "S", [_ckey_pair(p, sort_conc) for p in f.parts]
        )
    if isinstance(f, Conc):
        pairs = [_ckey_pair(p, sort_conc) for p in f.parts]
        if not sort_conc:
            return _ckey_assemble("C", pairs)
        return _ckey_conc_sorted(pairs)
    raise TypeError("cannot canonicalize %r" % type(f).__name__)


def _ckey_expr(expr, local: Dict[Variable, int]):
    if isinstance(expr, Variable):
        idx = local.get(expr)
        if idx is None:
            idx = len(local)
            local[expr] = idx
        return ("v", idx)
    if hasattr(expr, "op"):
        return (
            "e",
            expr.op,
            _ckey_expr(expr.left, local),
            _ckey_expr(expr.right, local),
        )
    return ("c", type(expr.value).__name__, str(expr.value))


def _ckey_assemble(tag: str, pairs):
    """Combine ordered child (shape, varseq) pairs into the parent pair,
    renumbering variables by first occurrence across the children."""
    order: Dict[Variable, int] = {}
    embedded = []
    for cshape, cvars in pairs:
        perm = []
        for v in cvars:
            idx = order.get(v)
            if idx is None:
                idx = len(order)
                order[v] = idx
            perm.append(idx)
        embedded.append((cshape, tuple(perm)))
    return ((tag,) + tuple(embedded), tuple(order))


def _ckey_conc_sorted(pairs):
    """Canonical (shape, varseq) for a concurrent node, invariant under
    branch reordering.

    Branches are sorted by their perm-free shapes; groups of branches
    with *identical* shapes can still differ in how their variables are
    shared with the rest of the process, so within the tie groups every
    ordering (bounded by :data:`_MAX_TIE_CANDIDATES`) is tried and the
    lexicographically least assembled key wins.  The candidate set
    depends only on the multiset of branches, which is what makes the
    key genuinely commutative -- the previous implementation kept input
    order on ties and keyed ``p(X,Y) | p(Z,X)`` apart from its swap.
    """
    decorated = sorted(pairs, key=lambda pr: repr(pr[0]))
    groups: List[list] = []
    for pr in decorated:
        if groups and groups[-1][0][0] == pr[0]:
            groups[-1].append(pr)
        else:
            groups.append([pr])
    n_candidates = 1
    for g in groups:
        for k in range(2, len(g) + 1):
            n_candidates *= k
    if n_candidates == 1 or n_candidates > _MAX_TIE_CANDIDATES:
        return _ckey_assemble("C", [pr for g in groups for pr in g])
    best = None
    best_render = None
    for arrangement in itertools.product(
        *(itertools.permutations(g) for g in groups)
    ):
        ordering = [pr for g in arrangement for pr in g]
        assembled = _ckey_assemble("C", ordering)
        render = repr(assembled[0])
        if best_render is None or render < best_render:
            best_render = render
            best = assembled
    return best


def canonical_key(proc: Formula, sort_conc: bool = True):
    """A hashable structural key for *proc*, invariant under variable
    renaming and (optionally) under reordering of concurrent branches.

    Renaming-apart matters because call unfolding freshens rule variables
    with a global counter: two searches reaching "the same" residual
    process would otherwise never share a memo entry.  Branch-order
    invariance matters because interleaving semantics makes ``a | b``
    and ``b | a`` the same process.

    Keys are assembled from per-node summaries cached on the (immutable)
    nodes, so residual processes -- which share almost all structure with
    their parent configuration -- are re-keyed in time proportional to
    what actually changed.  ``sort_conc=False`` disables branch sorting
    for the ablation benchmark.
    """
    return _ckey_pair(proc, sort_conc)[0]
