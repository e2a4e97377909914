"""Tabled big-step evaluator for *sequential* Transaction Datalog.

Sequential TD is the sublanguage without concurrent composition.  The
paper (Theorem 4.5) shows it is data complete for EXPTIME -- in sharp
contrast to full TD's RE-completeness -- and in particular *decidable*.
This module is the decision procedure.

The semantic insight it implements: the meaning of a sequential TD
predicate is a binary relation on database states.  For a fixed program
and initial state, the reachable states are subsets of a finite Herbrand
base (TD is safe: no new constants are invented), so the relation

    (call atom, input state)  -->  { (answer bindings, output state) }

has a finite table, computable as a least fixpoint.  We compute it by
*tabling* with a dependency-driven worklist: evaluation registers every
call it encounters as a table key and records which keys consulted it;
when a key's answer set grows, only its recorded dependents are
re-evaluated.  Termination is guaranteed by the finiteness of keys and
answers; completeness by the monotone least-fixpoint argument, lifted
from Datalog to state pairs -- this is exactly the sense in which the
paper says Datalog optimization techniques like tabling apply to TD.

Recursion depth is *not* bounded here, which matters: sequential TD can
still use recursion-as-storage (a counter encoded in recursion depth),
and top-down evaluation would diverge on it.  The table is what restores
termination -- recursion that revisits a (call, state) pair contributes
nothing new and closes the loop.

The same table serves nonrecursive TD (Theorem 4.7): with an acyclic
call graph no fixpoint is needed, and
:class:`repro.core.nonrec.NonrecursiveEngine` -- this engine's top-down
mode -- fills each entry once, on first use.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..obs import hotspots as _hot
from ..obs.context import Instrumentation, NOOP, active
from ..obs.provenance import active_recorder, db_delta, render_bindings
from .database import Database
from .errors import SafetyError, UnsupportedProgramError
from .formulas import (
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
    Truth,
    ordered_variables,
    walk_formulas,
)
from .interpreter import Solution, _resolve_store
from .parser import as_goal
from .program import Program
from .tabling import canonical_call
from .terms import Atom, Constant, Variable
from .unify import Substitution, apply_atom, walk

__all__ = ["SequentialEngine"]

#: A table key: the canonicalized call atom plus the input state.
_Key = Tuple[Atom, Database]
#: A table answer: constants for the canonical variables, plus the output
#: state.
_Answer = Tuple[Tuple[Constant, ...], Database]
#: A table entry: the key's answers, insertion-ordered (a dict used as an
#: ordered set).
_Answers = Dict[_Answer, None]


class SequentialEngine:
    """Decision procedure for sequential TD via tabled evaluation.

    Raises :class:`UnsupportedProgramError` if the program or goal uses
    concurrent composition.  ``iso(a)`` is accepted and equals ``a``:
    with no siblings to interleave, isolation is a no-op.

    Subclasses choose how table entries are filled: :meth:`_prepare`
    runs before any answer is read (here, the least fixpoint), and
    :meth:`_eval_call` reads -- or computes -- one entry.
    """

    #: Engine label on the ``solve`` span and the attribution frames.
    _label = "seqeval"

    def __init__(
        self,
        program: Program,
        max_rounds: int = 10_000_000,
        join_order: bool = True,
        provenance=None,
        attribution=None,
        *,
        store=None,
    ):
        self.program = program
        self.max_rounds = max_rounds
        #: Optional storage backend (see :class:`repro.store.Store` and
        #: docs/STORAGE.md), duck-typed; supplies the initial state when
        #: ``solve`` is called without a database.  Explicit beats the
        #: ambient provider, as for ``provenance``.
        self.store = store
        #: Derivation recorder (see :mod:`repro.obs.provenance`); falls
        #: back to the ambient recorder when unset, costs nothing when
        #: neither is attached.
        self.provenance = provenance
        #: Cost attributor (see :mod:`repro.obs.hotspots`); same
        #: explicit-beats-ambient resolution as ``provenance``.
        self.attribution = attribution
        #: Reorder maximal runs of consecutive tuple tests inside each
        #: sequence by bound-argument selectivity before evaluating.
        #: Sound because tests read but never write: a contiguous test
        #: run is a conjunctive query, and any join order enumerates the
        #: same substitutions.  Updates, negation, and builtins are
        #: never moved.  Disable to pin the textual order.
        self.join_order = join_order
        self._check_sequential()
        # Persistent across queries: the table only ever grows, and its
        # entries are valid independently of which goal asked for them.
        self._table: Dict[_Key, _Answers] = {}
        # Dependency graph for the worklist driver: callee -> callers.
        self._dependents: Dict[_Key, Set[_Key]] = {}
        # Keys whose rules have been evaluated at least once (a key can
        # be computed and still have an empty answer set).
        self._computed: Set[_Key] = set()
        # Per-evaluation scratch: keys consulted / newly registered.
        self._consulted: Set[_Key] = set()
        self._new_keys: List[_Key] = []
        # Instrumentation for the current solve (NOOP when inactive).
        self._obs: Instrumentation = NOOP
        # Provenance scratch for the current solve.
        self._prov_rec = None
        self._prov_root: Optional[int] = None
        self._prov_key_nodes: Dict[_Key, Optional[int]] = {}
        # Cost attributor scratch for the current solve (None when off).
        self._attr_cur = None

    def _check_sequential(self) -> None:
        for rule in self.program.rules:
            if _uses_conc(rule.body):
                raise UnsupportedProgramError(
                    "rule for %s uses concurrent composition; "
                    "the sequential engine cannot evaluate it"
                    % (rule.head,)
                )

    # -- public API -------------------------------------------------------------

    def solve(
        self, goal: "str | Formula", db: Optional[Database] = None
    ) -> Iterator[Solution]:
        """Enumerate all (bindings, final state) pairs for *goal*.

        *goal* may be a formula or concrete syntax.  Complete and
        terminating: this is a decision procedure.  With ``db=None``
        the initial state comes from the attached store (explicit
        ``store=`` or the ambient provider); the evaluation is a
        read-only query on it.
        """
        _, db = _resolve_store(self.store, db)
        goal = self.program.resolve_goal(as_goal(goal))
        if _uses_conc(goal):
            raise UnsupportedProgramError(
                "goal uses concurrent composition; use the full interpreter"
            )
        goal_vars = ordered_variables(goal)
        obs = self._obs = active()
        prov = self._prov_rec = (
            self.provenance if self.provenance is not None else active_recorder()
        )
        attr = self._attr_cur = (
            self.attribution
            if self.attribution is not None
            else _hot.active_attributor()
        )
        self._prov_root = (
            prov.record("config", str(goal), disposition="root")
            if prov is not None
            else None
        )
        # Key nodes are per-recorder; the table persists across solves
        # but node ids do not.
        self._prov_key_nodes = {}

        def _search():
            with obs.span("solve", engine=self._label, goal=str(goal)):
                self._prepare(goal, db)
                emitted = set()
                for theta, final_db in self._eval(goal, db, {}):
                    bindings = {v: walk(v, theta) for v in goal_vars}
                    key = (tuple(sorted(bindings.items())), final_db)
                    if key not in emitted:
                        emitted.add(key)
                        if obs.enabled:
                            obs.metrics.inc("search.solutions")
                        if prov is not None:
                            ins, dels = db_delta(db, final_db)
                            # Label the answer with the bindings applied, so
                            # the proof reads `path(a, b)` rather than the
                            # open goal `path(a, X)`.
                            label = (
                                str(apply_atom(goal.atom, bindings))
                                if isinstance(goal, Call)
                                else str(goal)
                            )
                            prov.record(
                                "answer",
                                label,
                                parent=self._prov_root,
                                disposition="solution",
                                bindings=render_bindings(bindings),
                                inserted=ins,
                                deleted=dels,
                            )
                        yield Solution(bindings, final_db)
                self._note_table()

        yield from _hot.meter_engine(attr, _search(), self._label)

    def succeeds(self, goal: Formula, db: Database) -> bool:
        for _ in self.solve(goal, db):
            return True
        return False

    def final_databases(self, goal: Formula, db: Database) -> Set[Database]:
        return {sol.database for sol in self.solve(goal, db)}

    @property
    def table_size(self) -> Tuple[int, int]:
        """(number of keys, number of answers) -- exposed for the
        EXPTIME scaling benchmark."""
        return len(self._table), sum(len(v) for v in self._table.values())

    def _note_table(self) -> None:
        """Record the table-size gauges of the current solve."""
        obs = self._obs
        if obs.enabled:
            keys, answers = self.table_size
            obs.metrics.set_gauge("table.keys", keys)
            obs.metrics.set_gauge("table.answers", answers)

    def _prepare(self, goal: Formula, db: Database) -> None:
        """Fill the table before the goal's answers are read: the least
        fixpoint over every call the goal can reach from *db*."""
        attr = self._attr_cur
        with self._obs.span("table-fixpoint"):
            if attr is not None:
                with attr.frame(phase="fixpoint"):
                    self._run_fixpoint(goal, db)
            else:
                self._run_fixpoint(goal, db)
        self._note_table()

    # -- fixpoint driver ----------------------------------------------------------
    #
    # Dependency-driven (semi-naive) tabling: evaluating a key records
    # which callee keys it consulted; when a key's answer set grows, only
    # its recorded dependents are re-evaluated.  Far cheaper than naive
    # rounds -- work is proportional to actual answer propagation, the
    # classical tabling argument.

    def _run_fixpoint(self, goal: Formula, db: Database) -> None:
        worklist: List[_Key] = []
        in_worklist: Set[_Key] = set()

        def enqueue(key: _Key) -> None:
            if key not in in_worklist:
                in_worklist.add(key)
                worklist.append(key)

        def drain() -> None:
            steps = 0
            while worklist:
                steps += 1
                if steps > self.max_rounds:  # pragma: no cover - bound
                    raise SearchExhausted_impossible()
                key = worklist.pop()
                in_worklist.discard(key)
                self._computed.add(key)
                before = len(self._table.get(key, ()))
                self._consulted = set()
                self._new_keys = []
                self._recompute(key)
                for callee in self._consulted:
                    self._dependents.setdefault(callee, set()).add(key)
                for fresh in self._new_keys:
                    enqueue(fresh)
                if len(self._table.get(key, ())) != before:
                    for dependent in self._dependents.get(key, ()):
                        enqueue(dependent)

        # Alternate goal-seeding passes with worklist drains: a drain can
        # grow answers that let the *goal* reach call patterns it could
        # not instantiate before, so re-seed until the goal discovers
        # nothing new.
        for _ in range(self.max_rounds):  # pragma: no branch - returns inside
            self._consulted = set()
            self._new_keys = []
            for _ in self._eval(goal, db, {}):
                pass
            for key in self._new_keys:
                enqueue(key)
            for key in self._consulted:
                if key not in self._computed:
                    enqueue(key)
            if not worklist:
                self._consulted = set()
                self._new_keys = []
                return
            drain()
        raise SearchExhausted_impossible()  # pragma: no cover - loop bound

    def _recompute(self, key: _Key) -> None:
        if self._obs.enabled:
            self._obs.metrics.inc("table.recomputes")
        canon_atom, db_in = key
        prov = self._prov_rec
        call_node: Optional[int] = None
        if prov is not None:
            if key not in self._prov_key_nodes:
                self._prov_key_nodes[key] = prov.record(
                    "call", str(canon_atom), parent=self._prov_root
                )
            call_node = self._prov_key_nodes[key]
        self._collect(canon_atom, db_in, call_node, self._table[key])

    def _collect(
        self,
        canon_atom: Atom,
        db_in: Database,
        call_node: Optional[int],
        answers: _Answers,
    ) -> None:
        """Evaluate every rule matching *canon_atom* from *db_in* and add
        each answer not yet in *answers*.

        Each new answer is charged to the attributor and, under
        *call_node*, recorded as a derivation.  The fixpoint re-collects
        a key whenever a callee grows; the top-down subclass collects a
        key once.
        """
        canon_vars = list(
            dict.fromkeys(t for t in canon_atom.args if isinstance(t, Variable))
        )
        attr = self._attr_cur
        prov = self._prov_rec
        # Indexed dispatch: head matching for this canonical call shape
        # is memoized on the program (see Program.match_rules).
        for rule, theta in self.program.match_rules(canon_atom):
            # One attribution frame per rule-body evaluation: collection
            # runs eagerly (never suspends), so push/pop bracket exactly.
            rule_token = (
                attr.push(rule=_hot.rule_label(rule.head), predicate=canon_atom.pred)
                if attr is not None
                else None
            )
            try:
                for theta_out, db_out in self._eval(rule.body, db_in, theta):
                    values = []
                    for v in canon_vars:
                        t = walk(v, theta_out)
                        if isinstance(t, Variable):
                            raise SafetyError(
                                "rule for %s does not bind all head variables"
                                % (canon_atom,)
                            )
                        values.append(t)
                    entry = (tuple(values), db_out)
                    if entry in answers:
                        continue
                    answers[entry] = None
                    if attr is not None:
                        attr.charge("steps.expansions", 1)
                        ins_a, dels_a = db_delta(db_in, db_out)
                        delta = len(ins_a) + len(dels_a)
                        if delta:
                            attr.charge("db.delta", delta)
                    if prov is not None:
                        ins, dels = db_delta(db_in, db_out)
                        bindings = dict(zip(canon_vars, values))
                        prov.record(
                            "answer",
                            str(apply_atom(canon_atom, bindings)),
                            parent=call_node,
                            bindings=render_bindings(bindings),
                            inserted=ins,
                            deleted=dels,
                            witness={"rule": str(rule.head)},
                        )
            finally:
                if rule_token is not None:
                    attr.pop(rule_token)

    # -- big-step evaluation ---------------------------------------------------------

    def _eval(
        self, f: Formula, db: Database, theta: Substitution
    ) -> Iterator[Tuple[Substitution, Database]]:
        if isinstance(f, Truth):
            yield theta, db
            return
        if isinstance(f, Test):
            yield from ((t, db) for t in db.match(f.atom, theta))
            return
        if isinstance(f, Neg):
            if not db.holds(f.atom, theta):
                yield theta, db
            return
        if isinstance(f, Ins):
            a = apply_atom(f.atom, theta)
            if not a.is_ground():
                raise SafetyError("ins with unbound variables: %s" % (a,))
            yield theta, db.insert(a)
            return
        if isinstance(f, Del):
            a = apply_atom(f.atom, theta)
            if not a.is_ground():
                raise SafetyError("del with unbound variables: %s" % (a,))
            yield theta, db.delete(a)
            return
        if isinstance(f, Builtin):
            try:
                out = f.evaluate(theta)
            except ValueError as exc:
                raise SafetyError(str(exc)) from exc
            if out is not None:
                yield out, db
            return
        if isinstance(f, Seq):
            parts = f.parts
            if self.join_order:
                parts = self._plan_seq(parts, db, theta)
            yield from self._eval_seq(parts, 0, db, theta)
            return
        if isinstance(f, Isol):
            # Sequential execution has no siblings; isolation is identity.
            yield from self._eval(f.body, db, theta)
            return
        if isinstance(f, Call):
            yield from self._eval_call(f.atom, db, theta)
            return
        if isinstance(f, Conc):
            raise UnsupportedProgramError(
                "concurrent composition reached the sequential evaluator"
            )
        raise TypeError("cannot evaluate formula %r" % type(f).__name__)

    def _plan_seq(
        self, parts: Tuple[Formula, ...], db: Database, theta: Substitution
    ) -> Tuple[Formula, ...]:
        """Join-order each maximal run of consecutive ``Test`` parts.

        Only tests are moved, and only within their contiguous run: a
        test neither updates the database nor can fail for safety
        reasons, so the run is a conjunctive query whose answer set is
        order-independent.  Negation stays put (its meaning depends on
        which variables the *preceding* conjuncts bound) and so do
        builtins (which raise :class:`SafetyError` on unbound input).
        Selectivity uses the database at sequence entry -- a heuristic
        only; correctness never depends on the plan.
        """
        out: List[Formula] = []
        changed = False
        i, n = 0, len(parts)
        while i < n:
            j = i
            while j < n and isinstance(parts[j], Test):
                j += 1
            if j - i > 1:
                run = list(parts[i:j])
                ordered = self._order_tests(run, db, theta)
                if ordered != run:
                    changed = True
                out.extend(ordered)
                i = j
            elif j > i:
                out.append(parts[i])
                i = j
            else:
                out.append(parts[i])
                i += 1
        if not changed:
            return parts
        if self._obs.enabled:
            self._obs.metrics.inc("join.reorders")
        return tuple(out)

    def _order_tests(
        self, run: List[Formula], db: Database, theta: Substitution
    ) -> List[Formula]:
        """Greedy selectivity order for a contiguous test run: fewest
        still-unbound variable arguments first (bound arguments probe the
        per-position index), ties by relation size, then textual
        position."""
        bound: Set[Variable] = set()

        def unbound(test: Formula) -> int:
            count = 0
            for arg in test.atom.args:
                resolved = walk(arg, theta)
                if isinstance(resolved, Variable) and resolved not in bound:
                    count += 1
            return count

        remaining = list(enumerate(run))
        chosen: List[Formula] = []
        while remaining:
            pos, test = min(
                remaining,
                key=lambda item: (
                    unbound(item[1]),
                    len(db.facts(item[1].atom.pred)),
                    item[0],
                ),
            )
            remaining.remove((pos, test))
            chosen.append(test)
            for arg in test.atom.args:
                resolved = walk(arg, theta)
                if isinstance(resolved, Variable):
                    bound.add(resolved)
        return chosen

    def _eval_seq(
        self, parts: Tuple[Formula, ...], idx: int, db: Database, theta: Substitution
    ) -> Iterator[Tuple[Substitution, Database]]:
        if idx == len(parts):
            yield theta, db
            return
        for theta2, db2 in self._eval(parts[idx], db, theta):
            yield from self._eval_seq(parts, idx + 1, db2, theta2)

    def _eval_call(
        self, atom: Atom, db: Database, theta: Substitution
    ) -> Iterator[Tuple[Substitution, Database]]:
        canon_atom, originals = canonical_call(apply_atom(atom, theta))
        key = (canon_atom, db)
        self._consulted.add(key)
        answers = self._table.get(key)
        obs = self._obs
        if answers is None:
            # Register the key; the worklist driver will compute it.
            if obs.enabled:
                obs.metrics.inc("table.misses")
            self._table[key] = {}
            self._new_keys.append(key)
            return
        if obs.enabled:
            obs.metrics.inc("table.hits")
        yield from _bind_answers(
            theta, originals, sorted(answers, key=_answer_order)
        )


def _bind_answers(
    theta: Substitution, originals: List[Variable], answers
) -> Iterator[Tuple[Substitution, Database]]:
    """Replay table answers onto the caller's substitution: each answer
    binds the call's original variables (in canonical order) to its
    values, unless that clashes with a binding already made."""
    for values, db_out in answers:
        out = dict(theta)
        consistent = True
        for v, value in zip(originals, values):
            bound = walk(v, out)
            if isinstance(bound, Variable):
                out[bound] = value
            elif bound != value:
                consistent = False
                break
        if consistent:
            yield out, db_out


def _answer_order(answer: _Answer):
    values, db = answer
    return (tuple(str(v) for v in values), tuple(str(f) for f in db))


def _uses_conc(f: Formula) -> bool:
    """True if *f* contains a concurrent composition."""
    return any(isinstance(sub, Conc) for sub in walk_formulas(f))


class SearchExhausted_impossible(RuntimeError):
    """Internal guard: the fixpoint loop bound was reached.  The table is
    finite for safe programs, so hitting this indicates a safety bug."""
