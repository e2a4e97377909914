"""Recovery combinators compiled to ordinary TD rules.

The paper gets rollback for free -- a failed (sub)execution leaves no
trace -- so recovery is not an engine feature but a *programming
pattern over iso*: wrap the fragile part in an isolated attempt, and
express the retry/alternative policy as TD control flow.  Each
combinator here returns a :class:`Recovered`: a goal formula plus the
fresh rules (and token facts) that implement the policy.  Install them
with :meth:`Recovered.install` and run the goal like any other.

``retry(a, n)``
    Bounded recursion over ``iso(a)``::

        retryK(V...) <- iso(a).
        retryK(V...) <- retryK_tok(N) * N > 0 * del.retryK_tok(N) *
                        N2 is N - 1 * ins.retryK_tok(N2) * retryK(V...).

    plus one counter fact ``retryK_tok(n-1)``.  Each recursive descent
    decrements the counter, so there are at most *n* attempts; ticking
    the counter down changes the database state, which keeps the
    attempts distinct for the search's memoization (a *single*
    descending counter, so the retry adds a linear chain of states --
    not a subset lattice) *and* advances the fault injector's tick --
    transient faults expire mid-retry, which is exactly the recovery
    the chaos suite asserts.

``fallback(a, b)``
    Two rules for one fresh predicate: ``iso(a)`` or ``iso(b)``.  Under
    the paper's angelic nondeterminism either branch may commit; the
    DFS scheduler tries them in program order (*a* first), so *b* acts
    as the backup whenever *a*'s attempt fails and rolls back.

``with_budget(a, k)``
    ``iso[k](a)``: the isolated attempt runs under a private budget cap
    of *k* configurations.  Blowing the cap *fails the attempt* (which
    rolls back) instead of aborting the whole search -- the bounded
    building block the other combinators compose with.

``compensate(a, undo)``
    ``iso(a)`` with a registered compensation: once ``iso(a)`` has
    committed it is beyond rollback (relative commit is final, Section
    4 of the paper), so undoing it is the *application's* job.  The
    combinator compiles both the action and ``undoK <- iso(undo)`` and
    records ``undo_goal``; a harness that aborts a larger plan after
    the action committed runs the compensation as its own transaction
    (the classic saga discipline, here expressed in TD itself).

Combinators nest: any of them accepts a goal string, a formula, or
another :class:`Recovered` (whose rules and facts are carried along).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..core.database import Database
from ..core.formulas import (
    BinOp,
    Builtin,
    Call,
    Del,
    Formula,
    Ins,
    Isol,
    Seq,
    ordered_variables,
)
from ..core.parser import as_goal
from ..core.program import Program, Rule
from ..core.terms import Atom, Constant, Variable

__all__ = ["Recovered", "retry", "fallback", "with_budget", "compensate"]

#: Fresh-name source.  Process-local and monotonically increasing, so a
#: single run (one CLI invocation, one test) names combinators
#: deterministically: same construction order, same names.
_counter = itertools.count(1)

#: Predicates that are combinator bookkeeping (attempt tokens), not
#: application state -- strip them before checking workload invariants
#: or logging workflow events.
_RECOVERY_PRED = re.compile(r"(retry|fallback|comp)_\d+_tok$")

BodyLike = Union[str, Formula, "Recovered"]


@dataclass(frozen=True)
class Recovered:
    """A compiled recovery policy: run ``goal`` after installing
    ``rules`` (and inserting ``facts``) into the program/database."""

    goal: Formula
    rules: Tuple[Rule, ...] = ()
    facts: Tuple[Atom, ...] = ()
    undo_goal: Optional[Formula] = None

    def install(
        self, program: Program, db: Database
    ) -> Tuple[Program, Database]:
        """The program extended with the combinator rules and the
        database with the token facts inserted."""
        new_program = program.extend(self.rules) if self.rules else program
        new_db = db.insert_all(self.facts) if self.facts else db
        return new_program, new_db


def _coerce(body: BodyLike) -> Tuple[Formula, Tuple[Rule, ...], Tuple[Atom, ...]]:
    if isinstance(body, Recovered):
        return body.goal, body.rules, body.facts
    return as_goal(body), (), ()


def _fresh_head(base: str, variables) -> Atom:
    return Atom("%s_%d" % (base, next(_counter)), tuple(variables))


def retry(body: BodyLike, attempts: int, *, budget: Optional[int] = None) -> Recovered:
    """At most *attempts* isolated tries of *body* (bounded recursion).

    The free variables of *body* appear in the generated rule heads, so
    answer bindings flow out of whichever attempt commits.  *budget*
    additionally caps each attempt (``iso[budget]``), combining retry
    with ``with_budget``.
    """
    if attempts < 1:
        raise ValueError("retry needs at least one attempt, got %d" % attempts)
    goal, carried_rules, carried_facts = _coerce(body)
    variables = ordered_variables(goal)
    head = _fresh_head("retry", variables)
    token_pred = head.pred + "_tok"
    # \x01-prefixed names cannot clash with source-program variables.
    n = Variable("\x01RetryN")
    n2 = Variable("\x01RetryN2")
    rules = (
        Rule(head, Isol(goal, budget)),
        # A single descending counter: each recursive descent rewrites
        # tok(N) to tok(N-1), so attempt states form a linear chain (an
        # any-of-N token pool would let the search explore every subset
        # of leftover tokens -- exponentially many states).
        Rule(
            head,
            Seq((
                Call(Atom(token_pred, (n,))),
                Builtin(">", n, Constant(0)),
                Del(Atom(token_pred, (n,))),
                Builtin("is", n2, BinOp("-", n, Constant(1))),
                Ins(Atom(token_pred, (n2,))),
                Call(head),
            )),
        ),
    )
    facts = (
        (Atom(token_pred, (Constant(attempts - 1),)),)
        if attempts > 1
        else ()
    )
    return Recovered(
        goal=Call(head),
        rules=carried_rules + rules,
        facts=carried_facts + facts,
    )


def fallback(primary: BodyLike, alternate: BodyLike) -> Recovered:
    """Isolated attempt of *primary*, with *alternate* as the backup."""
    pgoal, prules, pfacts = _coerce(primary)
    agoal, arules, afacts = _coerce(alternate)
    variables = ordered_variables(pgoal)
    for v in ordered_variables(agoal):
        if v not in variables:
            variables.append(v)
    head = _fresh_head("fallback", variables)
    rules = (
        Rule(head, Isol(pgoal)),
        Rule(head, Isol(agoal)),
    )
    return Recovered(
        goal=Call(head),
        rules=prules + arules + rules,
        facts=pfacts + afacts,
    )


def with_budget(body: BodyLike, cap: int) -> Recovered:
    """Isolated attempt of *body* under a private budget cap of *cap*
    configurations; exceeding the cap fails (and rolls back) the
    attempt instead of aborting the search."""
    if cap < 1:
        raise ValueError("attempt budget must be positive, got %d" % cap)
    goal, rules, facts = _coerce(body)
    return Recovered(goal=Isol(goal, cap), rules=rules, facts=facts)


def compensate(body: BodyLike, undo: BodyLike) -> Recovered:
    """Isolated attempt of *body* with a compiled compensation.

    Returns a :class:`Recovered` whose ``undo_goal`` runs ``iso(undo)``
    through its own fresh predicate; the caller (e.g. the chaos
    harness, or application code) invokes it when a larger plan fails
    *after* the action committed.
    """
    agoal, arules, afacts = _coerce(body)
    ugoal, urules, ufacts = _coerce(undo)
    avars = ordered_variables(agoal)
    uvars = ordered_variables(ugoal)
    head = _fresh_head("comp", avars)
    undo_head = _fresh_head("comp_undo", uvars)
    rules = (
        Rule(head, Isol(agoal)),
        Rule(undo_head, Isol(ugoal)),
    )
    return Recovered(
        goal=Call(head),
        rules=arules + urules + rules,
        facts=afacts + ufacts,
        undo_goal=Call(undo_head),
    )
