"""Evaluator for *nonrecursive* Transaction Datalog.

Theorem 4.7 of the paper: dropping recursion collapses data complexity
from RE to below PTIME.  The reason is visible in the evaluator below --
with an acyclic call graph, top-down evaluation bottoms out after at most
``depth(call graph)`` unfoldings, and memoizing on ``(call, state)``
pairs keeps the work polynomial in the database for a fixed program.

It is the sequential engine's table, filled differently: where
:class:`repro.core.seqeval.SequentialEngine` computes the least fixpoint
before reading any answer, this engine computes a call's answers
top-down on first use -- no fixpoint is needed when no call can reach
itself.

The evaluator accepts sequential nonrecursive programs directly.  For
nonrecursive programs that *do* use concurrent composition, the engine
delegates to the small-step interpreter, which terminates on them (the
configuration space is finite because processes cannot grow), but note
that naive interleaving search is exponential in the number of branches:
the paper's polynomial bound relies on cleverer algorithms than
interleaving enumeration.  The benchmark suite measures exactly this
contrast.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from .database import Database
from .formulas import Formula
from .interpreter import Interpreter, Solution
from .parser import as_goal
from .program import Program
from .seqeval import SequentialEngine, _bind_answers, _uses_conc
from .tabling import canonical_call
from .terms import Atom
from .unify import Substitution, apply_atom

__all__ = ["NonrecursiveEngine"]


class NonrecursiveEngine(SequentialEngine):
    """Memoized top-down evaluator for nonrecursive TD.

    Use :func:`repro.core.analysis.analyze` (or the engine façade) to
    check nonrecursiveness; this class trusts its caller and would loop
    on recursive programs like any top-down evaluator.  Answers replay
    in the order they were derived, and sequences keep their textual
    join order.
    """

    _label = "nonrec"

    def __init__(
        self, program: Program, provenance=None, attribution=None, *, store=None
    ):
        super().__init__(
            program,
            join_order=False,
            provenance=provenance,
            attribution=attribution,
            store=store,
        )

    def _check_sequential(self) -> None:
        # Concurrent programs are delegated to the interpreter, not refused.
        self._fallback = (
            self._interpreter()
            if any(_uses_conc(rule.body) for rule in self.program.rules)
            else None
        )

    def _interpreter(self) -> Interpreter:
        return Interpreter(
            self.program,
            provenance=self.provenance,
            attribution=self.attribution,
            store=self.store,
        )

    def solve(
        self, goal: "str | Formula", db: Optional[Database] = None
    ) -> Iterator[Solution]:
        goal = self.program.resolve_goal(as_goal(goal))
        if self._fallback is None and not _uses_conc(goal):
            yield from super().solve(goal, db)
        else:
            yield from (self._fallback or self._interpreter()).solve(goal, db)

    def _prepare(self, goal: Formula, db: Database) -> None:
        """Nothing to precompute: :meth:`_eval_call` fills the table."""

    def _eval_call(
        self, atom: Atom, db: Database, theta: Substitution
    ) -> Iterator[Tuple[Substitution, Database]]:
        canon_atom, originals = canonical_call(apply_atom(atom, theta))
        key = (canon_atom, db)
        answers = self._table.get(key)
        obs = self._obs
        if obs.enabled:
            obs.metrics.inc("table.misses" if answers is None else "table.hits")
        if answers is None:
            prov = self._prov_rec
            call_node = None
            if prov is not None:
                parent = prov.current_parent
                call_node = prov.record(
                    "call",
                    str(canon_atom),
                    parent=parent if parent is not None else self._prov_root,
                    witness={"table": "miss"},
                )
                # The collection below runs to completion inside this
                # generator's first ``next()``, so push/pop nesting is
                # well-bracketed even across lazy consumers.
                prov.push(call_node)
            answers = {}
            try:
                self._collect(canon_atom, db, call_node, answers)
            finally:
                if prov is not None:
                    prov.pop()
            self._table[key] = answers
        yield from _bind_answers(theta, originals, answers)
