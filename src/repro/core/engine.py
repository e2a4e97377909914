"""Engine façade: pick the weakest adequate evaluator for a program.

The paper's complexity map is prescriptive for implementations: the less
expressive the sublanguage, the better the evaluation strategy available.
:func:`select_engine` runs the classifier and routes:

========================  ===================================  ==============
sublanguage               engine                               termination
========================  ===================================  ==============
query-only TD             tabled sequential evaluator          decision proc.
nonrecursive TD           sequential evaluator, top-down mode  decision proc.
fully bounded TD          small-step exhaustive search         decision proc.
sequential TD             tabled sequential evaluator          decision proc.
full TD                   small-step BFS                       semi-decision
========================  ===================================  ==============

The analytic rows share one table from (call, input state) to
(answers, output state): the tabled evaluator
(:class:`~repro.core.seqeval.SequentialEngine`) fills it as a least
fixpoint, its top-down mode
(:class:`~repro.core.nonrec.NonrecursiveEngine`) on first use, which
suffices when the call graph is acyclic.

:class:`Engine` wraps the result with a uniform API (``succeeds``,
``solve``, ``final_databases``, ``simulate``) so examples, tests and
benchmarks do not care which evaluator runs underneath.  Traces are a
small-step notion, so ``simulate`` and ``resume`` over an analytic
backend run a small-step interpreter built per call with the
``select_engine`` settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Set, Union

from ..obs.context import Instrumentation, active
from .analysis import Analysis, Sublanguage, analyze
from .database import Database
from .errors import ReproError
from .formulas import Formula
from .interpreter import Checkpoint, Deadline, Execution, Interpreter, Solution
from .nonrec import NonrecursiveEngine
from .parser import as_goal
from .program import Program
from .seqeval import SequentialEngine

__all__ = ["Engine", "select_engine", "solve"]

_Backend = Union[Interpreter, SequentialEngine]


def _annotate(exc: ReproError, goal: Union[str, Formula]) -> ReproError:
    """Stamp the user's goal on an escaping engine error.

    The façade re-raises the *same* exception object, never a rewrap, so
    the structured fields set deeper down (``spent``, ``checkpoint``)
    survive the crossing; only a missing ``goal`` is filled in.
    """
    if getattr(exc, "goal", None) is None:
        exc.goal = goal
    return exc

#: Sublanguages for which the selected procedure is guaranteed to halt.
_DECIDABLE = {
    Sublanguage.QUERY_ONLY,
    Sublanguage.NONRECURSIVE,
    Sublanguage.FULLY_BOUNDED,
    Sublanguage.SEQUENTIAL,
}


@dataclass
class Engine:
    """A program bundled with the evaluator chosen for its sublanguage."""

    program: Program
    backend: _Backend
    analysis: Analysis
    sublanguage: Sublanguage
    #: The ``select_engine`` small-step settings, kept for the
    #: interpreters :meth:`_interpreter` builds over analytic backends.
    _max_configs: int = field(default=200_000, init=False, repr=False)
    _tabling: bool = field(default=True, init=False, repr=False)

    @property
    def decidable(self) -> bool:
        """True when evaluation is guaranteed to terminate."""
        return self.sublanguage in _DECIDABLE

    def _goal(self, goal: Union[str, Formula]) -> Formula:
        return as_goal(goal)

    def _describe(self) -> Instrumentation:
        """Stamp the active instrumentation (if any) with what runs here:
        backend class, sublanguage, decidability.  Returns the bundle so
        callers can hang timers off it."""
        obs = active()
        if obs.enabled:
            obs.metrics.set_info("engine.backend", type(self.backend).__name__)
            obs.metrics.set_info("engine.sublanguage", self.sublanguage.value)
            obs.metrics.set_info("engine.decidable", str(self.decidable).lower())
        return obs

    def _timed(self, obs: Instrumentation, goal: Union[str, Formula], run):
        """``run()``, accruing wall time per sublanguage when
        instrumented.  Engine errors cross this façade as the same
        exception object (``spent``/``checkpoint`` intact), with the
        user's *goal* stamped on."""
        try:
            if not obs.enabled:
                return run()
            with obs.metrics.timer("time.%s" % self.sublanguage.name.lower()):
                return run()
        except ReproError as exc:
            raise _annotate(exc, goal)

    def _interpreter(self) -> Interpreter:
        """The small-step interpreter for ``simulate``/``resume``: the
        backend itself, or -- over an analytic backend -- a fresh one per
        call with the ``select_engine`` settings.  Fresh, because a
        persistent one would carry a warm answer table across unrelated
        store states."""
        backend = self.backend
        if isinstance(backend, Interpreter):
            return backend
        return Interpreter(
            self.program,
            max_configs=self._max_configs,
            provenance=backend.provenance,
            attribution=backend.attribution,
            store=backend.store,
            tabling=self._tabling,
        )

    def succeeds(self, goal: Union[str, Formula], db: Optional[Database] = None) -> bool:
        """Does some execution of *goal* from *db* commit?"""
        obs = self._describe()
        return self._timed(
            obs, goal, lambda: self.backend.succeeds(self._goal(goal), db)
        )

    def solve(
        self,
        goal: Union[str, Formula],
        db: Optional[Database] = None,
        *,
        deadline: Union[None, float, Deadline] = None,
    ) -> Iterator[Solution]:
        """Enumerate (answer bindings, final state) pairs.

        *deadline* arms a cooperative stop on the small-step backend
        (full/bounded TD); the analytic backends are decision procedures
        and ignore it.  With ``db=None`` the initial state comes from
        the backend's attached store (``store=`` on
        :func:`select_engine`, or the ambient provider).
        """
        obs = self._describe()
        return self._timed_solve(goal, db, obs, deadline)

    def _timed_solve(
        self,
        goal: Union[str, Formula],
        db: Optional[Database],
        obs: Instrumentation,
        deadline: Union[None, float, Deadline] = None,
    ) -> Iterator[Solution]:
        """Enumerate solutions; the timer covers time spent *inside* the
        backend iterator, not whatever the consumer does between
        answers."""
        if deadline is not None and isinstance(self.backend, Interpreter):
            inner = self.backend.solve(self._goal(goal), db, deadline=deadline)
        else:
            inner = self.backend.solve(self._goal(goal), db)
        while True:
            try:
                solution = self._timed(obs, goal, lambda: next(inner))
            except StopIteration:
                return
            yield solution

    def resume(self, checkpoint: Checkpoint, **kwargs) -> Iterator[Solution]:
        """Continue an interrupted small-step search (see
        :meth:`Interpreter.resume`); checkpoints only come from the
        small-step backend, so an interpreter always handles this."""
        return self._interpreter().resume(checkpoint, **kwargs)

    def final_databases(
        self, goal: Union[str, Formula], db: Optional[Database] = None
    ) -> Set[Database]:
        """All states the transaction can leave the database in."""
        obs = self._describe()
        return self._timed(
            obs, goal, lambda: self.backend.final_databases(self._goal(goal), db)
        )

    def simulate(
        self,
        goal: Union[str, Formula],
        db: Optional[Database] = None,
        *,
        seed: Optional[int] = None,
        max_depth: int = 100_000,
        deadline: Union[None, float, Deadline] = None,
    ) -> Optional[Execution]:
        """One successful execution with its full action trace.

        Simulation always uses the small-step scheduler (traces are a
        small-step notion), regardless of the analytic backend.  When a
        store is attached the winning trace is committed to it (see
        :meth:`Interpreter.simulate`).
        """
        interp = self._interpreter()
        obs = self._describe()
        return self._timed(
            obs,
            goal,
            lambda: interp.simulate(
                self._goal(goal), db, seed=seed, max_depth=max_depth,
                deadline=deadline,
            ),
        )


def select_engine(
    program: Program,
    goal: Union[str, Formula, None] = None,
    *,
    max_configs: int = 200_000,
    provenance=None,
    attribution=None,
    store=None,
    tabling: bool = True,
) -> Engine:
    """Classify *program* (and *goal*, if given) and build the matching
    engine.

    ``max_configs`` bounds the small-step searches: full and fully
    bounded TD, and ``simulate``/``resume`` on any program.  The
    big-step evaluators terminate unconditionally and ignore it.
    ``provenance`` attaches a derivation recorder (see
    :mod:`repro.obs.provenance`), ``attribution`` a cost attributor
    (see :mod:`repro.obs.hotspots`), and ``store`` a storage backend
    (see :class:`repro.store.Store` and docs/STORAGE.md) to whichever
    backend is selected.  ``tabling=False`` disables answer tabling on
    the small-step searches (docs/PERFORMANCE.md; the analytic backends
    table by construction).  Options after ``goal`` are keyword-only.
    """
    if goal is not None:
        goal = as_goal(goal)
    analysis = analyze(program, goal)
    sub = analysis.classify()
    backend: _Backend
    if sub in (Sublanguage.QUERY_ONLY, Sublanguage.SEQUENTIAL):
        backend = SequentialEngine(
            program, provenance=provenance, attribution=attribution, store=store
        )
    elif sub is Sublanguage.NONRECURSIVE:
        backend = NonrecursiveEngine(
            program, provenance=provenance, attribution=attribution, store=store
        )
    else:
        backend = Interpreter(
            program,
            max_configs=max_configs,
            provenance=provenance,
            attribution=attribution,
            store=store,
            tabling=tabling,
        )
    engine = Engine(
        program=program, backend=backend, analysis=analysis, sublanguage=sub
    )
    engine._max_configs = max_configs
    engine._tabling = tabling
    return engine


def solve(
    program: Program,
    goal: Union[str, Formula],
    db: Optional[Database] = None,
    *,
    max_configs: int = 200_000,
    provenance=None,
    store=None,
    tabling: bool = True,
) -> Iterator[Solution]:
    """The blessed one-call entry point: classify, pick an engine, solve.

    Equivalent to ``select_engine(program, goal).solve(goal, db)`` --
    *goal* may be a formula or concrete syntax.  Use :func:`select_engine`
    directly when reusing one engine across many goals or databases.
    ``store=`` attaches a storage backend (docs/STORAGE.md); with
    ``db=None`` the store supplies the initial state.
    """
    engine = select_engine(
        program,
        goal,
        max_configs=max_configs,
        provenance=provenance,
        store=store,
        tabling=tabling,
    )
    return engine.solve(goal, db)
