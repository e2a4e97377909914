"""Property tests for the search's substitution-aware shortcuts.

The depth-first simulator classifies each enumerated step as dead,
blocked or ready *before* building its successor: ``dead_config`` and
``frontier_blocked`` take the step's substitution and answer as if it
had been applied.  And the canonical keys behind the search memos are
assembled from per-node summaries (including each concurrent branch's
sort render) cached on the immutable formula nodes.  Each property here
pins one of those shortcuts to its naive definition.
"""

from unittest import mock

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core import transitions
from repro.core.database import Database
from repro.core.formulas import (
    BinOp,
    Builtin,
    Call,
    Del,
    Ins,
    Isol,
    Neg,
    Test,
    TRUTH,
    apply_subst,
    conc,
    seq,
)
from repro.core.terms import Atom, Constant, Variable
from repro.core.transitions import (
    _pure_read_satisfiable,
    canonical_key,
    dead_config,
    frontier_blocked,
)

# -- strategies -------------------------------------------------------------

PREDS = {"p": 1, "q": 2, "r": 0}
VARS = [Variable(v) for v in ("X", "Y", "Z", "W")]

numbers = st.integers(min_value=0, max_value=4).map(Constant)
constants = st.sampled_from([Constant(c) for c in "ab"]) | numbers
variables = st.sampled_from(VARS)
terms = constants | variables


@st.composite
def atoms(draw, ground=False):
    pred = draw(st.sampled_from(sorted(PREDS)))
    pool = constants if ground else terms
    return Atom(pred, tuple(draw(pool) for _ in range(PREDS[pred])))


databases = st.lists(atoms(ground=True), max_size=10).map(Database)
footprints = st.frozensets(st.sampled_from(sorted(PREDS)))

#: Arithmetic over numbers and variables; a symbol operand makes the
#: evaluation raise, which both forms must treat alike.
exprs = st.recursive(
    numbers | variables | constants,
    lambda inner: st.builds(BinOp, st.sampled_from("+-*"), inner, inner),
    max_leaves=3,
)


@st.composite
def builtins(draw):
    op = draw(st.sampled_from(["is", "=", "!=", "<", "<=", ">", ">="]))
    if op == "is":
        # A BinOp left side is malformed (evaluation raises).
        left = draw(variables | numbers | exprs)
        return Builtin("is", left, draw(exprs))
    if op in ("=", "!="):
        return Builtin(op, draw(terms), draw(terms))
    return Builtin(op, draw(numbers | variables), draw(exprs))


leaves = st.one_of(
    atoms().map(Test),
    atoms().map(Neg),
    atoms().map(Ins),
    atoms().map(Del),
    atoms().map(Call),
    builtins(),
    st.just(TRUTH),
)

#: Bodies of pure-read isolation (tests, absence tests, builtins in
#: sequence) -- the ones ``frontier_blocked`` decides exactly.
pure_bodies = st.lists(
    st.one_of(atoms().map(Test), atoms().map(Neg), builtins()),
    min_size=1,
    max_size=4,
).map(lambda parts: seq(*parts))


def _composites(inner):
    parts = st.lists(inner, min_size=2, max_size=3)
    return st.one_of(
        parts.map(lambda ps: seq(*ps)),
        parts.map(lambda ps: conc(*ps)),
        inner.map(Isol),
        pure_bodies.map(Isol),
    )


formulas = st.recursive(leaves, _composites, max_leaves=10)


@st.composite
def substitutions(draw):
    """Acyclic, possibly non-idempotent substitutions: a variable maps
    to a constant or to a variable later in a drawn order, so chains
    like ``X -> Y -> a`` occur and every walk terminates."""
    order = draw(st.permutations(VARS))
    out = {}
    for i, v in enumerate(order):
        later = order[i + 1 :]
        kinds = ["free", "const", "var"] if later else ["free", "const"]
        choice = draw(st.sampled_from(kinds))
        if choice == "const":
            out[v] = draw(constants)
        elif choice == "var":
            out[v] = draw(st.sampled_from(later))
    return out


def _outcome(fn, *args):
    """A check's verdict, or the type of what it raised (a comparison
    of a symbol with a number raises the same way in both forms)."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc)


# -- substitution-aware pruning checks ----------------------------------------


class TestSubstitutionAwareChecks:
    @settings(max_examples=300, deadline=None)
    @given(formulas, databases, footprints, footprints, substitutions())
    def test_dead_config_equals_applied(self, proc, db, ins, dels, theta):
        assert _outcome(dead_config, proc, db, ins, dels, theta) == _outcome(
            dead_config, apply_subst(proc, theta), db, ins, dels
        )

    @settings(max_examples=300, deadline=None)
    @given(formulas, databases, substitutions())
    def test_frontier_blocked_equals_applied(self, proc, db, theta):
        assert _outcome(frontier_blocked, proc, db, theta) == _outcome(
            frontier_blocked, apply_subst(proc, theta), db
        )

    @settings(max_examples=200, deadline=None)
    @given(pure_bodies, databases, substitutions())
    def test_pure_read_satisfiable_equals_applied(self, body, db, theta):
        assert _outcome(_pure_read_satisfiable, body, db, theta) == _outcome(
            _pure_read_satisfiable, apply_subst(body, theta), db
        )

    @settings(max_examples=100, deadline=None)
    @given(formulas, databases, footprints, footprints)
    def test_empty_substitution_is_the_default(self, proc, db, ins, dels):
        assert _outcome(dead_config, proc, db, ins, dels, {}) == _outcome(
            dead_config, proc, db, ins, dels
        )
        assert _outcome(frontier_blocked, proc, db, {}) == _outcome(
            frontier_blocked, proc, db
        )

    def test_covers_bound_and_unbound_builtins(self):
        x, y = Variable("X"), Variable("Y")
        db = Database()
        guard = Builtin(">", x, Constant(2))
        assert not dead_config(guard, db, frozenset(), frozenset())  # unbound
        assert dead_config(guard, db, frozenset(), frozenset(), {x: Constant(1)})
        assert not dead_config(guard, db, frozenset(), frozenset(), {x: Constant(3)})
        bind = Builtin("is", y, BinOp("+", x, Constant(1)))
        assert frontier_blocked(bind, db)  # right side unbound
        assert not frontier_blocked(bind, db, {x: Constant(1)})
        assert frontier_blocked(bind, db, {x: Constant(1), y: Constant(5)})
        chained = {x: y, y: Constant("a")}
        assert not frontier_blocked(Ins(Atom("p", (x,))), db, chained)


# -- cached canonical keys ------------------------------------------------------


def _uncached_key(proc, sort_conc):
    """``canonical_key`` recomputed from scratch: no node summary and no
    branch sort render is read from (or written to) a node cache."""

    def pair(f, sort):
        return transitions._ckey_build(f, sort)

    def branch(f):
        built = transitions._ckey_build(f, True)
        return repr(built[0]), built

    with mock.patch.object(transitions, "_ckey_pair", pair), mock.patch.object(
        transitions, "_ckey_branch", branch
    ):
        return transitions._ckey_build(proc, sort_conc)[0]


def _subtrees(f):
    yield f
    for child in getattr(f, "parts", ()):
        yield from _subtrees(child)
    if isinstance(f, Isol):
        yield from _subtrees(f.body)


class TestCachedCanonicalKeys:
    @settings(max_examples=200, deadline=None)
    @given(formulas, substitutions(), st.booleans(), st.randoms())
    def test_cached_key_equals_uncached(self, proc, theta, sort_conc, rnd):
        # Warm the caches the way a search does: key some subtrees on
        # their own, then a successor that shares every untouched node.
        subtrees = list(_subtrees(proc))
        for sub in rnd.sample(subtrees, k=len(subtrees) // 2):
            canonical_key(sub, sort_conc)
        succ = apply_subst(proc, theta)
        for tree in (succ, proc, conc(proc, succ)):
            assert canonical_key(tree, sort_conc) == _uncached_key(tree, sort_conc)
