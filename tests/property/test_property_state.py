"""Property tests for the immutable-state layer (repro.core.database).

Database states keep per-predicate sorted lists and per-position
argument indexes that successor states share and update copy-on-write,
order atoms by cached sort keys, and diff by per-predicate set algebra.
Each property here pins one of those shortcuts to its naive definition.
"""

import pickle
from functools import cmp_to_key

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.database import Database
from repro.core.terms import Atom, Constant, Variable

# One arity per predicate, so every argument position is indexable.
ARITIES = {"p": 2, "q": 1, "r": 3, "s": 0}

constants = st.sampled_from([Constant(c) for c in "abcd"]) | st.integers(
    min_value=0, max_value=5
).map(Constant)


@st.composite
def facts(draw):
    pred = draw(st.sampled_from(sorted(ARITIES)))
    return Atom(pred, tuple(draw(constants) for _ in range(ARITIES[pred])))


states = st.lists(facts(), max_size=15).map(Database)
#: An update script: (True, fact) inserts, (False, fact) deletes.
scripts = st.lists(st.tuples(st.booleans(), facts()), max_size=20)


def _apply(db, script):
    for insert, fact in script:
        db = db.insert(fact) if insert else db.delete(fact)
    return db


def _warm(db):
    """Build every sorted list and argument index the state can have."""
    for pred in db.predicates():
        db._sorted_facts(pred)
        for pos in range(ARITIES[pred]):
            db._arg_index(pred, pos)


def _old_term_key(t):
    """The uncached comparator key terms were sorted by originally."""
    if isinstance(t, Variable):
        return ("v", "", t.name)
    return ("c", type(t.value).__name__, str(t.value))


def _old_compare(a, b):
    ka = (a.pred, tuple(_old_term_key(t) for t in a.args))
    kb = (b.pred, tuple(_old_term_key(t) for t in b.args))
    return (ka > kb) - (ka < kb)


def _naive_difference(db, other):
    return frozenset(f for f in db if f not in other)


class TestDifference:
    @given(states, states)
    def test_unrelated_states(self, a, b):
        assert a.difference(b) == _naive_difference(a, b)
        assert b.difference(a) == _naive_difference(b, a)

    @given(states, scripts, st.booleans())
    def test_successor_states_sharing_groups(self, db, script, warm):
        if warm:
            _warm(db)
        succ = _apply(db, script)
        assert succ.difference(db) == _naive_difference(succ, db)
        assert db.difference(succ) == _naive_difference(db, succ)

    @given(states, facts())
    def test_predicate_on_one_side_only(self, db, fact):
        without = Database(f for f in db if f.pred != fact.pred)
        with_it = without.insert(fact)
        assert with_it.difference(without) == frozenset({fact})
        assert without.difference(with_it) == frozenset()
        assert db.difference(without) == _naive_difference(db, without)


class TestSharedCaches:
    @given(states, scripts, st.integers(min_value=0, max_value=20))
    @settings(max_examples=150)
    def test_caches_match_fresh_ones(self, db, script, warm_at):
        # Warm the caches partway through, so the tail of the script
        # updates them copy-on-write instead of building them afresh.
        db = _apply(db, script[:warm_at])
        _warm(db)
        db = _apply(db, script[warm_at:])
        fresh = Database(list(db))
        for pred, cached in db._sorted.items():
            assert cached == fresh._sorted_facts(pred)
        for (pred, pos), cached in db._argidx.items():
            assert cached == fresh._arg_index(pred, pos)
            assert all(cached.values())  # no empty buckets left behind


class TestOrder:
    @given(states)
    def test_iteration_matches_uncached_comparator(self, db):
        expected = sorted(
            (f for pred in ARITIES for f in db.facts(pred)),
            key=cmp_to_key(_old_compare),
        )
        assert list(db) == expected

    @given(st.lists(facts(), max_size=15))
    def test_lt_matches_uncached_comparator(self, atoms):
        assert sorted(atoms) == sorted(atoms, key=cmp_to_key(_old_compare))

    @given(facts())
    def test_cached_key_survives_pickling(self, fact):
        key = fact._sort_key()
        data = pickle.dumps(fact)
        clone = pickle.loads(data)
        assert clone == fact and hash(clone) == hash(fact)
        assert clone._sort_key() == key
        assert b"_key" not in data  # the cache is not part of the state
