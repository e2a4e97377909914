"""Unit tests for rulebases: resolution, validation, renaming."""

import re

import pytest

from repro.core.formulas import Call, Ins, Seq, Test, Truth, apply_subst
from repro.core.parser import parse_goal, parse_program, parse_rules
from repro.core.program import Program, ProgramError, Rule
from repro.core.terms import Atom, Variable, atom
from repro.core.unify import apply_atom, unify_atoms


class TestResolution:
    def test_base_atoms_become_tests(self):
        prog = parse_program("p(X) <- q(X) * r(X).")
        (rule,) = prog.rules
        assert all(isinstance(part, Test) for part in rule.body.parts)

    def test_derived_atoms_stay_calls(self):
        prog = parse_program("p(X) <- helper(X).\nhelper(X) <- q(X).")
        rule = prog.rules_for(("p", 1))[0]
        assert isinstance(rule.body, Call)

    def test_update_targets_declared_base(self):
        prog = parse_program("p <- ins.log(a).")
        assert "log" in prog.schema
        assert ("log", 1) in prog.schema.signatures()

    def test_goal_resolution(self):
        prog = parse_program("p(X) <- q(X).")
        from repro.core.parser import parse_goal

        goal = prog.resolve_goal(parse_goal("p(a) * q(b)"))
        assert isinstance(goal.parts[0], Call)
        assert isinstance(goal.parts[1], Test)

    def test_same_name_different_arity_are_distinct(self):
        prog = parse_program("p(X) <- p(X, a).")
        assert prog.is_derived(("p", 1))
        assert prog.is_base(("p", 2))


class TestValidation:
    def test_cannot_update_derived(self):
        with pytest.raises(ProgramError):
            parse_program("p <- q.\nq <- true.\nr <- ins.p.")

    def test_strict_mode_rejects_unknown(self):
        with pytest.raises(ProgramError):
            parse_program("p <- mystery(X).", strict=True)

    def test_strict_mode_accepts_declared(self):
        prog = parse_program("#base mystery/1.\np <- mystery(X).", strict=True)
        assert prog.is_base(("mystery", 1))


class TestRuleRenaming:
    def test_rename_is_consistent(self):
        (rule,) = parse_rules("p(X, Y) <- q(X) * r(Y) * s(X).")
        renamed = rule.rename("_7")
        head_vars = list(renamed.head.variables())
        assert head_vars[0].name == "X_7"
        # the body uses the same renamed variables
        from repro.core.formulas import formula_variables

        body_vars = {v.name for v in formula_variables(renamed.body)}
        assert body_vars == {"X_7", "Y_7"}

    def test_fresh_rules_unique_per_unfold(self):
        prog = parse_program("p(X) <- q(X).")
        r1 = next(prog.fresh_rules_for(("p", 1)))
        r2 = next(prog.fresh_rules_for(("p", 1)))
        assert r1.variables() != r2.variables()


class TestProgramAPI:
    def test_len_iter_str(self):
        prog = parse_program("p <- q.\nr <- s.")
        assert len(prog) == 2
        assert len(list(prog)) == 2
        text = str(prog)
        assert "p <- q." in text

    def test_rules_for_program_order(self):
        prog = parse_program("p <- a.\np <- b.\np <- c.")
        bodies = [str(r.body) for r in prog.rules_for(("p", 0))]
        assert bodies == ["a", "b", "c"]

    def test_extend_is_pure(self):
        prog = parse_program("p <- q.")
        bigger = prog.extend(parse_rules("r <- s."))
        assert len(prog) == 1
        assert len(bigger) == 2
        assert bigger.is_derived(("r", 0))

    def test_derived_signatures_sorted(self):
        prog = parse_program("zz <- a.\naa <- b.")
        assert prog.derived_signatures() == (("aa", 0), ("zz", 0))

    def test_facts_for_derived_predicates(self):
        prog = parse_program("axiom(a).\naxiom(b).\nok <- axiom(X).")
        assert prog.is_derived(("axiom", 1))
        assert len(prog.rules_for(("axiom", 1))) == 2


class TestMatchRules:
    """Indexed call dispatch against the naive scan it memoizes."""

    PROGRAM = """
    t(a, X) <- ins.r(X).
    t(X, X) <- ins.s(X).
    t(X, Y) <- ins.u(X, Y).
    t(b, c) <- ins.v.
    move(F, T, Amt) <- ins.w(F, T, Amt).
    """

    @staticmethod
    def _render(matches, call):
        return [
            re.sub(
                r"#\d+",
                "#",
                "%s / %s" % (apply_atom(call, theta), apply_subst(rule.body, theta)),
            )
            for rule, theta in matches
        ]

    def _naive(self, prog, call):
        matches = []
        for rule in prog.fresh_rules_for(call.signature):
            theta = unify_atoms(rule.head, call)
            if theta is not None:
                matches.append((rule, theta))
        return matches

    @pytest.mark.parametrize(
        "call",
        [
            "t(a, a)", "t(a, b)", "t(b, b)", "t(b, c)", "t(c, d)", "t(1, 1)",
            "t(X, a)", "t(X, X)", "t(X, Y)", "t(a, Y)", "t(b, Y)",
            "move(a1, a2, 5)", "move(a1, a1, 5)", "move(X, a2, X)",
        ],
    )
    def test_dispatch_matches_naive_scan(self, call):
        prog = parse_program(self.PROGRAM)
        atom_ = parse_goal(call).atom
        for _ in range(2):  # a cold memo, then a warm one
            assert self._render(prog.match_rules(atom_), atom_) == self._render(
                self._naive(prog, atom_), atom_
            )

    def test_distinct_ground_calls_share_one_memo_entry(self):
        prog = parse_program(self.PROGRAM)
        sizes = set()
        for i in range(500):
            call = atom("move", "a%d" % i, "a%d" % (i + 1), i % 40)
            ((_, theta),) = prog.match_rules(call)
            assert sorted(str(t) for t in theta.values()) == sorted(
                str(t) for t in call.args
            )
            sizes.add(len(prog._match_cache))
        assert sizes == {1}

    def test_inspected_positions_keep_their_constants(self):
        prog = parse_program(self.PROGRAM)
        for call in ("t(a, b)", "t(c, b)", "t(c, d)", "t(b, c)"):
            list(prog.match_rules(parse_goal(call).atom))
        # t/2 heads test both positions (constants, and X repeated in
        # t(X, X)), so every distinct ground call is its own mode.
        assert len(prog._match_cache) == 4
