"""Graded type checking: subtyping, the type walkers against their
`match` forms, and the two checkers on accepting and rejecting schemes."""

import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from phors_lab import load_bundled
from phors_lab.syntax import (
    INF,
    App,
    Arrow,
    Ground,
    NonTerm,
    NonTermDef,
    O,
    Scheme,
    is_finitary,
    order,
    parse,
)
from phors_lab.typesys import _synth, check_fin, check_inf, subtype

from conftest import OddTerm, OddType, random_order1_scheme, random_order2_scheme


@st.composite
def graded_types(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return Ground(draw(st.integers(1, 3)))
    return Arrow(
        draw(st.integers(0, 4)),
        draw(graded_types(depth=depth - 1)),
        draw(graded_types(depth=depth - 1)),
    )


class TestSubtype:
    @given(graded_types())
    def test_reflexive(self, t):
        assert subtype(t, t)

    @given(graded_types(), graded_types(), graded_types())
    def test_transitive(self, a, b, c):
        if subtype(a, b) and subtype(b, c):
            assert subtype(a, c)

    def test_grades_are_covariant(self):
        assert subtype(Arrow(1, O, O), Arrow(2, O, O))
        assert not subtype(Arrow(2, O, O), Arrow(1, O, O))
        assert subtype(Arrow(3, O, O), Arrow(INF, O, O))

    def test_ground_widths_are_invariant(self):
        assert not subtype(Ground(1), Ground(2))
        assert not subtype(Ground(2), Ground(1))


# The type walkers as structural `match` forms: the reference that the
# class-dispatching walkers must agree with.


def match_subtype(a, b):
    match a, b:
        case Ground(n), Ground(m):
            return n == m
        case Arrow(k, a1, r1), Arrow(h, a2, r2):
            return k <= h and match_subtype(a1, a2) and match_subtype(r1, r2)
    return False


def match_is_finitary(ty):
    match ty:
        case Ground():
            return True
        case Arrow(g, a, r):
            return g != INF and match_is_finitary(a) and match_is_finitary(r)
    raise TypeError(ty)


def match_order(ty):
    match ty:
        case Ground():
            return 0
        case Arrow(_, a, r):
            return max(match_order(a) + 1, match_order(r))
    raise TypeError(ty)


GRADES = (0, 1, 2, 3, INF)


def random_type(rng, depth=4):
    if depth == 0 or rng.random() < 0.35:
        return Ground(rng.randint(1, 3))
    return Arrow(rng.choice(GRADES), random_type(rng, depth - 1), random_type(rng, depth - 1))


def rebuilt(ty, rng, nudge):
    """A copy of ty built node by node, each grade redrawn with
    probability nudge."""
    if isinstance(ty, Ground):
        return Ground(ty.width)
    grade = rng.choice(GRADES) if rng.random() < nudge else ty.grade
    return Arrow(grade, rebuilt(ty.arg, rng, nudge), rebuilt(ty.result, rng, nudge))


class TestWalkersAgreeWithMatchForms:
    def test_random_pairs(self):
        rng = random.Random(36)
        outcomes = Counter()
        for i in range(2400):
            a = random_type(rng)
            b = (
                a,  # the same object
                rebuilt(a, rng, 0),  # equal, built separately
                rebuilt(a, rng, 0.3),  # the same shape, some grades redrawn
                random_type(rng),
            )[i % 4]
            for x, y in ((a, b), (b, a)):
                got = subtype(x, y)
                assert got == match_subtype(x, y), (x, y)
                outcomes[i % 4, got] += 1
            for ty in (a, b):
                assert is_finitary(ty) == match_is_finitary(ty), ty
                assert order(ty) == match_order(ty), ty
        # Every kind of pair reaches subtype's arrow loop, not just the
        # `is` shortcut, and the redrawn ones go both ways.
        assert outcomes[1, True] == 1200
        assert outcomes[2, True] > 100 and outcomes[2, False] > 100
        assert outcomes[3, True] > 0


class TestUnknownClassesRaise:
    @pytest.mark.parametrize("ty", [OddType(), Arrow(1, OddType(), O), Arrow(1, O, OddType())])
    def test_type_walkers(self, ty):
        with pytest.raises(TypeError):
            order(ty)
        with pytest.raises(TypeError):
            is_finitary(ty)

    @pytest.mark.parametrize("body", [OddTerm(), App(NonTerm("F"), OddTerm())])
    def test_synth(self, body):
        scheme = Scheme({"F": NonTermDef(Arrow(1, O, O), ("x",), body)})
        with pytest.raises(TypeError):
            _synth(scheme, body, {"x": O}, set())
        with pytest.raises(TypeError):
            check_fin(scheme)


class TestCheckFin:
    def test_accepts_the_order2_repetition_scheme(self):
        report = check_fin(load_bundled("eq3"))
        assert report.accepted
        h = report.derived["H"]
        # H needs its functional input exactly twice.
        assert subtype(h, Arrow(2, Arrow(1, O, O), Arrow(1, O, O)))

    def test_rejects_self_composition(self):
        report = check_fin(load_bundled("nonalg"))
        assert not report.accepted
        assert any("grade overflow" in d.message for d in report.diagnostics)

    def test_grade_overflow_reports_usage(self):
        report = check_fin(load_bundled("nonalg"))
        diag = next(d for d in report.diagnostics if "grade overflow" in d.message)
        assert "4" in diag.message and "2" in diag.message

    def test_rejects_infinite_grades(self):
        report = check_fin(load_bundled("dyck"))
        assert not report.accepted

    def test_rejects_open_schemes(self):
        report = check_fin(load_bundled("dyck_core"))
        assert not report.accepted

    def test_grade_zero_argument_is_unusable(self):
        s = parse("F : !0 o -o o ; F x = x ; S = F e ;")
        assert not check_fin(s).accepted
        s2 = parse("F : !0 o -o o ; F x = e ; S = F e ;")
        assert check_fin(s2).accepted

    def test_choice_requires_ground_operands(self):
        s = parse(
            "F : !1 (!1 o -o o) -o o ; I : !1 o -o o ; "
            "F f = (f [1/2] f) e ; I x = x ; S = F I ;"
        )
        assert not check_fin(s).accepted

    def test_usage_of_choice_is_max_not_sum(self):
        # x occurs once in each branch; only one branch runs.
        s = parse("F : !1 o -o o ; F x = x [1/2] x ; S = F e ;")
        assert check_fin(s).accepted

    def test_application_scales_argument_usage(self):
        # G uses its argument twice, so passing x through G costs 2.
        src = (
            "G : !2 o -o o ; G y = y [1/2] y ; "  # usage max = 1...
            "S = G e ;"
        )
        s = parse(src)
        assert check_fin(s).accepted

    def test_nested_scaling_overflows(self):
        s = parse(
            "G : !2 o -o o ; F : !1 o -o o ; "
            "G y = (D y) [1/2] e ; D : !2 o -o o ; D y = D y ; "
            "F x = G (D x) ; S = F e ;"
        )
        # x is used 2 * 2 = 4 times through two grade-2 positions.
        report = check_fin(s)
        assert not report.accepted
        assert any("grade overflow" in d.message for d in report.diagnostics)

    def test_random_generated_schemes_accepted(self):
        rng = random.Random(2024)
        for _ in range(25):
            assert check_fin(random_order1_scheme(rng)).accepted
        for _ in range(25):
            assert check_fin(random_order2_scheme(rng)).accepted


class TestCheckInf:
    def test_accepts_unbounded_nonterminal_spines(self):
        assert check_inf(load_bundled("dyck")).accepted

    def test_conservative_over_finitary(self):
        for name in ("eq3", "randomwalk", "geometric", "chain"):
            scheme = load_bundled(name)
            assert check_fin(scheme).accepted
            assert check_inf(scheme).accepted

    def test_rejects_compound_unbounded_argument(self):
        report = check_inf(load_bundled("nonalg_inf"))
        assert not report.accepted
        assert any(
            "neither a parameter nor a non-terminal" in d.message
            for d in report.diagnostics
        )

    def test_unbounded_bindings_must_be_a_prefix(self):
        s = parse(
            "L : !1 o -o !inf (!1 o -o o) -o o ; "
            "I : !1 o -o o ; I x = x ; "
            "L x f = f x ; S = L e I ;"
        )
        report = check_inf(s)
        assert not report.accepted
        assert any("prefix" in d.message.lower() or "unbounded abstraction"
                   in d.message for d in report.diagnostics)

    def test_unbounded_variable_may_be_passed_along(self):
        s = parse(
            "L : !inf (!1 o -o o) -o o ; "
            "M : !inf (!1 o -o o) -o o ; "
            "L f = M f ; M f = f e ; S = L I ; "
            "I : !1 o -o o ; I x = x ;"
        )
        assert check_inf(s).accepted

    def test_report_serializes(self):
        import json

        report = check_inf(load_bundled("nonalg_inf"))
        data = json.loads(report.to_json())
        assert data["status"] == "rejected"
        assert data["system"] == "infinitary"
        assert data["diagnostics"]
