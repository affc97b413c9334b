"""Parser, printer and scheme well-formedness."""

import cProfile
from fractions import Fraction

import pytest

from phors_lab import bundled_names, load_bundled
from phors_lab.syntax import (
    INF,
    App,
    Arrow,
    Choice,
    Ground,
    NonTerm,
    NonTermDef,
    O,
    Omega,
    Param,
    ParseError,
    Proj,
    Scheme,
    SchemeError,
    Tuple_,
    Unit,
    Var,
    arg_types,
    is_finitary,
    leaves,
    order,
    parse,
    print_scheme,
    render_type,
    spine,
)


class TestParsing:
    def test_minimal_scheme(self):
        s = parse("S = e ;")
        assert s.start == "S"
        assert s.nonterminals["S"].body == Unit()

    def test_rule_with_choice_and_application(self):
        s = parse("F x = (F (F x)) [1/2] x ; S = F e ;")
        body = s.nonterminals["F"].body
        assert isinstance(body, Choice)
        assert body.bias == Fraction(1, 2)
        head, args = spine(body.left)
        assert head == NonTerm("F")
        assert args == [App(NonTerm("F"), Var("x"))]

    def test_choice_is_lowest_precedence_and_left_associative(self):
        s = parse("S = e [1/4] omega [1/3] e ;")
        body = s.nonterminals["S"].body
        assert body == Choice(
            Choice(Unit(), Fraction(1, 4), Omega()), Fraction(1, 3), Unit()
        )

    def test_decimal_bias(self):
        s = parse("S = e [0.25] omega ;")
        assert s.nonterminals["S"].body.bias == Fraction(1, 4)

    def test_declared_types(self):
        s = parse("F : !2 (!1 o -o o) -o (!1 o -o o) ; F f x = f (f x) ; S = F e ;",)
        ty = s.nonterminals["F"].ty
        assert ty == Arrow(2, Arrow(1, O, O), Arrow(1, O, O))

    def test_infinite_grade(self):
        s = parse("L : !inf (!1 o -o o) -o o ; L f = f e ; S = L S' ; S' : !1 o -o o ; S' x = x ;")
        assert s.nonterminals["L"].ty.grade == INF

    def test_default_type_is_affine(self):
        s = parse("F x y = x ; S = F e e ;")
        assert s.nonterminals["F"].ty == Arrow(1, O, Arrow(1, O, O))

    def test_tuples_and_projections(self):
        s = parse("S : o ; S = pi_2 <omega, e> ;")
        body = s.nonterminals["S"].body
        assert body.index == 2
        assert body.body.items == (Omega(), Unit())

    def test_param_and_start_directives(self):
        s = parse("param f : !1 o -o o ; Z = f e ; start Z ;")
        assert s.start == "Z"
        assert s.params["f"] == Arrow(1, O, O)
        assert not s.is_closed()

    def test_comments_ignored(self):
        s = parse("# a comment\nS = e ; # trailing\n")
        assert s.nonterminals["S"].body == Unit()


class TestParseErrors:
    @pytest.mark.parametrize(
        "src",
        [
            "S = e",  # missing ';'
            "S = ;",
            "S = x ;",  # unbound variable
            "S = F e ;",  # unknown non-terminal
            "S = e [3/2] e ;",  # bias outside [0, 1]
            "F : !1 o -o o ;",  # declaration without a rule
            "S = e ; S = omega ;",  # duplicate rule
            "F x x = x ; S = F e ;",  # duplicate parameter
            "start ;",
            "S : o^0 ; S = e ;",  # empty ground type
            "? = e ;",
        ],
    )
    def test_rejected(self, src):
        with pytest.raises(SchemeError):
            parse(src)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse("S = e ;\nT = unknown_name ;")
        assert exc.value.line == 2

    def test_declaration_without_rule_is_reported_where_it_stands(self):
        with pytest.raises(ParseError) as exc:
            parse("S = e ;\n\n  G : !1 o -o o ;")
        assert (exc.value.line, exc.value.col) == (3, 3)
        assert str(exc.value) == "3:3: declaration of 'G' has no rule"

    def test_duplicate_among_many_rules_is_reported_at_its_first_rule(self):
        # The first rule in source order whose name repeats is reported,
        # even where another name's copy comes before its own.
        lines = [f"R{i} = e ;" for i in range(3000)] + ["R9 = omega ;", "R4 = omega ;"]
        with pytest.raises(ParseError) as exc:
            parse("\n".join(lines))
        assert str(exc.value) == "5:1: duplicate non-terminal 'R4'"

    def test_start_must_be_ground(self):
        with pytest.raises(SchemeError):
            parse("S : !1 o -o o ; S x = x ;")

    def test_arity_must_match_declaration(self):
        with pytest.raises(SchemeError):
            parse("F : !1 o -o o ; F = e ; S = F e ;")


class TestLeaves:
    def test_left_to_right(self):
        body = App(
            App(NonTerm("F"), Choice(Var("x"), Fraction(1, 2), Tuple_((Unit(), Proj(1, Omega()))))),
            Param("w"),
        )
        assert list(leaves(body)) == [NonTerm("F"), Var("x"), Unit(), Omega(), Param("w")]

    def test_deep_bodies_do_not_recurse(self):
        body = Var("y")
        for _ in range(100_000):
            body = Choice(App(NonTerm("S"), Unit()), Fraction(1, 2), body)
        assert sum(1 for _ in leaves(body)) == 200_001
        scheme = Scheme({"S": NonTermDef(O, (), body)})
        with pytest.raises(SchemeError, match="unbound variable 'y'"):
            scheme.validate()


class TestRoundTrip:
    @pytest.mark.parametrize("name", bundled_names())
    def test_print_then_parse_is_identity(self, name):
        _assert_round_trip(load_bundled(name))

    # No bundled scheme has a tuple or a projection: here they stand as a
    # choice's branches, as arguments and inside each other.
    @pytest.mark.parametrize("text", [
        "P : !2 o^2 -o o ; P x = (pi_1 x) [1/2] (pi_2 x [1/4] pi_1 x) ; S = P <e, omega> ;",
        "L : !inf (!1 o^2 -o o) -o o ; L f = f <e [1/2] omega, e> ; "
        "P : !1 o^2 -o o ; P x = pi_2 x [1/3] pi_1 x ; S = L P ;",
        "T : !1 (!1 o^2 -o o) -o !1 o -o o ; T x y = x <y, y> ; "
        "H : !1 o^2 -o o ; H p = pi_1 p [1/2] pi_2 p ; S = T H e ;",
        "F : !2 o^3 -o o ; F x = pi_3 <pi_1 x, F <e, e, e>, G (pi_2 x)> ; "
        "G : !1 o -o o ; G y = y ; S = F <e, omega, e> ;",
    ])
    def test_tuples_and_projections_print_then_parse(self, text):
        _assert_round_trip(parse(text))


def _assert_round_trip(s):
    again = parse(print_scheme(s))
    assert again.start == s.start
    assert again.params == s.params
    assert {n: (d.ty, d.params, d.body) for n, d in again.nonterminals.items()} == {
        n: (d.ty, d.params, d.body) for n, d in s.nonterminals.items()
    }


class TestTypes:
    def test_order(self):
        assert order(O) == 0
        assert order(Arrow(1, O, O)) == 1
        assert order(Arrow(2, Arrow(1, O, O), O)) == 2

    def test_is_finitary(self):
        assert is_finitary(Arrow(3, O, O))
        assert not is_finitary(Arrow(INF, O, O))
        assert not is_finitary(Arrow(1, Arrow(INF, O, O), O))

    def test_arg_types_spine(self):
        ty = Arrow(2, O, Arrow(1, Ground(3), O))
        assert arg_types(ty) == [(2, O), (1, Ground(3))]

    def test_render_type_parenthesizes_argument_arrows(self):
        ty = Arrow(2, Arrow(1, O, O), Arrow(1, O, O))
        assert render_type(ty) == "!2 (!1 o -o o) -o !1 o -o o"

    def test_invalid_grade(self):
        with pytest.raises(ValueError):
            Arrow(-1, O, O)


class TestRecords:
    def test_equality_is_strict_about_the_class(self):
        assert Var("x") == Var("x")
        assert Var("x") != NonTerm("x")
        assert NonTerm("x") != Param("x")
        assert Unit() == Unit() and Unit() != Omega()
        assert Ground(1) == O and Ground(1) != Ground(2)
        assert Arrow(1, O, O) != Arrow(2, O, O)

    def test_equal_values_have_equal_hashes(self):
        def term():
            return App(NonTerm("F"), Choice(Var("x"), Fraction(1, 2), Tuple_((Unit(), Omega()))))

        assert term() is not term() and term() == term()
        assert hash(term()) == hash(term())
        assert hash(Arrow(2, Ground(3), O)) == hash(Arrow(2, Ground(3), O))
        assert len({term(), term(), Proj(1, Unit()), Proj(1, Unit())}) == 2

    def test_fields_cannot_be_assigned_or_deleted(self):
        t = App(NonTerm("F"), Unit())
        with pytest.raises(AttributeError):
            t.fun = Unit()
        with pytest.raises(AttributeError):
            del t.arg
        with pytest.raises(AttributeError):
            O.width = 2
        with pytest.raises(AttributeError):
            t.extra = 1
        assert t == App(NonTerm("F"), Unit())

    def test_repr_is_the_dataclass_form(self):
        assert repr(App(NonTerm("F"), Unit())) == "App(fun=NonTerm(name='F'), arg=Unit())"
        assert repr(Arrow(INF, O, Ground(2))) == (
            "Arrow(grade=inf, arg=Ground(width=1), result=Ground(width=2))"
        )
        assert repr(Choice(Unit(), Fraction(1, 3), Omega())) == (
            "Choice(left=Unit(), bias=Fraction(1, 3), right=Omega())"
        )

    def test_positional_patterns_match_the_fields(self):
        match Choice(Var("x"), Fraction(1, 4), Proj(2, Unit())):
            case Choice(Var(n), p, Proj(i, Unit())):
                assert (n, p, i) == ("x", Fraction(1, 4), 2)
            case _:
                pytest.fail("no match")

    def test_invalid_values_are_rejected(self):
        for make in (
            lambda: Ground(0),
            lambda: Arrow(-1, O, O),
            lambda: Arrow(Fraction(1, 2), O, O),
            lambda: Choice(Unit(), Fraction(3, 2), Unit()),
            lambda: Proj(0, Unit()),
        ):
            with pytest.raises(ValueError):
                make()

    def test_a_hash_is_computed_once_per_node(self):
        t = Unit()
        for i in range(50):
            t = App(NonTerm(f"F{i}"), t)  # 101 nodes
        profile = cProfile.Profile()
        profile.runcall(lambda: (hash(t), hash(t)))
        calls = sum(s.callcount for s in profile.getstats()
                    if getattr(s.code, "co_name", None) == "__hash__")
        assert calls == 101 + 1  # the second hash reads the root's cached value

    def test_mutable_records_get_fresh_defaults(self):
        a, b = Scheme({}), Scheme({})
        a.params["w"] = O
        assert b.params == {}
