"""Linearization, composition, and reduction of unbounded grades."""

import random
from fractions import Fraction

import pytest

from phors_lab import load_bundled
from phors_lab.algebra import TruncSeries
from phors_lab.interp import compile_scheme, reachable
from phors_lab.solver import kleene_series
from phors_lab.syntax import INF, Arrow, O, arg_types, parse
from phors_lab.transforms import (
    TransformError,
    aff_type,
    compose,
    linearize,
    reduce_inf,
)
from phors_lab.typesys import check_fin

from conftest import random_order2_scheme

F = Fraction


def _coeffs(scheme, degree):
    fas = reachable(compile_scheme(scheme))
    return kleene_series(fas, degree)[fas.start].coeffs


class TestAffType:
    def test_ground_unchanged(self):
        assert aff_type(O) == O

    def test_grade_k_becomes_k_affine_copies(self):
        ty = Arrow(3, O, O)
        out = aff_type(ty)
        assert arg_types(out) == [(1, O), (1, O), (1, O)]

    def test_grade_zero_keeps_one_copy(self):
        out = aff_type(Arrow(0, O, O))
        assert arg_types(out) == [(1, O)]

    def test_nested_arguments_linearized_too(self):
        ty = Arrow(2, Arrow(2, O, O), O)
        out = aff_type(ty)
        inner = Arrow(1, O, Arrow(1, O, O))
        assert arg_types(out) == [(1, inner), (1, inner)]

    def test_infinite_grade_rejected(self):
        with pytest.raises(TransformError):
            aff_type(Arrow(INF, O, O))


class TestLinearize:
    def test_output_is_affine_and_well_typed(self):
        lin = linearize(load_bundled("eq3"))
        report = check_fin(lin)
        assert report.accepted
        for d in lin.nonterminals.values():
            assert all(g == 1 for g, _ in arg_types(d.ty))

    def test_preserves_coefficients(self):
        s = load_bundled("eq3")
        assert _coeffs(s, 12) == _coeffs(linearize(s), 12)

    def test_fixed_point_on_affine_schemes(self):
        s = load_bundled("randomwalk")
        lin = linearize(s)
        assert {n: d.ty for n, d in lin.nonterminals.items()} == {
            n: d.ty for n, d in s.nonterminals.items()
        }
        assert _coeffs(s, 8) == _coeffs(lin, 8)

    def test_size_grows_at_most_by_grade_product(self):
        s = load_bundled("eq3")
        lin = linearize(s)
        for name, d in s.nonterminals.items():
            copies = sum(
                max(int(g), 1) for g, _ in arg_types(d.ty)
            )
            assert len(lin.nonterminals[name].params) == (
                copies if d.params else 0
            )

    def test_random_order2_schemes_preserved(self):
        rng = random.Random(11)
        for _ in range(5):
            s = random_order2_scheme(rng)
            lin = linearize(s)
            assert check_fin(lin).accepted
            assert _coeffs(s, 10) == _coeffs(lin, 10)

    def test_rejects_infinitary_schemes(self):
        with pytest.raises(TransformError):
            linearize(load_bundled("dyck"))

    def test_rejects_ill_typed_schemes(self):
        with pytest.raises(TransformError):
            linearize(load_bundled("nonalg"))


class TestCompose:
    def test_plugging_both_brackets_gives_dyck_series(self):
        core = load_bundled("dyck_core")
        actions = load_bundled("brackets")
        once = compose(core, actions, "f", "A")
        twice = compose(once, actions, "g", "B")
        assert twice.is_closed()
        got = _coeffs(twice, 9)
        want = _coeffs(reduce_inf(load_bundled("dyck")), 9)
        assert got == want

    def test_composition_is_series_substitution(self):
        # Filling a parameter with a non-terminal equals substituting the
        # plug's series for the parameter series, coefficient for
        # coefficient.
        core = load_bundled("dyck_core")
        actions = load_bundled("brackets")
        degree = 9
        once = compose(core, actions, "f", "A")
        closed = compose(once, actions, "g", "B")
        got = _coeffs(closed, degree)

        fas_open = reachable(compile_scheme(core))
        fas_a = reachable(compile_scheme(actions))
        # A x = x: its series at the "uses its argument" index is the
        # constant 1, and 0 at the discarding index.
        from phors_lab.interp import ArrowPoint, GroundPoint, pm_vid

        use = ArrowPoint(((GroundPoint(1), 1),), GroundPoint(1))
        drop = ArrowPoint((), GroundPoint(1))
        params = {}
        for pname in ("f", "g"):
            for idx, val in ((use, 1), (drop, 0)):
                vid = pm_vid(pname, idx)
                if vid in fas_open.param_vids:
                    params[vid] = TruncSeries([val] + [0] * degree)
        assert kleene_series(fas_open, degree, params)[
            fas_open.start
        ].coeffs == got

    def test_renames_colliding_nonterminals(self):
        g1 = parse("param f : !1 o -o o ; A = e ; S = f A ; start S ;")
        g2 = parse("A : !1 o -o o ; A x = x ; S = A e ;")
        out = compose(g1, g2, "f", "A")
        assert "A_2" in out.nonterminals
        assert out.start == "S"

    def test_type_mismatch_rejected(self):
        g1 = parse("param f : !1 o -o o ; S = f e ;")
        g2 = parse("Z = e ;  start Z ;")
        with pytest.raises(TransformError):
            compose(g1, g2, "f", "Z")

    def test_unknown_names_rejected(self):
        g1 = load_bundled("dyck_core")
        g2 = load_bundled("brackets")
        with pytest.raises(TransformError):
            compose(g1, g2, "nope", "A")
        with pytest.raises(TransformError):
            compose(g1, g2, "f", "nope")

    def test_accepts_plug_with_smaller_grade(self):
        g1 = parse("param f : !2 o -o o ; S = f e ;")
        g2 = parse("D : !1 o -o o ; D x = x ; Z = e ; start Z ;")
        out = compose(g1, g2, "f", "D")
        assert out.is_closed()


class TestReduceInf:
    def test_dyck_reachable_instantiations(self):
        red = reduce_inf(load_bundled("dyck"))
        assert set(red.nonterminals) == {"S", "L__A_B", "A", "B"}
        assert check_fin(red).accepted

    def test_dyck_coefficients_match_random_walk(self):
        got = _coeffs(reduce_inf(load_bundled("dyck")), 9)
        want = _coeffs(load_bundled("randomwalk"), 9)
        assert got == want

    def test_finitary_scheme_unchanged(self):
        s = load_bundled("randomwalk")
        red = reduce_inf(s)
        assert set(red.nonterminals) == set(s.nonterminals)
        assert _coeffs(s, 8) == _coeffs(red, 8)

    def test_rejects_open_schemes(self):
        with pytest.raises(TransformError):
            reduce_inf(load_bundled("dyck_core"))

    def test_rejects_ill_typed_unbounded_schemes(self):
        with pytest.raises(TransformError):
            reduce_inf(load_bundled("nonalg_inf"))

    def test_nested_instantiation_through_variables(self):
        src = """
        L : !inf (!1 o -o o) -o (!1 o -o o) ;
        M : !inf (!1 o -o o) -o (!1 o -o o) ;
        I : !1 o -o o ;
        L f x = M f x [1/2] x ;
        M f x = f x ;
        I x = x ;
        S = L I e ;
        """
        red = reduce_inf(parse(src))
        assert "L__I" in red.nonterminals
        assert "M__I" in red.nonterminals
        assert check_fin(red).accepted
