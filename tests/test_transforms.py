"""Linearization, composition, and reduction of unbounded grades."""

import math
import random
from fractions import Fraction

import pytest

from phors_lab import bundled_names, load_bundled
from phors_lab.interp import IndexCapExceeded, compile_scheme, reachable
from phors_lab.operational import enumerate_terminations
from phors_lab.solver import kleene_series
from phors_lab.syntax import INF, Arrow, O, SchemeError, arg_types, is_finitary, parse, print_scheme
from phors_lab.transforms import (
    TransformError,
    aff_type,
    compose,
    linearize,
    reduce_inf,
)
from phors_lab.typesys import check_fin, check_inf

from conftest import (
    GRADE,
    LOWER_GRADE_ARGUMENT,
    TYPING_TEXTS,
    VARIABLE_IN_GRADE_ZERO_ARGUMENT,
    random_order1_scheme,
    random_order2_scheme,
)

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


@pytest.fixture(scope="module")
def finite_grade_mutants():
    """200 distinct scheme texts that check_fin accepts: bundled,
    typing-corpus and generated order-1 and order-2 scheme texts with one
    or two grades set to 0-3."""
    count = 200
    rng = random.Random(19)
    sources = [print_scheme(load_bundled(name)) for name in bundled_names()]
    sources += TYPING_TEXTS
    sources += [print_scheme(random_order1_scheme(rng)) for _ in range(100)]
    sources += [print_scheme(random_order2_scheme(rng)) for _ in range(100)]
    found = {}
    for i in range(20 * count):
        text = sources[i % len(sources)]
        spots = [m.span(1) for m in GRADE.finditer(text)]
        if not spots:
            continue
        for lo, hi in sorted(rng.sample(spots, min(len(spots), rng.randint(1, 2))), reverse=True):
            text = text[:lo] + rng.choice("0123") + text[hi:]
        try:
            scheme = parse(text)
        except SchemeError:
            continue
        if text not in found and check_fin(scheme).accepted:
            found[text] = scheme
            if len(found) == count:
                return found
    raise AssertionError(f"only {len(found)} accepted grade mutants")


class TestLinearizeTotality:
    """On every scheme check_fin accepts, linearize either gives a scheme
    that check_fin accepts and that keeps the generating function, or
    raises TransformError."""

    @pytest.mark.parametrize(
        "text, message",
        [
            (LOWER_GRADE_ARGUMENT, "linearized scheme failed finitary checking: argument type mismatch"),
            (VARIABLE_IN_GRADE_ZERO_ARGUMENT, "rule 'G': variable 'x' occurs more often than its copy count 1"),
        ],
        ids=["lower-grade-argument", "variable-in-grade-zero-argument"],
    )
    def test_copies_that_do_not_fit_are_rejected(self, text, message):
        scheme = parse(text)
        assert check_fin(scheme).accepted
        with pytest.raises(TransformError) as exc:
            linearize(scheme)
        assert str(exc.value) == message

    def test_linearization_is_total_on_accepted_schemes(self, finite_grade_mutants):
        outcomes = {"kept": 0, "rejected": 0}
        for text, scheme in finite_grade_mutants.items():
            try:
                lin = linearize(scheme)
            except TransformError:
                outcomes["rejected"] += 1
                continue
            assert check_fin(lin).accepted, text
            try:
                got = _coeffs(lin, 6)
            except IndexCapExceeded:
                # Linear types can have index sets over the cap where the
                # source's do not; run the linear scheme instead.
                probs, budget_hit = enumerate_terminations(lin, 6)
                assert not budget_hit, text
                got = tuple(probs.get(i, F(0)) for i in range(7))
            assert _coeffs(scheme, 6) == got, text
            outcomes["kept"] += 1
        # Both outcomes occur, so neither branch goes untested.
        assert outcomes["kept"] >= 150 and outcomes["rejected"] >= 1, outcomes


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

    def test_double_composition_is_the_dyck_walk(self):
        # Plugging A for f, then B for g, closes dyck_core into the
        # fair walk from 1 to 0: it ends after 2k+1 choices with
        # probability C_k / 2^(2k+1), C_k the k-th Catalan number, and
        # never after an even number.
        actions = load_bundled("brackets")
        once = compose(load_bundled("dyck_core"), actions, "f", "A")
        twice = compose(once, actions, "g", "B")
        degree = 9
        got = _coeffs(twice, degree)
        probs, budget_hit = enumerate_terminations(twice, degree)
        assert not budget_hit
        assert got == tuple(probs.get(i, 0) for i in range(degree + 1))
        catalan = [math.comb(2 * k, k) // (k + 1) for k in range(degree)]
        assert got == tuple(
            Fraction(catalan[i // 2], 2**i) if i % 2 else 0 for i in range(degree + 1)
        )

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


@pytest.fixture(scope="module")
def unbounded_mutants():
    """200 distinct closed schemes that check_inf accepts and that have
    an unbounded grade: bundled, typing-corpus and generated order-1 and
    order-2 scheme texts with one to three grades set to inf."""
    count = 200
    rng = random.Random(18)
    sources = [print_scheme(load_bundled(name)) for name in bundled_names()]
    sources += TYPING_TEXTS
    sources += [print_scheme(random_order1_scheme(rng)) for _ in range(300)]
    sources += [print_scheme(random_order2_scheme(rng)) for _ in range(300)]
    found = {}
    for i in range(20 * count):
        text = sources[i % len(sources)]
        spots = [m.span(1) for m in GRADE.finditer(text)]
        for lo, hi in sorted(rng.sample(spots, min(len(spots), rng.randint(1, 3))), reverse=True):
            text = text[:lo] + "inf" + text[hi:]
        try:
            scheme = parse(text)
        except SchemeError:
            continue
        if (
            text not in found
            and scheme.is_closed()
            and not all(is_finitary(d.ty) for d in scheme.nonterminals.values())
            and check_inf(scheme).accepted
        ):
            found[text] = scheme
            if len(found) == count:
                return list(found.values())
    raise AssertionError(f"only {len(found)} accepted unbounded mutants")


class TestReduceInfTotality:
    """On every closed scheme check_inf accepts, the reduction succeeds,
    its result is finitary, and it keeps the generating function."""

    def test_reduction_is_total_on_accepted_schemes(self, unbounded_mutants):
        for scheme in unbounded_mutants:
            assert check_fin(reduce_inf(scheme)).accepted, print_scheme(scheme)

    def test_reduction_keeps_the_operational_coefficients(self, unbounded_mutants):
        degree = 4
        checked = 0
        for scheme in unbounded_mutants:
            red = reduce_inf(scheme)
            if not any("__" in name for name in red.nonterminals):
                continue  # no instance was made
            probs, budget_hit = enumerate_terminations(scheme, degree)
            assert not budget_hit
            want = tuple(probs.get(i, F(0)) for i in range(degree + 1))
            if sum(1 for c in want if c) < 2:
                continue  # too plain to tell a wrong reduction apart
            assert _coeffs(red, degree) == want, print_scheme(scheme)
            checked += 1
            if checked == 10:
                return
        raise AssertionError(f"only {checked} schemes with an instance and two nonzero coefficients")
