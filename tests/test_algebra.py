"""Polynomials: semiring laws and evaluation coherence."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phors_lab.algebra import REGISTRY, Poly

X = REGISTRY.intern(("test", "x"))
Y = REGISTRY.intern(("test", "y"))
Z = REGISTRY.intern(("test", "z"))

rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=16
)


@st.composite
def polys(draw, vids=(X, Y, Z), max_terms=5, max_exp=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = []
        for vid in vids:
            e = draw(st.integers(0, max_exp))
            if e:
                mono.append((vid, e))
        terms[tuple(mono)] = draw(rationals)
    return Poly(terms)


class TestPolySemiring:
    @given(polys(), polys(), polys())
    def test_add_associative_commutative(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p

    @given(polys(), polys(), polys())
    @settings(max_examples=50)
    def test_mul_associative_and_distributive(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(polys())
    def test_identities(self, p):
        assert p + Poly() == p
        assert p * Poly.const(1) == p
        assert not p * Poly()

    def test_no_zero_terms_stored(self):
        p = Poly.var(X) + Poly.const(-1) * Poly.var(X)
        assert not p and not p.terms


class TestPolyEval:
    @given(polys(), polys(), rationals, rationals, rationals)
    @settings(max_examples=50)
    def test_eval_is_a_homomorphism(self, p, q, a, b, c):
        env = {X: a, Y: b, Z: c}
        assert (p + q).eval(env) == p.eval(env) + q.eval(env)
        assert (p * q).eval(env) == p.eval(env) * q.eval(env)

    @given(polys(), rationals, rationals, rationals)
    def test_substitute_then_eval(self, p, a, b, c):
        env = {X: a, Y: b, Z: c}
        partial = p.substitute({X: a})
        assert X not in partial.variables()
        assert partial.eval(env) == p.eval(env)

    @given(polys(vids=(Y, Z)), rationals)
    def test_substitute_absent_variable_keeps_p(self, p, a):
        assert p.substitute({X: a}) == p

    @given(polys(), rationals, rationals, rationals)
    def test_substitute_every_variable_gives_the_value(self, p, a, b, c):
        env = {X: a, Y: b, Z: c}
        full = p.substitute(env)
        assert full.variables() == set()
        assert full.constant_term() == p.eval(env)

    def test_substitute_drops_cancelled_sums(self):
        x, y = Poly.var(X), Poly.var(Y)
        p = Poly.const(2) * x * y + Poly.const(-4) * y + Poly.const(3)
        q = p.substitute({X: Fraction(2)})
        assert q == Poly.const(3) and list(q.terms) == [()]

    @given(polys(), polys(vids=(Y, Z)), st.integers(0, 4))
    @settings(max_examples=50)
    def test_compose_is_truncated_substitution(self, p, q, n):
        # p with q put for X, expanded in full, then every monomial of
        # degree above n in Z dropped.
        full = Poly()
        for m, c in p.terms.items():
            term = Poly({tuple(ve for ve in m if ve[0] != X): c})
            for _ in range(dict(m).get(X, 0)):
                term = term * q
            full = full + term
        want = Poly({m: c for m, c in full.terms.items() if dict(m).get(Z, 0) <= n})
        assert p.compose({X: q}, Z, n) == want

    def test_eval_missing_variable(self):
        with pytest.raises(KeyError):
            Poly.var(X).eval({})

    def test_degree_queries(self):
        p = Poly.var(X) * Poly.var(X) * Poly.var(Y) + Poly.const(3)
        assert p.degree_in({X}) == 2
        assert p.degree_in({Y}) == 1
        assert p.constant_term() == 3

