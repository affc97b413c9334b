"""Polynomials: semiring laws, evaluation coherence, and the exact
kernels against plain Fraction arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phors_lab.algebra import Poly, Sums
from phors_lab.solver import jacobian

X, Y, Z = 1, 2, 3

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
        # The same error for every id, also one that no system uses and a
        # bound-variable atom's negative one.
        for vid in (X, 10**6, -3):
            with pytest.raises(KeyError) as e:
                Poly.var(vid).eval({Y: Fraction(1)})
            assert e.value.args == (f"no value for variable {vid}",)

    def test_degree_queries(self):
        p = Poly.var(X) * Poly.var(X) * Poly.var(Y) + Poly.const(3)
        assert p.degree_in({X}) == 2
        assert p.degree_in({Y}) == 1
        assert p.constant_term() == 3



# Reference kernels in plain Fraction arithmetic, one normalised Fraction
# per operation, for the int-accumulating kernels of `algebra` and
# `solver.jacobian`.

values = st.one_of(rationals, st.integers(-3, 3), st.just(0))


def _mono(factors):
    """The monomial of a {vid: exponent} map, without zero exponents."""
    return tuple(sorted((v, e) for v, e in factors.items() if e))


def _ref_term(m, c, env, skip=()):
    """c times the factors of m at env, those in skip left out."""
    x = Fraction(c)
    for v, e in m:
        if v not in skip:
            x *= Fraction(env[v]) ** e
    return x


def _ref_nonzero(out):
    return {k: x for k, x in out.items() if x}


def ref_mul(p, q):
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            f = dict(m1)
            for v, e in m2:
                f[v] = f.get(v, 0) + e
            m = _mono(f)
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return _ref_nonzero(out)


def ref_eval(p, env):
    return sum((_ref_term(m, c, env) for m, c in p.terms.items()), Fraction(0))


def ref_substitute(p, env):
    out = {}
    for m, c in p.terms.items():
        rest = tuple((v, e) for v, e in m if v not in env)
        out[rest] = out.get(rest, Fraction(0)) + _ref_term(m, c, env, skip={v for v, _ in rest})
    return _ref_nonzero(out)


def ref_jacobian(eqs, order, point):
    rows = []
    for v in order:
        row = {}
        for j, w in enumerate(order):
            for m, c in eqs[v].terms.items():
                f = dict(m)
                if w in f:
                    f[w] -= 1
                    x = c * (f[w] + 1) * _ref_term(_mono(f), 1, point)
                    row[j] = row.get(j, Fraction(0)) + x
        rows.append(_ref_nonzero(row))
    return rows


def assert_lowest_terms(coeffs):
    for c in coeffs:
        assert type(c) is Fraction and c != 0
        assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1


class TestExactKernels:
    @given(polys(), polys())
    @settings(max_examples=40)
    def test_mul_matches_reference(self, p, q):
        r = p * q
        assert r.terms == ref_mul(p, q)
        assert_lowest_terms(r.terms.values())

    @given(polys(), values, values, values)
    @settings(max_examples=40)
    def test_eval_matches_reference(self, p, a, b, c):
        env = {X: a, Y: b, Z: c}
        x = p.eval(env)
        assert x == ref_eval(p, env)
        assert type(x) is Fraction and math.gcd(x.numerator, x.denominator) == 1

    @given(polys(), st.dictionaries(st.sampled_from((X, Y, Z)), values))
    @settings(max_examples=40)
    def test_substitute_matches_reference(self, p, env):
        q = p.substitute(env)
        assert q.terms == ref_substitute(p, env)
        assert_lowest_terms(q.terms.values())

    @given(polys(), polys(), values, values, values)
    @settings(max_examples=40)
    def test_jacobian_matches_reference(self, p, q, a, b, c):
        eqs, order, point = {X: p, Y: q}, [X, Y], {X: a, Y: b, Z: c}
        J = jacobian(eqs, order, point)
        assert J == ref_jacobian(eqs, order, point)
        assert_lowest_terms(x for row in J for x in row.values())

    @given(polys(), values, values)
    @settings(max_examples=40)
    def test_jacobian_column_outside_the_rows(self, p, a, c):
        # A column for Z, which has no row: dP/dZ, as expected_steps
        # reads g off the Jacobian.
        eqs, point = {X: p, Z: Poly()}, {X: a, Y: Fraction(1, 3), Z: c}
        assert jacobian(eqs, [X, Z], point) == ref_jacobian(eqs, [X, Z], point)

    @given(polys(), st.sampled_from(((), ((X, 1),), ((Y, 2), (Z, 1)))), rationals)
    @settings(max_examples=40)
    def test_shift_is_a_monomial_product(self, p, mono, c):
        q = p.shift(mono, c.numerator, c.denominator)
        assert q == Poly.const(c) * Poly({mono: Fraction(1)}) * p
        assert_lowest_terms(q.terms.values())

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(-50, 50), st.integers(1, 40))))
    @settings(max_examples=40)
    def test_sums_add_exactly(self, parts):
        sums, want = Sums(), {}
        for key, n, d in parts:
            sums.add(key, n, d)
            want[key] = want.get(key, Fraction(0)) + Fraction(n, d)
        got = sums.fractions()
        assert got == {k: x for k, x in want.items() if x}
        assert_lowest_terms(got.values())
