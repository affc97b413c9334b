"""Kleene series, exact solving at z = 1, and expected-step analysis."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phors_lab import load_bundled
from phors_lab.algebra import Poly, REGISTRY
from phors_lab.interp import InterpError, compile_scheme, reachable, sccs, var_name, z_vid
from phors_lab.decide import PreFixpointBelowOne, decide_past, verify_certificate
from phors_lab.solver import (
    EPS,
    Interval,
    MonotonicityError,
    SolverError,
    expected_steps,
    kleene_series,
    solve_at_one,
    solve_or_kernel,
    _is_bracket,
    _scale_base,
    _spectral_radius_le_one,
)
from phors_lab.operational import enumerate_terminations
from phors_lab.syntax import parse
from phors_lab.transforms import compose, reduce_inf

from conftest import random_order1_scheme, random_order2_scheme, ring_text

F = Fraction


def catalan(i: int) -> int:
    c = 1
    for k in range(i):
        c = c * 2 * (2 * k + 1) // (k + 2)
    return c


def _fas(name: str):
    scheme = load_bundled(name)
    return reachable(compile_scheme(scheme))


def _dyck_closed(*holes: str):
    """dyck_core with its parameters among f, g plugged by brackets's
    A (for f) and B (for g)."""
    scheme = load_bundled("dyck_core")
    actions = load_bundled("brackets")
    for hole in holes:
        scheme = compose(scheme, actions, hole, {"f": "A", "g": "B"}[hole])
    return scheme


def _make_system(eqs_by_name: dict[str, Poly], start: str):
    from phors_lab.interp import Fas

    return Fas(
        {REGISTRY.intern(("test-sys", n)): p for n, p in eqs_by_name.items()},
        REGISTRY.intern(("test-sys", start)),
    )


def _v(n: str) -> int:
    return REGISTRY.intern(("test-sys", n))


def _series_eval(p: Poly, env: dict[int, list], n: int) -> tuple:
    """p at the series given by their coefficient lists, to z^n: the
    truncated product of coefficient lists, term by term."""
    total = [F(0)] * (n + 1)
    for m, c in p.terms.items():
        acc = [c] + [F(0)] * n
        for vid, exp in m:
            f = env[vid]
            for _ in range(exp):
                acc = [sum((acc[i] * f[k - i] for i in range(k + 1)), F(0)) for k in range(n + 1)]
        total = [a + b for a, b in zip(total, acc)]
    return tuple(total)


def _z(n: int) -> list:
    return [F(0), F(1)] + [F(0)] * (n - 1)


def _coeffs(series: dict) -> dict:
    return {v: s.coeffs for v, s in series.items()}


def _reference_series(fas, degree, rounds=1000):
    """Plain Kleene iteration y <- P(y, z) over coefficient lists, run
    until it stops changing, for at most `rounds` rounds."""
    n = max(degree, 1)
    env = {z_vid(): _z(n)}
    y = {v: (F(0),) * (n + 1) for v in fas.eqs}
    for _ in range(rounds):
        env.update(y)
        new = {v: _series_eval(p, env, n) for v, p in fas.eqs.items()}
        if new == y:
            return y
        y = new
    raise AssertionError("the reference iteration did not stop")


def _scaling_cases():
    """Hand-made systems whose coefficients are not all integers after
    scaling z by the scale base, and systems with polynomial unknowns
    to fold into the others."""
    a, b, c, w = (Poly.var(_v(n)) for n in "abcw")
    z = Poly.var(z_vid())
    half_z = Poly.const(F(1, 2)) * z
    return {
        "rational-constant": {"a": Poly.const(F(1, 3)), "c": half_z + half_z * c,
                              "b": a * c + Poly.const(F(2, 5))},
        "z2-beside-z": {"w": Poly.const(F(1, 4)) * z + Poly.const(F(1, 6)) * z * z * w * w,
                        "b": w * w + Poly.const(F(1, 3)) * z * w},
        "rational-product": {"a": Poly.const(F(1, 3)), "c": half_z + half_z * c,
                             "b": Poly.const(F(3, 7)) * a * c + Poly.const(F(2, 9)) * c * c},
        "without-z": {"a": Poly.const(F(1, 3)), "b": Poly.const(F(2, 5)) * a * a + Poly.const(F(1, 7))},
        # Polynomial unknowns, folded into the equations that use them.
        "constant-factor": {"a": Poly.const(F(2, 3)),
                            "b": half_z + Poly.const(F(3, 4)) * z * a * b * b},
        "factor-above-the-degree": {
            "b": half_z * c * b + Poly.const(F(1, 5)) * z * c * c,
            "c": Poly.const(F(1, 2)) + Poly.const(F(1, 3)) * z + Poly({((z_vid(), 9),): F(1, 4)}),
        },
        "polynomial-of-a-polynomial": {
            "a": Poly.const(F(1, 3)) + half_z,
            "b": Poly.const(F(1, 2)) * c + half_z * c * b * b,
            "c": a * a * z + Poly.const(F(1, 4)),
        },
        "polynomial-feeds-a-cycle": {"c": Poly.const(F(1, 3)), "b": b + a, "a": half_z * c + z * z},
    }


@st.composite
def monotone_systems(draw):
    """Equations, by name, of 1-3 unknowns, each with 1-4 monomials
    c z^e m: m has 0-3 factors, drawn with repetition from the unknowns
    so that products repeat factors and share prefixes; e goes up to 12,
    above every degree tested; c may be a proper fraction, which gives
    Fraction layer-0 values."""
    names = [f"h{i}" for i in range(draw(st.integers(1, 3)))]
    z = Poly.var(z_vid())
    eqs = {}
    for name in names:
        p = Poly()
        for _ in range(draw(st.integers(1, 4))):
            m = Poly.const(draw(st.sampled_from([F(1), F(2), F(1, 2), F(1, 3), F(2, 3)])))
            for _ in range(draw(st.integers(0, 3))):
                m = m * Poly.var(_v(draw(st.sampled_from(names))))
            for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3, 12]))):
                m = m * z
            p = p + m
        eqs[name] = p
    return eqs


class TestKleeneSeries:
    @pytest.mark.parametrize("degree", [0, 1, 7])
    @pytest.mark.parametrize("case", sorted(_scaling_cases()))
    def test_scaled_layers_match_plain_iteration(self, case, degree):
        fas = _make_system(_scaling_cases()[case], "b")
        if case == "polynomial-feeds-a-cycle":
            # b = b + a gets a's coefficient 1, 1/6: the message names the
            # cycle b only, not the polynomial unknowns a and c.
            message = f"coefficient 1 of {var_name(_v('b'))} diverges"
            with pytest.raises(SolverError, match=f"^{re.escape(message)}$"):
                kleene_series(fas, degree)
            with pytest.raises(AssertionError, match="did not stop"):
                _reference_series(fas, degree, rounds=50)
            return
        got = _coeffs(kleene_series(fas, degree))
        assert list(got) == list(fas.eqs)
        assert got == _reference_series(fas, degree)

    @settings(max_examples=150, deadline=None)
    @given(monotone_systems(), st.integers(0, 10))
    # h1 = h1/2 + 2z is a cycle with spectral radius 1/2, so h1 = 4z; it
    # feeds h0's cycle (J = 1) only at layer 2, where h0 diverges.
    @example(
        {"h0": Poly({((_v("h0"), e),): F(1) for e in (1, 2, 3)})
         + Poly({tuple(sorted([(_v("h1"), 1), (z_vid(), 1)])): F(1)}),
         "h1": Poly({((_v("h1"), 1),): F(1, 2), ((z_vid(), 1),): F(2)})},
        2,
    )
    def test_layers_match_plain_iteration(self, eqs, degree):
        fas = _make_system(eqs, "h0")

        def reference(d):
            # With N unknowns, a tree of positive weight with at most n z's
            # and height (N + 1)(n + 1) repeats an unknown around a context
            # without z, which pumps: an iteration that has not stopped by
            # then never stops.
            rounds = (len(fas.eqs) + 1) * (max(d, 1) + 1) + 1
            return _reference_series(fas, d, rounds)

        def check(d, got):
            # The least solution mod z^(n+1); the reference reaches it
            # unless a cycle of J has spectral radius < 1, where the
            # iteration only converges.
            n = max(d, 1)
            env = {z_vid(): _z(n), **got}
            assert list(got) == list(fas.eqs)
            assert all(_series_eval(p, env, n) == got[v] for v, p in fas.eqs.items())
            assert all(c >= 0 for cs in got.values() for c in cs)
            try:
                want = reference(d)
            except AssertionError as e:
                assert "did not stop" in str(e)
            else:
                assert got == want

        try:
            got = _coeffs(kleene_series(fas, degree))
        except SolverError as e:
            # Coefficient k diverges, or k = 0 when layer 0 does.
            diverges = re.fullmatch(r"coefficient (\d+) of .+ diverges", str(e))
            assert diverges or "constant coefficients" in str(e)
            k = int(diverges[1]) if diverges else 0
            assert k <= max(degree, 1)
            if k >= 2:
                check(k - 1, _coeffs(kleene_series(fas, k - 1)))
            with pytest.raises(AssertionError, match="did not stop"):
                reference(k)
        else:
            check(degree, got)

    @pytest.mark.parametrize("degree", [2, 9])
    def test_factor_shorter_than_the_index(self, degree):
        # y = z/3 + (2/3) y^2: at layer k the z-free product y y is read
        # before y's coefficient k is solved, so its coefficient k is taken
        # with y_k read as 0 (exact here, as y_0 = 0) and completed once
        # y_k is known.
        y, z = Poly.var(_v("y")), Poly.var(z_vid())
        fas = _make_system({"y": Poly.const(F(1, 3)) * z + Poly.const(F(2, 3)) * y * y}, "y")
        assert _coeffs(kleene_series(fas, degree)) == _reference_series(fas, degree)

    def test_random_walk_coefficients(self):
        fas = _fas("randomwalk")
        s = kleene_series(fas, 9)[fas.start]
        for i in range(10):
            if i % 2 == 0:
                assert s.coeffs[i] == 0
            else:
                k = (i - 1) // 2
                assert s.coeffs[i] == F(catalan(k), 2 ** (2 * k + 1))

    def test_geometric_coefficients(self):
        fas = _fas("geometric")
        s = kleene_series(fas, 6)[fas.start]
        assert s.coeffs == (F(0), F(1, 2), F(1, 4), F(1, 8), F(1, 16), F(1, 32), F(1, 64))

    def test_degree_zero(self):
        fas = _fas("unit")
        s = kleene_series(fas, 0)[fas.start]
        assert s.coeffs[0] == 1

    def test_open_system_requires_parameters(self):
        # An open scheme has no series until its parameters are plugged:
        # dyck_core is refused at compile, and with f := A, g := B it is
        # the fair walk from 1 to 0, ending after 1 choice with
        # probability 1/2 and after 3 with probability 1/8.
        with pytest.raises(InterpError, match="open parameters"):
            compile_scheme(load_bundled("dyck_core"))
        fas = reachable(compile_scheme(_dyck_closed("f", "g")))
        assert kleene_series(fas, 3)[fas.start].coeffs == (0, F(1, 2), 0, F(1, 8))

    def test_monotonicity_violation_detected(self):
        # A "system" whose iterates oscillate: w = 1 - w is not monotone
        # (negative coefficient), and the built-in check trips.
        bad = _make_system(
            {"w": Poly.const(1) + Poly.const(-1) * Poly.var(_v("w"))}, "w"
        )
        with pytest.raises(MonotonicityError):
            kleene_series(bad, 3)

    def test_iterates_reach_fixpoint_for_proper_systems(self):
        for name in ("randomwalk", "eq3", "geometric", "chain"):
            fas = _fas(name)
            out = _coeffs(kleene_series(fas, 12))
            env = {z_vid(): _z(12), **out}
            for vid, p in fas.eqs.items():
                assert _series_eval(p, env, 12) == out[vid]

    def test_choice_cycle_through_several_unknowns_becomes_stationary(self):
        # The degree-1 choice in F2 feeds back through F1 and F0, so each
        # further degree needs a round per unknown on the cycle.
        scheme = parse(
            "F0 : !1 o -o !2 o -o o ; F0 x0 x1 = F2 ; "
            "F1 : !2 o -o o ; F1 x0 = F0 x0 omega ; "
            "F2 : o ; F2 = e [1/2] F1 e ; S : o ; S = F2 ; start S ;"
        )
        fas = reachable(compile_scheme(scheme))
        s = kleene_series(fas, 8)[fas.start]
        assert s.coeffs == tuple([F(0)] + [F(1, 2**i) for i in range(1, 9)])
        probs, budget_hit = enumerate_terminations(scheme, 8)
        assert not budget_hit
        assert list(s.coeffs) == [probs.get(i, F(0)) for i in range(9)]

    def test_cycle_fed_by_a_choice_diverges(self):
        # w = w + z: coefficient 1 satisfies w_1 = w_1 + 1.
        w, z = Poly.var(_v("w")), Poly.var(z_vid())
        with pytest.raises(SolverError, match="coefficient 1"):
            kleene_series(_make_system({"w": w + z}, "w"), 4)

    def test_cycle_fed_through_an_earlier_component_diverges(self):
        # w = w + a and a = z/2: the cycle w -> w gets its input at layer 1
        # only through J_wa a_1, from the component {a} solved before it.
        w, a, z = Poly.var(_v("w")), Poly.var(_v("a")), Poly.var(z_vid())
        fas = _make_system({"w": w + a, "a": Poly.const(F(1, 2)) * z}, "w")
        message = f"coefficient 1 of {var_name(_v('w'))} diverges"
        with pytest.raises(SolverError, match=f"^{re.escape(message)}$"):
            kleene_series(fas, 4)

    def test_cycle_with_spectral_radius_below_one(self):
        # w = w/2 + z: coefficient 1 solves w_1 = w_1 / 2 + 1, so w = 2z.
        w, z = Poly.var(_v("w")), Poly.var(z_vid())
        s = kleene_series(_make_system({"w": Poly.const(F(1, 2)) * w + z}, "w"), 3)
        assert s[_v("w")].coeffs == (0, 2, 0, 0)

    def test_two_unknown_cycle_with_spectral_radius_below_one(self):
        # u = v/2 + z and v = u/3 + z/2, with rho(J) = 1/sqrt(6): u = 3z/2
        # and v = z, since 3/4 + 1 = 3/2 and 1/2 + 1/2 = 1.
        u, v, z = Poly.var(_v("u")), Poly.var(_v("v")), Poly.var(z_vid())
        half = Poly.const(F(1, 2))
        fas = _make_system({"u": half * v + z, "v": Poly.const(F(1, 3)) * u + half * z}, "u")
        s = kleene_series(fas, 4)
        assert s[_v("u")].coeffs == (0, F(3, 2), 0, 0, 0)
        assert s[_v("v")].coeffs == (0, 1, 0, 0, 0)

    def test_cycle_without_input_stays_zero(self):
        # w = w + z w: the Jacobian at z = 0 has the cycle w -> w, fed 0.
        w, z = Poly.var(_v("w")), Poly.var(z_vid())
        s = kleene_series(_make_system({"w": w + z * w}, "w"), 5)[_v("w")]
        assert s.coeffs == (F(0),) * 6

    def test_integer_constant_layer_feeds_a_product(self):
        # a = 2 and c = z/2 + (z/2) c, so c_k = 1/2^k and b = a c = 2 c.
        a, c = Poly.var(_v("a")), Poly.var(_v("c"))
        half_z = Poly.const(F(1, 2)) * Poly.var(z_vid())
        fas = _make_system({"a": Poly.const(2), "c": half_z + half_z * c, "b": a * c}, "b")
        s = kleene_series(fas, 10)[_v("b")]
        assert s.coeffs == (F(0),) + tuple(F(2, 2**k) for k in range(1, 11))

    def test_random_walk_to_degree_512(self):
        fas = _fas("randomwalk")
        s = kleene_series(fas, 512)[fas.start]
        assert s.coeffs[0::2] == (F(0),) * 257
        assert s.coeffs[1::2] == tuple(F(catalan(k), 2 ** (2 * k + 1)) for k in range(256))

    def test_closed_forms_to_degree_2048(self):
        # Closed forms derived by hand from the schemes: eq3's start has
        # 1/(2 * 8^n) at z^(4n+1), chain's and geometric's 1/2^i at z^i
        # for i >= 1, and dyck_lossy's C_k / 4^(2k+1) at z^(4k+2); every
        # other coefficient is 0.
        n = 2048
        eq3 = [F(0)] * (n + 1)
        eq3[1::4] = [F(1, 2 * 8**i) for i in range(len(eq3[1::4]))]
        walk = [F(0)] + [F(1, 2**i) for i in range(1, n + 1)]
        lossy = [F(0)] * (n + 1)
        lossy[2::4] = [F(catalan(k), 4 ** (2 * k + 1)) for k in range(len(lossy[2::4]))]
        cases = (("eq3", eq3), ("chain", walk), ("geometric", walk), ("dyck_lossy", lossy))
        for name, want in cases:
            scheme = load_bundled(name)
            fas = reachable(compile_scheme(reduce_inf(scheme) if name == "dyck_lossy" else scheme))
            assert kleene_series(fas, n)[fas.start].coeffs == tuple(want), name

    def test_scale_base(self):
        # Visited in ascending power of z, a denominator that divides B^e
        # already adds nothing: z^4/8 after z/2 keeps B = 2, and z^2/4
        # alone gives its square root.  Without an integer root the
        # denominator itself enters, and B stays >= 1.
        assert _scale_base([(8, 4), (2, 1)]) == 2
        assert _scale_base([(4, 2)]) == 2
        assert _scale_base([(8, 2), (3, 1)]) == 24
        assert _scale_base([(2, 1), (3, 1), (9, 2)]) == 6
        assert _scale_base([]) == 1

    def test_bundled_schemes_scale_by_two(self, monkeypatch):
        # eq3's folded equation has z^4/8 H beside z/2 terms.
        import phors_lab.solver as solver

        bases = []
        monkeypatch.setattr(solver, "_scale_base", lambda ms: bases.append(_scale_base(ms)) or bases[-1])
        for name in ("eq3", "randomwalk", "geometric", "dyck", "dyck_lossy", "chain"):
            scheme = load_bundled(name)
            fas = reachable(compile_scheme(reduce_inf(scheme) if name.startswith("dyck") else scheme))
            kleene_series(fas, 16)
            assert bases[-1] == 2, name

    def test_random_schemes_match_the_enumerator(self):
        rng = random.Random(5)
        exact = 0
        for i in range(50):
            scheme = (random_order1_scheme if i % 2 else random_order2_scheme)(rng)
            fas = reachable(compile_scheme(scheme))
            probs, budget_hit = enumerate_terminations(scheme, 8, step_budget=2000)
            want = [probs.get(k, F(0)) for k in range(9)]
            got = list(kleene_series(fas, 8)[fas.start].coeffs)
            # A run that loops without choices exhausts the step budget;
            # the enumeration is then only a lower bound.
            if budget_hit:
                assert all(g >= w for g, w in zip(got, want))
            else:
                exact += 1
                assert got == want
        assert exact >= 40


def rows(M: list[list[Fraction]]) -> list[dict[int, Fraction]]:
    """A dense matrix as the solver's rows of nonzero entries."""
    return [{j: x for j, x in enumerate(r) if x} for r in M]


def i_minus(M: list[list[Fraction]]) -> list[dict[int, Fraction]]:
    """The rows of J = I - M, so that solve_or_kernel(J, b) solves M x = b."""
    return rows([[(i == j) - x for j, x in enumerate(r)] for i, r in enumerate(M)])


def solve(M, b):
    return solve_or_kernel(i_minus(M), b)[0]


def kernel(M):
    return solve_or_kernel(i_minus(M), [F(0)] * len(M))[1]


# Dense Gauss-Jordan elimination: the reference the sparse elimination
# must reproduce exactly.


def _dense_eliminate(M: list[list[Fraction]], ncols: int) -> dict[int, int]:
    """Gauss-Jordan elimination of M in place over its first ncols
    columns; returns the pivot row of each pivot column.  Row updates
    touch only the nonzero entries of the pivot row."""
    pivots: dict[int, int] = {}
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(M)) if M[r][col] != 0), None)
        if pivot is None:
            continue
        M[row], M[pivot] = M[pivot], M[row]
        pv = M[row][col]
        M[row] = [x / pv if x else x for x in M[row]]
        nonzero = [(j, x) for j, x in enumerate(M[row]) if x]
        for r, other in enumerate(M):
            f = other[col]
            if r != row and f:
                for j, x in nonzero:
                    other[j] -= f * x
        pivots[col] = row
        row += 1
    return pivots


def dense_solve(A: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    n = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    if len(_dense_eliminate(M, n)) < n:
        return None
    return [M[i][n] for i in range(n)]


def dense_kernel(A: list[list[Fraction]]) -> list[Fraction] | None:
    n = len(A)
    M = [row[:] for row in A]
    pivots = _dense_eliminate(M, n)
    free = [c for c in range(n) if c not in pivots]
    if not free:
        return None
    u = [F(0)] * n
    u[free[0]] = F(1)
    for col, r in pivots.items():
        u[col] = -M[r][free[0]]
    return u


@st.composite
def square_matrices(draw):
    """Square matrices with small rational entries, from dense to mostly
    zero; some columns are combinations of earlier ones, so the matrix
    can be singular with several free columns."""
    n = draw(st.integers(1, 7))
    zeros = draw(st.integers(0, 5))  # the weight of 0 among the entries
    nonzero = st.sampled_from([F(1), F(-1), F(1, 2), F(-2, 3), F(3), F(5, 4)])
    entry = st.one_of(*[st.just(F(0))] * zeros, nonzero)
    M = [[draw(entry) for _ in range(n)] for _ in range(n)]
    for j in range(1, n):
        if draw(st.integers(0, 3)) == 0:
            cs = [draw(st.sampled_from([F(0), F(1), F(-1), F(1, 2)])) for _ in range(j)]
            for r in M:
                r[j] = sum((c * x for c, x in zip(cs, r)), F(0))
    b = [draw(entry) for _ in range(n)]
    return M, b


class TestLinearAlgebra:
    def test_gauss_solves(self):
        assert solve([[F(2), F(1)], [F(1), F(3)]], [F(5), F(10)]) == [F(1), F(3)]

    def test_gauss_singular_returns_none(self):
        assert solve([[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)]) is None

    def test_kernel_vector(self):
        A = [[F(1), F(1)], [F(2), F(2)]]
        u = kernel(A)
        assert u is not None and any(x != 0 for x in u)
        assert all(sum(a * b for a, b in zip(row, u)) == 0 for row in A)

    def test_kernel_of_nonsingular_is_none(self):
        assert kernel([[F(2), F(0)], [F(0), F(3)]]) is None

    @settings(max_examples=200, deadline=None)
    @given(square_matrices())
    def test_sparse_elimination_matches_dense_gauss_jordan(self, Mb):
        # The same vector, not just some kernel element: critical-jacobian
        # kernels are pinned in the golden reports.
        M, b = Mb
        J = i_minus(M)
        # One of the two is None: dense_solve when M is singular,
        # dense_kernel when it is not.
        assert solve_or_kernel(J, b) == (dense_solve(M, b), dense_kernel(M))
        assert J == i_minus(M)  # the input is left as it was

    def test_oracle_sees_several_free_columns(self):
        M = [[F(1), F(2), F(0), F(2)], [F(0), F(0), F(1), F(1)],
             [F(1), F(2), F(1), F(3)], [F(0), F(0), F(0), F(0)]]
        assert dense_kernel(M) == [F(-2), F(1), F(0), F(0)]
        assert kernel(M) == dense_kernel(M)
        assert solve(M, [F(1)] * 4) is None


class TestSccs:
    def test_reverse_topological_order(self):
        g = {1: {2}, 2: {3}, 3: {2}, 4: set()}
        comps = sccs(g)
        assert [set(c) for c in comps if set(c) == {2, 3}]
        order = {frozenset(c): i for i, c in enumerate(map(set, comps))}
        assert order[frozenset({2, 3})] < order[frozenset({1})]

    def test_singletons_and_self_loops(self):
        g = {1: {1}, 2: set()}
        comps = sccs(g)
        assert sorted(map(tuple, comps)) == [(1,), (2,)]


class TestSolveAtOne:
    def test_random_walk_terminates_almost_surely(self):
        fas = _fas("randomwalk")
        sol = solve_at_one(fas)
        assert sol.values[fas.start] == 1
        assert sol.exact

    def test_repetition_scheme_value(self):
        fas = _fas("eq3")
        sol = solve_at_one(fas)
        assert sol.values[fas.start] == F(4, 7)

    def test_omega_is_zero(self):
        fas = _fas("omega")
        sol = solve_at_one(fas)
        assert sol.values[fas.start] == 0

    def test_irrational_value_gets_certified_interval(self):
        fas = reachable(compile_scheme(reduce_inf(load_bundled("dyck_lossy"))))
        sol = solve_at_one(fas)
        val = sol.values[fas.start]
        assert isinstance(val, Interval)
        target = 2 - math.sqrt(3)
        assert float(val.lo) <= target <= float(val.hi)
        assert val.width <= F(1, 10**6)
        assert not sol.exact

    def test_solution_is_a_fixpoint_when_exact(self):
        for name in ("randomwalk", "geometric", "eq3", "chain", "unit"):
            fas = _fas(name)
            sol = solve_at_one(fas)
            env = {v: x for v, x in sol.values.items()}
            env[z_vid()] = F(1)
            for vid, p in fas.eqs.items():
                assert p.eval(env) == sol.values[vid]

    def test_open_system_rejected(self):
        # A scheme with a parameter left open never reaches the solver:
        # plugging f alone leaves g, and compile refuses it; plugging g
        # too gives the fair walk, which ends almost surely.
        with pytest.raises(InterpError, match="open parameters"):
            compile_scheme(_dyck_closed("f"))
        fas = reachable(compile_scheme(_dyck_closed("f", "g")))
        sol = solve_at_one(fas)
        assert sol.values[fas.start] == 1
        assert sol.exact

    def test_linear_divergent_least_solution_is_zero(self):
        # w = w has least solution 0 (b = 0).
        sysm = _make_system({"w": Poly.var(_v("w"))}, "w")
        sol = solve_at_one(sysm)
        assert sol.values[_v("w")] == 0

    def test_linear_component_without_a_finite_solution(self):
        # w = 2w + 1: the Kleene iterates 2^k - 1 diverge, and the only
        # solution, -1, is negative; nothing is claimed.
        w = _v("w")
        sysm = _make_system({"w": Poly.const(2) * Poly.var(w) + Poly.const(1)}, "w")
        note = f"linear component without a nonnegative finite solution: {var_name(w)}"
        sol = solve_at_one(sysm)
        assert [(c.vids, c.paths, c.notes) for c in sol.components] == [((w,), ("none",), (note,))]
        assert sol.values == {w: Interval(F(0), F(1))}
        assert sol.diagnostics == [note] and not sol.exact
        verdict = decide_past(sysm)
        assert (verdict.ast, verdict.past) == ("inconclusive", "inconclusive")
        assert verdict.notes == [note]


def _univariate(c0, c1, c2) -> tuple[object, list[str]]:
    """Least nonnegative solution of y = c0 + c1 y + c2 y^2."""
    y = Poly.var(_v("y"))
    p = Poly.const(c0) + Poly.const(c1) * y + Poly.const(c2) * y * y
    sol = solve_at_one(_make_system({"y": p}, "y"))
    return sol.values[_v("y")], sol.diagnostics


class TestUnivariateRoots:
    def test_rational_least_root(self):
        # 2/3 y^2 - y + 1/3 = (2y - 1)(y - 1)/3.
        assert _univariate(F(1, 3), 0, F(2, 3)) == (F(1, 2), [])

    def test_rational_root_off_the_bisection_grid(self):
        # 3/7 y^2 - y + 2/7 = (3y - 1)(y - 2)/7.
        assert _univariate(F(2, 7), 0, F(3, 7)) == (F(1, 3), [])

    def test_double_root_at_one(self):
        # 1/2 y^2 - y + 1/2 = (y - 1)^2 / 2.
        assert _univariate(F(1, 2), 0, F(1, 2)) == (F(1), [])

    def test_root_at_zero(self):
        # y^2 - y = y (y - 1).
        assert _univariate(0, 0, 1) == (F(0), [])

    def test_irrational_root_is_certified(self):
        # dyck_lossy at z = 1: 1/4 y^2 - y + 1/4, least root 2 - sqrt(3).
        val, notes = _univariate(F(1, 4), 0, F(1, 4))
        assert isinstance(val, Interval)
        assert (2 - val.lo) ** 2 >= 3 >= (2 - val.hi) ** 2
        assert 0 < val.width <= EPS
        assert len(notes) == 1 and "irrational" in notes[0]

    def test_no_nonnegative_root(self):
        # y^2 - y + 1 has discriminant -3.
        val, notes = _univariate(1, 0, 1)
        assert val == Interval(F(0), F(1))
        assert notes == [f"no nonnegative fixpoint for {var_name(_v('y'))}"]


class TestSpectralRadius:
    # [[a, b], [b, a]] has eigenvalues a + b and a - b.
    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (F(1, 4), F(1, 4), True),  # rho = 1/2
            (F(1, 2), F(1, 2), True),  # rho = 1, I - J singular
            (F(1, 2), F(1), False),  # rho = 3/2
            (F(2), F(1), False),  # rho = 3, and 1 is the other eigenvalue
        ],
    )
    def test_symmetric_2x2(self, a, b, expected):
        assert _spectral_radius_le_one(rows([[a, b], [b, a]])) is expected

    # A weighted 3-cycle with weight product c has J^3 = c I, so rho is
    # the real cube root of c.
    @pytest.mark.parametrize(
        "c, expected", [(F(1, 3), True), (F(1), True), (F(2), False)]
    )
    def test_irreducible_3_cycle(self, c, expected):
        J = [[F(0), F(1, 2), F(0)], [F(0), F(0), 2 * c], [F(1), F(0), F(0)]]
        assert _spectral_radius_le_one(rows(J)) is expected

    # Triangular: the eigenvalues are the diagonal entries.
    @pytest.mark.parametrize(
        "a, d, expected", [(F(1), F(1, 2), True), (F(1, 2), F(2), False)]
    )
    def test_reducible_2x2(self, a, d, expected):
        assert _spectral_radius_le_one(rows([[a, F(1, 2)], [F(0), d]])) is expected


def _two_ring(bias: Fraction):
    """The component a = bias b^2 + 1 - bias, b = bias a^2 + 1 - bias
    of the 2-ring at z = 1, as (local, comp)."""
    a, b = Poly.var(_v("a")), Poly.var(_v("b"))
    rest = Poly.const(1 - bias)
    local = {_v("a"): Poly.const(bias) * b * b + rest, _v("b"): Poly.const(bias) * a * a + rest}
    return local, [_v("a"), _v("b")]


def _const_point(comp, x):
    return {v: F(x) for v in comp}


class TestNewtonBracket:
    def test_supercritical_ring_is_exact(self):
        # Each rule is the walk y = (2/3) y^2 + 1/3, whose least
        # fixpoint is 1/2; two rules make a multivariate component.
        scheme = parse(
            "F0 : !1 o -o o ; F0 x = (F1 (F1 x)) [2/3] x ; "
            "F1 : !1 o -o o ; F1 x = (F0 (F0 x)) [2/3] x ; "
            "S = F0 e ; start S ;"
        )
        fas = reachable(compile_scheme(scheme))
        verdict = decide_past(fas)
        assert verdict.p_term == F(1, 2) and isinstance(verdict.p_term, Fraction)
        (cert,) = verdict.certificates
        assert isinstance(cert, PreFixpointBelowOne)
        assert set(cert.assignment.values()) == {F(1, 2)}
        assert verify_certificate(fas, cert)

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 20, 40])
    @pytest.mark.parametrize("bias", [F(1, 2), F(1, 3), F(2, 3), F(501, 1000), F(50001, 100000)])
    def test_ring_values_are_exact(self, n, bias):
        fas = reachable(compile_scheme(parse(ring_text(n, bias))))
        sol = solve_at_one(fas)
        assert sol.exact and sol.diagnostics == []
        assert set(sol.values.values()) == {min(F(1), (1 - bias) / bias)}
        assert all(type(x) is Fraction for x in sol.values.values())

    def test_irrational_component_is_a_proven_bracket(self):
        # f = (2/3) g^2 + 1/3 and g = (3/4) f^2 + 1/4, so f is a root of
        # 3f^4 + 2f^2 - 8f + 3 = (f - 1)(3f^3 + 3f^2 + 5f - 3); the least
        # is the cubic's real root, f ~ 0.436114, which is irrational.
        fas = reachable(compile_scheme(parse(
            "F : !1 o -o o ; F x = (G (G x)) [2/3] x ; "
            "G : !1 o -o o ; G x = (F (F x)) [3/4] x ; S = F e ;"
        )))
        verdict = decide_past(fas)
        val = verdict.p_term
        assert isinstance(val, Interval) and 0 < val.width <= EPS
        assert isinstance(val.lo, Fraction) and isinstance(val.hi, Fraction)

        def cubic(f):
            return 3 * f**3 + 3 * f**2 + 5 * f - 3

        assert cubic(val.lo) <= 0 <= cubic(val.hi)
        assert verdict.ast == "no" and verdict.certificates
        assert all(verify_certificate(fas, c) for c in verdict.certificates)

    def test_exact_checks_accept_true_values_and_brackets(self):
        local, comp = _two_ring(F(2, 3))
        half, w = _const_point(comp, F(1, 2)), [F(1), F(1)]
        assert _is_bracket(local, comp, half, half, w)
        lo, hi = _const_point(comp, F(49, 100)), _const_point(comp, F(51, 100))
        assert _is_bracket(local, comp, lo, hi, w)

    def test_all_ones_is_not_the_least_fixpoint(self):
        # P(1) = 1, but rho(J(1)) = 4/3, so no w > 0 has (I - J(1)) w > 0;
        # w = -1 satisfies that inequality and is rejected for its sign.
        local, comp = _two_ring(F(2, 3))
        ones = _const_point(comp, 1)
        assert all(local[v].eval(ones) == 1 for v in comp)
        for w in ([F(1), F(1)], [F(1), F(2)], [F(-1), F(-1)], [F(3), F(1, 3)]):
            assert not _is_bracket(local, comp, ones, ones, w)

    def test_w_with_a_zero_entry_is_rejected(self):
        local, comp = _two_ring(F(2, 3))
        lo, hi = _const_point(comp, F(49, 100)), _const_point(comp, F(51, 100))
        assert not _is_bracket(local, comp, lo, hi, [F(1), F(0)])
        half = _const_point(comp, F(1, 2))
        assert not _is_bracket(local, comp, half, half, [F(0), F(1)])

    def test_hi_below_the_least_fixpoint_is_rejected(self):
        local, comp = _two_ring(F(2, 3))
        lo, hi = _const_point(comp, F(49, 100)), _const_point(comp, F(499, 1000))
        assert not _is_bracket(local, comp, lo, hi, [F(1), F(1)])

    def test_lo_above_the_least_fixpoint_is_rejected(self):
        local, comp = _two_ring(F(2, 3))
        lo, hi = _const_point(comp, F(501, 1000)), _const_point(comp, F(51, 100))
        assert not _is_bracket(local, comp, lo, hi, [F(1), F(1)])
        # A post-fixpoint above both fixpoints is no lower bound either.
        above = _const_point(comp, 2)
        assert not _is_bracket(local, comp, above, _const_point(comp, F(51, 100)), [F(1), F(1)])

    def test_no_fixpoint_gives_trivial_ends_and_a_note(self):
        # a = 10 b^30 + 10, b = 10 a^30 + 10 has no finite fixpoint: the
        # float iterates overflow, and nothing is claimed.
        a, b = Poly.var(_v("a")), Poly.var(_v("b"))
        ten = Poly.const(10)

        def power(p, k):
            out = Poly.const(1)
            for _ in range(k):
                out = out * p
            return out

        eqs = {"a": ten * power(b, 30) + ten, "b": ten * power(a, 30) + ten}
        sol = solve_at_one(_make_system(eqs, "a"))
        assert sol.values[_v("a")] == sol.values[_v("b")] == Interval(F(0), F(1))
        assert len(sol.diagnostics) == 1 and sol.diagnostics[0].startswith("inconclusive-width:")


# Reduced dyck_lossy: at z = 1, l = (1/4) l^2 + 1/4, so p_L = 2 - sqrt(3)
# is an interval, and G's component is solved with L's lower and upper
# bounds substituted.
_INTERVAL_FED = (
    "L : !1 o -o o ; L x = A (L (L x)) [1/2] B x ; "
    "A : !1 o -o o ; A x = x [1/2] omega ; "
    "B : !1 o -o o ; B x = x [1/2] omega ; "
    "G : !1 o -o o ; S : o ; S = G e ; "
)


def _interval_fed(g_rule: str, paths: tuple[str, ...]):
    """G's unknown and the least solution of the system, after checking
    that G's component was solved twice, along `paths`."""
    fas = reachable(compile_scheme(parse(_INTERVAL_FED + g_rule)))
    sol = solve_at_one(fas)
    (g,) = [v for v in fas.eqs if var_name(v).startswith("y[G;")]
    assert [c.paths for c in sol.components if c.vids == (g,)] == [paths]
    return g, sol


class TestIntervalFedComponents:
    def test_linear_component(self):
        # g = g/2 + p_L/2, so g = p_L.
        g, sol = _interval_fed("G x = (G x) [1/2] (L x) ;", ("linear", "linear"))
        val = sol.values[g]
        assert isinstance(val, Interval)
        assert (2 - val.lo) ** 2 >= 3 >= (2 - val.hi) ** 2

    def test_univariate_component_is_noted_once(self):
        # g = g^2/2 + p_L/2, so (1 - g)^2 = 1 - p_L = sqrt(3) - 1.
        g, sol = _interval_fed("G x = (G (G x)) [1/2] (L x) ;", ("irrational-root",) * 2)
        val = sol.values[g]
        assert isinstance(val, Interval)
        assert ((1 - val.lo) ** 2 + 1) ** 2 >= 3 >= ((1 - val.hi) ** 2 + 1) ** 2
        notes = [n for n in sol.diagnostics if n.startswith(var_name(g))]
        assert notes == [
            f"{var_name(g)}: least fixpoint is irrational; certified to "
            f"width {val.width}"
        ]


class TestExpectedSteps:
    def test_geometric_expectation(self):
        fas = _fas("geometric")
        sol = solve_at_one(fas)
        res = expected_steps(fas, sol)
        assert res.value == 2

    def test_unit_expectation_zero(self):
        fas = _fas("unit")
        res = expected_steps(fas, solve_at_one(fas))
        assert res.value == 0

    def test_critical_walk_diverges(self):
        fas = _fas("randomwalk")
        res = expected_steps(fas, solve_at_one(fas))
        assert res.value == math.inf
        assert res.kernel is not None and any(x != 0 for x in res.kernel)

    def test_requires_ast(self):
        fas = _fas("eq3")
        sol = solve_at_one(fas)
        with pytest.raises(SolverError):
            expected_steps(fas, sol)

    def test_derivative_matches_series_tail(self):
        # For the geometric scheme the partial sums of i * c_i approach 2.
        fas = _fas("geometric")
        s = kleene_series(fas, 40)[fas.start]
        partial = sum(F(i) * c for i, c in enumerate(s.coeffs))
        assert abs(partial - 2) < F(1, 10**9)


class TestSolveConfig:
    def test_interval_invariants(self):
        with pytest.raises(ValueError):
            Interval(F(1), F(0))
        assert Interval(F(1, 3), F(1, 2)).width == F(1, 6)

    def test_interval_is_a_frozen_value(self):
        a, b = Interval(F(1, 3), F(1, 2)), Interval(F(1, 3), F(1, 2))
        assert a == b and hash(a) == hash(b) and a != Interval(F(1, 3), F(1))
        assert a != (F(1, 3), F(1, 2))
        assert repr(a) == "Interval(lo=Fraction(1, 3), hi=Fraction(1, 2))"
        with pytest.raises(AttributeError):
            a.lo = F(0)
