"""Kleene series, exact solving at z = 1, and expected-step analysis."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phors_lab import load_bundled
from phors_lab.algebra import Poly, REGISTRY, TruncSeries
from phors_lab.interp import compile_scheme, reachable, sccs, var_name, z_vid
from phors_lab.decide import PreFixpointBelowOne, decide_past, verify_certificate
from phors_lab.solver import (
    EPS,
    Interval,
    MonotonicityError,
    SolverError,
    expected_steps,
    gauss_solve,
    kernel_vector,
    kleene_series,
    solve_at_one,
    _spectral_radius_le_one,
)
from phors_lab.operational import enumerate_terminations
from phors_lab.syntax import parse
from phors_lab.transforms import reduce_inf

from conftest import random_order1_scheme, random_order2_scheme

F = Fraction


def catalan(i: int) -> int:
    c = 1
    for k in range(i):
        c = c * 2 * (2 * k + 1) // (k + 2)
    return c


def _fas(name: str):
    scheme = load_bundled(name)
    return reachable(compile_scheme(scheme))


def _make_system(eqs_by_name: dict[str, Poly], start: str):
    from phors_lab.interp import Fas

    return Fas(
        {REGISTRY.intern(("test-sys", n)): p for n, p in eqs_by_name.items()},
        REGISTRY.intern(("test-sys", start)),
    )


def _v(n: str) -> int:
    return REGISTRY.intern(("test-sys", n))


def _reference_series(fas, degree, params=None):
    """Plain Kleene iteration y <- P(y, z) over truncated series, run
    until it stops changing."""
    n = max(degree, 1)
    env = {z_vid(): TruncSeries.z(n)}
    env.update({v: TruncSeries(s.coeffs[: n + 1]) for v, s in (params or {}).items()})
    y = {v: TruncSeries.zero(n) for v in fas.eqs}
    for _ in range(1000):
        env.update(y)
        new = {v: TruncSeries.zero(n) + p.eval(env) for v, p in fas.eqs.items()}
        if new == y:
            return y
        y = new
    raise AssertionError("the reference iteration did not stop")


def _scaling_cases():
    """Hand-made systems whose coefficients are not all integers after
    scaling z by the common denominator of its coefficients."""
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
    }


class TestKleeneSeries:
    @pytest.mark.parametrize("degree", [0, 1, 7])
    @pytest.mark.parametrize("case", sorted(_scaling_cases()))
    def test_scaled_layers_match_plain_iteration(self, case, degree):
        fas = _make_system(_scaling_cases()[case], "b")
        assert kleene_series(fas, degree) == _reference_series(fas, degree)

    @pytest.mark.parametrize("degree", [0, 4])
    @pytest.mark.parametrize(
        "coeffs",
        [[0, F(1, 3), F(1, 5), 0, 0], [F(1, 2), 0, F(2, 7), F(1, 9), 0]],
        ids=["z-thirds-fifths", "rational-constant"],
    )
    def test_rational_parameters_match_plain_iteration(self, coeffs, degree):
        fas = reachable(compile_scheme(load_bundled("dyck_core")))
        params = {v: TruncSeries(coeffs) for v in fas.param_vids}
        assert kleene_series(fas, degree, params) == _reference_series(fas, degree, params)

    @pytest.mark.parametrize("degree", [2, 9])
    def test_factor_shorter_than_the_index(self, degree):
        # y = z/3 + (2/3) y^2 reads y, whose coefficient k is not known
        # yet, in a z-free product: at index k the constant [2/3] and y's
        # k coefficients have no pair of indices summing to k.
        y, z = Poly.var(_v("y")), Poly.var(z_vid())
        fas = _make_system({"y": Poly.const(F(1, 3)) * z + Poly.const(F(2, 3)) * y * y}, "y")
        assert kleene_series(fas, degree) == _reference_series(fas, degree)

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
        fas = reachable(compile_scheme(load_bundled("dyck_core")))
        with pytest.raises(SolverError):
            kleene_series(fas, 4)
        params = {v: TruncSeries([0, 1, 0, 0, 0]) for v in fas.param_vids}
        out = kleene_series(fas, 4, params)
        assert out[fas.start].coeffs[0] == 0

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
            out = kleene_series(fas, 12)
            z = TruncSeries.z(12)
            env = {z_vid(): z}
            env.update(out)
            for vid, p in fas.eqs.items():
                val = p.eval(env)
                if not isinstance(val, TruncSeries):
                    val = TruncSeries.const(val, 12)
                assert val == out[vid]

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
        A = rows([[F(2), F(1)], [F(1), F(3)]])
        x = gauss_solve(A, [F(5), F(10)])
        assert x == [F(1), F(3)]

    def test_gauss_singular_returns_none(self):
        assert gauss_solve(rows([[F(1), F(1)], [F(2), F(2)]]), [F(1), F(2)]) is None

    def test_kernel_vector(self):
        A = [[F(1), F(1)], [F(2), F(2)]]
        u = kernel_vector(rows(A))
        assert u is not None and any(x != 0 for x in u)
        assert all(sum(a * b for a, b in zip(row, u)) == 0 for row in A)

    def test_kernel_of_nonsingular_is_none(self):
        assert kernel_vector(rows([[F(2), F(0)], [F(0), F(3)]])) is None

    @settings(max_examples=200, deadline=None)
    @given(square_matrices())
    def test_sparse_elimination_matches_dense_gauss_jordan(self, Mb):
        # The same vector, not just some kernel element: critical-jacobian
        # kernels are pinned in the golden reports.
        M, b = Mb
        A = rows(M)
        assert gauss_solve(A, b) == dense_solve(M, b)
        assert kernel_vector(A) == dense_kernel(M)
        assert A == rows(M)  # the input is left as it was

    def test_oracle_sees_several_free_columns(self):
        M = [[F(1), F(2), F(0), F(2)], [F(0), F(0), F(1), F(1)],
             [F(1), F(2), F(1), F(3)], [F(0), F(0), F(0), F(0)]]
        assert dense_kernel(M) == [F(-2), F(1), F(0), F(0)]
        assert kernel_vector(rows(M)) == dense_kernel(M)
        assert gauss_solve(rows(M), [F(1)] * 4) is None


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
        fas = reachable(compile_scheme(load_bundled("dyck_core")))
        with pytest.raises(SolverError):
            solve_at_one(fas)

    def test_linear_divergent_least_solution_is_zero(self):
        # w = w has least solution 0 (b = 0).
        sysm = _make_system({"w": Poly.var(_v("w"))}, "w")
        sol = solve_at_one(sysm)
        assert sol.values[_v("w")] == 0


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


class TestNewtonBracket:
    def test_supercritical_ring_interval_is_narrow(self):
        # Each rule is the walk y = (2/3) y^2 + 1/3, whose least
        # fixpoint is 1/2; two rules make a multivariate component.
        scheme = parse(
            "F0 : !1 o -o o ; F0 x = (F1 (F1 x)) [2/3] x ; "
            "F1 : !1 o -o o ; F1 x = (F0 (F0 x)) [2/3] x ; "
            "S = F0 e ; start S ;"
        )
        fas = reachable(compile_scheme(scheme))
        verdict = decide_past(fas)
        val = verdict.p_term
        assert isinstance(val, Interval)
        assert val.lo <= F(1, 2) <= val.hi
        assert val.width <= EPS
        (cert,) = verdict.certificates
        assert isinstance(cert, PreFixpointBelowOne)
        assert verify_certificate(fas, cert)


# Reduced dyck_lossy: at z = 1, l = (1/4) l^2 + 1/4, so p_L = 2 - sqrt(3)
# is an interval, and G's component is solved with L's lower and upper
# bounds substituted.
_INTERVAL_FED = (
    "L : !1 o -o o ; L x = A (L (L x)) [1/2] B x ; "
    "A : !1 o -o o ; A x = x [1/2] omega ; "
    "B : !1 o -o o ; B x = x [1/2] omega ; "
    "G : !1 o -o o ; S : o ; S = G e ; "
)


def _interval_fed(g_rule: str):
    """G's unknown and the least solution of the system."""
    fas = reachable(compile_scheme(parse(_INTERVAL_FED + g_rule)))
    sol = solve_at_one(fas)
    (g,) = [v for v in fas.eqs if var_name(v).startswith("y[G;")]
    return g, sol


class TestIntervalFedComponents:
    def test_linear_component(self):
        # g = g/2 + p_L/2, so g = p_L.
        g, sol = _interval_fed("G x = (G x) [1/2] (L x) ;")
        val = sol.values[g]
        assert isinstance(val, Interval)
        assert (2 - val.lo) ** 2 >= 3 >= (2 - val.hi) ** 2

    def test_univariate_component_is_noted_once(self):
        # g = g^2/2 + p_L/2, so (1 - g)^2 = 1 - p_L = sqrt(3) - 1.
        g, sol = _interval_fed("G x = (G (G x)) [1/2] (L x) ;")
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
