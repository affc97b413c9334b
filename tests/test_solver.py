"""Kleene series, exact solving at z = 1, and expected-step analysis."""

import math
from fractions import Fraction

import pytest

from phors_lab import load_bundled
from phors_lab.algebra import Poly, REGISTRY, TruncSeries
from phors_lab.interp import compile_scheme, reachable, z_vid
from phors_lab.solver import (
    Interval,
    MonotonicityError,
    SolveConfig,
    SolverError,
    expected_steps,
    gauss_solve,
    kernel_vector,
    kleene_series,
    sccs,
    solve_at_one,
)
from phors_lab.operational import enumerate_terminations
from phors_lab.syntax import parse
from phors_lab.transforms import reduce_inf

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


class TestKleeneSeries:
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
            {"w": Poly.const(1) + Poly.var(_v("w")).scale(-1)}, "w"
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


class TestLinearAlgebra:
    def test_gauss_solves(self):
        A = [[F(2), F(1)], [F(1), F(3)]]
        x = gauss_solve(A, [F(5), F(10)])
        assert x == [F(1), F(3)]

    def test_gauss_singular_returns_none(self):
        assert gauss_solve([[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)]) is None

    def test_kernel_vector(self):
        A = [[F(1), F(1)], [F(2), F(2)]]
        u = kernel_vector(A)
        assert u is not None and any(x != 0 for x in u)
        assert all(sum(a * b for a, b in zip(row, u)) == 0 for row in A)

    def test_kernel_of_nonsingular_is_none(self):
        assert kernel_vector([[F(2), F(0)], [F(0), F(3)]]) is None


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
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SolveConfig(eps=F(0))
        with pytest.raises(ValueError):
            SolveConfig(truncation=-1)

    def test_interval_invariants(self):
        with pytest.raises(ValueError):
            Interval(F(1), F(0))
        assert Interval(F(1, 3), F(1, 2)).width == F(1, 6)
