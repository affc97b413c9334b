"""The call-by-name machine through its two entry points: exhaustive
enumeration and Monte Carlo estimation."""

import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from phors_lab import load_bundled
from phors_lab.interp import compile_scheme, reachable
from phors_lab.operational import (
    _CHOICE,
    _E,
    _LIMIT,
    DEFAULT_STEP_BUDGET,
    PRNG_ALGORITHM,
    ExecError,
    _compile,
    _run,
    enumerate_terminations,
    monte_carlo,
    wilson_interval,
)
from phors_lab.solver import kleene_series
from phors_lab.syntax import NonTerm, parse

from conftest import random_order1_scheme, random_order2_scheme

F = Fraction


def reference_enumerate(scheme, max_choices, step_budget=DEFAULT_STEP_BUDGET):
    """The enumerator with a `Fraction` weight per branch, added up leaf by
    leaf: the reference for `enumerate_terminations`' values, dict order
    and budget flag."""
    probs = {}
    budget_hit = False
    rules, open_args = _compile(scheme)
    work = [(NonTerm(scheme.start), (), None, F(1), 0)]
    while work:
        t, env, stack, prob, used = work.pop()
        outcome, t, env, stack, _ = _run(rules, open_args, t, env, stack, step_budget + 1)
        if outcome == _E:
            probs[used] = probs.get(used, F(0)) + prob
        elif outcome == _LIMIT:
            budget_hit = True
        elif outcome == _CHOICE and used < max_choices:
            for branch, p in ((t.left, t.bias), (t.right, 1 - t.bias)):
                if p > 0:
                    work.append((branch, env, stack, prob * p, used + 1))
    return probs, budget_hit


def enumeration_record(enumerate_, scheme, *args):
    """The items of an enumeration in dict order, with each value's type,
    and the budget flag; or the `ExecError` message."""
    try:
        probs, budget_hit = enumerate_(scheme, *args)
    except ExecError as e:
        return f"ExecError: {e}"
    return [(k, type(p), p) for k, p in probs.items()], budget_hit


def assert_matches_reference(scheme, *args):
    got = enumeration_record(enumerate_terminations, scheme, *args)
    assert got == enumeration_record(reference_enumerate, scheme, *args)
    return got


class TestStep:
    # A step is one rewrite: an unfolding, a choice, or a projection
    # meeting a value.  Step budgets and caps make the count visible.

    def test_unit_and_omega_are_normal(self):
        # Unfolding S is the only step: a further one would trip the budget.
        assert enumerate_terminations(parse("S = e ;"), 0, step_budget=1) == ({0: F(1)}, False)
        assert enumerate_terminations(parse("S = omega ;"), 0, step_budget=1) == ({}, False)
        stats = monte_carlo(parse("S = omega ;"), 10, step_cap=2)
        assert stats.diverged == 10

    def test_nonterminal_unfolds(self):
        s = parse("F x = x ; S = F e ;")
        assert enumerate_terminations(s, 0, step_budget=2) == ({0: F(1)}, False)
        assert enumerate_terminations(s, 0, step_budget=1) == ({}, True)
        assert monte_carlo(s, 10, step_cap=2).censored == 10
        assert monte_carlo(s, 10, step_cap=3).histogram == {0: 10}

    def test_choice_records_branch_probability(self):
        assert enumerate_terminations(parse("S = e [1/4] omega ;"), 1) == ({1: F(1, 4)}, False)
        assert enumerate_terminations(parse("S = omega [1/4] e ;"), 1) == ({1: F(3, 4)}, False)
        stats = monte_carlo(parse("S = e [1/4] omega ;"), 4000, seed=1)
        lo, hi = stats.p_term_bounds()
        assert lo <= 1 / 4 <= hi and stats.histogram == {1: stats.terminated}

    def test_projection_reduces_tuple(self):
        s = parse("S : o ; S = pi_2 <omega, e> ;")
        assert enumerate_terminations(s, 0, step_budget=2) == ({0: F(1)}, False)
        assert enumerate_terminations(s, 0, step_budget=1) == ({}, True)

    def test_projection_of_a_normal_form(self):
        s = parse("S : o ; S = pi_1 e ;")
        assert enumerate_terminations(s, 0, step_budget=2) == ({0: F(1)}, False)
        s = parse("S : o ; S = pi_1 omega ;")
        assert enumerate_terminations(s, 0, step_budget=2) == ({}, False)
        assert monte_carlo(s, 10).diverged == 10
        s = parse("S : o ; S = pi_2 e ;")
        with pytest.raises(ExecError, match="projection index out of range"):
            enumerate_terminations(s, 0)
        with pytest.raises(ExecError, match="projection index out of range"):
            monte_carlo(s, 1)

    def test_under_application_is_an_error(self):
        s = parse("F x = x ; S = F ;")
        with pytest.raises(ExecError, match="under-applied non-terminal 'F'"):
            enumerate_terminations(s, 0)
        with pytest.raises(ExecError, match="under-applied non-terminal 'F'"):
            monte_carlo(s, 1)

    def test_arguments_bind_parameters(self):
        # x is bound to G and y to omega, also inside the choice: G
        # returns the choice, whose right branch is the only way to e.
        s = parse("F x y = x (y [1/2] e) ; G z = z ; S = F G omega ;")
        assert enumerate_terminations(s, 1) == ({1: F(1, 2)}, False)


class TestEnumerate:
    def test_random_walk_exact_probabilities(self):
        probs, budget_hit = enumerate_terminations(load_bundled("randomwalk"), 7)
        assert not budget_hit
        assert probs == {1: F(1, 2), 3: F(1, 8), 5: F(1, 16), 7: F(5, 128)}

    def test_unit_terminates_without_choices(self):
        probs, _ = enumerate_terminations(load_bundled("unit"), 5)
        assert probs == {0: F(1)}

    def test_omega_never_terminates(self):
        probs, _ = enumerate_terminations(load_bundled("omega"), 5)
        assert probs == {}

    def test_agrees_with_series_coefficients(self):
        for name in ("geometric", "eq3", "chain"):
            scheme = load_bundled(name)
            fas = reachable(compile_scheme(scheme))
            coeffs = kleene_series(fas, 6)[fas.start].coeffs
            probs, budget_hit = enumerate_terminations(scheme, 6)
            assert not budget_hit
            for i in range(7):
                assert probs.get(i, F(0)) == coeffs[i], (name, i)

    def test_budget_flag_reported(self):
        # An unproductive loop burns deterministic steps without ever
        # reaching a choice, so the budget trips.
        s = parse("S = L ; L = L ;")
        probs, budget_hit = enumerate_terminations(s, 3, step_budget=100)
        assert budget_hit
        assert probs == {}

    @pytest.mark.parametrize(
        "text",
        ["F x y = F e x ; S = F e e ;", "F x y = F (G e) x ; G z = z ; S = F e e ;"],
        ids=["parameter", "closed-compound"],
    )
    def test_loop_passing_arguments_on_runs_in_constant_space(self, text):
        # A passed-on parameter shares its closure and a closed argument
        # keeps no env, so no chain of envs builds up over the steps.
        tracemalloc.start()
        try:
            result = enumerate_terminations(parse(text), 0, step_budget=20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == ({}, True)
        assert peak < 200_000


class TestIntegerWeights:
    # The enumerator carries each branch's weight as an integer numerator
    # and denominator; it must give what Fraction weights give.

    def test_mixed_denominators_on_paths_of_equal_length(self):
        # Two-choice paths of denominators 15, 15 and 35 add up under one
        # choice count; the right subtree is explored first.
        s = parse("S = (e [1/3] e) [2/5] (e [3/7] (e [1/2] omega)) ;")
        items, budget_hit = assert_matches_reference(s, 5)
        assert items == [(3, F, F(6, 35)), (2, F, F(23, 35))]
        assert not budget_hit

    def test_biases_zero_and_one_explore_one_branch(self):
        # The branch of probability 0 loops without a choice: exploring it
        # would trip the budget.
        for text in ("S = e [1] L ; L = L ;", "S = L [0] e ; L = L ;"):
            items, budget_hit = assert_matches_reference(parse(text), 3, 100)
            assert items == [(1, F, F(1))] and not budget_hit

    @pytest.mark.parametrize("max_choices", range(8))
    def test_max_choices_cuts_the_tree(self, max_choices):
        items, _ = assert_matches_reference(load_bundled("randomwalk"), max_choices)
        assert all(k <= max_choices for k, _, _ in items)

    def test_budget_hit_on_one_branch(self):
        s = parse("S = e [1/3] L ; L = L ;")
        assert assert_matches_reference(s, 4, 50) == ([(1, F, F(1, 3))], True)

    def test_generated_schemes(self):
        rng = random.Random(11)
        for i in range(50):
            scheme = (random_order1_scheme if i % 2 else random_order2_scheme)(rng)
            for args in ((6, 2000), (3, 7)):
                assert_matches_reference(scheme, *args)

    def test_negative_max_choices_is_refused(self):
        with pytest.raises(ValueError, match="max_choices"):
            enumerate_terminations(parse("S = e ;"), -1)


class TestProjections:
    # Hand-derived: pi_1 e terminates at once; pi_1 (e [1/2] omega) makes
    # one choice and terminates with probability 1/2.
    @pytest.mark.parametrize(
        "body, want",
        [("pi_1 e", {0: F(1)}), ("pi_1 (e [1/2] omega)", {1: F(1, 2)})],
    )
    def test_enumeration_agrees_with_series(self, body, want):
        scheme = parse(f"S : o ; S = {body} ;")
        probs, budget_hit = enumerate_terminations(scheme, 4)
        assert not budget_hit
        assert probs == want
        fas = reachable(compile_scheme(scheme))
        coeffs = kleene_series(fas, 4)[fas.start].coeffs
        assert list(coeffs) == [want.get(i, F(0)) for i in range(5)]

    def test_monte_carlo_counts_the_choice(self):
        stats = monte_carlo(parse("S : o ; S = pi_1 (e [1/2] omega) ;"), 200)
        assert stats.censored == 0
        assert stats.terminated + stats.diverged == 200
        assert set(stats.histogram) == {1}


class TestWilson:
    def test_degenerate_cases(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)
        lo, hi = wilson_interval(10, 10)
        assert lo < 1.0 and hi == 1.0
        lo, hi = wilson_interval(0, 10)
        assert lo == pytest.approx(0.0, abs=1e-12) and hi > 0.0

    def test_interval_narrows_with_samples(self):
        lo1, hi1 = wilson_interval(50, 100)
        lo2, hi2 = wilson_interval(5000, 10000)
        assert hi2 - lo2 < hi1 - lo1

    def test_contains_proportion(self):
        lo, hi = wilson_interval(300, 1000)
        assert lo <= 0.3 <= hi


class TestMonteCarlo:
    def test_deterministic_under_seed(self):
        s = load_bundled("geometric")
        a = monte_carlo(s, 500, seed=42)
        b = monte_carlo(s, 500, seed=42)
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self):
        s = load_bundled("geometric")
        a = monte_carlo(s, 500, seed=1)
        b = monte_carlo(s, 500, seed=2)
        assert a.histogram != b.histogram

    def test_three_outcome_accounting(self):
        stats = monte_carlo(load_bundled("eq3"), 400, seed=5)
        assert stats.terminated + stats.diverged + stats.censored == 400
        assert stats.diverged > 0  # omega is reachable
        lo, hi = stats.p_term_bounds()
        assert 0.0 <= lo <= hi <= 1.0
        assert lo <= 4 / 7 <= hi

    def test_divergence_lowers_upper_bound(self):
        stats = monte_carlo(load_bundled("omega"), 200, seed=0)
        assert stats.terminated == 0 and stats.diverged == 200
        lo, hi = stats.p_term_bounds()
        assert lo == 0.0 and hi < 0.2

    def test_json_and_histogram_outputs(self):
        stats = monte_carlo(load_bundled("geometric"), 300, seed=3)
        data = json.loads(stats.to_json())
        assert data["trials"] == 300
        assert data["algorithm"] == PRNG_ALGORITHM
        assert sum(stats.histogram.values()) == stats.terminated

    def test_mean_choices_matches_histogram(self):
        stats = monte_carlo(load_bundled("geometric"), 300, seed=3)
        want = sum(k * v for k, v in stats.histogram.items()) / stats.terminated
        assert stats.mean_choices == pytest.approx(want)

    def test_trials_draw_from_one_stream(self):
        # Each trial makes one draw m = int(random() * 2**53) and
        # terminates when m * 2 < 2**53, i.e. when m / 2**53 < 1/2.
        rng = random.Random(9)
        want = sum(int(rng.random() * 2**53) * 2 < 2**53 for _ in range(300))
        stats = monte_carlo(parse("S = e [1/2] omega ;"), 300, seed=9)
        assert stats.terminated == want and stats.diverged == 300 - want

    def test_negative_trials_are_refused(self):
        with pytest.raises(ValueError, match="trials"):
            monte_carlo(parse("S = e ;"), -3)

    def test_negative_seed_is_refused(self):
        # random.Random(-7) draws the stream of random.Random(7).
        with pytest.raises(ValueError, match="seed"):
            monte_carlo(parse("S = e ;"), 3, seed=-7)
