"""The call-by-name machine through its two entry points: exhaustive
enumeration and Monte Carlo estimation.  The reference below is the
machine over the syntax tree that the compiled one replaced; both must
give the same records, step for step and draw for draw."""

import json
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from phors_lab import bundled_names, load_bundled
from phors_lab.interp import compile_scheme, reachable
from phors_lab.operational import (
    DEFAULT_STEP_BUDGET,
    PRNG_ALGORITHM,
    ExecError,
    RunStats,
    enumerate_terminations,
    monte_carlo,
    wilson_interval,
)
from phors_lab.solver import kleene_series
from phors_lab.syntax import (
    App,
    Choice,
    NonTerm,
    Omega,
    Param,
    Proj,
    Tuple_,
    Unit,
    Var,
    map_term,
    parse,
)

from conftest import random_order1_scheme, random_order2_scheme

F = Fraction

_E, _OMEGA, _CHOICE, _LIMIT = range(4)


def reference_compile(scheme):
    """Each rule as (arity, body), parameters renamed to their positions in
    the env, and the ids of the compound arguments that mention one: only
    their closures keep an env, so a loop passing closed terms on runs in
    constant space."""
    rules, open_args = {}, set()
    for n, d in scheme.nonterminals.items():
        pos = {p: Var(i) for i, p in enumerate(d.params)}
        body = map_term(d.body, lambda u: pos[u.name] if type(u) is Var else u)
        rules[n] = (len(d.params), body)
        todo = [(body, ())]  # (subterm, ids of the compound arguments around it)
        while todo:
            t, around = todo.pop()
            if type(t) is Var:
                open_args.update(around)
            elif type(t) is App:
                a = t.arg
                inner = around + (id(a),) if type(a) in (App, Choice, Tuple_, Proj) else around
                todo += [(t.fun, around), (a, inner)]
            elif type(t) is Choice:
                todo += [(t.left, around), (t.right, around)]
            elif type(t) in (Tuple_, Proj):
                todo += [(u, around) for u in (t.items if type(t) is Tuple_ else [t.body])]
    return rules, open_args


def reference_run(rules, open_args, t, env, stack, left):
    """Run the state (t, env, stack) of a `reference_compile`d scheme to e
    or omega (`_E`, `_OMEGA`), a `_CHOICE` (t is then the `Choice`), or
    the end of its `left` steps (`_LIMIT`).  `env` holds the closures (term, env) of
    the rule's parameters; `stack` is a cons list of argument closures and
    `int` projection frames.  Steps are unfoldings, choices, and
    projections meeting a tuple, e or omega; nothing else costs one."""
    while left > 0:
        while True:
            k = type(t)
            if k is App:
                a = t.arg
                if type(a) is Var:
                    a = env[a.name]
                else:
                    a = (a, env if id(a) in open_args else None)
                stack = (a, stack)
                t = t.fun
            elif k is Var:
                t, env = env[t.name]
            elif k is Proj:
                stack = (t.index, stack)
                t = t.body
            else:
                break
        if k is NonTerm:
            arity, body = rules[t.name]
            env = ()
            while len(env) < arity:
                if stack is None or type(stack[0]) is int:
                    raise ExecError(f"under-applied non-terminal {t.name!r} at head")
                a, stack = stack
                env += (a,)
            t = body
        elif k is Choice:
            return _CHOICE, t, env, stack, left
        elif stack is not None and type(stack[0]) is int and k in (Tuple_, Unit, Omega):
            # A normal form e or omega is a ground value of width 1.
            items = t.items if k is Tuple_ else (t,)
            i, stack = stack
            if i > len(items):
                raise ExecError("projection index out of range")
            t = items[i - 1]
        elif k is Tuple_:
            raise ExecError("tuple in head position of a ground term")
        elif k is Param:
            raise ExecError(f"open parameter {t.name!r} reached head position")
        else:  # e or omega: drop its arguments, up to a projection frame
            while stack is not None and type(stack[0]) is not int:
                stack = stack[1]
            if stack is None:
                return (_E if k is Unit else _OMEGA), t, env, stack, left
            if k is Unit:
                raise ExecError("terminal applied to arguments")
            return _LIMIT, t, env, stack, 0  # under a projection it steps in place forever
        left -= 1
    return _LIMIT, t, env, stack, left



def reference_enumerate(scheme, max_choices, step_budget=DEFAULT_STEP_BUDGET):
    """The enumerator with a `Fraction` weight per branch, added up leaf by
    leaf: the reference for `enumerate_terminations`' values, dict order
    and budget flag."""
    probs = {}
    budget_hit = False
    rules, open_args = reference_compile(scheme)
    work = [(NonTerm(scheme.start), (), None, F(1), 0)]
    while work:
        t, env, stack, prob, used = work.pop()
        outcome, t, env, stack, _ = reference_run(rules, open_args, t, env, stack, step_budget + 1)
        if outcome == _E:
            probs[used] = probs.get(used, F(0)) + prob
        elif outcome == _LIMIT:
            budget_hit = True
        elif outcome == _CHOICE and used < max_choices:
            for branch, p in ((t.left, t.bias), (t.right, 1 - t.bias)):
                if p > 0:
                    work.append((branch, env, stack, prob * p, used + 1))
    return probs, budget_hit


def reference_monte_carlo(scheme, trials, step_cap=10**4, seed=0):
    """Monte Carlo that returns to its loop at every choice and draws
    m = int(random() * 2**53), taking the left branch of a bias n/d when
    m*d < n * 2**53: the reference for `monte_carlo`."""
    terminated = diverged = censored = 0
    histogram = {}
    rules, open_args = reference_compile(scheme)
    rng = random.Random(seed)
    for _ in range(trials):
        t, env, stack, left = NonTerm(scheme.start), (), None, step_cap
        choices = 0
        while True:
            outcome, t, env, stack, left = reference_run(rules, open_args, t, env, stack, left)
            if outcome != _CHOICE:
                break
            m = int(rng.random() * 2**53)
            t = t.left if m * t.bias.denominator < t.bias.numerator << 53 else t.right
            choices += 1
            left -= 1
        if outcome == _E:
            terminated += 1
            histogram[choices] = histogram.get(choices, 0) + 1
        elif outcome == _OMEGA:
            diverged += 1
        else:
            censored += 1
    total_choices = sum(k * v for k, v in histogram.items())
    mean_choices = total_choices / terminated if terminated else None
    return RunStats(trials, terminated, diverged, censored, histogram, mean_choices, seed, step_cap)


def record(run, scheme, *args):
    """What run(scheme, *args) gives: a `RunStats`' JSON, or an
    enumeration's items in dict order, with each value's type, and its
    budget flag; or the `ExecError` message."""
    try:
        result = run(scheme, *args)
    except ExecError as e:
        return f"ExecError: {e}"
    if isinstance(result, RunStats):
        return result.to_json()
    probs, budget_hit = result
    return [(k, type(p), p) for k, p in probs.items()], budget_hit


def assert_matches_reference(scheme, *args):
    got = record(enumerate_terminations, scheme, *args)
    assert got == record(reference_enumerate, scheme, *args)
    return got


def assert_monte_carlo_matches_reference(scheme, *args):
    got = record(monte_carlo, scheme, *args)
    assert got == record(reference_monte_carlo, scheme, *args)
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




class TestChoiceFreeLoops:
    # After 2**16 steps without a choice, a state repeated at an unfolding
    # ends the run as a budget hit, which it would reach anyway.

    def test_loop_ends_long_before_the_budget(self):
        s = parse("F1 : !1 o -o o ; F1 x0 = F1 e ; S = F1 e ;")
        start = time.perf_counter()
        result = enumerate_terminations(s, 8)
        assert time.perf_counter() - start < 0.05
        assert result == ({}, True)

    def test_a_choice_resets_the_check(self):
        # Every unfolding of L meets the same state, but a choice comes
        # between any two.  Each trial takes over 2**15 choices, each
        # after an unfolding, so over 2**16 steps.
        s = parse("S = L ; L = e [1/40000] L ;")
        stats = assert_monte_carlo_matches_reference(s, 3, 10**6, 3)
        assert min(map(int, json.loads(stats)["histogram"])) > 2**15

    def test_long_choice_free_run_still_terminates(self):
        # F0 e unfolds F16 2**16 times, 2**17 steps in all, without
        # ever repeating a state.
        rules = [f"F{i} x = F{i + 1} (F{i + 1} x) ;" for i in range(16)]
        s = parse(" ".join(rules) + " F16 x = x ; S = F0 e ;")
        assert enumerate_terminations(s, 0) == ({0: F(1)}, False)
        assert monte_carlo(s, 1, step_cap=10**6).terminated == 1


class TestSharedStates:
    # The enumerator walks each distinct choice state once per number of
    # choices left, however many paths reach it.

    @pytest.mark.parametrize(
        "rule, last",
        [("F{i} x = F{j} (G x) ;", "F{n} x = x [1/2] omega ; G y = y ; S = F0 e ;"),
         ("F{i} = F{j} e ;", "F{n} = e [1/2] omega ; S = F0 ;")],
        ids=["env", "stack"],
    )
    def test_deep_states_are_keyed_without_recursion(self, rule, last):
        # At the choice, the env nests 5 000 closures, or the stack holds
        # 5 000 arguments.
        n = 5000
        text = " ".join(rule.format(i=i, j=i + 1) for i in range(n)) + " " + last.format(n=n)
        items, budget_hit = assert_matches_reference(parse(text), 3)
        assert items == [(1, F, F(1, 2))] and not budget_hit

    def test_long_walk_without_recursion(self):
        # Right-first, the deepest termination is met first.
        probs, budget_hit = enumerate_terminations(load_bundled("geometric"), 3000)
        assert list(probs.items()) == [(i, F(1, 2**i)) for i in range(3000, 0, -1)]
        assert not budget_hit

    @pytest.mark.parametrize("name", ["randomwalk", "dyck"])
    def test_critical_walks_to_degree_40(self, name, monkeypatch):
        # z^(2k+1) has C_k / 2^(2k+1).  The tree has over 10^10 paths, but
        # the machine runs at most (40 + 1)^2 times.
        import phors_lab.operational as operational

        calls = 0
        run = operational._run

        def counting(*args):
            nonlocal calls
            calls += 1
            return run(*args)

        monkeypatch.setattr(operational, "_run", counting)
        probs, budget_hit = enumerate_terminations(load_bundled(name), 40)
        catalan = [math.comb(2 * k, k) // (k + 1) for k in range(20)]
        assert probs == {2 * k + 1: F(c, 2 ** (2 * k + 1)) for k, c in enumerate(catalan)}
        assert not budget_hit
        assert calls <= 41**2


HAND_WRITTEN = [
    "S : o ; S = pi_2 <omega, e [1/3] omega> ;",
    "P : !1 o^2 -o o ; P x = pi_2 x ; S = P <omega, e [1/3] omega> ;",
    "S = pi_1 (e [2/7] <omega, e>) ;",
    "F x = x [1/2] F (pi_1 <x, omega>) ; S = F e ;",
    "S = pi_3 <e, e> ;",
    "S = pi_1 (omega e) ;",
    "S = pi_1 (e e) ;",
    "S = (e e) [1/2] (omega e) ;",
    "S = <e, e> e ;",
    "F x = x ; S = F ;",
    "F x y = x ; S = pi_1 (F e) ;",
    "F x = x ; S = pi_1 F ;",
    "A f = f (f e) ; B x = x [1/3] omega ; S = A B ;",
    "A f = f e e ; B x y = x [2/7] y ; S = A B ;",
    "F x y = y x ; G z = z ; S = F e G ;",
    "K = F ; F x = x [999/1000] omega ; S = K e ;",
    "F x = G ; G y z = y [1/3] z ; S = F e e omega ;",
    "param f : !1 o -o o ; S = e [1/2] f e ;",
]


class TestAgainstReference:
    # The compiled machine against the syntax-tree machine: enumeration
    # records and Monte Carlo JSON, at step budgets and caps small enough
    # to cut branches.

    @staticmethod
    def assert_agree(scheme, seeds, caps, trials):
        for args in ((10, 10**4), (6, 30), (3, 7)):
            assert_matches_reference(scheme, *args)
        for seed in seeds:
            for cap in caps:
                assert_monte_carlo_matches_reference(scheme, trials, cap, seed)

    @pytest.mark.parametrize("name", bundled_names())
    def test_bundled_schemes(self, name):
        self.assert_agree(load_bundled(name), (0, 5), (3, 40, 1000), 150)

    @pytest.mark.parametrize("text", HAND_WRITTEN)
    def test_hand_written_schemes(self, text):
        self.assert_agree(parse(text), (0, 5), (1, 2, 3, 100), 100)

    def test_generated_schemes(self):
        rng = random.Random(26)
        for i in range(300):
            scheme = (random_order1_scheme if i % 2 else random_order2_scheme)(rng)
            for args in ((6, 2000), (3, 4)):
                assert_matches_reference(scheme, *args)
            assert_monte_carlo_matches_reference(scheme, 30, 5 + i % 50, i)
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
        # terminates when m * d < n * 2**53, i.e. when m / 2**53 < n/d.
        # The last three biases sit on, just above and just below the
        # first draw.
        m0 = int(random.Random(9).random() * 2**53)
        biases = [F(0), F(1), F(1, 2), F(1, 3), F(2, 7), F(999, 1000), F(1, 2**61 - 1),
                  F(m0, 2**53), F(3 * m0 + 1, 3 * 2**53), F(3 * m0 - 1, 3 * 2**53)]
        for bias in biases:
            n, d = bias.numerator, bias.denominator
            rng = random.Random(9)
            want = sum(int(rng.random() * 2**53) * d < n << 53 for _ in range(300))
            stats = monte_carlo(parse(f"S = e [{n}/{d}] omega ;"), 300, seed=9)
            assert (stats.terminated, stats.diverged) == (want, 300 - want), bias

    def test_choice_free_loop_after_a_choice_is_censored(self):
        # The right branch loops without a choice: it is censored long
        # before the cap, and only the draws decide which trials take it.
        rng = random.Random(4)
        want = sum(int(rng.random() * 2**53) * 2 >= 2**53 for _ in range(8))
        stats = monte_carlo(parse("S = e [1/2] L ; L = L ;"), 8, step_cap=10**6, seed=4)
        assert (stats.terminated, stats.censored) == (8 - want, want)

    def test_negative_trials_are_refused(self):
        with pytest.raises(ValueError, match="trials"):
            monte_carlo(parse("S = e ;"), -3)

    def test_negative_seed_is_refused(self):
        # random.Random(-7) draws the stream of random.Random(7).
        with pytest.raises(ValueError, match="seed"):
            monte_carlo(parse("S = e ;"), 3, seed=-7)
