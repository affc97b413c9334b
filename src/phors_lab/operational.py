"""Operational oracle: a call-by-name closure machine with probabilistic
choice (Krivine, "A call-by-name lambda-calculus machine", HOSC 2007),
driven by an exhaustive enumerator of exact termination probabilities
and by a reproducible Monte Carlo estimator.  The enumerator and the
compiled generating function must agree coefficient by coefficient; this
is the end-to-end sanity check of the whole pipeline."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

from .syntax import (
    App,
    Choice,
    ExecError,
    NonTerm,
    Omega,
    Param,
    Proj,
    Scheme,
    Tuple_,
    Unit,
    Var,
    map_term,
)

DEFAULT_STEP_BUDGET = 10**6

PRNG_ALGORITHM = "python-random-mt19937-one-stream"


_E, _OMEGA, _CHOICE, _LIMIT = range(4)


def _compile(scheme: Scheme) -> tuple[dict, set[int]]:
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


def _run(rules, open_args, t, env, stack, left):
    """Run the state (t, env, stack) of a `_compile`d scheme to e or omega
    (`_E`, `_OMEGA`), a `_CHOICE` (t is then the `Choice`), or the end of
    its `left` steps (`_LIMIT`).  `env` holds the closures (term, env) of
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


def enumerate_terminations(
    scheme: Scheme,
    max_choices: int,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> tuple[dict[int, Fraction], bool]:
    """Exact probability of terminating in exactly i choices, i <=
    max_choices, by exhausting the choice tree.  The second component is
    True when some branch exhausted its deterministic step budget, in
    which case the result is only a certified lower bound.

    A branch carries its probability as an integer numerator and
    denominator: a choice of bias n/d multiplies both by (n, d) on the
    left and by (d - n, d) on the right, and a branch of probability 0
    is not explored.  Terminations are summed per choice count and per
    denominator in `int`s; each count's sum becomes one `Fraction` at
    the end."""
    if max_choices < 0:
        raise ValueError(f"max_choices must be >= 0, got {max_choices}")
    sums: dict[int, dict[int, int]] = {}  # choices -> denominator -> numerator
    budget_hit = False
    rules, open_args = _compile(scheme)
    # Depth-first over (state, num, den, choices made).  A branch may take
    # step_budget deterministic steps and is cut at the next one.
    work = [(NonTerm(scheme.start), (), None, 1, 1, 0)]
    while work:
        t, env, stack, num, den, used = work.pop()
        outcome, t, env, stack, _ = _run(rules, open_args, t, env, stack, step_budget + 1)
        if outcome == _E:
            by_den = sums.setdefault(used, {})
            by_den[den] = by_den.get(den, 0) + num
        elif outcome == _LIMIT:
            budget_hit = True
        elif outcome == _CHOICE and used < max_choices:
            n, d = t.bias.numerator, t.bias.denominator
            if n:
                work.append((t.left, env, stack, num * n, den * d, used + 1))
            if d - n:
                work.append((t.right, env, stack, num * (d - n), den * d, used + 1))
    probs = {used: sum(Fraction(n, d) for d, n in by_den.items()) for used, by_den in sums.items()}
    return probs, budget_hit


def wilson_interval(k: int, n: int, z: float = 3.0) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (z = 3 gives a
    99.7% interval)."""
    if n == 0:
        return 0.0, 1.0
    p = k / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    # The endpoints are exact at the boundaries; don't let float rounding
    # pull them inward.
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


class RunStats:
    def __init__(self, trials: int, terminated: int, diverged: int, censored: int,
                 histogram: dict[int, int], mean_choices: float | None, seed: int,
                 step_cap: int) -> None:
        self.trials = trials
        self.terminated = terminated
        self.diverged = diverged  # reached a bare diverging head: certainly no e
        self.censored = censored  # step cap hit: outcome unknown
        self.histogram = histogram  # choice count -> frequency (terminated runs)
        self.mean_choices = mean_choices
        self.seed = seed
        self.step_cap = step_cap

    @property
    def p_term_estimate(self) -> float:
        return self.terminated / self.trials if self.trials else 0.0

    def p_term_bounds(self, z: float = 3.0) -> tuple[float, float]:
        """Certain terminations give the lower bound; only certain
        divergences reduce the upper bound (censored runs might still
        have terminated)."""
        lo, _ = wilson_interval(self.terminated, self.trials, z)
        _, hi = wilson_interval(self.trials - self.diverged, self.trials, z)
        return lo, hi

    def to_json(self) -> str:
        lo, hi = self.p_term_bounds()
        return json.dumps(
            {
                "trials": self.trials,
                "terminated": self.terminated,
                "diverged": self.diverged,
                "censored": self.censored,
                "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
                "mean_choices": self.mean_choices,
                "p_term_estimate": self.p_term_estimate,
                "p_term_bounds_99_7": [lo, hi],
                "seed": self.seed,
                "step_cap": self.step_cap,
                "algorithm": PRNG_ALGORITHM,
            },
            indent=2,
        )


def monte_carlo(
    scheme: Scheme,
    trials: int,
    step_cap: int = 10**4,
    seed: int = 0,
) -> RunStats:
    """Reproducible estimate of the termination behaviour.  All trials
    draw, one after another, from one `random.Random(seed)`, once per
    choice; a choice is a step like any other.  The seed must be >= 0,
    since `random.Random` draws the same stream for seed and -seed."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    terminated = diverged = censored = 0
    histogram: dict[int, int] = {}
    rules, open_args = _compile(scheme)
    start = NonTerm(scheme.start)
    rng = random.Random(seed)
    for _ in range(trials):
        t, env, stack, left = start, (), None, step_cap
        choices = 0
        while True:
            outcome, t, env, stack, left = _run(rules, open_args, t, env, stack, left)
            if outcome != _CHOICE:
                break
            # random() is m / 2**53, so it is below the bias n/d exactly
            # when m*d < n * 2**53.
            bias = t.bias
            m = int(rng.random() * 9007199254740992.0)
            t = t.left if m * bias.denominator < bias.numerator << 53 else t.right
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
    return RunStats(
        trials,
        terminated,
        diverged,
        censored,
        histogram,
        total_choices / terminated if terminated else None,
        seed,
        step_cap,
    )
