"""Operational oracle: call-by-name leftmost-outermost rewriting with
probabilistic choice, an exhaustive enumerator for exact termination
probabilities, and a reproducible Monte Carlo estimator.  Both drive the
same `step`, so a choice counts wherever it sits, including under
projections.

The enumerator and the compiled generating function must agree
coefficient by coefficient; this is the end-to-end sanity check of the
whole pipeline."""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .syntax import (
    App,
    Choice,
    NonTerm,
    Omega,
    Param,
    Proj,
    Scheme,
    Term,
    Tuple_,
    Unit,
    Var,
    map_term,
    spine,
)

DEFAULT_STEP_BUDGET = 10**6

PRNG_ALGORITHM = "python-random-mt19937"


class ExecError(RuntimeError):
    pass


def substitute(t: Term, env: dict[str, Term]) -> Term:
    return map_term(t, lambda u: env[u.name] if isinstance(u, Var) else u)


@dataclass(slots=True)
class StepResult:
    term: Term
    choice: tuple[str, Fraction] | None  # ("l"|"r", branch probability)
    normal: bool = False  # no step applied (e or omega at head)


def step(term: Term, scheme: Scheme, direction=None) -> StepResult:
    """One leftmost-outermost step.  `direction` supplies the branch of
    the choice the step takes, at the head or under projections: a
    callable bias -> bool (True = left).  Without it the likelier branch
    is taken."""
    head, args = spine(term)
    match head:
        case Unit():
            if args:
                raise ExecError("terminal applied to arguments")
            return StepResult(term, None, normal=True)
        case Omega():
            return StepResult(term, None, normal=True)
        case NonTerm(n):
            d = scheme.nonterminals[n]
            arity = len(d.params)
            if len(args) < arity:
                raise ExecError(f"under-applied non-terminal {n!r} at head")
            env = dict(zip(d.params, args[:arity]))
            new = substitute(d.body, env)
            for a in args[arity:]:
                new = App(new, a)
            return StepResult(new, None)
        case Choice(l, bias, r):
            go_left = direction(bias) if direction else bias >= Fraction(1, 2)
            branch = l if go_left else r
            for a in args:
                branch = App(branch, a)
            p = bias if go_left else 1 - bias
            return StepResult(branch, ("l" if go_left else "r", p))
        case Proj(i, b):
            bh, bargs = spine(b)
            if isinstance(bh, (Tuple_, Unit, Omega)) and not bargs:
                # A normal form e or omega is a ground value of width 1.
                items = bh.items if isinstance(bh, Tuple_) else (bh,)
                if i > len(items):
                    raise ExecError("projection index out of range")
                new = items[i - 1]
                for a in args:
                    new = App(new, a)
                return StepResult(new, None)
            inner = step(b, scheme, direction)
            new = Proj(i, inner.term)
            for a in args:
                new = App(new, a)
            return StepResult(new, inner.choice)
        case Tuple_():
            raise ExecError("tuple in head position of a ground term")
        case Param(n):
            raise ExecError(f"open parameter {n!r} reached head position")
        case Var(n):
            raise ExecError(f"unbound variable {n!r} reached head position")
    raise TypeError(head)


def enumerate_terminations(
    scheme: Scheme,
    max_choices: int,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> tuple[dict[int, Fraction], bool]:
    """Exact probability of terminating in exactly i choices, i <=
    max_choices, by exhausting the choice tree.  The second component is
    True when some branch exhausted its deterministic step budget, in
    which case the result is only a certified lower bound."""
    probs: dict[int, Fraction] = {}
    budget_hit = False
    # Depth-first over (term, prob, choices made).
    stack: list[tuple[Term, Fraction, int]] = [
        (NonTerm(scheme.start), Fraction(1), 0)
    ]
    while stack:
        term, prob, used = stack.pop()
        steps = 0
        while True:
            head, _ = spine(term)
            if isinstance(head, Unit):
                probs[used] = probs.get(used, Fraction(0)) + prob
                break
            if isinstance(head, Omega):
                break
            left = step(term, scheme, direction=lambda bias: True)
            if left.choice is not None:
                # The step takes a choice, wherever it sits: follow both
                # branches.
                if used < max_choices:
                    right = step(term, scheme, direction=lambda bias: False)
                    for res in (left, right):
                        p = res.choice[1]
                        if p > 0:
                            stack.append((res.term, prob * p, used + 1))
                break
            if steps >= step_budget:
                budget_hit = True
                break
            term = left.term
            steps += 1
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


@dataclass
class RunStats:
    trials: int
    terminated: int
    diverged: int  # reached a bare diverging head: certainly no e
    censored: int  # step cap hit: outcome unknown
    histogram: dict[int, int]  # choice count -> frequency (terminated runs)
    mean_choices: float | None
    seed: int
    step_cap: int
    algorithm: str = PRNG_ALGORITHM

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
                "algorithm": self.algorithm,
            },
            indent=2,
        )


def monte_carlo(
    scheme: Scheme,
    trials: int,
    step_cap: int = 10**4,
    seed: int = 0,
) -> RunStats:
    """Reproducible estimate of the termination behaviour.  Each trial
    derives its generator from (seed, trial index)."""
    terminated = diverged = censored = 0
    histogram: dict[int, int] = {}
    start = NonTerm(scheme.start)
    for i in range(trials):
        rng = random.Random((seed << 32) ^ i)
        term = start
        choices = 0
        steps = 0
        while True:
            if steps >= step_cap:
                censored += 1
                break
            head, args = spine(term)
            if isinstance(head, Unit):
                terminated += 1
                histogram[choices] = histogram.get(choices, 0) + 1
                break
            if isinstance(head, Omega):
                diverged += 1
                break
            res = step(term, scheme, direction=lambda bias: rng.random() < bias)
            if res.choice is not None:
                choices += 1
            term = res.term
            steps += 1
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
