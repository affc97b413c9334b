"""Inputs of the benchmark and their known answers.

Every answer here is derived by hand from the scheme's text, never from
phors-lab's output:

* F x = (F (F x)) [b] x, and a ring of n such rules, has the generating
  function y = z (b y^2 + 1 - b).  By Lagrange inversion the coefficient
  of z^(2k+1) is C_k b^k (1-b)^(k+1), with C_k the k-th Catalan number,
  and every even coefficient is 0.  The walk terminates with probability
  min(1, (1-b)/b), and for b < 1/2 its expected choice count is
  1/(1-2b).
* geometric and chain terminate after exactly i >= 1 choices with
  probability 1/2^i.
* eq3 picks a word w over {A, B} of length n (2n choices, each 1/2),
  takes the exit (1 choice), and then passes 2n letters, each with
  probability 1/2: the coefficient of z^(4n+1) is 2^n / (4^n 2 4^n) =
  1/(2 8^n), which sums to 4/7.
* dyck_lossy reduces to y = (z^2/4)(1 + y^2), so the coefficient of
  z^(4k+2) is C_k / 4^(2k+1) and the termination probability is the
  least root of y^2 - 4y + 1, that is 2 - sqrt(3).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from phors_lab.syntax import (
    App,
    Arrow,
    Choice,
    NonTerm,
    NonTermDef,
    O,
    Omega,
    Scheme,
    Term,
    Unit,
    Var,
)

F = Fraction
INF = math.inf
TWO_MINUS_SQRT3 = "2-sqrt3"  # the one irrational termination probability


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def walk_coeffs(bias: Fraction) -> Callable[[int], Fraction]:
    def coeff(i: int) -> Fraction:
        if i % 2 == 0:
            return F(0)
        k = (i - 1) // 2
        return catalan(k) * bias**k * (1 - bias) ** (k + 1)

    return coeff


def _geometric(i: int) -> Fraction:
    return F(0) if i == 0 else F(1, 2**i)


def _eq3(i: int) -> Fraction:
    return F(1, 2 * 8 ** ((i - 1) // 4)) if i % 4 == 1 else F(0)


def _dyck_lossy(i: int) -> Fraction:
    if i % 4 != 2:
        return F(0)
    k = (i - 2) // 4
    return F(catalan(k), 4 ** (2 * k + 1))


def _unit(i: int) -> Fraction:
    return F(1) if i == 0 else F(0)


def _zero(i: int) -> Fraction:
    return F(0)


@dataclass(frozen=True)
class Known:
    """The answers a scheme must get.  `p_term` is a Fraction or
    TWO_MINUS_SQRT3; `interval_ok` also accepts a rational interval that
    contains an exact `p_term`.  `expected` is a Fraction, INF, or None
    where the scheme is not AST."""

    verdict: tuple[str, str]
    p_term: Fraction | str
    expected: Fraction | float | None
    coeff: Callable[[int], Fraction]
    interval_ok: bool = False


KNOWN = {
    "unit": Known(("yes", "yes"), F(1), F(0), _unit),
    "brackets": Known(("yes", "yes"), F(1), F(0), _unit),
    "omega": Known(("no", "no"), F(0), None, _zero),
    "randomwalk": Known(("yes", "no"), F(1), INF, walk_coeffs(F(1, 2))),
    "dyck": Known(("yes", "no"), F(1), INF, walk_coeffs(F(1, 2))),
    "geometric": Known(("yes", "yes"), F(1), F(2), _geometric),
    "chain": Known(("yes", "yes"), F(1), F(2), _geometric),
    "eq3": Known(("no", "no"), F(4, 7), None, _eq3),
    "dyck_lossy": Known(("no", "no"), TWO_MINUS_SQRT3, None, _dyck_lossy),
}

# Bundled schemes with unbounded grades: the pipeline analyses their
# finitary reduction.
INFINITARY = {"dyck", "dyck_lossy"}


# ---------------------------------------------------------------------------
# Ring family


RING_SIZES = (1, 2, 5, 10, 20, 40)
RING_BIASES = (F(1, 2), F(1, 3), F(2, 3))  # critical, sub-, supercritical


def ring_text(n: int, bias: Fraction) -> str:
    """n rules; rule i is Fi x = (Fj (Fj x)) [bias] x with j = i+1 mod n."""
    lines = []
    for i in range(n):
        j = (i + 1) % n
        lines.append(f"F{i} : !1 o -o o ;")
        lines.append(f"F{i} x = (F{j} (F{j} x)) [{bias}] x ;")
    lines.append("S = F0 e ;")
    return "\n".join(lines) + "\n"


def ring_known(bias: Fraction) -> Known:
    if bias < F(1, 2):
        return Known(("yes", "yes"), F(1), 1 / (1 - 2 * bias), walk_coeffs(bias))
    if bias == F(1, 2):
        return Known(("yes", "no"), F(1), INF, walk_coeffs(bias))
    return Known(("no", "no"), (1 - bias) / bias, None, walk_coeffs(bias), True)


# ---------------------------------------------------------------------------
# Seeded random schemes.  Both families are well typed by construction:
# a bound variable is consumed at most its grade along every branch.


def _bias(rng: random.Random) -> Fraction:
    return F(rng.randint(1, 3), 4)


def random_order1(rng: random.Random, n_rules: int = 3) -> Scheme:
    """Closed order-1 scheme: rules take up to two ground arguments of
    grade 1 or 2."""
    names = [f"F{i}" for i in range(n_rules)]
    grades = {n: [rng.randint(1, 2) for _ in range(rng.randint(0, 2))] for n in names}

    def ground(depth: int, budget: dict[str, int]) -> Term:
        roll = rng.random()
        if depth <= 0 or roll < 0.25:
            usable = [v for v, b in budget.items() if b > 0]
            if usable and rng.random() < 0.7:
                v = rng.choice(usable)
                budget[v] -= 1
                return Var(v)
            return Unit() if rng.random() < 0.85 else Omega()
        if roll < 0.55:
            left = ground(depth - 1, budget)
            return Choice(left, _bias(rng), ground(depth - 1, budget))
        callee = rng.choice(names)
        t: Term = NonTerm(callee)
        for g in grades[callee]:
            affordable = [v for v, b in budget.items() if b >= g]
            if affordable and rng.random() < 0.5:
                v = rng.choice(affordable)
                budget[v] -= g
                t = App(t, Var(v))
            else:
                t = App(t, ground(0, {}))
        return t

    rules = {}
    for n in names:
        ty = O
        for g in reversed(grades[n]):
            ty = Arrow(g, O, ty)
        params = tuple(f"x{i}" for i in range(len(grades[n])))
        rules[n] = NonTermDef(ty, params, ground(3, dict(zip(params, grades[n]))))
    rules["S"] = NonTermDef(O, (), ground(3, {}))
    return Scheme(rules, {}, "S")


def random_order2(rng: random.Random) -> Scheme:
    """Closed order-2 scheme: a combinator C : !k (!1 o -o o) -o
    (!1 o -o o) applied to one of two random order-1 actions."""
    k = rng.randint(1, 3)
    fn = Arrow(1, O, O)

    def c_body(budget: int) -> Term:
        if budget == 0 or rng.random() < 0.2:
            return Var("x") if rng.random() < 0.7 else Unit()
        if rng.random() < 0.3:
            return Choice(c_body(budget - 1), _bias(rng), c_body(budget - 1))
        return App(Var("f"), c_body(budget - 1))

    rules = {"C": NonTermDef(Arrow(k, fn, fn), ("f", "x"), c_body(k))}
    for name in ("A", "B"):
        bias = _bias(rng)
        act: Term = Var("x") if rng.random() < 0.5 else Choice(Var("x"), bias, Unit())
        rules[name] = NonTermDef(fn, ("x",), act)
    if rng.random() < 0.5:
        call = App(App(NonTerm("C"), NonTerm(rng.choice(("A", "B")))), Unit())
        rules["S"] = NonTermDef(O, (), Choice(call, F(1, 2), Unit()))
    else:
        rules["S"] = NonTermDef(O, (), App(App(NonTerm("C"), NonTerm("A")), Unit()))
    return Scheme(rules, {}, "S")


def random_batch(seed: int, size: int) -> list[Scheme]:
    rng = random.Random(seed)
    return [random_order1(rng) if i % 2 == 0 else random_order2(rng) for i in range(size)]
