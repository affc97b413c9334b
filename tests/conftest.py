"""Shared fixtures and scheme generators for the test suite."""

import random
import re
from fractions import Fraction

import pytest

from phors_lab import load_bundled
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
    parse,
)

CLOSED_TYPABLE = [
    "randomwalk",
    "geometric",
    "unit",
    "omega",
    "eq3",
    "dyck",
    "dyck_lossy",
    "brackets",
    "chain",
]

# Exact termination probabilities of the closed typable examples; None
# marks an irrational value (checked against a certified interval).
P_TERM = {
    "randomwalk": Fraction(1),
    "geometric": Fraction(1),
    "unit": Fraction(1),
    "omega": Fraction(0),
    "eq3": Fraction(4, 7),
    "dyck": Fraction(1),
    "dyck_lossy": None,  # 2 - sqrt(3)
    "brackets": Fraction(1),
    "chain": Fraction(1),
}


# Scheme texts for the type checkers: those of test_typesys.py, and one
# per diagnostic that mutating grades cannot produce.
TYPING_TEXTS = [
    "F : !0 o -o o ; F x = x ; S = F e ;",
    "F : !0 o -o o ; F x = e ; S = F e ;",
    "F : !1 (!1 o -o o) -o o ; I : !1 o -o o ; F f = (f [1/2] f) e ; I x = x ; S = F I ;",
    "F : !1 o -o o ; F x = x [1/2] x ; S = F e ;",
    "G : !2 o -o o ; G y = y [1/2] y ; S = G e ;",
    "G : !2 o -o o ; F : !1 o -o o ; G y = (D y) [1/2] e ; D : !2 o -o o ; "
    "D y = D y ; F x = G (D x) ; S = F e ;",
    "L : !1 o -o !inf (!1 o -o o) -o o ; I : !1 o -o o ; I x = x ; L x f = f x ; S = L e I ;",
    "L : !inf (!1 o -o o) -o o ; M : !inf (!1 o -o o) -o o ; L f = M f ; M f = f e ; "
    "S = L I ; I : !1 o -o o ; I x = x ;",
    "F : o ; F = <e, e> ; S = F ;",
    "F : !1 o -o o ; F x = x ; S = F ;",
    "F : !1 o -o o ; F x = x e ; S = F e ;",
    "F : !1 o^2 -o o ; F x = pi_1 x ; S = F e ;",
    "F : !1 o -o o ; F x = x ; S = pi_1 <F, e> ;",
    "S : o ; S = pi_2 e ;",
    "F : !1 (!inf o -o o) -o o ; F f = f e ; I : !inf o -o o ; I x = e ; S = F I ;",
    "F : !1 o -o o ; F x = x ; G : !inf (!1 o -o o) -o o ; G f = f e ; S = G (F) ;",
]
GRADE = re.compile(r"!(\d+|inf)")

# Schemes that check_fin accepts but whose linear copies do not fit.  C's
# parameter f has type !2 o -o o and its argument A has grade 1, so linear
# A takes one copy of x where linear f takes two.
LOWER_GRADE_ARGUMENT = (
    "C : !1 (!2 o -o o) -o !1 o -o o ; C f x = e ; A : !1 o -o o ; A x = x ; S = C A e ;"
)
# In G, x inside F's grade-0 argument counts 0 times, but linearization
# keeps one copy of that argument, so x occurs twice in the linear body.
VARIABLE_IN_GRADE_ZERO_ARGUMENT = (
    "H : !1 o -o !1 o -o o ; H a b = a [1/2] b ; F : !0 o -o o ; F y = e ; "
    "G : !1 o -o o ; G x = H (F x) x ; S = G e ;"
)


@pytest.fixture(scope="session")
def bundled():
    return {name: load_bundled(name) for name in CLOSED_TYPABLE}


# ---------------------------------------------------------------------------
# Random scheme generators.  Both generators build well-typed schemes by
# construction (each bound variable is consumed at most its declared
# grade along every probabilistic branch) and the tests re-check them
# with the type checker anyway.


def random_order1_scheme(rng: random.Random, n_rules: int = 3) -> Scheme:
    """A random closed order-1 scheme: every non-terminal takes a few
    ground arguments with small grades."""
    names = [f"F{i}" for i in range(n_rules)]
    arities = {n: rng.randint(0, 2) for n in names}
    grades = {n: [rng.randint(1, 2) for _ in range(arities[n])] for n in names}

    def ty_of(name: str):
        ty = O
        for g in reversed(grades[name]):
            ty = Arrow(g, O, ty)
        return ty

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
            right = ground(depth - 1, budget)
            bias = Fraction(rng.randint(1, 3), 4)
            return Choice(left, bias, right)
        # Fully applied call to some non-terminal.
        callee = rng.choice(names)
        t: Term = NonTerm(callee)
        for g in grades[callee]:
            # The argument is consumed up to g times, so only spend
            # budget the argument can afford.
            affordable = [v for v, b in budget.items() if b >= g]
            if affordable and rng.random() < 0.5:
                v = rng.choice(affordable)
                budget[v] -= g
                arg: Term = Var(v)
            else:
                arg = ground(0, {})
            t = App(t, arg)
        return t

    nts = {}
    for n in names:
        params = tuple(f"x{i}" for i in range(arities[n]))
        budget = dict(zip(params, grades[n]))
        nts[n] = NonTermDef(ty_of(n), params, ground(3, budget))
    nts["S"] = NonTermDef(O, (), ground(3, {}))
    return Scheme(nts, {}, "S")


def random_order2_scheme(rng: random.Random) -> Scheme:
    """A random closed order-2 scheme built from a fixed shape family:
    a combinator C of type !k (!1 o -o o) -o (!1 o -o o) applied to
    random order-1 actions, with a random ground tail."""
    k = rng.randint(1, 3)
    fn_ty = Arrow(1, O, O)
    c_ty = Arrow(k, fn_ty, Arrow(1, O, O))

    # C f x = body using f at most k times along every branch.
    def c_body(budget: int) -> Term:
        if budget == 0 or rng.random() < 0.2:
            return Var("x") if rng.random() < 0.7 else Unit()
        if rng.random() < 0.3:
            bias = Fraction(rng.randint(1, 3), 4)
            return Choice(c_body(budget - 1), bias, c_body(budget - 1))
        return App(Var("f"), c_body(budget - 1))

    # A couple of order-1 actions to instantiate f with.
    actions = {}
    for name in ("A", "B"):
        bias = Fraction(rng.randint(1, 3), 4)
        act: Term = (
            Var("x")
            if rng.random() < 0.5
            else Choice(Var("x"), bias, Unit())
        )
        actions[name] = NonTermDef(fn_ty, ("x",), act)

    recurse = rng.random() < 0.5
    tail: Term = Choice(
        App(App(NonTerm("C"), NonTerm(rng.choice(("A", "B")))), Unit()),
        Fraction(1, 2),
        Unit(),
    )
    nts = {
        "C": NonTermDef(c_ty, ("f", "x"), c_body(k)),
        **actions,
        "S": NonTermDef(O, (), tail if recurse else App(App(NonTerm("C"), NonTerm("A")), Unit())),
    }
    return Scheme(nts, {}, "S")


def ring_text(n: int, bias: Fraction) -> str:
    """n rules; rule i is Fi x = (Fj (Fj x)) [bias] x with j = i+1 mod n.
    Every rule is the walk y = z (bias y^2 + 1 - bias), which terminates
    with probability min(1, (1 - bias) / bias)."""
    rules = "".join(
        f"F{i} : !1 o -o o ; F{i} x = (F{(i + 1) % n} (F{(i + 1) % n} x)) [{bias}] x ; "
        for i in range(n)
    )
    return rules + "S = F0 e ;"


def chain_tower(k: int) -> Scheme:
    """The chain-style tower of grade 2^k: F1 f x = f (f x), and each
    Fi f x = (F(i-1) (C1 f) x) [1/2] (Fi f x) uses f 2^i times.  k = 2
    is the bundled chain."""
    fn = "(!1 o -o o)"
    lines = [f"F{i} : !{2**i} {fn} -o {fn} ;" for i in range(1, k + 1)]
    lines += [f"C1 : !2 {fn} -o {fn} ;", "I : !1 o -o o ;", "F1 f x = f (f x) ;"]
    lines += [f"F{i} f x = (F{i - 1} (C1 f) x) [1/2] (F{i} f x) ;" for i in range(2, k + 1)]
    lines += ["C1 f x = f (f x) ;", "I x = x ;", f"S = F{k} I e ;"]
    return parse("\n".join(lines))


# ---------------------------------------------------------------------------
# Acceptance summary: one pass/fail line per numbered criterion.

import re as _re

_CRITERIA: dict[int, str] = {}

_TITLES = {
    1: "exact Catalan coefficients to degree 21 in < 5 s",
    2: "AST/PAST verdicts with certificates in < 1 s each",
    3: "typing corpus accepted/rejected with precise diagnostics",
    4: "linearization preserves coefficients to degree 12",
    5: "infinitary reduction reaches exactly the expected rules",
    6: "operational semantics agrees with the generating functions",
    7: "order-1 bodies are affine in their ground arguments",
    8: "Kleene iterates are monotone by construction",
}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = _re.search(r"test_criterion_(\d+)", report.nodeid)
    if m:
        k = int(m.group(1))
        # A criterion split over several tests passes only if all do.
        if _CRITERIA.get(k) != "failed":
            _CRITERIA[k] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for k in sorted(_CRITERIA):
        verdict = "PASS" if _CRITERIA[k] == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {k} ({_TITLES[k]}): {verdict}")
