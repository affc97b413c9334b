"""Top-level termination verdicts with machine-checkable certificates.

A verdict answers two questions about a compiled system: does the start
variable reach 1 at z = 1 (almost-sure termination), and is the
derivative of the start series at z = 1 finite (positive AST, i.e.
finite expected number of probabilistic choices).  Every yes/no answer
carries a certificate that `verify_certificate` re-checks by plain
polynomial arithmetic, independent of the solving code."""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import Poly
from .interp import Fas, reachable, var_name, z_vid
from .solver import (
    Interval,
    SolveConfig,
    SolverError,
    Value,
    expected_steps,
    solve_at_one,
    value_hi,
)

ONE = Fraction(1)
ZERO = Fraction(0)


@dataclass
class FixpointAtOne:
    """v with P(v, 1) = v exactly and v_start = 1."""

    assignment: dict[int, Fraction]


@dataclass
class PreFixpointBelowOne:
    """v with P(v, 1) <= v componentwise and v_start < 1: by
    Knaster-Tarski the least fixpoint is below v, so AST fails."""

    assignment: dict[int, Fraction]


@dataclass
class CriticalJacobian:
    """Nonzero u with (I - J)u = 0 at (w*, 1): the linearized system is
    singular, so the expected choice count diverges."""

    order: list[int]
    kernel: list[Fraction]
    solution: dict[int, Fraction]


@dataclass
class NonsingularLinearSolve:
    """d with (I - J)d = g at (w*, 1): the expected choice count."""

    order: list[int]
    d_vector: dict[int, Fraction]
    solution: dict[int, Fraction]


Certificate = FixpointAtOne | PreFixpointBelowOne | CriticalJacobian | NonsingularLinearSolve


@dataclass
class Verdict:
    ast: str = "inconclusive"  # "yes" | "no" | "inconclusive"
    past: str = "inconclusive"
    p_term: Value | None = None
    expected: Fraction | float | Interval | None = None
    certificates: list[Certificate] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._check()

    def _check(self) -> None:
        if self.past == "yes" and self.ast != "yes":
            raise ValueError("PAST implies AST: inconsistent verdict")

    def to_jsonable(self) -> dict:
        def rat(x):
            if isinstance(x, Fraction):
                return f"{x.numerator}/{x.denominator}"
            return x

        def val(x):
            if x is None:
                return None
            if isinstance(x, Interval):
                return {"lo": rat(x.lo), "hi": rat(x.hi)}
            if x == math.inf:
                return "inf"
            return rat(x)

        certs = []
        for c in self.certificates:
            if isinstance(c, FixpointAtOne):
                certs.append(
                    {
                        "kind": "fixpoint-at-one",
                        "assignment": {
                            var_name(v): rat(x) for v, x in c.assignment.items()
                        },
                    }
                )
            elif isinstance(c, PreFixpointBelowOne):
                certs.append(
                    {
                        "kind": "pre-fixpoint-below-one",
                        "assignment": {
                            var_name(v): rat(x) for v, x in c.assignment.items()
                        },
                    }
                )
            elif isinstance(c, CriticalJacobian):
                certs.append(
                    {
                        "kind": "critical-jacobian",
                        "order": [var_name(v) for v in c.order],
                        "kernel": [rat(x) for x in c.kernel],
                    }
                )
            elif isinstance(c, NonsingularLinearSolve):
                certs.append(
                    {
                        "kind": "nonsingular-linear-solve",
                        "d": {var_name(v): rat(x) for v, x in c.d_vector.items()},
                    }
                )
        return {
            "ast": self.ast,
            "past": self.past,
            "p_term": val(self.p_term),
            "expected": val(self.expected),
            "certificates": certs,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2)


def decide_past(fas: Fas, cfg: SolveConfig | None = None) -> Verdict:
    """AST from the least solution at z = 1, then PAST from the
    derivative at that same solution."""
    sub = reachable(fas)
    sol = solve_at_one(sub, cfg or SolveConfig())
    start_val = sol.values[sub.start]
    verdict = Verdict(p_term=start_val)
    if isinstance(start_val, Interval):
        verdict.notes.extend(sol.diagnostics)
    if sol.exact and start_val == ONE:
        verdict.ast = "yes"
        verdict.certificates.append(FixpointAtOne(dict(sol.values)))
    elif value_hi(start_val) < ONE:
        # The least-fixpoint values themselves form the pre-fixpoint
        # witness; interval values are widened upward, so re-check.
        witness = {v: value_hi(x) for v, x in sol.values.items()}
        if _holds(sub, witness, operator.le):
            verdict.ast = verdict.past = "no"
            verdict.certificates.append(PreFixpointBelowOne(witness))
    if verdict.ast != "yes":
        return verdict
    try:
        res = expected_steps(sub, sol)
    except SolverError as e:
        verdict.notes.append(str(e))
        return verdict
    solution = dict(sol.values)
    if res.value == math.inf:
        verdict.past = "no"
        verdict.expected = math.inf
        verdict.certificates.append(CriticalJacobian(res.order, res.kernel, solution))
    else:
        verdict.past = "yes"
        verdict.expected = res.value
        verdict.certificates.append(
            NonsingularLinearSolve(res.order, res.d_vector, solution)
        )
    return verdict


# ---------------------------------------------------------------------------
# Independent certificate verification


def _eval_at(p: Poly, env: dict[int, Fraction]) -> Fraction:
    v = p.eval(env)
    assert isinstance(v, (int, Fraction))
    return Fraction(v)


def _holds(
    fas: Fas,
    assignment: dict[int, Fraction],
    rel: Callable[[Fraction, Fraction], bool],
) -> bool:
    """Whether rel(P_v(a, 1), a_v) for every unknown v; False unless the
    assignment covers every unknown."""
    if any(v not in assignment for v in fas.eqs):
        return False
    env = dict(assignment)
    env[z_vid()] = ONE
    return all(rel(_eval_at(p, env), assignment[v]) for v, p in fas.eqs.items())


def verify_certificate(fas: Fas, cert: Certificate) -> bool:
    """Re-check a certificate by direct polynomial evaluation."""
    sub = reachable(fas)
    if isinstance(cert, FixpointAtOne):
        a = cert.assignment
        return _holds(sub, a, operator.eq) and a[sub.start] == ONE
    if isinstance(cert, PreFixpointBelowOne):
        a = cert.assignment
        return _holds(sub, a, operator.le) and a[sub.start] < ONE
    if not isinstance(cert, (CriticalJacobian, NonsingularLinearSolve)):
        raise TypeError(cert)
    # J and g are taken at the certificate's solution, which must be a
    # fixpoint of the whole reachable system.
    order = cert.order
    if sorted(order) != sorted(sub.eqs) or not _holds(sub, cert.solution, operator.eq):
        return False
    z = z_vid()
    point = {**cert.solution, z: ONE}

    def residual(x: list[Fraction]) -> list[Fraction]:
        """(I - J) x."""
        return [
            x[i] - sum(_eval_at(sub.eqs[v].derivative(w), point) * x[j]
                       for j, w in enumerate(order))
            for i, v in enumerate(order)
        ]

    if isinstance(cert, CriticalJacobian):
        u = cert.kernel
        return len(u) == len(order) and any(u) and not any(residual(u))
    d = cert.d_vector
    if set(d) != set(order) or any(x < 0 for x in d.values()):
        return False
    return residual([d[v] for v in order]) == [
        _eval_at(sub.eqs[v].derivative(z), point) for v in order
    ]
