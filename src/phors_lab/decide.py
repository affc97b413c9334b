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
from fractions import Fraction

from .interp import Fas, var_name, z_vid
from .solver import (
    Interval,
    SolverError,
    Value,
    expected_steps,
    solve_at_one,
    value_hi,
)

ONE = Fraction(1)


class FixpointAtOne:
    """v with P(v, 1) = v exactly and v_start = 1."""

    def __init__(self, assignment: dict[int, Fraction]) -> None:
        self.assignment = assignment


class PreFixpointBelowOne:
    """v with P(v, 1) <= v componentwise and v_start < 1: by
    Knaster-Tarski the least fixpoint is below v, so AST fails."""

    def __init__(self, assignment: dict[int, Fraction]) -> None:
        self.assignment = assignment


class CriticalJacobian:
    """Nonzero u with (I - J)u = 0 at (w*, 1): the linearized system is
    singular, so the expected choice count diverges."""

    def __init__(self, order: list[int], kernel: list[Fraction],
                 solution: dict[int, Fraction]) -> None:
        self.order = order
        self.kernel = kernel
        self.solution = solution


class NonsingularLinearSolve:
    """d with (I - J)d = g at (w*, 1): the expected choice count."""

    def __init__(self, order: list[int], d_vector: dict[int, Fraction],
                 solution: dict[int, Fraction]) -> None:
        self.order = order
        self.d_vector = d_vector
        self.solution = solution


Certificate = FixpointAtOne | PreFixpointBelowOne | CriticalJacobian | NonsingularLinearSolve


def rat(x):
    """A Fraction as the string n/d; anything else as it is."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


class Verdict:
    def __init__(self, ast: str = "inconclusive", past: str = "inconclusive",
                 p_term: Value | None = None, expected: Fraction | float | Interval | None = None,
                 certificates: list[Certificate] | None = None,
                 notes: list[str] | None = None) -> None:
        if past == "yes" and ast != "yes":
            raise ValueError("PAST implies AST: inconsistent verdict")
        self.ast = ast  # "yes" | "no" | "inconclusive"
        self.past = past
        self.p_term = p_term
        self.expected = expected
        self.certificates = [] if certificates is None else certificates
        self.notes = [] if notes is None else notes

    def to_jsonable(self) -> dict:
        def by_name(m: dict[int, Fraction]) -> dict[str, str]:
            # Name order, so a report does not depend on the order in
            # which the process interned its variables.
            return dict(sorted((var_name(v), rat(x)) for v, x in m.items()))

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
                        "assignment": by_name(c.assignment),
                    }
                )
            elif isinstance(c, PreFixpointBelowOne):
                certs.append(
                    {
                        "kind": "pre-fixpoint-below-one",
                        "assignment": by_name(c.assignment),
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
                        "d": by_name(c.d_vector),
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


def decide_past(fas: Fas) -> Verdict:
    """AST from the least solution at z = 1, then PAST from the
    derivative at that same solution.  `fas` is a start-reachable
    system, as `reachable` returns."""
    sol = solve_at_one(fas)
    start_val = sol.values[fas.start]
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
        if _holds(fas, witness, operator.le):
            verdict.ast = verdict.past = "no"
            verdict.certificates.append(PreFixpointBelowOne(witness))
    if verdict.ast != "yes":
        return verdict
    try:
        res = expected_steps(fas, sol)
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
    return all(rel(p.eval(env), assignment[v]) for v, p in fas.eqs.items())


def verify_certificate(fas: Fas, cert: Certificate) -> bool:
    """Re-check a certificate by direct polynomial evaluation.  `fas` is
    a start-reachable system, as `reachable` returns, and every one of
    its equations is checked."""
    if isinstance(cert, FixpointAtOne):
        a = cert.assignment
        return _holds(fas, a, operator.eq) and a[fas.start] == ONE
    if isinstance(cert, PreFixpointBelowOne):
        a = cert.assignment
        return _holds(fas, a, operator.le) and a[fas.start] < ONE
    if not isinstance(cert, (CriticalJacobian, NonsingularLinearSolve)):
        raise TypeError(cert)
    # J and g are taken at the certificate's solution, which must be a
    # fixpoint of the whole system.
    order = cert.order
    if sorted(order) != sorted(fas.eqs) or not _holds(fas, cert.solution, operator.eq):
        return False
    z = z_vid()
    point = {**cert.solution, z: ONE}

    def residual(x: dict[int, Fraction]) -> list[Fraction]:
        """x_v - sum_w dP_v/dw * x_w over the variables w in x, one pass
        per row: a monomial c * prod u^e takes c * f * w^(f-1) *
        prod_{u != w} u^e * x_w for each w^f in it.  With x_z = 1 this is
        (I - J) x - g, with z absent it is (I - J) x."""
        out = []
        for v in order:
            acc = x[v]
            for m, c in fas.eqs[v].terms.items():
                for w, f in m:
                    if w in x:
                        acc -= c * f * x[w] * math.prod(point[u] ** (e - (u == w)) for u, e in m)
            out.append(acc)
        return out

    if isinstance(cert, CriticalJacobian):
        u = cert.kernel
        return len(u) == len(order) and any(u) and not any(residual(dict(zip(order, u))))
    d = cert.d_vector
    if set(d) != set(order) or any(x < 0 for x in d.values()):
        return False
    return not any(residual({**d, z: ONE}))
