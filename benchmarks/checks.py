"""Output checks.  Each check returns a list of problems; an empty list
means the output is right.  The expected values come from `inputs.KNOWN`
and `inputs.ring_known` (derived by hand), from properties every
correct answer has, or from the operational enumerator, which shares no
code with compilation and solving."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from inputs import INF, TWO_MINUS_SQRT3, Known

EXPECTED_STEPS_FAULT = "expected_steps requires termination probability 1"


@dataclass
class Report:
    """What an analysis answered, in one form for the CLI's JSON and for
    in-process results.  `p_term` is a Fraction, a (lo, hi) pair or
    None; `expected` a Fraction, INF or None."""

    verdict: tuple[str, str]
    p_term: Fraction | tuple[Fraction, Fraction] | None
    expected: Fraction | float | None
    coefficients: list[Fraction]
    certificates: int
    certificates_ok: bool = True
    notes: tuple[str, ...] = ()

    @property
    def inconclusive(self) -> bool:
        return "inconclusive" in self.verdict


def _value(x):
    if x is None:
        return None
    if x == "inf" or x == math.inf:
        return INF
    if isinstance(x, dict):
        return (Fraction(x["lo"]), Fraction(x["hi"]))
    if hasattr(x, "lo"):
        return (x.lo, x.hi)
    return Fraction(x)


def report_from_cli(data: dict) -> Report:
    return Report(
        (data["ast"], data["past"]),
        _value(data["p_term"]),
        _value(data["expected"]),
        [Fraction(c) for c in data["coefficients"]],
        len(data["certificates"]),
        True,  # the CLI re-verifies every certificate before printing
        tuple(data["notes"]),
    )


def report_from_verdict(verdict, coefficients, certificates_ok: list[bool]) -> Report:
    return Report(
        (verdict.ast, verdict.past),
        _value(verdict.p_term),
        _value(verdict.expected),
        list(coefficients),
        len(certificates_ok),
        all(certificates_ok),
        tuple(verdict.notes),
    )


def expected_exit_code(verdict: tuple[str, str]) -> int:
    if "inconclusive" in verdict:
        return 3
    return 2 if "no" in verdict else 0


def contains_two_minus_sqrt3(lo: Fraction, hi: Fraction) -> bool:
    """lo <= 2 - sqrt(3) <= hi, decided exactly for lo <= hi <= 2."""
    return lo <= hi <= 2 and (2 - lo) ** 2 >= 3 >= (2 - hi) ** 2


def _p_term_problems(known: Known, got) -> list[str]:
    if known.p_term == TWO_MINUS_SQRT3:
        if isinstance(got, tuple) and contains_two_minus_sqrt3(*got):
            return []
        return [f"p_term {got} does not contain 2 - sqrt(3)"]
    if got == known.p_term:
        return []
    if known.interval_ok and isinstance(got, tuple) and got[0] <= known.p_term <= got[1]:
        return []
    return [f"p_term {got} != {known.p_term}"]


def _answered(verdict: tuple[str, str]) -> tuple[bool, bool]:
    return verdict[0] != "inconclusive", verdict[1] != "inconclusive"


def check_known(known: Known, rep: Report) -> list[str]:
    """The conclusive parts of `rep` against a known answer, and every
    coefficient against the known series."""
    problems = []
    ast_done, past_done = _answered(rep.verdict)
    if ast_done and rep.verdict[0] != known.verdict[0]:
        problems.append(f"ast {rep.verdict[0]} != {known.verdict[0]}")
    if past_done and rep.verdict[1] != known.verdict[1]:
        problems.append(f"past {rep.verdict[1]} != {known.verdict[1]}")
    if ast_done:
        problems += _p_term_problems(known, rep.p_term)
    if past_done and rep.expected != known.expected:
        problems.append(f"expected {rep.expected} != {known.expected}")
    problems += coefficient_problems(known.coeff, rep.coefficients)
    problems += _certificate_problems(rep)
    return problems


def coefficient_problems(coeff, coefficients: list[Fraction]) -> list[str]:
    for i, c in enumerate(coefficients):
        if c != coeff(i):
            return [f"coefficient z^{i} is {c}, not {coeff(i)}"]
    return []


def _certificate_problems(rep: Report) -> list[str]:
    if not rep.certificates_ok:
        return ["a certificate failed verify_certificate"]
    if rep.verdict[0] != "inconclusive" and rep.certificates == 0:
        return ["a conclusive verdict without a certificate"]
    return []


def check_properties(
    rep: Report, enumerated: dict[int, Fraction], budget_hit: bool, degree: int
) -> list[str]:
    """Properties any correct analysis of a closed scheme has, for
    inputs without a known answer: coefficients equal to the enumerated
    probabilities (never below them when the step budget was hit), AST
    exactly when p_term = 1, partial sums of the series at most p_term,
    and a finite expectation at least the partial sum of i * c_i."""
    problems = []
    for i in range(degree + 1):
        want, got = enumerated.get(i, Fraction(0)), rep.coefficients[i]
        if (want > got) if budget_hit else (want != got):
            problems.append(f"coefficient z^{i} is {got}, enumeration gives {want}")
            break
    ast_done, past_done = _answered(rep.verdict)
    if ast_done and rep.p_term is None:
        problems.append(f"ast {rep.verdict[0]} without p_term")
    elif ast_done:
        hi = rep.p_term[1] if isinstance(rep.p_term, tuple) else rep.p_term
        if rep.verdict[0] == "yes" and rep.p_term != 1:
            problems.append(f"ast yes with p_term {rep.p_term}")
        if rep.verdict[0] == "no" and not hi < 1:
            problems.append(f"ast no with p_term {rep.p_term}")
        if sum(rep.coefficients) > hi:
            problems.append(f"partial sum {sum(rep.coefficients)} exceeds p_term {hi}")
    if past_done:
        if rep.verdict[1] == "yes":
            floor = sum(i * c for i, c in enumerate(rep.coefficients))
            if not isinstance(rep.expected, Fraction) or rep.expected < floor:
                problems.append(f"expected {rep.expected} below partial sum {floor}")
        elif rep.verdict[0] == "yes" and rep.expected != INF:
            problems.append(f"past no with expected {rep.expected}")
    problems += _certificate_problems(rep)
    return problems


def check_enumeration(known: Known, probs: dict[int, Fraction], budget_hit: bool, degree: int) -> list[str]:
    for i in range(degree + 1):
        want, got = known.coeff(i), probs.get(i, Fraction(0))
        if (got > want) if budget_hit else (got != want):
            return [f"enumerated P(z^{i}) = {got}, not {want}"]
    return []


def check_monte_carlo(known: Known, stats) -> list[str]:
    """The 3-sigma Wilson interval contains the known p_term."""
    if stats.terminated + stats.diverged + stats.censored != stats.trials:
        return ["trial outcomes do not add up to the trial count"]
    p = 2 - math.sqrt(3) if known.p_term == TWO_MINUS_SQRT3 else float(known.p_term)
    lo, hi = stats.p_term_bounds(z=3.0)
    if not lo <= p <= hi:
        return [f"3-sigma interval [{lo:.4f}, {hi:.4f}] misses p_term {p:.4f}"]
    return []


def inconclusive_reason(rep: Report) -> str:
    if rep.verdict[0] == "yes" and any(EXPECTED_STEPS_FAULT in n for n in rep.notes):
        return "past inconclusive: expected_steps needs every reachable unknown = 1"
    return f"inconclusive verdict {rep.verdict}"
