"""Graded type checking for schemes with bounded (and restricted
unbounded) exponentials.

Two checkers are provided: `check_fin` for finitely graded schemes
(every arrow carries a natural-number grade) and `check_inf`, a
conservative extension that additionally admits `!inf`-graded arguments
on non-terminal spines, under two restrictions: unbounded abstractions
must precede all bounded ones, and an unbounded argument position only
accepts a bare non-terminal or parameter.

Checking is directed by the declared types; only the grades of bound
variables are inferred and compared against the declared bounds.  The
usage of a term is a count per bound variable, a plain dict from name
to the number of times the term uses it: application adds the
argument's counts scaled by the arrow's grade, a choice or a tuple
takes the pointwise maximum of its parts (only one of them runs), and a
binding of infinite grade is not counted.  A rule's inferred grade for
a parameter is its count in the body.
"""

from __future__ import annotations

import json

from .syntax import (
    INF,
    O,
    App,
    Arrow,
    Choice,
    Ground,
    GradedType,
    NonTerm,
    Omega,
    Param,
    Proj,
    Scheme,
    Term,
    Tuple_,
    Unit,
    Var,
    arg_types,
    is_finitary,
    render_type,
)


# ---------------------------------------------------------------------------
# Subtyping: covariant in both arrow positions, grades compared k <= h,
# inf the greatest grade.


def subtype(a: GradedType, b: GradedType) -> bool:
    match a, b:
        case Ground(n), Ground(m):
            return n == m
        case Arrow(k, a1, r1), Arrow(h, a2, r2):
            return k <= h and subtype(a1, a2) and subtype(r1, r2)
    return False


# ---------------------------------------------------------------------------
# Reports


class Diagnostic:
    def __init__(self, rule: str, message: str, inferred: str | None = None,
                 declared: str | None = None) -> None:
        self.rule = rule
        self.message = message
        self.inferred = inferred
        self.declared = declared


class TypingReport:
    def __init__(self, status: str, system: str, derived: dict[str, GradedType] | None = None,
                 diagnostics: list[Diagnostic] | None = None) -> None:
        self.status = status  # "accepted" | "rejected"
        self.system = system  # "finitary" | "infinitary"
        self.derived = {} if derived is None else derived
        self.diagnostics = [] if diagnostics is None else diagnostics

    @property
    def accepted(self) -> bool:
        return self.status == "accepted"

    def to_json(self) -> str:
        return json.dumps(
            {
                "status": self.status,
                "system": self.system,
                "derived": {n: render_type(t) for n, t in self.derived.items()},
                "diagnostics": [vars(d) for d in self.diagnostics],
            },
            indent=2,
        )


class _Reject(Exception):
    """A rule is ill-typed: (message, inferred, declared), the last two
    optional; _run adds the rule's name."""


def _check_rule(scheme: Scheme, name: str) -> GradedType:
    """The derived type of a rule.  A binding with infinite declared
    grade behaves like a scheme parameter: usable without accounting,
    and admissible as an unbounded-position argument."""
    d = scheme.nonterminals[name]
    spec = arg_types(d.ty)
    bound: dict[str, GradedType] = {}
    unbounded: set[str] = set()
    seen_finite = False
    for pname, (grade, pty) in zip(d.params, spec):
        if grade == INF:
            if seen_finite:
                raise _Reject(
                    "unbounded abstraction under a nonempty graded "
                    f"context: binding {pname!r} must precede all "
                    "finitely graded bindings"
                )
            unbounded.add(pname)
        else:
            seen_finite = True
        if not is_finitary(pty):
            raise _Reject(f"argument type of {pname!r} is infinitary")
        bound[pname] = pty
    ty, usage = _synth(scheme, d.body, bound, unbounded)
    if not isinstance(ty, Ground):
        raise _Reject("rule body must have ground type", render_type(ty))
    # Assemble the derived type with inferred minimal grades and
    # compare against the declaration.
    derived: GradedType = ty
    for pname, (grade, pty) in reversed(list(zip(d.params, spec))):
        g = INF if pname in unbounded else usage.get(pname, 0)
        derived = Arrow(g, pty, derived)
    if not subtype(derived, d.ty):
        inferred, declared = render_type(derived), render_type(d.ty)
        # Name the offending binding, if there is one.
        for pname, (grade, _) in zip(d.params, spec):
            if pname not in unbounded and usage.get(pname, 0) > grade:
                raise _Reject(
                    f"grade overflow: {pname!r} used {usage[pname]} times "
                    f"but declared with grade {grade}",
                    inferred,
                    declared,
                )
        raise _Reject("derived type is not a subtype of the declaration", inferred, declared)
    return derived


def _synth(
    scheme: Scheme, t: Term, bound: dict[str, GradedType], unbounded: set[str]
) -> tuple[GradedType, dict[str, int]]:
    """The type of t and how many times it uses each bound variable (an
    absent variable is used 0 times).  Every call returns a fresh dict,
    which its caller may update in place."""
    match t:
        case Unit():
            return O, {}
        case Omega():
            # Divergence inhabits the ground type only: rule bodies
            # never demand it at higher type in head position.
            return O, {}
        case Var(n):
            return bound[n], {} if n in unbounded else {n: 1}
        case NonTerm(n):
            return scheme.nonterminals[n].ty, {}
        case Param(n):
            return scheme.params[n], {}
        case App(f, a):
            fty, use = _synth(scheme, f, bound, unbounded)
            if not isinstance(fty, Arrow):
                raise _Reject("application of a non-arrow term", render_type(fty))
            if fty.grade == INF and not (
                isinstance(a, (NonTerm, Param)) or (isinstance(a, Var) and a.name in unbounded)
            ):
                raise _Reject(
                    "unbounded application: argument is neither "
                    "a parameter nor a non-terminal"
                )
            aty, ause = _synth(scheme, a, bound, unbounded)
            if not subtype(aty, fty.arg):
                raise _Reject("argument type mismatch", render_type(aty), render_type(fty.arg))
            if fty.grade != INF:  # an unbounded argument carries no graded usage
                for n, g in ause.items():
                    use[n] = use.get(n, 0) + fty.grade * g
            return fty.result, use
        case Choice(l, _, r):
            lt, use = _synth(scheme, l, bound, unbounded)
            rt, ru = _synth(scheme, r, bound, unbounded)
            if lt != O or rt != O:
                raise _Reject("probabilistic choice requires type o")
            return O, _max_into(use, ru)
        case Tuple_(items):
            use = {}
            for it in items:
                ity, iu = _synth(scheme, it, bound, unbounded)
                if ity != O:
                    raise _Reject("tuple components must have type o")
                _max_into(use, iu)
            return Ground(len(items)), use
        case Proj(i, b):
            bty, use = _synth(scheme, b, bound, unbounded)
            if not isinstance(bty, Ground) or i > bty.width:
                raise _Reject(
                    f"projection index {i} outside ground width", render_type(bty)
                )
            return O, use
    raise TypeError(t)


def _max_into(use: dict[str, int], other: dict[str, int]) -> dict[str, int]:
    """use updated to the pointwise maximum of use and other."""
    for n, g in other.items():
        if g > use.get(n, 0):
            use[n] = g
    return use


def _run(scheme: Scheme, system: str) -> TypingReport:
    report = TypingReport("accepted", system)
    for name in scheme.nonterminals:
        try:
            report.derived[name] = _check_rule(scheme, name)
        except _Reject as e:
            report.status = "rejected"
            report.diagnostics.append(Diagnostic(name, *e.args))
    return report


def check_fin(scheme: Scheme) -> TypingReport:
    """Finitely graded checking: no infinite grades, no open parameters."""
    if scheme.params:
        rep = TypingReport("rejected", "finitary")
        rep.diagnostics.append(
            Diagnostic("<scheme>", "open parameters are not finitely graded")
        )
        return rep
    for name, d in scheme.nonterminals.items():
        if not is_finitary(d.ty):
            rep = TypingReport("rejected", "finitary")
            rep.diagnostics.append(
                Diagnostic(name, "infinite grade present", declared=render_type(d.ty))
            )
            return rep
    # Without infinite grades, the checker's unbounded cases never arise.
    return _run(scheme, "finitary")


def check_inf(scheme: Scheme) -> TypingReport:
    """Infinitary checking: unbounded grades allowed on non-terminal
    spines; conservative over check_fin."""
    return _run(scheme, "infinitary")
