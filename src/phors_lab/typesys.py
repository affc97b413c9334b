"""Graded type checking for schemes with bounded (and restricted
unbounded) exponentials.

Two checkers are provided: `check_fin` for finitely graded schemes
(every arrow carries a natural-number grade) and `check_inf`, a
conservative extension that additionally admits `!inf`-graded arguments
on non-terminal spines, under two restrictions: unbounded abstractions
must precede all bounded ones, and an unbounded argument position only
accepts a bare non-terminal or parameter.

Checking is directed by the declared types; only the grades of bound
variables are inferred (as minimal usage counts) and compared against
the declared bounds.
"""

from __future__ import annotations

import json

from .syntax import (
    INF,
    O,
    App,
    Arrow,
    Choice,
    Frozen,
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
# Graded contexts


class CtxError(ValueError):
    pass


class GradedCtx(Frozen):
    """Map from variable name to (grade, type); + and scaling act
    pointwise on grades and are partial: the types must agree."""

    __slots__ = ("bindings",)

    def __init__(self, bindings: tuple[tuple[str, int, GradedType], ...] = ()) -> None:
        object.__setattr__(self, "bindings", bindings)  # hot: one per typed subterm

    @staticmethod
    def of(d: dict[str, tuple[int, GradedType]]) -> "GradedCtx":
        return GradedCtx(tuple(sorted((n, g, t) for n, (g, t) in d.items())))

    def as_dict(self) -> dict[str, tuple[int, GradedType]]:
        return {n: (g, t) for n, g, t in self.bindings}

    def _merge(self, other: "GradedCtx", combine) -> "GradedCtx":
        # Absent bindings count as grade 0, so combine(g, 0) and
        # combine(0, g) must both equal g -- true for + and max.
        d = self.as_dict()
        for n, g, t in other.bindings:
            if n in d:
                g0, t0 = d[n]
                if t0 != t:
                    raise CtxError(f"variable {n!r} bound at two types")
                d[n] = (combine(g0, g), t0)
            else:
                d[n] = (g, t)
        return GradedCtx.of(d)

    def __add__(self, other: "GradedCtx") -> "GradedCtx":
        return self._merge(other, lambda a, b: a + b)

    def max(self, other: "GradedCtx") -> "GradedCtx":
        return self._merge(other, max)

    def scale(self, k: int) -> "GradedCtx":
        return GradedCtx(tuple((n, k * g, t) for n, g, t in self.bindings))

    def grade_of(self, name: str) -> int:
        for n, g, _ in self.bindings:
            if n == name:
                return g
        return 0


_EMPTY = GradedCtx()


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
    def __init__(self, diag: Diagnostic) -> None:
        self.diag = diag


class _Checker:
    """Shared engine.  In infinitary mode, rule bindings with infinite
    declared grade behave like scheme parameters: usable without
    accounting, and admissible as unbounded-position arguments."""

    def __init__(self, scheme: Scheme, infinitary: bool) -> None:
        self.scheme = scheme
        self.infinitary = infinitary

    def check_rule(self, name: str) -> GradedType:
        d = self.scheme.nonterminals[name]
        spec = arg_types(d.ty)
        bound: dict[str, GradedType] = {}
        unbounded: set[str] = set()
        seen_finite = False
        for pname, (grade, pty) in zip(d.params, spec):
            if grade == INF:
                if not self.infinitary:
                    raise _Reject(Diagnostic(name, "infinite grade present"))
                if seen_finite:
                    raise _Reject(
                        Diagnostic(
                            name,
                            "unbounded abstraction under a nonempty graded "
                            f"context: binding {pname!r} must precede all "
                            "finitely graded bindings",
                        )
                    )
                if not is_finitary(pty):
                    raise _Reject(
                        Diagnostic(name, f"argument type of {pname!r} is infinitary")
                    )
                unbounded.add(pname)
            else:
                seen_finite = True
                if not is_finitary(pty):
                    raise _Reject(
                        Diagnostic(name, f"argument type of {pname!r} is infinitary")
                    )
            bound[pname] = pty
        ty, usage = self.synth(name, d.body, bound, unbounded)
        if not isinstance(ty, Ground):
            raise _Reject(
                Diagnostic(
                    name,
                    "rule body must have ground type",
                    inferred=render_type(ty),
                )
            )
        # Assemble the derived type with inferred minimal grades and
        # compare against the declaration.
        derived: GradedType = ty
        for pname, (grade, pty) in reversed(list(zip(d.params, spec))):
            g = INF if pname in unbounded else usage.grade_of(pname)
            derived = Arrow(g, pty, derived)
        if not subtype(derived, d.ty):
            # Find the offending binding for the diagnostic.
            for pname, (grade, _) in zip(d.params, spec):
                if pname not in unbounded and usage.grade_of(pname) > grade:
                    raise _Reject(
                        Diagnostic(
                            name,
                            f"grade overflow: {pname!r} used "
                            f"{usage.grade_of(pname)} times but declared "
                            f"with grade {grade}",
                            inferred=render_type(derived),
                            declared=render_type(d.ty),
                        )
                    )
            raise _Reject(
                Diagnostic(
                    name,
                    "derived type is not a subtype of the declaration",
                    inferred=render_type(derived),
                    declared=render_type(d.ty),
                )
            )
        return derived

    def synth(
        self,
        rule: str,
        t: Term,
        bound: dict[str, GradedType],
        unbounded: set[str],
    ) -> tuple[GradedType, GradedCtx]:
        match t:
            case Unit():
                return O, _EMPTY
            case Omega():
                # Divergence inhabits the ground type only: rule bodies
                # never demand it at higher type in head position.
                return O, _EMPTY
            case Var(n):
                if n in unbounded:
                    return bound[n], _EMPTY
                return bound[n], GradedCtx.of({n: (1, bound[n])})
            case NonTerm(n):
                return self.scheme.nonterminals[n].ty, _EMPTY
            case Param(n):
                return self.scheme.params[n], _EMPTY
            case App(f, a):
                fty, fuse = self.synth(rule, f, bound, unbounded)
                if not isinstance(fty, Arrow):
                    raise _Reject(
                        Diagnostic(
                            rule,
                            "application of a non-arrow term",
                            inferred=render_type(fty),
                        )
                    )
                if fty.grade == INF:
                    ok = isinstance(a, (NonTerm, Param)) or (
                        isinstance(a, Var) and a.name in unbounded
                    )
                    if not ok:
                        raise _Reject(
                            Diagnostic(
                                rule,
                                "unbounded application: argument is neither "
                                "a parameter nor a non-terminal",
                            )
                        )
                aty, ause = self.synth(rule, a, bound, unbounded)
                if not subtype(aty, fty.arg):
                    raise _Reject(
                        Diagnostic(
                            rule,
                            "argument type mismatch",
                            inferred=render_type(aty),
                            declared=render_type(fty.arg),
                        )
                    )
                if fty.grade == INF:
                    use = fuse  # the argument carries no graded usage
                else:
                    use = fuse + ause.scale(fty.grade)
                return fty.result, use
            case Choice(l, _, r):
                lt, lu = self.synth(rule, l, bound, unbounded)
                rt, ru = self.synth(rule, r, bound, unbounded)
                if lt != O or rt != O:
                    raise _Reject(
                        Diagnostic(rule, "probabilistic choice requires type o")
                    )
                return O, lu.max(ru)
            case Tuple_(items):
                use = _EMPTY
                for it in items:
                    ity, iu = self.synth(rule, it, bound, unbounded)
                    if ity != O:
                        raise _Reject(
                            Diagnostic(rule, "tuple components must have type o")
                        )
                    use = use.max(iu)
                return Ground(len(items)), use
            case Proj(i, b):
                bty, bu = self.synth(rule, b, bound, unbounded)
                if not isinstance(bty, Ground) or i > bty.width:
                    raise _Reject(
                        Diagnostic(
                            rule,
                            f"projection index {i} outside ground width",
                            inferred=render_type(bty),
                        )
                    )
                return O, bu
        raise TypeError(t)


def _run(scheme: Scheme, infinitary: bool, system: str) -> TypingReport:
    checker = _Checker(scheme, infinitary)
    report = TypingReport("accepted", system)
    for name in scheme.nonterminals:
        try:
            report.derived[name] = checker.check_rule(name)
        except _Reject as e:
            report.status = "rejected"
            report.diagnostics.append(e.diag)
        except CtxError as e:
            report.status = "rejected"
            report.diagnostics.append(Diagnostic(name, str(e)))
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
    return _run(scheme, infinitary=False, system="finitary")


def check_inf(scheme: Scheme) -> TypingReport:
    """Infinitary checking: unbounded grades allowed on non-terminal
    spines; conservative over check_fin."""
    return _run(scheme, infinitary=True, system="infinitary")
