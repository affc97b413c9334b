"""Weighted relational semantics: finite index sets for graded types,
compositional interpretation of rule bodies as polynomials, and the
compilation of a scheme into a finite monotone polynomial fixpoint
system whose least nonnegative solution is the scheme's family of
generating functions.

Variables of the compiled system (registered in algebra.REGISTRY):

    ("z",)                     counts probabilistic choices
    ("nt", L, index_key)       one unknown per (non-terminal, index)
    ("pm", w, index_key)       free variable per (parameter, index)
    ("bv", rule, x, index_key) transient bound-variable atoms, removed
                               by coefficient extraction

Compilation interprets each rule body once per result index, with one
memo shared by all indexes of the rule's declared type.  The body
polynomial is split once by its bound-variable power product, and the
equation of each index is the part matching its argument profile.
While multiplying, monomials in which a bound variable's exponent
exceeds the declared grade are dropped, since no index can extract them.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import Monomial, Poly, REGISTRY
from .syntax import (
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
    order,
    type_of,
)
from .typesys import check_fin, check_inf

DEFAULT_VAR_CAP = 10**5


class InterpError(ValueError):
    pass


class IndexCapExceeded(InterpError):
    def __init__(self, cap: int) -> None:
        super().__init__(f"index-set size exceeds the configured cap of {cap}")
        self.cap = cap


# ---------------------------------------------------------------------------
# Index sets


@dataclass(frozen=True)
class GroundPoint:
    i: int  # 1..n within o^n

    def key(self):
        return (0, self.i)

    def render(self) -> str:
        return str(self.i)


@dataclass(frozen=True)
class ArrowPoint:
    arg_uses: tuple[tuple["Index", int], ...]  # multiset, canonically sorted
    result: "Index"

    def key(self):
        return (1, tuple((p.key(), m) for p, m in self.arg_uses), self.result.key())

    def render(self) -> str:
        mu = ",".join(
            p.render() if m == 1 else f"{p.render()}^{m}" for p, m in self.arg_uses
        )
        return f"([{mu}]->{self.result.render()})"


Index = GroundPoint | ArrowPoint


def multisets(points: list, max_mult: int) -> list[tuple]:
    """All multisets over `points` with per-element multiplicity at most
    max_mult, as canonically sorted ((point, mult), ...) tuples."""
    out = []
    for mults in itertools.product(range(max_mult + 1), repeat=len(points)):
        out.append(tuple((p, m) for p, m in zip(points, mults) if m > 0))
    out.sort(key=lambda mu: tuple((p.key(), m) for p, m in mu))
    return out


def index_set(ty: GradedType, cap: int = DEFAULT_VAR_CAP) -> list[Index]:
    """Complete canonical enumeration of the index set of a finitary type."""
    if not is_finitary(ty):
        raise InterpError("cannot enumerate the index set of an infinitary type")
    size = index_size(ty)
    if size > cap:
        raise IndexCapExceeded(cap)
    return _enum(ty)


def index_size(ty: GradedType) -> int:
    match ty:
        case Ground(n):
            return n
        case Arrow(k, a, r):
            return (int(k) + 1) ** index_size(a) * index_size(r)
    raise TypeError(ty)


def _enum(ty: GradedType) -> list[Index]:
    match ty:
        case Ground(n):
            return [GroundPoint(i) for i in range(1, n + 1)]
        case Arrow(k, a, r):
            pts_a = _enum(a)
            pts_r = _enum(r)
            out: list[Index] = [
                ArrowPoint(mu, res)
                for mu in multisets(pts_a, int(k))
                for res in pts_r
            ]
            out.sort(key=lambda p: p.key())
            return out
    raise TypeError(ty)


# ---------------------------------------------------------------------------
# Variable naming


def z_vid() -> int:
    return REGISTRY.intern(("z",))


def nt_vid(name: str, idx: Index) -> int:
    return REGISTRY.intern(("nt", name, idx.key()))


def pm_vid(name: str, idx: Index) -> int:
    return REGISTRY.intern(("pm", name, idx.key()))


def bv_vid(rule: str, var: str, idx: Index) -> int:
    return REGISTRY.intern(("bv", rule, var, idx.key()))


_INDEX_RENDER: dict[tuple, str] = {}


def _remember(idx: Index) -> None:
    _INDEX_RENDER.setdefault(idx.key(), idx.render())


def var_name(vid: int) -> str:
    key = REGISTRY.key_of(vid)
    match key:
        case ("z",):
            return "z"
        case ("nt", name, ik):
            return f"y[{name};{_INDEX_RENDER.get(ik, ik)}]"
        case ("pm", name, ik):
            return f"w[{name};{_INDEX_RENDER.get(ik, ik)}]"
        case ("bv", rule, var, ik):
            return f"x[{rule}.{var};{_INDEX_RENDER.get(ik, ik)}]"
    return repr(key)


# ---------------------------------------------------------------------------
# Compositional interpretation


class _Interp:
    def __init__(self, scheme: Scheme, rule: str, cap: int) -> None:
        self.scheme = scheme
        self.rule = rule
        self.cap = cap
        d = scheme.nonterminals[rule]
        self.bound_types = dict(zip(d.params, (t for _, t in arg_types(d.ty))))
        self.memo: dict[tuple[Term, tuple], Poly] = {}
        # Bound-variable id -> the largest exponent any requested target
        # extracts.  Products drop monomials beyond it: multiplication
        # only raises exponents, so they could never be extracted.
        # Variables without an entry are not cut.
        self.caps: dict[int, int] = {}

    def sem(self, t: Term, idx: Index) -> Poly:
        key = (t, idx.key())
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        p = self._sem(t, idx)
        self.memo[key] = p
        return p

    def _sem(self, t: Term, idx: Index) -> Poly:
        _remember(idx)
        match t:
            case Unit():
                return Poly.const(1) if idx == GroundPoint(1) else Poly()
            case Omega():
                return Poly()
            case Var(n):
                return Poly.var(bv_vid(self.rule, n, idx))
            case NonTerm(n):
                return Poly.var(nt_vid(n, idx))
            case Param(n):
                return Poly.var(pm_vid(n, idx))
            case Choice(l, bias, r):
                if not isinstance(idx, GroundPoint):
                    return Poly()
                z = Poly.var(z_vid())
                return (z * self.sem(l, idx)).scale(bias) + (
                    z * self.sem(r, idx)
                ).scale(1 - bias)
            case Tuple_(items):
                if not isinstance(idx, GroundPoint) or idx.i > len(items):
                    return Poly()
                return self.sem(items[idx.i - 1], GroundPoint(1))
            case Proj(i, b):
                if idx != GroundPoint(1):
                    return Poly()
                return self.sem(b, GroundPoint(i))
            case App(f, a):
                fty = type_of(f, self.scheme, self.bound_types)
                if fty.grade == math.inf:
                    raise InterpError(
                        "cannot compile an unbounded application directly; "
                        "reduce the scheme to finitary form first"
                    )
                arg_points = index_set(fty.arg, self.cap)
                total = Poly()
                for mu in multisets(arg_points, int(fty.grade)):
                    fpart = self.sem(f, ArrowPoint(mu, idx))
                    if fpart.is_zero():
                        continue
                    prod = fpart
                    for pt, mult in mu:
                        apart = self.sem(a, pt)
                        if apart.is_zero():
                            prod = Poly()
                            break
                        for _ in range(mult):
                            prod = self._cut(prod * apart)
                    total = total + prod
                return total
        raise TypeError(t)

    def _cut(self, p: Poly) -> Poly:
        caps = self.caps
        if not caps:
            return p
        return Poly(
            {
                m: c
                for m, c in p.terms.items()
                if all(e <= caps.get(v, e) for v, e in m)
            }
        )


def interpret_body(
    scheme: Scheme,
    rule: str,
    target: Index,
    cap: int = DEFAULT_VAR_CAP,
    unchecked: bool = False,
) -> Poly:
    """The polynomial interpreting the rule (as an abstraction over its
    parameters) at the given index of its declared type.

    With unchecked=True the target may carry argument multiplicities
    beyond the declared grades; the interpretation of a well-typed
    scheme is then identically zero there (stability)."""
    d = scheme.nonterminals[rule]
    if not unchecked and target not in set(index_set(d.ty, cap)):
        raise InterpError(f"index not in the declared index set of {rule!r}")
    return next(_rule_equations(scheme, rule, [target], cap))


def _rule_equations(
    scheme: Scheme, rule: str, targets: list[Index], cap: int
) -> Iterator[Poly]:
    """The rule's polynomial at each target index, in order.

    One interpreter serves all targets, so the body is interpreted once
    per result index.  Its polynomial is split once by the power product
    of bound variables; a target's equation is the bucket of its
    argument profile (exact coefficient extraction)."""
    d = scheme.nonterminals[rule]
    interp = _Interp(scheme, rule, cap)
    # Unwind each target through the rule's abstractions.
    unwound: list[tuple[Index, Monomial]] = []
    for idx in targets:
        profile: list[tuple[int, int]] = []
        for pname in d.params:
            if not isinstance(idx, ArrowPoint):
                raise InterpError(f"index too shallow for rule {rule!r}")
            profile.extend((bv_vid(rule, pname, pt), m) for pt, m in idx.arg_uses)
            idx = idx.result
        unwound.append((idx, tuple(sorted(profile))))

    domain: set[int] = set()
    for pname in d.params:
        for pt in index_set(interp.bound_types[pname], cap):
            domain.add(bv_vid(rule, pname, pt))
    interp.caps = dict.fromkeys(domain, 0)
    for _, profile in unwound:
        for vid, m in profile:
            interp.caps[vid] = max(interp.caps[vid], m)

    # Note the body polynomial may still exceed the declared grade in a
    # binding's variables taken together: the excess monomials all carry
    # unknowns that are zero in the least fixpoint, and disappear with
    # them.  The grade bound is checked as a property after zero
    # elimination.
    split: dict[tuple, dict[Monomial, dict[Monomial, Fraction]]] = {}
    for idx, profile in unwound:
        buckets = split.get(idx.key())
        if buckets is None:
            buckets = split[idx.key()] = _split(interp.sem(d.body, idx), domain)
        yield Poly(buckets.get(profile, {}))


def _split(p: Poly, domain: set[int]) -> dict[Monomial, dict[Monomial, Fraction]]:
    """Group the monomials of p by their power product over domain; each
    group maps the remaining power product to its coefficient."""
    buckets: dict[Monomial, dict[Monomial, Fraction]] = {}
    for m, c in p.terms.items():
        bound = tuple(ve for ve in m if ve[0] in domain)
        rest = tuple(ve for ve in m if ve[0] not in domain)
        buckets.setdefault(bound, {})[rest] = c
    return buckets


# ---------------------------------------------------------------------------
# The compiled fixpoint system


@dataclass
class Fas:
    """Finite monotone polynomial fixpoint system w = P(w, z)."""

    eqs: dict[int, Poly]  # unknown vid -> right-hand side
    start: int
    param_vids: set[int] = field(default_factory=set)
    zeros: set[int] = field(default_factory=set)  # eliminated zero unknowns
    proper: dict[int, bool] = field(default_factory=dict)

    def is_closed(self) -> bool:
        return not self.param_vids

    def dependencies(self, vid: int) -> set[int]:
        return {v for v in self.eqs[vid].variables() if v in self.eqs}

    def render(self) -> str:
        lines = []
        for vid in sorted(self.eqs, key=var_name):
            flag = "" if self.proper.get(vid, True) else "   # improper"
            lines.append(f"{var_name(vid)} = {self.eqs[vid].render(var_name)}{flag}")
        lines.append(f"start {var_name(self.start)}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": 1,
                "start": var_name(self.start),
                "equations": {
                    var_name(v): self.eqs[v].render(var_name)
                    for v in sorted(self.eqs, key=var_name)
                },
                "proper": {
                    var_name(v): self.proper.get(v, True)
                    for v in sorted(self.eqs, key=var_name)
                },
                "parameters": sorted(var_name(v) for v in self.param_vids),
            },
            indent=2,
        )


def _is_proper(p: Poly, system_vids: set[int]) -> bool:
    if p.constant_term() != 0:
        return False
    for m in p.terms:
        if len(m) == 1 and m[0][0] in system_vids and m[0][1] == 1:
            return False
    return True


def compile_scheme(scheme: Scheme, cap: int = DEFAULT_VAR_CAP) -> Fas:
    """Compile a finitary scheme (closed or parametric) to its fixpoint
    system, eliminating unknowns whose least-fixpoint value is zero."""
    report = check_fin(scheme) if scheme.is_closed() else check_inf(scheme)
    if not report.accepted:
        msgs = "; ".join(d.message for d in report.diagnostics)
        raise InterpError(f"scheme does not type-check: {msgs}")
    for name, d in scheme.nonterminals.items():
        if not is_finitary(d.ty):
            raise InterpError(
                f"non-terminal {name!r} has an infinitary type; reduce first"
            )

    eqs: dict[int, Poly] = {}
    param_vids: set[int] = set()
    for pname, pty in scheme.params.items():
        for idx in index_set(pty, cap):
            _remember(idx)
            param_vids.add(pm_vid(pname, idx))

    for name, d in scheme.nonterminals.items():
        targets = index_set(d.ty, cap)
        for idx, p in zip(targets, _rule_equations(scheme, name, targets, cap)):
            _remember(idx)
            eqs[nt_vid(name, idx)] = p

    start = nt_vid(scheme.start, GroundPoint(1))

    # Eliminate unknowns that are zero in the least fixpoint: an unknown
    # can generate a nonzero coefficient only if some monomial of its
    # right-hand side mentions only generating unknowns (z, parameters
    # and constants always generate).
    generating: set[int] = set()
    changed = True
    while changed:
        changed = False
        for vid, p in eqs.items():
            if vid in generating:
                continue
            for m in p.terms:
                if all(
                    (v not in eqs) or (v in generating) for v, _ in m
                ):
                    generating.add(vid)
                    changed = True
                    break
    zeros = {vid for vid in eqs if vid not in generating}

    kept: dict[int, Poly] = {}
    for vid, p in eqs.items():
        if vid in zeros and vid != start:
            continue
        if vid in zeros:
            kept[vid] = Poly()
            continue
        kept[vid] = _drop_vars(p, zeros)

    system_vids = set(kept)
    proper = {vid: _is_proper(p, system_vids) for vid, p in kept.items()}
    fas = Fas(kept, start, param_vids, zeros - {start}, proper)

    if max(order(d.ty) for d in scheme.nonterminals.values()) <= 1:
        # At order 1 a ground argument can reach head position at most
        # once per run, so every surviving unknown is affine in its
        # arguments; the zero analysis must have removed the rest.
        for vid in kept:
            key = REGISTRY.key_of(vid)
            if key[0] == "nt":
                assert _spine_multiplicity(key[2]) <= 1, (
                    f"order-1 unknown {var_name(vid)} uses arguments "
                    "more than once"
                )
    return fas


def _spine_multiplicity(ikey) -> int:
    if ikey[0] == 0:
        return 0
    _, mu, rkey = ikey
    return sum(m for _, m in mu) + _spine_multiplicity(rkey)


def _drop_vars(p: Poly, zeros: set[int]) -> Poly:
    out = {
        m: c
        for m, c in p.terms.items()
        if not any(v in zeros for v, _ in m)
    }
    return Poly(out)


def reachable(fas: Fas) -> Fas:
    seen = {fas.start}
    stack = [fas.start]
    while stack:
        v = stack.pop()
        for w in fas.dependencies(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    eqs = {v: p for v, p in fas.eqs.items() if v in seen}
    used_params = {
        v
        for p in eqs.values()
        for v in p.variables()
        if v in fas.param_vids
    }
    return Fas(
        eqs,
        fas.start,
        used_params,
        fas.zeros,
        {v: f for v, f in fas.proper.items() if v in seen},
    )
