"""Weighted relational semantics: finite index sets for graded types,
compositional interpretation of rule bodies as polynomials, and the
compilation of a scheme into a finite monotone polynomial fixpoint
system whose least nonnegative solution is the scheme's family of
generating functions.

Variables of the compiled system (registered in algebra.REGISTRY):

    ("z",)                 counts probabilistic choices
    ("nt", L, index)       one unknown per (non-terminal, index)
    ("pm", w, index)       free variable per (parameter, index)
    ("bv", rule, x, index) transient bound-variable atoms, removed by
                           coefficient extraction

An index is a tuple: (0, i) for the point i of o^n, and
(1, ((point, mult), ...), result) for an arrow point.  A compile
enumerates each type's index set once.

Compilation visits the rules' call graph one strongly connected
component at a time, callees first, and interprets the bodies with the
unknowns not yet known to be nonzero read as 0, so a product never
carries an unknown that is zero in the least fixpoint.  A component
without recursion is interpreted once; a recursive one again until its
set of nonzero unknowns stops growing (Kleene iteration, over the
Boolean semiring, of "some monomial has only nonzero unknowns").  One
interpreter serves all indexes of a rule's declared type in a pass: the
body polynomial is split once by its bound-variable power product, and
the equation of each index is the part matching its argument profile.
While multiplying, monomials in which a bound variable's exponent
exceeds the declared grade are dropped, since no index can extract them.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
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
    leaves,
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


Index = tuple  # the tuple form of the module docstring; tuple order is canonical


def GroundPoint(i: int) -> Index:
    return (0, i)


def ArrowPoint(arg_uses: tuple[tuple[Index, int], ...], result: Index) -> Index:
    return (1, arg_uses, result)


def index_set(
    ty: GradedType, cap: float = DEFAULT_VAR_CAP, sets: dict | None = None
) -> list[Index]:
    """Complete canonical enumeration of the index set of a finitary type,
    memoised by type in `sets`: a compile sharing one dict enumerates each
    type once."""
    sets = {} if sets is None else sets
    pts = sets.get(ty)
    if pts is None:
        if not is_finitary(ty):
            raise InterpError("cannot enumerate the index set of an infinitary type")
        if index_size(ty) > cap:
            raise IndexCapExceeded(cap)
        pts = sets[ty] = _enum(ty, sets)
    elif len(pts) > cap:
        raise IndexCapExceeded(cap)
    return pts


def _multisets(ty: GradedType, grade: int, sets: dict, cap: float = math.inf) -> list:
    """All multisets over index_set(ty, cap, sets) with per-element
    multiplicity at most grade, as canonically sorted ((point, mult), ...)
    tuples, memoised in `sets`."""
    pts = index_set(ty, cap, sets)
    mus = sets.get((ty, grade))
    if mus is None:
        mus = sets[ty, grade] = sorted(
            tuple((p, m) for p, m in zip(pts, mults) if m > 0)
            for mults in itertools.product(range(grade + 1), repeat=len(pts))
        )
    return mus


def index_size(ty: GradedType) -> int:
    match ty:
        case Ground(n):
            return n
        case Arrow(k, a, r):
            return (int(k) + 1) ** index_size(a) * index_size(r)
    raise TypeError(ty)


def _enum(ty: GradedType, sets: dict) -> list[Index]:
    match ty:
        case Ground(n):
            return [GroundPoint(i) for i in range(1, n + 1)]
        case Arrow(k, a, r):
            # Both factors are sorted, so the product is too.
            mus, pts_r = _multisets(a, int(k), sets), index_set(r, math.inf, sets)
            return [ArrowPoint(mu, res) for mu in mus for res in pts_r]
    raise TypeError(ty)


# ---------------------------------------------------------------------------
# Variable naming


def z_vid() -> int:
    return REGISTRY.intern(("z",))


def nt_vid(name: str, idx: Index) -> int:
    return REGISTRY.intern(("nt", name, idx))


def pm_vid(name: str, idx: Index) -> int:
    return REGISTRY.intern(("pm", name, idx))


def bv_vid(rule: str, var: str, idx: Index) -> int:
    return REGISTRY.intern(("bv", rule, var, idx))


def _render_index(idx: Index) -> str:
    """The text form of an index: i for the point i of o^n, ([mu]->r) for
    an arrow point."""
    if idx[0] == 0:
        return str(idx[1])
    _, arg_uses, result = idx
    mu = ",".join(
        _render_index(p) if m == 1 else f"{_render_index(p)}^{m}" for p, m in arg_uses
    )
    return f"([{mu}]->{_render_index(result)})"


def var_name(vid: int) -> str:
    key = REGISTRY.key_of(vid)
    match key:
        case ("z",):
            return "z"
        case ("nt", name, ik):
            return f"y[{name};{_render_index(ik)}]"
        case ("pm", name, ik):
            return f"w[{name};{_render_index(ik)}]"
        case ("bv", rule, var, ik):
            return f"x[{rule}.{var};{_render_index(ik)}]"
    return repr(key)


# ---------------------------------------------------------------------------
# Compositional interpretation


class _Interp:
    def __init__(
        self, scheme: Scheme, rule: str, cap: int, nonzero: set[int] | None = None
    ) -> None:
        self.scheme = scheme
        self.rule = rule
        self.cap = cap
        # The unknowns known to be nonzero; the others read as 0.  None
        # reads every unknown as itself.
        self.nonzero = nonzero
        d = scheme.nonterminals[rule]
        self.bound_types = dict(zip(d.params, (t for _, t in arg_types(d.ty))))
        self.memo: dict[tuple[Term, Index], Poly] = {}
        # Index sets and argument multisets by type, as in _multisets.
        self.sets: dict = {}
        # Bound-variable id -> the largest exponent any requested target
        # extracts.  Products drop monomials beyond it: multiplication
        # only raises exponents, so they could never be extracted.
        # Variables without an entry are not cut.
        self.caps: dict[int, int] = {}

    def sem(self, t: Term, idx: Index) -> Poly:
        p = self.memo.get((t, idx))
        if p is None:
            p = self.memo[t, idx] = self._sem(t, idx)
        return p

    def _sem(self, t: Term, idx: Index) -> Poly:
        match t:
            case Unit():
                return Poly.const(1) if idx == GroundPoint(1) else Poly()
            case Omega():
                return Poly()
            case Var(n):
                return Poly.var(bv_vid(self.rule, n, idx))
            case NonTerm(n):
                vid = nt_vid(n, idx)
                if self.nonzero is not None and vid not in self.nonzero:
                    return Poly()
                return Poly.var(vid)
            case Param(n):
                return Poly.var(pm_vid(n, idx))
            case Choice(l, bias, r):
                if idx[0] != 0:
                    return Poly()
                z = ((z_vid(), 1),)
                return Poly({z: bias}) * self.sem(l, idx) + Poly({z: 1 - bias}) * self.sem(r, idx)
            case Tuple_(items):
                if idx[0] != 0 or idx[1] > len(items):
                    return Poly()
                return self.sem(items[idx[1] - 1], GroundPoint(1))
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
                total = Poly()
                for mu in _multisets(fty.arg, int(fty.grade), self.sets, self.cap):
                    fpart = self.sem(f, ArrowPoint(mu, idx))
                    if not fpart:
                        continue
                    prod = fpart
                    for pt, mult in mu:
                        apart = self.sem(a, pt)
                        if not apart:
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
        # p has no zero coefficient, so neither has its restriction.
        out = Poly.__new__(Poly)
        out.terms = {m: c for m, c in p.terms.items() if all(e <= caps.get(v, e) for v, e in m)}
        return out


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
    scheme: Scheme,
    rule: str,
    targets: list[Index],
    cap: int,
    nonzero: set[int] | None = None,
    sets: dict | None = None,
) -> Iterator[Poly]:
    """The rule's polynomial at each target index, in order, with the
    unknowns outside `nonzero` read as 0 (none when it is None), and the
    index sets memoised in `sets` as for index_set.

    One interpreter serves all targets, so the body is interpreted once
    per result index.  Its polynomial is split once by the power product
    of bound variables; a target's equation is the bucket of its
    argument profile (exact coefficient extraction)."""
    d = scheme.nonterminals[rule]
    interp = _Interp(scheme, rule, cap, nonzero)
    interp.sets = {} if sets is None else sets
    # Unwind each target through the rule's abstractions.
    unwound: list[tuple[Index, Monomial]] = []
    for idx in targets:
        profile: list[tuple[int, int]] = []
        for pname in d.params:
            if idx[0] != 1:
                raise InterpError(f"index too shallow for rule {rule!r}")
            _, arg_uses, idx = idx
            profile.extend((bv_vid(rule, pname, pt), m) for pt, m in arg_uses)
        unwound.append((idx, tuple(sorted(profile))))

    domain: set[int] = set()
    for pname in d.params:
        for pt in index_set(interp.bound_types[pname], cap, interp.sets):
            domain.add(bv_vid(rule, pname, pt))
    interp.caps = dict.fromkeys(domain, 0)
    for _, profile in unwound:
        for vid, m in profile:
            interp.caps[vid] = max(interp.caps[vid], m)

    # Unfiltered, the body polynomial may still exceed the declared grade
    # in a binding's variables taken together: the excess monomials all
    # carry unknowns that are zero in the least fixpoint, which compiling
    # reads as 0.
    split: dict[tuple, dict[Monomial, dict[Monomial, Fraction]]] = {}
    for idx, profile in unwound:
        buckets = split.get(idx)
        if buckets is None:
            buckets = split[idx] = _split(interp.sem(d.body, idx), domain)
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
# Strongly connected components (Tarjan, iterative)

Node = int | str  # an unknown's id or a rule's name


def sccs(graph: dict[Node, set[Node]]) -> list[list[Node]]:
    """SCCs in reverse topological order: every edge leaves a component
    emitted later toward one emitted earlier."""
    index: dict[Node, int] = {}
    low: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    out: list[list[Node]] = []
    counter = 0

    for root in graph:
        if root in index:
            continue
        work = [(root, iter(sorted(graph[root])))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph[w]))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(sorted(comp))
    return out


# ---------------------------------------------------------------------------
# The compiled fixpoint system


class Fas:
    """Finite monotone polynomial fixpoint system w = P(w, z)."""

    def __init__(self, eqs: dict[int, Poly], start: int, param_vids: set[int] | None = None,
                 zeros: set[int] | None = None, proper: dict[int, bool] | None = None) -> None:
        self.eqs = eqs  # unknown vid -> right-hand side
        self.start = start
        self.param_vids = set() if param_vids is None else param_vids
        self.zeros = set() if zeros is None else zeros  # eliminated zero unknowns
        self.proper = {} if proper is None else proper

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


def _is_proper(p: Poly, system_vids: set[int]) -> bool:
    if p.constant_term() != 0:
        return False
    for m in p.terms:
        if len(m) == 1 and m[0][0] in system_vids and m[0][1] == 1:
            return False
    return True


def _callees(body: Term) -> set[str]:
    """The non-terminals a rule body mentions."""
    return {t.name for t in leaves(body) if isinstance(t, NonTerm)}


def compile_scheme(scheme: Scheme, cap: int = DEFAULT_VAR_CAP) -> Fas:
    """Compile a finitary scheme (closed or parametric) to its fixpoint
    system, without the unknowns whose least-fixpoint value is zero."""
    report = check_fin(scheme) if scheme.is_closed() else check_inf(scheme)
    if not report.accepted:
        msgs = "; ".join(d.message for d in report.diagnostics)
        raise InterpError(f"scheme does not type-check: {msgs}")
    for name, d in scheme.nonterminals.items():
        if not is_finitary(d.ty):
            raise InterpError(
                f"non-terminal {name!r} has an infinitary type; reduce first"
            )

    sets: dict = {}  # index sets, shared by the whole compile
    param_vids: set[int] = set()
    for pname, pty in scheme.params.items():
        for idx in index_set(pty, cap, sets):
            param_vids.add(pm_vid(pname, idx))

    targets = {n: index_set(d.ty, cap, sets) for n, d in scheme.nonterminals.items()}
    calls = {name: _callees(d.body) for name, d in scheme.nonterminals.items()}
    # Callees first, so every unknown outside the component being
    # interpreted is settled.  Reading an unknown not yet known to be
    # nonzero as 0 drops exactly the monomials that carry it, and
    # products only add unknowns, so once the nonzero set of a component
    # stops growing its last pass gives the equations with the zero
    # unknowns eliminated.  Parameters and z always count as nonzero.
    nonzero: set[int] = set()
    found: dict[int, Poly] = {}
    for comp in sccs(calls):
        recursive = len(comp) > 1 or comp[0] in calls[comp[0]]
        while True:
            before = len(nonzero)
            for name in comp:
                # All of a rule's targets read the same nonzero set.
                ps = list(
                    _rule_equations(scheme, name, targets[name], cap, nonzero, sets)
                )
                for idx, p in zip(targets[name], ps):
                    vid = nt_vid(name, idx)
                    found[vid] = p
                    if p:
                        nonzero.add(vid)
            if not recursive or len(nonzero) == before:
                break

    start = nt_vid(scheme.start, GroundPoint(1))
    declared = (nt_vid(name, idx) for name in scheme.nonterminals for idx in targets[name])
    eqs = {vid: found[vid] for vid in declared if vid in nonzero or vid == start}
    system_vids = set(eqs)
    proper = {vid: _is_proper(p, system_vids) for vid, p in eqs.items()}
    fas = Fas(eqs, start, param_vids, set(found) - system_vids, proper)

    if max(order(d.ty) for d in scheme.nonterminals.values()) <= 1:
        # At order 1 a ground argument can reach head position at most
        # once per run, so every surviving unknown is affine in its
        # arguments; the zero analysis must have removed the rest.
        for vid in eqs:
            assert _spine_multiplicity(REGISTRY.key_of(vid)[2]) <= 1, (
                f"order-1 unknown {var_name(vid)} uses arguments "
                "more than once"
            )
    return fas


def _spine_multiplicity(idx: Index) -> int:
    if idx[0] == 0:
        return 0
    _, mu, result = idx
    return sum(m for _, m in mu) + _spine_multiplicity(result)


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
