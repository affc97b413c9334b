"""Weighted relational semantics: finite index sets for graded types,
compositional interpretation of rule bodies as polynomials, and the
compilation of a scheme into a finite monotone polynomial fixpoint
system whose least nonnegative solution is the scheme's family of
generating functions.

Variables of the compiled system (registered in algebra.REGISTRY):

    ("z",)                 counts probabilistic choices
    ("nt", L, index)       one unknown per (non-terminal, index)
    ("bv", rule, x, index) transient bound-variable atoms, removed by
                           coefficient extraction

An index is a tuple: (0, i) for the point i of o^n, and
(1, ((point, mult), ...), result) for an arrow point.  A compile
enumerates each type's index set once.

Compilation visits the rules' call graph one strongly connected
component at a time, callees first.  An unknown is nonzero once an
equation has been found for it; the others read as 0, so a product
never carries an unknown that is zero in the least fixpoint.  A
component without recursion is interpreted once; a recursive one again
until its equations stop growing in number (Kleene iteration, over the
Boolean semiring, of "some monomial has only nonzero unknowns").  A
rule's body is interpreted once per point of its ground result, and the
polynomial is split by its bound-variable power product: each nonempty
bucket is the equation of the index its power product spells, and no
other index of the declared type gets one.  While multiplying,
monomials in which a bound variable's exponent exceeds its binding's
grade are dropped, since no index can extract them.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Container
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
from .typesys import check_fin

# The most points an index set may have.
VAR_CAP = 10**5


class InterpError(ValueError):
    pass


class IndexCapExceeded(InterpError):
    def __init__(self) -> None:
        super().__init__(f"index-set size exceeds the cap of {VAR_CAP}")


# ---------------------------------------------------------------------------
# Index sets


Index = tuple  # the tuple form of the module docstring; tuple order is canonical


def GroundPoint(i: int) -> Index:
    return (0, i)


def ArrowPoint(arg_uses: tuple[tuple[Index, int], ...], result: Index) -> Index:
    return (1, arg_uses, result)


def index_set(ty: GradedType, sets: dict | None = None) -> list[Index]:
    """Complete canonical enumeration of the index set of a finitary type,
    memoised by type in `sets`: a compile sharing one dict enumerates each
    type once.  Raises IndexCapExceeded, before enumerating anything, if
    the set has more than VAR_CAP points."""
    sets = {} if sets is None else sets
    pts = sets.get(ty)
    if pts is None:
        if not is_finitary(ty):
            raise InterpError("cannot enumerate the index set of an infinitary type")
        if index_size(ty) > VAR_CAP:
            raise IndexCapExceeded()
        pts = sets[ty] = _enum(ty, sets)
    return pts


def _multisets(ty: GradedType, grade: int, sets: dict) -> list:
    """All multisets over index_set(ty, sets) with per-element
    multiplicity at most grade, as canonically sorted ((point, mult), ...)
    tuples, memoised in `sets`.  Grade 0 admits only the empty multiset,
    so ty is then not enumerated."""
    if grade == 0:
        return [()]
    pts = index_set(ty, sets)
    mus = sets.get((ty, grade))
    if mus is None:
        mus = sets[ty, grade] = sorted(
            tuple((p, m) for p, m in zip(pts, mults) if m > 0)
            for mults in itertools.product(range(grade + 1), repeat=len(pts))
        )
    return mus


def index_size(ty: GradedType) -> int:
    """The number of points of ty's index set, or VAR_CAP + 1 if it has
    more: a size beyond the cap is never computed, as it can have more
    digits than memory holds."""
    match ty:
        case Ground(n):
            return min(n, VAR_CAP + 1)
        case Arrow(k, a, r):
            n = index_size(a)
            # For k >= 1 and 2^n > VAR_CAP, (k + 1)^n is over the cap.
            mus = (int(k) + 1) ** n if k == 0 or n < VAR_CAP.bit_length() else VAR_CAP + 1
            return min(mus * index_size(r), VAR_CAP + 1)
    raise TypeError(ty)


def _enum(ty: GradedType, sets: dict) -> list[Index]:
    match ty:
        case Ground(n):
            return [GroundPoint(i) for i in range(1, n + 1)]
        case Arrow(k, a, r):
            # Both factors are sorted, so the product is too.
            mus, pts_r = _multisets(a, int(k), sets), index_set(r, sets)
            return [ArrowPoint(mu, res) for mu in mus for res in pts_r]
    raise TypeError(ty)


# ---------------------------------------------------------------------------
# Variable naming


def z_vid() -> int:
    return REGISTRY.intern(("z",))


def nt_vid(name: str, idx: Index) -> int:
    return REGISTRY.intern(("nt", name, idx))


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
        case ("bv", rule, var, ik):
            return f"x[{rule}.{var};{_render_index(ik)}]"
    return repr(key)


# ---------------------------------------------------------------------------
# Compositional interpretation


class _Interp:
    def __init__(self, scheme: Scheme, rule: str, found: dict) -> None:
        self.scheme = scheme
        self.rule = rule
        # Each rule's equations found so far, by index: an unknown without
        # one reads as 0.
        self.found = found
        d = scheme.nonterminals[rule]
        self.bound_types = dict(zip(d.params, (t for _, t in arg_types(d.ty))))
        self.memo: dict[tuple[Term, Index], Poly] = {}
        # Index sets and argument multisets by type, as in _multisets.
        self.sets: dict = {}
        # Bound-variable id -> the largest exponent an index extracts.
        # Products drop monomials beyond it: multiplication only raises
        # exponents, so they could never be extracted.  Variables without
        # an entry are not cut.
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
                if idx not in self.found[n]:
                    return Poly()
                return Poly.var(nt_vid(n, idx))
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
                for mu in _multisets(fty.arg, int(fty.grade), self.sets):
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


def _bound_points(scheme: Scheme, rule: str, sets: dict) -> dict[int, tuple[int, Index]]:
    """Each variable of the rule's bindings -> (its binding's position,
    its point).  A well-typed body never uses a binding of grade 0, so
    that binding has none and its type is not enumerated."""
    d = scheme.nonterminals[rule]
    return {
        bv_vid(rule, pname, pt): (i, pt)
        for i, (pname, (grade, pty)) in enumerate(zip(d.params, arg_types(d.ty)))
        if grade
        for pt in index_set(pty, sets)
    }


def _rule_equations(scheme: Scheme, rule: str, found: dict[str, dict[Index, Poly]],
                    sets: dict) -> dict[Index, Poly]:
    """The rule's equations by index: the nonempty buckets of its body,
    and nothing for an index whose bucket is empty.  An unknown is
    nonzero when `found` holds an equation for it, and the others read
    as 0; index sets are memoised in `sets` as for index_set.

    The body is interpreted once per point of its ground type, each
    bound variable cut at its binding's grade, and split by its power
    product of bound variables.  Each bucket is the equation of the index
    that power product spells: per binding, its points with their
    exponents as sorted (point, mult) tuples, the form index_set uses.
    Unpruned, a body may exceed a binding's grade in its variables taken
    together; those monomials carry unknowns that are zero in the least
    fixpoint, which `found` reads as 0."""
    d = scheme.nonterminals[rule]
    interp = _Interp(scheme, rule, found)
    interp.sets = sets
    points = _bound_points(scheme, rule, sets)
    spine = arg_types(d.ty)
    interp.caps = {vid: int(spine[i][0]) for vid, (i, _) in points.items()}
    eqs: dict[Index, Poly] = {}
    for res in index_set(type_of(d.body, scheme, interp.bound_types), sets):
        for bound, rest in _split(interp.sem(d.body, res), points).items():
            mus: list[list[tuple[Index, int]]] = [[] for _ in spine]
            for vid, m in bound:
                i, pt = points[vid]
                mus[i].append((pt, m))
            idx = res
            for mu in reversed(mus):
                idx = ArrowPoint(tuple(sorted(mu)), idx)
            eqs[idx] = Poly(rest)
    return eqs


def _split(p: Poly, domain: Container[int]) -> dict[Monomial, dict[Monomial, Fraction]]:
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

    def __init__(self, eqs: dict[int, Poly], start: int, zeros: set[int] | None = None) -> None:
        self.eqs = eqs  # unknown vid -> right-hand side
        self.start = start
        self.zeros = set() if zeros is None else zeros  # eliminated zero unknowns

    def dependencies(self, vid: int) -> set[int]:
        return {v for v in self.eqs[vid].variables() if v in self.eqs}

    def render(self) -> str:
        lines = []
        for vid in sorted(self.eqs, key=var_name):
            flag = "" if _is_proper(self.eqs[vid], self.eqs) else "   # improper"
            lines.append(f"{var_name(vid)} = {self.eqs[vid].render(var_name)}{flag}")
        lines.append(f"start {var_name(self.start)}")
        return "\n".join(lines) + "\n"


def _is_proper(p: Poly, system_vids: Container[int]) -> bool:
    if p.constant_term() != 0:
        return False
    for m in p.terms:
        if len(m) == 1 and m[0][0] in system_vids and m[0][1] == 1:
            return False
    return True


def _callees(body: Term) -> set[str]:
    """The non-terminals a rule body mentions."""
    return {t.name for t in leaves(body) if isinstance(t, NonTerm)}


def compile_scheme(scheme: Scheme) -> Fas:
    """Compile a closed finitary scheme to its fixpoint system, without
    the unknowns whose least-fixpoint value is zero."""
    report = check_fin(scheme)
    if not report.accepted:
        msgs = "; ".join(d.message for d in report.diagnostics)
        raise InterpError(f"scheme does not type-check: {msgs}")
    for name, d in scheme.nonterminals.items():
        if not is_finitary(d.ty):
            raise InterpError(
                f"non-terminal {name!r} has an infinitary type; reduce first"
            )
        if index_size(d.ty) > VAR_CAP:
            raise IndexCapExceeded()

    sets: dict = {}  # index sets, shared by the whole compile
    calls = {name: _callees(d.body) for name, d in scheme.nonterminals.items()}
    # Callees first, so every unknown outside the component being
    # interpreted is settled.  Reading an unknown without an equation
    # found so far as 0 drops exactly the monomials that carry it, and
    # products only add unknowns, so once the equations of a component
    # stop growing in number its last pass gives them with the zero
    # unknowns eliminated.  z always counts as nonzero.
    found: dict[str, dict[Index, Poly]] = {name: {} for name in scheme.nonterminals}
    for comp in sccs(calls):
        recursive = len(comp) > 1 or comp[0] in calls[comp[0]]
        while True:
            before = sum(len(found[name]) for name in comp)
            for name in comp:
                found[name] = _rule_equations(scheme, name, found, sets)
            if not recursive or sum(len(found[name]) for name in comp) == before:
                break

    # The start keeps its equation even when it is zero.
    found[scheme.start] = {GroundPoint(1): Poly()} | found[scheme.start]
    # Sorted indexes are in index_set order.
    eqs = {nt_vid(name, idx): p for name in scheme.nonterminals
           for idx, p in sorted(found[name].items())}
    declared = {nt_vid(name, idx) for name, d in scheme.nonterminals.items()
                for idx in index_set(d.ty, sets)}
    fas = Fas(eqs, nt_vid(scheme.start, GroundPoint(1)), declared - set(eqs))

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
    """The subsystem of the equations the start depends on, directly or
    not; `zeros` is carried over."""
    seen = {fas.start}
    stack = [fas.start]
    while stack:
        v = stack.pop()
        for w in fas.dependencies(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return Fas({v: p for v, p in fas.eqs.items() if v in seen}, fas.start, fas.zeros)
