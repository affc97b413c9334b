"""Weighted relational semantics: finite index sets for graded types,
compositional interpretation of rule bodies as polynomials, and the
compilation of a scheme into a finite monotone polynomial fixpoint
system whose least nonnegative solution is the scheme's family of
generating functions.

Variables of the compiled system, the only keys a compile registers
in algebra.REGISTRY:

    ("z",)            counts probabilistic choices
    ("nt", L, index)  one unknown per nonzero (non-terminal, index)

A bound-variable atom is no registry variable: its id is negative and
local to the interpreter of its rule, made when the atom is first used,
and coefficient extraction removes it before an equation is stored.

An index is a tuple: (0, i) for the point i of o^n, and
(1, ((point, mult), ...), result) for an arrow point.  A compile
enumerates each type's index set once.

Compilation visits the rules' call graph one strongly connected
component at a time, callees first.  An unknown is nonzero once an
equation has been found for it, and an application sums over its
head's nonzero indexes only (a bound variable's: its binding's
points), so a product never carries an unknown that is zero in the
least fixpoint.  Each component is worked off a worklist (Kleene
iteration, over the Boolean semiring, of "some monomial has only
nonzero unknowns"): each rule is interpreted once, and again whenever
a callee in its component gains an equation.  A rule's body is
interpreted once per point of its ground result, and the polynomial
is split by its bound-variable power product: each nonempty bucket is
the equation of the index its power product spells, and no other
index of the declared type gets one.  While multiplying, monomials in
which a bound variable's exponent exceeds its binding's grade are
dropped, since no index can extract them.
"""

from __future__ import annotations

import itertools
from collections.abc import Container
from fractions import Fraction
from functools import partial

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
    is_finitary,
    leaves,
    order,
    spine,
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
            # Multisets of a's points, each at most k times: at grade 0 only
            # the empty one, so a is not enumerated.  Sorted, as is the product.
            pts = index_set(a, sets) if k else []
            mus = sorted(tuple((p, m) for p, m in zip(pts, mults) if m)
                         for mults in itertools.product(range(int(k) + 1), repeat=len(pts)))
            return [ArrowPoint(mu, res) for mu in mus for res in index_set(r, sets)]
    raise TypeError(ty)


# ---------------------------------------------------------------------------
# Variable naming


def z_vid() -> int:
    return REGISTRY.intern(("z",))


def nt_vid(name: str, idx: Index) -> int:
    return REGISTRY.intern(("nt", name, idx))


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
    return repr(key)


# ---------------------------------------------------------------------------
# Compositional interpretation


class _Interp:
    def __init__(self, scheme: Scheme, rule: str, found: dict, sets: dict) -> None:
        # Each rule's equations found so far, by index: an unknown without
        # one reads as 0.
        self.found = found
        # Index sets by type, as in index_set.
        self.sets = sets
        # The binding table, from the declaration: each parameter's
        # (position, grade, type); and the ground type below its arrows.
        d = scheme.nonterminals[rule]
        self.bindings: dict[str, tuple[int, int, GradedType]] = {}
        ty = d.ty
        for i, pname in enumerate(d.params):
            self.bindings[pname] = (i, int(ty.grade), ty.arg)
            ty = ty.result
        self.ground = ty
        self.memo: dict[tuple[Term, Index], Poly] = {}
        # Each (head, argument count)'s candidates, as _heads groups them.
        self.heads: dict[tuple[Term, int], dict] = {}
        # Each bound-variable atom in use -> (its binding's position, its
        # point), `atoms` the other way, and -> its cap, the binding's
        # grade: products drop the monomials beyond it, which no index
        # extracts.  Others are not cut.  Atom ids are negative and local
        # to this interpreter, so they name no REGISTRY variable.
        self.points: dict[int, tuple[int, Index]] = {}
        self.atoms: dict[tuple[int, Index], int] = {}
        self.caps: dict[int, int] = {}

    def sem(self, t: Term, idx: Index) -> Poly:
        p = self.memo.get((t, idx))
        if p is None:
            p = self.memo[t, idx] = self._sem(t, idx)
        return p

    def _sem(self, t: Term, idx: Index) -> Poly:
        # check_fin has accepted the body, and idx is a point of t's type.
        match t:
            case Unit():
                return Poly.const(1)
            case Omega():
                return Poly()
            case Choice(l, bias, r):
                z = ((z_vid(), 1),)
                return Poly({z: bias}) * self.sem(l, idx) + Poly({z: 1 - bias}) * self.sem(r, idx)
            case Tuple_(items):
                return self.sem(items[idx[1] - 1], GroundPoint(1))
            case Proj(i, b):
                return self.sem(b, GroundPoint(i))
            case Var() | NonTerm() | App():
                # The head's variable at each candidate ([mu1] -> ... ->
                # [mun] -> idx), times each argument ai at mui's points.
                head, args = spine(t)
                total = Poly()
                for var, uses in self._heads(head, len(args)).get(idx, ()):
                    prod = Poly.var(var())
                    for i, pt in uses:
                        prod = self._cut(prod * self.sem(args[i], pt))
                        if not prod:
                            break
                    total = total + prod
                return total
        raise TypeError(t)

    def _heads(self, head: Term, n: int) -> dict[Index, list]:
        """The head's candidate indexes, grouped by the result each leaves
        once n argument multisets are peeled off, as (variable, uses)
        pairs: a variable is made at its first use, and a use (i, point)
        is one factor of argument i.  A group is ordered by
        the last multiset, then the one before, as a sum over every
        multiset would be, which fixes the order of variable ids and of
        monomials."""
        groups = self.heads.get((head, n))
        if groups is None:
            if isinstance(head, NonTerm):
                cands, var = self.found[head.name], partial(nt_vid, head.name)
            else:
                i, grade, ty = self.bindings[head.name]
                cands, var = index_set(ty, self.sets), partial(self._atom, i, grade)
            peeled = []
            for cand in cands:
                mus, res = [], cand
                for _ in range(n):
                    _, mu, res = res
                    mus.insert(0, mu)
                peeled.append((mus, res, cand))
            groups = self.heads[head, n] = {}
            for mus, res, cand in sorted(peeled):
                uses = [(i, p) for i, mu in enumerate(reversed(mus)) for p, m in mu for _ in range(m)]
                groups.setdefault(res, []).append((partial(var, cand), uses))
        return groups

    def _atom(self, i: int, grade: int, pt: Index) -> int:
        """The id of binding i's atom at pt, recording its point and cap."""
        vid = self.atoms.get((i, pt))
        if vid is None:
            vid = self.atoms[i, pt] = -1 - len(self.atoms)
            self.points[vid], self.caps[vid] = (i, pt), grade
        return vid

    def _cut(self, p: Poly) -> Poly:
        caps = self.caps
        if not caps:
            return p
        # p has no zero coefficient, so neither has its restriction.
        out = Poly.__new__(Poly)
        out.terms = {m: c for m, c in p.terms.items() if all(e <= caps.get(v, e) for v, e in m)}
        return out


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
    interp = _Interp(scheme, rule, found, sets)
    body = scheme.nonterminals[rule].body
    eqs: dict[Index, Poly] = {}
    for res in index_set(interp.ground, sets):
        for bound, rest in _split(interp.sem(body, res), interp.points).items():
            mus: list[list[tuple[Index, int]]] = [[] for _ in interp.bindings]
            for vid, m in bound:
                i, pt = interp.points[vid]
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

    # Always empty, as a compile never builds a zero unknown;
    # benchmarks/tracing.py still reads len(fas.zeros).
    zeros: frozenset[int] = frozenset()

    def __init__(self, eqs: dict[int, Poly], start: int) -> None:
        self.eqs = eqs  # unknown vid -> right-hand side
        self.start = start

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
    for d in scheme.nonterminals.values():
        if index_size(d.ty) > VAR_CAP:
            raise IndexCapExceeded()

    sets: dict = {}  # index sets, shared by the whole compile
    calls = {name: _callees(d.body) for name, d in scheme.nonterminals.items()}
    # Callees first, so every unknown outside the component is settled.
    # An unknown without an equation found so far reads as 0.  A rule
    # reads only its callees' found indexes, which only grow, so it is
    # queued again when a callee in its component gains some, and its
    # last interpretation gives its equations without zero unknowns.
    # z always counts as nonzero.
    found: dict[str, dict[Index, Poly]] = {name: {} for name in scheme.nonterminals}
    for comp in sccs(calls):
        todo = list(comp)
        while todo:
            name = todo.pop()
            known = len(found[name])
            found[name] = _rule_equations(scheme, name, found, sets)
            if len(found[name]) > known:
                todo += [c for c in comp if name in calls[c] and c not in todo]

    # The start keeps its equation even when it is zero.
    found[scheme.start] = {GroundPoint(1): Poly()} | found[scheme.start]
    # Sorted indexes are in index_set order.
    eqs = {nt_vid(name, idx): p for name in scheme.nonterminals
           for idx, p in sorted(found[name].items())}
    if max(order(d.ty) for d in scheme.nonterminals.values()) <= 1:
        # At order 1 a ground argument can reach head position at most
        # once per run, so every surviving unknown is affine in its
        # arguments; the zero analysis must have removed the rest.
        for vid in eqs:
            assert _spine_multiplicity(REGISTRY.key_of(vid)[2]) <= 1, (
                f"order-1 unknown {var_name(vid)} uses arguments "
                "more than once"
            )
    return Fas(eqs, nt_vid(scheme.start, GroundPoint(1)))


def _spine_multiplicity(idx: Index) -> int:
    if idx[0] == 0:
        return 0
    _, mu, result = idx
    return sum(m for _, m in mu) + _spine_multiplicity(result)


def reachable(fas: Fas) -> Fas:
    """The subsystem of the equations the start depends on, directly or
    not."""
    seen = {fas.start}
    stack = [fas.start]
    while stack:
        v = stack.pop()
        for w in fas.dependencies(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return Fas({v: p for v, p in fas.eqs.items() if v in seen}, fas.start)
