"""Weighted relational semantics: finite index sets for graded types,
compositional interpretation of rule bodies as polynomials, and the
compilation of a scheme into a finite monotone polynomial fixpoint
system whose least nonnegative solution is the scheme's family of
generating functions.

The compiled system has one unknown per nonzero (non-terminal L,
index), named y[L;index], and the variable z, which counts probabilistic
choices.  A compile numbers its unknowns 1 ... n in the order of their
names and gives z the id 0, and the system carries the names, so the
ids are the system's own and every report that takes its unknowns in id
order takes them in name order.  A bound-variable atom is no variable
of the system: its id is negative and local to the interpreter of its
rule, made when the atom is first used, and coefficient extraction
removes it before an equation is stored.

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

`lump` takes a compiled system to its lumped quotient, the system the
solver runs on: one unknown per class of unknowns whose equations are
equal once each unknown is replaced by its class.  The least solution is
constant on these classes, so the quotient's solution, copied to every
member, is the full system's; certificates are still checked against
every equation of the full system.
"""

from __future__ import annotations

import itertools
from collections.abc import Container, Sequence
from fractions import Fraction
from functools import partial

from .algebra import Monomial, Poly, _poly
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
    cls = ty.__class__
    if cls is Ground:
        return min(ty.width, VAR_CAP + 1)
    if cls is Arrow:
        k, n = ty.grade, index_size(ty.arg)
        # For k >= 1 and 2^n > VAR_CAP, (k + 1)^n is over the cap.
        mus = (int(k) + 1) ** n if k == 0 or n < VAR_CAP.bit_length() else VAR_CAP + 1
        return min(mus * index_size(ty.result), VAR_CAP + 1)
    raise TypeError(ty)


def _enum(ty: GradedType, sets: dict) -> list[Index]:
    cls = ty.__class__
    if cls is Ground:
        return [GroundPoint(i) for i in range(1, ty.width + 1)]
    if cls is Arrow:
        # Multisets of the argument's points, each at most k times: at
        # grade 0 only the empty one, so the argument is not enumerated.
        # Sorted, as is the product.
        k = ty.grade
        pts = index_set(ty.arg, sets) if k else []
        mus = sorted(tuple((p, m) for p, m in zip(pts, mults) if m)
                     for mults in itertools.product(range(int(k) + 1), repeat=len(pts)))
        return [ArrowPoint(mu, res) for mu in mus for res in index_set(ty.result, sets)]
    raise TypeError(ty)


# ---------------------------------------------------------------------------
# Variable naming

# z's id in every system.
Z = 0


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


def unknown_name(rule: str, idx: Index) -> str:
    """The name of the unknown of rule at idx."""
    return f"y[{rule};{_render_index(idx)}]"


# ---------------------------------------------------------------------------
# Compositional interpretation


class _Interp:
    def __init__(self, scheme: Scheme, rule: str, found: dict, sets: dict,
                 ids: dict) -> None:
        # Each rule's equations found so far, by index: an unknown without
        # one reads as 0.
        self.found = found
        # Index sets by type, as in index_set.
        self.sets = sets
        # The compile's ids of the unknowns in use, by (rule, index).
        self.ids = ids
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
        # to this interpreter, so they name no variable of the system.
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
        cls = t.__class__
        if cls is App or cls is Var or cls is NonTerm:
            # The head's variable at each candidate ([mu1] -> ... ->
            # [mun] -> idx), times each argument ai at mui's points;
            # the variable shifts the first factor's monomials.
            head, args = spine(t)
            total = Poly()
            for var, uses in self._heads(head, len(args)).get(idx, ()):
                vid, prod = var(), None
                for i, pt in uses:
                    arg = self.sem(args[i], pt)
                    prod = self._cut(arg.shift(((vid, 1),)) if prod is None else prod * arg)
                    if not prod:
                        break
                total = total + (Poly.var(vid) if prod is None else prod)
            return total
        if cls is Choice:
            z, bias = ((Z, 1),), t.bias
            p, q = bias.numerator, bias.denominator
            return self.sem(t.left, idx).shift(z, p, q) + self.sem(t.right, idx).shift(z, q - p, q)
        if cls is Unit:
            return Poly.const(1)
        if cls is Omega:
            return Poly()
        if cls is Tuple_:
            return self.sem(t.items[idx[1] - 1], GroundPoint(1))
        if cls is Proj:
            return self.sem(t.body, GroundPoint(t.index))
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
            if head.__class__ is NonTerm:
                cands, var = self.found[head.name], partial(self._unknown, head.name)
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

    def _unknown(self, rule: str, idx: Index) -> int:
        """The compile's id of the unknown of rule at idx, made at its
        first use; ids start at 1, as z is 0."""
        return self.ids.setdefault((rule, idx), len(self.ids) + 1)

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
        return _poly({m: c for m, c in p.terms.items() if all(e <= caps.get(v, e) for v, e in m)})


def _rule_equations(scheme: Scheme, rule: str, found: dict[str, dict[Index, Poly]],
                    sets: dict, ids: dict) -> dict[Index, Poly]:
    """The rule's equations by index: the nonempty buckets of its body,
    and nothing for an index whose bucket is empty.  An unknown is
    nonzero when `found` holds an equation for it, and the others read
    as 0; index sets are memoised in `sets` as for index_set, and the
    unknowns' ids in `ids`, by (rule, index).

    The body is interpreted once per point of its ground type, each
    bound variable cut at its binding's grade, and split by its power
    product of bound variables.  Each bucket is the equation of the index
    that power product spells: per binding, its points with their
    exponents as sorted (point, mult) tuples, the form index_set uses.
    Unpruned, a body may exceed a binding's grade in its variables taken
    together; those monomials carry unknowns that are zero in the least
    fixpoint, which `found` reads as 0."""
    interp = _Interp(scheme, rule, found, sets, ids)
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
            eqs[idx] = _poly(rest)  # a bucket of sem's nonzero terms
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
    emitted later toward one emitted earlier, or stays inside one.  The
    roots are taken in the graph's order, each node's neighbours in
    sorted order, and each component is sorted, so the compile's rule
    order and the solver's notes depend on the graph alone."""
    index: dict[Node, int] = {}
    low: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    out: list[list[Node]] = []
    for root in graph:
        if root in index:
            continue
        work = [(root, None)]  # (node, its neighbours left), None before its visit
        while work:
            v, it = work[-1]
            if it is None:
                index[v] = low[v] = len(index)
                stack.append(v)
                on_stack.add(v)
                it = iter(sorted(graph[v]))
                work[-1] = (v, it)
            for w in it:
                if w not in index:
                    work.append((w, None))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    on_stack.difference_update(comp)
                    out.append(sorted(comp))
    return out


# ---------------------------------------------------------------------------
# The compiled fixpoint system


class Fas:
    """Finite monotone polynomial fixpoint system w = P(w, z): `eqs` maps
    each unknown's id to its right-hand side, and `names[v]` is the name
    of the variable with id v.  Ids are in name order, and z is `Z`."""

    # Always empty, as a compile never builds a zero unknown;
    # benchmarks/tracing.py still reads len(fas.zeros).
    zeros: frozenset[int] = frozenset()

    def __init__(self, eqs: dict[int, Poly], start: int, names: Sequence[str]) -> None:
        self.eqs = eqs
        self.start = start
        self.names = names
        self.quotient: Quotient | None = None  # set by the first `lump`

    def render(self) -> str:
        name = self.names.__getitem__
        lines = []
        for vid in sorted(self.eqs):
            flag = "" if _is_proper(self.eqs[vid], self.eqs) else "   # improper"
            lines.append(f"{name(vid)} = {self.eqs[vid].render(name)}{flag}")
        lines.append(f"start {name(self.start)}")
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
    return {t.name for t in leaves(body) if t.__class__ is NonTerm}


def compile_scheme(scheme: Scheme) -> Fas:
    """Compile a closed finitary scheme to its fixpoint system, without
    the unknowns whose least-fixpoint value is zero.  It runs `check_fin`
    itself and raises InterpError on a scheme that check rejects, so a
    caller need not check first."""
    report = check_fin(scheme)
    if not report.accepted:
        raise InterpError(f"scheme does not type-check: {report.messages}")
    for d in scheme.nonterminals.values():
        if index_size(d.ty) > VAR_CAP:
            raise IndexCapExceeded()

    sets: dict = {}  # index sets, shared by the whole compile
    ids: dict[tuple[str, Index], int] = {}  # the unknowns' ids, by (rule, index)
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
            found[name] = _rule_equations(scheme, name, found, sets, ids)
            if len(found[name]) > known:
                todo += [c for c in comp if name in calls[c] and c not in todo]

    # The start keeps its equation even when it is zero.
    found[scheme.start] = {GroundPoint(1): Poly()} | found[scheme.start]
    # Every found index is an unknown: renumbered 1 ... n in name order.
    named = sorted((unknown_name(name, idx), name, idx)
                   for name, by_index in found.items() for idx in by_index)
    renumber = {ids[name, idx]: vid for vid, (_, name, idx) in enumerate(named, 1)
                if (name, idx) in ids}
    eqs = {vid: _poly(_modulo(found[name][idx], renumber))
           for vid, (_, name, idx) in enumerate(named, 1)}
    if max(order(d.ty) for d in scheme.nonterminals.values()) <= 1:
        # At order 1 a ground argument can reach head position at most
        # once per run, so every surviving unknown is affine in its
        # arguments; the zero analysis must have removed the rest.
        for text, _, idx in named:
            assert _spine_multiplicity(idx) <= 1, (
                f"order-1 unknown {text} uses arguments more than once"
            )
    start = unknown_name(scheme.start, GroundPoint(1))
    names = ("z", *(text for text, _, _ in named))
    return Fas(eqs, names.index(start), names)


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
        for w in fas.eqs[v].variables():
            if w in fas.eqs and w not in seen:
                seen.add(w)
                stack.append(w)
    return Fas({v: p for v, p in fas.eqs.items() if v in seen}, fas.start, fas.names)


# ---------------------------------------------------------------------------
# The lumped quotient


class Quotient:
    """A system's lumped quotient `fas`, whose unknowns are the
    representatives of the blocks, each block's first unknown in the
    system's order, the start's block the start; `rep` maps each unknown
    of the system to its representative, and `members` each
    representative to its block, in the system's order.  `resigned`
    counts the signatures the refinement computed."""

    def __init__(self, fas: Fas, rep: dict[int, int], members: dict[int, list[int]],
                 resigned: int) -> None:
        self.fas, self.rep, self.members, self.resigned = fas, rep, members, resigned


def lump(fas: Fas) -> Quotient:
    """The quotient of `fas` by the coarsest partition of its unknowns in
    which two unknowns of one block have equal equations once every
    unknown is replaced by its block, other variables (z) kept apart
    (the signature of an unknown is its equation so renamed);
    memoised on `fas`.  Every Kleene iterate is constant on the blocks,
    so the least solution is too.  A system without two such unknowns is
    its own quotient.

    The refinement starts from one block.  When a block splits by
    signature, its largest part keeps the block's id, and only the users
    of the unknowns that moved are signed again: an unknown moves into a
    part at most half its block's size, so O(log n) times (Paige &
    Tarjan, SIAM J. Comput. 1987; Valmari & Franceschinis, TACAS 2010)."""
    if fas.quotient is not None:
        return fas.quotient
    eqs = fas.eqs
    # Block ids are negative, so no id is a variable's.  Each block's
    # members all have the signature bsig[b]; one block of no known
    # signature splits first.
    block = dict.fromkeys(eqs, -1)
    blocks, bsig = {-1: set(eqs)}, {-1: None}
    users: dict[int, list[int]] = {}  # built at the first split that moves an unknown
    resigned = 0
    touched = set(eqs)
    while touched:
        resigned += len(touched)
        # The touched members whose signature left their block's, by
        # block and signature; the rest of a block keeps its signature.
        splits: dict[int, dict[frozenset, set[int]]] = {}
        for u in touched:
            sig = frozenset(_modulo(eqs[u], block).items())
            if sig != bsig[block[u]]:
                splits.setdefault(block[u], {}).setdefault(sig, set()).add(u)
        moved = []
        for b, groups in splits.items():
            for part in groups.values():
                blocks[b] -= part
            parts = sorted([(bsig[b], blocks[b])] + list(groups.items()), key=lambda sp: -len(sp[1]))
            (bsig[b], blocks[b]), *rest = parts
            for sig, part in rest:
                if part:
                    new = -1 - len(blocks)
                    blocks[new], bsig[new] = part, sig
                    for u in part:
                        block[u] = new
                    moved += part
        if len(blocks) == len(eqs):
            break
        if moved and not users:
            users = {v: [] for v in eqs}
            for u, p in eqs.items():
                for w in p.variables():
                    if w in users:
                        users[w].append(u)
        # A block of one unknown never splits, so its signature is not needed.
        touched = {u for w in moved for u in users[w] if len(blocks[block[u]]) > 1}
    first = {block[fas.start]: fas.start}
    for v in eqs:
        first.setdefault(block[v], v)
    rep = {v: first[block[v]] for v in eqs}
    members: dict[int, list[int]] = {}
    for v in eqs:
        members.setdefault(rep[v], []).append(v)
    # With nothing merged, the same equations; a new Fas all the same, so
    # that `fas` holds no cycle.
    qeqs = eqs if len(members) == len(eqs) else {r: Poly(_modulo(eqs[r], rep)) for r in members}
    fas.quotient = Quotient(Fas(qeqs, fas.start, fas.names), rep, members, resigned)
    return fas.quotient


def _modulo(p: Poly, cls: dict[int, int]) -> dict[Monomial, Fraction]:
    """p's terms with each variable w in cls renamed cls[w], and equal
    monomials summed."""
    terms: dict[Monomial, Fraction] = {}
    for m, c in p.terms.items():
        acc: dict[int, int] = {}
        for w, e in m:
            w = cls.get(w, w)
            acc[w] = acc.get(w, 0) + e
        key = tuple(sorted(acc.items()))
        terms[key] = terms[key] + c if key in terms else c
    return terms
