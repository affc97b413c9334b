"""Scheme-to-scheme constructions.

* `linearize` — replace every binding of grade k by k affine copies,
  duplicating argument subterms with fresh copies of their free
  variables; preserves the generating function.  Its result must pass
  `check_fin`; the schemes whose copies do not fit raise instead.
* `compose` — plug a non-terminal of one scheme into an open parameter
  of another; the semantics composes as substitution of power series.
* `reduce_inf` — turn a closed scheme with unbounded-grade non-terminal
  spines into a finitary one by instantiating every unbounded argument
  tuple with concrete non-terminals, keeping only what the start symbol
  reaches.  It re-checks nothing that `check_inf` has established:
  unbounded bindings come first and have finitary types, an unbounded
  argument is a bare non-terminal or unbounded variable, and every term
  of infinitary type is applied to all its unbounded arguments.
"""

from __future__ import annotations

from .syntax import (
    INF,
    App,
    Arrow,
    Choice,
    Ground,
    GradedType,
    NonTerm,
    NonTermDef,
    Param,
    Proj,
    Scheme,
    Term,
    TransformError,
    Tuple_,
    Var,
    arg_types,
    map_term,
    spine,
)
from .typesys import _max_into, check_fin, check_inf, subtype


# ---------------------------------------------------------------------------
# Linearization


def aff_type(ty: GradedType) -> GradedType:
    match ty:
        case Ground():
            return ty
        case Arrow(k, a, r):
            if k == INF:
                raise TransformError("cannot linearize an infinite grade")
            copies = max(int(k), 1)
            out = aff_type(r)
            arg = aff_type(a)
            for _ in range(copies):
                out = Arrow(1, arg, out)
            return out
    raise TypeError(ty)


def _copy_name(base: str, i: int) -> str:
    return f"{base}__{i}"


def linearize(scheme: Scheme) -> Scheme:
    """Produce an equivalent scheme in which every grade is 1.

    Each occurrence of a variable takes the next of its binding's copies.
    Two shapes that check_fin accepts do not fit and raise TransformError:
    a variable inside an argument of grade 0, which keeps one copy though
    the checker counted none of its variables, so the variable can run
    out of copies; and an argument whose type has a lower grade than its
    parameter's, which gives a result that check_fin rejects."""
    report = check_fin(scheme)
    if not report.accepted:
        msgs = "; ".join(d.message for d in report.diagnostics)
        raise TransformError(f"scheme is not finitely graded: {msgs}")
    # The declared type of each head: a checked head is a non-terminal or a variable.
    decls = {NonTerm(n): d.ty for n, d in scheme.nonterminals.items()}
    out: dict[str, NonTermDef] = {}
    for name, d in scheme.nonterminals.items():
        spec = dict(zip(d.params, arg_types(d.ty)))
        copies = {p: max(int(grade), 1) for p, (grade, _) in spec.items()}
        heads = decls | {Var(p): ty for p, (_, ty) in spec.items()}

        def lin(t: Term, used: dict[str, int]) -> tuple[Term, dict[str, int]]:
            """t with each variable occurrence renamed to its next unused
            copy, and the copies used after it.  `used` counts the copies
            that earlier parts of the same run took; the branches of a
            choice or a tuple each start from it and merge by pointwise
            maximum, because only one branch runs.  `used` is never
            updated in place, and may be returned as it is."""
            match t:
                case Var(n):
                    i = used.get(n, 0) + 1
                    if i > copies[n]:
                        raise TransformError(
                            f"rule {name!r}: variable {n!r} occurs more often "
                            f"than its copy count {copies[n]}"
                        )
                    return Var(_copy_name(n, i)), {**used, n: i}
                case Choice(l, bias, r):
                    (lt, lu), (rt, ru) = lin(l, used), lin(r, used)
                    return Choice(lt, bias, rt), _max_into(dict(lu), ru)
                case Tuple_(items):
                    merged = dict(used)
                    outs = []
                    for it in items:
                        it_lin, iu = lin(it, used)
                        outs.append(it_lin)
                        _max_into(merged, iu)
                    return Tuple_(tuple(outs)), merged
                case Proj(i, b):
                    bt, bu = lin(b, used)
                    return Proj(i, bt), bu
                case App():
                    head, args = spine(t)
                    ft, used = lin(head, used)
                    for a, (grade, _) in zip(args, arg_types(heads[head])):
                        for _ in range(max(int(grade), 1)):
                            at, used = lin(a, used)
                            ft = App(ft, at)
                    return ft, used
            return t, used

        params = tuple(_copy_name(p, i) for p in d.params for i in range(1, copies[p] + 1))
        out[name] = NonTermDef(aff_type(d.ty), params, lin(d.body, {})[0])
    return _checked(Scheme(out, {}, scheme.start), "linearized")


# ---------------------------------------------------------------------------
# Composition


def compose(g1: Scheme, g2: Scheme, hole: str, plug: str) -> Scheme:
    if hole not in g1.params:
        raise TransformError(f"{hole!r} is not a parameter of the first scheme")
    if plug not in g2.nonterminals:
        raise TransformError(f"{plug!r} is not a non-terminal of the second scheme")
    hole_ty = g1.params[hole]
    plug_ty = g2.nonterminals[plug].ty
    if not subtype(plug_ty, hole_ty):
        raise TransformError(
            f"type of {plug!r} does not match the parameter {hole!r}"
        )
    # Rename colliding non-terminals of the second scheme.
    taken = set(g1.nonterminals)
    rename: dict[str, str] = {}
    for name in g2.nonterminals:
        new = name
        while new in taken:
            new = new + "_2"
        rename[name] = new
        taken.add(new)

    def rn2(t: Term) -> Term:
        return NonTerm(rename[t.name]) if isinstance(t, NonTerm) else t

    plugged = NonTerm(rename[plug])

    def fill(t: Term) -> Term:
        return plugged if t == Param(hole) else t

    nonterminals: dict[str, NonTermDef] = {}
    for name, d in g1.nonterminals.items():
        nonterminals[name] = NonTermDef(d.ty, d.params, map_term(d.body, fill))
    for name, d in g2.nonterminals.items():
        nonterminals[rename[name]] = NonTermDef(d.ty, d.params, map_term(d.body, rn2))

    params = {n: t for n, t in g1.params.items() if n != hole}
    for n, t in g2.params.items():
        if n in params and params[n] != t:
            raise TransformError(f"shared parameter {n!r} has conflicting types")
        params[n] = t
    result = Scheme(nonterminals, params, g1.start)
    result.validate()
    return result


# ---------------------------------------------------------------------------
# Reduction of unbounded grades


def _inst_name(name: str, gamma: tuple[str, ...]) -> str:
    """The name of rule `name` instantiated at the non-terminals gamma."""
    return f"{name}__{'_'.join(gamma)}" if gamma else name


def _split_inf(ty: GradedType) -> tuple[int, GradedType]:
    """The number of leading unbounded arrows of ty and the finitary
    type below them (check_inf admits unbounded grades only there)."""
    j = 0
    while isinstance(ty, Arrow) and ty.grade == INF:
        j, ty = j + 1, ty.result
    return j, ty


def reduce_inf(scheme: Scheme) -> Scheme:
    """Instantiate every unbounded argument with matching non-terminals,
    restricted to the part reachable from the start symbol.  Schemes
    without unbounded grades are returned unchanged up to revalidation.

    The instantiation relies on what check_inf guarantees of a closed
    scheme: a rule's unbounded bindings precede its bounded ones and have
    finitary types; an unbounded argument is a bare non-terminal or an
    unbounded-bound variable; and a term of infinitary type is always
    applied to all its unbounded arguments, whose types it has checked.
    So substituting an instance's non-terminals for its unbounded
    variables leaves bare non-terminals in every unbounded position."""
    if scheme.params:
        raise TransformError("reduction requires a closed scheme")
    report = check_inf(scheme)
    if not report.accepted:
        msgs = "; ".join(d.message for d in report.diagnostics)
        raise TransformError(f"scheme does not type-check: {msgs}")

    split = {name: _split_inf(d.ty) for name, d in scheme.nonterminals.items()}
    start = (scheme.start, ())
    seen = {start}
    worklist = [start]

    def rewrite(t: Term) -> Term:
        head, args = spine(t)
        match head:
            case NonTerm(n):
                j = split[n][0]
                inst = (n, tuple(a.name for a in args[:j]))
                if inst not in seen:
                    seen.add(inst)
                    worklist.append(inst)
                head, args = NonTerm(_inst_name(*inst)), args[j:]
            case Choice(l, b, r):
                head = Choice(rewrite(l), b, rewrite(r))
            case Tuple_(items):
                head = Tuple_(tuple(rewrite(i) for i in items))
            case Proj(i, b):
                head = Proj(i, rewrite(b))
        for a in args:
            head = App(head, rewrite(a))
        return head

    out: dict[str, NonTermDef] = {}
    while worklist:
        name, gamma = worklist.pop()
        d = scheme.nonterminals[name]
        j, fin_ty = split[name]
        sub = {Var(p): NonTerm(g) for p, g in zip(d.params, gamma)}
        body = map_term(d.body, lambda t: sub.get(t, t))
        out[_inst_name(name, gamma)] = NonTermDef(fin_ty, d.params[j:], rewrite(body))
    return _checked(Scheme(out, {}, scheme.start), "reduced")


def _checked(result: Scheme, what: str) -> Scheme:
    """result, once it validates and check_fin accepts it."""
    result.validate()
    rep = check_fin(result)
    if not rep.accepted:
        msgs = "; ".join(dg.message for dg in rep.diagnostics)
        raise TransformError(f"{what} scheme failed finitary checking: {msgs}")
    return result
