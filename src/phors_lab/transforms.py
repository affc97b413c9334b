"""Scheme-to-scheme constructions.

* `linearize` — replace every binding of grade k by k affine copies,
  duplicating argument subterms with fresh copies of their free
  variables; preserves the generating function.
* `compose` — plug a non-terminal of one scheme into an open parameter
  of another; the semantics composes as substitution of power series.
* `reduce_inf` — turn a closed scheme with unbounded-grade non-terminal
  spines into a finitary one by instantiating every unbounded argument
  tuple with concrete non-terminals, keeping only what the start symbol
  reaches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    INF,
    App,
    Arrow,
    Choice,
    Ground,
    GradedType,
    NonTerm,
    NonTermDef,
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
    map_term,
    spine,
    type_of,
)
from .typesys import check_fin, check_inf, subtype


class TransformError(ValueError):
    pass


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


class _Linearizer:
    def __init__(self, scheme: Scheme, rule: str) -> None:
        self.scheme = scheme
        d = scheme.nonterminals[rule]
        self.copies = {}
        self.types = {}
        for pname, (grade, pty) in zip(d.params, arg_types(d.ty)):
            self.copies[pname] = max(int(grade), 1)
            self.types[pname] = pty

    def transform(self, t: Term, used: dict[str, int]) -> tuple[Term, dict[str, int]]:
        """Rewrite t, allocating the next unused copy for each variable
        occurrence.  `used` maps a variable to how many copies earlier
        parts of the same run already consumed; choice branches fork the
        counter and re-merge with a pointwise max, because only one
        branch runs."""
        match t:
            case Var(n):
                i = used.get(n, 0) + 1
                assert i <= self.copies[n], "usage exceeds declared grade"
                return Var(_copy_name(n, i)), {**used, n: i}
            case NonTerm() | Param() | Unit() | Omega():
                return t, used
            case Choice(l, bias, r):
                lt, lu = self.transform(l, used)
                rt, ru = self.transform(r, used)
                merged = {
                    k: max(lu.get(k, 0), ru.get(k, 0)) for k in lu.keys() | ru.keys()
                }
                return Choice(lt, bias, rt), merged
            case Tuple_(items):
                out = []
                merged = dict(used)
                for it in items:
                    t2, u2 = self.transform(it, used)
                    out.append(t2)
                    for k, v in u2.items():
                        merged[k] = max(merged.get(k, 0), v)
                return Tuple_(tuple(out)), merged
            case Proj(i, b):
                bt, bu = self.transform(b, used)
                return Proj(i, bt), bu
            case App(f, a):
                fty = type_of(f, self.scheme, self.types)
                copies = max(int(fty.grade), 1)
                ft, cur = self.transform(f, used)
                for _ in range(copies):
                    at, cur = self.transform(a, cur)
                    ft = App(ft, at)
                return ft, cur
        raise TypeError(t)


def linearize(scheme: Scheme) -> Scheme:
    """Produce an equivalent scheme in which every grade is 1."""
    report = check_fin(scheme)
    if not report.accepted:
        msgs = "; ".join(d.message for d in report.diagnostics)
        raise TransformError(f"scheme is not finitely graded: {msgs}")
    out: dict[str, NonTermDef] = {}
    for name, d in scheme.nonterminals.items():
        lin = _Linearizer(scheme, name)
        params = tuple(
            _copy_name(p, i)
            for p in d.params
            for i in range(1, lin.copies[p] + 1)
        )
        body, _ = lin.transform(d.body, {})
        out[name] = NonTermDef(aff_type(d.ty), params, body)
    result = Scheme(out, {}, scheme.start)
    result.validate()
    return result


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


@dataclass(frozen=True)
class _Inst:
    name: str
    gamma: tuple[str, ...]

    def rendered(self) -> str:
        if not self.gamma:
            return self.name
        return f"{self.name}__" + "_".join(self.gamma)


def _inf_prefix(ty: GradedType) -> tuple[list[GradedType], GradedType]:
    """Split an unbounded-prefix type into its unbounded argument types
    and the finitary remainder."""
    prefix: list[GradedType] = []
    while isinstance(ty, Arrow) and ty.grade == INF:
        prefix.append(ty.arg)
        ty = ty.result
    if not is_finitary(ty):
        raise TransformError(
            "unbounded grades must form a prefix of the type spine"
        )
    return prefix, ty


def reduce_inf(scheme: Scheme) -> Scheme:
    """Instantiate every unbounded argument with matching non-terminals,
    restricted to the part reachable from the start symbol.  Schemes
    without unbounded grades are returned unchanged up to revalidation."""
    if scheme.params:
        raise TransformError("reduction requires a closed scheme")
    report = check_inf(scheme)
    if not report.accepted:
        msgs = "; ".join(d.message for d in report.diagnostics)
        raise TransformError(f"scheme does not type-check: {msgs}")

    prefixes = {
        name: _inf_prefix(d.ty) for name, d in scheme.nonterminals.items()
    }

    out: dict[str, NonTermDef] = {}
    seen: set[_Inst] = set()
    worklist: list[_Inst] = [_Inst(scheme.start, ())]
    seen.add(worklist[0])

    def resolve(arg: Term, env: dict[str, str]) -> str:
        """An unbounded argument position: bare non-terminal, or an
        unbounded-bound variable already instantiated via env."""
        match arg:
            case NonTerm(n):
                if prefixes[n][0]:
                    raise TransformError(
                        f"non-terminal {n!r} needs its own instantiation "
                        "before being passed along"
                    )
                return n
            case Var(n) if n in env:
                return env[n]
        raise TransformError(
            "unbounded argument is neither a non-terminal nor an "
            "instantiated variable"
        )

    def visit(inst: _Inst) -> None:
        if inst not in seen:
            seen.add(inst)
            worklist.append(inst)

    def rewrite(t: Term, env: dict[str, str]) -> Term:
        head, args = spine(t)
        match head:
            case Var(n) if n in env:
                new_head: Term = NonTerm(_rename_target(env[n]))
            case NonTerm(n):
                j = len(prefixes[n][0])
                if j:
                    if len(args) < j:
                        raise TransformError(
                            f"partial unbounded application of {n!r}"
                        )
                    gamma = tuple(resolve(a, env) for a in args[:j])
                    if any(
                        not subtype(
                            scheme.nonterminals[g].ty, prefixes[n][0][i]
                        )
                        for i, g in enumerate(gamma)
                    ):
                        raise TransformError(
                            f"instantiation of {n!r} has mismatched types"
                        )
                    inst = _Inst(n, gamma)
                    visit(inst)
                    new_head = NonTerm(inst.rendered())
                    args = args[j:]
                else:
                    visit(_Inst(n, ()))
                    new_head = head
            case Choice(l, b, r):
                assert not args
                return Choice(rewrite(l, env), b, rewrite(r, env))
            case Tuple_(items):
                assert not args
                return Tuple_(tuple(rewrite(i, env) for i in items))
            case Proj(i, b):
                new_head = Proj(i, rewrite(b, env))
            case _:
                new_head = head
        for a in args:
            new_head = App(new_head, rewrite(a, env))
        return new_head

    def _rename_target(name: str) -> str:
        # env values are names of finitary non-terminals (empty gamma).
        visit(_Inst(name, ()))
        return name

    while worklist:
        inst = worklist.pop()
        d = scheme.nonterminals[inst.name]
        inf_args, fin_ty = prefixes[inst.name]
        if len(inst.gamma) != len(inf_args):
            raise TransformError(
                f"instantiation arity mismatch for {inst.name!r}"
            )
        env = dict(zip(d.params[: len(inf_args)], inst.gamma))
        body = rewrite(d.body, env)
        out[inst.rendered()] = NonTermDef(
            fin_ty, d.params[len(inf_args):], body
        )

    result = Scheme(out, {}, scheme.start)
    result.validate()
    rep = check_fin(result)
    if not rep.accepted:
        msgs = "; ".join(dg.message for dg in rep.diagnostics)
        raise TransformError(f"reduced scheme failed finitary checking: {msgs}")
    return result
