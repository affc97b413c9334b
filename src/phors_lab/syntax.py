"""Concrete syntax, abstract syntax and pretty-printer for recursion
schemes with probabilistic choice and graded arrow types.

File format (`.phors`, UTF-8, `#` line comments, statements end in `;`):

    F : !2 o -o o ;          # type declaration
    F x = (F (F x)) [1/2] x ;  # rule: choice is lowest precedence
    param w : !1 o -o o ;    # scheme parameter (open schemes)
    start F ;                # start symbol (defaults to S)

Terms: application by juxtaposition, `e` the terminal, `omega`
divergence, tuples `<t1, t2>`, projections `pi_1 t`, probabilities as
`1/2` or finite decimals.  Types: `o`, `o^n`, `!k T -o T`, `!inf T -o T`
(arrows associate to the right; every arrow argument carries a grade).
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

INF = math.inf

Grade = Union[int, float]  # a natural number or math.inf


# ---------------------------------------------------------------------------
# Types


class GradedType:
    __slots__ = ()


@dataclass(frozen=True)
class Ground(GradedType):
    width: int = 1

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("ground type width must be >= 1")


@dataclass(frozen=True)
class Arrow(GradedType):
    grade: Grade
    arg: GradedType
    result: GradedType

    def __post_init__(self) -> None:
        g = self.grade
        if g != INF and (not isinstance(g, int) or g < 0):
            raise ValueError(f"grade must be a natural number or inf, got {g!r}")


O = Ground(1)


def order(ty: GradedType) -> int:
    match ty:
        case Ground():
            return 0
        case Arrow(_, a, r):
            return max(order(a) + 1, order(r))
    raise TypeError(ty)


def is_finitary(ty: GradedType) -> bool:
    match ty:
        case Ground():
            return True
        case Arrow(g, a, r):
            return g != INF and is_finitary(a) and is_finitary(r)
    raise TypeError(ty)


def arg_types(ty: GradedType) -> list[tuple[Grade, GradedType]]:
    """The spine of (grade, argument type) pairs down to the ground result."""
    out = []
    while isinstance(ty, Arrow):
        out.append((ty.grade, ty.arg))
        ty = ty.result
    return out


# ---------------------------------------------------------------------------
# Terms


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class NonTerm(Term):
    name: str


@dataclass(frozen=True)
class Param(Term):
    name: str


@dataclass(frozen=True)
class Unit(Term):
    pass


@dataclass(frozen=True)
class Omega(Term):
    pass


@dataclass(frozen=True)
class App(Term):
    fun: Term
    arg: Term


@dataclass(frozen=True)
class Choice(Term):
    left: Term
    bias: Fraction
    right: Term

    def __post_init__(self) -> None:
        if not (0 <= self.bias <= 1):
            raise ValueError(f"choice bias {self.bias} outside [0, 1]")


@dataclass(frozen=True)
class Tuple_(Term):
    items: tuple[Term, ...]


@dataclass(frozen=True)
class Proj(Term):
    index: int
    body: Term

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("projection index must be >= 1")


def spine(t: Term) -> tuple[Term, list[Term]]:
    """Unwind applications: returns (head, [arg1, ..., argn])."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return t, args


def map_term(t: Term, leaf: Callable[[Term], Term]) -> Term:
    """Rebuild t through App, Choice, Tuple_ and Proj, replacing every
    other node by leaf(node)."""
    match t:
        case App(f, a):
            return App(map_term(f, leaf), map_term(a, leaf))
        case Choice(l, b, r):
            return Choice(map_term(l, leaf), b, map_term(r, leaf))
        case Tuple_(items):
            return Tuple_(tuple(map_term(i, leaf) for i in items))
        case Proj(i, b):
            return Proj(i, map_term(b, leaf))
    return leaf(t)


def type_of(t: Term, scheme: Scheme, bound: dict[str, GradedType]) -> GradedType:
    """Synthesized type of a subterm of a rule body whose parameters have
    the types in `bound` (bodies are applicative, so the head determines
    everything)."""
    match t:
        case Var(n):
            return bound[n]
        case NonTerm(n):
            return scheme.nonterminals[n].ty
        case Param(n):
            return scheme.params[n]
        case Unit() | Omega() | Choice() | Proj():
            return O
        case Tuple_(items):
            return Ground(len(items))
        case App(f, _):
            fty = type_of(f, scheme, bound)
            if not isinstance(fty, Arrow):
                raise SchemeError("application of a non-arrow term")
            return fty.result
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Schemes


@dataclass
class NonTermDef:
    ty: GradedType
    params: tuple[str, ...]
    body: Term


@dataclass
class Scheme:
    nonterminals: dict[str, NonTermDef]
    params: dict[str, GradedType] = field(default_factory=dict)
    start: str = "S"

    def is_closed(self) -> bool:
        return not self.params

    def validate(self) -> None:
        if self.start not in self.nonterminals:
            raise SchemeError(f"start symbol {self.start!r} is not a non-terminal")
        if self.nonterminals[self.start].ty != O:
            raise SchemeError(f"start symbol {self.start!r} must have type o")
        for name, ty in self.params.items():
            if not is_finitary(ty):
                raise SchemeError(f"parameter {name!r} has an infinitary type")
        for name, d in self.nonterminals.items():
            spec = arg_types(d.ty)
            if len(d.params) != len(spec):
                raise SchemeError(
                    f"rule {name!r} binds {len(d.params)} parameters but its "
                    f"type has {len(spec)} arguments"
                )
            self._check_names(name, d)

    def _check_names(self, rule: str, d: NonTermDef) -> None:
        def leaf(t: Term) -> Term:
            match t:
                case Var(n) if n not in d.params:
                    raise SchemeError(f"rule {rule!r}: unbound variable {n!r}")
                case NonTerm(n) if n not in self.nonterminals:
                    raise SchemeError(f"rule {rule!r}: unknown non-terminal {n!r}")
                case Param(n) if n not in self.params:
                    raise SchemeError(f"rule {rule!r}: unknown parameter {n!r}")
            return t

        map_term(d.body, leaf)


class SchemeError(ValueError):
    pass


class ParseError(SchemeError):
    def __init__(self, msg: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Lexer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<rat>\d+/\d+|\d+\.\d+|\d+)
  | (?P<arrow>-o)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<punct>[()=;:<>,!\[\]^])
""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # 'rat' | 'ident' | one of the punct/arrow literals
    text: str
    line: int
    col: int


def _lex(src: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup
        if kind != "ws":
            if kind in ("punct", "arrow"):
                kind = text
            toks.append(Token(kind, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    return toks


# ---------------------------------------------------------------------------
# Parser

_RESERVED = {"e", "omega", "param", "start", "o", "inf"}


class _Cursor:
    def __init__(self, toks: list[Token], end_line: int) -> None:
        self.toks = toks
        self.i = 0
        self.end_line = end_line

    def peek(self) -> Token | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> Token:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of statement", self.end_line, 1)
        self.i += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text!r}", t.line, t.col)
        return t

    def done(self) -> bool:
        return self.i >= len(self.toks)

    def fail(self, msg: str) -> ParseError:
        t = self.peek()
        if t is None:
            return ParseError(msg, self.end_line, 1)
        return ParseError(msg + f" (at {t.text!r})", t.line, t.col)


def _parse_rat(tok: Token) -> Fraction:
    return Fraction(tok.text)


def _parse_type(c: _Cursor) -> GradedType:
    if c.peek() and c.peek().kind == "!":
        c.next()
        t = c.next()
        if t.kind == "rat" and "/" not in t.text and "." not in t.text:
            grade: Grade = int(t.text)
        elif t.kind == "ident" and t.text == "inf":
            grade = INF
        else:
            raise ParseError(
                f"expected a grade (natural number or 'inf'), found {t.text!r}",
                t.line,
                t.col,
            )
        arg = _parse_atomic_type(c)
        c.expect("-o")
        result = _parse_type(c)
        return Arrow(grade, arg, result)
    return _parse_atomic_type(c)


def _parse_atomic_type(c: _Cursor) -> GradedType:
    t = c.next()
    if t.kind == "ident" and t.text == "o":
        if c.peek() and c.peek().kind == "^":
            c.next()
            w = c.expect("rat")
            if "/" in w.text or "." in w.text or int(w.text) < 1:
                raise ParseError(
                    "ground width must be a positive integer", w.line, w.col
                )
            return Ground(int(w.text))
        return Ground(1)
    if t.kind == "(":
        ty = _parse_type(c)
        c.expect(")")
        return ty
    raise ParseError(f"expected a type, found {t.text!r}", t.line, t.col)


_PI_RE = re.compile(r"pi_([0-9]+)$")


class _BodyParser:
    """Parses a rule body; identifiers resolve against the collected
    rule parameters, non-terminal names, and scheme parameters."""

    def __init__(self, c: _Cursor, bound: set[str], nts: set[str], params: set[str]):
        self.c = c
        self.bound = bound
        self.nts = nts
        self.params = params

    def parse(self) -> Term:
        t = self.choice()
        if not self.c.done():
            raise self.c.fail("trailing tokens after rule body")
        return t

    def choice(self) -> Term:
        left = self.app()
        while (tok := self.c.peek()) and tok.kind == "[":
            self.c.next()
            p = _parse_rat(self.c.expect("rat"))
            if not (0 <= p <= 1):
                raise ParseError(f"bias {p} outside [0, 1]", tok.line, tok.col)
            self.c.expect("]")
            right = self.app()
            left = Choice(left, p, right)
        return left

    def app(self) -> Term:
        t = self.atom()
        while (tok := self.c.peek()) and tok.kind in ("ident", "(", "<"):
            t = App(t, self.atom())
        return t

    def atom(self) -> Term:
        tok = self.c.next()
        if tok.kind == "ident":
            name = tok.text
            if name == "e":
                return Unit()
            if name == "omega":
                return Omega()
            m = _PI_RE.match(name)
            if m:
                idx = int(m.group(1))
                if idx < 1:
                    raise ParseError("projection index must be >= 1", tok.line, tok.col)
                return Proj(idx, self.atom())
            if name in _RESERVED:
                raise ParseError(f"reserved word {name!r} in term", tok.line, tok.col)
            if name in self.bound:
                return Var(name)
            if name in self.nts:
                return NonTerm(name)
            if name in self.params:
                return Param(name)
            raise ParseError(f"unknown identifier {name!r}", tok.line, tok.col)
        if tok.kind == "(":
            t = self.choice()
            self.c.expect(")")
            return t
        if tok.kind == "<":
            items = [self.choice()]
            while self.c.peek() and self.c.peek().kind == ",":
                self.c.next()
                items.append(self.choice())
            self.c.expect(">")
            return Tuple_(tuple(items))
        raise ParseError(f"unexpected token {tok.text!r} in term", tok.line, tok.col)


def _default_type(n_params: int) -> GradedType:
    """Type assumed for a rule with no declaration: affine order <= 1."""
    ty: GradedType = O
    for _ in range(n_params):
        ty = Arrow(1, O, ty)
    return ty


def parse(source: str) -> Scheme:
    toks = _lex(source)
    end_line = source.count("\n") + 1

    # Split the token stream into `;`-terminated statements.
    statements: list[list[Token]] = []
    current: list[Token] = []
    for t in toks:
        if t.kind == ";":
            if current:
                statements.append(current)
                current = []
        else:
            current.append(t)
    if current:
        t = current[0]
        raise ParseError("statement not terminated by ';'", t.line, t.col)

    decls: dict[str, list[Token]] = {}
    rules: list[tuple[Token, list[Token], list[Token]]] = []  # head, params, body
    param_stmts: list[tuple[Token, list[Token]]] = []
    start: str | None = None

    for st in statements:
        head = st[0]
        if head.kind == "ident" and head.text == "start":
            if len(st) != 2 or st[1].kind != "ident":
                raise ParseError("expected 'start Name ;'", head.line, head.col)
            if start is not None:
                raise ParseError("duplicate start directive", head.line, head.col)
            start = st[1].text
            continue
        if head.kind == "ident" and head.text == "param":
            if len(st) < 4 or st[1].kind != "ident" or st[2].kind != ":":
                raise ParseError("expected 'param name : Type ;'", head.line, head.col)
            param_stmts.append((st[1], st[3:]))
            continue
        if head.kind != "ident":
            raise ParseError(f"expected a name, found {head.text!r}", head.line, head.col)
        if head.text in _RESERVED:
            raise ParseError(f"reserved word {head.text!r}", head.line, head.col)
        # Declaration `Name : Type` or rule `Name params = body`.
        if len(st) >= 2 and st[1].kind == ":":
            if head.text in decls:
                raise ParseError(
                    f"duplicate declaration of {head.text!r}", head.line, head.col
                )
            decls[head.text] = st[2:]
            continue
        eq = next((i for i, t in enumerate(st) if t.kind == "="), None)
        if eq is None:
            raise ParseError("expected '=' in rule", head.line, head.col)
        rules.append((head, st[1:eq], st[eq + 1:]))

    nt_names = {h.text for h, _, _ in rules} | set(decls)
    for h, _, _ in rules:
        if sum(1 for h2, _, _ in rules if h2.text == h.text) > 1:
            raise ParseError(f"duplicate non-terminal {h.text!r}", h.line, h.col)

    params: dict[str, GradedType] = {}
    for name_tok, ty_toks in param_stmts:
        name = name_tok.text
        if name in params or name in nt_names:
            raise ParseError(f"duplicate name {name!r}", name_tok.line, name_tok.col)
        c = _Cursor(ty_toks, end_line)
        ty = _parse_type(c)
        if not c.done():
            raise c.fail("trailing tokens in type")
        params[name] = ty

    nonterminals: dict[str, NonTermDef] = {}
    for head, param_toks, body_toks in rules:
        pnames: list[str] = []
        for t in param_toks:
            if t.kind != "ident" or t.text in _RESERVED:
                raise ParseError(
                    f"bad rule parameter {t.text!r}", t.line, t.col
                )
            if t.text in pnames:
                raise ParseError(f"duplicate parameter {t.text!r}", t.line, t.col)
            pnames.append(t.text)
        if head.text in decls:
            c = _Cursor(decls[head.text], end_line)
            ty = _parse_type(c)
            if not c.done():
                raise c.fail("trailing tokens in type")
        else:
            ty = _default_type(len(pnames))
        c = _Cursor(body_toks, end_line)
        body = _BodyParser(c, set(pnames), nt_names, set(params)).parse()
        nonterminals[head.text] = NonTermDef(ty, tuple(pnames), body)

    for name in decls:
        if name not in nonterminals:
            raise ParseError(
                f"declaration of {name!r} has no rule", 1, 1
            )

    scheme = Scheme(nonterminals, params, start or "S")
    scheme.validate()
    return scheme


# ---------------------------------------------------------------------------
# Pretty printer


def render_type(ty: GradedType) -> str:
    match ty:
        case Ground(1):
            return "o"
        case Ground(w):
            return f"o^{w}"
        case Arrow(g, a, r):
            grade = "inf" if g == INF else str(g)
            arg = render_type(a)
            if isinstance(a, Arrow):
                arg = f"({arg})"
            return f"!{grade} {arg} -o {render_type(r)}"
    raise TypeError(ty)


def render_term(t: Term) -> str:
    return _render(t, 0)


def _render(t: Term, prec: int) -> str:
    # prec: 0 = choice position, 1 = application position, 2 = atom
    match t:
        case Var(n) | NonTerm(n) | Param(n):
            return n
        case Unit():
            return "e"
        case Omega():
            return "omega"
        case App(f, a):
            s = f"{_render(f, 1)} {_render(a, 2)}"
            return f"({s})" if prec >= 2 else s
        case Choice(l, p, r):
            s = f"{_render(l, 1)} [{p}] {_render(r, 1)}"
            return f"({s})" if prec >= 1 else s
        case Tuple_(items):
            return "<" + ", ".join(_render(i, 0) for i in items) + ">"
        case Proj(i, b):
            s = f"pi_{i} {_render(b, 2)}"
            return f"({s})" if prec >= 2 else s
    raise TypeError(t)


def print_scheme(scheme: Scheme) -> str:
    lines = []
    for name, ty in scheme.params.items():
        lines.append(f"param {name} : {render_type(ty)} ;")
    for name, d in scheme.nonterminals.items():
        lines.append(f"{name} : {render_type(d.ty)} ;")
        head = " ".join((name,) + d.params)
        lines.append(f"{head} = {render_term(d.body)} ;")
    lines.append(f"start {scheme.start} ;")
    return "\n".join(lines) + "\n"
