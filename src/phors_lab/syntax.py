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
from collections import Counter
from collections.abc import Callable, Container, Iterator
from fractions import Fraction
from operator import attrgetter

INF = math.inf

Grade = int | float  # a natural number or math.inf
_set = object.__setattr__  # assigns a field of a Frozen value


class Frozen:
    """Immutable value with its __slots__ as fields: class-strict ==, hash computed once."""

    __slots__ = ("_hash",)

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__
        cls._key = attrgetter("__class__", *cls.__slots__)  # called as self._key(self)

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            _set(self, name, value)

    def __eq__(self, other: object) -> bool:
        same_class = other.__class__ is self.__class__
        return self._key(self) == self._key(other) if same_class else NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            _set(self, "_hash", hash(self._key(self)))
            return self._hash

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")
    __delattr__ = __setattr__


# ---------------------------------------------------------------------------
# Types


class GradedType(Frozen):
    __slots__ = ()


class Ground(GradedType):
    __slots__ = ("width",)

    def __init__(self, width: int = 1) -> None:
        if width < 1:
            raise ValueError("ground type width must be >= 1")
        super().__init__(width)


class Arrow(GradedType):
    __slots__ = ("grade", "arg", "result")

    def __init__(self, grade: Grade, arg: GradedType, result: GradedType) -> None:
        if grade != INF and (not isinstance(grade, int) or grade < 0):
            raise ValueError(f"grade must be a natural number or inf, got {grade!r}")
        super().__init__(grade, arg, result)


O = Ground(1)


def order(ty: GradedType) -> int:
    n = 0
    while ty.__class__ is Arrow:
        n = max(n, order(ty.arg) + 1)
        ty = ty.result
    if ty.__class__ is not Ground:
        raise TypeError(ty)
    return n


def is_finitary(ty: GradedType) -> bool:
    while ty.__class__ is Arrow:
        if ty.grade == INF or not is_finitary(ty.arg):
            return False
        ty = ty.result
    if ty.__class__ is not Ground:
        raise TypeError(ty)
    return True


def arg_types(ty: GradedType) -> list[tuple[Grade, GradedType]]:
    """The spine of (grade, argument type) pairs down to the ground result."""
    out = []
    while ty.__class__ is Arrow:
        out.append((ty.grade, ty.arg))
        ty = ty.result
    return out


# ---------------------------------------------------------------------------
# Terms


class Term(Frozen):
    __slots__ = ()


class Var(Term):
    __slots__ = ("name",)


class NonTerm(Term):
    __slots__ = ("name",)


class Param(Term):
    __slots__ = ("name",)


class Unit(Term):
    __slots__ = ()


class Omega(Term):
    __slots__ = ()


class App(Term):
    __slots__ = ("fun", "arg")


class Choice(Term):
    __slots__ = ("left", "bias", "right")

    def __init__(self, left: Term, bias: Fraction, right: Term) -> None:
        if not (0 <= bias <= 1):
            raise ValueError(f"choice bias {bias} outside [0, 1]")
        super().__init__(left, bias, right)


class Tuple_(Term):
    __slots__ = ("items",)


class Proj(Term):
    __slots__ = ("index", "body")

    def __init__(self, index: int, body: Term) -> None:
        if index < 1:
            raise ValueError("projection index must be >= 1")
        super().__init__(index, body)


def spine(t: Term) -> tuple[Term, list[Term]]:
    """Unwind applications: returns (head, [arg1, ..., argn])."""
    args: list[Term] = []
    while t.__class__ is App:
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


def leaves(t: Term) -> Iterator[Term]:
    """The nodes of t other than App, Choice, Tuple_ and Proj, left to
    right, by an explicit stack, so that no depth raises RecursionError."""
    stack = [t]
    while stack:
        t = stack.pop()
        cls = t.__class__
        if cls is App:
            stack += (t.arg, t.fun)
        elif cls is Choice:
            stack += (t.right, t.left)
        elif cls is Tuple_:
            stack += reversed(t.items)
        elif cls is Proj:
            stack.append(t.body)
        else:
            yield t


# ---------------------------------------------------------------------------
# Schemes


class NonTermDef:
    def __init__(self, ty: GradedType, params: tuple[str, ...], body: Term) -> None:
        self.ty = ty
        self.params = params
        self.body = body


class Scheme:
    def __init__(self, nonterminals: dict[str, NonTermDef],
                 params: dict[str, GradedType] | None = None, start: str = "S") -> None:
        self.nonterminals = nonterminals
        self.params = {} if params is None else params
        self.start = start

    def is_closed(self) -> bool:
        return not self.params

    def _start_error(self) -> str | None:
        """What is wrong with the start symbol, if anything."""
        if self.start not in self.nonterminals:
            return f"start symbol {self.start!r} is not a non-terminal"
        if self.nonterminals[self.start].ty != O:
            return f"start symbol {self.start!r} must have type o"
        return None

    def validate(self) -> None:
        if msg := self._start_error():
            raise SchemeError(msg)
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
        for t in leaves(d.body):
            match t:
                case Var(n) if n not in d.params:
                    raise SchemeError(f"rule {rule!r}: unbound variable {n!r}")
                case NonTerm(n) if n not in self.nonterminals:
                    raise SchemeError(f"rule {rule!r}: unknown non-terminal {n!r}")
                case Param(n) if n not in self.params:
                    raise SchemeError(f"rule {rule!r}: unknown parameter {n!r}")


class SchemeError(ValueError):
    pass


class TransformError(ValueError):
    pass


class ExecError(RuntimeError):
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


class Token:
    __slots__ = ("kind", "text", "line", "col")  # kind: 'rat', 'ident' or a punct/arrow literal

    def __init__(self, kind: str, text: str, line: int, col: int) -> None:
        self.kind, self.text, self.line, self.col = kind, text, line, col


def _lex(src: str) -> list[list[Token]]:
    """The `;`-terminated statements of src, each a nonempty token list
    without its `;`."""
    statements: list[list[Token]] = []
    current: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup
        if kind in ("punct", "arrow"):
            kind = text
        if kind == ";":
            if current:
                statements.append(current)
                current = []
        elif kind != "ws":
            current.append(Token(kind, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    if current:
        raise ParseError("statement not terminated by ';'", current[0].line, current[0].col)
    return statements


# ---------------------------------------------------------------------------
# Parser

_RESERVED = {"e", "omega", "param", "start", "o", "inf"}
_PI_RE = re.compile(r"pi_([0-9]+)$")


class _Parser:
    """Recursive descent over the tokens of one statement.  Identifiers in
    a term resolve against the rule's parameters `bound`, then the
    non-terminal names `nts`, then the scheme parameters `params`."""

    def __init__(self, toks: list[Token], end_line: int, bound: Container[str] = (),
                 nts: Container[str] = (), params: Container[str] = ()) -> None:
        self.toks = toks
        self.i = 0
        self.end_line = end_line
        self.bound = bound
        self.nts = nts
        self.params = params

    def peek(self) -> str | None:
        """The kind of the next token, None at the end of the statement."""
        return self.toks[self.i].kind if self.i < len(self.toks) else None

    def next(self) -> Token:
        if self.i >= len(self.toks):
            raise ParseError("unexpected end of statement", self.end_line, 1)
        self.i += 1
        return self.toks[self.i - 1]

    def expect(self, kind: str) -> Token:
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text!r}", t.line, t.col)
        return t

    def whole(self, parse: Callable[[_Parser], object], what: str):
        """parse(self), which must consume every token of the statement."""
        result = parse(self)
        if self.i < len(self.toks):
            t = self.toks[self.i]
            raise ParseError(f"trailing tokens {what} (at {t.text!r})", t.line, t.col)
        return result

    def type(self) -> GradedType:
        if self.peek() != "!":
            return self.atomic_type()
        self.next()
        t = self.next()
        if t.kind == "rat" and "/" not in t.text and "." not in t.text:
            grade: Grade = int(t.text)
        elif t.kind == "ident" and t.text == "inf":
            grade = INF
        else:
            raise ParseError(
                f"expected a grade (natural number or 'inf'), found {t.text!r}", t.line, t.col
            )
        arg = self.atomic_type()
        self.expect("-o")
        return Arrow(grade, arg, self.type())

    def atomic_type(self) -> GradedType:
        t = self.next()
        if t.kind == "ident" and t.text == "o":
            if self.peek() != "^":
                return O
            self.next()
            w = self.expect("rat")
            if "/" in w.text or "." in w.text or int(w.text) < 1:
                raise ParseError("ground width must be a positive integer", w.line, w.col)
            return Ground(int(w.text))
        if t.kind == "(":
            ty = self.type()
            self.expect(")")
            return ty
        raise ParseError(f"expected a type, found {t.text!r}", t.line, t.col)

    def choice(self) -> Term:
        left = self.app()
        while self.peek() == "[":
            tok = self.next()
            p = self.expect("rat")
            try:
                bias = Fraction(p.text)
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {p.text!r}", p.line, p.col) from None
            if not (0 <= bias <= 1):
                raise ParseError(f"bias {bias} outside [0, 1]", tok.line, tok.col)
            self.expect("]")
            left = Choice(left, bias, self.app())
        return left

    def app(self) -> Term:
        t = self.atom()
        while self.peek() in ("ident", "(", "<"):
            t = App(t, self.atom())
        return t

    def atom(self) -> Term:
        tok = self.next()
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
            self.expect(")")
            return t
        if tok.kind == "<":
            items = [self.choice()]
            while self.peek() == ",":
                self.next()
                items.append(self.choice())
            self.expect(">")
            return Tuple_(tuple(items))
        raise ParseError(f"unexpected token {tok.text!r} in term", tok.line, tok.col)


def _default_type(n_params: int) -> GradedType:
    """Type assumed for a rule with no declaration: affine order <= 1."""
    ty: GradedType = O
    for _ in range(n_params):
        ty = Arrow(1, O, ty)
    return ty


def parse(source: str) -> Scheme:
    statements = _lex(source)
    end_line = source.count("\n") + 1

    decls: dict[str, list[Token]] = {}  # name -> its declaration statement
    rules: list[tuple[Token, list[Token], list[Token]]] = []  # head, params, body
    param_stmts: list[tuple[Token, list[Token]]] = []
    start: Token | None = None

    for st in statements:
        head = st[0]
        if head.kind == "ident" and head.text == "start":
            if len(st) != 2 or st[1].kind != "ident":
                raise ParseError("expected 'start Name ;'", head.line, head.col)
            if start is not None:
                raise ParseError("duplicate start directive", head.line, head.col)
            start = st[1]
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
            decls[head.text] = st
            continue
        eq = next((i for i, t in enumerate(st) if t.kind == "="), None)
        if eq is None:
            raise ParseError("expected '=' in rule", head.line, head.col)
        rules.append((head, st[1:eq], st[eq + 1:]))

    counts = Counter(h.text for h, _, _ in rules)
    for h, _, _ in rules:
        if counts[h.text] > 1:
            raise ParseError(f"duplicate non-terminal {h.text!r}", h.line, h.col)
    nt_names = set(counts) | set(decls)

    params: dict[str, GradedType] = {}
    for name_tok, ty_toks in param_stmts:
        name = name_tok.text
        if name in params or name in nt_names:
            raise ParseError(f"duplicate name {name!r}", name_tok.line, name_tok.col)
        params[name] = _Parser(ty_toks, end_line).whole(_Parser.type, "in type")

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
            ty = _Parser(decls[head.text][2:], end_line).whole(_Parser.type, "in type")
        else:
            ty = _default_type(len(pnames))
        body_parser = _Parser(body_toks, end_line, set(pnames), nt_names, set(params))
        body = body_parser.whole(_Parser.choice, "after rule body")
        nonterminals[head.text] = NonTermDef(ty, tuple(pnames), body)

    for name, st in decls.items():
        if name not in nonterminals:
            raise ParseError(f"declaration of {name!r} has no rule", st[0].line, st[0].col)

    scheme = Scheme(nonterminals, params, start.text if start else "S")
    if start and (msg := scheme._start_error()):
        raise ParseError(msg, start.line, start.col)
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
