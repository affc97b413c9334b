"""Exact arithmetic: sparse multivariate polynomials over Q>=0 and
z-truncated power series with rational coefficients.

All coefficients are `fractions.Fraction`; no floating point enters this
module.  Polynomial variables are interned integers handed out by a global
registry, so monomials can be stored as small sorted tuples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Union

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class VarRegistry:
    """Interns hashable variable keys to dense integer ids."""

    def __init__(self) -> None:
        self._by_key: dict[Hashable, int] = {}
        self._by_id: list[Hashable] = []

    def intern(self, key: Hashable) -> int:
        vid = self._by_key.get(key)
        if vid is None:
            vid = len(self._by_id)
            self._by_id.append(key)
            self._by_key[key] = vid
        return vid

    def key_of(self, vid: int) -> Hashable:
        return self._by_id[vid]

    def __len__(self) -> int:
        return len(self._by_id)


REGISTRY = VarRegistry()

# A monomial is a tuple of (variable id, exponent) pairs, sorted by id,
# with every exponent >= 1.  The empty tuple is the constant monomial.
Monomial = tuple[tuple[int, int], ...]

_EMPTY: Monomial = ()


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    merged: dict[int, int] = dict(a)
    for vid, exp in b:
        merged[vid] = merged.get(vid, 0) + exp
    return tuple(sorted(merged.items()))


class Poly:
    """Sparse polynomial: dict from monomial to nonzero Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None) -> None:
        if terms is None:
            self.terms: dict[Monomial, Fraction] = {}
        else:
            self.terms = {m: c for m, c in terms.items() if c != 0}

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c: Union[int, Fraction]) -> "Poly":
        c = Fraction(c)
        return Poly({_EMPTY: c}) if c else Poly()

    @staticmethod
    def var(vid: int) -> "Poly":
        return Poly({((vid, 1),): ONE})

    # -- semiring ------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, ZERO) + c
            if s:
                out[m] = s
            else:
                del out[m]
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = out.get(m, ZERO) + c1 * c2
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    def scale(self, c: Union[int, Fraction]) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly()
        p = Poly.__new__(Poly)
        p.terms = {m: c * k for m, k in self.terms.items()}
        return p

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return self.terms.get(_EMPTY, ZERO)

    def variables(self) -> set[int]:
        vs: set[int] = set()
        for m in self.terms:
            for vid, _ in m:
                vs.add(vid)
        return vs

    def degree_in(self, vids: set[int]) -> int:
        """Maximal total degree over the given variable set."""
        best = 0
        for m in self.terms:
            d = sum(exp for vid, exp in m if vid in vids)
            if d > best:
                best = d
        return best

    def total_degree(self) -> int:
        return max((sum(e for _, e in m) for m in self.terms), default=0)

    def coefficient_of(self, mono: Monomial) -> "Poly":
        """Extract the coefficient (a polynomial in the remaining
        variables) of an exact power product: monomials whose exponents
        in mono's variables equal mono exactly."""
        want = dict(mono)
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            got = {vid: exp for vid, exp in m if vid in want}
            if got != want:
                continue
            rest = tuple((vid, exp) for vid, exp in m if vid not in want)
            out[rest] = out.get(rest, ZERO) + c
        return Poly(out)

    # -- evaluation ----------------------------------------------------

    def eval(self, assignment: Mapping[int, object]) -> object:
        """Substitute every variable; values may be Fractions/ints or
        TruncSeries (anything closed under + and *)."""
        total: object = ZERO
        for m, c in self.terms.items():
            acc: object = c
            for vid, exp in m:
                try:
                    val = assignment[vid]
                except KeyError:
                    raise KeyError(
                        f"no value for variable {REGISTRY.key_of(vid)!r}"
                    ) from None
                for _ in range(exp):
                    acc = acc * val
            total = total + acc
        return total

    def substitute(self, assignment: Mapping[int, "Poly"]) -> "Poly":
        """Replace some variables by polynomials; others stay."""
        total = Poly()
        for m, c in self.terms.items():
            acc = Poly.const(c)
            for vid, exp in m:
                rep = assignment.get(vid)
                if rep is None:
                    rep = Poly.var(vid)
                for _ in range(exp):
                    acc = acc * rep
            total = total + acc
        return total

    def derivative(self, vid: int) -> "Poly":
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            md = dict(m)
            exp = md.get(vid)
            if not exp:
                continue
            if exp == 1:
                del md[vid]
            else:
                md[vid] = exp - 1
            nm = tuple(sorted(md.items()))
            out[nm] = out.get(nm, ZERO) + c * exp
        return Poly(out)

    # -- rendering -----------------------------------------------------

    def render(self, name_of) -> str:
        """Deterministic text form; monomials sorted by their rendered
        variable names, used for golden tests and JSON reports."""
        if not self.terms:
            return "0"
        pieces = []
        for m, c in self.terms.items():
            factors = []
            for vid, exp in m:
                n = name_of(vid)
                factors.append(n if exp == 1 else f"{n}^{exp}")
            factors.sort()
            key = tuple(factors)
            if factors:
                body = "*".join(factors)
                text = body if c == 1 else f"{c}*{body}"
            else:
                text = str(c)
            pieces.append((-sum(e for _, e in m), key, text))
        pieces.sort()
        return " + ".join(t for _, _, t in pieces)

    def __repr__(self) -> str:
        return f"Poly({self.render(lambda v: f'x{v}')})"


class TruncSeries:
    """Power series in the single variable z, exact modulo z^(N+1).

    coeffs is a tuple of N+1 Fractions.  Arithmetic requires matching
    truncation orders; scalars promote via __radd__/__rmul__.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Union[int, Fraction]]) -> None:
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("series needs at least the constant coefficient")

    @staticmethod
    def zero(n: int) -> "TruncSeries":
        return TruncSeries([ZERO] * (n + 1))

    @staticmethod
    def const(c: Union[int, Fraction], n: int) -> "TruncSeries":
        return TruncSeries([Fraction(c)] + [ZERO] * n)

    @staticmethod
    def z(n: int) -> "TruncSeries":
        if n < 1:
            raise ValueError("need degree bound >= 1 to represent z")
        return TruncSeries([ZERO, ONE] + [ZERO] * (n - 1))

    @property
    def bound(self) -> int:
        return len(self.coeffs) - 1

    def _coerce(self, other) -> "TruncSeries":
        if isinstance(other, TruncSeries):
            if other.bound != self.bound:
                raise ValueError("mismatched truncation orders")
            return other
        return TruncSeries.const(Fraction(other), self.bound)

    def __add__(self, other) -> "TruncSeries":
        o = self._coerce(other)
        return TruncSeries(a + b for a, b in zip(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __mul__(self, other) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            c = Fraction(other)
            return TruncSeries(c * a for a in self.coeffs)
        o = self._coerce(other)
        n = self.bound
        out = [ZERO] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = o.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncSeries(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TruncSeries) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __le__(self, other: "TruncSeries") -> bool:
        o = self._coerce(other)
        return all(a <= b for a, b in zip(self.coeffs, o.coeffs))

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """self(inner(z)) mod z^(N+1).

        Requires inner's constant term to vanish (otherwise every outer
        coefficient contributes to every output coefficient and the
        truncated computation would be wrong), unless self is an exact
        polynomial of degree within the bound — then plain Horner
        evaluation is still exact.
        """
        inner = self._coerce(inner)
        if inner.coeffs[0] != 0:
            # Safe only when self really is a polynomial we hold in full:
            # conservatively refuse; callers evaluate Poly instead.
            raise ValueError("composition needs zero constant term in inner series")
        acc = TruncSeries.zero(self.bound)
        for c in reversed(self.coeffs):
            acc = acc * inner + TruncSeries.const(c, self.bound)
        return acc

    def derivative(self) -> "TruncSeries":
        if self.bound == 0:
            return TruncSeries([ZERO])
        return TruncSeries(
            Fraction(i) * self.coeffs[i] for i in range(1, self.bound + 1)
        )

    def eval_at(self, x: Fraction) -> Fraction:
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*z" if c != 1 else "z")
            else:
                parts.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        body = " + ".join(parts) if parts else "0"
        return f"TruncSeries({body} + O(z^{self.bound + 1}))"
