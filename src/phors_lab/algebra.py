"""Exact arithmetic: sparse multivariate polynomials over Q>=0, and the
record of a z-truncated power series' rational coefficients.

All coefficients are `fractions.Fraction`; no floating point enters this
module.  Polynomial variables are interned integers handed out by a global
registry, so monomials can be stored as small sorted tuples.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from fractions import Fraction

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
        if vid < 0:  # a bound-variable atom, local to its interpreter
            raise KeyError(vid)
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
    """Sparse polynomial: dict from monomial to nonzero Fraction (float in a float copy)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None) -> None:
        if terms is None:
            self.terms: dict[Monomial, Fraction] = {}
        else:
            self.terms = {m: c for m, c in terms.items() if c != 0}

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c: int | Fraction) -> "Poly":
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

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries -------------------------------------------------------

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

    # -- evaluation ----------------------------------------------------

    def eval(self, assignment: Mapping[int, Fraction]) -> Fraction:
        """The value at a point that assigns every variable of the
        polynomial; coefficients and values may be Fractions or floats."""
        total = 0
        for m, c in self.terms.items():
            acc = c
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

    def substitute(self, values: Mapping[int, Fraction]) -> Poly:
        """Partial evaluation: the variables in `values` take those
        rational values, the others stay."""
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            rest = []
            for vid, exp in m:
                val = values.get(vid)
                if val is None:
                    rest.append((vid, exp))
                else:
                    c *= val if exp == 1 else val**exp
            key = tuple(rest)
            out[key] = out.get(key, ZERO) + c
        return Poly(out)

    def compose(self, values: Mapping[int, Poly], var: int, n: int) -> Poly:
        """The variables in `values` replaced by those polynomials, with
        every monomial of degree above n in `var` dropped."""
        out = Poly()
        for m, c in self.terms.items():
            if dict(m).get(var, 0) > n:
                continue
            acc = Poly({tuple(ve for ve in m if ve[0] not in values): c})
            for vid, exp in m:
                for _ in range(exp if vid in values else 0):
                    acc = Poly({k: x for k, x in (acc * values[vid]).terms.items()
                                if dict(k).get(var, 0) <= n})
            out = out + acc
        return out

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
    """The coefficients of z^0, ..., z^N of a power series in z, as a
    tuple `coeffs` of N+1 Fractions: what kleene_series returns."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction]) -> None:
        self.coeffs = tuple(coeffs)
