"""Exact arithmetic: sparse multivariate polynomials over Q>=0, and the
record of a z-truncated power series' rational coefficients.

All coefficients are `fractions.Fraction`, and the kernels sum their
int numerators and denominators in `Sums`, one Fraction per result; no
float enters this module, so no result depends on the order of a sum.
Polynomial variables are integers, the ids a system gives its unknowns
(`interp.Fas`), so monomials can be stored as small sorted tuples.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from fractions import Fraction
from math import gcd

ZERO = Fraction(0)
ONE = Fraction(1)


# Always empty, as no table of variables outlives a system;
# benchmarks/tracing.py still reads len(algebra.REGISTRY).
REGISTRY = ()

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


class Sums(dict):
    """The kernels' one accumulator: key -> [n, d], the sum n/d of the n_i/d_i
    (d_i > 0) added under the key, over the lcm d of the d_i, in int
    arithmetic; `fractions` reduces each once (Knuth, TAOCP 2, 4.5.1)."""

    def add(self, key: Hashable, n: int, d: int) -> None:
        s = self.get(key)
        if s is None:
            self[key] = [n, d]
        elif s[1] == d:
            s[0] += n
        else:
            g = gcd(s[1], d)
            s[0], s[1] = s[0] * (d // g) + n * (s[1] // g), s[1] // g * d

    def fractions(self) -> dict:
        """The nonzero sums in lowest terms, in the order of their keys."""
        return {k: Fraction(n, d) for k, (n, d) in self.items() if n}


def _poly(terms: dict[Monomial, Fraction]) -> "Poly":
    p = Poly.__new__(Poly)  # terms has no zero coefficient
    p.terms = terms
    return p


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
    def const(c: int | Fraction) -> "Poly":
        c = Fraction(c)
        return Poly({_EMPTY: c}) if c else Poly()

    @staticmethod
    def var(vid: int) -> "Poly":
        return _poly({((vid, 1),): ONE})

    # -- semiring ------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m not in out:
                out[m] = c
            elif s := out[m] + c:
                out[m] = s
            else:
                del out[m]
        return _poly(out)

    def __mul__(self, other: "Poly") -> "Poly":
        out = Sums()
        for m1, c1 in self.terms.items():
            n1, d1 = c1.numerator, c1.denominator
            for m2, c2 in other.terms.items():
                out.add(_mono_mul(m1, m2), n1 * c2.numerator, d1 * c2.denominator)
        return _poly(out.fractions())

    def shift(self, mono: Monomial, n: int = 1, d: int = 1) -> "Poly":
        """n/d * mono * self, d > 0, which merges no terms."""
        if n == d:
            return _poly({_mono_mul(mono, m): x for m, x in self.terms.items()})
        return _poly({_mono_mul(mono, m): Fraction(x.numerator * n, x.denominator * d)
                      for m, x in self.terms.items()} if n else {})

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
        """The value at a point that assigns a rational (a Fraction or an
        int) to every variable of the polynomial."""
        out = Sums()
        for m, c in self.terms.items():
            n, d = c.numerator, c.denominator
            for vid, exp in m:
                if (val := assignment.get(vid)) is None:
                    raise KeyError(f"no value for variable {vid}")
                n, d = n * val.numerator**exp, d * val.denominator**exp
            out.add(_EMPTY, n, d)
        return out.fractions().get(_EMPTY, ZERO)

    def substitute(self, values: Mapping[int, Fraction]) -> Poly:
        """Partial evaluation: the variables in `values` take those
        rational values, the others stay."""
        out = Sums()
        for m, c in self.terms.items():
            n, d, rest = c.numerator, c.denominator, []
            for vid, exp in m:
                val = values.get(vid)
                if val is None:
                    rest.append((vid, exp))
                else:
                    n, d = n * val.numerator**exp, d * val.denominator**exp
            out.add(tuple(rest), n, d)
        return _poly(out.fractions())

    def compose(self, values: Mapping[int, Poly], var: int, n: int) -> Poly:
        """The variables in `values` replaced by those polynomials, with
        every monomial of degree above n in `var` dropped."""
        out = Poly()
        for m, c in self.terms.items():
            if dict(m).get(var, 0) > n:
                continue
            acc = _poly({tuple(ve for ve in m if ve[0] not in values): c})
            for vid, exp in m:
                for _ in range(exp if vid in values else 0):
                    acc = _poly({k: x for k, x in (acc * values[vid]).terms.items()
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
