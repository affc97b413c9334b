"""Minimal nonnegative solutions of compiled fixpoint systems.

Three entry points:

* `kleene_series` — exact coefficients of the least solution as
  truncated power series in z, one coefficient layer at a time, after a
  one-time check that P has no negative coefficient.  The polynomial
  unknowns, which lie on no cycle and depend only on polynomial
  unknowns, are expanded in z once, truncated at the degree, and folded
  into the other equations, so the layers multiply recursive unknowns
  only.  Layer k >= 1 is the linear system y_k = J y_k + r_k, solved
  along the components of J (a cyclic one exactly, when its spectral
  radius is below 1); r_k reads the lower layers of P's products, which
  are prefix products shared between monomials, each extended by one
  coefficient per layer, a square by half a convolution.  The layers
  add and multiply integers: coefficient k is carried times B^k, and
  each result is divided by B^k once at the end.
* `solve_at_one` — the least nonnegative solution of w = P(w, 1), one
  strongly connected component at a time with its dependencies' values
  substituted (their lower, then their upper bounds when some are
  intervals), and per component a record of each solve's path and its
  notes.  Paths: `constant`; `linear`, by sparse forward elimination and
  back-substitution over the nonzero entries of I - J; univariate
  `rational-root` or `irrational-root`, by Sturm-sequence bisection on
  the square-free part of P(y) - y, with a rational-root test on the
  isolating interval; multivariate `all-ones`, by a spectral test (one
  factorisation of I - J gives the solution of (I - J) x = 1, or a
  kernel vector when I - J is singular), else `newton`, in floats
  checked in exact arithmetic.  No float reaches a result, which is an
  exact rational wherever possible, else an interval of width <= EPS
  with both ends proven, or [0, 1] with a note: path `none`.
* `expected_steps` — the derivative of the start series at z = 1 via
  implicit differentiation of the fixpoint identity at the least
  solution; a singular linear system is precisely the
  diverging-expectation boundary, and the same factorisation gives its
  kernel vector.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from collections.abc import Iterable
from fractions import Fraction

from .algebra import ONE, ZERO, Poly, TruncSeries
from .interp import Fas, sccs, var_name, z_vid
from .syntax import Frozen


class SolverError(ValueError):
    pass


class MonotonicityError(AssertionError):
    """The system has a negative coefficient, so it is not monotone:
    corrupted input or an internal bug."""


# Width to which irrational values are certified.
EPS = Fraction(1, 10**9)


class Interval(Frozen):
    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction) -> None:
        if lo > hi:
            raise ValueError("empty interval")
        super().__init__(lo, hi)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


Value = Fraction | Interval
Solved = tuple[str, dict[int, Value], str | None]  # path, values, note


def value_lo(v: Value) -> Fraction:
    return v.lo if isinstance(v, Interval) else v


def value_hi(v: Value) -> Fraction:
    return v.hi if isinstance(v, Interval) else v


class Component:
    """A strongly connected component as `solve_at_one` solved it: its
    unknowns, the path of each solve, and its notes."""

    __slots__ = ("vids", "paths", "notes")

    def __init__(self, vids: tuple[int, ...], paths: tuple[str, ...],
                 notes: tuple[str, ...]) -> None:
        self.vids, self.paths, self.notes = vids, paths, notes


class MinSolution:
    """The least solution's `values` and the `components` that gave them,
    dependencies first; `exact` and `diagnostics` are read off these."""

    def __init__(self, values: dict[int, Value], components: list[Component]) -> None:
        self.values = values
        self.components = components
        self.exact = not any(isinstance(v, Interval) for v in values.values())
        self.diagnostics = [n for c in components for n in c.notes]


# ---------------------------------------------------------------------------
# Series, one coefficient layer at a time


def kleene_series(fas: Fas, degree: int) -> dict[int, TruncSeries]:
    """Exact coefficients of the least solution up to z^max(degree, 1),
    one layer at a time (Pivoteau, Salvy & Soria, JCTA 2012), keyed in
    the order of `fas.eqs`.

    An unknown is polynomial when it lies on no cycle of the dependency
    graph (z left out) and depends on polynomial unknowns only.  These
    are expanded once, in dependency order, into polynomials in z cut at
    z^n, n = max(degree, 1), which give their coefficients, and are
    substituted into the other equations, cut likewise; the layers below
    solve that smaller system, so a constant such as y[A] = 1 is no
    factor that every layer convolves.

    Layer 0 is the least solution y_0 of y = P(y, 0), by Kleene
    iteration.  Pumping a repeated unknown in a derivation tree of
    positive weight gives taller ones, so the iteration becomes
    stationary, within len(eqs) + 1 rounds, iff no tree of positive
    weight repeats an unknown on a path.  Layer k >= 1 is linear,
    y_k = J y_k + r_k with J = dP/dy at (y_0, 0).  For a monomial
    c z^e f_1 ... f_m, r_k takes coefficient k - e of the product when
    e >= 1, and when e = 0 the product's coefficient k with every
    unknown's coefficient k read as 0.  The products are built once, as
    prefix products of the sorted factors, each prefix shared by every
    monomial that has it, and each keeps its coefficient list across
    the layers.  A square f f sums its coefficient k as 2 sum_{j < k/2}
    f_j f_{k-j}, plus f_{k/2}^2 when k is even.  The system is solved
    along the components of J's graph, dependencies first: y_k[v] is
    r_k[v] plus J_vw y_k[w] over the w solved before it.  A component
    with a cycle that gets input 0 stays 0; given a nonzero input b, it
    takes the solution of y = J_B y + b over its own rows of J, which is
    nonsingular and >= 0 exactly when the spectral radius of J_B is
    below 1, and otherwise coefficient k diverges.  Compiled systems
    never have such a block below 1, as their cycles carry natural
    numbers; and layer 0 is a plain Kleene iteration, so a cycle there,
    w = w/2 + 1 say, raises the layer-0 error.  A negative coefficient
    in P raises MonotonicityError.

    Layer k is carried times B^k: these are the layers of y(B z), the
    least solution of y = P(y, B z), with B the `_scale_base` of the
    monomials c z^e m with e >= 1.  A monomial then carries c B^e, an
    integer, so where the z-free coefficients and layer 0 are integers
    the layers add and multiply ints, without a gcd per operation; other
    values stay Fractions and mix in.  Coefficient k is divided by B^k
    once, at the end."""
    n = max(degree, 1)
    for vid, p in fas.eqs.items():
        if any(c < 0 for c in p.terms.values()):
            raise MonotonicityError(f"negative coefficient in the equation of {var_name(vid)}")
    z = z_vid()
    deps = {v: p.variables() - {z} for v, p in fas.eqs.items()}
    # The polynomial unknowns, each after those it depends on.
    poly: dict[int, Poly] = {}
    while ready := [v for v in fas.eqs if v not in poly and deps[v] <= poly.keys()]:
        for v in ready:
            poly[v] = fas.eqs[v].compose(poly, z, n)
    eqs = {v: p if deps[v].isdisjoint(poly) else p.compose(poly, z, n)
           for v, p in fas.eqs.items() if v not in poly}
    point = {z: ZERO}
    y0 = {vid: ZERO for vid in eqs}
    for _ in range(len(eqs) + 1):
        point.update(y0)
        new = {vid: p.eval(point) for vid, p in eqs.items()}
        if new == y0:
            break
        y0 = new
    else:
        raise SolverError("the constant coefficients have infinitely many derivations")

    order = list(eqs)
    J = jacobian(eqs, order, point)
    B = _scale_base(
        (c.denominator, e) for p in eqs.values() for m, c in p.terms.items() if (e := dict(m).get(z, 0))
    )
    scale = [B**k for k in range(n + 1)]
    y = {vid: [_int(y0[vid])] + [0] * n for vid in eqs}
    # P_v's coefficient k is the sum of c * lst[k - e] over its terms
    # (c, lst, e), with e <= k.  Row v of J gives the terms (J_vw, y_w, 0):
    # its w are solved before v in a layer, or lie in v's component, whose
    # coefficient k reads as 0 until the component is solved.
    terms = {v: [(_int(a), y[order[j]], 0) for j, a in row.items()] for v, row in zip(order, J)}
    # Prefix products (prefix's list, its node or -1, last factor, own
    # list), each after its prefix; a one-factor prefix is its unknown's
    # list, node -1.
    nodes: list[tuple] = []
    index: dict[tuple[int, ...], int] = {}
    unit = [1] + [0] * n  # the empty product
    for vid, p in eqs.items():
        for m, c in p.terms.items():
            e = dict(m).get(z, 0)
            ws = tuple(sorted(w for w, f in m if w != z for _ in range(f)))
            if e > n or (e == 0 and len(ws) < 2):
                continue  # nothing in a layer k >= 1 beyond its entries of J
            lst, i = (y[ws[0]] if ws else unit), -1
            for j in range(2, len(ws) + 1):
                if ws[:j] not in index:
                    index[ws[:j]] = len(nodes)
                    f = y[ws[j - 1]]
                    nodes.append((lst, i, f, [lst[0] * f[0]] + [0] * n))
                i = index[ws[:j]]
                lst = nodes[i][3]
            terms[vid].append((_int(c * B**e), lst, e))
    # Components with their cyclic flags and their unknowns' terms; one
    # none of whose unknowns has a term stays 0.
    graph = {v: {order[j] for j in row} for v, row in zip(order, J)}
    blocks = [
        (comp, len(comp) > 1 or comp[0] in graph[comp[0]], [terms[v] for v in comp])
        for comp in sccs(graph)
        if any(terms[v] for v in comp)
    ]
    # old[i]: node i's coefficient k with every unknown's coefficient k
    # read as 0, which is also its coefficient k until the unknowns' are
    # solved.  The extra last entry is a one-factor prefix's, always 0.
    old = [0] * (len(nodes) + 1)
    mul = operator.mul
    for k in range(1, n + 1):
        for i, (p, pi, f, q) in enumerate(nodes):
            if p is f:  # a square: each product off the middle taken twice
                h = k >> 1
                old[i] = q[k] = 2 * sum(map(mul, f[1 : k - h], f[k - 1 : h : -1])) + (
                    0 if k & 1 else f[h] * f[h])
            else:
                old[i] = q[k] = old[pi] * f[0] + sum(map(mul, p[1:k], f[k - 1 : 0 : -1]))
        for comp, cyclic, rhs in blocks:
            inputs = [sum([c * lst[k - e] for c, lst, e in ts if e <= k]) for ts in rhs]
            if not cyclic:
                y[comp[0]][k] = inputs[0]
            elif any(inputs):
                at = {order.index(v): i for i, v in enumerate(comp)}
                rows = [{at[j]: a for j, a in J[i].items() if j in at} for i in at]
                x = solve_or_kernel(rows, [Fraction(b) for b in inputs])[0]
                if x is None or min(x) < 0:
                    names = ", ".join(var_name(v) for v in comp)
                    raise SolverError(f"coefficient {k} of {names} diverges")
                for v, xv in zip(comp, x):
                    y[v][k] = _int(xv)
        for i, (p, pi, f, q) in enumerate(nodes):
            q[k] = old[i] + (p[k] - old[pi]) * f[0] + p[0] * f[k]
    # Free the products' lists, and each unknown's as its Fractions are made.
    del nodes, terms, blocks
    out = {}
    for vid in fas.eqs:
        if vid in poly:
            coeffs = [ZERO] * (n + 1)
            for m, c in poly[vid].terms.items():
                coeffs[m[0][1] if m else 0] = c
        else:
            coeffs = (Fraction(c, b) if c else ZERO for c, b in zip(y.pop(vid), scale))
        out[vid] = TruncSeries(coeffs)
    return out


def _scale_base(monomials: Iterable[tuple[int, int]]) -> int:
    """A B > 0 such that d divides B^e for each monomial given as (its
    coefficient's denominator d, its power e >= 1 of z).  Visited in
    ascending e, a d that divides B^e already adds nothing; any other
    takes the lcm with d's integer e-th root where it has one, else with
    d.  So B stays as small as before folding where folding merges
    factors: (z/2)(z/2) = z^2/4 keeps B = 2, and so does eq3's z^4/8."""
    B = 1
    for d, e in sorted(monomials, key=lambda m: m[1]):
        if B**e % d:
            B = math.lcm(B, _root(d, e))
    return B


def _root(d: int, e: int) -> int:
    """The e-th root of d when it is an integer, else d."""
    r = 1 << -(-d.bit_length() // e)  # at least the real root
    while (s := ((e - 1) * r + d // r ** (e - 1)) // e) < r:
        r = s
    return r if r**e == d else d


def _int(q: Fraction) -> int | Fraction:
    """q as an int when it is one, so that sums and products of such
    values stay in int arithmetic."""
    return q.numerator if q.denominator == 1 else q


# ---------------------------------------------------------------------------
# Exact linear algebra over Q


def solve_or_kernel(
    J: list[dict[int, Fraction]], b: list[Fraction]
) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """One factorisation of A = I - J, for J square and given by its rows
    of nonzero entries: (x, None) with A x = b when A is nonsingular,
    else (None, u) with u the kernel vector of A that is 1 at the first
    free column and 0 at the others.

    Forward elimination takes the columns in order and, among the rows
    left that are nonzero in a column, the shortest as its pivot; it
    touches only nonzero entries and eliminates nothing above a pivot.
    Back-substitution then gives x or u.  Entries are Fractions, or
    floats with no Fraction arithmetic: 1 and 0 take the type of b's."""
    n = len(J)
    one = b[0] ** 0
    zero = one - one
    # Row i of A, with b_i in column n.
    rows = []
    for i, (row, x) in enumerate(zip(J, b)):
        r = {j: -v for j, v in row.items()}
        r[i] = r.get(i, 0) + one
        if not r[i]:
            del r[i]
        if x:
            r[n] = x
        rows.append(r)
    # The rows not yet used as pivots that are nonzero in each column.
    where: defaultdict[int, set[int]] = defaultdict(set)
    for i, r in enumerate(rows):
        for j in r:
            where[j].add(i)
    pivots: list[tuple[int, dict[int, Fraction]]] = []
    free = []
    for col in range(n):
        cand = where[col]
        if not cand:
            free.append(col)
            continue
        p = min(cand, key=lambda i: (len(rows[i]), i))
        for j in rows[p]:
            where[j].discard(p)
        pv = rows[p][col]
        prow = {j: x / pv for j, x in rows[p].items()}
        for i in list(cand):
            r, f = rows[i], rows[i][col]
            for j, x in prow.items():
                y = r.get(j, 0) - f * x
                if y:
                    if j not in r:
                        where[j].add(i)
                    r[j] = y
                else:
                    del r[j]
                    where[j].discard(i)
        pivots.append((col, prow))
    # Each pivot row is 1 at its column and 0 left of it; its entry in
    # column n is b's, which x[n] = -1 brings in and x[n] = 0 leaves out.
    x = [zero] * (n + 1)
    if free:
        x[free[0]] = one
    else:
        x[n] = -one
    for col, prow in reversed(pivots):
        x[col] = -sum((v * x[j] for j, v in prow.items() if j != col), zero)
    return (None, x[:n]) if free else (x[:n], None)


# ---------------------------------------------------------------------------
# Solving at z = 1


def jacobian(
    eqs: dict[int, Poly], order: list[int], point: dict[int, Fraction]
) -> list[dict[int, Fraction]]:
    """The matrix of dP_v/dw at `point`, rows v and columns w in `order`;
    each row maps a column to its entry and stores only nonzero ones.
    Row v takes one pass over P_v's monomials: c * prod u^e adds
    c * e * w^(e-1) * prod_{u != w} u^e at point to each column w it
    mentions."""
    column = {w: j for j, w in enumerate(order)}
    J = []
    for v in order:
        row: dict[int, Fraction] = {}
        for m, c in eqs[v].terms.items():
            for w, e in m:
                j = column.get(w)
                if j is None:
                    continue
                x = c * e
                for u, f in m:
                    if u == w:
                        f -= 1
                    if f:
                        x *= point[u] if f == 1 else point[u] ** f
                row[j] = row.get(j, 0) + x
        J.append({j: x for j, x in row.items() if x})
    return J


def solve_at_one(fas: Fas) -> MinSolution:
    """The least nonnegative solution of w = P(w, 1), one strongly
    connected component at a time, dependencies first, each recorded as
    a `Component`.  A solve's path is `constant`, `linear`,
    `rational-root` or `irrational-root` (univariate), `all-ones`,
    `newton`, or `none`: [0, 1] with a note.  An irrational root adds a
    note of the width to which it is certified."""
    z = z_vid()
    eqs1 = {vid: p.substitute({z: ONE}) for vid, p in fas.eqs.items()}
    graph = {vid: {w for w in p.variables() if w in eqs1} for vid, p in eqs1.items()}

    values: dict[int, Value] = {}
    components = []
    for comp in sccs(graph):
        deps = {w for v in comp for w in graph[v]} - set(comp)
        # P is monotone, so solving with the dependencies' lower (upper)
        # bounds substituted bounds the component from below (above);
        # exact dependencies need one solve.
        solves = []
        for pick in (value_lo, value_hi):
            sub = {w: pick(values[w]) for w in deps}
            local = {v: eqs1[v].substitute(sub) if deps else eqs1[v] for v in comp}
            solves.append(_solve_scc(local, comp))
            if all(isinstance(values[w], Fraction) for w in deps):
                break
        paths, bounds, notes = zip(*solves)
        notes = tuple(dict.fromkeys(filter(None, notes)))
        for v in comp:
            lo, hi = value_lo(bounds[0][v]), value_hi(bounds[-1][v])
            values[v] = lo if lo == hi else Interval(lo, hi)
        if "irrational-root" in paths:  # univariate: v, lo and hi are its
            notes += (f"{var_name(v)}: least fixpoint is irrational; certified to width {hi - lo}",)
        components.append(Component(tuple(comp), paths, notes))
    return MinSolution(values, components)


def _solve_scc(local: dict[int, Poly], comp: list[int]) -> Solved:
    """Solve a component whose dependencies are substituted by rationals:
    (path, values, note), as `solve_at_one` names them."""
    comp_set = set(comp)
    if not any(w in comp_set for v in comp for w in local[v].variables()):
        return "constant", {v: local[v].constant_term() for v in comp}, None
    if all(local[v].degree_in(comp_set) <= 1 for v in comp):
        return _solve_linear(local, comp)
    if len(comp) == 1:
        return _solve_univariate(local, comp[0])
    ones = {v: ONE for v in comp}
    if all(local[v].eval(ones) == ONE for v in comp) and _spectral_radius_le_one(
        jacobian(local, comp, ones)
    ):
        # Strongly connected, P(1) = 1, spectral radius of the Jacobian
        # at 1 at most 1: the least fixpoint is 1.
        return "all-ones", ones, None
    # Supercritical, or 1 is not a fixpoint: bracket the least one.
    return _newton_bracket(local, comp)


def _solve_linear(local: dict[int, Poly], comp: list[int]) -> Solved:
    # A linear component's Jacobian is constant: w = A w + b.
    A = jacobian(local, comp, {v: ZERO for v in comp})
    b = [local[v].constant_term() for v in comp]
    if all(x == 0 for x in b):
        # x = A x with A >= 0: the least solution is identically zero.
        return "linear", {v: ZERO for v in comp}, None
    sol = solve_or_kernel(A, b)[0]
    if sol is not None and all(x >= 0 for x in sol):
        # A finite nonnegative fixpoint exists, so the Kleene iterates
        # (partial sums of A^k b) stay below it; nonsingularity makes
        # the fixpoint unique, hence minimal.
        return "linear", dict(zip(comp, sol)), None
    # The least solution diverges or is not pinned down; report the
    # trivial bounds.
    names = ", ".join(var_name(v) for v in comp)
    note = f"linear component without a nonnegative finite solution: {names}"
    return "none", {v: Interval(ZERO, ONE) for v in comp}, note


def _solve_univariate(local: dict[int, Poly], vid: int) -> Solved:
    """Least nonnegative root of P(y) - y: exact when rational, otherwise
    a certified isolating interval of width <= EPS."""
    f = [ZERO] * (local[vid].degree_in({vid}) + 1)
    for m, c in local[vid].terms.items():
        f[m[0][1] if m else 0] += c
    f[1] -= ONE
    val = _least_nonneg_root(_trim(f))
    if val is None:
        return "none", {vid: Interval(ZERO, ONE)}, f"no nonnegative fixpoint for {var_name(vid)}"
    return ("irrational-root" if isinstance(val, Interval) else "rational-root"), {vid: val}, None


# Dense univariate polynomials over Q: coefficient lists, constant term
# first, with no trailing zeros (the zero polynomial is []).


def _trim(a: list[Fraction]) -> list[Fraction]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _peval(a: list[Fraction], x: Fraction) -> Fraction:
    acc = ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _pderiv(a: list[Fraction]) -> list[Fraction]:
    return [i * c for i, c in enumerate(a)][1:]


def _pdivmod(
    a: list[Fraction], b: list[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of a by the nonzero b."""
    r = a[:]
    q = [ZERO] * max(len(a) - len(b) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + len(b) - 1] / b[-1]
        for i, bc in enumerate(b):
            r[k + i] -= c * bc
    return _trim(q), _trim(r[: len(b) - 1])


def _pgcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    while b:
        a, b = b, _pdivmod(a, b)[1]
    return a


def _sturm(g: list[Fraction]) -> list[list[Fraction]]:
    seq = [g, _pderiv(g)]
    while True:
        r = _pdivmod(seq[-2], seq[-1])[1]
        if not r:
            return seq
        seq.append([-c for c in r])


def _variations(seq: list[list[Fraction]], x: Fraction) -> int:
    signs = [v > 0 for v in (_peval(p, x) for p in seq) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _least_nonneg_root(f: list[Fraction]) -> Value | None:
    """Least root >= 0 of f (degree >= 1): exact when rational, otherwise
    an isolating interval of width <= EPS; None when there is none."""
    g = _pdivmod(f, _pgcd(f, _pderiv(f)))[0]  # square-free, same roots
    if g[0] == 0:
        return ZERO
    seq = _sturm(g)
    # Cauchy's bound: every root has modulus < 1 + max |a_i / a_n|.
    lo, hi = ZERO, Fraction(math.ceil(1 + max(abs(c / g[-1]) for c in g[:-1])))
    v_lo, v_hi = _variations(seq, lo), _variations(seq, hi)
    if v_lo == v_hi:
        return None

    def halve() -> None:
        # Sturm: g has v_lo - v_hi distinct roots in (lo, hi]; keep the
        # half that holds the least one, so [0, lo] stays root-free.
        nonlocal lo, hi, v_lo, v_hi
        mid = (lo + hi) / 2
        v_mid = _variations(seq, mid)
        if v_mid < v_lo:
            hi, v_hi = mid, v_mid
        else:
            lo, v_lo = mid, v_mid

    # A rational root p/q of the integer polynomial L y^n + ... has q | L,
    # and two such fractions lie at least 1/L^2 apart.  Once the least
    # root is alone in an interval narrower than 1/(2 L^2), it is
    # rational iff it is the fraction with denominator <= L nearest the
    # midpoint.
    den = math.lcm(*(c.denominator for c in g))
    ints = [int(c * den) for c in g]
    L = abs(ints[-1]) // math.gcd(*ints)
    while v_lo - v_hi > 1 or hi - lo >= Fraction(1, 2 * L * L):
        halve()
    cand = ((lo + hi) / 2).limit_denominator(L)
    if lo < cand <= hi and _peval(g, cand) == 0:
        return cand
    while hi - lo > EPS:
        halve()
    return Interval(lo, hi)


def _spectral_radius_le_one(J: list[dict[int, Fraction]]) -> bool:
    """Whether rho(J) <= 1, for J nonnegative."""
    graph = {i: set(row) for i, row in enumerate(J)}
    # rho(J) is the largest rho of the diagonal blocks on the strongly
    # connected components of J's graph, and each block is irreducible.
    blocks = [{i: k for k, i in enumerate(block)} for block in sccs(graph)]
    return all(
        _irreducible_rho_le_one([{pos[j]: x for j, x in J[i].items() if j in pos} for i in pos])
        for pos in blocks
    )


def _irreducible_rho_le_one(J: list[dict[int, Fraction]]) -> bool:
    x, u = solve_or_kernel(J, [ONE] * len(J))
    if x is not None:
        # x > 0 with J x = x - 1 < x gives rho < 1 (Collatz-Wielandt);
        # conversely rho < 1 makes (I - J)^-1 = sum J^k >= I, so x >= 1.
        # Otherwise rho >= 1, and rho = 1 would be an eigenvalue
        # (Perron-Frobenius), which the regular I - J rules out.
        return all(v > 0 for v in x)
    # 1 is an eigenvalue.  By Perron-Frobenius it is rho iff it has a
    # positive eigenvector, and then its eigenspace is a line.
    return all(v > 0 for v in u) or all(v < 0 for v in u)


def _newton_bracket(local: dict[int, Poly], comp: list[int]) -> Solved:
    """The least fixpoint of a nonlinear component: floats propose, exact
    arithmetic decides (Etessami, Stewart & Yannakakis, rounded Newton,
    STOC 2012).  Newton from 0 runs in floats on a float copy of the
    component, to x, and w' is the float solution of (I - J(x)) w = 1.
    `_is_bracket` then checks x rounded by `limit_denominator` as the
    value, else [max(0, x - eps w'), x + eps w'] with eps = 2^-k as
    large as width <= EPS allows, halved up to three times.  Failing
    all, the path is `none`, with a note."""
    flocal = {v: Poly({m: float(c) for m, c in local[v].terms.items()}) for v in comp}
    x, step = [0.0] * len(comp), math.inf
    try:
        for _ in range(64):
            point = dict(zip(comp, x))
            r = [flocal[v].eval(point) - xv for v, xv in zip(comp, x)]
            d = solve_or_kernel(jacobian(flocal, comp, point), r)[0]
            if d is None:
                break
            x = [xv + dv for xv, dv in zip(x, d)]
            last, step = step, max(map(abs, d))
            # Converged, or rounding keeps a small step from shrinking.
            if step <= 2**-52 or (last <= 2**-26 and step >= last):
                break
        w = solve_or_kernel(jacobian(flocal, comp, dict(zip(comp, x))), [1.0] * len(comp))[0]
    except OverflowError:  # the iterates ran off: no fixpoint near them
        w = None
    if w is not None and all(map(math.isfinite, x + w)) and min(w) > 0:
        w = [Fraction(wv) for wv in w]
        lo = hi = {v: Fraction(xv).limit_denominator() for v, xv in zip(comp, x)}
        eps = Fraction(1, 1 << math.ceil(2 * max(w) / EPS).bit_length())
        for _ in range(5):
            if _is_bracket(local, comp, lo, hi, w):
                return "newton", lo if lo is hi else {v: Interval(lo[v], hi[v]) for v in comp}, None
            lo = {v: max(ZERO, Fraction(xv) - eps * wv) for v, xv, wv in zip(comp, x, w)}
            hi = {v: Fraction(xv) + eps * wv for v, xv, wv in zip(comp, x, w)}
            eps /= 2
    names = ", ".join(var_name(v) for v in comp)
    note = f"inconclusive-width: no certified bracket found for {names}"
    return "none", {v: Interval(ZERO, ONE) for v in comp}, note


def _is_bracket(local: dict[int, Poly], comp: list[int], lo: dict[int, Fraction],
                hi: dict[int, Fraction], w: list[Fraction]) -> bool:
    """Whether 0 <= lo <= P(lo), lo <= hi, P(hi) <= hi, w > 0 and
    (I - J(hi)) w > 0, exactly.  Then lo <= mu <= hi for the least
    fixpoint mu: mu <= hi as P(hi) <= hi; w gives rho(J(hi)) < 1
    (Collatz-Wielandt), so a fixpoint f in [mu, hi], which has f - mu <=
    J(hi) (f - mu) by convexity, is mu; and Kleene iteration from lo
    rises within [lo, hi] to such an f."""
    for v in comp:
        p = local[v].eval(lo)
        if not 0 <= lo[v] <= min(hi[v], p) or (p if hi is lo else local[v].eval(hi)) > hi[v]:
            return False
    J = jacobian(local, comp, hi)
    return all(0 < wv > sum(a * w[j] for j, a in row.items()) for wv, row in zip(w, J))


# ---------------------------------------------------------------------------
# Expected number of probabilistic steps


class DerivativeResult:
    def __init__(self, value: Fraction | float, kernel: list[Fraction] | None,
                 d_vector: dict[int, Fraction] | None, order: list[int]) -> None:
        self.value = value  # exact expectation, or math.inf
        self.kernel = kernel  # singularity witness when infinite
        self.d_vector = d_vector  # solution when finite
        self.order = order  # variable order used for matrices


def expected_steps(fas: Fas, sol: MinSolution) -> DerivativeResult:
    """Differentiate w = P(w, z) at the least solution and z = 1.

    `fas` is a start-reachable system and `sol` its least solution at
    z = 1.  Precondition: the start value is exactly 1 (almost-sure
    termination), so the derivative of its generating function at 1 is
    the expected number of choices, and every value is exact.  Other
    unknowns may lie below 1.  The derivatives at 1 form the least
    solution of d = J d + g, with the Jacobian J and g = dP/dz both
    evaluated at (sol, 1)."""
    order = sorted(fas.eqs, key=var_name)
    point: dict[int, Fraction] = {}
    for v in order:
        val = sol.values.get(v)
        if not isinstance(val, Fraction):
            raise SolverError(
                "expected_steps needs exact solution values on the "
                "reachable part"
            )
        point[v] = val
    if point.get(fas.start) != ONE:
        raise SolverError(
            "expected_steps requires termination probability 1 at the "
            f"start; {var_name(fas.start)} = {sol.values.get(fas.start)}"
        )
    z = z_vid()
    point[z] = ONE
    J = jacobian(fas.eqs, order, point)
    # g by the rule of `jacobian`, with z^(e-1) = 1 at the point.
    g = [
        sum((c * e * math.prod(point[u] ** f for u, f in m if u != z)
             for m, c in fas.eqs[v].terms.items() for w, e in m if w == z), ZERO)
        for v in order
    ]
    d, u = solve_or_kernel(J, g)
    if d is None:
        assert u is not None
        return DerivativeResult(math.inf, u, None, order)
    if any(x < 0 for x in d):
        raise SolverError("negative derivative solution; system is not AST-consistent")
    return DerivativeResult(d[order.index(fas.start)], None, dict(zip(order, d)), order)
