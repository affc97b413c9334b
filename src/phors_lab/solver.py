"""Minimal nonnegative solutions of compiled fixpoint systems.

Three entry points:

* `kleene_series` — exact coefficients of the least solution as
  truncated power series in z (Kleene iteration in the truncated-series
  semiring, with a built-in monotonicity assertion).
* `solve_at_one` — the least nonnegative solution of w = P(w, 1),
  decomposed into strongly connected components: linear components are
  solved by exact Gaussian elimination, univariate nonlinear ones by
  exact real-root isolation, multivariate nonlinear ones by a spectral
  criterion at the all-ones candidate with a Newton/pre-fixpoint
  fallback.  Results are exact rationals wherever possible, otherwise
  certified intervals.
* `expected_steps` — the derivative of the start series at z = 1 via
  implicit differentiation of the fixpoint identity; a singular linear
  system is precisely the diverging-expectation boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import sympy

from .algebra import Poly, TruncSeries
from .interp import Fas, var_name, z_vid

ZERO = Fraction(0)
ONE = Fraction(1)


class SolverError(ValueError):
    pass


class MonotonicityError(AssertionError):
    """A Kleene iterate decreased in some coefficient: the system is not
    monotone, which indicates corrupted input or an internal bug."""


@dataclass
class SolveConfig:
    truncation: int = 16
    eps: Fraction = Fraction(1, 10**9)
    max_iterations: int = 200

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.truncation < 0:
            raise ValueError("truncation degree must be >= 0")


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("empty interval")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


Value = Fraction | Interval


def value_lo(v: Value) -> Fraction:
    return v.lo if isinstance(v, Interval) else v


def value_hi(v: Value) -> Fraction:
    return v.hi if isinstance(v, Interval) else v


@dataclass
class MinSolution:
    values: dict[int, Value]
    exact: bool
    diagnostics: list[str] = field(default_factory=list)

    def at(self, vid: int) -> Value:
        return self.values[vid]


# ---------------------------------------------------------------------------
# Kleene iteration on truncated series


def kleene_series(
    fas: Fas,
    degree: int,
    params: dict[int, TruncSeries] | None = None,
    max_iterations: int | None = None,
) -> dict[int, TruncSeries]:
    """Exact coefficients of the minimal solution up to z^degree."""
    params = params or {}
    missing = fas.param_vids - set(params)
    if missing:
        names = ", ".join(sorted(var_name(v) for v in missing))
        raise SolverError(f"unassigned parameters: {names}")
    env: dict[int, object] = {z_vid(): TruncSeries.z(max(degree, 1))}
    for vid, s in params.items():
        if s.bound < degree:
            raise SolverError("parameter series truncated below requested degree")
        env[vid] = TruncSeries(s.coeffs[: degree + 1]) if degree >= 1 else s
    n = max(degree, 1)
    state = {vid: TruncSeries.zero(n) for vid in fas.eqs}
    if max_iterations is None:
        # Iterate k holds exactly the derivation trees of height at most
        # k.  On a root-to-leaf path, an unknown can repeat only if a
        # choice (z) lies on or beside the segment between the repeats:
        # otherwise that segment pumps into infinitely many trees of the
        # same degree, and a scheme's coefficients are probabilities.
        # Trees with at most n choices are therefore at most
        # (n + 1) * len(eqs) high, and one more round confirms.
        max_iterations = (n + 1) * (len(fas.eqs) + 1)
    prev = None
    for _ in range(max_iterations + 1):
        full_env = dict(env)
        full_env.update(state)
        new = {}
        for vid, p in fas.eqs.items():
            val = p.eval(full_env)
            if not isinstance(val, TruncSeries):
                val = TruncSeries.const(val, n)
            if not (state[vid] <= val):
                raise MonotonicityError(
                    f"Kleene iterate decreased at {var_name(vid)}"
                )
            new[vid] = val
        if new == state:
            return state
        prev, state = state, new
    raise SolverError(
        "Kleene iteration did not become stationary; last two iterates: "
        f"{ {var_name(v): repr(s) for v, s in (prev or {}).items()} } / "
        f"{ {var_name(v): repr(s) for v, s in state.items()} }"
    )


# ---------------------------------------------------------------------------
# Exact linear algebra over Q


def gauss_solve(A: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """Solve A x = b exactly; None when A is singular."""
    n = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        pv = M[col][col]
        M[col] = [x / pv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


def kernel_vector(A: list[list[Fraction]]) -> list[Fraction] | None:
    """A nonzero u with A u = 0, or None when A is nonsingular."""
    n = len(A)
    M = [row[:] for row in A]
    pivots: dict[int, int] = {}  # column -> row
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, n) if M[r][col] != 0), None)
        if pivot is None:
            continue
        M[row], M[pivot] = M[pivot], M[row]
        pv = M[row][col]
        M[row] = [x / pv for x in M[row]]
        for r in range(n):
            if r != row and M[r][col] != 0:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[row])]
        pivots[col] = row
        row += 1
    free = [c for c in range(n) if c not in pivots]
    if not free:
        return None
    f0 = free[0]
    u = [ZERO] * n
    u[f0] = ONE
    for col, r in pivots.items():
        u[col] = -M[r][f0]
    return u


# ---------------------------------------------------------------------------
# Strongly connected components (Tarjan, iterative)


def sccs(graph: dict[int, set[int]]) -> list[list[int]]:
    """SCCs in reverse topological order: every edge leaves a component
    emitted later toward one emitted earlier."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    out: list[list[int]] = []
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
# Solving at z = 1


def _to_sympy(p: Poly, symbols: dict[int, sympy.Symbol]) -> sympy.Expr:
    expr = sympy.Integer(0)
    for m, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for vid, exp in m:
            term *= symbols[vid] ** exp
        expr += term
    return expr


def _poly_eval_rat(p: Poly, env: dict[int, Fraction]) -> Fraction:
    v = p.eval(env)
    assert isinstance(v, (Fraction, int))
    return Fraction(v)


def solve_at_one(fas: Fas, cfg: SolveConfig | None = None) -> MinSolution:
    cfg = cfg or SolveConfig()
    if not fas.is_closed():
        raise SolverError("cannot solve an open system; assign its parameters")

    z = z_vid()
    eqs1 = {vid: p.substitute({z: Poly.const(1)}) for vid, p in fas.eqs.items()}
    graph = {vid: {w for w in p.variables() if w in eqs1} for vid, p in eqs1.items()}

    values: dict[int, Value] = {}
    diagnostics: list[str] = []
    exact = True

    for comp in sccs(graph):
        comp_set = set(comp)
        # Substitute already-solved dependencies.
        dep_exact = all(
            isinstance(values[w], Fraction)
            for v in comp
            for w in graph[v]
            if w not in comp_set
        )
        if dep_exact:
            sub = {
                w: Poly.const(values[w])
                for v in comp
                for w in graph[v]
                if w not in comp_set
            }
            local = {v: eqs1[v].substitute(sub) for v in comp}
            res = _solve_scc_exact(local, comp, cfg, diagnostics)
        else:
            res = _solve_scc_bounded(eqs1, comp, values, cfg, diagnostics)
        for v, val in res.items():
            values[v] = val
            if isinstance(val, Interval):
                exact = False
    return MinSolution(values, exact, diagnostics)


def _solve_scc_exact(
    local: dict[int, Poly],
    comp: list[int],
    cfg: SolveConfig,
    diagnostics: list[str],
) -> dict[int, Value]:
    comp_set = set(comp)
    self_dep = any(
        w in comp_set for v in comp for w in local[v].variables()
    )
    if not self_dep:
        return {v: local[v].constant_term() for v in comp}

    linear = all(local[v].degree_in(comp_set) <= 1 for v in comp)
    if linear:
        return _solve_linear(local, comp, diagnostics)
    if len(comp) == 1:
        return _solve_univariate(local, comp[0], cfg, diagnostics)
    return _solve_multivariate(local, comp, cfg, diagnostics)


def _solve_linear(
    local: dict[int, Poly], comp: list[int], diagnostics: list[str]
) -> dict[int, Value]:
    n = len(comp)
    pos = {v: i for i, v in enumerate(comp)}
    A = [[ZERO] * n for _ in range(n)]
    b = [ZERO] * n
    for v in comp:
        i = pos[v]
        b[i] = local[v].constant_term()
        for m, c in local[v].terms.items():
            if not m:
                continue
            sys_vars = [(vid, e) for vid, e in m if vid in pos]
            assert len(sys_vars) <= 1 and all(e == 1 for _, e in sys_vars)
            if sys_vars:
                A[i][pos[sys_vars[0][0]]] += c
    IA = [
        [(ONE if i == j else ZERO) - A[i][j] for j in range(n)] for i in range(n)
    ]
    if all(x == 0 for x in b):
        # x = A x with A >= 0: the least solution is identically zero.
        return {v: ZERO for v in comp}
    sol = gauss_solve(IA, b)
    if sol is not None and all(x >= 0 for x in sol):
        # A finite nonnegative fixpoint exists, so the Kleene iterates
        # (partial sums of A^k b) stay below it; nonsingularity makes
        # the fixpoint unique, hence minimal.
        return {v: sol[pos[v]] for v in comp}
    diagnostics.append(
        "linear component without a nonnegative finite solution: "
        + ", ".join(var_name(v) for v in comp)
    )
    # The least solution diverges or is not pinned down; report the
    # trivial bounds.
    return {v: Interval(ZERO, ONE) for v in comp}


def _sympy_to_fraction(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def _solve_univariate(
    local: dict[int, Poly], vid: int, cfg: SolveConfig, diagnostics: list[str]
) -> dict[int, Value]:
    """Least nonnegative root of P(y) - y: exact when rational (read off
    the linear factors), otherwise a certified isolating interval."""
    y = sympy.Symbol("y")
    expr = _to_sympy(local[vid], {vid: y}) - y
    qpoly = sympy.Poly(expr, y, domain="QQ")
    candidates: list[tuple[Fraction, Value]] = []
    _, factors = qpoly.factor_list()
    eps_sym = sympy.Rational(cfg.eps.numerator, cfg.eps.denominator)
    for fac, _mult in factors:
        if fac.degree() == 1:
            c1, c0 = (Fraction(int(c.p), int(c.q)) for c in fac.all_coeffs())
            root = -c0 / c1
            if root >= 0:
                candidates.append((root, root))
        elif fac.degree() >= 2:
            # Irreducible over Q of degree >= 2: every root irrational.
            for (a, b), _m in fac.intervals(eps=eps_sym, inf=0):
                lo = max(ZERO, _sympy_to_fraction(sympy.Rational(a)))
                hi = _sympy_to_fraction(sympy.Rational(b))
                candidates.append((lo, Interval(lo, hi)))
    if not candidates:
        diagnostics.append(f"no nonnegative fixpoint for {var_name(vid)}")
        return {vid: Interval(ZERO, ONE)}
    candidates.sort(key=lambda c: c[0])
    val = candidates[0][1]
    if isinstance(val, Interval):
        diagnostics.append(
            f"{var_name(vid)}: least fixpoint is irrational; certified to "
            f"width {val.width}"
        )
    return {vid: val}


def _jacobian_at(
    local: dict[int, Poly], comp: list[int], point: dict[int, Fraction]
) -> list[list[Fraction]]:
    return [
        [_poly_eval_rat(local[v].derivative(w), point) for w in comp]
        for v in comp
    ]


def _spectral_radius_le_one(J: list[list[Fraction]]) -> bool:
    M = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in J]
    )
    lam = sympy.Symbol("lam")
    cp = M.charpoly(lam)
    roots = sympy.Poly(cp.as_expr(), lam, domain="QQ").real_roots()
    # For a nonnegative matrix the spectral radius is its largest real
    # eigenvalue (Perron-Frobenius).
    return all(r <= 1 for r in roots)


def _solve_multivariate(
    local: dict[int, Poly], comp: list[int], cfg: SolveConfig, diagnostics: list[str]
) -> dict[int, Value]:
    ones = {v: ONE for v in comp}
    p_at_one = {v: _poly_eval_rat(local[v], ones) for v in comp}
    if all(p_at_one[v] == ONE for v in comp):
        J = _jacobian_at(local, comp, ones)
        if _spectral_radius_le_one(J):
            # Strongly connected, P(1) = 1, spectral radius of the
            # Jacobian at 1 at most 1: the least fixpoint is 1.
            return dict(ones)
        # Supercritical: the least fixpoint lies strictly below 1.
        return _newton_bracket(local, comp, cfg, diagnostics)
    if all(p_at_one[v] <= ONE for v in comp):
        # 1 is a strict pre-fixpoint, so the least fixpoint is < 1
        # somewhere; bracket it.
        return _newton_bracket(local, comp, cfg, diagnostics)
    return _newton_bracket(local, comp, cfg, diagnostics)


def _newton_bracket(
    local: dict[int, Poly], comp: list[int], cfg: SolveConfig, diagnostics: list[str]
) -> dict[int, Value]:
    """Exact Newton iterations from below plus a rational pre-fixpoint
    search from above; returns intervals (possibly degenerate)."""
    n = len(comp)
    pos = {v: i for i, v in enumerate(comp)}
    x = {v: ZERO for v in comp}
    for _ in range(min(cfg.max_iterations, 50)):
        J = _jacobian_at(local, comp, x)
        IJ = [
            [(ONE if i == j else ZERO) - J[i][j] for j in range(n)]
            for i in range(n)
        ]
        r = [_poly_eval_rat(local[v], x) - x[v] for v in comp]
        d = gauss_solve(IJ, r)
        if d is None:
            break
        nxt = {v: x[v] + d[pos[v]] for v in comp}
        # Keep denominators manageable; rounding down preserves the
        # lower-bound property.
        nxt = {
            v: min(val, Fraction(val).limit_denominator(10**12))
            for v, val in nxt.items()
        }
        if all(abs(nxt[v] - x[v]) < cfg.eps / 4 for v in comp):
            x = nxt
            break
        x = nxt
    lo = {v: max(ZERO, val) for v, val in x.items()}
    # Pre-fixpoint search: round the lower bound up by shrinking margins.
    for j in range(4, 60, 4):
        margin = Fraction(1, 2**j)
        cand = {v: min(ONE, lo[v] + margin) for v in comp}
        if all(_poly_eval_rat(local[v], cand) <= cand[v] for v in comp):
            return {
                v: (
                    lo[v]
                    if lo[v] == cand[v]
                    else Interval(lo[v], cand[v])
                )
                for v in comp
            }
    diagnostics.append(
        "inconclusive-width: no certified upper bound found for "
        + ", ".join(var_name(v) for v in comp)
    )
    ub = {v: ONE for v in comp}
    if all(_poly_eval_rat(local[v], ub) <= ONE for v in comp):
        return {v: Interval(lo[v], ONE) for v in comp}
    return {v: Interval(lo[v], ONE) for v in comp}


def _solve_scc_bounded(
    eqs1: dict[int, Poly],
    comp: list[int],
    values: dict[int, Value],
    cfg: SolveConfig,
    diagnostics: list[str],
) -> dict[int, Value]:
    """Interval propagation when some dependency is itself an interval:
    by monotonicity, solving with the dependency lows (highs) bounds the
    component from below (above)."""
    out: dict[int, Value] = {}
    comp_set = set(comp)
    bounds = {}
    for pick, side in ((value_lo, 0), (value_hi, 1)):
        sub = {}
        for v in comp:
            for w in eqs1[v].variables():
                if w in values:
                    sub[w] = Poly.const(pick(values[w]))
        local = {v: eqs1[v].substitute(sub) for v in comp}
        res = _solve_scc_exact(local, comp, cfg, diagnostics)
        bounds[side] = res
    for v in comp:
        lo = value_lo(bounds[0][v])
        hi = value_hi(bounds[1][v])
        out[v] = lo if lo == hi else Interval(lo, hi)
    return out


# ---------------------------------------------------------------------------
# Expected number of probabilistic steps


@dataclass
class DerivativeResult:
    value: Fraction | float  # exact expectation, or math.inf
    kernel: list[Fraction] | None  # singularity witness when infinite
    d_vector: dict[int, Fraction] | None  # solution when finite
    order: list[int]  # variable order used for matrices


def expected_steps(fas: Fas, sol: MinSolution) -> DerivativeResult:
    """Differentiate w = P(w, z) at z = 1 on the start-reachable part.

    Precondition: the solution certifies value 1 at every reachable
    unknown (almost-sure termination); otherwise the derivative of the
    generating function is not the conditional expectation."""
    from .interp import reachable

    sub = reachable(fas)
    order = sorted(sub.eqs, key=var_name)
    for v in order:
        val = sol.values.get(v)
        if not isinstance(val, Fraction):
            raise SolverError(
                "expected_steps needs exact solution values on the "
                "reachable part"
            )
        if val != ONE:
            raise SolverError(
                "expected_steps requires termination probability 1 on all "
                f"reachable unknowns; {var_name(v)} = {val}"
            )
    z = z_vid()
    point = {v: ONE for v in order}
    point[z] = ONE
    n = len(order)
    J = [
        [_poly_eval_rat(sub.eqs[v].derivative(w), point) for w in order]
        for v in order
    ]
    g = [_poly_eval_rat(sub.eqs[v].derivative(z), point) for v in order]
    IJ = [
        [(ONE if i == j else ZERO) - J[i][j] for j in range(n)] for i in range(n)
    ]
    d = gauss_solve(IJ, g)
    if d is None:
        u = kernel_vector(IJ)
        assert u is not None
        return DerivativeResult(math.inf, u, None, order)
    if any(x < 0 for x in d):
        raise SolverError("negative derivative solution; system is not AST-consistent")
    return DerivativeResult(
        d[order.index(fas.start)] if fas.start in order else ZERO,
        None,
        dict(zip(order, d)),
        order,
    )
