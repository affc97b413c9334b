"""Minimal nonnegative solutions of compiled fixpoint systems.

Three entry points:

* `kleene_series` — exact coefficients of the least solution as
  truncated power series in z (Kleene iteration in the truncated-series
  semiring, with a built-in monotonicity assertion).
* `solve_at_one` — the least nonnegative solution of w = P(w, 1),
  decomposed into strongly connected components: linear components are
  solved by exact Gaussian elimination; univariate nonlinear ones by
  Sturm-sequence bisection on the square-free part of P(y) - y, with a
  rational-root test on the isolating interval; multivariate nonlinear
  ones by a spectral test at the all-ones candidate (one Gaussian solve
  of (I - J) x = 1, or the sign of a kernel vector when I - J is
  singular) with a Newton/pre-fixpoint fallback.  Results are exact
  rationals wherever possible, otherwise certified intervals.
* `expected_steps` — the derivative of the start series at z = 1 via
  implicit differentiation of the fixpoint identity at the least
  solution; a singular linear system is precisely the
  diverging-expectation boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

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
    eps: Fraction = Fraction(1, 10**9)

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise ValueError("eps must be positive")


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


# ---------------------------------------------------------------------------
# Kleene iteration on truncated series


def kleene_series(
    fas: Fas,
    degree: int,
    params: dict[int, TruncSeries] | None = None,
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
    # Iterate k holds exactly the derivation trees of height at most k.
    # On a root-to-leaf path, an unknown can repeat only if a choice (z)
    # lies on or beside the segment between the repeats: otherwise that
    # segment pumps into infinitely many trees of the same degree, and a
    # scheme's coefficients are probabilities.  Trees with at most n
    # choices are therefore at most (n + 1) * len(eqs) high, and one more
    # round confirms.
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


def identity_minus(J: list[list[Fraction]]) -> list[list[Fraction]]:
    """The matrix I - J."""
    n = len(J)
    return [[(ONE if i == j else ZERO) - J[i][j] for j in range(n)] for i in range(n)]


def _eliminate(M: list[list[Fraction]], ncols: int) -> dict[int, int]:
    """Gauss-Jordan elimination of M in place over its first ncols
    columns; returns the pivot row of each pivot column.  Row updates
    touch only the nonzero entries of the pivot row."""
    pivots: dict[int, int] = {}
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(M)) if M[r][col] != 0), None)
        if pivot is None:
            continue
        M[row], M[pivot] = M[pivot], M[row]
        pv = M[row][col]
        M[row] = [x / pv if x else x for x in M[row]]
        nonzero = [(j, x) for j, x in enumerate(M[row]) if x]
        for r, other in enumerate(M):
            f = other[col]
            if r != row and f:
                for j, x in nonzero:
                    other[j] -= f * x
        pivots[col] = row
        row += 1
    return pivots


def gauss_solve(A: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """Solve A x = b exactly; None when A is singular."""
    n = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    if len(_eliminate(M, n)) < n:
        return None
    return [M[i][n] for i in range(n)]


def kernel_vector(A: list[list[Fraction]]) -> list[Fraction] | None:
    """A nonzero u with A u = 0, or None when A is nonsingular."""
    n = len(A)
    M = [row[:] for row in A]
    pivots = _eliminate(M, n)
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
    if all(x == 0 for x in b):
        # x = A x with A >= 0: the least solution is identically zero.
        return {v: ZERO for v in comp}
    sol = gauss_solve(identity_minus(A), b)
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


def _solve_univariate(
    local: dict[int, Poly], vid: int, cfg: SolveConfig, diagnostics: list[str]
) -> dict[int, Value]:
    """Least nonnegative root of P(y) - y: exact when rational, otherwise
    a certified isolating interval."""
    f = [ZERO] * (local[vid].degree_in({vid}) + 1)
    for m, c in local[vid].terms.items():
        f[m[0][1] if m else 0] += c
    f[1] -= ONE
    val = _least_nonneg_root(_trim(f), cfg.eps)
    if val is None:
        diagnostics.append(f"no nonnegative fixpoint for {var_name(vid)}")
        return {vid: Interval(ZERO, ONE)}
    if isinstance(val, Interval):
        diagnostics.append(
            f"{var_name(vid)}: least fixpoint is irrational; certified to "
            f"width {val.width}"
        )
    return {vid: val}


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


def _least_nonneg_root(f: list[Fraction], eps: Fraction) -> Value | None:
    """Least root >= 0 of f (degree >= 1): exact when rational, otherwise
    an isolating interval of width <= eps; None when there is none."""
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
    while hi - lo > eps:
        halve()
    return Interval(lo, hi)


def _jacobian_at(
    local: dict[int, Poly], comp: list[int], point: dict[int, Fraction]
) -> list[list[Fraction]]:
    return [
        [_poly_eval_rat(local[v].derivative(w), point) for w in comp]
        for v in comp
    ]


def _spectral_radius_le_one(J: list[list[Fraction]]) -> bool:
    """Whether rho(J) <= 1, for J nonnegative."""
    n = len(J)
    graph = {i: {j for j in range(n) if J[i][j]} for i in range(n)}
    # rho(J) is the largest rho of the diagonal blocks on the strongly
    # connected components of J's graph, and each block is irreducible.
    return all(
        _irreducible_rho_le_one([[J[i][j] for j in block] for i in block])
        for block in sccs(graph)
    )


def _irreducible_rho_le_one(J: list[list[Fraction]]) -> bool:
    IJ = identity_minus(J)
    x = gauss_solve(IJ, [ONE] * len(J))
    if x is not None:
        # x > 0 with J x = x - 1 < x gives rho < 1 (Collatz-Wielandt);
        # conversely rho < 1 makes (I - J)^-1 = sum J^k >= I, so x >= 1.
        # Otherwise rho >= 1, and rho = 1 would be an eigenvalue
        # (Perron-Frobenius), which the regular I - J rules out.
        return all(v > 0 for v in x)
    # 1 is an eigenvalue.  By Perron-Frobenius it is rho iff it has a
    # positive eigenvector, and then its eigenspace is a line.
    u = kernel_vector(IJ)
    return all(v > 0 for v in u) or all(v < 0 for v in u)


def _solve_multivariate(
    local: dict[int, Poly], comp: list[int], cfg: SolveConfig, diagnostics: list[str]
) -> dict[int, Value]:
    ones = {v: ONE for v in comp}
    if all(
        _poly_eval_rat(local[v], ones) == ONE for v in comp
    ) and _spectral_radius_le_one(_jacobian_at(local, comp, ones)):
        # Strongly connected, P(1) = 1, spectral radius of the Jacobian
        # at 1 at most 1: the least fixpoint is 1.
        return ones
    # Supercritical, or 1 is not a fixpoint: bracket the least one.
    return _newton_bracket(local, comp, cfg, diagnostics)


def _newton_bracket(
    local: dict[int, Poly], comp: list[int], cfg: SolveConfig, diagnostics: list[str]
) -> dict[int, Value]:
    """Exact Newton iterations from below plus a rational pre-fixpoint
    search from above; returns intervals (possibly degenerate)."""
    pos = {v: i for i, v in enumerate(comp)}
    x = {v: ZERO for v in comp}
    for _ in range(50):
        J = _jacobian_at(local, comp, x)
        r = [_poly_eval_rat(local[v], x) - x[v] for v in comp]
        d = gauss_solve(identity_minus(J), r)
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
    # Pre-fixpoint search: round the lower bound up by shrinking margins,
    # and keep the narrowest one that still gives a pre-fixpoint.
    best = None
    for j in range(4, 60, 4):
        margin = Fraction(1, 2**j)
        cand = {v: min(ONE, lo[v] + margin) for v in comp}
        if not all(_poly_eval_rat(local[v], cand) <= cand[v] for v in comp):
            if best is not None:
                break
            continue
        best = cand
        if max(cand[v] - lo[v] for v in comp) <= cfg.eps:
            break
    if best is None:
        diagnostics.append(
            "inconclusive-width: no certified upper bound found for "
            + ", ".join(var_name(v) for v in comp)
        )
        return {v: Interval(lo[v], ONE) for v in comp}
    return {
        v: lo[v] if lo[v] == best[v] else Interval(lo[v], best[v]) for v in comp
    }


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
    J = [
        [_poly_eval_rat(fas.eqs[v].derivative(w), point) for w in order]
        for v in order
    ]
    g = [_poly_eval_rat(fas.eqs[v].derivative(z), point) for v in order]
    IJ = identity_minus(J)
    d = gauss_solve(IJ, g)
    if d is None:
        u = kernel_vector(IJ)
        assert u is not None
        return DerivativeResult(math.inf, u, None, order)
    if any(x < 0 for x in d):
        raise SolverError("negative derivative solution; system is not AST-consistent")
    return DerivativeResult(d[order.index(fas.start)], None, dict(zip(order, d)), order)
