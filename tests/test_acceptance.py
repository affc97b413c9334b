"""End-to-end acceptance suite.

Each test below is one numbered, self-contained claim about the whole
pipeline; the terminal summary prints one pass/fail line per criterion.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from phors_lab import load_bundled, scheme_path
from phors_lab.algebra import Poly
from phors_lab.cli import main
from phors_lab.decide import (
    CriticalJacobian,
    FixpointAtOne,
    NonsingularLinearSolve,
    PreFixpointBelowOne,
    decide_past,
    verify_certificate,
)
from phors_lab.interp import compile_scheme, reachable
from phors_lab.operational import enumerate_terminations, monte_carlo
from phors_lab.solver import (
    Interval,
    MonotonicityError,
    kleene_series,
    solve_at_one,
)
from phors_lab.transforms import linearize, reduce_inf
from phors_lab.typesys import check_fin, check_inf
from phors_lab.syntax import Arrow, O

from conftest import (
    CLOSED_TYPABLE,
    declared_indexes,
    P_TERM,
    random_order1_scheme,
    random_order2_scheme,
)

F = Fraction

MC_TRIALS = 100_000
MC_STEP_CAP = 1_000


def catalan(i: int) -> int:
    c = 1
    for k in range(i):
        c = c * 2 * (2 * k + 1) // (k + 2)
    return c


def _series(scheme, degree):
    fas = reachable(compile_scheme(scheme))
    return kleene_series(fas, degree)[fas.start].coeffs


def test_criterion_1_catalan_coefficients(capsys, tmp_path):
    out = tmp_path / "report.json"
    started = time.monotonic()
    rc = main(
        ["analyze", str(scheme_path("randomwalk")), "--degree", "21",
         "--json", str(out)]
    )
    elapsed = time.monotonic() - started
    capsys.readouterr()
    assert rc in (0, 2)  # the walk is AST but not PAST
    data = json.loads(out.read_text())
    coeffs = [Fraction(c) for c in data["coefficients"]]
    assert len(coeffs) == 22
    for i in range(11):
        assert coeffs[2 * i] == 0
        assert coeffs[2 * i + 1] == F(catalan(i), 2 ** (2 * i + 1)), i
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_ast_past_trio():
    expectations = {
        "randomwalk": ("yes", "no"),
        "geometric": ("yes", "yes"),
        "eq3": ("no", "no"),
    }
    for name, (want_ast, want_past) in expectations.items():
        started = time.monotonic()
        fas = reachable(compile_scheme(load_bundled(name)))
        verdict = decide_past(fas)
        elapsed = time.monotonic() - started
        assert (verdict.ast, verdict.past) == (want_ast, want_past), name
        assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"
        for cert in verdict.certificates:
            assert verify_certificate(fas, cert), name

    walk = decide_past(reachable(compile_scheme(load_bundled("randomwalk"))))
    assert any(isinstance(c, CriticalJacobian) for c in walk.certificates)

    geo = decide_past(reachable(compile_scheme(load_bundled("geometric"))))
    assert geo.expected == 2

    rep = decide_past(reachable(compile_scheme(load_bundled("eq3"))))
    assert rep.p_term == F(4, 7)


def test_criterion_3_typing_corpus():
    fn = Arrow(1, O, O)

    accepted = check_fin(load_bundled("eq3"))
    assert accepted.accepted
    assert accepted.derived["H"] == Arrow(2, fn, Arrow(1, O, O))

    overflow = check_fin(load_bundled("nonalg"))
    assert not overflow.accepted
    assert any("grade overflow" in d.message for d in overflow.diagnostics)

    inf_overflow = check_inf(load_bundled("nonalg"))
    assert not inf_overflow.accepted

    compound = check_inf(load_bundled("nonalg_inf"))
    assert not compound.accepted
    assert any(
        "neither a parameter nor a non-terminal" in d.message
        for d in compound.diagnostics
    )


def test_criterion_4_linearization_preserves_coefficients():
    scheme = load_bundled("eq3")
    assert _series(scheme, 12) == _series(linearize(scheme), 12)

    rng = random.Random(20240817)
    produced = 0
    while produced < 3:
        candidate = random_order2_scheme(rng)
        if not check_fin(candidate).accepted:  # pragma: no cover
            continue
        produced += 1
        assert _series(candidate, 12) == _series(linearize(candidate), 12)


def test_criterion_5_infinitary_reduction():
    reduced = reduce_inf(load_bundled("dyck"))
    assert set(reduced.nonterminals) == {"S", "L__A_B", "A", "B"}
    coeffs = _series(reduced, 9)
    for i in range(10):
        if i % 2 == 0:
            assert coeffs[i] == 0
        else:
            k = (i - 1) // 2
            assert coeffs[i] == F(catalan(k), 2 ** (2 * k + 1))


@pytest.mark.parametrize("name", CLOSED_TYPABLE)
def test_criterion_6_operational_agreement(name):
    scheme = load_bundled(name)
    compiled = scheme if name not in ("dyck", "dyck_lossy") else reduce_inf(scheme)
    fas = reachable(compile_scheme(compiled))
    coeffs = kleene_series(fas, 7)[fas.start].coeffs

    probs, budget_hit = enumerate_terminations(scheme, 7)
    assert not budget_hit
    for i in range(8):
        assert probs.get(i, F(0)) == coeffs[i], (name, i)

    stats = monte_carlo(scheme, MC_TRIALS, step_cap=MC_STEP_CAP, seed=20240817)
    lo, hi = stats.p_term_bounds(z=3.0)
    p_term = P_TERM[name]
    if p_term is None:
        sol = solve_at_one(fas)
        val = sol.values[fas.start]
        assert isinstance(val, Interval)
        p_term = (val.lo + val.hi) / 2
    assert lo <= float(p_term) <= hi, (name, lo, float(p_term), hi)


def test_criterion_7_order1_affinity():
    from phors_lab.interp import Z, GroundPoint, index_set
    from phors_lab.syntax import arg_types
    from test_interp import ProbeInterp, system_ids

    rng = random.Random(1234)
    for trial in range(50):
        scheme = random_order1_scheme(rng)
        assert check_fin(scheme).accepted
        fas = compile_scheme(scheme)  # also runs the built-in spine check
        # The zero unknowns get ids outside the system.
        ids = system_ids(scheme, fas)
        sets = {}
        found = declared_indexes(scheme, sets)
        for nt, d in scheme.nonterminals.items():
            interp = ProbeInterp(scheme, nt, found, sets, ids)
            raw = interp.sem(d.body, GroundPoint(1))
            live = Poly(
                {
                    m: c
                    for m, c in raw.terms.items()
                    if not any(v > Z and v not in fas.eqs for v, _ in m)
                }
            )
            domain = set()
            for pname, (_, pty) in zip(d.params, arg_types(d.ty)):
                domain |= {interp.atom(pname, pt) for pt in index_set(pty)}
            assert live.degree_in(domain) <= 1, (trial, nt)


def test_criterion_8_kleene_monotonicity():
    # The check is built into every Kleene run; exercise it across the
    # bundled corpus, then confirm that it actually trips on a
    # non-monotone system.
    for name in CLOSED_TYPABLE:
        scheme = load_bundled(name)
        if name in ("dyck", "dyck_lossy"):
            scheme = reduce_inf(scheme)
        fas = reachable(compile_scheme(scheme))
        kleene_series(fas, 16)  # raises MonotonicityError on violation

    from conftest import named_system

    oscillating = named_system({"w": Poly.const(1) + Poly.const(-1) * Poly.var("w")}, "w")
    with pytest.raises(MonotonicityError):
        kleene_series(oscillating, 4)
