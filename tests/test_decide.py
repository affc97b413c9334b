"""Verdicts and independent certificate verification."""

import json
import math
import random
from fractions import Fraction

import pytest

from phors_lab import load_bundled
from phors_lab.decide import (
    CriticalJacobian,
    FixpointAtOne,
    NonsingularLinearSolve,
    PreFixpointBelowOne,
    Verdict,
    decide_past,
    verify_certificate,
)
from phors_lab.interp import compile_scheme, reachable, z_vid
from phors_lab.solver import Interval, gauss_solve, identity_minus, kleene_series
from phors_lab.syntax import parse
from phors_lab.transforms import reduce_inf

from conftest import random_order1_scheme, random_order2_scheme

F = Fraction


def _fas(name: str):
    scheme = load_bundled(name)
    if name in ("dyck", "dyck_lossy"):
        scheme = reduce_inf(scheme)
    return reachable(compile_scheme(scheme))


class TestVerdicts:
    def test_critical_random_walk(self):
        fas = _fas("randomwalk")
        v = decide_past(fas)
        assert (v.ast, v.past) == ("yes", "no")
        assert v.p_term == 1
        assert v.expected == math.inf
        kinds = {type(c) for c in v.certificates}
        assert kinds == {FixpointAtOne, CriticalJacobian}

    def test_geometric_is_positively_ast(self):
        fas = _fas("geometric")
        v = decide_past(fas)
        assert (v.ast, v.past) == ("yes", "yes")
        assert v.expected == 2
        kinds = {type(c) for c in v.certificates}
        assert kinds == {FixpointAtOne, NonsingularLinearSolve}

    def test_repetition_scheme_is_not_ast(self):
        fas = _fas("eq3")
        v = decide_past(fas)
        assert (v.ast, v.past) == ("no", "no")
        assert v.p_term == F(4, 7)
        assert any(isinstance(c, PreFixpointBelowOne) for c in v.certificates)

    def test_immediate_termination(self):
        v = decide_past(_fas("unit"))
        assert (v.ast, v.past) == ("yes", "yes")
        assert v.expected == 0

    def test_immediate_divergence(self):
        v = decide_past(_fas("omega"))
        assert v.ast == "no"
        assert v.p_term == 0

    def test_irrational_subcritical_case(self):
        v = decide_past(_fas("dyck_lossy"))
        assert (v.ast, v.past) == ("no", "no")
        assert isinstance(v.p_term, Interval)
        assert float(v.p_term.lo) <= 2 - math.sqrt(3) <= float(v.p_term.hi)

    def test_past_at_least_solution_below_one(self):
        # A's unknown at the one-use index is 1/2, not 1, yet S makes
        # exactly one choice before it stops: E = 1.
        fas = reachable(compile_scheme(parse(
            "C : !1 (!1 o -o o) -o (!1 o -o o) ; A : !1 o -o o ; "
            "C f x = f x ; A x = x [1/2] e ; S = C A e ;"
        )))
        v = decide_past(fas)
        assert (v.ast, v.past) == ("yes", "yes")
        assert v.p_term == 1 and v.expected == 1
        cert = next(c for c in v.certificates if isinstance(c, NonsingularLinearSolve))
        assert F(1, 2) in cert.solution.values()
        assert all(verify_certificate(fas, c) for c in v.certificates)

    def test_random_expectations_bound_the_series(self):
        # E = sum i c_i, so every partial sum lies below a finite E.
        rng = random.Random(11)
        finite = 0
        for i in range(40):
            scheme = (random_order1_scheme if i % 2 else random_order2_scheme)(rng)
            fas = reachable(compile_scheme(scheme))
            v = decide_past(fas)
            assert v.past != "inconclusive", v.notes
            assert all(verify_certificate(fas, c) for c in v.certificates)
            if v.past == "yes":
                finite += 1
                coeffs = kleene_series(fas, 40)[fas.start].coeffs
                assert sum(k * c for k, c in enumerate(coeffs)) <= v.expected
        assert finite

    def test_past_implies_ast_enforced(self):
        with pytest.raises(ValueError):
            Verdict(ast="no", past="yes")

    def test_json_round_trips(self):
        v = decide_past(_fas("randomwalk"))
        data = json.loads(v.to_json())
        assert data["ast"] == "yes" and data["past"] == "no"
        assert data["p_term"] == "1/1"
        assert data["expected"] == "inf"
        assert {c["kind"] for c in data["certificates"]} == {
            "fixpoint-at-one",
            "critical-jacobian",
        }


class TestCertificateVerification:
    @pytest.mark.parametrize(
        "name", ["randomwalk", "geometric", "eq3", "unit", "omega", "chain",
                 "dyck", "dyck_lossy"]
    )
    def test_all_emitted_certificates_verify(self, name):
        fas = _fas(name)
        v = decide_past(fas)
        assert v.certificates, name
        for cert in v.certificates:
            assert verify_certificate(fas, cert), (name, cert)

    def test_tampered_fixpoint_fails(self):
        fas = _fas("geometric")
        v = decide_past(fas)
        cert = next(c for c in v.certificates if isinstance(c, FixpointAtOne))
        bad = FixpointAtOne({k: x / 2 for k, x in cert.assignment.items()})
        assert not verify_certificate(fas, bad)

    def test_tampered_prefixpoint_fails(self):
        fas = _fas("eq3")
        v = decide_past(fas)
        cert = next(c for c in v.certificates if isinstance(c, PreFixpointBelowOne))
        bad = PreFixpointBelowOne(
            {k: x - F(1, 100) for k, x in cert.assignment.items()}
        )
        assert not verify_certificate(fas, bad)

    def test_tampered_kernel_fails(self):
        fas = _fas("randomwalk")
        v = decide_past(fas)
        cert = next(c for c in v.certificates if isinstance(c, CriticalJacobian))
        # Break proportionality (a scaled kernel would still verify).
        bad = CriticalJacobian(
            cert.order,
            [x + i for i, x in enumerate(cert.kernel, start=1)],
            cert.solution,
        )
        assert not verify_certificate(fas, bad)

    def test_zero_kernel_rejected(self):
        fas = _fas("randomwalk")
        v = decide_past(fas)
        cert = next(c for c in v.certificates if isinstance(c, CriticalJacobian))
        bad = CriticalJacobian(cert.order, [F(0)] * len(cert.kernel), cert.solution)
        assert not verify_certificate(fas, bad)

    def test_tampered_expectation_fails(self):
        fas = _fas("geometric")
        v = decide_past(fas)
        cert = next(
            c for c in v.certificates if isinstance(c, NonsingularLinearSolve)
        )
        bad = NonsingularLinearSolve(
            cert.order,
            {k: x + 1 for k, x in cert.d_vector.items()},
            cert.solution,
        )
        assert not verify_certificate(fas, bad)

    def test_linear_solve_away_from_the_fixpoint_fails(self):
        # d solves (I - J) d = g, with J and g taken at 1/2, which is not
        # a fixpoint of y = 1/2 y z + 1/2 z.
        fas = _fas("geometric")
        order = sorted(fas.eqs)
        point = {v: F(1, 2) for v in order}
        point[z_vid()] = F(1)
        J = [[F(fas.eqs[v].derivative(w).eval(point)) for w in order] for v in order]
        g = [F(fas.eqs[v].derivative(z_vid()).eval(point)) for v in order]
        d = gauss_solve(identity_minus(J), g)
        solution = {v: F(1, 2) for v in order}
        bad = NonsingularLinearSolve(order, dict(zip(order, d)), solution)
        assert not verify_certificate(fas, bad)

    def test_negative_expectation_fails(self):
        # y = 2/3 y^2 z + 1/3 z has the fixpoint 1 above its least one,
        # 1/2; there (I - J) d = g gives d = -3.
        fas = reachable(compile_scheme(parse(
            "F : !1 o -o o ; F x = (F (F x)) [2/3] x ; S = F e ;"
        )))
        order = sorted(fas.eqs)
        bad = NonsingularLinearSolve(
            order, {v: F(-3) for v in order}, {v: F(1) for v in order}
        )
        assert not verify_certificate(fas, bad)

    def test_verification_needs_full_assignment(self):
        fas = _fas("eq3")
        v = decide_past(fas)
        cert = next(c for c in v.certificates if isinstance(c, PreFixpointBelowOne))
        partial = dict(cert.assignment)
        partial.pop(next(k for k in partial if k != fas.start))
        assert not verify_certificate(fas, PreFixpointBelowOne(partial))
