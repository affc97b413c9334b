"""Verdicts and independent certificate verification."""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import phors_lab
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
from phors_lab.interp import Z, compile_scheme, lump, reachable
from phors_lab.algebra import Poly
from phors_lab.solver import Interval, jacobian, kleene_series, solve_or_kernel
from phors_lab.syntax import parse
from phors_lab.transforms import reduce_inf

from conftest import random_order1_scheme, random_order2_scheme, ring_text

F = Fraction


def _fas(name: str):
    scheme = load_bundled(name)
    if name in ("dyck", "dyck_lossy"):
        scheme = reduce_inf(scheme)
    return reachable(compile_scheme(scheme))


# Compiles the schemes given as arguments, in order, and prints the last
# one's report.
REPORT_AFTER = """
import sys
from phors_lab.decide import decide_past
from phors_lab.interp import compile_scheme, reachable
from phors_lab.syntax import parse

*_, fas = [compile_scheme(parse(text)) for text in sys.argv[1:]]
print(decide_past(reachable(fas)).to_json())
"""


def _report_after(*texts: str) -> str:
    """The last scheme's report from a fresh interpreter that compiled
    the others first."""
    src = str(Path(phors_lab.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", REPORT_AFTER, *texts],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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

    def test_large_rings(self):
        # A ring's rules are one class, so each 200-ring's 201 unknowns
        # lump to 2, the start and one ring unknown, and the solver never
        # eliminates anything of the ring's size.
        rings = [
            reachable(compile_scheme(parse(ring_text(200, b))))
            for b in (F(1, 2), F(1, 3), F(2, 3))
        ]
        assert [(len(fas.eqs), len(lump(fas).fas.eqs)) for fas in rings] == [(201, 2)] * 3
        critical, sub, sup = [decide_past(fas) for fas in rings]
        assert (critical.ast, critical.past, critical.expected) == ("yes", "no", math.inf)
        assert (sub.ast, sub.past, sub.expected) == ("yes", "yes", 3)
        assert (sup.ast, sup.past) == ("no", "no")
        assert sup.p_term == F(1, 2)
        for fas, v in zip(rings, (critical, sub, sup)):
            assert v.certificates
            assert all(verify_certificate(fas, c) for c in v.certificates)

    def test_report_does_not_depend_on_what_was_compiled_before(self):
        # Each scheme after one that interns unknowns first, so that its
        # own come in another id order: the 20-ring after the 7-ring; two
        # schemes whose components stay multivariate after lumping, so
        # that their brackets come from Newton iterates, each after a
        # one-rule scheme whose rule has the name of its first rule; and
        # two whose notes name unknowns, a ring that lumps into one
        # irrational root, whose note names both rules' unknowns, and two
        # components with a note each, after a rule named like the second.
        cases = [
            (ring_text(7, F(1, 3)), ring_text(20, F(1, 3))),
            ("F : !1 o -o o ; F x = x [1/2] e ; S = F e ;",
             "F : !1 o -o o ; F x = (G (G x)) [2/3] x ; "
             "G : !1 o -o o ; G x = (F (F x)) [3/4] x ; S = F e ;"),
            ("F0 : !1 o -o o ; F0 x = x [1/2] e ; S = F0 e ;",
             "F0 : !1 o -o o ; F0 x = (F1 (F1 x)) [2/3] x ; "
             "F1 : !1 o -o o ; F1 x = (F0 (F0 x)) [3/5] x ; S = F0 e ;"),
            ("A : !1 o -o o ; A x = x [1/2] e ; S = A e ;",
             "A : !1 o -o o ; A x = (B (B x)) [1/4] (x [1/2] omega) ; "
             "B : !1 o -o o ; B x = (A (A x)) [1/4] (x [1/2] omega) ; S = A e ;"),
            ("B : !1 o -o o ; B x = x [1/2] e ; S = B e ;",
             "S = (A e) [1/2] (B e) ; "
             "A : !1 o -o o ; A x = (A (A x)) [1/4] (x [1/2] omega) ; "
             "B : !1 o -o o ; B x = (B (B x)) [1/5] (x [1/2] omega) ;"),
        ]
        for before, text in cases:
            assert _report_after(before, text) == _report_after(text), text

    def test_past_implies_ast_enforced(self):
        with pytest.raises(ValueError):
            Verdict(ast="no", past="yes")

    def test_verdicts_get_fresh_lists(self):
        a, b = Verdict(), Verdict("yes", "yes", F(1), F(2))
        a.notes.append("x")
        a.certificates.append(FixpointAtOne({}))
        assert (b.notes, b.certificates, Verdict().notes) == ([], [], [])

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
            {k: x + i for i, (k, x) in enumerate(cert.kernel.items(), start=1)},
            cert.solution,
        )
        assert not verify_certificate(fas, bad)

    def test_zero_kernel_rejected(self):
        fas = _fas("randomwalk")
        v = decide_past(fas)
        cert = next(c for c in v.certificates if isinstance(c, CriticalJacobian))
        bad = CriticalJacobian({k: F(0) for k in cert.kernel}, cert.solution)
        assert not verify_certificate(fas, bad)

    def test_kernel_with_an_extra_unknown_rejected(self):
        fas = _fas("randomwalk")
        v = decide_past(fas)
        cert = next(c for c in v.certificates if isinstance(c, CriticalJacobian))
        assert verify_certificate(fas, CriticalJacobian(dict(cert.kernel), cert.solution))
        # An unknown of no equation, whose entry no residual reads.
        other = len(fas.names)
        bad = CriticalJacobian({**cert.kernel, other: F(1)}, cert.solution)
        assert not verify_certificate(fas, bad)

    def test_d_without_an_unknown_rejected(self):
        # Each unknown's row reads its own entry, which is missing.
        fas = _fas("geometric")
        v = decide_past(fas)
        cert = next(c for c in v.certificates if isinstance(c, NonsingularLinearSolve))
        for k in cert.d_vector:
            partial = {w: x for w, x in cert.d_vector.items() if w != k}
            assert not verify_certificate(fas, NonsingularLinearSolve(partial, cert.solution))

    def test_tampered_expectation_fails(self):
        fas = _fas("geometric")
        v = decide_past(fas)
        cert = next(
            c for c in v.certificates if isinstance(c, NonsingularLinearSolve)
        )
        bad = NonsingularLinearSolve(
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
        point[Z] = F(1)
        # z as a last column, with an empty row of its own, gives g.
        n = len(order)
        full = jacobian({**fas.eqs, Z: Poly()}, order + [Z], point)[:n]
        J = [{j: x for j, x in row.items() if j < n} for row in full]
        g = [row.get(n, F(0)) for row in full]
        d = solve_or_kernel(J, g)[0]
        solution = {v: F(1, 2) for v in order}
        bad = NonsingularLinearSolve(dict(zip(order, d)), solution)
        assert not verify_certificate(fas, bad)

    def test_negative_expectation_fails(self):
        # y = 2/3 y^2 z + 1/3 z has the fixpoint 1 above its least one,
        # 1/2; there (I - J) d = g gives d = -3.
        fas = reachable(compile_scheme(parse(
            "F : !1 o -o o ; F x = (F (F x)) [2/3] x ; S = F e ;"
        )))
        order = sorted(fas.eqs)
        bad = NonsingularLinearSolve({v: F(-3) for v in order}, {v: F(1) for v in order})
        assert not verify_certificate(fas, bad)

    def test_every_given_equation_is_checked(self):
        # T is not reachable from S: the certificates of the reachable
        # part leave T's unknowns unassigned.
        fas = compile_scheme(parse("T : !1 o -o o ; T x = (T x) [1/2] x ; S = e ;"))
        sub = reachable(fas)
        assert set(sub.eqs) < set(fas.eqs)
        certs = decide_past(sub).certificates
        assert len(certs) == 2 and all(verify_certificate(sub, c) for c in certs)
        assert not any(verify_certificate(fas, c) for c in certs)

    @pytest.mark.parametrize("n", [2, 5, 40])
    def test_lifted_ring_vectors_verify_on_the_full_system(self, n):
        # A ring's rules lump into one unknown, so d and the kernel vector
        # are solved on a quotient of 2 unknowns and copied to the n + 1
        # of the system: they are the system's own solve, and verify.
        for bias, kind in ((F(1, 3), NonsingularLinearSolve), (F(1, 2), CriticalJacobian)):
            fas = reachable(compile_scheme(parse(ring_text(n, bias))))
            assert len(lump(fas).fas.eqs) == 2 < len(fas.eqs)
            (cert,) = [c for c in decide_past(fas).certificates if isinstance(c, kind)]
            vector = cert.kernel if kind is CriticalJacobian else cert.d_vector
            order = sorted(fas.eqs, key=fas.names.__getitem__)
            assert list(vector) == order
            assert verify_certificate(fas, cert)
            full = jacobian({**fas.eqs, Z: Poly()}, order + [Z],
                            {**cert.solution, Z: F(1)})
            J = [{j: x for j, x in row.items() if j < n + 1} for row in full[:-1]]
            d, u = solve_or_kernel(J, [row.get(n + 1, F(0)) for row in full[:-1]])
            # order[0] is F0's unknown; a vector that is not constant on
            # the ring fails.
            if kind is CriticalJacobian:
                assert d is None and dict(zip(order, u)) == vector
                bad = CriticalJacobian({**vector, order[0]: u[0] + 1}, cert.solution)
            else:
                assert u is None and dict(zip(order, d)) == vector
                bad = NonsingularLinearSolve({**vector, order[0]: d[0] + 1}, cert.solution)
            assert not verify_certificate(fas, bad)

    def test_verification_needs_full_assignment(self):
        fas = _fas("eq3")
        v = decide_past(fas)
        cert = next(c for c in v.certificates if isinstance(c, PreFixpointBelowOne))
        partial = dict(cert.assignment)
        partial.pop(next(k for k in partial if k != fas.start))
        assert not verify_certificate(fas, PreFixpointBelowOne(partial))


def test_readme_library_example_runs():
    # The README's "Library" block, run as written, so that the documented
    # API keeps every name it uses.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
