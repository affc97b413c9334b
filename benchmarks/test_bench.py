"""Tests of the benchmark at tiny sizes: every workload runs, and every
check rejects a wrong answer.

    PYTHONPATH=src python -m pytest benchmarks -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from phors_lab.operational import RunStats  # noqa: E402


def report(name, **changes):
    """The right answer for a bundled scheme, with `changes` applied."""
    known = inputs.KNOWN[name]
    p_term = known.p_term if known.p_term != inputs.TWO_MINUS_SQRT3 else (F(267, 1000), F(268, 1000))
    rep = checks.Report(known.verdict, p_term, known.expected,
                        [known.coeff(i) for i in range(17)], certificates=1)
    for k, v in changes.items():
        setattr(rep, k, v)
    return rep


@pytest.mark.parametrize("name", sorted(inputs.KNOWN))
def test_right_answers_pass(name):
    assert checks.check_known(inputs.KNOWN[name], report(name)) == []


def test_perturbed_coefficient_is_rejected():
    rep = report("randomwalk")
    rep.coefficients[5] += F(1, 2**20)
    assert checks.check_known(inputs.KNOWN["randomwalk"], rep)


def test_swapped_verdict_is_rejected():
    assert checks.check_known(inputs.KNOWN["randomwalk"], report("randomwalk", verdict=("no", "yes")))
    assert checks.check_known(inputs.KNOWN["eq3"], report("eq3", verdict=("yes", "no")))


def test_wrong_values_are_rejected():
    assert checks.check_known(inputs.KNOWN["eq3"], report("eq3", p_term=F(4, 7) + F(1, 10**9)))
    assert checks.check_known(inputs.KNOWN["geometric"], report("geometric", expected=F(3)))
    assert checks.check_known(inputs.KNOWN["chain"], report("chain", certificates=0))
    assert checks.check_known(inputs.KNOWN["unit"], report("unit", certificates_ok=False))


def test_two_minus_sqrt3_is_decided_exactly():
    r = F(26794919243, 10**11)  # 2 - sqrt(3) = 0.267949192431...
    assert checks.contains_two_minus_sqrt3(r, r + F(1, 10**11))
    assert not checks.contains_two_minus_sqrt3(r + F(1, 10**11), F(1, 2))
    assert not checks.contains_two_minus_sqrt3(F(0), r)
    lossy = inputs.KNOWN["dyck_lossy"]
    assert checks.check_known(lossy, report("dyck_lossy", p_term=(F(1, 4), F(26, 100))))
    assert checks.check_known(lossy, report("dyck_lossy", p_term=r))


def test_supercritical_ring_interval_must_contain_one_half():
    known = inputs.ring_known(F(2, 3))
    rep = checks.Report(("no", "no"), (F(1, 2) - F(1, 2**64), F(9, 16)), None,
                        [known.coeff(i) for i in range(17)], certificates=1)
    assert checks.check_known(known, rep) == []
    rep.p_term = (F(1, 2) + F(1, 2**64), F(9, 16))
    assert checks.check_known(known, rep)
    rep.p_term = F(1, 2)
    assert checks.check_known(known, rep) == []


def test_exit_code_must_agree_with_the_verdict():
    data = {"ast": "yes", "past": "yes", "p_term": "1/1", "expected": "0/1",
            "coefficients": ["1/1"] + ["0/1"] * 16, "certificates": [{}], "notes": []}
    ok = workloads.Child(0, json.dumps(data).encode(), b"", 0)
    assert workloads.check_analysis("unit", ok) == ([], None)
    assert workloads.check_analysis("unit", ok._replace(returncode=2))[0]
    assert workloads.check_analysis("unit", ok._replace(stdout=b""))[1]  # no answer


def test_properties_reject_wrong_answers():
    coeffs = [F(0), F(1, 2), F(1, 4)] + [F(0)] * 14
    enum = {1: F(1, 2), 2: F(1, 4)}
    good = checks.Report(("no", "no"), F(3, 4), None, coeffs, certificates=1)
    assert checks.check_properties(good, enum, False, 8) == []
    assert checks.check_properties(good, {1: F(1, 2)}, False, 8)  # enumeration differs
    assert checks.check_properties(good, {1: F(1, 2)}, True, 8) == []  # a lower bound only
    assert checks.check_properties(good, {1: F(3, 4)}, True, 8)  # lower bound exceeds it
    assert checks.check_properties(checks.Report(("yes", "no"), F(3, 4), checks.INF, coeffs, 1), enum, False, 8)
    assert checks.check_properties(checks.Report(("no", "no"), F(1, 2), None, coeffs, 1), enum, False, 8)
    assert checks.check_properties(checks.Report(("yes", "yes"), F(1), F(1, 2), coeffs, 1), enum, False, 8)


def test_enumeration_and_monte_carlo_checks_reject_wrong_answers():
    geo = inputs.KNOWN["geometric"]
    right = {i: F(1, 2**i) for i in range(1, 7)}
    assert checks.check_enumeration(geo, right, False, 6) == []
    assert checks.check_enumeration(geo, {**right, 3: F(1, 7)}, False, 6)
    stats = RunStats(1000, 571, 429, 0, {}, None, 0, 100)
    assert checks.check_monte_carlo(inputs.KNOWN["eq3"], stats) == []
    assert checks.check_monte_carlo(inputs.KNOWN["dyck_lossy"], stats)


def test_closed_forms_match_the_enumerator():
    from phors_lab.operational import enumerate_terminations

    for name in ("geometric", "eq3", "dyck_lossy", "randomwalk"):
        probs, hit = enumerate_terminations(workloads._load(name), 10)
        assert not hit
        assert checks.check_enumeration(inputs.KNOWN[name], probs, False, 10) == [], name


@pytest.fixture
def tiny(monkeypatch):
    for attr, value in {
        "CORPUS": ("unit", "geometric", "dyck_lossy"), "SERIES_DEGREE": 8,
        "MC_TRIALS": 40, "ENUM_DEGREE": 6, "RANDOM_SIZE": 12, "RING_SIZES": (1, 3),
    }.items():
        monkeypatch.setattr(workloads, attr, value)


@pytest.mark.parametrize("workload", ["corpus", "series", "oracle", "systems"])
@pytest.mark.parametrize("in_process", [False, True])
def test_every_workload_runs_and_checks(tiny, workload, in_process):
    from collections import Counter

    ops = workloads.setup(workload, 3, in_process)
    kinds = Counter()
    failed, wrong = bench.judge(bench.run_round(ops, None, "round0", bench.Calibration()), kinds)
    assert wrong == 0, kinds
    assert all("expected_steps" in k or "Kleene" in k for k in kinds), kinds
    assert failed == sum(kinds.values())


def test_traced_round_records_every_layer(tiny):
    from tracing import Tracer

    tracer = Tracer()
    ops = workloads.setup("systems", 1, True)
    bench.run_round(ops, tracer, "round1", bench.Calibration())
    assert not tracer._patched  # the wrappers are gone again
    metrics = tracer.layer_metrics(["round1"])
    for layer in ("typesys.check", "interp.compile", "solver.kleene", "solver.solve", "decide.verify"):
        assert metrics[f"{layer}_s"] > 0, layer
    assert metrics["interp.unknowns_interpreted"] >= metrics["interp.unknowns_reachable"] > 0
    assert any(s["parent"] is not None for s in tracer.spans)


def test_seed_orders_the_same_operations():
    a = [op.name for op in workloads.setup("oracle", 1, False)]
    b = [op.name for op in workloads.setup("oracle", 2, False)]
    assert sorted(a) == sorted(b) and a == [op.name for op in workloads.setup("oracle", 1, False)]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
