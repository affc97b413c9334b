"""Golden reports: the CLI's output on every bundled scheme is pinned.

For each bundled scheme, `analyze --degree 16`, `transform linearize`
and `transform reduce` must give the exit code, the first stderr line
and the stdout stored under `tests/golden/`.  The `file` entry of the
analyze report is dropped, since it names the checkout's path.  The
operational oracle is pinned in `oracle.json`: `monte_carlo` and
`enumerate_terminations` on every closed bundled scheme and on a few
projection bodies, with the dict order of the enumeration and the
`ExecError` an input raises.  The compiled fixpoint systems are pinned
in `fas.json`: `Fas.render()`, the sorted names of the declared
unknowns that have no equation (those of least-fixpoint value zero) and the reachable system's `render()`, for every bundled scheme
(infinitary ones after `reduce_inf`) and for 200 generated schemes.  The
decisions are pinned in `verdicts.json`: for the same 200 generated
schemes and for rings of 1, 2, 5 and 10 rules at biases 1/2, 1/3 and
2/3, the degree-16 start coefficients, `decide_past(...).to_jsonable()`
(exact interval ends included) and whether each certificate verifies;
`test_solver_paths` counts the solver paths of these and the bundled
schemes.
The type checkers are pinned in `typing.json`: the `to_json()` of
`check_fin` and `check_inf` on every bundled scheme, on the scheme texts
of `TYPING_TEXTS`, and on generated and bundled schemes with mutated
grades, so that every kind of diagnostic appears.

Run `PYTHONPATH=src python tests/test_golden.py` to rewrite the golden
files from the current code; review the diff before committing it."""

import json
import random
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest

from phors_lab import bundled_names, load_bundled, scheme_path
from phors_lab.cli import main
from phors_lab.decide import decide_past, verify_certificate
from phors_lab.interp import InterpError, compile_scheme, reachable, var_name
from phors_lab.operational import ExecError, enumerate_terminations, monte_carlo
from phors_lab.solver import SolverError, kleene_series, solve_at_one
from phors_lab.syntax import SchemeError, is_finitary, parse, print_scheme
from phors_lab.transforms import TransformError, reduce_inf
from phors_lab.typesys import check_fin, check_inf

from conftest import (
    CLOSED_TYPABLE,
    GRADE,
    TYPING_TEXTS,
    random_order1_scheme,
    random_order2_scheme,
    ring_text,
    zero_unknowns,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = {
    "analyze": ["analyze", "--degree", "16"],
    "linearize": ["transform", "linearize"],
    "reduce": ["transform", "reduce"],
}
CASES = [(name, cmd) for name in bundled_names() for cmd in COMMANDS]
PROJECTIONS = ["pi_1 e", "pi_1 omega", "pi_2 <omega, e>", "pi_1 (e [1/2] omega)", "pi_2 e"]


def run(name: str, cmd: str) -> tuple[int, str, str]:
    """Exit code, first stderr line and normalised stdout of one run."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(COMMANDS[cmd] + [str(scheme_path(name))])
    stdout = out.getvalue()
    if cmd == "analyze" and stdout:
        report = json.loads(stdout)
        del report["file"]
        stdout = json.dumps(report, indent=2) + "\n"
    return code, (err.getvalue().splitlines() or [""])[0], stdout


def _oracle_run(scheme) -> dict:
    """Monte Carlo statistics and the enumeration to degree 10, or the
    `ExecError` each raises."""
    out = {}
    try:
        out["monte_carlo"] = json.loads(
            monte_carlo(scheme, 2000, step_cap=1000, seed=20240817).to_json()
        )
    except ExecError as e:
        out["monte_carlo"] = f"ExecError: {e}"
    try:
        probs, budget_hit = enumerate_terminations(scheme, 10)
        out["enumerate"] = {
            "probs": [[k, str(p)] for k, p in probs.items()],
            "budget_hit": budget_hit,
        }
    except ExecError as e:
        out["enumerate"] = f"ExecError: {e}"
    return out


def oracle_text() -> str:
    doc = {}
    for name in bundled_names():
        scheme = load_bundled(name)
        if scheme.is_closed():
            doc[name] = _oracle_run(scheme)
    for body in PROJECTIONS:
        doc[body] = _oracle_run(parse(f"S : o ; S = {body} ;"))
    return json.dumps(doc, indent=2) + "\n"


def test_oracle_matches_golden():
    assert oracle_text() == (GOLDEN / "oracle.json").read_text(encoding="utf-8")


def _finitary(scheme):
    """The scheme, or its finitary reduction if it has unbounded grades."""
    if all(is_finitary(d.ty) for d in scheme.nonterminals.values()):
        return scheme
    return reduce_inf(scheme)


def _fas_record(scheme) -> dict | str:
    """The compiled system of a scheme, or the error compiling it raises."""
    try:
        scheme = _finitary(scheme)
        fas = compile_scheme(scheme)
    except (InterpError, TransformError) as e:
        return f"{type(e).__name__}: {e}"
    return {
        "render": fas.render(),
        "zeros": sorted(var_name(v) for v in zero_unknowns(scheme, fas)),
        "reachable": reachable(fas).render(),
    }


def _random_schemes():
    """The 200 generated schemes of fas.json and verdicts.json."""
    rng = random.Random(20240818)
    for i in range(200):
        yield f"random {i}", (random_order1_scheme if i % 2 else random_order2_scheme)(rng)


def fas_text() -> str:
    doc = {name: _fas_record(load_bundled(name)) for name in bundled_names()}
    for key, scheme in _random_schemes():
        doc[key] = _fas_record(scheme)
    return json.dumps(doc, indent=2) + "\n"


def _verdict_record(scheme) -> dict | str:
    """The degree-16 start series, the verdict and whether each of its
    certificates verifies, or the error compiling the scheme raises."""
    try:
        fas = reachable(compile_scheme(scheme))
    except InterpError as e:
        return f"{type(e).__name__}: {e}"
    try:
        series = " ".join(map(str, kleene_series(fas, 16)[fas.start].coeffs))
    except SolverError as e:
        series = f"{type(e).__name__}: {e}"
    verdict = decide_past(fas)
    return {
        "series": series,
        "verdict": verdict.to_jsonable(),
        "verifies": [verify_certificate(fas, c) for c in verdict.certificates],
    }


def _rings():
    """The 12 rings of verdicts.json."""
    for n in (1, 2, 5, 10):
        for bias in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)):
            yield f"ring {n} {bias}", parse(ring_text(n, bias))


def verdicts_text() -> str:
    doc = {key: _verdict_record(scheme) for key, scheme in _random_schemes()}
    for key, scheme in _rings():
        doc[key] = _verdict_record(scheme)
    return json.dumps(doc, indent=2) + "\n"


def test_verdicts_match_golden():
    assert verdicts_text() == (GOLDEN / "verdicts.json").read_text(encoding="utf-8")


def _solver_paths(schemes) -> Counter:
    """How often each solver path was taken, over the solves of every
    component of each scheme's system."""
    return Counter(
        path
        for _, scheme in schemes
        for comp in solve_at_one(reachable(compile_scheme(scheme))).components
        for path in comp.paths
    )


def test_solver_paths():
    # The generated schemes reach no nonlinear component.
    assert _solver_paths(_random_schemes()) == {"constant": 583, "linear": 19}
    # A one-rule ring is univariate; a longer one has P(1) = 1, so the
    # least fixpoint is 1 when the bias is at most 1/2, else 1/2.
    assert _solver_paths(_rings()) == {
        "constant": 12, "rational-root": 3, "all-ones": 6, "newton": 3
    }
    # dyck_lossy's start is the irrational root 2 - sqrt(3).
    bundled = [(name, _finitary(load_bundled(name))) for name in CLOSED_TYPABLE]
    assert _solver_paths(bundled) == {
        "constant": 22, "linear": 3, "rational-root": 2, "irrational-root": 1
    }


def test_fas_matches_golden():
    assert fas_text() == (GOLDEN / "fas.json").read_text(encoding="utf-8")


def _grade_mutants():
    """Generated and bundled scheme texts with one or two grades replaced
    at random; mutants that no longer parse are skipped."""
    rng = random.Random(20261019)
    sources = [print_scheme(load_bundled(name)) for name in bundled_names()]
    sources += [print_scheme(random_order1_scheme(rng)) for _ in range(60)]
    sources += [print_scheme(random_order2_scheme(rng)) for _ in range(60)]
    for i in range(400):
        text = sources[i % len(sources)]
        spots = [m.span(1) for m in GRADE.finditer(text)]
        if not spots:
            continue
        for lo, hi in sorted(rng.sample(spots, min(len(spots), rng.randint(1, 2))), reverse=True):
            text = text[:lo] + rng.choice(("0", "1", "2", "3", "inf")) + text[hi:]
        try:
            yield text, parse(text)
        except SchemeError:
            continue


def typing_text() -> str:
    def record(scheme) -> dict:
        return {"fin": check_fin(scheme).to_json(), "inf": check_inf(scheme).to_json()}

    doc = {name: record(load_bundled(name)) for name in bundled_names()}
    for text in TYPING_TEXTS:
        doc[text] = record(parse(text))
    for text, scheme in _grade_mutants():
        doc[text] = record(scheme)
    return json.dumps(doc, indent=2) + "\n"


def test_typing_matches_golden():
    assert typing_text() == (GOLDEN / "typing.json").read_text(encoding="utf-8")


def _stored() -> dict:
    return json.loads((GOLDEN / "exits.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name,cmd", CASES, ids=[f"{n}-{c}" for n, c in CASES])
def test_output_matches_golden(name, cmd):
    code, err, stdout = run(name, cmd)
    assert [code, err] == _stored()[f"{name} {cmd}"]
    assert stdout == (GOLDEN / f"{name}.{cmd}.out").read_text(encoding="utf-8")


def test_every_bundled_scheme_is_pinned():
    assert sorted(_stored()) == sorted(f"{n} {c}" for n, c in CASES)


def write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    exits = {}
    for name, cmd in CASES:
        code, err, stdout = run(name, cmd)
        exits[f"{name} {cmd}"] = [code, err]
        (GOLDEN / f"{name}.{cmd}.out").write_text(stdout, encoding="utf-8")
    (GOLDEN / "exits.json").write_text(
        json.dumps(exits, indent=2) + "\n", encoding="utf-8"
    )
    (GOLDEN / "oracle.json").write_text(oracle_text(), encoding="utf-8")
    (GOLDEN / "fas.json").write_text(fas_text(), encoding="utf-8")
    (GOLDEN / "verdicts.json").write_text(verdicts_text(), encoding="utf-8")
    (GOLDEN / "typing.json").write_text(typing_text(), encoding="utf-8")


if __name__ == "__main__":
    write_golden()
    sys.exit(0)
