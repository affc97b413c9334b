"""The four workloads: set-up, the timed operations, and their checks.

Each set-up function returns the workload's operations in the order one
round runs them.  An operation's `run` is what is timed; its `check`
runs after the round and returns (problems, reason it gave no answer)."""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from checks import (
    Report,
    check_enumeration,
    check_known,
    check_monte_carlo,
    check_properties,
    coefficient_problems,
    expected_exit_code,
    inconclusive_reason,
    report_from_cli,
    report_from_verdict,
)
from inputs import INFINITARY, KNOWN, RING_BIASES, RING_SIZES, random_batch, ring_known, ring_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SCHEMES = SRC / "phors_lab" / "schemes"

# Sizes.  README.md explains each choice.
CORPUS = ("randomwalk", "geometric", "unit", "omega", "eq3", "dyck", "dyck_lossy", "brackets", "chain")
CORPUS_DEGREE = 16
SERIES = ("randomwalk", "geometric", "dyck", "dyck_lossy")
SERIES_DEGREE = 128
ORACLE = ("randomwalk", "dyck", "eq3", "dyck_lossy", "chain", "geometric")
MC_TRIALS = 500
MC_STEP_CAP = 1000
MC_SEED = 20240817
ENUM_DEGREE = 14
ENUM_STEP_BUDGET = 10**4
SYSTEMS_DEGREE = 16
RANDOM_SEED = 7
RANDOM_SIZE = 200
RANDOM_ENUM_DEGREE = 8
RANDOM_ENUM_BUDGET = 2000


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], str | None]]


class Child(NamedTuple):
    returncode: int
    stdout: bytes
    stderr: bytes
    rss_kb: int  # peak resident set of the child


def run_child(argv: list[str]) -> Child:
    """Run one child process to its end, with src/ on its import path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        try:
            out = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return Child(proc.returncode, out, err.read(), usage.ru_maxrss)


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "phors_lab.cli", *args]


def analyze_argv(name: str) -> list[str]:
    return cli_argv("analyze", str(SCHEMES / f"{name}.phors"), "--degree", str(CORPUS_DEGREE))


def check_analysis(name: str, child: Child) -> tuple[list[str], str | None]:
    """A CLI analysis against the scheme's known answer; the exit code
    must agree with the reported verdict."""
    try:
        rep = report_from_cli(json.loads(child.stdout))
    except ValueError:
        tail = child.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return [], f"exit code {child.returncode} without a report: {tail}"
    problems = check_known(KNOWN[name], rep)
    if child.returncode != expected_exit_code(rep.verdict):
        problems.append(f"exit code {child.returncode} for verdict {rep.verdict}")
    return problems, inconclusive_reason(rep) if rep.inconclusive else None


def _load(name: str):
    from phors_lab import syntax

    return syntax.parse((SCHEMES / f"{name}.phors").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------


def setup_corpus(in_process: bool) -> list[Op]:
    """Each closed bundled scheme analysed by `phors-lab analyze`: in a
    fresh process, or (for the traced run) through `cli.main` in this
    one, which makes the same calls."""
    from phors_lab import cli

    def child(name):
        return lambda: run_child(analyze_argv(name))

    def in_proc(name):
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(analyze_argv(name)[3:])
            return Child(rc, buf.getvalue().encode(), b"", 0)

        return run

    make = in_proc if in_process else child
    return [Op(f"analyze {n}", make(n), lambda out, n=n: check_analysis(n, out)) for n in CORPUS]


def setup_series(in_process: bool) -> list[Op]:
    """Deep Kleene series of small systems; compilation is set-up."""
    from phors_lab import interp, solver, transforms

    ops = []
    for name in SERIES:
        scheme = _load(name)
        if name in INFINITARY:
            scheme = transforms.reduce_inf(scheme)
        fas = interp.reachable(interp.compile_scheme(scheme))

        def check(series, fas=fas, known=KNOWN[name]):
            return coefficient_problems(known.coeff, list(series[fas.start].coeffs)), None

        ops.append(Op(f"kleene {name}", lambda fas=fas: solver.kleene_series(fas, SERIES_DEGREE), check))
    return ops


def setup_oracle(in_process: bool) -> list[Op]:
    """Monte Carlo batches and exhaustive enumerations on raw schemes."""
    from phors_lab import operational, typesys

    ops = []
    for name in ORACLE:
        scheme = _load(name)
        checker = typesys.check_inf if name in INFINITARY else typesys.check_fin
        if not checker(scheme).accepted:
            raise ValueError(f"bundled scheme {name} does not type-check")
        known = KNOWN[name]
        ops.append(Op(
            f"monte_carlo {name}",
            lambda s=scheme: operational.monte_carlo(s, MC_TRIALS, step_cap=MC_STEP_CAP, seed=MC_SEED),
            lambda stats, k=known: (check_monte_carlo(k, stats), None),
        ))
        ops.append(Op(
            f"enumerate {name}",
            lambda s=scheme: operational.enumerate_terminations(s, ENUM_DEGREE, step_budget=ENUM_STEP_BUDGET),
            lambda res, k=known: (check_enumeration(k, res[0], res[1], ENUM_DEGREE), None),
        ))
    return ops


def _report(out) -> tuple[bool, Report]:
    accepted, coefficients, verdict, certs = out
    return accepted, report_from_verdict(verdict, coefficients, certs)


def _judge(rep: Report, problems: list[str], accepted: bool) -> tuple[list[str], str | None]:
    if not accepted:
        problems = ["check_fin rejected a well-typed scheme"] + problems
    return problems, inconclusive_reason(rep) if rep.inconclusive else None


def setup_systems(in_process: bool) -> list[Op]:
    """Ring schemes of several sizes and biases, and a fixed batch of
    random order-1 and order-2 schemes, each through the whole pipeline."""
    from phors_lab import decide, interp, operational, solver, syntax, typesys

    def pipeline(scheme):
        """check -> compile -> reachable -> kleene_series -> decide_past ->
        verify_certificate, as a library user runs it."""
        accepted = typesys.check_fin(scheme).accepted
        fas = interp.reachable(interp.compile_scheme(scheme))
        series = solver.kleene_series(fas, SYSTEMS_DEGREE)
        verdict = decide.decide_past(fas)
        certs = [decide.verify_certificate(fas, c) for c in verdict.certificates]
        return accepted, series[fas.start].coeffs, verdict, certs

    ops = []
    for n in RING_SIZES:
        for bias in RING_BIASES:
            scheme = syntax.parse(ring_text(n, bias))

            def check(out, known=ring_known(bias)):
                accepted, rep = _report(out)
                return _judge(rep, check_known(known, rep), accepted)

            ops.append(Op(f"ring n={n} b={bias}", lambda s=scheme: pipeline(s), check))
    for i, scheme in enumerate(random_batch(RANDOM_SEED, RANDOM_SIZE)):
        reference = {}

        def check(out, s=scheme, ref=reference):
            if not ref:
                ref["enum"] = operational.enumerate_terminations(
                    s, RANDOM_ENUM_DEGREE, step_budget=RANDOM_ENUM_BUDGET
                )
            accepted, rep = _report(out)
            probs, hit = ref["enum"]
            return _judge(rep, check_properties(rep, probs, hit, RANDOM_ENUM_DEGREE), accepted)

        ops.append(Op(f"random #{i}", lambda s=scheme: pipeline(s), check))
    return ops


SETUPS = {
    "corpus": setup_corpus,
    "series": setup_series,
    "oracle": setup_oracle,
    "systems": setup_systems,
}


def setup(workload: str, seed: int, in_process: bool) -> list[Op]:
    """The workload's operations, in the order `seed` gives them."""
    ops = SETUPS[workload](in_process)
    random.Random(seed).shuffle(ops)
    return ops
