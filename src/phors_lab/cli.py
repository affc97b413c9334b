"""Command-line front end.

Subcommands: check, analyze, transform, simulate.  Exit codes: 0 for
success/accepted, 1 for input errors, 2 for rejections and negative
findings, 3 for inconclusive results."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .decide import Verdict, decide_past, verify_certificate
from .interp import (
    DEFAULT_VAR_CAP,
    InterpError,
    compile_scheme,
    reachable,
    var_name,
)
from .operational import monte_carlo
from .solver import MonotonicityError, SolverError, kleene_series
from .syntax import INF, Arrow, Scheme, SchemeError, is_finitary, parse, print_scheme
from .transforms import TransformError, compose, linearize, reduce_inf
from .typesys import check_fin, check_inf

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NEGATIVE = 2
EXIT_INCONCLUSIVE = 3

REPORT_VERSION = 1


def _load(path: str) -> Scheme:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _emit(report: dict, json_path: str | None) -> None:
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")


def _scheme_is_finitary(scheme: Scheme) -> bool:
    return all(is_finitary(d.ty) for d in scheme.nonterminals.values()) and not any(
        isinstance(t, Arrow) and t.grade == INF for t in scheme.params.values()
    )


def _below(flag: str, value: int | None, least: int) -> bool:
    """Whether a count option is set below its least value; says so as an
    input error."""
    if value is None or value >= least:
        return False
    print(f"error: {flag} must be >= {least}", file=sys.stderr)
    return True


def _series(scheme: Scheme, degree: int, cap: int = DEFAULT_VAR_CAP):
    """The start-reachable system of a scheme and its start series."""
    fas = reachable(compile_scheme(scheme, cap=cap))
    return fas, kleene_series(fas, degree)[fas.start]


def cmd_check(args) -> int:
    scheme = _load(args.file)
    if args.system == "fin":
        report = check_fin(scheme)
    else:
        report = check_inf(scheme)
    print(report.to_json())
    _emit(json.loads(report.to_json()), args.json)
    return EXIT_OK if report.accepted else EXIT_NEGATIVE


def cmd_analyze(args) -> int:
    if _below("--degree", args.degree, 0):
        return EXIT_INPUT
    scheme = _load(args.file)
    notes = []
    if not _scheme_is_finitary(scheme):
        scheme = reduce_inf(scheme)
        notes.append("scheme had unbounded grades; analyzed its finitary reduction")
    fas, series = _series(scheme, args.degree, args.var_cap)
    verdict: Verdict = decide_past(fas)
    for cert in verdict.certificates:
        if not verify_certificate(fas, cert):
            raise SolverError("internal error: certificate failed re-verification")

    coeffs = series.coeffs[: args.degree + 1]
    report = {
        "version": REPORT_VERSION,
        "file": args.file,
        "start": var_name(fas.start),
        "degree": args.degree,
        "coefficients": [_rat(c) for c in coeffs],
    }
    report.update(verdict.to_jsonable())
    report["notes"] = notes + verdict.notes
    print(json.dumps(report, indent=2))
    _emit(report, args.json)
    if "inconclusive" in (verdict.ast, verdict.past):
        return EXIT_INCONCLUSIVE
    if verdict.ast == "no" or verdict.past == "no":
        return EXIT_NEGATIVE
    return EXIT_OK


def cmd_transform(args) -> int:
    if _below("--verify", args.verify, 0):
        return EXIT_INPUT
    scheme = _load(args.file)
    if args.kind == "linearize":
        result = linearize(scheme)
        verifiable = True
    elif args.kind == "reduce":
        result = reduce_inf(scheme)
        verifiable = scheme.is_closed()
    else:
        other = _load(args.other)
        result = compose(scheme, other, args.hole, args.plug)
        verifiable = False
    text = print_scheme(result)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.verify is not None:
        if not verifiable:
            print("# --verify is only supported for linearize and reduce",
                  file=sys.stderr)
            return EXIT_INPUT
        if args.kind == "linearize":
            ok = (
                _series(scheme, args.verify)[1].coeffs
                == _series(result, args.verify)[1].coeffs
            )
        else:
            # The source of a reduction is not directly compilable, but
            # it can still be run: compare exhaustive operational
            # probabilities against the reduced scheme's coefficients.
            from .operational import enumerate_terminations

            probs, budget_hit = enumerate_terminations(scheme, args.verify)
            coeffs = _series(result, args.verify)[1].coeffs
            ok = not budget_hit and all(
                probs.get(i, Fraction(0)) == coeffs[i]
                for i in range(args.verify + 1)
            )
        if ok:
            print(f"# coefficients equal to degree {args.verify}", file=sys.stderr)
            return EXIT_OK
        print("# coefficient mismatch", file=sys.stderr)
        return EXIT_NEGATIVE
    return EXIT_OK


def cmd_simulate(args) -> int:
    if _below("--trials", args.trials, 1) or _below("--cap", args.cap, 0):
        return EXIT_INPUT
    scheme = _load(args.file)
    stats = monte_carlo(scheme, args.trials, step_cap=args.cap, seed=args.seed)
    print(stats.to_json())
    _emit(json.loads(stats.to_json()), args.json)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="phors-lab",
        description=(
            "Termination analysis for probabilistic higher-order recursion "
            "schemes via exact generating functions"
        ),
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and type-check a scheme")
    p.add_argument("file")
    p.add_argument("--system", choices=("fin", "inf"), default="fin")
    p.add_argument("--json", default=None)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("analyze", help="full pipeline: compile, solve, decide")
    p.add_argument("file")
    p.add_argument("--degree", type=int, default=16)
    p.add_argument("--var-cap", type=int, default=DEFAULT_VAR_CAP)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("transform", help="linearize / reduce / compose schemes")
    p.add_argument("kind", choices=("linearize", "reduce", "compose"))
    p.add_argument("file")
    p.add_argument("other", nargs="?", help="second scheme (compose only)")
    p.add_argument("--hole", help="parameter of the first scheme (compose)")
    p.add_argument("--plug", help="non-terminal of the second scheme (compose)")
    p.add_argument("--verify", type=int, default=None, metavar="N",
                   help="check coefficient equality to degree N")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("simulate", help="Monte Carlo estimation")
    p.add_argument("file")
    p.add_argument("--trials", type=int, default=10**4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=10**4)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=cmd_simulate)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (SchemeError, InterpError, TransformError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except MonotonicityError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as e:
        print(f"solver: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
