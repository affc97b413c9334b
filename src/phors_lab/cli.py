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
from .decide import Verdict, decide_past, rat, verify_certificate
from .interp import IndexCapExceeded, InterpError, compile_scheme, reachable, var_name
from .solver import MonotonicityError, SolverError, kleene_series
from .syntax import ExecError, Scheme, SchemeError, TransformError
from .syntax import is_finitary, parse, print_scheme
from .typesys import check_fin, check_inf

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NEGATIVE = 2
EXIT_INCONCLUSIVE = 3

REPORT_VERSION = 1


def _load(path: str) -> Scheme:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _emit(text: str, path: str | None) -> None:
    """Write text to the file at path, if one is given, then to stdout;
    a path that cannot be written leaves stdout empty."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _scheme_is_finitary(scheme: Scheme) -> bool:
    # Scheme.validate already rejects infinitary parameters.
    return all(is_finitary(d.ty) for d in scheme.nonterminals.values())


def _below(flag: str, value: int | None, least: int) -> bool:
    """Whether a count option is set below its least value; says so as an
    input error."""
    if value is None or value >= least:
        return False
    print(f"error: {flag} must be >= {least}", file=sys.stderr)
    return True


def _series(scheme: Scheme, degree: int):
    """The start-reachable system of a scheme and its start series."""
    fas = reachable(compile_scheme(scheme))
    return fas, kleene_series(fas, degree)[fas.start]


def cmd_check(args) -> int:
    scheme = _load(args.file)
    if args.system == "fin":
        report = check_fin(scheme)
    else:
        report = check_inf(scheme)
    _emit(report.to_json(), args.json)
    return EXIT_OK if report.accepted else EXIT_NEGATIVE


def cmd_analyze(args) -> int:
    if _below("--degree", args.degree, 0):
        return EXIT_INPUT
    scheme = _load(args.file)
    if not scheme.is_closed():
        print("error: analysis requires a closed scheme", file=sys.stderr)
        return EXIT_INPUT
    notes = []
    if not _scheme_is_finitary(scheme):
        from .transforms import reduce_inf
        scheme = reduce_inf(scheme)
        notes.append("scheme had unbounded grades; analyzed its finitary reduction")
    fas, series = _series(scheme, args.degree)
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
        "coefficients": [rat(c) for c in coeffs],
    }
    report.update(verdict.to_jsonable())
    report["notes"] = notes + verdict.notes
    _emit(json.dumps(report, indent=2), args.json)
    if "inconclusive" in (verdict.ast, verdict.past):
        return EXIT_INCONCLUSIVE
    if verdict.ast == "no" or verdict.past == "no":
        return EXIT_NEGATIVE
    return EXIT_OK


def _transform_usage(args) -> str | None:
    """What is wrong with the arguments of a transform, if anything."""
    compose_args = (args.other, args.hole, args.plug)
    if args.kind != "compose":
        if compose_args != (None, None, None):
            return f"{args.kind} takes no second scheme, --hole or --plug"
    elif None in compose_args:
        return "compose needs a second scheme, --hole and --plug"
    elif args.verify is not None:
        return "--verify is only supported for linearize and reduce"
    return None


def cmd_transform(args) -> int:
    problem = _transform_usage(args)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_INPUT
    if _below("--verify", args.verify, 0):
        return EXIT_INPUT
    from .transforms import compose, linearize, reduce_inf
    scheme = _load(args.file)
    if args.kind == "linearize":
        result = linearize(scheme)
    elif args.kind == "reduce":
        result = reduce_inf(scheme)
    else:
        result = compose(scheme, _load(args.other), args.hole, args.plug)
    _emit(print_scheme(result).removesuffix("\n"), args.out)
    if args.verify is not None:
        # Compile one side and run the other: the source of a reduction is
        # not compilable, and a linear scheme's index sets can be over the
        # cap where its source's are not.  Compare the compiled side's
        # coefficients with the other side's exhaustive operational
        # probabilities.  With a branch cut at the step budget, the
        # probabilities are only lower bounds, so the comparison is
        # inconclusive.
        from .operational import DEFAULT_STEP_BUDGET, enumerate_terminations
        compiled, run = (scheme, result) if args.kind == "linearize" else (result, scheme)
        probs, budget_hit = enumerate_terminations(run, args.verify)
        if budget_hit:
            print(f"# inconclusive: a run used up the enumeration's budget of "
                  f"{DEFAULT_STEP_BUDGET} steps", file=sys.stderr)
            return EXIT_INCONCLUSIVE
        coeffs = _series(compiled, args.verify)[1].coeffs
        if all(probs.get(i, Fraction(0)) == coeffs[i] for i in range(args.verify + 1)):
            print(f"# coefficients equal to degree {args.verify}", file=sys.stderr)
            return EXIT_OK
        print("# coefficient mismatch", file=sys.stderr)
        return EXIT_NEGATIVE
    return EXIT_OK


def cmd_simulate(args) -> int:
    bad = _below("--trials", args.trials, 1) or _below("--cap", args.cap, 0)
    if bad or _below("--seed", args.seed, 0):
        return EXIT_INPUT
    from .operational import monte_carlo
    scheme = _load(args.file)
    stats = monte_carlo(scheme, args.trials, step_cap=args.cap, seed=args.seed)
    _emit(stats.to_json(), args.json)
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
    except IndexCapExceeded as e:
        print(f"inconclusive: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (OSError, UnicodeDecodeError, SchemeError, InterpError,
            TransformError, ExecError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_INPUT
    except MonotonicityError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as e:
        print(f"solver: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
