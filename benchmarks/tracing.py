"""Spans around the calls into phors-lab's layers, recorded from outside
the package.

`Tracer.install` replaces each traced function by a wrapper in every
loaded `phors_lab` module that refers to it, so calls between layers
(say, `decide_past` calling `solve_at_one`) are traced too.  A span has
a name, a start, an end, its parent and the input it belongs to; spans
are kept in memory and written out when the run ends.  Counts are read
from the values the traced calls return."""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

from phors_lab import algebra, decide, interp, operational, solver, syntax, transforms, typesys


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _value_bits(v) -> int:
    if v is None or isinstance(v, float):
        return 0
    if hasattr(v, "lo"):
        return max(_bits(v.lo), _bits(v.hi))
    return _bits(v)


def _count_compile(tr, args, fas):
    tr.add("interp.unknowns_interpreted", len(fas.eqs) + len(fas.zeros))


def _count_kleene(tr, args, series):
    fas = args[0]
    tr.add("interp.unknowns_reachable", len(fas.eqs))
    tr.add("interp.monomials", sum(len(p.terms) for p in fas.eqs.values()))
    tr.high("solver.coeff_bits_max", max(_bits(c) for s in series.values() for c in s.coeffs))


def _count_decide(tr, args, verdict):
    tr.add("decide.inconclusive", int("inconclusive" in (verdict.ast, verdict.past)))
    tr.high("decide.value_bits_max", max(_value_bits(verdict.p_term), _value_bits(verdict.expected)))
    if hasattr(verdict.p_term, "width"):
        tr.high("decide.interval_width_max", float(verdict.p_term.width))


def _count_verify(tr, args, ok):
    tr.add("decide.certificates", 1)


def _count_mc(tr, args, stats):
    tr.add("operational.mc_trials", stats.trials)
    tr.add("operational.mc_choices", sum(k * v for k, v in stats.histogram.items()))
    tr.add("operational.mc_censored", stats.censored)


# (module, function, span name, count hook)
TARGETS = [
    (syntax, "parse", "syntax.parse", None),
    (typesys, "check_fin", "typesys.check", None),
    (typesys, "check_inf", "typesys.check", None),
    (transforms, "reduce_inf", "transforms.reduce", None),
    (interp, "compile_scheme", "interp.compile", _count_compile),
    (interp, "reachable", "interp.reachable", None),
    (solver, "kleene_series", "solver.kleene", _count_kleene),
    (solver, "solve_at_one", "solver.solve", None),
    (solver, "expected_steps", "solver.expected", None),
    (decide, "decide_past", "decide.decide", _count_decide),
    (decide, "verify_certificate", "decide.verify", _count_verify),
    (operational, "monte_carlo", "operational.mc", _count_mc),
    (operational, "enumerate_terminations", "operational.enum", None),
]
SPAN_NAMES = sorted({t[2] for t in TARGETS})
MAX_COUNTS = {"solver.coeff_bits_max", "decide.value_bits_max", "decide.interval_width_max"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.phase = "setup"  # "setup" or "round<k>"
        self.input = "setup"
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        self.counts[self.phase][name] += value

    def high(self, name: str, value: float) -> None:
        c = self.counts[self.phase]
        c[name] = max(c[name], value)

    def _wrap(self, fn, name: str, hook):
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "input": self.input,
                "phase": self.phase,
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if hook:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "phors_lab"]
        for module, fname, name, hook in TARGETS:
            orig = getattr(module, fname)
            wrapper = self._wrap(orig, name, hook)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> dict[str, dict[str, float]]:
        """phase -> span name -> summed self time (duration minus the part
        covered by child spans)."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            out[s["phase"]][s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return out

    def layer_metrics(self, traced_rounds: list[str]) -> dict[str, float]:
        """Set-up plus the median traced round, for every span's self time
        and every count; maxima are taken over all of them."""
        times = self.self_times()
        out: dict[str, float] = {}

        def combine(table, key):
            rounds = [table[r].get(key, 0.0) for r in traced_rounds]
            setup = table["setup"].get(key, 0.0)
            if key in MAX_COUNTS:
                return max([setup] + rounds)
            return setup + (statistics.median(rounds) if rounds else 0.0)

        for name in SPAN_NAMES:
            out[f"{name}_s"] = combine(times, name)
        keys = {k for phase in self.counts.values() for k in phase}
        for key in sorted(keys):
            out[key] = combine(self.counts, key)
        out["interp.registry_vars"] = len(algebra.REGISTRY)
        return out
