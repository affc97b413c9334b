"""Benchmark of the phors-lab pipeline, end to end and per layer.

    python3 benchmarks/bench.py --workload {corpus,series,oracle,systems} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports phors-lab from src/.  One
client runs the workload's operations one at a time, in whole rounds,
until S seconds have passed.  Every output is checked.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1.  See README.md."""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBES = 5  # set-up launches in an untraced run, cold-start launches in a traced one
IMPORT_PROBES = 3  # `python -X importtime` launches in a traced run

# Each CPU of a shared 2-core machine switches between a fast and a slow
# state, and the mix drifts, so the same code runs up to 35% slower for
# minutes at a time.  A fixed stdlib workload, timed once per CAL_EVERY_S
# of measured time on the CPU the work runs on, measures the mix; times
# are reported at the speed at which it takes CAL_REF_S seconds on
# average.  README.md gives the measurements behind this.
CAL_REF_S = 0.015
CAL_EVERY_S = 0.2  # one calibration per this much measured time


@dataclass(frozen=True)
class _Node:
    fun: object
    arg: object


def _tree(depth: int):
    return depth if depth == 0 else _Node(_tree(depth - 1), _tree(depth - 1))


def _subst(t, value):
    return _Node(_subst(t.fun, value), _subst(t.arg, value)) if isinstance(t, _Node) else value


def calibrate() -> float:
    """Seconds taken by a fixed workload that uses the interpreter as the
    pipeline does: Fraction products of a truncated series, and a copy
    of a tree of small objects."""
    started = time.perf_counter()
    a = [Fraction(1, 2**i + 1) for i in range(56)]
    out = [Fraction(0)] * 56
    for i in range(56):
        for j in range(56 - i):
            out[i + j] += a[i] * a[j]
    _subst(_tree(12), 1)
    return time.perf_counter() - started


class Calibration:
    """Calibration samples spread evenly over the measured time: one for
    every CAL_EVERY_S seconds of operations and probes, taken as soon as
    the operation that covered them ends, so a 14 s child process weighs
    as much as 14 s of short operations."""

    def __init__(self) -> None:
        self.samples = [calibrate()]
        self._owed = 0.0

    def cover(self, seconds: float) -> None:
        self._owed += seconds
        while self._owed >= CAL_EVERY_S:
            self.samples.append(calibrate())
            self._owed -= CAL_EVERY_S

    def scale(self) -> float:
        """Factor from wall time to time at the reference speed."""
        usual = sorted(self.samples)[: max(1, len(self.samples) * 9 // 10)]  # without rare spikes
        return CAL_REF_S / statistics.mean(usual)


def pin_to_one_cpu() -> None:
    """Run this process, and the children it starts, on one CPU, so that
    the calibration samples the CPU the measured work runs on (the two
    CPUs of the machine are not always in the same state)."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # not Linux, or not permitted: run unpinned
        pass


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "series", "oracle", "systems"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the monotonic clock and exit (the set-up probe)")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Probes: fresh processes, timed from outside


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from launching a fresh benchmark process to its inputs
    being ready."""
    from workloads import run_child

    argv = [sys.executable, str(HERE / "bench.py"), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    started = time.monotonic()
    child = run_child(argv)
    if child.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {child.stderr.decode(errors='replace')}")
    return float(child.stdout.split()[-1]) - started


def cold_start_probe() -> tuple[float, list[str]]:
    """Wall time of a fresh `phors-lab analyze unit.phors`, and the
    problems found in its answer."""
    from workloads import analyze_argv, check_analysis, run_child

    started = time.perf_counter()
    child = run_child(analyze_argv("unit"))
    elapsed = time.perf_counter() - started
    problems, unanswered = check_analysis("unit", child)
    return elapsed, problems + ([unanswered] if unanswered else [])


def import_probe() -> tuple[float, float]:
    """Cumulative import time of phors_lab.cli and of sympy within it."""
    from workloads import run_child

    child = run_child([sys.executable, "-X", "importtime", "-c", "import phors_lab.cli"])
    cumulative = {}
    for line in child.stderr.decode().splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return cumulative["phors_lab.cli"], cumulative.get("sympy", 0.0)


# ---------------------------------------------------------------------------
# Rounds


def run_round(ops, tracer, label: str, cal: Calibration) -> list:
    """Run every operation once; only `op.run` is timed."""
    results = []
    if tracer:
        tracer.phase = label
        tracer.install()
    try:
        for op in ops:
            if tracer:
                tracer.input = op.name
            started = time.perf_counter()
            try:
                out, err = op.run(), None
            except Exception as e:  # the program raised: the operation failed
                out, err = None, e
            results.append((op, out, err, time.perf_counter() - started))
            cal.cover(results[-1][3])
    finally:
        if tracer:
            tracer.uninstall()
    return results


def judge(results, kinds: Counter) -> tuple[int, int]:
    """Check a round's outputs.  Returns (failed, wrong): an operation
    fails when the program raised, gave no answer, or gave a wrong one;
    a wrong answer also makes the run incorrect."""
    failed = wrong = 0
    for op, out, err, _ in results:
        if err is not None:
            failed += 1
            kinds[f"{type(err).__name__}: {str(err).split(';')[0][:100]}"] += 1
            continue
        problems, unanswered = op.check(out)
        if problems:
            failed += 1
            wrong += 1
            kinds[f"WRONG {op.name}: {problems[0]}"] += 1
        elif unanswered:
            failed += 1
            kinds[unanswered] += 1
    return failed, wrong


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "phors_lab" / "__init__.py").is_file():
        print(f"error: no phors-lab sources at {SRC / 'phors_lab'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import phors_lab

    if Path(phors_lab.__file__).resolve().parent != (SRC / "phors_lab").resolve():
        print(f"error: phors_lab imported from {phors_lab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    pin_to_one_cpu()
    tracer = None
    if args.trace:
        import phors_lab.cli  # noqa: F401  (loads every layer, so all of them get wrapped)
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        ops = workloads.setup(args.workload, args.seed, in_process=bool(args.trace))
    finally:
        if tracer:
            tracer.uninstall()
    if args.setup_only:
        print(repr(time.monotonic()))
        return 0
    specs = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))  # names and units

    probe_problems = []
    setup_times, cold_times, imports = [], [], []
    cal = Calibration()
    if not args.trace:
        for _ in range(PROBES):
            setup_times.append(setup_probe(args.workload, args.seed))
            cal.cover(setup_times[-1])
    else:
        imports = [import_probe() for _ in range(IMPORT_PROBES)]
        for _ in range(PROBES):
            elapsed, problems = cold_start_probe()
            cold_times.append(elapsed)
            cal.cover(elapsed)
            probe_problems += problems

    kinds: Counter = Counter()
    rounds = []  # (label, traced, wall seconds, failed, {operation: wall seconds})
    attempted = failed = wrong = 0
    child_rss_kb = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        k = len(rounds)
        traced = tracer is not None and k % 2 == 1  # traced runs alternate
        results = run_round(ops, tracer if traced else None, f"round{k}", cal)
        f, w = judge(results, kinds)
        attempted += len(results)
        failed += f
        wrong += w
        seconds = sum(r[3] for r in results)
        child_rss_kb = max([child_rss_kb] + [getattr(r[1], "rss_kb", 0) for r in results])
        rounds.append((f"round{k}", traced, seconds, f, {r[0].name: r[3] for r in results}))
        print(f"round {k}{' traced' if traced else ''}: {seconds:.3f} s wall, "
              f"{len(results)} operations, {f} failed", flush=True)
        if time.perf_counter() >= deadline and (tracer is None or len(rounds) % 2 == 0):
            break
    for kind, n in sorted(kinds.items()):
        print(f"failed x{n}: {kind}")
    for p in probe_problems:
        print(f"WRONG cold-start probe: {p}")

    scale = cal.scale()
    print(f"calibration: {len(cal.samples)} samples; times are reported at reference speed, "
          f"x{scale:.3f} wall time")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "rounds": rounds,
              "failures": dict(kinds), "calibration_s": cal.samples, "scale": scale}
    if tracer is None:
        if args.workload == "corpus":
            peak_mb = child_rss_kb / 1024
        else:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            # A launch takes either of two times, by the CPU state it meets, so the
            # mean of the launches is steadier than their median.
            "setup_s": statistics.mean(setup_times) * scale,
            "round_s": statistics.median(r[2] for r in rounds) * scale,
            "peak_rss_mb": peak_mb,
        }
        record["probes"] = {"setup_s": setup_times}
        wanted = specs["end_to_end"]
    else:
        traced_labels = [r[0] for r in rounds if r[1]]
        values = tracer.layer_metrics(traced_labels)
        values["cli.import_s"] = statistics.median(i[0] for i in imports)
        values["cli.import_sympy_s"] = statistics.median(i[1] for i in imports)
        values["cli.cold_start_s"] = statistics.mean(cold_times)
        record["probes"] = {"cli.cold_start_s": cold_times}
        values = {k: v * scale if k.endswith("_s") else v for k, v in values.items()}
        values["interp.useful_ratio"] = (
            values.get("interp.unknowns_reachable", 0) / values["interp.unknowns_interpreted"]
            if values.get("interp.unknowns_interpreted") else 0.0
        )
        values["operational.mc_trials_per_s"] = (
            values.get("operational.mc_trials", 0) / values["operational.mc_s"]
            if values["operational.mc_s"] else 0.0
        )
        plain = statistics.median(r[2] for r in rounds if not r[1])
        with_spans = statistics.median(r[2] for r in rounds if r[1])
        overhead = with_spans / plain - 1
        print(f"tracing overhead: {overhead:+.1%} (median round {with_spans:.3f} s traced, "
              f"{plain:.3f} s untraced, {len(traced_labels)} traced rounds)")
        record["overhead"] = overhead
        record["spans"] = tracer.spans
        wanted = specs["per_layer"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    result = {"correct": wrong == 0 and not probe_problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record["result"] = result
    out = workloads.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, default=str) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
