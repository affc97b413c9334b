"""Golden reports: the CLI's output on every bundled scheme is pinned.

For each bundled scheme, `analyze --degree 16`, `transform linearize`
and `transform reduce` must give the exit code, the first stderr line
and the stdout stored under `tests/golden/`.  The `file` entry of the
analyze report is dropped, since it names the checkout's path.

Run `PYTHONPATH=src python tests/test_golden.py` to rewrite the golden
files from the current code; review the diff before committing it."""

import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from phors_lab import bundled_names, scheme_path
from phors_lab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = {
    "analyze": ["analyze", "--degree", "16"],
    "linearize": ["transform", "linearize"],
    "reduce": ["transform", "reduce"],
}
CASES = [(name, cmd) for name in bundled_names() for cmd in COMMANDS]


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


if __name__ == "__main__":
    write_golden()
    sys.exit(0)
