"""Command-line interface: subcommands, exit codes, JSON reports."""

import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phors_lab
from phors_lab import bundled_names, scheme_path
from phors_lab.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_NEGATIVE,
    EXIT_OK,
    main,
)

from conftest import LOWER_GRADE_ARGUMENT, VARIABLE_IN_GRADE_ZERO_ARGUMENT

F = Fraction

# C's linear copy takes two copies of A's linear type, !1 o -o !1 o -o !1
# o -o o, and so has more than 10^5 indexes; the source compiles.
LINEAR_OVER_CAP = (
    "C : !2 (!3 o -o o) -o !1 o -o o ; C f x = e ; "
    "A : !3 o -o o ; A x = x [1/4] e ; S = C A e ;"
)


def _path(name: str) -> str:
    return str(scheme_path(name))


def _python(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this phors_lab; it is killed
    after `timeout` seconds."""
    src = str(Path(phors_lab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def _assert_input_error(*argv: str) -> str:
    """A fresh CLI process exits 1 with one `error:` line and no output;
    returns that line."""
    proc = _python("-m", "phors_lab.cli", *argv)
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    return proc.stderr


# Over the index-set cap: F's type has (4^6)^3 points.
OVER_CAP = (
    "F : !3 o^6 -o !3 o^6 -o !3 o^6 -o o ; F x y z = e ; "
    "S = F <e,e,e,e,e,e> <e,e,e,e,e,e> <e,e,e,e,e,e> ;"
)
# Over the cap only in G's type and in the argument type of F, whose
# grade 0 admits only the empty multiset.
GRADE_ZERO_OVER_CAP = (
    "F : !0 (!9 (!9 o^3 -o o^3) -o o) -o o ;  F x = e ;\n"
    "G : !9 (!9 o^3 -o o^3) -o o ;  G h = pi_1 (h <e, e, e>) ;  S = F G ;\n"
)


class TestCheck:
    def test_accepts_well_typed(self, capsys):
        assert main(["check", _path("eq3")]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "accepted"

    def test_rejects_with_diagnostics(self, capsys):
        assert main(["check", _path("nonalg")]) == EXIT_NEGATIVE
        data = json.loads(capsys.readouterr().out)
        assert any("grade overflow" in d["message"] for d in data["diagnostics"])

    def test_infinitary_system_flag(self, capsys):
        assert main(["check", "--system", "inf", _path("dyck")]) == EXIT_OK
        assert main(["check", "--system", "fin", _path("dyck")]) == EXIT_NEGATIVE

    def test_missing_file(self):
        assert main(["check", "/no/such/file.phors"]) == EXIT_INPUT

    def test_syntax_error(self, tmp_path):
        bad = tmp_path / "bad.phors"
        bad.write_text("S = ;")
        assert main(["check", str(bad)]) == EXIT_INPUT


class TestAnalyze:
    def test_positive_verdict(self, capsys):
        assert main(["analyze", _path("geometric"), "--degree", "6"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["ast"] == "yes" and data["past"] == "yes"
        assert data["expected"] == "2/1"
        assert data["coefficients"][:3] == ["0/1", "1/2", "1/4"]

    def test_negative_verdict_exit_code(self, capsys):
        assert main(["analyze", _path("eq3")]) == EXIT_NEGATIVE
        data = json.loads(capsys.readouterr().out)
        assert data["ast"] == "no"
        assert data["p_term"] == "4/7"

    def test_critical_scheme_is_negative_for_past(self, capsys):
        assert main(["analyze", _path("randomwalk")]) == EXIT_NEGATIVE
        data = json.loads(capsys.readouterr().out)
        assert data["ast"] == "yes" and data["past"] == "no"

    def test_infinitary_input_is_reduced_first(self, capsys):
        assert main(["analyze", _path("dyck"), "--degree", "9"]) == EXIT_NEGATIVE
        data = json.loads(capsys.readouterr().out)
        assert any("reduction" in n for n in data["notes"])
        assert data["coefficients"][1] == "1/2"

    def test_json_report_written(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert (
            main(["analyze", _path("geometric"), "--json", str(out)]) == EXIT_OK
        )
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert data["version"] == 1
        assert data["certificates"]

    def test_ill_typed_input(self):
        assert main(["analyze", _path("nonalg")]) == EXIT_INPUT

    def test_open_scheme_is_an_input_error(self):
        message = _assert_input_error("analyze", _path("dyck_core"))
        assert message == "error: analysis requires a closed scheme\n"

    @pytest.mark.parametrize("text", [OVER_CAP, GRADE_ZERO_OVER_CAP], ids=["over-cap", "grade-zero"])
    def test_index_set_over_the_cap_is_inconclusive(self, tmp_path, text):
        path = tmp_path / "big.phors"
        path.write_text(text)
        proc = _python("-m", "phors_lab.cli", "analyze", str(path), timeout=10)
        assert proc.returncode == EXIT_INCONCLUSIVE
        assert proc.stdout == ""
        assert proc.stderr == "inconclusive: index-set size exceeds the cap of 100000\n"

    def test_negative_degree_is_an_input_error(self):
        _assert_input_error("analyze", _path("unit"), "--degree", "-1")

    @pytest.mark.parametrize(
        "argv",
        [
            ("transform", "linearize", _path("eq3"), "--verify", "-1"),
            ("simulate", _path("eq3"), "--trials", "-5"),
            ("simulate", _path("eq3"), "--cap", "-1"),
            ("simulate", _path("eq3"), "--seed", "-7"),
        ],
        ids=["verify", "trials", "cap", "seed"],
    )
    def test_negative_counts_are_input_errors(self, argv):
        _assert_input_error(*argv)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("S : o ; S = e [3/0] omega ;", "1:16: zero denominator in '3/0'"),
            ("S : o ; S = " + "(" * 3000 + "e" + ")" * 3000 + " ;", "input nested too deeply"),
        ],
        ids=["zero-denominator", "deep-nesting"],
    )
    def test_malformed_input_is_an_input_error(self, tmp_path, text, message):
        path = tmp_path / "bad.phors"
        path.write_text(text)
        assert message in _assert_input_error("check", str(path))

    @pytest.mark.parametrize("command", ["check", "analyze", "simulate"])
    def test_non_utf8_input_is_an_input_error(self, tmp_path, command):
        path = tmp_path / "bad.phors"
        path.write_bytes(b"S = e \xff ;")
        assert "can't decode byte 0xff" in _assert_input_error(command, str(path))


class TestTransform:
    def test_linearize_verify(self, capsys):
        rc = main(["transform", "linearize", _path("eq3"), "--verify", "10"])
        assert rc == EXIT_OK

    def test_linearize_verify_past_the_cap(self, tmp_path, capsys):
        # --verify compiles the source and runs the linear scheme, whose
        # index sets are over the cap.
        path = tmp_path / "copies.phors"
        path.write_text(LINEAR_OVER_CAP)
        assert main(["analyze", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["transform", "linearize", str(path), "--verify", "12"]) == EXIT_OK
        assert capsys.readouterr().err == "# coefficients equal to degree 12\n"

    def test_reduce_verify_against_enumeration(self, capsys):
        rc = main(["transform", "reduce", _path("dyck"), "--verify", "7"])
        assert rc == EXIT_OK

    def test_reduce_verify_budget_hit_is_inconclusive(self, tmp_path, capsys):
        # F x = F x loops without a choice, so enumerating it uses up the
        # step budget.  The probabilities found agree with the series
        # [0, 1/2, 0], but they are only lower bounds: inconclusive, not
        # a mismatch.
        path = tmp_path / "loop.phors"
        path.write_text("F : !1 o -o o ; F x = F x ; S = (F e) [1/2] e ;")
        assert main(["transform", "reduce", str(path), "--verify", "2"]) == EXIT_INCONCLUSIVE
        err = capsys.readouterr().err
        assert err == (
            "# inconclusive: a run used up the enumeration's budget of 1000000 steps\n"
        )

    def test_compose_round_trip(self, tmp_path, capsys):
        once = tmp_path / "once.phors"
        rc = main(
            [
                "transform", "compose", _path("dyck_core"), _path("brackets"),
                "--hole", "f", "--plug", "A", "--out", str(once),
            ]
        )
        assert rc == EXIT_OK
        closed = tmp_path / "closed.phors"
        rc = main(
            [
                "transform", "compose", str(once), _path("brackets"),
                "--hole", "g", "--plug", "B", "--out", str(closed),
            ]
        )
        assert rc == EXIT_OK
        capsys.readouterr()
        assert main(["analyze", str(closed), "--degree", "9"]) == EXIT_NEGATIVE
        data = json.loads(capsys.readouterr().out)
        assert data["coefficients"][1] == "1/2"
        assert data["coefficients"][9] == "7/256"

    def test_transform_output_reparses(self, capsys):
        from phors_lab.syntax import parse

        assert main(["transform", "linearize", _path("eq3")]) == EXIT_OK
        text = capsys.readouterr().out
        parse(text)

    def test_verify_rejected_for_compose(self, capsys):
        rc = main(
            [
                "transform", "compose", _path("dyck_core"), _path("brackets"),
                "--hole", "f", "--plug", "A", "--verify", "4",
            ]
        )
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("compose", _path("dyck_core"), "--hole", "f", "--plug", "A"),
             "compose needs a second scheme, --hole and --plug"),
            (("compose", _path("dyck_core"), _path("brackets"), "--plug", "A"),
             "compose needs a second scheme, --hole and --plug"),
            (("compose", _path("dyck_core"), _path("brackets"), "--hole", "f"),
             "compose needs a second scheme, --hole and --plug"),
            (("compose", _path("dyck_core"), _path("brackets"), "--hole", "f", "--plug", "A",
              "--verify", "3"),
             "--verify is only supported for linearize and reduce"),
            (("linearize", _path("eq3"), _path("eq3")),
             "linearize takes no second scheme, --hole or --plug"),
            (("reduce", _path("dyck"), "--hole", "f"),
             "reduce takes no second scheme, --hole or --plug"),
            (("linearize", _path("eq3"), "--plug", "A", "--verify", "4"),
             "linearize takes no second scheme, --hole or --plug"),
            # Before the missing first scheme is read.
            (("compose", "/no/such/file.phors", "--hole", "f"),
             "compose needs a second scheme, --hole and --plug"),
        ],
        ids=["no-second-scheme", "no-hole", "no-plug", "compose-verify",
             "linearize-second-scheme", "reduce-hole", "linearize-plug", "before-loading"],
    )
    def test_arguments_are_checked_before_any_work(self, argv, message):
        assert _assert_input_error("transform", *argv) == f"error: {message}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                LOWER_GRADE_ARGUMENT,
                "error: linearized scheme failed finitary checking: argument type mismatch\n",
            ),
            (
                VARIABLE_IN_GRADE_ZERO_ARGUMENT,
                "error: rule 'G': variable 'x' occurs more often than its copy count 1\n",
            ),
        ],
        ids=["lower-grade-argument", "variable-in-grade-zero-argument"],
    )
    def test_linearization_that_does_not_fit_is_an_input_error(self, tmp_path, text, message):
        path = tmp_path / "unfit.phors"
        path.write_text(text)
        assert _assert_input_error("transform", "linearize", str(path), "--verify", "4") == message


class TestSimulate:
    def test_simulate_reports_bounds(self, capsys):
        rc = main(
            ["simulate", _path("geometric"), "--trials", "300", "--seed", "7"]
        )
        assert rc == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["trials"] == 300
        lo, hi = data["p_term_bounds_99_7"]
        assert lo <= 1.0 <= hi

    def test_simulate_seed_reproducible(self, capsys):
        main(["simulate", _path("eq3"), "--trials", "200", "--seed", "4"])
        first = capsys.readouterr().out
        main(["simulate", _path("eq3"), "--trials", "200", "--seed", "4"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "text, message",
        [
            ("F x = x ; S = F ;", "under-applied non-terminal 'F'"),
            ("S : o ; S = pi_2 e ;", "projection index out of range"),
        ],
        ids=["under-applied", "projection"],
    )
    def test_stuck_run_is_an_input_error(self, tmp_path, text, message):
        path = tmp_path / "stuck.phors"
        path.write_text(text)
        assert message in _assert_input_error("simulate", str(path))


# Byte edits of a bundled file: (kind, position, byte).
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "insert", "delete"]),
        st.integers(0, 10**6),
        st.integers(0, 255),
    ),
    min_size=1,
    max_size=4,
)
_COMMANDS = [
    ["check"],
    ["analyze", "--degree", "6"],
    ["simulate", "--trials", "5", "--cap", "200"],
]


class TestErrorBoundary:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        name=st.sampled_from(bundled_names()),
        edits=_EDITS,
        command=st.sampled_from(_COMMANDS),
    )
    def test_byte_edits_end_in_an_exit_code(self, tmp_path_factory, name, edits, command):
        data = bytearray(scheme_path(name).read_bytes())
        for kind, pos, byte in edits:
            pos %= len(data) + 1
            if kind == "insert":
                data.insert(pos, byte)
            else:
                data[pos : pos + 1] = bytes([byte]) if kind == "replace" else b""
        path = tmp_path_factory.mktemp("fuzz") / f"{name}.phors"
        path.write_bytes(bytes(data))
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            code = main([command[0], str(path), *command[1:]])
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_NEGATIVE, EXIT_INCONCLUSIVE)

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "{dir}"),
            ("analyze", _path("unit"), "--json", "{dir}"),
            ("transform", "reduce", _path("dyck"), "--out", "{dir}"),
        ],
        ids=["analyze-directory", "json-directory", "out-directory"],
    )
    def test_unreadable_path_is_an_input_error(self, tmp_path, argv):
        message = _assert_input_error(*(a.format(dir=tmp_path) for a in argv))
        assert "Is a directory" in message


class TestColdStart:
    # Modules a launch should not pay for until a subcommand runs them.
    DEFERRED = ("dataclasses", "inspect", "importlib.resources", "typing",
                "phors_lab.operational", "phors_lab.transforms")

    def _loaded_after(self, statements: str) -> list[str]:
        """The deferred modules loaded after running statements in a fresh
        interpreter started with -S, so that site's own imports cannot
        hide one."""
        code = (f"import json, sys\n{statements}\n"
                f"print(json.dumps([m for m in {self.DEFERRED!r} if m in sys.modules]))")
        proc = _python("-S", "-c", code)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_cli_import_does_not_load_sympy(self):
        proc = _python(
            "-c", "import phors_lab.cli, sys; assert 'sympy' not in sys.modules"
        )
        assert proc.returncode == 0, proc.stderr

    def test_cli_import_loads_no_deferred_module(self):
        assert self._loaded_after("import phors_lab.cli") == []

    def test_analyze_loads_transforms_only_for_an_infinitary_scheme(self):
        run = "from phors_lab.cli import main\nassert main(['analyze', {!r}]) == {}"
        assert self._loaded_after(run.format(_path("unit"), EXIT_OK)) == []
        loaded = self._loaded_after(run.format(_path("dyck"), EXIT_NEGATIVE))
        assert loaded == ["phors_lab.transforms"]


class TestExitCodes:
    def test_all_four_codes_reachable(self, tmp_path, capsys):
        assert main(["check", _path("unit")]) == EXIT_OK
        assert main(["check", "/missing.phors"]) == EXIT_INPUT
        assert main(["check", _path("nonalg")]) == EXIT_NEGATIVE
        over_cap = tmp_path / "over_cap.phors"
        over_cap.write_text(OVER_CAP)
        assert main(["analyze", str(over_cap)]) == EXIT_INCONCLUSIVE
        capsys.readouterr()
        assert (EXIT_OK, EXIT_INPUT, EXIT_NEGATIVE, EXIT_INCONCLUSIVE) == (0, 1, 2, 3)
