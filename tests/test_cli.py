"""Command-line interface: subcommands, exit codes, JSON reports."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import phors_lab
from phors_lab import scheme_path
from phors_lab.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_NEGATIVE,
    EXIT_OK,
    main,
)

F = Fraction


def _path(name: str) -> str:
    return str(scheme_path(name))


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this phors_lab."""
    src = str(Path(phors_lab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def _assert_input_error(*argv: str) -> None:
    """A fresh CLI process exits 1 with one `error:` line and no output."""
    proc = _python("-m", "phors_lab.cli", *argv)
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


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

    def test_negative_degree_is_an_input_error(self):
        _assert_input_error("analyze", _path("unit"), "--degree", "-1")

    @pytest.mark.parametrize(
        "argv",
        [
            ("transform", "linearize", _path("eq3"), "--verify", "-1"),
            ("simulate", _path("eq3"), "--trials", "-5"),
            ("simulate", _path("eq3"), "--cap", "-1"),
        ],
        ids=["verify", "trials", "cap"],
    )
    def test_negative_counts_are_input_errors(self, argv):
        _assert_input_error(*argv)


class TestTransform:
    def test_linearize_verify(self, capsys):
        rc = main(["transform", "linearize", _path("eq3"), "--verify", "10"])
        assert rc == EXIT_OK

    def test_reduce_verify_against_enumeration(self, capsys):
        rc = main(["transform", "reduce", _path("dyck"), "--verify", "7"])
        assert rc == EXIT_OK

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


class TestColdStart:
    def test_cli_import_does_not_load_sympy(self):
        proc = _python(
            "-c", "import phors_lab.cli, sys; assert 'sympy' not in sys.modules"
        )
        assert proc.returncode == 0, proc.stderr


class TestExitCodes:
    def test_all_four_codes_reachable(self, tmp_path, capsys):
        assert main(["check", _path("unit")]) == EXIT_OK
        assert main(["check", "/missing.phors"]) == EXIT_INPUT
        assert main(["check", _path("nonalg")]) == EXIT_NEGATIVE
        capsys.readouterr()
        assert EXIT_INCONCLUSIVE == 3  # reserved for unresolved solves
