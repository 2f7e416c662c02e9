"""The console script: every declared entry point imports, and ``verify``
writes byte-stable reports and maps outcomes to exit codes."""

import importlib
import tomllib
from pathlib import Path

import pytest

from scbundle import cli
from scbundle.report import CheckRecord, Report
from scbundle.scenarios import SEED_ENV_VAR

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.mark.parametrize("name, target", sorted(
    tomllib.loads(PYPROJECT.read_text())["project"]["scripts"].items()))
def test_console_script_target_imports(name, target):
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr))


def test_verify_exits_zero_and_rewrites_identical_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    outs = [tmp_path / "first.json", tmp_path / "second.json"]
    for out in outs:
        assert cli.main(["verify", "so2-rotor", "--format", "json", "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert b'"overall_pass": true' in outs[0].read_bytes()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_standard_output_and_out_file_hold_identical_bytes(fmt, tmp_path, monkeypatch,
                                                          capsys):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    out = tmp_path / f"report.{fmt}"
    assert cli.main(["verify", "so2-rotor", "--format", fmt]) == 0
    printed = capsys.readouterr().out
    assert cli.main(["verify", "so2-rotor", "--format", fmt, "--out", str(out)]) == 0
    assert printed.encode() == out.read_bytes()
    assert capsys.readouterr().out == ""


def test_exit_codes_for_a_failing_record_and_a_refused_scenario(monkeypatch, capsys):
    failing = Report("stub", (CheckRecord("stub_check", "Eq. (0)", 1.0, 0.5),), {})
    monkeypatch.setattr(cli, "run_verify", lambda scenario: failing)
    assert cli.main(["verify", "so2-rotor", "--format", "csv"]) == 1
    assert capsys.readouterr().out == failing.to_csv()
    assert cli.main(["verify", "no-such-scenario"]) == 2
    assert "no such scenario config" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["abc", "-5"])
def test_malformed_seed_variable_exits_two(seed, monkeypatch, capsys):
    monkeypatch.setenv(SEED_ENV_VAR, seed)
    assert cli.main(["verify", "so2-rotor"]) == 2
    assert SEED_ENV_VAR in capsys.readouterr().err
