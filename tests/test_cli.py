"""The console script: every declared entry point imports, and ``verify``
writes byte-stable reports and maps outcomes to exit codes."""

import importlib
import json
import os
import subprocess
import sys
import tomllib
from dataclasses import replace
from pathlib import Path

import pytest

from scbundle import cli
from scbundle.report import CheckRecord, Report
from scbundle.scenarios import SEED_ENV_VAR, load_scenario

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = PYPROJECT.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"


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


def test_convergence_exits_zero_with_the_golden_table(monkeypatch, capsys):
    """cubic-perturbed-oscillator at t_final 0.25 prints the golden CSV."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)

    def short(spec):
        scn = load_scenario(spec)
        return replace(scn, dynamics=dict(scn.dynamics, t_final=0.25))

    monkeypatch.setattr(cli, "load_scenario", short)
    assert cli.main(["convergence", "cubic-perturbed-oscillator"]) == 0
    golden = (GOLDEN / "cubic-perturbed-oscillator-convergence.csv").read_bytes()
    assert capsys.readouterr().out.encode() == golden


def test_convergence_without_eps_values_exits_two(capsys):
    """free-particle lists no eps, so there is no study to pass."""
    assert cli.main(["convergence", "free-particle"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least two eps values" in captured.err


def test_convergence_without_a_hamiltonian_exits_two(capsys):
    """heisenberg-weyl declares no Hamiltonian, so there is no study to run."""
    assert cli.main(["convergence", "heisenberg-weyl"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "declares no Hamiltonian" in captured.err


@pytest.mark.parametrize("seed", ["abc", "-5"])
def test_malformed_seed_variable_exits_two(seed, monkeypatch, capsys):
    monkeypatch.setenv(SEED_ENV_VAR, seed)
    assert cli.main(["verify", "so2-rotor"]) == 2
    assert SEED_ENV_VAR in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["directory", "undecodable"])
def test_unreadable_config_path_exits_two(kind, tmp_path, capsys):
    """A config path that exists but cannot be read as text (a directory,
    bytes that are not UTF-8) is refused with a one-line message."""
    path = tmp_path / "scenario.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{")
    assert cli.main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scbundle: ") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["directory", "missing-parent"])
def test_unwritable_out_exits_two(kind, tmp_path, monkeypatch, capsys):
    """An --out that cannot be opened for writing (a directory, a path under
    a missing directory) is an error, not a failed check: exit 2 with a
    one-line message and no report on standard output."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    out = tmp_path / "report.json"
    if kind == "directory":
        out.mkdir()
    else:
        out = tmp_path / "missing" / "report.json"
    assert cli.main(["verify", "translations-r2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("scbundle: ") and captured.err.count("\n") == 1


_NO_SCIPY_CHILD = """
import json, sys
sys.path.insert(0, {src!r})
import scbundle.cli, scbundle.verify
from scbundle import groups
for gid in groups.builtin_group_ids():
    g = groups.get_group(gid)
    groups.factorize_second_kind(groups.exp(g.algebra([0.5] * g.dim)))
codes = [scbundle.cli.main(["verify", name, "--out", {out!r}])
         for name in ("so2-rotor", "translations-r2", "metaplectic-so2",
                      "cubic-perturbed-oscillator", "free-particle", "oscillator-evolution")]
print(json.dumps({{"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}}))
"""


def test_the_package_runs_without_scipy(tmp_path):
    """scipy is a test-only dependency: a fresh isolated interpreter never
    loads it while it imports the CLI, exponentiates and factorizes in every
    built-in group, and verifies the catalog scenarios that run in under a
    second (the gauge layer and the exact Gaussian included)."""
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert not any(dep.startswith("scipy") for dep in project["dependencies"])
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])
    code = _NO_SCIPY_CHILD.format(src=str(SRC), out=str(tmp_path / "report.json"))
    env = {k: v for k, v in os.environ.items() if k != SEED_ENV_VAR}
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                          text=True, timeout=300, env=env)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert len(result["codes"]) == 6 and set(result["codes"]) <= {0, 1}
    assert result["scipy"] == []
