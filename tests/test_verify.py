"""End-to-end verification: suite isolation and golden report records."""

import json
from pathlib import Path

import pytest

from scbundle import verify
from scbundle.scenarios import SEED_ENV_VAR, load_scenario

GOLDEN = Path(__file__).parent / "golden"
FIELDS = ("check_id", "pass", "residual", "tolerance")


def _records(report_json: str) -> list:
    return [{k: r[k] for k in FIELDS} for r in json.loads(report_json)["records"]]


def test_suite_crash_is_recorded_and_other_suites_survive(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    scn = load_scenario("so2-rotor")

    def crash(*args):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(verify, "section_checks", crash)
    records = verify.run_verify(scn).records
    ids = [r.check_id for r in records]
    errors = [r for r in records if r.check_id == "sections_suite_error"]
    assert len(errors) == 1
    assert errors[0].paper_anchor == "error: ZeroDivisionError"
    assert not errors[0].passed
    assert "lie_jacobi_identity" in ids
    assert "reconstruction_identity" in ids


@pytest.mark.parametrize("name", ["so2-rotor", "translations-r2", "metaplectic-so2"])
def test_report_records_match_golden(name, monkeypatch):
    """Records at the pinned seed match the committed golden file (known
    FAILs included), and a rerun gives identical bytes."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    scn = load_scenario(name)
    first = verify.run_verify(scn).to_json()
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    assert _records(first) == golden
    assert verify.run_verify(scn).to_json() == first
