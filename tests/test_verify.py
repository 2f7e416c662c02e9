"""End-to-end verification: suite isolation and golden report records."""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from scbundle import verify
from scbundle.scenarios import SEED_ENV_VAR, load_scenario

GOLDEN = Path(__file__).parent / "golden"
FIELDS = ("check_id", "pass", "residual", "tolerance")


def _records(report_json: str) -> list:
    return [{k: r[k] for k in FIELDS} for r in json.loads(report_json)["records"]]


def _reduced_heisenberg(suites):
    # 13x13x49 = 8,281 orbit points and one probe
    scn = load_scenario("heisenberg-weyl")
    lattice = [dict(scn.lattice[0]), dict(scn.lattice[1]),
               dict(scn.lattice[2], lo=-24, hi=24)]
    return replace(scn, lattice=lattice, probes=dict(scn.probes, count=1),
                   suites=suites)


def _reduced_oscillator(suites):
    # t_final pi/2, law times 0.25 and 0.5, dt 2e-3
    scn = load_scenario("oscillator-evolution")
    return replace(scn, numerics=dict(scn.numerics, dt=0.002),
                   dynamics=dict(scn.dynamics, t_final=math.pi / 2,
                                 law_times=[0.25, 0.5]),
                   suites=suites)


def test_refined_judges_the_refinement_order():
    """A residual that decays at first order fails its order record; one at
    the roundoff floor cannot shrink and passes; the residual is evaluated
    at tau, then at tau/2."""
    steps = []

    def first_order(tk):
        steps.append(tk)
        return tk

    records = verify._refined("fd_check", "Eq. (0)", 1e-2, first_order, 1e-3, 1.85)
    assert steps == [1e-3, 5e-4]
    assert [r.check_id for r in records] == ["fd_check", "fd_check_order"]
    assert records[0].residual == 1e-3 and records[0].passed
    assert records[1].residual == pytest.approx(0.85) and not records[1].passed
    floor = verify._refined("fd_check", "Eq. (0)", 1e-2, lambda tk: 1e-12, 1e-3, 1.85)
    assert [r.residual for r in floor] == [1e-12, 0.0] and all(r.passed for r in floor)
    second_order = verify._refined("fd_check", "Eq. (0)", 1e-2, lambda tk: tk * tk,
                                   1e-3, 1.85)
    assert second_order[1].residual == 0.0


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


def _heisenberg_generators():
    # catalog 9x9x25 = 2,025-point generator lattice; the orbit lattice is
    # not built by these suites
    scn = load_scenario("heisenberg-weyl")
    return replace(scn, suites=["generators", "reconstruction"])


@pytest.mark.parametrize("name, build", [
    ("heisenberg-weyl-sections", lambda: _reduced_heisenberg(["sections"])),
    ("heisenberg-weyl-generators", _heisenberg_generators),
    ("oscillator-evolution-dynamics", lambda: _reduced_oscillator(["dynamics"])),
    ("oscillator-evolution-transforms",
     lambda: _reduced_oscillator(["sections", "generators", "reconstruction"])),
])
def test_reduced_suite_records_match_golden(name, build, monkeypatch):
    """The section calculus on a large Heisenberg orbit lattice, the
    Garding-smoothed generator identities and reconstruction on the catalog
    Heisenberg generator lattice, the evolution pipeline, and the section,
    generator and reconstruction suites of the oscillator family keep their
    records at the pinned seed."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    report = verify.run_verify(build())
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    assert _records(report.to_json()) == golden


def test_pointwise_recovery_redraws_points_the_shear_moves_out(monkeypatch):
    """At this seed the first draw of pointwise_operator_recovery pairs a
    point with an element whose shear moves it out of the window."""
    monkeypatch.setenv(SEED_ENV_VAR, "201")
    records = verify.run_verify(_reduced_heisenberg(["lie", "sections"])).records
    ids = [r.check_id for r in records]
    assert "sections_suite_error" not in ids
    recovery = [r for r in records if r.check_id == "pointwise_operator_recovery"]
    assert len(recovery) == 1 and recovery[0].passed


def test_convergence_table_matches_golden(monkeypatch):
    """The cubic-perturbed convergence table at t = 0.25, eps 0.08 / 0.04 /
    0.02 (one flow, one propagator and one split-step loop over the stack of
    per-eps packets) keeps its bytes."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    scn = load_scenario("cubic-perturbed-oscillator")
    scn = replace(scn, dynamics=dict(scn.dynamics, t_final=0.25))
    table = verify.run_convergence(scn, [0.08, 0.04, 0.02])
    golden = (GOLDEN / "cubic-perturbed-oscillator-convergence.csv").read_text()
    assert table.to_csv() == golden
