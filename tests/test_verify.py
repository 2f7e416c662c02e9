"""End-to-end verification: suite isolation and golden report records."""

import json
import math
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from scbundle import dynamics, generators, verify
from scbundle.errors import ConfigError, PreconditionError
from scbundle.gauge import GaugeBundle
from scbundle.groups import as_matrix
from scbundle.scenarios import SEED_ENV_VAR, load_scenario
from scbundle.sections import BaseFunction, Section, gentle_probe_section

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


# the amplitude of each planted defect of the evolution records
DELTA = 1e-4


def _bent_flow(H):
    """The exact flow with a term DELTA t^2 on S, which is not additive in t."""
    flow = dynamics.exact_flow(H)

    def bent(ts, rows):
        out = flow(ts, rows)
        out[..., 0] += DELTA * np.square(ts)
        return out
    return bent


def _bent_propagator(H, dim):
    """The quadratic propagator with the phase exp(i DELTA t^2)."""
    propagator = dynamics.quadratic_propagator(H, dim)
    return lambda t: np.exp(1j * DELTA * t * t) * propagator(t)


def _bent_automorphism(H, t, dim):
    """The evolution automorphism with the phase exp(i DELTA) on its fibers."""
    automorphism = dynamics.evolution_automorphism(H, t, dim)

    def bent(X):
        Y, U = automorphism(X)
        return Y, np.exp(1j * DELTA) * U
    return bent


@pytest.mark.parametrize("name, defect, record, suite", [
    ("exact_flow", _bent_flow, "evolution_base_law", "dynamics"),
    ("quadratic_propagator", _bent_propagator, "evolution_fiber_law", "dynamics"),
    ("evolution_automorphism", _bent_automorphism, "evolution_pipeline_match",
     "reconstruction")], ids=["flow", "propagator", "automorphism"])
def test_planted_defect_fails_its_evolution_record(name, defect, record, suite, monkeypatch):
    """Each evolution record that reads the exact flow or the quadratic
    propagator passes on the reduced oscillator scenario and fails under one
    planted defect of what it reads: a non-additive action term fails the
    base law, a non-multiplicative phase the fiber law, and a constant phase
    on the automorphism's fibers the pipeline match."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    scn = _reduced_oscillator([suite])

    def verdict():
        found, = [r for r in verify.run_verify(scn).records if r.check_id == record]
        return found.passed

    assert verdict()
    monkeypatch.setattr(verify, name, defect)
    assert not verdict()


def test_refined_judges_the_refinement_order():
    """One residual table per step, evaluated once at tau and then once at
    tau/2: a residual that decays at first order fails its order record, one
    at the roundoff floor cannot shrink and passes, one at second order
    passes; the records come in the order of the checks.  The floor is
    10 eps_mach / (tau/2)^k: a faint residual of 1e-10 that shrinks at
    first order lies above the first-difference floor 4.4e-12, so it is
    judged and fails, while under the second-difference floor 8.9e-9 it
    reads 0."""
    steps = []

    def table(tk):
        steps.append(tk)
        return {"floor": 1e-12, "first": tk, "second": tk * tk, "faint": 1e-7 * tk}

    checks = [("first", "Eq. (0)", 1e-2, 1.85, 1), ("floor", "Eq. (1)", 1e-2, 1.85, 1),
              ("second", "Eq. (2)", 1e-2, 1.85, 1), ("faint", "Eq. (3)", 1e-2, 1.85, 1)]
    records = verify._refined(checks, table, 1e-3)
    assert steps == [1e-3, 5e-4]
    assert [r.check_id for r in records] == ["first", "first_order", "floor",
                                             "floor_order", "second", "second_order",
                                             "faint", "faint_order"]
    assert [r.paper_anchor for r in records[::2]] == ["Eq. (0)", "Eq. (1)", "Eq. (2)",
                                                      "Eq. (3)"]
    first, first_order, floor, floor_order, second, second_order, faint, faint_order = records
    assert first.residual == 1e-3 and first.passed
    assert first_order.residual == pytest.approx(0.85) and not first_order.passed
    assert [floor.residual, floor_order.residual] == [1e-12, 0.0]
    assert floor.passed and floor_order.passed
    assert second_order.residual == 0.0 and second_order.passed
    assert faint.residual == pytest.approx(1e-10) and faint.passed
    assert faint_order.residual == pytest.approx(0.85) and not faint_order.passed
    second_difference = verify._refined([("faint", "Eq. (3)", 1e-2, 1.85, 2)], table, 1e-3)
    assert second_difference[1].residual == 0.0 and second_difference[1].passed


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


def test_inconsistent_hamiltonian_fails_its_record_and_the_suite_runs(monkeypatch):
    """A Hamiltonian whose dH/dQ is off by a factor of 2 fails
    hamiltonian_consistency; the spec judges nothing, so the rest of the
    dynamics suite still runs and no suite error hides it."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    scn = load_scenario("cubic-perturbed-oscillator")
    spec = scn.build_hamiltonian()
    broken = replace(spec, grad=lambda P, Q: (P, 2.0 * spec.grad(P, Q)[1]))
    monkeypatch.setattr(type(scn), "build_hamiltonian", lambda self: broken)
    records = {r.check_id: r for r in verify.run_verify(replace(scn, suites=["dynamics"])).records}
    assert "dynamics_suite_error" not in records
    consistency = records["hamiltonian_consistency"]
    assert consistency.residual > consistency.tolerance and not consistency.passed
    assert {"fluctuation_unitarity", "energy_conservation", "rk4_fourth_order"} <= set(records)


def test_rk4_probe_that_does_not_move_is_a_precondition(monkeypatch):
    """Under the free particle the RK4 order probe (0, 0, 1) has P = 0 and
    stays put, under RK4 as under the exact flow: every coarse error is 0,
    and the dynamics suite reads a PreconditionError, not a division by
    zero."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    scn = replace(load_scenario("free-particle"), suites=["dynamics"])
    assert [(r.check_id, r.paper_anchor) for r in verify.run_verify(scn).records] == [
        ("dynamics_suite_error", "error: PreconditionError")]


@pytest.mark.parametrize("name", ["so2-rotor", "translations-r2", "metaplectic-so2",
                                  "cubic-perturbed-oscillator", "free-particle"])
def test_report_records_match_golden(name, monkeypatch):
    """Records at the pinned seed match the committed golden file (known
    FAILs and free-particle's dynamics_suite_error included), and a rerun
    gives identical bytes."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    scn = load_scenario(name)
    first = verify.run_verify(scn).to_json()
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    assert _records(first) == golden
    assert verify.run_verify(scn).to_json() == first


def test_report_environment_stamp(monkeypatch):
    """The environment stamp holds the steps as fixed-width floats and the
    fiber truncation and the seed as JSON integers."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    scn = replace(load_scenario("translations-r2"), suites=["lie"])
    env = json.loads(verify.run_verify(scn).to_json())["environment"]
    assert list(env.items()) == [("dt", "1.000000000000e-03"),
                                 ("fd_tau", "1.000000000000e-03"),
                                 ("n_cut", 8), ("seed", 1234)]
    assert type(env["n_cut"]) is type(env["seed"]) is int


def test_catalog_heisenberg_records_match_golden(monkeypatch):
    """The full catalog heisenberg-weyl report (20,449 orbit points, ten
    probes), whose section suite moves each probe on its support rows only,
    keeps the records of the dense section calculus it replaced."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    report = verify.run_verify(load_scenario("heisenberg-weyl"))
    golden = json.loads((GOLDEN / "heisenberg-weyl.json").read_text())
    assert _records(report.to_json()) == golden


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


def test_each_operator_is_applied_once_per_step(monkeypatch):
    """One identity-suite table, a whole generator suite (its fd-order
    record reads H(A) psi off the identity tables, and the conjugation
    identity reuses it where h A h^-1 = A) and the reconstruction tables
    apply no generator twice to one section at one step (H(A) psi and
    H(B) psi are shared), and the section suite transforms no section
    twice by one element (commuting products and products equal to an
    element included)."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    seen, alive = [], []

    def record(module, name, key):
        original = getattr(module, name)

        def wrapped(*args):
            alive.append(args)    # no section is freed, so no id is reused
            seen.append(key(*args))
            return original(*args)
        monkeypatch.setattr(module, name, wrapped)

    def apply_key(A, psi, action, tau):
        return tuple(A.coords), id(psi), tau

    record(generators, "generator_apply", apply_key)
    record(verify, "generator_apply", apply_key)
    record(verify, "section_transform",
           lambda action, g, psi: (as_matrix(g).tobytes(), id(psi)))

    scn = _heisenberg_generators()
    action, family = scn.build_action()
    sampling = scn.build_sampling(action, generator_scale=True)
    rng = scn.rng()
    probe = gentle_probe_section(sampling, rng, scn.max_degree,
                                 scn.probe_size("generators"))
    psi = generators.garding_smooth(
        generators.lattice_kernel(sampling, scn.kernel_radius), probe, action)
    G = action.group
    A = G.algebra([1.0, 0.0, 0.0])
    generators.identity_suite(
        A, G.algebra([0.0, 1.0, 0.0]), verify._smooth_alpha(), psi,
        generators.generator_apply(A, psi, action, verify.FD_TAU),
        generators.generator_apply(A, psi, action, 2 * verify.FD_TAU), action,
        verify.FD_TAU, conjugator=verify._lattice_elements(sampling)[3])
    assert seen and len(set(seen)) == len(seen)

    seen.clear()
    verify.reconstruction_checks(scn, action, family, rng)
    assert {tau for *_, tau in seen} == {verify.FD_TAU, verify.FD_TAU / 2}
    assert len(set(seen)) == len(seen)

    seen.clear()
    scn = load_scenario("translations-r2")
    verify.generator_checks(scn, scn.build_action()[0], scn.rng())
    assert seen and len(set(seen)) == len(seen)

    seen.clear()
    verify.section_checks(scn, scn.build_action()[0], scn.rng())
    assert seen and len(set(seen)) == len(seen)


# smoothed-field evaluations in one identity-suite table with a conjugator,
# H(A) psi given at the table's step and at twice it: two per generator block
# on psi (H(B), H(A + B), H(h A h^-1), H([A, B]) and the conjugation's left
# side) and four per nested one (H(A) H(B) and H(B) H(A)); the homogeneity
# term and the multiplication and pairing identities read the steps of the
# given H(A) psi, memoised outside the table.  A Section-level conjugation,
# which also samples U_{h^-1} psi and the two steps of H(A) on it, makes 21.
# The table's own point sets are never stored, so every table on the same psi
# makes the same count.
IDENTITY_TABLE_SMOOTHINGS = 18


def test_identity_table_evaluates_only_what_it_reads(monkeypatch):
    """Work-count guard: one identity-suite table of the generators suite on
    the reduced heisenberg-weyl scenario, its conjugator given, evaluates the
    smoothed field a pinned number of times, each one pass over all Garding
    nodes (counted as calls of the probe's field)."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    scn = _reduced_heisenberg(["generators"])
    action, _ = scn.build_action()
    sampling = scn.build_sampling(action, generator_scale=True)
    probe = gentle_probe_section(sampling, scn.rng(), scn.max_degree,
                                 scn.probe_size("generators"))
    calls = []

    def counted(mats):
        calls.append(len(mats))
        return probe.live_field(mats)

    kernel = generators.lattice_kernel(sampling, scn.kernel_radius)
    psi = generators.garding_smooth(
        kernel, Section(sampling, probe.block, counted, probe.modes, probe.rows), action)
    G = action.group
    A, tau = G.algebra([1.0, 0.0, 0.0]), verify.FD_TAU
    HA = generators.generator_apply(A, psi, action, tau)
    HA2 = generators.generator_apply(A, psi, action, 2 * tau)
    calls.clear()
    generators.identity_suite(A, G.algebra([0.0, 1.0, 0.0]), verify._smooth_alpha(),
                              psi, HA, HA2, action, tau,
                              conjugator=verify._lattice_elements(sampling)[3])
    nodes = len(kernel.weights)
    assert nodes > 1 and set(calls) == {len(sampling)}
    assert len(calls) == IDENTITY_TABLE_SMOOTHINGS * nodes


def _counting(probe, calls):
    """``probe`` with a field that appends the size of each batch to ``calls``."""
    def counted(mats):
        calls.append(len(mats))
        return probe.live_field(mats)
    return Section(probe.sampling, probe.block, counted, probe.modes, probe.rows)


def _counted_identity_table():
    """The generators suite's smoothed probe on the reduced heisenberg-weyl
    scenario, its probe field counting its calls, and one identity-suite
    table on it at the catalog fd step, H(A) psi applied before the table:
    (calls, kernel nodes, table, smoothed psi)."""
    scn = _reduced_heisenberg(["generators"])
    action, _ = scn.build_action()
    sampling = scn.build_sampling(action, generator_scale=True)
    probe = gentle_probe_section(sampling, scn.rng(), scn.max_degree,
                                 scn.probe_size("generators"))
    calls = []
    kernel = generators.lattice_kernel(sampling, scn.kernel_radius)
    psi = generators.garding_smooth(kernel, _counting(probe, calls), action)
    G = action.group
    A, tau = G.algebra([1.0, 0.0, 0.0]), verify.FD_TAU
    HA = generators.generator_apply(A, psi, action, tau)
    HA2 = generators.generator_apply(A, psi, action, 2 * tau)

    def table(alpha=verify._smooth_alpha()):
        return generators.identity_suite(
            A, G.algebra([0.0, 1.0, 0.0]), alpha, psi, HA, HA2, action, tau,
            conjugator=verify._lattice_elements(sampling)[3])
    return calls, len(kernel.weights), table, psi


def test_identity_tables_on_one_psi_evaluate_alike(monkeypatch):
    """A second identity-suite table on the same smoothed psi evaluates the
    smoothed field as often as the first: the first table's point sets are
    never stored, and the two give the same residuals."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    calls, nodes, table, _ = _counted_identity_table()
    counts, results = [], []
    for _ in range(2):
        calls.clear()
        results.append(table())
        counts.append(len(calls))
    assert counts == [IDENTITY_TABLE_SMOOTHINGS * nodes] * 2
    assert results[0] == results[1]


def test_identity_table_memo_is_dropped_when_the_table_raises(monkeypatch):
    """A table that raises (here in the multiplication identity, after the
    linearity, conjugation and commutator identities have evaluated their
    point sets) closes on the way out: a point set evaluated after it is
    stored again, and the next table evaluates the smoothed field the
    pinned number of times."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    calls, nodes, table, psi = _counted_identity_table()

    def broken(rows):
        raise RuntimeError("alpha fails")

    calls.clear()
    with pytest.raises(RuntimeError, match="alpha fails"):
        table(BaseFunction(batch=broken))
    assert calls
    outside = psi.sampling.group_mats[::3]
    assert psi.field(outside) is psi.field(outside)
    calls.clear()
    table()
    assert len(calls) == IDENTITY_TABLE_SMOOTHINGS * nodes


# probe-field evaluations in one generators suite: the smoothed lattice, the
# steps of H(A) psi, two identity tables and the smoothing checks
GENERATOR_SUITE_PROBE_CALLS = {"translations-r2": 187, "so2-rotor": 211,
                               "heisenberg-weyl-reduced": 863}
# generator applications in one generators suite: H(A) psi at three steps and
# per identity table H(B), H(A + B), the two nested ones, H([A, B]), the
# multiplication identity's and, where h A h^-1 differs from A, H(h A h^-1)
GENERATOR_SUITE_APPLY_CALLS = {"translations-r2": 15, "so2-rotor": 17,
                               "heisenberg-weyl-reduced": 17}


def _so2_rotor_generators(tmp_path):
    """The catalog so2-rotor config with the generators suite added, which
    needs a kernel radius: 0.3 on the 48-point circle."""
    cfg = json.loads(resources.files("scbundle").joinpath("scenarios")
                     .joinpath("so2-rotor.json").read_text())
    cfg.update(kernel_radius=[0.3], suites=cfg["suites"] + ["generators"])
    path = tmp_path / "so2-rotor.json"
    path.write_text(json.dumps(cfg))
    return load_scenario(str(path))


@pytest.mark.parametrize("name", sorted(GENERATOR_SUITE_PROBE_CALLS))
def test_generator_suite_probe_evaluations_are_pinned(name, monkeypatch, tmp_path):
    """Work-count guard: one generators suite calls its probe's field and
    applies a generator a pinned number of times, translations-r2 and
    so2-rotor (its catalog config with the generators suite added) at
    catalog size and heisenberg-weyl on the reduced scenario; an identity
    table that stopped reading the point sets memoised before it (psi's
    lattice, the steps of H(A) psi) or applied H(2A) psi instead of reading
    H(A) psi at twice its step would raise a count."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    calls, applies = [], []
    make_probe = verify.gentle_probe_section
    monkeypatch.setattr(verify, "gentle_probe_section",
                        lambda *args: _counting(make_probe(*args), calls))
    apply = generators.generator_apply

    def counted_apply(*args):
        applies.append(args[0])
        return apply(*args)
    monkeypatch.setattr(generators, "generator_apply", counted_apply)
    monkeypatch.setattr(verify, "generator_apply", counted_apply)
    if name == "heisenberg-weyl-reduced":
        scn = _reduced_heisenberg(["generators"])
    elif name == "so2-rotor":
        scn = _so2_rotor_generators(tmp_path)
    else:
        scn = load_scenario(name)
    records = verify.generator_checks(scn, scn.build_action()[0], scn.rng())
    assert all(r.passed for r in records)
    assert len(calls) == GENERATOR_SUITE_PROBE_CALLS[name]
    assert len(applies) == GENERATOR_SUITE_APPLY_CALLS[name]


def test_gauge_suite_builds_each_realization_once(monkeypatch):
    """A metaplectic-so2 verify builds the drift-free action once (shared by
    every suite) and the drifted one once."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    scn = load_scenario("metaplectic-so2")
    built = []
    plain_action, plain_metaplectic = scn.build_action, verify.metaplectic_action

    def build_action():
        built.append("scenario action")
        return plain_action()

    def metaplectic_action(dim, drift=False):
        built.append(f"metaplectic drift={drift}")
        return plain_metaplectic(dim, drift=drift)

    monkeypatch.setattr(scn, "build_action", build_action)
    monkeypatch.setattr(verify, "metaplectic_action", metaplectic_action)
    verify.run_verify(scn)
    assert sorted(built) == ["metaplectic drift=True", "scenario action"]


def test_gauge_suite_residual_evaluations_are_pinned(monkeypatch):
    """Work-count guard: one metaplectic-so2 gauge suite evaluates the full
    invariance residual four times (the built section once, then the outputs
    of 7, of 25, and the multiplied section, which are writeable); the eight
    transforms of the built section read its memo.  Without the memo the
    suite makes twelve."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    scn = load_scenario("metaplectic-so2")
    evaluated = []
    residual = GaugeBundle._residual

    def counted(bundle, values):
        evaluated.append(values)
        return residual(bundle, values)
    monkeypatch.setattr(GaugeBundle, "_residual", counted)
    action, family = scn.build_action()
    records = verify.gauge_checks(scn, action, family, scn.rng())
    assert {r.check_id: r.passed for r in records}["transform_preserves_invariance"]
    assert len(evaluated) == 4


def test_second_metaplectic_verify_keeps_its_bytes(monkeypatch):
    """Two metaplectic-so2 verifies in one process serialise to the same
    bytes: nothing memoised by the first bundle reaches the second."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    first = verify.run_verify(load_scenario("metaplectic-so2")).to_json()
    assert verify.run_verify(load_scenario("metaplectic-so2")).to_json() == first


def test_pointwise_recovery_redraws_points_the_shear_moves_out(monkeypatch):
    """At this seed the first draw of pointwise_operator_recovery pairs a
    point with an element whose shear moves it out of the window."""
    monkeypatch.setenv(SEED_ENV_VAR, "201")
    records = verify.run_verify(_reduced_heisenberg(["lie", "sections"])).records
    ids = [r.check_id for r in records]
    assert "sections_suite_error" not in ids
    recovery = [r for r in records if r.check_id == "pointwise_operator_recovery"]
    assert len(recovery) == 1 and recovery[0].passed


@pytest.mark.parametrize("errors", [[], [0.1]])
def test_monotone_flag_refuses_fewer_than_two_rows(errors):
    """A table of one row or none compares nothing, so its flag is not a
    pass; an empty study is still a table, but only of a scenario with a
    Hamiltonian."""
    table = verify.ConvergenceTable([verify.ConvergenceRow(0.05, e) for e in errors])
    with pytest.raises(PreconditionError, match="at least two eps"):
        table.monotone_decreasing
    assert verify.run_convergence(load_scenario("free-particle"), []).rows == []
    with pytest.raises(ConfigError, match="declares no Hamiltonian"):
        verify.run_convergence(load_scenario("heisenberg-weyl"), [])


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
