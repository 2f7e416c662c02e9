"""Scenario config validation: malformed configs raise ConfigError, and a
fuzz built from the schema table plants one fault per row."""

import copy
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from scbundle.errors import ConfigError
from scbundle.scenarios import (_ACTION_BUILDERS, _COORDINATE_REACH, _REQUIRED, _SCHEMA,
                                _validate, catalog_names, load_scenario)

LATTICE = [{"kind": "line", "spacing": 0.15, "lo": -4, "hi": 4},
           {"kind": "line", "spacing": 0.15, "lo": -4, "hi": 4},
           {"kind": "line", "spacing": 0.0225, "lo": -12, "hi": 12}]

# every field of the schema is set, so a fault can be planted at each row
BASE = {
    "name": "config-test",
    "group_id": "heisenberg",
    "action": "heisenberg-weyl",
    "gauge_id": "u1_phase",
    "hamiltonian": {"kind": "cubic-perturbed", "omega2": 1.0, "cubic": 0.1},
    "fiber": {"n": 1, "n_cut": 12},
    "anchor": {"S": 0.0, "P": [0.4], "Q": [-0.2]},
    "lattice": LATTICE,
    "generator_lattice": [dict(axis) for axis in LATTICE],
    "kernel_radius": [0.16, 0.16, 0.07],
    "numerics": {"dt": 0.001, "fd_tau": 0.001, "seed": 7,
                 "grid": {"lo": -16.0, "hi": 16.0, "points": 64}},
    "probes": {"count": 1, "max_degree": 3, "sigma": [0.4, 0.4, 0.35],
               "radius": [0.4, 0.4, 0.35]},
    "suites": ["lie", "sections", "generators", "reconstruction"],
    "strict_group_law": False,
    "dynamics": {"t_final": 1.0, "law_times": [0.25, 0.5], "eps_control": 0.05,
                 "spectrum_modes": 4},
    "gauge": {"theta_nodes": 48, "gauge_window": 10, "gauge_step_divisor": 8},
    "eps_list": [0.04, 0.02],
}


DELETE = object()

# edits of BASE into a valid oscillator config that runs every suite but gauge
OSCILLATOR = [(("group_id",), "real_line"), (("action",), "oscillator"),
              (("hamiltonian",), {"kind": "quadratic", "omega2": 1.0}),
              (("lattice",), [{"kind": "line", "spacing": 0.05, "lo": -40, "hi": 40}]),
              (("generator_lattice",), None), (("kernel_radius",), [0.12]),
              (("probes", "sigma"), [0.5]), (("probes", "radius"), [1.2]),
              (("suites",), ["lie", "dynamics", "sections", "generators", "reconstruction"])]

# each case: (path into the config, new value or DELETE) edits of BASE
MALFORMED = {
    "lattice-kind-missing": [(("lattice", 0, "kind"), DELETE)],
    "lattice-spacing-missing": [(("lattice", 1, "spacing"), DELETE)],
    "lattice-lo-missing": [(("lattice", 2, "lo"), DELETE)],
    "lattice-hi-missing": [(("lattice", 2, "hi"), DELETE)],
    "lattice-count-missing": [(("lattice", 0), {"kind": "cycle"})],
    "lattice-kind-unknown": [(("lattice", 0, "kind"), "spiral")],
    "lattice-spacing-text": [(("lattice", 0, "spacing"), "wide")],
    "generator-lattice-hi-missing": [(("generator_lattice",),
                                      [{"kind": "line", "spacing": 0.1, "lo": -2}] * 3)],
    "anchor-S-missing": [(("anchor", "S"), DELETE)],
    "anchor-P-missing": [(("anchor", "P"), DELETE)],
    "anchor-Q-missing": [(("anchor", "Q"), DELETE)],
    "anchor-Q-text": [(("anchor", "Q"), ["left"])],
    "n_cut-text": [(("fiber", "n_cut"), "twelve")],
    "n_cut-null": [(("fiber", "n_cut"), None)],
    "n-text": [(("fiber", "n"), "one")],
    "n-zero": [(("fiber", "n"), 0)],
    "seed-text": [(("numerics", "seed"), "lucky")],
    "seed-list": [(("numerics", "seed"), [1, 2])],
    "dt-text": [(("numerics", "dt"), "small")],
    "sections-probe-sizes-missing": [(("probes",), {"count": 1})],
    "generators-sigma-missing": [(("probes", "sigma"), DELETE)],
    "sigma-nan": [(("probes", "sigma"), [float("nan")] * 3)],
    "radius-negative": [(("probes", "radius"), -1.0)],
    "gauge-radius-missing": [(("probes", "radius"), DELETE), (("suites",), ["gauge"])],
    # each of these loaded before unknown top-level fields were refused
    "unknown-key-group-def": [(("group_def",), {"group_id": "heisenberg"})],
    "unknown-key-kernel-radius-typo": [(("kernel_raduis",), [0.16, 0.16, 0.07])],
    "unknown-key-probe-typo": [(("probe",), {"count": 2})],
    # the heisenberg lattice under a circle action
    "action-group-mismatch": [(("action",), "so2-rotor")],
    "fiber-number": [(("fiber",), 5)],
    "probes-number": [(("probes",), 3)],
    "dynamics-number": [(("dynamics",), 3)],
    "numerics-text": [(("numerics",), "fast")],
    "gauge-list": [(("gauge",), [48])],
    "hamiltonian-number": [(("hamiltonian",), 2)],
    "hamiltonian-kind-unknown": [(("hamiltonian",), {"kind": "quartic"})],
    "hamiltonian-cubic-text": [(("hamiltonian",), {"kind": "cubic-perturbed",
                                                   "cubic": "strong"})],
    "law-times-text": [(("dynamics",), {"law_times": "x"})],
    "law-times-negative": [(("dynamics",), {"law_times": [0.25, -0.5]})],
    "law-times-bool": [(("dynamics",), {"law_times": [True]})],
    # 0.0015 takes two steps of 7.5e-4, not steps of 1e-3
    "law-times-off-grid": [(("dynamics",), {"law_times": [0.25, 0.0015]})],
    "lattice-number": [(("lattice",), 5)],
    "suites-number": [(("suites",), 5)],
    "suites-nested-list": [(("suites",), [["sections"]])],
    "eps-list-number": [(("eps_list",), 5)],
    "generator-lattice-number": [(("generator_lattice",), 5)],
    "lattice-cycle-count-zero": [(("lattice", 0), {"kind": "cycle", "count": 0})],
    "lattice-line-lo-above-hi": [(("lattice", 1, "lo"), 5)],
    "lattice-spacing-zero": [(("lattice", 0, "spacing"), 0.0)],
    "lattice-spacing-negative": [(("lattice", 2, "spacing"), -0.0225)],
    "probes-count-zero": [(("probes", "count"), 0)],
    "probes-max-degree-fraction": [(("probes", "max_degree"), 2.5)],
    "probes-max-degree-text": [(("probes", "max_degree"), "three")],
    "lattice-two-axes": [(("lattice",), BASE["lattice"][:2])],
    "generator-lattice-two-axes": [(("generator_lattice",), BASE["lattice"][:2])],
    "generator-lattice-empty": [(("generator_lattice",), [])],
    "sections-without-lattice": [(("lattice",), [])],
    "gauge-without-lattice": [(("lattice",), []), (("suites",), ["gauge"])],
    "kernel-radius-text": [(("kernel_radius",), "wide")],
    "kernel-radius-two-axes": [(("kernel_radius",), [0.16, 0.16])],
    "kernel-radius-zero": [(("kernel_radius",), [0.16, 0.0, 0.07])],
    "radius-two-axes": [(("probes", "radius"), [0.4, 0.4])],
    "sigma-two-axes": [(("probes", "sigma"), [0.4, 0.4])],
    "radius-nested": [(("probes", "radius"), [[0.4, 0.4, 0.35]])],
    # each of these crashed with TypeError (an unhashable list) or loaded
    "action-list": [(("action",), ["heisenberg-weyl"])],
    "gauge-id-list": [(("gauge_id",), ["u1_phase"])],
    "strict-group-law-text": [(("strict_group_law",), "no")],
    "strict-group-law-integer": [(("strict_group_law",), 1)],
    # each of these loaded: a gauge field then failed or was truncated in
    # run_verify, a fiber field was truncated or read as a number
    "gauge-theta-nodes-text": [(("gauge",), {"theta_nodes": "x"})],
    "gauge-theta-nodes-zero": [(("gauge",), {"theta_nodes": 0})],
    "gauge-theta-nodes-one": [(("gauge",), {"theta_nodes": 1})],
    "gauge-theta-nodes-fraction": [(("gauge",), {"theta_nodes": 2.5})],
    "gauge-window-zero": [(("gauge",), {"gauge_window": 0})],
    "gauge-window-negative": [(("gauge",), {"gauge_window": -3})],
    "gauge-step-divisor-zero": [(("gauge",), {"gauge_step_divisor": 0})],
    "gauge-step-divisor-text": [(("gauge",), {"gauge_step_divisor": "x"})],
    "gauge-unknown-key": [(("gauge",), {"theta_nodes": 48, "bogus": 1})],
    "n-bool": [(("fiber", "n"), True)],
    "n-fraction": [(("fiber", "n"), 1.5)],
    "n_cut-fraction": [(("fiber", "n_cut"), 12.5)],
    # this loaded, and run_verify then raised a bare ValueError allocating
    # the dense fiber matrices
    "n_cut-beyond-cap": [(("fiber", "n_cut"), 10 ** 20)],
    # each of these loaded: an unknown sub-config field was dropped (the
    # seed typo ran at the default seed), a malformed grid reached
    # Scenario.grid
    "numerics-seed-typo": [(("numerics", "sead"), 5)],
    "fiber-n-cut-typo": [(("fiber", "ncut"), 4)],
    "probes-count-typo": [(("probes", "cout"), 1)],
    "dynamics-t-final-typo": [(("dynamics",), {"t_finale": 3})],
    "grid-text": [(("numerics", "grid"), "x")],
    "grid-one-point": [(("numerics", "grid"), {"lo": -16.0, "hi": 16.0, "points": 1})],
    "grid-lo-above-hi": [(("numerics", "grid"), {"lo": 16.0, "hi": -16.0, "points": 64})],
    "grid-lo-equals-hi": [(("numerics", "grid"), {"lo": 4.0, "hi": 4.0, "points": 64})],
    "grid-points-missing": [(("numerics", "grid"), {"lo": -16.0, "hi": 16.0})],
    "grid-hi-infinite": [(("numerics", "grid"), {"lo": -16.0, "hi": float("inf"),
                                                 "points": 64})],
    # each of these loaded: a negative t_final ran, a fractional or boolean
    # seed ran at seed 1, the omega typo ran at omega2 = 1, a fractional or
    # boolean lattice bound was read as an integer, an unknown axis field
    # was dropped
    "t-final-negative": [(("dynamics", "t_final"), -1)],
    "seed-fraction": [(("numerics", "seed"), 1.5)],
    "seed-bool": [(("numerics", "seed"), True)],
    "hamiltonian-omega-typo": [(("hamiltonian",), {"kind": "quadratic", "omega": 4})],
    "name-number": [(("name",), 5)],
    "lattice-lo-fraction": [(("lattice", 0, "lo"), 1.5)],
    "lattice-lo-bool": [(("lattice", 0, "lo"), True)],
    "lattice-axis-unknown-key": [(("lattice", 0, "width"), 2)],
    # each of these loaded and then ended in dynamics_suite_error, or (the
    # negative eps) in an InputError from run_convergence, or (the negative
    # seed) in a ValueError from run_verify
    "t-final-infinite": [(("dynamics", "t_final"), float("inf"))],
    "t-final-text": [(("dynamics", "t_final"), "x")],
    "spectrum-modes-text": [(("dynamics", "spectrum_modes"), "x")],
    "spectrum-modes-negative": [(("dynamics", "spectrum_modes"), -3)],
    "eps-control-text": [(("dynamics", "eps_control"), "x")],
    "eps-control-negative": [(("dynamics", "eps_control"), -0.1)],
    "omega2-nan": [(("hamiltonian", "omega2"), float("nan"))],
    "eps-list-negative": [(("eps_list",), [-0.1])],
    "seed-negative": [(("numerics", "seed"), -5)],
    # each of these loaded, and scbundle convergence then judged a study of
    # one eps, or failed on the listing order alone
    "eps-list-one-value": [(("eps_list",), [0.04])],
    "eps-list-increasing": [(("eps_list",), [0.02, 0.08])],
    "eps-list-repeated": [(("eps_list",), [0.05, 0.05])],
    "eps-list-not-monotone": [(("eps_list",), [0.08, 0.02, 0.04])],
    # this loaded, and its orbit sampling kept 81 of 2,025 points
    "anchor-S-beyond-reach": [(("anchor", "S"), 1e10)],
    # each of these loaded and then ended in one <suite>_suite_error
    "dynamics-without-hamiltonian": [(("hamiltonian",), None), (("suites",), ["dynamics"])],
    "sections-without-action": [(("action",), None)],
    "gauge-without-gauge-id": [(("gauge_id",), None), (("suites",), ["gauge"])],
    # each of these loaded, and then a run of its suites ended in
    # dynamics_suite_error (40 expected phases against the diagonal of the
    # propagator), in reconstruction_suite_error, or in sections_suite_error
    # with generator_conjugation failing (orbit keys wrapped in int64)
    "spectrum-modes-above-fiber-dimension": [(("dynamics", "spectrum_modes"), 40)],
    "oscillator-reconstruction-without-hamiltonian": OSCILLATOR + [
        (("hamiltonian",), None), (("suites",), ["reconstruction"])],
    "lattice-spacing-beyond-reach": [(("lattice", 0, "spacing"), 1e10)],
    # each of these loaded: a fiber of two variables then made run_verify
    # raise InputError, an anchor of two degrees of freedom ended in
    # sections_suite_error
    "n-two": [(("fiber", "n"), 2)],
    "anchor-two-degrees-of-freedom": [(("anchor", "P"), [0.0, 0.0]),
                                      (("anchor", "Q"), [1.0, 1.0])],
    "anchor-P-empty": [(("anchor", "P"), [])],
}


def _edit(edits) -> dict:
    """A copy of BASE with each (path, value) edit applied."""
    cfg = copy.deepcopy(BASE)
    for (*parents, key), value in edits:
        node = cfg
        for p in parents:
            node = node[p]
        if value is DELETE:
            del node[key]
        else:
            node[key] = value
    return cfg


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_raises_config_error(case, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_edit(MALFORMED[case])))
    with pytest.raises(ConfigError):
        load_scenario(str(path))


def test_well_formed_base_config_loads(tmp_path):
    """The unedited config is valid, so each malformed case fails for its
    own edit."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(BASE))
    scn = load_scenario(str(path))
    # the anchor is its state row S, P, Q, shared read-only
    assert scn.anchor.tolist() == [0.0, 0.4, -0.2] and not scn.anchor.flags.writeable
    action, _ = scn.build_action()
    assert len(scn.build_sampling(action)) == 9 * 9 * 25


def test_oscillator_config_loads(tmp_path):
    """The oscillator edits give a valid config, so a malformed case built on
    them fails for its own edit; the fiber holds as many spectrum modes as
    its dimension."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_edit(OSCILLATOR + [(("dynamics", "spectrum_modes"), 12)])))
    scn = load_scenario(str(path))
    assert scn.fiber_dim == scn.setting("dynamics.spectrum_modes") == 12
    action, _ = scn.build_action()
    assert len(scn.build_sampling(action)) == 81


def test_catalog_configs_load():
    names = catalog_names()
    assert len(names) == 7
    for name in names:
        assert load_scenario(name).name == name


def test_sizes_broadcast_to_the_group_dimension(tmp_path):
    """A scalar or a single value serves every axis."""
    cfg = dict(copy.deepcopy(BASE), kernel_radius=0.1)
    cfg["probes"].update(sigma=[0.4], radius=0.4)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    assert load_scenario(str(path)).kernel_radius == 0.1


def test_law_times_on_the_step_grid_load(tmp_path):
    cfg = dict(copy.deepcopy(BASE), dynamics={"law_times": [0.25, 0.5, 0.75, 1.0]})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    assert load_scenario(str(path)).dynamics["law_times"] == [0.25, 0.5, 0.75, 1.0]


@pytest.mark.parametrize("eps_list", [[], [0.08, 0.04, 0.02]])
def test_eps_list_absent_or_strictly_decreasing_loads(eps_list, tmp_path):
    """No study, or one whose eps fall strictly from each value to the
    next."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(copy.deepcopy(BASE), eps_list=eps_list)))
    assert load_scenario(str(path)).eps_list == eps_list


def test_each_action_acts_through_its_stated_group():
    """The group stated beside each action builder is the group the built
    action acts through."""
    for builder, group_id in _ACTION_BUILDERS.values():
        action, family = builder(6)
        assert action.group.group_id == group_id
        assert family.group is action.group


def test_settings_read_their_defaults_when_asked():
    """A resized copy reads the given value, and a field it leaves out reads
    the schema default."""
    scn = load_scenario("oscillator-evolution")
    assert replace(scn, dynamics=dict(scn.dynamics, t_final=0.25)).setting(
        "dynamics.t_final") == 0.25
    bare = replace(scn, dynamics={}, probes={}, numerics={})
    assert bare.setting("dynamics.t_final") == 1.0
    assert bare.setting("dynamics.eps_control") is None
    assert (bare.dt, bare.setting("probes.count"), bare.grid().size) == (1e-3, 10, 8192)


# --- fuzz built from the schema table ---------------------------------------

ROWS = sorted(path for path in _SCHEMA if path)

# rows whose valid values depend on other fields: the group fixes the action
# and the lattice, the law times fix dt, the grid needs lo < hi, and the
# spectrum modes fit in the fiber
LINKED = {"group_id", "action", "numerics.dt", "numerics.grid.lo",
          "numerics.grid.hi", "dynamics.spectrum_modes"}
FREE = [path for path in ROWS if "[]" not in path and path not in LINKED
        and _SCHEMA[path][0] not in ("mapping", "list")]

_WRONG = {
    "integer": ["x", 1.5, True, [1]],
    "number": ["x", True, float("nan"), float("inf"), [1.0]],
    "coordinate": ["x", True, float("nan"), 1e10, -1e300, [1.0]],
    "sizes": ["x", True, 0, [], [[0.4]], [-1.0], float("nan")],
    "string": [5, True, ["x"]],
    "bool": [1, 0, "no"],
    "list": [5, "x", {"a": 1}],
    "mapping": [5, "x", [1]],
}


def _keys(path: str) -> tuple:
    """Schema path -> keys into BASE, through the first item of each list."""
    return tuple(int(k) if k.isdigit() else k
                 for k in path.replace("[]", ".0").split("."))


def _bad(path: str):
    """One value of the wrong kind or out of bounds for the row at ``path``,
    or its deletion when the row is required."""
    kind, bound, default = _SCHEMA[path]
    wrong = ["no-such-name", 5, True, sorted(kind)[:1]] if not isinstance(kind, str) \
        else _WRONG[kind]
    options = [st.sampled_from(wrong)]
    if bound is not None:
        options.append(st.integers(max_value=bound - 1) if kind == "integer"
                       else st.floats(max_value=bound))
    if default is not None:
        options.append(st.none())
    if default is _REQUIRED and not path.endswith("[]"):
        options.append(st.just(DELETE))
    return st.one_of(options)


def _good(path: str):
    """A valid value for a row no other field constrains."""
    kind, bound, _ = _SCHEMA[path]
    positive = st.floats(min_value=0, exclude_min=True, allow_infinity=False)
    if not isinstance(kind, str):
        return st.sampled_from(sorted(kind))
    if kind == "integer":
        return st.integers(min_value=bound, max_value=bound + 16)
    if kind == "number":
        return positive if bound == 0 else st.floats(allow_nan=False, allow_infinity=False)
    if kind == "coordinate":
        return st.floats(min_value=-_COORDINATE_REACH, max_value=_COORDINATE_REACH)
    if kind == "sizes":
        return st.one_of(positive, st.lists(positive, min_size=1, max_size=1))
    return st.text() if kind == "string" else st.booleans()


@pytest.mark.parametrize("path", ROWS)
@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_single_fault_at_each_row_raises_config_error(path, data):
    value = data.draw(_bad(path), label=path)
    with pytest.raises(ConfigError):
        _validate(_edit([(_keys(path), value)]), "fuzz")


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(st.fixed_dictionaries({path: _good(path) for path in FREE}))
def test_valid_draws_load_and_build(values):
    scn = _validate(_edit([(_keys(path), v) for path, v in values.items()]), "fuzz")
    action, _ = scn.build_action()
    assert len(scn.build_sampling(action)) == 9 * 9 * 25
    scn.build_hamiltonian()
