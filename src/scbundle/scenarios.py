"""Scenario configuration: the JSON schema, the shipped catalog, and the
construction of runtime objects (actions, samplings, probes, Hamiltonians)
from a validated config.

The table ``_SCHEMA`` is the schema.  It has one row per config field, by
path (``dynamics.t_final``; ``lattice[].spacing`` for each item of a list),
giving the field's kind, its bound, and its default or ``_REQUIRED``.  The
known fields of a mapping are the rows under it.  ``_walk`` checks a config
against the table; ``_validate`` then applies the rules that tie fields
together or cap them: the fiber truncation; lattice axes per group
coordinate, their reach and kind (a cycle on a periodic coordinate, a line
on any other), and a line window holding step 0; an action's group; the
spectrum modes within the fiber; the unit frequency that the oscillator
action and the spectrum oracle assume; a ``dynamics.t_final`` of at least
one step; a ``numerics.dt`` of at most the ansatz checks' time 1 when they
run; the quadratic Hamiltonian whose exact flow the law check reads; an
``eps_list`` of at least two strictly decreasing values; what each suite
needs under its action, one probe size included; a generators-suite kernel
within its window; the metaplectic action under the gauge suite; and, under
a harmonic action (a rotation about P = Q = 0), an anchor off the centre and
a line window shorter than a turn.  So every sampling of a loaded config
holds distinct base points.  A ``Scenario`` keeps its sub-configs as given,
and ``Scenario.setting`` reads each default from the table when asked, so a
resized copy (``dataclasses.replace``) keeps them.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .actions import (heisenberg_weyl_action, metaplectic_action, oscillator_action,
                      so2_rotor_action, translations_r2_action)
from .dynamics import cubic_perturbed_spec, quadratic_hamiltonian_spec
from .errors import ConfigError, InputError
from .generators import kernel_steps
from .groups import builtin_group_ids, get_group
from .sections import LatticeAxis, OrbitSampling, check_axis_kinds

__all__ = ["Scenario", "load_scenario", "catalog_names", "SEED_ENV_VAR"]

SEED_ENV_VAR = "SCBUNDLE_SEED"

# each action's builder and the group it acts through
_ACTION_BUILDERS = {
    "oscillator": (oscillator_action, "real_line"),
    "heisenberg-weyl": (heisenberg_weyl_action, "heisenberg"),
    "translations-r2": (translations_r2_action, "translations_r2"),
    "so2-rotor": (so2_rotor_action, "so2"),
    "metaplectic": (metaplectic_action, "so2"),
}

# each Hamiltonian kind's builder, called with omega2 and cubic
_HAMILTONIANS = {
    "quadratic": lambda omega2, cubic: quadratic_hamiltonian_spec(omega2),
    "cubic-perturbed": cubic_perturbed_spec,
}

# the actions whose base flow is the unit rotation about P = Q = 0 (the
# harmonic oscillator's), whose orbit meets itself again after a turn of 2 pi
_HARMONIC_ACTIONS = ("oscillator", "so2-rotor", "metaplectic")

# the fields a lattice axis of each kind holds beside its kind
_AXES = {"line": ("spacing", "lo", "hi"), "cycle": ("count",)}

# each suite: the top-level fields it needs set, and the probe size it
# reads, if any
_SUITES = {
    "lie": ((), None),
    "dynamics": (("hamiltonian",), None),
    "sections": (("action", "lattice"), "radius"),
    "generators": (("action", "lattice", "kernel_radius"), "sigma"),
    "reconstruction": (("action", "lattice"), "sigma"),
    "gauge": (("action", "lattice"), "radius"),
}

# the fields a suite needs beyond _SUITES under one action: the
# reconstruction suite compares the oscillator family with its evolution
_ACTION_SUITES = {("oscillator", "reconstruction"): ("hamiltonian",)}

_REQUIRED = object()

# the largest anchor coordinate and line axis reach (|lo|, |hi| times the
# spacing): a float there resolves 2.2e-7, finer than every suite tolerance
_COORDINATE_REACH = 1e9

# at the centre of a harmonic action's orbit every sample is one base point,
# on which the suites pass as on a whole orbit; at this floor a 48-point
# orbit's neighbours stay 1.3e-7 apart, a hundredfold the lattice alignment
_MIN_ORBIT_RADIUS = 1e-6

# every fiber operator is a dense complex (n_cut, n_cut) array, and a flow
# diagonalises one per step at O(n_cut^3); 256 (1 MiB a matrix) is 8 times
# the catalog's largest fiber
_MAX_N_CUT = 256


def _axis_rows(lattice: str) -> dict:
    # an axis's own fields are required by its kind (checked in _validate)
    return {f"{lattice}[]": ("mapping", None, _REQUIRED),
            f"{lattice}[].kind": (_AXES, None, _REQUIRED),
            f"{lattice}[].spacing": ("number", 0, None),
            f"{lattice}[].lo": ("integer", None, None),
            f"{lattice}[].hi": ("integer", None, None),
            f"{lattice}[].count": ("integer", 1, None)}


# path -> (kind, bound, default).  A kind is "mapping", "list", "string",
# "bool", "integer", "number" (finite), "coordinate" (a number within
# _COORDINATE_REACH), "sizes" (a positive number or a list of them) or a
# table (a mapping or a tuple) whose entries the value must be one of.  An
# integer is at least its bound, a number above it.  null stands for a field
# whose default is null; "" is the config itself.
_SCHEMA = {
    "": ("mapping", None, _REQUIRED),
    "name": ("string", None, _REQUIRED),
    "group_id": (builtin_group_ids(), None, _REQUIRED),
    "action": (_ACTION_BUILDERS, None, None),
    "hamiltonian": ("mapping", None, None),
    "hamiltonian.kind": (_HAMILTONIANS, None, _REQUIRED),
    "hamiltonian.omega2": ("number", None, 1.0),
    "hamiltonian.cubic": ("number", None, 0.1),
    "fiber": ("mapping", None, _REQUIRED),
    "fiber.n_cut": ("integer", 4, _REQUIRED),
    "anchor": ("mapping", None, {"S": 0.0, "P": [0.0], "Q": [1.0]}),
    "anchor.S": ("coordinate", None, _REQUIRED),
    "anchor.P": ("list", None, _REQUIRED),
    "anchor.P[]": ("coordinate", None, _REQUIRED),
    "anchor.Q": ("list", None, _REQUIRED),
    "anchor.Q[]": ("coordinate", None, _REQUIRED),
    "lattice": ("list", None, []),
    **_axis_rows("lattice"),
    "generator_lattice": ("list", None, None),
    **_axis_rows("generator_lattice"),
    "kernel_radius": ("sizes", None, None),
    "numerics": ("mapping", None, {}),
    "numerics.dt": ("number", 0, 1e-3),
    "numerics.seed": ("integer", 0, 1234),
    "numerics.grid": ("mapping", None, {"lo": -16.0, "hi": 16.0, "points": 8192}),
    "numerics.grid.lo": ("number", None, _REQUIRED),
    "numerics.grid.hi": ("number", None, _REQUIRED),
    "numerics.grid.points": ("integer", 2, _REQUIRED),
    "probes": ("mapping", None, {}),
    "probes.count": ("integer", 1, 10),
    "probes.max_degree": ("integer", 0, 3),
    "probes.sigma": ("sizes", None, None),
    "probes.radius": ("sizes", None, None),
    "suites": ("list", None, []),
    "suites[]": (_SUITES, None, _REQUIRED),
    "dynamics": ("mapping", None, {}),
    "dynamics.t_final": ("number", 0, 1.0),
    "dynamics.law_times": ("list", None, []),
    "dynamics.law_times[]": ("number", 0, _REQUIRED),
    "dynamics.eps_control": ("number", 0, None),
    "dynamics.spectrum_modes": ("integer", 0, 0),
    "eps_list": ("list", None, []),
    "eps_list[]": ("number", 0, _REQUIRED),
}


@dataclass(eq=False)
class Scenario:
    """Validated scenario configuration, compared by identity (its anchor is
    an array, which has no single truth value under ``==``).  The fiber has
    one fluctuation variable, truncated at ``fiber_dim``; the gauge suite's
    gauge and gauge lattice are fixed in :mod:`.verify`, not configured."""

    name: str
    group_id: str
    action_name: Optional[str]
    hamiltonian: Optional[dict]
    fiber_dim: int
    anchor: np.ndarray
    lattice: list
    generator_lattice: Optional[list]
    numerics: dict
    probes: dict
    kernel_radius: Optional[list]
    suites: list
    dynamics: dict
    eps_list: list

    def setting(self, path: str):
        """The sub-config value at ``path`` (``"dynamics.t_final"``), or
        its default from the schema."""
        section, key = path.split(".")
        return getattr(self, section).get(key, _SCHEMA[path][2])

    @property
    def seed(self) -> int:
        env = os.environ.get(SEED_ENV_VAR)
        if env is None:
            return int(self.setting("numerics.seed"))
        if env.strip().isdecimal():
            return int(env)
        raise ConfigError(f"{SEED_ENV_VAR} must be a non-negative integer, got {env!r}")

    @property
    def dt(self) -> float:
        return float(self.setting("numerics.dt"))

    @property
    def max_degree(self) -> int:
        """Highest fiber degree a probe section populates."""
        return int(self.setting("probes.max_degree"))

    def probe_size(self, suite: str):
        """Per-axis probe bump size a suite reads: ``probes.radius`` for
        sections and gauge, ``probes.sigma`` for generators and
        reconstruction, None for a suite that reads none."""
        return self.probes.get(_SUITES[suite][1])

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def grid(self) -> np.ndarray:
        g = self.setting("numerics.grid")
        return np.linspace(float(g["lo"]), float(g["hi"]), int(g["points"]))

    # -- runtime objects ----------------------------------------------------

    def build_action(self):
        if self.action_name is None:
            raise ConfigError(f"scenario {self.name!r} declares no bundle action")
        builder, _ = _ACTION_BUILDERS[self.action_name]
        return builder(self.fiber_dim)

    def _axes(self, spec_list) -> list:
        axes = []
        for item in spec_list:
            if item["kind"] == "line":
                axes.append(LatticeAxis.line(float(item["spacing"]),
                                             int(item["lo"]), int(item["hi"])))
            else:
                axes.append(LatticeAxis.cycle(2 * np.pi, int(item["count"])))
        return axes

    def build_sampling(self, action, generator_scale: bool = False) -> OrbitSampling:
        spec_list = self.lattice
        if generator_scale and self.generator_lattice is not None:
            spec_list = self.generator_lattice
        return OrbitSampling(action, self.anchor, self._axes(spec_list))

    def build_hamiltonian(self):
        if self.hamiltonian is None:
            raise ConfigError(f"scenario {self.name!r} declares no Hamiltonian")
        return _HAMILTONIANS[self.hamiltonian["kind"]](
            float(self.setting("hamiltonian.omega2")), float(self.setting("hamiltonian.cubic")))


def _fields(path: str) -> dict:
    """The rows directly under the mapping at ``path``, by key."""
    return {row.rpartition(".")[2]: row for row in _SCHEMA
            if row and not row.endswith("[]") and row.rpartition(".")[0] == path}


def _fits(value, kind, bound) -> bool:
    """Whether ``value`` is of ``kind`` and within ``bound``."""
    if not isinstance(kind, str):
        # an entry of the table, of the entry's own type (so true is not 1)
        return any(type(value) is type(entry) and value == entry for entry in kind)
    if kind == "coordinate":
        return _fits(value, "number", None) and abs(value) <= _COORDINATE_REACH
    if kind == "sizes":
        return all(_fits(size, "number", 0)
                   for size in (value if isinstance(value, list) and value else [value]))
    if kind == "integer":
        return (isinstance(value, int) and not isinstance(value, bool)
                and (bound is None or value >= bound))
    if kind == "number":
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max and (bound is None or value > bound))
    return isinstance(value, {"string": str, "bool": bool, "list": list, "mapping": dict}[kind])


def _describe(kind, bound) -> str:
    if not isinstance(kind, str):
        return f"one of {sorted(kind)}"
    text = {"integer": "an integer", "number": "a finite number",
            "coordinate": f"a number of magnitude at most {_COORDINATE_REACH:g}",
            "sizes": "a positive number or a list of them", "string": "a string",
            "bool": "true or false", "list": "a list", "mapping": "an object"}[kind]
    if bound is None:
        return text
    return f"{text} of at least {bound}" if kind == "integer" else f"{text} above {bound}"


def _walk(value, path: str, where: str) -> None:
    """Check ``value`` against the row at ``path`` and, inside a mapping or
    a list, against every row under it; ``where`` names it in errors."""
    kind, bound, default = _SCHEMA[path]
    if value is None and default is None:
        return
    if not _fits(value, kind, bound):
        raise ConfigError(f"{where} must be {_describe(kind, bound)}, got {value!r}")
    if kind == "list":
        for i, item in enumerate(value):
            _walk(item, path + "[]", f"{where}[{i}]")
    elif kind == "mapping":
        fields = _fields(path)
        unknown = sorted(set(value) - set(fields))
        if unknown:
            raise ConfigError(f"{where}: unknown fields {unknown!r}")
        for key, row in fields.items():
            if key in value:
                _walk(value[key], row, f"{where}{'.' if path else ': '}{key}")
            elif _SCHEMA[row][2] is _REQUIRED:
                raise ConfigError(f"{where}: missing required field {key!r}")


def _validate(cfg, origin: str) -> Scenario:
    _walk(cfg, "", origin)
    given = {key: cfg.get(key, _SCHEMA[key][2]) for key in _fields("")}
    anchor = given["anchor"]
    if len(anchor["P"]) != 1 or len(anchor["Q"]) != 1:
        raise ConfigError(f"{origin}: malformed anchor (P and Q must each hold one "
                          f"coordinate, got {len(anchor['P'])} and {len(anchor['Q'])})")
    # a state row S, P, Q, shared by the samplings and gauge bundles built on it
    anchor = np.array([anchor["S"], *anchor["P"], *anchor["Q"]], dtype=float)
    anchor.flags.writeable = False
    scn = Scenario(
        name=given["name"],
        group_id=given["group_id"],
        action_name=given["action"],
        hamiltonian=given["hamiltonian"],
        fiber_dim=given["fiber"]["n_cut"],
        anchor=anchor,
        lattice=list(given["lattice"]),
        generator_lattice=given["generator_lattice"],
        numerics=dict(given["numerics"]),
        probes=dict(given["probes"]),
        kernel_radius=given["kernel_radius"],
        suites=list(given["suites"]),
        dynamics=dict(given["dynamics"]),
        eps_list=[float(eps) for eps in given["eps_list"]],
    )

    # the rules that tie fields together or cap them
    if scn.fiber_dim > _MAX_N_CUT:
        raise ConfigError(f"{origin}: fiber.n_cut must be at most {_MAX_N_CUT}, "
                          f"got {scn.fiber_dim}")
    dim = get_group(scn.group_id).dim
    if scn.action_name is not None and _ACTION_BUILDERS[scn.action_name][1] != scn.group_id:
        raise ConfigError(f"{origin}: action {scn.action_name!r} acts through group "
                          f"{_ACTION_BUILDERS[scn.action_name][1]!r}, not {scn.group_id!r}")
    if scn.generator_lattice == []:
        raise ConfigError(f"{origin}: generator_lattice is empty")
    for key in ("lattice", "generator_lattice"):
        axes = given[key] or []
        if axes and len(axes) != dim:
            raise ConfigError(f"{origin}: {key}: {len(axes)} axes for a group with "
                              f"{dim} coordinates")
        for i, axis in enumerate(axes):
            fields = _AXES[axis["kind"]]
            if len(axis) != len(fields) + 1 or any(axis.get(f) is None for f in fields):
                raise ConfigError(f"{origin}: {key}[{i}]: a {axis['kind']} axis holds "
                                  f"{list(fields)}, got {sorted(axis)}")
            if axis["kind"] != "line":
                continue
            # every probe, kernel and transform is centred on the identity step
            if not axis["lo"] <= 0 <= axis["hi"]:
                raise ConfigError(f"{origin}: {key}[{i}]: the window {axis['lo']}..{axis['hi']} "
                                  "does not hold the identity step 0")
            if max(abs(axis["lo"]), abs(axis["hi"])) > _COORDINATE_REACH / axis["spacing"]:
                raise ConfigError(f"{origin}: {key}[{i}]: the axis reaches past "
                                  f"{_COORDINATE_REACH:g}")
            if (scn.action_name in _HARMONIC_ACTIONS
                    and (axis["hi"] - axis["lo"]) * axis["spacing"] * (1 + 1e-12) >= 2 * np.pi):
                raise ConfigError(f"{origin}: {key}[{i}]: the window spans a full turn "
                                  f"2 pi of the {scn.action_name!r} action's rotation")
        try:
            check_axis_kinds(get_group(scn.group_id), scn._axes(axes))
        except InputError as err:
            raise ConfigError(f"{origin}: {key}: {err}") from err
    for key, sizes in (("kernel_radius", scn.kernel_radius),
                       ("probes.sigma", scn.probes.get("sigma")),
                       ("probes.radius", scn.probes.get("radius"))):
        if isinstance(sizes, list) and len(sizes) not in (1, dim):
            raise ConfigError(f"{origin}: {key} needs one size or {dim}, got {sizes!r}")
    for suite in scn.suites:
        needs, probe = _SUITES[suite]
        needs += _ACTION_SUITES.get((scn.action_name, suite), ())
        unset = [key for key in needs if not given[key]]
        if unset:
            raise ConfigError(f"{origin}: suite {suite!r} needs {unset} set")
        if probe and scn.probe_size(suite) is None:
            raise ConfigError(f"{origin}: suite {suite!r} needs probes.{probe}")
    # the generators suite's kernel, by lattice_kernel's own window rule
    if "generators" in scn.suites:
        try:
            kernel_steps(scn._axes(scn.generator_lattice or scn.lattice), scn.kernel_radius)
        except InputError as err:
            raise ConfigError(f"{origin}: kernel_radius: {err}") from err
    # the phase-shift gauge resolves the anomaly of the metaplectic circle
    # action alone, and the gauge bundle is an orbit of one rotation
    if "gauge" in scn.suites and scn.action_name != "metaplectic":
        raise ConfigError(f"{origin}: suite 'gauge' needs the metaplectic action, "
                          f"got {scn.action_name!r}")
    if (scn.action_name in _HARMONIC_ACTIONS
            and np.hypot(scn.anchor[1], scn.anchor[2]) < _MIN_ORBIT_RADIUS):
        raise ConfigError(f"{origin}: action {scn.action_name!r} needs an anchor at least "
                          f"{_MIN_ORBIT_RADIUS:g} from the rotation centre P = Q = 0, "
                          f"got P {scn.anchor[1]:g}, Q {scn.anchor[2]:g}")
    if scn.setting("dynamics.spectrum_modes") > scn.fiber_dim:
        raise ConfigError(f"{origin}: dynamics.spectrum_modes exceeds the fiber "
                          f"dimension {scn.fiber_dim}")
    # the oscillator action and the spectrum oracle rotate at frequency 1,
    # which only the quadratic Hamiltonian with omega2 1 shares
    unit_oscillator = (scn.hamiltonian is not None and scn.hamiltonian["kind"] == "quadratic"
                       and scn.setting("hamiltonian.omega2") == 1)
    if scn.action_name == "oscillator" and scn.hamiltonian is not None and not unit_oscillator:
        raise ConfigError(f"{origin}: the oscillator action needs the quadratic "
                          f"Hamiltonian with omega2 1, got {scn.hamiltonian!r}")
    if "dynamics" in scn.suites:
        if scn.setting("dynamics.spectrum_modes") and not unit_oscillator:
            raise ConfigError(f"{origin}: dynamics.spectrum_modes needs the quadratic "
                              f"Hamiltonian with omega2 1, got {scn.hamiltonian!r}")
        # the flows refuse a step beyond the window by the same margin
        if scn.setting("dynamics.t_final") * (1 + 1e-12) < scn.dt:
            raise ConfigError(f"{origin}: dynamics.t_final is below numerics.dt {scn.dt}")
        # the ansatz checks of a quadratic Hamiltonian flow to time 1 at numerics.dt
        if (scn.setting("dynamics.eps_control") and scn.hamiltonian["kind"] == "quadratic"
                and 1 + 1e-12 < scn.dt):
            raise ConfigError(f"{origin}: dynamics.eps_control needs numerics.dt <= 1, "
                              f"got {scn.dt}")
        # the evolution-law check reads the exact flow of a quadratic Hamiltonian
        if scn.setting("dynamics.law_times") and scn.hamiltonian["kind"] != "quadratic":
            raise ConfigError(f"{origin}: dynamics.law_times needs the quadratic "
                              f"Hamiltonian, got {scn.hamiltonian!r}")
    grid = scn.setting("numerics.grid")
    if not grid["lo"] < grid["hi"]:
        raise ConfigError(f"{origin}: numerics.grid needs lo < hi, got {grid!r}")
    eps = scn.eps_list
    if eps and (len(eps) < 2 or any(b >= a for a, b in zip(eps, eps[1:]))):
        raise ConfigError(f"{origin}: eps_list needs at least two values in strictly "
                          f"decreasing order, got {eps!r}")
    return scn


def catalog_names() -> tuple:
    files = resources.files("scbundle").joinpath("scenarios")
    return tuple(sorted(p.name[:-5] for p in files.iterdir()
                        if p.name.endswith(".json")))


def load_scenario(spec: str) -> Scenario:
    """Load a scenario from a config path or from the shipped catalog."""
    path = Path(spec)
    if path.exists():
        try:
            cfg = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            raise ConfigError(f"{spec}: invalid JSON ({err})") from err
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"{spec}: unreadable config ({err})") from err
        return _validate(cfg, str(path))
    files = resources.files("scbundle").joinpath("scenarios")
    candidate = files.joinpath(spec + ".json")
    if candidate.is_file():
        cfg = json.loads(candidate.read_text())
        return _validate(cfg, spec)
    raise ConfigError(
        f"no such scenario config: {spec!r} (catalog: {catalog_names()})")
