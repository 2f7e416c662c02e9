"""Scenario configuration: the JSON schema, the shipped catalog, and the
construction of runtime objects (actions, samplings, probes, Hamiltonians)
from a validated config."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .actions import (free_particle_action, heisenberg_weyl_action,
                      metaplectic_action, oscillator_action, so2_rotor_action,
                      translations_r2_action)
from .dynamics import (ClassicalState, cubic_perturbed_spec,
                       quadratic_hamiltonian_spec, step_counts)
from .errors import ConfigError, InputError
from .fiber import DimConfig
from .gauge import (GaugeBundle, action_shift_gauge, phase_shift_gauge,
                    u1_phase_gauge)
from .groups import builtin_group_ids, get_group
from .sections import LatticeAxis, OrbitSampling

__all__ = ["Scenario", "load_scenario", "catalog_names", "SEED_ENV_VAR"]

SEED_ENV_VAR = "SCBUNDLE_SEED"

# each action's builder and the group it acts through
_ACTION_BUILDERS = {
    "oscillator": (oscillator_action, "real_line"),
    "free-particle": (free_particle_action, "real_line"),
    "heisenberg-weyl": (heisenberg_weyl_action, "heisenberg"),
    "translations-r2": (translations_r2_action, "translations_r2"),
    "so2-rotor": (so2_rotor_action, "so2"),
    "metaplectic": (metaplectic_action, "so2"),
}

_GAUGE_BUILDERS = {
    "u1_phase": u1_phase_gauge,
    "action_shift": action_shift_gauge,
    "phase_shift": phase_shift_gauge,
}

_KNOWN_SUITES = {"lie", "dynamics", "sections", "generators",
                 "reconstruction", "gauge"}

_KNOWN_KEYS = {"name", "group_id", "action", "gauge_id", "hamiltonian", "fiber",
               "anchor", "lattice", "generator_lattice", "numerics", "probes",
               "kernel_radius", "suites", "strict_group_law", "dynamics", "gauge",
               "eps_list"}

# the gauge sub-config's integer fields: (least value, default)
_GAUGE_FIELDS = {"theta_nodes": (2, 48), "gauge_window": (1, 10), "gauge_step_divisor": (1, 8)}
# the fields the other sub-configs may hold
_FIBER_FIELDS = {"n", "n_cut"}
_NUMERICS_FIELDS = {"dt", "fd_tau", "seed", "grid"}
_GRID_FIELDS = {"lo", "hi", "points"}
_PROBE_FIELDS = {"count", "max_degree", "sigma", "radius"}
_DYNAMICS_FIELDS = {"t_final", "law_times", "eps_control", "spectrum_modes"}

_PROBE_SIZE = {
    "sections": lambda p: p.get("radius", p.get("sigma")),
    "generators": lambda p: p.get("sigma"),
    "reconstruction": lambda p: p.get("sigma"),
    "gauge": lambda p: p.get("radius"),
}


@dataclass
class Scenario:
    """Validated scenario configuration."""

    name: str
    group_id: str
    action_name: Optional[str]
    gauge_id: Optional[str]
    hamiltonian: Optional[dict]
    fiber: DimConfig
    anchor: ClassicalState
    lattice: list
    generator_lattice: Optional[list]
    numerics: dict
    probes: dict
    kernel_radius: Optional[list]
    suites: list
    strict_group_law: bool
    dynamics: dict
    gauge_cfg: dict
    eps_list: list

    @property
    def seed(self) -> int:
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            return int(env)
        return int(self.numerics.get("seed", 1234))

    @property
    def dt(self) -> float:
        return float(self.numerics.get("dt", 1e-3))

    @property
    def fd_tau(self) -> float:
        return float(self.numerics.get("fd_tau", 1e-3))

    @property
    def max_degree(self) -> int:
        """Highest fiber degree a probe section populates."""
        return int(self.probes.get("max_degree", 3))

    def probe_size(self, suite: str):
        """Per-axis probe bump size a suite reads: ``radius`` for sections
        (falling back to ``sigma``) and gauge, ``sigma`` for generators and
        reconstruction."""
        return _PROBE_SIZE[suite](self.probes)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def grid(self) -> np.ndarray:
        g = self.numerics.get("grid", {"lo": -16.0, "hi": 16.0, "points": 8192})
        return np.linspace(float(g["lo"]), float(g["hi"]), int(g["points"]))

    # -- runtime objects ----------------------------------------------------

    def build_action(self, drift: bool = False):
        if self.action_name is None:
            raise ConfigError(f"scenario {self.name!r} declares no bundle action")
        builder, _ = _ACTION_BUILDERS[self.action_name]
        if self.action_name == "metaplectic":
            return builder(self.fiber, drift=drift)
        return builder(self.fiber)

    def build_gauge(self):
        if self.gauge_id is None:
            raise ConfigError(f"scenario {self.name!r} declares no gauge group")
        return _GAUGE_BUILDERS[self.gauge_id]()

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
        return _hamiltonian_spec(self.hamiltonian, f"scenario {self.name!r}: hamiltonian")

    def build_gauge_bundle(self) -> GaugeBundle:
        _, family = self.build_action(drift=True)
        cfg = self.gauge_cfg
        return GaugeBundle(
            family, self.build_gauge(), self.anchor,
            theta_nodes=cfg["theta_nodes"],
            gauge_step=np.pi / cfg["gauge_step_divisor"],
            gauge_window=cfg["gauge_window"])


def _need(mapping, key, where: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _number(value, kind, where: str):
    try:
        return kind(value)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where} must be a number, got {value!r}") from err


def _sizes(value, dim: int) -> bool:
    """Whether ``value`` is positive, finite per-axis sizes that broadcast to
    ``dim`` axes: a scalar, one value, or one value per axis."""
    try:
        size = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        return False
    return (size.ndim <= 1 and size.size in (1, dim)
            and bool(np.all(np.isfinite(size) & (size > 0))))


def _mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    return dict(value)


def _fields(value, known, where: str) -> dict:
    """``value`` as a mapping whose keys all lie in ``known``."""
    value = _mapping(value, where)
    unknown = sorted(set(value) - set(known))
    if unknown:
        raise ConfigError(f"{where}: unknown fields {unknown!r}")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list, got {value!r}")
    return list(value)


def _named(value, table: dict) -> bool:
    """Whether ``value`` is a string naming an entry of ``table``."""
    return isinstance(value, str) and value in table


def _integer(value, least: int, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{where} must be an integer of at least {least}, got {value!r}")
    return value


def _hamiltonian_spec(hamiltonian, where: str):
    kind = _need(hamiltonian, "kind", where)
    omega2 = _number(hamiltonian.get("omega2", 1.0), float, f"{where}.omega2")
    if kind == "quadratic":
        return quadratic_hamiltonian_spec([[omega2]])
    if kind == "cubic-perturbed":
        return cubic_perturbed_spec(
            omega2, _number(hamiltonian.get("cubic", 0.1), float, f"{where}.cubic"))
    raise ConfigError(f"{where}: unknown Hamiltonian kind {kind!r}")


def _validate_law_times(law_times, dt: float, where: str) -> None:
    """Law times are positive numbers that, with their pairwise sums, share
    one step of about dt (the evolution-law check reads every flow as a
    prefix of one trajectory)."""
    if not isinstance(law_times, list) or not all(
            isinstance(t, (int, float)) and not isinstance(t, bool)
            and np.isfinite(t) and t > 0 for t in law_times):
        raise ConfigError(f"{where} must be a list of positive numbers, got {law_times!r}")
    times = law_times + [t1 + t2 for t1 in law_times for t2 in law_times]
    try:
        step_counts(times, dt)
    except InputError as err:
        raise ConfigError(f"{where}: not on one step grid ({err})") from err


def _validate_lattice(spec_list, dim: int, where: str) -> list:
    """A list of axes, none or one per group coordinate: lines with a
    positive spacing and lo <= hi, cycles with at least one node."""
    spec_list = _list(spec_list, where)
    if spec_list and len(spec_list) != dim:
        raise ConfigError(f"{where}: {len(spec_list)} axes for a group with "
                          f"{dim} coordinates")
    for i, item in enumerate(spec_list):
        at = f"{where}[{i}]"
        kind = _need(item, "kind", at)
        if kind == "line":
            spacing = _number(_need(item, "spacing", at), float, f"{at}.spacing")
            if not (np.isfinite(spacing) and spacing > 0):
                raise ConfigError(f"{at}.spacing must be positive, got {spacing!r}")
            lo, hi = (_number(_need(item, key, at), int, f"{at}.{key}")
                      for key in ("lo", "hi"))
            if lo > hi:
                raise ConfigError(f"{at}: empty axis, lo {lo} > hi {hi}")
        elif kind == "cycle":
            if _number(_need(item, "count", at), int, f"{at}.count") < 1:
                raise ConfigError(f"{at}.count must be at least 1")
        else:
            raise ConfigError(f"{at}: unknown lattice axis kind {kind!r}")
    return spec_list


def _validate(cfg: dict, origin: str) -> Scenario:
    def need(key):
        return _need(cfg, key, origin)

    name = str(need("name"))
    unknown = sorted(set(cfg) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"{origin}: unknown fields {unknown!r}")
    group_id = str(need("group_id"))
    try:
        dim = get_group(group_id).dim
    except Exception as err:
        raise ConfigError(f"{origin}: group {group_id!r} is not built in "
                          f"(built-ins: {builtin_group_ids()})") from err

    gauge_id = cfg.get("gauge_id")
    if gauge_id is not None and not _named(gauge_id, _GAUGE_BUILDERS):
        raise ConfigError(f"{origin}: unknown gauge {gauge_id!r}")

    fiber_cfg = _fields(need("fiber"), _FIBER_FIELDS, f"{origin}: fiber")
    fiber = DimConfig(_integer(fiber_cfg.get("n", 1), 1, f"{origin}: fiber.n"),
                      _integer(fiber_cfg.get("n_cut"), 4, f"{origin}: fiber.n_cut"))

    numerics = _fields(cfg.get("numerics", {}), _NUMERICS_FIELDS, f"{origin}: numerics")
    for key in ("dt", "fd_tau"):
        if key in numerics and not _number(numerics[key], float,
                                           f"{origin}: numerics.{key}") > 0:
            raise ConfigError(f"{origin}: numerics.{key} must be positive")
    if "seed" in numerics:
        _number(numerics["seed"], int, f"{origin}: numerics.seed")
    if "grid" in numerics:
        at = f"{origin}: numerics.grid"
        grid = _fields(numerics["grid"], _GRID_FIELDS, at)
        lo, hi = (_number(_need(grid, key, at), float, f"{at}.{key}") for key in ("lo", "hi"))
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ConfigError(f"{at} needs finite lo < hi, got {lo!r} and {hi!r}")
        _integer(_need(grid, "points", at), 2, f"{at}.points")

    suites = _list(cfg.get("suites", []), f"{origin}: suites")
    unknown = [s for s in suites if not isinstance(s, str) or s not in _KNOWN_SUITES]
    if unknown:
        raise ConfigError(f"{origin}: unknown suites {unknown!r}")

    probes = _fields(cfg.get("probes", {}), _PROBE_FIELDS, f"{origin}: probes")
    if "count" in probes:
        _integer(probes["count"], 1, f"{origin}: probes.count")
    if "max_degree" in probes:
        _integer(probes["max_degree"], 0, f"{origin}: probes.max_degree")
    kernel_radius = cfg.get("kernel_radius")
    if kernel_radius is not None and not _sizes(kernel_radius, dim):
        raise ConfigError(f"{origin}: kernel_radius needs positive sizes for "
                          f"{dim} coordinates, got {kernel_radius!r}")

    lattice = _validate_lattice(cfg.get("lattice", []), dim, f"{origin}: lattice")
    generator_lattice = cfg.get("generator_lattice")
    if generator_lattice is not None and not _validate_lattice(
            generator_lattice, dim, f"{origin}: generator_lattice"):
        raise ConfigError(f"{origin}: generator_lattice is empty")
    for suite in suites:
        if suite not in _PROBE_SIZE:
            continue
        if not lattice:
            raise ConfigError(f"{origin}: suite {suite!r} samples the orbit "
                              f"and needs a lattice")
        if not _sizes(_PROBE_SIZE[suite](probes), dim):
            raise ConfigError(f"{origin}: suite {suite!r} needs positive probe "
                              f"sizes for {dim} coordinates, got "
                              f"{_PROBE_SIZE[suite](probes)!r}")

    action_name = cfg.get("action")
    if action_name is not None and not _named(action_name, _ACTION_BUILDERS):
        raise ConfigError(f"{origin}: unknown action {action_name!r}")
    if action_name is not None and _ACTION_BUILDERS[action_name][1] != group_id:
        raise ConfigError(f"{origin}: action {action_name!r} acts through group "
                          f"{_ACTION_BUILDERS[action_name][1]!r}, not {group_id!r}")

    hamiltonian = cfg.get("hamiltonian")
    if hamiltonian is not None:
        _hamiltonian_spec(hamiltonian, f"{origin}: hamiltonian")
    dynamics = _fields(cfg.get("dynamics", {}), _DYNAMICS_FIELDS, f"{origin}: dynamics")
    if "law_times" in dynamics:
        _validate_law_times(dynamics["law_times"], float(numerics.get("dt", 1e-3)),
                            f"{origin}: dynamics.law_times")

    strict_group_law = cfg.get("strict_group_law", False)
    if not isinstance(strict_group_law, bool):
        raise ConfigError(f"{origin}: strict_group_law must be true or false, "
                          f"got {strict_group_law!r}")

    given = _fields(cfg.get("gauge", {}), _GAUGE_FIELDS, f"{origin}: gauge")
    gauge_cfg = {key: _integer(given.get(key, default), least, f"{origin}: gauge.{key}")
                 for key, (least, default) in _GAUGE_FIELDS.items()}

    anchor_cfg = cfg.get("anchor", {"S": 0.0, "P": [0.0], "Q": [1.0]})
    S, P, Q = (_need(anchor_cfg, key, f"{origin}: anchor") for key in "SPQ")
    try:
        anchor = ClassicalState(float(S), np.asarray(P, dtype=float),
                                np.asarray(Q, dtype=float))
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{origin}: malformed anchor ({err})") from err

    return Scenario(
        name=name,
        group_id=group_id,
        action_name=action_name,
        gauge_id=gauge_id,
        hamiltonian=hamiltonian,
        fiber=fiber,
        anchor=anchor,
        lattice=lattice,
        generator_lattice=generator_lattice,
        numerics=numerics,
        probes=probes,
        kernel_radius=kernel_radius,
        suites=suites,
        strict_group_law=strict_group_law,
        dynamics=dynamics,
        gauge_cfg=gauge_cfg,
        eps_list=[_number(e, float, f"{origin}: eps_list")
                  for e in _list(cfg.get("eps_list", []), f"{origin}: eps_list")],
    )


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
        return _validate(cfg, str(path))
    files = resources.files("scbundle").joinpath("scenarios")
    candidate = files.joinpath(spec + ".json")
    if candidate.is_file():
        cfg = json.loads(candidate.read_text())
        return _validate(cfg, spec)
    raise ConfigError(
        f"no such scenario config: {spec!r} (catalog: {catalog_names()})")
