"""Bundle actions: Lie groups acting on the semiclassical bundle.

A :class:`BundleAction` pairs a base map family ``u_g`` on classical states
with a fiber unitary family ``U_g``.  Every base map is in closed form, and
every fiber unitary and fiber Hamiltonian is independent of the base point:
the builders below are the one place that decision is made, and everything
downstream (orbit evaluation, transport, generators) relies on it.

Each scenario also exposes per-basis :class:`GeneratorData` (the exact base
flow and the constant fiber Hamiltonian ``H(B_k)``) feeding the one-parameter
exponentiation machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .dynamics import ClassicalState
from .errors import InputError
from .fiber import (DimConfig, momentum_operator, position_operator,
                    quadratic_hamiltonian, spectral_exp)
from .groups import GroupElement, LieGroup, get_group

__all__ = [
    "BundleAction",
    "GeneratorData",
    "GeneratorFamily",
    "heisenberg_weyl_action",
    "translations_r2_action",
    "oscillator_action",
    "free_particle_action",
    "so2_rotor_action",
    "metaplectic_action",
]


def _as_matrix(g) -> np.ndarray:
    return g.matrix if isinstance(g, GroupElement) else np.asarray(g)


@dataclass(frozen=True)
class BundleAction:
    """Group action on the bundle: base maps plus fiber unitaries."""

    name: str
    group: LieGroup
    dim_config: DimConfig
    base_fn: Callable[[np.ndarray, ClassicalState], ClassicalState]
    base_batch_fn: Callable[[np.ndarray, ClassicalState], np.ndarray]
    fiber_fn: Callable[[np.ndarray], np.ndarray]

    def base_map(self, g, X: ClassicalState) -> ClassicalState:
        return self.base_fn(_as_matrix(g), X)

    def base_points(self, mats: np.ndarray, X: ClassicalState) -> np.ndarray:
        """Orbit points ``u_g X`` for a stack of group matrices, returned as
        stacked state arrays of shape (J, 2n+1)."""
        return self.base_batch_fn(np.asarray(mats), X)

    def fiber_matrix(self, g) -> np.ndarray:
        return self.fiber_fn(_as_matrix(g))


@dataclass(frozen=True)
class GeneratorData:
    """One-parameter subgroup data for a basis direction B_k."""

    flow: Callable[[float, ClassicalState], ClassicalState]
    fiber_hamiltonian: np.ndarray


@dataclass(frozen=True)
class GeneratorFamily:
    """Per-basis generator data for a group action on the bundle."""

    group: LieGroup
    dim_config: DimConfig
    directions: tuple

    def __post_init__(self):
        if len(self.directions) != self.group.dim:
            raise InputError("one GeneratorData per algebra basis element required")

    def combination_hamiltonian(self, coords: np.ndarray) -> np.ndarray:
        """H(A) for A = sum_k coords_k B_k (the generator is linear)."""
        out = np.zeros((self.dim_config.dim, self.dim_config.dim), dtype=complex)
        for c, d in zip(coords, self.directions):
            if c != 0.0:
                out = out + c * d.fiber_hamiltonian
        return out


# ---------------------------------------------------------------------------
# cached fiber building blocks
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _eig(operator, n_cut: int):
    """Eigendecomposition of a 1-D fiber operator builder's matrix."""
    return np.linalg.eigh(operator(DimConfig(1, n_cut)).matrix)


@lru_cache(maxsize=None)
def _oscillator_levels(n_cut: int) -> np.ndarray:
    cfg = DimConfig(1, n_cut)
    return np.real(np.diag(quadratic_hamiltonian([[1.0]], [[0.0]], [[1.0]], cfg).matrix))


@lru_cache(maxsize=None)
def _kinetic_matrix(n_cut: int):
    cfg = DimConfig(1, n_cut)
    mat = quadratic_hamiltonian([[0.0]], [[0.0]], [[1.0]], cfg).matrix
    vals, vecs = np.linalg.eigh(mat)
    return mat, (vals, vecs)


# ---------------------------------------------------------------------------
# Heisenberg--Weyl scenario
# ---------------------------------------------------------------------------

def heisenberg_weyl_action(config: DimConfig):
    """Heisenberg group acting by phase-space shifts on the base and Weyl
    operators on the fibers.

    For g with matrix coordinates (a, b, c):

        u_g (S, P, Q) = (S + c + a P, P + b, Q + a),
        U_g           = exp(i c) exp(i b xi) exp(i a p).

    Both the base law and the fiber law close exactly (the fiber law up to
    Hermite truncation leakage, which is negligible for low-mode states).
    """
    if config.n != 1:
        raise InputError("the Weyl scenario is 1-D in the fluctuation variable")
    group = get_group("heisenberg")
    eig_x = _eig(position_operator, config.n_cut)
    eig_p = _eig(momentum_operator, config.n_cut)

    def base_fn(mat, X):
        a, b, c = mat[0, 1].real, mat[1, 2].real, mat[0, 2].real
        return ClassicalState(X.S + c + a * X.P[0], X.P + b, X.Q + a)

    def base_batch_fn(mats, X):
        a = mats[:, 0, 1].real
        b = mats[:, 1, 2].real
        c = mats[:, 0, 2].real
        return np.stack([X.S + c + a * X.P[0], X.P[0] + b, X.Q[0] + a], axis=-1)

    def fiber_fn(mat):
        a, b, c = mat[0, 1].real, mat[1, 2].real, mat[0, 2].real
        return np.exp(1j * c) * spectral_exp(eig_x, -b) @ spectral_exp(eig_p, -a)

    action = BundleAction("heisenberg-weyl", group, config,
                          base_fn, base_batch_fn, fiber_fn)

    xi_mat = position_operator(config).matrix
    p_mat = momentum_operator(config).matrix
    eye = np.eye(config.dim, dtype=complex)
    family = GeneratorFamily(group, config, (
        GeneratorData(
            flow=lambda t, X: ClassicalState(X.S + t * X.P[0], X.P, X.Q + t),
            fiber_hamiltonian=-p_mat),
        GeneratorData(
            flow=lambda t, X: ClassicalState(X.S, X.P + t, X.Q),
            fiber_hamiltonian=-xi_mat),
        GeneratorData(
            flow=lambda t, X: ClassicalState(X.S + t, X.P, X.Q),
            fiber_hamiltonian=-eye),
    ))
    return action, family


# ---------------------------------------------------------------------------
# abelian translations with a character phase
# ---------------------------------------------------------------------------

def translations_r2_action(config: DimConfig, phases: Sequence[float] = (0.7, -0.3)):
    """Phase-space translations (a, b): Q -> Q + a, P -> P + b, with the
    fiber acting through the exact character exp(i(phases . (a, b)))."""
    if config.n != 1:
        raise InputError("the translation scenario is 1-D")
    group = get_group("translations_r2")
    kappa = np.asarray(phases, dtype=float)
    eye = np.eye(config.dim, dtype=complex)

    def base_fn(mat, X):
        a, b = mat[0, 2].real, mat[1, 2].real
        return ClassicalState(X.S, X.P + b, X.Q + a)

    def base_batch_fn(mats, X):
        a = mats[:, 0, 2].real
        b = mats[:, 1, 2].real
        return np.stack([np.full_like(a, X.S), X.P[0] + b, X.Q[0] + a], axis=-1)

    def fiber_fn(mat):
        a, b = mat[0, 2].real, mat[1, 2].real
        return np.exp(1j * (kappa[0] * a + kappa[1] * b)) * eye

    action = BundleAction("translations-r2", group, config,
                          base_fn, base_batch_fn, fiber_fn)
    family = GeneratorFamily(group, config, (
        GeneratorData(
            flow=lambda t, X: ClassicalState(X.S, X.P, X.Q + t),
            fiber_hamiltonian=-kappa[0] * eye),
        GeneratorData(
            flow=lambda t, X: ClassicalState(X.S, X.P + t, X.Q),
            fiber_hamiltonian=-kappa[1] * eye),
    ))
    return action, family


# ---------------------------------------------------------------------------
# oscillator-type flows
# ---------------------------------------------------------------------------

def _rotate(t: float, P: float, Q: float):
    c, s = np.cos(t), np.sin(t)
    return P * c - Q * s, Q * c + P * s


def _oscillator_action_gain(t, P, Q):
    """Closed-form action increment along the harmonic flow,
    integral of (P^2 - H) over [0, t]."""
    return (P ** 2 - Q ** 2) * np.sin(2 * t) / 4 - P * Q * (1 - np.cos(2 * t)) / 2


def _rotation_base(drift_rate: float):
    """Base maps of the harmonic rotation with an optional uniform drift of
    the action variable (drift_rate per unit angle)."""
    def base_fn(t, X):
        P1, Q1 = _rotate(t, X.P[0], X.Q[0])
        S1 = X.S + _oscillator_action_gain(t, X.P[0], X.Q[0]) + drift_rate * t
        return ClassicalState(S1, [P1], [Q1])

    def base_batch(ts, X):
        c, s = np.cos(ts), np.sin(ts)
        P1 = X.P[0] * c - X.Q[0] * s
        Q1 = X.Q[0] * c + X.P[0] * s
        S1 = (X.S + _oscillator_action_gain(ts, X.P[0], X.Q[0])
              + drift_rate * ts)
        return np.stack([S1, P1, Q1], axis=-1)

    return base_fn, base_batch


def oscillator_action(config: DimConfig):
    """Time translations of the harmonic oscillator: the closed-form classical
    flow on the base, exp(-i t H_fluct) with the half-integer spectrum on the
    fibers.  An honest action of the real line."""
    if config.n != 1:
        raise InputError("the oscillator scenario is 1-D")
    group = get_group("real_line")
    levels = _oscillator_levels(config.n_cut)
    base_fn_t, base_batch_t = _rotation_base(0.0)

    def fiber_fn(mat):
        t = mat[0, 1].real
        return np.diag(np.exp(-1j * t * levels))

    action = BundleAction(
        "oscillator-evolution", group, config,
        base_fn=lambda mat, X: base_fn_t(mat[0, 1].real, X),
        base_batch_fn=lambda mats, X: base_batch_t(mats[:, 0, 1].real, X),
        fiber_fn=fiber_fn)
    family = GeneratorFamily(group, config, (
        GeneratorData(
            flow=base_fn_t,
            fiber_hamiltonian=np.diag(levels).astype(complex)),
    ))
    return action, family


def free_particle_action(config: DimConfig):
    """Time translations of the free particle: free flight on the base,
    exp(-i t p^2/2) on the fibers."""
    if config.n != 1:
        raise InputError("the free-particle scenario is 1-D")
    group = get_group("real_line")
    kinetic, eig = _kinetic_matrix(config.n_cut)

    def base_fn(mat, X):
        t = mat[0, 1].real
        return ClassicalState(X.S + 0.5 * t * X.P[0] ** 2, X.P, X.Q + t * X.P[0])

    def base_batch_fn(mats, X):
        t = mats[:, 0, 1].real
        return np.stack([X.S + 0.5 * t * X.P[0] ** 2,
                         np.full_like(t, X.P[0]), X.Q[0] + t * X.P[0]], axis=-1)

    def fiber_fn(mat):
        return spectral_exp(eig, mat[0, 1].real)

    action = BundleAction("free-particle", group, config,
                          base_fn, base_batch_fn, fiber_fn)

    def flow(t, X):
        return base_fn(np.array([[1.0, t], [0.0, 1.0]]), X)

    family = GeneratorFamily(group, config, (
        GeneratorData(flow=flow, fiber_hamiltonian=kinetic),
    ))
    return action, family


def _so2_angle(mat) -> float:
    return float(np.arctan2(mat[1, 0].real, mat[0, 0].real))


def _so2_angles(mats) -> np.ndarray:
    return np.arctan2(mats[:, 1, 0].real, mats[:, 0, 0].real)


def so2_rotor_action(config: DimConfig):
    """Honest circle action: harmonic rotation on the base (exactly
    2pi-periodic, no action drift), integer-spectrum phases exp(-i theta N)
    on the fibers.  The non-projective contrast to the metaplectic case."""
    if config.n != 1:
        raise InputError("the rotor scenario is 1-D")
    group = get_group("so2")
    levels = np.arange(config.dim, dtype=float)
    base_fn_t, base_batch_t = _rotation_base(0.0)

    action = BundleAction(
        "so2-rotor", group, config,
        base_fn=lambda mat, X: base_fn_t(_so2_angle(mat), X),
        base_batch_fn=lambda mats, X: base_batch_t(_so2_angles(mats), X),
        fiber_fn=lambda mat: np.diag(np.exp(-1j * _so2_angle(mat) * levels)))
    family = GeneratorFamily(group, config, (
        GeneratorData(
            flow=base_fn_t,
            fiber_hamiltonian=np.diag(levels).astype(complex)),
    ))
    return action, family


def metaplectic_action(config: DimConfig, drift: bool = False):
    """Circle 'action' of the oscillator evolution: half-integer spectrum
    phases exp(-i theta (N + 1/2)) on the fibers, so a full period gives -1
    and the strict composition law fails (the projective anomaly).

    With ``drift=True`` the base additionally carries the zero-point action
    drift -theta/2; then base and fiber composition both fail by exactly the
    compensator pair (S-shift -pi m, phase (-1)^m), which is the form used by
    the gauge-invariant section machinery.
    """
    if config.n != 1:
        raise InputError("the metaplectic scenario is 1-D")
    group = get_group("so2")
    levels = np.arange(config.dim, dtype=float) + 0.5
    rate = -0.5 if drift else 0.0
    base_fn_t, base_batch_t = _rotation_base(rate)

    action = BundleAction(
        "metaplectic-so2" + ("-drift" if drift else ""), group, config,
        base_fn=lambda mat, X: base_fn_t(_so2_angle(mat) % (2 * np.pi), X),
        base_batch_fn=lambda mats, X: base_batch_t(
            _so2_angles(mats) % (2 * np.pi), X),
        fiber_fn=lambda mat: np.diag(
            np.exp(-1j * (_so2_angle(mat) % (2 * np.pi)) * levels)))
    family = GeneratorFamily(group, config, (
        GeneratorData(
            flow=base_fn_t,
            fiber_hamiltonian=np.diag(levels).astype(complex)),
    ))
    return action, family
