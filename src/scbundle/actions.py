"""Bundle actions: Lie groups acting on the semiclassical bundle.

A :class:`BundleAction` pairs a base map family ``u_g`` with a fiber unitary
family ``U_g``.  Each builder below takes the fiber dimension d, an int (see
:mod:`.fiber`); fiber unitaries and Hamiltonians are complex (d, d) arrays.
A base point is a state row, a float array (3,) laid out as ``S, P, Q``
(see :mod:`.dynamics`), and a batch of them an array (J, 3); each action
writes its base map once, as ``base_rows(mats, rows)``, which broadcasts a
stack of group matrices against a stack of rows, and
:meth:`BundleAction.base_points` is its one entry for group elements.
Every fiber unitary and fiber Hamiltonian is independent of the base point:
the builders below are the one place that decision is made, and everything
downstream (orbit evaluation, transport, generators) relies on it.

Each scenario also exposes per-basis :class:`GeneratorData`: the constant
fiber Hamiltonian ``H(B_k)``, its one-parameter unitaries
``unitary(t) = exp(-i t H(B_k))`` from one eigendecomposition, and the lifted
flow for one-parameter groups.  The one-parameter actions (oscillator,
rotor, metaplectic) are all one builder, ``_flow_action``: the
lifted flow on the base and ``unitary`` on the fibers, at the element's
coordinate.  Heisenberg--Weyl and the translations keep closed-form fiber
maps, which the reconstruction checks against the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import InputError
from .fiber import (momentum_operator, position_operator, quadratic_hamiltonian,
                    spectral_exp)
from .groups import LieGroup, as_matrix, get_group

__all__ = [
    "BundleAction",
    "GeneratorData",
    "GeneratorFamily",
    "heisenberg_weyl_action",
    "translations_r2_action",
    "oscillator_action",
    "so2_rotor_action",
    "metaplectic_action",
]


def _rows(S, P, Q) -> np.ndarray:
    """Stack broadcast S, P, Q columns into state rows."""
    return np.stack(np.broadcast_arrays(S, P, Q), axis=-1)


@dataclass(frozen=True)
class BundleAction:
    """Group action on the bundle: base maps plus fiber unitaries."""

    name: str
    group: LieGroup
    fiber_dim: int
    base_rows: Callable[[np.ndarray, np.ndarray], np.ndarray]
    fiber_fn: Callable[[np.ndarray], np.ndarray]

    def base_points(self, mats, X: np.ndarray) -> np.ndarray:
        """Images ``u_g X`` of the state row ``X``: one state row (3,) for one
        element ``mats`` (a GroupElement or a matrix), state rows (J, 3) for
        a stack of J group matrices."""
        return self.base_rows(as_matrix(mats), np.asarray(X, dtype=float))

    def fiber_matrix(self, g) -> np.ndarray:
        return self.fiber_fn(as_matrix(g))


@dataclass(frozen=True)
class GeneratorData:
    """One-parameter subgroup data for a basis direction B_k: its fiber
    Hamiltonian and, for one-parameter groups, the lifted base flow
    ``flow(ts, rows)`` (unwrapped parameter)."""

    fiber_hamiltonian: np.ndarray
    flow: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    @cached_property
    def _spectrum(self):
        return np.linalg.eigh(self.fiber_hamiltonian)

    def unitary(self, t: float) -> np.ndarray:
        """exp(-i t H(B_k)), from one eigendecomposition of the fiber
        Hamiltonian computed on first use."""
        return spectral_exp(self._spectrum, t)


@dataclass(frozen=True)
class GeneratorFamily:
    """Per-basis generator data for a group action on the bundle."""

    group: LieGroup
    fiber_dim: int
    directions: tuple

    def __post_init__(self):
        if len(self.directions) != self.group.dim:
            raise InputError("one GeneratorData per algebra basis element required")

    def combination_hamiltonian(self, coords: np.ndarray) -> np.ndarray:
        """H(A) for A = sum_k coords_k B_k (the generator is linear)."""
        out = np.zeros((self.fiber_dim, self.fiber_dim), dtype=complex)
        for c, d in zip(coords, self.directions):
            if c != 0.0:
                out = out + c * d.fiber_hamiltonian
        return out


# ---------------------------------------------------------------------------
# cached fiber building blocks
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _eig(operator, dim: int):
    """Eigendecomposition of a fiber operator builder's matrix."""
    return np.linalg.eigh(operator(dim))


@lru_cache(maxsize=None)
def _oscillator_levels(dim: int) -> np.ndarray:
    return np.real(np.diag(quadratic_hamiltonian(1.0, 0.0, 1.0, dim)))


# ---------------------------------------------------------------------------
# Heisenberg--Weyl scenario
# ---------------------------------------------------------------------------

def heisenberg_weyl_action(dim: int):
    """Heisenberg group acting by phase-space shifts on the base and Weyl
    operators on the fibers.

    For g with matrix coordinates (a, b, c):

        u_g (S, P, Q) = (S + c + a P, P + b, Q + a),
        U_g           = exp(i c) exp(i b xi) exp(i a p).

    Both the base law and the fiber law close exactly (the fiber law up to
    Hermite truncation leakage, which is negligible for low-mode states).
    """
    group = get_group("heisenberg")
    eig_x = _eig(position_operator, dim)
    eig_p = _eig(momentum_operator, dim)

    def base_rows(mats, rows):
        a, b, c = mats[..., 0, 1].real, mats[..., 1, 2].real, mats[..., 0, 2].real
        S, P, Q = rows[..., 0], rows[..., 1], rows[..., 2]
        return _rows(S + c + a * P, P + b, Q + a)

    def fiber_fn(mat):
        a, b, c = mat[0, 1].real, mat[1, 2].real, mat[0, 2].real
        return np.exp(1j * c) * spectral_exp(eig_x, -b) @ spectral_exp(eig_p, -a)

    action = BundleAction("heisenberg-weyl", group, dim, base_rows, fiber_fn)

    eye = np.eye(dim, dtype=complex)
    family = GeneratorFamily(group, dim, (
        GeneratorData(fiber_hamiltonian=-momentum_operator(dim)),
        GeneratorData(fiber_hamiltonian=-position_operator(dim)),
        GeneratorData(fiber_hamiltonian=-eye),
    ))
    return action, family


# ---------------------------------------------------------------------------
# abelian translations with a character phase
# ---------------------------------------------------------------------------

def translations_r2_action(dim: int):
    """Phase-space translations (a, b): Q -> Q + a, P -> P + b, with the
    fiber acting through the exact character exp(i(0.7 a - 0.3 b))."""
    group = get_group("translations_r2")
    kappa = np.array([0.7, -0.3])
    eye = np.eye(dim, dtype=complex)

    def base_rows(mats, rows):
        a, b = mats[..., 0, 2].real, mats[..., 1, 2].real
        return _rows(rows[..., 0], rows[..., 1] + b, rows[..., 2] + a)

    def fiber_fn(mat):
        a, b = mat[0, 2].real, mat[1, 2].real
        return np.exp(1j * (kappa[0] * a + kappa[1] * b)) * eye

    action = BundleAction("translations-r2", group, dim, base_rows, fiber_fn)
    family = GeneratorFamily(group, dim, (
        GeneratorData(fiber_hamiltonian=-kappa[0] * eye),
        GeneratorData(fiber_hamiltonian=-kappa[1] * eye),
    ))
    return action, family


# ---------------------------------------------------------------------------
# one-parameter flows
# ---------------------------------------------------------------------------

def _oscillator_action_gain(t, P, Q):
    """Closed-form action increment along the harmonic flow,
    integral of (P^2 - H) over [0, t]."""
    return (P ** 2 - Q ** 2) * np.sin(2 * t) / 4 - P * Q * (1 - np.cos(2 * t)) / 2


def _rotation_flow(drift_rate: float):
    """Lifted flow of the harmonic rotation with an optional uniform drift of
    the action variable (drift_rate per unit angle)."""
    def flow(ts, rows):
        S, P, Q = rows[..., 0], rows[..., 1], rows[..., 2]
        c, s = np.cos(ts), np.sin(ts)
        return _rows(S + _oscillator_action_gain(ts, P, Q) + drift_rate * ts,
                     P * c - Q * s, Q * c + P * s)

    return flow


def _flow_action(name: str, group_id: str, dim: int, flow,
                 hamiltonian: np.ndarray, period: Optional[float] = None):
    """A one-parameter group acting through its lifted ``flow`` on the base
    and exp(-i t H) (``GeneratorData.unitary``) on the fibers, both at the
    element's coordinate t, wrapped to [0, period) when a period is given;
    the generator family keeps the lifted flow."""
    group = get_group(group_id)
    data = GeneratorData(fiber_hamiltonian=hamiltonian, flow=flow)

    def coordinate(mats):
        t = group.coords_batch(mats)[..., 0]
        return t if period is None else t % period

    action = BundleAction(name, group, dim,
                          base_rows=lambda mats, rows: flow(coordinate(mats), rows),
                          fiber_fn=lambda mat: data.unitary(coordinate(mat)))
    return action, GeneratorFamily(group, dim, (data,))


def oscillator_action(dim: int):
    """Time translations of the harmonic oscillator: the closed-form classical
    flow on the base, exp(-i t H_fluct) with the half-integer spectrum on the
    fibers.  An honest action of the real line."""
    levels = _oscillator_levels(dim)
    return _flow_action("oscillator-evolution", "real_line", dim,
                        _rotation_flow(0.0), np.diag(levels).astype(complex))


def so2_rotor_action(dim: int):
    """Honest circle action: harmonic rotation on the base (exactly
    2pi-periodic, no action drift), integer-spectrum phases exp(-i theta N)
    on the fibers.  The non-projective contrast to the metaplectic case."""
    levels = np.arange(dim, dtype=float)
    return _flow_action("so2-rotor", "so2", dim, _rotation_flow(0.0),
                        np.diag(levels).astype(complex))


def metaplectic_action(dim: int, drift: bool = False):
    """Circle 'action' of the oscillator evolution: half-integer spectrum
    phases exp(-i theta (N + 1/2)) on the fibers, so a full period gives -1
    and the strict composition law fails (the projective anomaly).

    With ``drift=True`` the base additionally carries the zero-point action
    drift -theta/2; then base and fiber composition both fail by exactly the
    compensator pair (S-shift -pi m, phase (-1)^m), which is the form used by
    the gauge-invariant section machinery.  The base map and the fiber phase
    use the angle wrapped to [0, 2 pi); the generator family keeps the lifted
    flow.
    """
    levels = np.arange(dim, dtype=float) + 0.5
    return _flow_action("metaplectic-so2" + ("-drift" if drift else ""), "so2",
                        dim, _rotation_flow(-0.5 if drift else 0.0),
                        np.diag(levels).astype(complex), period=2 * np.pi)
