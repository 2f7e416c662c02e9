"""Gauge actions on the bundle and gauge-equivalent (projective) group laws.

Built-in gauge groups are one-parameter: the pure fiber phase (identity on
the base -- degenerate for invariant sections, and exactly the stabilizer
counterexample) and the phase shift (shift S by c, rotate fibers by
exp(-ic)), which is the semiclassical identification that makes the
metaplectic circle action honest on gauge-invariant sections.  A base point
is a state row ``S, P, Q`` (see :mod:`.dynamics`).  Each gauge writes its
base map once, ``base_rows``, on one state row or a stack of them; every
compensator has a closed form (from the S difference for the phase shift,
from the fiber-overlap angle for the pure phase).

The enlarged orbit of a circle scenario is sampled as (rotation lattice) x
(gauge-parameter lattice) and held as one array of state rows; invariant
sections are stored on that grid and transformed by the quotient form of the
left regular action, with one batched flow call per transform, the fiber
transport read from the direction's ``GeneratorData.unitary``, and the
sources off the gauge window completed through the invariance condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .actions import BundleAction
from .errors import ConsistencyError, InputError, PreconditionError
from .groups import as_matrix
from .sections import state_keys

__all__ = [
    "GaugeGroup",
    "u1_phase_gauge",
    "phase_shift_gauge",
    "gauge_equivalent",
    "GaugeRecord",
    "compensator_relations_check",
    "GaugeBundle",
]

EQUIV_TOL = 1e-8


@dataclass(frozen=True)
class GaugeGroup:
    """One-parameter abelian gauge group acting on the bundle.

    ``base_rows(alphas, rows)`` maps a state row or a stack of them,
    broadcasting parameters against rows; it is the gauge's only base map.
    ``base_shift_s`` marks gauges whose base map is a pure shift of the
    action coordinate (then compensators are solved from S differences);
    gauges with the identity base map get their compensators from fiber
    phases instead.
    """

    name: str
    base_rows: Callable[[np.ndarray, np.ndarray], np.ndarray]
    fiber_phase: Callable[[float], complex]
    base_shift_s: bool

    def fiber_apply(self, alpha: float, f: np.ndarray) -> np.ndarray:
        return self.fiber_phase(alpha) * np.asarray(f, dtype=complex)


def _broadcast_rows(alphas, rows) -> np.ndarray:
    """A copy of ``rows`` broadcast against the gauge parameters (the
    identity base map)."""
    rows = np.asarray(rows, dtype=float)
    shape = np.broadcast_shapes(np.shape(alphas), rows.shape[:-1]) + rows.shape[-1:]
    return np.array(np.broadcast_to(rows, shape))


def _shift_s(c, rows) -> np.ndarray:
    """Rows with the action coordinate S shifted by ``c``."""
    out = _broadcast_rows(c, rows)
    out[..., 0] = out[..., 0] + c
    return out


def u1_phase_gauge() -> GaugeGroup:
    """Pure fiber phase, identity on the base."""
    return GaugeGroup(
        name="u1_phase",
        base_rows=_broadcast_rows,
        fiber_phase=lambda alpha: np.exp(1j * alpha),
        base_shift_s=False)


def phase_shift_gauge() -> GaugeGroup:
    """The semiclassical pairing: shifting S by c rotates fibers by
    exp(-ic), so the physical packet exp(iS) f is unchanged along orbits."""
    return GaugeGroup(
        name="phase_shift",
        base_rows=_shift_s,
        fiber_phase=lambda c: np.exp(-1j * c),
        base_shift_s=True)


# ---------------------------------------------------------------------------
# gauge equivalence
# ---------------------------------------------------------------------------

def gauge_equivalent(gauge: GaugeGroup, z1, z2):
    """Decide whether two bundle points lie on one gauge orbit.

    Returns ``(equivalent, best_alpha, residual)``.  The parameter is solved
    in closed form: from the S difference for base-moving gauges, from the
    fiber-overlap angle otherwise.
    """
    X1, f1 = z1
    X2, f2 = z2
    f1 = np.asarray(f1, dtype=complex)
    f2 = np.asarray(f2, dtype=complex)
    alpha = _gauge_parameter(gauge, X1, X2, f1, f2)
    residual = float(np.linalg.norm(gauge.base_rows(alpha, X1) - X2)
                     + np.linalg.norm(gauge.fiber_apply(alpha, f1) - f2))
    return residual <= EQUIV_TOL, alpha, residual


# ---------------------------------------------------------------------------
# compensator relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaugeRecord:
    relation: str
    residual: float
    compensator_parameters: tuple


def _gauge_parameter(gauge: GaugeGroup, X_from, X_to, f_from: np.ndarray,
                     f_to: np.ndarray) -> float:
    """The gauge parameter carrying (X_from, f_from) to (X_to, f_to): the S
    difference for base-moving gauges, otherwise the phase angle aligning
    f_from to f_to (the argument of their overlap)."""
    if gauge.base_shift_s:
        return float(X_to[0] - X_from[0])
    overlap = np.vdot(f_from, f_to)
    return float(np.angle(overlap)) if overlap != 0 else 0.0


def compensator_relations_check(action: BundleAction, gauge: GaugeGroup,
                                g, g1, g2, alpha: float, X: np.ndarray,
                                f: np.ndarray):
    """Residuals of the four compensator relations of a gauge action:

    base conjugation      u_g lambda_alpha u_{g^-1} = lambda_beta
    base composition      u_{g1} u_{g2} = lambda_gamma u_{g1 g2}
    fiber conjugation     U_g V_alpha U_{g^-1} = V_beta
    fiber composition     U_{g1} U_{g2} = V_gamma U_{g1 g2}

    Compensators are solved from S differences for base-moving gauges and
    from fiber phases for base-trivial gauges.
    """
    f = np.asarray(f, dtype=complex)
    records = []

    g_m, g1_m, g2_m = as_matrix(g), as_matrix(g1), as_matrix(g2)
    g_inv = np.linalg.inv(g_m)

    # (28): beta carries X to its conjugated image (and f to lhs30)
    conj_point = action.base_points(g_m, gauge.base_rows(alpha, action.base_points(g_inv, X)))
    lhs30 = action.fiber_matrix(g_m) @ gauge.fiber_apply(
        alpha, action.fiber_matrix(g_inv) @ f)
    beta = _gauge_parameter(gauge, X, conj_point, f, lhs30)
    res28 = float(np.linalg.norm(gauge.base_rows(beta, X) - conj_point))
    records.append(GaugeRecord("28", res28, (beta,)))

    # (29): gamma carries the one-step image to the two-step one
    two_step = action.base_points(g1_m, action.base_points(g2_m, X))
    one_step = action.base_points(g1_m @ g2_m, X)
    lhs31 = action.fiber_matrix(g1_m) @ (action.fiber_matrix(g2_m) @ f)
    one_step_f = action.fiber_matrix(g1_m @ g2_m) @ f
    gamma = _gauge_parameter(gauge, one_step, two_step, one_step_f, lhs31)
    res29 = float(np.linalg.norm(gauge.base_rows(gamma, one_step) - two_step))
    records.append(GaugeRecord("29", res29, (gamma,)))

    # (30): fiber conjugation against V_beta
    res30 = float(np.linalg.norm(lhs30 - gauge.fiber_apply(beta, f)))
    records.append(GaugeRecord("30", res30, (beta,)))

    # (31): fiber composition against V_gamma
    res31 = float(np.linalg.norm(lhs31 - gauge.fiber_apply(gamma, one_step_f)))
    records.append(GaugeRecord("31", res31, (gamma,)))
    return records


# ---------------------------------------------------------------------------
# gauge-invariant sections on the enlarged orbit
# ---------------------------------------------------------------------------

class GaugeBundle:
    """Enlarged orbit of a circle scenario: rotation lattice times gauge
    lattice, with the storage and transforms of gauge-invariant sections.

    The left regular action is applied through the *lifted* one-parameter
    flow (unwrapped angle): the circle element of index m acts via the real
    parameter m * (2 pi / M).  On gauge-invariant sections the result depends
    on m only modulo M -- that descent, together with the exact group law,
    is the content the gauge machinery verifies; neither holds for the
    strict (wrapped) action on plain sections.

    ``anchor`` is a state row.  ``theta_nodes`` samples the rotation angle
    on 2 pi / M steps; ``gauge_step`` and ``gauge_window`` sample the gauge
    parameter.  The anchor's gauge slice (parameter 0) carries the
    fundamental values.
    """

    def __init__(self, family, gauge: GaugeGroup, anchor: np.ndarray,
                 theta_nodes: int, gauge_step: float, gauge_window: int):
        if theta_nodes < 2 or gauge_window < 1:
            raise InputError("enlarged orbit needs at least two nodes per axis")
        if family.group.dim != 1:
            raise InputError("the enlarged orbit is built over one-parameter flows")
        self.family = family
        self.flow = family.directions[0].flow
        self.gauge = gauge
        self.anchor = anchor
        self.theta_nodes = theta_nodes
        self.theta_step = 2 * np.pi / theta_nodes
        self.gauge_step = float(gauge_step)
        self.gauge_indices = np.arange(-gauge_window, gauge_window + 1)
        self.dim = family.fiber_dim

        thetas = self.theta_step * np.arange(theta_nodes)
        self._orbit_rows = self.flow(thetas, anchor)
        grid = gauge.base_rows((self.gauge_indices * self.gauge_step)[None, :],
                               self._orbit_rows[:, None, :])
        self.base_rows = grid.reshape(-1, self._orbit_rows.shape[1])
        self._keys = state_keys(self.base_rows)

    def _grid_indices(self, rows: np.ndarray) -> np.ndarray:
        """Flat grid index of each state row (-1 where it is off the grid)."""
        keys = np.concatenate([self._keys, state_keys(rows)])
        _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                      return_inverse=True)
        found = first[inverse.reshape(-1)[len(self._keys):]]
        return np.where(found < len(self._keys), found, -1)

    def zeros(self) -> np.ndarray:
        return np.zeros((self.theta_nodes, self.gauge_indices.size, self.dim),
                        dtype=complex)

    def norm(self, values: np.ndarray) -> float:
        return float(np.max(np.linalg.norm(values, axis=-1)))

    # -- invariant sections ------------------------------------------------

    def build_invariant(self, fundamental: np.ndarray) -> np.ndarray:
        """Extend per-rotation-node fundamental values (theta_nodes, dim)
        to the whole enlarged grid through the invariance condition
        Psi(lambda_alpha Y) = V_alpha Psi(Y).

        A gauge whose base map fixes points while its fiber phases act
        nontrivially admits only the zero section: nonzero data is rejected
        as inconsistent (the stabilizer consistency check).
        """
        fundamental = np.asarray(fundamental, dtype=complex)
        if fundamental.shape != (self.theta_nodes, self.dim):
            raise InputError("one fundamental value per rotation node required")
        start = self._orbit_rows[0]
        fixes_base = np.linalg.norm(self.gauge.base_rows(self.gauge_step, start)
                                    - start) <= 1e-12
        moves_fiber = abs(self.gauge.fiber_phase(self.gauge_step) - 1.0) > 1e-12
        if fixes_base and moves_fiber and np.max(np.abs(fundamental)) > 0:
            raise ConsistencyError(
                "gauge stabilizes base points but rotates fibers: only the "
                "zero section is invariant")
        out = self.zeros()
        for j_pos, j in enumerate(self.gauge_indices):
            phase = self.gauge.fiber_phase(j * self.gauge_step)
            out[:, j_pos, :] = phase * fundamental
        return out

    def invariance_residual(self, values: np.ndarray) -> float:
        """Worst violation of the invariance condition over all sampled
        (gauge shift, grid point) pairs that stay on the grid."""
        worst = 0.0
        n_j = self.gauge_indices.size
        for shift in range(1, n_j):
            phase = self.gauge.fiber_phase(shift * self.gauge_step)
            lhs = values[:, shift:, :]
            rhs = phase * values[:, :n_j - shift, :]
            if lhs.size:
                worst = max(worst, float(np.max(np.linalg.norm(lhs - rhs, axis=-1))))
        return worst

    def require_invariant(self, values: np.ndarray) -> None:
        res = self.invariance_residual(values)
        if res > 1e-8:
            raise PreconditionError(
                f"section violates gauge invariance (residual {res:.3e})")

    # -- the quotient left regular action -----------------------------------

    def gauge_transform(self, m_steps: int, values: np.ndarray) -> np.ndarray:
        """Left regular transform by the circle element of index ``m_steps``
        on gauge-invariant sections, applied through the lifted flow.
        Sources off the gauge window are completed through the invariance
        condition."""
        self.require_invariant(values)
        theta = m_steps * self.theta_step
        # the unwrapped parameter: a full turn contributes the anomaly phase
        U = self.family.directions[0].unitary(theta)
        n_j = self.gauge_indices.size
        src = self.flow(-theta, self.base_rows)
        flat = self._grid_indices(src)
        sources = values.reshape(-1, self.dim)[flat]
        # complete the off-window gauge coordinate through invariance
        off = flat < 0
        if np.any(off):
            i_src = (np.repeat(np.arange(self.theta_nodes), n_j)[off] - m_steps) \
                % self.theta_nodes
            ref = self._orbit_rows[i_src]
            if np.any(np.linalg.norm(src[off, 1:] - ref[:, 1:], axis=1) > 1e-9):
                raise PreconditionError(
                    "pulled-back point is off the enlarged orbit")
            phase = self.gauge.fiber_phase(src[off, 0] - ref[:, 0])
            sources[off] = np.asarray(phase)[..., None] * values[i_src, n_j // 2]
        out = np.matmul(U, sources[:, :, None])[:, :, 0]
        return out.reshape(self.theta_nodes, n_j, self.dim)


def equivalence_relation_residuals(gauge: GaugeGroup, z: tuple,
                                   alphas: Sequence[float]) -> dict:
    """Reflexivity, symmetry, and transitivity residuals on points drawn
    from one gauge orbit."""
    X, f = z
    a1, a2 = alphas
    z1 = (gauge.base_rows(a1, X), gauge.fiber_apply(a1, f))
    z2 = (gauge.base_rows(a1 + a2, X), gauge.fiber_apply(a1 + a2, f))
    _, _, r_reflexive = gauge_equivalent(gauge, z, z)
    ok_fwd, alpha_fwd, r_fwd = gauge_equivalent(gauge, z, z1)
    ok_bwd, alpha_bwd, r_bwd = gauge_equivalent(gauge, z1, z)
    _, _, r_trans = gauge_equivalent(gauge, z, z2)
    return {
        "reflexive": r_reflexive,
        "symmetric": max(r_fwd, r_bwd, abs(alpha_fwd + alpha_bwd)),
        "transitive": r_trans,
    }
