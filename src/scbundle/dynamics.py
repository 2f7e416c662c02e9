"""Semiclassical evolution pipeline.

Classical flow of the base point (S, P, Q) by fixed-step RK4, the quadratic
fluctuation propagator by midpoint-exponential stepping, their pairing as a
bundle automorphism, the wave-packet substitution on a 1-D grid, and an
independent split-step spectral reference solver used as the verification
oracle.

**Rows contract.** :class:`ClassicalState` is the single-point form of a
base point.  Inside the numerics a base point is a state row
``S, P..., Q...`` (its ``as_array`` layout) and a set of base points is a
stack of rows, shape (R, 2n+1).  A :class:`HamiltonianSpec` evaluates H,
its gradient and its Hessian on a stack; :func:`classical_flows` advances a
stack in one RK4 loop, each row with its own step and step count; and
:func:`reference_schrodinger` advances a stack of wave packets in one
split-step loop.  At n = 1 every row of a stacked result is bitwise the
result of that row computed alone, so :func:`classical_flow` and a
single-eps :func:`ansatz_error` are the one-row cases.

**Step-grid invariant.** A flow to time T with step dt takes
round(|T|/dt) steps of h = T/round(|T|/dt), and its fluctuation propagator
steps along the same times.  When several times share one h (checked by
:func:`step_counts`), the flow to an earlier time and its propagator are,
bitwise, prefixes of the flow to a later one and of its running product.
The evolution-law check reads all its flows and propagators that way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InputError, NumericalError, ResolutionError
from .fiber import (DimConfig, FiberOperator, FiberVector, hermite_functions,
                    quadratic_hamiltonian, spectral_exp, unitarity_residual)

__all__ = [
    "ClassicalState",
    "HamiltonianSpec",
    "Trajectory",
    "quadratic_hamiltonian_spec",
    "cubic_perturbed_spec",
    "step_counts",
    "classical_flow",
    "classical_flows",
    "fluctuation_propagator",
    "fluctuation_propagators",
    "evolution_automorphism",
    "ansatz_wavefunction",
    "reference_schrodinger",
    "ansatz_error",
    "ansatz_errors",
    "l2_distance",
]

UNITARITY_BUDGET = 1e-8


@dataclass(frozen=True)
class ClassicalState:
    """Base point of the bundle: action S, momenta P, coordinates Q."""

    S: float
    P: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        P = np.atleast_1d(np.asarray(self.P, dtype=float))
        Q = np.atleast_1d(np.asarray(self.Q, dtype=float))
        if P.shape != Q.shape or P.ndim != 1:
            raise InputError("P and Q must be 1-D arrays of equal length")
        if not (np.isfinite(self.S) and np.all(np.isfinite(P)) and np.all(np.isfinite(Q))):
            raise InputError("non-finite classical state")
        object.__setattr__(self, "S", float(self.S))
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "Q", Q)

    @property
    def n(self) -> int:
        return self.P.size

    def as_array(self) -> np.ndarray:
        return np.concatenate([[self.S], self.P, self.Q])

    @staticmethod
    def from_array(y: np.ndarray, n: int) -> "ClassicalState":
        return ClassicalState(y[0], y[1:1 + n], y[1 + n:1 + 2 * n])

    def distance(self, other: "ClassicalState") -> float:
        return float(np.linalg.norm(self.as_array() - other.as_array()))


@dataclass(frozen=True)
class HamiltonianSpec:
    """Classical Hamiltonian H(Q, P) evaluated on stacks of state rows.

    Each callable takes rows (R, 2n+1) laid out ``S, P..., Q...`` (H does
    not depend on S) and works row by row: ``value`` returns H, shape (R,);
    ``grad`` the gradient in the row's (P..., Q...) coordinates, shape
    (R, 2n); ``hess`` the Hessian in the same coordinates, shape
    (R, 2n, 2n).  Row r of a result depends on row r alone and, at n = 1,
    does not depend on the other rows even in its last bit: that is what
    lets one RK4 loop advance a stack, and lets a flow on the step grid of
    a longer one (see the module docstring) be read off as its prefix.

    ``potential`` is set when H has the separable form P^2/2 + V(Q); the
    grid reference solver requires it.  ``constant_hessians`` marks purely
    quadratic Hamiltonians so the fluctuation stepper may reuse one step
    matrix.
    """

    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    n: int
    potential: Optional[Callable[[np.ndarray], np.ndarray]] = None
    constant_hessians: bool = False

    def validate(self, probes) -> float:
        """Central-difference consistency of the gradient with ``value`` and
        of the Hessian with ``grad`` at the probe rows, evaluated as one
        stack; returns the worst error relative to max(1, |H|) and raises
        InputError when it exceeds 1e-6."""
        rows = np.atleast_2d(np.asarray(probes, dtype=float))
        count, width = rows.shape
        m = 2 * self.n
        h = 1e-6
        shift = np.zeros((m, width))
        shift[:, 1:] = h * np.eye(m)
        stack = np.concatenate([rows, (rows[:, None] + shift).reshape(-1, width),
                                (rows[:, None] - shift).reshape(-1, width)])
        value, grad = self.value(stack), self.grad(stack)
        plus, minus = slice(count, count * (1 + m)), slice(count * (1 + m), None)
        fd_grad = ((value[plus] - value[minus]) / (2 * h)).reshape(count, m)
        # fd_hess[r, j, i]: derivative of gradient component i along coordinate j
        fd_hess = ((grad[plus] - grad[minus]) / (2 * h)).reshape(count, m, m)
        scale = np.maximum(1.0, np.abs(value[:count]))[:, None]
        worst = float(max(
            np.max(np.abs(fd_grad - grad[:count]) / scale),
            np.max(np.abs(fd_hess - np.swapaxes(self.hess(rows), 1, 2))
                   / scale[:, :, None])))
        if worst > 1e-6:
            raise InputError(
                f"Hamiltonian derivatives inconsistent (relative error {worst:.3e})")
        return worst


def quadratic_hamiltonian_spec(m_qq, m_qp=None, m_pp=None) -> HamiltonianSpec:
    """H = (1/2) P.Mpp.P + P.Mqp.Q + (1/2) Q.Mqq.Q (defaults: Mpp = I,
    Mqp = 0), evaluated as (1/2) z.K.z with gradient K z, for z = (P, Q) and
    K the Hessian."""
    m_qq = np.atleast_2d(np.asarray(m_qq, dtype=float))
    n = m_qq.shape[0]
    m_qp = np.zeros((n, n)) if m_qp is None else np.atleast_2d(np.asarray(m_qp, dtype=float))
    m_pp = np.eye(n) if m_pp is None else np.atleast_2d(np.asarray(m_pp, dtype=float))
    hessian = np.block([[m_pp, m_qp], [m_qp.T, m_qq]])

    def grad(rows):
        return rows[:, 1:] @ hessian.T

    def value(rows):
        z = rows[:, 1:]
        return 0.5 * np.add.reduce(z @ hessian.T * z, axis=1)

    separable = np.allclose(m_pp, np.eye(n)) and np.allclose(m_qp, 0.0)
    potential = (lambda Q: 0.5 * np.asarray(Q) * m_qq[0, 0] * np.asarray(Q)) \
        if (separable and n == 1) else None
    return HamiltonianSpec(
        value=value,
        grad=grad,
        hess=lambda rows: np.broadcast_to(hessian, (len(rows),) + hessian.shape),
        n=n,
        potential=potential,
        constant_hessians=True,
    )


def cubic_perturbed_spec(omega2: float = 1.0, cubic: float = 0.1) -> HamiltonianSpec:
    """1-D H = P^2/2 + (omega2/2) Q^2 + cubic * Q^3."""
    # powers as products: numpy's array power may take a SIMD pow whose
    # last bit depends on the CPU
    def value(rows):
        P, Q = rows[:, 1], rows[:, 2]
        Q2 = Q * Q
        return 0.5 * (P * P) + 0.5 * omega2 * Q2 + cubic * (Q2 * Q)

    def grad(rows):
        P, Q = rows[:, 1:2], rows[:, 2:3]
        return np.concatenate([P, omega2 * Q + 3 * cubic * (Q * Q)], axis=1)

    def hess(rows):
        out = np.zeros((len(rows), 2, 2))
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = omega2 + 6 * cubic * rows[:, 2]
        return out

    return HamiltonianSpec(
        value=value,
        grad=grad,
        hess=hess,
        n=1,
        potential=lambda Q: 0.5 * omega2 * np.asarray(Q) ** 2 + cubic * np.asarray(Q) ** 3,
        constant_hessians=False,
    )


# ---------------------------------------------------------------------------
# classical flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Sampled classical flow: ``rows[k]`` is the state row at ``times[k]``;
    ``initial`` is the state the flow started from."""

    times: np.ndarray
    rows: np.ndarray
    energy_drift: float
    initial: ClassicalState

    def __len__(self):
        return self.rows.shape[0]

    @property
    def final(self) -> ClassicalState:
        if len(self) == 1:
            return self.initial
        return ClassicalState.from_array(self.rows[-1], self.initial.n)


def _hamilton_rhs(H: HamiltonianSpec, y: np.ndarray) -> np.ndarray:
    """dS/dt = P.dQ/dt - H, dP/dt = -dH/dQ, dQ/dt = dH/dP on a stack."""
    n = H.n
    grad = H.grad(y)
    out = np.empty_like(y)
    out[:, 0] = np.add.reduce(y[:, 1:1 + n] * grad[:, :n], axis=1) - H.value(y)
    np.negative(grad[:, n:], out=out[:, 1:1 + n])
    out[:, 1 + n:] = grad[:, :n]
    return out


def _rk4_step(H: HamiltonianSpec, y: np.ndarray, h: np.ndarray) -> np.ndarray:
    """One RK4 step of every row of ``y``, row r with step ``h[r]``."""
    h = h[:, None]
    half = 0.5 * h
    k1 = _hamilton_rhs(H, y)
    k2 = _hamilton_rhs(H, y + half * k1)
    k3 = _hamilton_rhs(H, y + half * k2)
    k4 = _hamilton_rhs(H, y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _rk4_paths(H: HamiltonianSpec, rows: np.ndarray, h: np.ndarray,
               counts: np.ndarray) -> list:
    """The RK4 loop over a stack: row r takes ``counts[r]`` steps of
    ``h[r]``.  Returns each row's states, shape (counts[r] + 1, 2n+1).  The
    rows are advanced in order of decreasing count, so the active rows are
    a leading slice."""
    order = np.argsort(-counts, kind="stable")
    y, h, counts = rows[order], h[order], counts[order]
    paths = np.empty((len(y), counts[0] + 1, y.shape[1]))
    paths[:, 0] = y
    active = len(y)
    for k in range(counts[0]):
        while counts[active - 1] <= k:
            active -= 1
        y = _rk4_step(H, y[:active], h[:active])
        if not np.isfinite(y).all():
            t = (k + 1) * h[np.argmin(np.isfinite(y).all(axis=1))]
            raise NumericalError(f"classical flow blew up at t = {t:.6g}")
        paths[:active, k + 1] = y
    return [paths[i, :counts[i] + 1].copy() for i in np.argsort(order)]


def _grid(T: np.ndarray, dt: np.ndarray):
    """Step counts round(|T|/dt) and steps T/count (zero for T = 0)."""
    counts = np.rint(np.abs(T) / dt).astype(int)
    return counts, np.where(counts > 0, T / np.maximum(counts, 1), 0.0)


def step_counts(times: Sequence[float], dt: float) -> np.ndarray:
    """Step counts round(|t|/dt) of ``times`` that lie on one step grid:
    each takes at least one step, and all take the same step
    h = t/round(|t|/dt).  Raises InputError otherwise.  On one grid the
    flow to an earlier time is, bitwise, a prefix of the flow to a later
    one."""
    times = np.asarray(times, dtype=float)
    counts, h = _grid(times, np.asarray(dt, dtype=float))
    if np.any(counts < 1) or np.unique(h).size > 1:
        raise InputError(f"times {times.tolist()} do not share one step of "
                         f"about dt = {dt}")
    return counts


def classical_flows(H: HamiltonianSpec, rows, T, dt) -> list:
    """Integrate dQ/dt = dH/dP, dP/dt = -dH/dQ, dS/dt = P.dQ/dt - H with
    fixed-step RK4 for a stack of initial rows (R, 2n+1) in one loop: row r
    from 0 to ``T[r]`` with step about ``dt[r]`` (either may be one number
    for every row; negative T integrates backwards).  Returns one
    :class:`Trajectory` per row."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.ndim != 2 or rows.shape[1] != 1 + 2 * H.n:
        raise InputError("state dimension does not match the Hamiltonian")
    T = np.broadcast_to(np.asarray(T, dtype=float), rows.shape[:1])
    dt = np.broadcast_to(np.asarray(dt, dtype=float), rows.shape[:1])
    if not np.all(np.isfinite(T)):
        raise InputError("non-finite final time")
    if not np.all(dt > 0):
        raise InputError("dt must be positive")
    if np.any((T != 0.0) & (dt > np.abs(T) * (1 + 1e-12))):
        raise InputError("dt exceeds the integration window")
    counts, h = _grid(T, dt)
    paths = _rk4_paths(H, rows, h, counts)
    drift = np.abs(H.value(np.array([path[-1] for path in paths])) - H.value(rows))
    return [Trajectory(np.arange(c + 1) * h[r], path, float(drift[r]),
                       ClassicalState.from_array(rows[r], H.n))
            for r, (c, path) in enumerate(zip(counts, paths))]


def classical_flow(H: HamiltonianSpec, X0: ClassicalState, T: float,
                   dt: float) -> Trajectory:
    """The flow of one base point from 0 to T: the one-row case of
    :func:`classical_flows`."""
    if X0.n != H.n:
        raise InputError("state dimension does not match the Hamiltonian")
    return replace(classical_flows(H, X0.as_array(), T, dt)[0], initial=X0)


# ---------------------------------------------------------------------------
# fluctuation propagator
# ---------------------------------------------------------------------------

def _fluct_matrix(H: HamiltonianSpec, hessian: np.ndarray, config: DimConfig):
    n = H.n
    return quadratic_hamiltonian(hessian[n:, n:], hessian[:n, n:],
                                 hessian[:n, :n], config).matrix


def _checked_propagator(U: np.ndarray, config: DimConfig) -> FiberOperator:
    if not np.all(np.isfinite(U)):
        raise NumericalError("fluctuation propagator blew up")
    residual = unitarity_residual(U)
    if residual > UNITARITY_BUDGET:
        raise NumericalError(
            f"fluctuation propagator unitarity residual {residual:.3e}")
    return FiberOperator(U, config, unitary=True)


def _step_unitaries(H: HamiltonianSpec, trajectory: Trajectory,
                    config: DimConfig, count: int):
    """The exponentials of the first ``count`` steps of the trajectory, in
    time order, each evaluated at its interval midpoint."""
    if count == 0:
        return
    dts = np.diff(trajectory.times[:count + 1])
    if H.constant_hessians:
        hessian = H.hess(trajectory.rows[:1])[0]
        step = spectral_exp(np.linalg.eigh(_fluct_matrix(H, hessian, config)), dts[0])
        for _ in range(count):
            yield step
        return
    midpoints = _rk4_step(H, trajectory.rows[:count], 0.5 * dts)
    for hessian, dt in zip(H.hess(midpoints), dts):
        yield spectral_exp(np.linalg.eigh(_fluct_matrix(H, hessian, config)), dt)


def fluctuation_propagators(H: HamiltonianSpec, trajectory: Trajectory,
                            config: DimConfig, counts: Sequence[int]) -> list:
    """Time-ordered unitaries for i df/dt = H_fluct(t) f along the first
    ``c`` steps of the trajectory, for each ``c`` in ``counts``: prefixes of
    one running product of per-step exponentials evaluated at the interval
    midpoints."""
    if config.n != H.n:
        raise InputError("fiber dimension does not match the Hamiltonian")
    counts = [int(c) for c in counts]
    if min(counts) < 0 or max(counts) >= len(trajectory):
        raise InputError("propagator step count outside the trajectory")
    U = np.eye(config.dim, dtype=complex)
    prefixes = {0: U}
    for k, step in enumerate(_step_unitaries(H, trajectory, config, max(counts)), 1):
        U = step @ U
        if k in counts:
            prefixes[k] = U
    return [_checked_propagator(prefixes[c], config) for c in counts]


def fluctuation_propagator(H: HamiltonianSpec, trajectory: Trajectory,
                           config: DimConfig) -> FiberOperator:
    """The propagator along the whole trajectory: the one-count case of
    :func:`fluctuation_propagators`."""
    return fluctuation_propagators(H, trajectory, config, [len(trajectory) - 1])[0]


def evolution_automorphism(H: HamiltonianSpec, t: float, dt: float,
                           config: DimConfig) -> Callable[[ClassicalState], tuple]:
    """Time-t evolution automorphism X -> (u_t X, U(u_t X <- X)): one
    classical flow from X gives the base image and, along the same
    trajectory, the fluctuation propagator on the fibers."""
    def automorphism(X: ClassicalState) -> tuple:
        trajectory = classical_flow(H, X, t, dt)
        return trajectory.final, fluctuation_propagator(H, trajectory, config)

    return automorphism


# ---------------------------------------------------------------------------
# wave-packet ansatz and grid reference
# ---------------------------------------------------------------------------

def ansatz_wavefunction(X: ClassicalState, f: FiberVector, eps: float,
                        xs: np.ndarray) -> np.ndarray:
    """Wave packet  eps^{-1/4} exp(iS/eps) exp(iP(x-Q)/eps) f((x-Q)/sqrt(eps))
    sampled on the 1-D grid ``xs``; the eps^{-1/4} Jacobian factor makes the
    grid L2 norm equal the fiber norm."""
    if X.n != 1 or f.dim_config.n != 1:
        raise InputError("ansatz synthesis is 1-D only")
    if eps <= 0:
        raise InputError("eps must be positive")
    xs = np.asarray(xs, dtype=float)
    dx = xs[1] - xs[0]
    if abs(X.P[0]) > 0:
        wavelength = 2 * np.pi * eps / abs(X.P[0])
        if dx > wavelength / 8:
            raise ResolutionError(
                f"grid spacing {dx:.3e} under-resolves the carrier wave "
                f"(need <= {wavelength / 8:.3e})")
    occupied = np.nonzero(np.abs(f.coeffs) > 0)[0]
    k_max = int(occupied[-1]) if occupied.size else 0
    radius = 8 * np.sqrt(eps) * np.sqrt(2 * k_max + 1)
    if xs[0] > X.Q[0] - radius or xs[-1] < X.Q[0] + radius:
        raise ResolutionError("grid does not cover the packet support")
    xi = (xs - X.Q[0]) / np.sqrt(eps)
    h = hermite_functions(xi, f.dim_config.dim)
    profile = f.coeffs @ h
    phase = np.exp(1j * (X.S + X.P[0] * (xs - X.Q[0])) / eps)
    return eps ** -0.25 * phase * profile


def _grid_norm(psi: np.ndarray, dx: float) -> np.ndarray:
    """Grid L2 norm of each wave packet (along the last axis)."""
    return np.sqrt(np.sum(np.abs(psi) ** 2, axis=-1) * dx)


def l2_distance(psi: np.ndarray, phi: np.ndarray, dx: float) -> float:
    return float(_grid_norm(psi - phi, dx))


def reference_schrodinger(H: HamiltonianSpec, psi0: np.ndarray, eps,
                          T: float, xs: np.ndarray, dt: float) -> np.ndarray:
    """Strang split-step spectral integration of
    i eps dpsi/dt = [-(eps^2/2) d^2/dx^2 + V(x)] psi on a periodic grid.

    ``psi0`` is one wave packet on ``xs`` or a stack (R, len(xs)) of them,
    with ``eps`` one number or one per row; the stack runs in one loop, and
    each row is bitwise its one-row run."""
    if H.potential is None:
        raise InputError("reference solver needs H of the form P^2/2 + V(Q)")
    eps = np.asarray(eps, dtype=float)
    if np.any(eps <= 0):
        raise InputError("eps must be positive")
    psi = np.array(psi0, dtype=complex)
    xs = np.asarray(xs, dtype=float)
    if psi.shape[-1:] != xs.shape or psi.ndim > 2 or eps.shape not in ((), psi.shape[:-1]):
        raise InputError("psi0, eps and grid shapes differ")
    if T == 0.0:
        return psi
    eps = eps[..., None]
    dx = xs[1] - xs[0]
    k = 2 * np.pi * np.fft.fftfreq(xs.size, d=dx)
    # spectral headroom: the packet momentum P/eps plus fluctuation bandwidth
    # must sit inside the resolved band
    band = np.max(np.abs(k))
    n_steps = int(round(abs(T) / dt))
    h = T / n_steps
    v = H.potential(xs)
    half_v = np.exp(-0.5j * h * v / eps)
    kinetic = np.exp(-0.5j * h * eps * k ** 2)
    norm0 = _grid_norm(psi, dx)
    for _ in range(n_steps):
        psi = half_v * psi
        # np.multiply, not `*`: numpy evaluates `array * temporary` in place
        # when the temporary is large (a stack of packets), and its in-place
        # complex product rounds differently from the out-of-place one
        psi = np.fft.ifft(np.multiply(kinetic, np.fft.fft(psi)))
        psi = half_v * psi
    # resolution guard: energy reaching the top eighth of the spectral band
    spec = np.abs(np.fft.fft(psi)) ** 2
    edge_power = np.max(np.sum(spec[..., np.abs(k) > 0.875 * band], axis=-1)
                        / np.sum(spec, axis=-1))
    if edge_power > 1e-10:
        raise ResolutionError(
            f"spectral band nearly saturated (edge fraction {edge_power:.3e})")
    drift = np.max(np.abs(_grid_norm(psi, dx) - norm0))
    if drift > 1e-8:
        raise NumericalError(f"reference solver norm drift {drift:.3e}")
    return psi


def ansatz_errors(H: HamiltonianSpec, X0: ClassicalState, f0: FiberVector,
                  eps_list: Sequence[float], T: float, xs: np.ndarray,
                  dt: float = 1e-3) -> list:
    """L2 distance at time T, for each eps, between the semiclassical ansatz
    (classical flow + fluctuation propagator, step ``dt``, both independent
    of eps and computed once) and the split-step reference (step ``dt / 4``,
    one loop over the stack of per-eps packets) started from the same
    initial ansatz."""
    xs = np.asarray(xs, dtype=float)
    eps_list = [float(eps) for eps in eps_list]
    psi0 = [ansatz_wavefunction(X0, f0, eps, xs) for eps in eps_list]
    if T == 0.0:
        return [0.0] * len(eps_list)
    trajectory = classical_flow(H, X0, T, dt)
    f_T = fluctuation_propagator(H, trajectory, f0.dim_config).apply(f0)
    semiclassical = [ansatz_wavefunction(trajectory.final, f_T, eps, xs) for eps in eps_list]
    reference = reference_schrodinger(H, psi0, eps_list, T, xs, dt / 4)
    return [l2_distance(psi, phi, xs[1] - xs[0]) for psi, phi in zip(semiclassical, reference)]


def ansatz_error(H: HamiltonianSpec, X0: ClassicalState, f0: FiberVector,
                 eps: float, T: float, xs: np.ndarray, dt: float = 1e-3) -> float:
    """The one-eps case of :func:`ansatz_errors`."""
    return ansatz_errors(H, X0, f0, [eps], T, xs, dt)[0]
