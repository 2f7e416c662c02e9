"""Semiclassical evolution pipeline.

Classical flow of the base point (S, P, Q) by fixed-step RK4, the quadratic
fluctuation propagator by midpoint-exponential stepping, their pairing as a
bundle automorphism, the wave-packet substitution on a 1-D grid, and an
independent split-step spectral reference solver used as the verification
oracle.

:class:`ClassicalState` is the single-point form of a base point; inside the
numerics base points are state rows ``S, P..., Q...`` (its ``as_array``
layout), and a :class:`Trajectory` stores its steps as one array of rows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
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
    "classical_flow",
    "fluctuation_propagator",
    "evolution_automorphism",
    "ansatz_wavefunction",
    "reference_schrodinger",
    "ansatz_error",
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
    """Classical Hamiltonian H(Q, P) with gradients and Hessian blocks.

    ``potential`` is set when H has the separable form P^2/2 + V(Q); the
    grid reference solver requires it.  ``constant_hessians`` marks purely
    quadratic Hamiltonians so the fluctuation stepper may reuse one step
    matrix.
    """

    value: Callable[[np.ndarray, np.ndarray], float]
    grad_q: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_p: Callable[[np.ndarray, np.ndarray], np.ndarray]
    hess_qq: Callable[[np.ndarray, np.ndarray], np.ndarray]
    hess_qp: Callable[[np.ndarray, np.ndarray], np.ndarray]
    hess_pp: Callable[[np.ndarray, np.ndarray], np.ndarray]
    n: int
    potential: Optional[Callable[[np.ndarray], np.ndarray]] = None
    constant_hessians: bool = False

    def validate(self, probes: Sequence[ClassicalState]) -> float:
        """Central-difference consistency of gradients (and Hessians) with
        the scalar evaluator at the probe points; returns the worst relative
        error and raises InputError when it exceeds 1e-6."""
        worst = 0.0
        h = 1e-6
        for X in probes:
            Q, P = X.Q, X.P
            scale = max(1.0, abs(self.value(Q, P)))
            for k in range(self.n):
                eq = np.zeros(self.n)
                eq[k] = h
                fd_q = (self.value(Q + eq, P) - self.value(Q - eq, P)) / (2 * h)
                fd_p = (self.value(Q, P + eq) - self.value(Q, P - eq)) / (2 * h)
                worst = max(worst,
                            abs(fd_q - self.grad_q(Q, P)[k]) / scale,
                            abs(fd_p - self.grad_p(Q, P)[k]) / scale)
                fd_qq = (self.grad_q(Q + eq, P) - self.grad_q(Q - eq, P)) / (2 * h)
                fd_qp = (self.grad_q(Q, P + eq) - self.grad_q(Q, P - eq)) / (2 * h)
                fd_pp = (self.grad_p(Q, P + eq) - self.grad_p(Q, P - eq)) / (2 * h)
                worst = max(worst,
                            np.max(np.abs(fd_qq - self.hess_qq(Q, P)[:, k])) / scale,
                            np.max(np.abs(fd_qp - self.hess_qp(Q, P)[:, k])) / scale,
                            np.max(np.abs(fd_pp - self.hess_pp(Q, P)[:, k])) / scale)
        if worst > 1e-6:
            raise InputError(
                f"Hamiltonian derivatives inconsistent (relative error {worst:.3e})")
        return worst


def quadratic_hamiltonian_spec(m_qq, m_qp=None, m_pp=None) -> HamiltonianSpec:
    """H = (1/2) P.Mpp.P + P.Mqp.Q + (1/2) Q.Mqq.Q (defaults: Mpp = I,
    Mqp = 0)."""
    m_qq = np.atleast_2d(np.asarray(m_qq, dtype=float))
    n = m_qq.shape[0]
    m_qp = np.zeros((n, n)) if m_qp is None else np.atleast_2d(np.asarray(m_qp, dtype=float))
    m_pp = np.eye(n) if m_pp is None else np.atleast_2d(np.asarray(m_pp, dtype=float))

    def value(Q, P):
        return float(0.5 * P @ m_pp @ P + P @ m_qp @ Q + 0.5 * Q @ m_qq @ Q)

    separable = np.allclose(m_pp, np.eye(n)) and np.allclose(m_qp, 0.0)
    potential = (lambda Q: 0.5 * np.asarray(Q) * m_qq[0, 0] * np.asarray(Q)) \
        if (separable and n == 1) else None
    return HamiltonianSpec(
        value=value,
        grad_q=lambda Q, P: m_qq @ Q + m_qp.T @ P,
        grad_p=lambda Q, P: m_pp @ P + m_qp @ Q,
        hess_qq=lambda Q, P: m_qq,
        hess_qp=lambda Q, P: m_qp.T,
        hess_pp=lambda Q, P: m_pp,
        n=n,
        potential=potential,
        constant_hessians=True,
    )


def cubic_perturbed_spec(omega2: float = 1.0, cubic: float = 0.1) -> HamiltonianSpec:
    """1-D H = P^2/2 + (omega2/2) Q^2 + cubic * Q^3."""
    def value(Q, P):
        return float(0.5 * P[0] ** 2 + 0.5 * omega2 * Q[0] ** 2 + cubic * Q[0] ** 3)

    return HamiltonianSpec(
        value=value,
        grad_q=lambda Q, P: np.array([omega2 * Q[0] + 3 * cubic * Q[0] ** 2]),
        grad_p=lambda Q, P: np.array([P[0]]),
        hess_qq=lambda Q, P: np.array([[omega2 + 6 * cubic * Q[0]]]),
        hess_qp=lambda Q, P: np.zeros((1, 1)),
        hess_pp=lambda Q, P: np.ones((1, 1)),
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

    def to_csv(self, path) -> None:
        n = self.initial.n
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "S"]
                            + [f"P_{k + 1}" for k in range(n)]
                            + [f"Q_{k + 1}" for k in range(n)])
            for t, row in zip(self.times, self.rows):
                writer.writerow([f"{t:.12e}"] + [f"{v:.12e}" for v in row])


def _hamilton_rhs(H: HamiltonianSpec, y: np.ndarray) -> np.ndarray:
    n = H.n
    P, Q = y[1:1 + n], y[1 + n:]
    dQ = H.grad_p(Q, P)
    dP = -H.grad_q(Q, P)
    dS = P @ dQ - H.value(Q, P)
    return np.concatenate([[dS], dP, dQ])


def _rk4_step(H: HamiltonianSpec, y: np.ndarray, h: float) -> np.ndarray:
    k1 = _hamilton_rhs(H, y)
    k2 = _hamilton_rhs(H, y + 0.5 * h * k1)
    k3 = _hamilton_rhs(H, y + 0.5 * h * k2)
    k4 = _hamilton_rhs(H, y + h * k3)
    return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def classical_flow(H: HamiltonianSpec, X0: ClassicalState, T: float,
                   dt: float) -> Trajectory:
    """Integrate dQ/dt = dH/dP, dP/dt = -dH/dQ, dS/dt = P.dQ/dt - H with
    fixed-step RK4 from 0 to T.  Negative T integrates backwards."""
    if not np.isfinite(T):
        raise InputError("non-finite final time")
    if dt <= 0:
        raise InputError("dt must be positive")
    if X0.n != H.n:
        raise InputError("state dimension does not match the Hamiltonian")
    if T == 0.0:
        return Trajectory(np.array([0.0]), X0.as_array()[None], 0.0, X0)
    if dt > abs(T) * (1 + 1e-12):
        raise InputError("dt exceeds the integration window")
    n_steps = int(round(abs(T) / dt))
    h = T / n_steps
    rows = np.empty((n_steps + 1, 1 + 2 * H.n))
    rows[0] = y = X0.as_array()
    for k in range(n_steps):
        y = _rk4_step(H, y, h)
        if not np.all(np.isfinite(y)):
            raise NumericalError(f"classical flow blew up at t = {(k + 1) * h:.6g}")
        rows[k + 1] = y
    n = H.n
    drift = abs(H.value(y[1 + n:], y[1:1 + n]) - H.value(X0.Q, X0.P))
    return Trajectory(np.arange(n_steps + 1) * h, rows, drift, X0)


# ---------------------------------------------------------------------------
# fluctuation propagator
# ---------------------------------------------------------------------------

def _fluct_matrix(H: HamiltonianSpec, y: np.ndarray, config: DimConfig):
    n = H.n
    P, Q = y[1:1 + n], y[1 + n:]
    return quadratic_hamiltonian(H.hess_qq(Q, P), H.hess_qp(Q, P).T,
                                 H.hess_pp(Q, P), config).matrix


def fluctuation_propagator(H: HamiltonianSpec, trajectory: Trajectory,
                           config: DimConfig) -> FiberOperator:
    """Time-ordered unitary for i df/dt = H_fluct(t) f along the trajectory,
    one exponential per step evaluated at the interval midpoint."""
    if config.n != H.n:
        raise InputError("fiber dimension does not match the Hamiltonian")
    dim = config.dim
    U = np.eye(dim, dtype=complex)
    times = trajectory.times
    if len(times) > 1:
        if H.constant_hessians:
            mat = _fluct_matrix(H, trajectory.rows[0], config)
            step = spectral_exp(np.linalg.eigh(mat), times[1] - times[0])
            for _ in range(len(times) - 1):
                U = step @ U
        else:
            for k in range(len(times) - 1):
                dt = times[k + 1] - times[k]
                y_mid = _rk4_step(H, trajectory.rows[k], 0.5 * dt)
                mat = _fluct_matrix(H, y_mid, config)
                U = spectral_exp(np.linalg.eigh(mat), dt) @ U
        if not np.all(np.isfinite(U)):
            raise NumericalError("fluctuation propagator blew up")
    residual = unitarity_residual(U)
    if residual > UNITARITY_BUDGET:
        raise NumericalError(
            f"fluctuation propagator unitarity residual {residual:.3e}")
    return FiberOperator(U, config, unitary=True)


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


def _grid_norm(psi: np.ndarray, dx: float) -> float:
    return float(np.sqrt(np.sum(np.abs(psi) ** 2) * dx))


def l2_distance(psi: np.ndarray, phi: np.ndarray, dx: float) -> float:
    return _grid_norm(psi - phi, dx)


def reference_schrodinger(H: HamiltonianSpec, psi0: np.ndarray, eps: float,
                          T: float, xs: np.ndarray, dt: float) -> np.ndarray:
    """Strang split-step spectral integration of
    i eps dpsi/dt = [-(eps^2/2) d^2/dx^2 + V(x)] psi on a periodic grid."""
    if H.potential is None:
        raise InputError("reference solver needs H of the form P^2/2 + V(Q)")
    if eps <= 0:
        raise InputError("eps must be positive")
    psi = np.asarray(psi0, dtype=complex).copy()
    xs = np.asarray(xs, dtype=float)
    if psi.shape != xs.shape:
        raise InputError("psi0 and grid shapes differ")
    if T == 0.0:
        return psi
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
        psi = np.fft.ifft(kinetic * np.fft.fft(psi))
        psi = half_v * psi
    # resolution guard: energy reaching the top eighth of the spectral band
    spec = np.abs(np.fft.fft(psi)) ** 2
    edge_power = np.sum(spec[np.abs(k) > 0.875 * band]) / np.sum(spec)
    if edge_power > 1e-10:
        raise ResolutionError(
            f"spectral band nearly saturated (edge fraction {edge_power:.3e})")
    drift = abs(_grid_norm(psi, dx) - norm0)
    if drift > 1e-8:
        raise NumericalError(f"reference solver norm drift {drift:.3e}")
    return psi


def ansatz_error(H: HamiltonianSpec, X0: ClassicalState, f0: FiberVector,
                 eps: float, T: float, xs: np.ndarray, dt: float = 1e-3) -> float:
    """L2 distance at time T between the semiclassical ansatz (classical flow
    + fluctuation propagator, step ``dt``) and the split-step reference
    (step ``dt / 4``) started from the same initial ansatz."""
    xs = np.asarray(xs, dtype=float)
    psi0 = ansatz_wavefunction(X0, f0, eps, xs)
    if T == 0.0:
        return 0.0
    trajectory = classical_flow(H, X0, T, dt)
    U = fluctuation_propagator(H, trajectory, f0.dim_config)
    f_T = U.apply(f0)
    psi_semiclassical = ansatz_wavefunction(trajectory.final, f_T, eps, xs)
    psi_reference = reference_schrodinger(H, psi0, eps, T, xs, dt / 4)
    return l2_distance(psi_semiclassical, psi_reference, xs[1] - xs[0])
