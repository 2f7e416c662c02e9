"""Semiclassical evolution pipeline.

Classical flow of the base point (S, P, Q) by fixed-step RK4, the quadratic
fluctuation propagator by midpoint-exponential stepping, their pairing as a
bundle automorphism, and the wave-packet substitution on a 1-D grid.  Two
references, independent of that pipeline, judge the substituted packet: for
a quadratic Hamiltonian the exact Gaussian :func:`gaussian_packet` (a closed
form in the linear flow), and otherwise the split-step spectral solver
:func:`reference_schrodinger`.  :func:`ansatz_errors` picks one from the
Hamiltonian.

**Rows contract.**  A base point of the bundle is its state row: a float
array of shape (3,), laid out ``S, P, Q`` (action, momentum, coordinate of
one degree of freedom), and a stack of base points is an array (R, 3).
The flow refuses rows of another width and non-finite rows, and every
packet path refuses a row that is not three finite floats; the end of a
:class:`Trajectory` is its last row.  The package's one-row flows start
from a :class:`_NamedRow` view of the row.  With the one-variable fiber of
:mod:`.fiber`, every scenario, action, flow and ansatz is 1-D; a fiber
state is a complex vector and a propagator a complex (d, d) array, d the
fiber dimension.
The RK4 loop :func:`_rk4_steps`, with its Hamilton vector field and its
stage combination, is written once, over the components (S, P, Q), in
elementwise arithmetic, which rounds alike on Python floats and on numpy
arrays.  :func:`classical_flows` advances each row as three floats, one
step after another (a step cannot start before the last one ends), written
through the flat buffer of that row's own (count + 1, 3) path; so a row of
its result is bitwise that row flowed alone, and :func:`classical_flow` is
the one-row case.  Stacks are used only where they pay: one step of the
same loop advances the interval midpoints of the fluctuation stepper as
component arrays, the Hamiltonian self-check and the energy drift evaluate
H on arrays, and :func:`reference_schrodinger` advances a stack of wave packets
in one split-step loop per block of rows, the blocks on threads (a
single-eps :func:`ansatz_error` of a non-quadratic Hamiltonian is its
one-row case).

**Step-grid invariant.** A flow to time T with step dt takes
round(|T|/dt) steps of h = T/round(|T|/dt), and its fluctuation propagator
steps along the same times.  When several times share one h (checked by
:func:`step_counts`), the flow to an earlier time and its propagator are,
bitwise, prefixes of the flow to a later one and of its running product.
The evolution-law check reads all its flows and propagators that way.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InputError, NumericalError, ResolutionError
from .fiber import (hermite_functions, quadratic_hamiltonian, spectral_exp,
                    unitarity_residual)

__all__ = [
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
    "gaussian_packet",
    "ansatz_error",
    "ansatz_errors",
    "l2_distance",
]

UNITARITY_BUDGET = 1e-8


@dataclass(frozen=True)
class HamiltonianSpec:
    """Classical Hamiltonian H(P, Q) of one degree of freedom.

    ``value(P, Q)`` returns H and ``grad(P, Q)`` the pair (dH/dP, dH/dQ),
    for P and Q two floats or two equal-shape arrays; both use elementwise
    arithmetic only, with products, not powers (numpy's array power may
    take a SIMD pow whose last bit depends on the CPU, and a float power
    can overflow where a product gives inf).  So a point rounds alike as
    floats and as an entry of a stack: the RK4 loop advances floats, and
    its midpoints and the self-check evaluate stacks.  ``hess(P, Q)``
    takes arrays of R points and returns the Hessian in (P, Q), shape
    (R, 2, 2).

    ``potential`` is set when H has the separable form P^2/2 + V(Q); the
    grid reference solver requires it.  ``constant_hessians`` marks purely
    quadratic Hamiltonians: the fluctuation stepper reuses one step matrix,
    and the exact Gaussian serves as their reference.
    """

    value: Callable
    grad: Callable
    hess: Callable[[np.ndarray, np.ndarray], np.ndarray]
    potential: Optional[Callable[[np.ndarray], np.ndarray]] = None
    constant_hessians: bool = False

    def validate(self, probes) -> float:
        """Central-difference consistency of the gradient with ``value`` and
        of the Hessian with ``grad`` at the probe rows ``S, P, Q``,
        evaluated as one stack; returns the worst error relative to
        max(1, |H|).  It judges nothing: the verify suite holds the
        tolerance, so an inconsistent Hamiltonian fails its own record."""
        rows = np.atleast_2d(np.asarray(probes, dtype=float))
        P, Q, h = rows[:, 1], rows[:, 2], 1e-6
        # the probes, then moved by +h along P and along Q, then by -h
        Ps, Qs = np.concatenate([P, P + h, P, P - h, P]), np.concatenate([Q, Q, Q + h, Q, Q - h])
        value = self.value(Ps, Qs).reshape(5, -1)
        grad = np.stack(self.grad(Ps, Qs), axis=-1).reshape(5, -1, 2)
        # fd_*[j, r]: derivative along coordinate j at probe r
        fd_grad, fd_hess = ((f[1:3] - f[3:]) / (2 * h) for f in (value, grad))
        scale = np.maximum(1.0, np.abs(value[0]))
        return float(max(
            np.max(np.abs(fd_grad - grad[0].T) / scale),
            np.max(np.abs(fd_hess - self.hess(P, Q).transpose(2, 0, 1)) / scale[:, None])))


def quadratic_hamiltonian_spec(m_qq: float, m_qp: float = 0.0,
                               m_pp: float = 1.0) -> HamiltonianSpec:
    """H = (1/2) Mpp P^2 + Mqp P Q + (1/2) Mqq Q^2, evaluated as
    (1/2) z.K.z with gradient K z, for z = (P, Q) and K the Hessian."""
    pp, qp, qq = float(m_pp), float(m_qp), float(m_qq)
    hessian = np.array([[pp, qp], [qp, qq]])

    def grad(P, Q):
        return P * pp + Q * qp, P * qp + Q * qq

    def value(P, Q):
        return 0.5 * ((P * pp + Q * qp) * P + (P * qp + Q * qq) * Q)

    separable = np.isclose(pp, 1.0) and np.isclose(qp, 0.0)
    return HamiltonianSpec(
        value=value,
        grad=grad,
        hess=lambda P, Q: np.broadcast_to(hessian, (len(P), 2, 2)),
        potential=(lambda Q: 0.5 * np.asarray(Q) * qq * np.asarray(Q)) if separable else None,
        constant_hessians=True,
    )


def cubic_perturbed_spec(omega2: float, cubic: float) -> HamiltonianSpec:
    """1-D H = P^2/2 + (omega2/2) Q^2 + cubic * Q^3."""
    def value(P, Q):
        Q2 = Q * Q
        return 0.5 * (P * P) + 0.5 * omega2 * Q2 + cubic * (Q2 * Q)

    def hess(P, Q):
        out = np.zeros((len(P), 2, 2))
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = omega2 + 6 * cubic * Q
        return out

    return HamiltonianSpec(
        value=value,
        grad=lambda P, Q: (P, omega2 * Q + 3 * cubic * (Q * Q)),
        hess=hess,
        potential=lambda Q: 0.5 * omega2 * np.asarray(Q) ** 2 + cubic * np.asarray(Q) ** 3,
        constant_hessians=False,
    )


# ---------------------------------------------------------------------------
# classical flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Sampled classical flow: ``rows[k]`` is the state row at ``times[k]``,
    from the start (row 0) to the end (``rows[-1]``)."""

    times: np.ndarray
    rows: np.ndarray
    energy_drift: float

    def __len__(self):
        return self.rows.shape[0]


def _rk4_steps(H: HamiltonianSpec, y, h, count: int, states):
    """Advance ``count`` RK4 steps of ``h`` from ``y`` = (S, P, Q), floats or
    equal-shape arrays with one step per entry, writing the S, P and Q of
    the state after k steps to ``states[3k:3k + 3]`` for k = 0, ..., count;
    returns ``states``, a flat writable sequence of 3 (count + 1) entries."""
    grad, value = H.grad, H.value

    def field(P, Q):
        # (dS/dt, dP/dt, dQ/dt) = (P dH/dP - H, -dH/dQ, dH/dP)
        gp, gq = grad(P, Q)
        return P * gp - value(P, Q), -gq, gp

    def combine(y, a, b, c, d):
        return y + sixth * (a + 2 * b + 2 * c + d)

    states[0], states[1], states[2] = S, P, Q = y
    half, sixth = 0.5 * h, h / 6.0
    for i in range(3, 3 * count + 3, 3):
        a0, a1, a2 = field(P, Q)
        b0, b1, b2 = field(P + half * a1, Q + half * a2)
        c0, c1, c2 = field(P + half * b1, Q + half * b2)
        d0, d1, d2 = field(P + h * c1, Q + h * c2)
        states[i] = S = combine(S, a0, b0, c0, d0)
        states[i + 1] = P = combine(P, a1, b1, c1, d1)
        states[i + 2] = Q = combine(Q, a2, b2, c2, d2)
    return states


def _rk4_path(H: HamiltonianSpec, row: list, h: float, count: int) -> np.ndarray:
    """The states of ``count`` RK4 steps of ``h`` from ``row``, shape
    (count + 1, 3), written as three floats through its flat buffer."""
    path = np.empty((count + 1, 3))
    _rk4_steps(H, row, h, count, memoryview(path.ravel()))
    # float arithmetic carries inf and nan on; the first such state is named
    blown = ~np.isfinite(path).all(axis=1)
    if blown.any():
        raise NumericalError(f"classical flow blew up at t = {np.argmax(blown) * h:.6g}")
    return path


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
    """Integrate dQ/dt = dH/dP, dP/dt = -dH/dQ, dS/dt = P dQ/dt - H with
    fixed-step RK4 for initial rows ``S, P, Q`` (R, 3): row r from 0 to
    ``T[r]`` with step about ``dt[r]`` (either may be one number for every
    row; negative T integrates backwards).  Each row is advanced by
    :func:`_rk4_steps` as three floats, written through the flat buffer of
    its (count + 1, 3) path.  Returns one :class:`Trajectory` per row (none for
    no rows).  Raises InputError for T or dt of another length than the
    rows and for a non-finite initial row (named, before any step); a row
    that blows up raises NumericalError naming its own time."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise InputError("state dimension does not match the Hamiltonian")
    try:
        T, dt = (np.broadcast_to(np.asarray(v, dtype=float), rows.shape[:1]) for v in (T, dt))
    except ValueError:
        raise InputError(f"T and dt must be one number or one per row ({len(rows)})") from None
    if not np.all(np.isfinite(T)):
        raise InputError("non-finite final time")
    if not np.all(dt > 0):
        raise InputError("dt must be positive")
    if np.any((T != 0.0) & (dt > np.abs(T) * (1 + 1e-12))):
        raise InputError("dt exceeds the integration window")
    unfinite = ~np.isfinite(rows).all(axis=1)
    if unfinite.any():
        raise InputError(f"non-finite initial state in row {np.argmax(unfinite)}")
    if not len(rows):
        return []
    counts, h = _grid(T, dt)
    paths = [_rk4_path(H, row, step, count)
             for row, step, count in zip(rows.tolist(), h.tolist(), counts.tolist())]
    ends = np.array([path[-1] for path in paths])
    drift = np.abs(H.value(ends[:, 1], ends[:, 2]) - H.value(rows[:, 1], rows[:, 2]))
    return [Trajectory(np.arange(c + 1) * h[r], path, float(drift[r]))
            for r, (c, path) in enumerate(zip(counts, paths))]


class _NamedRow(np.ndarray):
    """A state row that also names its components: ``S`` the action, ``P``
    and ``Q`` the one-coordinate momentum and coordinate slices.  It
    computes as the plain row.  The package hands :func:`classical_flow`
    its start in this view, because the benchmark tracer
    (``perfbench/tracing.py``) keys each traced flow on ``X0.S``, ``X0.P``
    and ``X0.Q``."""

    S = property(lambda self: float(self[0]))
    P = property(lambda self: self.view(np.ndarray)[1:2])
    Q = property(lambda self: self.view(np.ndarray)[2:3])


def classical_flow(H: HamiltonianSpec, X0: np.ndarray, T: float,
                   dt: float) -> Trajectory:
    """The flow of one state row from 0 to T: the one-row case of
    :func:`classical_flows`."""
    return classical_flows(H, X0, T, dt)[0]


# ---------------------------------------------------------------------------
# fluctuation propagator
# ---------------------------------------------------------------------------

def _fluct_matrix(hessian: np.ndarray, dim: int):
    return quadratic_hamiltonian(hessian[1, 1], hessian[0, 1], hessian[0, 0], dim)


def _checked_propagator(U: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(U)):
        raise NumericalError("fluctuation propagator blew up")
    residual = unitarity_residual(U)
    if residual > UNITARITY_BUDGET:
        raise NumericalError(
            f"fluctuation propagator unitarity residual {residual:.3e}")
    return U


def _step_unitaries(H: HamiltonianSpec, trajectory: Trajectory,
                    dim: int, count: int):
    """The exponentials of the first ``count`` steps of the trajectory, in
    time order, each evaluated at its interval midpoint: one
    :func:`_rk4_steps` step of half the interval, taken by every interval
    at once on the component stacks (S, P, Q)."""
    if count == 0:
        return
    dts = np.diff(trajectory.times[:count + 1])
    if H.constant_hessians:
        hessian = H.hess(*trajectory.rows[:1, 1:].T)[0]
        step = spectral_exp(np.linalg.eigh(_fluct_matrix(hessian, dim)), dts[0])
        for _ in range(count):
            yield step
        return
    _, P, Q = _rk4_steps(H, trajectory.rows[:count].T, 0.5 * dts, 1, [None] * 6)[3:]
    for hessian, dt in zip(H.hess(P, Q), dts):
        yield spectral_exp(np.linalg.eigh(_fluct_matrix(hessian, dim)), dt)


def fluctuation_propagators(H: HamiltonianSpec, trajectory: Trajectory,
                            dim: int, counts: Sequence[int]) -> list:
    """Time-ordered unitaries for i df/dt = H_fluct(t) f along the first
    ``c`` steps of the trajectory, for each ``c`` in ``counts`` (none for no
    counts): prefixes of one running product of per-step exponentials
    evaluated at the interval midpoints."""
    counts = [int(c) for c in counts]
    if not counts:
        return []
    if min(counts) < 0 or max(counts) >= len(trajectory):
        raise InputError("propagator step count outside the trajectory")
    U = np.eye(dim, dtype=complex)
    prefixes, wanted = {0: U}, set(counts)
    for k, step in enumerate(_step_unitaries(H, trajectory, dim, max(counts)), 1):
        U = step @ U
        if k in wanted:
            prefixes[k] = U
    return [_checked_propagator(prefixes[c]) for c in counts]


def fluctuation_propagator(H: HamiltonianSpec, trajectory: Trajectory,
                           dim: int) -> np.ndarray:
    """The propagator along the whole trajectory: the one-count case of
    :func:`fluctuation_propagators`."""
    return fluctuation_propagators(H, trajectory, dim, [len(trajectory) - 1])[0]


def evolution_automorphism(H: HamiltonianSpec, t: float, dt: float,
                           dim: int) -> Callable[[np.ndarray], tuple]:
    """Time-t evolution automorphism X -> (u_t X, U(u_t X <- X)): one
    classical flow from X gives the base image and, along the same
    trajectory, the fluctuation propagator on the fibers."""
    def automorphism(X: np.ndarray) -> tuple:
        trajectory = classical_flow(H, _state_row(X).view(_NamedRow), t, dt)
        return trajectory.rows[-1], fluctuation_propagator(H, trajectory, dim)

    return automorphism


# ---------------------------------------------------------------------------
# wave-packet ansatz and grid reference
# ---------------------------------------------------------------------------

def _state_row(X) -> np.ndarray:
    """``X`` as a state row; raises InputError unless it is three finite
    floats S, P, Q."""
    X = np.asarray(X, dtype=float)
    if X.shape != (3,) or not np.all(np.isfinite(X)):
        raise InputError(f"a state row is three finite floats S, P, Q, got {X.tolist()}")
    return X


def _check_packet_grid(X: np.ndarray, f: np.ndarray, eps: float,
                       xs: np.ndarray) -> None:
    """The checks of :func:`ansatz_wavefunction`, without the packet: raises
    InputError unless ``X`` is a state row of three finite floats and
    eps > 0, and ResolutionError when the grid spacing under-resolves the
    carrier wave or the grid does not cover the packet support."""
    _, P, Q = _state_row(X)
    if eps <= 0:
        raise InputError("eps must be positive")
    dx = xs[1] - xs[0]
    if abs(P) > 0:
        wavelength = 2 * np.pi * eps / abs(P)
        if dx > wavelength / 8:
            raise ResolutionError(
                f"grid spacing {dx:.3e} under-resolves the carrier wave "
                f"(need <= {wavelength / 8:.3e})")
    occupied = np.nonzero(np.abs(f) > 0)[0]
    k_max = int(occupied[-1]) if occupied.size else 0
    radius = 8 * np.sqrt(eps) * np.sqrt(2 * k_max + 1)
    if xs[0] > Q - radius or xs[-1] < Q + radius:
        raise ResolutionError("grid does not cover the packet support")


def ansatz_wavefunction(X: np.ndarray, f: np.ndarray, eps: float,
                        xs: np.ndarray) -> np.ndarray:
    """Wave packet  eps^{-1/4} exp(iS/eps) exp(iP(x-Q)/eps) f((x-Q)/sqrt(eps))
    at the state row ``X`` = (S, P, Q), sampled on the 1-D grid ``xs``; the
    eps^{-1/4} Jacobian factor makes the grid L2 norm equal the fiber norm."""
    xs = np.asarray(xs, dtype=float)
    _check_packet_grid(X, f, eps, xs)
    S, P, Q = X
    xi = (xs - Q) / np.sqrt(eps)
    h = hermite_functions(xi, len(f))
    profile = f @ h
    phase = np.exp(1j * (S + P * (xs - Q)) / eps)
    return eps ** -0.25 * phase * profile


def _grid_norm(psi: np.ndarray, dx: float) -> np.ndarray:
    """Grid L2 norm of each wave packet (along the last axis)."""
    return np.sqrt(np.sum(np.abs(psi) ** 2, axis=-1) * dx)


def l2_distance(psi: np.ndarray, phi: np.ndarray, dx: float) -> float:
    return float(_grid_norm(psi - phi, dx))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    reports one, else every CPU."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


def _strang_steps(psi: np.ndarray, half_v: np.ndarray, kinetic: np.ndarray,
                  n_steps: int) -> np.ndarray:
    """``n_steps`` Strang steps (half potential, kinetic, half potential) of
    a packet or of a stack of packets, row by row."""
    for _ in range(n_steps):
        psi = half_v * psi
        # np.multiply, not `*`: numpy evaluates `array * temporary` in place
        # when the temporary is large (a stack of packets), and its in-place
        # complex product rounds differently from the out-of-place one
        psi = np.fft.ifft(np.multiply(kinetic, np.fft.fft(psi)))
        psi = half_v * psi
    return psi


def _strang_blocks(psi: np.ndarray, half_v: np.ndarray, kinetic: np.ndarray,
                   n_steps: int, blocks: int) -> np.ndarray:
    """:func:`_strang_steps` on a stack (R, N) split into ``blocks``
    contiguous row blocks: the calling thread advances the first, one thread
    each the others (numpy's FFT releases the GIL), and the rows are
    reassembled in order.  Every thread is joined before this returns or
    raises, and an exception of a worker is raised here."""
    parts = list(zip(*(np.array_split(a, blocks) if a.ndim == 2 else [a] * blocks
                       for a in (psi, half_v, kinetic))))
    out = [None] * blocks
    failures = []

    def advance(b):
        try:
            out[b] = _strang_steps(*parts[b], n_steps)
        except BaseException as err:     # whatever a worker raises reaches the caller
            failures.append(err)

    started = []
    try:
        for b in range(1, blocks):
            worker = threading.Thread(target=advance, args=(b,))
            worker.start()
            started.append(worker)
        out[0] = _strang_steps(*parts[0], n_steps)
    finally:
        for worker in started:
            worker.join()
    if failures:
        raise failures[0]
    return np.concatenate(out)


def reference_schrodinger(H: HamiltonianSpec, psi0: np.ndarray, eps,
                          T: float, xs: np.ndarray, dt: float) -> np.ndarray:
    """Strang split-step spectral integration of
    i eps dpsi/dt = [-(eps^2/2) d^2/dx^2 + V(x)] psi on a periodic grid,
    in round(|T|/dt) steps of T/round(|T|/dt) (:func:`step_counts`).

    ``psi0`` is one wave packet on ``xs`` or a stack (R, len(xs)) of them,
    with ``eps`` one number or one per row.  The rows never interact: a
    stack is advanced in contiguous row blocks, one per usable CPU and
    never more than R, the first on the calling thread and each other on a
    thread of its own, all joined before the call returns or raises; one
    row or one CPU runs a single loop and starts no thread.  Each row gets
    the same arithmetic in every case, so each row of the result is bitwise
    its one-row run.  The resolution guard and the norm-drift check judge
    the reassembled stack.  Raises InputError unless T and dt are finite
    and dt > 0, and when a nonzero T rounds to no step."""
    if H.potential is None:
        raise InputError("reference solver needs H of the form P^2/2 + V(Q)")
    if not (np.isfinite(T) and np.isfinite(dt) and dt > 0):
        raise InputError(f"split-step needs finite T and dt > 0, got T = {T}, dt = {dt}")
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
    n_steps = int(step_counts([T], dt)[0])
    h = T / n_steps
    v = H.potential(xs)
    half_v = np.exp(-0.5j * h * v / eps)
    kinetic = np.exp(-0.5j * h * eps * k ** 2)
    norm0 = _grid_norm(psi, dx)
    blocks = min(_usable_cpus(), len(psi)) if psi.ndim == 2 else 1
    if blocks > 1:
        psi = _strang_blocks(psi, half_v, kinetic, n_steps, blocks)
    else:
        psi = _strang_steps(psi, half_v, kinetic, n_steps)
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


def _traceless_exp(A: np.ndarray) -> np.ndarray:
    """exp(A) of a traceless 2x2 matrix.  By Cayley-Hamilton A @ A =
    -det(A) I, so exp(A) = cos(w) I + sin(w)/w A where w^2 = det A > 0,
    I + A where det A = 0, and cosh(w) I + sinh(w)/w A where w^2 = -det A."""
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    w = np.sqrt(abs(det))
    if det > 0:
        c, s = np.cos(w), np.sin(w) / w
    elif det < 0:
        c, s = np.cosh(w), np.sinh(w) / w
    else:
        c, s = 1.0, 1.0
    return c * np.eye(2) + s * A


def gaussian_packet(H: HamiltonianSpec, X0: np.ndarray, f0: np.ndarray,
                    eps: float, T: float, xs: np.ndarray) -> np.ndarray:
    """The exact solution at time T of the Schrodinger equation of a
    quadratic ``H`` started from the ground-mode packet
    ``ansatz_wavefunction(X0, f0, eps, xs)`` (``f0`` a multiple of the
    ground mode), sampled on ``xs``.

    A Gaussian stays Gaussian (Heller, J. Chem. Phys. 62 (1975) 1544;
    Hagedorn, Ann. Phys. 269 (1998) 77).  With z = (P, Q), K the constant
    Hessian and J = [[0, -1], [1, 0]], the flow M = exp(T J K), in closed
    form (:func:`_traceless_exp`), carries the centre to M z0 and the
    action to S0 + (P_T Q_T - P0 Q0)/2 (for homogeneous quadratic H,
    P dH/dP - H = d(PQ)/dt / 2); the tangent (dP, dQ) =
    M (i, 1) gives the width A = dP/dQ and the amplitude
    eps^{-1/4} pi^{-1/4} dQ^{-1/2}, on the branch continued from 1 at
    t = 0.  It shares no code with the classical flow, the fluctuation
    propagator, the ansatz or the grid solver.  Raises ResolutionError when
    the grid does not cover 8 widths of the final packet on either side."""
    if not H.constant_hessians:
        raise InputError("the exact Gaussian needs a quadratic Hamiltonian")
    if np.any(f0[1:] != 0):
        raise InputError("the exact Gaussian starts from the ground mode only")
    if eps <= 0:
        raise InputError("eps must be positive")
    S0, P0, Q0 = X0 = _state_row(X0)
    K = H.hess(X0[1:2], X0[2:3])[0]
    M = _traceless_exp(T * np.array([[0.0, -1.0], [1.0, 0.0]]) @ K)
    P, Q = M @ np.array([P0, Q0])
    S = S0 + 0.5 * (P * Q - P0 * Q0)
    dP, dQ = M @ np.array([1j, 1.0])
    # Im dQ(t) = K_pp sin(w t)/w for w^2 = det K > 0 (and keeps its sign for
    # det K <= 0): dQ winds half round 0 in each half period pi/w.  Over k,
    # the nearest number of half periods, (-1)^k dQ stays off the negative
    # real axis, so its principal root continues the branch
    det = K[0, 0] * K[1, 1] - K[0, 1] * K[1, 0]
    k = round(np.sqrt(det) * T / np.pi) if det > 0 else 0
    root = np.sqrt((-1) ** k * dQ) * np.exp(0.5j * np.pi * k * np.sign(K[0, 0]))
    xs = np.asarray(xs, dtype=float)
    radius = 8 * np.sqrt(eps) * abs(dQ)
    if xs[0] > Q - radius or xs[-1] < Q + radius:
        raise ResolutionError("grid does not cover the exact packet support")
    y = xs - Q
    amplitude = f0[0] * (eps * np.pi) ** -0.25 / root
    return amplitude * np.exp(1j * (S + P * y + 0.5 * (dP / dQ) * y * y) / eps)


def ansatz_errors(H: HamiltonianSpec, X0: np.ndarray, f0: np.ndarray,
                  eps_list: Sequence[float], T: float, xs: np.ndarray,
                  dt: float) -> list:
    """L2 distance at time T, for each eps, between the semiclassical ansatz
    (classical flow + fluctuation propagator, step ``dt``, both independent
    of eps and computed once) and a reference started from the same
    initial ansatz.  The reference is chosen from ``H``: for a quadratic
    Hamiltonian (``constant_hessians``) the exact Gaussian
    :func:`gaussian_packet` of each eps, otherwise the split-step solve
    :func:`reference_schrodinger` (step ``dt / 4``) of the stack of per-eps
    packets, advanced in row blocks on threads, one per usable CPU; each
    eps's error is bitwise its one-eps run, whatever the CPU count.  The
    start row is checked first, for any eps list; every eps and the grid
    are checked against the initial ansatz on every path, and only the
    split-step builds it."""
    X0, xs = _state_row(X0), np.asarray(xs, dtype=float)
    eps_list = [float(eps) for eps in eps_list]
    for eps in eps_list:
        _check_packet_grid(X0, f0, eps, xs)
    if T == 0.0 or not eps_list:
        return [0.0] * len(eps_list)
    trajectory = classical_flow(H, X0.view(_NamedRow), T, dt)
    f_T = fluctuation_propagator(H, trajectory, len(f0)) @ f0
    semiclassical = [ansatz_wavefunction(trajectory.rows[-1], f_T, eps, xs) for eps in eps_list]
    if H.constant_hessians:
        reference = [gaussian_packet(H, X0, f0, eps, T, xs) for eps in eps_list]
    else:
        psi0 = [ansatz_wavefunction(X0, f0, eps, xs) for eps in eps_list]
        reference = reference_schrodinger(H, psi0, eps_list, T, xs, dt / 4)
    return [l2_distance(psi, phi, xs[1] - xs[0]) for psi, phi in zip(semiclassical, reference)]


def ansatz_error(H: HamiltonianSpec, X0: np.ndarray, f0: np.ndarray,
                 eps: float, T: float, xs: np.ndarray, dt: float) -> float:
    """The one-eps case of :func:`ansatz_errors`."""
    return ansatz_errors(H, X0, f0, [eps], T, xs, dt)[0]
