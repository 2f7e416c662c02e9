"""Classical flow, fluctuation propagator, evolution automorphism, wave
packet synthesis, the grid reference solver and the exact Gaussian."""

import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from scbundle import dynamics
from scbundle.dynamics import (
    HamiltonianSpec, ansatz_errors,
    ansatz_wavefunction, classical_flow, classical_flows, cubic_perturbed_spec,
    evolution_automorphism, exact_flow, fluctuation_propagator,
    gaussian_packet, l2_distance, quadratic_hamiltonian_spec, reference_schrodinger,
    step_count, _rk4_steps,
)
from scbundle.errors import InputError, NumericalError, ResolutionError
from scbundle.fiber import spectral_exp, unitarity_residual

OSC = quadratic_hamiltonian_spec(1.0)
FREE = quadratic_hamiltonian_spec(0.0)
CUBIC = cubic_perturbed_spec(1.0, 0.1)
INVERTED = quadratic_hamiltonian_spec(-1.0)


def ground_state(n_cut=16):
    c = np.zeros(n_cut, dtype=complex)
    c[0] = 1.0
    return c


# ---------------------------------------------------------------------------
# classical flow
# ---------------------------------------------------------------------------

def test_free_flight_closed_form():
    tr = classical_flow(FREE, np.array([0.0, 1.0, 0.0]), 1.0, 1e-3)
    assert tr.rows[-1][0] == pytest.approx(0.5, abs=1e-12)
    assert tr.rows[-1][1] == pytest.approx(1.0, abs=1e-12)
    assert tr.rows[-1][2] == pytest.approx(1.0, abs=1e-12)


def test_oscillator_closed_orbit():
    tr = classical_flow(OSC, np.array([0.0, 0.0, 1.0]), 2 * np.pi, 1e-3)
    assert abs(tr.rows[-1][1]) <= 1e-8
    assert abs(tr.rows[-1][2] - 1.0) <= 1e-8
    assert abs(tr.rows[-1][0]) <= 1e-8


def test_zero_time_trajectory():
    X0 = np.array([0.3, 0.2, -0.4])
    tr = classical_flow(OSC, X0, 0.0, 1e-3)
    # the final state is the start row: the same floats as X0
    assert len(tr) == 1 and tr.rows[-1].tobytes() == X0.tobytes()


def test_rk4_fourth_order_scaling():
    X0 = np.array([0.0, 0.0, 1.0])
    T = 2.0
    exact = np.array([-0.25 * np.sin(2 * T), -np.sin(T), np.cos(T)])
    errors = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        tr = classical_flow(OSC, X0, T, dt)
        errors.append(np.linalg.norm(tr.rows[-1] - exact))
    for e0, e1 in zip(errors, errors[1:]):
        assert 8.0 <= e0 / e1 <= 32.0   # dt^4 within a factor 2 of 16


def test_energy_conservation_oscillator():
    tr = classical_flow(OSC, np.array([0.0, 0.4, 0.9]), 2 * np.pi, 1e-3)
    assert tr.energy_drift <= 1e-8


def _blowup_spec():
    # H = P^2/2 - Q^4/2: from (P, Q) = (0, 1), dQ/dt = sqrt(Q^4 - 1)
    # escapes to infinity in finite time
    def hess(P, Q):
        out = np.zeros((len(P), 2, 2))
        out[:, 0, 0], out[:, 1, 1] = 1.0, -6 * (Q * Q)
        return out

    return HamiltonianSpec(value=lambda P, Q: 0.5 * (P * P) - 0.5 * (Q * Q) * (Q * Q),
                           grad=lambda P, Q: (P, -2 * (Q * Q) * Q), hess=hess,
                           potential=lambda Q: -0.5 * np.asarray(Q) ** 4)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_flow_blowup_reports_time():
    with pytest.raises(NumericalError, match="t =") as single:
        classical_flow(_blowup_spec(), np.array([0.0, 0.0, 1.0]), 40.0, 0.05)
    # in a stack, the row that blows up is named by its own time, whatever
    # the other rows do
    tame = [0.0, 0.0, 0.0]
    with pytest.raises(NumericalError) as stacked:
        classical_flows(_blowup_spec(), [tame, [0.0, 0.0, 1.0]], [80.0, 40.0], [0.04, 0.05])
    assert str(stacked.value) == str(single.value)


def test_flow_input_validation():
    X0 = np.array([0.0, 0.0, 1.0])
    with pytest.raises(InputError):
        classical_flow(OSC, X0, np.inf, 1e-3)
    with pytest.raises(InputError):
        classical_flow(OSC, X0, 1.0, -1e-3)
    with pytest.raises(InputError):
        classical_flow(OSC, X0, 1e-4, 1e-3)


ROWS = [[0.0, 0.0, 1.0], [0.3, 0.2, -0.4], [0.1, -0.5, 0.6]]


@pytest.mark.parametrize("T, dt", [([1.0, 0.5], 1e-3), (1.0, [1e-3, 2e-3])], ids=["T", "dt"])
def test_flow_times_and_steps_are_one_number_or_one_per_row(T, dt):
    with pytest.raises(InputError, match="one per row"):
        classical_flows(OSC, ROWS, T, dt)


def _counting_spec(H):
    """``H`` with a count of its ``grad`` and ``value`` calls."""
    calls = {"grad": 0, "value": 0}

    def grad(P, Q):
        calls["grad"] += 1
        return H.grad(P, Q)

    def value(P, Q):
        calls["value"] += 1
        return H.value(P, Q)

    return replace(H, grad=grad, value=value), calls


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_initial_row_is_refused_before_any_step(bad):
    H, calls = _counting_spec(OSC)
    rows = np.array(ROWS)
    rows[1, 2] = bad
    with pytest.raises(InputError, match="row 1"):
        classical_flows(H, rows, 1.0, 1e-3)
    assert calls == {"grad": 0, "value": 0}


def test_flow_of_no_rows_is_empty():
    assert classical_flows(OSC, np.empty((0, 3)), 1.0, 1e-3) == []
    with pytest.raises(InputError):
        classical_flows(OSC, np.empty((0, 3)), [1.0, 0.5], 1e-3)


def test_rk4_evaluates_the_field_four_times_a_step():
    """Work-count guard: each step calls ``grad`` and ``value`` once per
    stage; a flow adds only the two ``value`` calls of its energy drift (ends
    and starts, each as one stack), whatever the number of rows."""
    H, calls = _counting_spec(CUBIC)
    _rk4_steps(H, ROWS[0], 1e-3, 250, [None] * 753)
    assert calls == {"grad": 1000, "value": 1000}
    H, calls = _counting_spec(CUBIC)
    flows = classical_flows(H, ROWS, [0.25, -0.1, 0.0], 1e-3)
    assert [len(flow) for flow in flows] == [251, 101, 1]
    assert calls == {"grad": 4 * 350, "value": 4 * 350 + 2}


@pytest.mark.parametrize("H", [OSC, CUBIC], ids=["oscillator", "cubic"])
def test_stacked_flow_rows_equal_single_row_flows(H):
    """A stacked call, each row with its own step and count, forward,
    backward and zero time, gives each row's own flow bitwise."""
    states = [np.array([0.0, 0.0, 1.0]), np.array([0.3, 0.2, -0.4]),
              np.array([0.1, -0.5, 0.6]), np.array([0.0, 0.7, 0.4])]
    T = [1.0, -0.7, 0.35, 0.0]
    dt = [1e-3, 2e-3, 5e-3, 1e-3]
    stacked = classical_flows(H, states, T, dt)
    for X, t, step, flow in zip(states, T, dt, stacked):
        alone = classical_flow(H, X, t, step)
        assert np.array_equal(flow.times, alone.times)
        assert np.array_equal(flow.rows, alone.rows)
        assert flow.energy_drift == alone.energy_drift


@pytest.mark.parametrize("H", [OSC, FREE, CUBIC], ids=["oscillator", "free", "cubic"])
def test_flow_rows_equal_the_step_on_component_stacks(H):
    """Each row of a flow, advanced as three floats, is bitwise the same
    ``_rk4_steps`` step iterated on numpy stacks of the components (S, P, Q),
    each entry with its own step: forward, backward and zero time.  Its
    energy drift, H evaluated on arrays, is H evaluated on floats."""
    rows = np.array([[0.0, 0.0, 1.0], [0.3, 0.2, -0.4], [0.1, -0.5, 0.6], [0.0, 0.7, 0.4]])
    T, dt = np.array([1.0, -0.7, 0.35, 0.0]), np.array([1e-3, 2e-3, 5e-3, 1e-3])
    flows = classical_flows(H, rows, T, dt)
    counts = np.rint(np.abs(T) / dt).astype(int)
    h = np.where(counts > 0, T / np.maximum(counts, 1), 0.0)
    states = [rows.T]
    for _ in range(counts.max()):
        states.append(np.array(_rk4_steps(H, states[-1], h, 1, [None] * 6)[3:]))
    states = np.array(states)           # (step, component, row)
    assert counts.tolist() == [1000, 350, 70, 0]
    for r, (flow, c) in enumerate(zip(flows, counts)):
        assert np.array_equal(flow.times, np.arange(c + 1) * h[r])
        assert np.array_equal(flow.rows, states[:c + 1, :, r])
        _, P, Q = flow.rows[-1].tolist()
        assert flow.energy_drift == abs(H.value(P, Q) - H.value(*rows[r, 1:].tolist()))


def test_state_row_of_another_length_is_refused():
    """A base point is a state row of three finite floats S, P, Q: the flow
    refuses a row of one degree of freedom too many or too few, and so does
    every packet path, which also refuses a non-finite row (ansatz_errors
    even for no eps)."""
    xs = np.linspace(-8, 8, 2048)
    for row in ([0.0, 0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0], [0.0]):
        with pytest.raises(InputError):
            classical_flow(OSC, np.array(row), 1.0, 1e-3)
    for row in ([0.0, 0.0, 0.0, 1.0, 1.0], [0.0, 1.0], [0.0, np.nan, 1.0],
                [np.inf, 0.0, 1.0]):
        with pytest.raises(InputError, match="three finite floats"):
            ansatz_wavefunction(np.array(row), ground_state(), 0.1, xs)
        with pytest.raises(InputError, match="three finite floats"):
            ansatz_errors(OSC, np.array(row), ground_state(), [0.1], 1.0, xs, 1e-3)
        with pytest.raises(InputError, match="three finite floats"):
            ansatz_errors(OSC, np.array(row), ground_state(), [], 1.0, xs, 1e-3)
        with pytest.raises(InputError, match="three finite floats"):
            gaussian_packet(OSC, np.array(row), ground_state(), 0.1, 1.0, xs)


def test_step_count_refuses_a_time_without_a_step():
    assert [step_count(T, 1e-3) for T in (0.25, 0.5, 1.25)] == [250, 500, 1250]
    with pytest.raises(InputError):
        step_count(4e-4, 1e-3)       # no step at all


def test_hamiltonian_spec_validation():
    probes = np.array([[0.0, 0.3, 0.7], [0.0, -1.1, 0.2]])
    assert cubic_perturbed_spec(1.0, 0.1).validate(probes) <= 1e-6
    assert OSC.validate(probes) <= 1e-6
    broken = HamiltonianSpec(
        value=lambda P, Q: 0.5 * (P * P + Q * Q),
        grad=lambda P, Q: (P, 2.0 * Q),   # dH/dQ wrong by a factor 2
        hess=lambda P, Q: np.broadcast_to(np.eye(2), (len(P), 2, 2)),
        potential=lambda Q: 0.5 * np.asarray(Q) ** 2)
    # the spec reports the error and judges nothing: the verify record does
    assert broken.validate(probes) > 1e-6


# ---------------------------------------------------------------------------
# fluctuation propagator
# ---------------------------------------------------------------------------

def test_propagator_zero_time_identity():
    dim = 8
    tr = classical_flow(OSC, np.array([0.0, 0.0, 1.0]), 0.0, 1e-3)
    U = fluctuation_propagator(OSC, tr, dim)
    assert np.allclose(U, np.eye(dim))


def test_propagator_oscillator_diagonal_phases():
    t = 1.3
    tr = classical_flow(OSC, np.array([0.0, 0.2, 0.8]), t, 1e-3)
    U = fluctuation_propagator(OSC, tr, 16)
    expected = np.diag(np.exp(-1j * t * (np.arange(16) + 0.5)))
    assert np.max(np.abs(U - expected)) <= 1e-6


def test_propagator_free_particle_matches_exponential_oracle():
    dim = 16
    t = 0.7
    tr = classical_flow(FREE, np.array([0.0, 1.0, 0.0]), t, 1e-3)
    U = fluctuation_propagator(FREE, tr, dim)
    # independent matrix-exponential oracle: the kinetic generator p^2/2
    # written out from the known ladder matrix elements
    k = np.arange(dim, dtype=float)
    kinetic = np.diag((2 * k + 1) / 4.0).astype(complex)
    off = -np.sqrt((k[:-2] + 1) * (k[:-2] + 2)) / 4.0
    kinetic += np.diag(off, 2) + np.diag(off, -2)
    from scipy.linalg import expm
    oracle = expm(-1j * t * kinetic)
    assert np.max(np.abs(U - oracle)) <= 1e-6


@pytest.mark.parametrize("H", [OSC, FREE, quadratic_hamiltonian_spec(2.5),
                               quadratic_hamiltonian_spec(-0.5)],
                         ids=["oscillator", "free", "stiff", "inverted"])
def test_closed_forms_match_the_stepped_arithmetic(H):
    """For a quadratic H, the propagator over c steps is one exponential at
    time c h, and :func:`exact_flow` the exact flow: they match the running
    product of the one step unitary to 1e-11, and RK4 flows of step 1e-4
    to 1e-12.  The four Hamiltonians reach every branch of det K (> 0, = 0,
    < 0) of the closed-form exponential.  The flow is elementwise: a stack
    of rows over an array of times equals its one-row calls bit for bit."""
    dim, T, X0 = 32, 1.0, np.array([0.0, 0.4, 1.0])
    trajectory = classical_flow(H, X0, T, 0.002)
    hessian = H.hess(X0[1:2], X0[2:3])[0]
    step = spectral_exp(np.linalg.eigh(dynamics._fluct_matrix(hessian, dim)), trajectory.times[1])
    stepped = np.eye(dim, dtype=complex)
    for _ in range(len(trajectory) - 1):
        stepped = step @ stepped
    assert np.max(np.abs(fluctuation_propagator(H, trajectory, dim) - stepped)) <= 1e-11
    flow = exact_flow(H)
    rows = np.array([X0, [0.3, -0.7, 0.2], [-0.1, 1.1, -0.5]])
    times = np.array([T, -0.6, 0.35])
    stacked = flow(times, rows)
    for row, t, end in zip(rows, times, stacked):
        assert end.tobytes() == flow(t, row).tobytes()
        assert np.max(np.abs(end - classical_flow(H, row, t, 1e-4).rows[-1])) <= 1e-12


def test_propagator_time_dependent_unitarity():
    tr = classical_flow(cubic_perturbed_spec(1.0, 0.1), np.array([0.0, 0.0, 1.0]),
                        1.0, 1e-3)
    U = fluctuation_propagator(cubic_perturbed_spec(1.0, 0.1), tr, 12)
    assert unitarity_residual(U) <= 1e-8


# ---------------------------------------------------------------------------
# evolution automorphism
# ---------------------------------------------------------------------------

def test_automorphism_zero_time_identity():
    dim = 8
    X = np.array([0.1, 0.5, -0.3])
    Y, U = evolution_automorphism(OSC, 0.0, dim)(X)
    assert np.linalg.norm(Y - X) == 0.0
    assert np.allclose(U, np.eye(dim))


def test_automorphism_refuses_a_non_quadratic_hamiltonian():
    with pytest.raises(InputError):
        evolution_automorphism(CUBIC, 0.5, 8)


def test_automorphism_composition_law():
    dim = 16
    t1, t2 = 0.3, 0.7
    X = np.array([0.0, 0.3, 0.9])
    Y, U2 = evolution_automorphism(OSC, t2, dim)(X)
    Z, U1 = evolution_automorphism(OSC, t1, dim)(Y)
    Z12, U12 = evolution_automorphism(OSC, t1 + t2, dim)(X)
    assert np.linalg.norm(Z - Z12) <= 1e-8
    assert np.linalg.norm(U1 @ U2 - U12) <= 1e-6
    assert unitarity_residual(U12) <= 1e-8


def test_traced_one_row_flows_key_on_their_start(monkeypatch):
    """The benchmark tracer keys each traced classical flow on X0.S, X0.P
    and X0.Q.  The package's one-row RK4 flow, the ansatz's, hands it a
    start that names them, and traces to the same bytes; the evolution
    automorphism flows exactly and traces no RK4 flow."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracing
    probe = next(p for p in tracing.PROBES if p.name == "dynamics.classical_flow")
    X, xs = np.array([0.0, 0.3, 0.9]), np.linspace(-12, 12, 2048)

    def run():
        Y, U = evolution_automorphism(OSC, 0.5, 8)(X)
        errors = ansatz_errors(OSC, X, ground_state(), [0.1], 0.5, xs, 1e-3)
        return Y.tobytes(), U.tobytes(), errors

    plain = run()
    tracer = tracing.Tracer([probe])
    with tracer:
        traced = run()
    assert traced == plain
    assert len(tracer.spans) == 1
    assert tracer.keys == {(-1, probe.name): {(0.0, (0.3,), (0.9,), 0.5, 1e-3)}}


# ---------------------------------------------------------------------------
# ansatz synthesis
# ---------------------------------------------------------------------------

def test_ansatz_ground_mode_real_gaussian():
    xs = np.linspace(-8, 8, 2048)
    eps = 0.1
    X = np.array([0.0, 0.0, 0.7])
    psi = ansatz_wavefunction(X, ground_state(), eps, xs)
    assert np.max(np.abs(psi.imag)) <= 1e-12
    assert xs[np.argmax(np.abs(psi))] == pytest.approx(0.7, abs=xs[1] - xs[0])
    oracle = (np.pi * eps) ** -0.25 * np.exp(-(xs - 0.7) ** 2 / (2 * eps))
    assert np.max(np.abs(psi - oracle)) <= 1e-10


def test_ansatz_unit_norm():
    xs = np.linspace(-10, 10, 4096)
    rng = np.random.default_rng(1)
    c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    f = c / np.linalg.norm(c)
    psi = ansatz_wavefunction(np.array([0.2, 0.4, -0.5]), f, 0.05, xs)
    norm = np.sqrt(np.sum(np.abs(psi) ** 2) * (xs[1] - xs[0]))
    assert abs(norm - 1.0) <= 1e-6


def test_ansatz_value_at_center():
    eps = 0.07
    S = 0.43
    # place Q exactly on a grid node
    xs = np.linspace(-8, 8, 2049)
    X = np.array([S, 0.0, 0.0])
    f = ground_state()
    psi = ansatz_wavefunction(X, f, eps, xs)
    at_q = psi[np.argmin(np.abs(xs))]
    expected = np.exp(1j * S / eps) * np.pi ** -0.25 * eps ** -0.25
    assert abs(at_q - expected) <= 1e-12


def test_ansatz_resolution_guard():
    xs = np.linspace(-8, 8, 64)
    X = np.array([0.0, 2.0, 0.0])
    with pytest.raises(ResolutionError):
        ansatz_wavefunction(X, ground_state(), 0.01, xs)


# ---------------------------------------------------------------------------
# reference solver
# ---------------------------------------------------------------------------

def _free_gaussian(X0, eps, T, xs):
    """The analytic spreading Gaussian of the free equation from the
    ground-mode packet at X0."""
    S, P, Q = X0
    Qt = Q + P * T
    St = S + 0.5 * P ** 2 * T
    xi = (xs - Qt) / np.sqrt(eps)
    profile = np.pi ** -0.25 / np.sqrt(1 + 1j * T) * np.exp(-xi ** 2 / (2 * (1 + 1j * T)))
    return eps ** -0.25 * np.exp(1j * (St + P * (xs - Qt)) / eps) * profile


def test_reference_free_gaussian_spreading():
    eps = 0.05
    xs = np.linspace(-12, 12, 4096)
    X0 = np.array([0.0, 0.6, -0.4])
    psi0 = ansatz_wavefunction(X0, ground_state(), eps, xs)
    got = reference_schrodinger(FREE, psi0, eps, 1.0, xs, dt=2.5e-4)
    assert l2_distance(got, _free_gaussian(X0, eps, 1.0, xs), xs[1] - xs[0]) <= 1e-6


def test_reference_norm_conservation_oscillator():
    eps = 0.08
    xs = np.linspace(-12, 12, 4096)
    psi0 = ansatz_wavefunction(np.array([0.0, 0.0, 1.0]),
                               ground_state(), eps, xs)
    out = reference_schrodinger(OSC, psi0, eps, 1.0, xs, dt=2.5e-4)
    dx = xs[1] - xs[0]
    n0 = np.sqrt(np.sum(np.abs(psi0) ** 2) * dx)
    n1 = np.sqrt(np.sum(np.abs(out) ** 2) * dx)
    assert abs(n1 - n0) <= 1e-8


def test_stacked_split_step_equals_single_packets():
    """One split-step loop over a stack of per-eps packets gives each
    packet's own run bitwise.  The 8,192-point grid makes the stack larger
    than the 256 KiB above which numpy may evaluate a product with a
    temporary in place."""
    xs = np.linspace(-16, 16, 8192)
    X0 = np.array([0.0, 0.0, 1.0])
    eps = [0.08, 0.04, 0.02]
    psi0 = np.array([ansatz_wavefunction(X0, ground_state(), e, xs) for e in eps])
    stacked = reference_schrodinger(CUBIC, psi0, eps, 0.05, xs, 2.5e-4)
    for row, e, out in zip(psi0, eps, stacked):
        assert np.array_equal(out, reference_schrodinger(CUBIC, row, e, 0.05, xs, 2.5e-4))


def _cubic_stack(rows):
    """``rows`` cubic packets of decreasing eps on the 8,192-point grid."""
    xs = np.linspace(-16, 16, 8192)
    X0 = np.array([0.0, 0.0, 1.0])
    eps = [0.08 / 2 ** (r / 2) for r in range(rows)]
    return np.array([ansatz_wavefunction(X0, ground_state(), e, xs) for e in eps]), eps, xs


def _set_cpus(monkeypatch, cpus):
    monkeypatch.setattr(dynamics.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


class _CountedThread(threading.Thread):
    started = []

    def start(self):
        _CountedThread.started.append(self)
        super().start()


@pytest.mark.parametrize("rows", [2, 3, 4])
def test_row_blocks_equal_the_serial_loop_and_single_rows(monkeypatch, rows):
    """On 1, 2 or 4 usable CPUs a stack runs in min(CPUs, rows) row blocks,
    one thread for each block after the first (so none on one CPU), and
    every row of the result is bitwise the single-loop result and that row's
    one-row run; no thread outlives the call."""
    psi0, eps, xs = _cubic_stack(rows)
    _set_cpus(monkeypatch, 1)
    singles = [reference_schrodinger(CUBIC, row, e, 0.05, xs, 2.5e-4)
               for row, e in zip(psi0, eps)]
    monkeypatch.setattr(dynamics.threading, "Thread", _CountedThread)
    for cpus in (1, 2, 4):
        _set_cpus(monkeypatch, cpus)
        _CountedThread.started = []
        before = threading.active_count()
        stacked = reference_schrodinger(CUBIC, psi0, eps, 0.05, xs, 2.5e-4)
        assert threading.active_count() == before
        assert len(_CountedThread.started) == min(cpus, rows) - 1
        if cpus == 1:
            serial = stacked
        assert np.array_equal(stacked, serial)
        for out, single in zip(stacked, singles):
            assert np.array_equal(out, single)


def test_usable_cpus_fall_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(dynamics.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 3)
    assert dynamics._usable_cpus() == 3
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: None)
    assert dynamics._usable_cpus() == 1


def test_worker_exception_reaches_the_caller(monkeypatch):
    """An FFT that fails off the main thread, after the main thread's block
    is done, fails the call with its own exception, after every worker has
    been joined."""
    fft = np.fft.fft

    def main_thread_only(a, *args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.2)
            raise FloatingPointError("fft refused off the main thread")
        return fft(a, *args, **kwargs)

    psi0, eps, xs = _cubic_stack(3)
    _set_cpus(monkeypatch, 2)
    monkeypatch.setattr(np.fft, "fft", main_thread_only)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="off the main thread"):
        reference_schrodinger(CUBIC, psi0, eps, 0.05, xs, 2.5e-4)
    assert threading.active_count() == before


@pytest.mark.parametrize("T, dt", [
    (0.0, 1e-3),             # no step: ansatz_errors returns before the split-step
    (1e-5, 1e-3),            # fewer than half a step: ZeroDivisionError before
    (0.1, 0.0),
    (0.1, float("inf")),
    (0.1, -1e-3),            # took no step and returned psi0 before
    (float("nan"), 1e-3),    # a bare ValueError before
    (float("inf"), 1e-3),
])
def test_split_step_refuses_a_step_grid_it_cannot_take(T, dt):
    xs = np.linspace(-10, 10, 512)
    with pytest.raises(InputError):
        reference_schrodinger(OSC, np.exp(-xs ** 2), 0.1, T, xs, dt)


# ---------------------------------------------------------------------------
# ansatz error
# ---------------------------------------------------------------------------

def test_ansatz_error_zero_time():
    xs = np.linspace(-14, 14, 4096)
    err, = ansatz_errors(OSC, np.array([0.0, 0.0, 1.0]), ground_state(),
                         [0.05], 0.0, xs, dt=1e-3)
    assert err <= 1e-10


def test_ansatz_exact_for_quadratic_hamiltonian():
    xs = np.linspace(-16, 16, 8192)
    err, = ansatz_errors(OSC, np.array([0.0, 0.0, 1.0]), ground_state(),
                         [0.04], 1.0, xs, dt=1e-3)
    assert err <= 1e-10


def test_ansatz_error_decreases_with_eps_for_cubic():
    xs = np.linspace(-16, 16, 8192)
    errs = [ansatz_errors(CUBIC, np.array([0.0, 0.0, 1.0]), ground_state(),
                          [eps], 1.0, xs, dt=1e-3)[0] for eps in (0.08, 0.04)]
    assert errs[1] < errs[0]


def test_ansatz_errors_equal_single_eps_errors():
    xs = np.linspace(-16, 16, 8192)
    X0 = np.array([0.0, 0.0, 1.0])
    eps = [0.08, 0.04, 0.02]
    errors = ansatz_errors(CUBIC, X0, ground_state(), eps, 0.05, xs, dt=1e-3)
    assert errors == [ansatz_errors(CUBIC, X0, ground_state(), [e], 0.05, xs, dt=1e-3)[0]
                      for e in eps]


@pytest.mark.parametrize("H", [OSC, cubic_perturbed_spec(1.0, 0.1)], ids=["exact", "split-step"])
@pytest.mark.parametrize("T", [0.0, 0.05])
def test_ansatz_errors_of_no_eps_are_empty(H, T):
    """An empty eps list gives no errors on every path; the split-step path
    used to refuse its empty packet stack."""
    xs = np.linspace(-16, 16, 8192)
    assert ansatz_errors(H, np.array([0.0, 0.0, 1.0]), ground_state(),
                         [], T, xs, dt=1e-3) == []


@pytest.mark.parametrize("T", [0.0, 1.0])
@pytest.mark.parametrize("X0, eps, xs, error, message", [
    # carrier wavelength 2 pi eps / P = 0.126 against spacing 0.063
    (np.array([0.0, 2.0, 0.0]), 0.04, np.linspace(-16, 16, 512),
     ResolutionError, "under-resolves the carrier wave"),
    (np.array([0.0, 0.0, 1.0]), 0.04, np.linspace(-1, 1, 512),
     ResolutionError, "does not cover the packet support"),
    (np.array([0.0, 0.0, 1.0]), 0.0, np.linspace(-16, 16, 8192),
     InputError, "eps must be positive"),
])
def test_ansatz_errors_check_the_initial_grid_on_every_path(T, X0, eps, xs, error, message):
    """A quadratic Hamiltonian never builds the initial packet (the exact
    Gaussian is its reference), yet an eps or grid that the packet refuses
    raises the same error at T = 0 and T = 1."""
    with pytest.raises(error, match=message):
        ansatz_errors(OSC, X0, ground_state(), [0.08, eps], T, xs, dt=1e-2)
    with pytest.raises(error, match=message):
        ansatz_wavefunction(X0, ground_state(), eps, xs)


@pytest.mark.parametrize("H, initial_packets", [(OSC, 0), (CUBIC, 2)])
def test_only_the_split_step_builds_the_initial_packets(monkeypatch, H, initial_packets):
    X0 = np.array([0.0, 0.0, 1.0])
    built = []

    def counted(X, f, eps, xs):
        built.append(X is X0)
        return ansatz_wavefunction(X, f, eps, xs)

    monkeypatch.setattr(dynamics, "ansatz_wavefunction", counted)
    xs = np.linspace(-16, 16, 8192)
    assert ansatz_errors(H, X0, ground_state(), [0.08, 0.04], 0.0, xs, dt=1e-3) == [0.0, 0.0]
    assert built == []
    ansatz_errors(H, X0, ground_state(), [0.08, 0.04], 0.05, xs, dt=1e-2)
    assert built.count(True) == initial_packets and built.count(False) == 2


# ---------------------------------------------------------------------------
# exact Gaussian for quadratic Hamiltonians
# ---------------------------------------------------------------------------

def test_quadratic_value_rounds_as_half_z_dot_gradient():
    """value(P, Q) is, bitwise, (1/2)(grad_P P + grad_Q Q) with the gradient
    (P, Q omega2) written out, on floats and on arrays."""
    qq = 2.5
    H = quadratic_hamiltonian_spec(qq)

    def half_z_dot_gradient(P, Q):
        return 0.5 * (P * P + (Q * qq) * Q)

    P, Q = np.random.default_rng(5).normal(scale=7.0, size=(2, 257))
    assert H.value(P, Q).tobytes() == half_z_dot_gradient(P, Q).tobytes()
    for p, q in zip(P.tolist(), Q.tolist()):
        assert H.value(p, q) == half_z_dot_gradient(p, q)


def test_exact_gaussian_equals_free_spreading():
    eps = 0.05
    xs = np.linspace(-12, 12, 4096)
    X0 = np.array([0.3, 0.6, -0.4])
    for T in (1.0, -2.5, 0.0):
        got = gaussian_packet(FREE, X0, ground_state(), eps, T, xs)
        assert l2_distance(got, _free_gaussian(X0, eps, T, xs), xs[1] - xs[0]) <= 1e-12


@pytest.mark.parametrize("omega2, T", [(1.0, 1.0), (1.0, 2 * np.pi + 0.5), (2.5, 3.0),
                                       (1.0, -1.3), (2.5, -2.2)])
def test_exact_gaussian_matches_split_step(omega2, T):
    """Forwards and backwards, within a half period and past the half
    periods where dQ^(-1/2) changes branch."""
    H = quadratic_hamiltonian_spec(omega2)
    eps, xs = 0.04, np.linspace(-8, 8, 1024)
    X0 = np.array([0.3, 0.2, 1.0])
    psi0 = ansatz_wavefunction(X0, ground_state(), eps, xs)
    got = reference_schrodinger(H, psi0, eps, T, xs, dt=2.5e-4)
    exact = gaussian_packet(H, X0, ground_state(), eps, T, xs)
    assert l2_distance(got, exact, xs[1] - xs[0]) <= 1e-6


def test_exact_gaussian_input_validation():
    xs = np.linspace(-8, 8, 1024)
    X0 = np.array([0.0, 0.0, 1.0])
    with pytest.raises(InputError):
        gaussian_packet(CUBIC, X0, ground_state(), 0.04, 1.0, xs)
    excited = np.eye(16)[1].astype(complex)
    with pytest.raises(InputError):
        gaussian_packet(OSC, X0, excited, 0.04, 1.0, xs)
    with pytest.raises(InputError):
        gaussian_packet(OSC, X0, ground_state(), 0.0, 1.0, xs)


def test_exact_gaussian_needs_the_grid_to_cover_its_final_width():
    """The free packet spreads to |1 + iT| of its width: the grid covers 8
    widths at the start but not at T = 10."""
    xs = np.linspace(-8, 8, 1024)
    X0 = np.array([0.0, 0.0, 1.0])
    gaussian_packet(FREE, X0, ground_state(), 0.04, 0.0, xs)
    with pytest.raises(ResolutionError):
        gaussian_packet(FREE, X0, ground_state(), 0.04, 10.0, xs)


def _symplectic_matrix(H, t):
    """exp(t J K) = c I + s J K from the closed form's JK and c, s."""
    JK, _, cs = dynamics._symplectic_exp(H)
    c, s = cs(t)
    return c * np.eye(2) + s * JK


@pytest.mark.parametrize("H", [OSC, FREE, INVERTED], ids=["oscillator", "free", "inverted"])
def test_symplectic_exp_matches_expm(H):
    """M = exp(T J K) from Cayley-Hamilton in each branch of det K (> 0, = 0,
    < 0) against scipy's expm: to 4 ulps of max(1, |M|) for |T| <= 1, where
    expm does no squaring, and to 1e-11 relative up to |T| = 10 (expm's own
    error reaches 7.6e3 ulps there on the inverted oscillator)."""
    A = dynamics._symplectic_exp(H)[0]
    assert _symplectic_matrix(H, 0.0).tolist() == np.eye(2).tolist()
    for T in np.linspace(-1.0, 1.0, 41):
        got, expected = _symplectic_matrix(H, T), scipy.linalg.expm(T * A)
        scale = max(1.0, np.max(np.abs(expected)))
        assert np.max(np.abs(got - expected)) <= 4 * np.finfo(float).eps * scale, T
    for T in np.linspace(-10.0, 10.0, 81):
        got, expected = _symplectic_matrix(H, T), scipy.linalg.expm(T * A)
        assert np.max(np.abs(got - expected)) <= 1e-11 * np.max(np.abs(expected)), T


def _expm_symplectic_exp(symplectic_exp):
    """``symplectic_exp`` with c and s read off scipy's expm: the trace of
    exp(t J K) is 2 c (J K is traceless), and its (Q, P) entry is
    s (J K)[1, 0], with (J K)[1, 0] = 1 for H = P^2/2 + V(Q)."""
    def patched(H):
        JK, det, _ = symplectic_exp(H)

        def cs(t):
            M = scipy.linalg.expm(t * JK)
            return 0.5 * np.trace(M), M[1, 0] / JK[1, 0]
        return JK, det, cs
    return patched


def test_gaussian_packet_reads_its_closed_form_once(monkeypatch):
    """One exact Gaussian builds J K, det K and c, s once: the flow of its
    centre and its tangent read the same ones."""
    built = []
    symplectic_exp = dynamics._symplectic_exp

    def counted(H):
        built.append(H)
        return symplectic_exp(H)
    xs = np.linspace(-8, 8, 1024)
    X0 = np.array([0.3, 0.2, 1.0])
    expected = gaussian_packet(OSC, X0, ground_state(), 0.04, 1.3, xs)
    monkeypatch.setattr(dynamics, "_symplectic_exp", counted)
    packet = gaussian_packet(OSC, X0, ground_state(), 0.04, 1.3, xs)
    assert built == [OSC]
    assert packet.tobytes() == expected.tobytes()


@pytest.mark.parametrize("H, T_max", [(OSC, 3.5 * np.pi), (quadratic_hamiltonian_spec(2.5),
                                                            3.5 * np.pi / np.sqrt(2.5)),
                                      (INVERTED, 1.5)],
                         ids=["oscillator", "stiff-oscillator", "inverted"])
def test_exact_gaussian_branch_continues_over_half_periods(H, T_max, monkeypatch):
    """Over three and a half half periods each way, the unit-norm packet
    moves by at most 0.4 between neighbouring times (a wrong branch of
    dQ^(-1/2) would flip its sign, a jump of 2), and equals the packet built
    from scipy's expm to 1e-11."""
    xs = np.linspace(-8, 8, 1024)
    dx = xs[1] - xs[0]
    X0 = np.array([0.3, 0.2, 1.0])
    times = np.linspace(-T_max, T_max, 1401)
    packets = [gaussian_packet(H, X0, ground_state(), 0.04, T, xs) for T in times]
    assert max(l2_distance(a, b, dx) for a, b in zip(packets, packets[1:])) <= 0.4
    monkeypatch.setattr(dynamics, "_symplectic_exp",
                        _expm_symplectic_exp(dynamics._symplectic_exp))
    for T, packet in zip(times, packets):
        old = gaussian_packet(H, X0, ground_state(), 0.04, T, xs)
        assert l2_distance(packet, old, dx) <= 1e-11, T
