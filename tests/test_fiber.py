"""Fiber space: quadratic Hamiltonian assembly, unitarity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbundle.fiber import (
    _padded_ops, hermite_functions, momentum_operator, position_operator,
    quadratic_hamiltonian, spectral_exp, unitarity_residual,
)


def grid_matrix_elements(op_on_grid, count, lo=-12.0, hi=12.0, num=24001):
    """Dense-grid oracle: matrix elements of a 1-D operator acting on
    sampled Hermite functions, integrated by the trapezoid rule."""
    xs = np.linspace(lo, hi, num)
    h = hermite_functions(xs, count)
    applied = np.array([op_on_grid(xs, h[k]) for k in range(count)])
    dx = xs[1] - xs[0]
    return np.array([[np.trapezoid(h[j] * applied[k], dx=dx)
                      for k in range(count)] for j in range(count)])


def second_derivative(xs, f):
    """4th-order central 5-point stencil; endpoints unused (functions decay
    to ~1e-30 at the grid edge)."""
    dx = xs[1] - xs[0]
    out = np.zeros_like(f)
    out[2:-2] = (-f[4:] + 16 * f[3:-1] - 30 * f[2:-2]
                 + 16 * f[1:-3] - f[:-4]) / (12 * dx ** 2)
    return out


# ---------------------------------------------------------------------------
# quadratic Hamiltonian
# ---------------------------------------------------------------------------

def test_quadratic_hamiltonian_zero_blocks():
    H = quadratic_hamiltonian(0.0, 0.0, 0.0, 8)
    assert np.allclose(H, 0.0)


def test_quadratic_hamiltonian_oscillator_diagonal():
    H = quadratic_hamiltonian(1.0, 0.0, 1.0, 16)
    assert np.allclose(H, np.diag(np.arange(16) + 0.5), atol=1e-13)


def test_quadratic_hamiltonian_oscillator_vs_grid_oracle():
    H = quadratic_hamiltonian(1.0, 0.0, 1.0, 12)
    oracle = grid_matrix_elements(
        lambda xs, f: 0.5 * (xs ** 2 * f - second_derivative(xs, f)), 12)
    assert np.max(np.abs(H - oracle)) <= 1e-8


def test_quadratic_hamiltonian_kinetic_vs_grid_oracle():
    H = quadratic_hamiltonian(0.0, 0.0, 1.0, 16)
    oracle = grid_matrix_elements(
        lambda xs, f: -0.5 * second_derivative(xs, f), 16)
    assert np.max(np.abs(H - oracle)) <= 1e-8
    # kinetic term couples modes two apart only
    coupling = np.abs(H) > 1e-12
    rows, cols = np.nonzero(coupling)
    assert np.all(np.abs(rows - cols) % 2 == 0)
    assert np.all(np.abs(rows - cols) <= 2)


def test_quadratic_hamiltonian_parity_commutes_without_mixing():
    """A quadratic H is even under (xi, p) -> (-xi, -p), so it commutes with
    the parity (-1)^k of the Hermite degree k."""
    h_qq, h_pp = np.random.default_rng(2).standard_normal(2) + [0.0, 3.0]
    H = quadratic_hamiltonian(h_qq, 0.0, h_pp, 7)
    parity = np.diag((-1.0) ** np.arange(7))
    comm = H @ parity - parity @ H
    assert np.linalg.norm(comm) <= 1e-10


def test_oscillator_spectrum_below_truncation_edge():
    H = quadratic_hamiltonian(1.0, 0.0, 1.0, 16)
    vals = np.linalg.eigvalsh(H)
    expect = np.arange(16) + 0.5
    keep = np.arange(16) < 16 - 2    # off the two-degree truncation edge
    assert np.max(np.abs(vals[keep] - expect[keep])) <= 1e-8


def test_canonical_pair_true_elements():
    # [xi, p] stored entries are the true ones: i * identity except at the
    # truncation edge, where composing cut operators must show the defect.
    x = position_operator(10)
    p = momentum_operator(10)
    comm = x @ p - p @ x
    assert np.allclose(comm[:-1, :-1], 1j * np.eye(9), atol=1e-13)
    assert abs(comm[-1, -1] - 1j * (1 - 10)) <= 1e-12


def test_padded_ladder_matrices_are_built_once_and_read_only():
    """quadratic_hamiltonian runs once per step of a time-dependent
    propagator; its padded position/momentum matrices are shared, so no
    caller may write to them."""
    x, p = _padded_ops(12)
    assert _padded_ops(12)[0] is x and x.shape == p.shape == (14, 14)
    for matrix in (x, p, _padded_ops(12, pad=1)[0]):
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0
    H = quadratic_hamiltonian(1.0, 0.0, 1.0, 12)
    assert np.array_equal(H, quadratic_hamiltonian(1.0, 0.0, 1.0, 12))


# ---------------------------------------------------------------------------
# unitarity
# ---------------------------------------------------------------------------

def test_unitarity_residual_identity():
    assert unitarity_residual(np.eye(5)) == 0.0


def test_unitarity_residual_diagonal_phases():
    thetas = np.linspace(0.1, 2.9, 7)
    assert unitarity_residual(np.diag(np.exp(1j * thetas))) <= 1e-14


def test_unitarity_residual_scaled_identity():
    # U = 2I on a 4-dim fiber: U^dag U - I = 3I, so the Frobenius norm is
    # sqrt(3^2 * 4) = 6, confirmed by direct arithmetic.
    got = unitarity_residual(2.0 * np.eye(4))
    direct = np.sqrt(np.sum(np.abs(3.0 * np.eye(4)) ** 2))
    assert got == pytest.approx(direct) == pytest.approx(6.0)


@given(t=st.floats(-3.0, 3.0))
@settings(max_examples=20, deadline=None)
def test_propagator_is_unitary(t):
    H = quadratic_hamiltonian(1.0, 0.3, 2.0, 9)
    U = spectral_exp(np.linalg.eigh(H), t)
    assert unitarity_residual(U) <= 1e-12
