"""Finite-dimensional model of the quantum fibers.

A fiber is the space of states of one fluctuation variable: the
L2-orthonormal Hermite functions of degree < ``n_cut``.  So a fiber is its
dimension, the int ``n_cut``; a state is a complex vector of that length and
an operator a complex (d, d) array.  Operators are assembled from ladder
matrices computed on a degree-padded basis, so every stored entry is the
*true* infinite-basis matrix element of the corresponding quadratic operator
(truncation shows up only when operators are composed or exponentiated,
never in the assembly itself).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import InputError

__all__ = [
    "quadratic_hamiltonian",
    "unitarity_residual",
    "position_operator",
    "momentum_operator",
    "spectral_exp",
    "hermite_functions",
]


@lru_cache(maxsize=None)
def _padded_ops(dim: int):
    """Position and momentum matrices on the basis padded by two degrees,
    from the annihilation matrix a (a[k-1, k] = sqrt(k)); built once per
    dimension, shared read-only; their (dim, dim) blocks are pad-free."""
    a = np.diag(np.sqrt(np.arange(1, dim + 2, dtype=float)), 1)
    x = (a + a.T) / np.sqrt(2.0)
    p = 1j * (a.T - a) / np.sqrt(2.0)
    x.flags.writeable = p.flags.writeable = False
    return x, p


def unitarity_residual(U: np.ndarray) -> float:
    """Frobenius norm of ``U^dagger U - I``."""
    matrix = np.asarray(U)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InputError("unitarity residual needs a square matrix")
    d = matrix.shape[0]
    return float(np.linalg.norm(matrix.conj().T @ matrix - np.eye(d)))


def quadratic_hamiltonian(h_qq: float, h_pp: float, dim: int) -> np.ndarray:
    """Quadratic fluctuation Hamiltonian

        (1/2) [ Hqq xi^2 + Hpp p^2 ],  p = -i d/dxi,

    of H = P^2/2 + V(Q) (Hqq = V'' along the flow, Hpp = 1), assembled from
    exact ladder-operator matrix elements, as a Hermitian (dim, dim) array.
    A zero coefficient adds no term.
    """
    x, p = _padded_ops(dim)
    acc = np.zeros(x.shape, dtype=complex)
    if h_qq != 0.0:
        acc += h_qq * (x @ x)
    if h_pp != 0.0:
        acc += h_pp * (p @ p)
    mat = 0.5 * acc[:dim, :dim]
    return 0.5 * (mat + mat.conj().T)


def position_operator(dim: int) -> np.ndarray:
    """Exact matrix of the fluctuation coordinate xi, complex like every
    fiber operator (``eigh`` of a real matrix takes another LAPACK path)."""
    return _padded_ops(dim)[0][:dim, :dim].astype(complex)


def momentum_operator(dim: int) -> np.ndarray:
    """Exact matrix of -i d/dxi (a read-only view)."""
    return _padded_ops(dim)[1][:dim, :dim]


def spectral_exp(eig, t: float) -> np.ndarray:
    """``exp(-i t H)`` from the eigendecomposition ``eig = (vals, vecs)`` of a
    Hermitian matrix H, as returned by ``np.linalg.eigh`` (unitary to machine
    precision)."""
    vals, vecs = eig
    return (vecs * np.exp(-1j * t * vals)) @ vecs.conj().T


def hermite_functions(xs: np.ndarray, count: int) -> np.ndarray:
    """Orthonormal Hermite functions h_0..h_{count-1} sampled on ``xs``,
    by the stable two-term recurrence; returns shape (count, len(xs))."""
    xs = np.asarray(xs, dtype=float)
    out = np.empty((count, xs.size))
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * xs ** 2)
    if count > 1:
        out[1] = np.sqrt(2.0) * xs * out[0]
    for k in range(1, count - 1):
        out[k + 1] = (np.sqrt(2.0 / (k + 1)) * xs * out[k]
                      - np.sqrt(k / (k + 1)) * out[k - 1])
    return out
