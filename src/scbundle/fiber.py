"""Finite-dimensional model of the quantum fibers.

A fiber is the space of states of one fluctuation variable: the
L2-orthonormal Hermite functions of degree < ``n_cut``.  Operators are
assembled from ladder matrices computed on a degree-padded basis, so every
stored entry is the *true* infinite-basis matrix element of the
corresponding quadratic operator (truncation shows up only when operators
are composed or exponentiated, never in the assembly itself).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError

__all__ = [
    "DimConfig",
    "FiberVector",
    "FiberOperator",
    "quadratic_hamiltonian",
    "unitarity_residual",
    "position_operator",
    "momentum_operator",
    "spectral_exp",
    "hermite_functions",
]

HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-8


@dataclass(frozen=True)
class DimConfig:
    """Fiber truncation: Hermite degree < ``n_cut``, so ``dim == n_cut``."""

    n_cut: int

    def __post_init__(self):
        if self.n_cut < 1:
            raise InputError("the fiber truncation must be positive")

    @property
    def dim(self) -> int:
        return self.n_cut


@lru_cache(maxsize=None)
def _padded_ops(config: DimConfig, pad: int = 2):
    """Position and momentum matrices on the basis padded by ``pad``
    degrees, from the annihilation matrix a (a[k-1, k] = sqrt(k)); built
    once per (config, pad) and shared read-only."""
    a = np.diag(np.sqrt(np.arange(1, config.n_cut + pad, dtype=float)), 1)
    x = (a + a.T) / np.sqrt(2.0)
    p = 1j * (a.T - a) / np.sqrt(2.0)
    x.flags.writeable = p.flags.writeable = False
    return x, p


def _cut(matrix: np.ndarray, config: DimConfig) -> np.ndarray:
    d = config.dim
    return np.asarray(matrix)[:d, :d]


@dataclass(frozen=True)
class FiberVector:
    """Fiber state: complex coefficients in the truncated Hermite basis."""

    coeffs: np.ndarray
    dim_config: DimConfig

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != (self.dim_config.dim,):
            raise InputError(
                f"expected {self.dim_config.dim} coefficients, got {coeffs.shape}")
        if not np.all(np.isfinite(coeffs)):
            raise InputError("non-finite fiber coefficients")
        object.__setattr__(self, "coeffs", coeffs)


@dataclass(frozen=True)
class FiberOperator:
    """Linear map on a fiber, with advisory hermitian/unitary markers."""

    matrix: np.ndarray
    dim_config: DimConfig
    hermitian: bool = False
    unitary: bool = False

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=complex)
        d = self.dim_config.dim
        if matrix.shape != (d, d):
            raise InputError(f"expected ({d},{d}) matrix, got {matrix.shape}")
        if self.hermitian:
            res = np.linalg.norm(matrix - matrix.conj().T)
            if not res <= HERMITIAN_TOL:
                raise InputError(f"hermitian flag violated (residual {res:.3e})")
        if self.unitary:
            res = np.linalg.norm(matrix.conj().T @ matrix - np.eye(d))
            if not res <= UNITARY_TOL:
                raise InputError(f"unitary flag violated (residual {res:.3e})")
        object.__setattr__(self, "matrix", matrix)

    def apply(self, v: FiberVector) -> FiberVector:
        if v.dim_config != self.dim_config:
            raise InputError("fiber dimension mismatch")
        return FiberVector(self.matrix @ v.coeffs, self.dim_config)


def unitarity_residual(U) -> float:
    """Frobenius norm of ``U^dagger U - I``."""
    matrix = U.matrix if isinstance(U, FiberOperator) else np.asarray(U)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InputError("unitarity residual needs a square matrix")
    d = matrix.shape[0]
    return float(np.linalg.norm(matrix.conj().T @ matrix - np.eye(d)))


def quadratic_hamiltonian(h_qq: float, h_qp: float, h_pp: float,
                          config: DimConfig) -> FiberOperator:
    """Symmetrized quadratic fluctuation Hamiltonian

        (1/2) [ Hqq xi^2 + Hqp (xi p + p xi) + Hpp p^2 ],  p = -i d/dxi,

    assembled from exact ladder-operator matrix elements and flagged
    hermitian.  A zero coefficient adds no term.
    """
    x, p = _padded_ops(config)
    acc = np.zeros(x.shape, dtype=complex)
    if h_qq != 0.0:
        acc += h_qq * (x @ x)
    if h_pp != 0.0:
        acc += h_pp * (p @ p)
    if h_qp != 0.0:
        acc += h_qp * (x @ p + p @ x)
    mat = _cut(0.5 * acc, config)
    mat = 0.5 * (mat + mat.conj().T)
    return FiberOperator(mat, config, hermitian=True)


def position_operator(config: DimConfig) -> FiberOperator:
    """Exact matrix of the fluctuation coordinate xi."""
    return FiberOperator(_cut(_padded_ops(config, pad=1)[0], config), config, hermitian=True)


def momentum_operator(config: DimConfig) -> FiberOperator:
    """Exact matrix of -i d/dxi."""
    return FiberOperator(_cut(_padded_ops(config, pad=1)[1], config), config, hermitian=True)


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
