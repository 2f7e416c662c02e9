"""Finite-dimensional model of the quantum fibers.

States live in the L2-orthonormal Hermite-function basis of ``n`` variables
truncated to total degree < ``n_cut``.  Operators are assembled from ladder
matrices computed on a degree-padded index set, so every stored entry is the
*true* infinite-basis matrix element of the corresponding quadratic operator
(truncation shows up only when operators are composed or exponentiated, never
in the assembly itself).
"""

from __future__ import annotations

import math
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
    "edge_mask",
]

HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-8


@dataclass(frozen=True)
class DimConfig:
    """Fiber truncation: ``n`` spatial dimensions, total degree < ``n_cut``."""

    n: int
    n_cut: int

    def __post_init__(self):
        if self.n < 1 or self.n_cut < 1:
            raise InputError("dimension and truncation must be positive")

    @property
    def dim(self) -> int:
        return math.comb(self.n_cut - 1 + self.n, self.n)

    def indices(self) -> tuple:
        return _graded_indices(self.n, self.n_cut)

    def degrees(self) -> np.ndarray:
        return np.array([sum(k) for k in self.indices()])


@lru_cache(maxsize=None)
def _graded_indices(n: int, n_cut: int) -> tuple:
    """Multi-indices with total degree < n_cut, graded-lexicographic order
    (so a padded index set extends the unpadded one in place)."""
    idx = []
    def rec(prefix, remaining_axes, budget):
        if remaining_axes == 0:
            idx.append(tuple(prefix))
            return
        for k in range(budget + 1):
            rec(prefix + [k], remaining_axes - 1, budget - k)
    for degree in range(n_cut):
        start = len(idx)
        rec([], n, degree)
        idx[start:] = sorted(t for t in idx[start:] if sum(t) == degree)
    return tuple(idx)


@lru_cache(maxsize=None)
def _lowering(n: int, n_cut: int, axis: int) -> np.ndarray:
    """Annihilation matrix for one axis on the graded index set."""
    indices = _graded_indices(n, n_cut)
    pos = {k: i for i, k in enumerate(indices)}
    a = np.zeros((len(indices), len(indices)))
    for i, k in enumerate(indices):
        if k[axis] > 0:
            m = list(k)
            m[axis] -= 1
            a[pos[tuple(m)], i] = np.sqrt(k[axis])
    return a


@lru_cache(maxsize=None)
def _padded_ops(config: DimConfig, pad: int = 2):
    """Position/momentum matrices on the degree-padded index set, built once
    per (config, pad) and shared read-only."""
    padded = DimConfig(config.n, config.n_cut + pad)
    xs, ps = [], []
    for axis in range(config.n):
        a = _lowering(config.n, padded.n_cut, axis)
        xs.append((a + a.T) / np.sqrt(2.0))
        ps.append(1j * (a.T - a) / np.sqrt(2.0))
    for matrix in xs + ps:
        matrix.flags.writeable = False
    return tuple(xs), tuple(ps), padded


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


def quadratic_hamiltonian(h_qq: np.ndarray, h_qp: np.ndarray, h_pp: np.ndarray,
                          config: DimConfig) -> FiberOperator:
    """Symmetrized quadratic fluctuation Hamiltonian

        (1/2) [ xi.Hqq.xi + xi.Hqp.p + p.Hqp^T.xi + p.Hpp.p ],  p = -i d/dxi,

    assembled from exact ladder-operator matrix elements.  ``h_qq`` and
    ``h_pp`` must be symmetric; the result is flagged hermitian.
    """
    n = config.n
    h_qq = np.atleast_2d(np.asarray(h_qq, dtype=float))
    h_qp = np.atleast_2d(np.asarray(h_qp, dtype=float))
    h_pp = np.atleast_2d(np.asarray(h_pp, dtype=float))
    for name, m in (("H_QQ", h_qq), ("H_QP", h_qp), ("H_PP", h_pp)):
        if m.shape != (n, n):
            raise InputError(f"{name} must be {n}x{n}")
    for name, m in (("H_QQ", h_qq), ("H_PP", h_pp)):
        if np.max(np.abs(m - m.T)) > 1e-12:
            raise InputError(f"{name} must be symmetric")
    xs, ps, padded = _padded_ops(config)
    acc = np.zeros((padded.dim, padded.dim), dtype=complex)
    for i in range(n):
        for j in range(n):
            if h_qq[i, j] != 0.0:
                acc += h_qq[i, j] * (xs[i] @ xs[j])
            if h_pp[i, j] != 0.0:
                acc += h_pp[i, j] * (ps[i] @ ps[j])
            if h_qp[i, j] != 0.0:
                acc += h_qp[i, j] * (xs[i] @ ps[j] + ps[j] @ xs[i])
    mat = _cut(0.5 * acc, config)
    mat = 0.5 * (mat + mat.conj().T)
    return FiberOperator(mat, config, hermitian=True)


def position_operator(config: DimConfig, axis: int = 0) -> FiberOperator:
    """Exact matrix of the fluctuation coordinate xi_axis."""
    xs, _, _ = _padded_ops(config, pad=1)
    return FiberOperator(_cut(xs[axis], config), config, hermitian=True)


def momentum_operator(config: DimConfig, axis: int = 0) -> FiberOperator:
    """Exact matrix of -i d/dxi_axis."""
    _, ps, _ = _padded_ops(config, pad=1)
    return FiberOperator(_cut(ps[axis], config), config, hermitian=True)


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


def edge_mask(config: DimConfig, width: int = 2) -> np.ndarray:
    """Boolean mask of truncation-edge basis states (degree within ``width``
    of the cut); edge-polluted components are excluded by spectral tests."""
    return config.degrees() >= config.n_cut - width
