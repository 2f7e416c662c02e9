"""Matrix Lie groups and algebras.

A :class:`LieGroup` is a faithful matrix representation together with a fixed
algebra basis ``B_1..B_n``.  Everything downstream (orbit lattices, generator
exponentiation, Garding smoothing) works in the second-kind canonical chart

    g = exp(B_1 t_1) exp(B_2 t_2) ... exp(B_n t_n),

which is defined locally around the identity.  Every group gives that chart
and its exponential in closed form (I + X + X^2/2 for the unipotent groups,
whose algebras have X^3 = 0, and a rotation for so2); ``factorize_second_kind``
refuses elements outside the registered domain radius instead of
extrapolating.

All values are immutable; operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ClosureError, InputError, OutOfDomainError

__all__ = [
    "AlgebraElement",
    "GroupElement",
    "LieGroup",
    "exp",
    "bracket",
    "adjoint",
    "factorize_second_kind",
    "get_group",
    "builtin_group_ids",
    "scaled_square_radius",
    "smooth_bump",
    "left_translate",
    "as_matrix",
]

_EXPAND_TOL = 1e-10
_FACTORIZE_TOL = 1e-9


@dataclass(frozen=True)
class AlgebraElement:
    """Element ``sum_k coords_k B_k`` of a Lie algebra."""

    group: "LieGroup"
    coords: np.ndarray
    matrix: np.ndarray

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same(other)
        return AlgebraElement(self.group, self.coords + other.coords,
                              self.matrix + other.matrix)

    def _check_same(self, other: "AlgebraElement") -> None:
        if other.group is not self.group:
            raise InputError("algebra elements belong to different groups")


@dataclass(frozen=True)
class GroupElement:
    """Point on the group manifold in the faithful representation."""

    group: "LieGroup"
    matrix: np.ndarray

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if other.group is not self.group:
            raise InputError("group elements belong to different groups")
        return GroupElement(self.group, self.matrix @ other.matrix)


class LieGroup:
    """A matrix Lie group with a fixed algebra basis.

    Parameters
    ----------
    group_id : str
        Registry key.
    basis : array (n, d, d)
        Algebra basis in the faithful representation.
    factorization_radius : float
        Sup-norm radius of the second-kind chart in which factorization is
        trusted.
    residual_fn : callable
        Manifold membership residual of one matrix.
    coords_fn : callable
        Closed-form second-kind chart on stacks of matrices (..., d, d) ->
        (..., n), serving one matrix and a stack alike.
    exp_fn : callable
        Closed-form exponential of one algebra matrix (d, d) -> (d, d).
    periodic_axes : dict, optional
        Maps coordinate axis index to its period (e.g. the rotation angle).
    """

    def __init__(self, group_id: str, basis: np.ndarray, factorization_radius: float,
                 residual_fn: Callable[[np.ndarray], float],
                 coords_fn: Callable[[np.ndarray], np.ndarray],
                 exp_fn: Callable[[np.ndarray], np.ndarray],
                 periodic_axes: Optional[dict] = None):
        basis = np.asarray(basis)
        if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
            raise InputError("basis must be a stack of square matrices")
        self.group_id = group_id
        self.basis = basis
        self.dim = basis.shape[0]
        self.rep_dim = basis.shape[1]
        self.factorization_radius = float(factorization_radius)
        self.periodic_axes = dict(periodic_axes or {})
        self._residual_fn = residual_fn
        self._coords_fn = coords_fn
        self._exp_fn = exp_fn
        # Pseudo-inverse of the basis-expansion map, real and imaginary parts
        # stacked so coordinates stay real.
        cols = basis.reshape(self.dim, -1).T
        self._expand_mat = np.vstack([cols.real, cols.imag])
        self._expand_pinv = np.linalg.pinv(self._expand_mat)

    # -- construction ------------------------------------------------------

    def identity(self) -> GroupElement:
        return GroupElement(self, np.eye(self.rep_dim, dtype=self.basis.dtype))

    def algebra(self, coords: Sequence[float]) -> AlgebraElement:
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.dim,):
            raise InputError(f"expected {self.dim} coordinates, got {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise InputError("non-finite algebra coordinates")
        matrix = np.tensordot(coords, self.basis, axes=(0, 0))
        return AlgebraElement(self, coords, matrix)

    def element(self, matrix: np.ndarray) -> GroupElement:
        matrix = np.asarray(matrix)
        if matrix.shape != (self.rep_dim, self.rep_dim):
            raise InputError("matrix has wrong shape for this group")
        res = self.manifold_residual(matrix)
        if not res <= _EXPAND_TOL:
            raise InputError(
                f"matrix is off the {self.group_id} manifold (residual {res:.3e})")
        return GroupElement(self, matrix)

    # -- structure ---------------------------------------------------------

    def expand_in_basis(self, matrix: np.ndarray) -> np.ndarray:
        """Real coordinates of ``matrix`` in the algebra basis.

        Raises :class:`ClosureError` when the residual exceeds 1e-10 (the
        basis does not span the result).
        """
        vec = np.concatenate([matrix.real.ravel(), matrix.imag.ravel()])
        coords = self._expand_pinv @ vec
        residual = np.linalg.norm(self._expand_mat @ coords - vec)
        if not residual <= _EXPAND_TOL:
            raise ClosureError(
                f"matrix does not expand in the {self.group_id} basis "
                f"(residual {residual:.3e})")
        return coords

    def manifold_residual(self, matrix: np.ndarray) -> float:
        return float(self._residual_fn(matrix))

    def exp_matrix(self, X: np.ndarray) -> np.ndarray:
        """Matrix exponential of the algebra matrix ``X``, in closed form."""
        return self._exp_fn(np.asarray(X))

    def compose_exps(self, t: Sequence[float]) -> np.ndarray:
        """Matrix of ``exp(B_1 t_1) ... exp(B_n t_n)``."""
        t = np.asarray(t, dtype=float)
        out = np.eye(self.rep_dim)
        for k in range(self.dim):
            out = out @ self.exp_matrix(t[k] * self.basis[k])
        return out

    def factorize_matrix(self, matrix: np.ndarray) -> np.ndarray:
        t = np.array(self._coords_fn(np.asarray(matrix)), dtype=float)
        if np.max(np.abs(t)) > self.factorization_radius + 1e-12:
            raise OutOfDomainError(
                f"{self.group_id}: coordinates {t} outside factorization radius "
                f"{self.factorization_radius}")
        return t

    def coords_batch(self, mats: np.ndarray) -> np.ndarray:
        """Second-kind coordinates of a stack of group matrices (J, d, d) ->
        (J, n), or of one matrix (d, d) -> (n,); unlike
        :meth:`factorize_matrix`, it checks no domain."""
        return self._coords_fn(np.asarray(mats))

    def left_density(self, t: np.ndarray) -> float:
        """Left-invariant Haar density in the second-kind chart at ``t``."""
        exps = [self.exp_matrix(t[k] * self.basis[k]) for k in range(self.dim)]
        cols = np.empty((self.dim, self.dim))
        tail = np.eye(self.rep_dim, dtype=complex)  # E_{k+1} ... E_n
        for k in range(self.dim - 1, -1, -1):
            ad = np.linalg.inv(tail) @ self.basis[k] @ tail
            cols[:, k] = self.expand_in_basis(ad)
            tail = exps[k] @ tail
        return float(abs(np.linalg.det(cols)))


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------

def exp(A: AlgebraElement, t: float = 1.0) -> GroupElement:
    """Group exponential ``exp(t A)`` in the faithful representation, by the
    group's closed form (``LieGroup.exp_matrix``)."""
    if not np.isfinite(t):
        raise InputError("non-finite exponential parameter")
    if not np.all(np.isfinite(A.matrix)):
        raise InputError("non-finite algebra matrix")
    return GroupElement(A.group, A.group.exp_matrix(float(t) * A.matrix))


def bracket(A: AlgebraElement, B: AlgebraElement) -> AlgebraElement:
    """Commutator ``AB - BA`` re-expanded in the registered basis."""
    A._check_same(B)
    comm = A.matrix @ B.matrix - B.matrix @ A.matrix
    coords = A.group.expand_in_basis(comm)
    return AlgebraElement(A.group, coords, comm)


def adjoint(h: GroupElement, A: AlgebraElement) -> AlgebraElement:
    """Adjoint action ``h A h^{-1}`` re-expanded in the registered basis."""
    if h.group is not A.group:
        raise InputError("group element and algebra element belong to different groups")
    mat = h.matrix @ A.matrix @ np.linalg.inv(h.matrix)
    coords = h.group.expand_in_basis(mat)
    return AlgebraElement(h.group, coords, mat)


def factorize_second_kind(g: GroupElement) -> np.ndarray:
    """Coordinates ``(t_1..t_n)`` with ``exp(B_1 t_1)...exp(B_n t_n) = g``."""
    t = g.group.factorize_matrix(g.matrix)
    residual = np.linalg.norm(g.group.compose_exps(t) - g.matrix)
    if not residual <= _FACTORIZE_TOL:
        raise OutOfDomainError(
            f"{g.group.group_id}: factorization residual {residual:.3e} exceeds "
            f"{_FACTORIZE_TOL}")
    return t


def scaled_square_radius(t: np.ndarray, scale) -> np.ndarray:
    """``sum_i (t_i / scale_i)^2`` over the last axis, added column by column."""
    q = (np.asarray(t) / scale) ** 2
    return sum(q[..., i] for i in range(q.shape[-1]))


def smooth_bump(r2: np.ndarray) -> np.ndarray:
    """Standard C-infinity bump ``exp(1 - 1/(1 - r^2))`` of the scaled square
    radius ``r2`` (:func:`scaled_square_radius`), zero outside r^2 < 1."""
    out = np.zeros(np.shape(r2))
    inside = r2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    return out


def as_matrix(g) -> np.ndarray:
    """The matrix of a GroupElement, or ``g`` itself as an array."""
    return g.matrix if isinstance(g, GroupElement) else np.asarray(g)


def left_translate(g: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Left translates ``g @ m`` of a stack of matrices (J, d, d).

    Sums the inner index in order from zero, one pass along the stack per
    term on the (d, d, J) view, so on the real matrices of every built-in
    group each entry rounds exactly as ``np.einsum("ab,jbc->jac", g, mats)``
    does, signed zeros included; ``g @ mats`` rounds differently and would
    move report residuals in their last digits.  The result is a (J, d, d)
    view of a C-contiguous (d, d, J) array, stored plane by plane as
    ``OrbitSampling.group_mats`` is, so each term reads contiguous planes
    of such an input.
    """
    g, m = np.asarray(g), np.asarray(mats).transpose(1, 2, 0)
    return sum(g[:, b, None, None] * m[b] for b in range(g.shape[1])).transpose(2, 0, 1)


# ---------------------------------------------------------------------------
# Built-in catalog
# ---------------------------------------------------------------------------

def _unipotent_exp(X: np.ndarray) -> np.ndarray:
    """``I + X + X^2/2``: the whole series, since X^3 = 0 for a strictly
    upper-triangular X of size 3 or less."""
    return np.eye(X.shape[0]) + X + 0.5 * (X @ X)


def _unipotent_residual(pattern: np.ndarray) -> Callable[[np.ndarray], float]:
    """Residual for upper-triangular unit-diagonal groups: off-pattern
    entries must match the identity matrix."""
    def fn(matrix: np.ndarray) -> float:
        eye = np.eye(matrix.shape[0])
        return float(np.linalg.norm((matrix - eye) * (1.0 - pattern)))
    return fn


def _make_real_line() -> LieGroup:
    basis = np.zeros((1, 2, 2))
    basis[0, 0, 1] = 1.0
    pattern = np.zeros((2, 2))
    pattern[0, 1] = 1.0
    return LieGroup(
        "real_line", basis, factorization_radius=np.inf,
        residual_fn=_unipotent_residual(pattern),
        coords_fn=lambda ms: ms[..., 0, 1, None].real,
        exp_fn=_unipotent_exp,
    )


def _make_translations_r2() -> LieGroup:
    basis = np.zeros((2, 3, 3))
    basis[0, 0, 2] = 1.0
    basis[1, 1, 2] = 1.0
    pattern = np.zeros((3, 3))
    pattern[0, 2] = pattern[1, 2] = 1.0
    return LieGroup(
        "translations_r2", basis, factorization_radius=np.inf,
        residual_fn=_unipotent_residual(pattern),
        coords_fn=lambda ms: np.stack([ms[..., 0, 2].real, ms[..., 1, 2].real], axis=-1),
        exp_fn=_unipotent_exp,
    )


def _heisenberg_coords(ms: np.ndarray) -> np.ndarray:
    a, b, c = ms[..., 0, 1].real, ms[..., 1, 2].real, ms[..., 0, 2].real
    return np.stack([a, b, c - a * b], axis=-1)


def _make_heisenberg() -> LieGroup:
    basis = np.zeros((3, 3, 3))
    basis[0, 0, 1] = 1.0   # shift generator (position direction)
    basis[1, 1, 2] = 1.0   # shift generator (momentum direction)
    basis[2, 0, 2] = 1.0   # central element
    pattern = np.zeros((3, 3))
    pattern[0, 1] = pattern[1, 2] = pattern[0, 2] = 1.0
    return LieGroup(
        "heisenberg", basis, factorization_radius=np.inf,
        residual_fn=_unipotent_residual(pattern),
        coords_fn=_heisenberg_coords,
        exp_fn=_unipotent_exp,
    )


def _so2_residual(matrix: np.ndarray) -> float:
    return float(np.linalg.norm(matrix.T @ matrix - np.eye(2))
                 + abs(np.linalg.det(matrix) - 1.0)
                 + np.linalg.norm(np.asarray(matrix).imag))


def _so2_exp(X: np.ndarray) -> np.ndarray:
    """Rotation by the angle ``X[1, 0]``."""
    c, s = np.cos(X[1, 0]), np.sin(X[1, 0])
    return np.array([[c, -s], [s, c]])


def _make_so2() -> LieGroup:
    basis = np.zeros((1, 2, 2))
    basis[0, 0, 1] = -1.0
    basis[0, 1, 0] = 1.0
    return LieGroup(
        "so2", basis, factorization_radius=np.pi,
        residual_fn=_so2_residual,
        coords_fn=lambda ms: np.arctan2(ms[..., 1, 0, None].real,
                                        ms[..., 0, 0, None].real),
        exp_fn=_so2_exp,
        periodic_axes={0: 2 * np.pi},
    )


_BUILTINS = {g.group_id: g for g in (
    _make_real_line(), _make_translations_r2(), _make_heisenberg(), _make_so2())}


def get_group(group_id: str) -> LieGroup:
    try:
        return _BUILTINS[group_id]
    except KeyError:
        raise InputError(f"unknown group {group_id!r}") from None


def builtin_group_ids() -> tuple:
    return tuple(sorted(_BUILTINS))
