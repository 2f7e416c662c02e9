"""Infinitesimal generators of section transforms.

The generator along A is i times ``sections.central_difference`` of the
one-parameter transform family t -> U_{exp(tA)} psi, each member
re-evaluated from the section's field (never by interpolating lattice
values), after Garding smoothing against a compactly supported kernel
summed over lattice-aligned group nodes.  It is written once, field first:
:func:`generator_field` differences the moved fields ``transform(exp(tA),
field)`` as one field map, built at the steps the stencil asks for, and a
section is built only where its values are read.  The action's transform is
``partial(sections.transformed_field, action)``; ``reconstruction`` passes
its reconstructed operators.  Every fd step and kernel radius must be
finite and positive.  The base derivative d[A] is the same central
difference of any field on the left-translated sampling.  The identity
suite returns, at one fd step, a table of the residuals of linearity,
conjugation covariance, the commutator/structure-constant match, the
multiplication-operator commutator, and the pairing derivative (Eq. 21,
:func:`pairing_residual`, which also serves Axiom A2 on two probes); it is
given H(A) psi at its step and at twice it, applies H(B) psi once, and every
identity reads them.  A smoothed field memoises the point sets evaluated
outside an identity-suite table for the section's lifetime; a table reads
the memo and never stores in it.  This module judges nothing (tolerances
and refinement orders live in ``verify``).
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cache, partial
from typing import Optional

import numpy as np

from .actions import BundleAction
from .errors import AlignmentError, InputError
from .groups import (AlgebraElement, GroupElement, adjoint, bracket,
                     left_translate, scaled_square_radius, smooth_bump)
from .sections import (BaseFunction, OrbitSampling, Section,
                       central_difference, multiply, pairing, pulled_field,
                       transformed_field)

__all__ = [
    "SmoothingKernel",
    "lattice_kernel",
    "garding_smooth",
    "generator_field",
    "generator_apply",
    "base_derivative",
    "pairing_residual",
    "identity_suite",
]


@dataclass(frozen=True)
class SmoothingKernel:
    """Compactly supported smoothing weights on lattice-aligned group nodes.

    ``weights`` already fold the window value and the left-invariant Haar
    density into each node, so smoothing is a plain weighted sum.  The
    support is the set of ``node_steps``.
    """

    sampling: OrbitSampling
    node_steps: np.ndarray     # (K, n_axes) integer lattice steps
    node_mats: np.ndarray      # (K, d, d)
    weights: np.ndarray        # (K,)


def lattice_kernel(sampling: OrbitSampling, radius) -> SmoothingKernel:
    """Smoothing kernel on the sampling's own lattice: nodes are the lattice
    points inside the coordinate ball of the given per-axis ``radius``, with
    normalized Riemann weights (spacing volume x Haar density x the standard
    C-infinity bump on the ball).  The kernel support must fit inside the
    sampled window.  Raises InputError for a radius that is not finite and
    positive on every axis.
    """
    group = sampling.action.group
    radius = np.broadcast_to(np.asarray(radius, dtype=float), (group.dim,))
    if not np.all(np.isfinite(radius) & (radius > 0)):
        raise InputError(f"kernel radius {radius} is not finite and positive")
    steps_max = np.floor(radius / sampling.spacings).astype(int)
    for k, ax in enumerate(sampling.axes):
        if ax.kind == "line" and steps_max[k] > (ax.hi - ax.lo) // 2:
            raise InputError("kernel support exceeds the sampled lattice window")
    grids = np.meshgrid(*[np.arange(-m, m + 1) for m in steps_max], indexing="ij")
    steps = np.stack([g.ravel() for g in grids], axis=-1)
    coords = steps * sampling.spacings
    r2 = scaled_square_radius(coords, radius)
    inside = r2 < 1.0
    steps, coords, r2 = steps[inside], coords[inside], r2[inside]
    volume = float(np.prod(sampling.spacings))
    density = np.array([group.left_density(t) for t in coords])
    weights = volume * density * smooth_bump(r2)
    total = np.sum(weights)
    if total <= 0:
        raise InputError("kernel has nonpositive mass")
    weights = weights / total
    mats = np.array([group.compose_exps(t) for t in coords])
    return SmoothingKernel(sampling, steps, mats, weights)


def garding_smooth(kernel: SmoothingKernel, phi: Section,
                   action: BundleAction) -> Section:
    """Group-averaged section  Psi_X = sum_k w_k U_{g_k}(X <- .) Phi(g_k^-1 .).

    The smoothed section's field sums one ``sections.pulled_field`` per node
    (Phi's ``live_field`` pulled by g_k^-1, moved by the columns of
    w_k U_{g_k} that Phi can fill: one (n, modes) @ (modes, d) product
    each) over a batch of points and memoises the sum per point set as a
    read-only array, for the section's lifetime, unless it is evaluated
    inside an :func:`identity_suite` table: a table reads the memo (the
    lattice, the steps of H(A) psi, a pull) and never stores in it.  The
    smoothed section is full width.  Requires a field-backed section: a
    section without a field raises AlignmentError.
    """
    sampling = phi.sampling
    if kernel.sampling is not sampling:
        raise InputError("kernel was built for a different sampling")
    if phi.field is None:
        raise AlignmentError("Garding smoothing needs a field-backed section")
    nodes = [pulled_field(phi.live_field, np.linalg.inv(m),
                          w * action.fiber_matrix(m)[:, :phi.modes])
             for m, w in zip(kernel.node_mats, kernel.weights)]
    memo = {}

    def smoothed_field(mats):
        mats = np.asarray(mats)
        key = (mats.shape, mats.dtype.str,
               hashlib.blake2b(mats.tobytes(), digest_size=16).digest())
        out = memo.get(key)
        if out is None:
            out = np.zeros((mats.shape[0], sampling.fiber_dim), dtype=complex)
            for node in nodes:
                out += node(mats)
            out.flags.writeable = False
            if not _in_table.get():
                memo[key] = out
        return out

    return Section.from_field(sampling, smoothed_field)


# ---------------------------------------------------------------------------
# finite-difference generators
# ---------------------------------------------------------------------------

def _check_step(tau: float) -> None:
    """Raise InputError unless the fd step ``tau`` is finite and positive."""
    if not (np.isfinite(tau) and tau > 0):
        raise InputError(f"fd step {tau!r} is not finite and positive")


def generator_field(A: AlgebraElement, field, transform, tau: float):
    """The field map of the generator along A: mats -> i times the central
    difference at step ``tau`` of the moved fields ``transform(exp(tA),
    field)``, evaluated at ``mats`` (Eq. 16a); each is built and kept the
    first time the stencil asks for its step t.  ``field`` may give live
    modes only.  Raises InputError for a step that is not finite and
    positive and AlignmentError for a missing field, before any arithmetic."""
    _check_step(tau)
    if field is None:
        raise AlignmentError(
            "generator application needs a field-backed section "
            "(smooth the input first)")
    moved = cache(lambda t: transform(A.group.exp_matrix(t * A.matrix), field))
    return lambda mats: 1j * central_difference(lambda t: moved(t)(mats), tau)


def generator_apply(A: AlgebraElement, psi: Section, action: BundleAction,
                    tau: float) -> Section:
    """Apply the generator of the one-parameter transform family along A,
    i times the central difference at step ``tau`` of
    t -> U_{exp(tA)} psi (Eq. 16a): the section of
    :func:`generator_field` of the action's transform on psi's live field,
    whose block is its one evaluation on the samples (bit for bit the
    difference of the two transformed sections, block and field alike).

    Requires a field-backed (smoothed or closed-form) section: exp(+-tau A)
    is generically off-lattice and lattice values cannot be differenced
    without interpolation.
    """
    return Section.from_field(psi.sampling, generator_field(
        A, psi.live_field, partial(transformed_field, action), tau))


def base_derivative(A: AlgebraElement, field, sampling: OrbitSampling,
                    tau: float) -> np.ndarray:
    """d[A]: the directional derivative along the flow of A,
    d/dt field(exp(A t) h) at t = 0 for every sample h, by central
    differences of ``field`` on the left-translated sampling.  ``field``
    is any batch field over group matrices: a pairing's ``field``, a
    section's ``field``, or a base function on the orbit.  Raises
    InputError for a step that is not finite and positive and
    AlignmentError for a missing field."""
    _check_step(tau)
    if field is None:
        raise AlignmentError("base derivative needs a field to flow")
    mats = sampling.group_mats
    return central_difference(
        lambda t: field(left_translate(A.group.exp_matrix(t * A.matrix), mats)), tau)


def pairing_residual(A: AlgebraElement, phi: Section, psi: Section,
                     Hphi: Section, Hpsi: Section, tau: float) -> float:
    """Residual of Eq. (21) at fd step ``tau``, given H(A) phi and H(A) psi
    applied at that step: -i d[A]<phi, psi> = <phi, H(A) psi> -
    <H(A) phi, psi>, sup over the sampling."""
    d = base_derivative(A, pairing(phi, psi).field, psi.sampling, tau)
    rhs = pairing(phi, Hpsi).values - pairing(Hphi, psi).values
    return float(np.max(np.abs(-1j * d - rhs)))


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

# Set while an identity-suite table runs: smoothed fields read their memo
# and store no new point set: of the catalog's tables, only those of
# translations-r2 and oscillator-evolution reread any of their own.
_in_table: ContextVar = ContextVar("_in_table", default=False)


@contextmanager
def _table_scope():
    """Run the block with smoothed fields' memos read-only, and reset that on
    the way out, on every path."""
    token = _in_table.set(True)
    try:
        yield
    finally:
        _in_table.reset(token)


@_table_scope()
def identity_suite(A: AlgebraElement, B: AlgebraElement, alpha: BaseFunction,
                   psi: Section, HA: Section, HA2: Section, action: BundleAction,
                   tau: float, conjugator: Optional[GroupElement] = None) -> dict:
    """Residuals of the generator identities at fd step ``tau`` (name ->
    float), given ``HA`` and ``HA2`` = H(A) psi applied at ``tau`` and at
    2 ``tau`` (the caller's fd order reads both); H(B) psi is applied once,
    and all three are shared:

    linearity        H(A+B) = H(A) + H(B) and H(2A) = 2 H(A); H(2A) psi is
                     2 ``HA2`` to the bit, so the second term is twice the
                     fd difference the caller's order reads and cannot see
                     a linearity defect
    conjugation      U_h H(A) U_{h^-1} = H(h A h^-1)  (h = ``conjugator``,
                     present only when one is given)
    commutator       [H(A), H(B)] = i H([A; B])
    multiplication   i [H(A), v[alpha]] = v[d[A] alpha]
    pairing          -i d[A]<psi, psi> = <psi, H(A) psi> - <H(A) psi, psi>

    ``psi`` must be smooth (Garding-smoothed or closed-form field).  The
    conjugation's left side composes field maps (``transformed_field`` of
    the generator field of a transformed field) and builds one section, so
    only its own block is evaluated: neither U_{h^-1} psi nor the steps
    inside H(A) are sampled on their own.

    Garding-smoothed fields are read-only memos here: the table reads the
    point sets evaluated before it (psi's lattice, the steps of H(A) psi)
    and stores none of its own.
    """
    sampling = psi.sampling
    transform = partial(transformed_field, action)

    def H(X, phi):
        return generator_apply(X, phi, action, tau)

    HB = H(B, psi)
    out = {"linearity": max((H(A + B, psi) - (HA + HB)).norm, (2.0 * HA2 - 2.0 * HA).norm)}
    if conjugator is not None:
        inner = transform(np.linalg.inv(conjugator.matrix), psi.live_field)
        lhs = Section.from_field(sampling, transform(
            conjugator, generator_field(A, inner, transform, tau)))
        hAh = A.group.algebra(adjoint(conjugator, A).coords)
        # h A h^-1 = A to the bit when h commutes with A: reuse H(A) psi
        same = hAh.coords.tobytes() == A.coords.tobytes()
        out["conjugation"] = (lhs - (HA if same else H(hAh, psi))).norm
    out["commutator"] = ((H(A, HB) - H(B, HA)) - 1j * H(bracket(A, B), psi)).norm
    lhs = 1j * (H(A, multiply(alpha, psi)) - multiply(alpha, HA))
    dalpha = base_derivative(
        A, lambda mats: alpha.eval_rows(sampling.state_rows(mats)), sampling, tau)
    out["multiplication"] = (
        lhs - Section(sampling, dalpha[:, None] * psi.values)).norm
    out["pairing_derivative"] = pairing_residual(A, psi, psi, HA, HA, tau)
    return out
