"""Rebuilding group actions from their infinitesimal generators.

Each basis direction's Cauchy problem is solved by characteristics on a
field-backed section: one ``sections.pulled_field`` pulls the field back
along the base flow exp(-t B_k) and rotates it by the direction's
one-parameter unitary ``GeneratorData.unitary(t)`` (constant over the
base).  Every group matrix here, flows and matrix words alike, comes from
the group's closed-form exponential ``LieGroup.exp_matrix``.  Lattice-only
sections are refused.  Group elements are factorized in second-kind
canonical coordinates, always through the checked
``groups.factorize_second_kind``.  A word of one-parameter steps composes
one pulled field per nonzero step and is evaluated once, as one section at
the end.  The generator of the reconstructed action is
``generators.generator_field`` with the reconstructed operators as its
transform; word identities, conjugation covariance, and the group law
quantify how faithfully the reconstruction matches the original action.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from .actions import GeneratorFamily
from .errors import (AlignmentError, InputError, NumericalError,
                     PreconditionError)
from .generators import base_derivative, generator_field
from .groups import (AlgebraElement, GroupElement, adjoint, as_matrix,
                     factorize_second_kind)
from .sections import Section, pulled_field

__all__ = [
    "exponentiate_generator",
    "reconstruct_group_operator",
    "family_generator_apply",
    "family_generator_direct",
    "word_identity_check",
    "conjugation_check",
    "group_law_verify",
]


def _check_steps(group, word: Sequence) -> None:
    """Raise InputError unless every step ``(basis index, parameter)`` of
    the word names a basis direction (an integer in [0, dim)) and a finite
    parameter."""
    for k, t in word:
        if not (isinstance(k, (int, np.integer)) and 0 <= k < group.dim):
            raise InputError(f"basis index {k!r} is not an integer in [0, {group.dim})")
        if not np.isfinite(t):
            raise InputError("non-finite flow parameter")


def _word_field(family: GeneratorFamily, word: Sequence, field):
    """``field`` moved by a word of one-parameter steps ``(basis index,
    parameter)``, rightmost first: one pulled field per nonzero step, and
    ``field`` itself when none applies.  A missing field and a step that
    :func:`_check_steps` refuses are refused before any step is taken."""
    if field is None:
        raise AlignmentError("reconstruction needs a field-backed section")
    group = family.group
    _check_steps(group, word)
    for k, t in reversed(word):
        if t != 0.0:
            field = pulled_field(field, group.exp_matrix(-t * group.basis[k]),
                                 family.directions[k].unitary(t))
    return field


def _apply_word(family: GeneratorFamily, word: Sequence, psi: Section) -> Section:
    """The section of :func:`_word_field` on psi's live field, built once;
    ``psi`` itself when no step applies."""
    field = _word_field(family, word, psi.live_field)
    if field is psi.live_field:
        return psi
    out = Section.from_field(psi.sampling, field)
    if not np.all(np.isfinite(out.values)):
        raise NumericalError("generator exponentiation blew up")
    return out


def _factors(family: GeneratorFamily, g) -> list:
    """The word of ``g``'s checked second-kind factorization."""
    t = factorize_second_kind(GroupElement(family.group, as_matrix(g)))
    return [(k, float(t_k)) for k, t_k in enumerate(t)]


def _reconstructed_field(family: GeneratorFamily, g, field):
    """The field moved by the reconstructed operator of ``g``."""
    return _word_field(family, _factors(family, g), field)


def exponentiate_generator(family: GeneratorFamily, k: int, t: float,
                           psi0: Section) -> Section:
    """Solve the one-parameter Cauchy problem along basis direction ``k``:
    the one-step word (k, t), returning the section at parameter ``t``.
    Requires a field-backed section."""
    return _apply_word(family, [(k, t)], psi0)


def reconstruct_group_operator(family: GeneratorFamily, g, psi: Section) -> Section:
    """Apply the reconstructed operator of ``g`` (a GroupElement or a
    matrix) through its checked second-kind factorization, rightmost
    one-parameter factor first."""
    return _apply_word(family, _factors(family, g), psi)


def family_generator_apply(family: GeneratorFamily, A: AlgebraElement,
                           psi: Section, tau: float) -> Section:
    """Finite-difference generator of the *reconstructed* action along A:
    i times the central difference of t -> (reconstructed operator of
    exp(tA)) psi, one section of ``generators.generator_field``."""
    return Section.from_field(psi.sampling, generator_field(
        A, psi.live_field, partial(_reconstructed_field, family), tau))


def family_generator_direct(family: GeneratorFamily, A: AlgebraElement,
                            psi: Section, tau: float) -> Section:
    """The generator evaluated from its split form H(A) - i d[A]: the fiber
    Hamiltonian acts pointwise, d[A] is ``generators.base_derivative`` of
    the section's field (no fiber transport)."""
    H = family.combination_hamiltonian(A.coords)
    return Section(psi.sampling, psi.values @ H.T
                   - 1j * base_derivative(A, psi.field, psi.sampling, tau))


# ---------------------------------------------------------------------------
# word identities
# ---------------------------------------------------------------------------

_WORD_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
_WORD_MATRIX_TOL = 1e-10


def word_identity_check(family: GeneratorFamily, word: Sequence,
                        probes: Sequence[Section]) -> float:
    """The residual of a word of one-parameter steps acting as the
    identity: the largest sup-norm of (word - 1) psi over the probes and the
    measured alphas.

    ``word`` is a list of ``(basis index, path)`` pairs where ``path`` is a
    smooth function of the deformation parameter with path(0) = 0 (a bare
    float t means the linear path t * alpha).  Every step at every sampled
    alpha must name a basis direction and give a finite parameter
    (InputError, before any matrix is built).  The matrix word must equal the
    identity at alpha = 1 (hard precondition, else the check is vacuous).
    The residual is measured at each sampled alpha (0, 1/4, 1/2, 3/4, 1) at
    which the matrix word closes (is within 1e-10 of the identity): at every
    alpha when the deformation hypothesis holds, and otherwise only at the
    closing ones -- that is the projective-anomaly probe, where the operator
    word may legitimately differ from 1.
    """
    group = family.group
    paths = [(k, path if callable(path) else (lambda a, t=float(path): t * a))
             for k, path in word]
    steps = {a: [(k, float(path(a))) for k, path in paths] for a in _WORD_ALPHAS}
    for sampled in steps.values():
        _check_steps(group, sampled)

    def word_matrix(a: float) -> np.ndarray:
        m = np.eye(group.rep_dim, dtype=complex if np.iscomplexobj(group.basis) else float)
        for k, t in steps[a]:
            m = m @ group.exp_matrix(t * group.basis[k])
        return m

    eye = np.eye(group.rep_dim)
    end_defect = float(np.linalg.norm(word_matrix(1.0) - eye))
    if end_defect > _WORD_MATRIX_TOL:
        raise PreconditionError(
            f"matrix word is not the identity at alpha=1 (defect {end_defect:.3e})")
    closing = [a for a in _WORD_ALPHAS
               if np.linalg.norm(word_matrix(a) - eye) <= _WORD_MATRIX_TOL]

    worst = 0.0
    for a in closing:
        for psi in probes:
            worst = max(worst, (_apply_word(family, steps[a], psi) - psi).norm)
    return worst


# ---------------------------------------------------------------------------
# conjugation and group law
# ---------------------------------------------------------------------------

def conjugation_check(family: GeneratorFamily, k: int, t: float,
                      A: AlgebraElement, psi: Section, tau: float) -> float:
    """Residual of  U^{-t}_{B_k} H(A) U^t_{B_k} psi = H(Ad_{exp(-B_k t)} A) psi
    with generators taken by central differences at fd step ``tau``.  The
    left side composes field maps and builds one section."""
    group = family.group
    inner = _word_field(family, [(k, t)], psi.live_field)
    h_inv = GroupElement(group, group.exp_matrix(-t * group.basis[k]))
    generated = generator_field(A, inner, partial(_reconstructed_field, family), tau)
    lhs = Section.from_field(psi.sampling, _word_field(family, [(k, -t)], generated))
    rhs = family_generator_apply(
        family, group.algebra(adjoint(h_inv, A).coords), psi, tau)
    return (lhs - rhs).norm


def group_law_verify(family: GeneratorFamily, g1, g2, psi: Section,
                     tau: float) -> tuple:
    """``(composition, closure)``: the composition residual of the
    reconstructed operators, and the worst, over basis directions, of the fd
    generator at step ``tau`` of the reconstructed action against the
    family's split form, relative to its size."""
    m1, m2 = as_matrix(g1), as_matrix(g2)
    two_step = reconstruct_group_operator(
        family, m1, reconstruct_group_operator(family, m2, psi))
    one_step = reconstruct_group_operator(family, m1 @ m2, psi)
    comp = (two_step - one_step).norm

    worst = 0.0
    for k in range(family.group.dim):
        A = family.group.algebra(np.eye(family.group.dim)[k])
        fd = family_generator_apply(family, A, psi, tau)
        direct = family_generator_direct(family, A, psi, tau)
        scale = max(direct.norm, 1e-12)
        worst = max(worst, (fd - direct).norm / scale)
    return comp, worst
