"""Rebuilding group actions from their infinitesimal generators.

Each basis direction's Cauchy problem is solved by characteristics on a
field-backed section: one ``sections.pulled_field`` pulls the field back
along the base flow exp(-t B_k) and rotates it by the direction's
one-parameter unitary ``GeneratorData.unitary(t)`` (constant over the
base).  Every group matrix here, flows and matrix words alike, comes from
the group's closed-form exponential ``LieGroup.exp_matrix``.  Lattice-only
sections are refused.  Group elements are factorized in second-kind
canonical coordinates, always through the checked
``groups.factorize_second_kind``, and every word of one-parameter steps is
applied by one loop.  The generator of the reconstructed action is
``sections.central_difference`` of the reconstructed one-parameter family;
word identities, conjugation covariance, and the group law quantify how
faithfully the reconstruction matches the original action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .actions import GeneratorFamily
from .errors import (AlignmentError, InputError, NumericalError,
                     PreconditionError)
from .groups import GroupElement, as_matrix, factorize_second_kind, left_translate
from .sections import Section, central_difference, pulled_field

__all__ = [
    "exponentiate_generator",
    "reconstruct_group_operator",
    "family_generator_apply",
    "family_generator_direct",
    "word_identity_check",
    "WordCheck",
    "conjugation_check",
    "group_law_verify",
    "GroupLawReport",
]


def exponentiate_generator(family: GeneratorFamily, k: int, t: float,
                           psi0: Section) -> Section:
    """Solve the one-parameter Cauchy problem along basis direction ``k``:
    transport the field along the base flow of B_k and rotate it by
    exp(-i t H(B_k)) (``GeneratorData.unitary``), returning the section at
    parameter ``t``; the pull reads only the section's live modes.
    Requires a field-backed section."""
    if not 0 <= k < family.group.dim:
        raise InputError("basis index out of range")
    if not np.isfinite(t):
        raise InputError("non-finite flow parameter")
    if psi0.field is None:
        raise AlignmentError(
            "generator exponentiation needs a field-backed section")
    if t == 0.0:
        return psi0
    pull = family.group.exp_matrix(-t * family.group.basis[k])
    T = family.directions[k].unitary(t)
    out = Section.from_field(psi0.sampling, pulled_field(psi0.live_field, pull, T))
    if not np.all(np.isfinite(out.values)):
        raise NumericalError("generator exponentiation blew up")
    return out


def _apply_word(family: GeneratorFamily, word: Sequence, psi: Section) -> Section:
    """Apply a word of one-parameter steps ``(basis index, parameter)``,
    rightmost step first; zero steps are skipped."""
    out = psi
    for k, t in reversed(word):
        if t != 0.0:
            out = exponentiate_generator(family, k, t, out)
    return out


def reconstruct_group_operator(family: GeneratorFamily, g, psi: Section) -> Section:
    """Apply the reconstructed operator of ``g`` (a GroupElement or a
    matrix) through its checked second-kind factorization, rightmost
    one-parameter factor first."""
    t = factorize_second_kind(GroupElement(family.group, as_matrix(g)))
    return _apply_word(family, [(k, float(t_k)) for k, t_k in enumerate(t)], psi)


def family_generator_apply(family: GeneratorFamily, A_coords: np.ndarray,
                           psi: Section, tau: float) -> Section:
    """Finite-difference generator of the *reconstructed* action along
    A = sum_k coords_k B_k: i times the central difference of
    t -> (reconstructed operator of exp(tA)) psi."""
    gen = np.tensordot(np.asarray(A_coords, dtype=float), family.group.basis,
                       axes=(0, 0))
    return 1j * central_difference(
        lambda t: reconstruct_group_operator(family, family.group.exp_matrix(t * gen), psi),
        tau)


def family_generator_direct(family: GeneratorFamily, A_coords: np.ndarray,
                            psi: Section, tau: float) -> Section:
    """The generator evaluated from its split form H(A) - i d[A]: the fiber
    Hamiltonian acts pointwise and the base derivation is the central
    difference of the section's field along the flow (no fiber
    transport)."""
    if psi.field is None:
        raise AlignmentError("direct generator needs a field-backed section")
    A_coords = np.asarray(A_coords, dtype=float)
    gen_mat = np.tensordot(A_coords, family.group.basis, axes=(0, 0))
    # d[A] psi at u_h: d/ds psi(u_{exp(A s)} u_h) at s = 0
    mats = psi.sampling.group_mats
    base_term = central_difference(
        lambda s: psi.field(left_translate(family.group.exp_matrix(s * gen_mat), mats)), tau)
    H = family.combination_hamiltonian(A_coords)
    return Section(psi.sampling, psi.values @ H.T - 1j * base_term)


# ---------------------------------------------------------------------------
# word identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WordCheck:
    residual: float
    lemma_mode: bool


_WORD_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
_WORD_MATRIX_TOL = 1e-10


def word_identity_check(family: GeneratorFamily, word: Sequence,
                        probes: Sequence[Section]) -> WordCheck:
    """Check that a word of one-parameter steps acts as the identity.

    ``word`` is a list of ``(basis index, path)`` pairs where ``path`` is a
    smooth function of the deformation parameter with path(0) = 0 (a bare
    float t means the linear path t * alpha).  The matrix word must equal the
    identity at alpha = 1 (hard precondition, else the check is vacuous).
    When it closes at every sampled alpha the deformation hypothesis holds
    (``lemma_mode``) and the residual is measured at every alpha (0, 1/4,
    1/2, 3/4, 1; "closes" means within 1e-10 of the identity); otherwise
    only the closing endpoints are measured -- that is the projective-anomaly
    probe, where the operator word may legitimately differ from 1.
    """
    group = family.group
    paths = [(int(k), path if callable(path) else (lambda a, t=float(path): t * a))
             for k, path in word]

    def steps(a: float) -> list:
        return [(k, float(path(a))) for k, path in paths]

    def word_matrix(a: float) -> np.ndarray:
        m = np.eye(group.rep_dim, dtype=complex if np.iscomplexobj(group.basis) else float)
        for k, t in steps(a):
            m = m @ group.exp_matrix(t * group.basis[k])
        return m

    eye = np.eye(group.rep_dim)
    end_defect = float(np.linalg.norm(word_matrix(1.0) - eye))
    if end_defect > _WORD_MATRIX_TOL:
        raise PreconditionError(
            f"matrix word is not the identity at alpha=1 (defect {end_defect:.3e})")
    closing = [a for a in _WORD_ALPHAS
               if np.linalg.norm(word_matrix(a) - eye) <= _WORD_MATRIX_TOL]
    lemma_mode = len(closing) == len(_WORD_ALPHAS)

    worst = 0.0
    for a in closing:
        for psi in probes:
            worst = max(worst, (_apply_word(family, steps(a), psi) - psi).norm)
    return WordCheck(worst, lemma_mode)


# ---------------------------------------------------------------------------
# conjugation and group law
# ---------------------------------------------------------------------------

def conjugation_check(family: GeneratorFamily, k: int, t: float,
                      A_coords: np.ndarray, psi: Section, tau: float) -> float:
    """Residual of  U^{-t}_{B_k} H(A) U^t_{B_k} psi = H(Ad_{exp(-B_k t)} A) psi
    with generators taken by central differences at fd step ``tau``."""
    group = family.group
    A_coords = np.asarray(A_coords, dtype=float)
    gen = np.tensordot(A_coords, group.basis, axes=(0, 0))
    h_inv = group.exp_matrix(-t * group.basis[k])
    adjoint_coords = group.expand_in_basis(h_inv @ gen @ np.linalg.inv(h_inv))
    inner = exponentiate_generator(family, k, t, psi)
    mid = family_generator_apply(family, A_coords, inner, tau)
    lhs = exponentiate_generator(family, k, -t, mid)
    rhs = family_generator_apply(family, adjoint_coords, psi, tau)
    return (lhs - rhs).norm


@dataclass(frozen=True)
class GroupLawReport:
    composition_residual: float
    generator_residual: float


def group_law_verify(family: GeneratorFamily, g1, g2, psi: Section,
                     tau: float = 1e-3) -> GroupLawReport:
    """Composition residual of the reconstructed operators together with the
    closure of their derivative: the fd generator of the reconstructed action
    per basis direction against the family's split form, relative to its
    size."""
    m1, m2 = as_matrix(g1), as_matrix(g2)
    two_step = reconstruct_group_operator(
        family, m1, reconstruct_group_operator(family, m2, psi))
    one_step = reconstruct_group_operator(family, m1 @ m2, psi)
    comp = (two_step - one_step).norm

    worst = 0.0
    for k in range(family.group.dim):
        coords = np.eye(family.group.dim)[k]
        fd = family_generator_apply(family, coords, psi, tau)
        direct = family_generator_direct(family, coords, psi, tau)
        scale = max(direct.norm, 1e-12)
        worst = max(worst, (fd - direct).norm / scale)
    return GroupLawReport(comp, worst)
