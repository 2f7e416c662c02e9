"""Generator exponentiation, second-kind reconstruction, word identities,
conjugation covariance, and the group law."""

import numpy as np
import pytest

from scbundle import reconstruction
from scbundle.actions import (heisenberg_weyl_action, metaplectic_action,
                              oscillator_action, so2_rotor_action,
                              translations_r2_action)
from scbundle.dynamics import (classical_flow,
                               evolution_automorphism,
                               quadratic_hamiltonian_spec)
from scbundle.errors import AlignmentError, InputError, PreconditionError
from scbundle.groups import exp as gexp
from scbundle.reconstruction import (conjugation_check, exponentiate_generator,
                                     family_generator_apply,
                                     family_generator_direct, group_law_verify,
                                     reconstruct_group_operator,
                                     word_identity_check)
from scbundle.scenarios import SEED_ENV_VAR, load_scenario
from scbundle.sections import (LatticeAxis, OrbitSampling, Section,
                               delta_section, evaluator_transform,
                               gentle_probe_section, pairing,
                               smooth_probe_section)
from scbundle.verify import FD_TAU

H = 0.15


@pytest.fixture(scope="module")
def weyl():
    action, family = heisenberg_weyl_action(18)
    anchor = np.array([0.0, 0.4, -0.2])
    axes = [LatticeAxis.line(H, -4, 4), LatticeAxis.line(H, -4, 4),
            LatticeAxis.line(H * H, -12, 12)]
    sampling = OrbitSampling(action, anchor, axes)
    rng = np.random.default_rng(0)
    psi = gentle_probe_section(sampling, rng, max_degree=3,
                               sigma=[0.4, 0.4, 0.35])
    return action, family, sampling, psi


def circle_setup(builder, n_cut=14, nodes=48, seed=1):
    action, family = builder(n_cut)
    anchor = np.array([0.0, 0.0, 1.0])
    sampling = OrbitSampling(action, anchor, [LatticeAxis.cycle(2 * np.pi, nodes)])
    rng = np.random.default_rng(seed)
    psi = smooth_probe_section(sampling, rng, max_degree=4, radius=[2.5])
    return action, family, sampling, (1.0 / psi.norm) * psi


# ---------------------------------------------------------------------------
# one-parameter exponentiation
# ---------------------------------------------------------------------------

def test_exponentiate_zero_time(weyl):
    _, family, _, psi = weyl
    assert exponentiate_generator(family, 0, 0.0, psi) is psi


def test_norm_function_transport(weyl):
    # <Psi^t, Psi^t> at X equals <Psi^0, Psi^0> at u_{exp(-B_k t)} X
    _, family, sampling, psi = weyl
    t = 0.2
    k = 1
    moved = exponentiate_generator(family, k, t, psi)
    before = pairing(psi, psi)
    after = pairing(moved, moved)
    import scipy.linalg
    pull = scipy.linalg.expm(-t * family.group.basis[k])
    pulled_vals = before.field(
        np.einsum("ab,jbc->jac", pull, sampling.group_mats))
    assert np.max(np.abs(after.values - pulled_vals)) <= 1e-8


def test_semigroup_property(weyl):
    _, family, _, psi = weyl
    one = exponentiate_generator(family, 0, 0.17,
                                 exponentiate_generator(family, 0, 0.13, psi))
    two = exponentiate_generator(family, 0, 0.30, psi)
    assert (one - two).norm <= 1e-8


def test_zero_section_stays_zero(weyl):
    _, family, sampling, _ = weyl
    zero = Section.from_field(
        sampling, lambda mats: np.zeros((mats.shape[0], sampling.fiber_dim), dtype=complex))
    out = exponentiate_generator(family, 0, 0.3, zero)
    assert out.norm <= 1e-12


@pytest.mark.parametrize("k, t", [(3, 0.2), (-1, 0.2), (1.5, 0.2), (0, np.nan), (1, np.inf)])
def test_steps_must_name_a_basis_direction_and_a_finite_parameter(weyl, k, t):
    """Checked per step of every word, so the conjugation residual refuses
    them as exponentiation does."""
    _, family, _, psi = weyl
    A = family.group.algebra([1.0, 0.0, 0.0])
    with pytest.raises(InputError):
        exponentiate_generator(family, k, t, psi)
    with pytest.raises(InputError):
        conjugation_check(family, k, t, A, psi, 1e-3)


def test_lattice_only_sections_are_refused(weyl):
    # a unit value at the identity and lattice-aligned parameters: the moved
    # support stays on the lattice and inside the window, yet a section
    # without a field is not transported, not even by a word with no step
    _, family, sampling, _ = weyl
    lattice_only = delta_section(sampling, sampling.identity_index(),
                                 np.eye(sampling.fiber_dim)[0])
    group = family.group
    for t in (H, 0.0):
        with pytest.raises(AlignmentError):
            exponentiate_generator(family, 0, t, lattice_only)
    for g in (group.element(group.compose_exps([H, -H, 2 * H * H])), group.identity()):
        with pytest.raises(AlignmentError):
            reconstruct_group_operator(family, g, lattice_only)


def test_reconstructed_operator_isometry(weyl):
    # lattice-aligned coordinates, so the window max tracks the true
    # sup-norm exactly (off-lattice isometry is covered pointwise by the
    # norm-transport test above)
    _, family, sampling, psi = weyl
    group = family.group
    g = group.element(group.compose_exps([H, -H, 2 * H * H]))
    out = reconstruct_group_operator(family, g, psi)
    assert abs(out.norm - psi.norm) <= 1e-8


# ---------------------------------------------------------------------------
# reconstruction against the closed-form action
# ---------------------------------------------------------------------------

def test_reconstruct_identity(weyl):
    _, family, _, psi = weyl
    out = reconstruct_group_operator(family, family.group.identity(), psi)
    assert np.max(np.abs(out.values - psi.values)) <= 1e-12


def test_reconstruct_matches_weyl_oracle(weyl):
    action, family, _, psi = weyl
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        g = gexp(action.group.algebra(rng.uniform(-0.2, 0.2, 3)))
        rec = reconstruct_group_operator(family, g, psi)
        direct = evaluator_transform(action, g, psi)
        worst = max(worst, (rec - direct).norm)
    assert worst <= 1e-6


def test_reconstruct_oscillator_matches_evolution_pipeline():
    dim = 16
    action, family = oscillator_action(dim)
    anchor = np.array([0.0, 0.3, 0.9])
    sampling = OrbitSampling(action, anchor, [LatticeAxis.line(0.05, -30, 30)])
    rng = np.random.default_rng(6)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v[6:] = 0.0
    psi = Section.from_field(
        sampling, lambda mats: np.broadcast_to(v, (mats.shape[0], dim)).copy())
    t = 0.7
    rec = reconstruct_group_operator(family, gexp(action.group.algebra([1.0]), t), psi)
    got = rec.values[sampling.identity_index()]
    # the evolution pipeline: the exact flow and fluctuation propagator
    # from the pulled-back base point
    H_osc = quadratic_hamiltonian_spec(1.0)
    X_pre = action.base_points(gexp(action.group.algebra([1.0]), -t), anchor)
    _, U = evolution_automorphism(H_osc, t, dim)(X_pre)
    expected = U @ v
    assert np.max(np.abs(got - expected)) <= 1e-6


# ---------------------------------------------------------------------------
# word identities
# ---------------------------------------------------------------------------

def test_word_inverse_pair(weyl):
    _, family, _, psi = weyl
    residual = word_identity_check(family, [(0, 0.5), (0, lambda a: -0.5 * a)], [psi])
    assert residual <= 1e-8


def test_word_heisenberg_commutator_with_central_compensation(weyl):
    _, family, _, psi = weyl
    a, b = 0.3, 0.4
    word = [(0, lambda s: a * s), (1, lambda s: b * s),
            (0, lambda s: -a * s), (1, lambda s: -b * s),
            (2, lambda s: -a * b * s * s)]
    assert word_identity_check(family, word, [psi]) <= 1e-6


def test_word_full_circle_nonprojective():
    _, family, _, psi = circle_setup(so2_rotor_action)
    assert word_identity_check(family, [(0, 2 * np.pi)], [psi]) <= 1e-6


def test_word_full_circle_metaplectic_anomaly():
    _, family, _, psi = circle_setup(metaplectic_action)
    residual = word_identity_check(family, [(0, 2 * np.pi)], [psi])
    assert abs(residual - 2.0) <= 1e-3   # (-1) psi vs psi, normalized


_COMMUTATOR = [(0, lambda s: 0.3 * s), (1, lambda s: 0.4 * s), (0, lambda s: -0.3 * s),
               (1, lambda s: -0.4 * s), (2, lambda s: -0.3 * 0.4 * s * s)]


@pytest.mark.parametrize("case, word, closing", [
    ("weyl", [(0, 0.5), (0, lambda a: -0.5 * a)], (0.0, 0.25, 0.5, 0.75, 1.0)),
    ("weyl", _COMMUTATOR, (0.0, 0.25, 0.5, 0.75, 1.0)),
    ("so2", [(0, 2 * np.pi)], (0.0, 1.0)),
    ("metaplectic", [(0, 2 * np.pi)], (0.0, 1.0)),
], ids=["inverse-pair", "commutator", "so2-full-circle", "metaplectic-full-circle"])
def test_word_check_applies_the_word_at_each_closing_alpha(weyl, monkeypatch, case,
                                                           word, closing):
    """The word is applied to every probe at every sampled alpha when each
    one closes (the deformation hypothesis), and only at the closing alphas
    0 and 1 around the non-contractible circle."""
    if case == "weyl":
        _, family, _, psi = weyl
    else:
        builder = so2_rotor_action if case == "so2" else metaplectic_action
        _, family, _, psi = circle_setup(builder)
    probes = [psi, 2.0 * psi]
    applied = []
    apply_word = reconstruction._apply_word

    def counted(family, steps, section):
        applied.append(([t for _, t in steps], section))
        return apply_word(family, steps, section)

    monkeypatch.setattr(reconstruction, "_apply_word", counted)
    word_identity_check(family, word, probes)
    expected = [[float(path(a)) if callable(path) else path * a for _, path in word]
                for a in closing for _ in probes]
    assert [params for params, _ in applied] == expected
    assert all(section is probe for (_, section), probe
               in zip(applied, [probe for _ in closing for probe in probes]))


def test_word_precondition_violation(weyl):
    _, family, _, psi = weyl
    with pytest.raises(PreconditionError):
        word_identity_check(family, [(0, 0.4)], [psi])


@pytest.mark.parametrize("word", [
    [(3, 0.4), (3, lambda a: -0.4 * a)],
    [(-1, 0.4)],
    [(1.5, 0.4), (1.5, lambda a: -0.4 * a)],
    [(0, 0.5), (0, lambda a: np.nan if a == 0.5 else -0.5 * a)],
], ids=["index-3", "index-minus-1", "index-1.5", "non-finite-path"])
def test_word_steps_are_checked_before_the_matrix_word(weyl, word):
    """Every step at every sampled alpha, as a word of the operator side is
    checked: no basis element is looked up by a bad index and a non-finite
    parameter does not leave the word unjudged."""
    _, family, _, psi = weyl
    with pytest.raises(InputError):
        word_identity_check(family, word, [psi])


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------

def test_conjugation_zero_time(weyl):
    _, family, _, psi = weyl
    A = family.group.algebra([1.0, 0, 0])
    assert conjugation_check(family, 1, 0.0, A, psi, 1e-3) <= 1e-6


def test_conjugation_abelian_trivial():
    action, family = translations_r2_action(8)
    anchor = np.array([0.0, 0.1, 0.3])
    sampling = OrbitSampling(
        action, anchor,
        [LatticeAxis.line(0.15, -4, 4), LatticeAxis.line(0.15, -4, 4)])
    rng = np.random.default_rng(7)
    psi = gentle_probe_section(sampling, rng, 4, sigma=[0.4, 0.4])
    A = family.group.algebra([0.0, 1.0])
    assert conjugation_check(family, 0, 0.4, A, psi, 1e-3) <= 1e-6


def test_conjugation_heisenberg_central_term(weyl):
    # conjugating the position-shift generator by the momentum flow picks up
    # the central direction; the residual shrinks at order >= 1
    _, family, _, psi = weyl
    A = family.group.algebra([1.0, 0.0, 0.0])
    r, r_half = (conjugation_check(family, 1, 0.3, A, psi, tau)
                 for tau in (1e-3, 5e-4))
    assert r <= 1e-4
    assert r_half <= max(0.6 * r, 1e-9)


# ---------------------------------------------------------------------------
# group law
# ---------------------------------------------------------------------------

def test_group_law_identity_factor(weyl):
    _, family, _, psi = weyl
    g1 = gexp(family.group.algebra([0.1, -0.05, 0.02]))
    composition, _ = group_law_verify(family, g1, family.group.identity(), psi, tau=1e-3)
    assert composition <= 1e-10


def test_group_law_random_pair(weyl):
    _, family, _, psi = weyl
    rng = np.random.default_rng(8)
    g1 = gexp(family.group.algebra(rng.uniform(-0.15, 0.15, 3)))
    g2 = gexp(family.group.algebra(rng.uniform(-0.15, 0.15, 3)))
    composition, closure = group_law_verify(family, g1, g2, psi, tau=1e-3)
    assert composition <= 1e-6
    assert closure <= 1e-3


def test_generator_closure_oscillator():
    action, family = oscillator_action(12)
    anchor = np.array([0.0, 0.5, 0.5])
    sampling = OrbitSampling(action, anchor, [LatticeAxis.line(0.05, -30, 30)])
    rng = np.random.default_rng(9)
    psi = gentle_probe_section(sampling, rng, 4, sigma=[0.5])
    A = family.group.algebra([1.0])
    fd = family_generator_apply(family, A, psi, 1e-3)
    direct = family_generator_direct(family, A, psi, 1e-3)
    assert (fd - direct).norm / direct.norm <= 1e-3


def test_zero_direction_generator_of_the_family_vanishes(weyl):
    """exp(+-tau 0) is the identity, whose word has no step: both sides are
    psi's live field and the generator is zero on every sample."""
    _, family, sampling, psi = weyl
    out = family_generator_apply(family, family.group.algebra([0.0, 0.0, 0.0]), psi, 1e-3)
    assert out.rows is sampling.all_rows and out.norm == 0.0


# ---------------------------------------------------------------------------
# work count
# ---------------------------------------------------------------------------

# Sections built on the catalog heisenberg-weyl generator lattice: a word is
# one section at the end, and the reconstructed generator one section of its
# field map.  Building a section per factor and differencing two
# reconstructed sections makes 3, 2 and 8.
WORD_SECTIONS, GENERATOR_SECTIONS, CONJUGATION_SECTIONS = 1, 1, 2


def test_reconstruction_builds_one_section_per_word(monkeypatch):
    """Work-count guard: calls of ``Section.from_field`` for a three-factor
    reconstructed operator, the reconstructed generator along the first
    basis direction, and one conjugation residual, on the catalog
    heisenberg-weyl reconstruction probe."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    scn = load_scenario("heisenberg-weyl")
    action, family = scn.build_action()
    sampling = scn.build_sampling(action, generator_scale=True)
    psi = gentle_probe_section(sampling, scn.rng(), scn.max_degree,
                               scn.probe_size("reconstruction"))
    group = family.group
    A, tau = group.algebra([1.0, 0.0, 0.0]), FD_TAU
    built = []
    from_field = Section.from_field

    def counted(sampling, field):
        built.append(len(sampling))
        return from_field(sampling, field)

    monkeypatch.setattr(Section, "from_field", staticmethod(counted))

    def count(call):
        built.clear()
        call()
        assert set(built) == {len(sampling)}
        return len(built)

    g = group.element(group.compose_exps([0.1, -0.05, 0.02]))
    assert count(lambda: reconstruct_group_operator(family, g, psi)) == WORD_SECTIONS
    assert count(lambda: family_generator_apply(family, A, psi, tau)) == GENERATOR_SECTIONS
    assert (count(lambda: conjugation_check(family, 1, 0.3, A, psi, tau))
            == CONJUGATION_SECTIONS)
