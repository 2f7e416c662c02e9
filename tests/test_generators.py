"""Garding smoothing, finite-difference generators, and the identity suite."""

import gc
import weakref
from functools import partial

import numpy as np
import pytest

from scbundle import generators
from scbundle.actions import (heisenberg_weyl_action, oscillator_action,
                              translations_r2_action)
from scbundle.errors import AlignmentError, InputError
from scbundle.generators import (
    SmoothingKernel, base_derivative, garding_smooth, generator_apply,
    _table_scope, generator_field, identity_suite, lattice_kernel,
)
from scbundle.groups import left_translate
from scbundle.scenarios import SEED_ENV_VAR, load_scenario
from scbundle.sections import (BaseFunction, LatticeAxis, OrbitSampling,
                               Section, central_difference,
                               evaluator_transform, gentle_probe_section,
                               pairing, pulled_field, section_transform,
                               smooth_probe_section, transformed_field)
from scbundle.verify import FD_TAU, _lattice_elements, run_verify

H = 0.15


@pytest.fixture(scope="module")
def weyl():
    action, _ = heisenberg_weyl_action(12)
    anchor = np.array([0.0, 0.4, -0.2])
    axes = [LatticeAxis.line(H, -4, 4), LatticeAxis.line(H, -4, 4),
            LatticeAxis.line(H * H, -12, 12)]
    return action, OrbitSampling(action, anchor, axes)


@pytest.fixture(scope="module")
def smoothed(weyl):
    action, sampling = weyl
    rng = np.random.default_rng(0)
    probe = gentle_probe_section(sampling, rng, max_degree=3,
                                 sigma=[0.4, 0.4, 0.35])
    kernel = lattice_kernel(sampling, radius=[0.16, 0.16, 0.07])
    return garding_smooth(kernel, probe, action)


def smooth_alpha():
    return BaseFunction(
        batch=lambda rows: np.exp(1j * rows[:, 2]) * (1 + 0.3 * rows[:, 1]))


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------

def test_smoothing_delta_kernel_is_identity(weyl):
    action, sampling = weyl
    rng = np.random.default_rng(1)
    probe = smooth_probe_section(sampling, rng, 3, radius=[0.4, 0.4, 0.1])
    # support radius below one lattice spacing leaves only the identity node
    kernel = lattice_kernel(sampling, radius=[0.9 * H, 0.9 * H, 0.9 * H * H])
    assert len(kernel.weights) == 1 and np.sum(kernel.weights) == pytest.approx(1.0)
    out = garding_smooth(kernel, probe, action)
    assert np.max(np.abs(out.values - probe.values)) <= 1e-12


def test_smoothed_field_is_memoised_and_matches_the_fused_kernel_sum(weyl):
    """The smoothed field is the node-by-node fold of pulled fields bit for
    bit, and the fused (node, point) contraction to roundoff; a repeated
    point set returns the same read-only array."""
    action, sampling = weyl
    rng = np.random.default_rng(5)
    probe = gentle_probe_section(sampling, rng, 3, sigma=[0.4, 0.4, 0.35])
    kernel = lattice_kernel(sampling, radius=[0.16, 0.16, 0.07])
    psi = garding_smooth(kernel, probe, action)
    mats = sampling.group_mats

    weighted_U = np.array([w * action.fiber_matrix(m)
                           for w, m in zip(kernel.weights, kernel.node_mats)])
    inv_mats = np.array([np.linalg.inv(m) for m in kernel.node_mats])
    K, J = inv_mats.shape[0], mats.shape[0]
    assert K > 1
    folded = np.zeros((J, sampling.fiber_dim), dtype=complex)
    for inv, wU in zip(inv_mats, weighted_U):
        folded += pulled_field(probe.field, inv, wU)(mats)
    assert psi.values.tobytes() == folded.tobytes()

    big = np.einsum("kab,jbc->kjac", inv_mats, mats).reshape(K * J, *mats.shape[1:])
    fused = np.einsum("kmn,kjn->jm", weighted_U, probe.field(big).reshape(K, J, -1))
    assert np.max(np.abs(folded - fused)) <= 1e-14 * np.max(np.abs(fused))

    first = psi.field(mats)
    assert first.tobytes() == folded.tobytes()
    assert psi.field(mats.copy()) is first
    with pytest.raises(ValueError):   # read-only
        first[0, 0] = 1.0
    assert psi.field(mats[:5]) is not first
    assert psi.field(mats[:5]).tobytes() == folded[:5].tobytes()


def test_smoothed_field_memo_frees_by_reference_count(weyl):
    """Without the cycle collector, a point set first evaluated in a table
    scope is never stored: it is freed as soon as the caller drops it, while
    the table is still open.  One kept for the section is read in the table
    and freed with the section: the memo holds no reference cycle."""
    action, sampling = weyl
    probe = gentle_probe_section(sampling, np.random.default_rng(7), 3,
                                 sigma=[0.4, 0.4, 0.35])
    kernel = lattice_kernel(sampling, radius=[0.16, 0.16, 0.07])
    gc.disable()
    try:
        psi = garding_smooth(kernel, probe, action)
        kept = weakref.ref(psi.field(sampling.group_mats))
        with _table_scope():
            in_table = weakref.ref(psi.field(sampling.group_mats[::2]))
            assert in_table() is None
            assert psi.field(sampling.group_mats) is kept()
        assert kept() is not None
        del psi
        assert kept() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("name, modes, dim", [
    ("heisenberg-weyl", 4, 18), ("translations-r2", 6, 8), ("oscillator-evolution", 5, 32)])
def test_smoothed_field_on_live_modes_is_the_full_width_fold(name, modes, dim):
    """On a catalog generator lattice, the smoothed probe, whose nodes
    multiply only the probe's live modes, is bit for bit the fold of
    full-width pulled fields."""
    scn = load_scenario(name)
    action, _ = scn.build_action()
    sampling = scn.build_sampling(action, generator_scale=True)
    probe = gentle_probe_section(sampling, scn.rng(), scn.max_degree,
                                 scn.probe_size("generators"))
    kernel = lattice_kernel(sampling, scn.kernel_radius)
    assert (probe.modes, sampling.fiber_dim) == (modes, dim)
    psi = garding_smooth(kernel, probe, action)
    assert psi.modes == dim
    folded = np.zeros((len(sampling), dim), dtype=complex)
    for m, w in zip(kernel.node_mats, kernel.weights):
        folded += pulled_field(probe.field, np.linalg.inv(m),
                               w * action.fiber_matrix(m))(sampling.group_mats)
    assert psi.values.tobytes() == folded.tobytes()


def test_smoothing_approximates_identity_with_shrinking_support(weyl):
    action, sampling = weyl
    rng = np.random.default_rng(2)
    probe = gentle_probe_section(sampling, rng, 3, sigma=[0.4, 0.4, 0.35])
    drifts = []
    for radius in ([0.45, 0.45, 0.09], [0.3, 0.3, 0.06], [0.16, 0.16, 0.033]):
        kernel = lattice_kernel(sampling, radius=radius)
        out = garding_smooth(kernel, probe, action)
        drifts.append((out - probe).norm)
    assert drifts[0] > drifts[1] > drifts[2]


def test_smoothing_linearity(weyl):
    action, sampling = weyl
    rng = np.random.default_rng(3)
    phi1 = smooth_probe_section(sampling, rng, 3, radius=[0.4, 0.4, 0.1])
    phi2 = smooth_probe_section(sampling, rng, 3, radius=[0.4, 0.4, 0.1])
    kernel = lattice_kernel(sampling, radius=[0.3, 0.3, 0.05])
    a = 1.7 - 0.4j
    lhs = garding_smooth(kernel, a * phi1 + phi2, action)
    rhs = a * garding_smooth(kernel, phi1, action) + garding_smooth(kernel, phi2, action)
    assert (lhs - rhs).norm <= 1e-12


def test_smoothing_lattice_path_matches_field_path(weyl):
    """The smoothed field on the lattice is the weighted sum of the exact
    lattice transforms of the probe, one per kernel node."""
    action, sampling = weyl
    rng = np.random.default_rng(4)
    probe = smooth_probe_section(sampling, rng, 3, radius=[0.25, 0.25, 0.05])
    kernel = lattice_kernel(sampling, radius=[0.2, 0.2, 0.04])
    by_field = garding_smooth(kernel, probe, action)
    by_lattice = np.zeros_like(probe.values)
    for mat, w in zip(kernel.node_mats, kernel.weights):
        by_lattice = by_lattice + w * section_transform(action, mat, probe).values
    assert len(kernel.weights) > 1
    assert np.max(np.abs(by_field.values - by_lattice)) <= 1e-12


def test_smoothing_refuses_a_section_without_field(weyl):
    action, sampling = weyl
    probe = smooth_probe_section(sampling, np.random.default_rng(4), 3,
                                 radius=[0.25, 0.25, 0.05])
    kernel = lattice_kernel(sampling, radius=[0.2, 0.2, 0.04])
    with pytest.raises(AlignmentError, match="field-backed"):
        garding_smooth(kernel, Section(sampling, probe.values), action)


def test_smoothing_support_growth(weyl):
    # smoothed support stays inside (probe support) + (kernel support)
    action, sampling = weyl
    rng = np.random.default_rng(5)
    probe = smooth_probe_section(sampling, rng, 3, radius=[0.25, 0.25, 0.05])
    kernel = lattice_kernel(sampling, radius=[0.2, 0.2, 0.04])
    out = garding_smooth(kernel, probe, action)
    probe_support = sampling.steps[np.linalg.norm(probe.values, axis=1) > 1e-14]
    out_support = sampling.steps[np.linalg.norm(out.values, axis=1) > 1e-14]
    # Minkowski bound per axis in lattice steps
    kernel_reach = np.max(np.abs(kernel.node_steps), axis=0)
    for axis in range(3):
        lo = probe_support[:, axis].min() - kernel_reach[axis] - 1
        hi = probe_support[:, axis].max() + kernel_reach[axis] + 1
        assert out_support[:, axis].min() >= lo
        assert out_support[:, axis].max() <= hi


def test_smoothing_left_translation_covariance(weyl):
    # transforming the smoothed section equals smoothing with the
    # left-translated kernel (left invariance of the node weights)
    from scbundle.sections import evaluator_transform
    action, sampling = weyl
    rng = np.random.default_rng(6)
    probe = gentle_probe_section(sampling, rng, 3, sigma=[0.3, 0.3, 0.25])
    kernel = lattice_kernel(sampling, radius=[0.2, 0.2, 0.04])
    g = sampling.action.group.element(
        sampling.action.group.compose_exps([H, -H, 0.0]))
    lhs = evaluator_transform(action, g, garding_smooth(kernel, probe, action))
    translated = SmoothingKernel(
        sampling,
        kernel.node_steps,
        np.einsum("ab,kbc->kac", g.matrix, kernel.node_mats),
        kernel.weights)
    rhs_field = garding_smooth(translated, probe, action)
    assert np.max(np.abs(lhs.values - rhs_field.values)) <= 1e-10


def test_kernel_must_fit_window(weyl):
    _, sampling = weyl
    with pytest.raises(InputError):
        lattice_kernel(sampling, radius=[10 * H, 0.2, 0.04])


BAD_STEPS = [np.nan, np.inf, 0.0, -1e-3]


@pytest.mark.parametrize("bad", BAD_STEPS, ids=["nan", "inf", "zero", "negative"])
def test_kernel_radius_must_be_finite_and_positive(bad):
    """An infinite radius used to cast to a one-node kernel that skipped the
    window check; every radius that is not finite and positive, on any
    axis, is refused."""
    action, _ = translations_r2_action(8)
    sampling = OrbitSampling(action, np.array([0.0, 0.1, 0.3]),
                             [LatticeAxis.line(0.15, -4, 4)] * 2)
    for radius in (bad, [0.2, bad]):
        with pytest.raises(InputError, match="finite and positive"):
            lattice_kernel(sampling, radius)


# ---------------------------------------------------------------------------
# generator application
# ---------------------------------------------------------------------------

def test_generator_zero_direction(weyl, smoothed):
    action, sampling = weyl
    A = action.group.algebra([0.0, 0.0, 0.0])
    assert generator_apply(A, smoothed, action, tau=1e-3).norm <= 1e-12


def test_generator_linearity(weyl, smoothed):
    action, _ = weyl
    G = action.group
    A1, A2 = G.algebra([1.0, 0.0, 0.0]), G.algebra([0.0, 1.0, 0.5])
    tau = 1e-3
    both = generator_apply(A1 + A2, smoothed, action, tau)
    sep = (generator_apply(A1, smoothed, action, tau)
           + generator_apply(A2, smoothed, action, tau))
    assert (both - sep).norm <= 1e-4


def test_generator_order_estimate_on_smoothed(weyl, smoothed):
    action, _ = weyl
    A = action.group.algebra([0.6, -0.8, 0.3])
    apps = [generator_apply(A, smoothed, action, tau) for tau in (2e-3, 1e-3, 5e-4)]
    assert all(isinstance(app, Section) for app in apps)
    r12, r24 = ((a - b).norm for a, b in zip(apps, apps[1:]))
    assert np.log2(r12 / r24) >= 1.9


@pytest.mark.parametrize("bad", BAD_STEPS, ids=["nan", "inf", "zero", "negative"])
def test_fd_step_must_be_finite_and_positive(weyl, smoothed, bad):
    """nan and inf steps used to give non-finite generators, and inf a zero
    base derivative; each such step is refused before any arithmetic, by
    the section and the field-level generator alike."""
    action, sampling = weyl
    A = action.group.algebra([1.0, 0.0, 0.0])
    alpha = smooth_alpha()
    calls = [lambda: generator_apply(A, smoothed, action, bad),
             lambda: generator_field(A, smoothed.live_field,
                                     partial(transformed_field, action), bad),
             lambda: base_derivative(
                 A, lambda mats: alpha.eval_rows(sampling.state_rows(mats)),
                 sampling, bad),
             lambda: base_derivative(A, pairing(smoothed, smoothed).field,
                                     sampling, bad)]
    for call in calls:
        with pytest.raises(InputError, match="finite and positive"):
            call()


@pytest.mark.parametrize("name", ["heisenberg-weyl", "translations-r2",
                                  "oscillator-evolution"])
def test_generator_apply_is_the_section_level_stencil(name):
    """The field-first generator equals, bit for bit, the stencil of two
    transformed sections, differenced as arrays: their values and their
    fields read at a pulled point set, on a smoothed catalog probe and on
    the probe itself."""
    scn = load_scenario(name)
    action, _ = scn.build_action()
    sampling = scn.build_sampling(action, generator_scale=True)
    probe = gentle_probe_section(sampling, scn.rng(), scn.max_degree,
                                 scn.probe_size("generators"))
    smoothed = garding_smooth(lattice_kernel(sampling, scn.kernel_radius), probe, action)
    group = action.group
    A = group.algebra(np.linspace(1.0, 0.5, group.dim))
    pull = np.linalg.inv(_lattice_elements(sampling)[1].matrix)
    elsewhere = left_translate(pull, sampling.group_mats)
    tau = FD_TAU
    for psi in (smoothed, probe):
        got = generator_apply(A, psi, action, tau)

        def moved(t):
            return evaluator_transform(action, group.exp_matrix(t * A.matrix), psi)
        block = 1j * central_difference(lambda t: moved(t).values, tau)
        field = 1j * central_difference(lambda t: moved(t).field(elsewhere), tau)
        assert got.modes == sampling.fiber_dim
        assert got.rows is sampling.all_rows
        assert got.block.tobytes() == block.tobytes()
        assert got.field(elsewhere).tobytes() == field.tobytes()


def test_generator_refuses_lattice_only_sections(weyl):
    action, sampling = weyl
    values = np.zeros((len(sampling), sampling.fiber_dim), dtype=complex)
    values[sampling.identity_index(), 0] = 1.0
    psi = Section(sampling, values)
    with pytest.raises(AlignmentError):
        generator_apply(action.group.algebra([1.0, 0, 0]), psi, action, 1e-3)


def five_point(family, tau):
    """The fourth-order central stencil, with nodes at +-tau and +-2 tau."""
    return (8 * (family(tau) - family(-tau))
            - (family(2 * tau) - family(-2 * tau))) / (12 * tau)


def test_generator_field_builds_the_steps_the_stencil_asks_for(weyl, smoothed,
                                                                monkeypatch):
    """With a five-point stencil planted in place of the two-point one, the
    generator field is that stencil of explicitly moved fields, bit for bit:
    the stencil alone names the steps."""
    action, sampling = weyl
    monkeypatch.setattr(generators, "central_difference", five_point)
    A = action.group.algebra([1.0, -0.4, 0.3])
    tau = 1e-3
    mats = sampling.group_mats
    got = generator_field(A, smoothed.live_field, partial(transformed_field, action), tau)
    expected = 1j * five_point(lambda t: transformed_field(
        action, action.group.exp_matrix(t * A.matrix), smoothed.live_field)(mats), tau)
    assert got(mats).tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", ["translations-r2", "so2-rotor"])
def test_five_point_stencil_runs_every_suite(name, monkeypatch):
    """A planted five-point stencil reaches every generator and
    reconstruction table without a suite error."""
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    monkeypatch.setattr(generators, "central_difference", five_point)
    records = run_verify(load_scenario(name)).records
    assert not [r.check_id for r in records if r.check_id.endswith("_suite_error")]


def test_oscillator_generator_fiber_and_phase_term():
    # At the anchor, the time-translation generator acts as the fluctuation
    # matrix (the analytic derivative of the diagonal phases, diag(k + 1/2))
    # plus the classical action rate of the base flow.
    dim = 10
    action, _ = oscillator_action(dim)
    anchor = np.array([0.0, 0.7, 0.4])
    ht = 0.05
    sampling = OrbitSampling(action, anchor, [LatticeAxis.line(ht, -40, 40)])
    rng = np.random.default_rng(7)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v[5:] = 0.0

    rows_cache = {}
    def field(mats):
        rows = sampling.state_rows(mats)
        t = action.group.coords_batch(mats)[:, 0]
        envelope = np.exp(-0.5 * (t / 0.5) ** 2)
        return (np.exp(1j * rows[:, 0]) * envelope)[:, None] * v[None, :]

    psi = Section.from_field(sampling, field)
    A = action.group.algebra([1.0])
    tau = 1e-3
    got = generator_apply(A, psi, action, tau).values[sampling.identity_index()]
    # analytic: [diag(k+1/2) + dS/dt] psi(anchor) -- the pulled-back argument
    # flips the sign of the action-rate term; envelope even at 0
    levels = np.arange(dim) + 0.5
    S, P, Q = anchor
    s_rate = P ** 2 - 0.5 * (P ** 2 + Q ** 2)
    expected = (levels + s_rate) * (np.exp(1j * S) * v)
    assert np.max(np.abs(got - expected)) <= 50 * tau ** 2


# ---------------------------------------------------------------------------
# base derivative
# ---------------------------------------------------------------------------

def test_base_derivative_constant_function(weyl, smoothed):
    action, sampling = weyl
    A = action.group.algebra([0.5, -0.2, 0.1])
    const = BaseFunction(batch=lambda rows: np.full(rows.shape[0], 2.3 + 0j))
    d = base_derivative(
        A, lambda mats: const.eval_rows(sampling.state_rows(mats)), sampling, 1e-3)
    assert np.max(np.abs(d)) <= 1e-12


def test_base_derivative_translation_coordinate():
    action, _ = translations_r2_action(6)
    anchor = np.array([0.0, 0.0, 0.0])
    sampling = OrbitSampling(
        action, anchor,
        [LatticeAxis.line(0.2, -3, 3), LatticeAxis.line(0.2, -3, 3)])
    alpha = BaseFunction(batch=lambda rows: rows[:, 2])
    A = action.group.algebra([1.0, 0.0])
    d = base_derivative(
        A, lambda mats: alpha.eval_rows(sampling.state_rows(mats)), sampling, 1e-3)
    assert np.max(np.abs(d - 1.0)) <= 1e-10


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

FLOOR = 1e-9


def test_identity_suite_heisenberg(weyl, smoothed):
    action, sampling = weyl
    G = action.group
    A, B = G.algebra([1.0, 0.0, 0.0]), G.algebra([0.0, 1.0, 0.0])
    conj = G.element(G.compose_exps([H, H, 0.0]))
    res, half = (identity_suite(A, B, smooth_alpha(), smoothed,
                                generator_apply(A, smoothed, action, tau),
                                generator_apply(A, smoothed, action, 2 * tau), action, tau,
                                conjugator=conj) for tau in (1e-3, 5e-4))
    assert set(res) == set(half) == {"linearity", "conjugation", "commutator",
                                     "multiplication", "pairing_derivative"}
    for name, r in res.items():
        r_half = half[name]
        contracted = 1.0 if name == "commutator" else 2.0
        assert r_half <= FLOOR or np.log2(r / r_half) >= contracted - 0.15, name
        if name == "commutator":
            assert r <= 1e-4


def test_identity_suite_abelian_commutator_vanishes():
    action, _ = translations_r2_action(8)
    anchor = np.array([0.0, 0.1, 0.3])
    sampling = OrbitSampling(
        action, anchor,
        [LatticeAxis.line(0.15, -4, 4), LatticeAxis.line(0.15, -4, 4)])
    rng = np.random.default_rng(8)
    probe = gentle_probe_section(sampling, rng, 4, sigma=[0.4, 0.4])
    kernel = lattice_kernel(sampling, radius=[0.2, 0.2])
    psi = garding_smooth(kernel, probe, action)
    G = action.group
    A, B = G.algebra([1.0, 0.0]), G.algebra([0.0, 1.0])
    res = identity_suite(A, B, smooth_alpha(), psi, generator_apply(A, psi, action, 1e-3),
                         generator_apply(A, psi, action, 2e-3), action, 1e-3,
                         conjugator=G.element(G.compose_exps([H, H])))
    assert res["commutator"] <= 1e-4


def test_identity_suite_constant_alpha_vanishes(weyl, smoothed):
    action, _ = weyl
    G = action.group
    A, B = G.algebra([1.0, 0.0, 0.0]), G.algebra([0.0, 1.0, 0.0])
    const = BaseFunction(batch=lambda rows: np.full(rows.shape[0], 1.5 + 0j))
    res = identity_suite(A, B, const, smoothed, generator_apply(A, smoothed, action, 1e-3),
                         generator_apply(A, smoothed, action, 2e-3), action, 1e-3,
                         conjugator=G.element(G.compose_exps([H, H, 0.0])))
    assert res["multiplication"] <= 1e-6

