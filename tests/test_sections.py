"""Section calculus over orbit lattices: norm, transform, multiplication,
pullback, pairing, pointwise reconstruction, and each of them on a
section's support rows against a dense numpy oracle."""

from dataclasses import replace

import numpy as np
import pytest

from scbundle.actions import (heisenberg_weyl_action, so2_rotor_action,
                              translations_r2_action)
from scbundle.errors import AlignmentError, InputError
from scbundle import verify
from scbundle.generators import lattice_kernel
from scbundle.groups import exp as gexp, left_translate
from scbundle.reconstruction import exponentiate_generator
from scbundle.scenarios import catalog_names, load_scenario
from scbundle.sections import (
    BaseFunction, LatticeAxis, OrbitSampling, Section, delta_section,
    evaluator_transform, gentle_probe_section, multiply, pairing, pullback,
    pulled_field, reconstruct_pointwise_operator, section_transform,
    smooth_probe_section, state_keys,
)
from scbundle.verify import _lattice_elements

H = 0.15


@pytest.fixture(scope="module")
def weyl():
    action, _ = heisenberg_weyl_action(18)
    anchor = np.array([0.0, 0.4, -0.2])
    axes = [LatticeAxis.line(H, -6, 6), LatticeAxis.line(H, -6, 6),
            LatticeAxis.line(H * H, -60, 60)]
    sampling = OrbitSampling(action, anchor, axes)
    return action, sampling


def probe(sampling, seed=0, max_degree=3):
    rng = np.random.default_rng(seed)
    return smooth_probe_section(sampling, rng, max_degree=max_degree,
                                radius=[3 * H, 3 * H, 20 * H * H])


def lattice_element(sampling, steps):
    group = sampling.action.group
    return group.element(group.compose_exps(np.asarray(steps, dtype=float)
                                            * sampling.spacings))


# ---------------------------------------------------------------------------
# sampling invariants
# ---------------------------------------------------------------------------

def _per_point_group_mats(sampling):
    """Reference: one matrix_power product per kept lattice point."""
    group = sampling.action.group
    axis_mats = [group.compose_exps(ax.spacing * np.eye(group.dim)[k])
                 for k, ax in enumerate(sampling.axes)]
    mats = []
    for steps in sampling.steps:
        m = np.eye(group.rep_dim, dtype=axis_mats[0].dtype)
        for k, s in enumerate(steps):
            m = m @ np.linalg.matrix_power(axis_mats[k], int(s)) if s else m
        mats.append(m)
    return np.array(mats)


@pytest.mark.parametrize("name", [n for n in catalog_names()
                                  if load_scenario(n).action_name is not None])
def test_group_mats_match_per_point_products_on_catalog_lattices(name):
    """The stacked per-axis power build gives the per-point products bit for
    bit, on each catalog scenario's orbit and generator lattice."""
    scn = load_scenario(name)
    action, _ = scn.build_action()
    for generator_scale in (False, True):
        sampling = scn.build_sampling(action, generator_scale=generator_scale)
        expected = _per_point_group_mats(sampling)
        assert sampling.group_mats.dtype == expected.dtype
        assert sampling.group_mats.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", [n for n in catalog_names()
                                  if load_scenario(n).action_name is not None])
def test_group_mats_are_stored_plane_by_plane(name):
    """On each catalog orbit and generator lattice the group matrices are a
    view of a C-contiguous (n, n, J) array (their values are the C-ordered
    per-point stack's, byte for byte: see the test above), and a left
    translation of either layout gives the same bytes, signed zeros
    included (the negated stack holds -0.0)."""
    scn = load_scenario(name)
    action, _ = scn.build_action()
    for generator_scale in (False, True):
        sampling = scn.build_sampling(action, generator_scale=generator_scale)
        mats = sampling.group_mats
        assert mats.transpose(1, 2, 0).flags.c_contiguous
        g = np.linalg.inv(_lattice_elements(sampling)[1].matrix)
        for plane in (mats, -mats):
            c_ordered = np.ascontiguousarray(plane)
            assert (left_translate(g, plane).tobytes()
                    == left_translate(g, c_ordered).tobytes())
        assert np.any(np.signbit(-mats) & (mats == 0.0))


def test_sampling_contains_identity_and_recomputable_base(weyl):
    action, sampling = weyl
    idx = sampling.identity_index()
    assert np.allclose(sampling.base_array[idx], sampling.anchor)
    # base points recompute from the group elements
    recomputed = action.base_points(sampling.group_mats, sampling.anchor)
    assert np.max(np.abs(recomputed - sampling.base_array)) <= 1e-12


def test_sampling_base_points_pairwise_distinct(weyl):
    _, sampling = weyl
    # no sample collapsed: one per point of the grid
    assert len(sampling) == np.prod([ax.indices().size for ax in sampling.axes])
    order = np.lexsort(sampling.base_array.T)
    sorted_pts = sampling.base_array[order]
    gaps = np.linalg.norm(np.diff(sorted_pts, axis=0), axis=1)
    assert np.min(gaps) > 1e-9


def collapsed_rotor_sampling():
    """The rotor action fixes the base point when (P, Q) = 0, so the whole
    circle collapses to one stabilizer class."""
    action, _ = so2_rotor_action(6)
    anchor = np.array([0.2, 0.0, 0.0])
    return OrbitSampling(action, anchor, [LatticeAxis.cycle(2 * np.pi, 24)])


def test_sampling_stabilizer_deduplication():
    sampling = collapsed_rotor_sampling()
    assert len(sampling) == 1


def test_state_keys_refuse_coordinates_an_int64_cannot_hold():
    """Keys are multiples of 1e-9: 9e9 still has one, 1e10 would wrap."""
    rows = np.array([[9e9, -9e9, 2e-9]])
    keys = state_keys(rows)
    assert keys.dtype == np.int64
    np.testing.assert_allclose(keys * 1e-9, rows, rtol=1e-15)
    for row in ([0.0, 1e10, 0.0], [0.0, 0.0, -1e10], [np.nan, 0.0, 0.0]):
        with pytest.raises(InputError):
            state_keys(np.array([row]))


# ---------------------------------------------------------------------------
# norm
# ---------------------------------------------------------------------------

def test_norm_zero_section(weyl):
    _, sampling = weyl
    psi = Section(sampling, np.zeros((len(sampling), sampling.fiber_dim)))
    assert psi.norm == 0.0


def test_norm_single_value(weyl):
    _, sampling = weyl
    v = np.zeros(sampling.fiber_dim, dtype=complex)
    v[2] = 1.0
    psi = delta_section(sampling, 5, v)
    assert psi.norm == pytest.approx(1.0)


def test_norm_is_max_over_samples(weyl):
    _, sampling = weyl
    values = np.zeros((len(sampling), sampling.fiber_dim), dtype=complex)
    for idx, size in zip((3, 11, 27), (0.2, 0.7, 0.5)):
        values[idx, 0] = size
    assert Section(sampling, values).norm == pytest.approx(0.7)


# ---------------------------------------------------------------------------
# live modes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("modes", [0, -1, 19])
def test_section_modes_outside_one_to_d_are_refused(weyl, modes):
    _, sampling = weyl
    with pytest.raises(InputError, match="live modes"):
        Section(sampling, np.zeros((len(sampling), sampling.fiber_dim)), modes=modes)


def test_section_values_beyond_its_modes_are_refused(weyl):
    _, sampling = weyl
    values = np.zeros((len(sampling), sampling.fiber_dim), dtype=complex)
    values[7, 3] = 1e-300j
    assert Section(sampling, values).modes == sampling.fiber_dim
    assert Section(sampling, values, modes=4).modes == 4
    with pytest.raises(InputError, match="beyond its 3 live modes"):
        Section(sampling, values, modes=3)


# probe scenarios of the catalog -> (live modes, fiber dimension)
_PROBE_MODES = {"heisenberg-weyl": (4, 18), "oscillator-evolution": (5, 32),
                "so2-rotor": (5, 14), "translations-r2": (6, 8),
                "metaplectic-so2": (6, 14)}
# each probe takes the generators suite's size, but metaplectic-so2 declares
# no sigma and takes its gauge suite's radius
_PROBE_SUITE = {"metaplectic-so2": "gauge"}


def test_every_catalog_probe_scenario_is_listed():
    assert {n for n in catalog_names()
            if load_scenario(n).probes} == set(_PROBE_MODES)


@pytest.mark.parametrize("name", sorted(_PROBE_MODES))
def test_catalog_probes_record_their_live_modes(name):
    """A probe lives on its first min(max_degree + 1, n_cut) modes: its
    field pads zeros beyond them, and a derived section is full width."""
    scn = load_scenario(name)
    action, _ = scn.build_action()
    sampling = scn.build_sampling(action, generator_scale=True)
    probe = gentle_probe_section(sampling, scn.rng(), scn.max_degree,
                                 scn.probe_size(_PROBE_SUITE.get(name, "generators")))
    modes, dim = _PROBE_MODES[name]
    assert (probe.modes, sampling.fiber_dim) == (modes, dim)
    assert probe.modes == min(scn.max_degree + 1, scn.fiber_dim)
    assert np.any(probe.block[:, modes - 1])
    # the field is the block on the rows, bit for bit, and exactly zero
    # elsewhere (where it may give -0.0)
    full = probe.field(sampling.group_mats)
    assert full[probe.rows].tobytes() == probe.block.tobytes()
    outside = np.ones(len(sampling), dtype=bool)
    outside[probe.rows] = False
    assert np.all(full[outside] == 0.0)
    assert (2.0 * probe).modes == (probe - probe).modes == dim


@pytest.mark.parametrize("bad", [None, np.nan, np.inf, 0.0, -0.4],
                         ids=["none", "nan", "inf", "zero", "negative"])
def test_probe_size_must_be_finite_and_positive(weyl, bad):
    """A missing size (a scenario without the field its suite reads) used to
    give a NaN envelope, a probe that is NaN on every row; every size that
    is not finite and positive, on any axis, is refused."""
    _, sampling = weyl
    for make in (smooth_probe_section, gentle_probe_section):
        for size in (bad, [0.4, bad, 0.3]):
            with pytest.raises(InputError, match="finite and positive"):
                make(sampling, np.random.default_rng(0), 3, size)


@pytest.mark.parametrize("rows", [1, 2, 2025])
def test_column_restricted_pulled_field_is_the_square_product(weyl, rows):
    """Pulling the probe's live field (its 4 live columns) gives the full
    square product of the zero-padded field bit for bit, with the whole
    fiber matrix or with its live columns only, up to the sign of a zero:
    on a row where the probe vanishes the shorter sum may end at -0.0.
    Adding +0.0 erases that sign, as the Garding sum, started from +0.0,
    does."""
    action, sampling = weyl
    psi = probe(sampling, seed=4)
    g = lattice_element(sampling, [1, -1, 3]).matrix
    inv, V = np.linalg.inv(g), 0.37 * action.fiber_matrix(g)
    mats = sampling.group_mats[:rows]
    assert psi.live_field(mats).shape == (rows, psi.modes)
    square = pulled_field(psi.field, inv, V)(mats)
    assert np.any(square)
    for cols in (V, V[:, :psi.modes]):
        cut = pulled_field(psi.live_field, inv, cols)(mats)
        assert (cut + 0.0).tobytes() == (square + 0.0).tobytes()


@pytest.mark.parametrize("name", ["heisenberg-weyl", "translations-r2",
                                  "oscillator-evolution"])
def test_live_pulls_are_the_full_width_products(name):
    """Every pull of a catalog probe multiplies only its live modes, and
    gives the product of its zero-padded field with the whole fiber matrix
    bit for bit, up to the sign of a zero (see above): the lattice transform's
    field, the off-lattice transform, the reconstruction flow and a Garding
    node."""
    scn = load_scenario(name)
    action, family = scn.build_action()
    sampling = scn.build_sampling(action)
    psi = smooth_probe_section(sampling, scn.rng(), scn.max_degree,
                               scn.probe_size("sections"))
    assert psi.modes < sampling.fiber_dim
    mats = sampling.group_mats
    group = action.group

    def full_width(pull, V):
        padded = psi.field(left_translate(pull, mats))
        assert padded.shape == (len(sampling), sampling.fiber_dim)
        return padded @ V.T

    def same(got, expected):
        return (got + 0.0).tobytes() == (expected + 0.0).tobytes()

    g = _lattice_elements(sampling)[2].matrix
    moved = section_transform(action, g, psi)
    assert same(moved.field(mats), full_width(np.linalg.inv(g), action.fiber_matrix(g)))
    off = group.exp_matrix(0.0137 * group.basis[0] + 0.021 * group.basis[-1])
    assert same(evaluator_transform(action, off, psi).values,
                full_width(np.linalg.inv(off), action.fiber_matrix(off)))
    flowed = exponentiate_generator(family, 0, 0.3, psi)
    assert same(flowed.values, full_width(group.exp_matrix(-0.3 * group.basis[0]),
                                          family.directions[0].unitary(0.3)))
    kernel = lattice_kernel(sampling, scn.kernel_radius)
    m, w = kernel.node_mats[1], kernel.weights[1]
    wU = w * action.fiber_matrix(m)
    node = pulled_field(psi.live_field, np.linalg.inv(m), wU[:, :psi.modes])
    assert same(node(mats), full_width(np.linalg.inv(m), wU))


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

def test_transform_identity(weyl):
    action, sampling = weyl
    psi = probe(sampling)
    out = section_transform(action, action.group.identity(), psi)
    assert np.max(np.abs(out.values - psi.values)) <= 1e-14


def test_transform_isometry(weyl):
    action, sampling = weyl
    psi = probe(sampling)
    g = lattice_element(sampling, [2, -1, 3])
    out = section_transform(action, g, psi)
    assert abs(out.norm - psi.norm) <= 1e-10


def test_transform_group_law_on_lattice_grid(weyl):
    action, sampling = weyl
    psi = probe(sampling)
    worst = 0.0
    for s1 in ([1, 0, 0], [0, 1, 0], [1, -1, 2], [2, 1, 0], [0, 0, 3]):
        for s2 in ([0, 1, 1], [1, 1, 0], [-1, 0, 0], [0, -2, 1], [1, 0, -2]):
            g1 = lattice_element(sampling, s1)
            g2 = lattice_element(sampling, s2)
            lhs = section_transform(action, g1, section_transform(action, g2, psi))
            rhs = section_transform(action, g1 @ g2, psi)
            worst = max(worst, (lhs - rhs).norm)
    assert worst <= 1e-8


def test_transform_rejects_offlattice(weyl):
    action, sampling = weyl
    psi = probe(sampling)
    g = gexp(action.group.algebra([1.0, 0.0, 0.0]), 0.5 * H)
    with pytest.raises(AlignmentError):
        section_transform(action, g, psi)


def test_transform_refuses_support_overflow(weyl):
    """On a probe's compact rows and on every sample alike."""
    action, sampling = weyl
    psi = probe(sampling)
    full = Section(sampling, psi.values)
    assert len(psi.rows) < len(sampling) == len(full.rows)
    # six lattice steps push the bump support over the window edge
    g = lattice_element(sampling, [6, 0, 0])
    for sec in (psi, full):
        with pytest.raises(AlignmentError, match="left the sampled window"):
            section_transform(action, g, sec)


@pytest.mark.parametrize("name", [n for n in catalog_names()
                                  if "sections" in load_scenario(n).suites]
                         + ["collapsed-rotor"])
def test_cached_transport_equals_coordinate_lookup(name):
    """On every sections-suite sampling, the cached transport of each test
    element (and of the identity) is the source lookup by coordinates, one
    matrix product per sample."""
    if name == "collapsed-rotor":
        sampling = collapsed_rotor_sampling()
    else:
        scn = load_scenario(name)
        sampling = scn.build_sampling(scn.build_action()[0])
    group = sampling.action.group
    for g in [group.identity()] + _lattice_elements(sampling):
        inv = np.linalg.inv(g.matrix)
        sources = sampling.indices_of_matrices(
            np.array([inv @ m for m in sampling.group_mats]))
        dest = np.nonzero(sources >= 0)[0]
        lost = np.setdiff1d(np.arange(len(sampling)), sources[dest])
        transport = sampling.transport(g)
        assert transport is sampling.transport(g.matrix.copy())
        target = np.full(len(sampling), -1)
        target[sources[dest]] = dest
        assert np.array_equal(transport.target, target)
        assert transport.target.dtype == np.int64
        # the samples whose image leaves the window, and the (source, dest)
        # pairs of the samples that stay
        assert np.array_equal(np.flatnonzero(transport.target < 0), lost)
        stays = np.flatnonzero(transport.target >= 0)
        assert np.array_equal(stays, np.sort(sources[dest]))
        assert transport.inverse.tobytes() == inv.tobytes()
        assert transport.fiber.tobytes() == sampling.action.fiber_matrix(g).tobytes()
        # the forward lookup g h: the samples that stay and their images
        images = sampling.indices_of_matrices(
            np.array([g.matrix @ m for m in sampling.group_mats]))
        assert np.array_equal(np.nonzero(images >= 0)[0], stays)
        assert np.array_equal(images[stays], transport.target[stays])


def test_cached_transport_is_read_only(weyl):
    _, sampling = weyl
    transport = sampling.transport(lattice_element(sampling, [1, 0, 2]))
    assert np.any(transport.target < 0)
    assert list(vars(transport)) == ["inverse", "target", "fiber"]
    for array in vars(transport).values():
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


def test_transport_cache_keeps_every_element():
    """A sampling keeps the transport of every lattice element it was asked
    for: after 75 distinct elements the first is still the cached object."""
    action, _ = heisenberg_weyl_action(4)
    axes = [LatticeAxis.line(H, -3, 3), LatticeAxis.line(H, -3, 3),
            LatticeAxis.line(H * H, -3, 3)]
    sampling = OrbitSampling(action, np.array([0.0, 0.4, -0.2]), axes)
    steps = np.stack(np.meshgrid(range(-2, 3), range(-2, 3), range(-1, 2),
                                 indexing="ij"), axis=-1).reshape(-1, 3)
    elements = [lattice_element(sampling, s) for s in steps]
    first = sampling.transport(elements[0])
    for g in elements[1:]:
        sampling.transport(g)
    assert len(elements) == 75
    assert sampling.transport(elements[0].matrix.copy()) is first


def test_repeated_transform_reuses_the_source_lookup(monkeypatch):
    dim = 12
    action, _ = heisenberg_weyl_action(dim)
    sampling = OrbitSampling(action, np.array([0.0, 0.4, -0.2]),
                             [LatticeAxis.line(H, -4, 4)] * 2
                             + [LatticeAxis.line(H * H, -30, 30)])
    psi = smooth_probe_section(sampling, np.random.default_rng(3), max_degree=3,
                               radius=[2 * H, 2 * H, 10 * H * H])
    g = lattice_element(sampling, [1, -1, 2])
    first = section_transform(action, g, psi)

    def no_lookup(mats):
        raise AssertionError("source lookup repeated for a cached element")

    monkeypatch.setattr(sampling, "indices_of_matrices", no_lookup)
    again = section_transform(action, g, psi)
    assert again.values.tobytes() == first.values.tobytes()
    X = sampling.base_array[sampling.identity_index()]
    assert np.max(np.abs(reconstruct_pointwise_operator(sampling, g, X, np.ones(dim))
                         - action.fiber_matrix(g) @ np.ones(dim))) <= 1e-10


def test_transform_support_tolerance(weyl):
    """Support overflow is measured against the section's mass: a lost mass
    at 1e-14 of the total is rounding and passes, one at 1e-8 raises."""
    action, sampling = weyl
    g = lattice_element(sampling, [1, 0, 0])
    lost = np.flatnonzero(sampling.transport(g).target < 0)
    assert 0 < lost.size < len(sampling)
    values = np.zeros((len(sampling), sampling.fiber_dim), dtype=complex)
    values[:, 0] = 1.0
    for share, refused in ((1e-14, False), (1e-8, True)):
        values[lost, 0] = np.sqrt(share * (len(sampling) - lost.size) / lost.size)
        psi = Section(sampling, values)
        assert np.sum(np.abs(values[lost]) ** 2) / np.sum(np.abs(values) ** 2) \
            == pytest.approx(share, rel=1e-6)
        if refused:
            with pytest.raises(AlignmentError):
                section_transform(action, g, psi)
        else:
            out = section_transform(action, g, psi)
            assert abs(out.norm - 1.0) <= 1e-10
    zero = Section(sampling, np.zeros_like(values))
    assert not np.any(section_transform(action, g, zero).values)


def test_strong_continuity_surrogate(weyl):
    action, sampling = weyl
    psi = probe(sampling)
    A = action.group.algebra([0.7, -0.4, 0.2])
    drifts = []
    for tau in (0.1, 0.05, 0.025):
        moved = evaluator_transform(action, gexp(A, tau), psi)
        drifts.append((moved - psi).norm)
    assert drifts[0] > drifts[1] > drifts[2]
    # roughly first order in the group parameter
    assert drifts[2] < 0.35 * drifts[0]


# ---------------------------------------------------------------------------
# multiplication operator and pullback
# ---------------------------------------------------------------------------

def smooth_alpha():
    return BaseFunction(
        batch=lambda rows: np.exp(1j * rows[:, 2]) * (1 + 0.3 * rows[:, 1]))


def test_multiply_constants(weyl):
    _, sampling = weyl
    psi = probe(sampling)
    one = BaseFunction(batch=lambda rows: np.ones(rows.shape[0]))
    zero = BaseFunction(batch=lambda rows: np.zeros(rows.shape[0]))
    assert np.max(np.abs(multiply(one, psi).values - psi.values)) == 0.0
    assert multiply(zero, psi).norm == 0.0


def test_multiply_transform_commutation(weyl):
    action, sampling = weyl
    rng = np.random.default_rng(3)
    alpha = smooth_alpha()
    worst = 0.0
    for k in range(10):
        psi = probe(sampling, seed=k)
        steps = rng.integers(-2, 3, size=3)
        g = lattice_element(sampling, steps)
        lhs = section_transform(action, g, multiply(alpha, psi))
        rhs = multiply(pullback(action, g, alpha), section_transform(action, g, psi))
        worst = max(worst, (lhs - rhs).norm)
    assert worst <= 1e-10


def test_pullback_identity_and_composition(weyl):
    action, sampling = weyl
    alpha = smooth_alpha()
    rows = sampling.base_array[17:18]
    e = action.group.identity()
    assert pullback(action, e, alpha).eval_rows(rows)[0] == pytest.approx(
        alpha.eval_rows(rows)[0])
    g1 = lattice_element(sampling, [1, 2, 0])
    g2 = lattice_element(sampling, [-1, 1, 1])
    lhs = pullback(action, g1, pullback(action, g2, alpha)).eval_rows(rows)
    rhs = pullback(action, g1 @ g2, alpha).eval_rows(rows)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_pullback_translation_closed_form():
    action, _ = translations_r2_action(6)
    alpha = BaseFunction(batch=lambda rows: rows[:, 2])
    a = 0.8
    g = gexp(action.group.algebra([1.0, 0.0]), a)
    moved = pullback(action, g, alpha)
    X = np.array([0.0, 0.3, 1.1])
    assert moved.eval_rows(X[None])[0] == pytest.approx(X[2] - a)


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------

def test_pairing_positivity_and_bound(weyl):
    _, sampling = weyl
    psi = probe(sampling, seed=1)
    phi = probe(sampling, seed=2)
    pp = pairing(psi, psi)
    assert np.all(pp.values.real >= -1e-14)
    assert np.max(np.abs(pp.values.imag)) <= 1e-14
    cross = pairing(phi, psi)
    assert np.max(np.abs(cross.values)) <= phi.norm * psi.norm + 1e-12


def test_pairing_invariance_under_transform(weyl):
    action, sampling = weyl
    psi = probe(sampling, seed=4)
    phi = probe(sampling, seed=5)
    g = lattice_element(sampling, [1, -2, 1])
    moved = pairing(section_transform(action, g, phi),
                    section_transform(action, g, psi))
    still = pairing(phi, psi)
    inv = np.linalg.inv(g.matrix)
    src = sampling.indices_of_matrices(
        np.einsum("ab,jbc->jac", inv, sampling.group_mats))
    ok = src >= 0
    assert np.max(np.abs(moved.values[ok] - still.values[src[ok]])) <= 1e-10


@pytest.mark.parametrize("live", [True, False], ids=["live-modes", "full-width"])
def test_self_pairing_evaluates_its_field_once(weyl, live):
    """A section paired with itself, or with another section on the same
    field, evaluates that field once per point set, bit for bit the
    two-call form."""
    _, sampling = weyl
    base = probe(sampling, seed=6)
    calls = []

    def counted(mats):
        calls.append(len(mats))
        return base.live_field(mats) if live else base.field(mats)

    modes = base.modes if live else None
    psi = Section(sampling, base.block, counted, modes, base.rows)
    twin = Section(sampling, base.block, counted, modes, base.rows)
    assert (psi.modes < sampling.fiber_dim) == live
    mats = sampling.group_mats[::7]
    two_calls = np.sum(np.conj(psi.field(mats)) * psi.field(mats), axis=1)
    for other in (psi, twin):
        calls.clear()
        got = pairing(psi, other).field(mats)
        assert calls == [len(mats)]
        assert got.tobytes() == two_calls.tobytes()


def test_pairing_sampling_mismatch(weyl):
    action, sampling = weyl
    other = OrbitSampling(action, sampling.anchor,
                          [LatticeAxis.line(H, -1, 1)] * 2
                          + [LatticeAxis.line(H * H, -1, 1)])
    psi = probe(sampling)
    values = np.zeros((len(other), other.fiber_dim), dtype=complex)
    with pytest.raises(InputError):
        pairing(psi, Section(other, values))


# ---------------------------------------------------------------------------
# pointwise operator reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_pointwise_identity(weyl):
    action, sampling = weyl
    rng = np.random.default_rng(9)
    phi0 = rng.standard_normal(sampling.fiber_dim) * (1 + 0j)
    X = sampling.base_array[10]
    got = reconstruct_pointwise_operator(sampling, action.group.identity(), X, phi0)
    assert np.max(np.abs(got - phi0)) <= 1e-14


def test_reconstruct_pointwise_matches_direct(weyl):
    action, sampling = weyl
    rng = np.random.default_rng(10)
    # interior samples, so one lattice step cannot leave the window
    interior = np.nonzero(
        (np.max(np.abs(sampling.steps[:, :2]), axis=1) <= 4)
        & (np.abs(sampling.steps[:, 2]) <= 50))[0]
    for _ in range(20):
        idx = int(rng.choice(interior))
        X = sampling.base_array[idx]
        steps = rng.integers(-1, 2, size=3)
        g = lattice_element(sampling, steps)
        phi0 = rng.standard_normal(sampling.fiber_dim) \
            + 1j * rng.standard_normal(sampling.fiber_dim)
        got = reconstruct_pointwise_operator(sampling, g, X, phi0)
        direct = action.fiber_matrix(g) @ phi0
        assert np.max(np.abs(got - direct)) <= 1e-10


def test_reconstruct_pointwise_zero(weyl):
    action, sampling = weyl
    X = sampling.base_array[4]
    g = lattice_element(sampling, [1, 0, 0])
    got = reconstruct_pointwise_operator(sampling, g, X,
                                         np.zeros(sampling.fiber_dim))
    assert np.max(np.abs(got)) == 0.0



# ---------------------------------------------------------------------------
# support rows against a dense numpy oracle
# ---------------------------------------------------------------------------

def assert_same_bits(a, b):
    """Bitwise equality up to the sign of a zero: a dense product or scaling
    of a zero row may give -0.0 where a section holds +0.0 off its rows,
    and adding +0.0 erases that sign."""
    assert (np.asarray(a) + 0.0).tobytes() == (np.asarray(b) + 0.0).tobytes()


def assert_rows_hold(psi):
    """``rows`` are sorted, distinct and in range, and the block holds one
    row of fiber values per row."""
    rows = psi.rows
    assert np.all(np.diff(rows) > 0)
    assert rows.size == 0 or 0 <= rows[0] <= rows[-1] < len(psi.sampling)
    assert psi.block.shape == (len(rows), psi.sampling.fiber_dim)


def dense_transform(sampling, g, values):
    """Oracle: U_g applied to the values at every sample that stays in the
    window, placed at its image ``Transport.target``."""
    transport = sampling.transport(g)
    stays = np.flatnonzero(transport.target >= 0)
    out = np.zeros_like(values)
    out[transport.target[stays]] = values[stays] @ transport.fiber.T
    return out


@pytest.fixture(scope="module")
def weyl_catalog():
    """The catalog heisenberg-weyl orbit lattice (20,449 points) and its
    first section-suite probe."""
    scn = load_scenario("heisenberg-weyl")
    action = scn.build_action()[0]
    sampling = scn.build_sampling(action)
    psi = smooth_probe_section(sampling, scn.rng(), scn.max_degree,
                               scn.probe_size("sections"))
    return action, sampling, psi


def _row_sections(action, sampling, psi):
    """A one-row delta, a two-row section, ``psi`` and ``psi`` on every
    sample."""
    rng = np.random.default_rng(11)
    middle = sampling.identity_index()
    value = rng.standard_normal(sampling.fiber_dim) + 1j * rng.standard_normal(sampling.fiber_dim)
    one = delta_section(sampling, middle, value)
    two = Section(sampling, rng.standard_normal((2, sampling.fiber_dim)),
                  rows=np.array([middle, middle + 1]))
    return [one, two, psi, Section(sampling, psi.values)]


def test_probe_and_delta_sections_record_their_rows(weyl, weyl_catalog):
    action, sampling, psi = weyl_catalog
    assert len(psi.rows) == np.count_nonzero(psi.values.any(axis=1)) == 627
    for sec in _row_sections(action, sampling, psi):
        assert_rows_hold(sec)
    assert delta_section(sampling, -1, np.ones(sampling.fiber_dim)).rows[0] == len(sampling) - 1


@pytest.mark.parametrize("index", [20449, -20450])
def test_delta_section_refuses_an_index_outside_the_samples(weyl_catalog, index):
    _, sampling, _ = weyl_catalog
    assert len(sampling) == 20449
    with pytest.raises(InputError, match="sample index"):
        delta_section(sampling, index, np.ones(sampling.fiber_dim))


@pytest.mark.parametrize("value", [1.0, np.ones(3), np.ones((1, 18))],
                         ids=["scalar", "short", "row-matrix"])
def test_delta_section_refuses_a_value_that_is_not_one_fiber_vector(weyl, value):
    _, sampling = weyl
    with pytest.raises(InputError, match="delta value"):
        delta_section(sampling, 0, value)


def test_rows_are_stored_as_given_and_every_sample_when_omitted(weyl):
    _, sampling = weyl
    rows = np.arange(len(sampling) // 2 + 1)
    block = np.ones((len(rows), sampling.fiber_dim))
    given = Section(sampling, block, rows=rows)
    assert given.rows is rows and given.block.shape == block.shape
    assert not np.any(given.values[len(rows):])
    dense_values = np.zeros((len(sampling), sampling.fiber_dim), dtype=complex)
    omitted = Section(sampling, dense_values)
    assert omitted.rows is sampling.all_rows
    assert np.array_equal(omitted.rows, np.arange(len(sampling)))
    assert not omitted.rows.flags.writeable
    assert omitted.values is omitted.block
    with pytest.raises(InputError, match="wrong shape"):
        Section(sampling, block, rows=rows[1:])


def test_row_transform_is_the_dense_transform(weyl_catalog):
    """On the catalog heisenberg-weyl lattice, a one-row delta, a two-row
    section and a probe (compact and on every sample) transform by the
    identity and by each test element to the dense oracle bit for bit, and
    the result's rows hold."""
    action, sampling, psi = weyl_catalog
    group = action.group
    for sec in _row_sections(action, sampling, psi):
        for g in [group.identity()] + _lattice_elements(sampling):
            moved = section_transform(action, g, sec)
            assert_same_bits(moved.values, dense_transform(sampling, g, sec.values))
            assert_rows_hold(moved)
            if len(sec.rows) < len(sampling):
                assert len(moved.rows) == len(sec.rows)


def test_row_combinations_are_the_dense_combinations(weyl_catalog):
    """Sums, differences and scalings on the union of the rows equal numpy
    on the dense values bit for bit; an operand on every sample makes the
    result lie on every sample."""
    action, sampling, psi = weyl_catalog
    moved = section_transform(action, _lattice_elements(sampling)[3], psi)
    one, _, _, full = _row_sections(action, sampling, psi)
    for a, b in ((psi, moved), (psi, one), (moved, psi), (psi, psi), (one, full)):
        # named: numpy may compute a product with an unnamed temporary in
        # place, through a loop that rounds differently
        va, vb = a.values, b.values
        for got, reference in ((a + b, va + vb), (a - b, va - vb),
                               ((0.3 - 1.7j) * a, (0.3 - 1.7j) * va),
                               (a * 2.5, va * 2.5)):
            assert_same_bits(got.values, reference)
            assert_rows_hold(got)
    union = psi + moved
    assert np.array_equal(union.rows, np.union1d(psi.rows, moved.rows))
    assert (psi + full).rows is sampling.all_rows


def test_row_multiply_pairing_and_norm_are_the_dense_ones(weyl_catalog):
    action, sampling, psi = weyl_catalog
    g = _lattice_elements(sampling)[2]
    moved = section_transform(action, g, psi)
    for alpha in (smooth_alpha(), pullback(action, g, smooth_alpha())):
        scale = alpha.eval_rows(sampling.base_array)
        for sec in _row_sections(action, sampling, psi) + [moved]:
            got = multiply(alpha, sec)
            assert np.array_equal(got.rows, sec.rows)
            values = sec.values
            assert_same_bits(got.values, scale[:, None] * values)
    for sec in _row_sections(action, sampling, psi) + [moved, moved - psi]:
        values = sec.values
        assert sec.norm == np.max(np.linalg.norm(values, axis=1))
        for other in (psi, moved):
            other_values = other.values
            assert_same_bits(pairing(sec, other).values,
                             np.sum(np.conj(values) * other_values, axis=1))
            assert_same_bits(pairing(other, sec).values,
                             np.sum(np.conj(other_values) * values, axis=1))
    empty = Section(sampling, np.zeros((0, sampling.fiber_dim)),
                    rows=np.array([], dtype=np.int64))
    assert empty.norm == 0.0
    assert not np.any(empty.values)


@pytest.mark.parametrize("name", [n for n in catalog_names()
                                  if "sections" in load_scenario(n).suites])
def test_row_pointwise_reconstruction_is_the_dense_one(name):
    """The one-row delta of the pointwise reconstruction moves bit for bit
    as the dense oracle moves a delta over every sample, on every
    sections-suite catalog lattice."""
    scn = load_scenario(name)
    action = scn.build_action()[0]
    sampling = scn.build_sampling(action)
    rng = np.random.default_rng(12)
    for g in _lattice_elements(sampling):
        target = sampling.transport(g).target
        for idx in rng.choice(np.nonzero(target >= 0)[0], size=3):
            phi0 = rng.standard_normal(sampling.fiber_dim) \
                + 1j * rng.standard_normal(sampling.fiber_dim)
            values = np.zeros((len(sampling), sampling.fiber_dim), dtype=complex)
            values[idx] = phi0
            got = reconstruct_pointwise_operator(sampling, g, sampling.base_array[int(idx)],
                                                 phi0)
            assert got.tobytes() == dense_transform(sampling, g, values)[target[idx]].tobytes()


@pytest.mark.parametrize("name", ["heisenberg-weyl", "translations-r2"])
def test_section_suite_keeps_values_inside_rows(name, monkeypatch):
    """Every section built in a section-suite run (reduced to one probe on
    13 x 13 x 49 points for heisenberg-weyl) has sorted, in-range rows and
    one block row per row, and the run builds sections on compact rows and
    on every sample."""
    built = []
    post_init = Section.__post_init__

    def recording(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(Section, "__post_init__", recording)
    scn = load_scenario(name)
    if name == "heisenberg-weyl":
        scn = replace(scn, lattice=[dict(scn.lattice[0]), dict(scn.lattice[1]),
                                    dict(scn.lattice[2], lo=-24, hi=24)],
                      probes=dict(scn.probes, count=1))
    verify.section_checks(scn, scn.build_action()[0], scn.rng())
    compact = [s for s in built if len(s.rows) < len(s.sampling)]
    assert len(compact) > 100 and len(compact) < len(built)
    for sec in built:
        assert_rows_hold(sec)
