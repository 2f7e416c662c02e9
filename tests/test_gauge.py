"""Gauge equivalence, compensator relations, and invariant sections."""

import numpy as np
import pytest

from scbundle.actions import metaplectic_action, so2_rotor_action
from scbundle.errors import ConsistencyError, PreconditionError
from scbundle.gauge import (GaugeBundle, compensator_relations_check,
                            equivalence_relation_residuals, gauge_equivalent,
                            phase_shift_gauge, u1_phase_gauge)
from scbundle.groups import exp as gexp
from scbundle.groups import get_group

DIM = 14
ANCHOR = np.array([0.0, 0.0, 1.0])
J = get_group("so2").algebra([1.0])


def random_fiber(seed=0, normalize=True):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(DIM) + 1j * rng.standard_normal(DIM)
    return f / np.linalg.norm(f) if normalize else f


# ---------------------------------------------------------------------------
# gauge equivalence
# ---------------------------------------------------------------------------

def test_equivalent_to_itself():
    f = random_fiber()
    alpha, res = gauge_equivalent(u1_phase_gauge(), (ANCHOR, f), (ANCHOR, f))
    assert abs(alpha) <= 1e-12 and res <= 1e-12


def test_u1_orbit_point_recovers_phase():
    f = random_fiber()
    theta = 1.234
    z2 = (ANCHOR, np.exp(1j * theta) * f)
    alpha, res = gauge_equivalent(u1_phase_gauge(), (ANCHOR, f), z2)
    assert abs(alpha - theta) <= 1e-12
    assert res <= 1e-12


def test_generic_points_not_equivalent():
    f1, f2 = random_fiber(1), random_fiber(2)
    _, res = gauge_equivalent(u1_phase_gauge(), (ANCHOR, f1), (ANCHOR, f2))
    assert res > 0.1


@pytest.mark.parametrize("gauge", [u1_phase_gauge(), phase_shift_gauge()])
def test_equivalence_relation_properties(gauge):
    f = random_fiber(4)
    res = equivalence_relation_residuals(gauge, (ANCHOR, f), (0.6, -1.1))
    assert res["reflexive"] <= 1e-8
    assert res["symmetric"] <= 1e-8
    assert res["transitive"] <= 1e-8


def test_equivariance_of_images():
    # gauge-equivalent points stay equivalent under the group action
    action, _ = metaplectic_action(DIM, drift=True)
    gauge = phase_shift_gauge()
    f = random_fiber(5)
    alpha = 0.9
    z1 = (ANCHOR, f)
    z2 = (gauge.base_rows(alpha, ANCHOR), gauge.fiber_apply(alpha, f))
    g = gexp(J, 1.3)
    im1 = (action.base_points(g, z1[0]), action.fiber_matrix(g) @ z1[1])
    im2 = (action.base_points(g, z2[0]), action.fiber_matrix(g) @ z2[1])
    _, res = gauge_equivalent(gauge, im1, im2)
    assert res <= 1e-8


# ---------------------------------------------------------------------------
# compensator relations
# ---------------------------------------------------------------------------

def metaplectic_args(drift):
    # g1 g2 winds past a full turn, so the composition compensator carries
    # the anomaly
    action, family = metaplectic_action(DIM, drift=drift)
    return action, gexp(J, 1.1), gexp(J, 1.2 * np.pi), gexp(J, 0.9 * np.pi)


def test_compensators_trivial_for_honest_action():
    # an honest action with the gauge reduced to its identity element gives
    # strict group-law residuals
    action, _ = so2_rotor_action(DIM)
    f = random_fiber(6)
    recs = compensator_relations_check(
        action, u1_phase_gauge(), gexp(J, 1.1), gexp(J, 2.0), gexp(J, 2.5),
        0.0, ANCHOR, f)
    assert list(recs) == ["28", "29", "30", "31"]
    for res, compensator in recs.values():
        assert res <= 1e-10
        assert abs(compensator) % (2 * np.pi) == pytest.approx(0.0, abs=1e-8)


def test_compensators_metaplectic_pure_phase_gauge():
    action, g, g1, g2 = metaplectic_args(drift=False)
    f = random_fiber(7)
    recs = compensator_relations_check(action, u1_phase_gauge(), g, g1, g2,
                                       0.7, ANCHOR, f)
    assert all(res <= 1e-6 for res, _ in recs.values())
    # the composing pair wraps the circle: the compensator is the anomaly
    # phase pi from the half-integer spectrum
    _, gamma = recs["31"]
    assert abs(abs(gamma) - np.pi) <= 1e-8


def test_compensators_metaplectic_combined_gauge():
    action, g, g1, g2 = metaplectic_args(drift=True)
    f = random_fiber(8)
    recs = compensator_relations_check(action, phase_shift_gauge(), g, g1, g2,
                                       0.7, ANCHOR, f)
    assert all(res <= 1e-6 for res, _ in recs.values())
    # base bookkeeping resolves the same anomaly through the action shift
    _, gamma = recs["29"]
    assert abs(abs(gamma) - np.pi) <= 1e-8


def test_weaker_condition_demonstration():
    # the strict composition law fails by exactly 2 on normalized probes at a
    # full period, while the gauge relations hold to machine precision
    action, _, g1, g2 = metaplectic_args(drift=False)
    f = random_fiber(9)
    U_pi = action.fiber_matrix(gexp(J, np.pi))
    strict = np.linalg.norm(U_pi @ (U_pi @ f) - f)
    assert abs(strict - 2.0) <= 1e-3
    recs = compensator_relations_check(
        action, u1_phase_gauge(), gexp(J, 1.0), gexp(J, np.pi), gexp(J, np.pi),
        0.3, ANCHOR, f)
    assert all(res <= 1e-6 for res, _ in recs.values())


# ---------------------------------------------------------------------------
# invariant sections on the enlarged orbit
# ---------------------------------------------------------------------------

def metaplectic_bundle():
    _, family = metaplectic_action(DIM, drift=True)
    return GaugeBundle(family, phase_shift_gauge(), ANCHOR,
                       theta_nodes=48, gauge_step=np.pi / 8, gauge_window=10)


@pytest.fixture(scope="module")
def bundle():
    return metaplectic_bundle()


def smooth_fundamental(bundle, seed=11):
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((bundle.theta_nodes, DIM)) \
        + 1j * rng.standard_normal((bundle.theta_nodes, DIM))
    F[:, 8:] = 0.0
    return F


def test_invariant_build_phase_transport(bundle):
    F = smooth_fundamental(bundle)
    vals = bundle.build_invariant(F)
    assert bundle.invariance_residual(vals) <= 1e-12


def test_stabilizer_consistency_counterexample():
    # a gauge that fixes every base point but rotates fibers admits only the
    # zero invariant section
    _, family = metaplectic_action(DIM, drift=True)
    gb = GaugeBundle(family, u1_phase_gauge(), ANCHOR,
                     theta_nodes=24, gauge_step=np.pi / 8, gauge_window=4)
    with pytest.raises(ConsistencyError):
        gb.build_invariant(smooth_fundamental(gb))
    zero = np.zeros((24, DIM), dtype=complex)
    assert gb.norm(gb.build_invariant(zero)) == 0.0


def test_gauge_transform_identity(bundle):
    vals = bundle.build_invariant(smooth_fundamental(bundle))
    out = bundle.gauge_transform(0, vals)
    assert bundle.norm(out - vals) <= 1e-12


def test_gauge_transform_preserves_invariance_and_norm(bundle):
    vals = bundle.build_invariant(smooth_fundamental(bundle))
    out = bundle.gauge_transform(7, vals)
    assert bundle.invariance_residual(out) <= 1e-8
    assert abs(bundle.norm(out) - bundle.norm(vals)) <= 1e-8


def test_gauge_transform_group_law_with_wrap(bundle):
    vals = bundle.build_invariant(smooth_fundamental(bundle))
    two_step = bundle.gauge_transform(30, bundle.gauge_transform(25, vals))
    one_step = bundle.gauge_transform(55, vals)
    assert bundle.norm(two_step - one_step) <= 1e-6


def test_gauge_transform_descends_to_circle(bundle):
    # the lifted flow depends on the angle only mod 2 pi on invariant
    # sections: the anomaly phase cancels through the invariance condition
    vals = bundle.build_invariant(smooth_fundamental(bundle))
    assert bundle.norm(bundle.gauge_transform(55, vals)
                       - bundle.gauge_transform(55 - 48, vals)) <= 1e-6
    assert bundle.norm(bundle.gauge_transform(48, vals) - vals) <= 1e-6


def test_gauge_transform_rejects_noninvariant(bundle):
    vals = bundle.build_invariant(smooth_fundamental(bundle))
    broken = vals.copy()
    broken[3, 1] *= np.exp(0.5j)
    with pytest.raises(PreconditionError):
        bundle.gauge_transform(3, broken)


def test_gauge_invariant_multiplication_commutes(bundle):
    # gauge-invariant base functions (no dependence on the shifted action
    # coordinate) commute with the transform exactly as in the plain case
    vals = bundle.build_invariant(smooth_fundamental(bundle))
    rows = bundle.base_rows.reshape(bundle.theta_nodes,
                                    bundle.gauge_indices.size, -1)
    alpha = np.exp(1j * rows[:, :, 2]) * (1 + 0.3 * rows[:, :, 1])  # f(P, Q)
    m = 9
    lhs = bundle.gauge_transform(m, alpha[:, :, None] * vals)
    pulled = np.roll(alpha, m, axis=0)   # alpha(u_{g^-1} Y) on the theta grid
    rhs = pulled[:, :, None] * bundle.gauge_transform(m, vals)
    assert bundle.norm(lhs - rhs) <= 1e-10


# ---------------------------------------------------------------------------
# the grid index and the residual memo
# ---------------------------------------------------------------------------

def state_keys(rows):
    """Integer keys of state rows: rows that agree to 1e-9 in every
    coordinate share a key."""
    return np.round(np.asarray(rows) / 1e-9).astype(np.int64)


def unique_grid_indices(bundle, rows):
    """The reference index: one np.unique over the grid's state keys stacked
    on those of ``rows``; the first grid index with a row's key, -1 for a
    key off the grid."""
    grid = state_keys(bundle.base_rows)
    keys = np.concatenate([grid, state_keys(rows)])
    _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                  return_inverse=True)
    found = first[inverse.reshape(-1)[len(grid):]]
    return np.where(found < len(grid), found, -1)


def source_rows(bundle, m):
    return bundle.flow(-m * bundle.theta_step, bundle.base_rows)


def key_lookup_transform(bundle, m, values):
    """The reference transform: each source found by its state key on the
    grid, and a source off the grid completed through invariance from its
    rotation node's parameter-0 value."""
    U = bundle.family.directions[0].unitary(m * bundle.theta_step)
    n_j = bundle.gauge_indices.size
    src = source_rows(bundle, m)
    flat = unique_grid_indices(bundle, src)
    sources = values.reshape(-1, bundle.dim)[flat]
    off = flat < 0
    i_src = (np.repeat(np.arange(bundle.theta_nodes), n_j)[off] - m) % bundle.theta_nodes
    phase = bundle.gauge.fiber_phase(src[off, 0] - bundle._orbit_rows[i_src, 0])
    sources[off] = np.asarray(phase)[..., None] * values[i_src, n_j // 2]
    return np.matmul(U, sources[:, :, None])[:, :, 0].reshape(values.shape)


@pytest.mark.parametrize("m", [0, 1, 7, 25, 48, 55])
def test_gauge_transform_matches_the_key_lookup(bundle, m):
    """The lattice-step index reads the same sources as the key lookup, bit
    for bit, on a built (read-only) section and on a writeable output."""
    vals = bundle.build_invariant(smooth_fundamental(bundle))
    for values in (vals, bundle.gauge_transform(25, vals)):
        assert np.array_equal(bundle.gauge_transform(m, values),
                              key_lookup_transform(bundle, m, values))
    off = unique_grid_indices(bundle, source_rows(bundle, m)) < 0
    if m not in (0, 48):    # a part turn moves some rows off the gauge window
        assert 0 < np.count_nonzero(off) < len(off)


def flow_one_node_ahead(bundle):
    flow = bundle.flow
    bundle.flow = lambda t, rows: flow(t + bundle.theta_step, rows)


def nudge_p_on_row_100(bundle):
    bundle.base_rows = bundle.base_rows.copy()
    bundle.base_rows[100, 1] += 1e-6


@pytest.mark.parametrize("m", [0, 7])
@pytest.mark.parametrize("defect", [flow_one_node_ahead, nudge_p_on_row_100])
def test_gauge_transform_refuses_points_off_the_enlarged_orbit(defect, m):
    """A source whose P, Q are not its rotation node's is refused, on the
    gauge window as off it."""
    gb = metaplectic_bundle()
    vals = gb.build_invariant(smooth_fundamental(gb))
    defect(gb)
    with pytest.raises(PreconditionError, match="off the enlarged orbit"):
        gb.gauge_transform(m, vals)


def test_invariant_section_is_read_only_and_its_residual_memoised():
    gb = metaplectic_bundle()
    vals = gb.build_invariant(smooth_fundamental(gb))
    assert not vals.flags.writeable
    broken = vals.copy()
    broken[3, 1] *= np.exp(0.5j)
    broken.flags.writeable = False
    for values in (vals, broken):
        fresh = gb.invariance_residual(values.copy())
        assert gb.invariance_residual(values) == fresh
        assert gb.invariance_residual(values) == fresh     # from the memo
    assert gb.invariance_residual(broken) > 0.1
    # the guard reads the memo, and a memoised violation still refuses
    for _ in range(2):
        with pytest.raises(PreconditionError):
            gb.gauge_transform(3, broken)


def test_writeable_arrays_and_views_are_checked_on_every_call(bundle):
    vals = bundle.build_invariant(smooth_fundamental(bundle))
    work = vals.copy()
    view = work.view()
    view.flags.writeable = False
    assert bundle.invariance_residual(work) <= 1e-12
    assert bundle.invariance_residual(view) <= 1e-12
    bundle.gauge_transform(3, work)
    work[3, 1] *= np.exp(0.5j)
    assert bundle.invariance_residual(work) > 0.1
    assert bundle.invariance_residual(view) > 0.1
    with pytest.raises(PreconditionError):
        bundle.gauge_transform(3, work)
