"""Lie group/algebra layer: exponential, bracket, adjoint, factorization,
unit Haar density of the second-kind chart."""

import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from scbundle import groups, scenarios
from scbundle.errors import ClosureError, InputError, OutOfDomainError
from scbundle.groups import adjoint, bracket, exp, factorize_second_kind, get_group

ALL_GROUPS = ["real_line", "translations_r2", "heisenberg", "so2"]


def taylor_exp(M, terms=60):
    """Independent scaling-and-squaring Taylor oracle for the matrix
    exponential (machine precision for the small matrices used here)."""
    M = np.asarray(M, dtype=complex)
    s = max(0, int(np.ceil(np.log2(max(np.linalg.norm(M, 2), 1e-30)))) + 1)
    X = M / 2 ** s
    out = np.eye(M.shape[0], dtype=complex)
    term = np.eye(M.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ X / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


# ---------------------------------------------------------------------------
# exp
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gid", ALL_GROUPS)
def test_exp_zero_is_identity(gid):
    g = get_group(gid)
    A = g.algebra(0.3 * np.arange(1, g.dim + 1))
    assert np.allclose(exp(A, 0.0).matrix, np.eye(g.rep_dim), atol=1e-14)


def test_exp_heisenberg_single_offdiagonal():
    g = get_group("heisenberg")
    X = g.algebra([1.0, 0.0, 0.0])
    got = exp(X, 1.0).matrix
    assert np.allclose(got, taylor_exp(X.matrix), atol=1e-14)
    expected = np.eye(3)
    expected[0, 1] = 1.0
    assert np.allclose(got, expected, atol=1e-14)


def test_exp_so2_quarter_turn():
    g = get_group("so2")
    J = g.algebra([1.0])
    got = exp(J, np.pi / 2).matrix
    assert np.allclose(got, taylor_exp(J.matrix * np.pi / 2), atol=1e-13)
    assert np.allclose(got, [[0.0, -1.0], [1.0, 0.0]], atol=1e-13)


@pytest.mark.parametrize("gid", ALL_GROUPS)
def test_exp_one_parameter_property(gid):
    g = get_group(gid)
    rng = np.random.default_rng(11)
    A = g.algebra(0.4 * rng.standard_normal(g.dim))
    for s, t in [(0.3, 0.5), (-0.2, 0.7), (1.1, -0.4)]:
        lhs = exp(A, s + t).matrix
        rhs = exp(A, s).matrix @ exp(A, t).matrix
        assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_exp_rejects_nonfinite_parameter():
    g = get_group("so2")
    with pytest.raises(InputError):
        exp(g.algebra([1.0]), np.nan)


# Each group's closed-form exponential against scipy's Pade scaling-and-
# squaring expm, in ulps of max(1, |exp X|).  expm carries its own rounding
# error, which grows with the norm of X: on rotations it reaches 12.5 ulps at
# |theta| <= pi and about 300 at the so2 catalog's 6.15 rad, where cos/sin
# stay within half an ulp of the exact value.  So rotations are compared on
# the chart domain [-pi, pi], catalog nodes reduced there by the period, and
# allowed 16 ulps; the unipotent groups are allowed 4.
ULP = np.finfo(float).eps
ULP_LIMIT = {"real_line": 4, "translations_r2": 4, "heisenberg": 4, "so2": 16}


def _ulps(got, expected) -> float:
    return float(np.max(np.abs(got - expected)) / max(1.0, np.max(np.abs(expected))) / ULP)


def _catalog_lattice_coords():
    """(group id, second-kind coordinates of lattice nodes) of every catalog
    lattice: each node of each axis alone, then 200 random nodes."""
    rng = np.random.default_rng(17)
    out = []
    for name in scenarios.catalog_names():
        scn = scenarios.load_scenario(name)
        for spec in (scn.lattice, scn.generator_lattice):
            if not spec:
                continue
            nodes = [ax.indices() * ax.spacing for ax in scn._axes(spec)]
            coords = [np.eye(len(nodes))[k] * t for k, axis in enumerate(nodes) for t in axis]
            coords += [np.array([rng.choice(axis) for axis in nodes]) for _ in range(200)]
            out.append((scn.group_id, np.array(coords)))
    return out


def _to_chart_domain(gid, coords):
    g = get_group(gid)
    for axis, period in g.periodic_axes.items():
        coords[:, axis] = (coords[:, axis] + period / 2) % period - period / 2
    return coords


def test_closed_form_exp_matches_expm_on_catalog_lattices():
    seen = set()
    for gid, coords in _catalog_lattice_coords():
        g = get_group(gid)
        seen.add(gid)
        for t in _to_chart_domain(gid, coords):
            X = np.tensordot(t, g.basis, axes=1)
            assert _ulps(g.exp_matrix(X), scipy.linalg.expm(X)) <= ULP_LIMIT[gid], (gid, t)
    assert seen == set(ALL_GROUPS)


@pytest.mark.parametrize("gid", ALL_GROUPS)
def test_closed_form_exp_matches_expm_at_random_elements(gid):
    """Coordinates up to 4, or on [-pi, pi] for so2."""
    g = get_group(gid)
    bound = np.pi if gid == "so2" else 4.0
    for t in np.random.default_rng(29).uniform(-bound, bound, (500, g.dim)):
        X = np.tensordot(t, g.basis, axes=1)
        assert _ulps(g.exp_matrix(X), scipy.linalg.expm(X)) <= ULP_LIMIT[gid], t


def test_unipotent_exp_is_the_whole_series():
    """X^3 = 0 on the heisenberg algebra, so exp(X) is I + X + X^2/2 exactly:
    exp of (a, b, c) reads a, b and c + ab/2, each rounded once."""
    g = get_group("heisenberg")
    for a, b, c in np.random.default_rng(31).uniform(-4, 4, (200, 3)):
        got = g.exp_matrix(np.tensordot([a, b, c], g.basis, axes=1))
        assert got.tolist() == [[1.0, a, c + 0.5 * (a * b)], [0.0, 1.0, b], [0.0, 0.0, 1.0]]


def test_so2_exp_near_the_half_turn():
    """At and around +-pi, where the chart wraps: expm agrees to 4 ulps and
    the chart gives the angle back modulo 2 pi."""
    g = get_group("so2")
    near = [np.pi, np.nextafter(np.pi, 0), np.nextafter(np.pi, 4), np.pi - 1e-9,
            np.pi + 1e-9, np.pi - 1e-5, np.pi + 1e-5]
    for theta in near + [-x for x in near]:
        X = theta * g.basis[0]
        got = g.exp_matrix(X)
        assert _ulps(got, scipy.linalg.expm(X)) <= 4, theta
        back = g.coords_batch(got)[0]
        assert abs((back - theta + np.pi) % (2 * np.pi) - np.pi) <= 4 * ULP * np.pi, theta


# ---------------------------------------------------------------------------
# bracket / adjoint
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gid", ALL_GROUPS)
def test_bracket_antisymmetry_on_self(gid):
    g = get_group(gid)
    A = g.algebra(np.linspace(0.2, 1.0, g.dim))
    assert np.linalg.norm(bracket(A, A).coords) <= 1e-14


def test_bracket_heisenberg_central():
    g = get_group("heisenberg")
    X, P = g.algebra([1, 0, 0]), g.algebra([0, 1, 0])
    got = bracket(X, P)
    direct = X.matrix @ P.matrix - P.matrix @ X.matrix
    assert np.allclose(got.matrix, direct)
    assert np.allclose(got.coords, [0.0, 0.0, 1.0], atol=1e-14)


def test_bracket_closure_error_outside_basis():
    # A two-element "algebra" that is not closed: {E12, E13} in gl(3).
    basis = np.zeros((2, 3, 3))
    basis[0, 0, 1] = 1.0
    basis[1, 1, 2] = 1.0
    g = groups.LieGroup("open_algebra_test", basis,
                        residual_fn=lambda m: 0.0, coords_fn=lambda ms: ms[..., 0, 1:],
                        exp_fn=scipy.linalg.expm)
    A, B = g.algebra([1, 0]), g.algebra([0, 1])
    with pytest.raises(ClosureError):
        bracket(A, B)


@pytest.mark.parametrize("gid", ALL_GROUPS)
def test_jacobi_identity_on_basis_triples(gid):
    g = get_group(gid)
    basis = [g.algebra(np.eye(g.dim)[k]) for k in range(g.dim)]
    for A, B, C in itertools.product(basis, repeat=3):
        s = (bracket(A, bracket(B, C)).matrix
             + bracket(B, bracket(C, A)).matrix
             + bracket(C, bracket(A, B)).matrix)
        assert np.linalg.norm(s) <= 1e-10


def test_adjoint_identity_case():
    g = get_group("heisenberg")
    A = g.algebra([0.3, -0.7, 0.2])
    got = adjoint(g.identity(), A)
    assert np.allclose(got.coords, A.coords, atol=1e-14)


def test_adjoint_derivative_matches_bracket():
    # d/dt h(t) A h(t)^-1 at t=0 equals [B, A]; central differences, step 1e-5.
    g = get_group("heisenberg")
    A = g.algebra([0.4, 0.1, -0.3])
    B = g.algebra([-0.2, 0.8, 0.5])
    h_step = 1e-5
    plus = adjoint(exp(B, h_step), A).coords
    minus = adjoint(exp(B, -h_step), A).coords
    fd = (plus - minus) / (2 * h_step)
    assert np.linalg.norm(fd - bracket(B, A).coords) <= 1e-8


def test_adjoint_abelian_group_trivial():
    g = get_group("so2")
    A = g.algebra([0.9])
    got = adjoint(exp(A, 1.234), A)
    assert np.allclose(got.coords, A.coords, atol=1e-12)


@pytest.mark.parametrize("gid", ["heisenberg"])
def test_adjoint_composition(gid):
    g = get_group(gid)
    rng = np.random.default_rng(5)
    A = g.algebra(rng.standard_normal(g.dim) * 0.5)
    g1 = exp(g.algebra(rng.standard_normal(g.dim) * 0.4))
    g2 = exp(g.algebra(rng.standard_normal(g.dim) * 0.4))
    lhs = adjoint(g1 @ g2, A).coords
    rhs = adjoint(g1, adjoint(g2, A)).coords
    assert np.linalg.norm(lhs - rhs) <= 1e-10


# ---------------------------------------------------------------------------
# second-kind factorization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gid", ALL_GROUPS)
def test_factorize_identity(gid):
    g = get_group(gid)
    t = factorize_second_kind(g.identity())
    assert np.allclose(t, 0.0, atol=1e-12)


@pytest.mark.parametrize("gid", ALL_GROUPS)
def test_factorize_first_axis(gid):
    g = get_group(gid)
    B1 = g.algebra(np.eye(g.dim)[0])
    t = factorize_second_kind(exp(B1, 0.37))
    expected = np.zeros(g.dim)
    expected[0] = 0.37
    assert np.allclose(t, expected, atol=1e-12)


def test_factorize_heisenberg_mixed_product():
    g = get_group("heisenberg")
    X, P = g.algebra([1, 0, 0]), g.algebra([0, 1, 0])
    el = exp(X, 0.8) @ exp(P, -0.55)
    t = factorize_second_kind(el)
    recomposed = g.compose_exps(t)
    assert np.linalg.norm(recomposed - el.matrix) <= 1e-12


@pytest.mark.parametrize("gid", ALL_GROUPS)
def test_factorize_random_recomposition(gid):
    g = get_group(gid)
    rng = np.random.default_rng(42)
    for _ in range(100):
        coords = rng.uniform(-0.5, 0.5, g.dim)
        el = exp(g.algebra(coords))
        t = factorize_second_kind(el)
        assert np.linalg.norm(g.compose_exps(t) - el.matrix) <= 1e-9


def test_factorize_refuses_coordinates_that_do_not_recompose():
    """A chart whose coordinates do not recompose the element (here the
    line's, doubled) is refused rather than trusted."""
    line = get_group("real_line")
    g = groups.LieGroup("doubled_chart_test", line.basis,
                        residual_fn=line.manifold_residual,
                        coords_fn=lambda ms: 2.0 * line.coords_batch(ms),
                        exp_fn=line.exp_matrix)
    assert factorize_second_kind(g.identity()) == pytest.approx([0.0])
    with pytest.raises(OutOfDomainError, match="factorization residual"):
        factorize_second_kind(exp(g.algebra([0.3])))


@given(a=st.floats(-0.8, 0.8), b=st.floats(-0.8, 0.8), c=st.floats(-0.8, 0.8))
@settings(max_examples=25, deadline=None)
def test_factorize_heisenberg_roundtrip_property(a, b, c):
    g = get_group("heisenberg")
    el = exp(g.algebra([a, b, c]))
    t = factorize_second_kind(el)
    assert np.linalg.norm(g.compose_exps(t) - el.matrix) <= 1e-12


# ---------------------------------------------------------------------------
# unit Haar density of the second-kind chart
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gid", groups.builtin_group_ids())
def test_left_translation_has_unit_jacobian_in_the_chart(gid):
    """Left translation by g has Jacobian determinant 1 in the second-kind
    chart, so the chart's Lebesgue measure is the left Haar measure and
    ``generators.lattice_kernel`` weighs its nodes by spacing volume alone.
    The Jacobian of t -> coords(g exp(B_1 t_1) ... exp(B_n t_n)) is read by
    central differences; g and t stay small, so the so2 angle does not
    wrap."""
    G = get_group(gid)
    rng = np.random.default_rng(11)
    h = 1e-5
    for _ in range(10):
        g = G.compose_exps(rng.uniform(-0.4, 0.4, G.dim))
        t = rng.uniform(-0.4, 0.4, G.dim)
        jac = np.stack([(G.coords_batch(g @ G.compose_exps(t + h * e))
                         - G.coords_batch(g @ G.compose_exps(t - h * e))) / (2 * h)
                        for e in np.eye(G.dim)], axis=1)
        assert abs(np.linalg.det(jac) - 1.0) <= 1e-8


# ---------------------------------------------------------------------------
# left translation of matrix stacks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gid", ALL_GROUPS)
def test_left_translate_matches_einsum_bitwise(gid):
    """Same bits as einsum("ab,jbc->jac") on real matrices, signed zeros
    included: with a positive g, the planted -0.0 entries give all-(-0.0)
    products whose sum is -0.0 unless it starts from +0.0, as einsum's does.
    Stacks of 40 rows and of the catalog heisenberg sizes (2,025 generator
    and 8,281 orbit points); each result, a strided view, is translated
    again, as a pulled field's points are."""
    group = get_group(gid)
    rng = np.random.default_rng(3)
    d = group.rep_dim
    g, h = rng.uniform(0.1, 1.0, (2, d, d))
    for rows in (40, 2025, 8281):
        algebra = np.tensordot(rng.uniform(-0.5, 0.5, (rows, group.dim)), group.basis, axes=1)
        mats = scipy.linalg.expm(algebra)
        mats[:4] = -0.0
        mats[4:8, :, 0] = -0.0
        expected = np.einsum("ab,jbc->jac", g, mats)
        got = groups.left_translate(g, mats)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        got[:4], expected[:4] = -0.0, -0.0
        again = groups.left_translate(h, got)
        assert again.tobytes() == np.einsum("ab,jbc->jac", h, expected).tobytes()
    first_term = g[None, :, 0, None] * mats[:, None, 0, :]
    no_zero_start = sum((g[None, :, b, None] * mats[:, None, b, :] for b in range(1, d)),
                        first_term)
    assert no_zero_start.tobytes() != np.einsum("ab,jbc->jac", g, mats).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scaled_square_radius_matches_numpy_sum_bitwise(n):
    """The column-by-column sum has the bits of numpy's reduction for the
    one to three axes of the built-in groups, per-axis and scalar scales."""
    rng = np.random.default_rng(5)
    t = rng.standard_normal((8281, n)) * rng.uniform(1e-3, 1e3, (8281, n))
    for scale in (rng.uniform(0.05, 3.0, n), 0.35):
        expected = np.sum((t / scale) ** 2, axis=-1)
        got = groups.scaled_square_radius(t, scale)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bump_at_four_times_the_scale_reads_a_sixteenth_of_the_radius(n):
    """The bump of radius 4 s is, bit for bit, the bump of the scaled square
    radius at s divided by 16: 4 and 16 are powers of two, so the gentle
    probe reads one scaled square radius for its Gaussian and its bump.
    The draw reaches past the support, so zeros and the edge are covered."""
    rng = np.random.default_rng(7)
    t = rng.standard_normal((4096, n)) * rng.uniform(0.1, 3.0, (4096, n))
    for s in (rng.uniform(0.05, 1.5, n), 0.35):
        wide = groups.smooth_bump(groups.scaled_square_radius(t, 4 * np.asarray(s)))
        narrow = groups.smooth_bump(groups.scaled_square_radius(t, s) / 16)
        assert np.any(wide == 0.0) and np.any(wide > 0.0)
        assert wide.tobytes() == narrow.tobytes()
