"""Scenario verification suites.

Each suite turns one block of the theory into check records with pinned
tolerances: the Lie layer, the evolution pipeline, the section calculus, the
generator identities, the group-law reconstruction, and the gauge layer.
The library modules only compute residuals; every tolerance and every
refinement-order decision is made here.  The finite-difference checks of a
suite are one table of residuals at one fd step, so each operator is applied
once per step; :func:`_refined` evaluates the table once at each step and is
the one place that pairs a residual record with its ``_order`` record (the
steps, the roundoff floor and the contracted order).  The section suite
likewise transforms each probe once per group element.  Any exception inside
a suite becomes a failing record instead of a crash, and everything is
deterministic given the scenario seed.
"""

from __future__ import annotations

import numpy as np

from . import groups
from .dynamics import (ansatz_error, ansatz_errors, classical_flows,
                       evolution_automorphism, fluctuation_propagator,
                       fluctuation_propagators, step_counts)
from .errors import PreconditionError
from .fiber import unitarity_residual
from .gauge import (compensator_relations_check, equivalence_relation_residuals,
                    gauge_equivalent, u1_phase_gauge)
from .generators import (SmoothingKernel, base_derivative, garding_smooth,
                         generator_apply, identity_suite, lattice_kernel,
                         pairing_residual)
from .groups import bracket, exp as group_exp, factorize_second_kind, left_translate
from .reconstruction import (conjugation_check, exponentiate_generator,
                             group_law_verify, reconstruct_group_operator,
                             word_identity_check)
from .report import CheckRecord, Report
from .scenarios import Scenario
from .sections import (BaseFunction, Section, evaluator_transform,
                       gentle_probe_section, multiply, pairing, pullback,
                       reconstruct_pointwise_operator, section_transform,
                       smooth_probe_section)

__all__ = ["run_verify", "run_convergence", "ConvergenceRow", "ConvergenceTable"]

ORDER_FLOOR = 1e-9     # residuals at the roundoff floor cannot shrink further


def _order_gap(residual: float, refined: float, contracted: float) -> float:
    """How far the refinement falls short of the contracted order (zero when
    saturated at the floor)."""
    if refined <= ORDER_FLOOR:
        return 0.0
    order = np.log2(residual / refined) if refined > 0 else np.inf
    return float(max(0.0, contracted - order))


def _refined(checks, residuals, tau: float) -> list:
    """Records of finite-difference checks read off one residual table per
    step: ``residuals(tk)`` maps each check id to its residual at fd step
    ``tk`` and is evaluated at tau, then at tau/2.  For each ``(check_id,
    anchor, tol, contracted)`` of ``checks``, in order, the residual at tau
    against ``tol`` is followed by its ``<check_id>_order`` record: the
    residual at tau/2 must shrink at the contracted order (``_order_gap``)."""
    table, half = residuals(tau), residuals(tau / 2)
    records = []
    for check_id, anchor, tol, contracted in checks:
        r = table[check_id]
        records += [CheckRecord(check_id, anchor, r, tol),
                    CheckRecord(f"{check_id}_order", anchor,
                                _order_gap(r, half[check_id], contracted), 1e-9)]
    return records


def _monotone_ratio(drifts) -> float:
    """Worst successive ratio of a sequence expected to decrease; exact
    zeros count as perfect decrease."""
    worst = 0.0
    for a, b in zip(drifts, drifts[1:]):
        if b == 0.0:
            continue
        worst = max(worst, np.inf if a == 0.0 else b / a)
    return float(worst)


def _smooth_alpha():
    return BaseFunction(
        batch=lambda rows: np.exp(1j * rows[:, 2]) * (1 + 0.3 * rows[:, 1]))


def _lattice_elements(sampling):
    """Five deterministic small lattice elements for group-law grids."""
    dim = len(sampling.axes)
    patterns = {1: [[1], [-1], [2], [3], [-2]],
                2: [[1, 0], [0, 1], [1, -1], [2, 1], [-1, 2]],
                3: [[1, 0, 0], [0, 1, 0], [1, -1, 2], [2, 1, 0], [0, -2, 1]]}[dim]
    group = sampling.action.group
    out = []
    for pat in patterns:
        coords = np.asarray(pat, dtype=float) * sampling.spacings
        out.append(group.element(group.compose_exps(coords)))
    return out


# ---------------------------------------------------------------------------
# suite: Lie layer
# ---------------------------------------------------------------------------

def lie_checks(scn: Scenario, rng) -> list:
    group = groups.get_group(scn.group_id)
    basis = [group.algebra(np.eye(group.dim)[k]) for k in range(group.dim)]

    worst = 0.0
    for A in basis:
        for B in basis:
            for C in basis:
                s = (bracket(A, bracket(B, C)).matrix
                     + bracket(B, bracket(C, A)).matrix
                     + bracket(C, bracket(A, B)).matrix)
                worst = max(worst, float(np.linalg.norm(s)))
    records = [CheckRecord("lie_jacobi_identity", "Lemma 3.5", worst, 1e-10)]

    worst = 0.0
    for _ in range(100):
        el = group_exp(group.algebra(rng.uniform(-0.5, 0.5, group.dim)))
        t = factorize_second_kind(el)
        worst = max(worst, float(np.linalg.norm(group.compose_exps(t) - el.matrix)))
    records.append(CheckRecord("lie_factorization_roundtrip", "Eq. (25)", worst, 1e-9))

    A = group.algebra(rng.uniform(-0.5, 0.5, group.dim))
    worst = 0.0
    for s, t in ((0.3, 0.5), (-0.2, 0.7)):
        lhs = group_exp(A, s + t).matrix
        rhs = group_exp(A, s).matrix @ group_exp(A, t).matrix
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    records.append(CheckRecord("lie_exp_one_parameter", "Eq. (25)", worst, 1e-10))

    g1 = group_exp(group.algebra(rng.uniform(-0.4, 0.4, group.dim)))
    g2 = group_exp(group.algebra(rng.uniform(-0.4, 0.4, group.dim)))
    lhs = groups.adjoint(g1 @ g2, A).coords
    rhs = groups.adjoint(g1, groups.adjoint(g2, A)).coords
    records.append(CheckRecord("lie_adjoint_composition", "Eq. (18)",
                               float(np.linalg.norm(lhs - rhs)), 1e-10))
    return records


# ---------------------------------------------------------------------------
# suite: evolution pipeline
# ---------------------------------------------------------------------------

def _evolution_law(H, anchor_flow, law_times: list, dt: float, dim: int) -> tuple:
    """Worst base and fiber residuals of u_{t1} u_{t2} = u_{t1 + t2} over all
    pairs of law times, given the anchor's flow to max(t1 + t2).  On the
    step grid every flow from the anchor is a prefix of that flow, every
    flow from a t2 image a prefix of one stacked flow to max t1, and every
    propagator a prefix of the running product along its trajectory."""
    sums = [t1 + t2 for t1 in law_times for t2 in law_times]
    steps = dict(zip(law_times + sums, step_counts(law_times + sums, dt)))
    anchor_counts = sorted(set(steps.values()))
    from_anchor = dict(zip(anchor_counts, fluctuation_propagators(
        H, anchor_flow, dim, anchor_counts)))
    firsts = sorted(set(law_times))
    images = classical_flows(H, anchor_flow.rows[[steps[t2] for t2 in firsts]],
                             max(law_times), dt)
    image_counts = sorted({steps[t1] for t1 in law_times})
    base_worst, fiber_worst = 0.0, 0.0
    for t2, image in zip(firsts, images):
        from_image = dict(zip(image_counts, fluctuation_propagators(
            H, image, dim, image_counts)))
        for t1 in law_times:
            Z = image.rows[steps[t1]]
            Z12 = anchor_flow.rows[steps[t1 + t2]]
            base_worst = max(base_worst, float(np.linalg.norm(Z - Z12)))
            fiber_worst = max(fiber_worst, float(np.linalg.norm(
                from_image[steps[t1]] @ from_anchor[steps[t2]]
                - from_anchor[steps[t1 + t2]])))
    return base_worst, fiber_worst


def dynamics_checks(scn: Scenario, rng) -> list:
    H = scn.build_hamiltonian()
    dim = scn.fiber_dim
    dt = scn.dt
    records = []

    probes = np.array([[0.0, 0.3, 0.7], [0.0, -1.1, 0.2]])
    records.append(CheckRecord("hamiltonian_consistency", "Eq. (1)",
                               H.validate(probes), 1e-6))

    # every flow from a given start, in one call: the anchor to t_final,
    # the fine and three coarse flows of the RK4 order check, and the anchor
    # to the longest sum of law times (zero time without law times)
    t_final = float(scn.setting("dynamics.t_final"))
    law_times = [float(t) for t in scn.setting("dynamics.law_times")]
    X0 = np.array([0.0, 0.0, 1.0])
    starts = [scn.anchor, X0, X0, X0, X0, scn.anchor]
    ends = [t_final, 2.0, 2.0, 2.0, 2.0, 2 * max(law_times, default=0.0)]
    step = [dt, 3.125e-4, 1e-2, 5e-3, 2.5e-3, dt]
    trajectory, fine, *coarse, law_flow = classical_flows(H, starts, ends, step)

    U = fluctuation_propagator(H, trajectory, dim)
    records.append(CheckRecord("fluctuation_unitarity", "Eq. (3b)",
                               unitarity_residual(U), 1e-8))

    modes = int(scn.setting("dynamics.spectrum_modes"))
    if modes:
        expected = np.exp(-1j * t_final * (np.arange(modes) + 0.5))
        got = np.diag(U)[:modes]
        records.append(CheckRecord("oscillator_spectrum_oracle", "Eq. (3b)",
                                   float(np.max(np.abs(got - expected))), 1e-6))

    records.append(CheckRecord("energy_conservation", "Eq. (3a)",
                               trajectory.energy_drift, 1e-8))

    errors = [float(np.linalg.norm(flow.rows[-1] - fine.rows[-1])) for flow in coarse]
    ratios = [errors[k] / errors[k + 1] for k in range(2)]
    deviation = max(max(r / 16.0, 16.0 / r) for r in ratios)
    records.append(CheckRecord("rk4_fourth_order", "Eq. (3a)", deviation, 2.0))

    if law_times:
        base_worst, fiber_worst = _evolution_law(H, law_flow, law_times, dt, dim)
        records.append(CheckRecord("evolution_base_law", "Eq. (5)", base_worst, 1e-8))
        records.append(CheckRecord("evolution_fiber_law", "Eq. (5)", fiber_worst, 1e-6))

    eps_control = scn.setting("dynamics.eps_control")
    if eps_control and scn.hamiltonian["kind"] == "quadratic":
        xs = scn.grid()
        f0 = np.eye(dim)[0].astype(complex)
        err = ansatz_error(H, X0, f0, float(eps_control), 1.0, xs, dt=dt)
        records.append(CheckRecord("ansatz_exact_quadratic", "Eq. (2)", err, 1e-5))
        err0 = ansatz_error(H, X0, f0, float(eps_control), 0.0, xs, dt=dt)
        records.append(CheckRecord("ansatz_zero_time", "Eq. (2)", err0, 1e-10))
    return records


# ---------------------------------------------------------------------------
# suite: section calculus
# ---------------------------------------------------------------------------

def section_checks(scn: Scenario, action, rng) -> list:
    sampling = scn.build_sampling(action)
    radius = scn.probe_size("sections")
    count = int(scn.setting("probes.count"))
    sections = [smooth_probe_section(sampling, rng, scn.max_degree, radius)
                for _ in range(count)]
    elements = _lattice_elements(sampling)
    alpha = _smooth_alpha()

    ident_worst = iso_worst = law_worst = eq10_worst = pair_worst = pos_worst = 0.0
    g = elements[2]
    # the samples that g keeps in the window, and their images
    target = sampling.transport(g).target
    sources = np.flatnonzero(target >= 0)
    identity = action.group.identity()
    # the group-law pairs (g1, g2) by the bytes of g1 g2: commuting pairs
    # share a product, and a product may be the identity or an element
    products = {}
    for g1 in elements:
        for k, g2 in enumerate(elements):
            g12 = g1 @ g2
            products.setdefault(g12.matrix.tobytes(), (g12, []))[1].append((g1, k))
    phi = sections[0]
    for psi in sections:
        # every transform of the probe is computed once: those by the
        # identity and the elements are kept, each further product is
        # dropped after use; T(g, phi) is read from the first probe
        out = section_transform(action, identity, psi)
        moved = [section_transform(action, el, psi) for el in elements]
        kept = {el.matrix.tobytes(): m
                for el, m in zip([identity, *elements], [out, *moved])}
        if psi is phi:
            phi_moved = moved[2]
        ident_worst = max(ident_worst, float(np.max(np.abs((out - psi).block),
                                                     initial=0.0)))
        for m in moved[:3]:
            iso_worst = max(iso_worst, abs(m.norm - psi.norm))
        for key, (g12, pairs) in products.items():
            rhs = kept[key] if key in kept else section_transform(action, g12, psi)
            for g1, k in pairs:
                lhs = section_transform(action, g1, moved[k])
                law_worst = max(law_worst, (lhs - rhs).norm)
        lhs = section_transform(action, g, multiply(alpha, psi))
        rhs = multiply(pullback(action, g, alpha), moved[2])
        eq10_worst = max(eq10_worst, (lhs - rhs).norm)

        paired = pairing(phi_moved, moved[2])
        still = pairing(phi, psi)
        pair_worst = max(pair_worst, float(np.max(np.abs(
            paired.values[target[sources]] - still.values[sources]))))
        self_pair = pairing(psi, psi).values
        pos_worst = max(pos_worst, float(max(np.max(-self_pair.real, initial=0.0),
                                             np.max(np.abs(self_pair.imag)))))

    records = [
        CheckRecord("section_identity_transform", "Eq. (7a)", ident_worst, 1e-14),
        CheckRecord("section_isometry", "Theorem 2.1", iso_worst, 1e-10),
        CheckRecord("section_group_law", "Eq. (7a)", law_worst, 1e-8),
        CheckRecord("section_multiplication_commutation", "Eq. (10)", eq10_worst, 1e-10),
        CheckRecord("pairing_invariance", "Eq. (13a)", pair_worst, 1e-10),
        CheckRecord("pairing_positivity", "Eq. (13a)", pos_worst, 1e-12),
    ]

    # pointwise operator recovery from bump sections; a (point, element)
    # pair is redrawn while the element moves the point out of the window
    # (the Heisenberg shear can, even three steps from the edge)
    worst = 0.0
    interior = np.nonzero(np.all(
        np.stack([ax.contains(sampling.steps[:, k] + 3) & ax.contains(sampling.steps[:, k] - 3)
                  for k, ax in enumerate(sampling.axes)]), axis=0))[0]
    stays = [sampling.transport(el).target >= 0 for el in elements]
    if not any(np.any(ok[interior]) for ok in stays):
        raise PreconditionError("every test element moves every interior point out "
                                "of the sampled window")
    for _ in range(20):
        while True:
            idx = int(rng.choice(interior))
            e = int(rng.integers(0, len(elements)))
            if stays[e][idx]:
                break
        g = elements[e]
        phi0 = rng.standard_normal(sampling.fiber_dim) \
            + 1j * rng.standard_normal(sampling.fiber_dim)
        got = reconstruct_pointwise_operator(sampling, g, sampling.base_array[idx], phi0)
        direct = action.fiber_matrix(g) @ phi0
        worst = max(worst, float(np.max(np.abs(got - direct))))
    records.append(CheckRecord("pointwise_operator_recovery", "Eq. (10a)", worst, 1e-10))

    # strong continuity surrogate at the identity
    psi = sections[0]
    A = action.group.algebra(0.7 * np.ones(action.group.dim)
                             / np.sqrt(action.group.dim))
    drifts = [(evaluator_transform(action, group_exp(A, tau), psi) - psi).norm
              for tau in (0.1, 0.05, 0.025)]
    records.append(CheckRecord("strong_continuity_surrogate", "Lemma 2.4",
                               _monotone_ratio(drifts), 0.999))
    return records


# ---------------------------------------------------------------------------
# suite: generator identities
# ---------------------------------------------------------------------------

def generator_checks(scn: Scenario, action, rng) -> list:
    sampling = scn.build_sampling(action, generator_scale=True)
    sigma = scn.probe_size("generators")
    probe = gentle_probe_section(sampling, rng, scn.max_degree, sigma)
    kernel = lattice_kernel(sampling, scn.kernel_radius or sigma)
    psi = garding_smooth(kernel, probe, action)
    group = action.group
    tau = scn.fd_tau

    if group.dim >= 2:
        A = group.algebra(np.eye(group.dim)[0])
        B = group.algebra(np.eye(group.dim)[1])
    else:
        A = group.algebra([1.0])
        B = group.algebra([0.6])
    conj = _lattice_elements(sampling)[3]
    checks = [("generator_linearity", "Eq. (18)", 1e-4, 1.85),
              ("generator_conjugation", "Eq. (18)", 1e-4, 1.85),
              ("generator_commutator", "Eq. (18)", 1e-4, 0.85),
              ("generator_multiplication", "Eq. (20a)", 1e-4, 1.85),
              ("generator_pairing_derivative", "Eq. (21)", 1e-4, 1.85)]
    # H(A) psi at each fd step, shared by the identity tables and the fd order
    HA = {tk: generator_apply(A, psi, action, tk) for tk in (2 * tau, tau, tau / 2)}
    records = _refined(checks, lambda tk: {
        f"generator_{name}": r for name, r in identity_suite(
            A, B, _smooth_alpha(), psi, HA[tk], HA[2 * tk], action, tk,
            conjugator=conj).items()}, tau)

    # smoothing covariance under left translation
    g = _lattice_elements(sampling)[0]
    lhs = evaluator_transform(action, g, psi)
    translated = SmoothingKernel(
        sampling, kernel.node_steps,
        left_translate(g.matrix, kernel.node_mats), kernel.weights)
    rhs = garding_smooth(translated, probe, action)
    records.append(CheckRecord("smoothing_covariance", "Eq. (13)",
                               float(np.max(np.abs(lhs.values - rhs.values))), 1e-10))

    # shrinking kernels approximate the identity (scale 1 is psi's kernel)
    drifts = [(psi - probe).norm]
    for scale in (0.66, 0.44):
        radius = np.asarray(scn.kernel_radius or sigma, dtype=float) * scale
        k = lattice_kernel(sampling, radius)
        drifts.append((garding_smooth(k, probe, action) - probe).norm)
    records.append(CheckRecord("smoothing_approximates_identity", "Lemma 3.3",
                               _monotone_ratio(drifts), 0.999))

    r12, r24 = ((HA[2 * tk] - HA[tk]).norm for tk in (tau, tau / 2))
    records.append(CheckRecord("generator_fd_order", "Eq. (16a)",
                               _order_gap(r12, r24, 1.9), 1e-9))
    return records


# ---------------------------------------------------------------------------
# suite: reconstruction
# ---------------------------------------------------------------------------

def reconstruction_checks(scn: Scenario, action, family, rng) -> list:
    sampling = scn.build_sampling(action, generator_scale=True)
    sigma = scn.probe_size("reconstruction")
    psi = gentle_probe_section(sampling, rng, scn.max_degree, sigma)
    group = action.group
    tau = scn.fd_tau
    records = []

    out = reconstruct_group_operator(family, group.identity(), psi)
    records.append(CheckRecord("reconstruction_identity", "Eq. (26)",
                               float(np.max(np.abs(out.values - psi.values))), 1e-10))

    g_lat = _lattice_elements(sampling)[2]
    moved = reconstruct_group_operator(family, g_lat, psi)
    records.append(CheckRecord("reconstruction_isometry", "Lemma 4.6",
                               abs(moved.norm - psi.norm), 1e-8))

    t_step = 2 * float(sampling.spacings[0])
    k_dir = 0
    moved = exponentiate_generator(family, k_dir, t_step, psi)
    before = pairing(psi, psi)
    after = pairing(moved, moved)
    pull = group.exp_matrix(-t_step * group.basis[k_dir])
    pulled = before.field(left_translate(pull, sampling.group_mats))
    records.append(CheckRecord("norm_function_transport", "Lemma 4.1",
                               float(np.max(np.abs(after.values - pulled))), 1e-8))

    one = exponentiate_generator(family, k_dir, 0.17,
                                 exponentiate_generator(family, k_dir, 0.13, psi))
    two = exponentiate_generator(family, k_dir, 0.30, psi)
    records.append(CheckRecord("semigroup_property", "Lemma 4.2",
                               (one - two).norm, 1e-8))

    zero = Section.from_field(
        sampling, lambda mats: np.zeros((np.shape(mats)[0], sampling.fiber_dim),
                                        dtype=complex))
    records.append(CheckRecord("uniqueness_zero_section", "Lemma 4.1",
                               exponentiate_generator(family, k_dir, 0.3, zero).norm,
                               1e-12))

    residual = word_identity_check(family, [(0, 0.4), (0, lambda a: -0.4 * a)], [psi])
    records.append(CheckRecord("word_inverse_pair", "Lemma 4.5", residual, 1e-8))

    if scn.group_id == "heisenberg":
        a, b = 0.3, 0.4
        word = [(0, lambda s: a * s), (1, lambda s: b * s),
                (0, lambda s: -a * s), (1, lambda s: -b * s),
                (2, lambda s: -a * b * s * s)]
        records.append(CheckRecord("word_commutator_compensated", "Lemma 4.5",
                                   word_identity_check(family, word, [psi]), 1e-6))

    if scn.group_id == "so2":
        residual = word_identity_check(family, [(0, 2 * np.pi)],
                                       [(1.0 / psi.norm) * psi])
        records.append(CheckRecord("word_full_circle", "Lemma 4.5", residual, 1e-6))

    if scn.group_id == "heisenberg":
        worst = 0.0
        for _ in range(20):
            g = group_exp(group.algebra(rng.uniform(-0.2, 0.2, group.dim)))
            rec = reconstruct_group_operator(family, g, psi)
            direct = evaluator_transform(action, g, psi)
            worst = max(worst, (rec - direct).norm)
        records.append(CheckRecord("closed_form_operator_oracle", "Eq. (26)",
                                   worst, 1e-6))

    if scn.action_name == "oscillator":
        worst = 0.0
        H = scn.build_hamiltonian()
        dim = scn.fiber_dim
        t = 0.7
        v = psi.values[sampling.identity_index()].copy()
        if np.linalg.norm(v) < 1e-6:
            v = np.eye(dim)[0].astype(complex)
        flat = Section.from_field(
            sampling, lambda mats: np.broadcast_to(v, (mats.shape[0], dim)).copy())
        rec = reconstruct_group_operator(
            family, group_exp(group.algebra([1.0]), t), flat)
        got = rec.values[sampling.identity_index()]
        X_pre = action.base_points(group_exp(group.algebra([1.0]), -t), scn.anchor)
        _, U = evolution_automorphism(H, t, scn.dt, dim)(X_pre)
        expected = U @ v
        records.append(CheckRecord("evolution_pipeline_match", "Eq. (26)",
                                   float(np.max(np.abs(got - expected))), 1e-6))

    g1 = group_exp(group.algebra(rng.uniform(-0.15, 0.15, group.dim)))
    g2 = group_exp(group.algebra(rng.uniform(-0.15, 0.15, group.dim)))
    law = group_law_verify(family, g1, g2, psi, tau=tau)
    records.append(CheckRecord("reconstruction_group_law", "Theorem 4.1",
                               law.composition_residual, 1e-6))
    records.append(CheckRecord("generator_closure", "Eq. (27)",
                               law.generator_residual, 1e-3))

    # conjugation covariance and the pairing-derivative axioms, one table
    # per fd step; A2 is the pairing derivative (Eq. 21) on two probes and
    # A5 reads A2's H(A) phi and H(A) psi
    phi = gentle_probe_section(sampling, rng, scn.max_degree, sigma)
    k_conj = 1 if group.dim >= 2 else 0
    A = group.algebra(np.eye(group.dim)[0])
    B = group.algebra(np.eye(group.dim)[1]) if group.dim >= 2 else None

    def fd_table(tk):
        HA_phi = generator_apply(A, phi, action, tk)
        HA_psi = generator_apply(A, psi, action, tk)
        table = {"conjugation_covariance":
                     conjugation_check(family, k_conj, 0.3, A, psi, tk),
                 "axiom_a2_surrogate":
                     pairing_residual(A, phi, psi, HA_phi, HA_psi, tk)}
        if B is not None:
            HB_phi = generator_apply(B, phi, action, tk)
            HB_psi = generator_apply(B, psi, action, tk)
            term1 = pairing(HA_psi, HB_phi).values
            term2 = -1j * base_derivative(A, pairing(psi, HB_phi).field, sampling, tk)
            term3 = -pairing(HB_psi, HA_phi).values
            term4 = 1j * base_derivative(B, pairing(psi, HA_phi).field, sampling, tk)
            H_comm_phi = generator_apply(bracket(A, B), phi, action, tk)
            rhs = 1j * pairing(psi, H_comm_phi).values
            table["axiom_a5_surrogate"] = float(np.max(np.abs(
                term1 + term2 + term3 + term4 - rhs)))
        return table

    checks = [("conjugation_covariance", "Lemma 4.4", 1e-4, 0.85),
              ("axiom_a2_surrogate", "Axiom A2", 1e-4, 0.85)]
    if B is not None:
        checks.append(("axiom_a5_surrogate", "Axiom A5", 1e-3, 0.85))
    return records + _refined(checks, fd_table, tau)


# ---------------------------------------------------------------------------
# suite: gauge layer
# ---------------------------------------------------------------------------

def gauge_checks(scn: Scenario, strict_action, strict_family, rng) -> list:
    """The gauge suite on the scenario's drift-free realization
    (``strict_action``, ``strict_family``) and on its drifted one."""
    dim = scn.fiber_dim
    records = []
    so2 = groups.get_group("so2")
    J = so2.algebra([1.0])
    f = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    f /= np.linalg.norm(f)

    if scn.strict_group_law:
        U_half = strict_action.fiber_matrix(group_exp(J, np.pi))
        strict = float(np.linalg.norm(U_half @ (U_half @ f) - f))
        records.append(CheckRecord("strict_composition_law", "Eq. (5)",
                                   strict, 1e-6))
        records.append(CheckRecord("anomaly_magnitude", "Eq. (5)",
                                   abs(strict - 2.0), 1e-3))

    # the full-period word on normalized probes through the generator family
    sampling = scn.build_sampling(strict_action)
    probe = smooth_probe_section(sampling, rng, scn.max_degree, scn.probe_size("gauge"))
    probe = (1.0 / probe.norm) * probe
    residual = word_identity_check(strict_family, [(0, 2 * np.pi)], [probe])
    records.append(CheckRecord("word_anomaly_magnitude", "Lemma 4.5",
                               abs(residual - 2.0), 1e-3))

    # compensator relations with the scenario gauge (drifted realization)
    drift_action, drift_family = scn.build_action(drift=True)
    gauge = scn.build_gauge()
    recs = compensator_relations_check(
        drift_action, gauge, group_exp(J, 1.1),
        group_exp(J, 1.2 * np.pi), group_exp(J, 0.9 * np.pi),
        0.7, scn.anchor, f)
    for r in recs:
        records.append(CheckRecord(f"compensator_relation_{r.relation}",
                                   f"Eq. ({r.relation})", r.residual, 1e-6))

    # the pure fiber-phase gauge resolves the same relations on the
    # drift-free realization
    recs = compensator_relations_check(
        strict_action, u1_phase_gauge(), group_exp(J, 1.1),
        group_exp(J, 1.2 * np.pi), group_exp(J, 0.9 * np.pi),
        0.7, scn.anchor, f)
    worst = max(r.residual for r in recs)
    records.append(CheckRecord("compensator_relations_pure_phase", "Eq. (31)",
                               worst, 1e-6))

    res = equivalence_relation_residuals(gauge, (scn.anchor, f), (0.6, -1.1))
    records.append(CheckRecord("equivalence_relation", "Definition 1.2",
                               max(res.values()), 1e-8))

    alpha = 0.9
    z1 = (scn.anchor, f)
    z2 = (gauge.base_rows(alpha, scn.anchor), gauge.fiber_apply(alpha, f))
    g = group_exp(J, 1.3)
    im1 = (drift_action.base_points(g, z1[0]), drift_action.fiber_matrix(g) @ z1[1])
    im2 = (drift_action.base_points(g, z2[0]), drift_action.fiber_matrix(g) @ z2[1])
    _, _, r_equiv = gauge_equivalent(gauge, im1, im2)
    records.append(CheckRecord("equivariance_of_images", "Definition 1.2",
                               r_equiv, 1e-6))

    bundle = scn.build_gauge_bundle(drift_family, gauge)
    # fundamental values smooth along the circle (low Fourier content), so
    # the continuity surrogate sees genuinely small transforms
    thetas = bundle.theta_step * np.arange(bundle.theta_nodes)
    F = np.zeros((bundle.theta_nodes, dim), dtype=complex)
    for k in range(4):
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vec[max(4, dim - 6):] = 0.0
        F += np.exp(1j * k * thetas)[:, None] * vec[None, :] / (1 + k * k)
    vals = bundle.build_invariant(F)
    records.append(CheckRecord("invariant_section_build", "Eq. (32)",
                               bundle.invariance_residual(vals), 1e-12))

    out = bundle.gauge_transform(7, vals)
    records.append(CheckRecord("transform_preserves_invariance", "Theorem 5.1",
                               bundle.invariance_residual(out), 1e-8))
    records.append(CheckRecord("transform_preserves_norm", "Eq. (33)",
                               abs(bundle.norm(out) - bundle.norm(vals)), 1e-8))

    two_step = bundle.gauge_transform(30, bundle.gauge_transform(25, vals))
    one_step = bundle.gauge_transform(55, vals)
    records.append(CheckRecord("gauge_group_law", "Eq. (7a)",
                               bundle.norm(two_step - one_step), 1e-6))
    records.append(CheckRecord("gauge_descent_full_period", "Theorem 5.1",
                               bundle.norm(bundle.gauge_transform(
                                   bundle.theta_nodes, vals) - vals), 1e-6))

    alpha_vals = _smooth_alpha().eval_rows(bundle.base_rows).reshape(
        bundle.theta_nodes, -1)
    m = 9
    lhs = bundle.gauge_transform(m, alpha_vals[:, :, None] * vals)
    rhs = np.roll(alpha_vals, m, axis=0)[:, :, None] * bundle.gauge_transform(m, vals)
    records.append(CheckRecord("gauge_multiplication_commutation", "Eq. (34a)",
                               bundle.norm(lhs - rhs), 1e-10))

    # continuity surrogates: compensators vanish away from the wrap locus,
    # and small transforms approach the identity monotonically
    worst = 0.0
    for t1 in (0.2, 0.5, 0.8):
        for t2 in (0.3, 0.6):
            recs = compensator_relations_check(
                drift_action, gauge, group_exp(J, 0.4), group_exp(J, t1),
                group_exp(J, t2), 0.2, scn.anchor, f)
            gamma = dict((r.relation, r.compensator_parameters[0]) for r in recs)["29"]
            worst = max(worst, abs(gamma))
    records.append(CheckRecord("compensator_locality", "Definition 5.2",
                               worst, 1e-8))

    drifts = [bundle.norm(bundle.gauge_transform(m, vals) - vals) for m in (4, 2, 1)]
    records.append(CheckRecord("gauge_continuity_surrogate", "Theorem 5.1",
                               _monotone_ratio(drifts), 0.999))
    return records


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def run_verify(scenario: Scenario) -> Report:
    """Run every suite the scenario declares; an exception in a suite becomes
    one failing record for that suite rather than a crash."""
    rng = scenario.rng()
    records = []
    action = family = None
    if scenario.action_name is not None:
        action, family = scenario.build_action()
    for suite in scenario.suites:
        try:
            if suite == "lie":
                records.extend(lie_checks(scenario, rng))
            elif suite == "dynamics":
                records.extend(dynamics_checks(scenario, rng))
            elif suite == "sections":
                records.extend(section_checks(scenario, action, rng))
            elif suite == "generators":
                records.extend(generator_checks(scenario, action, rng))
            elif suite == "reconstruction":
                records.extend(reconstruction_checks(scenario, action, family, rng))
            elif suite == "gauge":
                records.extend(gauge_checks(scenario, action, family, rng))
        except Exception as err:
            records.append(CheckRecord(f"{suite}_suite_error",
                                       f"error: {type(err).__name__}",
                                       float("inf"), 0.0))
    env = {
        "dt": scenario.dt,
        "fd_tau": scenario.fd_tau,
        "n_cut": scenario.fiber_dim,
        "seed": scenario.seed,
    }
    return Report(scenario.name, tuple(records), env)


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

class ConvergenceRow:
    def __init__(self, eps: float, error: float):
        self.eps = float(eps)
        self.error = float(error)


class ConvergenceTable:
    """Rows of (eps, ansatz-vs-reference error) with the monotone flag."""

    def __init__(self, rows):
        self.rows = list(rows)

    @property
    def monotone_decreasing(self) -> bool:
        """Whether the error falls from each row to the next.  Raises
        PreconditionError for fewer than two rows, where the flag would
        pass without comparing anything."""
        errs = [r.error for r in self.rows]
        if len(errs) < 2:
            raise PreconditionError(f"a convergence study needs at least two eps values, "
                                    f"got {len(errs)}")
        return all(b < a for a, b in zip(errs, errs[1:]))

    def to_csv(self) -> str:
        out = ["eps,error"]
        for r in self.rows:
            out.append(f"{r.eps:.12e},{r.error:.12e}")
        return "\n".join(out) + "\n"


def run_convergence(scenario: Scenario, eps_list=None) -> ConvergenceTable:
    """Ansatz-vs-reference L2 error per epsilon (empty list is allowed and
    produces an empty table)."""
    eps_values = list(eps_list) if eps_list is not None else scenario.eps_list
    if not eps_values:
        return ConvergenceTable([])
    f0 = np.eye(scenario.fiber_dim)[0].astype(complex)
    errors = ansatz_errors(scenario.build_hamiltonian(), scenario.anchor, f0,
                           eps_values, float(scenario.setting("dynamics.t_final")),
                           scenario.grid(), dt=scenario.dt)
    return ConvergenceTable([ConvergenceRow(eps, err)
                             for eps, err in zip(eps_values, errors)])
