"""Batched base maps: a stack of state rows maps row by row, bit for bit;
the one-parameter actions match their closed forms bit for bit."""

import numpy as np
import pytest

from scbundle.actions import (heisenberg_weyl_action, metaplectic_action,
                              oscillator_action, so2_rotor_action,
                              translations_r2_action)
from scbundle.fiber import quadratic_hamiltonian
from scbundle.groups import GroupElement, exp as gexp

DIM = 8
ACTIONS = [heisenberg_weyl_action, translations_r2_action, oscillator_action,
           so2_rotor_action, metaplectic_action,
           lambda dim: metaplectic_action(dim, drift=True)]
IDS = ["heisenberg-weyl", "translations-r2", "oscillator", "so2-rotor", "metaplectic",
       "metaplectic-drift"]


def _stack(action, count=12, seed=0):
    rng = np.random.default_rng(seed)
    group = action.group
    # coordinates up to +-4 wind the circle groups past the wrap at pi
    mats = np.array([gexp(group.algebra(rng.uniform(-4.0, 4.0, group.dim))).matrix
                     for _ in range(count)])
    rows = rng.normal(size=(count, 3))
    return mats, rows


@pytest.mark.parametrize("make", ACTIONS, ids=IDS)
def test_batched_base_map_matches_rows_one_at_a_time(make):
    action, _ = make(DIM)
    mats, rows = _stack(action)
    batched = action.base_rows(mats, rows)
    single = np.array([action.base_rows(m, r) for m, r in zip(mats, rows)])
    assert batched.shape == rows.shape
    assert np.array_equal(batched, single)
    # one matrix against many rows, and many matrices against one row
    assert np.array_equal(action.base_rows(mats[0], rows),
                          np.array([action.base_rows(mats[0], r) for r in rows]))
    assert np.array_equal(action.base_rows(mats, rows[0]),
                          np.array([action.base_rows(m, rows[0]) for m in mats]))


@pytest.mark.parametrize("make", ACTIONS, ids=IDS)
def test_single_point_wrappers_agree_with_rows(make):
    """``base_points`` takes one element, as a matrix or a GroupElement, or a
    stack of matrices, and maps the state row as ``base_rows`` does."""
    action, _ = make(DIM)
    mats, rows = _stack(action, count=4, seed=1)
    X = rows[0]
    one = action.base_rows(mats[1], X)
    assert one.shape == (3,)
    assert np.array_equal(action.base_points(mats[1], X), one)
    element = GroupElement(action.group, mats[1])
    assert np.array_equal(action.base_points(element, X), one)
    assert np.array_equal(action.base_points(mats, X), action.base_rows(mats, X))


def _rotation_rows(t, rows, drift_rate):
    S, P, Q = rows[:, 0], rows[:, 1], rows[:, 2]
    gain = (P ** 2 - Q ** 2) * np.sin(2 * t) / 4 - P * Q * (1 - np.cos(2 * t)) / 2
    c, s = np.cos(t), np.sin(t)
    return np.stack([S + gain + drift_rate * t, P * c - Q * s, Q * c + P * s], axis=-1)


def _phases(levels):
    return lambda t: np.diag(np.exp(-1j * t * levels))


def _closed_forms(name, dim):
    """(wrap period, fiber map, base map) of a one-parameter action, spelled
    out in closed form at the element's coordinate t."""
    osc = np.real(np.diag(quadratic_hamiltonian(1.0, 0.0, 1.0, dim)))
    half = np.arange(dim, dtype=float) + 0.5
    return {
        "oscillator": (None, _phases(osc), lambda t, r: _rotation_rows(t, r, 0.0)),
        "so2-rotor": (None, _phases(np.arange(dim, dtype=float)),
                      lambda t, r: _rotation_rows(t, r, 0.0)),
        "metaplectic": (2 * np.pi, _phases(half), lambda t, r: _rotation_rows(t, r, 0.0)),
        "metaplectic-drift": (2 * np.pi, _phases(half),
                              lambda t, r: _rotation_rows(t, r, -0.5)),
    }[name]


FLOW_IDS = ["oscillator", "so2-rotor", "metaplectic", "metaplectic-drift"]


@pytest.mark.parametrize("n_cut", [8, 14, 16, 18, 32])
@pytest.mark.parametrize("name", FLOW_IDS)
def test_flow_actions_match_their_closed_forms_bit_for_bit(name, n_cut):
    """The one flow-action builder gives the closed-form fiber map exp(-i t H)
    (diagonal phases) and the lifted flow on the base, bit for bit, with the
    circle coordinate wrapped to [0, 2 pi) for the metaplectic actions."""
    action, family = ACTIONS[IDS.index(name)](n_cut)
    period, fiber, base = _closed_forms(name, n_cut)
    mats, rows = _stack(action, count=24, seed=n_cut)
    t = action.group.coords_batch(mats)[:, 0]
    t_wrapped = t if period is None else t % period
    for m, tk in zip(mats, t_wrapped):
        assert np.array_equal(action.fiber_matrix(m), fiber(tk))
    assert np.array_equal(action.base_rows(mats, rows), base(t_wrapped, rows))
    # the generator family keeps the lifted (unwrapped) flow
    assert np.array_equal(family.directions[0].flow(t, rows), base(t, rows))
