"""Batched base maps: a stack of state rows maps row by row, bit for bit."""

import numpy as np
import pytest

from scbundle.actions import (free_particle_action, heisenberg_weyl_action,
                              metaplectic_action, oscillator_action,
                              so2_rotor_action, translations_r2_action)
from scbundle.dynamics import ClassicalState
from scbundle.fiber import DimConfig
from scbundle.groups import exp as gexp

CFG = DimConfig(1, 8)
ACTIONS = [heisenberg_weyl_action, translations_r2_action, oscillator_action,
           free_particle_action, so2_rotor_action, metaplectic_action,
           lambda cfg: metaplectic_action(cfg, drift=True)]
IDS = ["heisenberg-weyl", "translations-r2", "oscillator", "free-particle",
       "so2-rotor", "metaplectic", "metaplectic-drift"]


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
    action, _ = make(CFG)
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
    action, _ = make(CFG)
    mats, rows = _stack(action, count=4, seed=1)
    X = ClassicalState.from_array(rows[0], 1)
    assert np.array_equal(action.base_map(mats[1], X).as_array(),
                          action.base_rows(mats[1], rows[0]))
    assert np.array_equal(action.base_points(mats, X), action.base_rows(mats, rows[0]))
