"""Closed-form riding currents against the bisection reference.

Every model that provides ``riding_currents`` must give the selector the same
active constraint and the same current as the scalar loop with bisection,
which runs when the hook is removed.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bangride import (ConstraintSpec, EcmPlant, PackParams, PackPlant,
                      RootConfig, oracle_trajectory, selector)
from bangride.config import load_ecm_params, load_scenario, params_path
from bangride.models.ecm import EcmEnsemble, perturb_params
from bangride.models.pack import spread_root
from bangride.plant import PlantModel
from pack_labels import constraint_label

ECM_BASE = load_ecm_params(params_path(load_scenario("ecm"), "params_ecm.cfg"))


def bisection_only(model):
    """The same plant without its closed forms: the scalar reference path."""
    ref = copy.copy(model)
    ref.riding_currents = lambda state, y_bar: None
    return ref


def assert_roots_solve(model, x, y_bar):
    """Every closed-form entry of the hook meets its contract at x."""
    roots = model.riding_currents(x, y_bar)
    for i, root in enumerate(roots):
        if root < 0.0:
            assert model.output(x, 0.0, i) > y_bar[i]
        elif root == math.inf:
            assert model.output(x, 1e3, i) < y_bar[i]
        elif not math.isnan(root):
            assert abs(model.output(x, root, i) - y_bar[i]) <= 1e-9 * (1.0 + abs(y_bar[i]))


def assert_same_selection(model, x, spec, cfg):
    fast = selector(model, x, spec, cfg)
    ref = selector(bisection_only(model), x, spec, cfg)
    assert fast.i_star == ref.i_star
    assert abs(fast.u - ref.u) <= cfg.tol_u
    residual = model.output(x, fast.u, fast.i_star - 1) - spec.y_bar[fast.i_star - 1]
    if fast.u == 0.0 and residual > 0.0:
        assert ref.u == 0.0  # violated at zero on both paths
    else:
        assert abs(residual) <= cfg.tol_y
    return fast


class HookedStaticModel(PlantModel):
    """Stateless outputs u, u + 2 and u/2 + 1; only the last has a closed form."""

    state_dim = 1
    output_count = 3

    def step(self, state, u):
        return state

    def outputs(self, state, u):
        return np.array([u, u + 2.0, 0.5 * u + 1.0])

    def riding_currents(self, state, y_bar):
        return np.array([y_bar[0], math.nan, 2.0 * (y_bar[2] - 1.0)])


@pytest.mark.parametrize("y_bar, i_star", [
    ([10.0, 5.0, 4.0], 2),    # the bisected constraint rides lower
    ([10.0, 9.0, 3.0], 3),    # the closed-form constraint rides lower
    ([10.0, 1.0, 0.5], 2),    # both violated at zero: the lower index wins
    ([10.0, 20.0, 30.0], 1),  # neither binds below u_max
])
def test_mixed_closed_form_and_bisection(y_bar, i_star):
    spec = ConstraintSpec(y_bar=y_bar, gamma=[1.0, 1.0, 1.0])
    res = assert_same_selection(HookedStaticModel(), np.zeros(1), spec,
                                RootConfig.for_bound(10.0))
    assert res.i_star == i_star


# Each bound is placed where its riding current lies, in units of u_max:
# below 0 means violated at zero, above 1 unreachable inside the bracket.
_where = st.one_of(st.floats(-0.3, -0.01), st.floats(0.0, 1.3))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       v1=st.floats(0.0, 2.0), v2=st.floats(0.0, 3.0),
       soc=st.floats(0.0, 1.2), td=st.floats(0.0, 30.0),
       u_max=st.floats(0.5, 60.0), w_volt=_where, w_temp=_where)
def test_ecm_closed_form_matches_bisection(seed, v1, v2, soc, td, u_max,
                                           w_volt, w_temp):
    # riding currents (pinned to 0 below it) that tie within tol_u may pick
    # either constraint; two violated at zero tie exactly, on the lower index
    tie = 1e-6 / u_max
    assume(abs(max(w_volt, 0.0) - max(w_temp, 0.0)) > tie
           or max(w_volt, w_temp) < 0.0)
    assume(min(abs(w_volt - 1.0), abs(w_temp - 1.0)) > tie)
    plant = EcmPlant(perturb_params(ECM_BASE, 0.3, seed))
    x = np.array([v1, v2, soc, td])
    y_bar = [u_max]
    for idx, w in ((1, w_volt), (2, w_temp)):
        h0, h_max = plant.output(x, 0.0, idx), plant.output(x, u_max, idx)
        y_bar.append(h0 + w * (h_max - h0) if w < 0.0
                     else plant.output(x, w * u_max, idx))
    # where the temperature slope at its root is tiny (v1 + v2 and the root
    # near 0) the output rounds to the bound over more than tol_u, and
    # bisection may stop anywhere on that flat stretch
    p = plant.params
    slope = p.b * p.dt * (v1 + v2 + 2.0 * p.r_o * w_temp * u_max)
    assume(w_temp < 0.0 or slope > 1e-4)
    spec = ConstraintSpec(y_bar=y_bar, gamma=[1.0, 1.0, 500.0])
    assert_roots_solve(plant, x, spec.y_bar)
    assert_same_selection(plant, x, spec, RootConfig.for_bound(u_max))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       rows=st.lists(st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 3.0),
                               st.floats(0.0, 1.2), st.floats(0.0, 30.0),
                               st.floats(0.0, 60.0)), min_size=1, max_size=6),
       y_temp=st.floats(0.0, 30.0))
# at v1 + v2 = 0 a tiny c makes 4ac underflow: a zero denominator, c != 0
@example(seed=0, rows=[(0.0, 0.0, 0.5, 1e-320, 1.0), (0.0, 0.0, 0.5, -1e-320, 1.0)],
         y_temp=0.0)
def test_ecm_ensemble_rows_equal_cells(seed, rows, y_temp):
    # v1 + v2 < 0 gives NaN roots and a temperature deviation above the
    # bound with little heating gives -inf: every branch, row by row
    ensemble = EcmEnsemble([perturb_params(ECM_BASE, 0.3, (seed, k))
                            for k in range(len(rows))])
    x = np.array([r[:4] for r in rows])
    u = np.array([r[4] for r in rows])
    y_bar = np.array([10.0, 12.0, y_temp])
    roots = ensemble.riding_currents(x, y_bar)
    outputs, step = ensemble.outputs(x, u), ensemble.step(x, u)
    for k, cell in enumerate(ensemble.cells):
        assert np.array_equal(roots[k], cell.riding_currents(x[k], y_bar),
                              equal_nan=True)
        assert np.array_equal(outputs[k], cell.outputs(x[k], float(u[k])))
        assert np.array_equal(step[k], cell.step(x[k], float(u[k])))


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.tuples(st.floats(0.0, 30.0), st.floats(0.0, 0.01)),
                      min_size=2, max_size=12),
       bound=st.floats(0.01, 10.0))
def test_spread_root_solves_the_spread(lines, bound):
    alpha, beta = np.array(lines).T
    # slopes this flat would put the root beyond the float range
    assume(np.ptp(beta) == 0.0 or np.ptp(beta) > 1e-12)
    u = spread_root(alpha, beta, bound)
    if np.ptp(alpha) > bound:
        assert u < 0.0          # violated at zero
    elif np.ptp(beta) == 0.0:
        assert u == np.inf      # parallel lines: the spread never moves
    else:
        values = alpha + beta * u
        assert u >= 0.0
        assert abs(np.ptp(values) - bound) <= 1e-12 * (1.0 + np.max(np.abs(values)))


def test_pack_closed_form_matches_bisection_along_oracle_run(scenarios, oracle_runs):
    built = scenarios["pack"]
    traj = oracle_runs["pack"]
    # every 25th state, and each step around the spread's onset at 614
    steps = sorted(set(range(0, len(traj), 25)) | set(range(600, 640)))
    labels = set()
    for t in steps:
        assert_roots_solve(built.model, traj.states[t], built.spec.y_bar)
        res = assert_same_selection(built.model, traj.states[t], built.spec,
                                    built.root_cfg)
        labels.add(constraint_label(built.model, res.i_star)[0])
    assert labels == {"current", "voltage", "pair"}


def test_pack_spread_closed_form_matches_all_pairs_bisection(scenarios):
    # a 0.5 K spread bound makes the spread ride for most of the run; in
    # all-pairs mode every pair constraint is bisected
    base = scenarios["pack"].model.params.base
    runs = {}
    for mode in ("all-pairs", "max-minus-min"):
        plant = PackPlant(PackParams(base=base, n_cells=5, k_left=8e-5,
                                     k_right=8e-5, dt_pair_max=0.5,
                                     pairwise_mode=mode, cell_variation=0.3,
                                     variation_seed=11))
        spec = plant.build_constraints(u_max=10.0, v_cell_max=12.0,
                                       temp_dev_max=35.0)
        run = oracle_trajectory(plant, spec, 400, plant.initial_state(),
                                RootConfig.for_bound(10.0))
        runs[mode] = ([constraint_label(plant, i) for i in run.i_star], run.u)
    labels, u_mm = runs["max-minus-min"]
    assert labels == runs["all-pairs"][0]
    assert labels.count(("pair",)) >= 200
    assert np.max(np.abs(u_mm - runs["all-pairs"][1])) <= 1e-8
