"""Closed-form riding currents against the bisection reference.

Every plant's ``riding_currents`` must give the selector the same active
constraint and the same current as the scalar loop with bisection, which
runs when the hook is replaced by ``references.bisected_roots``.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bangride import (ConstraintSpec, EcmPlant, PackParams, PackPlant,
                      PotentialDomainError, RootConfig, RootFindingError,
                      SimulationDiverged, SpmetPlant, ToyLinearPlant,
                      oracle_trajectory)
from bangride.analysis import robustness_study
from bangride.config import (load_ecm_params, load_scenario, load_spmet_params,
                             params_path)
from bangride.models.ecm import EcmEnsemble, perturb_params, rising_roots
from bangride.models.pack import spread_root
from pack_labels import constraint_label
from references import (AllPairsPack, bisected_roots, output, per_constraint_roots,
                        selector)
from test_oracle import StaticModel

ECM_BASE = load_ecm_params(params_path(load_scenario("ecm"), "params_ecm.cfg"))
SPMET = SpmetPlant(load_spmet_params(params_path(load_scenario("spmet"),
                                                 "params_spmet.cfg")))


def bisection_only(model):
    """The same plant with its riding currents bisected: the reference path."""
    ref = copy.copy(model)
    ref.riding_currents = lambda state, y_bar: bisected_roots(model, state, y_bar).tolist()
    return ref


def assert_roots_solve(model, x, y_bar):
    """Every closed-form entry of the hook meets its contract at x."""
    roots = model.riding_currents(x, y_bar)
    for i, root in enumerate(roots):
        if root < 0.0:
            assert output(model, x, 0.0, i) > y_bar[i]
        elif root == math.inf:
            assert output(model, x, 1e3, i) < y_bar[i]
        elif not math.isnan(root):
            assert abs(output(model, x, root, i) - y_bar[i]) <= 1e-9 * (1.0 + abs(y_bar[i]))


def assert_same_selection(model, x, spec):
    fast = selector(model, x, spec)
    ref = selector(bisection_only(model), x, spec)
    assert fast.i_star == ref.i_star
    assert abs(fast.u - ref.u) <= RootConfig.tol_u
    residual = output(model, x, fast.u, fast.i_star - 1) - spec.y_bar[fast.i_star - 1]
    if fast.u == 0.0 and residual > 0.0:
        assert ref.u == 0.0  # violated at zero on both paths
    else:
        assert abs(residual) <= RootConfig.tol_y
    return fast


def test_nan_root_fails_the_step(monkeypatch):
    # a broken hook: NaN for the voltage once member 1 passes 2 % SOC
    params = [perturb_params(ECM_BASE, 0.3, (5, k)) for k in range(3)]
    spec = ConstraintSpec(y_bar=[10.0, 12.0, 8.0], gamma=[1.0, 1.0, 500.0])
    x0 = np.zeros(4)

    def broken(roots, r_o, soc):
        roots[..., 1] = np.where((r_o == params[1].r_o) & (soc > 0.02), math.nan,
                                 roots[..., 1])
        return roots

    cell = EcmPlant(params[1])
    hook = cell.riding_currents
    cell.riding_currents = lambda x, y_bar: broken(
        np.array(hook(x, y_bar)), cell.params.r_o, x[2]).tolist()
    with pytest.raises(SimulationDiverged) as exc:
        oracle_trajectory(cell, spec, 100, x0)
    assert 0 < exc.value.step < 100

    # the study's batch, which the base cell builds as an EcmEnsemble
    ensemble_hook = EcmEnsemble.riding_currents
    monkeypatch.setattr(EcmEnsemble, "riding_currents", lambda self, x, y_bar: broken(
        ensemble_hook(self, x, y_bar), self._r_o, x[:, 2]))
    result = robustness_study(EcmPlant(ECM_BASE), [EcmPlant(p) for p in params],
                              x0, spec, 100)
    outcomes = result.stats.outcomes
    assert [o.diverged for o in outcomes] == [False, True, False]
    assert str(outcomes[1].failure) == str(exc.value)
    for k in (0, 2):
        ref = oracle_trajectory(EcmPlant(params[k]), spec, 100, x0)
        assert np.array_equal(outcomes[k].u_seq, ref.u)


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
        h0, h_max = output(plant, x, 0.0, idx), output(plant, x, u_max, idx)
        y_bar.append(h0 + w * (h_max - h0) if w < 0.0
                     else output(plant, x, w * u_max, idx))
    # where the temperature slope at its root is tiny (v1 + v2 and the root
    # near 0) the output rounds to the bound over more than tol_u, and
    # bisection may stop anywhere on that flat stretch
    p = plant.params
    slope = p.b * p.dt * (v1 + v2 + 2.0 * p.r_o * w_temp * u_max)
    assume(w_temp < 0.0 or slope > 1e-4)
    spec = ConstraintSpec(y_bar=y_bar, gamma=[1.0, 1.0, 500.0])
    assert_roots_solve(plant, x, spec.y_bar)
    assert_same_selection(plant, x, spec)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       v1=st.floats(-2.0, 0.0), v2=st.floats(-3.0, 0.0),
       soc=st.floats(0.0, 1.2), td=st.floats(0.0, 30.0),
       u_max=st.floats(0.5, 60.0), w_temp=st.floats(0.0, 1.3))
def test_ecm_negative_slope_matches_bisection(seed, v1, v2, soc, td, u_max, w_temp):
    # v1 + v2 < 0: the temperature output falls before it rises. Below the
    # bound at u = 0 it crosses the bound once, upward, as bisection finds;
    # above it the hook reports the violation at zero
    assume(v1 + v2 < 0.0)
    assume(abs(w_temp - 1.0) > 1e-6 / u_max)
    plant = EcmPlant(perturb_params(ECM_BASE, 0.3, seed))
    x = np.array([v1, v2, soc, td])
    y_bar = [u_max, output(plant, x, 2.0 * u_max, 1) + 1.0,
             output(plant, x, w_temp * u_max, 2)]
    spec = ConstraintSpec(y_bar=y_bar, gamma=[1.0, 1.0, 500.0])
    root = plant.riding_currents(x, spec.y_bar)[2]
    if output(plant, x, 0.0, 2) > y_bar[2]:
        assert root == -math.inf
        return
    # the slope at the root is sqrt(b**2 - 4ac) >= |b|; where it is tiny the
    # output rounds to the bound over more than tol_u (see above)
    p = plant.params
    assume(p.b * p.dt * abs(v1 + v2) > 1e-4)
    assert_roots_solve(plant, x, spec.y_bar)
    assert_same_selection(plant, x, spec)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       rows=st.lists(st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 3.0),
                               st.floats(0.0, 1.2), st.floats(0.0, 30.0),
                               st.floats(0.0, 60.0)), min_size=1, max_size=6),
       y_temp=st.floats(0.0, 30.0))
# at v1 + v2 = 0 a tiny c makes 4ac underflow: a zero denominator, c != 0,
# which gives -inf for c > 0 and 0 for c < 0
@example(seed=0, rows=[(0.0, 0.0, 0.5, 1e-320, 1.0), (0.0, 0.0, 0.5, -1e-320, 1.0)],
         y_temp=0.0)
def test_ecm_ensemble_rows_equal_cells(seed, rows, y_temp):
    # v1 + v2 < 0 takes the second form and a temperature deviation above
    # the bound with little heating gives -inf: every branch, row by row
    ensemble = EcmEnsemble([perturb_params(ECM_BASE, 0.3, (seed, k))
                            for k in range(len(rows))])
    x = np.array([r[:4] for r in rows])
    u = np.array([r[4] for r in rows])
    y_bar = np.array([10.0, 12.0, y_temp])
    roots = ensemble.riding_currents(x, y_bar)
    assert not np.isnan(roots).any()
    y, x_next = ensemble.advance(x, u)
    for k, cell in enumerate(ensemble.cells):
        assert np.array_equal(roots[k], cell.riding_currents(x[k], y_bar))
        y_cell, x_cell = cell.advance(x[k], float(u[k]))
        assert np.array_equal(y[k], y_cell)
        assert np.array_equal(x_next[k], x_cell)


def test_ecm_ensemble_rare_branches_beside_a_nan_row():
    # a member that is out of simulate_batch (a NaN row) in one batch with a
    # row in every rare branch of the temperature root: the NaN row makes
    # every reduction over the batch NaN, so a test for the rare rows that
    # is false on NaN, as b.min() < 0.0 is, would miss all of them
    rows = [(0.1, 0.2, 0.5, -1.0),      # the regular form
            (-0.5, 0.0, 0.5, -1.0),     # b < 0, c < 0: the larger root
            (-2.0, -1.0, 0.5, 1e-6),    # b < 0, c > 0: -inf
            (0.0, 0.0, 0.5, 1e-320),    # 4ac underflows: a zero denominator
            (0.0, 0.0, 0.5, -1e-320),   # likewise, with c < 0: 0
            (0.1, 0.0, 0.5, 30.0),      # disc < 0: -inf
            (math.nan,) * 4]
    y_bar = np.array([10.0, 12.0, 0.0])
    ensemble = EcmEnsemble([ECM_BASE] * len(rows))
    x = np.array(rows)
    a, b = ensemble._bt_r_o, ensemble._bt * (x[:, 0] + x[:, 1])
    c = ensemble._kt * x[:, 3] - y_bar[2]
    disc = b * b - 4.0 * a * c
    assert (b[1:3] < 0.0).all() and disc[2] > 0.0 and (disc[3:5] == 0.0).all()
    assert disc[5] < 0.0
    roots = ensemble.riding_currents(x, y_bar)
    for k, row in enumerate(rows[:-1]):
        assert np.array_equal(roots[k], ensemble.cells[k].riding_currents(row, y_bar))
    assert (roots[:2, 2] > 0.0).all() and roots[4, 2] == 0.0
    assert (roots[[2, 3, 5], 2] == -math.inf).all()
    assert roots[-1, 0] == y_bar[0] and np.isnan(roots[-1, 1:]).all()
    # rising_roots alone, with the scalar a of identical members
    assert np.array_equal(rising_roots(float(a[0]), b, c), roots[:, 2], equal_nan=True)


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
        res = assert_same_selection(built.model, traj.states[t], built.spec)
        labels.add(constraint_label(built.model, res.i_star)[0])
    assert labels == {"current", "voltage", "pair"}


def test_pack_spread_closed_form_matches_all_pairs_bisection(scenarios):
    # a 0.5 K spread bound makes the spread ride for most of the run; the
    # all-pairs reference layout runs with its pair closed forms and by
    # bisection
    base = scenarios["pack"].model.params.base
    runs = {}
    for name, layout in (("all-pairs", AllPairsPack), ("bisection", AllPairsPack),
                         ("max-minus-min", PackPlant)):
        plant = layout(PackParams(base=base, n_cells=5, k_left=8e-5,
                                  k_right=8e-5, dt_pair_max=0.5,
                                  cell_variation=0.3, variation_seed=11))
        spec = plant.constraints((10.0, 12.0, 35.0), (1.0, 1.0, 500.0, 500.0))
        model = bisection_only(plant) if name == "bisection" else plant
        run = oracle_trajectory(model, spec, 400, plant.initial_state())
        runs[name] = ([constraint_label(plant, i) for i in run.i_star], run.u)
    labels, u_mm = runs["max-minus-min"]
    assert labels == runs["all-pairs"][0] == runs["bisection"][0]
    assert labels.count(("pair",)) >= 200
    assert np.max(np.abs(u_mm - runs["all-pairs"][1])) <= 1e-10
    assert np.max(np.abs(u_mm - runs["bisection"][1])) <= 1e-8


@st.composite
def spmet_states(draw):
    c_max = SPMET.params.c_max
    return (draw(st.floats(0.0, 1.0)) * c_max, draw(st.floats(0.0, 1.0)) * c_max,
            draw(st.floats(300.0, 2500.0)), draw(st.floats(300.0, 2500.0)),
            draw(st.floats(-20.0, 60.0)))


@st.composite
def spmet_cases(draw):
    """An SPMeT state and a voltage bound placed, as above, where its riding
    current lies in units of u_max: violated at zero, riding below u_max, or
    riding above it."""
    u_max = SPMET.params.u_max
    state = draw(spmet_states())
    w = draw(_where)
    # a riding current within tol_u of u_max may pick either constraint
    assume(abs(w - 1.0) > 1e-6 / u_max)
    x = np.array(state)
    h0, h_max = output(SPMET, x, 0.0, 1), output(SPMET, x, u_max, 1)
    bound = h0 + w * (h_max - h0) if w < 0.0 else output(SPMET, x, w * u_max, 1)
    return state, bound


# state 2966 of the packaged spmet oracle run at its 4.2 V bound: the last
# Newton step lands one ulp past the root, 2.7e-6 A above the previous iterate
ONE_ULP_OVERSHOOT = ((28876.012765761217, 28906.06544525142, 1209.4681513387036,
                      1206.4068073737328, 26.15831948303132), 4.2)


@settings(max_examples=300, deadline=None)
@given(case=spmet_cases())
@example(case=ONE_ULP_OVERSHOOT)
def test_spmet_newton_matches_bisection(case):
    # each side lies within tol_u of the same crossing of the computed voltage
    state, bound = case
    x = np.array(state)
    spec = ConstraintSpec(y_bar=[SPMET.params.u_max, bound], gamma=[1.0, 1.0])
    root = SPMET.riding_currents(x, spec.y_bar)[1]
    ref_root = bisected_roots(SPMET, x, spec.y_bar)[1]
    if 0.0 < ref_root < spec.u_max:
        assert abs(root - ref_root) <= 2.0 * RootConfig.tol_u
    fast = selector(SPMET, x, spec)
    ref = selector(bisection_only(SPMET), x, spec)
    assert fast.i_star == ref.i_star
    assert abs(fast.u - ref.u) <= 2.0 * RootConfig.tol_u


@settings(max_examples=300, deadline=None)
@given(case=spmet_cases())
@example(case=ONE_ULP_OVERSHOOT)
def test_spmet_riding_current_contract(case):
    # -inf exactly when violated at zero; otherwise the largest current whose
    # computed voltage does not exceed the bound, within tol_u, even past u_max
    state, bound = case
    x, tol_u = np.array(state), RootConfig.tol_u
    roots = SPMET.riding_currents(x, np.array([SPMET.params.u_max, bound]))
    assert roots[0] == SPMET.params.u_max
    root = roots[1]
    assert not math.isnan(root)
    assert (root == -math.inf) == (output(SPMET, x, 0.0, 1) > bound)
    if root != -math.inf:
        assert 0.0 <= root < math.inf
        assert output(SPMET, x, root, 1) <= bound
        assert output(SPMET, x, root + tol_u, 1) > bound


@pytest.mark.parametrize("ce", [(0.0, 1200.0), (1200.0, -1.0)])
def test_spmet_domain_error_reaches_the_selector(ce):
    x = SPMET.initial_state()
    x[2], x[3] = ce
    spec = ConstraintSpec(y_bar=[SPMET.params.u_max, 4.2], gamma=[1.0, 1.0])
    with pytest.raises(PotentialDomainError, match="delta_phi_e"):
        selector(SPMET, x, spec)


def test_spmet_oracle_makes_no_solve(scenarios):
    # the oracle reads the Newton roots (src/ holds no bisection, see
    # test_public_surface); its run matches the bisection reference's
    built = scenarios["spmet"]
    reference = oracle_trajectory(bisection_only(built.model), built.spec,
                                  built.cfg.t_f, built.x0)
    run = oracle_trajectory(built.model, built.spec, built.cfg.t_f, built.x0)
    assert np.array_equal(run.i_star, reference.i_star)
    # measured 1.6e-9 A: each run within tol_u of its own crossings
    assert np.max(np.abs(run.u - reference.u)) <= 2.0 * built.root_cfg.tol_u


# _where, or a fraction of u_max that bisection on [0, u_max] evaluates,
# where the residual is exactly 0
_placed = st.one_of(_where, st.sampled_from([0.25, 0.375, 0.5]))


def placed_bound(h, u_max: float, w: float) -> float:
    """A bound for the output h(u) placed as ``_placed`` says."""
    h0, h_max = h(0.0), h(u_max)
    return h0 + w * (h_max - h0) if w < 0.0 else h(w * u_max)


@st.composite
def static_cases(draw):
    """One to five constraints past the current bound, each increasing: a
    cubic, or now and then a jump of 10 that no bisection closes when its
    bound lies inside the jump."""
    u_max = draw(st.floats(0.5, 60.0))
    fns, y_bar = [lambda u: u], [u_max]
    for _ in range(draw(st.integers(1, 5))):
        a, w = draw(st.floats(-5.0, 5.0)), draw(_placed)
        if draw(st.integers(0, 19)) == 0:
            at = draw(st.floats(0.0, 1.0)) * u_max
            fns.append(lambda u, a=a, at=at: a if u < at else a + 10.0)
            y_bar.append(a + 10.0 * w)
        else:
            b, c = draw(st.floats(0.01, 2.0)), draw(st.floats(0.0, 0.01))
            fns.append(lambda u, a=a, b=b, c=c: a + b * u + c * u ** 3)
            y_bar.append(placed_bound(fns[-1], u_max, w))
    return StaticModel(*fns), np.zeros(1), ConstraintSpec(y_bar=y_bar,
                                                          gamma=[1.0] * len(y_bar))


@st.composite
def toy_cases(draw):
    plant = ToyLinearPlant(c=draw(st.floats(-2.0, 2.0)), d=draw(st.floats(0.05, 5.0)))
    x, u_max = np.array([draw(st.floats(-20.0, 20.0))]), draw(st.floats(0.5, 60.0))
    bound = placed_bound(lambda u: output(plant, x, u, 1), u_max, draw(_placed))
    return plant, x, ConstraintSpec(y_bar=[u_max, bound], gamma=[1.0, 1.0])


@st.composite
def ecm_cases(draw):
    plant = EcmPlant(perturb_params(ECM_BASE, 0.3, draw(st.integers(0, 2 ** 32 - 1))))
    x = np.array([draw(st.floats(-1.0, 2.0)), draw(st.floats(-1.0, 3.0)),
                  draw(st.floats(0.0, 1.2)), draw(st.floats(0.0, 30.0))])
    u_max = draw(st.floats(0.5, 60.0))
    y_bar = [u_max] + [placed_bound(lambda u: output(plant, x, u, idx), u_max,
                                    draw(_placed)) for idx in (1, 2)]
    return plant, x, ConstraintSpec(y_bar=y_bar, gamma=[1.0, 1.0, 500.0])


@st.composite
def spmet_bisection_cases(draw):
    state, bound = draw(spmet_cases())
    return (SPMET, np.array(state),
            ConstraintSpec(y_bar=[SPMET.params.u_max, bound], gamma=[1.0, 1.0]))


@settings(max_examples=400, deadline=None)
@given(case=st.one_of(static_cases(), toy_cases(), ecm_cases(),
                      spmet_bisection_cases()))
# three constraints riding at once, one of them on a midpoint
@example(case=(StaticModel(lambda u: u, lambda u: 2.0 * u, lambda u: u ** 3 / 50.0,
                           lambda u: 1.0 + u),
               np.zeros(1), ConstraintSpec(y_bar=[30.0, 30.0, 17.0, 8.0],
                                           gamma=[1.0] * 4)))
def test_lockstep_roots_equal_per_constraint_bisection(case):
    # every root bit for bit, or the same error where the reference raises
    model, x, spec = case
    try:
        ref = per_constraint_roots(model, x, spec)
    except RootFindingError as exc:
        with pytest.raises(RootFindingError) as err:
            bisected_roots(model, x, spec.y_bar)
        assert str(err.value) == str(exc)
        return
    assert bisected_roots(model, x, spec.y_bar).tobytes() == ref.tobytes()


# The hook contract on every plant. The stated tolerance of each plant's
# roots: the computed output at a root exceeds its bound by at most this
# many ulps of the output scale, the largest |bound|, or |output| at u = 0
# or at the root, past the current. The toy's and the ECM's voltage roots
# are affine, the ECM's and the pack's temperature roots quadratic, the
# pack's pairs affine in exact arithmetic (their u**2 terms cancel) and its
# spread piecewise affine: 5.3e-15 above a bound on its packaged oracle
# run, 1.5 ulps of its 30 K outputs. The SPMeT's Newton root is the largest
# current whose computed voltage does not exceed the bound.
CONTRACT_ULPS = {"toy": 4, "ecm": 4, "ensemble": 4, "all-pairs": 4,
                 "max-minus-min": 4, "spmet": 0}
seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def contract_cases(draw):
    """A plant, or an ECM ensemble, with one to four states and a bound for
    every output past the current, placed at the first state as
    ``_placed`` says."""
    kind = draw(st.sampled_from(sorted(CONTRACT_ULPS)))
    n, u_max = draw(st.integers(1, 4)), draw(st.floats(0.5, 60.0))
    ecm_state = st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 3.0),
                          st.floats(0.0, 1.2), st.floats(0.0, 30.0))
    if kind == "toy":
        model = ToyLinearPlant(c=draw(st.floats(-2.0, 2.0)), d=draw(st.floats(0.05, 5.0)))
        states = [[draw(st.floats(-20.0, 20.0))] for _ in range(n)]
    elif kind == "ecm":
        model = EcmPlant(perturb_params(ECM_BASE, 0.3, draw(seeds)))
        states = [draw(ecm_state) for _ in range(n)]
    elif kind == "ensemble":
        seed = draw(seeds)
        model = EcmEnsemble([perturb_params(ECM_BASE, 0.3, (seed, k)) for k in range(n)])
        states = [draw(ecm_state) for _ in range(n)]
    elif kind == "spmet":
        model, u_max = SPMET, SPMET.params.u_max
        states = [draw(spmet_states()) for _ in range(n)]
    else:
        layout = AllPairsPack if kind == "all-pairs" else PackPlant
        model = layout(PackParams(base=ECM_BASE, n_cells=draw(st.integers(2, 5)),
                                  k_left=8e-5, k_right=8e-5, dt_pair_max=0.5,
                                  cell_variation=0.3, variation_seed=draw(seeds)))
        states = [[draw(ecm_state) for _ in range(model.n_cells)] for _ in range(n)]
    states = np.array(states, dtype=float)
    outputs = contract_outputs(model, states)
    y_bar = [u_max] + [placed_bound(lambda u: outputs(0, u)[i], u_max, draw(_placed))
                       for i in range(1, model.output_count)]
    return kind, model, states, np.array(y_bar)


def contract_outputs(model, states):
    """outputs(k, u): the outputs of row k at the current u, a plant's from
    its ``advance`` on that state, an ensemble member's from the batch's."""
    if isinstance(model, EcmEnsemble):
        return lambda k, u: model.advance(states, np.full(len(states), u))[0][k]
    return lambda k, u: np.asarray(model.advance(states[k], u)[0], dtype=float)


@settings(max_examples=150, deadline=None)
@given(case=contract_cases(), picks=st.lists(st.integers(0, 10 ** 6), min_size=4,
                                             max_size=4))
def test_riding_current_contract(case, picks):
    # every root of every row: not NaN; negative (-inf included) exactly
    # where the bound is violated at u = 0; the output at a finite root
    # within the stated ulps of the bound, and past it at root + tol_u where
    # its slope lifts it by more than 16 ulps over tol_u (a flatter output
    # rounds to the bound over more than tol_u); an output whose root is
    # +inf within them of its bound at u_max and 10 u_max. riding_rows reads
    # the same roots bit for bit
    kind, model, states, y_bar = case
    outputs, tol_u = contract_outputs(model, states), RootConfig.tol_u
    if kind == "ensemble":
        roots = model.riding_currents(states, y_bar)
    else:
        roots = np.array([model.riding_currents(x, y_bar) for x in states], dtype=float)
    assert not np.isnan(roots).any() and (roots[:, 0] == y_bar[0]).all()

    def within(k, u, i):
        """Output i of row k at u, and whether it lies within the stated
        ulps of its bound."""
        y = outputs(k, u)
        scale = max(np.abs(y_bar[1:]).max(), np.abs(y0[1:]).max(), np.abs(y[1:]).max())
        return y[i], y[i] <= y_bar[i] + CONTRACT_ULPS[kind] * np.spacing(scale), scale

    for k, row in enumerate(roots):
        y0 = outputs(k, 0.0)
        assert np.array_equal(row[1:] < 0.0, y0[1:] > y_bar[1:])
        for i, root in enumerate(row.tolist()[1:], 1):
            if root == math.inf:
                assert within(k, y_bar[0], i)[1] and within(k, 10.0 * y_bar[0], i)[1]
            elif root != -math.inf:
                y_root, ok, scale = within(k, root, i)
                assert ok
                slope = (outputs(k, root + 1e-3)[i] - y_root) / 1e-3
                if slope * tol_u > 16.0 * np.spacing(scale):
                    assert outputs(k, root + tol_u)[i] > y_bar[i]
    if kind != "ensemble":
        index = np.array(picks[:len(states)]) % model.output_count
        rows = model.riding_rows(states, y_bar, index)
        assert rows.tobytes() == roots[np.arange(len(states)), index].tobytes()
        assert model.riding_rows(states[:0], y_bar, index[:0]).shape == (0,)
