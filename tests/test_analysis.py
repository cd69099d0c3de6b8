import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bangride import (ConfigurationError, ConstraintSpec, ControllerState,
                      EcmParams, EcmPlant, RootConfig, RootFindingError,
                      PlantModel, SimulationDiverged, ToyLinearPlant, Trajectory,
                      oracle_trajectory, perturb_params, project_box,
                      replay_open_loop, run_closed_loop, step_size)
from bangride import oracle
from bangride.analysis import (_min_norm_on_line_in_box, _min_norm_rows,
                               attach_per_step_optima, ct_diagnostic,
                               ct_ratio_sign_changes, ct_series, mu_star,
                               per_step_optimal_cost, regret, robustness_study)
from bangride.models.ecm import EcmEnsemble
from bangride.oracle import oracle_batch
from bangride.plant import replay_batch
from gradient_check import GradientSignCheck, gradient_sign_check

ECM_KW = dict(r_o=0.05, r_1=0.15, r_2=0.35, c_1=1000.0, c_2=1700.0,
              q=12000.0, a=0.002, b=7.5e-4, ocv0=3.0, ocv_slope=3.0, dt=1.0)
ECM_SPEC = dict(y_bar=[10.0, 12.0, 8.0], gamma=[1.0, 1.0, 500.0])


def toy_run(t_f=300, gamma=0.2):
    model = ToyLinearPlant()
    spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[gamma, gamma])
    cs = ControllerState()
    traj = run_closed_loop(model, cs, spec, t_f, model.initial_state())
    return model, spec, cs, traj


class TestPerStepOptimum:
    def test_reachable_riding_value_gives_zero(self):
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[1.0, 1.0])
        # statistics that allow u = 5 - x = 3 inside the box image
        opt = per_step_optimal_cost(model, np.array([2.0]), spec,
                                    last_error=1.0, error_sum=10.0,
                                    theta_lo=np.zeros(2), theta_hi=np.array([10.0, 1.0]),
                                    i_star=2)
        assert opt.j_star == pytest.approx(0.0, abs=1e-10)
        assert opt.u_star == pytest.approx(3.0, abs=1e-6)
        # theta* reproduces the optimal current and lies in the box
        assert opt.theta_star @ np.array([1.0, 10.0]) == pytest.approx(3.0, abs=1e-6)

    def test_singleton_box_returns_realized_cost(self):
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[1.0, 1.0])
        theta = np.array([0.3, 0.2])
        le, es = 0.8, 4.0
        u = float(theta @ [le, es])
        expected = (5.0 - (2.0 + u)) ** 2
        opt = per_step_optimal_cost(model, np.array([2.0]), spec, le, es,
                                    theta, theta, i_star=2)
        assert opt.j_star == pytest.approx(expected, rel=1e-12)
        assert np.allclose(opt.theta_star, theta)

    def test_degenerate_statistics_flagged(self):
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[1.0, 1.0])
        lo, hi = np.zeros(2), np.array([10.0, 1.0])
        opt = per_step_optimal_cost(model, np.array([1.0]), spec, 0.0, 0.0,
                                    lo, hi, i_star=2)
        assert opt.u_star == 0.0
        assert np.array_equal(opt.theta_star, project_box(np.zeros(2), lo, hi))
        assert opt.j_star == pytest.approx((5.0 - 1.0) ** 2)

    @pytest.mark.parametrize("i_star,le,es,x", [
        (2, 0.5, 2.0, [0.3, 0.4, 0.2, 1.0]),
        (3, -0.2, 6.0, [0.8, 1.2, 0.5, 6.5]),
        (1, 1.5, 40.0, [0.1, 0.1, 0.1, 0.5]),
        (2, 0.0, 0.5, [1.4, 2.2, 0.9, 4.0]),
    ])
    def test_matches_200x200_grid_search(self, i_star, le, es, x):
        # brute-force minimum with one-step plant re-simulation per grid point
        model = EcmPlant(EcmParams(**ECM_KW))
        spec = ConstraintSpec(**ECM_SPEC)
        lo, hi = np.zeros(2), np.array([10.0, 1.0])
        x = np.array(x)
        opt = per_step_optimal_cost(model, x, spec, le, es, lo, hi, i_star)
        th1 = np.linspace(lo[0], hi[0], 200)
        th2 = np.linspace(lo[1], hi[1], 200)
        gamma_i = float(spec.gamma[i_star - 1])
        y_bar_i = float(spec.y_bar[i_star - 1])
        best = math.inf
        for a in th1:
            u_row = a * le + th2 * es
            for u in u_row:
                err = gamma_i * (y_bar_i - model.output(x, float(u), i_star - 1))
                best = min(best, err * err)
        assert opt.j_star <= best + 1e-9
        # grid resolution bound: the optimum cannot be far below the grid best
        assert best - opt.j_star <= max(1e-6, 1e-3 * max(best, 1.0))

    def test_optimum_never_exceeds_realized_cost(self):
        model, spec, cs, traj = toy_run(400)
        traj = attach_per_step_optima(traj, model, spec, cs.theta_lo, cs.theta_hi)
        assert np.all(traj.J_star <= traj.J + 1e-9)

    def test_oracle_trajectory_rejected(self):
        from bangride import RootConfig, oracle_trajectory
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[1.0, 1.0])
        traj = oracle_trajectory(model, spec, 10, model.initial_state(),
                                 RootConfig())
        with pytest.raises(ConfigurationError):
            attach_per_step_optima(traj, model, spec, np.zeros(2), np.ones(2))


def scalar_optima(traj, model, spec, lo, hi, **kw):
    """The per-step reference: ``per_step_optimal_cost`` at every step, with
    the history statistics accumulated as the controller does. A
    ``RootFindingError`` gets the failing step as ``step``."""
    j_star, theta_star, le, es = [], [], 0.0, 0.0
    steps = zip(traj.i_star.tolist(), traj.e_active.tolist())
    for t, (i_star, e_active) in enumerate(steps):
        try:
            opt = per_step_optimal_cost(model, traj.states[t], spec, le, es,
                                        lo, hi, i_star, **kw)
        except RootFindingError as exc:
            exc.step = t
            raise
        j_star.append(opt.j_star)
        theta_star.append(opt.theta_star)
        le = e_active
        es += e_active
    return np.array(j_star), np.array(theta_star)


def scalar_ct(traj, model, spec):
    steps = zip(traj.u.tolist(), traj.i_star.tolist())
    return np.array([ct_diagnostic(model, traj.states[t], u, i_star,
                                   float(spec.gamma[i_star - 1]))
                     for t, (u, i_star) in enumerate(steps)])


def assert_batched_equals_scalar(traj, model, spec, lo, hi, **kw):
    """Exact equality of J_star, theta_star (signs of zeros included) and
    c_t with the per-step references; where the scalar loop raises, the
    batched run raises too and names the step the loop stopped at."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    assert np.array_equal(ct_series(traj, model, spec), scalar_ct(traj, model, spec))
    try:
        j_ref, theta_ref = scalar_optima(traj, model, spec, lo, hi, **kw)
    except RootFindingError as exc:
        with pytest.raises(RootFindingError, match=f"at step {exc.step} "):
            attach_per_step_optima(traj, model, spec, lo, hi, **kw)
        return None
    out = attach_per_step_optima(traj, model, spec, lo, hi, **kw)
    assert np.array_equal(out.J_star, j_ref)
    assert np.array_equal(out.theta_star, theta_ref)
    assert np.array_equal(np.signbit(out.theta_star), np.signbit(theta_ref))
    return out


def recorded_run(e_active, i_star, states, u, p):
    """A closed-loop trajectory carrying the given columns; the per-step
    optima read only the states, the active errors and indices, and c_t
    also the inputs."""
    n = len(e_active)
    e = np.zeros((n, p))
    e[np.arange(n), i_star - 1] = e_active
    return Trajectory(u=np.asarray(u, dtype=float), y=np.zeros((n, p)), e=e,
                      i_star=i_star, J=e_active ** 2, states=states,
                      theta=np.zeros((n, 2)))


errors = st.one_of(st.just(0.0), st.floats(-10.0, 10.0))


@st.composite
def toy_cases(draw):
    """A random toy plant, its bounds, a gain box (possibly with negative
    lower corners or zero width) and a recorded run."""
    p = draw(st.sampled_from([1, 2]))
    model = ToyLinearPlant(a=draw(st.floats(-2.0, 2.0)), b=draw(st.floats(0.05, 5.0)),
                           c=draw(st.floats(-2.0, 2.0)), d=draw(st.floats(0.05, 5.0)), p=p)
    y_bar = [draw(st.floats(0.5, 20.0))] + [draw(st.floats(-10.0, 20.0))] * (p - 1)
    spec = ConstraintSpec(y_bar=y_bar, gamma=[draw(st.floats(0.05, 5.0)) for _ in range(p)])
    lo = np.array([draw(st.floats(-5.0, 5.0)), draw(st.floats(-2.0, 2.0))])
    hi = lo + np.array([draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
                        for _ in range(2)])
    e_active = np.array(draw(st.lists(errors, min_size=1, max_size=60)))
    n = len(e_active)
    i_star = np.array(draw(st.lists(st.integers(1, p), min_size=n, max_size=n)))
    states = np.array(draw(st.lists(st.floats(-20.0, 20.0), min_size=n + 1,
                                    max_size=n + 1)))[:, None]
    u = draw(st.lists(st.floats(-20.0, 20.0), min_size=n, max_size=n))
    # looser current and tighter error tolerances make each half of the
    # bisection's stop rule decide in turn
    tol = dict(tol_u=draw(st.sampled_from([1e-9, 1e-4])),
               tol_y=draw(st.sampled_from([1e-6, 1e-10])))
    return model, spec, lo, hi, recorded_run(e_active, i_star, states, u, p), tol


class TestBatchedOptima:
    """``attach_per_step_optima`` and ``ct_series`` solve all steps at once;
    every row equals the per-step scalar reference exactly."""

    @settings(max_examples=200, deadline=None)
    @given(case=toy_cases())
    def test_random_toy_runs_match_scalar(self, case):
        model, spec, lo, hi, traj, tol = case
        assert_batched_equals_scalar(traj, model, spec, lo, hi, **tol)

    def test_every_branch_matches_scalar(self):
        # steps 0-1 have zero history, and the box's lower corner is
        # negative in both components; at step 2 the riding value lies
        # inside the current interval (bisection), at step 3 the error is
        # still positive at its top, at step 4 negative at its bottom, and
        # at step 5 exactly 0 at its top
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[1.0, 1.0])
        lo, hi = np.array([-1.0, -0.5]), np.array([2.0, 1.0])
        states = np.array([[2.0], [1.0], [3.0], [-40.0], [60.0], [4.25], [0.0]])
        traj = recorded_run(np.array([0.0, 1.0, 0.5, -3.0, 0.0, 0.0]), np.full(6, 2),
                            states, np.zeros(6), 2)
        out = assert_batched_equals_scalar(traj, model, spec, lo, hi)
        history = [(0.0, 0.0), (0.0, 0.0), (1.0, 1.0), (0.5, 1.5), (-3.0, -1.5),
                   (0.0, -1.5)]
        u_star = [per_step_optimal_cost(model, states[t], spec, le, es, lo, hi, 2).u_star
                  for t, (le, es) in enumerate(history)]
        assert u_star[:2] == [0.0, 0.0]
        assert np.array_equal(out.theta_star[:2], np.zeros((2, 2)))
        assert -1.5 < u_star[2] < 3.0 and out.J_star[2] <= 1e-12
        assert u_star[3] == 2.5 and out.J_star[3] == (5.0 + 40.0 - 2.5) ** 2
        assert u_star[4] == -7.5 and out.J_star[4] == (5.0 - 60.0 + 7.5) ** 2
        assert u_star[5] == 0.75 and out.J_star[5] == 0.0

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(errors, errors, st.floats(-200.0, 200.0)),
                         min_size=1, max_size=20),
           lo=st.tuples(st.floats(-5.0, 5.0), st.floats(-2.0, 2.0)),
           width=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)))
    def test_min_norm_rows_equal_scalar(self, rows, lo, width):
        # c ranges beyond the box image too, so that the corner-touch
        # fallback and the flat-direction branches run; both callers pass
        # only rows with s @ s != 0
        rows = ([r for r in rows if np.array(r[:2]) @ np.array(r[:2]) != 0.0]
                or [(1.0, 0.0, 50.0)])
        s, c = np.array([r[:2] for r in rows]), np.array([r[2] for r in rows])
        lo = np.array(lo)
        hi = lo + np.array(width)
        # a subnormal s @ s with such a c overflows in both; the rows agree
        with np.errstate(all="ignore"):
            theta = _min_norm_rows(s, c, lo, hi)
            refs = [_min_norm_on_line_in_box(s[k], float(c[k]), lo, hi)
                    for k in range(len(rows))]
        for k, ref in enumerate(refs):
            assert np.array_equal(theta[k], ref)
            assert np.array_equal(np.signbit(theta[k]), np.signbit(ref))

    def test_history_too_small_to_square_counts_as_none(self):
        # s @ s underflows to 0: the current interval is 0 within rounding
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[1.0, 1.0])
        lo, hi = np.zeros(2), np.array([10.0, 1.0])
        traj = recorded_run(np.array([1e-170, 0.0]), np.full(2, 2),
                            np.array([[1.0], [1.0], [1.0]]), np.zeros(2), 2)
        out = assert_batched_equals_scalar(traj, model, spec, lo, hi)
        assert out.J_star[1] == (5.0 - 1.0) ** 2
        assert np.array_equal(out.theta_star[1], np.zeros(2))

    @settings(max_examples=100, deadline=None)
    @given(case=toy_cases(), index=st.lists(st.integers(0, 1), min_size=61, max_size=61))
    def test_toy_output_rows_equal_output(self, case, index):
        model, traj = case[0], case[4]
        n = len(traj)
        index = np.array(index[:n]) % model.output_count
        rows = model.output_rows(traj.states[:n], traj.u, index)
        scalar = [model.output(traj.states[k], u, i)
                  for k, (u, i) in enumerate(zip(traj.u.tolist(), index.tolist()))]
        assert rows.tolist() == scalar
        assert np.array_equal(np.signbit(rows), np.signbit(scalar))

    @pytest.mark.parametrize("name", ["spmet", "ecm"])
    def test_free_runs_through_default_output_rows(self, name, scenarios, free_runs):
        built = scenarios[name]
        traj, _ = free_runs[name]
        assert type(built.model).output_rows is PlantModel.output_rows
        out = assert_batched_equals_scalar(traj, built.model, built.spec,
                                           built.cfg.theta_lo, built.cfg.theta_hi)
        assert out is not None

    @pytest.mark.parametrize("mu1", [0.3, 0.5, 0.7])
    def test_regret_runs_match_scalar(self, mu1, scenarios):
        # the runs of regret --steps 2000; at mu1 = 0.7 numpy's square of
        # one step's error rounds differently from Python's **
        built = scenarios["toy"]
        controller = replace(built.new_controller(), mu1=mu1)
        traj = run_closed_loop(built.model, controller, built.spec, 2000, built.x0)
        out = assert_batched_equals_scalar(traj, built.model, built.spec,
                                           built.cfg.theta_lo, built.cfg.theta_hi)
        assert out is not None

    def test_non_convergence_names_the_step(self):
        model, spec, cs, traj = toy_run(300)
        with pytest.raises(RootFindingError) as exc:
            scalar_optima(traj, model, spec, cs.theta_lo, cs.theta_hi, tol_u=1e-300)
        with pytest.raises(RootFindingError, match=f"at step {exc.value.step} "):
            attach_per_step_optima(traj, model, spec, cs.theta_lo, cs.theta_hi,
                                   tol_u=1e-300)


class TestBoxInvariant:
    @settings(max_examples=100, deadline=None)
    @given(e_active=st.lists(errors, min_size=1, max_size=80),
           lo=st.tuples(st.floats(-5.0, 5.0), st.floats(-2.0, 2.0)),
           width=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
           start=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           mu1=st.floats(0.05, 0.95),
           clip=st.one_of(st.none(), st.floats(0.01, 10.0)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_gains_and_theta_star_stay_in_box(self, e_active, lo, width, start,
                                              mu1, clip, seed):
        lo, width = np.array(lo), np.array(width)
        hi = lo + width
        cs = ControllerState(theta=lo + np.array(start) * width, theta_lo=lo,
                             theta_hi=hi, mu1=mu1, grad_clip=clip)
        for t, e in enumerate(e_active):
            cs.update(cs.gradient(e), step_size(t, mu1), e)
            assert np.all(lo <= cs.theta) and np.all(cs.theta <= hi)
        n = len(e_active)
        rng = np.random.default_rng(seed)
        traj = recorded_run(np.array(e_active), rng.integers(1, 3, n),
                            rng.uniform(-20.0, 20.0, (n + 1, 1)), np.zeros(n), 2)
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[0.2, 0.2])
        out = attach_per_step_optima(traj, ToyLinearPlant(), spec, lo, hi)
        assert np.all(lo <= out.theta_star) and np.all(out.theta_star <= hi)


class TestRegret:
    def test_zero_gap_reports_converged(self):
        model, spec, cs, traj = toy_run(250)
        traj = replace(traj, J_star=traj.J.copy())  # J* == J everywhere
        report = regret(traj, 0.5)
        assert report.total == 0.0
        assert report.converged
        assert report.tail_slope is None

    def test_missing_jstar_rejected(self):
        _, _, _, traj = toy_run(50)
        with pytest.raises(ConfigurationError):
            regret(traj, 0.5)

    def test_cumulative_matches_recomputed_sum(self):
        model, spec, cs, traj = toy_run(500)
        traj = attach_per_step_optima(traj, model, spec, cs.theta_lo, cs.theta_hi)
        report = regret(traj, 0.5)
        assert np.allclose(np.cumsum(report.gaps), report.cumulative, rtol=0, atol=0)
        assert not np.any(report.gaps < -1e-6)

    def test_mu_star_reference_values(self):
        # optimal-exponent branches: 1/2 when the drift exponent is >= 1
        assert mu_star(0.5, math.inf) == 0.5
        assert mu_star(0.5, 1.0) == 0.5
        assert mu_star(0.5, 2.0) == 0.5
        # slower drift dominates: 1 + mu1 - mu2
        assert mu_star(0.5, 0.8) == pytest.approx(0.7)
        assert mu_star(0.3, math.inf) == pytest.approx(0.7)
        # drift exponent below 1: the best exponent is 1 - mu2/2 at mu1 = mu2/2
        mu2 = 0.8
        assert mu_star(mu2 / 2, mu2) == pytest.approx(1.0 - mu2 / 2)
        grid = np.linspace(0.01, 0.99, 99)
        assert min(mu_star(m, mu2) for m in grid) >= 1.0 - mu2 / 2 - 1e-12

    def test_tail_window_least_half_and_100(self):
        model, spec, cs, traj = toy_run(1000)
        traj = attach_per_step_optima(traj, model, spec, cs.theta_lo, cs.theta_hi)
        report = regret(traj, 0.5)
        assert report.tail_start <= len(traj) - 500


class TestCtDiagnostic:
    def test_identity_output_gives_two(self):
        model = ToyLinearPlant()
        assert ct_diagnostic(model, np.array([0.0]), 3.0, 1, 1.0) == pytest.approx(2.0)

    def test_ecm_voltage_output_gives_two_gamma(self):
        model = EcmPlant(EcmParams(**ECM_KW))
        x = np.array([0.5, 0.5, 0.4, 2.0])
        assert ct_diagnostic(model, x, 5.0, 2, 7.0) == pytest.approx(14.0, rel=1e-6)

    def test_positive_along_runs(self, scenarios, free_runs):
        for name in ("spmet", "ecm", "toy"):
            built = scenarios[name]
            traj, _ = free_runs[name]
            ct = ct_series(traj, built.model, built.spec)
            assert np.all(ct > 0.0), name

    def test_sign_change_counter(self):
        ct = np.array([1.0, 2.0, 1.0, 2.0, 1.0])
        alphas = np.ones(5)
        assert ct_ratio_sign_changes(ct, alphas) == 3
        assert ct_ratio_sign_changes(np.ones(5), alphas) == 0


class TestGradientSignCheck:
    def test_signs_agree_on_ecm_run(self):
        model = EcmPlant(EcmParams(**ECM_KW))
        spec = ConstraintSpec(**ECM_SPEC)
        cs = ControllerState(grad_clip=0.05)
        traj = run_closed_loop(model, cs, spec, 400, model.initial_state())
        res = gradient_sign_check(traj, model, spec)
        assert isinstance(res, GradientSignCheck)
        assert res.ok
        assert res.checked >= 400  # two components, some skipped
        assert res.ct_min > 0.0


class TestRobustnessStudy:
    def test_zero_fraction_no_violations(self):
        base = EcmParams(**ECM_KW)
        spec = ConstraintSpec(**ECM_SPEC)
        res = robustness_study(base, 5, 0.0, spec, 400, seed=3)
        st = res.stats
        assert st.runs_with_violation == 0
        assert np.all(st.per_constraint_max_depth <= 1e-6)
        assert all(o.suboptimality == 0.0 for o in st.outcomes)

    def test_violation_depth_grows_with_fraction(self):
        # median-over-models max depth increases along the fraction sweep
        base = EcmParams(**ECM_KW)
        spec = ConstraintSpec(**ECM_SPEC)
        medians = []
        for fraction in (0.02, 0.05, 0.1):
            res = robustness_study(base, 24, fraction, spec, 700, seed=5,
                                   keep_series=False)
            depths = [float(o.max_depth.max()) for o in res.stats.outcomes
                      if o.max_depth is not None]
            medians.append(float(np.median(depths)))
        assert medians[0] < medians[1] < medians[2]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), fraction=st.floats(0.0, 0.3),
           n_models=st.integers(1, 6), t_f=st.integers(0, 150))
    def test_batched_matches_scalar(self, seed, fraction, n_models, t_f):
        # reference: every model alone through the scalar oracle and replay
        base = EcmParams(**ECM_KW)
        spec = ConstraintSpec(**ECM_SPEC)
        true_model = EcmPlant(base)
        x0 = true_model.initial_state()
        cfg = RootConfig()
        true_soc = oracle_trajectory(true_model, spec, t_f, x0, cfg).telemetry["soc"]
        objective = float(sum(true_soc.tolist()))
        res = robustness_study(base, n_models, fraction, spec, t_f, seed)
        assert [o.index for o in res.stats.outcomes] == list(range(n_models))
        for k, o in enumerate(res.stats.outcomes):
            model = EcmPlant(perturb_params(base, fraction, (seed, k)))
            u_seq = oracle_trajectory(model, spec, t_f, x0, cfg).u
            run = replay_open_loop(true_model, spec, x0, u_seq)
            over = run.y - spec.y_bar[None, :]
            assert not o.diverged
            assert np.array_equal(o.u_seq, u_seq)
            assert np.array_equal(o.max_depth, np.maximum(over, 0.0).max(axis=0))
            assert o.violation_steps == int(np.any(over > 1e-6, axis=1).sum())
            assert o.suboptimality == objective - float(sum(run.telemetry["soc"].tolist()))
            assert np.array_equal(o.temperature, run.telemetry["temperature"])

    def test_free_run_comparison_included(self):
        base = EcmParams(**ECM_KW)
        spec = ConstraintSpec(**ECM_SPEC)
        res = robustness_study(base, 2, 0.05, spec, 200, seed=1,
                               controller=ControllerState(grad_clip=0.05))
        assert res.free_run is not None
        assert len(res.free_run) == 201

    def test_n_models_validated(self):
        with pytest.raises(ConfigurationError):
            robustness_study(EcmParams(**ECM_KW), 0, 0.1,
                             ConstraintSpec(**ECM_SPEC), 10, seed=0)


class TestBatchedEnsemble:
    """Members that fail in the batched oracle or replay leave the batch
    exactly where the scalar reference paths fail, and the others go on."""

    BASE = EcmParams(**ECM_KW)
    SPEC = ConstraintSpec(**ECM_SPEC)
    PARAMS = [perturb_params(EcmParams(**ECM_KW), 0.3, (11, k)) for k in range(6)]

    def scalar_runs(self, t_f, x0, cfg, guard):
        """Per member: its (oracle, replay) runs, or where the oracle or the
        replay diverged."""
        truth = EcmPlant(self.BASE)
        runs = []
        for params in self.PARAMS:
            try:
                ideal = oracle_trajectory(EcmPlant(params), self.SPEC, t_f, x0, cfg,
                                          guard=guard)
            except SimulationDiverged as exc:
                runs.append(("oracle", exc.step))
                continue
            try:
                runs.append((ideal, replay_open_loop(truth, self.SPEC, x0, ideal.u,
                                                     guard=guard)))
            except SimulationDiverged as exc:
                runs.append(("replay", exc.step))
        return runs

    def batched_runs(self, t_f, x0, guard):
        m = len(self.PARAMS)
        protocols = oracle_batch(EcmEnsemble(self.PARAMS), self.SPEC, t_f,
                                 np.tile(x0, (m, 1)), guard=guard)
        ran = np.flatnonzero(protocols.failed < 0)
        replays = replay_batch(EcmEnsemble([self.BASE] * len(ran)),
                               np.tile(x0, (len(ran), 1)), protocols.u[:, ran],
                               guard=guard)
        return protocols, ran, replays

    def assert_match(self, scalar, protocols, ran, replays):
        for k, ref in enumerate(scalar):
            if ref[0] == "oracle":
                assert protocols.failed[k] == ref[1]
            else:
                j = int(np.flatnonzero(ran == k)[0])
                if ref[0] == "replay":
                    assert replays.failed[j] == ref[1]
                    continue
                ideal, replay = ref
                assert replays.failed[j] == -1
                assert np.array_equal(protocols.u[:, k], ideal.u)
                assert np.array_equal(protocols.states[:, k], ideal.states)
                assert np.array_equal(replays.y[:, j], replay.y)
                assert np.array_equal(replays.states[:, j], replay.states)

    # guard 11.5 trips oracles at steps 79, 96 and 99 of 100, guard 12.15
    # trips replays at steps 155, 155, 343 and 376 of 400 (voltage overshoot)
    @pytest.mark.parametrize("guard, t_f, stage", [(11.5, 100, "oracle"),
                                                   (12.15, 400, "replay")])
    def test_guard_failures_match_scalar(self, guard, t_f, stage):
        x0 = EcmPlant(self.BASE).initial_state()
        cfg = RootConfig()
        scalar = self.scalar_runs(t_f, x0, cfg, guard)
        failed = [ref for ref in scalar if ref[0] == stage]
        assert 1 <= len(failed) < len(scalar)
        assert len({step for _, step in failed}) > 1
        self.assert_match(scalar, *self.batched_runs(t_f, x0, guard))

    def test_negative_slope_start_needs_no_selector(self, monkeypatch):
        # v1 < 0 makes the temperature quadratic's slope negative, where the
        # hook takes its second form: the batch still equals the scalar runs
        # and never falls back to the scalar selector
        x0 = np.array([-0.5, 0.0, 0.0, 0.0])
        calls = []
        selector = oracle.selector
        monkeypatch.setattr(oracle, "selector",
                            lambda *args: calls.append(1) or selector(*args))
        batched = self.batched_runs(50, x0, 1e9)
        monkeypatch.undo()
        assert calls == []
        scalar = self.scalar_runs(50, x0, RootConfig(), 1e9)
        self.assert_match(scalar, *batched)
        for params in self.PARAMS:  # below the bound at u = 0: a finite root
            root = EcmPlant(params).riding_currents(x0, self.SPEC.y_bar)[2]
            assert 0.0 < root < math.inf
