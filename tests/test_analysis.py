import math
from dataclasses import replace

import numpy as np
import pytest

from bangride import (ConfigurationError, ConstraintSpec, ControllerState,
                      EcmParams, EcmPlant, ToyLinearPlant, run_closed_loop)
from bangride.analysis import (GradientSignCheck, attach_per_step_optima,
                               ct_diagnostic, ct_ratio_sign_changes, ct_series,
                               gradient_sign_check, mu_star,
                               per_step_optimal_cost, regret, robustness_study)

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
        opt = per_step_optimal_cost(model, np.array([1.0]), spec, 0.0, 0.0,
                                    np.zeros(2), np.array([10.0, 1.0]), i_star=2)
        assert not opt.reachable
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
                                 RootConfig.for_bound(10.0))
        with pytest.raises(ConfigurationError):
            attach_per_step_optima(traj, model, spec, np.zeros(2), np.ones(2))


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
        assert not report.negative_gap_steps

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

    def test_parallel_matches_serial(self):
        base = EcmParams(**ECM_KW)
        spec = ConstraintSpec(**ECM_SPEC)
        serial = robustness_study(base, 8, 0.1, spec, 300, seed=9, jobs=1)
        parallel = robustness_study(base, 8, 0.1, spec, 300, seed=9, jobs=2)
        for a, b in zip(serial.stats.outcomes, parallel.stats.outcomes):
            assert a.index == b.index
            assert a.suboptimality == b.suboptimality
            assert np.array_equal(a.max_depth, b.max_depth)

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
