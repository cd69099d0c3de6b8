import math

import numpy as np
import pytest

from bangride import (ConfigurationError, ConstraintSpec, RootConfig,
                      RootFindingError, ToyLinearPlant, oracle_trajectory,
                      selector, solve_constraint)
from bangride.plant import PlantModel


class StaticModel(PlantModel):
    """Stateless outputs defined by callables of u; for pinning K values."""

    state_dim = 1

    def __init__(self, *fns):
        self.fns = fns
        self.output_count = len(fns)

    def step(self, state, u):
        return state

    def outputs(self, state, u):
        return np.array([fn(u) for fn in self.fns])


class TestRootConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RootConfig(u_hi=10.0, tol_u=0.0)
        with pytest.raises(ConfigurationError):
            RootConfig(u_hi=-1.0)

    def test_for_bound_doubles(self):
        assert RootConfig.for_bound(56.3739).u_hi == pytest.approx(112.7478)


class TestSolveConstraint:
    def test_identity_output_root_is_bound(self):
        model = StaticModel(lambda u: u)
        cfg = RootConfig.for_bound(56.3739)
        fv = solve_constraint(model, np.zeros(1), 1, 56.3739, cfg)
        assert fv.is_finite
        assert fv.value == pytest.approx(56.3739, abs=1e-6)
        assert abs(fv.residual) <= cfg.tol_y

    def test_affine_root(self):
        model = StaticModel(lambda u: u, lambda u: 1.0 + u)
        fv = solve_constraint(model, np.zeros(1), 2, 4.2, RootConfig(u_hi=20.0))
        assert fv.value == pytest.approx(3.2, abs=1e-6)

    def test_unreachable_bound_gives_infinity(self):
        model = StaticModel(lambda u: u, lambda u: math.tanh(u))
        fv = solve_constraint(model, np.zeros(1), 2, 2.0, RootConfig(u_hi=50.0))
        assert fv.value == math.inf
        assert not fv.is_finite

    def test_violated_at_zero_flagged(self):
        model = StaticModel(lambda u: u, lambda u: 7.0 + u)
        fv = solve_constraint(model, np.zeros(1), 2, 5.0, RootConfig(u_hi=20.0))
        assert fv.value == 0.0
        assert fv.below_bracket
        assert fv.residual == pytest.approx(2.0)

    def test_bracket_invariant_through_iterations(self):
        model = StaticModel(lambda u: u, lambda u: u ** 3 / 50.0)
        cfg = RootConfig(u_hi=30.0)
        trace: list = []
        y_bar = 17.0
        fv = solve_constraint(model, np.zeros(1), 2, y_bar, cfg, trace=trace)
        assert fv.is_finite
        assert len(trace) >= 30
        for lo, hi in trace:
            assert model.outputs(None, lo)[1] <= y_bar <= model.outputs(None, hi)[1]

    def test_iteration_cap_raises_with_diagnostics(self):
        # discontinuity jumping across the bound: the residual never converges
        model = StaticModel(lambda u: u, lambda u: 0.0 if u < 1.0 else 10.0)
        with pytest.raises(RootFindingError) as err:
            solve_constraint(model, np.zeros(1), 2, 5.0, RootConfig(u_hi=4.0))
        assert err.value.iterations == 200
        assert 0.0 <= err.value.lo <= err.value.hi <= 4.0


class TestSelector:
    def test_minimum_of_feedback_values(self):
        model = StaticModel(lambda u: u,
                            lambda u: u - 16.37,          # root at 56.37
                            lambda u: u - 0.0,            # root at 40
                            lambda u: math.tanh(u) - 50)  # unreachable
        spec = ConstraintSpec(y_bar=[56.37, 40.0, 40.0, 0.5],
                              gamma=[1.0, 1.0, 1.0, 1.0])
        res = selector(model, np.zeros(1), spec, RootConfig.for_bound(56.37))
        assert res.u == pytest.approx(40.0, abs=1e-6)
        assert res.i_star == 3

    def test_all_infinite_except_current_bound(self):
        model = StaticModel(lambda u: u,
                            lambda u: math.tanh(u),
                            lambda u: math.tanh(u) - 1.0)
        spec = ConstraintSpec(y_bar=[10.0, 5.0, 5.0], gamma=[1.0, 1.0, 1.0])
        res = selector(model, np.zeros(1), spec, RootConfig.for_bound(10.0))
        assert res.u == 10.0
        assert res.i_star == 1

    def test_matches_grid_feasible_max(self):
        # largest u on a fine grid with all outputs within bounds
        model = StaticModel(lambda u: u,
                            lambda u: 0.4 * u + 0.02 * u ** 2,
                            lambda u: math.sinh(u / 4.0))
        spec = ConstraintSpec(y_bar=[10.0, 4.0, 3.0], gamma=[1.0, 1.0, 1.0])
        cfg = RootConfig.for_bound(10.0)
        res = selector(model, np.zeros(1), spec, cfg)
        grid = np.linspace(0.0, 10.0, 10001)
        ys = np.stack([grid, 0.4 * grid + 0.02 * grid ** 2, np.sinh(grid / 4.0)])
        feasible = np.all(ys <= spec.y_bar[:, None] + cfg.tol_y, axis=0)
        u_grid = grid[feasible].max()
        assert res.u == pytest.approx(u_grid, abs=1e-3)

    def test_spec_size_mismatch(self):
        model = StaticModel(lambda u: u)
        spec = ConstraintSpec(y_bar=[1.0, 2.0], gamma=[1.0, 1.0])
        with pytest.raises(ConfigurationError):
            selector(model, np.zeros(1), spec, RootConfig(u_hi=5.0))


class TestOracleTrajectory:
    def test_integrator_matches_closed_form(self):
        # K2(x) = y_bar_2 - x for the integrator with h2 = x + u
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[1.0, 1.0])
        traj = oracle_trajectory(model, spec, 30, model.initial_state(),
                                 RootConfig.for_bound(10.0))
        x = 0.0
        for u in traj.u:
            expected = min(10.0, 5.0 - x)
            assert u == pytest.approx(expected, abs=1e-6)
            x += u

    def test_riding_exactness_and_feasibility(self, scenarios, oracle_runs):
        # some constraint active to tolerance at every step; none violated
        for name in ("spmet", "ecm"):
            built = scenarios[name]
            traj = oracle_runs[name]
            gmax = float(np.max(built.spec.gamma))
            tol = built.root_cfg.tol_y
            for e, i_star in zip(traj.e, traj.i_star):
                assert e[i_star - 1] <= gmax * tol
                assert np.all(e >= -gmax * tol)

    def test_records_have_no_gains(self, oracle_runs):
        traj = oracle_runs["ecm"]
        assert traj.theta is None and traj.alpha is None

    def test_negative_horizon_rejected(self):
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[1.0, 1.0])
        with pytest.raises(ConfigurationError):
            oracle_trajectory(model, spec, -2, model.initial_state(),
                              RootConfig.for_bound(10.0))
