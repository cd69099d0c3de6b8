import math

import numpy as np
import pytest

from bangride import (ConfigurationError, ConstraintSpec, RootConfig,
                      RootFindingError, ToyLinearPlant, oracle_trajectory,
                      selector, solve_constraint)
from bangride.oracle import bisected_roots
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
        for bad in ({"tol_u": 0.0}, {"tol_y": -1e-6}, {"max_iter": 0}):
            with pytest.raises(ConfigurationError):
                RootConfig(**bad)


class TestSolveConstraint:
    def test_identity_output_root_is_bound(self):
        model = StaticModel(lambda u: u)
        cfg = RootConfig()
        fv = solve_constraint(model, np.zeros(1), 1, 56.3739, 112.7478, cfg)
        assert fv.value == pytest.approx(56.3739, abs=1e-6)
        assert abs(model.output(np.zeros(1), fv.value, 0) - 56.3739) <= cfg.tol_y

    def test_affine_root(self):
        model = StaticModel(lambda u: u, lambda u: 1.0 + u)
        fv = solve_constraint(model, np.zeros(1), 2, 4.2, 20.0, RootConfig())
        assert fv.value == pytest.approx(3.2, abs=1e-6)

    def test_unreachable_bound_gives_infinity(self):
        model = StaticModel(lambda u: u, lambda u: math.tanh(u))
        fv = solve_constraint(model, np.zeros(1), 2, 2.0, 50.0, RootConfig())
        assert fv.value == math.inf

    def test_violated_at_zero_flagged(self):
        model = StaticModel(lambda u: u, lambda u: 7.0 + u)
        fv = solve_constraint(model, np.zeros(1), 2, 5.0, 20.0, RootConfig())
        assert (fv.value, fv.iterations) == (0.0, 0)

    def test_bracket_invariant_through_iterations(self):
        # every current the bisection evaluates after the bracket ends lies
        # inside the bracket, which keeps the root between its ends
        def cube(u):
            return u ** 3 / 50.0

        def h(u):
            evaluated.append(u)
            return cube(u)

        evaluated: list = []
        model = StaticModel(lambda u: u, h)
        y_bar = 17.0
        fv = solve_constraint(model, np.zeros(1), 2, y_bar, 30.0, RootConfig())
        assert evaluated[:2] == [30.0, 0.0]
        assert len(evaluated) >= 32
        assert fv.value == evaluated[-1]
        lo, hi = 0.0, 30.0
        for u in evaluated[2:]:
            assert lo < u < hi
            assert cube(lo) <= y_bar <= cube(hi)
            lo, hi = (lo, u) if cube(u) > y_bar else (u, hi)

    def test_iterations_count_halvings(self):
        # perfbench/tracer.py reads FeedbackValue.iterations for its
        # oracle.bisect_iters metrics: it counts the midpoints evaluated
        def h(u):
            evaluated.append(u)
            return 0.4 * u + 0.02 * u ** 2

        model = StaticModel(lambda u: u, h)
        counts = []
        for y_bar in (4.0, 50.0, -1.0):  # a root, unreachable, violated at 0
            evaluated: list = []
            fv = solve_constraint(model, np.zeros(1), 2, y_bar, 30.0, RootConfig())
            counts.append((fv.iterations, len(evaluated)))
        (halvings, calls), unreachable, violated = counts
        assert halvings == calls - 2 >= 30
        assert unreachable == (0, 1) and violated == (0, 2)

    def test_iteration_cap_raises_with_diagnostics(self):
        # discontinuity jumping across the bound: the residual never converges
        model = StaticModel(lambda u: u, lambda u: 0.0 if u < 1.0 else 10.0)
        with pytest.raises(RootFindingError) as err:
            solve_constraint(model, np.zeros(1), 2, 5.0, 4.0, RootConfig())
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
        res = selector(model, np.zeros(1), spec, RootConfig())
        assert res.u == pytest.approx(40.0, abs=1e-6)
        assert res.i_star == 3

    def test_all_infinite_except_current_bound(self):
        model = StaticModel(lambda u: u,
                            lambda u: math.tanh(u),
                            lambda u: math.tanh(u) - 1.0)
        spec = ConstraintSpec(y_bar=[10.0, 5.0, 5.0], gamma=[1.0, 1.0, 1.0])
        res = selector(model, np.zeros(1), spec, RootConfig())
        assert res.u == 10.0
        assert res.i_star == 1

    def test_matches_grid_feasible_max(self):
        # largest u on a fine grid with all outputs within bounds
        model = StaticModel(lambda u: u,
                            lambda u: 0.4 * u + 0.02 * u ** 2,
                            lambda u: math.sinh(u / 4.0))
        spec = ConstraintSpec(y_bar=[10.0, 4.0, 3.0], gamma=[1.0, 1.0, 1.0])
        cfg = RootConfig()
        res = selector(model, np.zeros(1), spec, cfg)
        grid = np.linspace(0.0, 10.0, 10001)
        ys = np.stack([grid, 0.4 * grid + 0.02 * grid ** 2, np.sinh(grid / 4.0)])
        feasible = np.all(ys <= spec.y_bar[:, None] + cfg.tol_y, axis=0)
        u_grid = grid[feasible].max()
        assert res.u == pytest.approx(u_grid, abs=1e-3)

    def test_bisected_roots_cover_u_max_only(self):
        # every constraint violated at u_max is bisected on [0, u_max]; one
        # met there contributes +inf, one violated at zero 0
        brackets = []

        def h(u):
            brackets.append(u)
            return u - 2.0

        model = StaticModel(lambda u: u, h, lambda u: u - 30.0, lambda u: u + 7.0)
        spec = ConstraintSpec(y_bar=[10.0, 4.0, 1.0, 5.0], gamma=[1.0] * 4)
        roots = bisected_roots(model, np.zeros(1), spec, RootConfig())
        assert roots[0] == 10.0 and roots[2] == math.inf and roots[3] == 0.0
        assert roots[1] == pytest.approx(6.0, abs=1e-9)
        assert brackets[:3] == [10.0, 10.0, 0.0]  # outputs at u_max, then the solve
        res = selector(model, np.zeros(1), spec, RootConfig())
        assert (res.u, res.i_star) == (0.0, 4)

    def test_spec_size_mismatch(self):
        model = StaticModel(lambda u: u)
        spec = ConstraintSpec(y_bar=[1.0, 2.0], gamma=[1.0, 1.0])
        with pytest.raises(ConfigurationError):
            selector(model, np.zeros(1), spec, RootConfig())


class TestOracleTrajectory:
    def test_integrator_matches_closed_form(self):
        # K2(x) = y_bar_2 - x for the integrator with h2 = x + u
        model = ToyLinearPlant()
        spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[1.0, 1.0])
        traj = oracle_trajectory(model, spec, 30, model.initial_state(),
                                 RootConfig())
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
                              RootConfig())
