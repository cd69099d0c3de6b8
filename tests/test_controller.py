import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bangride import (ConfigurationError, ConstraintSpec, ControllerState,
                      project_box, step_size)
from references import ReferenceController, active_index, constraint_errors

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestConstraintSpec:
    def test_gamma_must_be_finite(self):
        with pytest.raises(ConfigurationError, match="finite"):
            ConstraintSpec(y_bar=[1.0, 2.0], gamma=[1.0, np.inf])

    def test_gamma_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ConstraintSpec(y_bar=[1.0, 2.0], gamma=[1.0, 0.0])

    @pytest.mark.parametrize("u_max", [0.0, -1.0])
    def test_current_bound_must_be_positive(self, u_max):
        with pytest.raises(ConfigurationError, match="current limit"):
            ConstraintSpec(y_bar=[u_max, 2.0], gamma=[1.0, 1.0])

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            ConstraintSpec(y_bar=[1.0, 2.0], gamma=[1.0])

    def test_u_max_is_first_bound(self):
        spec = ConstraintSpec(y_bar=[56.3739, 4.2], gamma=[1.0, 1.0])
        assert spec.u_max == 56.3739
        assert spec.p == 2


class TestConstraintErrors:
    def test_on_boundary_all_zero(self):
        spec = ConstraintSpec(y_bar=[3.0, 4.2], gamma=[2.0, 5.0])
        e = constraint_errors(spec, np.array([3.0, 4.2]))
        assert np.all(e == 0.0)

    def test_direct_arithmetic(self):
        spec = ConstraintSpec(y_bar=[10.0, 4.2], gamma=[1.0, 1.0])
        e = constraint_errors(spec, np.array([10.0, 4.0]))
        assert e[1] == pytest.approx(0.2)

    def test_temperature_scaling_weight(self):
        # the 500x weight turns a 0.01 slack into an error of 5
        spec = ConstraintSpec(y_bar=[10.0, 4.2, 8.0], gamma=[1.0, 1.0, 500.0])
        e = constraint_errors(spec, np.array([10.0, 4.2, 8.0 - 0.01]))
        assert e[2] == pytest.approx(5.0)

    def test_length_mismatch(self):
        spec = ConstraintSpec(y_bar=[10.0, 4.2], gamma=[1.0, 1.0])
        with pytest.raises(ConfigurationError):
            constraint_errors(spec, np.array([1.0, 2.0, 3.0]))


class TestActiveIndex:
    def test_picks_minimum(self):
        assert active_index(np.array([3.0, 0.1, 7.0])) == 2

    def test_tie_break_lowest(self):
        assert active_index(np.array([0.5, 0.5])) == 1

    @given(st.lists(finite, min_size=1, max_size=8),
           st.floats(min_value=1e-3, max_value=1e3))
    def test_invariant_under_common_positive_scaling(self, e, scale):
        e = np.array(e)
        assert active_index(e) == active_index(scale * e)


class TestStepSize:
    def test_schedule_values(self):
        assert step_size(0, 0.5) == 1.0
        assert step_size(4, 0.5) == 0.5
        assert step_size(1000, 0.5) == pytest.approx(1000.0 ** -0.5)
        assert step_size(7, 0.3) == 7.0 ** -0.3

    def test_mu1_range_enforced(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ConfigurationError):
                step_size(3, bad)


class TestProjection:
    def test_identity_inside(self):
        lo, hi = np.zeros(2), np.array([10.0, 1.0])
        v = np.array([2.0, 0.5])
        assert np.array_equal(project_box(v, lo, hi), v)

    def test_clamp_at_lower_face(self):
        lo, hi = np.zeros(2), np.array([10.0, 10.0])
        out = project_box(np.array([0.1, 0.1]) - np.array([0.5, 0.0]), lo, hi)
        assert np.array_equal(out, np.array([0.0, 0.1]))

    @given(st.tuples(finite, finite), st.tuples(finite, finite))
    def test_non_expansive(self, a, b):
        lo, hi = np.array([0.0, 0.0]), np.array([10.0, 1.0])
        a, b = np.array(a), np.array(b)
        pa, pb = project_box(a, lo, hi), project_box(b, lo, hi)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12

    def test_non_expansive_bulk(self):
        # 1e4 random pairs on a box with mixed scales
        rng = np.random.default_rng(123)
        lo, hi = np.array([-1.0, 0.0]), np.array([3.0, 0.7])
        a = rng.uniform(-50, 50, size=(10000, 2))
        b = rng.uniform(-50, 50, size=(10000, 2))
        pa = np.clip(a, lo, hi)
        pb = np.clip(b, lo, hi)
        assert np.all(np.linalg.norm(pa - pb, axis=1)
                      <= np.linalg.norm(a - b, axis=1) + 1e-12)


class TestControllerState:
    def test_pi_law(self):
        cs = ReferenceController(theta=np.array([2.0, 0.5]))
        cs.last_error, cs.error_sum = 1.0, 3.0
        assert cs.control() == pytest.approx(3.5)

    def test_empty_history_gives_zero_current(self):
        cs = ReferenceController()
        assert cs.control() == 0.0
        assert cs.t == 0

    def test_control_gradient_matches_statistics(self):
        cs = ReferenceController()
        cs.last_error, cs.error_sum = 0.7, -1.2
        assert np.array_equal(cs.control_gradient(), np.array([0.7, -1.2]))

    def test_gradient_zero_error(self):
        cs = ReferenceController()
        cs.last_error, cs.error_sum = 1.0, 3.0
        assert np.array_equal(cs.gradient(0.0), np.zeros(2))

    def test_gradient_direct(self):
        cs = ReferenceController()
        cs.last_error, cs.error_sum = 1.0, 3.0
        g = cs.gradient(0.2)
        assert g == pytest.approx([-0.2, -0.6])

    def test_gradient_clip_rescales_to_norm(self):
        cs = ReferenceController(grad_clip=0.1)
        cs.last_error, cs.error_sum = 3.0, 4.0
        g = cs.gradient(1.0)
        assert np.linalg.norm(g) == pytest.approx(0.1)
        # direction preserved
        raw = -1.0 * np.array([3.0, 4.0])
        assert np.allclose(g / np.linalg.norm(g), raw / np.linalg.norm(raw))

    def test_update_interior_step(self):
        cs = ReferenceController(theta=np.array([5.0, 0.5]))
        cs.update(np.array([1.0, 0.1]), 0.5, e_active=0.3)
        assert cs.theta == pytest.approx([4.5, 0.45])
        assert cs.last_error == 0.3
        assert cs.error_sum == 0.3
        assert cs.t == 1

    def test_update_clamps_to_box(self):
        cs = ReferenceController(theta=np.array([0.1, 0.1]),
                                 theta_lo=np.zeros(2), theta_hi=np.array([10.0, 10.0]))
        cs.update(np.array([0.5, 0.0]), 1.0, e_active=0.0)
        assert cs.theta == pytest.approx([0.0, 0.1])

    def test_theta_must_start_in_box(self):
        with pytest.raises(ConfigurationError):
            ControllerState(theta=np.array([20.0, 0.1]))

    @pytest.mark.parametrize("kw", [{"theta": np.array([math.nan, 0.1])},
                                    {"grad_clip": math.nan}], ids=["theta", "grad_clip"])
    def test_nan_setting_rejected(self, kw):
        with pytest.raises(ConfigurationError):
            ControllerState(**kw)

    def test_divergent_statistics_raise(self):
        from bangride import SimulationDiverged
        cs = ReferenceController()
        cs.error_sum = math.inf
        with pytest.raises(SimulationDiverged):
            cs.control()

    def test_single_constraint_tracking_converges(self):
        # p = 1: the PI law must drive the current to its bound (the
        # empirical per-step-gap limit on the simplest monotone plant)
        from bangride import ToyLinearPlant, run_closed_loop
        model = ToyLinearPlant(p=1)
        spec = ConstraintSpec(y_bar=[5.0], gamma=[0.2])
        cs = ControllerState()
        traj = run_closed_loop(model, cs, spec, 4000, model.initial_state())
        tail = traj.e_active[-400:]
        assert np.max(np.abs(tail)) < 1e-6
