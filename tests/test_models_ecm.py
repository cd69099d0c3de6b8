import math

import numpy as np
import pytest

from bangride import ConfigurationError, EcmParams, EcmPlant, perturb_params
from bangride.models.ecm import PHYSICAL_FIELDS

KW = dict(r_o=0.05, r_1=0.15, r_2=0.35, c_1=1000.0, c_2=1700.0,
          q=12000.0, a=0.002, b=7.5e-4, ocv0=3.0, ocv_slope=3.0, dt=1.0)


@pytest.fixture
def plant():
    return EcmPlant(EcmParams(**KW))


class TestEcmDynamics:
    def test_zero_current_thermal_decay(self, plant):
        # with u = 0 the deviation follows (1 - a*dt) * Td exactly
        x = np.array([0.0, 0.0, 0.2, 4.0])
        td = 4.0
        for _ in range(50):
            x = plant.step(x, 0.0)
            td *= 1.0 - KW["a"] * KW["dt"]
            assert x[3] == pytest.approx(td, rel=1e-12)

    def test_v1_fixed_point_at_constant_current(self, plant):
        # analytic fixed point of the v1 recursion: v1* = R1 * u
        u = 4.0
        x = plant.initial_state()
        for _ in range(20000):
            x = plant.step(x, u)
        assert x[0] == pytest.approx(KW["r_1"] * u, rel=1e-9)
        assert x[1] == pytest.approx(KW["r_2"] * u, rel=1e-9)

    def test_soc_affine_in_throughput(self, plant):
        x = plant.initial_state()
        throughput = 0.0
        rng = np.random.default_rng(3)
        for _ in range(200):
            u = rng.uniform(0.0, 10.0)
            x = plant.step(x, u)
            throughput += u * KW["dt"]
            assert x[2] == pytest.approx(throughput / KW["q"], rel=1e-12)

    def test_first_order_step_size_convergence(self):
        # halving dt and doubling steps must halve the v1 error against the
        # exact ODE solution (forward Euler is first order)
        u, horizon = 5.0, 400.0
        tau = KW["r_1"] * KW["c_1"]
        exact = KW["r_1"] * u * (1.0 - math.exp(-horizon / tau))

        def terminal_v1(dt):
            plant = EcmPlant(EcmParams(**{**KW, "dt": dt}))
            x = plant.initial_state()
            for _ in range(int(horizon / dt)):
                x = plant.step(x, u)
            return x[0]

        errs = [abs(terminal_v1(dt) - exact) for dt in (1.0, 0.5, 0.25)]
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.1)


class TestEcmOutputs:
    def test_h2_at_zero_state_equals_u(self, plant):
        x = np.zeros(4)
        for u in (0.0, 1.0, 7.5):
            assert plant.output(x, u, 1) == u

    def test_h3_formula_exact(self, plant):
        p = plant.params
        x = np.array([0.8, 1.1, 0.4, 3.0])
        u = 6.0
        expected = (x[3] * (1.0 - p.a * p.dt)
                    + p.b * p.dt * (x[0] + x[1]) * u
                    + p.b * p.dt * p.r_o * u ** 2)
        assert plant.output(x, u, 2) == pytest.approx(expected, rel=1e-15)

    def test_h3_is_next_step_temperature_deviation_at_k_zero_coupling(self, plant):
        x = np.array([0.5, 0.9, 0.3, 2.0])
        u = 4.0
        assert plant.output(x, u, 2) == pytest.approx(plant.step(x, u)[3], rel=1e-15)

    def test_scalar_fast_path_matches_vector_outputs(self, plant):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.uniform(0, 3, size=4)
            u = rng.uniform(-2, 12)
            y = plant.outputs(x, u)
            for i in range(3):
                assert plant.output(x, u, i) == y[i]

    def test_voltage_readout_matches_row(self, plant):
        x = np.array([0.4, 0.6, 0.5, 1.0])
        u = 3.0
        assert plant.output(x, u, 1) == pytest.approx(
            float(np.array([1.0, 1.0, KW["ocv_slope"], 0.0]) @ x) + u)


class TestParamValidation:
    def test_rejects_unstable_discretization(self):
        with pytest.raises(ConfigurationError):
            EcmParams(**{**KW, "c_1": 0.5})  # dt/(R1*C1) > 1
        with pytest.raises(ConfigurationError):
            EcmParams(**{**KW, "a": 1.5})

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            EcmParams(**{**KW, "q": 0.0})


class TestPerturbParams:
    def test_zero_fraction_identity(self):
        base = EcmParams(**KW)
        assert perturb_params(base, 0.0, seed=42) == base

    def test_factors_within_band(self):
        base = EcmParams(**KW)
        for seed in range(30):
            p = perturb_params(base, 0.1, seed=seed)
            for name in PHYSICAL_FIELDS:
                ratio = getattr(p, name) / getattr(base, name)
                assert 0.9 <= ratio <= 1.1

    def test_deterministic_for_fixed_seed(self):
        base = EcmParams(**KW)
        assert perturb_params(base, 0.1, seed=(7, 3)) == perturb_params(base, 0.1, seed=(7, 3))
        assert perturb_params(base, 0.1, seed=(7, 3)) != perturb_params(base, 0.1, seed=(7, 4))

    def test_factor_sample_mean_near_one(self):
        # Monte-Carlo estimate of the uniform-factor mean over 1e4 draws
        base = EcmParams(**KW)
        draws = np.array([[getattr(perturb_params(base, 0.1, seed=(99, k)), name)
                           / getattr(base, name) for name in PHYSICAL_FIELDS]
                          for k in range(10000)])
        means = draws.mean(axis=0)
        assert np.all(np.abs(means - 1.0) < 0.01)

    def test_fraction_out_of_range(self):
        base = EcmParams(**KW)
        with pytest.raises(ConfigurationError):
            perturb_params(base, -0.1, seed=0)
        with pytest.raises(ConfigurationError):
            perturb_params(base, 1.0, seed=0)

    def test_non_physical_fields_untouched(self):
        base = EcmParams(**KW)
        p = perturb_params(base, 0.1, seed=5)
        assert p.ocv_slope == base.ocv_slope
        assert p.t_ambient == base.t_ambient
        assert p.dt == base.dt
