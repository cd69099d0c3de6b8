import numpy as np
import pytest

from bangride import (ConfigurationError, PotentialDomainError, SpmetParams,
                      SpmetPlant)
from bangride.config import load_spmet_params, resolve_config_path


@pytest.fixture(scope="module")
def params():
    return load_spmet_params(resolve_config_path("params_spmet"))


@pytest.fixture(scope="module")
def plant(params):
    return SpmetPlant(params)


class TestSpmetStep:
    def test_zero_current_leaves_average_concentration(self, plant):
        x = plant.initial_state(stoich=0.3)
        for _ in range(25):
            x_next = plant.step(x, 0.0)
            assert x_next[0] == x[0]
            x = x_next

    def test_constant_current_cumulative_sum(self, plant, params):
        # closed form: c_avg(k) = c_avg(0) + k * dt * u / (v_p * F)
        u = 40.0
        x = plant.initial_state()
        c0 = x[0]
        for k in range(1, 301):
            x = plant.step(x, u)
            expected = c0 + k * params.dt * u / (params.v_p * params.faraday)
            assert x[0] == pytest.approx(expected, rel=1e-12)

    def test_surface_tracks_average_at_rest(self, plant):
        x = plant.initial_state(stoich=0.5)
        x[1] = 0.4 * plant.params.c_max  # start away from the average
        for _ in range(3000):
            x = plant.step(x, 0.0)
        assert x[1] == pytest.approx(x[0], rel=1e-6)

    def test_zero_potentials_keep_ambient_temperature(self, params):
        quiet = SpmetParams(**{**_as_kwargs(params),
                               "delta_eta": lambda u, x: 0.0,
                               "delta_phi": lambda u, x: 0.0})
        plant = SpmetPlant(quiet, check_monotone=False)
        x = plant.initial_state()
        assert x[4] == params.t_ambient
        for _ in range(100):
            x = plant.step(x, 30.0)
            assert x[4] == params.t_ambient

    def test_electrolyte_relaxes_to_rest(self, plant, params):
        x = plant.initial_state()
        x[2], x[3] = 900.0, 1500.0
        for _ in range(4000):
            x = plant.step(x, 0.0)
        assert x[2] == pytest.approx(params.ce_rest_neg, rel=1e-6)
        assert x[3] == pytest.approx(params.ce_rest_pos, rel=1e-6)


class TestSpmetOutputs:
    def test_soc_zero_at_theta1_stoichiometry(self, plant, params):
        x = plant.initial_state(stoich=params.theta_1)
        assert plant.soc(x) == pytest.approx(0.0, abs=1e-15)

    def test_initial_condition_convention_soc_zero(self, plant, params):
        # rested cell at one-tenth of max concentration starts at SOC 0
        assert params.theta_1 == 0.1
        x = plant.initial_state(stoich=0.1)
        assert x[0] == pytest.approx(0.1 * params.c_max)
        assert x[1] == pytest.approx(0.1 * params.c_max)
        assert plant.soc(x) == pytest.approx(0.0, abs=1e-15)

    def test_soc_affine_increasing_in_average_concentration(self, plant, params):
        span = params.theta_2 - params.theta_1
        c_grid = np.linspace(0.1, 0.9, 9) * params.c_max
        socs = []
        for c in c_grid:
            x = plant.initial_state()
            x[0] = c
            socs.append(plant.soc(x))
        diffs = np.diff(socs)
        assert np.all(diffs > 0)
        # affine: equal spacing in c gives equal spacing in SOC
        assert np.allclose(diffs, diffs[0])
        assert socs[-1] - socs[0] == pytest.approx((0.8 * params.c_max / params.c_max) / span)

    def test_voltage_strictly_increasing_in_current(self, plant):
        # finite-difference sweep over the operating grid, default potentials
        for z in np.linspace(0.05, 0.95, 7):
            x = plant.initial_state(stoich=z)
            grid = np.linspace(0.0, 2.0 * plant.params.u_max, 9)
            v = [plant.output(x, u, 1) for u in grid]
            assert np.all(np.diff(v) > 0)

    def test_first_output_is_identity(self, plant):
        x = plant.initial_state()
        for u in (0.0, 13.0, 56.3739):
            assert plant.outputs(x, u)[0] == u

    def test_potential_domain_error_names_function(self, plant):
        x = plant.initial_state()
        x[2] = -1.0
        with pytest.raises(PotentialDomainError, match="delta_phi_e"):
            plant.output(x, 1.0, 1)

    def test_scalar_fast_path_matches_vector_outputs(self, plant):
        x = plant.initial_state(stoich=0.4)
        for u in (0.0, 5.0, 50.0):
            y = plant.outputs(x, u)
            assert plant.output(x, u, 0) == y[0]
            assert plant.output(x, u, 1) == y[1]

    def test_current_bound_is_twice_capacity(self, params):
        assert params.u_max == pytest.approx(2.0 * params.q)
        assert params.u_max == pytest.approx(56.3739)


class TestSpmetValidation:
    def test_constructor_rejects_non_monotone_potentials(self, params):
        bad = SpmetParams(**{**_as_kwargs(params),
                             "delta_eta": lambda u, x: -0.5 * u,
                             "delta_phi": lambda u, x: 0.0})
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            SpmetPlant(bad)

    def test_invariant_checks(self, params):
        with pytest.raises(ConfigurationError):
            SpmetParams(**{**_as_kwargs(params), "beta": 1.0})
        with pytest.raises(ConfigurationError):
            SpmetParams(**{**_as_kwargs(params), "theta_1": 0.95})
        with pytest.raises(ConfigurationError):
            SpmetParams(**{**_as_kwargs(params), "c_max": -1.0})


def _as_kwargs(params: SpmetParams) -> dict:
    fields = [f for f in params.__dataclass_fields__
              if f not in ("delta_u", "delta_eta", "delta_phi")]
    return {f: getattr(params, f) for f in fields}
