"""Equivalent-circuit cell: two RC links plus a lumped thermal state.

Continuous dynamics (charging positive):

    dv1/dt  = -v1/(R1*C1) + u/C1
    dv2/dt  = -v2/(R2*C2) + u/C2
    dSOC/dt = u/Q
    dTd/dt  = -a*Td + b*u*(Ro*u + v1 + v2)        Td = T - T_ambient

discretized by forward Euler with step dt. State vector [v1, v2, SOC, Td].
Constrained outputs: current, voltage readout K.x + u, and the one-step-ahead
temperature deviation

    h3 = Td*(1 - a*dt) + b*dt*(C.x)*u + b*dt*Ro*u**2

The readout rows follow from the parameters: K = [1, 1, ocv_slope, 0] is
the terminal-voltage structure (OCV affine in SOC, intercept absorbed into
the bound), C = [1, 1, 0, 0] extracts the dynamic-voltage part that heats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigurationError
from ..plant import PlantModel

# perturbed in this documented order by perturb_params
PHYSICAL_FIELDS = ("r_o", "r_1", "r_2", "c_1", "c_2", "q", "a", "b")


@dataclass
class EcmParams:
    r_o: float          # series resistance [ohm]
    r_1: float          # RC link 1 resistance [ohm]
    r_2: float          # RC link 2 resistance [ohm]
    c_1: float          # RC link 1 capacitance [F]
    c_2: float          # RC link 2 capacitance [F]
    q: float            # capacity [A s]
    a: float            # thermal relaxation [1/s]
    b: float            # heating gain [K/(W s)]
    t_ambient: float = 25.0   # [degC]
    ocv0: float = 3.0         # open-circuit voltage at SOC = 0 [V]
    ocv_slope: float = 1.0    # OCV slope in SOC [V]
    dt: float = 1.0           # [s]

    def __post_init__(self):
        for name in PHYSICAL_FIELDS + ("dt",):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"EcmParams.{name} must be > 0")
        if not 0.0 < 1.0 - self.dt / (self.r_1 * self.c_1) < 1.0:
            raise ConfigurationError("unstable discretization: dt/(R1*C1) outside (0,1)")
        if not 0.0 < 1.0 - self.dt / (self.r_2 * self.c_2) < 1.0:
            raise ConfigurationError("unstable discretization: dt/(R2*C2) outside (0,1)")
        if not 0.0 < 1.0 - self.a * self.dt < 1.0:
            raise ConfigurationError("unstable discretization: a*dt outside (0,1)")

    def v_ocv(self, soc: float) -> float:
        return self.ocv0 + self.ocv_slope * soc


class EcmPlant(PlantModel):
    state_dim = 4
    output_count = 3

    def __init__(self, params: EcmParams):
        self.params = params
        p = params
        # cached forward-Euler coefficients
        self._k1 = 1.0 - p.dt / (p.r_1 * p.c_1)
        self._k2 = 1.0 - p.dt / (p.r_2 * p.c_2)
        self._b1 = p.dt / p.c_1
        self._b2 = p.dt / p.c_2
        self._ks = p.dt / p.q
        self._kt = 1.0 - p.a * p.dt
        self._bt = p.b * p.dt

    def initial_state(self, soc0: float = 0.0, temp_dev0: float = 0.0) -> np.ndarray:
        return np.array([0.0, 0.0, float(soc0), float(temp_dev0)])

    def step(self, state, u: float):
        v1, v2, soc, td = state
        heat = self._bt * u * (self.params.r_o * u + v1 + v2)
        return np.array([
            self._k1 * v1 + self._b1 * u,
            self._k2 * v2 + self._b2 * u,
            soc + self._ks * u,
            self._kt * td + heat,
        ])

    def outputs(self, state, u: float) -> np.ndarray:
        v1, v2, soc = float(state[0]), float(state[1]), float(state[2])
        td = float(state[3])
        h2 = v1 + v2 + self.params.ocv_slope * soc + u
        h3 = self._kt * td + self._bt * (v1 + v2) * u + self._bt * self.params.r_o * u * u
        return np.array([u, h2, h3])

    def output(self, state, u: float, index: int) -> float:
        if index == 0:
            return u
        v1, v2 = float(state[0]), float(state[1])
        if index == 1:
            return v1 + v2 + self.params.ocv_slope * float(state[2]) + u
        return (self._kt * float(state[3])
                + self._bt * (v1 + v2) * u
                + self._bt * self.params.r_o * u * u)

    def riding_currents(self, state, y_bar: np.ndarray) -> np.ndarray:
        """Current bound, affine voltage root, and the root where the
        temperature quadratic a*u**2 + b*u + c crosses the bound upward, in
        the cancellation-free form -2c / (b + sqrt(b**2 - 4ac)): -inf where
        the bound is exceeded at every u, NaN (bisection) where b < 0 or the
        form is 0/0. Scalar arithmetic: for one cell numpy's per-call
        overhead would exceed the work."""
        v1, v2, soc, td = (float(v) for v in state)
        b = self._bt * (v1 + v2)
        c = self._kt * td - float(y_bar[2])
        disc = b * b - 4.0 * self._bt * self.params.r_o * c
        if disc < 0.0:
            u_temp = -math.inf
        elif b < 0.0 or b + math.sqrt(disc) == 0.0:
            u_temp = math.nan
        else:
            u_temp = -2.0 * c / (b + math.sqrt(disc))
        return np.array([y_bar[0], y_bar[1] - (v1 + v2 + self.params.ocv_slope * soc),
                         u_temp])

    def telemetry(self, state, u: float) -> dict[str, float]:
        v1, v2, soc, td = (float(v) for v in state)
        return {
            "soc": soc,
            "temperature": self.params.t_ambient + td,
            "v_dynamic": self.params.r_o * u + v1 + v2,
            "v_terminal": self.params.v_ocv(soc) + self.params.r_o * u + v1 + v2,
        }


def perturb_params(base: EcmParams, fraction: float, seed) -> EcmParams:
    """Multiply each physical parameter by an independent uniform factor in
    [1 - fraction, 1 + fraction].

    Deterministic for a fixed seed; a (master_seed, draw_index) tuple keys an
    independent counter-based stream per draw, so ensembles are reproducible
    regardless of evaluation order.
    """
    if not 0.0 <= fraction < 1.0:
        raise ConfigurationError(f"fraction must lie in [0, 1), got {fraction}")
    rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(seed)))
    factors = rng.uniform(1.0 - fraction, 1.0 + fraction, size=len(PHYSICAL_FIELDS))
    updates = {name: getattr(base, name) * float(f)
               for name, f in zip(PHYSICAL_FIELDS, factors)}
    return replace(base, **updates)
