"""Single-particle cell with electrolyte and thermal states (SPMeT).

State [c_avg, c_surf, ce_neg, ce_pos, T]: average and surface lithium
concentration in the negative particle [mol/m^3], electrolyte concentrations
at both electrodes [mol/m^3], and cell temperature [degC]. Discrete-time
updates (step dt, charging positive):

    c_avg'  = c_avg + dt/(Vp*F) * u
    c_surf' = lam*c_avg + (1 - lam)*c_surf + dt/(Vp*F*(1-beta)) * u,
              lam = G*dt/(beta*(1-beta)*tau)
    ce'     = ce + dt*D*N1/(L*eps*N3) * (ce_rest - ce) + dt*N2/(Ve*F*N3) * u
    T'      = T - a*dt*(T - T_ambient) + b*dt*(eta(u,x) + phi(u,x))*u

Outputs: current and terminal voltage V = dU(x) + eta(u,x) + phi(u,x);
SOC = (c_avg/c_max - theta_1)/(theta_2 - theta_1) is reported alongside but
is not a constrained output.

The three potential functions are pluggable. Defaults:

  * dU: cubic in the surface stoichiometry z = c_surf/c_max with positive
    linear and cubic coefficients (difference of two monotone open-circuit
    potential polynomials).
  * eta: Butler-Volmer-form asinh overpotential, scaled by T/298.15 K,
    strictly increasing in u.
  * phi: film term affine in u plus a logarithmic electrolyte-concentration
    ratio term.

Strict monotonicity of V in u on the operating range is checked numerically
at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import ConfigurationError, PotentialDomainError
from ..plant import PlantModel

KELVIN_OFFSET = 273.15
REFERENCE_T_K = 298.15


@dataclass
class SpmetParams:
    dt: float                 # [s]
    v_p: float                # aggregated negative-particle volume [m^3]
    faraday: float            # [C/mol]
    g_hyd: float              # hydraulic-model constant
    beta: float               # hydraulic split, in (0, 1)
    tau: float                # solid diffusion time constant [s]
    d_neg: float; d_pos: float        # electrolyte diffusion [m^2/s]
    l_neg: float; l_pos: float        # electrode thickness [m]
    eps_neg: float; eps_pos: float    # porosity
    n1_neg: float; n1_pos: float      # Pade constants
    n2_neg: float; n2_pos: float
    n3_neg: float; n3_pos: float
    ve_neg: float; ve_pos: float      # electrolyte volume [m^3]
    a: float                  # thermal relaxation [1/s]
    b: float                  # heating gain [K/(W s)]
    t_ambient: float          # [degC]
    c_max: float              # max negative-particle concentration [mol/m^3]
    theta_1: float            # stoichiometric SOC endpoints
    theta_2: float
    q: float                  # capacity [A h]; the current bound is 2*q in A
    ce_rest_neg: float = 1200.0   # electrolyte rest concentration [mol/m^3]
    ce_rest_pos: float = 1200.0
    # default-potential coefficients
    ocv_base: float = 3.0     # dU(z) = ocv_base + ocv_lin*z + ocv_cubic*z^3
    ocv_lin: float = 0.7
    ocv_cubic: float = 0.6
    bv_gain: float = 0.08     # eta = bv_gain*(T_K/298.15)*asinh(u/bv_scale)
    bv_scale: float = 15.0
    film_res: float = 0.005   # phi = film_res*u + phi_log_gain*ln(ce_pos/ce_neg)
    phi_log_gain: float = 0.02
    # pluggable potentials; None selects the defaults above
    delta_u: Callable | None = field(default=None, repr=False)
    delta_eta: Callable | None = field(default=None, repr=False)
    delta_phi: Callable | None = field(default=None, repr=False)

    def __post_init__(self):
        positive = ("dt", "v_p", "faraday", "g_hyd", "tau", "d_neg", "d_pos",
                    "l_neg", "l_pos", "eps_neg", "eps_pos", "n1_neg", "n1_pos",
                    "n2_neg", "n2_pos", "n3_neg", "n3_pos", "ve_neg", "ve_pos",
                    "a", "b", "c_max", "q", "ce_rest_neg", "ce_rest_pos")
        for name in positive:
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"SpmetParams.{name} must be > 0")
        if not 0.0 < self.beta < 1.0:
            raise ConfigurationError("beta must lie in (0, 1)")
        if not 0.0 <= self.theta_1 < self.theta_2 <= 1.0:
            raise ConfigurationError("need 0 <= theta_1 < theta_2 <= 1")
        if self.delta_u is None:
            self.delta_u = self._default_delta_u
        if self.delta_eta is None:
            self.delta_eta = self._default_delta_eta
        if self.delta_phi is None:
            self.delta_phi = self._default_delta_phi

    @property
    def u_max(self) -> float:
        """Maximum charging current 2*q [A] (2C with q in A h)."""
        return 2.0 * self.q

    def _default_delta_u(self, x: np.ndarray) -> float:
        z = float(x[1]) / self.c_max
        return self.ocv_base + self.ocv_lin * z + self.ocv_cubic * z ** 3

    def _default_delta_eta(self, u: float, x: np.ndarray) -> float:
        t_kelvin = float(x[4]) + KELVIN_OFFSET
        return self.bv_gain * (t_kelvin / REFERENCE_T_K) * math.asinh(u / self.bv_scale)

    def _default_delta_phi(self, u: float, x: np.ndarray) -> float:
        ce_neg, ce_pos = float(x[2]), float(x[3])
        if ce_neg <= 0.0 or ce_pos <= 0.0:
            raise PotentialDomainError(
                "delta_phi_e", f"non-positive electrolyte concentration "
                f"(ce_neg={ce_neg:g}, ce_pos={ce_pos:g})")
        return self.film_res * u + self.phi_log_gain * math.log(ce_pos / ce_neg)


class SpmetPlant(PlantModel):
    state_dim = 5
    output_count = 2

    def __init__(self, params: SpmetParams, check_monotone: bool = True):
        self.params = params
        p = params
        self._k_avg = p.dt / (p.v_p * p.faraday)
        self._lam = p.g_hyd * p.dt / (p.beta * (1.0 - p.beta) * p.tau)
        if not 0.0 < self._lam < 1.0:
            raise ConfigurationError("surface-concentration update unstable: "
                                     "G*dt/(beta*(1-beta)*tau) outside (0,1)")
        self._k_srf = p.dt / (p.v_p * p.faraday * (1.0 - p.beta))
        self._rex_n = p.dt * p.d_neg * p.n1_neg / (p.l_neg * p.eps_neg * p.n3_neg)
        self._rex_p = p.dt * p.d_pos * p.n1_pos / (p.l_pos * p.eps_pos * p.n3_pos)
        self._fu_n = p.dt * p.n2_neg / (p.ve_neg * p.faraday * p.n3_neg)
        self._fu_p = p.dt * p.n2_pos / (p.ve_pos * p.faraday * p.n3_pos)
        if not 0.0 < self._rex_n < 1.0 or not 0.0 < self._rex_p < 1.0:
            raise ConfigurationError("electrolyte relaxation unstable")
        if check_monotone:
            self._check_voltage_monotone()

    def _check_voltage_monotone(self, n_z: int = 9, n_u: int = 9,
                                delta: float = 1e-4) -> None:
        """Numerical spot check: V strictly increasing in u on the operating range."""
        p = self.params
        for z in np.linspace(0.05, 0.98, n_z):
            x = self.initial_state(stoich=z)
            for u in np.linspace(0.0, 2.0 * p.u_max, n_u):
                v0 = self.output(x, u, 1)
                v1 = self.output(x, u + delta, 1)
                if not v1 > v0:
                    raise ConfigurationError(
                        f"terminal voltage not strictly increasing in u at "
                        f"z={z:.3f}, u={u:.3f}")

    def initial_state(self, stoich: float = 0.1,
                      temperature: float | None = None) -> np.ndarray:
        """Rested state at the given negative-particle stoichiometry."""
        p = self.params
        c0 = stoich * p.c_max
        t0 = p.t_ambient if temperature is None else temperature
        return np.array([c0, c0, p.ce_rest_neg, p.ce_rest_pos, t0])

    def step(self, state, u: float):
        p = self.params
        c_avg, c_surf, ce_n, ce_p, temp = (float(v) for v in state)
        heat = (p.delta_eta(u, state) + p.delta_phi(u, state)) * u
        return np.array([
            c_avg + self._k_avg * u,
            self._lam * c_avg + (1.0 - self._lam) * c_surf + self._k_srf * u,
            ce_n + self._rex_n * (p.ce_rest_neg - ce_n) + self._fu_n * u,
            ce_p + self._rex_p * (p.ce_rest_pos - ce_p) + self._fu_p * u,
            temp - p.a * p.dt * (temp - p.t_ambient) + p.b * p.dt * heat,
        ])

    def outputs(self, state, u: float) -> np.ndarray:
        return np.array([u, self.output(state, u, 1)])

    def output(self, state, u: float, index: int) -> float:
        if index == 0:
            return u
        p = self.params
        return p.delta_u(state) + p.delta_eta(u, state) + p.delta_phi(u, state)

    def soc(self, state) -> float:
        p = self.params
        return (float(state[0]) / p.c_max - p.theta_1) / (p.theta_2 - p.theta_1)

    def telemetry(self, state, u: float) -> dict[str, float]:
        return {
            "soc": self.soc(state),
            "temperature": float(state[4]),
            "voltage": self.output(state, u, 1),
        }
