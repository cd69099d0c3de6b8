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
is not a constrained output. ``SpmetPlant.advance`` computes eta + phi once
per step, for the voltage and the heat alike; the two other voltages, of the
riding current and of ``output_rows``, come from ``SpmetPlant._volts``, in
the same operation order.

The three potentials have a fixed form, set by ``SpmetParams`` coefficients;
``SpmetParams.potential_terms`` gives their parts that do not depend on u:

  * dU: cubic in the surface stoichiometry z = c_surf/c_max with positive
    linear and cubic coefficients (difference of two monotone open-circuit
    potential polynomials).
  * eta: Butler-Volmer-form asinh overpotential, scaled by T/298.15 K,
    strictly increasing in u.
  * phi: film term affine in u plus a logarithmic electrolyte-concentration
    ratio term.

Strict monotonicity of V in u on the operating range is checked numerically
at construction, since the coefficients are read from a parameter file: by
``plant.validate_monotonicity`` on ``advance``, over a 9 x 9 grid of rested
states (stoichiometry 0.05-0.98) and currents (0 to 2*u_max).

``SpmetPlant.riding_currents`` gives the oracle its voltage root without
bisection. V is increasing and concave in u >= 0, so Newton steps from u = 0
climb to the root from the feasible side. They stop when a step makes no
progress, or when rounding puts a step's computed voltage above the bound;
then halving closes [last feasible iterate, overshoot] to the plant
contract's tolerance ``plant.RootConfig.tol_u``. The result is the largest
current whose computed voltage does not exceed the bound, within it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, PotentialDomainError
from ..plant import PlantModel, RootConfig, validate_monotonicity

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
    # potential coefficients
    ocv_base: float = 3.0     # dU(z) = ocv_base + ocv_lin*z + ocv_cubic*z^3
    ocv_lin: float = 0.7
    ocv_cubic: float = 0.6
    bv_gain: float = 0.08     # eta = bv_gain*(T_K/298.15)*asinh(u/bv_scale)
    bv_scale: float = 15.0
    film_res: float = 0.005   # phi = film_res*u + phi_log_gain*ln(ce_pos/ce_neg)
    phi_log_gain: float = 0.02

    def __post_init__(self):
        positive = ("dt", "v_p", "faraday", "g_hyd", "tau", "d_neg", "d_pos",
                    "l_neg", "l_pos", "eps_neg", "eps_pos", "n1_neg", "n1_pos",
                    "n2_neg", "n2_pos", "n3_neg", "n3_pos", "ve_neg", "ve_pos",
                    "a", "b", "c_max", "q", "ce_rest_neg", "ce_rest_pos", "bv_scale")
        for name in positive:
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"SpmetParams.{name} must be > 0")
        if not 0.0 < self.beta < 1.0:
            raise ConfigurationError("beta must lie in (0, 1)")
        if not 0.0 <= self.theta_1 < self.theta_2 <= 1.0:
            raise ConfigurationError("need 0 <= theta_1 < theta_2 <= 1")

    @property
    def u_max(self) -> float:
        """Maximum charging current 2*q [A] (2C with q in A h)."""
        return 2.0 * self.q

    def potential_terms(self, x: list[float]) -> tuple[float, float, float]:
        """The parts of the three potentials that do not depend on u, at the
        state x as a list of floats: dU(z), the overpotential gain
        k(T) = bv_gain*(T_K/298.15), and the electrolyte term
        phi_log_gain*ln(ce_pos/ce_neg). Every voltage evaluation combines them
        in one operation order, dU + eta + phi with eta = k*asinh(u/bv_scale)
        and phi = film_res*u + log term."""
        z = x[1] / self.c_max
        ce_neg, ce_pos = x[2], x[3]
        if ce_neg <= 0.0 or ce_pos <= 0.0:
            raise PotentialDomainError(
                f"delta_phi_e: non-positive electrolyte concentration "
                f"(ce_neg={ce_neg:g}, ce_pos={ce_pos:g})")
        t_kelvin = x[4] + KELVIN_OFFSET
        return (self.ocv_base + self.ocv_lin * z + self.ocv_cubic * z ** 3,
                self.bv_gain * (t_kelvin / REFERENCE_T_K),
                self.phi_log_gain * math.log(ce_pos / ce_neg))


class SpmetPlant(PlantModel):
    output_count = 2
    plots = {"voltage": ("voltage",), "temperature": ("temperature",), "soc": ("soc",)}

    def __init__(self, params: SpmetParams):
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
        report = validate_monotonicity(
            self, [self.initial_state(stoich=z).tolist() for z in np.linspace(0.05, 0.98, 9)],
            np.linspace(0.0, 2.0 * p.u_max, 9))
        if not report.ok:
            raise ConfigurationError(
                f"terminal voltage not strictly increasing in u on the operating range: "
                f"min slope {report.min_slope[1]:.3g}")

    def _volts(self, terms: tuple[float, float, float], u: float) -> float:
        """Terminal voltage dU + eta + phi at input u, from the state's
        ``potential_terms``, in the operation order of ``advance``."""
        du, k, log_term = terms
        p = self.params
        return du + k * math.asinh(u / p.bv_scale) + (p.film_res * u + log_term)

    def initial_state(self, stoich: float | None = None) -> np.ndarray:
        """Rested state at ambient temperature and the given
        negative-particle stoichiometry, by default ``theta_1`` (SOC 0)."""
        p = self.params
        c0 = (p.theta_1 if stoich is None else stoich) * p.c_max
        return np.array([c0, c0, p.ce_rest_neg, p.ce_rest_pos, p.t_ambient])

    def advance(self, state, u: float):
        p = self.params
        x = list(map(float, state))
        c_avg, c_surf, ce_n, ce_p, temp = x
        du, k, log_term = p.potential_terms(x)
        eta = k * math.asinh(u / p.bv_scale)
        phi = p.film_res * u + log_term
        heat = (eta + phi) * u
        return [u, du + eta + phi], [
            c_avg + self._k_avg * u,
            self._lam * c_avg + (1.0 - self._lam) * c_surf + self._k_srf * u,
            ce_n + self._rex_n * (p.ce_rest_neg - ce_n) + self._fu_n * u,
            ce_p + self._rex_p * (p.ce_rest_pos - ce_p) + self._fu_p * u,
            temp - p.a * p.dt * (temp - p.t_ambient) + p.b * p.dt * heat,
        ]

    def output_rows(self, states, u, index) -> np.ndarray:
        """Each row's output on Python floats; a voltage row through
        ``_volts``, so that it equals ``advance``'s bit for bit."""
        terms, volts = self.params.potential_terms, self._volts
        return np.array([volts(terms(x), u_k) if i else u_k for x, u_k, i
                         in zip(states.tolist(), u.tolist(), index.tolist())], dtype=float)

    def riding_currents(self, state, y_bar: np.ndarray) -> list[float]:
        """Current bound, and the voltage root by Newton from u = 0 with the
        stop rule of the module docstring: -inf when the bound is exceeded at
        u = 0, and otherwise the root, also above u_max. Each voltage is
        computed by ``_volts``, bit for bit as ``advance`` does."""
        p = self.params
        terms = p.potential_terms(list(map(float, state)))
        u_max, bound = y_bar.tolist()
        k, s, r = terms[1], p.bv_scale, p.film_res
        volts = self._volts
        u, v = 0.0, volts(terms, 0.0)
        if v > bound:
            return [u_max, -math.inf]
        while True:
            hi = u + (bound - v) / (k / math.sqrt(s * s + u * u) + r)
            if not hi > u:
                break
            v_hi = volts(terms, hi)
            if v_hi > bound:
                break
            u, v = hi, v_hi
        # after an overshoot the crossing lies in [u, hi]; without one, hi <= u
        while hi - u > RootConfig.tol_u:
            mid = 0.5 * (u + hi)
            if not u < mid < hi:
                break
            if volts(terms, mid) > bound:
                hi = mid
            else:
                u = mid
        return [u_max, u]

    def soc(self, states):
        """SOC of one state, or of each row of a state array."""
        p = self.params
        return (states[..., 0] / p.c_max - p.theta_1) / (p.theta_2 - p.theta_1)

    def telemetry(self, states, u, y) -> dict[str, np.ndarray]:
        return {"soc": self.soc(states), "temperature": states[:, 4],
                "voltage": y[:, 1]}
