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
from typing import Sequence

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

    def riding_currents(self, state, y_bar: np.ndarray) -> np.ndarray:
        """Current bound, affine voltage root, and the root where the
        temperature quadratic a*u**2 + b*u + c crosses the bound upward, in
        the cancellation-free form -2c / (b + sqrt(b**2 - 4ac)): -inf where
        the bound is exceeded at every u. Where that form fails (b < 0, or
        0/0) it is -inf if c > 0 and otherwise the larger root
        (sqrt(b**2 - 4ac) - b) / (2a), which has no cancellation for b <= 0.

        With b < 0 and c > 0 the output falls before it rises, which breaks
        the plant contract's monotonicity; the bound is exceeded at u = 0,
        which is what -inf reports. No charging run reaches this case: v1
        and v2 stay >= 0 from rest under u >= 0. Scalar arithmetic: for one
        cell numpy's per-call overhead would exceed the work."""
        v1, v2, soc, td = (float(v) for v in state)
        b = self._bt * (v1 + v2)
        c = self._kt * td - float(y_bar[2])
        disc = b * b - 4.0 * self._bt * self.params.r_o * c
        if disc < 0.0:
            u_temp = -math.inf
        elif b < 0.0 or b + math.sqrt(disc) == 0.0:
            u_temp = (-math.inf if c > 0.0 else
                      (math.sqrt(disc) - b) / (2.0 * self._bt * self.params.r_o))
        else:
            u_temp = -2.0 * c / (b + math.sqrt(disc))
        return np.array([y_bar[0], y_bar[1] - (v1 + v2 + self.params.ocv_slope * soc),
                         u_temp])

    def telemetry(self, states, u, y) -> dict[str, np.ndarray]:
        return {
            "soc": states[:, 2],
            "temperature": self.params.t_ambient + states[:, 3],
            "v_dynamic": self.params.r_o * u + states[:, 0] + states[:, 1],
        }


class EcmEnsemble:
    """M ECM cells, each with its own parameters, stepped together.

    States are (M, 4) rows and every coefficient is an (M,) column. Each
    expression repeats the operand order of ``EcmPlant``, so row k of every
    result equals the scalar result of ``cells[k]`` bit for bit. Results are
    transposed views of (columns, M) arrays, filled a column at a time: at
    small M, numpy's per-call cost outweighs the arithmetic.
    """

    output_count = EcmPlant.output_count

    def __init__(self, params: Sequence[EcmParams]):
        self.params = list(params)
        self.cells = [EcmPlant(p) for p in self.params]
        for name in ("_k1", "_k2", "_b1", "_b2", "_ks", "_kt", "_bt"):
            setattr(self, name, np.array([getattr(c, name) for c in self.cells]))
        self._r_o = np.array([p.r_o for p in self.params])
        self._ocv_slope = np.array([p.ocv_slope for p in self.params])
        # the product that EcmPlant forms first in its left-to-right expressions
        self._bt_r_o = self._bt * self._r_o
        # the step's k*x + b*u for three columns at once (the exact factor 1
        # leaves soc + ks*u as it is); the temperature column is set alone
        m = len(self.params)
        self._k = np.array([self._k1, self._k2, np.ones(m), np.zeros(m)])
        self._b = np.array([self._b1, self._b2, self._ks, np.zeros(m)])

    def take(self, keep: np.ndarray) -> "EcmEnsemble":
        """The members where the boolean mask ``keep`` is true."""
        return EcmEnsemble([p for p, k in zip(self.params, keep) if k])

    def step(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        v1, v2, soc, td = cols = x.T
        nxt = self._k * cols + self._b * u
        nxt[3] = self._kt * td + self._bt * u * (self._r_o * u + v1 + v2)
        return nxt.T

    def outputs(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        v1, v2, soc, td = x.T
        v12 = v1 + v2
        y = np.empty((3, len(x)))
        y[0] = u
        y[1] = v12 + self._ocv_slope * soc + u
        y[2] = self._kt * td + self._bt * v12 * u + self._bt_r_o * u * u
        return y.T

    def riding_currents(self, x: np.ndarray, y_bar: np.ndarray) -> np.ndarray:
        """``EcmPlant.riding_currents`` of every member, one row each."""
        v1, v2, soc, td = x.T
        v12 = v1 + v2
        roots = np.empty((3, len(x)))
        roots[0] = y_bar[0]
        roots[1] = y_bar[1] - (v12 + self._ocv_slope * soc)
        roots[2] = rising_roots(self._bt_r_o, self._bt * v12,
                                self._kt * td - float(y_bar[2]))
        return roots.T


def rising_roots(a: float | np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per element, the root of a*u**2 + b*u + c = 0 (a > 0) where the
    quadratic crosses zero upward: ``EcmPlant.riding_currents`` on arrays,
    with the same forms and the same -inf rules.

    The factors 2 and 4 are powers of two, so with a = bt*r_o the products
    2*a and 4*a equal the scalar form's (2*bt)*r_o and (4*bt)*r_o exactly.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = b * b - 4.0 * a * c
        den = b + np.sqrt(disc)
        root = -2.0 * c / den
        alt = (b < 0.0) | (den == 0.0)
        if alt.any():  # rare: only these rows pay for the second form
            a_alt = a[alt] if np.ndim(a) else a
            root[alt] = np.where(c[alt] > 0.0, -np.inf,
                                 (np.sqrt(disc[alt]) - b[alt]) / (2.0 * a_alt))
    root[disc < 0.0] = -np.inf
    return root


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
