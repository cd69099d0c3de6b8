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
import operator
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from ..plant import PlantModel, _extreme

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
    output_names = ("current", "voltage", "temperature")
    output_count = len(output_names)
    plots = {"voltage": ("v_dynamic",), "temperature": ("temperature",), "soc": ("soc",)}

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

    def initial_state(self) -> np.ndarray:
        """Rested and empty: no RC voltages, SOC 0, at ambient temperature."""
        return np.zeros(4)

    def advance(self, state, u: float):
        v1, v2, soc, td = map(float, state)
        p = self.params
        h2 = v1 + v2 + p.ocv_slope * soc + u
        h3 = self._kt * td + self._bt * (v1 + v2) * u + self._bt * p.r_o * u * u
        heat = self._bt * u * (p.r_o * u + v1 + v2)
        return [u, h2, h3], [
            self._k1 * v1 + self._b1 * u,
            self._k2 * v2 + self._b2 * u,
            soc + self._ks * u,
            self._kt * td + heat,
        ]

    def output_rows(self, states, u, index) -> np.ndarray:
        """The one-cell ensemble's outputs on the rows, then each row's entry."""
        y = self.ensemble([self]).advance(states, u)[0]
        return y[np.arange(len(index)), index]

    def riding_rows(self, states, y_bar, index) -> np.ndarray:
        """The one-cell ensemble's riding currents on the rows, then each row's entry."""
        roots = self.ensemble([self]).riding_currents(states, y_bar)
        return roots[np.arange(len(index)), index]

    def perturbed(self, fraction: float, seed) -> EcmPlant:
        """The cell with ``perturb_params(self.params, fraction, seed)``."""
        return EcmPlant(perturb_params(self.params, fraction, seed))

    def ensemble(self, cells: Sequence[EcmPlant]) -> EcmEnsemble:
        """The given ECM cells as one batched model."""
        return EcmEnsemble([c.params for c in cells])

    def riding_currents(self, state, y_bar: np.ndarray) -> list[float]:
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
        v1, v2, soc, td = map(float, state)
        u_max, v_max, t_max = y_bar.tolist()
        b = self._bt * (v1 + v2)
        c = self._kt * td - t_max
        disc = b * b - 4.0 * self._bt * self.params.r_o * c
        if disc < 0.0:
            u_temp = -math.inf
        elif b < 0.0 or b + math.sqrt(disc) == 0.0:
            u_temp = (-math.inf if c > 0.0 else
                      (math.sqrt(disc) - b) / (2.0 * self._bt * self.params.r_o))
        else:
            u_temp = -2.0 * c / (b + math.sqrt(disc))
        return [u_max, v_max - (v1 + v2 + self.params.ocv_slope * soc), u_temp]

    def telemetry(self, states, u, y) -> dict[str, np.ndarray]:
        return {
            "soc": states[:, 2],
            "temperature": self.params.t_ambient + states[:, 3],
            "v_dynamic": self.params.r_o * u + states[:, 0] + states[:, 1],
        }


class EcmEnsemble:
    """M ECM cells, each with its own parameters, stepped together.

    States are (M, 4) rows and every coefficient is an (M,) column; inputs
    are (M,) arrays, or one float for all members, as a pack's series
    current (``models.pack``). Each expression repeats the operand order of
    ``EcmPlant``, so row k of every result equals the scalar result of
    ``cells[k]`` bit for bit. A step reads the state once, forms v1 + v2 and
    kt*td once, and computes in place, writing its outputs into given rows (a
    pack's output vector); results are transposed views of (columns, M)
    arrays. At small M, numpy's per-call cost outweighs the arithmetic, so
    columns are taken by index, which costs less than iterating ``x.T``.
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
        # the step's products k*x and b*u for all four columns at once (the exact
        # factor 1 leaves soc + ks*u as it is); b*u's row bt*u becomes the heat
        self._k = np.array([self._k1, self._k2, np.ones(len(self.params)), self._kt])
        self._b = np.array([self._b1, self._b2, self._ks, self._bt])

    def advance(self, x: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = np.empty((3, len(x)))
        y[0] = u
        return y.T, self.advance_into(x, u, y[1], y[2])

    def advance_into(self, x: np.ndarray, u, volts, temps) -> np.ndarray:
        """``advance``'s next state rows, a new array, its voltage and temperature
        outputs written in place into the rows ``volts`` and ``temps`` (the pack
        adds its coupling); one buffer holds the u**2 term, then the heat's factor."""
        cols = x.T
        v1, v2, soc = cols[0], cols[1], cols[2]
        nxt, bu = self._k * cols, self._b * u
        v12, ktd, heat = v1 + v2, nxt[3], bu[3]
        np.add(v12, np.multiply(self._ocv_slope, soc, out=volts), out=volts)
        volts += u
        np.multiply(self._bt, v12, out=temps)
        temps *= u
        np.add(ktd, temps, out=temps)
        buf = self._bt_r_o * u
        temps += np.multiply(buf, u, out=buf)
        np.multiply(self._r_o, u, out=buf)
        buf += v1
        heat *= np.add(buf, v2, out=buf)    # bt*u becomes the heat
        nxt += bu
        return nxt.T

    def riding_currents(self, x: np.ndarray, y_bar: np.ndarray) -> np.ndarray:
        """``EcmPlant.riding_currents`` of every member, one row each."""
        soc, td, v12 = x[:, 2], x[:, 3], x[:, 0] + x[:, 1]
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
    a is a float, or an array that broadcasts with b and c: one member's
    coefficient over many rows, or one per member.
    """
    disc = b * b
    disc -= 4.0 * a * c
    # b > 0 on every row rules out b < 0 and a zero den, which b + sqrt(disc)
    # is only for b <= 0; disc >= 0 on every row leaves no -inf and nothing
    # to warn of. A NaN row fails both (argmin reads it): its batch takes the masks
    plain, real = ((_extreme(b, True) > 0.0, _extreme(disc, True) >= 0.0) if b.size
                   else (True, True))
    with nullcontext() if plain and real else np.errstate(divide="ignore", invalid="ignore"):
        den = np.sqrt(disc)
        den += b
        root = -2.0 * c
        root /= den
        if not plain:
            alt = (b < 0.0) | (den == 0.0)
            root[alt] = np.where(c[alt] > 0.0, -np.inf, (np.sqrt(disc[alt]) - b[alt])
                                 / (2.0 * np.broadcast_to(a, b.shape)[alt]))
    if not real:
        root[disc < 0.0] = -np.inf
    return root


def perturb_params(base: EcmParams, fraction: float, seed) -> EcmParams:
    """Multiply each physical parameter by an independent uniform factor in
    [1 - fraction, 1 + fraction], drawn by ``uniform_factors``.

    Deterministic for a fixed seed; a (master_seed, draw_index) tuple keys an
    independent counter-based stream per draw, so ensembles are reproducible
    regardless of evaluation order.
    """
    if not 0.0 <= fraction < 1.0:
        raise ConfigurationError(f"fraction must lie in [0, 1), got {fraction}")
    factors = uniform_factors(seed, fraction, len(PHYSICAL_FIELDS))
    return replace(base, **{name: getattr(base, name) * f
                            for name, f in zip(PHYSICAL_FIELDS, factors)})


_MASK32, _MASK64 = 2 ** 32 - 1, 2 ** 64 - 1


def _seed_words(seed) -> list[int]:
    """The 32-bit words of a seed as numpy's ``SeedSequence`` reads its
    entropy: an int little-endian (0 as one zero word), a tuple word by word."""
    if isinstance(seed, tuple):
        return [word for part in seed for word in _seed_words(part)]
    seed = operator.index(seed)
    if seed < 0:
        raise ConfigurationError(f"seed words must be >= 0, got {seed}")
    return [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix, whose constant steps by ``mult`` at each call."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hashmix


def _philox_key(words: list[int]) -> tuple[int, int]:
    """The 128-bit key of ``SeedSequence(words).generate_state(2, uint64)``:
    the words mixed into a pool of four by SeedSequence's hash, then hashed
    out as four 32-bit words, little-endian in pairs."""
    hashmix = _hasher(0x43b0d7e5, 0x931e8875)

    def mix(x: int, y: int) -> int:
        x = (0xca01f9dd * x - 0x4973f715 * y) & _MASK32
        return x ^ x >> 16

    pool = [hashmix(word) for word in (words + [0, 0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    a, b, c, d = map(_hasher(0x8b51f9dd, 0x58f38ded), pool)
    return a | b << 32, c | d << 32


def uniform_factors(seed, fraction: float, count: int) -> list[float]:
    """``count`` uniform draws in [1 - fraction, 1 + fraction], the floats of
    ``np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(seed)))
    .uniform(1 - fraction, 1 + fraction, count)`` bit for bit, in Python ints.

    ``seed`` is a non-negative int or a tuple of them. Its words key
    Philox4x64-10 (Salmon et al., SC'11) through SeedSequence's hash; the
    blocks run from counter 1, and each 64-bit word w becomes
    low + (high - low) * (w >> 11) * 2**-53, as numpy's ``uniform`` does.
    The ten round keys are bumped once per seed, not once per block.
    """
    k0, k1 = _philox_key(_seed_words(seed))
    keys = [((k0 + r * 0x9E3779B97F4A7C15) & _MASK64, (k1 + r * 0xBB67AE8584CAA73B) & _MASK64)
            for r in range(10)]
    low = 1.0 - fraction
    span = (1.0 + fraction) - low
    out = []
    for counter in range(1, (count + 3) // 4 + 1):
        c0, c1, c2, c3 = counter, 0, 0, 0
        for key0, key1 in keys:
            p, q = 0xD2E7470EE14C6C93 * c0, 0xCA5A826395121157 * c2
            c0, c1, c2, c3 = (q >> 64) ^ c1 ^ key0, q & _MASK64, (p >> 64) ^ c3 ^ key1, p & _MASK64
        out += [low + span * ((w >> 11) * 2.0 ** -53) for w in (c0, c1, c2, c3)]
    return out[:count]
