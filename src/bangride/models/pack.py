"""Series pack of ECM cells with nearest-neighbour thermal coupling.

Each of the N cells follows the single-cell ECM dynamics; the temperature
deviation of cell i additionally gains

    dt*k1*(Td_{i-1} - Td_i) + dt*k2*(Td_{i+1} - Td_i)

with ring indexing (cell 0 wraps to cell N, cell N+1 to cell 1). RC-link
parameters (R1, C1, R2, C2) vary between cells by seeded uniform factors;
Ro, Q, a, b are shared.

Output layout (1-based constraint indices):

    1                 current u
    2     .. N+1      per-cell voltage readout K.x_i + u
    N+2   .. 2N+1     per-cell one-step-ahead temperature deviation, coupling included
    2N+2  ..          temperature-deviation differences between cells:
                      all ordered pairs (j, k), j != k, lexicographic, in
                      "all-pairs" mode (N*(N-1) outputs); the single
                      max-minus-min spread in "max-minus-min" mode.

The argmin over all pairwise-difference errors is attained by the (hottest,
coldest) pair, so "max-minus-min" keeps the selector semantics of "all-pairs"
at O(N) cost. All-pairs stays as the small-N reference layout. Both have
closed-form riding currents: a pair output is affine in u, and the spread is
the convex maximum of those lines.

State: ndarray of shape (N, 4) with per-cell rows [v1, v2, soc, temp_dev].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..controller import ConstraintSpec
from ..plant import PlantModel
from .ecm import EcmParams, rising_roots

PAIR_MODES = ("all-pairs", "max-minus-min")
VARIED_FIELDS = ("r_1", "c_1", "r_2", "c_2")


@dataclass
class PackParams:
    base: EcmParams
    n_cells: int = 100
    k_left: float = 0.0        # k1: coupling to cell i-1 [1/s]
    k_right: float = 0.0       # k2: coupling to cell i+1 [1/s]
    dt_pair_max: float = 5.0   # max allowed temperature difference [K]
    pairwise_mode: str = "max-minus-min"
    cell_variation: float = 0.0    # uniform +/- fraction on RC-link params
    variation_seed: int = 0

    def __post_init__(self):
        if self.n_cells < 2:
            raise ConfigurationError("a pack needs at least 2 cells")
        if self.k_left < 0.0 or self.k_right < 0.0:
            raise ConfigurationError("coupling coefficients must be >= 0")
        if self.pairwise_mode not in PAIR_MODES:
            raise ConfigurationError(
                f"pairwise_mode must be one of {PAIR_MODES}, got {self.pairwise_mode!r}")
        if not 0.0 <= self.cell_variation < 1.0:
            raise ConfigurationError("cell_variation must lie in [0, 1)")


class PackPlant(PlantModel):
    state_dim = 4  # per cell

    def __init__(self, params: PackParams):
        self.params = params
        base = params.base
        n = params.n_cells
        rng = np.random.Generator(np.random.Philox(
            seed=np.random.SeedSequence(params.variation_seed)))
        factors = rng.uniform(1.0 - params.cell_variation,
                              1.0 + params.cell_variation,
                              size=(n, len(VARIED_FIELDS)))
        self.r_1 = base.r_1 * factors[:, 0]
        self.c_1 = base.c_1 * factors[:, 1]
        self.r_2 = base.r_2 * factors[:, 2]
        self.c_2 = base.c_2 * factors[:, 3]
        dt = base.dt
        self._k1 = 1.0 - dt / (self.r_1 * self.c_1)
        self._k2 = 1.0 - dt / (self.r_2 * self.c_2)
        if np.any(self._k1 <= 0.0) or np.any(self._k2 <= 0.0):
            raise ConfigurationError("cell variation breaks RC discretization stability")
        self._b1 = dt / self.c_1
        self._b2 = dt / self.c_2
        self._ks = dt / base.q
        self._kt = 1.0 - base.a * dt
        self._bt = base.b * dt
        self._cl = params.k_left * dt
        self._cr = params.k_right * dt
        if self._kt <= 0.0:
            raise ConfigurationError("unstable thermal discretization")
        self.output_count = 1 + 2 * n + self.pair_count
        cells = np.arange(n)
        self._prev = np.roll(cells, 1)    # ring neighbours i-1 and i+1
        self._next = np.roll(cells, -1)

    @property
    def n_cells(self) -> int:
        return self.params.n_cells

    @property
    def pair_count(self) -> int:
        n = self.params.n_cells
        return n * (n - 1) if self.params.pairwise_mode == "all-pairs" else 1

    def initial_state(self, soc0: float = 0.0) -> np.ndarray:
        x = np.zeros((self.n_cells, 4))
        x[:, 2] = soc0
        return x

    def step(self, state, u: float):
        p = self.params.base
        v1, v2, soc, td = state[:, 0], state[:, 1], state[:, 2], state[:, 3]
        heat = self._bt * u * (p.r_o * u + v1 + v2)
        coupling = self._coupling(td)
        out = np.empty_like(state)
        out[:, 0] = self._k1 * v1 + self._b1 * u
        out[:, 1] = self._k2 * v2 + self._b2 * u
        out[:, 2] = soc + self._ks * u
        out[:, 3] = self._kt * td + heat + coupling
        return out

    def _coupling(self, td: np.ndarray) -> np.ndarray:
        return (self._cl * (td[self._prev] - td)
                + self._cr * (td[self._next] - td))

    def _temp_outputs(self, state, u: float) -> np.ndarray:
        """Per-cell one-step-ahead temperature deviation, coupling included."""
        p = self.params.base
        v1, v2, td = state[:, 0], state[:, 1], state[:, 3]
        return (self._kt * td + self._bt * (v1 + v2) * u
                + self._bt * p.r_o * u * u + self._coupling(td))

    def outputs(self, state, u: float) -> np.ndarray:
        slope = self.params.base.ocv_slope
        v_outs = state[:, 0] + state[:, 1] + slope * state[:, 2] + u
        t_outs = self._temp_outputs(state, u)
        if self.params.pairwise_mode == "all-pairs":
            diff = t_outs[:, None] - t_outs[None, :]
            pair_outs = diff[~np.eye(self.n_cells, dtype=bool)]
        else:
            pair_outs = np.array([t_outs.max() - t_outs.min()])
        return np.concatenate([[u], v_outs, t_outs, pair_outs])

    def riding_currents(self, state, y_bar: np.ndarray) -> np.ndarray:
        """Per-cell closed forms: affine voltage roots and the rising roots of
        the temperature quadratics. A pair output t_j - t_k is affine in u,
        since the u**2 terms cancel; its root is (bound - da)/db for a slope
        db > 0, and otherwise -inf or +inf as the pair exceeds the bound at
        u = 0 or not. In max-minus-min mode the spread's root."""
        p = self.params.base
        n = self.n_cells
        td = state[:, 3]
        v_dyn = state[:, 0] + state[:, 1]
        # temperature output of cell i: alpha_i + beta_i*u + bt*r_o*u**2
        alpha = self._kt * td + self._coupling(td)
        beta = self._bt * v_dyn
        roots = np.empty(self.output_count)
        roots[0] = y_bar[0]
        roots[1:n + 1] = y_bar[1:n + 1] - (v_dyn + p.ocv_slope * state[:, 2])
        roots[n + 1:2 * n + 1] = rising_roots(self._bt * p.r_o, beta,
                                              alpha - y_bar[n + 1:2 * n + 1])
        if self.params.pairwise_mode == "all-pairs":
            off = ~np.eye(n, dtype=bool)
            da, db = (alpha[:, None] - alpha)[off], (beta[:, None] - beta)[off]
            bound = y_bar[2 * n + 1:]
            pair = np.where(da > bound, -np.inf, np.inf)
            rising = db > 0.0
            pair[rising] = (bound[rising] - da[rising]) / db[rising]
            roots[2 * n + 1:] = pair
        else:
            roots[-1] = spread_root(alpha, beta, float(y_bar[-1]))
        return roots

    def telemetry(self, states, u, y) -> dict[str, np.ndarray]:
        """Series terminal voltage (sum over cells of OCV + Ro*u + v1 + v2),
        the hottest and coldest cell temperatures, their spread, and the
        mean cell SOC, through one (n, N) buffer filled in place."""
        p = self.params.base
        cells = p.ocv_slope * states[:, :, 2]
        cells += p.ocv0
        cells += (p.r_o * u)[:, None]
        cells += states[:, :, 0]
        cells += states[:, :, 1]
        v_pack = cells.sum(axis=1)
        np.copyto(cells, states[:, :, 2])
        soc = cells.mean(axis=1)
        np.copyto(cells, states[:, :, 3])
        td_max, td_min = cells.max(axis=1), cells.min(axis=1)
        return {"v_pack": v_pack, "t_max": td_max + p.t_ambient,
                "t_min": td_min + p.t_ambient, "dt_max": td_max - td_min,
                "soc": soc}

    def build_constraints(self, u_max: float, v_cell_max: float,
                          temp_dev_max: float,
                          gamma_current: float = 1.0,
                          gamma_voltage: float = 1.0,
                          gamma_temp: float = 500.0,
                          gamma_pair: float = 500.0) -> ConstraintSpec:
        """Bound/weight families for this pack's output layout."""
        n, d = self.n_cells, self.pair_count
        y_bar = np.concatenate([[u_max], np.full(n, v_cell_max),
                                np.full(n, temp_dev_max),
                                np.full(d, self.params.dt_pair_max)])
        gamma = np.concatenate([[gamma_current], np.full(n, gamma_voltage),
                                np.full(n, gamma_temp), np.full(d, gamma_pair)])
        return ConstraintSpec(y_bar=y_bar, gamma=gamma)


def spread_root(alpha: np.ndarray, beta: np.ndarray, bound: float) -> float:
    """Riding current of the spread max_i L_i(u) - min_i L_i(u) of the lines
    L_i(u) = alpha_i + beta_i*u; -inf when the spread exceeds ``bound`` at
    u = 0, +inf when it never reaches it.

    The spread is convex and piecewise affine in u. Any line pair bounds it
    from below, so the root of the steepest pair's line lies at or above the
    riding current. From there, Newton steps on the active (max, min) pair
    move down monotonically and land each on the root of a new affine piece;
    the spread has at most 2N - 2 breakpoints, so the iteration ends once the
    active pair repeats, after at most 2N - 1 steps of O(N) each.
    """
    if alpha.max() - alpha.min() > bound:
        return -np.inf
    pair = (int(np.argmax(beta)), int(np.argmin(beta)))
    slope = beta[pair[0]] - beta[pair[1]]
    if slope <= 0.0:
        return np.inf  # parallel lines: the spread stays at its value at u = 0
    u = (bound - (alpha[pair[0]] - alpha[pair[1]])) / slope
    for _ in range(2 * len(alpha)):
        lines = alpha + beta * u
        active = (int(np.argmax(lines)), int(np.argmin(lines)))
        excess = lines[active[0]] - lines[active[1]] - bound
        slope = beta[active[0]] - beta[active[1]]
        if active == pair or excess <= 0.0 or slope <= 0.0:
            break
        pair = active
        u -= excess / slope
    return max(float(u), 0.0)  # the spread is within bound at 0; undo rounding
