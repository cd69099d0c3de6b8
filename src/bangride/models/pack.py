"""Series pack of ECM cells with nearest-neighbour thermal coupling.

The N cells are one ``EcmEnsemble``, so each follows the single-cell ECM
dynamics with the ensemble's arithmetic; the temperature deviation of cell i
additionally gains

    dt*k1*(Td_{i-1} - Td_i) + dt*k2*(Td_{i+1} - Td_i)

with ring indexing (cell 0 wraps to cell N, cell N+1 to cell 1), added to
the cells' next states and temperature outputs. RC-link parameters (R1, C1,
R2, C2) vary between cells by uniform factors in [1 - cell_variation,
1 + cell_variation], the 4N draws of ``ecm.uniform_factors`` keyed by
``variation_seed``, cell k's in draws 4k..4k+3; Ro, Q, a, b are shared.

``advance`` is one pass: the ensemble's kernel writes the cells' voltages and
temperatures into the pack's one output vector, and the coupling is added
once to those temperatures and once to the next states.

Output layout of ``PackPlant.advance`` (1-based constraint indices), whose
families ``PackPlant.constraints`` gives one bound and one weight each:

    1                 current u
    2     .. N+1      per-cell voltage readout K.x_i + u
    N+2   .. 2N+1     per-cell one-step-ahead temperature deviation, coupling included
    2N+2              temperature spread: the hottest minus the coldest
                      cell's temperature output

The spread bounds every difference between two cells, and the argmin over
all N*(N-1) pairwise-difference errors is attained by the (hottest, coldest)
pair, so the one spread output selects as enumerating the pairs would, at
O(N) cost. Its riding current has a closed form: the spread is the convex
maximum of the pair lines, each affine in u.

State: ndarray of shape (N, 4) with per-cell rows [v1, v2, soc, temp_dev].
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigurationError
from ..plant import ConstraintSpec, PlantModel, _extreme
from .ecm import EcmEnsemble, EcmParams, rising_roots, uniform_factors

VARIED_FIELDS = ("r_1", "c_1", "r_2", "c_2")


@dataclass
class PackParams:
    base: EcmParams
    n_cells: int
    k_left: float              # k1: coupling to cell i-1 [1/s]
    k_right: float             # k2: coupling to cell i+1 [1/s]
    dt_pair_max: float         # max allowed temperature difference [K]
    cell_variation: float = 0.0    # uniform +/- fraction on RC-link params
    variation_seed: int = 0

    def __post_init__(self):
        if self.n_cells < 2:
            raise ConfigurationError("a pack needs at least 2 cells")
        if self.k_left < 0.0 or self.k_right < 0.0:
            raise ConfigurationError("coupling coefficients must be >= 0")
        if not 0.0 <= self.cell_variation < 1.0:
            raise ConfigurationError("cell_variation must lie in [0, 1)")
        if self.variation_seed < 0:
            raise ConfigurationError(f"variation_seed must be >= 0, got {self.variation_seed}")


class PackPlant(PlantModel):
    """The pack of ``PackParams``: its varied cells (see the module
    docstring) as one ``EcmEnsemble``, plus the ring coupling."""

    plots = {"voltage": ("v_pack",), "temperature": ("t_max", "t_min"), "soc": ("soc",)}
    csv_block = {"V_pack": "v_pack", "T_max": "t_max", "T_min": "t_min", "dT_max": "dt_max"}

    def __init__(self, params: PackParams):
        self.params = params
        base = params.base
        n = params.n_cells
        width = len(VARIED_FIELDS)
        factors = uniform_factors(params.variation_seed, params.cell_variation, n * width)
        # the cells without coupling, cell k scaled by draws 4k..4k+3; EcmParams
        # validates each one
        cells = []
        for k in range(n):
            row = factors[k * width:(k + 1) * width]
            try:
                cells.append(replace(base, **{name: getattr(base, name) * f
                                              for name, f in zip(VARIED_FIELDS, row)}))
            except ConfigurationError as exc:
                raise ConfigurationError(f"[pack] cell {k}: {exc}") from exc
        self.cells = EcmEnsemble(cells)
        self._cl = params.k_left * base.dt
        self._cr = params.k_right * base.dt
        self.output_count = 2 * n + 2
        cells = np.arange(n)
        self._prev = np.roll(cells, 1)    # ring neighbours i-1 and i+1
        self._next = np.roll(cells, -1)

    @property
    def n_cells(self) -> int:
        return self.params.n_cells

    def initial_state(self) -> np.ndarray:
        """Every cell rested and empty, as ``EcmPlant.initial_state``."""
        return np.zeros((self.n_cells, 4))

    def advance(self, state, u: float):
        n = self.n_cells
        y = np.empty(self.output_count)
        y[0] = u
        t_outs = y[n + 1:2 * n + 1]
        x_next = self.cells.advance_into(state, u, y[1:n + 1], t_outs)
        coupling, td_next = self._coupling(state[:, 3]), x_next[:, 3]
        t_outs += coupling
        td_next += coupling
        y[-1] = _extreme(t_outs) - _extreme(t_outs, True)
        return y, x_next

    def _coupling(self, td: np.ndarray) -> np.ndarray:
        """Ring coupling of deviations td, a state's column (N,) or one row per
        state (n, N), to their neighbours i-1 and i+1, gathered on ``td.T``'s
        first axis: on the strided column every step reads, cheaper than ``take``."""
        out, right = td.T[self._prev].T, td.T[self._next].T
        out -= td
        right -= td
        out *= self._cl
        right *= self._cr
        out += right
        return out

    def _lines(self, states) -> tuple[np.ndarray, ...]:
        """v1 + v2, soc and the temperature lines alpha + beta*u (bt*r_o*u**2
        aside) of the cells of a state (N, 4) or of state rows (n, N, 4). The
        bound comes off alpha after the coupling is added, as in ``advance``,
        so the ensemble's own riding currents would round differently."""
        cells, td = self.cells, states[..., 3]
        v12 = states[..., 0] + states[..., 1]
        return v12, states[..., 2], cells._kt * td + self._coupling(td), cells._bt * v12

    def output_rows(self, states, u, index) -> np.ndarray:
        """Every output of every row in ``advance``'s operation order, then
        entry ``index[k]`` of row k."""
        e, n = self.cells, self.n_cells
        td, uc = states[..., 3], u[:, None]
        v12 = states[..., 0] + states[..., 1]
        y = np.empty((len(index), self.output_count))
        y[:, 0] = u
        y[:, 1:n + 1] = v12 + e._ocv_slope * states[..., 2] + uc
        t = e._kt * td + e._bt * v12 * uc + e._bt_r_o * uc * uc + self._coupling(td)
        y[:, n + 1:2 * n + 1] = t
        # advance's extremes, as no temperature is -0.0 and a NaN reaches both
        y[:, -1] = t.max(axis=1) - t.min(axis=1)
        return y[np.arange(len(index)), index]

    def riding_currents(self, state, y_bar: np.ndarray) -> np.ndarray:
        """Per-cell closed forms: affine voltage roots and the rising roots of
        the temperature quadratics; and the spread's root."""
        cells = self.cells
        n = self.n_cells
        v12, soc, alpha, beta = self._lines(state)
        roots = np.empty(self.output_count)
        roots[0] = y_bar[0]
        np.subtract(y_bar[1:n + 1], v12 + cells._ocv_slope * soc, out=roots[1:n + 1])
        roots[n + 1:2 * n + 1] = rising_roots(cells._bt_r_o, beta,
                                              alpha - y_bar[n + 1:2 * n + 1])
        roots[-1] = spread_root(alpha, beta, float(y_bar[-1]))
        return roots

    def riding_rows(self, states, y_bar, index) -> np.ndarray:
        """Each row's riding current from the cells it reads, in the
        arithmetic of ``riding_currents``: one cell for a voltage or a
        temperature, all N for the spread."""
        cells = self.cells
        n = self.n_cells
        v12, soc, alpha, beta = self._lines(states)
        out = np.full(len(index), float(y_bar[0]))    # index 0: the current bound
        rows, bound = np.arange(len(index)), y_bar[index]
        volt = (1 <= index) & (index <= n)
        r, c = rows[volt], index[volt] - 1
        out[volt] = bound[volt] - (v12[r, c] + cells._ocv_slope[c] * soc[r, c])
        temp = (n < index) & (index <= 2 * n)
        r, c = rows[temp], index[temp] - n - 1
        out[temp] = rising_roots(cells._bt_r_o[c], beta[r, c], alpha[r, c] - bound[temp])
        spread = index > 2 * n
        out[spread] = [spread_root(alpha[k], beta[k], float(y_bar[-1]))
                       for k in rows[spread].tolist()]
        return out

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

    def constraints(self, y_bar, gamma) -> ConstraintSpec:
        """y_bar's family bounds (u, cell V, cell dT; the spread's is
        ``dt_pair_max``) and gamma's family weights (u, V, dT, pair dT), each
        repeated over its family's outputs."""
        if len(y_bar) != 3 or len(gamma) != 4:
            raise ConfigurationError("pack expects 3 family bounds (u, cell V, cell dT) "
                                     "in y_bar, 4 weights (u, V, dT, pair dT) in gamma")
        counts = (1, self.n_cells, self.n_cells, 1)
        return ConstraintSpec(y_bar=np.repeat([*y_bar, self.params.dt_pair_max], counts),
                              gamma=np.repeat(gamma, counts))


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
    # the scalar steps on Python floats, read off the arrays with item
    if alpha.item(alpha.argmax()) - alpha.item(alpha.argmin()) > bound:
        return -np.inf
    pair = (int(beta.argmax()), int(beta.argmin()))
    slope = beta.item(pair[0]) - beta.item(pair[1])
    if slope <= 0.0:
        return np.inf  # parallel lines: the spread stays at its value at u = 0
    u = (bound - (alpha.item(pair[0]) - alpha.item(pair[1]))) / slope
    for _ in range(2 * len(alpha)):
        lines = alpha + beta * u
        active = (int(lines.argmax()), int(lines.argmin()))
        excess = lines.item(active[0]) - lines.item(active[1]) - bound
        slope = beta.item(active[0]) - beta.item(active[1])
        if active == pair or excess <= 0.0 or slope <= 0.0:
            break
        pair = active
        u -= excess / slope
    return max(u, 0.0)  # the spread is within bound at 0; undo rounding
