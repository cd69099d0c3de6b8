"""Scalar linear test plant.

x' = a*x + b*u with outputs (u,) or (u, c*x + d*u). The two-output default
(a = b = c = d = 1) is the integrator used in the unit and regret studies.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..plant import PlantModel


class ToyLinearPlant(PlantModel):
    def __init__(self, a: float = 1.0, b: float = 1.0,
                 c: float = 1.0, d: float = 1.0, p: int = 2):
        if p not in (1, 2):
            raise ConfigurationError("toy plant supports p in {1, 2}")
        if b <= 0 or (p == 2 and d <= 0):
            raise ConfigurationError("b and d must be > 0 (monotone in u)")
        self.a, self.b, self.c, self.d = float(a), float(b), float(c), float(d)
        self.output_count = int(p)

    def initial_state(self) -> np.ndarray:
        return np.zeros(1)

    def advance(self, state, u: float):
        x = float(state[0])
        y = [u] if self.output_count == 1 else [u, self.c * x + self.d * u]
        return y, [self.a * x + self.b * u]

    def output_rows(self, states, u, index) -> np.ndarray:
        return np.where(index == 0, u, self.c * states[:, 0] + self.d * u)

    def riding_currents(self, state, y_bar) -> list[float]:
        """The current bound and, with two outputs, (y_bar_2 - c*x)/d."""
        u_max, *bound = y_bar.tolist()
        return [u_max] + [(b - self.c * float(state[0])) / self.d for b in bound]

    def riding_rows(self, states, y_bar, index) -> np.ndarray:
        # with one output every index is 0, and y_bar[-1] is never selected
        return np.where(index == 0, y_bar[0], (y_bar[-1] - self.c * states[:, 0]) / self.d)
