"""Standalone SVG line charts with deterministic bytes.

Hand-built markup (no plotting dependency, no timestamps or generated ids),
so identical inputs produce identical files. Renders the usual charging
views: current, voltage, temperature and state of charge over time, with the
model-free run solid, the oracle dashed, and perturbed ensembles in gray.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .plant import Trajectory

QUANTITIES = ("current", "voltage", "temperature", "soc")
UNITS = {"current": "A", "voltage": "V", "temperature": "degC", "soc": "-"}

WIDTH, HEIGHT = 720, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 28, 44


@dataclass
class Series:
    label: str
    y: np.ndarray
    color: str = "#c22"
    width: float = 1.6
    dash: str = ""           # e.g. "6,4"
    in_legend: bool = True


def _fmt(v: float) -> str:
    return format(float(v), ".6g")


# telemetry channels that can carry each quantity besides the current, in
# order of preference; the temperature of a pack is its (max, min) pair
CHANNELS = {
    "voltage": (("voltage",), ("v_dynamic",), ("v_pack",)),
    "temperature": (("temperature",), ("t_max", "t_min")),
    "soc": (("soc",), ("soc_mean",)),
}


def _channels(traj: Trajectory, quantity: str) -> tuple[str, ...]:
    """The telemetry channels that carry a quantity, or () if none does."""
    for keys in CHANNELS[quantity]:
        if all(key in traj.telemetry for key in keys):
            return keys
    return ()


def plottable(traj: Trajectory) -> list[str]:
    """The quantities a trajectory can plot, in ``QUANTITIES`` order."""
    return ["current"] + [q for q in CHANNELS if _channels(traj, q)]


def quantity_series(traj: Trajectory, quantity: str, *, label: str,
                    color: str = "#c22", width: float = 1.6, dash: str = "",
                    in_legend: bool = True) -> list[Series]:
    """Map a named quantity onto one or more plot series for a trajectory."""
    if quantity not in QUANTITIES:
        raise ConfigurationError(
            f"unknown quantity {quantity!r}; valid: {', '.join(QUANTITIES)}")
    if quantity == "current":
        return [Series(label, traj.u, color, width, dash, in_legend)]
    keys = _channels(traj, quantity)
    tel = traj.telemetry
    if len(keys) == 1:
        return [Series(label, tel[keys[0]], color, width, dash, in_legend)]
    if keys:
        hi, lo = keys
        return [Series(f"{label} (max)", tel[hi], color, width, dash, in_legend),
                Series(f"{label} (min)", tel[lo], color, width,
                       "3,3" if not dash else dash, in_legend)]
    raise ConfigurationError(
        f"trajectory for model {traj.model_name!r} has no {quantity!r} channel")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def render_chart(series: list[Series], title: str, ylabel: str) -> str:
    if not series:
        raise ConfigurationError("nothing to plot")
    n = max(len(s.y) for s in series)
    y_lo = min(float(np.min(s.y)) for s in series)
    y_hi = max(float(np.max(s.y)) for s in series)
    pad = 0.05 * (y_hi - y_lo if y_hi > y_lo else max(abs(y_hi), 1.0))
    y_lo, y_hi = y_lo - pad, y_hi + pad
    x_lo, x_hi = 0.0, float(max(n - 1, 1))

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_T + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH/2:.1f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    # axes and ticks
    parts.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" '
                 f'height="{plot_h}" fill="none" stroke="#444"/>')
    for xv in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{sx(xv):.1f}" y1="{MARGIN_T+plot_h}" '
                     f'x2="{sx(xv):.1f}" y2="{MARGIN_T+plot_h+4}" stroke="#444"/>')
        parts.append(f'<text x="{sx(xv):.1f}" y="{MARGIN_T+plot_h+18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{_fmt(xv)}</text>')
    for yv in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{MARGIN_L-4}" y1="{sy(yv):.1f}" '
                     f'x2="{MARGIN_L}" y2="{sy(yv):.1f}" stroke="#444"/>')
        parts.append(f'<text x="{MARGIN_L-7}" y="{sy(yv)+4:.1f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{_fmt(yv)}</text>')
    parts.append(f'<text x="{MARGIN_L + plot_w/2:.1f}" y="{HEIGHT-6}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12">time step [-]</text>')
    parts.append(f'<text x="14" y="{MARGIN_T + plot_h/2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 14 {MARGIN_T + plot_h/2:.1f})">{ylabel}</text>')
    # polylines
    for s in series:
        pts = " ".join(f"{sx(i):.2f},{sy(float(v)):.2f}" for i, v in enumerate(s.y))
        dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
        parts.append(f'<polyline fill="none" stroke="{s.color}" '
                     f'stroke-width="{s.width}"{dash} points="{pts}"/>')
    # legend (upper right)
    legend = [s for s in series if s.in_legend]
    if legend:
        lx, ly = MARGIN_L + plot_w - 170, MARGIN_T + 10
        parts.append(f'<rect x="{lx-8}" y="{ly-12}" width="178" '
                     f'height="{len(legend)*17 + 8}" fill="white" '
                     f'stroke="#999" opacity="0.9"/>')
        for k, s in enumerate(legend):
            yk = ly + 17 * k
            dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
            parts.append(f'<line x1="{lx}" y1="{yk}" x2="{lx+26}" y2="{yk}" '
                         f'stroke="{s.color}" stroke-width="{s.width}"{dash}/>')
            parts.append(f'<text x="{lx+32}" y="{yk+4}" font-family="sans-serif" '
                         f'font-size="11">{s.label}</text>')
    parts.append("</svg>\n")
    return "\n".join(parts)


def emit_svg(trajectories: list[tuple[Trajectory, dict]], quantity: str,
             path) -> Path:
    """Render one quantity for a set of trajectories.

    Each entry pairs a trajectory with style hints: label, color, width,
    dash, in_legend. Ensembles pass gray thin styles with in_legend=False.
    """
    if not trajectories:
        raise ConfigurationError("emit_svg needs at least one trajectory")
    series: list[Series] = []
    for traj, style in trajectories:
        series.extend(quantity_series(traj, quantity, **style))
    markup = render_chart(series, title=f"{quantity} over time",
                          ylabel=f"{quantity} [{UNITS[quantity]}]")
    path = Path(path)
    path.write_text(markup, encoding="utf-8")
    return path
