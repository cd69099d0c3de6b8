"""Standalone SVG line charts with deterministic bytes.

Hand-built markup (no plotting dependency, no timestamps or generated ids),
so identical inputs produce identical files. Renders the usual charging
views: current, voltage, temperature and state of charge over time. A chart
takes ready ``Series``, each a line's style that ``quantity_series`` fills
in from a trajectory: the current, or else the telemetry channels that the
caller names, as the plant states them (``PlantModel.plots``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .plant import Trajectory

QUANTITIES = ("current", "voltage", "temperature", "soc")
UNITS = {"current": "A", "voltage": "V", "temperature": "degC", "soc": "-"}

WIDTH, HEIGHT = 720, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 28, 44
PLOT_W = WIDTH - MARGIN_L - MARGIN_R
PLOT_H = HEIGHT - MARGIN_T - MARGIN_B
TICKS = 5   # per axis, both ends included


@dataclass
class Series:
    """A line's style, and its values once ``quantity_series`` fills in ``y``."""

    label: str
    color: str = "#c22"
    width: float = 1.6
    dash: str = ""           # e.g. "6,4"
    y: np.ndarray | None = None


def _fmt(v: float) -> str:
    return format(float(v), ".6g")


def quantity_series(traj: Trajectory, quantity: str, keys: tuple[str, ...],
                    style: Series) -> list[Series]:
    """A trajectory's series of a named quantity in ``style``: the current, or
    else the telemetry channels in ``keys``, one channel or a (max, min) pair."""
    if quantity not in QUANTITIES:
        raise ConfigurationError(
            f"unknown quantity {quantity!r}; valid: {', '.join(QUANTITIES)}")
    if quantity == "current":
        return [replace(style, y=traj.u)]
    tel = traj.telemetry
    if len(keys) == 1:
        return [replace(style, y=tel[keys[0]])]
    hi, lo = keys
    return [replace(style, label=f"{style.label} (max)", y=tel[hi]),
            replace(style, label=f"{style.label} (min)", y=tel[lo], dash=style.dash or "3,3")]


def _ticks(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * k / (TICKS - 1) for k in range(TICKS)]


def sx(x, x_hi: float):
    """Position of step x on a time axis from step 0 to x_hi; on a float or
    elementwise on an array, with the same rounding."""
    return MARGIN_L + x / x_hi * PLOT_W


@functools.lru_cache(maxsize=16)
def _x_template(x_hi: float, m: int) -> str:
    """The points of a series of m steps on a time axis to x_hi, each x
    baked in and each y a ``%.2f`` slot. Every series starts at step 0, so
    the series and the charts of a run that share both sizes share it."""
    return " ".join(["%.2f,%%.2f"] * m) % tuple(sx(np.arange(m, dtype=float), x_hi).tolist())


def render_chart(series: list[Series], quantity: str) -> str:
    """The chart of ``series`` over the time step, titled and labelled by
    ``quantity`` and its ``UNITS``. Neither axis is empty: x runs from 0 to
    at least 1, and y is padded by 5 % of its range, or of max(|y|, 1) if flat."""
    n = max(len(s.y) for s in series)
    y_lo = min(float(np.min(s.y)) for s in series)
    y_hi = max(float(np.max(s.y)) for s in series)
    pad = 0.05 * (y_hi - y_lo if y_hi > y_lo else max(abs(y_hi), 1.0))
    y_lo, y_hi = y_lo - pad, y_hi + pad
    x_hi = float(max(n - 1, 1))

    # on a float or elementwise on an array, with the same rounding
    def sy(y):
        return MARGIN_T + (1.0 - (y - y_lo) / (y_hi - y_lo)) * PLOT_H

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH/2:.1f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{quantity} over time</text>',
    ]
    # axes and ticks
    parts.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{PLOT_W}" '
                 f'height="{PLOT_H}" fill="none" stroke="#444"/>')
    for xv in _ticks(0.0, x_hi):
        parts.append(f'<line x1="{sx(xv, x_hi):.1f}" y1="{MARGIN_T+PLOT_H}" '
                     f'x2="{sx(xv, x_hi):.1f}" y2="{MARGIN_T+PLOT_H+4}" stroke="#444"/>')
        parts.append(f'<text x="{sx(xv, x_hi):.1f}" y="{MARGIN_T+PLOT_H+18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{_fmt(xv)}</text>')
    for yv in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{MARGIN_L-4}" y1="{sy(yv):.1f}" '
                     f'x2="{MARGIN_L}" y2="{sy(yv):.1f}" stroke="#444"/>')
        parts.append(f'<text x="{MARGIN_L-7}" y="{sy(yv)+4:.1f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{_fmt(yv)}</text>')
    parts.append(f'<text x="{MARGIN_L + PLOT_W/2:.1f}" y="{HEIGHT-6}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12">time step [-]</text>')
    parts.append(f'<text x="14" y="{MARGIN_T + PLOT_H/2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" transform="rotate(-90 14 '
                 f'{MARGIN_T + PLOT_H/2:.1f})">{quantity} [{UNITS[quantity]}]</text>')
    # polylines
    for s in series:
        pts = _x_template(x_hi, len(s.y)) % tuple(sy(np.asarray(s.y, dtype=float)).tolist())
        dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
        parts.append(f'<polyline fill="none" stroke="{s.color}" '
                     f'stroke-width="{s.width}"{dash} points="{pts}"/>')
    # legend (upper right): each label once, at its first series
    legend: dict[str, Series] = {}
    for s in series:
        legend.setdefault(s.label, s)
    lx, ly = MARGIN_L + PLOT_W - 170, MARGIN_T + 10
    parts.append(f'<rect x="{lx-8}" y="{ly-12}" width="178" '
                 f'height="{len(legend)*17 + 8}" fill="white" '
                 f'stroke="#999" opacity="0.9"/>')
    for k, s in enumerate(legend.values()):
        yk = ly + 17 * k
        dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
        parts.append(f'<line x1="{lx}" y1="{yk}" x2="{lx+26}" y2="{yk}" '
                     f'stroke="{s.color}" stroke-width="{s.width}"{dash}/>')
        parts.append(f'<text x="{lx+32}" y="{yk+4}" font-family="sans-serif" '
                     f'font-size="11">{s.label}</text>')
    parts.append("</svg>\n")
    return "\n".join(parts)


def emit_svg(series: list[Series], quantity: str, path) -> Path:
    """Render ``series`` of one quantity (``quantity_series``) to ``path``."""
    path = Path(path)
    path.write_text(render_chart(series, quantity), encoding="utf-8")
    return path
