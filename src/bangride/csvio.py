"""Trajectory and summary CSV writers (12 significant digits, UTF-8).

Trajectory schema: t, u, y_1..y_p, e_active, i_star, theta_1, theta_2,
alpha, J, J_star. The plant's ``csv_block`` (``PlantModel``), when not
empty, gives the headers and telemetry channels written in place of
y_1..y_p, such as a few summary channels of many outputs. Gain, step-size
and J_star cells are empty when absent (oracle runs, analysis disabled).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .plant import Trajectory

GOLDEN_COLUMNS = ("t", "u", "e_active", "i_star", "theta_1", "theta_2",
                  "alpha", "J", "J_star")
NUM = "%.12g"       # a number cell: 12 significant digits


def _num(value) -> str:
    if value is None:
        return ""
    return NUM % float(value)


def trajectory_header(traj: Trajectory, block: dict[str, str]) -> list[str]:
    mid = list(block) or [f"y_{i}" for i in range(1, traj.y.shape[1] + 1)]
    return ["t", "u"] + mid + ["e_active", "i_star", "theta_1", "theta_2",
                               "alpha", "J", "J_star"]


def _write_lines(path, header: list[str], lines) -> Path:
    """The header row, then ``lines``; every CSV file is written here."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)
    return path


def _write_rows(path, header: list[str], columns: list) -> Path:
    """Header, then one row per entry of the columns. Each column is a
    ``(format, values)`` pair of an array or a list; a None column is an
    empty cell in every row. Each row is one ``%`` format of a template that
    holds the empty cells."""
    template = ",".join("" if values is None else fmt for fmt, values in columns) + "\n"
    rows = zip(*[values if isinstance(values, list) else values.tolist()
                 for _, values in columns if values is not None])
    return _write_lines(path, header, map(template.__mod__, rows))


def write_trajectory_csv(traj: Trajectory, block: dict[str, str], path) -> Path:
    """One row per step; schema fixed across rows; ``block`` is the plant's
    ``csv_block``, whose channels are written in place of ``y_1..y_p``.
    Each number cell is formatted on its own, with ``NUM``."""
    mid = [traj.telemetry[key] for key in block.values()] if block else traj.y.T
    theta = (None, None) if traj.theta is None else traj.theta.T
    return _write_rows(path, trajectory_header(traj, block),
                       [("%d", np.arange(len(traj)))]
                       + [(NUM, c) for c in (traj.u, *mid, traj.e_active)] + [("%d", traj.i_star)]
                       + [(NUM, c) for c in (*theta, traj.alpha, traj.J, traj.J_star)])


def write_gap_csv(free: Trajectory, oracle: Trajectory, path) -> Path:
    """Step-by-step current comparison between the model-free and oracle runs."""
    if len(free) != len(oracle):
        raise ConfigurationError("gap CSV needs runs over the same horizon")
    columns = (free.u, oracle.u, free.u - oracle.u)
    return _write_rows(path, ["t", "u_free", "u_oracle", "gap"],
                       [("%d", np.arange(len(free)))] + [(NUM, c) for c in columns])


def write_montecarlo_summary(stats, names, path) -> Path:
    """Per-model robustness outcomes, one ``depth_<name>`` column per output
    name (the plant's ``output_names``); deterministic for a fixed seed."""
    blank = "," * (len(names) + 3)     # a diverged row's empty cells
    return _write_lines(path, ["model_index", "diverged", "any_violation", "violation_steps",
                               *[f"depth_{name}" for name in names], "suboptimality"],
                        [f"{o.index},1{blank}\n" if o.diverged else
                         f"{o.index},0,{int(o.violation_steps > 0)},{o.violation_steps},"
                         + "".join(f"{_num(d)}," for d in o.max_depth)
                         + f"{_num(o.suboptimality)}\n"
                         for o in stats.outcomes])


def write_regret_csv(rows: list[tuple], path) -> Path:
    """Summary rows of the step-size-exponent sweep, one per
    (mu1, ``analysis.RegretReport``, c_t ratio sign changes)."""
    return _write_lines(path, ["mu1", "total_regret", "tail_slope", "converged",
                               "gap_tail_mean", "mu2_hat", "mu_star_ref", "ct_sign_changes"],
                        [f"{_num(mu1)},{_num(r.total)},{_num(r.tail_slope)},{int(r.converged)},"
                         f"{_num(r.gap_tail_mean())},{_num(r.mu2_hat)},{_num(r.mu_star_ref)},"
                         f"{changes}\n" for mu1, r, changes in rows])
