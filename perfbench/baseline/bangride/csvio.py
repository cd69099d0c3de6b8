"""Trajectory and summary CSV writers (12 significant digits, UTF-8).

Non-pack trajectory schema: t, u, y_1..y_p, e_active, i_star, theta_1,
theta_2, alpha, J, J_star. Pack runs reduce the output block to summary
channels (u, V_pack, T_max, T_min, dT_max) unless a full dump is requested.
Gain/step-size/J_star cells are empty when absent (oracle runs, analysis
disabled).
"""

from __future__ import annotations

import csv
from pathlib import Path

from .errors import ConfigurationError
from .plant import Trajectory

GOLDEN_COLUMNS = ("t", "u", "e_active", "i_star", "theta_1", "theta_2",
                  "alpha", "J", "J_star")
PACK_CHANNELS = ("v_pack", "t_max", "t_min", "dt_max")


def _num(value) -> str:
    if value is None:
        return ""
    return format(float(value), ".12g")


def trajectory_header(traj: Trajectory, pack_summary: bool) -> list[str]:
    if pack_summary:
        mid = ["V_pack", "T_max", "T_min", "dT_max"]
    else:
        mid = [f"y_{i}" for i in range(1, len(traj.records[0].y) + 1)]
    return ["t", "u"] + mid + ["e_active", "i_star", "theta_1", "theta_2",
                               "alpha", "J", "J_star"]


def write_trajectory_csv(traj: Trajectory, path, *, pack_summary: bool = False,
                         full_dump: bool = False) -> Path:
    """One row per step; schema fixed across rows. ``pack_summary`` replaces
    the wide pack output block with its summary channels (overridden by
    ``full_dump``)."""
    path = Path(path)
    pack_summary = pack_summary and not full_dump
    if pack_summary and any(key not in traj.telemetry for key in PACK_CHANNELS):
        raise ConfigurationError("trajectory lacks pack summary telemetry")
    try:
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(trajectory_header(traj, pack_summary))
            for rec in traj.records:
                if pack_summary:
                    mid = [_num(traj.telemetry[key][rec.t]) for key in PACK_CHANNELS]
                else:
                    mid = [_num(v) for v in rec.y]
                row = ([_num(rec.t), _num(rec.u)] + mid +
                       [_num(rec.e_active), str(rec.i_star),
                        _num(None if rec.theta is None else rec.theta[0]),
                        _num(None if rec.theta is None else rec.theta[1]),
                        _num(rec.alpha), _num(rec.J), _num(rec.J_star)])
                writer.writerow(row)
    except OSError as exc:
        raise ConfigurationError(f"cannot write trajectory CSV {path}: {exc}") from exc
    return path


def read_trajectory_csv(path) -> dict[str, list[float | None]]:
    """Columns by name; empty cells map to None."""
    path = Path(path)
    with path.open("r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns: dict[str, list] = {name: [] for name in header}
        for row in reader:
            if len(row) != len(header):
                raise ConfigurationError(
                    f"{path}: row has {len(row)} cells, header has {len(header)}")
            for name, cell in zip(header, row):
                columns[name].append(None if cell == "" else float(cell))
    return columns


def write_gap_csv(free: Trajectory, oracle: Trajectory, path) -> Path:
    """Step-by-step current comparison between the model-free and oracle runs."""
    if len(free) != len(oracle):
        raise ConfigurationError("gap CSV needs runs over the same horizon")
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "u_free", "u_oracle", "gap"])
        for rf, ro in zip(free.records, oracle.records):
            writer.writerow([_num(rf.t), _num(rf.u), _num(ro.u),
                             _num(rf.u - ro.u)])
    return path


def write_montecarlo_summary(stats, path) -> Path:
    """Per-model robustness outcomes; deterministic for a fixed seed."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model_index", "diverged", "any_violation",
                         "violation_steps", "depth_current", "depth_voltage",
                         "depth_temperature", "suboptimality"])
        for o in stats.outcomes:
            if o.diverged:
                writer.writerow([o.index, 1, "", "", "", "", "", ""])
                continue
            writer.writerow([o.index, 0, int(o.any_violation), o.violation_steps,
                             _num(o.max_depth[0]), _num(o.max_depth[1]),
                             _num(o.max_depth[2]), _num(o.suboptimality)])
    return path


def write_regret_csv(rows: list[dict], path) -> Path:
    """Summary rows of the step-size-exponent sweep."""
    path = Path(path)
    fields = ["mu1", "total_regret", "tail_slope", "converged",
              "gap_tail_mean", "mu2_hat", "mu_star_ref", "ct_sign_changes"]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_num(row["mu1"]), _num(row["total_regret"]),
                             _num(row["tail_slope"]), int(row["converged"]),
                             _num(row["gap_tail_mean"]), _num(row["mu2_hat"]),
                             _num(row["mu_star_ref"]), str(row["ct_sign_changes"])])
    return path
