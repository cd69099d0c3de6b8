"""The benchmark's workloads and the correctness gate on their outputs.

Each workload is one ``bangride`` CLI command on a packaged scenario, run
closed-loop in a single process. The checks read only what the command
wrote (CSV and SVG files, its printed summary) plus the scenario it ran, so
they hold for any seed. At the default seed, and at every seed for the
workloads whose outputs do not depend on it, the outputs are also compared
with the stored reference summary in ``reference.json``.

This module imports neither numpy nor bangride: the child process imports it
before it starts timing the set-up.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 7
REFERENCE_FILE = Path(__file__).with_name("reference.json")

# reference tolerances
TOL_U = 1e-6            # A, on sampled currents of the free and oracle runs
TOL_DEPTH = 1e-6        # output units, per-constraint violation depth
TOL_REGRET_REL = 1e-6   # relative, total regret of each sweep point
TOL_GAP_TAIL = 1e-9     # absolute, tail-mean gap of each sweep point
SAMPLE_EVERY = 25       # reference keeps every 25th current of a run


@dataclass(frozen=True)
class Workload:
    name: str
    command: str               # CLI sub-command
    config: str                # packaged scenario
    extra: tuple[str, ...]     # further CLI arguments
    runs: str                  # "compare", "montecarlo" or "regret"
    seeded: bool               # outputs depend on --seed
    nominal_wall_s: float      # the baseline's command time, defining machine
    nominal_setup_s: float     # the baseline's set-up time, defining machine
    steps: int | None = None   # horizon t_f, when not the scenario's own
    svg: tuple[str, ...] = ()  # plots the command writes

    def argv(self, seed: int, out: str, steps: int | None = None,
             models: int | None = None) -> list[str]:
        argv = [self.command, "--config", self.config, "--seed", str(seed),
                "--out", out, *self.extra]
        if steps is not None:
            argv += ["--steps", str(steps)]
        if models is not None and self.runs == "montecarlo":
            argv += ["--models", str(models)]
        return argv

    def plant_steps(self, t_f: int, models: int | None) -> int:
        """Plant steps the command advances: free, oracle and replay steps."""
        n = t_f + 1
        if self.runs == "compare":
            return 2 * n                      # free run + oracle
        if self.runs == "montecarlo":
            m = MONTECARLO_MODELS if models is None else models
            return (2 + 2 * m) * n            # true oracle + free run, M oracles + M replays
        return 3 * n                          # three step-size exponents


# Each command takes about a second, so that the two runs of a pair sit
# close in time and a run holds many pairs (see run.py): 4 models rather
# than the study's 200, and shorter horizons on the pack (800 steps still
# reach the pairwise-spread phase, from step 614) and the toy plant.
MONTECARLO_MODELS = 4

# why each workload was chosen is recorded in BENCHMARK.json; the nominal
# times set the scale of the reported times and never change
WORKLOADS = {w.name: w for w in (
    Workload("pack-compare", "compare", "pack", (), "compare", False,
             nominal_wall_s=0.9, nominal_setup_s=0.08, steps=800),
    Workload("ecm-montecarlo", "montecarlo", "ecm",
             ("--models", str(MONTECARLO_MODELS), "--fraction", "0.1",
              "--jobs", "1"), "montecarlo", True,
             nominal_wall_s=1.0, nominal_setup_s=0.08),
    Workload("toy-regret", "regret", "toy", (), "regret", False,
             nominal_wall_s=0.65, nominal_setup_s=0.08, steps=2000),
    Workload("spmet-compare", "compare", "spmet", ("--svg",), "compare", False,
             nominal_wall_s=0.7, nominal_setup_s=0.08,
             svg=("current.svg", "voltage.svg", "temperature.svg", "soc.svg")),
)}


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _floats(rows, column: str) -> list[float]:
    return [float(r[column]) for r in rows]


def check_compare(out: Path, scenario: dict, stdout: str,
                  errors: list[str]) -> dict:
    """Row counts, current range, gain box and oracle riding residual."""
    t_f = scenario["t_f"]
    summary = {}
    for name, kind in (("trajectory.csv", "free"), ("oracle.csv", "oracle"),
                       ("gap.csv", "gap")):
        path = out / name
        if not path.is_file():
            errors.append(f"{name} missing")
            continue
        rows = _read_csv(path)
        if len(rows) != t_f + 1:
            errors.append(f"{name}: {len(rows)} rows, expected {t_f + 1}")
        if [int(float(r["t"])) for r in rows] != list(range(len(rows))):
            errors.append(f"{name}: step column is not 0..{len(rows) - 1}")
        if kind == "gap":
            continue
        u = _floats(rows, "u")
        if not all(math.isfinite(v) for v in u):
            errors.append(f"{name}: non-finite current")
        summary[f"{kind}_u"] = u[::SAMPLE_EVERY]
        if kind == "free":
            # the free run treats the current bound as a soft constraint, so
            # only the gains have a hard range
            for k in (0, 1):
                lo, hi = scenario["theta_lo"][k], scenario["theta_hi"][k]
                th = _floats(rows, f"theta_{k + 1}")
                if not all(lo <= v <= hi for v in th):
                    errors.append(f"{name}: theta_{k + 1} leaves [{lo}, {hi}]")
        else:
            u_max = scenario["u_max"]
            if not all(0.0 <= v <= u_max for v in u):
                errors.append(f"{name}: oracle current leaves [0, {u_max}]")
            gamma, tol_y = scenario["gamma"], scenario["tol_y"]
            # rows at zero current are below the bracket: the constraint is
            # violated at u = 0 and the oracle reports no riding root
            worst = max((abs(float(r["e_active"])) / gamma[int(r["i_star"]) - 1]
                         for r in rows if float(r["u"]) > 0.0), default=0.0)
            if worst > tol_y:
                errors.append(f"{name}: active-constraint residual {worst:.3g} "
                              f"exceeds tol_y {tol_y:g}")
    for name in scenario.get("svg", ()):
        path = out / name
        if not path.is_file() or not path.read_text(encoding="utf-8").lstrip().startswith("<"):
            errors.append(f"{name} missing or not SVG markup")
    return summary


def check_montecarlo(out: Path, scenario: dict, stdout: str,
                     errors: list[str]) -> dict:
    """M summary rows whose counts match the printed summary line."""
    path = out / "summary.csv"
    if not path.is_file():
        errors.append("summary.csv missing")
        return {}
    rows = _read_csv(path)
    m = scenario["models"]
    if [int(r["model_index"]) for r in rows] != list(range(m)):
        errors.append(f"summary.csv: model indices are not 0..{m - 1}")
    diverged = sum(int(r["diverged"]) for r in rows)
    kept = [r for r in rows if r["diverged"] == "0"]
    violations = sum(int(r["any_violation"]) for r in kept)
    depth = [max((float(r[c]) for r in kept), default=0.0)
             for c in ("depth_current", "depth_voltage", "depth_temperature")]
    if min(depth) < 0.0:
        errors.append("summary.csv: negative violation depth")
    printed = re.search(r"violations=(\d+), diverged=(\d+)", stdout)
    if printed is None:
        errors.append("montecarlo summary line not printed")
    elif (int(printed[1]), int(printed[2])) != (violations, diverged):
        errors.append(f"printed violations/diverged {printed[1]}/{printed[2]} "
                      f"!= summary.csv {violations}/{diverged}")
    return {"violations": violations, "diverged": diverged, "depth": depth}


def check_regret(out: Path, scenario: dict, stdout: str,
                 errors: list[str]) -> dict:
    """One finite row per step-size exponent of the sweep."""
    path = out / "regret.csv"
    if not path.is_file():
        errors.append("regret.csv missing")
        return {}
    rows = _read_csv(path)
    if _floats(rows, "mu1") != [0.3, 0.5, 0.7]:
        errors.append("regret.csv: rows are not mu1 = 0.3, 0.5, 0.7")
    total = _floats(rows, "total_regret")
    gap_tail = _floats(rows, "gap_tail_mean")
    if not all(math.isfinite(v) for v in total + gap_tail):
        errors.append("regret.csv: non-finite regret")
    return {"total_regret": total, "gap_tail_mean": gap_tail,
            "converged": [int(r["converged"]) for r in rows]}


CHECKS = {"compare": check_compare, "montecarlo": check_montecarlo,
          "regret": check_regret}


def _close(a, b, tol: float) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= tol for x, y in zip(a, b))


def compare_reference(workload: Workload, summary: dict, ref: dict,
                      errors: list[str]) -> None:
    """Compare an output summary with the stored reference at fixed tolerances."""
    if workload.runs == "compare":
        for key in ("free_u", "oracle_u"):
            if not _close(summary.get(key, []), ref[key], TOL_U):
                errors.append(f"reference: {key} differs by more than {TOL_U:g} A")
    elif workload.runs == "montecarlo":
        for key in ("violations", "diverged"):
            if summary.get(key) != ref[key]:
                errors.append(f"reference: {key} {summary.get(key)} != {ref[key]}")
        if not _close(summary.get("depth", []), ref["depth"], TOL_DEPTH):
            errors.append(f"reference: per-constraint depth differs by more "
                          f"than {TOL_DEPTH:g}")
    else:
        total = summary.get("total_regret", [])
        if not (len(total) == len(ref["total_regret"]) and all(
                abs(x - y) <= TOL_REGRET_REL * abs(y)
                for x, y in zip(total, ref["total_regret"]))):
            errors.append(f"reference: total regret differs by more than "
                          f"{TOL_REGRET_REL:g} relative")
        if not _close(summary.get("gap_tail_mean", []), ref["gap_tail_mean"],
                      TOL_GAP_TAIL):
            errors.append("reference: tail-mean gap differs")
        if summary.get("converged") != ref["converged"]:
            errors.append("reference: converged flags differ")


def check_outputs(workload: Workload, out: Path, scenario: dict, stdout: str,
                  seed: int, full_size: bool) -> tuple[list[str], dict]:
    """All checks of one run; returns (errors, output summary)."""
    errors: list[str] = []
    summary = CHECKS[workload.runs](out, scenario, stdout, errors)
    if full_size and (seed == DEFAULT_SEED or not workload.seeded):
        refs = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
        if workload.name in refs:
            compare_reference(workload, summary, refs[workload.name], errors)
        else:
            errors.append(f"no reference summary for {workload.name}")
    return errors, summary
