"""bangride benchmark runner.

Runs one workload's CLI command repeatedly, each time in a fresh process
(``child.py``), for ``--seconds`` seconds, in pairs: once on the package in
``src/`` and once on the frozen copy in ``baseline/``, in alternating order.
Checks every run's outputs, and prints the end-to-end metrics
(``--trace 0``) or, from two traced runs, the per-layer metrics
(``--trace 1``). The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

On a shared machine the speed of the same code drifts by 15-40 % in phases
of tens of seconds to minutes, and different code drifts differently. Two
runs of a pair fall in the same phase, so the ratio of their times is
steady where each time is not; the reported times are that ratio times the
baseline's nominal time (see README.md).

    python3 perfbench/run.py --workload pack-compare --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --all            # every workload, end to end

Outputs go to a scratch directory under ``.perfbench_work/`` in the
checkout, removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER, count_mismatches, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"
BUDGET_S = 170               # one workload's invocation ends within this
MIN_SETUP_PAIRS = 7          # set-up is short, so it is sampled more often
TRACED_RUNS = 2              # their counts must repeat exactly

# the end_to_end metrics of BENCHMARK.json; name: (unit, better)
END_TO_END = {
    "ref_wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# printed and recorded with them, but not gated: raw times drift with the
# machine's speed
END_TO_END_INFO = {"wall_ratio": "x", "setup_ratio": "x", "wall_s": "s",
                   "baseline_wall_s": "s", "raw_setup_s": "s",
                   "steps_per_s": "steps/s"}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Runner:
    """One invocation: its scratch directory, child runs and their reports."""

    def __init__(self, args):
        self.args = args
        self.work = WORK / f"run-{os.getpid()}"
        self.count = 0
        self.pairs = 0
        self.deadline = time.monotonic() + BUDGET_S

    def out_of_time(self) -> bool:
        return time.monotonic() >= self.deadline

    def child(self, workload: str, *flags: str) -> dict:
        """Run one child process; returns its report, with ``errors`` set
        when it failed."""
        self.count += 1
        out = self.work / f"c{self.count}"
        cmd = [sys.executable, str(CHILD), "--workload", workload,
               "--seed", str(self.args.seed), "--out", str(out), *flags]
        if self.args.steps is not None:
            cmd += ["--steps", str(self.args.steps)]
        if self.args.models is not None:
            cmd += ["--models", str(self.args.models)]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd, cwd=ROOT, text=True, capture_output=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"errors": [f"child stopped at the {BUDGET_S} s budget"]}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        try:
            report = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
            return {"errors": [f"child exited {proc.returncode} without a "
                               f"report: {tail}"]}
        if proc.returncode != 0:
            report.setdefault("errors", []).append(f"child exited {proc.returncode}")
        return report

    def pair(self, workload: str, *flags: str) -> tuple[dict, dict]:
        """(package run, baseline run), started in alternating order."""
        self.pairs += 1
        if self.pairs % 2:
            return self.child(workload, *flags), self.child(workload, *flags, "--baseline")
        base = self.child(workload, *flags, "--baseline")
        return self.child(workload, *flags), base

    def measure(self, workload: str) -> dict:
        """Untraced pairs for --seconds (at least one), plus set-up-only
        pairs until there are MIN_SETUP_PAIRS set-up pairs."""
        self.pair(workload, "--setup-only")           # warm the page cache
        pairs = []
        start = time.monotonic()
        while not pairs or (time.monotonic() - start < self.args.seconds
                            and not self.out_of_time()):
            pairs.append(self.pair(workload))
            _print_pair(len(pairs), *pairs[-1])
        setups = [(a["setup_s"], b["setup_s"]) for a, b in pairs
                  if "setup_s" in a and "setup_s" in b]
        while len(setups) < MIN_SETUP_PAIRS and not self.out_of_time():
            a, b = self.pair(workload, "--setup-only")
            if a.get("errors") or b.get("errors"):
                break
            setups.append((a["setup_s"], b["setup_s"]))
        return {"pairs": pairs, "setups": setups}


def _status(r: dict) -> str:
    return "ok" if not r.get("errors") else "FAIL: " + "; ".join(r["errors"])


def _print_run(k: int, r: dict) -> None:
    if "wall_s" in r:
        print(f"  run {k}: wall_s={r['wall_s']:.4f} setup_s={r['setup_s']:.4f} "
              f"peak_rss_mb={r['peak_rss_mb']:.1f} {_status(r)}", flush=True)
    else:
        print(f"  run {k}: {_status(r)}", flush=True)


def _print_pair(k: int, a: dict, b: dict) -> None:
    if "wall_s" in a and "wall_s" in b:
        print(f"  pair {k}: wall_s={a['wall_s']:.4f} baseline={b['wall_s']:.4f} "
              f"ratio={a['wall_s'] / b['wall_s']:.4f} setup_s={a['setup_s']:.4f} "
              f"peak_rss_mb={a['peak_rss_mb']:.1f} {_status(a)}"
              + ("" if not b.get("errors") else f"; baseline {_status(b)}"), flush=True)
    else:
        print(f"  pair {k}: {_status(a)}; baseline {_status(b)}", flush=True)


def end_to_end(workload: str, measured: dict) -> dict[str, float] | None:
    timed = [(a, b) for a, b in measured["pairs"] if "wall_s" in a and "wall_s" in b]
    if not timed or not measured["setups"]:
        return None
    nominal = WORKLOADS[workload]
    wall_ratio = statistics.median(a["wall_s"] / b["wall_s"] for a, b in timed)
    setup_ratio = statistics.median(a / b for a, b in measured["setups"])
    wall = statistics.median(a["wall_s"] for a, _ in timed)
    return {
        "ref_wall_s": wall_ratio * nominal.nominal_wall_s,
        "setup_s": setup_ratio * nominal.nominal_setup_s,
        "peak_rss_mb": statistics.median(a["peak_rss_mb"] for a, _ in timed),
        "wall_ratio": wall_ratio,
        "setup_ratio": setup_ratio,
        "wall_s": wall,
        "baseline_wall_s": statistics.median(b["wall_s"] for _, b in timed),
        "raw_setup_s": statistics.median(a for a, _ in measured["setups"]),
        "steps_per_s": timed[0][0]["plant_steps"] / wall,
    }


def traced(runner: Runner, workload: str, untraced_wall: float) -> tuple[list, dict]:
    """Per-layer metrics from TRACED_RUNS traced runs (median of each
    metric); flags any count metric that does not repeat exactly."""
    runs = [runner.child(workload, "--trace") for _ in range(TRACED_RUNS)]
    per_run = []
    for k, r in enumerate(runs, 1):
        _print_run(k, r)
        if "trace" in r:
            per_run.append(layer_metrics(r, untraced_wall))
    if len(per_run) < TRACED_RUNS:
        return runs, {}
    mismatches = count_mismatches(per_run)
    if mismatches:
        runs[-1].setdefault("errors", []).extend(mismatches)
    metrics = {name: statistics.median(m[name] for m in per_run) for name in PER_LAYER}
    return runs, metrics


def _result(metrics: dict, units: dict, runs: list) -> dict:
    failed = sum(1 for r in runs if r.get("errors"))
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def _print_metrics(metrics: dict, units: dict, runs: list) -> None:
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    failed = sum(1 for r in runs if r.get("errors"))
    print(f"{'failed_frac':40s} {failed / len(runs):14.6g} frac "
          f"({failed}/{len(runs)} runs)")


def run_one(runner: Runner, workload: str, trace: bool) -> dict | None:
    runner.deadline = time.monotonic() + BUDGET_S
    measured = runner.measure(workload)
    e2e = end_to_end(workload, measured)
    if e2e is None:
        return None
    runs = [r for pair in measured["pairs"] for r in pair]
    if not trace:
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        _print_metrics(e2e, {**units, **END_TO_END_INFO}, runs)
        return {"result": _result(e2e, units, runs), "runs": runs}
    print("traced runs:")
    traced_runs, metrics = traced(runner, workload, e2e["wall_s"])
    runs = runs + traced_runs
    if not metrics:
        return None
    units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
    _print_metrics(metrics, units, runs)
    return {"result": _result(metrics, units, runs), "runs": runs,
            "spans": traced_runs[0]["trace"]["spans"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true",
                    help="run every workload end to end, one after another")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=None,
                    help="also write the full record (environment, every "
                         "run, metrics, spans) to this JSON file")
    ap.add_argument("--steps", type=int, default=None,
                    help="override the horizon (self-test sizes only)")
    ap.add_argument("--models", type=int, default=None,
                    help="override the montecarlo model count (self-test sizes only)")
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    if not (ROOT / "src" / "bangride" / "cli.py").is_file():
        print(f"error: no bangride source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = {"nproc": os.cpu_count(), "cpu": _cpu_model(),
           "python": platform.python_version(), "commit": _git_commit(),
           "loadavg_before": os.getloadavg(), "seed": args.seed,
           "default_seed": DEFAULT_SEED, "seconds": args.seconds}
    runner = Runner(args)
    workloads = sorted(WORKLOADS) if args.all else [args.workload]
    outcomes = {}
    try:
        for name in workloads:
            print(f"workload {name} seed={args.seed} seconds={args.seconds:g} "
                  f"trace={args.trace}", flush=True)
            outcomes[name] = run_one(runner, name, bool(args.trace))
            if outcomes[name] is None:
                print(f"error: {name}: no run produced a measurement",
                      file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    env["loadavg_after"] = os.getloadavg()
    env["numpy"] = next((r["numpy"] for o in outcomes.values()
                         for r in o["runs"] if "numpy" in r), "unknown")
    print("env " + json.dumps(env))

    if args.all:
        result = {"correct": all(o["result"]["correct"] for o in outcomes.values()),
                  "attempted": sum(o["result"]["attempted"] for o in outcomes.values()),
                  "failed": sum(o["result"]["failed"] for o in outcomes.values()),
                  "metrics": {f"{w}.{m}": v for w, o in outcomes.items()
                              for m, v in o["result"]["metrics"].items()}}
    else:
        result = outcomes[args.workload]["result"]
    if args.record:
        record = {"env": env, "args": vars(args), "result": result,
                  "workloads": {w: {"runs": [{k: v for k, v in r.items()
                                              if k != "trace"} for r in o["runs"]],
                                    "spans": o.get("spans")}
                                for w, o in outcomes.items()}}
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n",
                                     encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
