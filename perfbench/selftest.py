"""Fast self-test of the benchmark runner at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Runs every workload through ``run.py`` with 50 steps and 2 montecarlo
models, untraced and traced, and checks the result line's shape against
BENCHMARK.json. Then checks that the correctness gate flags corrupted
outputs, that count mismatches between traced runs are flagged, and that the
runner refuses to report without the package source. Exits 1 on any failure.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from tracer import PER_LAYER, count_mismatches
from workloads import (TOL_U, WORKLOADS, check_compare, check_montecarlo,
                       compare_reference)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = ["--steps", "50", "--models", "2", "--seconds", "0"]

failures: list[str] = []


def expect(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail and not ok else ""))
    if not ok:
        failures.append(name)


def run_runner(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, text=True, capture_output=True, timeout=170)


def test_runs(bench: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in WORKLOADS:
        for trace, expected in (("0", e2e), ("1", per_layer)):
            proc = run_runner("--workload", workload, "--seed", "3",
                              "--trace", trace, *TINY)
            name = f"{workload} trace={trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                expect(name, False, f"no result line; stderr: {proc.stderr[-500:]}")
                continue
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(name, proc.returncode == 0 and result["correct"]
                   and result["failed"] == 0 and result["attempted"] >= 1
                   and set(result) == {"correct", "attempted", "failed", "metrics"}
                   and units == expected, proc.stdout[-800:])


def test_benchmark_file(bench: dict) -> None:
    from run import END_TO_END
    expect("BENCHMARK.json workloads match the runner",
           [w["name"] for w in bench["workloads"]] == list(WORKLOADS))
    expect("BENCHMARK.json end_to_end matches the runner",
           {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
           == END_TO_END)
    expect("BENCHMARK.json per_layer matches the tracer",
           {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
           == {k: v[:2] for k, v in PER_LAYER.items()})


def _write_csv(path: Path, rows: list[dict]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def test_gate(tmp: Path) -> None:
    scenario = {"t_f": 2, "theta_lo": [0.0, 0.0], "theta_hi": [10.0, 1.0],
                "u_max": 10.0, "gamma": [1.0, 2.0], "tol_y": 1e-6}

    def compare_errors(free_theta=0.5, oracle_u=5.0, residual=0.0, rows=3):
        free = [{"t": t, "u": 1.0, "e_active": 0.0, "i_star": 1,
                 "theta_1": free_theta, "theta_2": 0.5} for t in range(rows)]
        oracle = [{"t": t, "u": oracle_u, "e_active": residual, "i_star": 2,
                   "theta_1": "", "theta_2": ""} for t in range(3)]
        _write_csv(tmp / "trajectory.csv", free)
        _write_csv(tmp / "oracle.csv", oracle)
        _write_csv(tmp / "gap.csv", [{"t": t} for t in range(3)])
        errors: list[str] = []
        check_compare(tmp, scenario, "", errors)
        return errors

    expect("gate passes clean compare outputs", compare_errors() == [])
    expect("gate flags a missing row", bool(compare_errors(rows=2)))
    expect("gate flags gains outside the box", bool(compare_errors(free_theta=11.0)))
    expect("gate flags oracle current above u_max", bool(compare_errors(oracle_u=10.5)))
    expect("gate flags an oracle residual above tol_y",
           bool(compare_errors(residual=2 * 2e-6)))

    _write_csv(tmp / "summary.csv", [
        {"model_index": 0, "diverged": 0, "any_violation": 1,
         "depth_current": 0, "depth_voltage": 0.1, "depth_temperature": 0},
        {"model_index": 1, "diverged": 1, "any_violation": "",
         "depth_current": "", "depth_voltage": "", "depth_temperature": ""}])
    for printed, ok in (("violations=1, diverged=1", True),
                        ("violations=2, diverged=1", False)):
        errors: list[str] = []
        check_montecarlo(tmp, {"models": 2}, printed, errors)
        expect(f"gate {'accepts' if ok else 'flags'} printed counts '{printed}'",
               (errors == []) == ok)

    ref = {"free_u": [1.0, 2.0], "oracle_u": [1.0, 2.0]}
    for delta, ok in ((0.5 * TOL_U, True), (2 * TOL_U, False)):
        errors = []
        compare_reference(WORKLOADS["pack-compare"],
                          {"free_u": [1.0, 2.0 + delta], "oracle_u": [1.0, 2.0]},
                          ref, errors)
        expect(f"reference {'accepts' if ok else 'flags'} |du| = {delta:g} A",
               (errors == []) == ok)


def test_count_mismatch() -> None:
    base = {name: 1.0 for name in PER_LAYER}
    expect("equal counts pass", count_mismatches([base, dict(base)]) == [])
    timing = dict(base, **{"models.self_s": 2.0})
    expect("differing times are not flagged", count_mismatches([base, timing]) == [])
    counts = dict(base, **{"oracle.solve_calls": 2.0})
    expect("differing counts are flagged", len(count_mismatches([base, counts])) == 1)


def test_refuses_without_source(tmp: Path) -> None:
    shutil.copytree(HERE, tmp / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp / "BENCHMARK.json")
    proc = run_runner("--workload", "toy-regret", "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=tmp)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    expect("refuses to report without the package source",
           proc.returncode != 0 and not last.startswith("{"))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    test_benchmark_file(bench)
    test_count_mismatch()
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        test_gate(Path(tmp))
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        test_refuses_without_source(Path(tmp))
    test_runs(bench)
    if work.is_dir() and not any(work.iterdir()):
        work.rmdir()
    print(f"selftest: {len(failures)} failure(s)" if failures else "selftest: all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
