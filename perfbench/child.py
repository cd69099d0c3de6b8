"""One benchmark sample: run one bangride CLI command in this fresh process.

Times the set-up (import of ``bangride.cli`` once numpy is imported, then
loading and building the workload's scenario) and the command itself
(``bangride.cli.main``), records the process's peak resident memory, checks
the command's outputs, and prints one JSON line on standard output. The
package comes from ``src/``, or with ``--baseline`` from the frozen copy in
``perfbench/baseline/``. With ``--trace`` the command runs under the
call-site tracer and the report carries its aggregates.

    python3 perfbench/child.py --workload pack-compare --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from workloads import MONTECARLO_MODELS, WORKLOADS, check_outputs

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BASELINE = HERE / "baseline"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--baseline", action="store_true",
                    help="run the frozen copy of the package instead of src/")
    ap.add_argument("--setup-only", action="store_true",
                    help="time the set-up and exit without running the command")
    ap.add_argument("--steps", type=int, default=None, help="override t_f")
    ap.add_argument("--models", type=int, default=None,
                    help="override the montecarlo model count")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]

    package_root = BASELINE if args.baseline else SRC
    sys.path.insert(0, str(package_root))
    # numpy's own import is the environment's cost, not the package's, and
    # it drifts with the machine's file-cache state by more than the rest
    import numpy  # noqa: F401
    t0 = time.perf_counter()
    import bangride.cli as cli
    t1 = time.perf_counter()
    from bangride.config import build_scenario, load_scenario
    steps = workload.steps if args.steps is None else args.steps
    cfg = load_scenario(workload.config)
    cfg.seed = args.seed
    if steps is not None:
        cfg.t_f = steps
    t2 = time.perf_counter()
    built = build_scenario(cfg)
    t3 = time.perf_counter()
    report = {"import_s": t1 - t0, "load_s": t2 - t1, "build_s": t3 - t2,
              "setup_s": t3 - t0}
    if Path(cli.__file__).resolve().parent.parent != package_root:
        report["errors"] = [f"bangride imported from {cli.__file__}, "
                            f"not {package_root}"]
        print(json.dumps(report))
        return 1
    if args.setup_only:
        print(json.dumps(report))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    argv = workload.argv(args.seed, args.out, steps, args.models)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        t4 = time.perf_counter()
        rc = cli.main(argv)
        t5 = time.perf_counter()
    report["wall_s"] = t5 - t4
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["plant_steps"] = workload.plant_steps(built.cfg.t_f, args.models)
    report["numpy"] = sys.modules["numpy"].__version__
    scenario = {
        "t_f": built.cfg.t_f,
        "theta_lo": list(built.cfg.theta_lo),
        "theta_hi": list(built.cfg.theta_hi),
        "u_max": built.spec.u_max,
        "gamma": [float(g) for g in built.spec.gamma],
        "tol_y": built.root_cfg.tol_y,
        "models": MONTECARLO_MODELS if args.models is None else args.models,
        "svg": workload.svg,
    }
    full_size = args.steps is None and args.models is None
    errors, summary = check_outputs(workload, Path(args.out), scenario,
                                    captured.getvalue(), args.seed, full_size)
    if rc != 0:
        errors.insert(0, f"command exited {rc}")
    report["errors"] = errors
    report["summary"] = summary
    if tracer is not None:
        report["trace"] = tracer.raw()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
