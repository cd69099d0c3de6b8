"""Command-line harness: run scenarios, compare against the oracle, sweep
robustness and regret, and validate the shipped models.

Exit codes: 0 success, 1 configuration/usage or filesystem error, 2 simulation
divergence, 3 validation-suite failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (attach_per_step_optima, ct_ratio_sign_changes, ct_series,
                       regret, robustness_study)
from .config import (SCENARIOS, BuiltScenario, build_scenario, load_scenario,
                     parse_value, save_scenario, scenario_hash)
from .controller import project_box, run_closed_loop, step_size
from .csvio import (GOLDEN_COLUMNS, write_gap_csv, write_montecarlo_summary,
                    write_regret_csv, write_trajectory_csv)
from .errors import BangrideError, ConfigurationError, SimulationDiverged
from .oracle import oracle_trajectory
from .plant import Trajectory, validate_monotonicity
from .svg import Series, emit_svg, quantity_series

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_VALIDATE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_CONFIG)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bangride",
                     description="Model-free bang-ride fast-charging lab")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, config: str | None = None):
        p.add_argument("--config", required=config is None, default=config,
                       help=f"scenario file path or packaged name ({', '.join(SCENARIOS)})")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--steps", type=int, default=None, dest="steps",
                       help="override the horizon t_f")
        p.add_argument("--mu1", type=float, default=None)
        p.add_argument("--gamma", default=None,
                       help="comma-separated error weights")
        return p

    for name, text in (("simulate", "run the model-free controller"),
                       ("oracle", "run the ideal bang-ride protocol"),
                       ("compare", "model-free vs oracle plus gap report"),
                       ("montecarlo", "perturbed-model robustness study")):
        common(sub.add_parser(name, help=text)).add_argument(
            "--svg", action="store_true", help="emit line plots")
    mc = sub.choices["montecarlo"]
    mc.add_argument("--models", type=int, default=200)
    mc.add_argument("--fraction", type=float, default=0.1)
    mc.add_argument("--jobs", type=int, default=1,
                    help="ignored: every model runs in one batch; "
                         "accepted so that older command lines still parse")
    common(sub.add_parser("regret", help="step-size-exponent sweep on the "
                                         "scenario's plant (toy by default)"),
           config="toy")
    sub.add_parser("validate", help="monotonicity and invariant suite")
    return parser


def _load(args) -> BuiltScenario:
    cfg = load_scenario(args.config)
    gamma = None if args.gamma is None else parse_value(
        args.gamma, lambda text: tuple(float(v) for v in text.split(",")), "--gamma")
    overrides = {"seed": args.seed, "t_f": args.steps, "mu1": args.mu1,
                 "gamma": gamma, "out_dir": args.out}
    return build_scenario(dataclasses.replace(
        cfg, **{k: v for k, v in overrides.items() if v is not None}))


@contextmanager
def _run_dir(built: BuiltScenario, command: str):
    """The run directory with the scenario and its parameter file, which
    ``config.cfg`` names as ``params.cfg``, and the manifest. A run in the
    block that diverges adds a ``failure`` line at the end of the manifest,
    and its error raises on."""
    out = Path(built.cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    params = built.params_path.read_bytes()
    (out / "params.cfg").write_bytes(params)
    save_scenario(dataclasses.replace(built.cfg, params_file="params.cfg"), out / "config.cfg")
    (out / "manifest.txt").write_text(
        f"version = {__version__}\n"
        f"config_hash = {scenario_hash(built.cfg)}\n"
        f"command = {command}\n"
        f"params_hash = {hashlib.sha256(params).hexdigest()[:16]}\n",
        encoding="utf-8")
    try:
        yield out
    except SimulationDiverged as error:
        with (out / "manifest.txt").open("a", encoding="utf-8") as fh:
            fh.write(f"failure = {error}\n")
        raise


def _written(out: Path, name: str, built: BuiltScenario, run) -> Trajectory:
    """``run()``'s trajectory, written to ``out / name``. A run that diverges
    leaves there the rows before its failing step (``SimulationDiverged.rows``)
    and raises on."""
    try:
        traj = run()
    except SimulationDiverged as error:
        write_trajectory_csv(error.rows, built.model.csv_block, out / name)
        raise
    write_trajectory_csv(traj, built.model.csv_block, out / name)
    return traj


def _free_run(built: BuiltScenario, out: Path) -> Trajectory:
    """The model-free run, with its per-step optima if the scenario computes
    them, in ``trajectory.csv`` (``_written``)."""
    def run() -> Trajectory:
        traj = run_closed_loop(built.model, built.controller, built.spec,
                               built.cfg.t_f, built.x0)
        if not built.cfg.compute_jstar:
            return traj
        return attach_per_step_optima(traj, built.model, built.spec,
                                      built.controller.theta_lo, built.controller.theta_hi)
    return _written(out, "trajectory.csv", built, run)


def _ideal_run(built: BuiltScenario, out: Path) -> Trajectory:
    """The oracle's run, in ``oracle.csv`` (``_written``)."""
    return _written(out, "oracle.csv", built, lambda: oracle_trajectory(
        built.model, built.spec, built.cfg.t_f, built.x0))


FREE_STYLE = Series("model-free", "#c22", 1.7)
ORACLE_STYLE = Series("ideal bang-ride", "#111", 1.4, "6,4")
ENSEMBLE_STYLE = Series("perturbed ensemble", "#bbb", 0.7)


def _series(runs, quantity: str, keys) -> list[Series]:
    """The series of ``quantity`` of each (trajectory, style) pair of ``runs``."""
    return [s for traj, style in runs for s in quantity_series(traj, quantity, keys, style)]


def _emit_plots(out: Path, runs, plots) -> None:
    """The current's chart, then one per quantity the plant plots
    (``PlantModel.plots``)."""
    for quantity, keys in {"current": (), **plots}.items():
        emit_svg(_series(runs, quantity, keys), quantity, out / f"{quantity}.svg")


def cmd_simulate(args) -> int:
    built = _load(args)
    with _run_dir(built, "simulate") as out:
        traj = _free_run(built, out)
    if built.cfg.ct_diagnostics:
        ct = ct_series(traj, built.model, built.spec)
        print(f"c_t diagnostics: min={ct.min():.6g} "
              f"sign_changes={ct_ratio_sign_changes(ct, traj.alpha)}")
    if args.svg:
        _emit_plots(out, [(traj, FREE_STYLE)], built.model.plots)
    print(f"simulate: {len(traj)} steps -> {out / 'trajectory.csv'}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    built = _load(args)
    with _run_dir(built, "oracle") as out:
        traj = _ideal_run(built, out)
    if args.svg:
        _emit_plots(out, [(traj, ORACLE_STYLE)], built.model.plots)
    print(f"oracle: {len(traj)} steps -> {out / 'oracle.csv'}")
    return EXIT_OK


def cmd_compare(args) -> int:
    built = _load(args)
    with _run_dir(built, "compare") as out:
        free = _free_run(built, out)
        oracle = _ideal_run(built, out)
    write_gap_csv(free, oracle, out / "gap.csv")
    w = slice(len(free) // 10, len(free))
    denom = float(np.linalg.norm(oracle.u[w]))
    rel = float(np.linalg.norm(free.u[w] - oracle.u[w])) / denom if denom else 0.0
    if args.svg:
        _emit_plots(out, [(free, FREE_STYLE), (oracle, ORACLE_STYLE)], built.model.plots)
    print(f"compare: relative L2 current distance (post-transient) = {rel:.4%}")
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    built = _load(args)
    if args.models < 1:
        raise ConfigurationError(f"--models must be >= 1, got {args.models}")
    # model k from the stream keyed (seed, k); a plant without a family raises
    models = [built.model.perturbed(args.fraction, (built.cfg.seed, k))
              for k in range(args.models)]
    with _run_dir(built, "montecarlo") as out:
        result = robustness_study(built.model, models, built.x0, built.spec,
                                  built.cfg.t_f, keep_series=args.svg)
        write_montecarlo_summary(result.stats, built.model.output_names, out / "summary.csv")
        if args.svg:
            free = run_closed_loop(built.model, built.controller, built.spec,
                                   built.cfg.t_f, built.x0)
            _emit_ensemble_plots(out, result, free, built.model.plots)
    st = result.stats
    print(f"montecarlo: {args.models} models, fraction={args.fraction}, "
          f"violations={st.runs_with_violation}, diverged={st.diverged_runs} "
          f"-> {out / 'summary.csv'}")
    return EXIT_OK


def _emit_ensemble_plots(out: Path, result, free, plots) -> None:
    """Perturbed-protocol ensemble in gray under the true runs: the
    model-free run ``free`` and the true oracle."""
    kept = [o for o in result.stats.outcomes if not o.diverged]
    runs = [(free, FREE_STYLE), (result.true_oracle, ORACLE_STYLE)]
    for quantity, keys, extract in (
            ("current", (), lambda o: o.u_seq),
            ("temperature", plots["temperature"], lambda o: o.temperature)):
        emit_svg([dataclasses.replace(ENSEMBLE_STYLE, y=extract(o)) for o in kept]
                 + _series(runs, quantity, keys), quantity, out / f"{quantity}_ensemble.svg")


def cmd_regret(args) -> int:
    built = _load(args)
    mu1_list = [args.mu1] if args.mu1 is not None else [0.3, 0.5, 0.7]
    rows = []
    with _run_dir(built, "regret") as out:
        for mu1 in mu1_list:
            controller = dataclasses.replace(built.controller, mu1=mu1)
            traj = run_closed_loop(built.model, controller, built.spec,
                                   built.cfg.t_f, built.x0)
            traj = attach_per_step_optima(traj, built.model, built.spec,
                                          controller.theta_lo, controller.theta_hi)
            report = regret(traj, mu1)
            ct = ct_series(traj, built.model, built.spec)
            rows.append((mu1, report, ct_ratio_sign_changes(ct, traj.alpha)))
            slope = ("converged" if report.converged else "none" if report.tail_slope is None
                     else f"{report.tail_slope:.3f}")
            print(f"mu1={mu1:.2f}: R={report.total:.6g} tail_slope={slope} "
                  f"gap_tail_mean={report.gap_tail_mean():.3g} "
                  f"mu*_ref={report.mu_star_ref:.3f}")
    write_regret_csv(rows, out / "regret.csv")
    return EXIT_OK


def cmd_validate(args) -> int:
    failures = []

    def check(name: str, ok: bool, detail: str = ""):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
        if not ok:
            failures.append(name)

    # monotonicity of every packaged model, sampled on the states its own
    # scenario actually visits (the difference outputs of a pack are
    # increasing in u only in the binding direction, which the operating
    # range selects)
    for name in SCENARIOS:
        built = build_scenario(load_scenario(name))
        model = built.model
        ref = oracle_trajectory(model, built.spec, built.cfg.t_f, built.x0)
        # skip the exactly-symmetric initial pack state, where difference
        # outputs are constant in u
        pick = np.linspace(1, len(ref.states) - 1, 8).astype(int)
        states = [ref.states[k] for k in pick]
        u_grid = np.linspace(0.0, built.spec.u_max, 6)
        rep = validate_monotonicity(model, states, u_grid)
        check(f"monotonicity[{name}]", rep.ok,
              f"min slope {rep.min_slope.min():.3g}")

    # step-size schedule spot values
    check("step-size schedule",
          step_size(0, 0.5) == 1.0 and step_size(4, 0.5) == 0.5
          and abs(step_size(1000, 0.5) - 1000.0 ** -0.5) < 1e-15)

    # projection non-expansiveness on random pairs
    rng = np.random.default_rng(7)
    lo, hi = np.array([0.0, 0.0]), np.array([10.0, 1.0])
    a = rng.uniform(-30, 30, size=(10000, 2))
    b = rng.uniform(-30, 30, size=(10000, 2))
    d_proj = np.linalg.norm(project_box(a, lo, hi) - project_box(b, lo, hi), axis=1)
    d_raw = np.linalg.norm(a - b, axis=1)
    check("projection non-expansive", bool(np.all(d_proj <= d_raw + 1e-12)))

    # run_closed_loop inlines both: its step sizes and gains on a toy run
    built = build_scenario(load_scenario("toy"))
    c = built.controller
    traj = run_closed_loop(built.model, c, built.spec, 20, built.x0)
    check("run step sizes", traj.alpha.tolist() == [step_size(t, c.mu1) for t in range(21)])
    check("run gains in box",
          bool(np.all((c.theta_lo <= traj.theta) & (traj.theta <= c.theta_hi))))

    # golden CSV schema on the same run
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        path = write_trajectory_csv(traj, built.model.csv_block, Path(tmp) / "t.csv")
        with path.open(encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
    missing = [c for c in GOLDEN_COLUMNS if c not in header]
    check("csv golden schema", not missing,
          f"missing {missing}" if missing else "all columns present")

    # config round-trips
    ok = True
    for name in SCENARIOS:
        cfg = load_scenario(name)
        with tempfile.TemporaryDirectory() as tmp:
            save_scenario(cfg, Path(tmp) / "c.cfg")
            ok = ok and (load_scenario(Path(tmp) / "c.cfg") == cfg)
    check("config round-trip", ok)

    if failures:
        print(f"validate: {len(failures)} check(s) failed")
        return EXIT_VALIDATE
    print("validate: all checks passed")
    return EXIT_OK


COMMANDS = {
    "simulate": cmd_simulate,
    "oracle": cmd_oracle,
    "compare": cmd_compare,
    "montecarlo": cmd_montecarlo,
    "regret": cmd_regret,
    "validate": cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except SimulationDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (BangrideError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
