"""Command-line harness: run scenarios, compare against the oracle, sweep
robustness and regret, and validate the shipped models.

Exit codes: 0 success, 1 configuration/usage error, 2 simulation divergence,
3 validation-suite failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (attach_per_step_optima, ct_ratio_sign_changes, ct_series,
                       regret, robustness_study)
from .config import BuiltScenario, load_scenario, build_scenario, save_scenario
from .controller import step_size
from .csvio import (GOLDEN_COLUMNS, read_trajectory_csv, write_gap_csv,
                    write_montecarlo_summary, write_regret_csv,
                    write_trajectory_csv)
from .errors import BangrideError, ConfigurationError, SimulationDiverged
from .oracle import oracle_trajectory
from .plant import run_closed_loop, validate_monotonicity
from .svg import emit_svg, plottable

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

    def common(p: argparse.ArgumentParser, config_required: bool = True):
        p.add_argument("--config", required=config_required,
                       help="scenario file path or packaged name (spmet, ecm, pack, toy)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--steps", type=int, default=None, dest="steps",
                       help="override the horizon t_f")
        p.add_argument("--mu1", type=float, default=None)
        p.add_argument("--gamma", default=None,
                       help="comma-separated error weights")
        p.add_argument("--svg", action="store_true", help="emit line plots")

    common(sub.add_parser("simulate", help="run the model-free controller"))
    common(sub.add_parser("oracle", help="run the ideal bang-ride protocol"))
    common(sub.add_parser("compare", help="model-free vs oracle plus gap report"))
    mc = sub.add_parser("montecarlo", help="perturbed-model robustness study")
    common(mc)
    mc.add_argument("--models", type=int, default=200)
    mc.add_argument("--fraction", type=float, default=0.1)
    mc.add_argument("--jobs", type=int, default=1)
    rg = sub.add_parser("regret", help="step-size-exponent sweep on the toy plant")
    common(rg, config_required=False)
    va = sub.add_parser("validate", help="monotonicity and invariant suite")
    common(va, config_required=False)
    return parser


def _load(args, default_config: str | None = None) -> BuiltScenario:
    name = args.config or default_config
    if name is None:
        raise ConfigurationError("--config is required")
    cfg = load_scenario(name)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.steps is not None:
        cfg.t_f = args.steps
    if args.mu1 is not None:
        cfg.mu1 = args.mu1
    if args.gamma is not None:
        cfg.gamma = tuple(float(v) for v in args.gamma.split(","))
    if args.out is not None:
        cfg.out_dir = args.out
    cfg.__post_init__()
    return build_scenario(cfg)


def _prepare_run_dir(built: BuiltScenario, command: str) -> Path:
    out = Path(built.cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_scenario(built.cfg, out / "config.cfg")
    (out / "manifest.txt").write_text(
        f"version = {__version__}\n"
        f"config_hash = {built.config_hash}\n"
        f"command = {command}\n",
        encoding="utf-8")
    return out


def _maybe_attach_jstar(traj, built: BuiltScenario):
    if not built.cfg.compute_jstar:
        return traj
    return attach_per_step_optima(traj, built.model, built.spec)


def _emit_plots(out: Path, entries) -> None:
    """One chart per quantity the runs' telemetry carries."""
    for q in plottable(entries[0][0]):
        emit_svg(entries, q, out / f"{q}.svg")


def _free_style():
    return {"label": "model-free", "color": "#c22", "width": 1.7}


def _oracle_style():
    return {"label": "ideal bang-ride", "color": "#111", "width": 1.4,
            "dash": "6,4"}


def cmd_simulate(args) -> int:
    built = _load(args)
    out = _prepare_run_dir(built, "simulate")
    traj = run_closed_loop(built.model, built.new_controller(), built.spec,
                           built.cfg.t_f, built.x0, model_name=built.cfg.model,
                           seed=built.cfg.seed, config_hash=built.config_hash)
    traj = _maybe_attach_jstar(traj, built)
    write_trajectory_csv(traj, out / "trajectory.csv",
                         pack_summary=built.cfg.model == "pack")
    if built.cfg.ct_diagnostics:
        ct = ct_series(traj, built.model, built.spec)
        print(f"c_t diagnostics: min={ct.min():.6g} "
              f"sign_changes={ct_ratio_sign_changes(ct, traj.alpha)}")
    if args.svg:
        _emit_plots(out, [(traj, _free_style())])
    print(f"simulate: {len(traj)} steps -> {out / 'trajectory.csv'}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    built = _load(args)
    out = _prepare_run_dir(built, "oracle")
    traj = oracle_trajectory(built.model, built.spec, built.cfg.t_f, built.x0,
                             built.root_cfg, model_name=built.cfg.model,
                             seed=built.cfg.seed, config_hash=built.config_hash)
    write_trajectory_csv(traj, out / "oracle.csv",
                         pack_summary=built.cfg.model == "pack")
    if args.svg:
        _emit_plots(out, [(traj, _oracle_style())])
    print(f"oracle: {len(traj)} steps -> {out / 'oracle.csv'}")
    return EXIT_OK


def cmd_compare(args) -> int:
    built = _load(args)
    out = _prepare_run_dir(built, "compare")
    free = run_closed_loop(built.model, built.new_controller(), built.spec,
                           built.cfg.t_f, built.x0, model_name=built.cfg.model,
                           seed=built.cfg.seed, config_hash=built.config_hash)
    free = _maybe_attach_jstar(free, built)
    oracle = oracle_trajectory(built.model, built.spec, built.cfg.t_f, built.x0,
                               built.root_cfg, model_name=built.cfg.model,
                               seed=built.cfg.seed, config_hash=built.config_hash)
    write_trajectory_csv(free, out / "trajectory.csv",
                         pack_summary=built.cfg.model == "pack")
    write_trajectory_csv(oracle, out / "oracle.csv",
                         pack_summary=built.cfg.model == "pack")
    write_gap_csv(free, oracle, out / "gap.csv")
    w = slice(len(free) // 10, len(free))
    denom = float(np.linalg.norm(oracle.u[w]))
    rel = float(np.linalg.norm(free.u[w] - oracle.u[w])) / denom if denom else 0.0
    if args.svg:
        _emit_plots(out, [(free, _free_style()), (oracle, _oracle_style())])
    print(f"compare: relative L2 current distance (post-transient) = {rel:.4%}")
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    built = _load(args)
    if built.cfg.model != "ecm":
        raise ConfigurationError("montecarlo runs on the ecm scenario")
    if args.models < 1:
        raise ConfigurationError(f"--models must be >= 1, got {args.models}")
    if not 0.0 <= args.fraction < 1.0:
        raise ConfigurationError(f"--fraction must lie in [0, 1), got {args.fraction}")
    from .config import load_ecm_params, params_path
    base = load_ecm_params(params_path(built.cfg, "params_ecm.cfg"))
    out = _prepare_run_dir(built, "montecarlo")
    result = robustness_study(base, args.models, args.fraction, built.spec,
                              built.cfg.t_f, built.cfg.seed,
                              controller=built.new_controller(),
                              jobs=args.jobs, keep_series=args.svg)
    write_montecarlo_summary(result.stats, out / "summary.csv")
    if args.svg:
        _emit_ensemble_plots(out, result, base.t_ambient)
    st = result.stats
    print(f"montecarlo: {args.models} models, fraction={args.fraction}, "
          f"violations={st.runs_with_violation}, diverged={st.diverged_runs} "
          f"-> {out / 'summary.csv'}")
    return EXIT_OK


def _emit_ensemble_plots(out: Path, result, t_ambient: float) -> None:
    """Perturbed-protocol ensemble in gray under the true runs."""
    from .svg import Series, quantity_series, render_chart, UNITS
    kept = [o for o in result.stats.outcomes
            if not o.diverged and o.u_seq is not None]
    for quantity, extract in (
            ("current", lambda o: o.u_seq),
            ("temperature", lambda o: t_ambient + o.y_seq[:, 2])):
        series = []
        for k, o in enumerate(kept):
            series.append(Series(label="perturbed ensemble", y=extract(o),
                                 color="#bbb", width=0.7, in_legend=(k == 0)))
        if result.free_run is not None:
            series.extend(quantity_series(result.free_run, quantity,
                                          **_free_style()))
        series.extend(quantity_series(result.true_oracle, quantity,
                                      **_oracle_style()))
        markup = render_chart(series, title=f"{quantity} over time",
                              ylabel=f"{quantity} [{UNITS[quantity]}]")
        (out / f"{quantity}_ensemble.svg").write_text(markup, encoding="utf-8")


def cmd_regret(args) -> int:
    built = _load(args, default_config="toy")
    out = _prepare_run_dir(built, "regret")
    mu1_list = [args.mu1] if args.mu1 is not None else [0.3, 0.5, 0.7]
    rows = []
    for mu1 in mu1_list:
        cfg = built.cfg
        cfg.mu1 = mu1
        scenario = build_scenario(cfg)
        traj = run_closed_loop(scenario.model, scenario.new_controller(),
                               scenario.spec, cfg.t_f, scenario.x0,
                               model_name=cfg.model, seed=cfg.seed)
        traj = attach_per_step_optima(traj, scenario.model, scenario.spec)
        report = regret(traj, mu1)
        ct = ct_series(traj, scenario.model, scenario.spec)
        rows.append({
            "mu1": mu1,
            "total_regret": report.total,
            "tail_slope": report.tail_slope,
            "converged": report.converged,
            "gap_tail_mean": report.gap_tail_mean(),
            "mu2_hat": report.mu2_hat,
            "mu_star_ref": report.mu_star_ref,
            "ct_sign_changes": ct_ratio_sign_changes(ct, traj.alpha),
        })
        slope = "converged" if report.converged else f"{report.tail_slope:.3f}"
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
    for name in ("spmet", "ecm", "pack", "toy"):
        built = build_scenario(load_scenario(name))
        model = built.model
        ref = oracle_trajectory(model, built.spec, built.cfg.t_f, built.x0,
                                built.root_cfg)
        # skip the exactly-symmetric initial pack state, where difference
        # outputs are constant in u
        pick = np.linspace(1, len(ref.states) - 2, 8).astype(int)
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
    d_proj = np.linalg.norm(np.clip(a, lo, hi) - np.clip(b, lo, hi), axis=1)
    d_raw = np.linalg.norm(a - b, axis=1)
    check("projection non-expansive", bool(np.all(d_proj <= d_raw + 1e-12)))

    # golden CSV schema on a small run
    import tempfile
    built = build_scenario(load_scenario("toy"))
    traj = run_closed_loop(built.model, built.new_controller(), built.spec,
                           20, built.x0, model_name="toy-linear")
    with tempfile.TemporaryDirectory() as tmp:
        path = write_trajectory_csv(traj, Path(tmp) / "t.csv")
        cols = read_trajectory_csv(path)
    missing = [c for c in GOLDEN_COLUMNS if c not in cols]
    check("csv golden schema", not missing,
          f"missing {missing}" if missing else "all columns present")

    # config round-trips
    ok = True
    for name in ("spmet", "ecm", "pack", "toy"):
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
    except BangrideError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
