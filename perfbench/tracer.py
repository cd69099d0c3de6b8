"""Call-site tracer: times and counts calls into bangride's public functions
from outside the package, and turns the totals into per-layer metrics.

``install`` replaces each traced function, in every ``bangride`` module and
class that holds it, with a wrapper. Every wrapper adds its call count,
inclusive time and self time (inclusive minus the wrapped calls it made) to
in-memory aggregates; coarse boundaries also keep a span (name, start, end,
parent). Nothing under ``src/`` changes.

Layers are the package's modules. The three stepping loops
(``run_closed_loop``, ``oracle_trajectory``, ``replay_open_loop``) all count
as the ``plant`` loop, so the oracle layer is the selector and its solves.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

MODEL_METHODS = ("step", "outputs", "output", "telemetry")
CONTROLLER_METHODS = ("control", "gradient", "update")

# (module, function, layer, keeps a span)
FUNCTIONS = (
    ("oracle", "selector", "oracle", False),
    ("oracle", "solve_constraint", "oracle", False),
    ("plant", "run_closed_loop", "plant", True),
    ("oracle", "oracle_trajectory", "plant", True),
    ("plant", "replay_open_loop", "plant", True),
    ("analysis", "per_step_optimal_cost", "analysis", False),
    ("analysis", "attach_per_step_optima", "analysis", True),
    ("analysis", "ct_series", "analysis", True),
    ("analysis", "regret", "analysis", True),
    ("analysis", "robustness_study", "analysis", True),
    ("csvio", "write_trajectory_csv", "csvio", True),
    ("csvio", "write_gap_csv", "csvio", True),
    ("csvio", "write_montecarlo_summary", "csvio", True),
    ("csvio", "write_regret_csv", "csvio", True),
    ("svg", "emit_svg", "svg", True),
    ("config", "load_scenario", "config", True),
    ("config", "build_scenario", "config", True),
    ("cli", "main", "cli", True),
)


class Tracer:
    """Aggregates of one traced process; create one per process."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.layer_of: dict[str, str] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.files: dict[str, list[str]] = defaultdict(list)
        self._stack: list[list[float]] = []   # child time of each open call
        self._open_spans: list[int] = []
        self._t0 = time.perf_counter()

    def leaf(self, fn, name: str, layer: str):
        """Wrapper for hot calls: aggregates only."""
        self.layer_of[name] = layer
        stack, calls = self._stack, self.calls
        inclusive, self_time = self.inclusive, self.self_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            acc = [0.0]
            stack.append(acc)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                calls[name] += 1
                inclusive[name] += dt
                self_time[name] += dt - acc[0]
        return wrapper

    def coarse(self, fn, name: str, layer: str, span: bool, after=None):
        """Wrapper for coarse calls: aggregates, a span when asked, and an
        ``after(result, args, kwargs)`` hook for counts read off the result."""
        self.layer_of[name] = layer
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            acc = [0.0]
            self._stack.append(acc)
            parent = self._open_spans[-1] if self._open_spans else None
            if span:
                self.spans.append((name, 0.0, 0.0, parent))
                self._open_spans.append(len(self.spans) - 1)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "SimulationDiverged" and layer == "plant":
                    self.counters["divergences"] += 1
                raise
            finally:
                dt = clock() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dt
                self.calls[name] += 1
                self.inclusive[name] += dt
                self.self_time[name] += dt - acc[0]
                if span:
                    sid = self._open_spans.pop()
                    self.spans[sid] = (name, t0 - self._t0, t0 + dt - self._t0,
                                       parent)
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapper

    # -- hooks ------------------------------------------------------------

    def _after_solve(self, result, args, kwargs):
        self.counters["bisect_iters"] += result.iterations
        self.counters["bisect_iters_max"] = max(self.counters["bisect_iters_max"],
                                                result.iterations)

    def _after_selector(self, result, args, kwargs):
        spec = args[2] if len(args) > 2 else kwargs["spec"]
        self.counters["selector_candidates"] += spec.p - 1

    def _steps_hook(self, key: str):
        def after(result, args, kwargs):
            n = len(result[0]) if isinstance(result, tuple) else len(result)
            self.counters[key] += n
        return after

    def _after_robustness(self, result, args, kwargs):
        self.counters["models_diverged"] += result.stats.diverged_runs

    def _file_hook(self, kind: str):
        def after(result, args, kwargs):
            self.files[kind].append(str(result))   # writers return the path
        return after

    def _optimum(self, fn):
        """per_step_optimal_cost, counting the model outputs it evaluates."""
        wrapped = self.leaf(fn, "analysis.per_step_optimal_cost", "analysis")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = self.calls["models.output"]
            try:
                return wrapped(*args, **kwargs)
            finally:
                self.counters["optimum_output_calls"] += (
                    self.calls["models.output"] - before)
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at each place bangride holds it.

        Call after ``bangride.cli`` is imported. Functions a later version of
        the package no longer has are skipped; their metrics read 0.
        """
        import bangride.cli  # noqa: F401  (imports every traced module)
        from bangride.controller import ControllerState
        from bangride.plant import PlantModel

        for cls in _subclasses(PlantModel) + [PlantModel]:
            for method in MODEL_METHODS:
                fn = cls.__dict__.get(method)
                if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                    setattr(cls, method, self.leaf(fn, f"models.{method}", "models"))
        for method in CONTROLLER_METHODS:
            fn = ControllerState.__dict__.get(method)
            if fn is not None:
                setattr(ControllerState, method,
                        self.leaf(fn, f"controller.{method}", "controller"))

        hooks = {
            "solve_constraint": self._after_solve,
            "selector": self._after_selector,
            "run_closed_loop": self._steps_hook("steps.closed_loop"),
            "oracle_trajectory": self._steps_hook("steps.oracle"),
            "replay_open_loop": self._steps_hook("steps.replay"),
            "robustness_study": self._after_robustness,
            "emit_svg": self._file_hook("svg"),
            **{f: self._file_hook("csvio") for _, f, layer, _ in FUNCTIONS
               if layer == "csvio"},
        }
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "bangride" or key.startswith("bangride.")]
        for mod_name, func, layer, span in FUNCTIONS:
            module = sys.modules.get(f"bangride.{mod_name}")
            original = getattr(module, func, None)
            if original is None:
                continue
            name = f"{mod_name}.{func}"
            if func == "per_step_optimal_cost":
                wrapper = self._optimum(original)
            elif not span and func not in hooks:
                wrapper = self.leaf(original, name, layer)
            else:
                wrapper = self.coarse(original, name, layer, span, hooks.get(func))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def raw(self) -> dict:
        """Aggregates as plain JSON-ready data, file sizes included."""
        files = {}
        for kind, paths in self.files.items():
            rows = size = 0
            for path in paths:
                data = Path(path).read_bytes()
                size += len(data)
                rows += max(data.count(b"\n") - 1, 0)   # minus the header
            files[kind] = {"rows": rows, "bytes": size}
        layer_self = defaultdict(float)
        for name, value in self.self_time.items():
            layer_self[self.layer_of[name]] += value
        return {"calls": dict(self.calls), "inclusive": dict(self.inclusive),
                "self": dict(self.self_time), "layer_self": dict(layer_self),
                "counters": dict(self.counters), "files": files,
                "spans": self.spans}


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


# -- per-layer metrics -----------------------------------------------------

# name: (unit, better, count metric that must repeat exactly)
PER_LAYER = {
    "models.output_calls": ("count", "lower", True),
    "models.output_calls_per_step": ("calls/step", "lower", True),
    "models.outputs_calls": ("count", "lower", True),
    "models.step_calls": ("count", "lower", True),
    "models.self_s": ("s", "lower", False),
    "models.us_per_output_call": ("us/call", "lower", False),
    "oracle.selector_calls": ("count", "lower", True),
    "oracle.solve_calls": ("count", "lower", True),
    "oracle.selector_skip_frac": ("frac", "higher", True),
    "oracle.bisect_iters_mean": ("iters", "lower", True),
    "oracle.bisect_iters_max": ("iters", "lower", True),
    "oracle.self_s": ("s", "lower", False),
    "oracle.us_per_step": ("us/step", "lower", False),
    "controller.self_s": ("s", "lower", False),
    "controller.us_per_step": ("us/step", "lower", False),
    "plant.loop_self_s": ("s", "lower", False),
    "plant.closed_loop_us_per_step": ("us/step", "lower", False),
    "plant.replay_us_per_step": ("us/step", "lower", False),
    "plant.divergences": ("count", "lower", True),
    "analysis.optimum_calls": ("count", "lower", True),
    "analysis.optimum_output_calls_per_call": ("calls/call", "lower", True),
    "analysis.optimum_self_s": ("s", "lower", False),
    "analysis.ct_series_s": ("s", "lower", False),
    "analysis.regret_fit_s": ("s", "lower", False),
    "analysis.robustness_self_s": ("s", "lower", False),
    "analysis.models_diverged": ("count", "lower", True),
    "csvio.rows": ("count", "lower", True),
    "csvio.bytes": ("B", "lower", True),
    "csvio.s": ("s", "lower", False),
    "csvio.us_per_row": ("us/row", "lower", False),
    "svg.s": ("s", "lower", False),
    "svg.bytes": ("B", "lower", True),
    "config.load_s": ("s", "lower", False),
    "config.build_s": ("s", "lower", False),
    "cli.import_s": ("s", "lower", False),
    "cli.self_s": ("s", "lower", False),
    "trace.overhead_frac": ("frac", "lower", False),
    "trace.unaccounted_frac": ("frac", "lower", False),
}


def count_mismatches(per_run: list[dict[str, float]]) -> list[str]:
    """Count metrics that differ between traced runs of the same code."""
    out = []
    for name, (_, _, is_count) in PER_LAYER.items():
        values = sorted({m[name] for m in per_run})
        if is_count and len(values) > 1:
            out.append(f"count {name} differs between traced runs: {values}")
    return out


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(child: dict, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced child run.

    ``child`` is the child's report: set-up timers, traced command wall and
    ``raw`` aggregates; ``untraced_wall`` is the median command time of the
    untraced runs of the same invocation.
    """
    raw = child["trace"]
    calls, incl, self_t = raw["calls"], raw["inclusive"], raw["self"]
    layer_self, counters, files = raw["layer_self"], raw["counters"], raw["files"]
    c = lambda key: calls.get(key, 0)              # noqa: E731
    n = lambda key: counters.get(key, 0.0)         # noqa: E731
    wall = child["wall_s"]
    solves = c("oracle.solve_constraint")
    csv_rows = files.get("csvio", {}).get("rows", 0)
    csv_s = sum(v for k, v in incl.items() if k.startswith("csvio."))
    accounted = sum(v for k, v in self_t.items() if k != "cli.main")
    return {
        "models.output_calls": c("models.output"),
        "models.output_calls_per_step": _ratio(c("models.output"), c("models.step")),
        "models.outputs_calls": c("models.outputs"),
        "models.step_calls": c("models.step"),
        "models.self_s": layer_self.get("models", 0.0),
        "models.us_per_output_call": _ratio(incl.get("models.output", 0.0),
                                            c("models.output"), 1e6),
        "oracle.selector_calls": c("oracle.selector"),
        "oracle.solve_calls": solves,
        "oracle.selector_skip_frac": (1.0 - _ratio(solves, n("selector_candidates"))
                                      if n("selector_candidates") else 0.0),
        "oracle.bisect_iters_mean": _ratio(n("bisect_iters"), solves),
        "oracle.bisect_iters_max": n("bisect_iters_max"),
        "oracle.self_s": layer_self.get("oracle", 0.0),
        "oracle.us_per_step": _ratio(incl.get("oracle.oracle_trajectory", 0.0),
                                     n("steps.oracle"), 1e6),
        "controller.self_s": layer_self.get("controller", 0.0),
        "controller.us_per_step": _ratio(layer_self.get("controller", 0.0),
                                         c("controller.control"), 1e6),
        "plant.loop_self_s": layer_self.get("plant", 0.0),
        "plant.closed_loop_us_per_step": _ratio(incl.get("plant.run_closed_loop", 0.0),
                                                n("steps.closed_loop"), 1e6),
        "plant.replay_us_per_step": _ratio(incl.get("plant.replay_open_loop", 0.0),
                                           n("steps.replay"), 1e6),
        "plant.divergences": n("divergences"),
        "analysis.optimum_calls": c("analysis.per_step_optimal_cost"),
        "analysis.optimum_output_calls_per_call": _ratio(
            n("optimum_output_calls"), c("analysis.per_step_optimal_cost")),
        "analysis.optimum_self_s": (self_t.get("analysis.per_step_optimal_cost", 0.0)
                                    + self_t.get("analysis.attach_per_step_optima", 0.0)),
        "analysis.ct_series_s": incl.get("analysis.ct_series", 0.0),
        "analysis.regret_fit_s": incl.get("analysis.regret", 0.0),
        "analysis.robustness_self_s": self_t.get("analysis.robustness_study", 0.0),
        "analysis.models_diverged": n("models_diverged"),
        "csvio.rows": csv_rows,
        "csvio.bytes": files.get("csvio", {}).get("bytes", 0),
        "csvio.s": csv_s,
        "csvio.us_per_row": _ratio(csv_s, csv_rows, 1e6),
        "svg.s": incl.get("svg.emit_svg", 0.0),
        "svg.bytes": files.get("svg", {}).get("bytes", 0),
        "config.load_s": child["load_s"],
        "config.build_s": child["build_s"],
        "cli.import_s": child["import_s"],
        "cli.self_s": self_t.get("cli.main", 0.0),
        "trace.overhead_frac": _ratio(wall, untraced_wall) - 1.0 if untraced_wall else 0.0,
        "trace.unaccounted_frac": 1.0 - _ratio(accounted, wall),
    }
