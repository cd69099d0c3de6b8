"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. Structural checks are metric-based where index chatter at a
constraint handoff is physically unavoidable; every operationalization is
spelled out next to its check.
"""

import time

import numpy as np

from bangride import (ConstraintSpec, RootConfig, oracle_trajectory,
                      run_closed_loop, selector, step_size)
from bangride.analysis import attach_per_step_optima, regret, robustness_study
from bangride.config import load_ecm_params, params_path
from bangride.models import PackParams, PackPlant, ToyLinearPlant
from gradient_check import gradient_sign_check
from pack_labels import constraint_label


def _report(cid: str, ok: bool, detail: str):
    print(f"\n[ACCEPT] {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{cid}: {detail}"


def _runs_of(iseq):
    runs = []
    start = 0
    for t in range(1, len(iseq) + 1):
        if t == len(iseq) or iseq[t] != iseq[start]:
            runs.append((int(iseq[start]), start, t - 1))
            start = t
    return runs


def test_c1_spmet_bang_ride_structure(scenarios, free_runs):
    """C1: two phases, CC within 1% of 56.3739 A then CV within 5 mV.

    Operationalized on the measured u/V signals: the run must enter the 1%
    current band within 100 bootstrap steps, hold it until a single departure
    (the CC->CV switch, no band re-entry afterwards), and hold the voltage
    within 5 mV from 50 steps after the switch. Runtime bound 5 s.
    """
    built = scenarios["spmet"]
    traj, elapsed = free_runs["spmet"]
    u_max, v_max = built.spec.y_bar
    u = traj.u
    v = traj.y[:, 1]
    in_band = np.abs(u - u_max) <= 0.01 * u_max
    assert in_band.any(), "never reached the CC band"
    t_cc = int(np.nonzero(in_band)[0][0])
    t_sw = None
    for d in np.nonzero(~in_band[t_cc:])[0]:
        cand = t_cc + int(d)
        if not in_band[cand:].any():
            t_sw = cand
            break
    ok = (t_sw is not None and t_cc <= 100
          and bool(in_band[t_cc:t_sw].all())
          and t_sw + 50 < len(v)
          and float(np.abs(v[t_sw + 50:] - v_max).max()) <= 5e-3
          and elapsed <= 5.0)
    cv_dev = float(np.abs(v[t_sw + 50:] - v_max).max()) if t_sw else float("nan")
    _report("C1 spmet bang-ride structure", ok,
            f"t_cc={t_cc} t_sw={t_sw} cv_dev={cv_dev * 1e3:.2f}mV "
            f"runtime={elapsed:.2f}s")


def test_c2_ecm_switching_sequence(free_runs, oracle_runs):
    """C2: active-index sequence 1 -> 2 -> 3 -> 2.

    The oracle sequence must be exactly four blocks. For the model-free run,
    blocks of at least 10 steps define the phases (argmin chatter where two
    constraint errors cross is sub-visual in u and V); chatter may total at
    most 100 steps.
    """
    oracle_phases = oracle_runs["ecm"].phases()
    traj, _ = free_runs["ecm"]
    runs = _runs_of(traj.i_star)
    dominant = []
    chatter = 0
    for value, start, end in runs:
        if end - start + 1 >= 10:
            if not dominant or dominant[-1] != value:
                dominant.append(value)
        else:
            chatter += end - start + 1
    ok = (oracle_phases == [1, 2, 3, 2] and dominant == [1, 2, 3, 2]
          and chatter <= 100)
    _report("C2 ecm switching sequence", ok,
            f"oracle={oracle_phases} model-free={dominant} chatter={chatter}")


def test_c3_oracle_tracking(free_runs, oracle_runs):
    """C3: relative L2 distance between model-free and oracle currents over
    the post-transient horizon (final 90%) at most 5%."""
    free, _ = free_runs["ecm"]
    oracle = oracle_runs["ecm"]
    w = slice(len(free) // 10, len(free))
    rel = (float(np.linalg.norm(free.u[w] - oracle.u[w]))
           / float(np.linalg.norm(oracle.u[w])))
    _report("C3 oracle tracking", rel <= 0.05, f"relative L2 {rel:.4%}")


def test_c4_oracle_exactness(scenarios, oracle_runs):
    """C4: along every oracle trajectory the attained constraint is met to
    1e-6 in output units and no constraint is violated beyond 1e-6*gamma_max."""
    worst_ride, worst_feas = 0.0, 0.0
    for name in ("spmet", "ecm", "pack", "toy"):
        spec = scenarios[name].spec
        traj = oracle_runs[name]
        gamma = np.asarray(spec.gamma)
        e = traj.e
        rides = np.abs(traj.e_active) / gamma[traj.i_star - 1]
        worst_ride = max(worst_ride, float(rides.max()))
        worst_feas = max(worst_feas, float((-e).max() / gamma.max()))
    ok = worst_ride <= 1e-6 and worst_feas <= 1e-6
    _report("C4 oracle exactness", ok,
            f"max riding residual {worst_ride:.2e}, "
            f"max violation {worst_feas:.2e}")


def test_c5_gradient_correctness(scenarios, free_runs):
    """C5: on at least 1000 sampled steps, sign(g_t) agrees with the
    finite-difference derivative of the one-step cost wherever that
    derivative exceeds 1e-8, and measured c_t > 0 at every sampled step."""
    checked = agreed = 0
    ct_min = np.inf
    bad = []
    for name in ("spmet", "ecm", "toy"):
        built = scenarios[name]
        traj, _ = free_runs[name]
        res = gradient_sign_check(traj, built.model, built.spec)
        checked += res.checked
        agreed += res.agreed
        ct_min = min(ct_min, res.ct_min)
        bad.extend((name, *d) for d in res.disagreements)
    ok = checked >= 1000 and not bad and ct_min > 0.0
    _report("C5 gradient correctness", ok,
            f"checked={checked} agreed={agreed} ct_min={ct_min:.3g} "
            f"disagreements={len(bad)}")


def test_c6_regret_sublinearity(scenarios):
    """C6: toy plant, mu1 = 0.5, t_f = 1e4: tail log-log regret slope below
    0.9 (flat/converged counts) and last-10% mean per-step gap below 1e-4.
    Runtime bound 10 s for the whole empirical check."""
    built = scenarios["toy"]
    assert built.cfg.mu1 == 0.5 and built.cfg.t_f == 10000
    t0 = time.perf_counter()
    traj = run_closed_loop(built.model, built.new_controller(), built.spec,
                           built.cfg.t_f, built.x0)
    traj = attach_per_step_optima(traj, built.model, built.spec,
                                  np.array(built.cfg.theta_lo),
                                  np.array(built.cfg.theta_hi))
    report = regret(traj, built.cfg.mu1)
    elapsed = time.perf_counter() - t0
    slope_ok = report.converged or (report.tail_slope is not None
                                    and report.tail_slope < 0.9)
    gap = report.gap_tail_mean(0.1)
    ok = slope_ok and gap < 1e-4 and elapsed <= 10.0
    slope_txt = "converged" if report.converged else f"{report.tail_slope:.3f}"
    _report("C6 regret sublinearity", ok,
            f"tail slope {slope_txt}, gap tail mean {gap:.2e}, "
            f"runtime {elapsed:.2f}s")


def test_c7_step_size_projection_theta_box(scenarios, free_runs):
    """C7: exact step-size schedule, projection non-expansiveness on 1e4
    random pairs, and theta_t inside its box at every recorded step of every
    scenario."""
    sched_ok = (step_size(0, 0.5) == 1.0
                and step_size(4, 0.5) == 0.5
                and step_size(1000, 0.5) == 1000.0 ** -0.5
                and step_size(9, 0.3) == 9.0 ** -0.3)
    rng = np.random.default_rng(2024)
    lo, hi = np.array([0.0, 0.0]), np.array([10.0, 1.0])
    a = rng.uniform(-40, 40, size=(10000, 2))
    b = rng.uniform(-40, 40, size=(10000, 2))
    nonexp_ok = bool(np.all(
        np.linalg.norm(np.clip(a, lo, hi) - np.clip(b, lo, hi), axis=1)
        <= np.linalg.norm(a - b, axis=1) + 1e-12))
    box_ok = True
    for name, (traj, _) in free_runs.items():
        cfg = scenarios[name].cfg
        th = traj.theta
        box_ok = box_ok and bool(
            np.all(th >= np.array(cfg.theta_lo) - 1e-15)
            and np.all(th <= np.array(cfg.theta_hi) + 1e-15))
    ok = sched_ok and nonexp_ok and box_ok
    _report("C7 step-size and projection suite", ok,
            f"schedule={sched_ok} non-expansive={nonexp_ok} theta-in-box={box_ok}")


def test_c8_gamma_scaling_effect(scenarios):
    """C8: with the 500x temperature weight the temperature-riding error
    settles strictly faster than with identity weights (same physical
    threshold: |e_3| below 1% of gamma_3 * bound, held through the end of the
    temperature-active span)."""
    built = scenarios["ecm"]

    def settling(gamma3):
        spec = ConstraintSpec(y_bar=np.array(built.spec.y_bar),
                              gamma=np.array([1.0, 1.0, gamma3]))
        cs = built.new_controller()
        traj = run_closed_loop(built.model, cs, spec, built.cfg.t_f, built.x0)
        iseq = traj.i_star
        active = np.nonzero(iseq == 3)[0]
        if not len(active):
            return None
        t_act, t_end = int(active[0]), int(active[-1])
        below = np.abs(traj.e[:, 2]) <= 0.01 * 8.0 * gamma3
        for s in range(t_act, t_end + 1):
            if below[s:t_end + 1].all():
                return s - t_act
        return None

    s500 = settling(500.0)
    s1 = settling(1.0)
    ok = s500 is not None and s1 is not None and s500 < s1
    _report("C8 gamma scaling effect", ok,
            f"settling steps: diag(1,1,500) -> {s500}, identity -> {s1}")


def test_c9_robustness_study(scenarios):
    """C9: 200 perturbed models at 10% produce at least one constraint
    violation on the true plant; at 0% there are none. Runtime bound 60 s."""
    built = scenarios["ecm"]
    base = load_ecm_params(params_path(built.cfg, "params_ecm.cfg"))
    t0 = time.perf_counter()
    res = robustness_study(base, 200, 0.1, built.spec, built.cfg.t_f, seed=7,
                           keep_series=False)
    elapsed = time.perf_counter() - t0
    res0 = robustness_study(base, 20, 0.0, built.spec, built.cfg.t_f, seed=7,
                            keep_series=False)
    ok = (res.stats.runs_with_violation >= 1
          and res0.stats.runs_with_violation == 0
          and elapsed <= 60.0)
    _report("C9 robustness study", ok,
            f"violations 10%: {res.stats.runs_with_violation}/200, "
            f"0%: {res0.stats.runs_with_violation}/20, runtime {elapsed:.1f}s")


def test_c10_pack_constraints(scenarios, oracle_runs):
    """C10: after the temperature-difference constraint activates on the
    100-cell ideal run, the max pairwise spread stays at most 5 + 0.05 K;
    and on a 5-cell pack both pairwise modes yield identical active labels
    and currents."""
    built = scenarios["pack"]
    traj = oracle_runs["pack"]
    model = built.model
    labels = [constraint_label(model, i)[0] for i in traj.i_star]
    active = np.nonzero(np.array(labels) == "pair")[0]
    assert len(active), "pair constraint never activated"
    spread = traj.telemetry["dt_max"][int(active[0]):]
    spread_ok = float(spread.max()) <= 5.0 + 0.05

    def five_cell(mode):
        params = PackParams(base=model.params.base, n_cells=5, k_left=8e-5,
                            k_right=8e-5, dt_pair_max=5.0, pairwise_mode=mode,
                            cell_variation=0.3, variation_seed=11)
        plant = PackPlant(params)
        spec = plant.build_constraints(u_max=10.0, v_cell_max=12.0,
                                       temp_dev_max=35.0)
        run = oracle_trajectory(plant, spec, 400, plant.initial_state(),
                                RootConfig())
        return [constraint_label(plant, i) for i in run.i_star], run.u

    lab_ap, u_ap = five_cell("all-pairs")
    lab_mm, u_mm = five_cell("max-minus-min")
    equiv_ok = lab_ap == lab_mm and np.array_equal(u_ap, u_mm)
    _report("C10 pack constraints", spread_ok and equiv_ok,
            f"max spread after activation {float(spread.max()):.4f} K, "
            f"mode equivalence {equiv_ok}")


def test_c11_oracle_grid_equivalence(scenarios):
    """C11: selector output matches brute-force feasible-max grid search
    (1e4 points, within grid resolution) at every step, on the toy plant and
    a 3-cell pack."""
    tol = 1e-6
    worst = 0.0

    # toy integrator
    toy = ToyLinearPlant()
    spec = ConstraintSpec(y_bar=[10.0, 5.0], gamma=[1.0, 1.0])
    cfg = RootConfig()
    grid = np.linspace(0.0, 10.0, 10001)
    resolution = grid[1] - grid[0]
    x = toy.initial_state()
    for _ in range(200):
        res = selector(toy, x, spec, cfg)
        feasible = ((grid <= spec.y_bar[0] + tol)
                    & (float(x[0]) + grid <= spec.y_bar[1] + tol))
        u_grid = float(grid[feasible].max())
        worst = max(worst, abs(res.u - u_grid))
        x = toy.step(x, res.u)

    # 3-cell pack, all-pairs mode; grid evaluation vectorized independently
    base = scenarios["pack"].model.params.base
    params = PackParams(base=base, n_cells=3, k_left=8e-5, k_right=8e-5,
                        dt_pair_max=5.0, pairwise_mode="all-pairs",
                        cell_variation=0.3, variation_seed=11)
    pack = PackPlant(params)
    pspec = pack.build_constraints(u_max=10.0, v_cell_max=12.0, temp_dev_max=35.0)
    pcfg = RootConfig()
    kt, bt = 1.0 - base.a * base.dt, base.b * base.dt
    cl = cr = 8e-5 * base.dt
    x = pack.initial_state()
    for _ in range(150):
        res = selector(pack, x, pspec, pcfg)
        v_cells = x[:, 0] + x[:, 1] + base.ocv_slope * x[:, 2]
        td = x[:, 3]
        coup = cl * (np.roll(td, 1) - td) + cr * (np.roll(td, -1) - td)
        v_outs = v_cells[:, None] + grid[None, :]
        t_outs = (kt * td[:, None] + bt * (x[:, 0] + x[:, 1])[:, None] * grid[None, :]
                  + bt * base.r_o * grid[None, :] ** 2 + coup[:, None])
        pair_max = t_outs.max(axis=0) - t_outs.min(axis=0)
        feasible = ((grid <= 10.0 + tol)
                    & np.all(v_outs <= 12.0 + tol, axis=0)
                    & np.all(t_outs <= 35.0 + tol, axis=0)
                    & (pair_max <= 5.0 + tol))
        u_grid = float(grid[feasible].max())
        worst = max(worst, abs(res.u - u_grid))
        x = pack.step(x, res.u)
    ok = worst <= resolution
    _report("C11 oracle/grid equivalence", ok,
            f"worst |selector - grid| = {worst:.2e} "
            f"(grid resolution {resolution:.2e})")
