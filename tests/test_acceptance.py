"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
passing runs).  The checks exercise the full stack at desk scale: exact
nonlinearity identities, the scalar comparison oracle, linear modal decay,
conservation and dissipation structure, cross-scheme agreement, the
reference sliding experiment with a measured drift constant, gain
escalation, continuous-dependence ratios and the regularization sweep.
"""

import time

import numpy as np
import pytest

from chsmc import analysis, potentials as pot, smc, solver
from chsmc.errors import MeanError
from chsmc.grid import Grid

from conftest import zero_potential, neumann_problem, dirichlet_problem


def _verdict(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}{tail}"
    print(line)
    assert ok, line


# -- 1: nonlinearity layer ---------------------------------------------------


def test_criterion_1_resolvent_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    specs = [(pot.regular(), 10.0), (pot.logarithmic(1.5), 2.0),
             (pot.double_obstacle(0.5), 3.0)]
    eps_values = np.logspace(-6, 0, 4)
    worst = 0.0
    worst_defining = 0.0
    n_triples = 0
    for spec, span in specs:
        for eps in eps_values:
            r = rng.uniform(-span, span, size=834)
            n_triples += r.size
            J = pot.resolvent(spec, eps, r)
            be = pot.beta_eps(spec, eps, r)
            err = np.abs(r - (J + eps * be)) / (1.0 + np.abs(r))
            worst = max(worst, float(np.max(err)))
            if spec.kind != "obstacle":
                # defining equation J + eps*beta(J) = r, checked against
                # the exact monotone map.  Points whose resolvent sits
                # within rounding distance of a domain endpoint are
                # excluded (beta cannot be evaluated there in floating
                # point) and the residual is measured relative to the
                # local stiffness 1 + eps*beta'(J).
                interior = (J - spec.lo > 1e-9) & (spec.hi - J > 1e-9)
                Ji, ri = J[interior], r[interior]
                stiff = 1.0 + eps * pot._beta0_prime(spec, Ji)
                err2 = np.abs(Ji + eps * pot.beta0(spec, Ji) - ri) \
                    / (stiff * (1.0 + np.abs(ri)))
                worst_defining = max(worst_defining, float(np.max(err2)))
    # obstacle: closed-form projection vs the generic iterative path
    spec = pot.double_obstacle(0.5)
    r = rng.uniform(-3.0, 3.0, size=2000)
    exact_match = all(
        np.array_equal(pot.resolvent(spec, eps, r),
                       pot._resolvent_generic(spec, eps, r))
        for eps in eps_values)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and worst_defining <= 1e-11 and exact_match \
        and n_triples >= 10_000 and elapsed < 1.0
    _verdict(1, "resolvent identity over sampled triples", ok,
             f"worst rel err {worst:.2e}, defining-eq residual "
             f"{worst_defining:.2e}, {n_triples} triples, {elapsed:.2f}s")


# -- 2: comparison-ODE oracle --------------------------------------------------


def test_criterion_2_ode_oracle():
    t0 = time.perf_counter()
    # (a) zero start against the exponential closed form
    eps, M, rho, tau = 1e-2, 1.0, 5.0, 1.0
    times, w = smc.ode_weps_integrate(eps, M, rho, tau, 0.0, 1e-5, 0.05)
    exact = smc.ode_weps_closed_form_zero(eps, M, rho, tau, times)
    err_zero = float(np.max(np.abs(w - exact)))
    # (b) affine branch slope before the regularization layer
    eps, w0 = 1e-3, 1.0
    times, w = smc.ode_weps_integrate(eps, M, rho, tau, w0, 1e-3, 0.1)
    mask = w > 10 * eps
    slopes = np.diff(w[mask]) / np.diff(times[mask])
    err_slope = float(np.max(np.abs(slopes - (M - rho) / tau)))
    # (c) sup-distance to the limit solution shrinks with eps
    dists = []
    for e in (1e-1, 1e-2, 1e-3):
        times, w = smc.ode_weps_integrate(e, M, rho, tau, w0, 1e-3, 1.0)
        lim = smc.ode_w_closed_form(w0, M, rho, tau, times)
        dists.append(float(np.max(np.abs(w - lim))))
    monotone = dists[0] > dists[1] > dists[2]
    elapsed = time.perf_counter() - t0
    ok = err_zero <= 1e-8 and err_slope <= 1e-6 and monotone \
        and elapsed < 5.0
    _verdict(2, "comparison-ODE oracle", ok,
             f"zero-start err {err_zero:.2e}, slope err {err_slope:.2e}, "
             f"eps-distances {['%.3e' % d for d in dists]}, {elapsed:.2f}s")


# -- 3: linear modal decay -------------------------------------------------------


def test_criterion_3_linear_modal_decay():
    t0 = time.perf_counter()
    grid = Grid(shape=(128,), lengths=(1.0,))
    x = grid.meshgrid()[0]
    k, tau, a0 = 2, 1.0, 0.25
    lam = grid.axis_eigenvalues_neumann(0)[k]
    mode = np.cos(np.pi * k * x)
    rate_exact = lam**2 / (1.0 + tau * lam)

    def amplitude_history(dt, T):
        data = neumann_problem(grid, zero_potential(), a0 * mode, tau=tau)
        cfg = solver.SolverConfig(eps=1e-2, dt=dt, T=T,
                                  scheme="coupled_neumann",
                                  output_times=[T])
        traj = solver.run(data, cfg)
        return traj.snapshots[-1].phi

    # per-step recursion over 10 steps
    dt = 1e-3
    phi = amplitude_history(dt, 10 * dt)
    factor = 1.0 / (1.0 + dt * lam**2 / (1.0 + tau * lam))
    err_rec = float(np.max(np.abs(phi - a0 * factor**10 * mode)))

    # extrapolated decay rate from two step sizes
    T = 0.1
    rates = []
    for dt in (1e-3, 5e-4):
        phi = amplitude_history(dt, T)
        aT = grid.inner(phi, mode) / grid.inner(mode, mode)
        rates.append(-np.log(aT / a0) / T)
    rate_extrap = 2.0 * rates[1] - rates[0]
    rel = abs(rate_extrap - rate_exact) / rate_exact
    elapsed = time.perf_counter() - t0
    ok = err_rec <= 1e-10 and rel <= 0.01 and elapsed < 5.0
    _verdict(3, "linear modal decay", ok,
             f"recursion err {err_rec:.2e}, extrapolated-rate rel err "
             f"{rel:.2e}, {elapsed:.2f}s")


# -- 4: mass conservation ----------------------------------------------------------


def test_criterion_4_mass_conservation():
    t0 = time.perf_counter()
    grid = Grid(shape=(64,), lengths=(1.0,))
    x = grid.meshgrid()[0]
    cases = [
        (pot.regular(), 0.1 + 0.5 * np.cos(np.pi * x), 0.0),
        (pot.logarithmic(1.5), 0.5 * np.cos(np.pi * x), 0.0),
        (pot.double_obstacle(0.5), 0.8 * np.cos(np.pi * x), 1.0),
    ]
    drifts = []
    ok = True
    for spec, phi0, rho in cases:
        data = neumann_problem(grid, spec, phi0, rho=rho, eps=1e-2)
        cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.05,
                                  scheme="coupled_neumann")
        report = analysis.check_mass_conservation(solver.run(data, cfg))
        drifts.append(report.max_drift)
        ok = ok and report.passed
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _verdict(4, "mass conservation for all potentials", ok,
             f"max drifts {['%.2e' % d for d in drifts]}, {elapsed:.1f}s")


# -- 5: cross-solver agreement --------------------------------------------------------


def test_criterion_5_cross_solver_agreement():
    t0 = time.perf_counter()

    def l2q_difference(n):
        grid = Grid(shape=(n,), lengths=(1.0,))
        x = grid.meshgrid()[0]
        phi0 = 0.1 + 0.3 * np.cos(np.pi * x)
        outputs = list(np.linspace(0.0, 0.05, 11))
        cfg_fd = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.05,
                                     scheme="coupled_neumann",
                                     output_times=outputs)
        cfg_sp = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.05,
                                     scheme="galerkin_neumann",
                                     n_modes=n // 2, output_times=outputs)
        t1 = solver.run(neumann_problem(grid, pot.regular(), phi0), cfg_fd)
        t2 = solver.run(neumann_problem(grid, pot.regular(), phi0), cfg_sp)
        acc = 0.0
        for k in range(1, len(t1.snapshots)):
            d = t1.snapshots[k].phi - t2.snapshots[k].phi
            acc += grid.l2_norm(d) ** 2 \
                * (t1.snapshots[k].t - t1.snapshots[k - 1].t)
        return float(np.sqrt(acc))

    # Both schemes share the discrete eigenvalues and the grid, and the
    # Galerkin truncation error lies below roundoff even at n/8 modes, so
    # the difference measures how exactly the two Newton solves converge.
    # An ordering between two numbers at that floor cannot be resolved;
    # agreement to far below the discretization error can.
    d64 = l2q_difference(64)
    d128 = l2q_difference(128)
    elapsed = time.perf_counter() - t0
    ok = max(d64, d128) <= 1e-12 and elapsed < 30.0
    _verdict(5, "cross-solver agreement", ok,
             f"L2(Q) diff {d64:.2e} at 64 cells, {d128:.2e} at 128, "
             f"{elapsed:.1f}s")


# -- 6: energy decay ----------------------------------------------------------------


def test_criterion_6_energy_decay():
    t0 = time.perf_counter()
    grid = Grid(shape=(64,), lengths=(1.0,))
    x = grid.meshgrid()[0]
    worst = -np.inf
    ok = True
    for spec, phi0 in [(pot.regular(), 0.8 * np.cos(np.pi * x)),
                       (pot.double_obstacle(0.5), 0.9 * np.cos(np.pi * x))]:
        data = neumann_problem(grid, spec, phi0, eps=1e-2)
        cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.0,
                                  scheme="coupled_neumann")
        state = solver._initial_snapshot(data, cfg)
        for _ in range(100):
            new = solver.step_coupled_neumann(state, data, cfg)
            e_old = pot.free_energy(grid, state.phi, spec, eps=cfg.eps,
                                    gradient="faces")
            e_new = pot.free_energy(grid, new.phi, spec, eps=cfg.eps,
                                    gradient="faces")
            diss = (data.tau / cfg.dt
                    * grid.l2_norm(new.phi - state.phi) ** 2
                    + cfg.dt * grid.gradient_energy(new.mu, scheme="faces"))
            gap = e_new + diss - e_old
            worst = max(worst, gap)
            ok = ok and gap <= 10 * solver.NEWTON_TOL
            state = new
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 20.0
    _verdict(6, "energy decay with cumulative dissipation", ok,
             f"worst step gap {worst:.2e}, {elapsed:.1f}s")


# -- 7 and 8: sliding experiment --------------------------------------------------------


L_SLIDE = 0.5
N_SLIDE = 128
EPS_SLIDE = 1e-3
TAU_SLIDE = 1.0
T_SLIDE = 1.0
DT0_SLIDE = 2e-4


def _sliding_data(rho):
    grid = Grid(shape=(N_SLIDE,), lengths=(L_SLIDE,))
    x = grid.meshgrid()[0]
    phi0 = 0.2 + 0.5 * np.cos(np.pi * x / L_SLIDE)
    return dirichlet_problem(grid, pot.regular(), phi0, rho=rho,
                             eps=EPS_SLIDE, tau=TAU_SLIDE,
                             phistar=lambda X, t: np.full_like(X[0], 0.2))


def _sliding_cfg(rho, T_run):
    dt = DT0_SLIDE
    if rho > 0:
        dt = min(dt, 0.3 * EPS_SLIDE * TAU_SLIDE / rho)
    return solver.SolverConfig(eps=EPS_SLIDE, dt=dt, T=T_run,
                               scheme="eliminated_dirichlet",
                               output_times=list(np.linspace(0.0, T_run,
                                                             21)))


@pytest.fixture(scope="module")
def sliding_experiment():
    calib = solver.run(_sliding_data(0.0), _sliding_cfg(0.0, T_SLIDE))
    data0 = _sliding_data(0.0)
    M_meas = analysis.measure_comparison_drift(calib, data0)
    w0 = 0.5
    rho = 2.0 * (M_meas + TAU_SLIDE * w0 / T_SLIDE)
    data = _sliding_data(rho)
    cfg = _sliding_cfg(rho, T_SLIDE)
    traj = solver.run(data, cfg)
    tol_slide = analysis.default_tol_slide(EPS_SLIDE, M_meas, rho)
    t_obs = analysis.detect_sliding(traj, tol_slide)
    comparison = analysis.check_comparison_bound(traj, w0, M_meas, rho,
                                                 TAU_SLIDE)
    return dict(calib=calib, M_meas=M_meas, w0=w0, rho=rho, traj=traj,
                tol_slide=tol_slide, t_obs=t_obs, comparison=comparison)


def test_criterion_7_sliding_mode(sliding_experiment):
    t0 = time.perf_counter()
    s = sliding_experiment
    bound = smc.sliding_time(s["w0"], s["M_meas"], s["rho"], TAU_SLIDE)
    achieved = s["t_obs"] is not None and s["t_obs"] <= T_SLIDE
    within_bound = achieved and s["t_obs"] <= 1.1 * bound
    # ablation: the calibration run (gain zero) does not slide at the
    # same tolerance
    t_obs_off = analysis.detect_sliding(s["calib"], s["tol_slide"])
    ablation_fails = t_obs_off is None or t_obs_off > 0.9 * T_SLIDE
    elapsed = time.perf_counter() - t0
    ok = achieved and within_bound and s["comparison"].passed \
        and ablation_fails
    _verdict(7, "reference sliding experiment", ok,
             f"rho {s['rho']:.3f}, M_meas {s['M_meas']:.3f}, "
             f"T*_obs {s['t_obs']}, bound {bound:.3f}, comparison margin "
             f"{s['comparison'].worst_margin:.2e} <= "
             f"{s['comparison'].tol_cmp:.2e}, {elapsed:.1f}s")


def test_criterion_8_sliding_time_shrinks_with_gain(sliding_experiment):
    t0 = time.perf_counter()
    s = sliding_experiment
    T_run = 0.3
    interval = T_SLIDE / 20.0  # one output interval of the reference run
    observed = [s["t_obs"]]
    for mult in (2.0, 4.0, 8.0):
        rho = mult * s["rho"]
        traj = solver.run(_sliding_data(rho), _sliding_cfg(rho, T_run))
        observed.append(analysis.detect_sliding(traj, s["tol_slide"]))
    ok = all(t is not None for t in observed)
    if ok:
        ok = all(observed[k + 1] <= observed[k] + interval
                 for k in range(len(observed) - 1))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _verdict(8, "sliding time nonincreasing in the gain", ok,
             f"T*_obs for rho x (1,2,4,8) = {observed}, {elapsed:.1f}s")


# -- 9: continuous dependence ------------------------------------------------------------


def _contdep_base():
    grid = Grid(shape=(64,), lengths=(1.0,))
    x = grid.meshgrid()[0]
    phi0 = 0.1 + 0.3 * np.cos(np.pi * x)
    data = neumann_problem(grid, pot.regular(), phi0, rho=1.0, eps=1e-2)
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.1,
                              scheme="coupled_neumann",
                              output_times=list(np.linspace(0.0, 0.1, 11)))
    return data, cfg


def test_criterion_9_continuous_dependence():
    t0 = time.perf_counter()
    data, cfg = _contdep_base()
    shape = lambda X, t: np.cos(np.pi * X[0])
    deltas = [1e-1, 1e-2, 1e-3, 1e-4]

    g_report = analysis.contdep_experiment(data, cfg, "g", shape, deltas)
    g_ok = g_report.ratio_spread < 3.0

    star_report = analysis.contdep_experiment(data, cfg, "phistar", shape,
                                              deltas)
    # single constant fitted on the coarsest perturbation bounds the sweep
    C = star_report.rows[0].ratio
    star_ok = all(row.lhs <= 1.05 * C * row.rhs for row in star_report.rows)

    try:
        analysis.contdep_experiment(data, cfg, "phi0",
                                    lambda X, t: np.ones_like(X[0]), [1e-2])
        rejected = False
    except MeanError:
        rejected = True
    mean_free = analysis.contdep_experiment(data, cfg, "phi0", shape,
                                            [1e-2])
    elapsed = time.perf_counter() - t0
    ok = g_ok and star_ok and rejected and len(mean_free.rows) == 1 \
        and elapsed < 120.0
    _verdict(9, "continuous dependence ratios", ok,
             f"g spread {g_report.ratio_spread:.2f}, target-sweep constant "
             f"{C:.3f}, non-mean-free rejected {rejected}, {elapsed:.1f}s")


# -- 10: regularization sweep ---------------------------------------------------------------


def test_criterion_10_yosida_convergence():
    t0 = time.perf_counter()
    eps_list = [1e-1, 1e-2, 1e-3]

    data, cfg = _contdep_base()
    rows = analysis.yosida_convergence_study(data, cfg, eps_list)
    distances = [r.distance for r in rows]
    cauchy = all(distances[k + 1] < distances[k]
                 for k in range(len(distances) - 1))

    # constrained potential: excursion beyond the admissible interval
    # under a boundary drive shrinks with the regularization level
    grid = Grid(shape=(64,), lengths=(1.0,))
    # a negative boundary value for the potential drives phi upward
    # against the obstacle at +1
    obst = dirichlet_problem(grid, pot.double_obstacle(0.5),
                             np.full(grid.shape, 0.5),
                             datum=lambda x, t: -2.0)
    ocfg = solver.SolverConfig(eps=1e-1, dt=1e-3, T=0.4,
                               scheme="eliminated_dirichlet",
                               output_times=list(np.linspace(0.0, 0.4, 11)))
    orows = analysis.yosida_convergence_study(obst, ocfg, eps_list)
    overshoots = [orows[0].overshoot_coarse] + \
        [r.overshoot_fine for r in orows]
    over_ok = overshoots[0] > 0.0 and all(
        overshoots[k + 1] < overshoots[k] for k in range(len(overshoots) - 1))
    elapsed = time.perf_counter() - t0
    ok = cauchy and over_ok and elapsed < 120.0
    _verdict(10, "regularization-sweep convergence", ok,
             f"pairwise distances {['%.3e' % d for d in distances]}, "
             f"overshoots {['%.3e' % o for o in overshoots]}, "
             f"{elapsed:.1f}s")
