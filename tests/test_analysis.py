from dataclasses import replace

import numpy as np
import pytest

from chsmc import analysis, potentials as pot, solver
from chsmc.errors import ConfigError, ParamError, RegimeError
from chsmc.grid import Grid

import conftest
from conftest import (neumann_problem, dirichlet_problem,
                      yosida_convergence_study)


def synthetic_trajectory(times, sup_chi, bc_kind="dirichlet", dt=1e-3,
                         eps=1e-3, rho=0.0, tau=1.0):
    diag = solver.DiagnosticsSeries()
    for t, s in zip(times, sup_chi):
        diag.append(t=t, mean_phi=0.0, free_energy_reg=0.0, sup_chi=s,
                    sup_G_eps=float("nan"), dual_norm_dphi=0.0,
                    newton_iters=0)
    grid = Grid(shape=(4,), lengths=(1.0,))
    problem = dirichlet_problem if bc_kind == "dirichlet" else neumann_problem
    data = problem(grid, pot.regular(), grid.zeros(), rho=rho, eps=eps,
                   tau=tau)
    cfg = solver.SolverConfig(eps=eps, dt=dt, T=times[-1],
                              scheme="eliminated_dirichlet")
    return solver.Trajectory(snapshots=[], diagnostics=diag, data=data,
                             cfg=cfg)


# -- mass conservation -------------------------------------------------------


def test_mass_check_requires_zero_flux_regime():
    traj = synthetic_trajectory([0.0, 1.0], [0.0, 0.0])
    with pytest.raises(RegimeError):
        analysis.check_mass_conservation(traj)


def test_mass_check_on_real_run():
    grid = Grid(shape=(32,), lengths=(1.0,))
    x = grid.meshgrid()[0]
    phi0 = 0.2 + 0.4 * np.cos(np.pi * x)
    data = neumann_problem(grid, pot.regular(), phi0)
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.02,
                              scheme="coupled_neumann")
    report = analysis.check_mass_conservation(solver.run(data, cfg))
    assert report.passed
    assert report.max_drift <= report.tolerance


# -- sliding detection ---------------------------------------------------------


def test_detect_sliding_cases():
    times = [0.0, 0.1, 0.2, 0.3, 0.4]
    # decays below the tolerance at t = 0.2 and stays there
    traj = synthetic_trajectory(times, [1.0, 0.5, 0.01, 0.005, 0.004])
    assert analysis.detect_sliding(traj, tol_slide=0.02) == pytest.approx(0.2)
    # never reaches the band
    traj = synthetic_trajectory(times, [1.0, 0.9, 0.8, 0.7, 0.6])
    assert analysis.detect_sliding(traj, tol_slide=0.02) is None
    # dips in but escapes again: not sliding
    traj = synthetic_trajectory(times, [1.0, 0.01, 0.5, 0.01, 0.5])
    assert analysis.detect_sliding(traj, tol_slide=0.02) is None
    # starts inside and stays: sliding from the initial time
    traj = synthetic_trajectory(times, [0.01, 0.095, 0.01, 0.005, 0.004])
    assert analysis.detect_sliding(traj, tol_slide=0.1) == 0.0


def test_default_tol_slide():
    assert analysis.default_tol_slide(1e-3, 2.0, 4.0) == pytest.approx(
        10.0 * 1e-3 * 1.5)


# -- comparison bound -----------------------------------------------------------


def test_comparison_bound_requires_dominating_gain():
    traj = synthetic_trajectory([0.0, 0.1], [1.0, 0.9], rho=1.0)
    with pytest.raises(ParamError):
        analysis.check_comparison_bound(traj, M_meas=2.0)


def test_comparison_bound_requires_dirichlet_regime():
    traj = synthetic_trajectory([0.0, 0.1], [1.0, 0.9], bc_kind="neumann",
                                rho=2.0)
    with pytest.raises(RegimeError):
        analysis.check_comparison_bound(traj, M_meas=0.5)


def test_comparison_bound_pass_and_fail():
    times = np.linspace(0.0, 1.0, 11)
    w0, M, rho, tau = 1.0, 1.0, 3.0, 1.0
    w = np.maximum(w0 - (rho - M) * times, 0.0)
    # each case starts at the w0 it is checked against, its own first
    # sup|chi|: one decays at the comparison rate, one not at all
    ok = synthetic_trajectory(times, [w0] + list(w[1:] * 0.99), rho=rho,
                              tau=tau)
    rep = analysis.check_comparison_bound(ok, M)
    assert rep.passed
    bad = synthetic_trajectory(times, [w0] * len(times), rho=rho, tau=tau)
    rep = analysis.check_comparison_bound(bad, M)
    assert not rep.passed
    assert rep.worst_margin == pytest.approx(1.0)
    assert rep.tol_cmp == 5.0 * (bad.cfg.dt + bad.cfg.eps)


@pytest.mark.parametrize("rho,tau,margin", [
    (2.0, 1.0, 0.4), (3.0, 1.0, 0.8), (3.0, 2.0, 0.4)])
def test_comparison_bound_reads_rho_and_tau_from_the_run(rho, tau, margin):
    """The same diagnostics under another gain or tau give another margin:
    w(t) = (1 - (rho - M) t / tau)^+ against a sup|chi| that stays 1."""
    times = np.linspace(0.0, 0.4, 5)
    traj = synthetic_trajectory(times, [1.0] * 5, rho=rho, tau=tau)
    rep = analysis.check_comparison_bound(traj, M_meas=1.0)
    assert rep.worst_margin == pytest.approx(margin)


def test_measure_drift_requires_diagnostics():
    traj = synthetic_trajectory([0.0, 0.1], [1.0, 0.9])
    with pytest.raises(ConfigError, match="no drift diagnostics"):
        analysis.measure_comparison_drift(traj)


def test_measure_drift_on_real_run():
    grid = Grid(shape=(32,), lengths=(1.0,))
    x = grid.meshgrid()[0]
    phi0 = 0.3 * np.cos(np.pi * x)
    data = dirichlet_problem(grid, pot.regular(), phi0)
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.01,
                              scheme="eliminated_dirichlet")
    traj = solver.run(data, cfg)
    M = analysis.measure_comparison_drift(traj)
    # for the constant-zero target the drift is sup|mu - pi(phi)| >= 0
    assert np.isfinite(M)
    assert M > 0.0


def test_measure_drift_rejects_a_run_that_kept_no_snapshots():
    """beta* = sup|beta0(phistar)| is sampled over the snapshots, and a
    run given on_output keeps none: without them the drift would drop
    beta0(0.8) = 2.197 of the logarithmic potential."""
    grid = Grid(shape=(32,), lengths=(1.0,))
    x = grid.meshgrid()[0]
    spec = pot.logarithmic(2.0)
    data = dirichlet_problem(grid, spec, 0.3 * np.cos(np.pi * x),
                             phistar=lambda X, t: np.full_like(X[0], 0.8))
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.01,
                              scheme="eliminated_dirichlet")
    kept = solver.run(data, cfg)
    betastar = float(pot.beta0(spec, np.array(0.8)))
    assert analysis.measure_comparison_drift(kept) == pytest.approx(
        np.nanmax(kept.diagnostics.sup_G_eps) + betastar, rel=1e-15)
    hooked = solver.run(data, cfg, on_output=lambda snap: None)
    assert hooked.snapshots == []
    with pytest.raises(ParamError, match="kept no snapshots"):
        analysis.measure_comparison_drift(hooked)


# -- continuous dependence ---------------------------------------------------


def contdep_setup():
    grid = Grid(shape=(32,), lengths=(1.0,))
    x = grid.meshgrid()[0]
    phi0 = 0.1 + 0.3 * np.cos(np.pi * x)
    data = neumann_problem(grid, pot.regular(), phi0)
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.02,
                              scheme="coupled_neumann",
                              output_times=list(np.linspace(0.0, 0.02, 5)))
    return data, cfg


def test_contdep_zero_perturbation_gives_zero_distance():
    data, cfg = contdep_setup()
    shape = lambda X, t: np.cos(np.pi * X[0])
    report = analysis.contdep_experiment(data, cfg, "g", shape, [0.0])
    assert report.rows[0].lhs == 0.0
    assert report.rows[0].ratio == 0.0


def test_contdep_rejects_unknown_target():
    data, cfg = contdep_setup()
    with pytest.raises(ValueError):
        analysis.contdep_experiment(data, cfg, "tau", lambda X, t: X[0], [0.1])


def test_contdep_rejects_non_mean_free_phi0():
    data, cfg = contdep_setup()
    shape = lambda X, t: np.ones_like(X[0])
    with pytest.raises(ConfigError, match="must be mean-free"):
        analysis.contdep_experiment(data, cfg, "phi0", shape, [0.1])


@pytest.mark.parametrize("output_times,T", [([0.0], 0.02), (None, 0.0)])
def test_contdep_without_an_output_time_after_0_runs_nothing(monkeypatch,
                                                             output_times, T):
    """With no output time after t = 0 there is nothing to compare: a
    ParamError before the base run."""
    data, cfg = contdep_setup()
    cfg = replace(cfg, output_times=output_times, T=T)
    monkeypatch.setattr(analysis, "run",
                        lambda *a: pytest.fail("a run was started"))
    shape = lambda X, t: np.cos(np.pi * X[0])
    with pytest.raises(ParamError, match="after t = 0"):
        analysis.contdep_experiment(data, cfg, "g", shape, [1e-1])


def test_contdep_g_ratios_are_stable():
    data, cfg = contdep_setup()
    shape = lambda X, t: np.cos(np.pi * X[0])
    report = analysis.contdep_experiment(data, cfg, "g", shape,
                                         [1e-1, 1e-2])
    assert len(report.rows) == 2
    assert report.ratio_spread < 3.0
    # the right-hand side scales linearly in delta
    assert report.rows[0].rhs == pytest.approx(10.0 * report.rows[1].rhs)


def test_contdep_phistar_rhs_scales_like_sqrt():
    data, cfg = contdep_setup()
    shape = lambda X, t: np.cos(np.pi * X[0])
    report = analysis.contdep_experiment(data, cfg, "phistar", shape,
                                         [1e-2, 1e-4])
    assert report.rows[0].rhs == pytest.approx(10.0 * report.rows[1].rhs)


def test_solution_distance_rejects_mismatched_times():
    data, cfg = contdep_setup()
    base = solver.run(data, cfg)
    other = solver.run(data, replace(cfg, output_times=[0.0, 0.01, 0.015,
                                                        0.018, 0.02]))
    assert len(other.snapshots) == len(base.snapshots)
    with pytest.raises(ValueError, match="output times"):
        analysis._solution_distance(base, other)


# -- Yosida sweep ----------------------------------------------------------------


def test_yosida_study_row_structure():
    data, cfg = contdep_setup()
    rows = yosida_convergence_study(data, cfg, [1e-1, 1e-2, 1e-3])
    assert len(rows) == 2
    assert rows[0].eps_coarse == 1e-1
    assert rows[1].eps_fine == 1e-3
    assert all(r.distance >= 0.0 for r in rows)
    # unconstrained quartic potential: no overshoot is defined/recorded
    assert all(r.overshoot_coarse == 0.0 for r in rows)


def test_yosida_study_rejects_mismatched_times(monkeypatch):
    data, cfg = contdep_setup()
    runs = []

    def run_shifting_later_runs(d, c):
        traj = solver.run(d, c)
        if runs:
            traj.snapshots[2] = replace(traj.snapshots[2],
                                        t=traj.snapshots[2].t + c.dt)
        runs.append(traj)
        return traj

    monkeypatch.setattr(conftest, "run", run_shifting_later_runs)
    with pytest.raises(ValueError, match="output times"):
        yosida_convergence_study(data, cfg, [1e-1, 1e-2])


def test_sliding_experiment_rejects_a_horizon_that_is_not_positive():
    """The designed gain divides by T: T = 0 is a ParamError before the
    calibration run."""
    def make(rho):
        pytest.fail("calibration ran")

    with pytest.raises(ParamError, match="needs T > 0, got 0.0"):
        analysis.run_sliding_experiment(make, make, T=0.0, tau=1.0)
