from dataclasses import replace

import numpy as np
import pytest

from chsmc import analysis, potentials as pot, solver
from chsmc.errors import MeanError, MissingDataError, ParamError, RegimeError
from chsmc.grid import Grid

from conftest import neumann_problem, dirichlet_problem


def synthetic_trajectory(times, sup_chi, bc_kind="dirichlet", dt=1e-3,
                         eps=1e-3):
    diag = solver.DiagnosticsSeries()
    for t, s in zip(times, sup_chi):
        diag.append(t=t, mean_phi=0.0, free_energy_reg=0.0, sup_chi=s,
                    sup_G_eps=float("nan"), dual_norm_dphi=0.0,
                    newton_iters=0)
    cfg = solver.SolverConfig(eps=eps, dt=dt, T=times[-1],
                              scheme="eliminated_dirichlet")
    return solver.Trajectory(grid=Grid(shape=(4,), lengths=(1.0,)),
                             bc_kind=bc_kind, snapshots=[],
                             diagnostics=diag, cfg=cfg)


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
    traj = synthetic_trajectory([0.0, 0.1], [1.0, 0.9])
    with pytest.raises(ParamError):
        analysis.check_comparison_bound(traj, w0=1.0, M_meas=2.0, rho=1.0,
                                        tau=1.0)


def test_comparison_bound_requires_dirichlet_regime():
    traj = synthetic_trajectory([0.0, 0.1], [1.0, 0.9], bc_kind="neumann")
    with pytest.raises(RegimeError):
        analysis.check_comparison_bound(traj, w0=1.0, M_meas=0.5, rho=2.0,
                                        tau=1.0)


def test_comparison_bound_pass_and_fail():
    times = np.linspace(0.0, 1.0, 11)
    w0, M, rho, tau = 1.0, 1.0, 3.0, 1.0
    w = np.maximum(w0 - (rho - M) * times, 0.0)
    ok = synthetic_trajectory(times, list(w * 0.99))
    rep = analysis.check_comparison_bound(ok, w0, M, rho, tau)
    assert rep.passed
    bad = synthetic_trajectory(times, list(w + 0.5))
    rep = analysis.check_comparison_bound(bad, w0, M, rho, tau)
    assert not rep.passed
    assert rep.worst_margin == pytest.approx(0.5)
    # explicit tolerance overrides the default
    rep = analysis.check_comparison_bound(bad, w0, M, rho, tau, tol_cmp=0.6)
    assert rep.passed


def test_measure_drift_requires_diagnostics():
    traj = synthetic_trajectory([0.0, 0.1], [1.0, 0.9])
    grid = Grid(shape=(4,), lengths=(1.0,))
    data = dirichlet_problem(grid, pot.regular(), grid.zeros(),
                             with_target_derivatives=False)
    with pytest.raises(MissingDataError):
        analysis.measure_comparison_drift(traj, data)


def test_measure_drift_on_real_run():
    grid = Grid(shape=(32,), lengths=(1.0,))
    x = grid.meshgrid()[0]
    phi0 = 0.3 * np.cos(np.pi * x)
    data = dirichlet_problem(grid, pot.regular(), phi0)
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.01,
                              scheme="eliminated_dirichlet")
    traj = solver.run(data, cfg)
    M = analysis.measure_comparison_drift(traj, data)
    # for the constant-zero target the drift is sup|mu - pi(phi)| >= 0
    assert np.isfinite(M)
    assert M > 0.0


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
    with pytest.raises(MeanError):
        analysis.contdep_experiment(data, cfg, "phi0", shape, [0.1])


def test_contdep_g_ratios_are_stable():
    data, cfg = contdep_setup()
    shape = lambda X, t: np.cos(np.pi * X[0])
    report = analysis.contdep_experiment(data, cfg, "g", shape,
                                         [1e-1, 1e-2])
    assert len(report.rows) == 2
    assert report.ratio_spread < 3.0
    assert report.fitted_constant > 0.0
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
        analysis._solution_distance(data.grid, base, other)


# -- Yosida sweep ----------------------------------------------------------------


def test_yosida_study_row_structure():
    data, cfg = contdep_setup()
    rows = analysis.yosida_convergence_study(data, cfg, [1e-1, 1e-2, 1e-3])
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

    monkeypatch.setattr(analysis, "run", run_shifting_later_runs)
    with pytest.raises(ValueError, match="output times"):
        analysis.yosida_convergence_study(data, cfg, [1e-1, 1e-2])


# -- constant probes ---------------------------------------------------------------


def test_embedding_probe_basics():
    grid = Grid(shape=(24,), lengths=(1.0,))
    probe = analysis.embedding_constant_probe(grid, n_random=4, n_modes=3,
                                              seed=1)
    assert probe.estimate > 0.0
    assert len(probe.ratios) == len(probe.family) == 7
    assert not probe.uses_volume_exponent
    assert probe.estimate == max(probe.ratios)
    # deterministic under a fixed seed
    again = analysis.embedding_constant_probe(grid, n_random=4, n_modes=3,
                                              seed=1)
    assert probe.ratios == again.ratios


def test_embedding_probe_sine_mode_ratio_closed_form():
    grid = Grid(shape=(64,), lengths=(1.0,))
    probe = analysis.embedding_constant_probe(grid, n_random=0, n_modes=1)
    x = grid.meshgrid()[0]
    v = np.sin(np.pi * x)
    lam = grid.axis_eigenvalues_dirichlet(0)[0]
    expected = np.max(v) / (lam * grid.l2_norm(v))
    assert probe.ratios[0] == pytest.approx(expected)


def test_embedding_probe_volume_exponent_in_3d():
    grid = Grid(shape=(6, 6, 6), lengths=(0.5, 0.5, 0.5))
    probe = analysis.embedding_constant_probe(grid, n_random=2, n_modes=2,
                                              seed=0)
    assert probe.uses_volume_exponent


def test_structural_constant_estimate_positive():
    data, cfg = contdep_setup()
    traj = solver.run(data, cfg)
    c = analysis.structural_constant_estimate(traj, data, csh=1.0)
    assert c > 0.0
    assert np.isfinite(c)
