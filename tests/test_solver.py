import re
from dataclasses import replace

import numpy as np
import pytest

from chsmc import potentials as pot
from chsmc import smc, solver
from chsmc.errors import ConfigError, NewtonError, ParamError
from chsmc.grid import (Grid, dual_norm, forward_transform,
                        harmonic_extension, inverse_dirichlet,
                        inverse_neumann, inverse_transform,
                        laplacian_neumann, pcg)

from conftest import (zero_potential, zero_field, neumann_problem,
                      dirichlet_problem, obstacle_as_custom,
                      laplacian_dirichlet)


def small_grid(n=32, L=1.0):
    return Grid(shape=(n,), lengths=(L,))


# -- configuration validation -------------------------------------------


def test_scheme_bc_compatibility():
    grid = small_grid()
    data = neumann_problem(grid, pot.regular(), grid.zeros())
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=1e-3,
                              scheme="eliminated_dirichlet")
    with pytest.raises(ConfigError):
        solver.run(data, cfg)


def test_solver_config_validation():
    with pytest.raises(ConfigError):
        solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.1, scheme="bogus")
    with pytest.raises(ConfigError):
        solver.SolverConfig(eps=0.0, dt=1e-3, T=0.1, scheme="coupled_neumann")


@pytest.mark.parametrize("field", ["eps", "dt", "T"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_solver_config_rejects_non_finite(field, value):
    kw = dict(eps=1e-2, dt=1e-3, T=0.1, scheme="coupled_neumann")
    kw[field] = value
    with pytest.raises(ConfigError):
        solver.SolverConfig(**kw)


def test_solver_config_rejects_a_step_count_that_overflows():
    """T/dt = inf would leave the horizon rule a NaN step count."""
    with pytest.raises(ConfigError, match="T/dt = inf"):
        solver.SolverConfig(eps=1e-2, dt=1e-320, T=0.05,
                            scheme="coupled_neumann")


@pytest.mark.parametrize("t_out", [0.02, float("nan"), -1.0])
def test_solver_config_rejects_output_time_outside_run(t_out):
    """A time outside [0, T] would get no snapshot; it is refused by
    value instead."""
    with pytest.raises(ConfigError, match=re.escape(f"time {t_out!r}")):
        solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.01,
                            scheme="coupled_neumann",
                            output_times=[0.005, t_out])


def test_output_time_within_roundoff_past_T_is_kept():
    grid = small_grid()
    data = neumann_problem(grid, pot.regular(), cosine_data(grid))
    t_end = 0.003 + 1e-13  # past T, within 1e-9*dt
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.003,
                              scheme="coupled_neumann",
                              output_times=[0.001, t_end])
    traj = solver.run(data, cfg)
    assert [s.t for s in traj.snapshots] == [0.0, 0.001, t_end]


def test_problem_data_rejects_non_finite():
    grid = small_grid()
    phi0 = grid.zeros()
    phi0[3] = np.nan
    with pytest.raises(ConfigError, match="non-finite"):
        dirichlet_problem(grid, pot.regular(), phi0)
    with pytest.raises(ConfigError):
        dirichlet_problem(grid, pot.regular(), grid.zeros(), tau=np.inf)


def test_problem_data_validation():
    grid = small_grid()
    spec = pot.double_obstacle(0.5)
    with pytest.raises(ConfigError):
        neumann_problem(grid, spec, np.full(grid.shape, 1.5))
    with pytest.raises(ConfigError):
        # mean on the boundary of the admissible interval
        neumann_problem(grid, spec, np.ones(grid.shape))
    with pytest.raises(ConfigError):
        neumann_problem(grid, spec, np.zeros((5,)))
    with pytest.raises(ConfigError):
        solver.ProblemData(grid=grid, spec=spec, phi0=grid.zeros(),
                           g=zero_field, phistar=zero_field,
                           bc=solver.neumann_bc(), tau=0.0,
                           control=smc.SmcParams(rho=0.0, eps=1e-2))


def test_bc_constructors():
    with pytest.raises(ConfigError):
        solver.MuBoundaryCondition(kind="dirichlet")
    with pytest.raises(ConfigError):
        solver.MuBoundaryCondition(kind="robin")
    assert solver.neumann_bc().kind == "neumann"


def test_galerkin_needs_modes():
    grid = small_grid()
    data = neumann_problem(grid, pot.regular(), grid.zeros())
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=1e-3,
                              scheme="galerkin_neumann")
    with pytest.raises(ParamError, match=r"n must be in \[1, "):
        solver.run(data, cfg)


def test_stiffness_warning():
    grid = small_grid()
    data = neumann_problem(grid, pot.regular(), grid.zeros(), rho=10.0,
                           eps=1e-4)
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-2, T=1e-2,
                              scheme="coupled_neumann")
    with pytest.warns(UserWarning, match="stiff"):
        solver.run(data, cfg)


def test_stiffness_warning_when_tau_eps_underflows():
    """tau*eps underflows to 0 here; the warning reports an infinite
    ratio instead of dividing by zero."""
    grid = small_grid()
    data = neumann_problem(grid, pot.regular(), grid.zeros(), rho=1.0,
                           eps=1e-2, tau=5e-324)
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.0,
                              scheme="coupled_neumann")
    with pytest.warns(UserWarning, match="= inf > 1"):
        solver.run(data, cfg)


def test_stiffness_warning_never_prints_a_ratio_at_or_below_1():
    """A ratio of 1.0004 takes five digits: three would read 1 > 1."""
    grid = small_grid()
    data = neumann_problem(grid, pot.regular(), grid.zeros(), rho=1.0004,
                           eps=1e-3)
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.0,
                              scheme="coupled_neumann")
    with pytest.warns(UserWarning, match=r"= 1\.0004 > 1$"):
        solver.run(data, cfg)


def test_stiffness_warning_prints_a_huge_ratio_in_three_digits():
    """A ratio of about 1.2e298 prints as 1.2e+298, not as its 299
    digits."""
    grid = small_grid()
    data = neumann_problem(grid, pot.regular(), grid.zeros(), rho=1.2e299,
                           eps=1e-2)
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.0,
                              scheme="coupled_neumann")
    with pytest.warns(UserWarning, match=r"= 1\.2e\+298 > 1$") as record:
        solver.run(data, cfg)
    assert len(str(record[0].message)) < 100


# -- linear exactness -----------------------------------------------------


def test_modal_recursion():
    """With no potential the stepper acts diagonally on cosine modes."""
    grid = small_grid(64)
    x = grid.meshgrid()[0]
    k, tau, dt = 3, 0.7, 1e-3
    lam = grid.axis_eigenvalues(0, "neumann")[k]
    a0 = 0.25
    phi0 = a0 * np.cos(np.pi * k * x)
    data = neumann_problem(grid, zero_potential(), phi0, tau=tau)
    cfg = solver.SolverConfig(eps=1e-2, dt=dt, T=10 * dt,
                              scheme="coupled_neumann")
    traj = solver.run(data, cfg)
    factor = 1.0 / (1.0 + dt * lam**2 / (1.0 + tau * lam))
    phiT = traj.snapshots[-1].phi
    assert np.allclose(phiT, a0 * factor**10 * np.cos(np.pi * k * x),
                       atol=1e-11)


def test_constant_state_is_stationary():
    grid = small_grid()
    m = 0.4
    phi0 = np.full(grid.shape, m)
    data = neumann_problem(grid, pot.regular(), phi0)
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-2, T=0.05,
                              scheme="coupled_neumann")
    traj = solver.run(data, cfg)
    last = traj.snapshots[-1]
    assert np.allclose(last.phi, m, atol=1e-12)
    # the potential settles at the constant beta_eps(m) + pi(m)
    mu_exact = pot.beta_eps(pot.regular(), 1e-2, m) + pot.regular().pi(m)
    assert np.allclose(last.mu, mu_exact, atol=1e-10)


def test_dirichlet_zero_data_stays_zero():
    grid = small_grid()
    data = dirichlet_problem(grid, pot.regular(), grid.zeros())
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-2, T=0.05,
                              scheme="eliminated_dirichlet")
    traj = solver.run(data, cfg)
    for snap in traj.snapshots:
        assert np.max(np.abs(snap.phi)) < 1e-12
        assert np.max(np.abs(snap.mu)) < 1e-10


# -- structural identities per step ----------------------------------------


def cosine_data(grid, amp=0.3, offset=0.1, k=1):
    x = grid.meshgrid()[0]
    return offset + amp * np.cos(np.pi * k * x / grid.lengths[0])


def test_coupled_step_satisfies_flux_equation():
    grid = small_grid()
    data = neumann_problem(grid, pot.regular(), cosine_data(grid), rho=1.0,
                           eps=1e-2)
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.0,
                              scheme="coupled_neumann")
    state0 = solver._initial_snapshot(data, cfg)
    state1 = solver.step_coupled_neumann(state0, data, cfg, cfg.dt)
    dphi = (state1.phi - state0.phi) / cfg.dt
    assert np.allclose(dphi, laplacian_neumann(grid, state1.mu), atol=1e-7)
    # exact mean conservation after one step
    assert grid.mean(state1.phi) == pytest.approx(grid.mean(state0.phi),
                                                  abs=1e-15)


def test_coupled_step_satisfies_potential_equation():
    grid = small_grid()
    data = neumann_problem(grid, pot.regular(), cosine_data(grid))
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.0,
                              scheme="coupled_neumann")
    state0 = solver._initial_snapshot(data, cfg)
    state1 = solver.step_coupled_neumann(state0, data, cfg, cfg.dt)
    dphi = (state1.phi - state0.phi) / cfg.dt
    lhs = (data.tau * dphi - laplacian_neumann(grid, state1.phi)
           + state1.xi + data.spec.pi(state0.phi))
    assert np.allclose(lhs, state1.mu, atol=1e-8)


def test_galerkin_step_satisfies_both_equations():
    """In the full cosine basis the spectral step solves the two equations
    of the finite-difference step, mu included."""
    grid = small_grid()
    data = neumann_problem(grid, pot.regular(), cosine_data(grid), rho=1.0,
                           eps=1e-2)
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.0,
                              scheme="galerkin_neumann", n_modes=grid.ncells)
    state0 = solver._initial_snapshot(data, cfg)
    state1 = solver.step_galerkin_neumann(state0, data, cfg, cfg.dt)
    dphi = (state1.phi - state0.phi) / cfg.dt
    assert np.allclose(dphi, laplacian_neumann(grid, state1.mu), atol=1e-7)
    lhs = (data.tau * dphi - laplacian_neumann(grid, state1.phi)
           + state1.xi + data.spec.pi(state0.phi)
           + smc.apply_S_eps(data.control, state0.phi))
    assert np.allclose(lhs, state1.mu, atol=1e-8)
    assert state1.newton_iters > 0


def test_galerkin_run_records_the_projection_it_steps_from():
    """A Galerkin run records at t = 0 the projection of phi0 onto its
    modes, where its first step starts: with one mode, the mean of phi0.
    At rho = 0 and g = 0 the recorded energy then does not rise on the
    first step, as it did by 0.305 when phi0 itself was recorded."""
    grid = small_grid(3, L=2.0)
    x = grid.meshgrid()[0]
    data = neumann_problem(grid, pot.logarithmic(3.0),
                           0.6 * np.cos(np.pi * x / 2.0))
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-4, T=1e-4,
                              scheme="galerkin_neumann", n_modes=1)
    traj = solver.run(data, cfg)
    assert np.allclose(traj.snapshots[0].phi, grid.mean(data.phi0),
                       rtol=0.0, atol=1e-15)
    energy = traj.diagnostics.free_energy_reg
    assert energy[1] <= energy[0] + 10 * solver.NEWTON_TOL


def test_galerkin_one_mode_keeps_phi_constant():
    """One mode on 7 cells, with a last step cut short at T: phi stays at
    the constant it starts from, and every dual norm of its increment is
    finite."""
    grid = small_grid(7)
    x = grid.meshgrid()[0]
    data = neumann_problem(grid, pot.regular(),
                           0.1 + 0.3 * np.cos(np.pi * x))
    cfg = solver.SolverConfig(eps=1e-2, dt=0.00586, T=0.03125,
                              scheme="galerkin_neumann", n_modes=1,
                              output_times=list(np.linspace(0.0, 0.03125,
                                                            6)))
    traj = solver.run(data, cfg)
    phi0 = traj.snapshots[0].phi
    assert np.ptp(phi0) == 0.0
    for snap in traj.snapshots[1:]:
        assert np.allclose(snap.phi, phi0, rtol=0.0, atol=1e-15)
    assert len(traj.diagnostics.dual_norm_dphi) == 7
    assert np.all(np.isfinite(traj.diagnostics.dual_norm_dphi))


def test_dirichlet_step_recovers_potential():
    grid = small_grid()
    data = dirichlet_problem(grid, pot.regular(), cosine_data(grid, k=2),
                             datum=lambda x, t: 0.3)
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.0,
                              scheme="eliminated_dirichlet")
    state0 = solver._initial_snapshot(data, cfg)
    state1 = solver.step_eliminated_dirichlet(state0, data, cfg, cfg.dt)
    mu_H = harmonic_extension(grid, data.bc.datum, cfg.dt)
    dphi = (state1.phi - state0.phi) / cfg.dt
    # mu - mu_H = -D(dphi/dt), i.e. Lap_D (mu - mu_H) = dphi/dt
    assert np.allclose(laplacian_dirichlet(grid, state1.mu - mu_H), dphi,
                       atol=1e-6 * np.max(np.abs(dphi)))


@pytest.mark.parametrize("kind", ["neumann", "dirichlet"])
def test_step_reuses_newtons_last_evaluation(kind):
    """xi and mu come from Newton's last residual evaluation, which was at
    the returned iterate: xi is beta_eps(phi) exactly, and mu matches the
    potential recovered from scratch."""
    grid = small_grid()
    phi0 = cosine_data(grid, amp=0.6, offset=0.1)
    if kind == "neumann":
        data = neumann_problem(grid, pot.regular(), phi0, rho=1.0)
        scheme = "coupled_neumann"
    else:
        data = dirichlet_problem(grid, pot.regular(), phi0, rho=1.0,
                                 datum=lambda X, t: 0.2 + X[0] * t)
        scheme = "eliminated_dirichlet"
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.0, scheme=scheme)
    state0 = solver._initial_snapshot(data, cfg)
    state1 = solver.step_eliminated(state0, data, cfg, cfg.dt)
    assert state1.newton_iters > 0
    assert np.array_equal(state1.xi,
                          pot.beta_eps(data.spec, cfg.eps, state1.phi))
    X = grid.meshgrid()
    t = cfg.dt
    rest = (pot.beta_eps(data.spec, cfg.eps, state1.phi)
            + solver._explicit_part(data, X, state0.phi, t) - data.g(X, t))
    dphi = (state1.phi - state0.phi) / cfg.dt
    if kind == "neumann":
        # G = N o P, and (I - P) rest is the mean of rest
        mu = grid.mean(rest) - inverse_neumann(grid, dphi - grid.mean(dphi))
    else:
        mu = (harmonic_extension(grid, data.bc.datum, t)
              - inverse_dirichlet(grid, dphi))
    assert np.max(np.abs(state1.mu - mu)) <= 1e-13 * np.max(np.abs(mu))


@pytest.mark.parametrize("scheme,spec", [
    ("coupled_neumann", pot.regular()),
    ("coupled_neumann", pot.logarithmic(2.0)),
    ("galerkin_neumann", pot.regular())],
    ids=["regular", "logarithmic", "galerkin"])
def test_step_solves_one_resolvent_per_residual(monkeypatch, scheme, spec):
    """The Jacobian takes beta_eps' from the xi of the residual evaluation
    at the same iterate, so a step solves the resolvent once per residual
    evaluation it makes.  The finite-difference step takes its first
    residual, at d = 0, from the state's xi: newton_iters solves.  The
    Galerkin step starts from a projection and evaluates it:
    newton_iters + 1."""
    grid = small_grid()
    data = neumann_problem(grid, spec, cosine_data(grid, amp=0.6), rho=1.0)
    galerkin = scheme == "galerkin_neumann"
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.0, scheme=scheme,
                              n_modes=8 if galerkin else 0)
    state0 = solver._initial_snapshot(data, cfg)
    step = solver.step_galerkin_neumann if galerkin else solver.step_eliminated
    resolvent, calls = pot.resolvent, []

    def counted(*args):
        calls.append(args)
        return resolvent(*args)

    monkeypatch.setattr(pot, "resolvent", counted)
    state1 = step(state0, data, cfg, cfg.dt)
    assert state1.newton_iters > 0
    assert len(calls) == state1.newton_iters + (1 if galerkin else 0)


@pytest.mark.parametrize("moving", [True, False], ids=["moving", "at_rest"])
def test_dirichlet_run_solves_one_resolvent_per_newton_iteration(
        monkeypatch, moving):
    """A run solves the resolvent once for the initial snapshot and once
    per Newton iteration after it; a state at rest takes no iteration, so
    its whole run solves it once."""
    grid = small_grid()
    if moving:
        data = dirichlet_problem(grid, pot.regular(),
                                 cosine_data(grid, amp=0.6), rho=1.0,
                                 datum=lambda X, t: 0.2 + X[0] * t)
    else:
        data = dirichlet_problem(grid, pot.regular(), grid.zeros())
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=1e-2,
                              scheme="eliminated_dirichlet")
    resolvent, calls = pot.resolvent, []

    def counted(*args):
        calls.append(args)
        return resolvent(*args)

    monkeypatch.setattr(pot, "resolvent", counted)
    traj = solver.run(data, cfg)
    iters = sum(traj.diagnostics.newton_iters)
    assert (iters > 0) == moving
    assert len(calls) == iters + 1


@pytest.mark.parametrize("spec", [
    pot.regular(), pot.logarithmic(2.0), pot.double_obstacle(1.0)],
    ids=["regular", "logarithmic", "obstacle"])
@pytest.mark.parametrize("kind", ["neumann", "dirichlet", "galerkin"])
def test_run_keeps_xi_the_beta_eps_of_phi(monkeypatch, kind, spec):
    """Every state a step starts from, the first half of a halved step
    included, and every snapshot has xi = beta_eps(phi) exactly: the
    contract that lets a step take its first residual from state.xi.
    Each stepper takes xi from the evaluation that Newton returns."""
    grid = small_grid()
    phi0 = cosine_data(grid, amp=0.6, offset=0.1)
    if kind == "dirichlet":
        data = dirichlet_problem(grid, spec, phi0, rho=1.0,
                                 datum=lambda X, t: 0.2 + X[0] * t)
        scheme = "eliminated_dirichlet"
    else:
        data = neumann_problem(grid, spec, phi0, rho=1.0)
        scheme = "coupled_neumann" if kind == "neumann" else \
            "galerkin_neumann"
    name = "step_" + scheme
    T = 5e-3
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=T, scheme=scheme,
                              n_modes=8 if kind == "galerkin" else 0,
                              output_times=list(np.linspace(0.0, T, 6)))
    step, starts, failed = getattr(solver, name), [], []

    def fail_second(state, data, cfg, dt):
        starts.append(state)
        if state.t > 0.0 and not failed:
            failed.append(dt)
            raise NewtonError("injected failure")
        return step(state, data, cfg, dt=dt)

    monkeypatch.setattr(solver, name, fail_second)
    with pytest.warns(UserWarning, match="retrying"):
        traj = solver.run(data, cfg)
    assert failed == [cfg.dt]
    assert len(starts) == 7 and len(traj.snapshots) == 6
    assert sum(s.newton_iters for s in traj.snapshots) > 0
    # phi moves by about 0.03; a step that handed on a stale evaluation
    # would keep xi = beta_eps(phi) but leave phi in place
    assert grid.sup_norm(traj.snapshots[-1].phi - traj.snapshots[0].phi) > 1e-3
    for state in starts + traj.snapshots:
        assert np.array_equal(state.xi,
                              pot.beta_eps(spec, cfg.eps, state.phi))


@pytest.mark.parametrize("case", ["whole", "halved", "moving_target",
                                  "zero_flux_at_rest"])
def test_a_step_at_rest_shares_phi_and_repeats_its_diagnostics(monkeypatch,
                                                                case):
    """Runs with a step after every output time: a Dirichlet run whose
    control freezes phi on a plateau, whole and with a halved step at
    rest; a Dirichlet run at rest, phi0 = 0 without control or forcing,
    whose target moves with t; and a zero-flux run that starts at rest,
    phi0 = phistar constant with g = 0.

    Every step with 0 Newton iterations returns its start's phi and xi
    arrays.  A step from a 0-iteration state under unchanged data repeats
    it: it applies no stencil and returns the start's evaluation, the two
    halves of a halved step at rest included.  A moving target changes
    the data at every step, so every step applies the stencil.  Every
    diagnostics row holds the bits of a fresh evaluation of its state,
    and the run is bitwise the run whose stepper clears the evaluation of
    the state it starts from, which forces a full solve at every step."""
    grid = small_grid(16)
    spec = pot.regular()
    T, dt = 0.3, 1e-2
    if case == "zero_flux_at_rest":
        data = neumann_problem(grid, spec, np.full(grid.shape, 0.2), rho=1.0,
                               phistar=lambda X, t: np.full_like(X[0], 0.2))
        scheme = "coupled_neumann"
    elif case == "moving_target":
        data = dirichlet_problem(
            grid, spec, grid.zeros(),
            phistar=lambda X, t: np.full_like(X[0], 0.1 + 1e-3 * t))
        data = replace(data, dphistar_dt=lambda X, t: np.full_like(X[0],
                                                                   1e-3))
        scheme = "eliminated_dirichlet"
    else:
        data = dirichlet_problem(grid, spec, cosine_data(grid, amp=0.05,
                                                         offset=0.0),
                                 rho=1.0)
        scheme = "eliminated_dirichlet"
    cfg = solver.SolverConfig(eps=1e-2, dt=dt, T=T, scheme=scheme,
                              output_times=[k * dt for k in range(31)])
    name = "step_" + scheme
    step, failed, stencils, repeats = getattr(solver, name), [], [], []

    def counting(grid, u):
        stencils.append(1)
        return laplacian_neumann(grid, u)

    def run(clear):
        failed.clear()
        stencils.clear()
        repeats.clear()

        def stepper(state, data, cfg, dt):
            if clear:
                state = replace(state, evaluation=None)
            if case == "halved" and state.t > 0.2 and not failed:
                failed.append(state.t)
                raise NewtonError("injected failure")
            solves = len(stencils)
            out = step(state, data, cfg, dt=dt)
            repeated = out.evaluation is state.evaluation
            # a repeat is its start at the new time, and applies no stencil
            assert repeated == (len(stencils) == solves)
            if repeated:
                assert out.newton_iters == state.newton_iters == 0
                assert all(getattr(out, f) is getattr(state, f)
                           for f in ("phi", "mu", "xi", "zeta"))
            repeats.append(repeated)
            return out

        monkeypatch.setattr(solver, name, stepper)
        if case != "halved":
            return solver.run(data, cfg)
        with pytest.warns(UserWarning, match="retrying"):
            traj = solver.run(data, cfg)
        assert len(failed) == 1
        return traj

    monkeypatch.setattr(solver, "laplacian_neumann", counting)
    traj = run(clear=False)
    diag, snaps = traj.diagnostics, traj.snapshots
    assert len(snaps) == 31
    if case == "zero_flux_at_rest":
        assert not any(diag.newton_iters)
        solves = 1
    elif case == "moving_target":
        assert not any(diag.newton_iters)
        solves = 30
    else:
        first_rest = diag.newton_iters.index(0, 1)
        assert 1 < first_rest < 20 and not any(diag.newton_iters[first_rest:])
        solves = first_rest
    assert len(stencils) == solves
    assert sum(repeats) == len(repeats) - solves
    X = grid.meshgrid()
    for k in range(1, len(snaps)):
        prev, state = snaps[k - 1], snaps[k]
        at_rest = diag.newton_iters[k] == 0
        assert (state.phi is prev.phi) == at_rest
        assert (state.xi is prev.xi) == at_rest
        assert state.evaluation is None
        fe = pot.free_energy(grid, state.phi, spec, cfg.eps, state.xi)
        dn = dual_norm(grid, (state.phi - prev.phi) / (diag.t[k]
                                                      - diag.t[k - 1]),
                       data.bc.kind)
        sup_chi = grid.sup_norm(state.phi - data.phistar(X, state.t))
        assert diag.free_energy_reg[k] == fe
        assert diag.dual_norm_dphi[k] == dn
        assert diag.mean_phi[k] == grid.mean(state.phi)
        assert diag.sup_chi[k] == sup_chi
        if data.bc.kind == "dirichlet":
            assert diag.sup_G_eps[k] == grid.sup_norm(
                solver.assemble_G_eps(state, data))
        else:
            assert np.isnan(diag.sup_G_eps[k])
    full = run(clear=True)
    assert len(stencils) == (31 if case == "halved" else 30)
    for col in solver.DiagnosticsSeries.COLUMNS:
        assert np.array_equal(getattr(full.diagnostics, col),
                              getattr(diag, col), equal_nan=True), col
    for a, b in zip(full.snapshots, snaps, strict=True):
        assert (a.t, a.newton_iters) == (b.t, b.newton_iters)
        for field in ("phi", "mu", "xi", "zeta"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()


def test_a_step_evaluates_each_datum_once_at_its_end_time():
    """The Dirichlet run of the ``whole`` case above records the drift
    and has moving steps and steps at rest.  Every step calls phistar, g,
    d_t phistar and Lap phistar once at its end time, and the mu datum
    once per boundary side, and no datum is called at any other time
    after t = 0."""
    grid = small_grid(16)
    calls = {}

    def counted(name, f):
        def wrapped(X, t):
            calls[name, t] = calls.get((name, t), 0) + 1
            return f(X, t)
        return wrapped

    data = dirichlet_problem(grid, pot.regular(),
                             cosine_data(grid, amp=0.05, offset=0.0), rho=1.0)
    names = ("phistar", "g", "dphistar_dt", "lap_phistar")
    data = replace(data, bc=solver.dirichlet_bc(counted("datum",
                                                        data.bc.datum)),
                   **{n: counted(n, getattr(data, n)) for n in names})
    T, dt = 0.3, 1e-2
    cfg = solver.SolverConfig(eps=1e-2, dt=dt, T=T,
                              scheme="eliminated_dirichlet",
                              output_times=[k * dt for k in range(31)])
    diag = solver.run(data, cfg).diagnostics
    assert any(diag.newton_iters[1:]) and not all(diag.newton_iters[1:])
    ends = diag.t[1:]
    assert len(ends) == 30
    sides = len(grid.boundary_sides())
    after_0 = {k: v for k, v in calls.items() if k[1] != 0.0}
    assert after_0 == {**{(n, t): 1 for n in names for t in ends},
                       **{("datum", t): sides for t in ends}}


def test_control_term_saturates():
    grid = small_grid()
    rho = 2.0
    data = neumann_problem(grid, pot.regular(), cosine_data(grid), rho=rho,
                           eps=1e-3)
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-4, T=0.01,
                              scheme="coupled_neumann")
    traj = solver.run(data, cfg)
    for snap in traj.snapshots:
        assert grid.sup_norm(snap.zeta) <= rho + 1e-12


# -- Newton-Krylov core -------------------------------------------------------


def test_coupled_preconditioner_inverts_constant_coefficient_jacobian(grid2d):
    rng = np.random.default_rng(11)
    v = rng.standard_normal(grid2d.shape)
    v -= grid2d.mean(v)
    v_hat = forward_transform(grid2d, v, "neumann")
    v_hat.flat[0] = 0.0
    bprime = np.full(grid2d.shape, 3.7)
    symbol, precondition = solver._regime(grid2d, "neumann", 0.7, 1e-3)
    jacobian = solver._jacobian(grid2d, "neumann", symbol, 1e-3, bprime)
    w = precondition(3.7) * jacobian(v_hat)
    assert grid2d.l2_norm(w - v_hat) <= 1e-12 * grid2d.l2_norm(v_hat)


# Shapes on the dense and the FFT path, in 1-D, 2-D and 3-D
OPERATOR_SHAPES = [(64,), (12, 10), (128, 128), (129, 128), (8, 8, 8),
                   (283, 3, 3)]


def _operator_grid(shape):
    return Grid(shape=shape,
                lengths=tuple(0.5 + 0.25 * a for a in range(len(shape))))


@pytest.mark.parametrize("shape", OPERATOR_SHAPES[:5], ids=str)
def test_zero_flux_step_operator_is_one_cosine_symbol(shape):
    """The zero-flux K, one symbol on the dense or the FFT path, is the
    sum tau*v/dt + G(v)/dt - Lap_N v, for v with a nonzero mean too."""
    grid = _operator_grid(shape)
    tau, dt = 0.7, 1e-3
    symbol, _ = solver._regime(grid, "neumann", tau, dt)
    v = np.random.default_rng(13).standard_normal(shape) + 0.3
    Kv, G = solver._step_operator(grid, "neumann", symbol, dt,
                                  forward_transform(grid, v, "neumann"), v,
                                  grid.zeros())
    assert G is None
    expected = (tau * v / dt + inverse_neumann(grid, v - grid.mean(v)) / dt
                - laplacian_neumann(grid, v))
    scale = np.max(np.abs(expected))
    assert (np.max(np.abs(inverse_transform(grid, Kv, "neumann") - expected))
            <= 1e-13 * scale)


@pytest.mark.parametrize("shape", OPERATOR_SHAPES, ids=str)
@pytest.mark.parametrize("kind", ["neumann", "dirichlet"])
def test_coefficient_jacobian_is_the_transformed_stencil_form(kind, shape):
    """The Jacobian CG applies to DCT-II coefficients is the forward
    transform of tau*v/dt + G(v)/dt - Lap_N v + P(beta' v), G and P those
    of the regime, with the stencil Laplacian; v mean-free for zero
    flux, the subspace Newton works in."""
    grid = _operator_grid(shape)
    tau, dt = 0.7, 1e-3
    rng = np.random.default_rng(17)
    v = rng.standard_normal(shape)
    bprime = 1.0 + rng.uniform(0.0, 5e3, shape)
    if kind == "neumann":
        v -= grid.mean(v)
        Gv = inverse_neumann(grid, v)
        Pw = bprime * v - grid.mean(bprime * v)
    else:
        Gv, Pw = inverse_dirichlet(grid, v), bprime * v
    expected = forward_transform(
        grid, tau * v / dt + Gv / dt - laplacian_neumann(grid, v) + Pw,
        "neumann")
    v_hat = forward_transform(grid, v, "neumann")
    if kind == "neumann":
        v_hat.flat[0] = 0.0
    symbol, _ = solver._regime(grid, kind, tau, dt)
    Jv = solver._jacobian(grid, kind, symbol, dt, bprime)(v_hat)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(Jv - expected)) <= 1e-13 * scale


@pytest.mark.parametrize("spec", [pot.regular(), pot.logarithmic(2.0)],
                         ids=["regular", "logarithmic"])
def test_zero_flux_step_applies_the_laplacian_once(monkeypatch, spec):
    """K carries -Lap_N in its symbol, so a zero-flux step applies the
    Laplacian only to phi^n, whatever its Newton and CG counts."""
    calls = []

    def counting(grid, u):
        calls.append(1)
        return laplacian_neumann(grid, u)

    monkeypatch.setattr(solver, "laplacian_neumann", counting)
    grid = Grid(shape=(12, 10), lengths=(1.0, 0.75))
    data = neumann_problem(grid, spec, cosine_data(grid, amp=0.6), rho=1.0)
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.0,
                              scheme="coupled_neumann")
    state = solver.step_eliminated(solver._initial_snapshot(data, cfg), data,
                                   cfg, cfg.dt)
    assert state.newton_iters >= 2
    assert len(calls) == 1


@pytest.mark.parametrize("shape", [(64,), (12, 10), (8, 8, 8), (129, 128)],
                         ids=str)
def test_zero_flux_iterates_keep_mode_zero_exactly(monkeypatch, shape):
    """Newton has no projection: in a zero-flux step every coefficient
    array the stepper transforms back, Newton iterates and CG directions
    alike, has DCT mode 0 exactly 0: P zeroes that mode of the residual
    and the preconditioner drops it.  beta' varies in space, so the
    preconditioner's shift is not exact and CG takes several
    iterations."""
    modes = []

    def recording(grid, coeffs, bc):
        modes.append(coeffs.flat[0])
        return inverse_transform(grid, coeffs, bc)

    monkeypatch.setattr(solver, "inverse_transform", recording)
    grid = _operator_grid(shape)
    phi0 = 0.1 + 0.6 * np.prod(
        [np.cos(np.pi * x / L) for x, L in zip(grid.meshgrid(), grid.lengths)],
        axis=0)
    data = neumann_problem(grid, pot.logarithmic(2.0), phi0, rho=1.0)
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.0,
                              scheme="coupled_neumann")
    state0 = solver._initial_snapshot(data, cfg)
    bprime = pot.beta_eps_prime(data.spec, cfg.eps, state0.phi, state0.xi)
    assert np.ptp(bprime) > 0.1 * np.mean(bprime)
    state1 = solver.step_eliminated(state0, data, cfg, cfg.dt)
    assert state1.newton_iters >= 2
    assert len(modes) > 2 * state1.newton_iters + 1
    assert all(m == 0.0 for m in modes)


def test_newton_raises_on_indefinite_jacobian():
    grid = small_grid()

    def solve(x, r, ev):
        return pcg(lambda v: -v, -r, lambda v: v, rtol=1e-11, atol=0.0)

    def residual(x):
        return x - 1.0, None

    with pytest.raises(NewtonError, match="breakdown"):
        solver._newton(residual, solve, grid.zeros(), grid.l2_norm,
                       residual(grid.zeros()))


def test_newton_raises_after_its_iteration_cap():
    calls = []

    def residual(x):
        calls.append(x)
        return np.ones_like(x), None

    x0 = np.zeros(1)
    with pytest.raises(NewtonError, match=re.escape(
            "Newton did not converge (residual 1.000e+00)")):
        solver._newton(residual, lambda x, r, ev: np.zeros_like(x), x0,
                       np.linalg.norm, residual(x0))
    # the caller's first evaluation counts
    assert len(calls) == solver.NEWTON_MAX


def test_halving_is_reported_and_counts_both_halves(monkeypatch):
    grid = small_grid()
    data = neumann_problem(grid, pot.regular(), cosine_data(grid))
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=2e-3,
                              scheme="coupled_neumann")
    step = solver.step_coupled_neumann
    state0 = solver._initial_snapshot(data, cfg)
    first = step(state0, data, cfg, dt=5e-4)
    second = step(first, data, cfg, dt=5e-4)
    failed = []

    def fail_once(state, data, cfg, dt):
        if not failed:
            failed.append(dt)
            raise NewtonError("injected failure")
        return step(state, data, cfg, dt=dt)

    monkeypatch.setattr(solver, "step_coupled_neumann", fail_once)
    with pytest.warns(UserWarning, match=r"t = 0 failed with dt = 0\.001 "
                                         r".*two steps of dt = 0\.0005"):
        traj = solver.run(data, cfg)
    assert failed == [1e-3]
    assert traj.diagnostics.newton_iters[1] == (first.newton_iters
                                                + second.newton_iters)
    assert first.newton_iters > 0 and second.newton_iters > 0
    assert traj.diagnostics.t[1] == second.t


def test_step_failing_every_halving_names_its_interval_and_reason():
    """A NaN source fails every attempt with a non-finite residual; the
    error gives the whole step once, with that innermost reason."""
    grid = small_grid()
    data = neumann_problem(grid, pot.regular(), cosine_data(grid),
                           g=lambda X, t: np.full_like(X[0], np.nan))
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=2e-3,
                              scheme="coupled_neumann")
    with pytest.warns(UserWarning, match="retrying"):
        with pytest.raises(NewtonError) as info:
            solver.run(data, cfg)
    assert str(info.value) == ("step from t = 0 to 0.001 failed even after "
                               "halving 8 times: non-finite residual")


def test_galerkin_step_stops_at_a_non_finite_residual():
    """The Galerkin oracle runs the same Newton iteration, so a NaN source
    fails each attempt at once, with the same reason."""
    grid = small_grid()
    data = neumann_problem(grid, pot.regular(), cosine_data(grid),
                           g=lambda X, t: np.full_like(X[0], np.nan))
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=1e-3,
                              scheme="galerkin_neumann", n_modes=8)
    with pytest.warns(UserWarning, match="retrying"):
        with pytest.raises(NewtonError) as info:
            solver.run(data, cfg)
    assert str(info.value) == ("step from t = 0 to 0.001 failed even after "
                               "halving 8 times: non-finite residual")


# -- energy decay -----------------------------------------------------------


def test_convex_splitting_energy_inequality():
    grid = small_grid()
    spec = pot.regular()
    data = neumann_problem(grid, spec, cosine_data(grid, amp=0.8, offset=0.0))
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.0,
                              scheme="coupled_neumann")
    state = solver._initial_snapshot(data, cfg)
    for _ in range(30):
        new = solver.step_coupled_neumann(state, data, cfg, cfg.dt)
        e_old = pot.free_energy(grid, state.phi, spec, cfg.eps, state.xi)
        e_new = pot.free_energy(grid, new.phi, spec, cfg.eps, new.xi)
        diss = (data.tau / cfg.dt * grid.l2_norm(new.phi - state.phi) ** 2
                + cfg.dt * grid.gradient_energy(new.mu))
        assert e_new + diss <= e_old + 10 * solver.NEWTON_TOL
        state = new


def test_obstacle_overshoot_records_envelope_free_energy():
    """A strong concave part drives phi past the obstacle, and phi - eps*xi
    then leaves [-1, 1] by an ulp at some cells; the free energy recorded
    from xi stays finite and equals the resolvent-based one."""
    grid = small_grid()
    spec = pot.double_obstacle(60.0)
    data = neumann_problem(grid, spec, cosine_data(grid, amp=0.9,
                                                   offset=0.0))
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.02,
                              scheme="coupled_neumann",
                              output_times=[k * 1e-3 for k in range(21)])
    traj = solver.run(data, cfg)
    assert len(traj.snapshots) == len(traj.diagnostics.t) == 21
    assert max(grid.sup_norm(s.phi) for s in traj.snapshots) > 1.0
    for snap, fe in zip(traj.snapshots, traj.diagnostics.free_energy_reg):
        ref = pot.free_energy(grid, snap.phi, spec, cfg.eps,
                              pot.beta_eps(spec, cfg.eps, snap.phi))
        assert np.isfinite(fe)
        assert fe == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_custom_obstacle_takes_the_built_in_newton_path():
    """The obstacle's maps with the reference resolvent solve get the same
    beta_eps' past the endpoints, so Newton takes the built-in obstacle's
    iterations."""
    grid = Grid(shape=(64,), lengths=(1.0,))
    phi0 = np.clip(1.5 * np.cos(np.pi * grid.meshgrid()[0]), -1.0, 1.0)
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.05,
                              scheme="coupled_neumann")
    built_in, reference = (
        solver.run(neumann_problem(grid, spec, phi0), cfg)
        for spec in (pot.double_obstacle(5.0), obstacle_as_custom(5.0)))
    assert sum(reference.diagnostics.newton_iters) == \
        sum(built_in.diagnostics.newton_iters) == 107
    assert np.array_equal(reference.snapshots[-1].phi,
                          built_in.snapshots[-1].phi)


@pytest.mark.xfail(strict=True, reason=(
    "defect: step_eliminated adds the Dirichlet mu datum mu_H to the "
    "residual with a + sign, but mu = mu_H - G(d)/dt needs -mu_H, so the "
    "potential equation is off by twice the datum"))
def test_dirichlet_step_satisfies_potential_equation_with_nonzero_datum():
    grid = Grid(shape=(64,), lengths=(1.0,))
    phi0 = 0.3 * np.cos(np.pi * grid.meshgrid()[0])
    data = dirichlet_problem(grid, pot.regular(), phi0,
                             datum=lambda X, t: np.full_like(X[0], 0.7))
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.0,
                              scheme="eliminated_dirichlet")
    state0 = solver._initial_snapshot(data, cfg)
    state1 = solver.step_eliminated(state0, data, cfg, cfg.dt)
    dphi = (state1.phi - state0.phi) / cfg.dt
    lhs = (data.tau * dphi - laplacian_neumann(grid, state1.phi)
           + state1.xi + data.spec.pi(state0.phi))
    assert np.max(np.abs(lhs - state1.mu)) <= 1e-9


# -- cross-scheme agreement ---------------------------------------------------


def test_galerkin_full_basis_matches_coupled():
    grid = small_grid(16)
    phi0 = cosine_data(grid, amp=0.4, offset=0.0)
    spec = pot.regular()
    cfg_fd = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.02,
                                 scheme="coupled_neumann")
    cfg_sp = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.02,
                                 scheme="galerkin_neumann",
                                 n_modes=grid.ncells)
    t1 = solver.run(neumann_problem(grid, spec, phi0), cfg_fd)
    t2 = solver.run(neumann_problem(grid, spec, phi0), cfg_sp)
    diff = grid.sup_norm(t1.snapshots[-1].phi - t2.snapshots[-1].phi)
    assert diff < 1e-7


def test_galerkin_records_newton_iterations():
    grid = small_grid(16)
    data = neumann_problem(grid, pot.regular(),
                           cosine_data(grid, amp=0.4, offset=0.0))
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=5e-3,
                              scheme="galerkin_neumann", n_modes=8)
    iters = solver.run(data, cfg).diagnostics.newton_iters
    assert len(iters) == 6 and iters[0] == 0
    assert all(k > 0 for k in iters[1:])


# -- time accuracy -------------------------------------------------------------


def test_backward_euler_first_order_self_convergence():
    grid = small_grid()
    phi0 = cosine_data(grid, amp=0.5, offset=0.0)
    spec = pot.regular()
    T = 0.02

    def solve(dt):
        cfg = solver.SolverConfig(eps=1e-2, dt=dt, T=T,
                                  scheme="coupled_neumann")
        return solver.run(neumann_problem(grid, spec, phi0),
                          cfg).snapshots[-1].phi

    ref = solve(T / 256)
    errs = [grid.l2_norm(solve(T / n) - ref) for n in (8, 16, 32)]
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates > 0.8)
    assert np.all(rates < 1.3)


# A manufactured solution on [0, L]: phi = m + A(t) cos(k x) and
# mu = c(t) + b(t) cos(k x), k = pi/L, with A' = -k^2 b, solve
# phi_t = Lap mu with d_n phi = 0 exactly; g comes from the potential
# equation at the exact fields, and phistar depends on x and t.  Zero flux
# takes c = 0, Dirichlet takes mu on the faces as its datum.
MMS = dict(L=1.0, T=0.2, eps=0.1, rho=0.5, m=0.1, A0=0.4)


def _manufactured_error(bc_kind, cells, dt):
    """sup|phi - exact phi| at T of a run of the manufactured solution."""
    k, tau = np.pi / MMS["L"], 1.0
    spec = pot.regular()
    control = smc.SmcParams(rho=MMS["rho"], eps=MMS["eps"])

    def b(t):
        return 0.3 * np.cos(3.0 * t)

    def A(t):
        return MMS["A0"] - k**2 * 0.1 * np.sin(3.0 * t)

    def c(t):
        return 0.7 + 0.2 * t if bc_kind == "dirichlet" else 0.0

    def phi(X, t):
        return MMS["m"] + A(t) * np.cos(k * X[0])

    def mu(X, t):
        return c(t) + b(t) * np.cos(k * X[0])

    def phistar(X, t):
        return 0.2 + 0.1 * np.sin(t) * X[0]

    def g(X, t):
        p = phi(X, t)
        phi_t = -k**2 * b(t) * np.cos(k * X[0])
        lap_phi = -k**2 * A(t) * np.cos(k * X[0])
        return (tau * phi_t - lap_phi + pot.beta_eps(spec, MMS["eps"], p)
                + spec.pi(p) + smc.apply_S_eps(control, p - phistar(X, t))
                - mu(X, t))

    grid = small_grid(cells, MMS["L"])
    X = grid.meshgrid()
    if bc_kind == "dirichlet":
        bc, scheme = solver.dirichlet_bc(mu), "eliminated_dirichlet"
    else:
        bc, scheme = solver.neumann_bc(), "coupled_neumann"
    data = solver.ProblemData(grid=grid, spec=spec, phi0=phi(X, 0.0), g=g,
                              phistar=phistar, bc=bc, tau=tau,
                              control=control)
    cfg = solver.SolverConfig(eps=MMS["eps"], dt=dt, T=MMS["T"],
                              scheme=scheme)
    final = solver.run(data, cfg).snapshots[-1]
    return grid.sup_norm(final.phi - phi(X, MMS["T"]))


@pytest.mark.parametrize("bc_kind", [
    "neumann",
    pytest.param("dirichlet", marks=pytest.mark.xfail(strict=True, reason=(
        "defect: step_eliminated adds the Dirichlet mu datum to the "
        "residual with a + sign, where mu = mu_H - G(d)/dt needs -mu_H; "
        "the error stays at 0.31 on every level")))])
def test_manufactured_solution_converges_at_first_order(bc_kind):
    """h and dt halve together, so the error O(dt + h^2) of backward
    Euler with an explicit pi and control halves; the finest pair of
    16, 32 and 64 cells gave ratios of 1.86 (zero flux) and 1.99
    (Dirichlet, with the datum's sign flipped)."""
    errors = [_manufactured_error(bc_kind, cells, dt)
              for cells, dt in ((16, 4e-3), (32, 2e-3), (64, 1e-3))]
    assert errors[1] / errors[2] >= 1.8, errors


# -- bookkeeping ----------------------------------------------------------------


def test_output_times_and_diagnostics(tmp_path):
    grid = small_grid()
    data = neumann_problem(grid, pot.regular(), cosine_data(grid))
    times = [0.0, 0.005, 0.01]
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.01,
                              scheme="coupled_neumann", output_times=times)
    traj = solver.run(data, cfg)
    assert [pytest.approx(t) for t in times] == [s.t for s in traj.snapshots]
    assert len(traj.diagnostics.t) == 11  # initial record + 10 steps
    path = tmp_path / "diag.csv"
    traj.diagnostics.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(solver.DiagnosticsSeries.COLUMNS)
    assert len(lines) == 12


@pytest.mark.parametrize("kind, scheme", [
    ("neumann", "coupled_neumann"), ("dirichlet", "eliminated_dirichlet")])
def test_output_hook_receives_the_snapshots_run_returns(kind, scheme):
    """``on_output`` gets, in order, the snapshots that ``run`` returns
    without it, to the bit, the one past the last step end included, and
    the returned trajectory then keeps none."""
    grid = small_grid()
    phi0 = cosine_data(grid)
    if kind == "neumann":
        data = neumann_problem(grid, pot.regular(), phi0, rho=0.5)
    else:
        data = dirichlet_problem(grid, pot.regular(), phi0, rho=0.5,
                                 phistar=lambda X, t: np.full_like(X[0], 0.1),
                                 datum=lambda x, t: 0.05)
    T = 0.004
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=T, scheme=scheme,
                              output_times=[0.0, 0.0013, 0.002, T + 1e-13])
    kept = solver.run(data, cfg)
    passed = []
    hooked = solver.run(data, cfg, on_output=passed.append)
    assert hooked.snapshots == []
    assert [s.t for s in passed] == [0.0, 0.001, 0.002, T + 1e-13]
    assert len(passed) == len(kept.snapshots)
    for a, b in zip(passed, kept.snapshots):
        assert a.t == b.t and a.newton_iters == b.newton_iters
        for name in ("phi", "mu", "xi", "zeta"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    np.testing.assert_equal(vars(hooked.diagnostics), vars(kept.diagnostics))


def test_output_times_are_exact():
    """Step n ends at n*dt, not at a running sum of step lengths, and a
    snapshot requested at the end of a step carries the requested time."""
    grid = small_grid(16)
    data = neumann_problem(grid, pot.regular(), cosine_data(grid))
    times = list(np.linspace(0.0, 1.0, 21))
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=1.0,
                              scheme="coupled_neumann", output_times=times)
    traj = solver.run(data, cfg)
    assert [s.t for s in traj.snapshots] == times
    assert traj.diagnostics.t == [n * 1e-3 for n in range(1001)]


# T = 0.0104 needs a shortened last step; ten additions of 1e-3 give
# T/dt = 10.000000000000002, which must still be ten steps.
@pytest.mark.parametrize("T, steps", [(0.0104, 11), (sum([1e-3] * 10), 10)])
def test_horizon_lands_on_T(T, steps):
    grid = small_grid()
    data = neumann_problem(grid, pot.regular(), cosine_data(grid))
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=T,
                              scheme="coupled_neumann", output_times=[T])
    traj = solver.run(data, cfg)
    assert len(traj.diagnostics.t) == steps + 1  # initial record + steps
    assert traj.diagnostics.t[-1] == T
    assert traj.diagnostics.t[-2] == pytest.approx((steps - 1) * 1e-3,
                                                   abs=1e-15)
    assert [s.t for s in traj.snapshots] == [0.0, T]


def test_horizon_below_step_roundoff_takes_no_step():
    grid = small_grid()
    data = neumann_problem(grid, pot.regular(), cosine_data(grid))
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=5e-324,
                              scheme="coupled_neumann")
    traj = solver.run(data, cfg)
    assert traj.diagnostics.t == [0.0]


def test_assemble_G_eps_requires_target_derivatives():
    grid = small_grid()
    data = neumann_problem(grid, pot.regular(), grid.zeros())
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.0,
                              scheme="coupled_neumann")
    state = solver._initial_snapshot(data, cfg)
    with pytest.raises(ConfigError,
                       match="needs dphistar_dt and lap_phistar"):
        solver.assemble_G_eps(state, data)


def test_zero_horizon_returns_initial_state_only():
    grid = small_grid()
    data = neumann_problem(grid, pot.regular(), cosine_data(grid))
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.0,
                              scheme="coupled_neumann")
    traj = solver.run(data, cfg)
    assert len(traj.snapshots) == 1
    assert traj.snapshots[0].t == 0.0
