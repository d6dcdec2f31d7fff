import numpy as np
import pytest

from chsmc import potentials as pot
from chsmc import smc, solver
from chsmc.errors import (ConfigError, MissingDataError, ModeRangeError,
                          NewtonError)
from chsmc.grid import Grid, harmonic_extension, laplacian_neumann

from conftest import (zero_potential, zero_field, neumann_problem,
                      dirichlet_problem)


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
    with pytest.raises(ModeRangeError):
        solver.run(data, cfg)


def test_stiffness_warning():
    grid = small_grid()
    data = neumann_problem(grid, pot.regular(), grid.zeros(), rho=10.0,
                           eps=1e-4)
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-2, T=1e-2,
                              scheme="coupled_neumann")
    with pytest.warns(UserWarning, match="stiff"):
        solver.run(data, cfg)


# -- linear exactness -----------------------------------------------------


def test_modal_recursion():
    """With no potential the stepper acts diagonally on cosine modes."""
    grid = small_grid(64)
    x = grid.meshgrid()[0]
    k, tau, dt = 3, 0.7, 1e-3
    lam = grid.axis_eigenvalues_neumann(0)[k]
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
    mu_exact = pot.beta_eps(pot.regular(), 1e-2, m) + pot.pi(pot.regular(), m)
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
    state1 = solver.step_coupled_neumann(state0, data, cfg)
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
    state1 = solver.step_coupled_neumann(state0, data, cfg)
    dphi = (state1.phi - state0.phi) / cfg.dt
    lhs = (data.tau * dphi - laplacian_neumann(grid, state1.phi)
           + state1.xi + pot.pi(data.spec, state0.phi))
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
    state1 = solver.step_galerkin_neumann(state0, data, cfg)
    dphi = (state1.phi - state0.phi) / cfg.dt
    assert np.allclose(dphi, laplacian_neumann(grid, state1.mu), atol=1e-7)
    lhs = (data.tau * dphi - laplacian_neumann(grid, state1.phi)
           + state1.xi + pot.pi(data.spec, state0.phi)
           + smc.apply_S_eps(data.control, state0.phi))
    assert np.allclose(lhs, state1.mu, atol=1e-8)
    assert state1.newton_iters > 0


def test_dirichlet_step_recovers_potential():
    grid = small_grid()
    data = dirichlet_problem(grid, pot.regular(), cosine_data(grid, k=2),
                             datum=lambda x, t: 0.3)
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.0,
                              scheme="eliminated_dirichlet")
    state0 = solver._initial_snapshot(data, cfg)
    state1 = solver.step_eliminated_dirichlet(state0, data, cfg)
    from chsmc.grid import harmonic_extension, laplacian_dirichlet
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
    state1 = solver.step_eliminated(state0, data, cfg)
    assert state1.newton_iters > 0
    assert np.array_equal(state1.xi,
                          pot.beta_eps(data.spec, cfg.eps, state1.phi))
    G, P, _ = solver._regime(grid, kind)
    X = grid.meshgrid()
    t = cfg.dt
    mu_H = (harmonic_extension(grid, data.bc.datum, t)
            if kind == "dirichlet" else 0.0)
    rest = (pot.beta_eps(data.spec, cfg.eps, state1.phi)
            + solver._explicit_part(data, X, state0.phi, t) - data.g(X, t))
    mu = mu_H - G((state1.phi - state0.phi) / cfg.dt) + (rest - P(rest))
    assert np.max(np.abs(state1.mu - mu)) <= 1e-13 * np.max(np.abs(mu))


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
    bprime = np.full(grid2d.shape, 3.7)
    apply_J, precond = solver._jacobian(
        grid2d, solver._regime(grid2d, "neumann"), 0.7, 1e-3, bprime)
    w = precond(apply_J(v))
    assert grid2d.l2_norm(w - v) <= 1e-12 * grid2d.l2_norm(v)


def test_newton_raises_on_indefinite_jacobian():
    grid = small_grid()

    def jacobian(x):
        return (lambda v: -v), None

    with pytest.raises(NewtonError, match="breakdown"):
        solver._newton(lambda x: x - 1.0, jacobian, grid.zeros(), grid,
                       lambda x: x)


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

    def fail_once(state, data, cfg, dt=None):
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


# -- energy decay -----------------------------------------------------------


def test_convex_splitting_energy_inequality():
    grid = small_grid()
    spec = pot.regular()
    data = neumann_problem(grid, spec, cosine_data(grid, amp=0.8, offset=0.0))
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.0,
                              scheme="coupled_neumann")
    state = solver._initial_snapshot(data, cfg)
    for _ in range(30):
        new = solver.step_coupled_neumann(state, data, cfg)
        e_old = pot.free_energy(grid, state.phi, spec, eps=cfg.eps,
                                gradient="faces")
        e_new = pot.free_energy(grid, new.phi, spec, eps=cfg.eps,
                                gradient="faces")
        diss = (data.tau / cfg.dt * grid.l2_norm(new.phi - state.phi) ** 2
                + cfg.dt * grid.gradient_energy(new.mu, scheme="faces"))
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
        ref = pot.free_energy(grid, snap.phi, spec, eps=cfg.eps,
                              gradient="faces")
        assert np.isfinite(fe)
        assert fe == pytest.approx(ref, rel=1e-12, abs=1e-12)


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
    with pytest.raises(MissingDataError):
        solver.assemble_G_eps(state, data)


def test_zero_horizon_returns_initial_state_only():
    grid = small_grid()
    data = neumann_problem(grid, pot.regular(), cosine_data(grid))
    cfg = solver.SolverConfig(eps=1e-2, dt=1e-3, T=0.0,
                              scheme="coupled_neumann")
    traj = solver.run(data, cfg)
    assert len(traj.snapshots) == 1
    assert traj.snapshots[0].t == 0.0
