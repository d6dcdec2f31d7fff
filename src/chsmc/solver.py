"""Time integration of the regularized controlled Cahn-Hilliard system.

Three stepping modes share one semi-implicit splitting (backward Euler in
time, Yosida term implicit, Lipschitz perturbation and control explicit):

* ``coupled_neumann`` — zero-flux conditions for the chemical potential;
  the potential is eliminated through the mean-free inverse Laplacian, so
  the mean of the order parameter is conserved exactly.
* ``eliminated_dirichlet`` — prescribed boundary values for the potential;
  after homogenization by a harmonic extension, the potential is
  eliminated via mu = -D(dphi/dt) and the step solves a single equation
  in phi with the operator tau*I + D.
* ``galerkin_neumann`` — spectral projection onto the first n zero-flux
  cosine modes, nonlinearities by collocation.

The two finite-difference steppers use matrix-free Newton.  Each Newton
system is solved tightly by conjugate gradients preconditioned with the
exact DCT-II inverse of the Jacobian's constant-coefficient part (fast
direct solvers as preconditioners, Concus & Golub 1973), so a step takes
about as many Newton iterations as exact Newton.  The Galerkin stepper
solves its small dense Newton systems directly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field
from typing import Callable, List, Optional

import numpy as np

from . import potentials as pot
from . import smc
from .errors import (ConfigError, MissingDataError, NewtonError,
                     ModeRangeError, SolveError)
from .grid import (Grid, NeumannEigenbasis, apply_cosine_symbol,
                   harmonic_extension, inverse_dirichlet, inverse_neumann,
                   laplacian_neumann, neumann_eigenbasis, pcg)


@dataclass(frozen=True)
class MuBoundaryCondition:
    """Boundary regime for the chemical potential.

    ``kind`` is "neumann" (zero flux) or "dirichlet"; in the latter case
    ``datum`` maps (boundary point, t) to the prescribed value.
    """

    kind: str
    datum: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in ("neumann", "dirichlet"):
            raise ConfigError(f"unknown bc kind {self.kind!r}")
        if self.kind == "dirichlet" and self.datum is None:
            raise ConfigError("dirichlet bc needs a datum callable")


def neumann_bc() -> MuBoundaryCondition:
    return MuBoundaryCondition(kind="neumann")


def dirichlet_bc(datum: Callable) -> MuBoundaryCondition:
    return MuBoundaryCondition(kind="dirichlet", datum=datum)


@dataclass
class ProblemData:
    """Continuous problem data sampled on a grid.

    ``g`` and ``phistar`` are callables (X, t) -> field where X is the
    tuple of cell-center coordinate arrays; ``dphistar_dt`` and
    ``lap_phistar`` are optional and only needed by the comparison-drift
    diagnostics.
    """

    grid: Grid
    spec: pot.PotentialSpec
    phi0: np.ndarray
    g: Callable
    phistar: Callable
    bc: MuBoundaryCondition
    tau: float
    control: smc.SmcParams
    dphistar_dt: Optional[Callable] = None
    lap_phistar: Optional[Callable] = None

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ConfigError("tau must be positive")
        if self.phi0.shape != self.grid.shape:
            raise ConfigError("phi0 shape does not match grid")
        lo, hi = self.spec.lo, self.spec.hi
        if np.any(self.phi0 < lo) or np.any(self.phi0 > hi):
            raise ConfigError("phi0 leaves the closure of the beta domain")
        if self.bc.kind == "neumann":
            m = self.grid.mean(self.phi0)
            if not lo < m < hi:
                raise ConfigError(
                    "mean(phi0) must lie in the interior of the beta domain")


@dataclass
class SolverConfig:
    eps: float
    dt: float
    T: float
    scheme: str  # "coupled_neumann" | "eliminated_dirichlet" | "galerkin_neumann"
    n_modes: int = 0
    newton_tol: float = 1e-10
    newton_max: int = 50
    output_times: Optional[List[float]] = None
    galerkin_integrator: str = "backward_euler"  # or "rk4"

    def __post_init__(self):
        if self.scheme not in ("coupled_neumann", "eliminated_dirichlet",
                               "galerkin_neumann"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if not (self.eps > 0.0 and self.dt > 0.0 and self.T >= 0.0):
            raise ConfigError("need eps, dt > 0 and T >= 0")


_SCHEME_BC = {"coupled_neumann": "neumann",
              "galerkin_neumann": "neumann",
              "eliminated_dirichlet": "dirichlet"}


@dataclass(frozen=True)
class StateSnapshot:
    """(t, phi, mu, xi, zeta) with the regularized selections
    xi = beta_eps(phi) and zeta = rho*sign_eps(phi - phistar)."""

    t: float
    phi: np.ndarray
    mu: np.ndarray
    xi: np.ndarray
    zeta: np.ndarray
    newton_iters: int = 0


@dataclass
class DiagnosticsSeries:
    """Per-step scalar diagnostics, written as CSV."""

    t: List[float] = dc_field(default_factory=list)
    mean_phi: List[float] = dc_field(default_factory=list)
    free_energy_reg: List[float] = dc_field(default_factory=list)
    sup_chi: List[float] = dc_field(default_factory=list)
    sup_G_eps: List[float] = dc_field(default_factory=list)
    dual_norm_dphi: List[float] = dc_field(default_factory=list)
    newton_iters: List[int] = dc_field(default_factory=list)

    COLUMNS = ("t", "mean_phi", "free_energy_reg", "sup_chi", "sup_G_eps",
               "dual_norm_dphi", "newton_iters")

    def append(self, **kw):
        for col in self.COLUMNS:
            getattr(self, col).append(kw[col])

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(self.COLUMNS) + "\n")
            for row in zip(*(getattr(self, c) for c in self.COLUMNS)):
                fh.write(",".join(repr(v) for v in row) + "\n")


@dataclass
class Trajectory:
    """Snapshots at the requested output times plus per-step diagnostics."""

    grid: Grid
    bc_kind: str
    snapshots: List[StateSnapshot]
    diagnostics: DiagnosticsSeries
    data: Optional[ProblemData] = None
    cfg: Optional[SolverConfig] = None


# -- Newton-Krylov core ------------------------------------------------


# Inner CG: relative tolerance, and an absolute floor as a fraction of the
# Newton tolerance so that CG stops before chasing roundoff once the
# residual is near that tolerance.
_INNER_RTOL = 1e-6
_INNER_FLOOR = 0.1


def _newton(residual, jacobian, x0, grid, tol, maxiter,
            postprocess=None):
    """Matrix-free Newton; absolute tolerance on the L2 residual norm.

    ``jacobian(x)`` returns the Jacobian action at the current iterate and
    a preconditioner built from the same linearization.  Each Newton
    system is solved by preconditioned CG to a relative tolerance of
    ``_INNER_RTOL``, or until its residual is below ``_INNER_FLOOR * tol``
    in the grid L2 norm, so the outer iteration converges like exact
    Newton.  A CG breakdown raises :class:`NewtonError`.
    """
    floor = _INNER_FLOOR * tol / np.sqrt(grid.cell_volume)
    x = x0.copy()
    for it in range(maxiter):
        r = residual(x)
        rnorm = grid.l2_norm(r)
        if not np.isfinite(rnorm):
            raise NewtonError("non-finite residual")
        if rnorm <= tol:
            return x, it
        apply_J, precond = jacobian(x)
        try:
            dx = pcg(apply_J, -r, precond, rtol=_INNER_RTOL, atol=floor)
        except SolveError as exc:
            raise NewtonError(f"inner solve failed: {exc}") from exc
        x = x + dx
        if postprocess is not None:
            x = postprocess(x)
    raise NewtonError(f"Newton did not converge (residual {rnorm:.3e})")


def _cosine_preconditioner(grid: Grid, shift: float, dt: float,
                           offset: float):
    """Exact inverse of shift - Lap_N + (dt*(offset - Lap_N))^+ in the
    DCT-II basis, as a preconditioner.

    The symbol 1/(shift + lam + 1/(dt*(lam + offset))) is written as
    k/(k*(shift + lam) + 1) with k = dt*(lam + offset), so for offset 0
    the zero mode is removed without a division by zero.
    """
    lam = grid.eigenvalues("neumann")
    k = dt * (lam + offset)
    symbol = k / (k * (shift + lam) + 1.0)
    return lambda r: apply_cosine_symbol(grid, r, symbol)


def _jacobian_coupled(grid: Grid, tau: float, dt: float,
                      bprime: np.ndarray):
    """Jacobian action of the coupled zero-flux residual on mean-free
    fields, and its preconditioner (exact when ``bprime`` is constant)."""

    def project(u):
        return u - grid.mean(u)

    def apply_J(v):
        return (tau * v / dt
                - laplacian_neumann(grid, v)
                + project(bprime * v)
                + inverse_neumann(grid, project(v)) / dt)

    shift = tau / dt + grid.mean(bprime)
    return apply_J, _cosine_preconditioner(grid, shift, dt, 0.0)


def _jacobian_dirichlet(grid: Grid, tau: float, dt: float,
                        bprime: np.ndarray):
    """Jacobian action of the eliminated Dirichlet residual and its
    preconditioner.  D = (-Lap_D)^{-1} is diagonal in the DST basis, not
    the DCT one, so the preconditioner stands in the DCT symbol
    1/(lam_N + lam_D,min), which shares D's largest eigenvalue and decay;
    the mismatch is small next to tau/dt.
    """

    def apply_J(v):
        return (tau * v / dt
                + inverse_dirichlet(grid, v) / dt
                - laplacian_neumann(grid, v)
                + bprime * v)

    shift = tau / dt + grid.mean(bprime)
    lam_d_min = float(grid.eigenvalues("dirichlet").flat[0])
    return apply_J, _cosine_preconditioner(grid, shift, dt, lam_d_min)


# -- steppers ----------------------------------------------------------


def _explicit_part(data: ProblemData, X, phi_n, t_new):
    chi_n = phi_n - data.phistar(X, t_new)
    zeta = data.control.rho * smc.sign_eps(data.control.eps, chi_n)
    return pot.pi(data.spec, phi_n) + zeta


def step_coupled_neumann(state: StateSnapshot, data: ProblemData,
                         cfg: SolverConfig,
                         dt: Optional[float] = None) -> StateSnapshot:
    """One backward-Euler step of the coupled zero-flux system.

    The potential is eliminated on the mean-free subspace through the
    inverse Neumann Laplacian; its mean is recovered from the spatial
    average of the potential equation.  The mean of phi is conserved
    exactly by construction.
    """
    grid = data.grid
    dt = cfg.dt if dt is None else dt
    t_new = state.t + dt
    X = grid.meshgrid()
    m = grid.mean(state.phi)
    psi_n = state.phi - m
    expl = _explicit_part(data, X, state.phi, t_new)
    gval = data.g(X, t_new)
    rhs_fixed = expl - gval

    def project(u):
        return u - grid.mean(u)

    def residual(psi):
        phi = m + psi
        bval = pot.beta_eps(data.spec, cfg.eps, phi)
        return (data.tau * (psi - psi_n) / dt
                - laplacian_neumann(grid, phi)
                + project(bval + rhs_fixed)
                + inverse_neumann(grid, psi - psi_n) / dt)

    def jacobian(psi):
        bprime = pot.beta_eps_prime(data.spec, cfg.eps, m + psi)
        return _jacobian_coupled(grid, data.tau, dt, bprime)

    psi, iters = _newton(residual, jacobian, psi_n, grid,
                         cfg.newton_tol, cfg.newton_max,
                         postprocess=project)
    phi = m + psi
    xi = pot.beta_eps(data.spec, cfg.eps, phi)
    mu_tilde = -inverse_neumann(grid, (psi - psi_n) / dt)
    # mean of mu from the spatial average of the potential equation
    mu_mean = grid.mean(xi + expl - gval)
    mu = mu_mean + mu_tilde
    chi = phi - data.phistar(X, t_new)
    zeta = data.control.rho * smc.sign_eps(data.control.eps, chi)
    return StateSnapshot(t=t_new, phi=phi, mu=mu, xi=xi, zeta=zeta,
                         newton_iters=iters)


def step_eliminated_dirichlet(state: StateSnapshot, data: ProblemData,
                              cfg: SolverConfig,
                              dt: Optional[float] = None,
                              mu_H: Optional[np.ndarray] = None
                              ) -> StateSnapshot:
    """One backward-Euler step of the eliminated Dirichlet system
    (tau*I + D) dphi/dt - Lap phi + beta_eps(phi) + explicit = g - mu_H."""
    grid = data.grid
    dt = cfg.dt if dt is None else dt
    t_new = state.t + dt
    X = grid.meshgrid()
    if mu_H is None:
        mu_H = harmonic_extension(grid, data.bc.datum, t_new)
    phi_n = state.phi
    expl = _explicit_part(data, X, phi_n, t_new)
    gstar = data.g(X, t_new) - mu_H
    rhs_fixed = expl - gstar

    def residual(phi):
        bval = pot.beta_eps(data.spec, cfg.eps, phi)
        return (data.tau * (phi - phi_n) / dt
                + inverse_dirichlet(grid, (phi - phi_n) / dt)
                - laplacian_neumann(grid, phi)
                + bval + rhs_fixed)

    def jacobian(phi):
        bprime = pot.beta_eps_prime(data.spec, cfg.eps, phi)
        return _jacobian_dirichlet(grid, data.tau, dt, bprime)

    phi, iters = _newton(residual, jacobian, phi_n, grid,
                         cfg.newton_tol, cfg.newton_max)
    mu = -inverse_dirichlet(grid, (phi - phi_n) / dt) + mu_H
    xi = pot.beta_eps(data.spec, cfg.eps, phi)
    chi = phi - data.phistar(X, t_new)
    zeta = data.control.rho * smc.sign_eps(data.control.eps, chi)
    return StateSnapshot(t=t_new, phi=phi, mu=mu, xi=xi, zeta=zeta,
                         newton_iters=iters)


def step_galerkin_neumann(coeffs: np.ndarray, t: float, data: ProblemData,
                          cfg: SolverConfig, basis: NeumannEigenbasis,
                          dt: Optional[float] = None) -> np.ndarray:
    """One step of the spectral system in the zero-flux cosine basis.

    With A = diag(lambda), the combined system reads
    (I + tau*A) c' + A*(A c + P[N(u)] + P[sigma(u)] - P[g]) = 0 where the
    nonlinearities are evaluated by collocation.  Backward Euler (with the
    same splitting as the finite-difference steppers) or explicit RK4.
    """
    grid = data.grid
    dt = cfg.dt if dt is None else dt
    t_new = t + dt
    X = grid.meshgrid()
    lam = basis.eigenvalues
    scale = lam / (1.0 + data.tau * lam)

    if cfg.galerkin_integrator == "rk4":
        crit = dt * np.max(lam**2 / (1.0 + data.tau * lam))
        if crit > 2.0:
            warnings.warn(
                f"RK4 stability indicator dt*lam^2/(1+tau*lam) = {crit:.2f}"
                " exceeds 2; expect blow-up", stacklevel=2)

        def rate(c, s):
            u = basis.synthesize(c)
            nl = (pot.beta_eps(data.spec, cfg.eps, u)
                  + _explicit_part_nl(data, X, u, s))
            gc = basis.project(data.g(X, s))
            return -scale * (lam * c + basis.project(nl) - gc)

        k1 = rate(coeffs, t)
        k2 = rate(coeffs + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rate(coeffs + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rate(coeffs + dt * k3, t_new)
        return coeffs + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    # backward Euler, Yosida term implicit, perturbation/control explicit
    u_n = basis.synthesize(coeffs)
    expl = _explicit_part(data, X, u_n, t_new)
    fixed = basis.project(expl - data.g(X, t_new))

    def F(c):
        u = basis.synthesize(c)
        b = basis.project(pot.beta_eps(data.spec, cfg.eps, u))
        return c - coeffs + dt * scale * (lam * c + b + fixed)

    c = coeffs.copy()
    n = basis.n
    E = basis.modes.reshape(n, -1)
    w = grid.cell_volume
    for it in range(cfg.newton_max):
        r = F(c)
        if np.linalg.norm(r) <= cfg.newton_tol:
            return c
        u = basis.synthesize(c)
        bp = pot.beta_eps_prime(data.spec, cfg.eps, u).reshape(-1)
        B = (E * bp) @ E.T * w
        J = np.eye(n) + dt * scale[:, None] * (np.diag(lam) + B)
        c = c - np.linalg.solve(J, r)
    raise NewtonError("Galerkin Newton did not converge")


def _explicit_part_nl(data, X, u, t):
    chi = u - data.phistar(X, t)
    return (pot.pi(data.spec, u)
            + data.control.rho * smc.sign_eps(data.control.eps, chi))


# -- runner ------------------------------------------------------------


def assemble_G_eps(state: StateSnapshot, data: ProblemData) -> np.ndarray:
    """Comparison drift G = mu + g - pi(phi) - tau*d_t phistar - Lap phistar."""
    if data.dphistar_dt is None or data.lap_phistar is None:
        raise MissingDataError(
            "assemble_G_eps needs dphistar_dt and lap_phistar")
    X = data.grid.meshgrid()
    return (state.mu + data.g(X, state.t) - pot.pi(data.spec, state.phi)
            - data.tau * data.dphistar_dt(X, state.t)
            - data.lap_phistar(X, state.t))


def _initial_snapshot(data: ProblemData, cfg: SolverConfig) -> StateSnapshot:
    grid = data.grid
    X = grid.meshgrid()
    phi = data.phi0.copy()
    if data.bc.kind == "dirichlet":
        mu = harmonic_extension(grid, data.bc.datum, 0.0)
    else:
        mu = grid.zeros()  # placeholder: mu is defined by the first step
    xi = pot.beta_eps(data.spec, cfg.eps, phi)
    chi = phi - data.phistar(X, 0.0)
    zeta = data.control.rho * smc.sign_eps(data.control.eps, chi)
    return StateSnapshot(t=0.0, phi=phi, mu=mu, xi=xi, zeta=zeta)


def _record(diag: DiagnosticsSeries, grid: Grid, data: ProblemData,
            cfg: SolverConfig, state: StateSnapshot,
            prev_phi: Optional[np.ndarray], dt: float):
    X = grid.meshgrid()
    chi = state.phi - data.phistar(X, state.t)
    fe = pot.free_energy(grid, state.phi, data.spec, eps=cfg.eps,
                         gradient="faces")
    if (data.bc.kind == "dirichlet" and data.dphistar_dt is not None
            and data.lap_phistar is not None):
        supG = grid.sup_norm(assemble_G_eps(state, data))
    else:
        supG = float("nan")
    if prev_phi is None:
        dn = 0.0
    else:
        dphi = (state.phi - prev_phi) / dt
        from .grid import dual_norm
        if data.bc.kind == "neumann":
            dn = dual_norm(grid, dphi, "neumann")
        else:
            dn = dual_norm(grid, dphi, "dirichlet")
    diag.append(t=state.t, mean_phi=grid.mean(state.phi),
                free_energy_reg=fe, sup_chi=grid.sup_norm(chi),
                sup_G_eps=supG, dual_norm_dphi=dn,
                newton_iters=state.newton_iters)


def _advance(state, data, cfg, dt, basis, coeffs, depth=0):
    """One step with halving-on-failure (depth-bounded)."""
    try:
        if cfg.scheme == "coupled_neumann":
            return step_coupled_neumann(state, data, cfg, dt=dt), None
        if cfg.scheme == "eliminated_dirichlet":
            return step_eliminated_dirichlet(state, data, cfg, dt=dt), None
        new_coeffs = step_galerkin_neumann(coeffs, state.t, data, cfg,
                                           basis, dt=dt)
        grid = data.grid
        X = grid.meshgrid()
        t_new = state.t + dt
        phi = basis.synthesize(new_coeffs)
        xi = pot.beta_eps(data.spec, cfg.eps, phi)
        chi = phi - data.phistar(X, t_new)
        zeta = data.control.rho * smc.sign_eps(data.control.eps, chi)
        # spectral potential from the projected second equation
        eta = (data.tau * (new_coeffs - coeffs) / dt
               + basis.eigenvalues * new_coeffs
               + basis.project(xi + _explicit_part_nl(data, X, phi, t_new)
                               - data.g(X, t_new)))
        mu = basis.synthesize(eta)
        snap = StateSnapshot(t=t_new, phi=phi, mu=mu, xi=xi, zeta=zeta)
        return snap, new_coeffs
    except NewtonError:
        if depth >= 8:
            raise NewtonError(
                f"step failed at t = {state.t} even after halving 8 times")
        half, coeffs_half = _advance(state, data, cfg, dt / 2, basis,
                                     coeffs, depth + 1)
        return _advance(half, data, cfg, dt / 2, basis,
                        coeffs_half if coeffs_half is not None else coeffs,
                        depth + 1)


def run(data: ProblemData, cfg: SolverConfig) -> Trajectory:
    """Integrate from 0 to T; snapshots at the requested output times
    (t = 0 always included), diagnostics at every step."""
    if _SCHEME_BC[cfg.scheme] != data.bc.kind:
        raise ConfigError(
            f"scheme {cfg.scheme} incompatible with bc {data.bc.kind}")
    grid = data.grid
    if cfg.scheme == "galerkin_neumann":
        if cfg.n_modes < 1:
            raise ModeRangeError("galerkin scheme needs n_modes >= 1")
        basis = neumann_eigenbasis(grid, cfg.n_modes)
        coeffs = basis.project(data.phi0)
    else:
        basis = None
        coeffs = None
    rho, s_eps = data.control.rho, data.control.eps
    if cfg.dt * rho / (data.tau * s_eps) > 1.0:
        warnings.warn(
            "explicit control term is stiff: dt*rho/(tau*eps) = "
            f"{cfg.dt * rho / (data.tau * s_eps):.2f} > 1", stacklevel=2)

    nsteps = int(round(cfg.T / cfg.dt)) if cfg.T > 0 else 0
    out_times = cfg.output_times
    if out_times is None:
        out_times = [cfg.T] if cfg.T > 0 else []
    remaining = sorted(t for t in out_times if t > 0.0)

    state = _initial_snapshot(data, cfg)
    snapshots = [state]
    diag = DiagnosticsSeries()
    _record(diag, grid, data, cfg, state, None, cfg.dt)
    prev_phi = state.phi
    for n in range(nsteps):
        try:
            state, coeffs_new = _advance(state, data, cfg, cfg.dt, basis,
                                         coeffs)
            if coeffs_new is not None:
                coeffs = coeffs_new
        except NewtonError as exc:
            raise NewtonError(f"{exc} (t = {state.t + cfg.dt:g})") from exc
        _record(diag, grid, data, cfg, state, prev_phi, cfg.dt)
        prev_phi = state.phi
        while remaining and state.t >= remaining[0] - 0.5 * cfg.dt:
            snapshots.append(state)
            remaining.pop(0)
    return Trajectory(grid=grid, bc_kind=data.bc.kind, snapshots=snapshots,
                      diagnostics=diag, data=data, cfg=cfg)
