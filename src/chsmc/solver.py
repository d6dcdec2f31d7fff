"""Time integration of the regularized controlled Cahn-Hilliard system.

All schemes share one semi-implicit splitting (backward Euler in time,
Yosida term implicit, Lipschitz perturbation and control explicit).

The finite-difference schemes ``coupled_neumann`` (zero flux for the
chemical potential) and ``eliminated_dirichlet`` (prescribed boundary
values) are one stepper, :func:`step_eliminated`.  It eliminates the
potential through the inverse Laplacian of its boundary regime: the
mean-free Neumann inverse N, which conserves the mean of the order
parameter exactly, or the Dirichlet inverse D after the harmonic
extension of the datum is subtracted.  Each step solves one equation for
the increment of phi by matrix-free Newton; each Newton system is solved
tightly by conjugate gradients preconditioned with the DCT-II inverse of
the Jacobian's constant-coefficient part (fast direct solvers as
preconditioners, Concus & Golub 1973), so a step takes about as many
Newton iterations as exact Newton.

``galerkin_neumann`` projects onto the first n zero-flux cosine modes,
with the nonlinearities evaluated by collocation; it solves its small
dense Newton systems directly and is kept as an independent check of the
finite-difference stepper.

Every stepper takes ``(state, data, cfg, dt=None)`` and returns the next
:class:`StateSnapshot`, with mu recovered and the Newton iterations
counted.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, List, Optional

import numpy as np

from . import potentials as pot
from . import smc
from .errors import ConfigError, MissingDataError, NewtonError, SolveError
from .grid import (Grid, apply_cosine_symbol, harmonic_extension,
                   inverse_dirichlet, inverse_neumann, laplacian_neumann,
                   neumann_eigenbasis, pcg)


@dataclass(frozen=True)
class MuBoundaryCondition:
    """Boundary regime for the chemical potential.

    ``kind`` is "neumann" (zero flux) or "dirichlet"; in the latter case
    ``datum`` is a callable (X, t) -> values like the other data, called
    once per boundary side with X the face-center coordinate arrays of
    that side (:meth:`Grid.boundary_sides`).  Its result must broadcast
    to ``X[0]``, so a datum returning a scalar is a constant.
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
    """Dirichlet regime with ``datum(X, t)`` on the boundary faces."""
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
        if not 0.0 < self.tau < np.inf:
            raise ConfigError("tau must be positive and finite")
        if self.phi0.shape != self.grid.shape:
            raise ConfigError("phi0 shape does not match grid")
        if not np.all(np.isfinite(self.phi0)):
            raise ConfigError("phi0 has non-finite values")
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
    output_times: Optional[List[float]] = None

    def __post_init__(self):
        if self.scheme not in ("coupled_neumann", "eliminated_dirichlet",
                               "galerkin_neumann"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if not (0.0 < self.eps < np.inf and 0.0 < self.dt < np.inf
                and 0.0 <= self.T < np.inf):
            raise ConfigError("need finite eps, dt > 0 and T >= 0")


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


# Newton, in every stepper: absolute tolerance on the residual norm and
# iteration cap.  Inner CG: relative tolerance, and an absolute floor as a
# fraction of the Newton tolerance so that CG stops before chasing
# roundoff once the residual is near that tolerance.
NEWTON_TOL = 1e-10
NEWTON_MAX = 50
_INNER_RTOL = 1e-6
_INNER_FLOOR = 0.1


def _newton(residual, jacobian, x0, grid, project):
    """Matrix-free Newton to ``NEWTON_TOL`` on the L2 residual norm; each
    new iterate is passed through ``project``.

    ``jacobian(x)`` returns the Jacobian action at the current iterate and
    a preconditioner built from the same linearization.  Each Newton
    system is solved by preconditioned CG to a relative tolerance of
    ``_INNER_RTOL``, or until its residual is below ``_INNER_FLOOR`` times
    the Newton tolerance in the grid L2 norm, so the outer iteration
    converges like exact Newton.  A CG breakdown raises
    :class:`NewtonError`.  The returned iterate is the one of the last
    ``residual`` call, so a caller may reuse what that call computed.
    """
    floor = _INNER_FLOOR * NEWTON_TOL / np.sqrt(grid.cell_volume)
    x = x0.copy()
    for it in range(NEWTON_MAX):
        r = residual(x)
        rnorm = grid.l2_norm(r)
        if not np.isfinite(rnorm):
            raise NewtonError("non-finite residual")
        if rnorm <= NEWTON_TOL:
            return x, it
        apply_J, precond = jacobian(x)
        try:
            dx = pcg(apply_J, -r, precond, rtol=_INNER_RTOL, atol=floor)
        except SolveError as exc:
            raise NewtonError(f"inner solve failed: {exc}") from exc
        x = project(x + dx)
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


def _regime(grid: Grid, bc_kind: str):
    """(G, P, offset) of the potential's boundary regime: the inverse
    Laplacian G, the projection P and the preconditioner offset.

    Zero flux: G = N o P, P the mean-free projection, offset 0.
    Dirichlet: G = D = (-Lap_D)^{-1}, P = I, offset lam_D,min.  D is
    diagonal in the DST basis, so the DCT symbol 1/(lam_N + lam_D,min)
    only stands in for it; the mismatch is small next to tau/dt.
    """
    if bc_kind == "neumann":
        def P(u):
            return u - grid.mean(u)

        def G(u):
            return inverse_neumann(grid, P(u))
        return G, P, 0.0

    def G(u):
        return inverse_dirichlet(grid, u)
    return G, (lambda u: u), float(grid.eigenvalues("dirichlet").flat[0])


def _jacobian(grid: Grid, regime, tau: float, dt: float, bprime: np.ndarray):
    """Jacobian action of the eliminated residual and its preconditioner
    (exact for zero flux when ``bprime`` is constant), for the ``_regime``
    the stepper built."""
    G, P, offset = regime

    def apply_J(v):
        return (tau * v / dt
                + G(v) / dt
                - laplacian_neumann(grid, v)
                + P(bprime * v))

    shift = tau / dt + grid.mean(bprime)
    return apply_J, _cosine_preconditioner(grid, shift, dt, offset)


# -- steppers ----------------------------------------------------------


def _explicit_part(data: ProblemData, X, phi, t):
    chi = phi - data.phistar(X, t)
    return pot.pi(data.spec, phi) + smc.apply_S_eps(data.control, chi)


def step_eliminated(state: StateSnapshot, data: ProblemData,
                    cfg: SolverConfig,
                    dt: Optional[float] = None) -> StateSnapshot:
    """One backward-Euler step of the finite-difference system with the
    potential eliminated through the inverse Laplacian G of its regime.

    Solves for the increment d = phi - phi^n, starting from 0,

        tau d/dt + G(d)/dt - Lap_N phi + P[beta_eps(phi) + explicit - g
                                           + mu_H] = 0,

    and recovers mu = mu_H - G(d)/dt + (I - P)[xi + explicit - g], with
    mu_H the harmonic extension of the Dirichlet datum (0 for zero flux).
    For zero flux d stays mean-free, so the mean of phi is conserved.
    xi = beta_eps(phi) and G(d) are those of Newton's last residual
    evaluation, which was at the returned d.
    """
    grid = data.grid
    dt = cfg.dt if dt is None else dt
    t_new = state.t + dt
    X = grid.meshgrid()
    regime = _regime(grid, data.bc.kind)
    G, P, _ = regime
    mu_H = (harmonic_extension(grid, data.bc.datum, t_new)
            if data.bc.kind == "dirichlet" else 0.0)
    phi_n = state.phi
    expl_g = _explicit_part(data, X, phi_n, t_new) - data.g(X, t_new)
    fixed = expl_g + mu_H
    last = {}

    def residual(d):
        phi = phi_n + d
        last["xi"] = pot.beta_eps(data.spec, cfg.eps, phi)
        last["Gd"] = G(d)
        return (data.tau * d / dt
                + last["Gd"] / dt
                - laplacian_neumann(grid, phi)
                + P(last["xi"] + fixed))

    def jacobian(d):
        bprime = pot.beta_eps_prime(data.spec, cfg.eps, phi_n + d)
        return _jacobian(grid, regime, data.tau, dt, bprime)

    d, iters = _newton(residual, jacobian, grid.zeros(), grid, P)
    phi = phi_n + d
    xi = last["xi"]
    rest = xi + expl_g
    mu = mu_H - last["Gd"] / dt + (rest - P(rest))
    zeta = smc.apply_S_eps(data.control, phi - data.phistar(X, t_new))
    return StateSnapshot(t=t_new, phi=phi, mu=mu, xi=xi, zeta=zeta,
                         newton_iters=iters)


# The scheme names stay bound to the one stepper: configs name them, and
# _advance calls them at call time because bench/tracing.py wraps them.
step_coupled_neumann = step_eliminated
step_eliminated_dirichlet = step_eliminated


def step_galerkin_neumann(state: StateSnapshot, data: ProblemData,
                          cfg: SolverConfig,
                          dt: Optional[float] = None) -> StateSnapshot:
    """One step of the spectral system in the first ``cfg.n_modes``
    zero-flux cosine modes, from the projection of ``state.phi``.

    With A = diag(lambda), the combined system reads
    (I + tau*A) c' + A*(A c + P[N(u)] + P[sigma(u)] - P[g]) = 0 where the
    nonlinearities are evaluated by collocation.  Backward Euler with the
    same splitting as the finite-difference steppers: Yosida term
    implicit, perturbation and control explicit.  mu is recovered from
    the projected second equation with the same explicit part, so
    (c - c^n)/dt = -A eta holds for its coefficients eta.
    """
    grid = data.grid
    dt = cfg.dt if dt is None else dt
    t_new = state.t + dt
    X = grid.meshgrid()
    n = cfg.n_modes
    basis = grid._cached(f"_basis_{n}", lambda: neumann_eigenbasis(grid, n))
    lam = basis.eigenvalues
    scale = lam / (1.0 + data.tau * lam)

    coeffs = basis.project(state.phi)
    u_n = basis.synthesize(coeffs)
    expl = _explicit_part(data, X, u_n, t_new)
    fixed = basis.project(expl - data.g(X, t_new))

    def F(c):
        u = basis.synthesize(c)
        b = basis.project(pot.beta_eps(data.spec, cfg.eps, u))
        return c - coeffs + dt * scale * (lam * c + b + fixed)

    c = coeffs.copy()
    E = basis.modes.reshape(n, -1)
    w = grid.cell_volume
    for it in range(NEWTON_MAX):
        r = F(c)
        if np.linalg.norm(r) <= NEWTON_TOL:
            break
        u = basis.synthesize(c)
        bp = pot.beta_eps_prime(data.spec, cfg.eps, u).reshape(-1)
        B = (E * bp) @ E.T * w
        J = np.eye(n) + dt * scale[:, None] * (np.diag(lam) + B)
        c = c - np.linalg.solve(J, r)
    else:
        raise NewtonError("Galerkin Newton did not converge")
    phi = basis.synthesize(c)
    xi = pot.beta_eps(data.spec, cfg.eps, phi)
    zeta = smc.apply_S_eps(data.control, phi - data.phistar(X, t_new))
    eta = (data.tau * (c - coeffs) / dt + lam * c + basis.project(xi)
           + fixed)
    return StateSnapshot(t=t_new, phi=phi, mu=basis.synthesize(eta), xi=xi,
                         zeta=zeta, newton_iters=it)


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
    zeta = smc.apply_S_eps(data.control, phi - data.phistar(X, 0.0))
    return StateSnapshot(t=0.0, phi=phi, mu=mu, xi=xi, zeta=zeta)


def _record(diag: DiagnosticsSeries, grid: Grid, data: ProblemData,
            cfg: SolverConfig, state: StateSnapshot,
            prev_phi: Optional[np.ndarray], dt: float):
    X = grid.meshgrid()
    chi = state.phi - data.phistar(X, state.t)
    fe = pot.free_energy(grid, state.phi, data.spec, eps=cfg.eps,
                         gradient="faces", xi=state.xi)
    if (data.bc.kind == "dirichlet" and data.dphistar_dt is not None
            and data.lap_phistar is not None):
        supG = grid.sup_norm(assemble_G_eps(state, data))
    else:
        supG = float("nan")
    if prev_phi is None:
        dn = 0.0
    else:
        # imported here: the benchmark tracer patches chsmc.grid.dual_norm,
        # which a module-level import would bypass
        from .grid import dual_norm
        dn = dual_norm(grid, (state.phi - prev_phi) / dt, data.bc.kind)
    diag.append(t=state.t, mean_phi=grid.mean(state.phi),
                free_energy_reg=fe, sup_chi=grid.sup_norm(chi),
                sup_G_eps=supG, dual_norm_dphi=dn,
                newton_iters=state.newton_iters)


def _advance(state, data, cfg, dt, depth=0):
    """One step with halving-on-failure (depth-bounded); each halving warns
    and the result counts the Newton iterations of both halves.  The
    second half ends at state.t + dt, as the whole step would have."""
    try:
        if cfg.scheme == "coupled_neumann":
            return step_coupled_neumann(state, data, cfg, dt=dt)
        if cfg.scheme == "eliminated_dirichlet":
            return step_eliminated_dirichlet(state, data, cfg, dt=dt)
        return step_galerkin_neumann(state, data, cfg, dt=dt)
    except NewtonError as exc:
        if depth >= 8:
            raise NewtonError(
                f"step failed at t = {state.t} even after halving 8 times")
        warnings.warn(f"step from t = {state.t:g} failed with dt = {dt:g} "
                      f"({exc}); retrying as two steps of dt = {dt / 2:g}",
                      stacklevel=2)
        first = _advance(state, data, cfg, dt / 2, depth + 1)
        # state.t + dt - first.t is exact (Sterbenz), so the second half
        # ends at state.t + dt itself
        second = _advance(first, data, cfg, state.t + dt - first.t,
                          depth + 1)
        iters = first.newton_iters + second.newton_iters
        return replace(second, newton_iters=iters)


def run(data: ProblemData, cfg: SolverConfig) -> Trajectory:
    """Integrate from 0 to T in steps of dt, step n ending at n*dt and the
    last one shortened to end exactly at T; snapshots at the requested
    output times (t = 0 always included), diagnostics at every step."""
    if _SCHEME_BC[cfg.scheme] != data.bc.kind:
        raise ConfigError(
            f"scheme {cfg.scheme} incompatible with bc {data.bc.kind}")
    grid = data.grid
    rho, s_eps = data.control.rho, data.control.eps
    if cfg.dt * rho / (data.tau * s_eps) > 1.0:
        warnings.warn(
            "explicit control term is stiff: dt*rho/(tau*eps) = "
            f"{cfg.dt * rho / (data.tau * s_eps):.2f} > 1", stacklevel=2)

    # ceil(T/dt) steps, the last one cut to end exactly at T.  A ratio
    # within 1e-9 (relative, absolute below 1) of a whole number counts as
    # that number, so roundoff in T/dt adds no sliver of a step and a
    # horizon below 1e-9*dt takes none.
    ratio = cfg.T / cfg.dt
    nsteps = math.ceil(ratio - 1e-9 * max(ratio, 1.0))
    out_times = cfg.output_times
    if out_times is None:
        out_times = [cfg.T] if cfg.T > 0 else []
    remaining = sorted(t for t in out_times if t > 0.0)

    state = _initial_snapshot(data, cfg)
    snapshots = [state]
    diag = DiagnosticsSeries()
    _record(diag, grid, data, cfg, state, None, cfg.dt)
    prev_phi = state.phi
    for n in range(1, nsteps + 1):
        # the end time minus the start time is exact (Sterbenz), so the
        # step ends at n*dt (at T for the last), with no drift from
        # summing step lengths
        dt = (n * cfg.dt if n < nsteps else cfg.T) - state.t
        try:
            state = _advance(state, data, cfg, dt)
        except NewtonError as exc:
            raise NewtonError(f"{exc} (t = {state.t + dt:g})") from exc
        _record(diag, grid, data, cfg, state, prev_phi, dt)
        prev_phi = state.phi
        # an output time goes to the step that ends nearest to it; one
        # within roundoff of that step's end is carried exactly
        next_dt = min(cfg.dt, cfg.T - state.t)
        while remaining and state.t >= remaining[0] - 0.5 * next_dt:
            t_out = remaining.pop(0)
            snapshots.append(replace(state, t=t_out)
                             if abs(state.t - t_out) <= 1e-9 * cfg.dt
                             else state)
    return Trajectory(grid=grid, bc_kind=data.bc.kind, snapshots=snapshots,
                      diagnostics=diag, data=data, cfg=cfg)
