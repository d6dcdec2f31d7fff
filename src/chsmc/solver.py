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
the increment of phi by matrix-free Newton.  Its linear algebra lives in
orthonormal DCT-II coefficients, where the Laplacian and the mean-free
projection are diagonal: the increment, the residual and the conjugate
gradient iterates are coefficient arrays, the step operator of
:func:`_regime` is one cosine symbol for zero flux (plus the Dirichlet
inverse, applied on the grid values, for prescribed values), and the
preconditioner is an elementwise product.  Each Newton system is solved
tightly by conjugate gradients preconditioned with the inverse of the
regime's DCT-II step symbol, shifted by the mean of the Jacobian's
diagonal (fast direct solvers as preconditioners, Concus & Golub 1973);
for zero flux and a constant diagonal it is the exact inverse, so a step
takes about as many Newton iterations as exact Newton.  A step evaluates
its data at its end time once (:class:`DataEvaluation`), for its
explicit part, zeta and its diagnostics row.  A step from a state that a
0-iteration step returned, under data byte-equal to that state's,
returns that state at the new time: after the sliding time a sliding
run holds phi still, so most of its steps solve nothing.

``galerkin_neumann`` projects onto the first n zero-flux cosine modes,
with the nonlinearities evaluated by collocation, and solves its small
dense Newton systems directly; it is an independent check of the
finite-difference stepper, whose Newton iteration :func:`_newton` it runs.

Every stepper takes ``(state, data, cfg, dt)`` and returns the next
:class:`StateSnapshot`, with mu recovered and the Newton iterations
counted.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, List, Optional

import numpy as np

from . import potentials as pot
from . import smc
from .errors import ConfigError, NewtonError, SolveError
# inverse_neumann is not called here, but bench/tracing.py wraps it
# under this module's name too
from .grid import (Grid, forward_transform, harmonic_extension,  # noqa: F401
                   inverse_dirichlet, inverse_neumann, inverse_transform,
                   laplacian_neumann, neumann_eigenbasis, pcg)


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


# The schemes, each with the boundary regime it solves.
_SCHEME_BC = {"coupled_neumann": "neumann",
              "galerkin_neumann": "neumann",
              "eliminated_dirichlet": "dirichlet"}


@dataclass
class SolverConfig:
    eps: float
    dt: float
    T: float
    scheme: str  # a key of _SCHEME_BC
    n_modes: int = 0
    output_times: Optional[List[float]] = None

    def __post_init__(self):
        if self.scheme not in _SCHEME_BC:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if not (0.0 < self.eps < np.inf and 0.0 < self.dt < np.inf
                and 0.0 <= self.T < np.inf):
            raise ConfigError("need finite eps, dt > 0 and T >= 0")
        if not self.T / self.dt < np.inf:
            raise ConfigError(f"T/dt = {self.T / self.dt!r}: the step count "
                              "overflows")
        # run carries a time within 1e-9*dt of a step end exactly
        slack = 1e-9 * self.dt
        for t in [] if self.output_times is None else self.output_times:
            if not -slack <= t <= self.T + slack:
                raise ConfigError(
                    f"output time {t!r} is not in [0, T] = [0, {self.T!r}]")


@dataclass(frozen=True)
class DataEvaluation:
    """The problem data at one time t, as :func:`step_eliminated` evaluates
    it at its end time: phistar, g and the harmonic extension mu_H of the
    Dirichlet datum (None for zero flux), and, where :func:`_record`
    records the comparison drift (:func:`_records_drift`), d_t phistar and
    Lap phistar (else None)."""

    phistar: np.ndarray
    g: np.ndarray
    mu_H: Optional[np.ndarray]
    dphistar_dt: Optional[np.ndarray] = None
    lap_phistar: Optional[np.ndarray] = None


def _records_drift(data: ProblemData) -> bool:
    """Whether the diagnostics carry sup|G_eps|: Dirichlet data with both
    target derivatives given."""
    return (data.bc.kind == "dirichlet" and data.dphistar_dt is not None
            and data.lap_phistar is not None)


def _evaluate(data: ProblemData, t: float, drift: bool,
              mu_H: Optional[np.ndarray] = None) -> DataEvaluation:
    """The data at time t, the target derivatives only where ``drift``;
    ``mu_H`` is the caller's harmonic extension at t."""
    X = data.grid.meshgrid()
    return DataEvaluation(
        phistar=data.phistar(X, t), g=data.g(X, t), mu_H=mu_H,
        dphistar_dt=data.dphistar_dt(X, t) if drift else None,
        lap_phistar=data.lap_phistar(X, t) if drift else None)


def _same_data(a: DataEvaluation, b: DataEvaluation) -> bool:
    """Whether two evaluations hold the same mu_H object, which the
    harmonic-extension cache returns for equal boundary values, and
    byte-equal data fields.  A field without ``tobytes`` (a Python scalar
    that a callable returned) matches only itself."""
    try:
        return a.mu_H is b.mu_H and all(
            x is y or x.tobytes() == y.tobytes()
            for x, y in ((a.phistar, b.phistar), (a.g, b.g),
                         (a.dphistar_dt, b.dphistar_dt),
                         (a.lap_phistar, b.lap_phistar)))
    except AttributeError:
        return False


@dataclass(frozen=True)
class StateSnapshot:
    """(t, phi, mu, xi, zeta) with the regularized selections
    xi = beta_eps(phi) and zeta = rho*sign_eps(phi - phistar).

    xi is exactly ``beta_eps(spec, cfg.eps, phi)`` for the run's potential
    and eps, as :func:`_initial_snapshot` and every stepper compute it;
    :func:`step_eliminated` starts Newton from it without solving the
    resolvent again.  ``evaluation`` is the data at t that
    :func:`step_eliminated` solved with, which :func:`_record` reads its
    diagnostics from; None for the initial state and the Galerkin
    stepper's states.  :func:`run` hands out its snapshots without it.  A
    step that leaves phi unchanged returns its start's phi and xi arrays,
    and a step that repeats its start (:func:`step_eliminated`) all of its
    arrays and its evaluation, so consecutive snapshots may share them; no
    code writes into a snapshot's arrays.
    """

    t: float
    phi: np.ndarray
    mu: np.ndarray
    xi: np.ndarray
    zeta: np.ndarray
    newton_iters: int = 0
    evaluation: Optional[DataEvaluation] = None


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
    """Snapshots at the requested output times plus per-step diagnostics,
    with the problem and config of the run that produced them.  A run
    given an ``on_output`` hook passes its snapshots to the hook instead,
    and ``snapshots`` is empty (see :func:`run`)."""

    snapshots: List[StateSnapshot]
    diagnostics: DiagnosticsSeries
    data: ProblemData
    cfg: SolverConfig


# -- Newton-Krylov core ------------------------------------------------


# Newton, in every stepper: absolute tolerance on the residual norm and
# iteration cap.  Inner CG of the finite-difference stepper: relative
# tolerance, and an absolute floor in the grid L2 norm as a fraction of
# the Newton tolerance so that CG stops before chasing roundoff once the
# residual is near that tolerance.
NEWTON_TOL = 1e-10
NEWTON_MAX = 50
_INNER_RTOL = 1e-6
_INNER_FLOOR = 0.1


def _newton(residual, solve, x0, norm, first):
    """Newton to ``NEWTON_TOL`` on ``norm`` of the residual, the one Newton
    iteration of every stepper.  ``residual(x)`` returns ``(r, ev)``, ``ev``
    being what the evaluation computed that the step reuses, and ``first``
    is that pair at ``x0``.  ``solve(x, r, ev)`` returns the step dx with
    J(x) dx = -r.  Returns ``(x, iters, ev)`` at the converged iterate.
    A non-finite residual norm, a :class:`SolveError` from ``solve`` (a
    CG breakdown) and ``NEWTON_MAX`` residual evaluations, ``first``
    included, without convergence raise :class:`NewtonError`.
    """
    x, (r, ev) = x0, first
    for it in range(NEWTON_MAX):
        if it:
            r, ev = residual(x)
        rnorm = norm(r)
        if not np.isfinite(rnorm):
            raise NewtonError("non-finite residual")
        if rnorm <= NEWTON_TOL:
            return x, it, ev
        try:
            dx = solve(x, r, ev)
        except SolveError as exc:
            raise NewtonError(f"inner solve failed: {exc}") from exc
        x = x + dx
    raise NewtonError(f"Newton did not converge (residual {rnorm:.3e})")


def _regime(grid: Grid, bc_kind: str, tau: float, dt: float):
    """The mode factors of the potential's boundary regime for one step of
    length dt: ``(symbol, precondition)``.  ``symbol`` is the part of the
    step operator K(v) = tau*v/dt + G(v)/dt - Lap_N v that is diagonal in
    the DCT-II basis, and ``precondition(shift)`` gives the CG
    preconditioner 1/(S + shift), S the regime's DCT symbol of all of K
    (fast direct solvers as preconditioners, Concus & Golub 1973).

    Zero flux: G = N o P, N the mean-free inverse Laplacian and P the
    mean-free projection, which sets mode 0 to zero.  The DCT-II
    diagonalizes Lap_N exactly and G is its mean-free inverse, so all of
    K is the symbol tau/dt + lam + 1/(dt*lam), with the zero mode's 1/lam
    read as 0; S is that symbol, and the preconditioner drops mode 0, as
    K acts on mean-free d.
    Dirichlet: G = D = (-Lap_D)^{-1}, P = I.  D is diagonal in the DST
    basis, not the DCT one, so the symbol is tau/dt + lam and
    :func:`_step_operator` applies D on the grid values.  S stands in
    1/(dt*(lam + lam_D,min)) for D/dt, a mismatch that is small next to
    tau/dt.
    """
    lam = grid.eigenvalues("neumann")
    symbol = tau / dt + lam
    if bc_kind == "neumann":
        symbol += grid.inverse_eigenvalues("neumann") / dt

        def precondition(shift):
            inverse = 1.0 / (symbol + shift)
            inverse.flat[0] = 0.0
            return inverse
    else:
        lam_d = grid.eigenvalues("dirichlet").flat[0]
        stand_in = symbol + 1.0 / (dt * (lam + lam_d))

        def precondition(shift):
            return 1.0 / (stand_in + shift)
    return symbol, precondition


def _step_operator(grid: Grid, bc_kind: str, symbol: np.ndarray, dt: float,
                   v_hat, v, w: np.ndarray):
    """(coefficients of K(v) + P(w), G(v)/dt) in the DCT-II basis, for the
    step operator K, the inverse Laplacian G and the projection P of
    :func:`_regime` with its ``symbol``; the one definition of K, which
    the residual and the Jacobian of :func:`step_eliminated` share.

    v is given by its coefficients ``v_hat`` and, for Dirichlet, by its
    grid values ``v`` (both None for v = 0).  G(v)/dt is D v/dt for
    Dirichlet, None for zero flux and for v = 0.  ``w`` holds grid values
    and is overwritten.  One forward transform, plus the DST pair of D for
    Dirichlet.
    """
    Gv = None
    if bc_kind == "dirichlet" and v is not None:
        Gv = inverse_dirichlet(grid, v)
        Gv /= dt
        w += Gv
    out = forward_transform(grid, w, "neumann")
    if bc_kind == "neumann":
        out.flat[0] = 0.0  # P
    if v_hat is not None:
        out += symbol * v_hat
    return out, Gv


def _jacobian(grid: Grid, bc_kind: str, symbol: np.ndarray, dt: float,
              bprime: np.ndarray):
    """The Newton Jacobian K + P beta_eps' as a map of DCT-II coefficients:
    one inverse transform, then :func:`_step_operator`."""
    def apply(v_hat):
        v = inverse_transform(grid, v_hat, "neumann")
        return _step_operator(grid, bc_kind, symbol, dt, v_hat, v,
                              bprime * v)[0]
    return apply


# -- steppers ----------------------------------------------------------


def _explicit_part(data: ProblemData, X, phi, t):
    chi = phi - data.phistar(X, t)
    return data.spec.pi(phi) + smc.apply_S_eps(data.control, chi)


def _snapshot(data: ProblemData, t, phi, mu, xi,
              newton_iters=0) -> StateSnapshot:
    """The state at time t, with zeta = rho*sign_eps(phi - phistar(t))."""
    zeta = smc.apply_S_eps(data.control,
                           phi - data.phistar(data.grid.meshgrid(), t))
    return StateSnapshot(t=t, phi=phi, mu=mu, xi=xi, zeta=zeta,
                         newton_iters=newton_iters)


def step_eliminated(state: StateSnapshot, data: ProblemData,
                    cfg: SolverConfig, dt: float) -> StateSnapshot:
    """One backward-Euler step of the finite-difference system with the
    potential eliminated through the inverse Laplacian G of its regime.

    Solves for the increment d = phi - phi^n, starting from 0,

        K(d) - Lap_N phi^n + P[beta_eps(phi) + explicit - g + mu_H] = 0,

    with K(d) = tau d/dt + G(d)/dt - Lap_N d the step operator of
    :func:`_regime`, and recovers mu = mu_H - G(d)/dt + (I - P)[xi +
    explicit - g], with mu_H the harmonic extension of the Dirichlet
    datum (0 for zero flux).

    The step evaluates its data at its end time once
    (:class:`DataEvaluation`); the explicit part, zeta and the returned
    state's ``evaluation``, from which :func:`_record` reads the
    diagnostics, share it.

    Newton's unknown, the residual and the CG iterates are the DCT-II
    coefficient arrays of the module docstring; by Parseval their norms
    are those of the grid values, so the tolerances keep their meaning.
    A residual evaluation is one inverse transform to phi = phi^n + d,
    beta_eps(phi), and :func:`_step_operator`; a CG iteration is one
    inverse transform, beta_eps' v, and :func:`_step_operator`.  For zero
    flux P zeroes mode 0 of the residual and the preconditioner drops it,
    so every CG and Newton iterate keeps that mode exactly 0: d stays
    mean-free with no projection, and the mean of phi is conserved.  A
    step applies the stencil Laplacian once, to phi^n, and takes G(d) for
    mu from the converged coefficients: one inverse transform of
    d_hat/lam for zero flux, the D d of the last residual for Dirichlet.

    Each residual evaluation hands its (phi, xi = beta_eps(phi), G(d)/dt)
    to :func:`_newton`, which passes them to the linear solve at the same
    iterate and returns them with the converged d; the Jacobian
    K + P beta_eps'(phi) takes beta_eps'(phi) from phi and xi.  The first
    residual, at d = 0, takes ``state.xi`` and K(0) = 0, so ``state.xi``
    must be beta_eps(phi^n) with ``cfg.eps`` (the :class:`StateSnapshot`
    contract); a step solves the resolvent once per Newton iteration.  A
    step that converges there, with 0 Newton iterations, applies no G,
    returns ``state.phi`` and ``state.xi`` themselves, not copies, and
    takes zeta from the control term of its explicit part.

    That first residual, forward(P[xi + pi(phi) + zeta - g + mu_H -
    Lap_N phi]), holds neither dt nor mu.  So a step from a state that a
    0-iteration step of the same problem returned, under data byte-equal
    to the data that state carries and the same mu_H object, would give
    that state's (phi, xi, mu, zeta) again: it returns the state itself
    at the new time, with the evaluation it carries, and applies no
    stencil, control or transform.
    """
    grid = data.grid
    kind = data.bc.kind
    t_new = state.t + dt
    now = _evaluate(data, t_new, _records_drift(data),
                    harmonic_extension(grid, data.bc.datum, t_new)
                    if kind == "dirichlet" else None)
    if (state.newton_iters == 0 and state.evaluation is not None
            and _same_data(state.evaluation, now)):
        return StateSnapshot(t=t_new, phi=state.phi, mu=state.mu,
                             xi=state.xi, zeta=state.zeta,
                             evaluation=state.evaluation)
    symbol, precondition = _regime(grid, kind, data.tau, dt)
    mu_H = 0.0 if now.mu_H is None else now.mu_H
    phi_n = state.phi
    # fixed = explicit - g + mu_H - Lap_N phi^n, built in place; only the
    # mean of explicit - g is kept, (I - P) of it for zero-flux mu
    control = smc.apply_S_eps(data.control, phi_n - now.phistar)
    fixed = data.spec.pi(phi_n) + control - now.g
    mean_explicit = grid.mean(fixed)
    fixed += mu_H
    fixed -= laplacian_neumann(grid, phi_n)

    def residual(d_hat):
        d = inverse_transform(grid, d_hat, "neumann")
        phi = phi_n + d
        xi = pot.beta_eps(data.spec, cfg.eps, phi)
        r, Gd = _step_operator(grid, kind, symbol, dt, d_hat, d, xi + fixed)
        return r, (phi, xi, Gd)

    floor = _INNER_FLOOR * NEWTON_TOL / np.sqrt(grid.cell_volume)

    def solve(d_hat, r, ev):
        phi, xi, _ = ev
        bprime = pot.beta_eps_prime(data.spec, cfg.eps, phi, xi)
        inverse = precondition(grid.mean(bprime))
        return pcg(_jacobian(grid, kind, symbol, dt, bprime), -r,
                   lambda r: inverse * r, rtol=_INNER_RTOL, atol=floor)

    # the residual at d = 0, where phi = phi^n and K(0) = 0
    first, _ = _step_operator(grid, kind, symbol, dt, None, None,
                              state.xi + fixed)
    d_hat, iters, (phi, xi, Gd) = _newton(
        residual, solve, grid.zeros(), grid.l2_norm,
        (first, (phi_n, state.xi, 0.0)))
    if kind == "dirichlet":
        mu = mu_H - Gd
    else:
        mu = np.full(grid.shape, grid.mean(xi) + mean_explicit)
        if iters:
            mu -= inverse_transform(
                grid, grid.inverse_eigenvalues("neumann") * d_hat,
                "neumann") / dt
    zeta = (smc.apply_S_eps(data.control, phi - now.phistar) if iters
            else control)
    return StateSnapshot(t=t_new, phi=phi, mu=mu, xi=xi, zeta=zeta,
                         newton_iters=iters, evaluation=now)


# The scheme names stay bound to the one stepper: configs name them, and
# _advance calls them at call time because bench/tracing.py wraps them.
step_coupled_neumann = step_eliminated
step_eliminated_dirichlet = step_eliminated


def step_galerkin_neumann(state: StateSnapshot, data: ProblemData,
                          cfg: SolverConfig, dt: float) -> StateSnapshot:
    """One step of the spectral system in the first ``cfg.n_modes``
    zero-flux cosine modes, from ``state.phi``, which lies in their span.

    With A = diag(lambda), the combined system reads
    (I + tau*A) c' + A*(A c + P[N(u)] + P[sigma(u)] - P[g]) = 0 where the
    nonlinearities are evaluated by collocation.  Backward Euler with the
    same splitting as the finite-difference steppers: Yosida term
    implicit, perturbation and control explicit.  mu is recovered from
    the projected second equation with the same explicit part, so
    (c - c^n)/dt = -A eta holds for its coefficients eta.
    """
    grid = data.grid
    t_new = state.t + dt
    X = grid.meshgrid()
    n = cfg.n_modes
    basis = neumann_eigenbasis(grid, n)
    lam = basis.eigenvalues
    scale = lam / (1.0 + data.tau * lam)

    coeffs = basis.project(state.phi)
    expl = _explicit_part(data, X, state.phi, t_new)
    fixed = basis.project(expl - data.g(X, t_new))
    E = basis.modes.reshape(n, -1)

    def residual(c):
        u = basis.synthesize(c)
        xi = pot.beta_eps(data.spec, cfg.eps, u)
        b = basis.project(xi)
        return c - coeffs + dt * scale * (lam * c + b + fixed), (u, xi, b)

    def solve(c, r, ev):
        u, xi, _ = ev
        bp = pot.beta_eps_prime(data.spec, cfg.eps, u, xi).reshape(-1)
        B = (E * bp) @ E.T * grid.cell_volume
        J = np.eye(n) + dt * scale[:, None] * (np.diag(lam) + B)
        return np.linalg.solve(J, -r)

    # the modes are orthonormal, so the Euclidean norm of the coefficients
    # is the L2 norm of the synthesized residual
    c, iters, (u, xi, b) = _newton(residual, solve, coeffs, np.linalg.norm,
                                   residual(coeffs))
    eta = data.tau * (c - coeffs) / dt + lam * c + b + fixed
    return _snapshot(data, t_new, u, basis.synthesize(eta), xi, iters)


# -- runner ------------------------------------------------------------


def assemble_G_eps(state: StateSnapshot, data: ProblemData,
                   now: Optional[DataEvaluation] = None) -> np.ndarray:
    """Comparison drift G = mu + g - pi(phi) - tau*d_t phistar - Lap phistar
    at ``state.t``, with the data ``now`` evaluated there, target
    derivatives included; evaluated here when None."""
    if data.dphistar_dt is None or data.lap_phistar is None:
        raise ConfigError(
            "assemble_G_eps needs dphistar_dt and lap_phistar")
    if now is None:
        now = _evaluate(data, state.t, True)
    return (state.mu + now.g - data.spec.pi(state.phi)
            - data.tau * now.dphistar_dt - now.lap_phistar)


def _initial_snapshot(data: ProblemData, cfg: SolverConfig) -> StateSnapshot:
    """The state at t = 0: phi0, or for ``galerkin_neumann`` its projection
    onto the modes, which is where the first step starts."""
    grid = data.grid
    phi = data.phi0.copy()
    if cfg.scheme == "galerkin_neumann":
        basis = neumann_eigenbasis(grid, cfg.n_modes)
        phi = basis.synthesize(basis.project(phi))
    if data.bc.kind == "dirichlet":
        mu = harmonic_extension(grid, data.bc.datum, 0.0)
    else:
        mu = grid.zeros()  # placeholder: mu is defined by the first step
    xi = pot.beta_eps(data.spec, cfg.eps, phi)
    return _snapshot(data, 0.0, phi, mu, xi)


def _record(diag: DiagnosticsSeries, data: ProblemData, cfg: SolverConfig,
            state: StateSnapshot, prev: Optional[StateSnapshot], dt: float):
    """Append the diagnostics row of ``state``, which a step of length dt
    reached from ``prev`` (None for t = 0).  chi and G take the data from
    the evaluation that ``state`` carries, or, for a state without one
    (the initial state, the Galerkin stepper's), from a fresh evaluation
    at ``state.t``.

    A state whose phi is ``prev.phi`` itself came from a step that left
    (phi, xi) unchanged (:func:`step_eliminated`): its free energy is the
    previous row's, and the dual norm of its zero increment is 0.0.  If
    it also carries ``prev``'s evaluation, the step repeated ``prev``, and
    so do mean(phi), sup|chi| and sup|G_eps|.  These are the bits that
    evaluating them again would give.
    """
    grid = data.grid
    unmoved = prev is not None and state.phi is prev.phi
    now = state.evaluation
    if unmoved and now is not None and now is prev.evaluation:
        diag.append(t=state.t, mean_phi=diag.mean_phi[-1],
                    free_energy_reg=diag.free_energy_reg[-1],
                    sup_chi=diag.sup_chi[-1], sup_G_eps=diag.sup_G_eps[-1],
                    dual_norm_dphi=0.0, newton_iters=state.newton_iters)
        return
    drift = _records_drift(data)
    if now is None:
        now = _evaluate(data, state.t, drift)
    fe = (diag.free_energy_reg[-1] if unmoved else
          pot.free_energy(grid, state.phi, data.spec, cfg.eps, state.xi))
    supG = (grid.sup_norm(assemble_G_eps(state, data, now)) if drift
            else float("nan"))
    if prev is None or unmoved:
        dn = 0.0
    else:
        # imported here: the benchmark tracer patches chsmc.grid.dual_norm,
        # which a module-level import would bypass
        from .grid import dual_norm
        dn = dual_norm(grid, (state.phi - prev.phi) / dt, data.bc.kind)
    diag.append(t=state.t, mean_phi=grid.mean(state.phi),
                free_energy_reg=fe, sup_chi=grid.sup_norm(state.phi
                                                          - now.phistar),
                sup_G_eps=supG, dual_norm_dphi=dn,
                newton_iters=state.newton_iters)


def _advance(state, data, cfg, dt, depth=0):
    """One step with halving-on-failure (depth-bounded); each halving warns
    and the result counts the Newton iterations of both halves.  The
    second half ends at state.t + dt, as the whole step would have.  A
    failure at the deepest halving raises its own NewtonError."""
    try:
        if cfg.scheme == "coupled_neumann":
            return step_coupled_neumann(state, data, cfg, dt=dt)
        if cfg.scheme == "eliminated_dirichlet":
            return step_eliminated_dirichlet(state, data, cfg, dt=dt)
        return step_galerkin_neumann(state, data, cfg, dt=dt)
    except NewtonError as exc:
        if depth >= 8:
            raise
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


def run(data: ProblemData, cfg: SolverConfig,
        on_output: Optional[Callable[[StateSnapshot], None]] = None
        ) -> Trajectory:
    """Integrate from 0 to T in the steps of :func:`smc.step_end_times`;
    snapshots at the requested output times (t = 0 always included),
    diagnostics at every step.

    Each snapshot goes, as the run reaches it, to ``on_output`` when one
    is given, and ``Trajectory.snapshots`` is then empty; without a hook
    they are kept there.  A step that fails after the hook got some
    snapshots still raises.
    """
    if _SCHEME_BC[cfg.scheme] != data.bc.kind:
        raise ConfigError(
            f"scheme {cfg.scheme} incompatible with bc {data.bc.kind}")
    rho, s_eps = data.control.rho, data.control.eps
    # no division in the test: tau*eps may underflow to 0.  stiff/scale
    # rounds above 1 where scale > 0; print the fewest digits, from 3,
    # that still read above 1
    stiff, scale = cfg.dt * rho, data.tau * s_eps
    if stiff > scale:
        ratio = stiff / scale if scale > 0.0 else stiff / data.tau / s_eps
        text = next(t for t in (f"{ratio:.{p}g}" for p in range(3, 18))
                    if float(t) > 1.0)
        warnings.warn("explicit control term is stiff: dt*rho/(tau*eps) = "
                      f"{text} > 1", stacklevel=2)

    out_times = [cfg.T] if cfg.output_times is None else cfg.output_times
    remaining = sorted(t for t in out_times if t > 0.0)

    diag = DiagnosticsSeries()
    # an overflow at t = 0 is a config error that the checks below raise
    with np.errstate(over="ignore", invalid="ignore"):
        state = _initial_snapshot(data, cfg)
        _record(diag, data, cfg, state, None, cfg.dt)
    snapshots = []
    keep = snapshots.append if on_output is None else on_output
    if not np.isfinite(diag.free_energy_reg[0]):
        # a finite phi0 far outside the domain overflows the quartic
        # envelope or the gradient energy
        raise ConfigError("phi0 has a free energy that is not finite")
    if not np.isfinite(state.mu).all():
        # a finite datum whose boundary term 2*datum/h**2 overflows
        raise ConfigError("the mu datum has a harmonic extension that is "
                          "not finite")
    keep(state)
    for end in smc.step_end_times(cfg.T, cfg.dt):
        # the end time minus the start time is exact (Sterbenz), so the
        # step ends at ``end`` itself, with no drift from summing step
        # lengths
        prev = state
        dt = end - prev.t
        try:
            state = _advance(prev, data, cfg, dt)
        except NewtonError as exc:
            raise NewtonError(
                f"step from t = {prev.t:g} to {end:g} failed even after "
                f"halving 8 times: {exc}") from exc
        _record(diag, data, cfg, state, prev, dt)
        # an output time goes to the step that ends nearest to it; one
        # within roundoff of that step's end is carried exactly, without
        # the state's data evaluation
        next_dt = min(cfg.dt, cfg.T - state.t)
        while remaining and state.t >= remaining[0] - 0.5 * next_dt:
            t_out = remaining.pop(0)
            if abs(state.t - t_out) > 1e-9 * cfg.dt:
                t_out = state.t
            keep(replace(state, t=t_out, evaluation=None))
    # SolverConfig keeps the output times below T + 1e-9*dt, so any left
    # are T up to roundoff, past the last step end
    for t_out in remaining:
        keep(replace(state, t=t_out, evaluation=None))
    return Trajectory(snapshots=snapshots, diagnostics=diag, data=data,
                      cfg=cfg)
