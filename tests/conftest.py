from dataclasses import dataclass, replace
from typing import List, Sequence

import numpy as np
import pytest

from chsmc import potentials as pot
from chsmc import smc, solver
from chsmc.analysis import _paired_outputs
from chsmc.errors import ParamError, SolveError
from chsmc.grid import Grid
from chsmc.solver import ProblemData, SolverConfig, run


@pytest.fixture
def grid1d():
    return Grid(shape=(64,), lengths=(1.0,))


@pytest.fixture
def grid2d():
    return Grid(shape=(12, 10), lengths=(1.0, 2.0))


@pytest.fixture
def grid3d():
    return Grid(shape=(8, 8, 8), lengths=(0.4, 0.4, 0.4))


# The reference solve of s + eps*beta(s) = r that the families' own
# resolvents are checked against: safeguarded Newton/bisection in a
# bracket, for any monotone beta with its derivative.
_REFERENCE_TOL = 1e-13
_REFERENCE_MAXITER = 100


def _solve_monotone(g, gprime, a, b):
    """Vectorized safeguarded Newton for a nondecreasing g.

    Keeps a bracket per component and falls back to bisection whenever the
    Newton step leaves it.  Absolute tolerance 1e-13 on the argument; an
    exactly vanishing residual also counts as converged.
    """
    a = a.copy()
    b = b.copy()
    x = 0.5 * (a + b)
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(_REFERENCE_MAXITER):
        with np.errstate(all="ignore"):
            gx = g(x)
        neg = (gx < 0.0) & ~done
        pos = (gx > 0.0) & ~done
        a = np.where(neg, x, a)
        b = np.where(pos, x, b)
        done |= (b - a <= _REFERENCE_TOL) | (gx == 0.0)
        if np.all(done):
            break
        with np.errstate(all="ignore"):
            gp = gprime(x)
            xn = np.where(gp > 0.0, x - gx / np.where(gp > 0.0, gp, 1.0),
                          np.inf)
        inside = (xn > a) & (xn < b) & np.isfinite(xn)
        x = np.where(done, x, np.where(inside, xn, 0.5 * (a + b)))
    else:
        if np.any(~done & (b - a > 1e-9)):
            raise SolveError("scalar resolvent solve did not converge")
    return np.clip(x, a, b)


def resolvent_generic(spec, eps, r):
    """J_eps(r) for any family, by :func:`_solve_monotone` on spec.beta and
    spec.beta_prime over its domain."""
    arr = np.asarray(r, dtype=float)
    if np.isnan(arr).any():
        raise ParamError(f"resolvent input is NaN ({spec.kind})")

    # every iterate lies in the bracket, inside the domain
    def g(s):
        return s + eps * spec.beta(s) - arr

    def gp(s):
        return 1.0 + eps * spec.beta_prime(s)

    # bracket: finite endpoints (nudged inward when open), or geometric
    # expansion when the domain is unbounded
    if np.isfinite(spec.lo):
        a = np.full_like(arr, spec.lo)
        if spec.lo_open:
            a = np.nextafter(a, spec.hi)
    else:
        a = np.minimum(arr, 0.0) - 1.0
        for _ in range(200):
            mask = g(a) > 0.0
            if not np.any(mask):
                break
            a = np.where(mask, 2.0 * a - 1.0, a)
    if np.isfinite(spec.hi):
        b = np.full_like(arr, spec.hi)
        if spec.hi_open:
            b = np.nextafter(b, spec.lo)
    else:
        b = np.maximum(arr, 0.0) + 1.0
        for _ in range(200):
            mask = g(b) < 0.0
            if not np.any(mask):
                break
            b = np.where(mask, 2.0 * b + 1.0, b)

    with np.errstate(all="ignore"):
        ga = g(a)
        gb = g(b)
    out = _solve_monotone(g, gp, a, b)
    # no interior sign change: the resolvent sits on a (closed) endpoint,
    # where the vertical part of the graph absorbs the remainder
    if np.isfinite(spec.lo) and not spec.lo_open:
        out = np.where(ga >= 0.0, spec.lo, out)
    if np.isfinite(spec.hi) and not spec.hi_open:
        out = np.where(gb <= 0.0, spec.hi, out)
    return out


def generic_spec(**maps):
    """A PotentialSpec of the given maps and domain whose resolvent is the
    reference solve on itself."""
    spec = pot.PotentialSpec(
        resolvent=lambda eps, r: resolvent_generic(spec, eps, r), **maps)
    return spec


def zero_potential():
    """Potential with B = beta = pi = 0 (linearizes the flow), whose
    resolvent is the identity."""
    return pot.PotentialSpec(
        kind="zero", B=np.zeros_like, beta=np.zeros_like,
        beta_prime=np.zeros_like, pi=np.zeros_like, Pi=np.zeros_like,
        resolvent=lambda eps, r: r)


def obstacle_as_custom(c2):
    """The double obstacle's maps with the reference solve in place of its
    projection."""
    return generic_spec(
        kind="obstacle", B=np.zeros_like, beta=np.zeros_like,
        beta_prime=np.zeros_like, pi=lambda r: -2.0 * c2 * r,
        Pi=lambda r: c2 * (1.0 - r * r), lo=-1.0, hi=1.0)


def laplacian_dirichlet(grid, u):
    """Homogeneous Dirichlet Laplacian (value zero on the boundary faces):
    the three-point stencil with odd-reflection ghosts, the reference
    operator the Dirichlet solves are checked against."""
    out = np.zeros_like(u)
    for axis, h in enumerate(grid.h):
        v = np.moveaxis(u, axis, 0)
        ghosts = np.concatenate([-v[:1], v, -v[-1:]])
        out += np.moveaxis(ghosts[2:] - 2.0 * v + ghosts[:-2], 0, axis) / h**2
    return out


def zero_field(X, t):
    return np.zeros_like(X[0])


def constant_field(c):
    return lambda X, t: np.full_like(X[0], c)


def neumann_problem(grid, spec, phi0, rho=0.0, eps=1e-2, tau=1.0,
                    g=zero_field, phistar=zero_field):
    return solver.ProblemData(
        grid=grid, spec=spec, phi0=phi0, g=g, phistar=phistar,
        bc=solver.neumann_bc(), tau=tau,
        control=smc.SmcParams(rho=rho, eps=eps))


def dirichlet_problem(grid, spec, phi0, rho=0.0, eps=1e-2, tau=1.0,
                      g=zero_field, phistar=zero_field, datum=None,
                      with_target_derivatives=True):
    kw = {}
    if with_target_derivatives:
        kw = dict(dphistar_dt=zero_field,
                  lap_phistar=zero_field)
    return solver.ProblemData(
        grid=grid, spec=spec, phi0=phi0, g=g, phistar=phistar,
        bc=solver.dirichlet_bc(datum or (lambda x, t: 0.0)), tau=tau,
        control=smc.SmcParams(rho=rho, eps=eps), **kw)


def mixed_step(state, data, cfg, dt):
    """One backward-Euler step of the system in its mixed form, with
    (phi, mu) both unknown and nothing eliminated, in the mu regime of
    ``data.bc``:

        tau (phi - phi^n)/dt - Lap_N phi + beta_eps(phi) + pi(phi^n)
            + rho sign_eps(phi^n - phistar(t)) - g(t) - mu = 0,
        (phi - phi^n)/dt - Lap_mu mu - b = 0,

    t = t^n + dt.  For zero flux Lap_mu is Lap_N and b = 0; for Dirichlet
    Lap_mu has odd-reflection ghosts and b is 2*datum/h^2 from each face
    of a boundary cell, the datum's share of the ghost.  The stencils are
    Kronecker sums of 1-D three-point matrices, with boundary diagonal -1
    (Neumann) or -3 (Dirichlet), and Newton solves with ``spsolve``: no
    transform, harmonic extension or inverse Laplacian, so it checks the
    steppers independently.  Returns (phi, mu)."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import spsolve

    grid, tau = data.grid, data.tau
    n = grid.ncells
    t = state.t + dt

    def stencil(edge):
        out = sp.csr_matrix((n, n))
        for axis, (m, h) in enumerate(zip(grid.shape, grid.h)):
            diag = np.full(m, -2.0)
            diag[[0, -1]] = edge
            T = sp.diags([np.ones(m - 1), diag, np.ones(m - 1)],
                         [-1, 0, 1]) / h**2
            before = sp.identity(int(np.prod(grid.shape[:axis])))
            after = sp.identity(int(np.prod(grid.shape[axis + 1:])))
            out = out + sp.kron(sp.kron(before, T), after)
        return out.tocsc()

    dirichlet = data.bc.kind == "dirichlet"
    lap_n, lap_mu = stencil(-1.0), stencil(-3.0 if dirichlet else -1.0)
    X = grid.meshgrid()
    b = np.zeros(grid.shape)
    for axis, h in enumerate(grid.h if dirichlet else ()):
        for face, side in ((0.0, slice(0, 1)),
                           (grid.lengths[axis], slice(-1, None))):
            cells = tuple(side if a == axis else slice(None)
                          for a in range(grid.dim))
            Xf = [x[cells] for x in X]
            Xf[axis] = np.full_like(Xf[axis], face)
            b[cells] += 2.0 * data.bc.datum(tuple(Xf), t) / h**2
    b = b.reshape(-1)
    phi_n = state.phi.reshape(-1)
    fixed = (data.spec.pi(state.phi)
             + smc.apply_S_eps(data.control, state.phi - data.phistar(X, t))
             - data.g(X, t)).reshape(-1)
    eye = sp.identity(n)
    phi, mu = phi_n.copy(), np.zeros(n)
    for _ in range(_REFERENCE_MAXITER):
        xi = pot.beta_eps(data.spec, cfg.eps, phi)
        r = np.concatenate([
            tau * (phi - phi_n) / dt - lap_n @ phi + xi + fixed - mu,
            (phi - phi_n) / dt - lap_mu @ mu - b])
        J = sp.bmat([
            [tau / dt * eye - lap_n
             + sp.diags(pot.beta_eps_prime(data.spec, cfg.eps, phi, xi)),
             -eye],
            [eye / dt, -lap_mu]], format="csc")
        dx = spsolve(J, -r)
        phi, mu = phi + dx[:n], mu + dx[n:]
        if np.max(np.abs(dx)) <= _REFERENCE_TOL * (1.0 + np.max(np.abs(mu))):
            return phi.reshape(grid.shape), mu.reshape(grid.shape)
    raise SolveError("mixed Newton did not converge")


# -- Yosida convergence study --------------------------------------------


@dataclass(frozen=True)
class YosidaRow:
    eps_coarse: float
    eps_fine: float
    distance: float        # L2(Q) distance of the two order parameters
    overshoot_coarse: float  # max excursion beyond the beta domain
    overshoot_fine: float


def yosida_convergence_study(data: ProblemData, cfg: SolverConfig,
                             eps_list: Sequence[float]) -> List[YosidaRow]:
    """Pairwise L2(Q) distances along a decreasing regularization sweep.

    Both the potential and the control use the same level.  No rate is
    asserted, only the observed Cauchy behavior (and, for constrained
    potentials, the decay of the overshoot beyond the domain).
    """
    trajs = []
    overshoots = []
    grid = data.grid
    lo, hi = data.spec.lo, data.spec.hi
    for eps in eps_list:
        control = smc.SmcParams(rho=data.control.rho, eps=eps)
        traj = run(replace(data, control=control), replace(cfg, eps=eps))
        trajs.append(traj)
        overshoots.append(max(float(np.max(np.maximum(s.phi - hi, 0.0)
                                           + np.maximum(lo - s.phi, 0.0)))
                              for s in traj.snapshots))
    rows = []
    for k in range(len(eps_list) - 1):
        dist = sum(grid.l2_norm(d) ** 2 * dt_out
                   for d, dt_out in _paired_outputs(trajs[k], trajs[k + 1]))
        rows.append(YosidaRow(eps_coarse=eps_list[k],
                              eps_fine=eps_list[k + 1],
                              distance=float(np.sqrt(dist)),
                              overshoot_coarse=overshoots[k],
                              overshoot_fine=overshoots[k + 1]))
    return rows
