import numpy as np
import pytest

from chsmc import potentials as pot
from chsmc import smc, solver
from chsmc.grid import Grid


@pytest.fixture
def grid1d():
    return Grid(shape=(64,), lengths=(1.0,))


@pytest.fixture
def grid2d():
    return Grid(shape=(12, 10), lengths=(1.0, 2.0))


@pytest.fixture
def grid3d():
    return Grid(shape=(8, 8, 8), lengths=(0.4, 0.4, 0.4))


def zero_potential():
    """Potential with B = beta = pi = 0 (linearizes the flow)."""
    return pot.custom(B=lambda r: 0.0, beta=lambda r: 0.0,
                      pi=lambda r: 0.0, Pi=lambda r: 0.0)


def obstacle_as_custom(c2):
    """The double obstacle's maps, given as a custom potential."""
    return pot.custom(B=lambda r: 0.0, beta=lambda r: 0.0,
                      pi=lambda r: -2.0 * c2 * r,
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
