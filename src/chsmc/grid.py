"""Cell-centered rectangular grids and the discrete elliptic machinery.

Second-order finite differences with ghost cells: mirrored ghosts give the
zero-flux (Neumann) Laplacian, odd-reflection ghosts the homogeneous
Dirichlet one.  Both operators are diagonalized exactly by tensor-product
DCT-II / DST-II bases, which provides the fast inversion path on these
uniform grids.  The module also holds the package's one preconditioned CG
loop: the time steppers run it on their Newton systems, preconditioned by
a DCT diagonal (:func:`apply_cosine_symbol`), and the ``method="cg"``
inverses run it unpreconditioned as an independent cross-check of the
transform solves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.fft import dctn, dstn, idctn, idstn

from .errors import MeanError, ModeRangeError, SolveError


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on a box in 1, 2 or 3 dimensions."""

    shape: tuple
    lengths: tuple

    def __post_init__(self):
        if not 1 <= len(self.shape) <= 3:
            raise ValueError("dimension must be 1, 2 or 3")
        if len(self.lengths) != len(self.shape):
            raise ValueError("shape and lengths must agree in dimension")
        if any(n < 3 for n in self.shape):
            raise ValueError("need at least 3 cells per axis")
        if not all(0 < L < np.inf for L in self.lengths):
            raise ValueError("lengths must be positive and finite")
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        object.__setattr__(self, "lengths",
                           tuple(float(L) for L in self.lengths))

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def h(self) -> tuple:
        return tuple(L / n for L, n in zip(self.lengths, self.shape))

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    @property
    def ncells(self) -> int:
        return int(np.prod(self.shape))

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.h[axis]
        return h * (np.arange(self.shape[axis]) + 0.5)

    def meshgrid(self):
        """Cell-center coordinate arrays, one per axis, each grid-shaped."""
        cached = getattr(self, "_mesh", None)
        if cached is None:
            axes = [self.axis_centers(a) for a in range(self.dim)]
            cached = tuple(np.meshgrid(*axes, indexing="ij"))
            object.__setattr__(self, "_mesh", cached)
        return cached

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape)

    # -- quadrature and norms ------------------------------------------

    def mean(self, u: np.ndarray) -> float:
        return float(np.sum(u)) * self.cell_volume / self.volume

    def integral(self, u: np.ndarray) -> float:
        return float(np.sum(u)) * self.cell_volume

    def l2_norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(np.sum(u * u) * self.cell_volume))

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.sum(u * v) * self.cell_volume)

    def sup_norm(self, u: np.ndarray) -> float:
        return float(np.max(np.abs(u)))

    def gradient_energy(self, u: np.ndarray, scheme: str = "faces") -> float:
        """Integral of |grad u|^2.

        ``"faces"``: interior face differences; exact counterpart of the
        summation-by-parts identity <-Lap_N u, u>.  ``"centered"``:
        centered differences at cell centers with one-sided boundary
        stencils; second-order for fields that need not satisfy zero-flux
        conditions.
        """
        total = 0.0
        for axis in range(self.dim):
            h = self.h[axis]
            v = np.moveaxis(u, axis, 0)
            if scheme == "faces":
                d = (v[1:] - v[:-1]) / h
            elif scheme == "centered":
                d = np.empty_like(v)
                d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
                d[0] = (v[1] - v[0]) / h
                d[-1] = (v[-1] - v[-2]) / h
            else:
                raise ValueError(f"unknown gradient scheme {scheme!r}")
            total += float(np.sum(d * d))
        return total * self.cell_volume

    def h1_seminorm(self, u: np.ndarray) -> float:
        return float(np.sqrt(self.gradient_energy(u, scheme="faces")))

    def norms(self, u: np.ndarray):
        """(L2 norm, H1 seminorm, sup norm)."""
        return self.l2_norm(u), self.h1_seminorm(u), self.sup_norm(u)

    # -- spectral data -------------------------------------------------

    def axis_eigenvalues_neumann(self, axis: int) -> np.ndarray:
        n = self.shape[axis]
        h = self.h[axis]
        k = np.arange(n)
        return (2.0 / h**2) * (1.0 - np.cos(np.pi * k / n))

    def axis_eigenvalues_dirichlet(self, axis: int) -> np.ndarray:
        n = self.shape[axis]
        h = self.h[axis]
        m = np.arange(1, n + 1)
        return (2.0 / h**2) * (1.0 - np.cos(np.pi * m / n))

    def eigenvalues(self, bc: str) -> np.ndarray:
        """Eigenvalues of -Lap on the tensor-product DCT-II ("neumann") or
        DST-II ("dirichlet") modes, grid-shaped and read-only (cached)."""
        if bc not in ("neumann", "dirichlet"):
            raise ValueError(f"unknown bc {bc!r}")
        key = "_eig_" + bc
        cached = getattr(self, key, None)
        if cached is None:
            axis_eig = (self.axis_eigenvalues_neumann if bc == "neumann"
                        else self.axis_eigenvalues_dirichlet)
            cached = axis_eig(0)
            for a in range(1, self.dim):
                cached = cached[..., None] + axis_eig(a)
            cached.flags.writeable = False
            object.__setattr__(self, key, cached)
        return cached


# -- Laplacians --------------------------------------------------------


def _second_difference(u: np.ndarray, h: float, axis: int,
                       bc: str) -> np.ndarray:
    v = np.moveaxis(u, axis, 0)
    d = np.empty_like(v)
    d[1:-1] = v[2:] - 2.0 * v[1:-1] + v[:-2]
    if bc == "neumann":  # mirrored ghost equals the edge cell
        d[0] = v[1] - v[0]
        d[-1] = v[-2] - v[-1]
    else:  # odd reflection: ghost equals minus the edge cell
        d[0] = v[1] - 3.0 * v[0]
        d[-1] = v[-2] - 3.0 * v[-1]
    return np.moveaxis(d, 0, axis) / h**2


def laplacian_neumann(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Zero-flux Laplacian; its discrete integral telescopes to zero."""
    out = np.zeros_like(u)
    for axis in range(grid.dim):
        out += _second_difference(u, grid.h[axis], axis, "neumann")
    return out


def laplacian_dirichlet(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Homogeneous Dirichlet Laplacian (value zero on the boundary faces)."""
    out = np.zeros_like(u)
    for axis in range(grid.dim):
        out += _second_difference(u, grid.h[axis], axis, "dirichlet")
    return out


# -- fast transform solves ---------------------------------------------


def _solve_neumann_dct(grid: Grid, rhs: np.ndarray) -> np.ndarray:
    coeff = dctn(rhs, type=2, norm="ortho")
    lam = grid.eigenvalues("neumann")
    flat = coeff.reshape(-1)
    lamf = lam.reshape(-1)
    out = np.zeros_like(flat)
    out[1:] = flat[1:] / lamf[1:]  # zero mode removed: mean-free inverse
    return idctn(out.reshape(grid.shape), type=2, norm="ortho")


def _solve_dirichlet_dst(grid: Grid, rhs: np.ndarray) -> np.ndarray:
    coeff = dstn(rhs, type=2, norm="ortho")
    return idstn(coeff / grid.eigenvalues("dirichlet"), type=2, norm="ortho")


def apply_cosine_symbol(grid: Grid, u: np.ndarray,
                        symbol: np.ndarray) -> np.ndarray:
    """Operator diagonal in the orthonormal DCT-II basis: multiply the
    cosine coefficients of ``u`` by the grid-shaped ``symbol``."""
    return idctn(dctn(u, type=2, norm="ortho") * symbol, type=2,
                 norm="ortho")


# -- conjugate gradients -----------------------------------------------


_CG_MAXITER = 20000


def pcg(apply_A: Callable, b: np.ndarray,
        precond: Optional[Callable] = None, rtol: float = 1e-11,
        atol: float = 0.0) -> np.ndarray:
    """Preconditioned CG for A x = b, starting from x = 0.

    ``apply_A`` must be symmetric positive definite on the subspace that
    ``b`` lies in and ``precond`` (identity when None) a symmetric positive
    definite approximation of its inverse there.  Stops once the Euclidean
    residual norm is at most max(rtol*||b||, atol).  A non-positive or
    non-finite curvature p.Ap or r.z is a breakdown and raises
    :class:`SolveError` before it can reach the iterate, as does running
    out of ``_CG_MAXITER`` iterations.
    """
    x = np.zeros_like(b)
    r = b.copy()
    bnorm = np.sqrt(np.sum(b * b))
    stop = max(rtol * bnorm, atol)
    if bnorm <= stop:
        return x
    z = r if precond is None else precond(r)
    rz = np.sum(r * z)
    p = z.copy()
    for _ in range(_CG_MAXITER):
        if not (np.isfinite(rz) and rz > 0.0):
            raise SolveError(f"CG breakdown: r.z = {rz:.3e}")
        Ap = apply_A(p)
        pAp = np.sum(p * Ap)
        if not (np.isfinite(pAp) and pAp > 0.0):
            raise SolveError(f"CG breakdown: p.Ap = {pAp:.3e}; the "
                             "operator is not positive definite")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        if np.sqrt(np.sum(r * r)) <= stop:
            return x
        z = r if precond is None else precond(r)
        rz_new = np.sum(r * z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolveError(
        f"CG did not reach tolerance in {_CG_MAXITER} iterations")


# -- inverse operators -------------------------------------------------


def inverse_neumann(grid: Grid, psi: np.ndarray,
                    method: str = "auto") -> np.ndarray:
    """Mean-free solution u of -Lap_N u = psi; requires mean(psi) = 0.

    ``method``: "auto"/"dct" use the exact cosine diagonalization, "cg"
    plain CG on the stencil (an independent cross-check).
    """
    nrm = grid.l2_norm(psi)
    if abs(grid.mean(psi)) > 1e-10 * max(nrm, 1e-300):
        raise MeanError("inverse_neumann needs a mean-free right-hand side")
    if method in ("auto", "dct"):
        return _solve_neumann_dct(grid, psi)
    # CG stays in the range of the singular operator when started from
    # an exactly mean-free right-hand side
    u = pcg(lambda v: -laplacian_neumann(grid, v), psi - grid.mean(psi))
    return u - grid.mean(u)


def inverse_dirichlet(grid: Grid, psi: np.ndarray,
                      method: str = "auto") -> np.ndarray:
    """Solution u of -Lap_D u = psi."""
    if method in ("auto", "dct"):
        return _solve_dirichlet_dst(grid, psi)
    return pcg(lambda v: -laplacian_dirichlet(grid, v), psi)


def dual_norm(grid: Grid, psi: np.ndarray, bc: str,
              method: str = "auto") -> float:
    """Dual (inverse-Laplacian) norm of psi.

    Neumann: sqrt(<psi0, N psi0> + mean(psi)^2 * ...) with psi0 the
    mean-free part, i.e. ||grad N psi0||^2 + |mean psi|^2.  Dirichlet:
    sqrt(<psi, D psi>) = ||grad D psi||.
    """
    if bc == "neumann":
        m = grid.mean(psi)
        psi0 = psi - m
        u = inverse_neumann(grid, psi0, method=method)
        return float(np.sqrt(max(grid.inner(psi0, u), 0.0) + m * m))
    if bc == "dirichlet":
        u = inverse_dirichlet(grid, psi, method=method)
        return float(np.sqrt(max(grid.inner(psi, u), 0.0)))
    raise ValueError(f"unknown bc {bc!r}")


# -- harmonic extension ------------------------------------------------


def boundary_faces(grid: Grid):
    """Iterate (axis, side, index tuple, face-center coordinates) over all
    boundary faces; ``index`` addresses the adjacent cell."""
    for axis in range(grid.dim):
        h = grid.h[axis]
        other_axes = [a for a in range(grid.dim) if a != axis]
        ranges = [range(grid.shape[a]) for a in other_axes]
        for side in (0, 1):
            cell = grid.shape[axis] - 1 if side else 0
            coord = grid.lengths[axis] if side else 0.0
            for combo in itertools.product(*ranges):
                idx = [0] * grid.dim
                idx[axis] = cell
                x = [0.0] * grid.dim
                x[axis] = coord
                for a, i in zip(other_axes, combo):
                    idx[a] = i
                    x[a] = grid.axis_centers(a)[i]
                yield axis, side, tuple(idx), tuple(x)


def harmonic_extension(grid: Grid, datum: Callable, t: float,
                       method: str = "auto") -> np.ndarray:
    """Discrete harmonic field matching ``datum(x, t)`` on the boundary.

    Satisfies the discrete maximum principle: values lie within the range
    of the boundary datum.
    """
    rhs = grid.zeros()
    for axis, _side, idx, x in boundary_faces(grid):
        rhs[idx] += 2.0 * float(datum(x, t)) / grid.h[axis] ** 2
    return inverse_dirichlet(grid, rhs, method=method)


# -- Neumann eigenbasis ------------------------------------------------


@dataclass(frozen=True)
class NeumannEigenbasis:
    """First n tensor-product cosine modes, orthonormal in discrete L2."""

    grid: Grid
    eigenvalues: np.ndarray       # (n,)
    modes: np.ndarray             # (n, *grid.shape)

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def project(self, u: np.ndarray) -> np.ndarray:
        """Discrete L2 coefficients <u, e_j>."""
        flat = u.reshape(-1)
        return self.modes.reshape(self.n, -1) @ flat * self.grid.cell_volume

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Field sum_j c_j e_j."""
        out = coeffs @ self.modes.reshape(self.n, -1)
        return out.reshape(self.grid.shape)


def neumann_eigenbasis(grid: Grid, n: int) -> NeumannEigenbasis:
    """Lowest-eigenvalue discrete cosine modes; e_1 is 1/sqrt(|Omega|)."""
    if n < 1 or n > grid.ncells:
        raise ModeRangeError(f"n must be in [1, {grid.ncells}]")
    per_axis = []
    for a in range(grid.dim):
        na = grid.shape[a]
        L = grid.lengths[a]
        lam = grid.axis_eigenvalues_neumann(a)
        x = grid.axis_centers(a)
        vecs = []
        for k in range(na):
            v = np.cos(np.pi * k * x / L)
            v *= (1.0 / np.sqrt(L)) if k == 0 else np.sqrt(2.0 / L)
            vecs.append(v)
        per_axis.append((lam, vecs))
    combos = sorted(
        itertools.product(*[range(grid.shape[a]) for a in range(grid.dim)]),
        key=lambda ks: (sum(per_axis[a][0][k] for a, k in enumerate(ks)), ks))
    eigenvalues = []
    modes = []
    for ks in combos[:n]:
        lam = sum(per_axis[a][0][k] for a, k in enumerate(ks))
        mode = per_axis[0][1][ks[0]]
        for a in range(1, grid.dim):
            mode = np.multiply.outer(mode, per_axis[a][1][ks[a]])
        eigenvalues.append(lam)
        modes.append(mode)
    return NeumannEigenbasis(grid=grid,
                             eigenvalues=np.array(eigenvalues),
                             modes=np.array(modes))


# -- snapshot file format ----------------------------------------------


def write_snapshot(path, grid: Grid, t: float, field: np.ndarray) -> None:
    """Header line ``CHSMC1 dim n... L... t`` then row-major little-endian
    float64 cell values."""
    with open(path, "wb") as fh:
        header = " ".join(
            ["CHSMC1", str(grid.dim)]
            + [str(n) for n in grid.shape]
            + [repr(L) for L in grid.lengths]
            + [repr(float(t))])
        fh.write(header.encode("ascii") + b"\n")
        fh.write(np.ascontiguousarray(field, dtype="<f8").tobytes())


def read_snapshot(path):
    """Inverse of :func:`write_snapshot`; returns (grid, t, field)."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        if not header or header[0] != "CHSMC1":
            raise ValueError("not a CHSMC1 snapshot file")
        dim = int(header[1])
        shape = tuple(int(v) for v in header[2:2 + dim])
        lengths = tuple(float(v) for v in header[2 + dim:2 + 2 * dim])
        t = float(header[2 + 2 * dim])
        raw = fh.read()
    field = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    return Grid(shape=shape, lengths=lengths), t, field


def write_field_csv(path, grid: Grid, field: np.ndarray) -> None:
    """Index coordinates plus value, one cell per row (for plotting)."""
    with open(path, "w") as fh:
        fh.write(",".join("ijk"[:grid.dim]) + ",value\n")
        for idx in np.ndindex(*grid.shape):
            fh.write(",".join(str(i) for i in idx)
                     + f",{float(field[idx])!r}\n")
