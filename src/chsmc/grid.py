"""Cell-centered rectangular grids and the discrete elliptic machinery.

Second-order finite differences with ghost cells: mirrored ghosts give the
zero-flux (Neumann) Laplacian, odd-reflection ghosts the homogeneous
Dirichlet one.  Both operators are diagonalized exactly by tensor-product
DCT-II / DST-II bases, which provides the fast inversion path on these
uniform grids.  On small grids the transforms are applied as dense
per-axis matrices (the fast diagonalization method of Lynch, Rice &
Thomas, 1964), because there a matrix product costs less than the
per-call overhead of ``scipy.fft``; larger grids, where the O(n log n)
transform wins, use ``scipy.fft``.  The choice depends on the grid shape
alone (:func:`_dense_transforms`).

The module also holds the package's one preconditioned CG loop, which the
time stepper runs on its Newton systems, preconditioned by a DCT diagonal
(:func:`apply_cosine_symbol`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy.fft import dct, dctn, dst, dstn, idctn, idstn

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

    # Derived sizes and arrays are computed once per grid and kept in the
    # instance dict; equality and hashing see only shape and lengths.

    def _cached(self, key, build):
        value = self.__dict__.get(key)
        if value is None:
            value = self.__dict__[key] = build()
        return value

    @property
    def dim(self) -> int:
        return len(self.shape)

    @cached_property
    def h(self) -> tuple:
        return tuple(L / n for L, n in zip(self.lengths, self.shape))

    @cached_property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    @cached_property
    def ncells(self) -> int:
        return int(np.prod(self.shape))

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.h[axis]
        return h * (np.arange(self.shape[axis]) + 0.5)

    def meshgrid(self):
        """Cell-center coordinate arrays, one per axis, each grid-shaped."""
        return self._cached("_mesh", lambda: tuple(np.meshgrid(
            *[self.axis_centers(a) for a in range(self.dim)], indexing="ij")))

    def boundary_sides(self):
        """Per boundary side, (axis, X, cells), in the order axis 0 low,
        axis 0 high, axis 1 low, ... (cached).

        ``X`` holds the face-center coordinate arrays of the side, shaped
        like the grid with length 1 along ``axis``; ``cells`` is the index
        of the adjacent slab of cells, which has that same shape.
        """
        return self._cached("_sides", self._build_boundary_sides)

    def _build_boundary_sides(self):
        sides = []
        for axis in range(self.dim):
            for coord, slab in ((0.0, slice(0, 1)),
                                (self.lengths[axis], slice(-1, None))):
                axes = [self.axis_centers(a) for a in range(self.dim)]
                axes[axis] = np.array([coord])
                X = tuple(np.meshgrid(*axes, indexing="ij"))
                for x in X:
                    x.flags.writeable = False
                cells = tuple(slab if a == axis else slice(None)
                              for a in range(self.dim))
                sides.append((axis, X, cells))
        return tuple(sides)

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
        def build():
            _check_bc(bc)
            axis_eig = (self.axis_eigenvalues_neumann if bc == "neumann"
                        else self.axis_eigenvalues_dirichlet)
            lam = axis_eig(0)
            for a in range(1, self.dim):
                lam = lam[..., None] + axis_eig(a)
            return _read_only(lam)
        return self._cached("_eig_" + bc, build)

    def inverse_eigenvalues(self, bc: str) -> np.ndarray:
        """Symbol of (-Lap)^{-1}: 1/eigenvalues(bc), with the Neumann zero
        mode set to 0 (the mean-free inverse); read-only (cached)."""
        def build():
            lam = self.eigenvalues(bc)
            inv = np.zeros_like(lam)
            np.divide(1.0, lam, out=inv, where=lam != 0.0)
            return _read_only(inv)
        return self._cached("_inv_eig_" + bc, build)

    def transform_matrices(self, bc: str) -> tuple:
        """Per axis, the orthonormal DCT-II ("neumann") or DST-II
        ("dirichlet") matrix M with M @ u = dct(u) (resp. dst(u)) along
        that axis; M.T is its inverse.  Read-only (cached)."""
        def build():
            _check_bc(bc)
            transform = dct if bc == "neumann" else dst
            return tuple(_read_only(transform(np.eye(n), type=2,
                                              norm="ortho", axis=0))
                         for n in self.shape)
        return self._cached("_mat_" + bc, build)


def _check_bc(bc: str) -> None:
    if bc not in ("neumann", "dirichlet"):
        raise ValueError(f"unknown bc {bc!r}")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# -- Laplacians --------------------------------------------------------


def _second_difference(u: np.ndarray, h: float, axis: int,
                       bc: str) -> np.ndarray:
    v = u.swapaxes(0, axis)
    d = np.empty_like(v)
    d[1:-1] = v[2:] - 2.0 * v[1:-1] + v[:-2]
    if bc == "neumann":  # mirrored ghost equals the edge cell
        d[0] = v[1] - v[0]
        d[-1] = v[-2] - v[-1]
    else:  # odd reflection: ghost equals minus the edge cell
        d[0] = v[1] - 3.0 * v[0]
        d[-1] = v[-2] - 3.0 * v[-1]
    return d.swapaxes(0, axis) / h**2


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


# Largest sum(shape), per dimension, at which the dense transforms win.
_DENSE_MAX_SUM = {1: 256, 2: 224, 3: 288}


def _dense_transforms(shape: tuple) -> bool:
    """Whether per-axis matrix products beat ``scipy.fft`` on this shape.

    A dense transform costs about ncells*sum(shape) multiply-adds against
    the FFT's O(ncells*log n) plus a fixed per-call overhead of tens of
    microseconds, which dominates on small grids.  The bounds come from a
    single-threaded sweep of one Dirichlet inverse per shape (best of 7,
    2-core Xeon, numpy 2.4, scipy 1.17): the FFT took over between 256
    and 320 cells in 1-D, 112^2 and 120^2 in 2-D, and 96^3 and 100^3 in
    3-D, where the dense path still won at 85^3 (35 against 53 ms).
    """
    return sum(shape) <= _DENSE_MAX_SUM[len(shape)]


def _symbol_dense(grid: Grid, u: np.ndarray, symbol: np.ndarray,
                  bc: str) -> np.ndarray:
    M = grid.transform_matrices(bc)
    if grid.dim == 1:
        (A,) = M
        return A.T @ (symbol * (A @ u))
    if grid.dim == 2:
        A, B = M
        return A.T @ (symbol * (A @ u @ B.T)) @ B
    # 3-D: axes 1 and 2 as a stack of 2-D products, then axis 0 on the
    # (n0, n1*n2) reshape
    A, B, C = M
    n0 = grid.shape[0]
    coeff = (A @ (B @ u @ C.T).reshape(n0, -1)).reshape(grid.shape)
    return (A.T @ (B.T @ (symbol * coeff) @ C).reshape(n0, -1)).reshape(
        grid.shape)


def _symbol_fft(u: np.ndarray, symbol: np.ndarray, bc: str) -> np.ndarray:
    forward, inverse = (dctn, idctn) if bc == "neumann" else (dstn, idstn)
    return inverse(forward(u, type=2, norm="ortho") * symbol, type=2,
                   norm="ortho")


def _apply_symbol(grid: Grid, u: np.ndarray, symbol: np.ndarray,
                  bc: str) -> np.ndarray:
    """Multiply the orthonormal DCT-II ("neumann") or DST-II ("dirichlet")
    coefficients of ``u`` by the grid-shaped ``symbol`` and transform
    back; dense or FFT transforms as :func:`_dense_transforms` selects."""
    if _dense_transforms(grid.shape):
        return _symbol_dense(grid, u, symbol, bc)
    return _symbol_fft(u, symbol, bc)


def apply_cosine_symbol(grid: Grid, u: np.ndarray,
                        symbol: np.ndarray) -> np.ndarray:
    """Operator diagonal in the orthonormal DCT-II basis: multiply the
    cosine coefficients of ``u`` by the grid-shaped ``symbol``."""
    return _apply_symbol(grid, u, symbol, "neumann")


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


def inverse_neumann(grid: Grid, psi: np.ndarray) -> np.ndarray:
    """Mean-free solution u of -Lap_N u = psi by the exact cosine
    diagonalization; requires mean(psi) = 0."""
    nrm = grid.l2_norm(psi)
    if abs(grid.mean(psi)) > 1e-10 * max(nrm, 1e-300):
        raise MeanError("inverse_neumann needs a mean-free right-hand side")
    return _apply_symbol(grid, psi, grid.inverse_eigenvalues("neumann"),
                         "neumann")


def inverse_dirichlet(grid: Grid, psi: np.ndarray) -> np.ndarray:
    """Solution u of -Lap_D u = psi by the exact sine diagonalization."""
    return _apply_symbol(grid, psi, grid.inverse_eigenvalues("dirichlet"),
                         "dirichlet")


def dual_norm(grid: Grid, psi: np.ndarray, bc: str) -> float:
    """Dual (inverse-Laplacian) norm of psi.

    Neumann: sqrt(<psi0, N psi0> + mean(psi)^2) with psi0 = psi - mean(psi)
    the mean-free part, i.e. sqrt(||grad N psi0||^2 + mean(psi)^2).
    Dirichlet: sqrt(<psi, D psi>) = ||grad D psi||.
    """
    if bc == "neumann":
        m = grid.mean(psi)
        psi0 = psi - m
        u = inverse_neumann(grid, psi0)
        return float(np.sqrt(max(grid.inner(psi0, u), 0.0) + m * m))
    if bc == "dirichlet":
        u = inverse_dirichlet(grid, psi)
        return float(np.sqrt(max(grid.inner(psi, u), 0.0)))
    raise ValueError(f"unknown bc {bc!r}")


# -- harmonic extension ------------------------------------------------


def harmonic_extension(grid: Grid, datum: Callable, t: float) -> np.ndarray:
    """Discrete harmonic field matching ``datum(X, t)`` on the boundary.

    ``datum`` is called once per boundary side on the face-center
    coordinate arrays of :meth:`Grid.boundary_sides` and must return
    values broadcastable to ``X[0]``.  Each face enters the cell next to
    it through the odd-reflection ghost as 2*datum/h^2.  Satisfies the
    discrete maximum principle: values lie within the range of the datum.
    """
    rhs = grid.zeros()
    for axis, X, cells in grid.boundary_sides():
        rhs[cells] += 2.0 * datum(X, t) / grid.h[axis] ** 2
    return inverse_dirichlet(grid, rhs)


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
    """The n lowest modes of :meth:`Grid.eigenvalues` (ties in index order),
    products of directly evaluated cosines; e_1 is 1/sqrt(|Omega|)."""
    if n < 1 or n > grid.ncells:
        raise ModeRangeError(f"n must be in [1, {grid.ncells}]")
    lam = grid.eigenvalues("neumann").reshape(-1)
    order = np.argsort(lam, kind="stable")[:n]
    modes = np.ones((n,) + (1,) * grid.dim)
    for a, k in enumerate(np.unravel_index(order, grid.shape)):
        L = grid.lengths[a]
        v = np.cos(np.pi * k[:, None] * grid.axis_centers(a) / L)
        v *= np.where(k == 0, 1.0 / np.sqrt(L), np.sqrt(2.0 / L))[:, None]
        shape = [n] + [1] * grid.dim
        shape[a + 1] = grid.shape[a]
        modes = modes * v.reshape(shape)
    return NeumannEigenbasis(grid=grid, eigenvalues=lam[order], modes=modes)


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
