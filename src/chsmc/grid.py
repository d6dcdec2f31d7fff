"""Cell-centered rectangular grids and the discrete elliptic machinery.

Second-order finite differences with ghost cells: mirrored ghosts give the
zero-flux (Neumann) Laplacian, odd-reflection ghosts the homogeneous
Dirichlet one, of which the module provides only the inverse.  Both
operators are diagonalized exactly by tensor-product DCT-II / DST-II
bases, which provides the fast inversion path on these uniform grids.  On
small grids the transforms are applied as dense per-axis matrices (the
fast diagonalization method of Lynch, Rice & Thomas, 1964); larger grids,
where the O(n log n) transform wins, use ``scipy.fft``.  The bound between
the two weighs a dense apply against an FFT apply plus the one-off import
of ``scipy.fft`` (about 0.3 s), so 2-D grids up to 128^2 stay dense even
though an FFT pair is slightly faster there.  The choice depends on the
grid shape alone (:func:`_dense_transforms`).  On a 1-D grid that takes
the dense path, the Dirichlet inverse Laplacian, the one a run applies
per Newton residual, folds the cached DST-II matrix and the symbol into
one cached matrix and applies it as one product.  The dense matrices
are built in closed form with numpy, so only a grid whose shape takes
the FFT path loads ``scipy.fft``, and it does so when the grid is
constructed, before any time is spent stepping.

The transforms come in halves, :func:`forward_transform` to orthonormal
coefficients and :func:`inverse_transform` back, so that a caller can
work in coefficients; on the dense path both run one body over the
per-axis matrices, the inverse with their transposes.  The module also
holds the package's one preconditioned CG loop, which the time stepper
runs on its Newton systems in DCT-II coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ParamError, SolveError


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on a box in 1, 2 or 3 dimensions."""

    shape: tuple
    lengths: tuple

    def __post_init__(self):
        if not 1 <= len(self.shape) <= 3:
            raise ParamError("dimension must be 1, 2 or 3")
        if len(self.lengths) != len(self.shape):
            raise ParamError("shape and lengths must agree in dimension")
        if any(n < 3 for n in self.shape):
            raise ParamError("need at least 3 cells per axis")
        if not all(0 < L < np.inf for L in self.lengths):
            raise ParamError("lengths must be positive and finite")
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        object.__setattr__(self, "lengths",
                           tuple(float(L) for L in self.lengths))
        if not all(0.0 < h * h < np.inf for h in self.h):
            raise ParamError(f"lengths {self.lengths} give a cell width h "
                             "whose h**2 is 0 or not finite")
        if not _dense_transforms(self.shape):
            # an FFT-path grid pays for the scipy.fft import here, not
            # inside the first solve that needs it
            import scipy.fft  # noqa: F401

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

    # The reductions here are ndarray methods: the same ufunc reduce as
    # np.sum and np.max, without their Python wrappers.  pcg takes its
    # inner products and norms with np.vdot, one BLAS dot and no temporary.

    def mean(self, u: np.ndarray) -> float:
        return float(u.sum()) * self.cell_volume / self.volume

    def integral(self, u: np.ndarray) -> float:
        return float(u.sum()) * self.cell_volume

    def l2_norm(self, u: np.ndarray) -> float:
        return math.sqrt((u * u).sum() * self.cell_volume)

    def sup_norm(self, u: np.ndarray) -> float:
        return float(np.abs(u).max())

    def gradient_energy(self, u: np.ndarray) -> float:
        """Integral of |grad u|^2 by interior face differences: the exact
        counterpart of the summation-by-parts identity <-Lap_N u, u>."""
        total = 0.0
        for axis in range(self.dim):
            h = self.h[axis]
            v = u.swapaxes(0, axis)
            d = (v[1:] - v[:-1]) / h
            total += float((d * d).sum())
        return total * self.cell_volume

    # -- spectral data -------------------------------------------------

    def axis_eigenvalues(self, axis: int, bc: str) -> np.ndarray:
        """Eigenvalues of the 1-D -Lap along ``axis`` on the DCT-II
        ("neumann") or DST-II ("dirichlet") modes, in mode order."""
        _check_bc(bc)
        n = self.shape[axis]
        k = np.arange(n) + (bc == "dirichlet")
        return (2.0 / self.h[axis] ** 2) * (1.0 - np.cos(np.pi * k / n))

    def eigenvalues(self, bc: str) -> np.ndarray:
        """Eigenvalues of -Lap on the tensor-product DCT-II ("neumann") or
        DST-II ("dirichlet") modes, grid-shaped and read-only (cached)."""
        def build():
            lam = self.axis_eigenvalues(0, bc)
            for a in range(1, self.dim):
                lam = lam[..., None] + self.axis_eigenvalues(a, bc)
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
        that axis, in ``scipy.fft``'s ``norm="ortho"`` convention; M.T is
        its inverse.  Closed-form numpy, read-only (cached)."""
        def build():
            _check_bc(bc)
            return tuple(_read_only(_transform_matrix(n, bc))
                         for n in self.shape)
        return self._cached("_mat_" + bc, build)


def _transform_matrix(n: int, bc: str) -> np.ndarray:
    """Orthonormal DCT-II ("neumann") or DST-II ("dirichlet") matrix of
    size n: row k samples cos(pi*k*(2j+1)/(2n)), resp.
    sin(pi*(k+1)*(2j+1)/(2n)), at j = 0..n-1.  The integer phase is reduced
    mod 4n before the angle is formed, so the argument stays below 2*pi and
    the entries agree with ``scipy.fft`` to within an ulp or two."""
    k = np.arange(n)[:, None] + (bc == "dirichlet")
    angle = np.pi * ((k * (2 * np.arange(n) + 1)) % (4 * n)) / (2 * n)
    scale = np.full((n, 1), np.sqrt(2.0 / n))
    # the constant cosine (first row) and the alternating sine (last row)
    # have twice the squared norm of the others
    scale[0 if bc == "neumann" else -1] = np.sqrt(1.0 / n)
    return scale * (np.cos(angle) if bc == "neumann" else np.sin(angle))


def _check_bc(bc: str) -> None:
    if bc not in ("neumann", "dirichlet"):
        raise ParamError(f"unknown bc {bc!r}")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# -- Laplacians --------------------------------------------------------


def _second_difference(out: np.ndarray, u: np.ndarray, axis: int) -> None:
    """Write the undivided second difference of ``u`` along ``axis`` into
    ``out``, in place.

    Along the axis the neighbours of a cell lie s = prod(shape[axis+1:])
    apart in the row-major order, so every cell but the first s and last s
    takes (-2v + v[+s]) + v[-s] in three contiguous passes over the
    flattened arrays; this has the bits of ((v+ - 2v) + v-).  A cell next
    to a face along the axis has its neighbour across the face in another
    row there and is written again afterwards, with the mirrored ghost
    equal to the edge cell: v+ - v at the low face, v- - v at the high."""
    s = math.prod(u.shape[axis + 1:])
    f, inner = u.reshape(-1), out.reshape(-1)[s:-s]
    np.multiply(f[s:-s], -2.0, out=inner)
    inner += f[2 * s:]
    inner += f[:-2 * s]
    v, d = u.swapaxes(0, axis), out.swapaxes(0, axis)
    d[0] = v[1] - v[0]
    d[-1] = v[-2] - v[-1]


def laplacian_neumann(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Zero-flux Laplacian; its discrete integral telescopes to zero.

    The sum over the axes, in order, of each axis's second difference
    divided by h**2, written into one output; from the second axis on,
    each term passes through one scratch array, so that it is divided
    before it is added.  Bit for bit the sum of per-axis quotients."""
    out = np.empty(u.shape)
    _second_difference(out, u, 0)
    out /= grid.h[0] ** 2
    if grid.dim > 1:
        term = np.empty_like(out)
        for axis in range(1, grid.dim):
            _second_difference(term, u, axis)
            term /= grid.h[axis] ** 2
            out += term
    return out


# -- fast transform solves ---------------------------------------------


# Largest sum(shape), per dimension, at which the dense transforms win.
_DENSE_MAX_SUM = {1: 256, 2: 256, 3: 288}


def _dense_transforms(shape: tuple) -> bool:
    """Whether per-axis matrix products beat ``scipy.fft`` on this shape,
    counting the one-off import of ``scipy.fft`` that the FFT path costs.

    A dense transform costs about ncells*sum(shape) multiply-adds against
    the FFT's O(ncells*log n) plus a fixed per-call overhead of tens of
    microseconds, which dominates on small grids; the FFT path also pays
    0.24-0.36 s once per process to import ``scipy.fft``.  The bounds
    weigh the two on single-threaded sweeps (2-core Xeon, numpy 2.4,
    scipy 1.17).  In 1-D the FFT took over between 256 and 320 cells, and
    in 3-D between 96^3 and 100^3, where the dense path still won at 85^3
    (35 against 53 ms): one Dirichlet inverse per shape, best of 7.  In
    2-D the FFT pair is the faster from 112^2 (median of 10 alternating
    sets of 20 applies of an inverse symbol, DCT and DST alike), but by
    little: 0.28 against 0.25-0.27 ms at 112^2, 0.39-0.41 against
    0.31-0.40 ms at 128^2, 0.52 against 0.33-0.35 ms at 144^2 and
    0.86-0.96 against 0.58-0.72 ms at 160^2.  At 128^2 the import repays
    itself only after about 3,500 applies, more than a spinodal-size run
    makes, so 2-D grids take the dense path up to 128^2 (sum 256).
    """
    return sum(shape) <= _DENSE_MAX_SUM[len(shape)]


def _dense_transform(grid: Grid, u: np.ndarray, mats: tuple) -> np.ndarray:
    """``u`` times the per-axis matrices ``mats``, each along its axis."""
    if grid.dim == 1:
        (A,) = mats
        return A @ u
    if grid.dim == 2:
        A, B = mats
        return A @ u @ B.T
    # 3-D: axes 1 and 2 as a stack of 2-D products, then axis 0 on the
    # (n0, n1*n2) reshape
    A, B, C = mats
    return (A @ (B @ u @ C.T).reshape(grid.shape[0], -1)).reshape(grid.shape)


def _keep_1d(grid: Grid, key: str, mats: tuple) -> None:
    """On a 1-D grid, keep the one matrix of ``mats`` under ``key``, where
    the transforms look it up before their path test: a later call is one
    dict lookup and one product."""
    if grid.dim == 1:
        grid.__dict__[key] = mats[0]


def forward_transform(grid: Grid, u: np.ndarray, bc: str) -> np.ndarray:
    """Coefficients of ``u`` in the orthonormal DCT-II ("neumann") or
    DST-II ("dirichlet") basis, grid-shaped; dense or FFT transforms as
    :func:`_dense_transforms` selects.  Orthonormal, so the Euclidean
    norm and inner product of coefficients are those of the values."""
    A = grid.__dict__.get("_1d_" + bc)
    if A is not None:
        return A @ u
    if _dense_transforms(grid.shape):
        mats = grid.transform_matrices(bc)
        _keep_1d(grid, "_1d_" + bc, mats)
        return _dense_transform(grid, u, mats)
    from scipy.fft import dctn, dstn
    return (dctn if bc == "neumann" else dstn)(u, type=2, norm="ortho")


def inverse_transform(grid: Grid, coeffs: np.ndarray, bc: str) -> np.ndarray:
    """Values of the field with the orthonormal DCT-II ("neumann") or
    DST-II ("dirichlet") coefficients ``coeffs``: the inverse of
    :func:`forward_transform`, on the same path."""
    A = grid.__dict__.get("_1d_T_" + bc)
    if A is not None:
        return A @ coeffs
    if _dense_transforms(grid.shape):
        mats = grid._cached("_mat_T_" + bc, lambda: tuple(
            M.T for M in grid.transform_matrices(bc)))
        _keep_1d(grid, "_1d_T_" + bc, mats)
        return _dense_transform(grid, coeffs, mats)
    from scipy.fft import idctn, idstn
    return (idctn if bc == "neumann" else idstn)(coeffs, type=2,
                                                  norm="ortho")


# -- conjugate gradients -----------------------------------------------


_CG_MAXITER = 20000


def pcg(apply_A: Callable, b: np.ndarray, precond: Callable, rtol: float,
        atol: float) -> np.ndarray:
    """Preconditioned CG for A x = b, starting from x = 0.

    ``apply_A`` must be symmetric positive definite on the subspace that
    ``b`` lies in and ``precond`` a symmetric positive definite
    approximation of its inverse there.  Stops once the Euclidean
    residual norm is at most max(rtol*||b||, atol).  A non-positive or
    non-finite curvature p.Ap or r.z is a breakdown and raises
    :class:`SolveError` before it can reach the iterate, as does running
    out of ``_CG_MAXITER`` iterations.
    """
    x = np.zeros_like(b)
    r = b.copy()
    bnorm = math.sqrt(np.vdot(b, b))
    stop = max(rtol * bnorm, atol)
    if bnorm <= stop:
        return x
    z = precond(r)
    rz = float(np.vdot(r, z))
    p = z.copy()
    for _ in range(_CG_MAXITER):
        if not (math.isfinite(rz) and rz > 0.0):
            raise SolveError(f"CG breakdown: r.z = {rz:.3e}")
        Ap = apply_A(p)
        pAp = float(np.vdot(p, Ap))
        if not (math.isfinite(pAp) and pAp > 0.0):
            raise SolveError(f"CG breakdown: p.Ap = {pAp:.3e}; the "
                             "operator is not positive definite")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        if math.sqrt(np.vdot(r, r)) <= stop:
            return x
        z = precond(r)
        rz_new = float(np.vdot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolveError(
        f"CG did not reach tolerance in {_CG_MAXITER} iterations")


# -- inverse operators -------------------------------------------------


def _apply_inverse(grid: Grid, psi: np.ndarray, bc: str) -> np.ndarray:
    """(-Lap)^{-1} psi: the transform pair around the symbol
    :meth:`Grid.inverse_eigenvalues`."""
    return inverse_transform(
        grid, grid.inverse_eigenvalues(bc) * forward_transform(grid, psi, bc),
        bc)


def inverse_neumann(grid: Grid, psi: np.ndarray) -> np.ndarray:
    """Mean-free solution u of -Lap_N u = psi by the exact cosine
    diagonalization (:func:`_apply_inverse`); requires mean(psi) = 0."""
    nrm = grid.l2_norm(psi)
    if abs(grid.mean(psi)) > 1e-10 * max(nrm, 1e-300):
        raise ParamError("inverse_neumann needs a mean-free right-hand side")
    return _apply_inverse(grid, psi, "neumann")


def inverse_dirichlet(grid: Grid, psi: np.ndarray) -> np.ndarray:
    """Solution u of -Lap_D u = psi by the exact sine diagonalization
    (:func:`_apply_inverse`).

    The Dirichlet stepper applies it per Newton residual and CG
    iteration, so on a 1-D dense-path grid it is one product with the
    cached, read-only fold A.T @ diag(1/lambda_D) @ A of the DST-II matrix
    A: 3.8 us a call at 128 cells against 8.9 us for the transform pair
    (2-core Xeon, one thread, best of 5 x 20,000 calls).  The fold has
    ncells^2 entries, so only there."""
    fold = grid.__dict__.get("_inv_mat_dirichlet")
    if fold is not None:
        return fold @ psi
    if grid.dim == 1 and _dense_transforms(grid.shape):
        (A,) = grid.transform_matrices("dirichlet")
        w = grid.inverse_eigenvalues("dirichlet")
        fold = grid.__dict__["_inv_mat_dirichlet"] = _read_only(
            A.T @ (w[:, None] * A))
        return fold @ psi
    return _apply_inverse(grid, psi, "dirichlet")


def dual_norm(grid: Grid, psi: np.ndarray, bc: str) -> float:
    """Dual (inverse-Laplacian) norm of psi: sqrt(<psi0, N psi0> + m^2)
    for Neumann, with m = mean(psi) and psi0 = psi - m, and sqrt(<psi, D psi>)
    for Dirichlet.  By Parseval both are sqrt(cell_volume * sum(w c^2) + m^2)
    over the orthonormal DCT-II (DST-II) coefficients c of psi, with w the
    inverse symbol, whose w_0 = 0 drops the constant mode, and m read off as
    c_0/sqrt(ncells) for Neumann, 0 for Dirichlet: one forward transform."""
    _check_bc(bc)
    c = forward_transform(grid, psi, bc)
    m = c.flat[0] / math.sqrt(grid.ncells) if bc == "neumann" else 0.0
    w = grid.inverse_eigenvalues(bc)
    return math.sqrt(grid.cell_volume * float(((w * c) * c).sum()) + m * m)


# -- harmonic extension ------------------------------------------------


def harmonic_extension(grid: Grid, datum: Callable, t: float) -> np.ndarray:
    """Discrete harmonic field matching ``datum(X, t)`` on the boundary.

    ``datum`` is called once per boundary side on the face-center
    coordinate arrays of :meth:`Grid.boundary_sides` and must return
    values broadcastable to ``X[0]``.  Each face enters the cell next to
    it through the odd-reflection ghost as 2*datum/h^2.  Satisfies the
    discrete maximum principle: values lie within the range of the datum.

    The grid keeps the last datum values, side by side, and their solve,
    so a datum that gives the same boundary values as the previous call
    (one that ignores t, say) is not solved again, and its right-hand side
    is not assembled; the result is read-only.  Equal values give an
    equal right-hand side, so a cached result has the bits of a fresh one.
    """
    values = [np.asarray(datum(X, t)) for _, X, _ in grid.boundary_sides()]
    key = [(v.dtype.str, v.shape, v.tobytes()) for v in values]
    last = grid.__dict__.get("_harmonic")
    if last is None or last[0] != key:
        rhs = grid.zeros()
        for (axis, _, cells), v in zip(grid.boundary_sides(), values):
            rhs[cells] += 2.0 * v / grid.h[axis] ** 2
        last = grid.__dict__["_harmonic"] = (
            key, _read_only(inverse_dirichlet(grid, rhs)))
    return last[1]


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
    products of directly evaluated cosines; e_1 is 1/sqrt(|Omega|).
    Read-only (cached per n)."""
    if n < 1 or n > grid.ncells:
        raise ParamError(f"n must be in [1, {grid.ncells}]")

    def build():
        lam = grid.eigenvalues("neumann").reshape(-1)
        order = np.argsort(lam, kind="stable")[:n]
        modes = np.ones((n,) + (1,) * grid.dim)
        for a, k in enumerate(np.unravel_index(order, grid.shape)):
            L = grid.lengths[a]
            v = np.cos(np.pi * k[:, None] * grid.axis_centers(a) / L)
            v *= np.where(k == 0, 1.0 / np.sqrt(L),
                          np.sqrt(2.0 / L))[:, None]
            shape = [n] + [1] * grid.dim
            shape[a + 1] = grid.shape[a]
            modes = modes * v.reshape(shape)
        return NeumannEigenbasis(grid=grid, eigenvalues=_read_only(lam[order]),
                                 modes=_read_only(modes))
    return grid._cached(f"_basis_{n}", build)


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
            raise ParamError("not a CHSMC1 snapshot file")
        dim = int(header[1])
        shape = tuple(int(v) for v in header[2:2 + dim])
        lengths = tuple(float(v) for v in header[2 + dim:2 + 2 * dim])
        t = float(header[2 + 2 * dim])
        raw = fh.read()
    field = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    return Grid(shape=shape, lengths=lengths), t, field

