import itertools
import re

import numpy as np
import pytest

from chsmc import grid as gr
from chsmc.errors import ParamError, SolveError
from chsmc.grid import Grid

from conftest import laplacian_dirichlet


# -- construction and quadrature -------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(shape=(2,), lengths=(1.0,))
    with pytest.raises(ValueError):
        Grid(shape=(4, 4), lengths=(1.0,))
    with pytest.raises(ValueError):
        Grid(shape=(4,), lengths=(0.0,))
    with pytest.raises(ValueError):
        Grid(shape=(4, 4, 4, 4), lengths=(1.0,) * 4)


def test_grid_rejects_a_non_integral_cell_count():
    """A cell count is an integer: a float is rejected, not truncated;
    Python and numpy integers are taken."""
    for cells in (64.9, np.float64(64.0)):
        with pytest.raises(ParamError, match="must be integers"):
            Grid(shape=(cells,), lengths=(1.0,))
    grid = Grid(shape=(np.int64(8), np.int32(4), 5), lengths=(1.0,) * 3)
    assert grid.shape == (8, 4, 5)
    assert all(type(n) is int for n in grid.shape)


@pytest.mark.parametrize("length", [1e300, 1e-320])
def test_grid_rejects_a_length_whose_h_squared_overflows_or_underflows(
        length):
    """The Laplacian divides by h**2, which must be finite and not 0."""
    with pytest.raises(ValueError, match="lengths"):
        Grid(shape=(32,), lengths=(length,))


def test_grid_geometry(grid2d):
    assert grid2d.dim == 2
    assert grid2d.h == (1.0 / 12, 2.0 / 10)
    assert grid2d.volume == pytest.approx(2.0)
    assert grid2d.cell_volume == pytest.approx(grid2d.volume / 120)
    assert grid2d.ncells == 120
    X, Y = grid2d.meshgrid()
    assert X.shape == grid2d.shape
    assert X[0, 0] == pytest.approx(grid2d.h[0] / 2)
    assert Y[0, -1] == pytest.approx(2.0 - grid2d.h[1] / 2)


def test_cached_geometry_keeps_equality_and_hash():
    a = Grid(shape=(12, 10), lengths=(1.0, 2.0))
    b = Grid(shape=(12, 10), lengths=(1.0, 2.0))
    assert (a.h, a.volume, a.cell_volume, a.ncells) == (
        (1.0 / 12, 2.0 / 10), float(np.prod(a.lengths)),
        float(np.prod(a.h)), 120)
    a.meshgrid()
    a.eigenvalues("dirichlet")
    a.transform_matrices("neumann")
    assert a == b and hash(a) == hash(b)
    assert a != Grid(shape=(12, 10), lengths=(1.0, 2.5))
    assert len({a, b}) == 1


def test_quadrature_and_norms(grid1d):
    x = grid1d.meshgrid()[0]
    u = np.full(grid1d.shape, 3.0)
    assert grid1d.mean(u) == pytest.approx(3.0)
    assert grid1d.integral(u) == pytest.approx(3.0)
    assert grid1d.l2_norm(u) == pytest.approx(3.0)
    assert grid1d.sup_norm(-u) == 3.0
    # midpoint rule: exact for affine fields, second order otherwise
    assert grid1d.integral(x) == pytest.approx(0.5, abs=1e-14)
    assert grid1d.integral(x * (1.0 - x)) == pytest.approx(
        1.0 / 6.0, abs=grid1d.h[0] ** 2)
    v = np.sin(2.0 * np.pi * x)
    assert grid1d.integral(u * v) == pytest.approx(0.0, abs=1e-13)


def test_gradient_energy_linear_field(grid1d):
    x = grid1d.meshgrid()[0]
    u = 2.0 * x
    # |grad u|^2 = 4 on the unit interval; faces miss the two boundary
    # half-cells
    n = grid1d.shape[0]
    assert grid1d.gradient_energy(u) == pytest.approx(4.0 * (n - 1) / n)


@pytest.mark.parametrize("shape", [(128,), (12, 10), (10, 9, 8)])
def test_gradient_energy_is_summation_by_parts(shape):
    """Face differences give exactly <-Lap_N u, u>, the discrete Green
    identity the energy-dissipation bookkeeping relies on."""
    grid = Grid(shape=shape, lengths=(1.0, 2.0, 0.5)[:len(shape)])
    u = np.random.default_rng(3).standard_normal(shape)
    energy = grid.gradient_energy(u)
    assert energy == pytest.approx(
        -grid.integral(u * gr.laplacian_neumann(grid, u)), rel=1e-14, abs=0)


# -- Laplacians -------------------------------------------------------------


def test_laplacian_neumann_annihilates_constants(grid2d):
    u = np.full(grid2d.shape, 1.7)
    assert np.max(np.abs(gr.laplacian_neumann(grid2d, u))) == 0.0


def test_laplacian_neumann_integral_telescopes(grid2d):
    rng = np.random.default_rng(3)
    u = rng.standard_normal(grid2d.shape)
    assert grid2d.integral(gr.laplacian_neumann(grid2d, u)) == pytest.approx(
        0.0, abs=1e-11)


def _per_axis_laplacian_neumann(grid, u):
    """Reference: per axis, ((v+ - 2v) + v-) inside and v+ - v, v- - v at
    the edges, divided by h**2 into a fresh array, summed over the axes in
    order."""
    def second_difference(h, axis):
        v = u.swapaxes(0, axis)
        d = np.empty_like(v)
        d[1:-1] = v[2:] - 2.0 * v[1:-1] + v[:-2]
        d[0] = v[1] - v[0]
        d[-1] = v[-2] - v[-1]
        return d.swapaxes(0, axis) / h**2
    out = second_difference(grid.h[0], 0)
    for axis in range(1, grid.dim):
        out += second_difference(grid.h[axis], axis)
    return out


@pytest.mark.parametrize("shape", [(3,), (64,), (3, 4), (12, 10),
                                   (6, 7, 5), (24, 24, 24)], ids=str)
def test_laplacian_neumann_bits_of_the_per_axis_form(shape):
    """The in-place Laplacian has the bits of the per-axis quotients
    summed in order, on fields of very different sizes and with signed
    zeros."""
    grid = Grid(shape=shape, lengths=(0.7, 1.3, 0.45)[:len(shape)])
    rng = np.random.default_rng(len(shape))
    fields = [rng.standard_normal(shape) * 10.0 ** e for e in (-300, 0, 300)]
    fields.append(np.where(rng.random(shape) < 0.5, -0.0, 0.0))
    for u in fields:
        assert (gr.laplacian_neumann(grid, u).tobytes()
                == _per_axis_laplacian_neumann(grid, u).tobytes())


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_laplacian_symmetry(grid2d, bc):
    rng = np.random.default_rng(4)
    u = rng.standard_normal(grid2d.shape)
    v = rng.standard_normal(grid2d.shape)
    op = gr.laplacian_neumann if bc == "neumann" else laplacian_dirichlet
    assert grid2d.integral(op(grid2d, u) * v) == pytest.approx(
        grid2d.integral(u * op(grid2d, v)), rel=1e-12)


def test_discrete_eigenpairs_1d(grid1d):
    x = grid1d.meshgrid()[0]
    L = grid1d.lengths[0]
    k = 3
    lam_n = grid1d.axis_eigenvalues(0, "neumann")[k]
    v = np.cos(np.pi * k * x / L)
    assert np.allclose(-gr.laplacian_neumann(grid1d, v), lam_n * v,
                       atol=1e-10)
    m = 2
    lam_d = grid1d.axis_eigenvalues(0, "dirichlet")[m - 1]
    w = np.sin(np.pi * m * x / L)
    assert np.allclose(-laplacian_dirichlet(grid1d, w), lam_d * w,
                       atol=1e-10)


def test_discrete_eigenpairs_tensor(grid3d):
    X = grid3d.meshgrid()
    lam = (grid3d.axis_eigenvalues(0, "neumann")[1]
           + grid3d.axis_eigenvalues(2, "neumann")[2])
    v = (np.cos(np.pi * X[0] / grid3d.lengths[0])
         * np.cos(2.0 * np.pi * X[2] / grid3d.lengths[2]))
    assert np.allclose(-gr.laplacian_neumann(grid3d, v), lam * v, atol=1e-9)


# -- inverse operators -------------------------------------------------------


def cg_inverse_neumann(grid, psi):
    """Plain CG on the stencil: an independent check of the transform
    solve.  CG stays in the range of the singular operator when started
    from an exactly mean-free right-hand side."""
    u = gr.pcg(lambda v: -gr.laplacian_neumann(grid, v),
               psi - grid.mean(psi), lambda r: r, rtol=1e-11, atol=0.0)
    return u - grid.mean(u)


def cg_inverse_dirichlet(grid, psi):
    return gr.pcg(lambda v: -laplacian_dirichlet(grid, v), psi,
                  lambda r: r, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("inverse", [gr.inverse_neumann, cg_inverse_neumann],
                         ids=["dct", "cg"])
def test_inverse_neumann_solves(grid2d, inverse):
    rng = np.random.default_rng(5)
    psi = rng.standard_normal(grid2d.shape)
    psi -= grid2d.mean(psi)
    u = inverse(grid2d, psi)
    assert abs(grid2d.mean(u)) < 1e-11
    assert np.allclose(-gr.laplacian_neumann(grid2d, u), psi, atol=1e-8)


def test_inverse_neumann_paths_agree(grid1d):
    rng = np.random.default_rng(6)
    psi = rng.standard_normal(grid1d.shape)
    psi -= grid1d.mean(psi)
    u1 = gr.inverse_neumann(grid1d, psi)
    u2 = cg_inverse_neumann(grid1d, psi)
    assert np.allclose(u1, u2, atol=1e-9)


def test_inverse_neumann_rejects_nonzero_mean(grid1d):
    with pytest.raises(ParamError, match="mean-free right-hand side"):
        gr.inverse_neumann(grid1d, np.ones(grid1d.shape))


@pytest.mark.parametrize("inverse", [gr.inverse_dirichlet,
                                     cg_inverse_dirichlet],
                         ids=["dct", "cg"])
def test_inverse_dirichlet_solves(grid2d, inverse):
    rng = np.random.default_rng(7)
    psi = rng.standard_normal(grid2d.shape)
    u = inverse(grid2d, psi)
    assert np.allclose(-laplacian_dirichlet(grid2d, u), psi, atol=1e-8)


# Shapes on both sides of the dense/FFT selection; the tier-1 fixture grids
# (64, 12x10, 8^3) are all on the dense side.
TRANSFORM_SHAPES = [((64,), True), ((256,), True), ((1024,), False),
                    ((12, 10), True), ((96, 96), True), ((128, 128), True),
                    ((129, 128), False),
                    ((8, 8, 8), True), ((6, 7, 5), True),
                    ((24, 24, 24), True), ((32, 32, 32), True),
                    ((282, 3, 3), True), ((283, 3, 3), False)]


def _dense_pair(grid, u, symbol, bc):
    """The dense transform pair around ``symbol``, on any grid shape."""
    mats = grid.transform_matrices(bc)
    forward = gr._dense_map(grid.shape, mats)
    inverse = gr._dense_map(grid.shape, tuple(M.T for M in mats))
    return inverse(symbol * forward(u))


def _fft_pair(u, symbol, bc):
    """The scipy.fft transform pair around ``symbol``."""
    from scipy.fft import dctn, dstn, idctn, idstn
    forward, inverse = (dctn, idctn) if bc == "neumann" else (dstn, idstn)
    return inverse(symbol * forward(u, type=2, norm="ortho"), type=2,
                   norm="ortho")


@pytest.mark.parametrize("shape, dense", TRANSFORM_SHAPES,
                         ids=[str(s) for s, _ in TRANSFORM_SHAPES])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_dense_and_fft_transforms_agree(shape, dense, bc):
    grid = Grid(shape=shape,
                lengths=tuple(0.5 + 0.25 * a for a in range(len(shape))))
    assert gr._dense_transforms(shape) is dense
    rng = np.random.default_rng(12)
    psi = rng.standard_normal(shape)
    psi -= grid.mean(psi)
    symbol = grid.inverse_eigenvalues(bc)
    u_dense = _dense_pair(grid, psi, symbol, bc)
    u_fft = _fft_pair(psi, symbol, bc)
    scale = np.max(np.abs(u_fft))
    assert np.max(np.abs(u_dense - u_fft)) <= 1e-13 * scale
    inverse, cg_inverse = ((gr.inverse_neumann, cg_inverse_neumann)
                           if bc == "neumann" else
                           (gr.inverse_dirichlet, cg_inverse_dirichlet))
    u = inverse(grid, psi)
    if dense and grid.dim == 1 and bc == "dirichlet":
        # the 1-D dense Dirichlet path applies the fold, not the transforms
        (A,) = grid.transform_matrices(bc)
        assert np.array_equal(u, (A.T @ (symbol[:, None] * A)) @ psi)
        assert np.max(np.abs(u - u_dense)) <= 1e-13 * scale
    else:
        assert np.array_equal(u, u_dense if dense else u_fft)
    u_cg = cg_inverse(grid, psi)
    assert np.max(np.abs(u_cg - u)) <= 1e-9 * scale


@pytest.mark.parametrize("shape, dense", TRANSFORM_SHAPES,
                         ids=[str(s) for s, _ in TRANSFORM_SHAPES])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_transform_halves_are_orthonormal_inverses(shape, dense, bc):
    """forward_transform is scipy's orthonormal DCT-II / DST-II on the
    dense and the FFT path, inverse_transform undoes it both ways round,
    and both keep the Euclidean norm (Parseval).  The dense inverse is the
    forward product with the transposed matrices, bit for bit; the FFT
    inverse is scipy's."""
    from scipy.fft import dctn, dstn, idctn, idstn
    grid = Grid(shape=shape,
                lengths=tuple(0.5 + 0.25 * a for a in range(len(shape))))
    assert gr._dense_transforms(shape) is dense
    rng = np.random.default_rng(21)
    u, c = rng.standard_normal(shape), rng.standard_normal(shape)
    coeffs = gr.forward_transform(grid, u, bc)
    reference = (dctn if bc == "neumann" else dstn)(u, type=2, norm="ortho")
    assert coeffs.shape == shape
    assert np.max(np.abs(coeffs - reference)) <= 1e-13 * np.max(np.abs(u))
    back = gr.inverse_transform(grid, coeffs, bc)
    assert np.max(np.abs(back - u)) <= 1e-13 * np.max(np.abs(u))
    there = gr.forward_transform(grid, gr.inverse_transform(grid, c, bc), bc)
    assert np.max(np.abs(there - c)) <= 1e-13 * np.max(np.abs(c))
    norm = np.sqrt((u * u).sum())
    assert abs(np.sqrt((coeffs * coeffs).sum()) - norm) <= 1e-13 * norm
    if dense:
        mats = grid.transform_matrices(bc)
        assert np.array_equal(back, gr._dense_map(
            shape, tuple(M.T for M in mats))(coeffs))
    else:
        assert np.array_equal(back, (idctn if bc == "neumann" else idstn)(
            coeffs, type=2, norm="ortho"))


@pytest.mark.parametrize("n", [3, 8, 64, 128, 256, 288])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_closed_form_transform_matrices_match_scipy(n, bc):
    """The numpy matrices are scipy's orthonormal DCT-II / DST-II of the
    identity up to roundoff, and as orthogonal as those."""
    from scipy.fft import dct, dst
    (M,) = Grid(shape=(n,), lengths=(1.0,)).transform_matrices(bc)
    transform = dct if bc == "neumann" else dst
    reference = transform(np.eye(n), type=2, norm="ortho", axis=0)
    assert np.max(np.abs(M - reference)) <= 4e-16
    assert np.max(np.abs(M @ M.T - np.eye(n))) <= 1e-14


def test_transform_data_cached_read_only(grid2d):
    for bc in ("neumann", "dirichlet"):
        mats = grid2d.transform_matrices(bc)
        assert mats is grid2d.transform_matrices(bc)
        inv = grid2d.inverse_eigenvalues(bc)
        assert inv is grid2d.inverse_eigenvalues(bc)
        assert grid2d.transforms(bc) is grid2d.transforms(bc)
        for a, M in enumerate(mats):
            assert not M.flags.writeable
            assert np.allclose(M @ M.T, np.eye(grid2d.shape[a]), atol=1e-14)
        assert not inv.flags.writeable
    lam = grid2d.eigenvalues("neumann")
    inv = grid2d.inverse_eigenvalues("neumann")
    assert inv.flat[0] == 0.0  # the zero mode of the mean-free inverse
    assert np.all(inv.flat[1:] == 1.0 / lam.flat[1:])
    for spectral in (grid2d.transform_matrices, grid2d.transforms,
                     grid2d.eigenvalues,
                     lambda bc: grid2d.axis_eigenvalues(0, bc)):
        with pytest.raises(ValueError):
            spectral("robin")
    with pytest.raises(ValueError):
        Grid(shape=(1024,), lengths=(1.0,)).transforms("robin")


@pytest.mark.parametrize("n", [3, 64, 128, 256])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_1d_dense_inverse_is_one_folded_matrix(n, bc):
    """On a 1-D dense-path grid the Dirichlet inverse, the one a run
    applies, is one product with a cached, read-only fold of the cached
    DST-II matrix A, bitwise A.T @ (w * A) @ psi with w the inverse
    symbol; the Neumann inverse is the transform pair, bit for bit, and
    builds no fold.  Both solve the stencil."""
    grid = Grid(shape=(n,), lengths=(0.7,))
    assert gr._dense_transforms(grid.shape)
    rng = np.random.default_rng(n)
    psi = rng.standard_normal(grid.shape)
    psi -= grid.mean(psi)
    w = grid.inverse_eigenvalues(bc)
    if bc == "neumann":
        u, lap = gr.inverse_neumann(grid, psi), gr.laplacian_neumann
        assert np.array_equal(u, _dense_pair(grid, psi, w, bc))
        assert "_inv_mat_neumann" not in grid.__dict__
    else:
        u, lap = gr.inverse_dirichlet(grid, psi), laplacian_dirichlet
        D = grid.__dict__["_inv_mat_dirichlet"]
        (A,) = grid.transform_matrices(bc)
        assert np.array_equal(D, A.T @ (w[:, None] * A))
        assert np.array_equal(u, D @ psi) and not D.flags.writeable
        gr.inverse_dirichlet(grid, psi)
        assert grid.__dict__["_inv_mat_dirichlet"] is D
    assert np.max(np.abs(-lap(grid, u) - psi)) <= 1e-10 * np.max(np.abs(psi))


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_inverse_folds_only_on_the_1d_dense_path(bc):
    """Only the 1-D dense-path Dirichlet inverse builds a fold.  The 1-D
    dense Neumann inverse, the 1-D FFT-path grid (1024 cells) and the 2-D
    and 3-D grids, where a fold would have ncells^2 entries, apply the
    transform pair."""
    for shape in [(64,), (1024,), (12, 10), (6, 7, 5)]:
        grid = Grid(shape=shape, lengths=(1.0,) * len(shape))
        psi = np.random.default_rng(1).standard_normal(shape)
        psi -= grid.mean(psi)
        inverse = (gr.inverse_neumann if bc == "neumann"
                   else gr.inverse_dirichlet)
        u = inverse(grid, psi)
        folds = bc == "dirichlet" and shape == (64,)
        assert ("_inv_mat_" + bc in grid.__dict__) is folds
        if not folds:
            symbol = grid.inverse_eigenvalues(bc)
            assert np.array_equal(u, gr.inverse_transform(
                grid, symbol * gr.forward_transform(grid, psi, bc), bc))


@pytest.mark.parametrize("shape", [(64,), (12, 10), (6, 7, 5)])
def test_gradient_energy_bits_of_the_moveaxis_form(shape):
    """swapaxes gives the bits that np.moveaxis gave."""
    grid = Grid(shape=shape, lengths=(1.0, 2.0, 0.5)[:len(shape)])
    u = np.random.default_rng(4).standard_normal(shape)
    total = 0.0
    for axis in range(grid.dim):
        v = np.moveaxis(u, axis, 0)
        d = (v[1:] - v[:-1]) / grid.h[axis]
        total += float(np.sum(d * d))
    assert grid.gradient_energy(u) == total * grid.cell_volume


# -- conjugate gradients -----------------------------------------------------


def test_pcg_preconditioned_and_plain_agree():
    rng = np.random.default_rng(10)
    Q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    A = Q @ np.diag(np.logspace(0, 4, 40)) @ Q.T
    b = rng.standard_normal(40)
    d = np.diag(A)
    x_plain = gr.pcg(lambda v: A @ v, b, lambda r: r, rtol=1e-11, atol=0.0)
    x_jacobi = gr.pcg(lambda v: A @ v, b, lambda r: r / d, rtol=1e-11,
                      atol=0.0)
    x_exact = np.linalg.solve(A, b)
    assert np.allclose(x_plain, x_exact, rtol=0.0, atol=1e-9)
    assert np.allclose(x_jacobi, x_exact, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("diag", [[1.0, -3.0, 2.0], [1.0, np.nan, 2.0]])
def test_pcg_breakdown_raises(diag):
    """Indefinite or non-finite curvature raises instead of stepping."""
    calls = []

    def apply_A(v):
        calls.append(v.copy())
        return np.array(diag) * v

    with pytest.raises(SolveError, match="breakdown"):
        gr.pcg(apply_A, np.ones(3), lambda r: r, rtol=1e-11, atol=0.0)
    assert len(calls) == 1


def test_dual_norm_closed_forms(grid1d):
    # constant field: the mean term carries the whole norm
    c = np.full(grid1d.shape, -2.5)
    assert gr.dual_norm(grid1d, c, "neumann") == pytest.approx(2.5)
    # single mean-free eigenmode: ||psi|| / sqrt(lambda)
    x = grid1d.meshgrid()[0]
    k = 2
    lam = grid1d.axis_eigenvalues(0, "neumann")[k]
    psi = np.cos(np.pi * k * x / grid1d.lengths[0])
    assert gr.dual_norm(grid1d, psi, "neumann") == pytest.approx(
        grid1d.l2_norm(psi) / np.sqrt(lam))
    m = 1
    lam_d = grid1d.axis_eigenvalues(0, "dirichlet")[m - 1]
    w = np.sin(np.pi * m * x / grid1d.lengths[0])
    assert gr.dual_norm(grid1d, w, "dirichlet") == pytest.approx(
        grid1d.l2_norm(w) / np.sqrt(lam_d))
    with pytest.raises(ValueError):
        gr.dual_norm(grid1d, c, "robin")


@pytest.mark.parametrize("shape", [(64,), (300,), (12, 10), (129, 128),
                                   (8, 8, 8)])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_dual_norm_matches_the_inverse_form(shape, bc):
    """The weighted coefficient sum equals the inverse solve it stands for,
    sqrt(<psi0, N psi0> + mean^2) and sqrt(<psi, D psi>), on the dense
    paths and on the 1-D (300) and 2-D (129 x 128) FFT paths."""
    assert gr._dense_transforms(shape) == (shape not in [(300,), (129, 128)])
    grid = Grid(shape=shape, lengths=(1.0, 2.0, 0.5)[:len(shape)])
    psi = 0.3 + np.random.default_rng(grid.ncells).standard_normal(shape)
    norm = gr.dual_norm(grid, psi, bc)
    # one forward transform: a 1-D grid builds no folded inverse for it
    assert "_inv_mat_" + bc not in grid.__dict__
    if bc == "neumann":
        m = grid.mean(psi)
        psi0 = psi - m
        ref = np.sqrt(grid.integral(psi0 * gr.inverse_neumann(grid, psi0))
                      + m * m)
    else:
        ref = np.sqrt(grid.integral(psi * gr.inverse_dirichlet(grid, psi)))
    assert norm == pytest.approx(ref, rel=1e-13, abs=0)


@pytest.mark.parametrize("cells", [3, 6, 7, 10, 12])
def test_dual_norm_of_a_constant_is_its_size(cells):
    """A constant lies in mode 0 up to roundoff, which the inverse symbol
    drops, so the zero-flux dual norm is its mean (a one-mode Galerkin
    run records such a constant at every step)."""
    grid = Grid(shape=(cells,), lengths=(1.0,))
    for c in (0.1, 0.3, 1.0 / 3.0, 0.7, 1.1):
        psi = np.full(grid.shape, c)
        assert gr.dual_norm(grid, psi, "neumann") == pytest.approx(c)


# -- harmonic extension -------------------------------------------------------


def test_harmonic_extension_constant_and_linear(grid1d):
    u = gr.harmonic_extension(grid1d, lambda x, t: 3.0, 0.0)
    assert np.allclose(u, 3.0, atol=1e-10)
    # an affine datum extends to the affine field exactly
    v = gr.harmonic_extension(grid1d, lambda x, t: x[0], 0.0)
    assert np.allclose(v, grid1d.meshgrid()[0], atol=1e-10)


def test_harmonic_extension_maximum_principle(grid2d):
    datum = lambda x, t: np.sin(3.0 * x[0]) + 0.5 * np.cos(2.0 * x[1])
    u = gr.harmonic_extension(grid2d, datum, 0.0)
    vals = np.concatenate([datum(X, 0.0).ravel()
                           for _, X, _ in grid2d.boundary_sides()])
    assert np.min(u) >= min(vals) - 1e-10
    assert np.max(u) <= max(vals) + 1e-10


def _counted_inverse(monkeypatch):
    inverse, calls = gr.inverse_dirichlet, []

    def counted(grid, psi):
        calls.append(grid)
        return inverse(grid, psi)

    monkeypatch.setattr(gr, "inverse_dirichlet", counted)
    return calls


def test_harmonic_extension_solves_a_fixed_datum_once_per_grid(monkeypatch):
    datum = lambda X, t: np.sin(3.0 * X[0]) * np.cos(X[1])
    grid = Grid(shape=(12, 10), lengths=(1.0, 2.0))
    calls = _counted_inverse(monkeypatch)
    results = [gr.harmonic_extension(grid, datum, t)
               for t in (0.0, 0.1, 0.2, 0.1)]
    assert len(calls) == 1 and calls[0] is grid
    fresh = gr.harmonic_extension(Grid(shape=(12, 10), lengths=(1.0, 2.0)),
                                  datum, 0.3)
    assert len(calls) == 2
    for u in results:
        assert u.tobytes() == fresh.tobytes()


def test_harmonic_extension_solves_a_changed_datum_again(monkeypatch):
    datum = lambda X, t: 0.2 + X[0] * t
    grid = Grid(shape=(17,), lengths=(0.8,))
    calls = _counted_inverse(monkeypatch)
    for t in (0.3, 0.7, 0.3):
        u = gr.harmonic_extension(grid, datum, t)
        fresh = gr.harmonic_extension(Grid(shape=(17,), lengths=(0.8,)),
                                      datum, t)
        assert u.tobytes() == fresh.tobytes()
    assert sum(g is grid for g in calls) == 3


def test_harmonic_extension_keys_on_the_values_with_their_dtype():
    """The cache key is each side's datum values: values with the bytes of
    the previous call's but another dtype (the integer 1 and the float
    5e-324) are another datum, solved again."""
    grid = Grid(shape=(4, 3), lengths=(1.0, 0.5))
    for value in (np.int64(1), np.float64(5e-324), np.int64(1)):
        u = gr.harmonic_extension(grid, lambda X, t: value, 0.0)
        fresh = gr.harmonic_extension(Grid(shape=(4, 3), lengths=(1.0, 0.5)),
                                      lambda X, t: value, 0.0)
        assert u.tobytes() == fresh.tobytes()
    assert np.max(u) > 0.5


def test_harmonic_extension_result_cannot_be_written(grid1d):
    datum = lambda X, t: 1.0 + X[0]
    u = gr.harmonic_extension(grid1d, datum, 0.0)
    expected = u.copy()
    with pytest.raises(ValueError):
        u[0] = 5.0
    with pytest.raises(ValueError):
        u += 1.0
    assert gr.harmonic_extension(grid1d, datum, 0.0).tobytes() == (
        expected.tobytes())


def test_boundary_faces_count(grid2d):
    sides = grid2d.boundary_sides()
    n0, n1 = grid2d.shape
    assert sum(X[0].size for _, X, _ in sides) == 2 * n0 + 2 * n1
    assert sides is grid2d.boundary_sides()  # cached
    for k, (axis, X, cells) in enumerate(sides):
        assert axis == k // 2
        assert grid2d.zeros()[cells].shape == X[0].shape
        assert np.all(X[axis] == (grid2d.lengths[axis] if k % 2 else 0.0))


def _per_face_harmonic_extension(grid, datum, t):
    """Reference: the datum evaluated at one boundary face at a time and
    added to the adjacent cell, axis by axis, low side first."""
    rhs = grid.zeros()
    for axis in range(grid.dim):
        for cell, coord in ((0, 0.0),
                            (grid.shape[axis] - 1, grid.lengths[axis])):
            for idx in np.ndindex(*grid.shape):
                if idx[axis] != cell:
                    continue
                x = [grid.axis_centers(a)[i] for a, i in enumerate(idx)]
                x[axis] = coord
                rhs[idx] += 2.0 * float(datum(tuple(x), t)) / grid.h[axis]**2
    return gr.inverse_dirichlet(grid, rhs)


@pytest.mark.parametrize("shape, lengths", [
    ((17,), (0.8,)), ((12, 10), (1.0, 2.0)), ((6, 7, 5), (0.4, 0.5, 0.3))])
@pytest.mark.parametrize("datum", [
    lambda X, t: np.tanh((X[0] - 0.3) / 0.1) * np.cos(2.0 * X[-1] + 3.0 * t)
    + t * X[-1],
    lambda X, t: -0.7,
], ids=["varying", "scalar"])
def test_harmonic_extension_matches_per_face_reference(shape, lengths, datum):
    grid = Grid(shape=shape, lengths=lengths)
    for t in (0.0, 0.37):
        u = gr.harmonic_extension(grid, datum, t)
        ref = _per_face_harmonic_extension(grid, datum, t)
        assert np.max(np.abs(u - ref)) <= 1e-14


# -- eigenbasis ---------------------------------------------------------------


def _per_mode_eigenbasis(grid):
    """Reference: every index tuple sorted by (per-axis eigenvalue sum,
    index tuple), each mode the outer product of its per-axis cosines."""
    per_axis = []
    for a in range(grid.dim):
        L = grid.lengths[a]
        x = grid.axis_centers(a)
        vecs = []
        for k in range(grid.shape[a]):
            v = np.cos(np.pi * k * x / L)
            v *= (1.0 / np.sqrt(L)) if k == 0 else np.sqrt(2.0 / L)
            vecs.append(v)
        per_axis.append((grid.axis_eigenvalues(a, "neumann"), vecs))
    combos = sorted(
        itertools.product(*[range(n_a) for n_a in grid.shape]),
        key=lambda ks: (sum(per_axis[a][0][k] for a, k in enumerate(ks)), ks))
    eigenvalues, modes = [], []
    for ks in combos:
        eigenvalues.append(sum(per_axis[a][0][k] for a, k in enumerate(ks)))
        mode = per_axis[0][1][ks[0]]
        for a in range(1, grid.dim):
            mode = np.multiply.outer(mode, per_axis[a][1][ks[a]])
        modes.append(mode)
    return np.array(eigenvalues), np.array(modes)


# cubes and squares have many tied eigenvalues
@pytest.mark.parametrize("shape, lengths", [
    ((64,), (1.0,)), ((32,), (0.5,)), ((12, 10), (1.0, 2.0)),
    ((24, 24), (1.0, 1.0)), ((8, 8, 8), (0.4, 0.4, 0.4)),
    ((10, 9, 8), (1.0, 0.9, 0.8))])
def test_neumann_eigenbasis_matches_per_mode_reference(shape, lengths):
    grid = Grid(shape=shape, lengths=lengths)
    ref_lam, ref_modes = _per_mode_eigenbasis(grid)
    N = grid.ncells
    for n in sorted({1, 2, 3, 5, N // 3, N // 2, N - 1, N}):
        basis = gr.neumann_eigenbasis(grid, n)
        assert np.array_equal(basis.eigenvalues, ref_lam[:n])
        assert np.array_equal(basis.modes, ref_modes[:n])


def test_neumann_eigenbasis_orthonormal(grid2d):
    basis = gr.neumann_eigenbasis(grid2d, 10)
    G = np.array([[grid2d.integral(basis.modes[i] * basis.modes[j])
                   for j in range(10)] for i in range(10)])
    assert np.allclose(G, np.eye(10), atol=1e-10)
    assert basis.eigenvalues[0] == 0.0
    assert np.allclose(basis.modes[0], 1.0 / np.sqrt(grid2d.volume))
    assert np.all(np.diff(basis.eigenvalues) >= -1e-12)


def test_neumann_eigenbasis_residual(grid2d):
    basis = gr.neumann_eigenbasis(grid2d, 8)
    for lam, mode in zip(basis.eigenvalues, basis.modes):
        assert np.allclose(-gr.laplacian_neumann(grid2d, mode), lam * mode,
                           atol=1e-8)


def test_neumann_eigenbasis_roundtrip(grid1d):
    basis = gr.neumann_eigenbasis(grid1d, grid1d.ncells)
    rng = np.random.default_rng(8)
    u = rng.standard_normal(grid1d.shape)
    assert np.allclose(basis.synthesize(basis.project(u)), u, atol=1e-9)


def test_neumann_eigenbasis_range_checks(grid1d):
    with pytest.raises(ParamError, match=r"n must be in \[1, "):
        gr.neumann_eigenbasis(grid1d, 0)
    with pytest.raises(ParamError, match=r"n must be in \[1, "):
        gr.neumann_eigenbasis(grid1d, grid1d.ncells + 1)


# -- file formats --------------------------------------------------------------


def test_snapshot_roundtrip(tmp_path, grid2d):
    rng = np.random.default_rng(9)
    field = rng.standard_normal(grid2d.shape)
    path = tmp_path / "snap.bin"
    gr.write_snapshot(path, grid2d, 0.125, field)
    g2, t, f2 = gr.read_snapshot(path)
    assert g2 == grid2d
    assert t == 0.125
    assert np.array_equal(f2, field)


def test_snapshot_rejects_foreign_files(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"not a snapshot\n")
    with pytest.raises(ParamError, match=re.escape(str(path))):
        gr.read_snapshot(path)


_SNAPSHOT_8 = b"CHSMC1 1 8 1.0 0.0\n"


@pytest.mark.parametrize("content", [
    b"CHSMC1 1 8",
    _SNAPSHOT_8 + bytes(8 * 7),
    _SNAPSHOT_8 + bytes(8 * 8 + 3),
    b"CHSMC1 one 8 1.0 0.0\n" + bytes(8 * 8),
    b"CHSMC1 5 8 1.0 0.0\n" + bytes(8 * 8),
    b"CHSMC1 5 4 4 4 4 4 1 1 1 1 1 0.0\n" + bytes(8 * 4 ** 5),
], ids=["short_header", "truncated", "partial_value", "non_numeric_dim",
        "dim_5", "dim_5_full_header"])
def test_snapshot_rejects_a_malformed_file_naming_it(tmp_path, content):
    path = tmp_path / "bad.bin"
    path.write_bytes(content)
    with pytest.raises(ParamError, match=re.escape(str(path))):
        gr.read_snapshot(path)
