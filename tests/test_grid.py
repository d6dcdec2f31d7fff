import itertools

import numpy as np
import pytest

from chsmc import grid as gr
from chsmc.errors import MeanError, ModeRangeError, SolveError
from chsmc.grid import Grid


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
    assert grid1d.inner(u, v) == pytest.approx(0.0, abs=1e-13)


def test_gradient_energy_linear_field(grid1d):
    x = grid1d.meshgrid()[0]
    u = 2.0 * x
    # |grad u|^2 = 4 on the unit interval; faces miss the two boundary
    # half-cells, centered is exact for affine fields
    n = grid1d.shape[0]
    assert grid1d.gradient_energy(u, scheme="faces") == pytest.approx(
        4.0 * (n - 1) / n)
    assert grid1d.gradient_energy(u, scheme="centered") == pytest.approx(4.0)
    with pytest.raises(ValueError):
        grid1d.gradient_energy(u, scheme="bogus")


# -- Laplacians -------------------------------------------------------------


def test_laplacian_neumann_annihilates_constants(grid2d):
    u = np.full(grid2d.shape, 1.7)
    assert np.max(np.abs(gr.laplacian_neumann(grid2d, u))) == 0.0


def test_laplacian_neumann_integral_telescopes(grid2d):
    rng = np.random.default_rng(3)
    u = rng.standard_normal(grid2d.shape)
    assert grid2d.integral(gr.laplacian_neumann(grid2d, u)) == pytest.approx(
        0.0, abs=1e-11)


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_laplacian_symmetry(grid2d, bc):
    rng = np.random.default_rng(4)
    u = rng.standard_normal(grid2d.shape)
    v = rng.standard_normal(grid2d.shape)
    op = gr.laplacian_neumann if bc == "neumann" else gr.laplacian_dirichlet
    assert grid2d.inner(op(grid2d, u), v) == pytest.approx(
        grid2d.inner(u, op(grid2d, v)), rel=1e-12)


def test_discrete_eigenpairs_1d(grid1d):
    x = grid1d.meshgrid()[0]
    L = grid1d.lengths[0]
    k = 3
    lam_n = grid1d.axis_eigenvalues_neumann(0)[k]
    v = np.cos(np.pi * k * x / L)
    assert np.allclose(-gr.laplacian_neumann(grid1d, v), lam_n * v,
                       atol=1e-10)
    m = 2
    lam_d = grid1d.axis_eigenvalues_dirichlet(0)[m - 1]
    w = np.sin(np.pi * m * x / L)
    assert np.allclose(-gr.laplacian_dirichlet(grid1d, w), lam_d * w,
                       atol=1e-10)


def test_discrete_eigenpairs_tensor(grid3d):
    X = grid3d.meshgrid()
    lam = (grid3d.axis_eigenvalues_neumann(0)[1]
           + grid3d.axis_eigenvalues_neumann(2)[2])
    v = (np.cos(np.pi * X[0] / grid3d.lengths[0])
         * np.cos(2.0 * np.pi * X[2] / grid3d.lengths[2]))
    assert np.allclose(-gr.laplacian_neumann(grid3d, v), lam * v, atol=1e-9)


# -- inverse operators -------------------------------------------------------


def cg_inverse_neumann(grid, psi):
    """Plain CG on the stencil: an independent check of the transform
    solve.  CG stays in the range of the singular operator when started
    from an exactly mean-free right-hand side."""
    u = gr.pcg(lambda v: -gr.laplacian_neumann(grid, v),
               psi - grid.mean(psi))
    return u - grid.mean(u)


def cg_inverse_dirichlet(grid, psi):
    return gr.pcg(lambda v: -gr.laplacian_dirichlet(grid, v), psi)


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
    with pytest.raises(MeanError):
        gr.inverse_neumann(grid1d, np.ones(grid1d.shape))


@pytest.mark.parametrize("inverse", [gr.inverse_dirichlet,
                                     cg_inverse_dirichlet],
                         ids=["dct", "cg"])
def test_inverse_dirichlet_solves(grid2d, inverse):
    rng = np.random.default_rng(7)
    psi = rng.standard_normal(grid2d.shape)
    u = inverse(grid2d, psi)
    assert np.allclose(-gr.laplacian_dirichlet(grid2d, u), psi, atol=1e-8)


# Shapes on both sides of the dense/FFT selection; the tier-1 fixture grids
# (64, 12x10, 8^3) are all on the dense side.
TRANSFORM_SHAPES = [((64,), True), ((256,), True), ((1024,), False),
                    ((12, 10), True), ((96, 96), True), ((128, 128), False),
                    ((8, 8, 8), True), ((6, 7, 5), True),
                    ((24, 24, 24), True), ((32, 32, 32), True),
                    ((282, 3, 3), True), ((283, 3, 3), False)]


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
    u_dense = gr._symbol_dense(grid, psi, symbol, bc)
    u_fft = gr._symbol_fft(psi, symbol, bc)
    scale = np.max(np.abs(u_fft))
    assert np.max(np.abs(u_dense - u_fft)) <= 1e-13 * scale
    inverse, cg_inverse = ((gr.inverse_neumann, cg_inverse_neumann)
                           if bc == "neumann" else
                           (gr.inverse_dirichlet, cg_inverse_dirichlet))
    u = inverse(grid, psi)
    assert np.array_equal(u, u_dense if dense else u_fft)
    u_cg = cg_inverse(grid, psi)
    assert np.max(np.abs(u_cg - u)) <= 1e-9 * scale


def test_transform_data_cached_read_only(grid2d):
    for bc in ("neumann", "dirichlet"):
        mats = grid2d.transform_matrices(bc)
        assert mats is grid2d.transform_matrices(bc)
        inv = grid2d.inverse_eigenvalues(bc)
        assert inv is grid2d.inverse_eigenvalues(bc)
        for a, M in enumerate(mats):
            assert not M.flags.writeable
            assert np.allclose(M @ M.T, np.eye(grid2d.shape[a]), atol=1e-14)
        assert not inv.flags.writeable
    lam = grid2d.eigenvalues("neumann")
    inv = grid2d.inverse_eigenvalues("neumann")
    assert inv.flat[0] == 0.0  # the zero mode of the mean-free inverse
    assert np.all(inv.flat[1:] == 1.0 / lam.flat[1:])
    with pytest.raises(ValueError):
        grid2d.transform_matrices("robin")


# -- conjugate gradients -----------------------------------------------------


def test_pcg_preconditioned_and_plain_agree():
    rng = np.random.default_rng(10)
    Q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    A = Q @ np.diag(np.logspace(0, 4, 40)) @ Q.T
    b = rng.standard_normal(40)
    d = np.diag(A)
    x_plain = gr.pcg(lambda v: A @ v, b)
    x_jacobi = gr.pcg(lambda v: A @ v, b, precond=lambda r: r / d)
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
        gr.pcg(apply_A, np.ones(3))
    assert len(calls) == 1


def test_dual_norm_closed_forms(grid1d):
    # constant field: the mean term carries the whole norm
    c = np.full(grid1d.shape, -2.5)
    assert gr.dual_norm(grid1d, c, "neumann") == pytest.approx(2.5)
    # single mean-free eigenmode: ||psi|| / sqrt(lambda)
    x = grid1d.meshgrid()[0]
    k = 2
    lam = grid1d.axis_eigenvalues_neumann(0)[k]
    psi = np.cos(np.pi * k * x / grid1d.lengths[0])
    assert gr.dual_norm(grid1d, psi, "neumann") == pytest.approx(
        grid1d.l2_norm(psi) / np.sqrt(lam))
    m = 1
    lam_d = grid1d.axis_eigenvalues_dirichlet(0)[m - 1]
    w = np.sin(np.pi * m * x / grid1d.lengths[0])
    assert gr.dual_norm(grid1d, w, "dirichlet") == pytest.approx(
        grid1d.l2_norm(w) / np.sqrt(lam_d))
    with pytest.raises(ValueError):
        gr.dual_norm(grid1d, c, "robin")


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
        per_axis.append((grid.axis_eigenvalues_neumann(a), vecs))
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
    G = np.array([[grid2d.inner(basis.modes[i], basis.modes[j])
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
    with pytest.raises(ModeRangeError):
        gr.neumann_eigenbasis(grid1d, 0)
    with pytest.raises(ModeRangeError):
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
    with pytest.raises(ValueError):
        gr.read_snapshot(path)


def test_field_csv(tmp_path, grid2d):
    field = np.arange(grid2d.ncells, dtype=float).reshape(grid2d.shape)
    path = tmp_path / "field.csv"
    gr.write_field_csv(path, grid2d, field)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,j,value"
    assert len(lines) == grid2d.ncells + 1
    assert lines[1] == "0,0,0.0"
