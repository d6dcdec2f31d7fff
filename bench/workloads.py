"""The three benchmark workloads: inputs from a seed, the run, the check.

Every workload is a fixed base problem plus a small smooth perturbation
of the initial order parameter drawn from the seed, so different seeds
give different inputs that cost the same work.  See NOTES.md for why
each workload was chosen.

``inputs(seed, size)`` returns plain, JSON-serializable data; ``run``
drives chsmc through its public API or its CLI and returns what ``check``
needs.  ``size`` is "full" (the measured problem) or "tiny" (a seconds-
long version for the benchmark's own test).
"""

from __future__ import annotations

import os

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(BENCH_DIR, "reference_3d.npz")

# -- sliding_1d ----------------------------------------------------------

# Reference sliding experiment (configs/sliding_reference.ini) with a
# shortened horizon.  The designed gain is rho = margin*(M + tau*w0/T) and
# the step is capped at 0.3*eps*tau/rho, so about 2*w0/(0.3*eps) steps are
# taken whatever T is; T = 0.05 keeps the calibration run short.
SLIDING = {
    "full": dict(cells=128, eps=1e-3, T=0.05),
    "tiny": dict(cells=32, eps=1e-2, T=0.05),
}
SLIDING_L = 0.5
SLIDING_TARGET = 0.2


def _perturbation(seed, tag, n_modes, scale):
    rng = np.random.default_rng([seed, tag])
    return [float(c) for c in rng.uniform(-scale, scale, n_modes)]


def sliding_inputs(seed, size):
    return dict(SLIDING[size], coeffs=_perturbation(seed, 1, 3, 1e-3))


def sliding_run(chsmc, inp):
    from chsmc import potentials as pot, smc, solver
    from chsmc.grid import Grid

    grid = Grid(shape=(inp["cells"],), lengths=(SLIDING_L,))
    x = grid.meshgrid()[0]
    phi0 = SLIDING_TARGET + 0.5 * np.cos(np.pi * x / SLIDING_L)
    for k, c in enumerate(inp["coeffs"], start=2):
        phi0 = phi0 + c * np.cos(k * np.pi * x / SLIDING_L)
    eps, T = inp["eps"], inp["T"]

    def zero(X, t):
        return np.zeros_like(X[0])

    def make_data(rho):
        return solver.ProblemData(
            grid=grid, spec=pot.regular(), phi0=phi0, g=zero,
            phistar=lambda X, t: np.full_like(X[0], SLIDING_TARGET),
            bc=solver.dirichlet_bc(lambda x, t: 0.0), tau=1.0,
            control=smc.SmcParams(rho=rho, eps=eps),
            dphistar_dt=zero, lap_phistar=zero)

    def make_cfg(rho):
        dt = 2e-4 if rho == 0 else min(2e-4, 0.3 * eps / rho)
        return solver.SolverConfig(
            eps=eps, dt=dt, T=T, scheme="eliminated_dirichlet",
            output_times=list(np.linspace(0.0, T, 21)))

    report, comparison, traj = chsmc.analysis.run_sliding_experiment(
        make_data, make_cfg, T=T, tau=1.0, rho_margin=2.0)
    return dict(report=report, comparison=comparison, traj=traj)


def sliding_check(out, inp):
    report, comparison = out["report"], out["comparison"]
    problems = []
    if report.verdict != "achieved":
        problems.append(f"verdict {report.verdict!r}")
    if not comparison.passed:
        problems.append(f"comparison bound failed (margin "
                        f"{comparison.worst_margin:.3e})")
    if (report.Tstar_observed is None
            or not report.Tstar_observed <= report.Tstar_bound):
        problems.append(f"T*_obs {report.Tstar_observed} above the designed "
                        f"bound {report.Tstar_bound}")
    problems += _nonfinite(out["traj"])
    return problems


# -- spinodal_2d_log -------------------------------------------------------

SPINODAL = {
    "full": dict(cells=128, steps=20),
    "tiny": dict(cells=16, steps=3),
}
SPINODAL_DT = 1e-3


def spinodal_inputs(seed, size):
    return dict(SPINODAL[size], coeffs=_perturbation(seed, 2, 4, 1e-3))


def spinodal_run(chsmc, inp):
    from chsmc import potentials as pot, smc, solver
    from chsmc.grid import Grid

    n = inp["cells"]
    grid = Grid(shape=(n, n), lengths=(1.0, 1.0))
    X, Y = grid.meshgrid()
    c = inp["coeffs"]
    phi0 = (0.1 + (0.3 + c[0]) * np.cos(2 * np.pi * X) * np.cos(np.pi * Y)
            + (0.1 + c[1]) * np.cos(3 * np.pi * X) * np.cos(4 * np.pi * Y)
            + c[2] * np.cos(5 * np.pi * X) + c[3] * np.cos(6 * np.pi * Y))

    def zero(X, t):
        return np.zeros_like(X[0])

    data = solver.ProblemData(
        grid=grid, spec=pot.logarithmic(2.0), phi0=phi0, g=zero,
        phistar=zero, bc=solver.neumann_bc(), tau=1.0,
        control=smc.SmcParams(rho=0.5, eps=1e-2))
    T = inp["steps"] * SPINODAL_DT
    cfg = solver.SolverConfig(eps=1e-2, dt=SPINODAL_DT, T=T,
                              scheme="coupled_neumann",
                              output_times=list(np.linspace(0.0, T, 5)))
    traj = chsmc.solver.run(data, cfg)
    mass = chsmc.analysis.check_mass_conservation(traj)
    return dict(traj=traj, mass=mass)


def spinodal_check(out, inp):
    mass = out["mass"]
    problems = []
    if not mass.passed:
        problems.append(f"mass drift {mass.max_drift:.3e} above "
                        f"{mass.tolerance:.3e}")
    problems += _nonfinite(out["traj"])
    return problems


# -- dirichlet_3d_cli ------------------------------------------------------

DIRICHLET = {
    "full": dict(cells=24, steps=30),
    "tiny": dict(cells=6, steps=3),
}
DIRICHLET_DT = 1e-3
DIRICHLET_AMPLITUDE = 0.3
DIRICHLET_OFFSET = 0.1

# The mu datum must be a length-free profile: a trigonometric datum given
# through the CLI evaluates to NaN because parse_boundary_profile drops the
# box lengths (see NOTES.md, known defects).
DIRICHLET_CONFIG = """\
[grid]
dim = 3
cells = {cells}
lengths = 1.0

[potential]
kind = regular

[bc]
kind = dirichlet
datum = tanh_front center=0.5 width=0.2 amplitude=0.1 offset=0

[control]
rho = 0.5
eps = 1e-2

[data]
tau = 1.0
g = constant value=0
phi0 = cosine amplitude={amplitude!r} mode=1,1,1 offset={offset!r}
phistar = constant value=0

[time]
dt = {dt!r}
T = {T!r}
outputs = {outputs}

[solver]
scheme = eliminated_dirichlet
eps = 1e-2
"""


def dirichlet_inputs(seed, size, perturb=True):
    da, do = _perturbation(seed, 3, 2, 1e-8) if perturb else (0.0, 0.0)
    return dict(DIRICHLET[size], size=size,
                amplitude=DIRICHLET_AMPLITUDE + da,
                offset=DIRICHLET_OFFSET + do,
                phi0_shift=abs(da) + abs(do))


def dirichlet_config(inp):
    steps = inp["steps"]
    return DIRICHLET_CONFIG.format(
        cells=inp["cells"], amplitude=inp["amplitude"],
        offset=inp["offset"], dt=DIRICHLET_DT, T=steps * DIRICHLET_DT,
        outputs=steps + 1)


def dirichlet_run(chsmc, inp):
    """``chsmc simulate`` on a generated config in ``inp["workdir"]``."""
    workdir = inp["workdir"]
    config = os.path.join(workdir, "config.ini")
    with open(config, "w") as fh:
        fh.write(dirichlet_config(inp))
    out_dir = os.path.join(workdir, "out")
    code = chsmc.cli.main(["simulate", "--config", config, "--out", out_dir,
                           "--quiet"])
    return dict(code=code, out_dir=out_dir)


def dirichlet_outputs(out_dir):
    """(snapshot paths in order, diagnostics rows) of a finished run."""
    snaps = sorted(f for f in os.listdir(out_dir)
                   if f.startswith("snapshot_"))
    with open(os.path.join(out_dir, "diagnostics.csv")) as fh:
        rows = [line.strip().split(",") for line in fh][1:]
    return [os.path.join(out_dir, f) for f in snaps], rows


def dirichlet_check(out, inp):
    """Exit 0, every written value finite, and the final phi within
    2*sup|phi0 - phi0_ref| + 1e-8 of the stored reference: the perturbed
    flow stays within the size of the perturbation over this horizon, and
    1e-8 leaves room for solver changes at the Newton tolerance."""
    from chsmc.grid import read_snapshot

    if out["code"] != 0:
        return [f"chsmc simulate exited {out['code']}"]
    snaps, rows = dirichlet_outputs(out["out_dir"])
    problems = []
    steps = inp["steps"]
    if len(snaps) != steps + 1 or len(rows) != steps + 1:
        problems.append(f"{len(snaps)} snapshots and {len(rows)} "
                        f"diagnostics rows, expected {steps + 1}")
    if not all(np.isfinite(float(v)) for row in rows for v in row):
        problems.append("non-finite diagnostics")
    finals = None
    for path in snaps:
        _grid, _t, phi = read_snapshot(path)
        if not np.all(np.isfinite(phi)):
            problems.append(f"non-finite field in {os.path.basename(path)}")
        finals = phi
    if finals is not None:
        with np.load(REFERENCE) as ref:
            phi_ref = ref[inp["size"]]
        tol = 2.0 * inp["phi0_shift"] + 1e-8
        err = float(np.max(np.abs(finals - phi_ref)))
        if not err <= tol:
            problems.append(f"final phi differs from the reference by "
                            f"{err:.3e} > {tol:.3e}")
    return problems


# -- shared ----------------------------------------------------------------


def _nonfinite(traj):
    problems = []
    for snap in traj.snapshots:
        for name in ("phi", "mu", "xi", "zeta"):
            if not np.all(np.isfinite(getattr(snap, name))):
                problems.append(f"non-finite {name} at t = {snap.t:g}")
    diag = traj.diagnostics
    for col in ("mean_phi", "free_energy_reg", "sup_chi", "dual_norm_dphi"):
        if not np.all(np.isfinite(getattr(diag, col))):
            problems.append(f"non-finite diagnostics column {col}")
    return problems


WORKLOADS = {
    "sliding_1d": (sliding_inputs, sliding_run, sliding_check),
    "spinodal_2d_log": (spinodal_inputs, spinodal_run, spinodal_check),
    "dirichlet_3d_cli": (dirichlet_inputs, dirichlet_run, dirichlet_check),
}
