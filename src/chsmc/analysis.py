"""Verification harness: theorem-shaped checks and empirical constant probes.

Each check is a pure function of a trajectory and its tolerances.  The
constants that the sliding-mode design needs but that are not computable
in closed form (the structural constant and the data-dependent offset of
the drift bound) are measured here: the embedding probe estimates the
shape constant, and the comparison drift is taken directly from the
recorded sup-norms of the drift field.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import potentials as pot
from . import smc
from .errors import MeanError, MissingDataError, RegimeError
from .grid import Grid, inverse_dirichlet, laplacian_dirichlet
from .solver import ProblemData, SolverConfig, Trajectory, run


# -- mass conservation ---------------------------------------------------


@dataclass(frozen=True)
class MassReport:
    passed: bool
    max_drift: float
    tolerance: float


def check_mass_conservation(traj: Trajectory) -> MassReport:
    """Zero-flux regime only: |mean phi(t) - mean phi0| stays at rounding
    level at every recorded step."""
    if traj.bc_kind != "neumann":
        raise RegimeError("mass conservation holds only in the zero-flux "
                          "regime")
    means = np.asarray(traj.diagnostics.mean_phi)
    drift = float(np.max(np.abs(means - means[0]))) if len(means) else 0.0
    tol = 1e-12 * (1.0 + abs(means[0]))
    return MassReport(passed=drift <= tol, max_drift=drift, tolerance=tol)


# -- sliding detection and comparison bound ------------------------------


@dataclass
class SlidingReport:
    rho: float
    eps: float
    w0: float
    M_meas: float
    Tstar_bound: float
    Tstar_observed: Optional[float]
    tol_slide: float
    verdict: str  # "achieved" | "not achieved"


def default_tol_slide(eps: float, M_meas: float, rho: float) -> float:
    """Sliding tolerance 10*eps*(1 + M/rho): the regularized dynamics
    stalls on a plateau of height about eps*M/rho rather than exactly 0."""
    return 10.0 * eps * (1.0 + M_meas / rho)


def detect_sliding(traj: Trajectory, tol_slide: float) -> Optional[float]:
    """Smallest recorded time after which sup|phi - phistar| never exceeds
    the tolerance again; None if there is no such time."""
    sup_chi = np.asarray(traj.diagnostics.sup_chi)
    times = np.asarray(traj.diagnostics.t)
    below = sup_chi <= tol_slide
    if not below[-1]:
        return None
    # last index where the tolerance is violated
    bad = np.nonzero(~below)[0]
    idx = 0 if len(bad) == 0 else bad[-1] + 1
    return float(times[idx])


@dataclass(frozen=True)
class ComparisonReport:
    passed: bool
    worst_margin: float  # max over time of sup|chi| - w(t); <= tol passes
    tol_cmp: float


def check_comparison_bound(traj: Trajectory, w0: float, M_meas: float,
                           rho: float, tau: float,
                           tol_cmp: Optional[float] = None
                           ) -> ComparisonReport:
    """sup|chi(t)| <= w(t) + tol_cmp for the affine comparison solution w.

    Default tolerance 5*(dt + eps) absorbs the time-discretization error
    and the plateau of the regularized dynamics.
    """
    if traj.bc_kind != "dirichlet":
        raise RegimeError("comparison bound applies to the Dirichlet regime")
    w = smc.ode_w_closed_form(w0, M_meas, rho, tau, traj.diagnostics.t)
    if tol_cmp is None:
        tol_cmp = 5.0 * (traj.cfg.dt + traj.cfg.eps)
    sup_chi = np.asarray(traj.diagnostics.sup_chi)
    worst = float(np.max(sup_chi - w))
    return ComparisonReport(passed=worst <= tol_cmp, worst_margin=worst,
                            tol_cmp=tol_cmp)


def measure_comparison_drift(traj: Trajectory, data: ProblemData) -> float:
    """M_meas = max over the run of sup|G_eps| plus the sup of the minimal
    section of beta at the target (sampled over the output snapshots)."""
    supG = np.asarray(traj.diagnostics.sup_G_eps)
    if len(supG) == 0 or np.all(np.isnan(supG)):
        raise MissingDataError("trajectory has no drift diagnostics; "
                               "supply dphistar_dt and lap_phistar")
    X = data.grid.meshgrid()
    betastar = 0.0
    for snap in traj.snapshots:
        target = data.phistar(X, snap.t)
        betastar = max(betastar,
                       float(np.max(np.abs(pot.beta0(data.spec, target)))))
    return float(np.nanmax(supG)) + betastar


def run_sliding_experiment(make_data: Callable[[float], ProblemData],
                           make_cfg: Callable[[float], SolverConfig],
                           T: float, tau: float,
                           rho_margin: float = 2.0,
                           tol_slide: Optional[float] = None):
    """Calibration run (gain 0) -> measured drift -> designed gain ->
    main run -> sliding detection and comparison bound.

    ``make_data(rho)``/``make_cfg(rho)`` build the problem for a given
    gain (the time step may shrink with the gain to keep the explicit
    control term stable).  Returns (report, comparison, trajectory).
    """
    calib = run(make_data(0.0), make_cfg(0.0))
    data0 = make_data(0.0)
    M_meas = measure_comparison_drift(calib, data0)
    X = data0.grid.meshgrid()
    w0 = float(np.max(np.abs(data0.phi0 - data0.phistar(X, 0.0))))
    rho = rho_margin * (M_meas + tau * w0 / T)
    data = make_data(rho)
    cfg = make_cfg(rho)
    traj = run(data, cfg)
    if tol_slide is None:
        tol_slide = default_tol_slide(data.control.eps, M_meas, rho)
    t_obs = detect_sliding(traj, tol_slide)
    bound = smc.sliding_time(w0, M_meas, rho, tau)
    verdict = "achieved" if (t_obs is not None and t_obs <= T) else \
        "not achieved"
    report = SlidingReport(rho=rho, eps=data.control.eps, w0=w0,
                           M_meas=M_meas, Tstar_bound=bound,
                           Tstar_observed=t_obs, tol_slide=tol_slide,
                           verdict=verdict)
    comparison = check_comparison_bound(traj, w0, M_meas, rho, tau)
    return report, comparison, traj


# -- continuous dependence -----------------------------------------------


@dataclass(frozen=True)
class ContdepRow:
    delta: float
    lhs: float
    rhs: float
    ratio: float


@dataclass
class ContdepReport:
    which: str
    rows: List[ContdepRow] = dc_field(default_factory=list)

    @property
    def ratio_spread(self) -> float:
        ratios = [r.ratio for r in self.rows if r.ratio > 0.0]
        return max(ratios) / min(ratios) if ratios else 1.0

    @property
    def fitted_constant(self) -> float:
        return max((r.ratio for r in self.rows), default=0.0)


def _paired_outputs(traj1: Trajectory, traj2: Trajectory):
    """(phi1 - phi2, length of the output interval ending there) at every
    output after the first; the two runs must share their output times."""
    snaps1, snaps2 = traj1.snapshots, traj2.snapshots
    times = [s.t for s in snaps1]
    if times != [s.t for s in snaps2]:
        raise ValueError(f"trajectories differ in their output times: "
                         f"{times} vs {[s.t for s in snaps2]}")
    return [(snaps1[k].phi - snaps2[k].phi, times[k] - times[k - 1])
            for k in range(1, len(times))]


def _solution_distance(grid: Grid, traj1: Trajectory,
                       traj2: Trajectory) -> float:
    """Discrete L-infinity(0,T;L2) plus L2(0,T;H1-seminorm) distance over
    the shared output snapshots."""
    sup_h = 0.0
    acc = 0.0
    for d, dt_out in _paired_outputs(traj1, traj2):
        sup_h = max(sup_h, grid.l2_norm(d))
        acc += grid.gradient_energy(d, scheme="faces") * dt_out
    return sup_h + float(np.sqrt(acc))


def contdep_experiment(base: ProblemData, cfg: SolverConfig, which: str,
                       shape: Callable, deltas: Sequence[float]
                       ) -> ContdepReport:
    """Paired runs perturbed in one datum; reports theorem-shaped ratios.

    ``which`` is "g", "phi0" or "phistar"; ``shape`` maps (X, t) to the
    unit perturbation field.  The right-hand side uses the L2(0,T;L2)
    norm for g, the L2 norm for phi0 and the square root of the
    L2(0,T;L2) norm for phistar.  Zero-flux runs require mean-free phi0
    perturbations.
    """
    if which not in ("g", "phi0", "phistar"):
        raise ValueError(f"unknown perturbation target {which!r}")
    grid = base.grid
    X = grid.meshgrid()
    if which == "phi0" and base.bc.kind == "neumann":
        pert0 = shape(X, 0.0)
        if abs(grid.mean(pert0)) > 1e-10 * max(grid.l2_norm(pert0), 1e-300):
            raise MeanError("zero-flux regime: phi0 perturbations must be "
                            "mean-free")
    base_traj = run(base, cfg)
    times = [s.t for s in base_traj.snapshots]
    report = ContdepReport(which=which)
    for delta in deltas:
        pert = _perturbed(base, which, shape, delta)
        traj = run(pert, cfg)
        lhs = _solution_distance(grid, base_traj, traj)
        rhs = _rhs_norm(grid, which, shape, delta, times)
        ratio = lhs / rhs if rhs > 0.0 else 0.0
        report.rows.append(ContdepRow(delta=delta, lhs=lhs, rhs=rhs,
                                      ratio=ratio))
    return report


def _perturbed(base: ProblemData, which: str, shape, delta: float
               ) -> ProblemData:
    from dataclasses import replace
    if which == "g":
        g0 = base.g
        return replace(base,
                       g=lambda X, t: g0(X, t) + delta * shape(X, t))
    if which == "phi0":
        X = base.grid.meshgrid()
        return replace(base, phi0=base.phi0 + delta * shape(X, 0.0))
    p0 = base.phistar
    return replace(base,
                   phistar=lambda X, t: p0(X, t) + delta * shape(X, t))


def _rhs_norm(grid: Grid, which: str, shape, delta: float,
              times: Sequence[float]) -> float:
    X = grid.meshgrid()
    if which == "phi0":
        return delta * grid.l2_norm(shape(X, 0.0))
    acc = 0.0
    for k in range(1, len(times)):
        dt_out = times[k] - times[k - 1]
        acc += grid.l2_norm(shape(X, times[k])) ** 2 * dt_out
    l2q = delta * float(np.sqrt(acc))
    return l2q if which == "g" else float(np.sqrt(l2q))


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
    from dataclasses import replace
    trajs = []
    overshoots = []
    grid = data.grid
    lo, hi = data.spec.lo, data.spec.hi
    for eps in eps_list:
        d = replace(data, control=smc.SmcParams(rho=data.control.rho,
                                                eps=eps))
        c = replace(cfg, eps=eps)
        traj = run(d, c)
        trajs.append(traj)
        over = 0.0
        for snap in traj.snapshots:
            over = max(over,
                       float(np.max(np.maximum(snap.phi - hi, 0.0)
                                    + np.maximum(lo - snap.phi, 0.0),
                                    initial=0.0)))
        overshoots.append(over)
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


# -- embedding constant probe ---------------------------------------------


@dataclass(frozen=True)
class EmbeddingProbe:
    estimate: float
    ratios: tuple
    family: tuple
    uses_volume_exponent: bool


def embedding_constant_probe(grid: Grid, n_random: int = 10,
                             n_modes: int = 6, seed: int = 0
                             ) -> EmbeddingProbe:
    """Lower bound for the shape constant in the sup-norm embedding.

    Maximizes ||v||_inf / (|Omega|^{1/6} ||Lap v||_2) over low Dirichlet
    eigenmodes and smoothed random fields (the 1/6 volume exponent is the
    three-dimensional one; in lower dimension the raw ratio is reported).
    """
    rng = np.random.default_rng(seed)
    vol_factor = grid.volume ** (1.0 / 6.0) if grid.dim == 3 else 1.0
    fields = []
    labels = []
    # low tensor sine modes (exactly in the discrete Dirichlet kernel space)
    count = 0
    for ks in np.ndindex(*(min(3, n) for n in grid.shape)):
        if count >= n_modes:
            break
        v = np.ones(grid.shape)
        for a, k in enumerate(ks):
            x = grid.axis_centers(a)
            mode = np.sin(np.pi * (k + 1) * x / grid.lengths[a])
            sh = [1] * grid.dim
            sh[a] = -1
            v = v * mode.reshape(sh)
        fields.append(v)
        labels.append(f"sine mode {tuple(k + 1 for k in ks)}")
        count += 1
    for j in range(n_random):
        noise = rng.standard_normal(grid.shape)
        v = inverse_dirichlet(grid, inverse_dirichlet(grid, noise))
        fields.append(v)
        labels.append(f"smoothed noise {j}")
    ratios = []
    for v in fields:
        lap = laplacian_dirichlet(grid, v)
        denom = vol_factor * grid.l2_norm(lap)
        ratios.append(grid.sup_norm(v) / denom)
    return EmbeddingProbe(estimate=float(max(ratios)),
                          ratios=tuple(ratios), family=tuple(labels),
                          uses_volume_exponent=grid.dim == 3)


def structural_constant_estimate(traj: Trajectory, data: ProblemData,
                                 csh: float) -> float:
    """Empirical surrogate for the structural constant of the drift bound.

    Follows the chain C2 -> C3 = Csh*C2 -> C4 -> C5 = Csh*C4 ->
    C6 = C5*Lip(pi) -> Cstr = C3 + C6, anchoring C2 in the measured ratio
    of the time-derivative estimate.  This is a measured surrogate, not a
    certified constant; reports that use it must say so.
    """
    rho = max(data.control.rho, 1.0)
    vol = data.grid.volume
    grid = data.grid
    sup_dphi = 0.0
    snaps = traj.snapshots
    for k in range(1, len(snaps)):
        dphi = (snaps[k].phi - snaps[k - 1].phi) / (snaps[k].t
                                                    - snaps[k - 1].t)
        sup_dphi = max(sup_dphi, grid.l2_norm(dphi))
    c2 = sup_dphi / (vol ** 0.5 * rho) + 1.0
    c3 = csh * c2
    c4 = max(c3, data.tau * c2 + 1.0)
    c5 = csh * c4
    c6 = c5 * pot.pi_lipschitz(data.spec)
    return c3 + c6
