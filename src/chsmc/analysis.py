"""Verification harness: theorem-shaped checks and the measured drift.

Each check is a pure function of a trajectory (which holds its run's
data) and its tolerances.  The sliding-mode design needs a gain rho above
the drift M of the comparison problem; M is not computed from constants
of the domain but measured by a calibration run at gain 0, as the largest
recorded sup-norm of the drift field plus the sup of the minimal section
of beta at the target.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import potentials as pot
from . import smc
from .errors import ConfigError, ParamError, RegimeError
# inverse_dirichlet is unused here: bench/tracing.py wraps it by this name
from .grid import Grid, inverse_dirichlet
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
    if traj.data.bc.kind != "neumann":
        raise RegimeError("mass conservation holds only in the zero-flux "
                          "regime")
    means = np.asarray(traj.diagnostics.mean_phi)
    drift = float(np.max(np.abs(means - means[0])))
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


def check_comparison_bound(traj: Trajectory,
                           M_meas: float) -> ComparisonReport:
    """sup|chi(t)| <= w(t) + tol_cmp for the affine comparison solution w
    of the run's rho and tau, from its first recorded sup|chi| = w0.

    The tolerance tol_cmp = 5*(dt + eps) absorbs the time-discretization
    error and the plateau of the regularized dynamics.
    """
    data, diag = traj.data, traj.diagnostics
    if data.bc.kind != "dirichlet":
        raise RegimeError("comparison bound applies to the Dirichlet regime")
    w = smc.ode_w_closed_form(diag.sup_chi[0], M_meas, data.control.rho,
                              data.tau, diag.t)
    tol_cmp = 5.0 * (traj.cfg.dt + traj.cfg.eps)
    worst = float(np.max(np.asarray(diag.sup_chi) - w))
    return ComparisonReport(passed=worst <= tol_cmp, worst_margin=worst,
                            tol_cmp=tol_cmp)


def measure_comparison_drift(traj: Trajectory) -> float:
    """M_meas = max over the run of sup|G_eps| plus the sup of the minimal
    section of beta at the target (sampled over the output snapshots).
    A run given ``on_output`` keeps no snapshots to sample, which is a
    :class:`ParamError`."""
    data = traj.data
    supG = np.asarray(traj.diagnostics.sup_G_eps)
    if len(supG) == 0 or np.all(np.isnan(supG)):
        raise ConfigError("trajectory has no drift diagnostics; "
                          "supply dphistar_dt and lap_phistar")
    if not traj.snapshots:
        raise ParamError("trajectory kept no snapshots to sample the "
                         "target's beta0 over (a run given on_output keeps "
                         "none)")
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
                           rho_margin: float = smc.RHO_MARGIN):
    """Calibration run (gain 0) -> measured drift M -> designed gain
    rho = rho_margin*(M + tau*w0/T), ``smc.RHO_MARGIN`` times by default
    -> main run -> sliding detection at :func:`default_tol_slide` and
    comparison bound.

    ``make_data(rho)``/``make_cfg(rho)`` build the problem for a given
    gain (the time step may shrink with the gain to keep the explicit
    control term stable).  Returns (report, comparison, trajectory).
    A T that is not positive is a :class:`ParamError`.  A calibration
    that leaves no finite gain above the drift (rho <= M, as when phi0 =
    phistar and nothing drives them apart, or a tau*w0/T that overflows)
    is a :class:`ConfigError`, raised before the main run.
    """
    if not T > 0.0:
        raise ParamError(f"the sliding experiment needs T > 0, got {T!r}")
    calib = run(make_data(0.0), make_cfg(0.0))
    M_meas = measure_comparison_drift(calib)
    w0 = calib.diagnostics.sup_chi[0]  # sup|phi0 - phistar(0)|
    rho = rho_margin * (M_meas + tau * w0 / T)
    if not rho < np.inf:
        raise ConfigError(f"the designed gain rho = {rho!r} is not finite: "
                          f"T = {T!r} is too short for w0 = {w0!r}")
    if not rho > M_meas:
        raise ConfigError(
            f"the designed gain rho = {rho!r} does not exceed the measured "
            f"drift M_meas = {M_meas!r} (w0 = {w0!r}): there is nothing "
            "for the control to slide onto")
    data = make_data(rho)
    cfg = make_cfg(rho)
    traj = run(data, cfg)
    tol_slide = default_tol_slide(data.control.eps, M_meas, rho)
    t_obs = detect_sliding(traj, tol_slide)
    bound = smc.sliding_time(w0, M_meas, rho, tau)
    verdict = "achieved" if (t_obs is not None and t_obs <= T) else \
        "not achieved"
    report = SlidingReport(rho=rho, eps=data.control.eps, w0=w0,
                           M_meas=M_meas, Tstar_bound=bound,
                           Tstar_observed=t_obs, tol_slide=tol_slide,
                           verdict=verdict)
    comparison = check_comparison_bound(traj, M_meas)
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


def _paired_outputs(traj1: Trajectory, traj2: Trajectory):
    """(phi1 - phi2, length of the output interval ending there) at every
    output after the first; the two runs must share their output times."""
    snaps1, snaps2 = traj1.snapshots, traj2.snapshots
    times = [s.t for s in snaps1]
    if times != [s.t for s in snaps2]:
        raise ParamError(f"trajectories differ in their output times: "
                         f"{times} vs {[s.t for s in snaps2]}")
    return [(snaps1[k].phi - snaps2[k].phi, times[k] - times[k - 1])
            for k in range(1, len(times))]


def _solution_distance(traj1: Trajectory, traj2: Trajectory) -> float:
    """Discrete L-infinity(0,T;L2) plus L2(0,T;H1-seminorm) distance over
    the shared output snapshots, on the grid of ``traj1``."""
    grid = traj1.data.grid
    sup_h = 0.0
    acc = 0.0
    for d, dt_out in _paired_outputs(traj1, traj2):
        sup_h = max(sup_h, grid.l2_norm(d))
        acc += grid.gradient_energy(d) * dt_out
    return sup_h + float(np.sqrt(acc))


def check_perturbation(base: ProblemData, which: str, shape: Callable):
    """Reject an unknown target (ParamError) and, as a zero-flux run keeps
    its mean, a zero-flux phi0 perturbation with a mean (ConfigError)."""
    grid = base.grid
    if which not in ("g", "phi0", "phistar"):
        raise ParamError(f"unknown perturbation target {which!r}")
    if which == "phi0" and base.bc.kind == "neumann":
        pert0 = shape(grid.meshgrid(), 0.0)
        if abs(grid.mean(pert0)) > 1e-10 * max(grid.l2_norm(pert0), 1e-300):
            raise ConfigError("zero-flux regime: phi0 perturbations must be "
                              "mean-free")


def contdep_experiment(base: ProblemData, cfg: SolverConfig, which: str,
                       shape: Callable, deltas: Sequence[float]
                       ) -> ContdepReport:
    """Paired runs perturbed in one datum; reports theorem-shaped ratios.

    ``which`` is "g", "phi0" or "phistar"; ``shape`` maps (X, t) to the
    unit perturbation field.  The right-hand side uses the L2(0,T;L2)
    norm for g, the L2 norm for phi0 and the square root of the
    L2(0,T;L2) norm for phistar; :func:`check_perturbation` applies, and
    a ``cfg`` without an output time after t = 0 is a ParamError.
    """
    check_perturbation(base, which, shape)
    out_times = [cfg.T] if cfg.output_times is None else cfg.output_times
    if not any(t > 0.0 for t in out_times):
        raise ParamError(f"no output time after t = 0 in {out_times}")
    grid = base.grid
    base_traj = run(base, cfg)
    times = [s.t for s in base_traj.snapshots]
    report = ContdepReport(which=which)
    for delta in deltas:
        pert = _perturbed(base, which, shape, delta)
        traj = run(pert, cfg)
        lhs = _solution_distance(base_traj, traj)
        rhs = _rhs_norm(grid, which, shape, delta, times)
        ratio = lhs / rhs if rhs > 0.0 else 0.0
        report.rows.append(ContdepRow(delta=delta, lhs=lhs, rhs=rhs,
                                      ratio=ratio))
    return report


def _perturbed(base: ProblemData, which: str, shape, delta: float
               ) -> ProblemData:
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
