"""Sliding-mode nonlinearity, comparison ODE and gain-design formulas.

The control term is rho * sign_eps(u), where sign_eps is the Yosida
approximation of the sign graph (a clamped linear ramp).  The scalar
comparison problem

    tau * w' + rho * sign_eps(w) = M,   w(0) = w0

dominates the sup-distance to the target; its limit solution is the affine
decay (w0 - (rho - M) t / tau)^+ which vanishes after
T* = tau * w0 / (rho - M).  The gain design is one pure function,
:func:`design_parameters`, with a frozen :class:`SlidingDesign` result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ParamError


@dataclass(frozen=True)
class SmcParams:
    """Control gain and regularization level of the sign nonlinearity."""

    rho: float
    eps: float

    def __post_init__(self):
        if not 0.0 <= self.rho < math.inf:
            raise ParamError("rho must be nonnegative and finite")
        if not 0.0 < self.eps < math.inf:
            raise ParamError("eps must be positive and finite")


def sign_eps(eps: float, r):
    """Yosida approximation of sign: clamp(r/eps, -1, 1)."""
    if not eps > 0.0:
        raise ParamError("eps must be positive")
    # clamped to [-eps, eps] first, so that dividing by a tiny eps cannot
    # overflow; np.minimum/np.maximum: the bits of np.clip without its
    # Python wrapper
    return np.minimum(np.maximum(np.asarray(r, dtype=float), -eps),
                      eps) / eps


def apply_S_eps(params: SmcParams, chi: np.ndarray) -> np.ndarray:
    """Pointwise control field rho * sign_eps(chi); sup-norm at most rho."""
    return params.rho * sign_eps(params.eps, chi)


def _check_drift(M: float, rho: float):
    if M < 0.0:
        raise ParamError("M must be nonnegative")
    if not M < rho < math.inf:
        raise ParamError(f"need finite rho > M (got rho={rho}, M={M})")


def _check_ode(**args: float):
    """Require finite w0 >= 0 and finite tau, eps > 0 of the arguments
    given, naming the first that is not."""
    for name, value in args.items():
        low = 0.0 <= value if name == "w0" else 0.0 < value
        if not (low and value < math.inf):
            bound = ">=" if name == "w0" else ">"
            raise ParamError(f"need finite {name} {bound} 0 "
                             f"(got {name}={value})")


def ode_w_closed_form(w0: float, M: float, rho: float, tau: float, t):
    """Limit comparison solution (w0 - (rho-M) t / tau)^+."""
    _check_drift(M, rho)
    _check_ode(w0=w0, tau=tau)
    tt = np.asarray(t, dtype=float)
    return np.maximum(w0 - (rho - M) / tau * tt, 0.0)


def ode_weps_closed_form_zero(eps: float, M: float, rho: float,
                              tau: float, t):
    """Regularized comparison solution for w0 = 0:
    (eps*M/rho) * (1 - exp(-rho t / (eps tau)))."""
    _check_drift(M, rho)
    _check_ode(eps=eps, tau=tau)
    tt = np.asarray(t, dtype=float)
    return (eps * M / rho) * (1.0 - np.exp(-rho * tt / (eps * tau)))


def step_count(T: float, dt: float) -> int:
    """ceil(T/dt), with a ratio T/dt within 1e-9 (relative, absolute below
    1) of a whole number counted as that number, so roundoff adds no
    sliver of a step and T below 1e-9*dt takes none."""
    ratio = T / dt
    return math.ceil(ratio - 1e-9 * max(ratio, 1.0))


def step_end_times(T: float, dt: float) -> Iterator[float]:
    """End times (Python floats) of the :func:`step_count` steps from 0,
    step n ending at n*dt and the last at T, yielded one at a time."""
    nsteps = step_count(T, dt)
    return itertools.chain((n * dt for n in range(1, nsteps)),
                           [T] if nsteps else [])


# Substeps (at least one per output step) that ode_weps_integrate takes at
# most: a million take 2.7 s of pure-Python RK4 on a 2-core Xeon VM.
_ODE_MAX_SUBSTEPS = 10**7


def ode_weps_integrate(eps: float, M: float, rho: float, tau: float,
                       w0: float, dt: float, T: float):
    """Integrate tau*w' + rho*sign_eps(w) = M with RK4.

    Returns (times, values) at t = 0 and the :func:`step_end_times` of
    ``T`` and ``dt``.  Internal substeps are chosen so that
    rho*h/(eps*tau) <= 0.5, which resolves the boundary layer of width eps
    near w = 0; on the saturated affine branch RK4 is exact.  More than
    ``_ODE_MAX_SUBSTEPS`` substeps in all is a :class:`ParamError`.
    """
    _check_drift(M, rho)
    _check_ode(eps=eps, tau=tau, w0=w0)
    if not 0.0 < dt < math.inf:
        raise ParamError("need finite dt > 0")
    if not 0.0 <= T < math.inf:
        raise ParamError("need finite T >= 0")
    if w0 > 0.0 and eps >= w0:
        raise ParamError("need eps in (0, w0) when w0 > 0")
    den = 0.5 * eps * tau
    sub = max(dt * rho / den, 1.0) if den > 0.0 else math.inf
    # every output step takes at least one substep, so this bounds both
    # the T/dt output steps and the substeps over all of them
    if not T / dt * sub <= _ODE_MAX_SUBSTEPS:
        raise ParamError(
            "need finite T/dt and substep count dt*rho/(0.5*eps*tau), with "
            f"at most {_ODE_MAX_SUBSTEPS:.0e} substeps in all (got "
            f"{T / dt:.3g} output steps of {sub:.3g} substeps)")
    times = np.array([0.0] + list(step_end_times(T, dt)))
    nout = len(times) - 1
    nsub = math.ceil(sub)

    def f(w):
        return (M - rho * min(max(w / eps, -1.0), 1.0)) / tau

    values = np.empty(nout + 1)
    values[0] = w0
    w = w0
    for n in range(nout):
        h = (dt if n < nout - 1 else T - times[n]) / nsub
        for _ in range(nsub):
            k1 = f(w)
            k2 = f(w + 0.5 * h * k1)
            k3 = f(w + 0.5 * h * k2)
            k4 = f(w + h * k3)
            w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        values[n + 1] = w
    return times, values


def sliding_time(w0: float, M: float, rho: float, tau: float) -> float:
    """Bound T* = tau*w0/(rho - M) on the reaching time."""
    _check_drift(M, rho)
    _check_ode(w0=w0, tau=tau)
    return tau * w0 / (rho - M)


# Designed gain over its threshold (rhostar, or M + tau*w0/T by default)
RHO_MARGIN = 2.0


@dataclass(frozen=True)
class SlidingDesign:
    """Volume threshold, minimal gain, design gain RHO_MARGIN*rhostar,
    and the drift M and reaching-time bound Tstar at the design gain."""

    deltastar: float
    rhostar: float
    rho: float
    M: float
    Tstar: float


def design_parameters(Chat: float, Cstr: float, betastar: float, tau: float,
                      w0: float, T: float, vol: float) -> SlidingDesign:
    """The sliding design at gain rho = RHO_MARGIN*rhostar.

    deltastar = |(sqrt(1 + 4/Cstr) - 1)/2|^{3/2} is the largest admissible
    volume; below it the shape factor s = Cstr*vol^{2/3}(vol^{2/3} + 1) is
    below 1 and rhostar = (Chat + betastar + tau*w0/T) / (1 - s).  Any
    rho > rhostar satisfies rho > M + tau*w0/T for the drift
    M = s*rho + Chat + betastar, so T* = tau*w0/(rho - M) < T.  There is
    no such rho when rhostar is 0 or not finite: ParamError.  A non-finite
    input is a ParamError that names it.
    """
    for name, value in (("Chat", Chat), ("Cstr", Cstr),
                        ("betastar", betastar), ("tau", tau), ("w0", w0),
                        ("T", T), ("vol", vol)):
        if not math.isfinite(value):
            raise ParamError(f"{name} = {value!r} is not finite")
    if not Cstr > 0.0 or not tau > 0.0 or not T > 0.0:
        raise ParamError("need Cstr, tau, T > 0")
    if min(Chat, betastar, w0) < 0.0 or not vol > 0.0:
        raise ParamError("need Chat, betastar, w0 >= 0 and vol > 0")
    deltastar = abs((math.sqrt(1.0 + 4.0 / Cstr) - 1.0) / 2.0) ** 1.5
    if vol >= deltastar:
        raise ParamError(
            f"vol = {vol} >= deltastar = {deltastar}: gain design undefined")
    shape_factor = Cstr * vol ** (2.0 / 3.0) * (vol ** (2.0 / 3.0) + 1.0)
    rhostar = (Chat + betastar + tau * w0 / T) / (1.0 - shape_factor)
    rho = RHO_MARGIN * rhostar
    if not rho > rhostar:
        raise ParamError(f"need rho > rhostar = {rhostar}")
    M = shape_factor * rho + Chat + betastar
    return SlidingDesign(deltastar=deltastar, rhostar=rhostar, rho=rho, M=M,
                         Tstar=sliding_time(w0, M, rho, tau))
