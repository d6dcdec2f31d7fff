"""Double-well potentials split into a convex part and a Lipschitz perturbation.

Each potential f is handled as f = B + P where B is convex (possibly an
indicator function) with monotone subdifferential ``beta`` and P has a
Lipschitz-continuous derivative ``pi``.  The canonical splittings are

    regular:      B(r) = r^4/4,                      pi(r) = -r
    logarithmic:  B(r) = (1+r)ln(1+r)+(1-r)ln(1-r),  pi(r) = -2*c1*r
    obstacle:     B = indicator of [-1, 1],          pi(r) = -2*c2*r

so that the perturbation is linear in all three families.  A family is
its maps: each factory puts them in a :class:`PotentialSpec`, and callers
call them through the spec (``spec.pi``, ``spec.Pi``).  Every function
below runs one body for every family, takes arrays and returns what
numpy returns (a 0-d array or numpy scalar for a scalar input).
:func:`B_hat` and :func:`beta0` are the domain-checked exact maps.  The
module also provides the resolvent J_eps = (I + eps*beta)^{-1} and the
Yosida approximation beta_eps = (I - J_eps)/eps, which are what the time
steppers actually evaluate.  Each family supplies its own resolvent
(Cardano for the quartic, a bracket-free Newton for the logarithm, the
projection for the obstacle).  Once xi = beta_eps(r) is
known, J_eps(r) = r - eps*xi, so the derivative of beta_eps and the
Moreau envelope of B take xi and solve nothing.  Where the resolvent
point sits on a closed endpoint of the domain, the graph of beta is
vertical there and beta_eps' = 1/eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParamError, SolveError

_RESOLVENT_TOL = 1e-13
_RESOLVENT_MAXITER = 100


@dataclass(frozen=True)
class PotentialSpec:
    """One potential family: its domain and its maps.

    ``lo``/``hi`` bound the domain of beta (closure); ``lo_open``/``hi_open``
    record whether the endpoints are excluded.  The maps act on arrays:
    ``B`` on the closure of the domain, ``beta`` (the minimal section) on
    the domain, ``beta_prime`` (its derivative, possibly +inf) at interior
    points; ``pi`` and ``Pi`` everywhere.  ``resolvent(eps, r)`` is the
    family's own solve of s + eps*beta(s) = r.  ``kind`` only labels the
    family in messages.
    """

    kind: str
    B: Callable
    beta: Callable
    beta_prime: Callable
    pi: Callable
    Pi: Callable
    resolvent: Callable
    lo: float = -np.inf
    hi: float = np.inf
    lo_open: bool = False
    hi_open: bool = False


def regular() -> PotentialSpec:
    """Quartic double well (r^2-1)^2/4, with f(0) = 1/4."""
    return PotentialSpec(
        kind="regular", B=lambda r: 0.25 * ((r * r) * (r * r)),
        beta=lambda r: r * r * r,
        beta_prime=lambda s: 3.0 * s**2, pi=lambda r: -r,
        Pi=lambda r: 0.25 - 0.5 * r**2, resolvent=_resolvent_regular)


def logarithmic(c1: float) -> PotentialSpec:
    """Logarithmic double well on (-1, 1) with f(0) = 0; requires c1 > 1."""
    if not 1.0 < c1 < np.inf:
        raise ParamError("logarithmic potential requires finite c1 > 1")
    return PotentialSpec(
        kind="logarithmic",
        B=lambda r: _xlogx(1.0 + r) + _xlogx(1.0 - r),
        beta=lambda r: np.log((1.0 + r) / (1.0 - r)),
        beta_prime=lambda s: 2.0 / np.maximum(1.0 - s**2, 1e-300),
        pi=lambda r: -2.0 * c1 * r, Pi=lambda r: -c1 * r**2,
        lo=-1.0, hi=1.0, lo_open=True, hi_open=True,
        resolvent=_resolvent_logarithmic)


def double_obstacle(c2: float) -> PotentialSpec:
    """Indicator of [-1, 1] plus concave quadratic, f(r) = c2*(1 - r^2) on
    [-1, 1]; requires c2 > 0.  The minimal section is 0 on [-1, 1], the
    endpoints included, and the resolvent is the projection."""
    if not 0.0 < c2 < np.inf:
        raise ParamError("obstacle potential requires finite c2 > 0")
    return PotentialSpec(
        kind="obstacle", B=np.zeros_like, beta=np.zeros_like,
        beta_prime=np.zeros_like, pi=lambda r: -2.0 * c2 * r,
        Pi=lambda r: c2 * (1.0 - r**2), lo=-1.0, hi=1.0,
        resolvent=lambda eps, r: np.clip(r, -1.0, 1.0))


def _check_domain(spec: PotentialSpec, arr: np.ndarray, closure: bool = True):
    lo, hi = spec.lo, spec.hi
    bad = ~((arr >= lo) & (arr <= hi))  # NaN is outside as well
    if not closure:
        if spec.lo_open:
            bad |= arr == lo
        if spec.hi_open:
            bad |= arr == hi
    if np.any(bad):
        raise ParamError(
            f"value outside domain [{lo}, {hi}] of beta ({spec.kind})")


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x*log(x), extended by its limit 0 at x = 0 without a floating-point
    warning; NaN stays NaN."""
    zero = x == 0.0
    return np.where(zero, 0.0, x * np.log(np.where(zero, 1.0, x)))


def B_hat(spec: PotentialSpec, r):
    """Convex part of the potential, on the closure of its domain."""
    arr = np.asarray(r, dtype=float)
    _check_domain(spec, arr, closure=True)
    return spec.B(arr)


def beta0(spec: PotentialSpec, r):
    """Minimal section of the subdifferential of the convex part."""
    arr = np.asarray(r, dtype=float)
    _check_domain(spec, arr, closure=False)
    return spec.beta(arr)


def _resolvent_regular(eps: float, arr: np.ndarray) -> np.ndarray:
    # Cardano for s^3 + s/eps - r/eps = 0 (unique real root), then two
    # Newton polish steps to recover the last bits.  Cubes and fourth
    # powers are products here and in regular(): numpy sends x**3 and x**4
    # to libm pow, several times slower than x*x*x (x**2 has a fast path)
    p = 1.0 / eps
    try:
        p3 = p**3
    except OverflowError:
        p3 = np.inf
    if not np.isfinite(p3):
        raise ParamError(f"eps = {eps!r} is too small for the quartic "
                         "resolvent: 1/eps**3 overflows")
    q = -arr / eps
    disc = np.sqrt(q**2 / 4.0 + p3 / 27.0)
    s = np.cbrt(-q / 2.0 + disc) + np.cbrt(-q / 2.0 - disc)
    for _ in range(2):
        s2 = s * s
        s = s - (s + eps * (s2 * s) - arr) / (1.0 + 3.0 * eps * s2)
    return s


def _resolvent_logarithmic(eps: float, arr: np.ndarray) -> np.ndarray:
    """Solve s + eps*ln((1+s)/(1-s)) = r by Newton in y, with s = tanh(y).

    For |r| the equation becomes h(y) = (tanh(y) - |r|)/2 + eps*y = 0
    (halved, so that 2*eps cannot overflow), increasing and concave on
    y >= 0.  As tanh(y) <= min(y, 1), the starts |r|/(1 + 2 eps) and
    (|r| - 1)/(2 eps) lie below the root; for |r| < 1 so does
    atanh(|r| - 2 eps atanh|r|), as tanh(y*) = |r| - 2 eps y* and
    y* <= atanh|r|.  For |r| >= 1 and eps < 1/e so does (L - ln L)/2
    with L = -ln eps: 2 eps y* = |r| - tanh(y*) >= 1 - tanh(y*) >=
    exp(-2 y*), so y* >= W(1/eps)/2 >= (L - ln L)/2, as the Lambert W
    has W(x) >= ln x - ln ln x for x >= e.  Newton rises from the largest
    start to the root without overshooting it (up to the rounding of the
    start): no bracket is needed.  Where tanh(y) rounds to 1 the root does
    too, and the iterate (possibly an overflowed start) stays put.
    Iteration stops once no step moves s by more than the tolerance; s is
    kept strictly inside (-1, 1).
    """
    if np.isnan(arr).any():
        raise ParamError("resolvent input is NaN (logarithmic)")
    a = np.abs(arr)
    with np.errstate(all="ignore"):
        y = np.maximum(0.5 * a / (0.5 + eps), (0.5 * a - 0.5) / eps)
        # for |r| < 1 an argument that is not positive (or NaN) gives no
        # start; for |r| >= 1, L is -ln eps, not ln(1/eps), which is inf
        # at eps = 5e-324
        arg = 2.0 * (0.5 * a - eps * np.arctanh(a))
        L = -math.log(eps)
        past_one = 0.5 * (L - math.log(L)) if L > 1.0 else 0.0
        y = np.maximum(y, np.where(a < 1.0, np.arctanh(np.fmax(arg, 0.0)),
                                   past_one))
        for _ in range(_RESOLVENT_MAXITER):
            t = np.tanh(y)
            half_sech2 = 0.5 - 0.5 * t * t
            step = np.where(t < 1.0, (0.5 * (a - t) - eps * y)
                            / (half_sech2 + eps), 0.0)
            y += step
            if np.all(half_sech2 * np.abs(step) <= 0.5 * _RESOLVENT_TOL):
                break
        else:
            raise SolveError("logarithmic resolvent did not converge")
    return np.copysign(np.minimum(np.tanh(y), np.nextafter(1.0, 0.0)), arr)


def resolvent(spec: PotentialSpec, eps: float, r):
    """Resolvent J_eps(r) = (I + eps*beta)^{-1} r.

    The family's own map: the projection for the obstacle, Cardano for
    the quartic and a bracket-free Newton in s = tanh(y) for the
    logarithm.
    """
    if not 0.0 < eps < math.inf:
        raise ParamError(f"eps must be positive and finite, got {eps!r}")
    return spec.resolvent(eps, np.asarray(r, dtype=float))


def beta_eps(spec: PotentialSpec, eps: float, r):
    """Yosida approximation beta_eps(r) = (r - J_eps(r)) / eps."""
    arr = np.asarray(r, dtype=float)
    return (arr - resolvent(spec, eps, arr)) / eps


def _clip_to_domain(spec: PotentialSpec, s: np.ndarray) -> np.ndarray:
    """s clipped into the closure of the domain; on the whole line, where
    clipping changes nothing, s itself."""
    if spec.lo == -np.inf and spec.hi == np.inf:
        return s
    return np.clip(s, spec.lo, spec.hi)


def beta_eps_prime(spec: PotentialSpec, eps: float, r, xi):
    """Derivative of the Yosida approximation (in [0, 1/eps]) at r, from
    xi = beta_eps(r): 1/eps - 1/(eps*(1 + eps*beta0'(J))) at the resolvent
    point J = r - eps*xi, clipped like the envelope's.

    Past a closed endpoint e, that is beyond e + eps*beta0(e), J sits on
    e, where the graph of beta is vertical: there J' = 0 and the
    derivative is 1/eps."""
    arr = np.asarray(r, dtype=float)
    bp = spec.beta_prime(_clip_to_domain(spec, arr - eps * xi))
    with np.errstate(all="ignore"):
        jp = 1.0 / (1.0 + eps * bp)
    jp = np.where(np.isfinite(bp), jp, 0.0)
    if np.isfinite(spec.lo) and not spec.lo_open:
        jp = np.where(arr < spec.lo + eps * spec.beta(spec.lo), 0.0, jp)
    if np.isfinite(spec.hi) and not spec.hi_open:
        jp = np.where(arr > spec.hi + eps * spec.beta(spec.hi), 0.0, jp)
    return (1.0 - jp) / eps


def moreau_envelope(spec: PotentialSpec, eps: float, r, xi):
    """Moreau-Yosida envelope of the convex part at r, from
    xi = beta_eps(r).

    Equals |r - J|^2/(2 eps) + B_hat(J) = eps*xi^2/2 + B_hat(J) at the
    resolvent point J = r - eps*xi; everywhere defined, nonnegative, and
    dominated by B_hat on its domain.  The point r - eps*xi can leave the
    closure of the domain by an ulp, so it is clipped into it and not
    checked: a NaN r, whose xi is NaN too, gives NaN.
    """
    s = _clip_to_domain(spec, np.asarray(r, dtype=float) - eps * xi)
    return 0.5 * eps * xi**2 + spec.B(s)


def free_energy(grid, phi: np.ndarray, spec: PotentialSpec, eps: float,
                xi: np.ndarray) -> float:
    """Regularized free energy: quadrature of |grad phi|^2/2 + the Moreau
    envelope of the convex part + Pi(phi) over the grid, with
    xi = beta_eps(phi) and the face-difference gradient energy of
    :meth:`Grid.gradient_energy`; defined for any field values."""
    dens = moreau_envelope(spec, eps, phi, xi) + spec.Pi(phi)
    return grid.integral(dens) + 0.5 * grid.gradient_energy(phi)
