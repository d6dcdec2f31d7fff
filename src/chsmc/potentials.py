"""Double-well potentials split into a convex part and a Lipschitz perturbation.

Each potential f is handled as f = B + P where B is convex (possibly an
indicator function) with monotone subdifferential ``beta`` and P has a
Lipschitz-continuous derivative ``pi``.  The canonical splittings are

    regular:      B(r) = r^4/4,                      pi(r) = -r
    logarithmic:  B(r) = (1+r)ln(1+r)+(1-r)ln(1-r),  pi(r) = -2*c1*r
    obstacle:     B = indicator of [-1, 1],          pi(r) = -2*c2*r

so that the perturbation is linear in all three families.  On top of the
exact maps, the module provides the resolvent J_eps = (I + eps*beta)^{-1}
and the Yosida approximation beta_eps = (I - J_eps)/eps, which are what
the time steppers actually evaluate.  Once xi = beta_eps(r) is known,
J_eps(r) = r - eps*xi, so the derivative of beta_eps and the Moreau
envelope of B take xi and solve nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError, DomainError

_RESOLVENT_TOL = 1e-13
_RESOLVENT_MAXITER = 100


@dataclass(frozen=True)
class PotentialSpec:
    """One potential family plus its splitting data.

    ``lo``/``hi`` bound the domain of beta (closure); ``lo_open``/``hi_open``
    record whether the endpoints are excluded.  The callable slots are only
    used for kind == "custom".
    """

    kind: str  # "regular" | "logarithmic" | "obstacle" | "custom"
    c1: float = 0.0
    c2: float = 0.0
    lo: float = -np.inf
    hi: float = np.inf
    lo_open: bool = False
    hi_open: bool = False
    B_fn: Optional[Callable] = None
    beta_fn: Optional[Callable] = None
    pi_fn: Optional[Callable] = None
    Pi_fn: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in ("regular", "logarithmic", "obstacle", "custom"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "logarithmic" and not 1.0 < self.c1 < np.inf:
            raise ValueError("logarithmic potential requires finite c1 > 1")
        if self.kind == "obstacle" and not 0.0 < self.c2 < np.inf:
            raise ValueError("obstacle potential requires finite c2 > 0")


def regular() -> PotentialSpec:
    """Quartic double well (r^2-1)^2/4."""
    return PotentialSpec(kind="regular")


def logarithmic(c1: float) -> PotentialSpec:
    """Logarithmic double well on (-1, 1); requires c1 > 1."""
    return PotentialSpec(kind="logarithmic", c1=c1,
                         lo=-1.0, hi=1.0, lo_open=True, hi_open=True)


def double_obstacle(c2: float) -> PotentialSpec:
    """Indicator of [-1, 1] plus concave quadratic; requires c2 > 0."""
    return PotentialSpec(kind="obstacle", c2=c2, lo=-1.0, hi=1.0)


def custom(B, beta, pi, lo=-np.inf, hi=np.inf, lo_open=False, hi_open=False,
           Pi=None) -> PotentialSpec:
    """User-supplied splitting.

    ``B``, ``beta`` (minimal section on the closure of the domain) and
    ``pi`` are scalar maps; ``Pi`` (antiderivative of pi) is needed by
    :func:`Pi` and so by the free energy, which raise without it.
    """
    return PotentialSpec(kind="custom", lo=lo, hi=hi,
                         lo_open=lo_open, hi_open=hi_open,
                         B_fn=B, beta_fn=beta, pi_fn=pi, Pi_fn=Pi)


def _as_array(r):
    arr = np.asarray(r, dtype=float)
    return arr, arr.ndim == 0


def _check_domain(spec: PotentialSpec, arr: np.ndarray, closure: bool = True):
    lo, hi = spec.lo, spec.hi
    bad = ~((arr >= lo) & (arr <= hi))  # NaN is outside as well
    if not closure:
        if spec.lo_open:
            bad |= arr == lo
        if spec.hi_open:
            bad |= arr == hi
    if np.any(bad):
        raise DomainError(
            f"value outside domain [{lo}, {hi}] of beta ({spec.kind})")


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x*log(x), extended by its limit 0 at x = 0 without a floating-point
    warning; NaN stays NaN."""
    zero = x == 0.0
    return np.where(zero, 0.0, x * np.log(np.where(zero, 1.0, x)))


def B_hat(spec: PotentialSpec, r):
    """Convex part of the potential, on the closure of its domain."""
    arr, scalar = _as_array(r)
    _check_domain(spec, arr, closure=True)
    if spec.kind == "regular":
        out = 0.25 * arr**4
    elif spec.kind == "logarithmic":
        out = _xlogx(1.0 + arr) + _xlogx(1.0 - arr)
    elif spec.kind == "obstacle":
        out = np.zeros_like(arr)
    else:
        out = np.vectorize(spec.B_fn)(arr).astype(float)
    return float(out) if scalar else out


def beta0(spec: PotentialSpec, r):
    """Minimal section of the subdifferential of the convex part."""
    arr, scalar = _as_array(r)
    _check_domain(spec, arr, closure=False)
    if spec.kind == "regular":
        out = arr**3
    elif spec.kind == "logarithmic":
        out = np.log((1.0 + arr) / (1.0 - arr))
    elif spec.kind == "obstacle":
        # interior of the obstacle: subdifferential is {0}; at the
        # endpoints the minimal-modulus element is 0 as well
        out = np.zeros_like(arr)
    else:
        out = np.vectorize(spec.beta_fn)(arr).astype(float)
    return float(out) if scalar else out


def pi(spec: PotentialSpec, r):
    """Derivative of the smooth perturbation."""
    arr, scalar = _as_array(r)
    if spec.kind == "regular":
        out = -arr
    elif spec.kind == "logarithmic":
        out = -2.0 * spec.c1 * arr
    elif spec.kind == "obstacle":
        out = -2.0 * spec.c2 * arr
    else:
        out = np.vectorize(spec.pi_fn)(arr).astype(float)
    return float(out) if scalar else out


def Pi(spec: PotentialSpec, r):
    """Smooth perturbation itself, normalized so that f = B_hat + Pi.

    The constants are chosen to reproduce the classical potentials:
    f(0) = 1/4 for the regular well, f(0) = 0 for the logarithmic one and
    f(r) = c2*(1 - r^2) on [-1, 1] for the obstacle.
    """
    arr, scalar = _as_array(r)
    if spec.kind == "regular":
        out = 0.25 - 0.5 * arr**2
    elif spec.kind == "logarithmic":
        out = -spec.c1 * arr**2
    elif spec.kind == "obstacle":
        out = spec.c2 * (1.0 - arr**2)
    elif spec.Pi_fn is not None:
        out = np.vectorize(spec.Pi_fn)(arr).astype(float)
    else:
        raise ValueError("custom potential needs an explicit Pi")
    return float(out) if scalar else out


def _beta0_prime(spec: PotentialSpec, s):
    """Derivative of the minimal section at interior points (may be +inf)."""
    if spec.kind == "regular":
        return 3.0 * s**2
    if spec.kind == "logarithmic":
        return 2.0 / np.maximum(1.0 - s**2, 1e-300)
    if spec.kind == "obstacle":
        return np.zeros_like(s)
    h = 1e-6
    lo = np.maximum(s - h, spec.lo + (1e-12 if spec.lo_open else 0.0))
    hi = np.minimum(s + h, spec.hi - (1e-12 if spec.hi_open else 0.0))
    with np.errstate(all="ignore"):
        num = beta0(spec, hi) - beta0(spec, lo)
        den = np.maximum(hi - lo, 1e-300)
    return np.maximum(num / den, 0.0)


def _solve_monotone(g, gprime, a, b):
    """Vectorized safeguarded Newton for a nondecreasing g.

    Keeps a bracket per component and falls back to bisection whenever the
    Newton step leaves it.  Absolute tolerance 1e-13 on the argument; an
    exactly vanishing residual also counts as converged.
    """
    a = a.copy()
    b = b.copy()
    x = 0.5 * (a + b)
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(_RESOLVENT_MAXITER):
        with np.errstate(all="ignore"):
            gx = g(x)
        neg = (gx < 0.0) & ~done
        pos = (gx > 0.0) & ~done
        a = np.where(neg, x, a)
        b = np.where(pos, x, b)
        done |= (b - a <= _RESOLVENT_TOL) | (gx == 0.0)
        if np.all(done):
            break
        with np.errstate(all="ignore"):
            gp = gprime(x)
            xn = np.where(gp > 0.0, x - gx / np.where(gp > 0.0, gp, 1.0),
                          np.inf)
        inside = (xn > a) & (xn < b) & np.isfinite(xn)
        x = np.where(done, x, np.where(inside, xn, 0.5 * (a + b)))
    else:
        if np.any(~done & (b - a > 1e-9)):
            raise ConvergenceError("scalar resolvent solve did not converge")
    return np.clip(x, a, b)


def _resolvent_regular(eps: float, arr: np.ndarray) -> np.ndarray:
    # Cardano for s^3 + s/eps - r/eps = 0 (unique real root), then two
    # Newton polish steps to recover the last bits
    p = 1.0 / eps
    q = -arr / eps
    disc = np.sqrt(q**2 / 4.0 + p**3 / 27.0)
    s = np.cbrt(-q / 2.0 + disc) + np.cbrt(-q / 2.0 - disc)
    for _ in range(2):
        s = s - (s + eps * s**3 - arr) / (1.0 + 3.0 * eps * s**2)
    return s


def _resolvent_generic(spec: PotentialSpec, eps: float,
                       arr: np.ndarray) -> np.ndarray:
    if np.isnan(arr).any():
        raise DomainError(f"resolvent input is NaN ({spec.kind})")

    def g(s):
        return s + eps * np.asarray(beta0(spec, s)) - arr

    def gp(s):
        return 1.0 + eps * _beta0_prime(spec, s)

    # bracket: finite endpoints (nudged inward when open), or geometric
    # expansion when the domain is unbounded
    if np.isfinite(spec.lo):
        a = np.full_like(arr, spec.lo)
        if spec.lo_open:
            a = np.nextafter(a, spec.hi)
    else:
        a = np.minimum(arr, 0.0) - 1.0
        for _ in range(200):
            mask = g(a) > 0.0
            if not np.any(mask):
                break
            a = np.where(mask, 2.0 * a - 1.0, a)
    if np.isfinite(spec.hi):
        b = np.full_like(arr, spec.hi)
        if spec.hi_open:
            b = np.nextafter(b, spec.lo)
    else:
        b = np.maximum(arr, 0.0) + 1.0
        for _ in range(200):
            mask = g(b) < 0.0
            if not np.any(mask):
                break
            b = np.where(mask, 2.0 * b + 1.0, b)

    with np.errstate(all="ignore"):
        ga = g(a)
        gb = g(b)
    out = _solve_monotone(g, gp, a, b)
    # no interior sign change: the resolvent sits on a (closed) endpoint,
    # where the vertical part of the graph absorbs the remainder
    if np.isfinite(spec.lo) and not spec.lo_open:
        out = np.where(ga >= 0.0, spec.lo, out)
    if np.isfinite(spec.hi) and not spec.hi_open:
        out = np.where(gb <= 0.0, spec.hi, out)
    return out


def resolvent(spec: PotentialSpec, eps: float, r):
    """Resolvent J_eps(r) = (I + eps*beta)^{-1} r.

    Closed forms where available (projection for the obstacle, Cardano for
    the quartic), else the safeguarded Newton/bisection solve of
    :func:`_resolvent_generic`, which tests also run on the closed-form
    families as a cross-check.
    """
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    arr, scalar = _as_array(r)
    if spec.kind == "obstacle":
        out = np.clip(arr, -1.0, 1.0)
    elif spec.kind == "regular":
        out = _resolvent_regular(eps, arr)
    else:
        out = _resolvent_generic(spec, eps, arr)
    return float(out) if scalar else out


def beta_eps(spec: PotentialSpec, eps: float, r):
    """Yosida approximation beta_eps(r) = (r - J_eps(r)) / eps."""
    arr, scalar = _as_array(r)
    out = (arr - resolvent(spec, eps, arr)) / eps
    return float(out) if scalar else out


def beta_eps_prime(spec: PotentialSpec, eps: float, r, xi):
    """Derivative of the Yosida approximation (in [0, 1/eps]) at r, from
    xi = beta_eps(r): 1/eps - 1/(eps*(1 + eps*beta0'(J))) at the resolvent
    point J = r - eps*xi, clipped like the envelope's; 0 on [-1, 1] and
    1/eps outside for the obstacle."""
    arr, scalar = _as_array(r)
    if spec.kind == "obstacle":
        out = np.where(np.abs(arr) <= 1.0, 0.0, 1.0 / eps)
    else:
        bp = _beta0_prime(spec, np.clip(arr - eps * xi, spec.lo, spec.hi))
        with np.errstate(all="ignore"):
            jp = 1.0 / (1.0 + eps * bp)
        jp = np.where(np.isfinite(bp), jp, 0.0)
        out = (1.0 - jp) / eps
    return float(out) if scalar else out


def moreau_envelope(spec: PotentialSpec, eps: float, r, xi):
    """Moreau-Yosida envelope of the convex part at r, from
    xi = beta_eps(r).

    Equals |r - J|^2/(2 eps) + B_hat(J) = eps*xi^2/2 + B_hat(J) at the
    resolvent point J = r - eps*xi; everywhere defined, nonnegative, and
    dominated by B_hat on its domain.
    """
    arr, scalar = _as_array(r)
    # r - eps*xi can leave the closure of the domain by an ulp, where
    # B_hat would reject it
    s = np.clip(arr - eps * xi, spec.lo, spec.hi)
    out = 0.5 * eps * xi**2 + B_hat(spec, s)
    return float(out) if scalar else out


def free_energy(grid, phi: np.ndarray, spec: PotentialSpec, eps: float,
                xi: np.ndarray) -> float:
    """Regularized free energy: quadrature of |grad phi|^2/2 + the Moreau
    envelope of the convex part + Pi(phi) over the grid, with
    xi = beta_eps(phi) and the face-difference gradient energy of
    :meth:`Grid.gradient_energy`; defined for any field values."""
    dens = moreau_envelope(spec, eps, phi, xi) + Pi(spec, phi)
    return grid.integral(dens) + 0.5 * grid.gradient_energy(phi)
