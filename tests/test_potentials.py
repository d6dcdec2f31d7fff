import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chsmc import potentials as pot
from chsmc.errors import ParamError, SolveError

from conftest import generic_spec, obstacle_as_custom, resolvent_generic

SPECS = {
    "regular": pot.regular(),
    "logarithmic": pot.logarithmic(1.5),
    "obstacle": pot.double_obstacle(0.5),
}


def spec_ids():
    return list(SPECS)


@pytest.fixture(params=spec_ids())
def spec(request):
    return SPECS[request.param]


# -- exact maps ----------------------------------------------------------


def test_regular_values():
    s = SPECS["regular"]
    assert pot.B_hat(s, 2.0) == pytest.approx(4.0)
    assert pot.beta0(s, 2.0) == pytest.approx(8.0)
    assert s.pi(2.0) == pytest.approx(-2.0)
    # full well f = B + Pi equals (r^2 - 1)^2 / 4
    r = np.linspace(-2, 2, 41)
    f = pot.B_hat(s, r) + s.Pi(r)
    assert np.allclose(f, 0.25 * (r**2 - 1.0) ** 2)


def test_logarithmic_values():
    s = SPECS["logarithmic"]
    assert pot.beta0(s, 0.0) == 0.0
    assert pot.beta0(s, 0.5) == pytest.approx(np.log(3.0))
    assert pot.B_hat(s, 0.0) == 0.0
    # endpoints belong to the closure of B's domain but not of beta's
    assert pot.B_hat(s, 1.0) == pytest.approx(2.0 * np.log(2.0))
    with pytest.raises(ParamError, match="outside domain"):
        pot.beta0(s, 1.0)
    with pytest.raises(ParamError, match="outside domain"):
        pot.beta0(s, np.array([0.0, -1.0]))


def test_logarithmic_convex_part_matches_xlogy():
    """The numpy x*log(x) reproduces scipy's xlogy(x, x) up to the last
    ulp or two of numpy's log, endpoints included, and raises no
    floating-point warning."""
    from scipy.special import xlogy
    s = SPECS["logarithmic"]
    r = np.concatenate([[-1.0, 1.0, 0.0, np.nextafter(-1.0, 0.0),
                         np.nextafter(1.0, 0.0)],
                        np.linspace(-1.0, 1.0, 2001),
                        1.0 - np.logspace(-16, 0, 200),
                        -1.0 + np.logspace(-16, 0, 200)])
    x = np.concatenate([1.0 + r, 1.0 - r])
    with np.errstate(all="raise"):
        B = pot.B_hat(s, r)
        terms = pot._xlogx(x)
        B_end = [pot.B_hat(s, -1.0), pot.B_hat(s, 1.0)]
    assert np.isnan(pot._xlogx(np.array(np.nan)))
    reference = xlogy(x, x)
    assert np.all(np.abs(terms - reference)
                  <= 2 * np.spacing(np.abs(reference)))
    assert np.all(np.abs(B - (xlogy(1.0 + r, 1.0 + r)
                              + xlogy(1.0 - r, 1.0 - r)))
                  <= 2 * np.spacing(2.0 * np.log(2.0)))
    assert B_end == [2.0 * np.log(2.0)] * 2
    with pytest.raises(ParamError, match="outside domain"):
        pot.B_hat(s, np.nan)


@pytest.mark.parametrize("kind", ["regular", "logarithmic", "obstacle"])
def test_nan_is_outside_every_domain(kind):
    s = SPECS[kind]
    for fn in (pot.B_hat, pot.beta0):
        with pytest.raises(ParamError, match="outside domain"):
            fn(s, np.nan)
        with pytest.raises(ParamError, match="outside domain"):
            fn(s, np.array([0.0, np.nan]))


def test_generic_resolvent_names_nan_input():
    with pytest.raises(ParamError, match="NaN"):
        pot.resolvent(SPECS["logarithmic"], 0.1, np.array([0.2, np.nan]))
    with pytest.raises(ParamError, match="NaN"):
        resolvent_generic(SPECS["logarithmic"], 0.1,
                          np.array([0.2, np.nan]))
    # the Cardano path still passes NaN through, so that Newton sees a
    # non-finite residual and the step is halved
    assert np.isnan(pot.resolvent(SPECS["regular"], 0.1, np.nan))


def test_obstacle_values():
    s = SPECS["obstacle"]
    assert pot.B_hat(s, 1.0) == 0.0
    assert pot.beta0(s, -1.0) == 0.0
    assert pot.beta0(s, 0.3) == 0.0
    assert s.pi(0.5) == pytest.approx(-0.5)
    assert s.Pi(0.0) == pytest.approx(0.5)
    with pytest.raises(ParamError, match="outside domain"):
        pot.B_hat(s, 1.0 + 1e-12)


def test_every_family_brings_its_resolvent(spec):
    """Each factory fills the required resolvent field; a spec without
    one cannot be built."""
    assert callable(spec.resolvent)
    maps = {name: getattr(spec, name)
            for name in ("kind", "B", "beta", "beta_prime", "pi", "Pi")}
    with pytest.raises(TypeError, match="resolvent"):
        pot.PotentialSpec(**maps)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        pot.logarithmic(1.0)
    with pytest.raises(ValueError):
        pot.double_obstacle(0.0)


def test_pi_matches_derivative_of_Pi(spec):
    r = np.linspace(-0.9, 0.9, 19)
    h = 1e-6
    num = (spec.Pi(r + h) - spec.Pi(r - h)) / (2.0 * h)
    assert np.allclose(num, spec.pi(r), atol=1e-7)


# -- resolvent and Yosida approximation -----------------------------------


def test_resolvent_regular_rejects_eps_whose_cube_overflows():
    with pytest.raises(ParamError, match="1/eps\\*\\*3 overflows"):
        pot.beta_eps(SPECS["regular"], 1e-120, 0.5)


def test_resolvent_regular_rejects_eps_whose_reciprocal_overflows():
    """At eps = 5e-324, 1/eps is already inf, so p**3 raises nothing;
    the quartic resolvent names eps all the same."""
    with pytest.raises(ParamError, match="eps = 5e-324 is too small"):
        pot.resolvent(SPECS["regular"], 5e-324, 0.5)


def test_resolvent_regular_solves_cubic():
    s = SPECS["regular"]
    rng = np.random.default_rng(1)
    r = rng.uniform(-10, 10, size=200)
    for eps in (1e-1, 1e-3, 1e-6):
        J = pot.resolvent(s, eps, r)
        assert np.allclose(J + eps * J**3, r, rtol=0, atol=1e-11 * (1 + np.abs(r)))


def _ulps(a, b):
    return np.max(np.abs(a - b) / np.spacing(np.maximum(np.abs(a),
                                                        np.abs(b))))


def _resolvent_regular_by_power(eps, r):
    """The quartic resolvent with its cubes through np.power."""
    q = -r / eps
    disc = np.sqrt(q**2 / 4.0 + (1.0 / eps) ** 3 / 27.0)
    s = np.cbrt(-q / 2.0 + disc) + np.cbrt(-q / 2.0 - disc)
    for _ in range(2):
        s = s - ((s + eps * np.power(s, 3) - r)
                 / (1.0 + 3.0 * eps * s**2))
    return s


def test_quartic_maps_are_products_within_two_ulp_of_power():
    """B and beta of the quartic are the products (r*r)*(r*r)/4 and r*r*r,
    not libm pow; they and the resolvent stay within 2 ulp of the
    np.power forms, and the resolvent solves its cubic to roundoff."""
    s = SPECS["regular"]
    rng = np.random.default_rng(3)
    r = np.concatenate([np.linspace(-10.0, 10.0, 20001),
                        rng.uniform(-1e3, 1e3, 2000),
                        1e-3 * rng.standard_normal(2000),
                        10.0 ** np.arange(-300, 77)])
    assert np.array_equal(s.B(r), 0.25 * ((r * r) * (r * r)))
    assert np.array_equal(s.beta(r), r * r * r)
    assert _ulps(s.B(r), 0.25 * np.power(r, 4)) <= 2.0
    assert _ulps(s.beta(r), np.power(r, 3)) <= 2.0
    for eps in (1e-1, 1e-3, 1e-6):
        J = pot.resolvent(s, eps, r)
        assert _ulps(J, _resolvent_regular_by_power(eps, r)) <= 2.0
        scale = np.abs(J) + eps * np.abs(J) ** 3 + np.abs(r)
        assert np.all(np.abs(J + eps * J**3 - r)
                      <= 4.0 * np.finfo(float).eps * scale)


def test_resolvent_obstacle_is_projection():
    s = SPECS["obstacle"]
    r = np.linspace(-3, 3, 101)
    J = pot.resolvent(s, 0.01, r)
    assert np.array_equal(J, np.clip(r, -1.0, 1.0))
    # the reference Newton/bisection solve lands on exactly the same values
    Jg = resolvent_generic(s, 0.01, r)
    assert np.array_equal(Jg, J)


def test_resolvent_generic_matches_closed_form_regular():
    s = SPECS["regular"]
    r = np.linspace(-4, 4, 57)
    J = pot.resolvent(s, 0.05, r)
    Jg = resolvent_generic(s, 0.05, r)
    assert np.allclose(Jg, J, atol=1e-12)


@pytest.mark.parametrize("shift", [5.0, -5.0])
def test_generic_resolvent_widens_a_bracket_that_misses(shift):
    """With beta0 = r^3 + shift at eps = 1, the root of s + beta0(s) = r
    lies below the starting bracket [min(r, 0) - 1, max(r, 0) + 1] for a
    shift of 5 and above it for -5, so the bracket has to grow."""
    spec = generic_spec(kind="shifted", B=lambda r: 0.25 * r**4 + shift * r,
                        beta=lambda r: r**3 + shift,
                        beta_prime=lambda r: 3.0 * r**2, pi=np.zeros_like,
                        Pi=np.zeros_like)
    r = np.linspace(-0.5, 0.5, 11)
    J = pot.resolvent(spec, 1.0, r)
    assert np.max(np.abs(J + pot.beta0(spec, J) - r)) <= 1e-12


def test_resolvent_logarithmic_stays_in_domain():
    s = SPECS["logarithmic"]
    big = np.array([-50.0, -1.0, 0.0, 1.0, 50.0])
    for eps in (1e-1, 1e-4):
        assert np.all(np.abs(pot.resolvent(s, eps, big)) < 1.0)
    # the defining equation is verifiable as long as J is not within
    # rounding distance of the endpoints
    r = np.linspace(-0.999, 0.999, 31)
    for eps in (1e-1, 1e-4):
        J = pot.resolvent(s, eps, r)
        assert np.allclose(J + eps * pot.beta0(s, J), r, atol=1e-10)


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4])
def test_resolvent_logarithmic_matches_generic(eps):
    """The bracket-free Newton in s = tanh(y) lands within the tolerance
    of the bracketed reference solve, on both sides of the endpoints
    too."""
    s = SPECS["logarithmic"]
    r = np.concatenate([np.linspace(-3.0, 3.0, 6001),
                        _around(-1.0), _around(1.0)])
    J = pot.resolvent(s, eps, r)
    assert np.max(np.abs(J - resolvent_generic(s, eps, r))) <= 1e-13
    assert np.array_equal(pot.resolvent(s, eps, -r), -J)
    assert np.all(np.abs(J) < 1.0)


@pytest.mark.parametrize("eps", [1e-300, 5e-324])
def test_resolvent_logarithmic_finite_at_extreme_eps(eps):
    """J(r) is r to the tolerance where |r| <= 1.  Where (|r| - 1)/(2 eps)
    overflows, the start is inf, tanh of it rounds to 1, and J is the
    float next to the endpoint."""
    s = SPECS["logarithmic"]
    r = np.array([0.0, 1e-300, 0.5, np.nextafter(1.0, 0.0), 1.0, 1.5,
                  1e300])
    J = pot.resolvent(s, eps, np.concatenate([r, -r]))
    assert np.all(np.isfinite(J)) and np.all(np.abs(J) < 1.0)
    assert np.array_equal(J[:7], -J[7:])
    assert np.all(np.abs(J[:5] - r[:5]) <= 1e-13)
    assert np.array_equal(J[5:7], [np.nextafter(1.0, 0.0)] * 2)


@pytest.mark.parametrize("eps, digits, most", [(1e-6, 6, 5),
                                                (1e-300, 12, 2)])
def test_resolvent_logarithmic_starts_near_the_root(monkeypatch, eps,
                                                    digits, most):
    """For |r| < 1 the start atanh(|r| - 2 eps atanh|r|) lies just below
    the root when eps is small, so Newton stops after a few steps even
    for |r| within 10**-digits of 1, where it took 15 to 30 from the
    linear starts.  Counted in tanh calls, one per step plus the last
    one that maps y back to s."""
    calls = []
    tanh = np.tanh
    monkeypatch.setattr(np, "tanh", lambda y: calls.append(1) or tanh(y))
    r = np.concatenate([[0.0, 0.5],
                        1.0 - 10.0 ** -np.arange(1.0, digits + 1.0)])
    J = pot.resolvent(SPECS["logarithmic"], eps, np.concatenate([r, -r]))
    assert len(calls) <= most
    monkeypatch.undo()
    assert np.array_equal(J[:len(r)], -J[len(r):])
    assert np.all(np.abs(J[:len(r)] + eps * pot.beta0(SPECS["logarithmic"],
                                                      J[:len(r)]) - r)
                  <= 2e-16)


@pytest.mark.parametrize("eps, most", [(1e-6, 7), (1e-300, 2)])
def test_resolvent_logarithmic_starts_near_the_root_past_one(monkeypatch,
                                                             eps, most):
    """For |r| >= 1 the start (L - ln L)/2, L = -ln eps, lies below the
    root, so Newton stops after a few steps at |r| = 1 and just past it,
    where it took 15 (eps = 1e-6) and 30 (eps = 1e-300) from the linear
    starts.  Counted in tanh calls, one per step plus the last one."""
    calls = []
    tanh = np.tanh
    monkeypatch.setattr(np, "tanh", lambda y: calls.append(1) or tanh(y))
    r = np.array([1.0, 1.0 + 1e-15])
    J = pot.resolvent(SPECS["logarithmic"], eps, np.concatenate([r, -r]))
    assert len(calls) <= most
    monkeypatch.undo()
    assert np.array_equal(J[:2], -J[2:])
    if eps == 1e-300:
        # the root is within rounding of 1: the float next to it
        assert np.array_equal(J[:2], [np.nextafter(1.0, 0.0)] * 2)
    else:
        assert np.all(np.abs(J[:2] + eps * pot.beta0(SPECS["logarithmic"],
                                                     J[:2]) - r) <= 2e-16)


@pytest.mark.parametrize("eps", [1e-2, 1e300, 1.7e308])
def test_resolvent_logarithmic_start_gives_no_nan(eps):
    """Where |r| >= 1 (atanh|r| is inf or NaN) or where |r| - 2 eps atanh|r|
    is negative or overflows, the extra start is left out, not NaN."""
    r = np.array([0.0, 0.3, 0.999, 1.0, 1.5, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        J = pot.resolvent(SPECS["logarithmic"], eps, np.concatenate([r, -r]))
    assert np.all(np.isfinite(J)) and np.all(np.abs(J) < 1.0)
    assert np.array_equal(J[:6], -J[6:])


def test_resolvent_logarithmic_raises_when_newton_stalls(monkeypatch):
    monkeypatch.setattr(pot, "_RESOLVENT_MAXITER", 2)
    with pytest.raises(SolveError,
                       match="logarithmic resolvent did not converge"):
        pot.resolvent(SPECS["logarithmic"], 1e-4, np.array([0.5, 0.999]))


def test_resolvent_rejects_nonpositive_eps(spec):
    with pytest.raises(ValueError):
        pot.resolvent(spec, 0.0, 0.5)


@pytest.mark.parametrize("eps", [np.inf, np.nan])
def test_resolvent_rejects_non_finite_eps(spec, eps):
    """inf would give NaN for the quartic and a SolveError for the
    logarithm; both reach the eps check first."""
    with pytest.raises(ParamError, match="eps must be positive and finite"):
        pot.resolvent(spec, eps, np.array([0.0, 0.5, 2.0]))


def test_beta_eps_identity(spec):
    r = np.linspace(-2.5, 2.5, 41)
    eps = 0.01
    J = pot.resolvent(spec, eps, r)
    assert np.allclose(J + eps * pot.beta_eps(spec, eps, r), r,
                       atol=1e-13 * (1 + np.abs(r)))


def test_beta_eps_converges_to_beta_interior():
    s = SPECS["logarithmic"]
    r = 0.5
    exact = pot.beta0(s, r)
    errs = [abs(pot.beta_eps(s, eps, r) - exact)
            for eps in (1e-2, 1e-4, 1e-6)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 1e-4


def test_beta_eps_prime_matches_finite_difference(spec):
    eps = 0.05
    r = np.linspace(-1.8, 1.8, 25)
    h = 1e-6
    num = (pot.beta_eps(spec, eps, r + h)
           - pot.beta_eps(spec, eps, r - h)) / (2.0 * h)
    ana = pot.beta_eps_prime(spec, eps, r, pot.beta_eps(spec, eps, r))
    # the obstacle derivative jumps at |r| = 1; keep away from the kink
    mask = np.abs(np.abs(r) - 1.0) > 1e-3
    assert np.allclose(num[mask], ana[mask], rtol=1e-3, atol=1e-4)
    assert np.all(ana >= 0.0)
    assert np.all(ana <= 1.0 / eps + 1e-9)


def _around(x, k=5):
    """x and its k neighbouring floats on either side."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[1:] + above


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3])
def test_closed_endpoint_rule_is_the_same_for_every_family(eps):
    """Past a closed endpoint the graph of beta is vertical, so beta_eps'
    is 1/eps there whatever solves the resolvent: the obstacle's maps with
    the reference solve have the obstacle's derivative, bit for bit."""
    r = np.concatenate([np.linspace(-3.0, 3.0, 6001),
                        _around(-1.0), _around(1.0)])
    built_in, reference = pot.double_obstacle(5.0), obstacle_as_custom(5.0)
    xi = pot.beta_eps(built_in, eps, r)
    assert np.array_equal(pot.beta_eps(reference, eps, r), xi)
    slope = pot.beta_eps_prime(built_in, eps, r, xi)
    assert np.array_equal(pot.beta_eps_prime(reference, eps, r, xi), slope)
    assert np.array_equal(slope, np.where(np.abs(r) > 1.0, 1.0 / eps, 0.0))


def test_closed_endpoint_rule_starts_past_the_kink():
    """With beta0(1) = 2 the resolvent reaches the endpoint 1 only for
    r >= 1 + 2*eps; below that beta_eps' follows beta0' at J."""
    eps = 0.1
    s = generic_spec(kind="linear", B=lambda r: r * r,
                     beta=lambda r: 2.0 * r,
                     beta_prime=lambda r: np.full_like(r, 2.0),
                     pi=np.zeros_like, Pi=np.zeros_like, lo=-1.0, hi=1.0)
    r = np.array([1.1, 1.15, 1.25, 1.5])
    slope = pot.beta_eps_prime(s, eps, r, pot.beta_eps(s, eps, r))
    linear = (1.0 - 1.0 / (1.0 + 2.0 * eps)) / eps
    assert np.allclose(slope[:2], linear, rtol=1e-6)
    assert np.array_equal(slope[2:], [1.0 / eps] * 2)


def test_moreau_envelope_properties(spec):
    eps = 0.1
    r = np.linspace(-0.95, 0.95, 21)
    env = pot.moreau_envelope(spec, eps, r, pot.beta_eps(spec, eps, r))
    assert np.all(env >= 0.0)
    assert np.all(env <= pot.B_hat(spec, r) + 1e-12)
    # monotone in eps (larger eps regularizes more, smaller envelope)
    env2 = pot.moreau_envelope(spec, eps / 10.0, r,
                               pot.beta_eps(spec, eps / 10.0, r))
    assert np.all(env2 >= env - 1e-14)


@pytest.mark.parametrize("kind", ["regular", "logarithmic", "obstacle"])
def test_moreau_envelope_of_nan_is_nan(kind):
    """The envelope does not check its input: a NaN r, whose xi is NaN
    too, gives NaN, alone or inside an array, and no ParamError."""
    s = SPECS[kind]
    assert np.isnan(pot.moreau_envelope(s, 0.1, np.nan, np.nan))
    env = pot.moreau_envelope(s, 0.1, np.array([0.5, np.nan]),
                              np.array([pot.beta_eps(s, 0.1, 0.5), np.nan]))
    assert np.isfinite(env[0]) and np.isnan(env[1])


def test_moreau_envelope_obstacle_outside_is_quadratic_distance():
    s = SPECS["obstacle"]
    eps = 0.2
    xi = pot.beta_eps(s, eps, 1.5)
    assert pot.moreau_envelope(s, eps, 1.5, xi) == pytest.approx(
        0.5**2 / (2.0 * eps))


@pytest.mark.parametrize("eps", [1e-2, 0.1])
def test_moreau_envelope_from_beta_eps(spec, eps):
    """The envelope taken from xi = beta_eps(r) equals the resolvent form;
    for the obstacle, r - eps*xi leaves [-1, 1] by an ulp at some of these
    points, which must not reach B_hat."""
    r = np.linspace(-3.0, 3.0, 2001)
    J = pot.resolvent(spec, eps, r)
    env = (r - J) ** 2 / (2.0 * eps) + pot.B_hat(spec, J)
    env_xi = pot.moreau_envelope(spec, eps, r, pot.beta_eps(spec, eps, r))
    assert np.all(np.isfinite(env_xi))
    assert np.allclose(env_xi, env, rtol=1e-12, atol=1e-12)


# -- property tests --------------------------------------------------------


finite = st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)
small_eps = st.floats(min_value=1e-6, max_value=1.0)


@settings(max_examples=100, deadline=None)
@given(a=finite, b=finite, eps=small_eps,
       kind=st.sampled_from(spec_ids()))
def test_resolvent_is_a_contraction(a, b, eps, kind):
    s = SPECS[kind]
    Ja = pot.resolvent(s, eps, a)
    Jb = pot.resolvent(s, eps, b)
    assert abs(Ja - Jb) <= abs(a - b) + 1e-10


@settings(max_examples=100, deadline=None)
@given(a=finite, b=finite, eps=small_eps,
       kind=st.sampled_from(spec_ids()))
def test_beta_eps_monotone_and_lipschitz(a, b, eps, kind):
    s = SPECS[kind]
    fa = pot.beta_eps(s, eps, a)
    fb = pot.beta_eps(s, eps, b)
    if a <= b:
        assert fa <= fb + 1e-9 / eps
    assert abs(fa - fb) <= abs(a - b) / eps + 1e-8 / eps


@settings(max_examples=60, deadline=None)
@given(r=finite, eps=small_eps, kind=st.sampled_from(spec_ids()))
def test_envelope_between_zero_and_convex_part(r, eps, kind):
    s = SPECS[kind]
    env = pot.moreau_envelope(s, eps, r, pot.beta_eps(s, eps, r))
    assert env >= -1e-12
    if s.lo <= r <= s.hi:
        assert env <= pot.B_hat(s, r) + 1e-9 * (1.0 + abs(env))


# -- free energy -----------------------------------------------------------


def test_free_energy_constant_field(grid1d):
    s = SPECS["regular"]
    c = 0.3
    phi = np.full(grid1d.shape, c)
    exact = grid1d.volume * (0.25 * c**4 + 0.25 - 0.5 * c**2)
    # the regularized density is below the exact one
    reg = pot.free_energy(grid1d, phi, s, 0.1, pot.beta_eps(s, 0.1, phi))
    assert reg <= exact + 1e-12
