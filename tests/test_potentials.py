import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chsmc import potentials as pot
from chsmc.errors import DomainError

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
    assert pot.pi(s, 2.0) == pytest.approx(-2.0)
    # full well f = B + Pi equals (r^2 - 1)^2 / 4
    r = np.linspace(-2, 2, 41)
    f = pot.B_hat(s, r) + pot.Pi(s, r)
    assert np.allclose(f, 0.25 * (r**2 - 1.0) ** 2)


def test_logarithmic_values():
    s = SPECS["logarithmic"]
    assert pot.beta0(s, 0.0) == 0.0
    assert pot.beta0(s, 0.5) == pytest.approx(np.log(3.0))
    assert pot.B_hat(s, 0.0) == 0.0
    # endpoints belong to the closure of B's domain but not of beta's
    assert pot.B_hat(s, 1.0) == pytest.approx(2.0 * np.log(2.0))
    with pytest.raises(DomainError):
        pot.beta0(s, 1.0)
    with pytest.raises(DomainError):
        pot.beta0(s, np.array([0.0, -1.0]))


def test_obstacle_values():
    s = SPECS["obstacle"]
    assert pot.B_hat(s, 1.0) == 0.0
    assert pot.beta0(s, -1.0) == 0.0
    assert pot.beta0(s, 0.3) == 0.0
    assert pot.pi(s, 0.5) == pytest.approx(-0.5)
    assert pot.Pi(s, 0.0) == pytest.approx(0.5)
    with pytest.raises(DomainError):
        pot.B_hat(s, 1.0 + 1e-12)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        pot.logarithmic(1.0)
    with pytest.raises(ValueError):
        pot.double_obstacle(0.0)
    with pytest.raises(ValueError):
        pot.PotentialSpec(kind="bogus")


def test_pi_matches_derivative_of_Pi(spec):
    r = np.linspace(-0.9, 0.9, 19)
    h = 1e-6
    num = (pot.Pi(spec, r + h) - pot.Pi(spec, r - h)) / (2.0 * h)
    assert np.allclose(num, pot.pi(spec, r), atol=1e-7)


def test_pi_lipschitz_values():
    assert pot.pi_lipschitz(SPECS["regular"]) == 1.0
    assert pot.pi_lipschitz(SPECS["logarithmic"]) == 3.0
    assert pot.pi_lipschitz(SPECS["obstacle"]) == 1.0
    with pytest.raises(ValueError):
        pot.pi_lipschitz(pot.custom(B=lambda r: 0.0, beta=lambda r: 0.0,
                                    pi=lambda r: 0.0))


def test_custom_without_Pi_raises():
    s = pot.custom(B=lambda r: 0.0, beta=lambda r: 0.0,
                   pi=lambda r: -r, pi_lipschitz=1.0)
    with pytest.raises(ValueError, match="needs an explicit Pi"):
        pot.Pi(s, 2.0)
    with_Pi = pot.custom(B=lambda r: 0.0, beta=lambda r: 0.0,
                         pi=lambda r: -r, pi_lipschitz=1.0,
                         Pi=lambda r: -0.5 * r * r)
    assert pot.Pi(with_Pi, 2.0) == -2.0


# -- resolvent and Yosida approximation -----------------------------------


def test_resolvent_regular_solves_cubic():
    s = SPECS["regular"]
    rng = np.random.default_rng(1)
    r = rng.uniform(-10, 10, size=200)
    for eps in (1e-1, 1e-3, 1e-6):
        J = pot.resolvent(s, eps, r)
        assert np.allclose(J + eps * J**3, r, rtol=0, atol=1e-11 * (1 + np.abs(r)))


def test_resolvent_obstacle_is_projection():
    s = SPECS["obstacle"]
    r = np.linspace(-3, 3, 101)
    J = pot.resolvent(s, 0.01, r)
    assert np.array_equal(J, np.clip(r, -1.0, 1.0))
    # generic Newton/bisection path lands on exactly the same values
    Jg = pot._resolvent_generic(s, 0.01, r)
    assert np.array_equal(Jg, J)


def test_resolvent_generic_matches_closed_form_regular():
    s = SPECS["regular"]
    r = np.linspace(-4, 4, 57)
    J = pot.resolvent(s, 0.05, r)
    Jg = pot._resolvent_generic(s, 0.05, r)
    assert np.allclose(Jg, J, atol=1e-12)


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


def test_resolvent_rejects_nonpositive_eps(spec):
    with pytest.raises(ValueError):
        pot.resolvent(spec, 0.0, 0.5)


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
    ana = pot.beta_eps_prime(spec, eps, r)
    # the obstacle derivative jumps at |r| = 1; keep away from the kink
    mask = np.abs(np.abs(r) - 1.0) > 1e-3
    assert np.allclose(num[mask], ana[mask], rtol=1e-3, atol=1e-4)
    assert np.all(ana >= 0.0)
    assert np.all(ana <= 1.0 / eps + 1e-9)


def test_moreau_envelope_properties(spec):
    eps = 0.1
    r = np.linspace(-0.95, 0.95, 21)
    env = pot.moreau_envelope(spec, eps, r)
    assert np.all(env >= 0.0)
    assert np.all(env <= pot.B_hat(spec, r) + 1e-12)
    # monotone in eps (larger eps regularizes more, smaller envelope)
    env2 = pot.moreau_envelope(spec, eps / 10.0, r)
    assert np.all(env2 >= env - 1e-14)


def test_moreau_envelope_obstacle_outside_is_quadratic_distance():
    s = SPECS["obstacle"]
    eps = 0.2
    assert pot.moreau_envelope(s, eps, 1.5) == pytest.approx(
        0.5**2 / (2.0 * eps))


@pytest.mark.parametrize("eps", [1e-2, 0.1])
def test_moreau_envelope_from_beta_eps(spec, eps):
    """The envelope taken from xi = beta_eps(r) equals the resolvent form;
    for the obstacle, r - eps*xi leaves [-1, 1] by an ulp at some of these
    points, which must not reach B_hat."""
    r = np.linspace(-3.0, 3.0, 2001)
    env = pot.moreau_envelope(spec, eps, r)
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
    env = pot.moreau_envelope(s, eps, r)
    assert env >= -1e-12
    if s.lo <= r <= s.hi:
        assert env <= pot.B_hat(s, r) + 1e-9 * (1.0 + abs(env))


# -- free energy -----------------------------------------------------------


def test_free_energy_constant_field(grid1d):
    s = SPECS["regular"]
    c = 0.3
    phi = np.full(grid1d.shape, c)
    exact = grid1d.volume * (0.25 * c**4 + 0.25 - 0.5 * c**2)
    assert pot.free_energy(grid1d, phi, s) == pytest.approx(exact)
    # the regularized density is below the exact one
    reg = pot.free_energy(grid1d, phi, s, eps=0.1)
    assert reg <= exact + 1e-12


def test_free_energy_gradient_second_order():
    from chsmc.grid import Grid
    s = SPECS["regular"]
    errs = []
    for n in (32, 64, 128):
        g = Grid(shape=(n,), lengths=(1.0,))
        x = g.meshgrid()[0]
        phi = 0.4 * np.sin(2.0 * np.pi * x)
        exact = (0.5 * 0.4**2 * (2.0 * np.pi) ** 2 * 0.5
                 + g.integral(pot.B_hat(s, phi) + pot.Pi(s, phi)))
        errs.append(abs(pot.free_energy(g, phi, s, gradient="centered")
                        - exact))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0
