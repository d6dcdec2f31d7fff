import dataclasses
import itertools
import re
from collections.abc import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chsmc import smc
from chsmc.errors import ParamError


# -- sign nonlinearity -----------------------------------------------------


@pytest.mark.parametrize("shape", [(40,), (5, 8), (2, 4, 5)])
def test_sign_eps_bits_of_np_clip(shape):
    """np.minimum/np.maximum give the bits of np.clip(r/eps, -1, 1), NaN
    and the sign of zero included, with no floating-point warning: for
    the subnormal eps, r/eps overflows but the clamped r/eps does not."""
    r = np.concatenate([[np.nan, -0.0, 0.0, np.inf, -np.inf, 1e-300],
                        np.random.default_rng(2).normal(0.0, 0.02, 34)])
    r = r.reshape(shape)
    for eps in (0.01, 5e-324):
        with np.errstate(all="raise"):
            out = smc.sign_eps(eps, r)
        with np.errstate(all="ignore"):
            expected = np.clip(r / eps, -1.0, 1.0)
        assert out.shape == shape
        assert out.tobytes() == expected.tobytes(), eps


def test_sign_eps_values():
    assert smc.sign_eps(0.5, 0.25) == pytest.approx(0.5)
    assert smc.sign_eps(0.5, 5.0) == 1.0
    assert smc.sign_eps(0.5, -5.0) == -1.0
    assert smc.sign_eps(0.5, 0.0) == 0.0
    with pytest.raises(ParamError):
        smc.sign_eps(0.0, 1.0)


def test_apply_S_eps_saturates_at_rho():
    params = smc.SmcParams(rho=4.0, eps=1e-3)
    chi = np.linspace(-2, 2, 101)
    out = smc.apply_S_eps(params, chi)
    assert np.max(np.abs(out)) <= 4.0 + 1e-14
    assert np.max(np.abs(out)) == pytest.approx(4.0)


def test_smc_params_validation():
    with pytest.raises(ParamError):
        smc.SmcParams(rho=-1.0, eps=0.1)
    with pytest.raises(ParamError):
        smc.SmcParams(rho=1.0, eps=0.0)


@settings(max_examples=100, deadline=None)
@given(r=st.floats(-100, 100), s=st.floats(-100, 100),
       eps=st.floats(1e-6, 10.0))
def test_sign_eps_odd_bounded_monotone(r, s, eps):
    fr = smc.sign_eps(eps, r)
    fs = smc.sign_eps(eps, s)
    assert abs(fr) <= 1.0
    assert smc.sign_eps(eps, -r) == -fr
    if r <= s:
        assert fr <= fs
    # monotonicity of the graph: (f(r) - f(s)) (r - s) >= 0
    assert (fr - fs) * (r - s) >= 0.0


# -- comparison ODE --------------------------------------------------------


def test_closed_form_limit_solution():
    # slope -(rho - M)/tau until hitting zero, then identically zero
    w = smc.ode_w_closed_form(1.0, 1.0, 3.0, 2.0, np.array([0.0, 0.5, 1.0, 5.0]))
    assert np.allclose(w, [1.0, 0.5, 0.0, 0.0])
    with pytest.raises(ParamError):
        smc.ode_w_closed_form(1.0, 3.0, 2.0, 1.0, 0.0)  # rho <= M
    with pytest.raises(ParamError):
        smc.ode_w_closed_form(-1.0, 0.0, 1.0, 1.0, 0.0)


def test_closed_forms_return_what_numpy_returns():
    """A scalar t gives a numpy scalar, not a Python float; an array t
    gives an array of its shape."""
    for fn, args in ((smc.ode_w_closed_form, (1.0, 1.0, 3.0, 2.0)),
                     (smc.ode_weps_closed_form_zero, (1e-2, 1.0, 3.0, 2.0))):
        w = fn(*args, 0.25)
        assert type(w) is np.float64
        assert w == fn(*args, np.array([0.25]))[0]
        assert fn(*args, np.zeros((2, 3))).shape == (2, 3)


def test_sliding_time_and_horizon():
    assert smc.sliding_time(1.0, 1.0, 3.0, 2.0) == pytest.approx(1.0)


def test_integrator_matches_zero_start_closed_form():
    eps, M, rho, tau = 1e-2, 1.0, 5.0, 1.0
    times, w = smc.ode_weps_integrate(eps, M, rho, tau, 0.0, 1e-4, 0.05)
    exact = smc.ode_weps_closed_form_zero(eps, M, rho, tau, times)
    assert np.max(np.abs(w - exact)) < 1e-9


def test_integrator_affine_branch_slope():
    eps, M, rho, tau, w0 = 1e-3, 1.0, 5.0, 2.0, 1.0
    times, w = smc.ode_weps_integrate(eps, M, rho, tau, w0, 1e-3, 0.1)
    # while w > eps the equation is exactly tau w' = M - rho
    mask = w > 10 * eps
    slopes = np.diff(w[mask]) / np.diff(times[mask])
    assert np.allclose(slopes, (M - rho) / tau, atol=1e-9)


def test_integrator_ends_at_T():
    # T/dt = 5/3: two intervals, the second shortened to end at T
    eps, M, rho, tau, w0 = 1e-3, 1.0, 5.0, 1.0, 1.0
    times, w = smc.ode_weps_integrate(eps, M, rho, tau, w0, 0.03, 0.05)
    assert times.tolist() == [0.0, 0.03, 0.05]
    # the affine branch, on which RK4 is exact
    assert np.allclose(w, smc.ode_w_closed_form(w0, M, rho, tau, times),
                       rtol=0, atol=1e-12)
    # a whole-number ratio keeps its count
    times, _ = smc.ode_weps_integrate(eps, M, rho, tau, w0, 1e-3, 0.1)
    assert len(times) == 101 and times[-1] == 0.1


def test_step_end_times_are_lazy():
    """The step ends come one at a time, so a finite but huge T/dt costs
    nothing until the steps are taken."""
    ends = smc.step_end_times(1.0, 0.25)
    assert isinstance(ends, Iterator)
    assert list(ends) == [0.25, 0.5, 0.75, 1.0]
    assert list(smc.step_end_times(0.0, 0.25)) == []
    ends = smc.step_end_times(0.01, 1e-310)
    assert list(itertools.islice(ends, 3)) == [1e-310, 2e-310, 3e-310]


def test_integrator_parameter_validation():
    with pytest.raises(ParamError):
        smc.ode_weps_integrate(1e-2, 1.0, 5.0, 1.0, -0.1, 1e-3, 0.1)
    with pytest.raises(ParamError):
        # regularization width must stay below the initial distance
        smc.ode_weps_integrate(0.5, 1.0, 5.0, 1.0, 0.2, 1e-3, 0.1)
    with pytest.raises(ParamError):
        smc.ode_weps_integrate(1e-2, 1.0, 0.5, 1.0, 1.0, 1e-3, 0.1)


def test_integrator_caps_its_work(monkeypatch):
    """A finite but huge substep or output-step count is refused before
    any list is built; the cap counts at least one substep per output
    step."""
    with pytest.raises(ParamError, match="substeps in all"):
        smc.ode_weps_integrate(1e-300, 1.0, 5.0, 1.0, 0.0, 1e-3, 1.0)
    with pytest.raises(ParamError, match="substeps in all"):
        smc.ode_weps_integrate(1e-2, 1.0, 5.0, 1.0, 1.0, 1e-300, 1.0)
    # one substep per output step at dt*rho/(0.5*eps*tau) = 1
    monkeypatch.setattr(smc, "_ODE_MAX_SUBSTEPS", 100)
    times, _ = smc.ode_weps_integrate(1e-2, 1.0, 5.0, 1.0, 0.0, 1e-3, 0.1)
    assert len(times) == 101
    with pytest.raises(ParamError, match="substeps in all"):
        smc.ode_weps_integrate(1e-2, 1.0, 5.0, 1.0, 0.0, 1e-3, 0.101)
    # two substeps per output step
    with pytest.raises(ParamError, match="substeps in all"):
        smc.ode_weps_integrate(1e-2, 1.0, 10.0, 1.0, 0.0, 1e-3, 0.1)


def test_integrator_distance_to_limit_shrinks_with_eps():
    M, rho, tau, w0 = 1.0, 4.0, 1.0, 1.0
    dists = []
    for eps in (1e-1, 1e-2, 1e-3):
        times, w = smc.ode_weps_integrate(eps, M, rho, tau, w0, 1e-3, 1.0)
        exact = smc.ode_w_closed_form(w0, M, rho, tau, times)
        dists.append(np.max(np.abs(w - exact)))
    assert dists[0] > dists[1] > dists[2]


# -- gain design -----------------------------------------------------------


def test_design_rejects_large_volume():
    with pytest.raises(ParamError, match="gain design undefined"):
        smc.design_parameters(Chat=1.0, Cstr=1.0, betastar=0.0, tau=1.0,
                              w0=1.0, T=1.0, vol=1.0)


def test_design_volume_threshold_formula():
    # at vol = deltastar the shape factor Cstr*v^{2/3}(v^{2/3}+1) equals 1
    Cstr = 0.7
    d = abs((np.sqrt(1.0 + 4.0 / Cstr) - 1.0) / 2.0) ** 1.5
    v23 = d ** (2.0 / 3.0)
    assert Cstr * v23 * (v23 + 1.0) == pytest.approx(1.0)


def test_design_gain_satisfies_reaching_condition():
    Chat, Cstr, betastar, tau, w0, T, vol = 0.5, 0.7, 0.2, 1.0, 1.0, 2.0, 0.1
    design = smc.design_parameters(Chat=Chat, Cstr=Cstr, betastar=betastar,
                                   tau=tau, w0=w0, T=T, vol=vol)
    assert vol < design.deltastar
    assert design.rho == smc.RHO_MARGIN * design.rhostar > design.rhostar
    # the design gain dominates the drift plus the horizon requirement
    assert design.rho > design.M + tau * w0 / T
    assert design.Tstar < T
    v23 = vol ** (2.0 / 3.0)
    assert design.M == pytest.approx(Cstr * v23 * (v23 + 1.0) * design.rho
                                     + Chat + betastar)
    assert design.Tstar == smc.sliding_time(w0, design.M, design.rho, tau)


def test_design_is_a_frozen_result_of_five_numbers():
    design = smc.design_parameters(Chat=0.5, Cstr=0.7, betastar=0.2,
                                   tau=1.0, w0=1.0, T=2.0, vol=0.1)
    assert [f.name for f in dataclasses.fields(design)] == [
        "deltastar", "rhostar", "rho", "M", "Tstar"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        design.rho = 1.0


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["Chat", "Cstr", "betastar", "tau", "w0",
                                  "T", "vol"])
def test_design_names_an_input_that_is_not_finite(name, value):
    inputs = dict(Chat=0.5, Cstr=0.7, betastar=0.2, tau=1.0, w0=1.0, T=2.0,
                  vol=0.1)
    inputs[name] = value
    with pytest.raises(ParamError, match=re.escape(
            f"{name} = {value!r} is not finite")):
        smc.design_parameters(**inputs)


def test_design_parameter_validation():
    with pytest.raises(ParamError):
        smc.design_parameters(Chat=1.0, Cstr=0.0, betastar=0.0, tau=1.0,
                              w0=1.0, T=1.0, vol=0.1)
    with pytest.raises(ParamError):
        smc.design_parameters(Chat=-1.0, Cstr=1.0, betastar=0.0, tau=1.0,
                              w0=1.0, T=1.0, vol=0.1)
    # rhostar = 0: no gain rho > rhostar exists
    with pytest.raises(ParamError, match="need rho > rhostar = 0.0"):
        smc.design_parameters(Chat=0.0, Cstr=0.7, betastar=0.0, tau=1.0,
                              w0=0.0, T=1.0, vol=0.1)
