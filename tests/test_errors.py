"""The exception classes: one per way a failure is handled."""

import inspect

import numpy as np
import pytest

import chsmc
from chsmc import errors, grid as gr, potentials as pot, smc
from chsmc.errors import ParamError


def test_errors_defines_one_class_per_handling():
    classes = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj)}
    assert classes == {"ChsmcError", "ConfigError", "RegimeError",
                       "ParamError", "SolveError", "NewtonError"}
    assert all(name in chsmc.__all__ for name in classes)


def _grid():
    return gr.Grid(shape=(8,), lengths=(1.0,))


# (call, message): an argument check of each library module
ARGUMENT_CHECKS = {
    "grid-two-cells": (lambda: gr.Grid(shape=(2,), lengths=(1.0,)),
                       "at least 3 cells"),
    "logarithmic-c1": (lambda: pot.logarithmic(0.5), "finite c1 > 1"),
    "resolvent-eps-0": (lambda: pot.resolvent(pot.regular(), 0.0, 0.5),
                        "eps must be positive"),
    "beta0-outside-domain": (lambda: pot.beta0(pot.logarithmic(1.5), 1.0),
                             "outside domain"),
    "eigenbasis-no-modes": (lambda: gr.neumann_eigenbasis(_grid(), 0),
                            r"n must be in \[1, 8\]"),
    "inverse-neumann-constant": (
        lambda: gr.inverse_neumann(_grid(), np.ones(8)),
        "mean-free right-hand side"),
    "design-volume": (
        lambda: smc.design_parameters(Chat=1.0, Cstr=1.0, betastar=0.0,
                                      tau=1.0, w0=1.0, T=1.0, vol=1.0),
        "gain design undefined"),
}


@pytest.mark.parametrize("call,message", ARGUMENT_CHECKS.values(),
                         ids=ARGUMENT_CHECKS.keys())
def test_argument_check_raises_param_error_that_is_a_value_error(call,
                                                                 message):
    with pytest.raises(ParamError, match=message) as info:
        call()
    assert isinstance(info.value, ValueError)
