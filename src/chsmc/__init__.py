"""Viscous Cahn-Hilliard simulator with sliding-mode control.

Subpackages: :mod:`chsmc.potentials` (convex/Lipschitz splittings and
Yosida regularization), :mod:`chsmc.smc` (sign nonlinearity, comparison
ODE, gain design), :mod:`chsmc.grid` (finite-difference machinery),
:mod:`chsmc.solver` (time steppers), :mod:`chsmc.analysis` (verification
harness), :mod:`chsmc.cli` (batch front end).

``import chsmc`` loads only :mod:`chsmc.errors`; the first access to a
subpackage loads them all (PEP 562), so that ``python -m chsmc.cli`` does
not find ``chsmc.cli`` imported before it runs.
"""

import importlib
import sys

from .errors import (ChsmcError, ConfigError, ConvergenceError, DomainError,
                     MeanError, MissingDataError, ModeRangeError,
                     NewtonError, ParamError, RegimeError, SolveError,
                     VolumeError)

_SUBMODULES = ("analysis", "cli", "grid", "potentials", "smc", "solver")

__all__ = [
    *_SUBMODULES,
    "ChsmcError", "ConfigError", "ConvergenceError", "DomainError",
    "MeanError", "MissingDataError", "ModeRangeError", "NewtonError",
    "ParamError", "RegimeError", "SolveError", "VolumeError",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The subpackages bind one another's functions at import time, so the
    # first access loads them all: code that later replaces a module
    # attribute (a tracer, say) finds every binding already made.  Once one
    # is loading, a sibling it imports must not start a third that needs
    # names it has not defined yet, so only the one asked for is imported.
    started = any(f"{__name__}.{sub}" in sys.modules for sub in _SUBMODULES)
    for sub in (name,) if started else _SUBMODULES:
        importlib.import_module(f".{sub}", __name__)
    return sys.modules[f"{__name__}.{name}"]
