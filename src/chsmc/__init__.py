"""Viscous Cahn-Hilliard simulator with sliding-mode control.

Subpackages: :mod:`chsmc.potentials` (convex/Lipschitz splittings and
Yosida regularization), :mod:`chsmc.smc` (sign nonlinearity, comparison
ODE, gain design), :mod:`chsmc.grid` (finite-difference machinery),
:mod:`chsmc.solver` (time steppers), :mod:`chsmc.analysis` (verification
harness), :mod:`chsmc.cli` (batch front end).

``import chsmc`` loads only :mod:`chsmc.errors`; the first access to a
subpackage loads them all (PEP 562), so that ``python -m chsmc.cli`` does
not find ``chsmc.cli`` imported before it runs, nor imports it a second
time while it runs.

On glibc, ``import chsmc`` also sets the allocator's mmap threshold to
32 MiB and its trim threshold to 64 MiB (``mallopt``), the values glibc's
own dynamic policy moves to once a large chunk is freed.  A time step
frees grid-sized temporaries at every Newton and CG iteration; under
glibc's start-up thresholds the allocator hands the freed top of the
heap back to the kernel each time, and the next iteration faults those
pages in again, so that 2-D and 3-D runs spent much of their time in
the kernel.  The call is made here, before numpy is imported, so that
numpy's own start-up allocations are placed under the same thresholds
and the peak memory does not grow.  It changes no result.  To keep
glibc's defaults, or to choose other values, set any of glibc's
``MALLOC_*_`` variables (``MALLOC_TRIM_THRESHOLD_``, say) or
``GLIBC_TUNABLES`` in the environment: chsmc then leaves the allocator
alone.
"""

import ctypes
import importlib
import os
import sys

from .errors import (ChsmcError, ConfigError, NewtonError, ParamError,
                     RegimeError, SolveError)

_SUBMODULES = ("analysis", "cli", "grid", "potentials", "smc", "solver")

__all__ = [
    *_SUBMODULES,
    "ChsmcError", "ConfigError", "NewtonError", "ParamError", "RegimeError",
    "SolveError",
]

__version__ = "0.1.0"

# glibc's <malloc.h> parameter numbers, and the values of its dynamic
# policy's ceiling on 64-bit hosts
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


def _keep_heap_mapped(libc, environ) -> bool:
    """Set glibc's mmap and trim thresholds through ``libc.mallopt``
    unless ``environ`` tunes the allocator itself or ``libc`` is not glibc
    (no ``gnu_get_libc_version`` or no ``mallopt``); whether both were set.

    Any ``mallopt`` call switches glibc's dynamic thresholds off, so both
    are set, the trim threshold only once the mmap threshold is accepted:
    the trim threshold alone would pin the mmap threshold at its 128 KiB
    start, and every grid-sized temporary would be mapped and unmapped.
    """
    if "GLIBC_TUNABLES" in environ or any(
            k.startswith("MALLOC_") and k.endswith("_") for k in environ):
        return False
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None or getattr(libc, "gnu_get_libc_version", None) is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))


try:
    _keep_heap_mapped(ctypes.CDLL(None), os.environ)
except (OSError, TypeError):  # no C library to open by the null name
    pass


def __getattr__(name):
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The subpackages bind one another's functions at import time, so the
    # first access loads them all: code that later replaces a module
    # attribute (a tracer, say) finds every binding already made.  Once one
    # is loading, a sibling it imports must not start a third that needs
    # names it has not defined yet, so only the one asked for is imported.
    # A subpackage run as ``__main__`` (python -m) counts as loading.
    main_spec = getattr(sys.modules.get("__main__"), "__spec__", None)
    started = (getattr(main_spec, "parent", None) == __name__
               or any(f"{__name__}.{sub}" in sys.modules
                      for sub in _SUBMODULES))
    for sub in (name,) if started else _SUBMODULES:
        importlib.import_module(f".{sub}", __name__)
    return sys.modules[f"{__name__}.{name}"]
