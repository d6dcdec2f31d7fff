"""Exception types, one per way a failure is handled.

:func:`chsmc.cli.main` exits 2 on a :class:`ConfigError` (``config
error:``) and on a :class:`RegimeError` (``regime error:``).  A
:class:`ParamError`, a bad argument and also a ``ValueError``, becomes a
``ConfigError`` in the command that knows its ``[section] key`` or flag,
and exits 3 anywhere else.  The Newton iteration turns a
:class:`SolveError` from its linear solve into a :class:`NewtonError`, on
which the stepper halves the step.  A ``NewtonError`` at the deepest
halving, a ``SolveError`` from anywhere else (a resolvent, say) and every
other :class:`ChsmcError` exit 3 (``numerical failure:``).
"""


class ChsmcError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ChsmcError):
    """Invalid or incomplete run configuration."""


class RegimeError(ChsmcError):
    """Operation applied to the wrong boundary-condition regime."""


class ParamError(ChsmcError, ValueError):
    """An argument violates a precondition (e.g. rho <= M, a value outside
    the domain of beta, a right-hand side that is not mean-free)."""


class SolveError(ChsmcError):
    """A linear or scalar inner solve failed to reach its tolerance."""


class NewtonError(ChsmcError):
    """A nonlinear (Newton) solve failed; callers may retry with smaller dt."""
