"""Exception types shared across the package.

Every operation that can refuse its input raises one of these instead of a
bare ValueError, so callers map failures without string matching: the
``scbundle`` command exits 0 when every record passes, 1 when one fails
(``convergence``: the error does not fall from each epsilon to the next
smaller one), and 2 on a ScbundleError (ConfigError included), a malformed
command line, or a ``--out`` that cannot be written (a directory, a missing
parent directory), which ``verify`` reports after running its suites.
``convergence`` exits 2 without printing the table when the scenario lists
fewer than two epsilon values (PreconditionError), since a fall cannot be
judged from one row or none.
"""


class ScbundleError(Exception):
    """Base class for all package errors."""


class InputError(ScbundleError, ValueError):
    """Malformed or inconsistent input (bad shapes, non-finite values, ...)."""


class ClosureError(ScbundleError):
    """An algebra/bracket result does not re-expand in the registered basis."""


class OutOfDomainError(ScbundleError):
    """A second-kind factorization that does not recompose its group
    element; we refuse rather than extrapolate."""


class AlignmentError(ScbundleError):
    """A group element is not aligned with the sampling lattice and no
    evaluator path is available; we never interpolate silently."""


class ResolutionError(ScbundleError):
    """A grid is too coarse for the requested oscillation/CFL budget."""


class NumericalError(ScbundleError):
    """Propagation blow-up or a residual breached its contract."""


class ConsistencyError(ScbundleError):
    """Mutually inconsistent data (e.g. two gauge-orbit representatives that
    disagree after transport)."""


class PreconditionError(ScbundleError):
    """A check's stated precondition is violated, making the check vacuous."""


class ConfigError(ScbundleError):
    """Invalid scenario configuration."""
