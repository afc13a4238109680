"""Exception taxonomy shared across the toolkit.

The split matters for the command line front end: invalid input maps to
exit code 2, a failed internal consistency check to exit code 3.
"""


class LambdaAdaptError(Exception):
    """Base class for everything raised deliberately by this package."""


class ParameterError(LambdaAdaptError, ValueError):
    """A physical parameter or query is outside its declared domain."""


class UnsupportedEnvelopeError(LambdaAdaptError, TypeError):
    """An object that is not one of the known envelope families."""


class ConfigurationError(LambdaAdaptError, ValueError):
    """A grid, bath, or config-file level invariant is violated."""


class BandwidthError(ParameterError):
    """Pulse spectrum does not fit inside the discrete bath window."""


class NumericalConsistencyError(LambdaAdaptError, RuntimeError):
    """An internal cross-check (ledger residual, norm drift) failed."""
