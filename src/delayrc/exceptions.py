"""Exception hierarchy.

Everything raised on purpose by this package derives from DelayRCError so
callers can catch one type. Configuration problems (bad parameters, bad
config files) are kept separate from numerical failures because the CLI
maps them to different exit codes.
"""


class DelayRCError(Exception):
    pass


class ConfigurationError(DelayRCError, ValueError):
    """Invalid parameter value, config key, or argument combination."""


class DataFormatError(DelayRCError, ValueError):
    """Malformed input data file; the message names the file."""


class NumericsError(DelayRCError, ArithmeticError):
    """Numerical failure at runtime (divergence, non-finite results)."""


class SingularMatrixError(NumericsError):
    """Normal-equation matrix is numerically singular."""
