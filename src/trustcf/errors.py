"""Exception types shared across the package.

Every error raised deliberately by this package derives from
:class:`TrustcfError`, so callers (in particular the CLI) can separate
expected data problems from genuine bugs.  Each one survives ``pickle``
with its type, message and fields, so an error raised in a forked fold
group reaches the caller as it was raised.

An undefined value is not an error: a metric or statistic with nothing to
average, such as the RMSE of no prediction, is NaN.
"""

from __future__ import annotations


class TrustcfError(Exception):
    """Base class for all errors raised by trustcf."""


class MissingFile(TrustcfError):
    """A required input file or directory does not exist."""


class MalformedRecord(TrustcfError):
    """An input record could not be parsed or fails basic validation."""

    def __init__(self, source: str, line_number: int, reason: str):
        super().__init__(f"{source}:{line_number}: {reason}")
        self.source = source
        self.line_number = line_number
        self.reason = reason

    def __reduce__(self):
        return type(self), (self.source, self.line_number, self.reason)


class IoFailure(TrustcfError):
    """Reading or writing a canonical dataset directory failed."""


class SchemaVersionMismatch(TrustcfError):
    """A canonical dataset directory was written with an unsupported schema."""


class WrongProvenance(TrustcfError):
    """An operation was applied to a dataset from the wrong source family."""


class UnknownUser(TrustcfError):
    """A user handle is out of range or has no usable training data."""


class UnknownConfiguration(TrustcfError):
    """A configuration name is not in the built-in catalogue."""


class AllWeightsZero(TrustcfError):
    """Trust fusion was requested but no facet carries positive weight."""
