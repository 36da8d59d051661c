"""Exception types shared across the package.

Two failure families are distinguished because they map to distinct
process exit codes in the command line interface: bad inputs or
configuration (exit 2) and numerical failures such as quadrature not
reaching its tolerance (exit 3).
"""

__all__ = ["VeriscoreError", "ValidationError", "NumericError"]


class VeriscoreError(Exception):
    """Base class for all package errors."""


class ValidationError(VeriscoreError):
    """Invalid input data, configuration, or arguments.

    ``report`` is the ``PartitionReport`` of a failed partition check.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NumericError(VeriscoreError):
    """A numerical routine failed to reach its accuracy target.

    ``index`` is the flat position of the failing element, or None.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index
