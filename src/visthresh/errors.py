"""Exception types shared across the package.

The CLI maps these onto exit codes: DataError -> 2, NumericError -> 3.
"""


class DataError(ValueError):
    """Malformed input data: bad file format, contract violation, missing cell."""


class NumericError(RuntimeError):
    """Numerical failure: non-finite loss, failed gradient check."""
