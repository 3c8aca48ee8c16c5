"""Exception types shared across the package."""

from __future__ import annotations


class MatfdpError(Exception):
    """Base class for every package-specific error."""


class InvalidMatrix(MatfdpError):
    """Input array violates a structural requirement (shape, finiteness, symmetry)."""


class NotPsd(MatfdpError):
    """Symmetric matrix has a negative eigenvalue beyond the semidefinite tolerance."""


class DegenerateVariance(MatfdpError):
    """A variance is numerically zero (or negative) where a positive one is required."""

    def __init__(self, row: int, col: int):
        super().__init__(f"degenerate variance at cell ({row}, {col})")
        self.row = row
        self.col = col

    def __reduce__(self):
        # The default rebuilds from ``args``, the message alone.
        return type(self), (self.row, self.col)


class NonPositiveEigenvalue(MatfdpError):
    """Eigenvalue-ratio selection ran out of usable positive eigenvalues."""


class InvalidFactorCount(MatfdpError, ValueError):
    """A factor count is out of range or too large for the data; also a ``ValueError``."""


class DatasetFormatError(MatfdpError):
    """A dataset directory or one of its member files failed validation."""

    def __init__(self, message: str, path: str | None = None):
        super().__init__(message)
        self.path = path
