"""Exception hierarchy for saddleqr.

All computational failures derive from :class:`LinAlgError` so callers can
catch the whole family.  Each class carries a short ``code`` used by the
bench writer to mark failed cells (``ERR:<code>``).
"""

from __future__ import annotations


class LinAlgError(Exception):
    """Base class for numerical and contract failures."""

    code = "linalg"


class DimensionError(LinAlgError):
    """Operands have incompatible shapes; the message names both."""

    code = "dimension"


class RankDeficientError(LinAlgError):
    """A Householder pivot collapsed below the rank threshold."""

    code = "rank_deficient"

    def __init__(self, column: int, step: str | None = None):
        self.column = column
        self.step = step
        msg = f"rank-deficient at column {column}"
        if step is not None:
            msg = f"{msg} ({step})"
        super().__init__(msg)


class SingularMatrixError(LinAlgError):
    """Matrix is singular to working precision."""

    code = "singular"


class NonFiniteError(LinAlgError):
    """A computed quantity overflowed or became NaN, so no finite value
    can be reported for it (typically at extreme input scales)."""

    code = "overflow"


class NonConvergedError(LinAlgError):
    """A LAPACK eigenvalue or singular-value routine did not converge."""

    code = "nonconverged"


class ZeroDiagonalError(SingularMatrixError):
    """Back-substitution hit a zero (or subnormal) diagonal entry."""

    code = "zero_diagonal"

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"zero or subnormal diagonal entry at row {row}")


class HypothesisError(LinAlgError):
    """A bound's hypothesis (for example beta < 1) does not hold."""

    code = "hypothesis"


class DegenerateSolutionError(LinAlgError):
    """A metric denominator vanished (zero computed solution)."""

    code = "degenerate"


class OutOfMemoryError(LinAlgError):
    """An allocation failed (Python raised ``MemoryError``): the code of a
    bench cell or row that ran out of memory."""

    code = "memory"
