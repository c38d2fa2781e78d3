"""Exception hierarchy shared across the package.

Validation errors map to CLI exit code 2, budget errors to exit code 3;
any other exception is a bug and exits 1 with a traceback.
"""


class NormformError(Exception):
    """Base class for all package errors."""


class ValidationError(NormformError, ValueError):
    """Bad input data or unsatisfied precondition (also a ValueError)."""


class NonMonic(ValidationError):
    pass


class DegenerateDegree(ValidationError):
    pass


class ReducibleDetected(ValidationError):
    pass


class ZeroVector(ValidationError):
    pass


class DegeneratePair(NormformError):
    """wedge_pair(v1, v2) == 0: the joint constraint lattice has rank > n-2k.

    This is data in census code paths, not a failure, hence not a
    ValidationError.
    """


class ZeroWedge(ValidationError):
    pass


class DependentRows(ValidationError):
    pass


class RankTooLarge(ValidationError):
    pass


class Unbounded(ValidationError):
    pass


class BadPrime(ValidationError):
    pass


class NotSquarefree(ValidationError):
    pass


class BudgetExceeded(NormformError):
    """Requested computation exceeds the configured desk-scale budget."""


class FactorizationBudget(BudgetExceeded):
    pass
