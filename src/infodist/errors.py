"""Exception and warning types raised by the library."""


class InfodistError(ValueError):
    """Base class for validation errors."""


class NonSquareError(InfodistError):
    pass


class NonHermitianError(InfodistError):
    pass


class NotPositiveError(InfodistError):
    pass


class DimMismatchError(InfodistError):
    pass


class BadPartitionError(InfodistError):
    pass


class WeightError(InfodistError):
    pass


class EvenPrimeError(InfodistError):
    """The unbiased-bases construction requires an odd prime characteristic."""


class ConvergenceWarning(UserWarning):
    """Emitted when an iterative optimizer exhausts its budget without
    meeting its convergence test. The returned value is still a valid
    lower bound."""
