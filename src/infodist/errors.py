"""Exception types raised by the library."""


class InfodistError(ValueError):
    """Base class for validation errors: every refusal that the command line
    reports as a validation failure (exit 1) is one."""


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
