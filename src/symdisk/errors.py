"""Exception hierarchy shared by all symdisk modules."""


class SymdiskError(Exception):
    """Base class for all errors raised by symdisk."""


class InputError(SymdiskError):
    """Invalid data: bad shapes, failed preconditions, malformed files."""


class NumericalError(SymdiskError):
    """A computation failed to meet its tolerance contract."""


class IllPlacedContour(NumericalError):
    """An eigenvalue sits too close to the circle of a spectral projection's disk."""


class NoActiveKernel(SymdiskError):
    """No active kernel was found in the searched family."""
