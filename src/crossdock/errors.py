"""Exception types shared across the package. Each survives pickling: those
with fields rebuild themselves from them."""


class CrossdockError(Exception):
    """Base class for every error raised by this package."""


class PdbParseError(CrossdockError):
    """An ATOM record could not be parsed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number, self.message = line_number, message

    def __reduce__(self):
        return type(self), (self.line_number, self.message)


class NoAtomsError(CrossdockError):
    """A structure with zero atoms was given where atoms are required."""


class GridOverflowError(CrossdockError):
    """An atom, inflated by its radius, does not fit inside the grid.

    Carries the serial number of the offending atom.
    """

    def __init__(self, serial: int, message: str = ""):
        detail = message or "atom does not fit inside the grid"
        super().__init__(f"atom serial {serial}: {detail}")
        self.serial, self.message = serial, message

    def __reduce__(self):
        return type(self), (self.serial, self.message)


class ParameterError(CrossdockError, ValueError):
    """A configuration value is outside its documented range."""


class ComparisonError(CrossdockError, ValueError):
    """Two run records are not comparable (different instance or workload)."""


class WireError(CrossdockError):
    """A malformed frame or message arrived on a dispatch connection."""


class DispatchError(CrossdockError):
    """Master/worker failure: bind error, startup timeout, retry budget."""
