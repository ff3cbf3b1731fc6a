"""Exception hierarchy for tropcurve.

Everything raised on purpose derives from TropcurveError.  The CLI maps
user-input failures to exit code 1 and internal consistency failures
(cross-check mismatches, balancing violations) to exit code 2.
"""


class TropcurveError(Exception):
    """Base class for all tropcurve errors."""


class DuplicateTermError(TropcurveError):
    """The same exponent pair was given twice when building a polynomial."""


class EmptySupportError(TropcurveError):
    """A polynomial needs at least one term."""


class ParseError(TropcurveError):
    """Malformed term table or expression text.

    ``line`` is 1-based when the input is line oriented, else None.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DegenerateSupportError(TropcurveError):
    """Newton polygon is a point or a segment; no curve to extract."""


class BadDegreeError(TropcurveError, ValueError):
    """Degree argument must be a positive integer, within the method's limit."""


class InvalidPathError(TropcurveError):
    """Point sequence is not a valid increasing lattice path for the domain."""


class CrossCheckMismatchError(TropcurveError):
    """A consistency check failed: the lattice-path count and the recursion
    disagree, a report flag fails, or a curve is not balanced."""
