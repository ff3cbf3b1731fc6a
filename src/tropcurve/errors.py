"""Exception hierarchy for tropcurve.

Everything raised on purpose derives from TropcurveError.  The CLI maps
user-input failures to exit code 1 and internal consistency failures
(cross-check mismatches, balancing violations) to exit code 2.
"""

import sys


def digit_limit() -> str:
    """The one wording of CPython's int-to-str digit limit, as set now (4300 by default)."""
    return f"the int-to-str digit limit ({sys.get_int_max_str_digits()} digits)"


def past_digit_limit(digits: int, negative: bool, fraction: bool) -> str:
    """A number past the digit limit, by its kind, sign and digit count (of its longer part)."""
    kind = "fraction" if fraction else "integer"
    return f"{'a negative' if negative else 'a' if fraction else 'an'} {kind} of {digits} digits, past {digit_limit()}"


def shown(value, text=str) -> str:
    """text(value), or, for an int or a Fraction past the digit limit, its `past_digit_limit`
    name; any other value whose text holds such a number is named by its type."""
    try:
        return text(value)
    except ValueError:
        if not hasattr(value, "numerator"):
            return f"a {type(value).__name__} holding a number past {digit_limit()}"
        n = max(abs(value.numerator), value.denominator)
        digits = int((n.bit_length() - 1) * 0.30102999566398120) + 1  # log10(2): low by at most one
        return past_digit_limit(digits + (n >= 10**digits), value < 0, not isinstance(value, int))


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
