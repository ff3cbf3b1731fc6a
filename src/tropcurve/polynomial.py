"""Max-plus (tropical) polynomials in two variables with exact rational coefficients.

A polynomial is a finite map from integer exponent pairs (i, j) to Fraction
coefficients c, representing the piecewise linear function

    (x, y)  ->  max over terms of  x*i + y*j + c.

Ties are meaningful (they are where the tropical curve lives), so every
comparison is exact and no float ever enters.  Coefficients and query
points are Fractions at the interface.  Inside, each polynomial
keeps an integer lift, its coefficients times the lcm of their denominators,
and a query puts the point on a common denominator too, so the terms are
compared as Python ints.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator

from .errors import DuplicateTermError, EmptySupportError, ParseError, past_digit_limit, shown
from .geometry import Point

# ASCII digits only: int() and Fraction() also accept "1_0" and non-ASCII
# digits such as "\uff11", which would silently change what was written.
_INTEGER_RE = re.compile(r"^[+-]?[0-9]+$")
_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' (q > 0) into a Fraction: ValueError if malformed, and a
    ParseError naming the size of a numeral past CPython's int-to-str digit limit."""
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None
    except ValueError:  # past CPython's int-to-str digit limit
        digits = max(map(len, text.lstrip("+-").split("/")))
        raise ParseError(f"cannot read {past_digit_limit(digits, text[0] == '-', '/' in text)}") from None


def parse_integer(text: str) -> int:
    """Parse an integer numeral as a term table's exponent is read, with the errors
    of `parse_rational`."""
    if not _INTEGER_RE.match(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(parse_rational(text))


def format_rational(value: Fraction) -> str:
    """Canonical text for a Fraction: 'p' when integral, else 'p/q'."""
    return str(value)


class TropicalPolynomial:
    """Immutable finite collection of tropical terms (i, j) -> coefficient."""

    __slots__ = ("_terms", "_scale", "_lift")

    def __init__(self, terms: Iterable[tuple[Point, Fraction]]):
        coeffs: dict[Point, Fraction] = {}
        for point, coeff in terms:
            key = (int(point[0]), int(point[1]))
            if key != (point[0], point[1]):
                raise ValueError(f"exponent {tuple(point)!r} is not integral")
            if key in coeffs:
                raise DuplicateTermError(f"duplicate term at exponent ({', '.join(map(shown, key))})")
            coeffs[key] = Fraction(coeff)
        if not coeffs:
            raise EmptySupportError("polynomial needs at least one term")
        self._terms = coeffs
        self._scale = lcm(*(c.denominator for c in coeffs.values()))
        self._lift = tuple(
            (i, j, c.numerator * (self._scale // c.denominator)) for (i, j), c in coeffs.items()
        )

    @property
    def terms(self) -> dict[Point, Fraction]:
        """Exponent -> coefficient map.  Treat as read-only."""
        return self._terms

    @property
    def integer_lift(self) -> tuple[tuple[int, int, int], ...]:
        """Rows (i, j, c * scale), in the order of `terms`, where scale is the
        lcm of the coefficient denominators.

        A positive scale keeps every comparison between terms and the upper
        faces of the lifted support, so both can be computed on these ints.
        """
        return self._lift

    @property
    def support(self) -> list[Point]:
        return sorted(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TropicalPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"({i},{j}): {format_rational(c)}" for (i, j), c in sorted(self._terms.items())
        )
        return f"TropicalPolynomial({{{parts}}})"

    def _scaled_values(self, x, y) -> list[int]:
        """Each term's value at (x, y), times one positive int for all terms.

        With x = a/b and y = e/f, the term x*i + y*j + c times b*f*scale is
        i*(a*f*scale) + j*(e*b*scale) + (c*scale)*(b*f), all in ints.
        """
        # points are mostly Fractions already; Fraction() would copy them
        if not isinstance(x, Fraction):
            x = Fraction(x)
        if not isinstance(y, Fraction):
            y = Fraction(y)
        scale = self._scale
        xs = x.numerator * y.denominator * scale
        ys = y.numerator * x.denominator * scale
        zs = x.denominator * y.denominator
        return [i * xs + j * ys + z * zs for i, j, z in self._lift]

    def argmax_terms(self, x, y) -> set[Point]:
        """All exponents whose term attains the maximum at (x, y)."""
        values = self._scaled_values(x, y)
        best = max(values)
        return {p for p, value in zip(self._terms, values) if value == best}

    def render(self) -> str:
        """Term-table text, one `i j c` line per term, sorted by (i, j)."""
        lines = [
            f"{i} {j} {format_rational(c)}" for (i, j), c in sorted(self._terms.items())
        ]
        return "\n".join(lines)


def parse_term_table(text: str) -> TropicalPolynomial:
    """Parse term-table text: one `<i> <j> <c>` per line.

    Blank lines and lines starting with '#' are ignored; '#' also starts a
    trailing comment.  Raises ParseError, or DuplicateTermError for an
    exponent given twice, with the 1-based line number.
    """
    lineno = 0

    def terms() -> Iterator[tuple[Point, Fraction]]:
        nonlocal lineno  # the polynomial takes each term as its line is read
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 3:
                raise ParseError(f"expected `i j c`, got {raw.strip()!r}", line=lineno)
            if not (_INTEGER_RE.match(fields[0]) and _INTEGER_RE.match(fields[1])):
                raise ParseError(f"exponents must be integers: {raw.strip()!r}", line=lineno)
            try:
                i, j, c = map(parse_rational, fields)  # the exponents are integers, as checked
            except ValueError:
                raise ParseError(f"bad coefficient {fields[2]!r}", line=lineno)
            except ParseError as exc:  # a numeral past the digit limit
                raise ParseError(str(exc), line=lineno) from None
            yield (i, j), c

    try:
        return TropicalPolynomial(terms())
    except DuplicateTermError as exc:  # raised at the duplicate's line
        raise DuplicateTermError(f"line {lineno}: {exc}") from None


# --- expression parser ------------------------------------------------------
#
# expr := "max" "(" term {"," term} ")"
# term := ["-"] part { ("+"|"-") part }
# part := rat | [rat "*"?] ("x"|"y")
# rat  := ["-"] digits ["/" digits]
#
# Variables may only carry integer slopes; the constant part is rational.

_TOKEN_RE = re.compile(r"\s*([0-9]+|[()+\-*/,]|max|[xy])")


def _tokenize(text: str) -> list[str]:
    text = text.rstrip()
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise ParseError(f"unexpected character {text[pos:].lstrip()[:1]!r} at offset {pos}")
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


def parse_expression(text: str) -> TropicalPolynomial:
    """Parse `max(term, ...)` with affine terms in x and y."""
    stack: list[str | None] = [None, *reversed(_tokenize(text))]  # None marks the end

    def take(expected: str | None = None) -> str:
        tok = stack[-1]
        if tok is None:
            raise ParseError("unexpected end of expression")
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, got {tok!r}")
        return stack.pop()

    take("max")
    take("(")
    if stack[-1] == ")":
        raise ParseError("max() needs at least one term")
    terms = []
    while True:
        # one term: signed parts, each summed into the slope of x, of y or the constant
        parts = {"x": Fraction(0), "y": Fraction(0), "": Fraction(0)}
        sign = -1 if stack[-1] == "-" else 1
        if sign < 0:
            take()
        while True:
            if stack[-1] in ("x", "y"):
                parts[take()] += sign
            else:
                if stack[-1] == "-":
                    take()
                    sign = -sign
                num = take()
                if not num.isdigit():
                    raise ParseError(f"expected a number, got {num!r}")
                value = sign * parse_rational(num)
                if stack[-1] == "/":
                    take()
                    den = take()
                    if not den.isdigit() or not parse_rational(den):
                        raise ParseError(f"bad denominator {den!r}")
                    value /= parse_rational(den)
                var = ""
                if stack[-1] == "*":
                    take()
                    var = take()
                    if var not in ("x", "y"):
                        raise ParseError(f"expected variable after '*', got {var!r}")
                elif stack[-1] in ("x", "y"):
                    var = take()
                parts[var] += value
            if stack[-1] not in ("+", "-"):
                break
            sign = 1 if take() == "+" else -1
        for name in ("x", "y"):
            if parts[name].denominator != 1:
                raise ParseError(f"slope of {name} must be an integer, got {shown(parts[name])}")
        terms.append(((int(parts["x"]), int(parts["y"])), parts[""]))
        if stack[-1] != ",":
            break
        take()
    take(")")
    if stack[-1] is not None:
        raise ParseError(f"trailing input after ')': {stack[-1]!r}")
    return TropicalPolynomial(terms)
