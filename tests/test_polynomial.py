import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcurve import (
    DegenerateSupportError,
    DuplicateTermError,
    EmptySupportError,
    ParseError,
    TropicalPolynomial,
    dual_subdivision,
    format_rational,
    parse_expression,
    parse_rational,
    parse_term_table,
)
from tropcurve.errors import shown
from tropcurve.polynomial import parse_integer
from tropcurve.geometry import convex_hull

LINE_TERMS = [((0, 0), Fraction(0)), ((1, 0), Fraction(0)), ((0, 1), Fraction(0))]


def line_poly():
    return TropicalPolynomial(LINE_TERMS)


class TestConstruction:
    def test_line(self):
        poly = line_poly()
        assert len(poly) == 3
        assert poly.terms[(1, 0)] == 0

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateTermError):
            TropicalPolynomial([((0, 0), Fraction(0)), ((0, 0), Fraction(1))])

    def test_empty_rejected(self):
        with pytest.raises(EmptySupportError):
            TropicalPolynomial([])

    def test_single_term(self):
        poly = TropicalPolynomial([((2, 3), Fraction(5))])
        assert poly.support == [(2, 3)]

    def test_non_integral_exponent_rejected(self):
        with pytest.raises(ValueError, match=r"\(1\.5, 0\)"):
            TropicalPolynomial([((1.5, 0), Fraction(1)), ((0, 0), Fraction(0))])

    def test_integral_fraction_exponent_accepted(self):
        poly = TropicalPolynomial([((Fraction(1), Fraction(4, 2)), Fraction(0))])
        assert poly.support == [(1, 2)]


class TestArgmax:
    def test_triple_tie_at_origin(self):
        assert line_poly().argmax_terms(0, 0) == {(0, 0), (1, 0), (0, 1)}

    def test_interior_of_region(self):
        assert line_poly().argmax_terms(-1, -2) == {(0, 0)}

    def test_diagonal_ray(self):
        # x = y > 0: the two slanted terms tie and beat the constant
        assert line_poly().argmax_terms(3, 3) == {(1, 0), (0, 1)}


class TestTermTable:
    def test_line(self):
        assert parse_term_table("0 0 0\n1 0 0\n0 1 0") == line_poly()

    def test_fraction_coefficient(self):
        poly = parse_term_table("0 0 1/2")
        assert poly.terms[(0, 0)] == Fraction(1, 2)

    def test_bad_coefficient_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_term_table("0 0 x")
        assert exc.value.line == 1

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\n0 0 0  # trailing\n1 0 0\n0 1 0\n"
        assert parse_term_table(text) == line_poly()

    def test_zero_denominator_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_term_table("0 0 0\n0 1 1/0")
        assert exc.value.line == 2

    def test_second_line_error(self):
        with pytest.raises(ParseError) as exc:
            parse_term_table("0 0 0\n1 0")
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 0 0\n1 0 0\n0 1 0\n1 0 1", "line 4: duplicate term at exponent (1, 0)"),
            # the duplicate's own line, counted past comments and blanks
            ("0 0 0\n# 0 0 1\n\n0 0 1\n1 0 0", "line 4: duplicate term at exponent (0, 0)"),
        ],
        ids=["last-line", "past-a-comment"],
    )
    def test_duplicate_term_reports_line(self, text, message):
        with pytest.raises(DuplicateTermError) as exc:
            parse_term_table(text)
        assert str(exc.value) == message

    def test_negative_exponents_allowed(self):
        poly = parse_term_table("-1 -2 3")
        assert poly.support == [(-1, -2)]

    @pytest.mark.parametrize(
        "line", ["1_0 0 0", "0 1_0 0", "\uff11 0 0", "0 0 \uff11", "0 0 1/\uff12", "0 0 \u0661"]
    )
    def test_only_ascii_digits(self, line):
        with pytest.raises(ParseError) as exc:
            parse_term_table("0 1 0\n" + line)
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "line, kind",
        [
            ("{} 0 0", "an integer"),
            ("0 -{} 0", "a negative integer"),
            ("0 0 {}", "an integer"),
            ("0 0 -1/{}", "a negative fraction"),
        ],
        ids=["{} 0 0", "0 -{} 0", "0 0 {}", "0 0 -1/{}"],
    )
    def test_a_numeral_past_the_digit_limit_is_named_by_its_size(self, digit_limit, line, kind):
        digit_limit(640)
        with pytest.raises(ParseError) as exc:
            parse_term_table("0 1 0\n" + line.format("7" * 641))
        past = "of 641 digits, past the int-to-str digit limit (640 digits)"
        assert str(exc.value) == f"line 2: cannot read {kind} {past}"
        digit_limit(0)  # no limit: the numeral is read as written
        assert parse_term_table(line.format("7" * 641)).support


class TestExpression:
    def test_line(self):
        assert parse_expression("max(0, x, y)") == line_poly()

    def test_affine_term(self):
        poly = parse_expression("max(1/2 + 2x + 3y, 0)")
        assert poly.terms == {(2, 3): Fraction(1, 2), (0, 0): Fraction(0)}

    def test_empty_max_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("max()")

    def test_star_and_bare_coefficient(self):
        poly = parse_expression("max(2*x, 3 y)")
        assert poly.terms == {(2, 0): Fraction(0), (0, 3): Fraction(0)}

    def test_duplicate_exponents_rejected(self):
        with pytest.raises(DuplicateTermError):
            parse_expression("max(x, x)")

    def test_fractional_slope_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("max(1/2 x, 0)")

    def test_subtraction_and_negatives(self):
        poly = parse_expression("max(0 - x + 1, -1)")
        assert poly.terms == {(-1, 0): Fraction(1), (0, 0): Fraction(-1)}

    @pytest.mark.parametrize("text", ["max(0, x, y) ", "max(0,x,y)\n", " max(0, x, y)\t\n"])
    def test_surrounding_whitespace_ignored(self, text):
        assert parse_expression(text) == line_poly()

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("max(0, x) y")

    @pytest.mark.parametrize("text", ["max(0, \uff13x, y)", "max(0, x, y + \u0661)"])
    def test_only_ascii_digits(self, text):
        with pytest.raises(ParseError, match="offset"):
            parse_expression(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("max(0,", "unexpected end of expression"),
            ("max(0 0)", "expected ')', got '0'"),
            ("max(2*3)", "expected variable after '*'"),
            ("max(,)", "expected a number"),
            ("max(1/0)", "bad denominator '0'"),
        ],
    )
    def test_malformed_rejected_with_message(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_expression(text)

    @pytest.mark.parametrize("text", ["max({}, x, y)", "max(0, -{}x, y)", "max(0, x, y + 1/{})"])
    def test_a_numeral_past_the_digit_limit_is_named_by_its_size(self, digit_limit, text):
        digit_limit(640)
        with pytest.raises(ParseError) as exc:
            parse_expression(text.format("7" * 641))
        # a numeral in an expression is unsigned: its sign is an operator
        past = "an integer of 641 digits, past the int-to-str digit limit (640 digits)"
        assert str(exc.value) == f"cannot read {past}"
        digit_limit(0)  # no limit: the numeral is read as written
        assert len(parse_expression(text.format("7" * 641))) == 3

    @pytest.mark.parametrize("text", ["max(--1)", "max(0 - -1)"])
    def test_signed_rational(self, text):
        # rat := ["-"] digits, so a term or an operator may be followed by "-"
        assert parse_expression(text).terms == {(0, 0): Fraction(1)}


class TestNewtonPolygon:
    """The hull that `dual_subdivision` computes, and names when it is degenerate."""

    def test_line(self):
        assert convex_hull(line_poly().support) == [(0, 0), (1, 0), (0, 1)]

    def test_collinear_support_is_segment(self):
        poly = TropicalPolynomial([((0, 0), Fraction(0)), ((1, 0), Fraction(0)), ((2, 0), Fraction(0))])
        with pytest.raises(DegenerateSupportError, match=re.escape("[(0, 0), (2, 0)]")):
            dual_subdivision(poly)

    def test_full_quadratic_support(self):
        poly = TropicalPolynomial(
            [((i, j), Fraction(0)) for i in range(3) for j in range(3 - i)]
        )
        assert convex_hull(poly.support) == [(0, 0), (2, 0), (0, 2)]


class TestRender:
    def test_line_sorted(self):
        assert line_poly().render() == "0 0 0\n0 1 0\n1 0 0"

    def test_single_term(self):
        assert TropicalPolynomial([((2, 3), Fraction(5))]).render() == "2 3 5"

    def test_fraction_form(self):
        assert TropicalPolynomial([((0, 0), Fraction(-1, 2))]).render() == "0 0 -1/2"


coefficients = st.fractions(
    min_value=-10, max_value=10, max_denominator=8
)
supports = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4)),
    min_size=1,
    max_size=8,
    unique=True,
)
rational_points = st.tuples(
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
)


@st.composite
def polynomials(draw):
    support = draw(supports)
    coeffs = draw(
        st.lists(coefficients, min_size=len(support), max_size=len(support))
    )
    return TropicalPolynomial(list(zip(support, coeffs)))


def fraction_values(poly, x, y):
    """Each term's value x*i + y*j + c, written out in Fractions."""
    x, y = Fraction(x), Fraction(y)
    return {(i, j): x * i + y * j + c for (i, j), c in poly.terms.items()}


class TestProperties:
    @given(polynomials())
    def test_render_parse_round_trip(self, poly):
        assert parse_term_table(poly.render()) == poly

    @given(polynomials(), rational_points)
    @settings(max_examples=60)
    def test_domination_with_equality_on_argmax(self, poly, p):
        values = fraction_values(poly, *p)
        best = max(values.values())
        assert poly.argmax_terms(*p) == {q for q, v in values.items() if v == best}

    @given(polynomials(), rational_points, coefficients)
    @settings(max_examples=60)
    def test_translation_covariance(self, poly, p, shift):
        shifted = TropicalPolynomial((q, c + shift) for q, c in poly.terms.items())
        assert shifted.argmax_terms(*p) == poly.argmax_terms(*p)


# expressions: integer slopes, negatives included, and rational constants
expression_terms = st.lists(
    st.tuples(
        st.tuples(st.integers(min_value=-12, max_value=12), st.integers(min_value=-12, max_value=12)),
        st.fractions(min_value=-20, max_value=20, max_denominator=9),
    ),
    min_size=1,
    max_size=5,
    unique_by=lambda term: term[0],
)
gaps = st.sampled_from(["", " ", "  ", "\t"])


def spell_part(draw, value, var, first):
    """One signed part of a term, as pieces of text: `- x`, `+ -3/2`, `- -2 * y`..."""
    op = draw(st.sampled_from(["", "-"] if first else ["+", "-"]))
    written = -value if op == "-" else value
    pieces = [op] if op else []
    if var and written == 1 and draw(st.booleans()):
        return pieces + [var]
    if written < 0:
        pieces.append("-")
    number = format_rational(Fraction(abs(written)))
    if var:
        number += draw(st.sampled_from(["", "*", " ", " * "])) + var
    return pieces + [number]


@st.composite
def spelled_expressions(draw, terms):
    """`terms` written as `max(...)` text, each term spelled at random."""
    texts = []
    for (i, j), c in terms:
        parts = [(v, var) for v, var in ((i, "x"), (j, "y"), (c, "")) if v or draw(st.booleans())]
        pieces = []
        for k, (value, var) in enumerate(draw(st.permutations(parts or [(c, "")]))):
            pieces += spell_part(draw, value, var, k == 0)
        texts.append("".join(piece + draw(gaps) for piece in pieces))
    body = texts[0]
    for text in texts[1:]:
        body += "," + draw(gaps) + text
    return draw(gaps) + "max" + draw(gaps) + "(" + draw(gaps) + body + ")" + draw(gaps)


class TestExpressionRoundTrip:
    @given(st.data(), expression_terms)
    @settings(max_examples=200)
    def test_spellings_parse_to_the_terms(self, data, terms):
        text = data.draw(spelled_expressions(terms))
        poly = parse_expression(text)
        assert poly == TropicalPolynomial(terms)
        assert list(poly.terms) == [point for point, _ in terms]


# negative exponents, and coefficients whose denominators mix
signed_supports = st.lists(
    st.tuples(st.integers(min_value=-5, max_value=5), st.integers(min_value=-5, max_value=5)),
    min_size=1,
    max_size=10,
    unique=True,
)
mixed_coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=60)
query_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=30)
# a coordinate as a caller may give it: int, Fraction or "p/q" text
query_values = st.one_of(
    st.integers(min_value=-20, max_value=20),
    query_fractions,
    query_fractions.map(lambda f: f"{f.numerator}/{f.denominator}"),
)


@st.composite
def signed_polynomials(draw):
    support = draw(signed_supports)
    coeffs = draw(st.lists(mixed_coefficients, min_size=len(support), max_size=len(support)))
    return TropicalPolynomial(list(zip(support, coeffs)))


class TestIntegerQueries:
    """`argmax_terms` compares ints on a common denominator; the reference
    here is the plain Fraction max."""

    @given(signed_polynomials(), query_values, query_values, st.data())
    @settings(max_examples=120)
    def test_match_fraction_max(self, poly, x, y, data):
        values = fraction_values(poly, x, y)
        best = max(values.values())
        winners = poly.argmax_terms(x, y)
        assert type(winners) is set
        assert winners == {p for p, v in values.items() if v == best}
        # raise one term's coefficient until it ties the max
        lifted = data.draw(st.sampled_from(sorted(values)))
        shift = best - values[lifted]
        tied = TropicalPolynomial(
            (p, c + shift if p == lifted else c) for p, c in poly.terms.items()
        )
        assert tied.argmax_terms(x, y) == winners | {lifted}

    def test_integer_lift_rows(self):
        poly = TropicalPolynomial(
            [((0, 0), Fraction(1, 4)), ((-2, 1), Fraction(-5, 6)), ((1, 3), Fraction(2))]
        )
        assert poly.integer_lift == ((0, 0, 3), (-2, 1, -10), (1, 3, 24))


def test_parse_rational_rejects_junk():
    for bad in ("", "x", "1/", "/2", "1.5", "1/2/3", "1/0", "-3/00"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_a_numeral_with_a_final_newline_is_refused():
    # a pattern ending in `$` would also match before a final newline
    for read, text in ((parse_integer, "5\n"), (parse_rational, "1/2\n"), (parse_rational, "5\n")):
        with pytest.raises(ValueError, match="not an? (integer|rational)"):
            read(text)


def test_parse_rational_names_a_numeral_past_the_digit_limit_by_its_size(digit_limit):
    digit_limit(640)
    refusals = {
        "-" + "7" * 641: "a negative integer of 641 digits",
        "+" + "7" * 641: "an integer of 641 digits",
        "1/" + "7" * 641: "a fraction of 641 digits",
        "7" * 700 + "/" + "7" * 641: "a fraction of 700 digits",
        "-7/" + "7" * 641: "a negative fraction of 641 digits",
    }
    for text, kind in refusals.items():
        with pytest.raises(ParseError) as exc:
            parse_rational(text)
        assert str(exc.value) == f"cannot read {kind}, past the int-to-str digit limit (640 digits)"


def test_a_value_past_the_digit_limit_is_named_by_its_digit_count(digit_limit):
    # the digit count comes from the bit length, checked against a power of ten:
    # it equals the length of the decimal string on each side of every boundary
    values = [sign * (10**k + step) for k in range(640, 700) for step in (-1, 0, 1) for sign in (1, -1)]
    digit_limit(0)
    expected = [len(str(abs(value))) for value in values]
    digit_limit(640)
    past = "of {} digits, past the int-to-str digit limit (640 digits)"
    for value, digits in zip(values, expected):
        kind = "a negative integer" if value < 0 else "an integer"
        assert shown(value) == (str(value) if digits <= 640 else f"{kind} {past.format(digits)}")
    fraction = Fraction(1, 10**700 + 1)
    assert shown(fraction) == "a fraction " + past.format(701)
    assert shown(-fraction) == "a negative fraction " + past.format(701)
    # an integral Fraction is named a fraction, as its type says
    assert shown(Fraction(10**700)) == "a fraction " + past.format(701)
    assert shown(Fraction(-7, 3)) == "-7/3"
    assert shown(Fraction(-7, 3), repr) == "Fraction(-7, 3)"


def test_repr_mentions_terms():
    assert "(0,0)" in repr(line_poly())


def test_equality_and_hash():
    assert line_poly() == parse_expression("max(0, x, y)")
    assert hash(line_poly()) == hash(parse_expression("max(0, x, y)"))
    assert line_poly() != TropicalPolynomial([((0, 0), Fraction(1))])
    assert line_poly() != "max(0, x, y)"
