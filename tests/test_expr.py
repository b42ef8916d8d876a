"""Expression grammar: parsing, printing, round trips, error locations."""

import random

import pytest

from rhopf.errors import ParseError
from rhopf.expr import MAX_DEPTH, format_ratexpr, parse_expr
from rhopf.symfield import RatExpr, mono_from_pairs
from rhopf import symfield as sf


CASES = [
    "(x-q^2)/(x*q^2-1)",
    "q^2 + q^-2",
    "s^3*u1^-2/(z1-w)",
    "1",
    "0",
    "-x^-2",
    "2*z1*z2/(w^2 - u2)",
    "s",
    "q^(-3)",
    "z9^4 - u3/(s+1)",
    "(((x)))",
    "x - -1",
]


@pytest.mark.parametrize("text", CASES)
def test_round_trip(text):
    e = parse_expr(text)
    assert parse_expr(format_ratexpr(e)) == e


def test_s_is_sqrt_q():
    assert parse_expr("s^2") == parse_expr("q")
    assert parse_expr("s*s") == parse_expr("q")


def test_error_reports_location():
    with pytest.raises(ParseError) as err:
        parse_expr("x +\n z1 * foo")
    assert err.value.line == 2 and err.value.col == 7

    with pytest.raises(ParseError):
        parse_expr("x + ")
    with pytest.raises(ParseError):
        parse_expr("x ^ y")
    with pytest.raises(ParseError):
        parse_expr("(x + 1")


def test_error_location_counts_from_the_origin():
    """With the origin of the text in an enclosing text, positions on the
    first line are shifted by its column, later lines only by its line."""
    with pytest.raises(ParseError) as err:
        parse_expr("x + foo", (4, 10))
    assert (err.value.line, err.value.col) == (4, 14)
    with pytest.raises(ParseError) as err:
        parse_expr("x +\n z1 * foo", (4, 10))
    assert (err.value.line, err.value.col) == (5, 7)


def test_printer_round_trips_random_expressions():
    rng = random.Random(424)
    vs = [sf.S, sf.X, sf.Z[0], sf.Z[8], sf.W, sf.U[0]]
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            m = mono_from_pairs([(v, rng.randint(-3, 3))
                                 for v in rng.sample(vs, rng.randint(0, 3))])
            terms[m] = rng.randint(-9, 9) or 3
        den = ({sf.mono(): 1} if rng.random() < 0.5
               else {sf.mono(): 2, sf.mono(x=1): 5})
        e = RatExpr(terms, den)
        assert parse_expr(format_ratexpr(e)) == e


def test_nesting_past_the_bound_is_a_parse_error():
    """The parser recurses once per parenthesis and unary minus; past
    MAX_DEPTH levels the text is rejected at the token that goes deeper,
    not by the interpreter's recursion limit."""
    deep = MAX_DEPTH * "(" + "x" + MAX_DEPTH * ")"
    assert parse_expr(deep) == parse_expr("x")
    assert parse_expr(MAX_DEPTH * "-" + "x") == parse_expr("x")
    for text in ("(" + deep + ")", 400 * "(" + "x" + 400 * ")",
                 (MAX_DEPTH + 1) * "-" + "x", 1000 * "-" + "x"):
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert str(err.value).startswith("expression nested too deeply")
        assert (err.value.line, err.value.col) == (1, MAX_DEPTH + 1)
    # the depth is the nesting, not the number of parentheses or signs
    assert parse_expr(" + ".join(["-(-x)"] * 3 * MAX_DEPTH)) == parse_expr(
        f"{3 * MAX_DEPTH}*x")
