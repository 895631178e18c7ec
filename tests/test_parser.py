from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abeldiff.errors import InvalidArgument, PolySyntaxError, UnknownVariable
from abeldiff.parser import (MAX_DEGREE, MAX_LITERAL_DIGITS, MAX_NESTING, format_bpoly,
                             parse_poly)
from abeldiff.polys import BPoly
from tests.conftest import CUBIC_TERMS


def test_parse_running_cubic():
    p = parse_poly("x^3-y^3+2*x*y+x-2*y+1")
    assert p == BPoly(CUBIC_TERMS)


def test_parse_circle():
    assert parse_poly("x^2+y^2-1") == BPoly({(2, 0): 1, (0, 2): 1, (0, 0): -1})


def test_implicit_multiplication_rejected():
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly("x^3-y^3+2xy")
    assert exc.value.pos == 9


def test_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse_poly("x + z")


def test_rational_coefficients():
    p = parse_poly("1/2*x - 3/4")
    assert p == BPoly({(1, 0): Fraction(1, 2), (0, 0): Fraction(-3, 4)})


def test_parentheses_and_unary_minus():
    assert parse_poly("-(x - y)^2") == -(BPoly.x() - BPoly.y()) ** 2
    assert parse_poly("- - 3") == BPoly.const(3)


def _power_by_products(base, n):
    """n products by base from BPoly.const(1): repeated multiplication, an
    independent reference for polys.power's square-and-multiply."""
    result = BPoly.const(1)
    for _ in range(n):
        result = result * base
    return result


def test_powers_of_monomials_parse_as_products_do(monkeypatch):
    texts = ["x^3-y^3+2*x*y+x-2*y+1", "x^24+y^24-1", "(2/3*x^2*y)^5 - (-y)^7 + x^0",
             "(-3*x)^4*y^2 - 5/7*(x*y)^3*x^2 + (x + y)^3", "(1/2)^3*x^2*y^4 + 0^0 - 0^2*x",
             "((x^2)^3*y)^2 - (y^3)^2 + 7"]
    fast = [parse_poly(t) for t in texts]
    monkeypatch.setattr(BPoly, "__pow__", _power_by_products)
    slow = [parse_poly(t) for t in texts]
    for t, a, b in zip(texts, fast, slow):
        assert a.terms == b.terms, t
        assert all(type(c) is Fraction for c in a.terms.values()), t
    assert BPoly({(1, 2): Fraction(-2, 3)}) ** 3 == BPoly({(3, 6): Fraction(-8, 27)})
    assert BPoly.y() ** 0 == BPoly.const(1)


def test_syntax_errors_carry_position():
    for text, pos in [("x +", 3), ("(x", 2), ("x ^ y", 4)]:
        with pytest.raises(PolySyntaxError) as exc:
            parse_poly(text)
        assert exc.value.pos == pos


def test_decimal_point_rejected():
    with pytest.raises(PolySyntaxError):
        parse_poly("0.5*x")


def test_format_canonical_order():
    p = BPoly(CUBIC_TERMS)
    assert format_bpoly(p) == "x^3 - y^3 + 2*x*y + x - 2*y + 1"
    assert format_bpoly(BPoly()) == "0"
    assert format_bpoly(BPoly.const(Fraction(-3, 7))) == "-3/7"


def test_roundtrip_on_canonical_form():
    for text in ["x^3-y^3+2*x*y+x-2*y+1", "x^2+y^2-1", "1/2*x*y - y^4 + 7"]:
        p = parse_poly(text)
        assert parse_poly(format_bpoly(p)) == p


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.fractions(max_denominator=30),
    max_size=6))
def test_roundtrip_random(terms):
    p = BPoly(terms)
    assert parse_poly(format_bpoly(p)) == p


@pytest.mark.parametrize("text", [
    "x^100000+y^2-1",
    "(x+y)^20*(x+y)^20",
    "x^" + "9" * 5000,        # beyond int()'s digit limit
    "2^25",
    "(x^2+y)^13",
    "x^12*y^12*x",
])
def test_oversized_curve_rejected(text):
    with pytest.raises(InvalidArgument, match=f"maximum.*{MAX_DEGREE}"):
        parse_poly(text)


@pytest.mark.parametrize("text", [
    "9" * 5000 + "*x+y^2-1",       # beyond int()'s digit limit
    "1/" + "7" * 5000 + "*x+y^2-1",
    "0" * 4999 + "1*x+y^2-1",
    "1" * (MAX_LITERAL_DIGITS + 1) + "+x+y",
])
def test_oversized_literal_rejected(text):
    with pytest.raises(InvalidArgument, match=f"{MAX_LITERAL_DIGITS} digits"):
        parse_poly(text)


def test_literal_cap_still_accepts_its_maximum():
    big = "9" * MAX_LITERAL_DIGITS
    assert parse_poly(f"{big}/{big}*x+y").terms[(1, 0)] == 1


def _nested(depth: int, inner: str = "x") -> str:
    return "(" * depth + inner + ")" * depth + "+y^2-1"


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 200, 10_000])
def test_deep_nesting_rejected_before_recursing(depth):
    # every level of parentheses costs five frames, so 200 levels used to
    # end in a RecursionError
    with pytest.raises(InvalidArgument, match=f"nested deeper than the maximum {MAX_NESTING}"):
        parse_poly(_nested(depth))


def test_nesting_cap_still_accepts_its_maximum():
    assert parse_poly(_nested(MAX_NESTING)) == parse_poly("x+y^2-1")
    assert parse_poly(_nested(MAX_NESTING, "--x^2*-1+1")) == parse_poly("-x^2+y^2")


def test_degree_cap_still_accepts_its_maximum():
    assert MAX_DEGREE == 24
    assert parse_poly("x^24+y^24-1").total_degree == 24
    assert parse_poly("(x+y)^12*(x-y)^12").total_degree == 24
    assert parse_poly("x^0024").total_degree == 24
