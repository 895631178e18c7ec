"""Curve-equation parser and canonical pretty-printer.

Grammar: integer and rational literals (p/q), variables x and y, operators
+ - * ^ and parentheses.  Implicit multiplication is rejected on purpose:
"2*x*y" parses, "2xy" does not.  No decimal points — exactness discipline.
Exponents and the total degree of every product are capped at MAX_DEGREE
before the power or product is computed, so an oversized curve fails fast
with InvalidArgument instead of running for minutes.  Integer literals
(numerators and denominators) are capped at MAX_LITERAL_DIGITS digits before
they are converted, below the 4300-digit limit of int().  Parentheses are
nested at most MAX_NESTING deep, checked before each level recurses, so a
deeply nested curve fails with InvalidArgument instead of exhausting
Python's recursion limit (every level costs five frames).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InvalidArgument, PolySyntaxError, UnknownVariable
from .polys import BPoly

MAX_DEGREE = 24
MAX_LITERAL_DIGITS = 1000
MAX_NESTING = 100

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|([()+\-*/^]))")


def _check_degree(degree: int, pos: int) -> None:
    if degree > MAX_DEGREE:
        raise InvalidArgument(f"total degree {degree} exceeds the maximum "
                              f"{MAX_DEGREE} (at position {pos})")


def _literal(digits: str, pos: int) -> int:
    if len(digits) > MAX_LITERAL_DIGITS:
        raise InvalidArgument(f"integer literal of {len(digits)} digits exceeds the "
                              f"maximum of {MAX_LITERAL_DIGITS} digits (at position {pos})")
    return int(digits)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise PolySyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.group(1):
            out.append(("num", m.group(1), m.start(1)))
        elif m.group(2):
            out.append(("name", m.group(2), m.start(2)))
        elif m.group(3):
            out.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0      # parentheses open around the current atom

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self) -> BPoly:
        acc = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                acc = acc + rhs if val == "+" else acc - rhs
            else:
                return acc

    def term(self) -> BPoly:
        acc = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.take()
                rhs = self.unary()
                _check_degree(acc.total_degree + rhs.total_degree, pos)
                acc = acc * rhs
            elif kind in ("num", "name") or (kind == "op" and val == "("):
                raise PolySyntaxError(
                    "implicit multiplication is not allowed; write '*' explicitly", pos)
            else:
                return acc

    def unary(self) -> BPoly:
        sign = 1
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                if val == "-":
                    sign = -sign
            else:
                break
        p = self.power()
        return p if sign == 1 else -p

    def power(self) -> BPoly:
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, pos = self.peek()
            if kind != "num":
                raise PolySyntaxError("exponent must be a nonnegative integer", pos)
            self.take()
            # digit count first: int() refuses strings of over 4300 digits
            if len(val.lstrip("0")) > len(str(MAX_DEGREE)) or int(val) > MAX_DEGREE:
                raise InvalidArgument(f"exponent exceeds the maximum degree {MAX_DEGREE} "
                                      f"(at position {pos})")
            e = int(val)
            _check_degree(base.total_degree * e, pos)
            return base ** e
        return base

    def atom(self) -> BPoly:
        kind, val, pos = self.take()
        if kind == "num":
            nkind, nval, npos = self.peek()
            if nkind == "op" and nval == "/":
                self.take()
                dkind, dval, dpos = self.peek()
                if dkind != "num":
                    raise PolySyntaxError("denominator must be an integer", dpos)
                self.take()
                den = _literal(dval, dpos)
                if den == 0:
                    raise PolySyntaxError("zero denominator", dpos)
                return BPoly.const(Fraction(_literal(val, pos), den))
            return BPoly.const(Fraction(_literal(val, pos)))
        if kind == "name":
            if val == "x":
                return BPoly.x()
            if val == "y":
                return BPoly.y()
            raise UnknownVariable(val, pos)
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                raise InvalidArgument(f"parentheses nested deeper than the maximum "
                                      f"{MAX_NESTING} (at position {pos})")
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            kind, val, pos = self.take()
            if not (kind == "op" and val == ")"):
                raise PolySyntaxError("expected ')'", pos)
            return inner
        raise PolySyntaxError(f"expected a number, variable or '(', got {val!r}", pos)


def parse_poly(text: str) -> BPoly:
    """Exact bivariate polynomial from text; round-trips with format_bpoly
    up to term order."""
    p = _Parser(text)
    result = p.expr()
    kind, val, pos = p.peek()
    if kind != "end":
        raise PolySyntaxError(f"trailing input {val!r}", pos)
    return result


def _fmt_coeff(c: Fraction) -> str:
    return str(c)


def _fmt_mono(i: int, j: int) -> str:
    parts = []
    if i == 1:
        parts.append("x")
    elif i > 1:
        parts.append(f"x^{i}")
    if j == 1:
        parts.append("y")
    elif j > 1:
        parts.append(f"y^{j}")
    return "*".join(parts)


def format_bpoly(p: BPoly) -> str:
    """Canonical form: terms by descending total degree, then descending
    x-exponent; parses back to the same polynomial."""
    if p.is_zero:
        return "0"
    keys = sorted(p.terms, key=lambda ij: (-(ij[0] + ij[1]), -ij[0]))
    chunks = []
    for idx, (i, j) in enumerate(keys):
        c = p.terms[(i, j)]
        neg = c < 0
        mag = -c if neg else c
        mono = _fmt_mono(i, j)
        if not mono:
            body = _fmt_coeff(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_fmt_coeff(mag)}*{mono}"
        if idx == 0:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(chunks)
