"""Plane algebraic curves over Q: degree, genus, exact smoothness, section
ordinates over a rational abscissa, and the exact vertical-tangent check
at a point.

Smoothness is decided exactly, never numerically.  One discriminant is
computed: the y-resultant of the curve with its y-derivative, by Kronecker
substitution: one half-size hybrid Bezout determinant
(polys.resultant_matrix) at x = 2^B, whose signed base-2^B digits are the
resultant's coefficients.  It vanishes identically exactly when f has a
repeated factor involving y; a repeated factor free of y is a repeated factor
of the y-content of f (the gcd of its y-coefficients in Q[x]), which stands in
for the x-discriminant Res_x(f, f_x) at the cost of a few gcds.  Candidate
abscissas are then handled by a gcd over Q[x]/(m), m the square-free part of
the discriminant: f, f_x and f_y are UPolys in y whose coefficients are
UPolys in x reduced mod m, and each pseudo-remainder step reduces every new
coefficient once.  Whenever the zero test of a leading coefficient is
ambiguous (it shares a factor with m), m is split and both parts are tried
(dynamic evaluation, Della Dora, Dicrescenzo & Duval), so the answer holds
for every root of every branch.  Points at infinity are checked through the
homogenization's partial derivatives restricted to the line at infinity,
which reduces to gcds of binary forms.

A section is found once per tower context, and its polynomial once per
process: Curve.section keeps the section polynomial f(x0, y) and its r
points on the context, keyed by the curve polynomial and x0, so every later
call in that context (a request makes one) returns the same Point objects;
f(x0, y) and its monic form come from a bounded LRU cache keyed the same
way, so a request that meets a section an earlier request met takes neither
again (the public section_poly is not cached).  Each section ordinate is the
generator of the monic section polynomial for its root id, so f(x0, y)
reduces to zero by construction and those points are not re-checked; a
Point built by hand is.  f_y at a point is evaluated once and kept on the
point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import NamedTuple

from .errors import (DegreeDrop, InvalidArgument, IrrationalAbscissaUnsupported,
                     MultipleRoots, NotSmooth, NotSquareFree, PointNotOnCurve,
                     VerticalTangent, ZeroPolynomial)
from .polys import BPoly, UPoly, is_squarefree, poly_gcd, resultant_y
from .towers import TowerContext, TowerElement, eval_bpoly, locate_or_adjoin


@dataclass
class SmoothnessReport:
    smooth: bool
    detail: str


def _as_rational(x) -> Fraction:
    if isinstance(x, float):
        raise IrrationalAbscissaUnsupported(
            "abscissas must be exact rationals (got a float); pass a Fraction "
            "or an integer")
    return Fraction(x)


def _require_curve(f: BPoly) -> None:
    """Reject the polynomials that define no curve: zero and nonzero
    constants."""
    if f.is_zero:
        raise ZeroPolynomial("the curve polynomial is zero")
    if f.total_degree < 1:
        raise InvalidArgument("the curve polynomial is a nonzero constant")


class Curve:
    """A smooth plane curve f(x, y) = 0 of total degree r.

    Smoothness is verified exactly on construction; pass assume_smooth=True
    to waive the check (the genus formula and both construction algorithms
    silently assume it).
    """

    def __init__(self, f: BPoly, assume_smooth: bool = False):
        _require_curve(f)
        self.f = f
        self.r = f.total_degree
        self.fy = f.partial_y()
        if not assume_smooth:
            report = smoothness_report(f)
            if not report.smooth:
                raise NotSmooth(report.detail)

    def genus(self) -> int:
        return (self.r - 1) * (self.r - 2) // 2

    def section_poly(self, x0) -> UPoly:
        return self.f.subs_x(_as_rational(x0))

    def section(self, x0, ctx: TowerContext) -> "Section":
        """The section over the abscissa x0: f(x0, y) and its r points,
        ordinates adjoined to (or located in) ctx, in the canonical root
        order.  Built once per context and curve polynomial; a later call
        returns the same record."""
        x0 = _as_rational(x0)
        key = (self.f, x0)
        found = ctx.sections.get(key)
        if found is not None:
            return found
        s, monic = _section_polys(self.f, x0)
        if s.degree < self.r:
            raise DegreeDrop(
                f"section at x = {x0} has degree {s.degree} < {self.r}")
        try:  # isolating the first root decides square-freeness
            points = tuple(_section_point(self, x0, locate_or_adjoin(ctx, monic, rid))
                           for rid in range(self.r))
        except NotSquareFree:
            raise MultipleRoots(f"section at x = {x0} has a multiple root") from None
        found = ctx.sections[key] = Section(s, points)
        return found

    def section_roots(self, x0, ctx: TowerContext) -> list["Point"]:
        """All r points of the curve over the abscissa x0, in the canonical
        root order: the points of section(x0, ctx)."""
        return list(self.section(x0, ctx).points)

    def fy_at(self, p: "Point") -> TowerElement:
        """f_y at a point, evaluated once per point of this curve and kept
        on it."""
        if p.curve is not self:
            return eval_bpoly(self.fy, p.x, p.y)
        if p._fy is None:
            p._fy = eval_bpoly(self.fy, p.x, p.y)
        return p._fy

    def local_series(self, p: "Point") -> TowerElement:
        """f_y at a point, checked exactly to be nonzero (VerticalTangent
        otherwise): then x - x0 is a local parameter there."""
        fyv = self.fy_at(p)
        if fyv.is_zero():
            raise VerticalTangent(f"f_y vanishes at x = {p.x}")
        return fyv

    def __repr__(self):
        return f"Curve(degree={self.r}, genus={self.genus()})"


class Point:
    """A curve point with rational abscissa and tower-element ordinate.

    Membership f(x, y) = 0 is verified exactly when a point is built by
    hand (PointNotOnCurve otherwise).  The points of Curve.section are on
    the curve by construction and skip that check.  f_y at the point is
    kept in _fy once Curve.fy_at has evaluated it."""

    __slots__ = ("curve", "x", "y", "_fy")

    def __init__(self, curve: Curve, x, y: TowerElement):
        self.curve = curve
        self.x = _as_rational(x)
        if not isinstance(y, TowerElement):
            raise TypeError("ordinate must be a TowerElement")
        self.y = y
        self._fy = None
        if not eval_bpoly(curve.f, self.x, y).is_zero():
            raise PointNotOnCurve(f"f({self.x}, y) != 0 for the given ordinate")

    def __repr__(self):
        return f"Point(x={self.x}, y={self.y!r})"


def _section_point(curve: Curve, x: Fraction, y: TowerElement) -> Point:
    """The section point (x, y), y a generator of the monic f(x, y): on the
    curve by construction, so not re-checked."""
    p = object.__new__(Point)
    p.curve, p.x, p.y, p._fy = curve, x, y, None
    return p


@lru_cache(maxsize=64)
def _section_polys(f: BPoly, x0: Fraction) -> tuple[UPoly, UPoly]:
    """f(x0, y) and its monic form, shared by every request that meets the
    section: both are immutable.  64 holds the sections of the last few
    haupt groups (a request meets at most a handful), and caps what a
    sweep of abscissas that never repeat keeps alive."""
    s = f.subs_x(x0)
    return s, s.monic()


class Section(NamedTuple):
    """The section of a curve over a rational abscissa: its polynomial
    f(x0, y) and its points in the canonical root order."""

    poly: UPoly
    points: tuple[Point, ...]


# -- exact smoothness ------------------------------------------------------


def smoothness_report(f: BPoly) -> SmoothnessReport:
    """Decide whether f, f_x, f_y have a common projective zero."""
    _require_curve(f)
    r = f.total_degree
    fx, fy = f.partial_x(), f.partial_y()

    # curves that are unions of parallel lines
    if f.degree_y == 0 or f.degree_x == 0:
        uni = f.coefficients_in_y()[0] if f.degree_y == 0 else f.subs_x(0)
        if poly_gcd(uni, uni.derivative()).degree > 0:
            return SmoothnessReport(False, "repeated linear component")
        return _infinity_report(f, r)

    # repeated factors make every point of that component singular
    disc = resultant_y(f, fy)
    if disc.is_zero:
        return SmoothnessReport(False, "repeated factor (y-discriminant vanishes)")
    # with disc != 0 a repeated factor is free of y, so the x-discriminant
    # Res_x(f, f_x) vanishes exactly when the y-content of f is not square-free
    sections = [UPoly(p.coefficients_in_y()) for p in (f, fx, fy)]
    if not is_squarefree(reduce(poly_gcd, sections[0].coeffs, UPoly())):
        return SmoothnessReport(False, "repeated factor (x-discriminant vanishes)")

    if disc.degree >= 1:
        m = (disc // poly_gcd(disc, disc.derivative())).monic()
        witness = _common_section_root(m, sections)
        if witness is not None:
            mod, g = witness
            if g is None:
                return SmoothnessReport(
                    False, f"vertical line component over {_fmt(mod)} = 0")
            return SmoothnessReport(
                False,
                f"affine singular point: over abscissas with {_fmt(mod)} = 0 the "
                f"sections of f, f_x, f_y share the factor {_fmt_y(g)}")
    return _infinity_report(f, r)


def _fmt(p: UPoly) -> str:
    return " + ".join(f"{c}*x^{i}" for i, c in enumerate(p.coeffs) if c) or "0"


def _fmt_y(g: UPoly) -> str:
    return " + ".join(f"({_fmt(c)})*y^{i}" for i, c in enumerate(g.coeffs) if c) or "0"


def _infinity_report(f: BPoly, r: int) -> SmoothnessReport:
    top = f.homogeneous_part(r)
    # the forms of degree r-1, keyed by the y exponent: both partial
    # derivatives of the top form, and the form below it
    forms = [{j: c * (r - j) for j, c in top.items() if r - j},
             {j - 1: c * j for j, c in top.items() if j},
             f.homogeneous_part(r - 1)]
    forms = [d for d in forms if d]
    if not forms:
        return SmoothnessReport(False, "degenerate form at infinity")
    if r == 1:  # a nonzero constant form vanishes nowhere
        return SmoothnessReport(True, "no singular points")
    if all(d.get(r - 1, 0) == 0 for d in forms):
        return SmoothnessReport(False, "singular point at infinity [0:1:0]")
    # no initial value: a lone form is reported as it is, not made monic
    g = reduce(poly_gcd, [UPoly([d.get(j, 0) for j in range(r)]) for d in forms])
    if g.degree >= 1:
        return SmoothnessReport(
            False, f"singular point at infinity along slope with {_fmt(g)} = 0")
    return SmoothnessReport(True, "no singular points")


def _common_section_root(mod: UPoly, polys_in: list[UPoly]):
    """Dynamic-evaluation gcd: do the given polynomials in y, whose
    coefficients are polynomials in x, share a root for some abscissa with
    mod = 0?  Returns a witness (branch modulus, common factor in y with
    coefficients reduced mod the branch modulus) or None."""
    if mod.degree == 0:
        return None
    polys = [UPoly([c % mod for c in p.coeffs]) for p in polys_in]
    base = None
    while True:
        polys = [q for q in polys if q]
        # the base's lead was found invertible on the pass before
        for q in polys:
            if q is base:
                continue
            g = poly_gcd(q.leading, mod)
            if g.degree > 0:
                # ambiguous zero test: split the modulus and try both parts
                for part in (g, (mod // g).monic()):
                    w = _common_section_root(part, polys_in)
                    if w is not None:
                        return w
                return None
        if not polys:
            # every section vanishes identically over this branch
            return (mod, None)
        if any(q.degree == 0 for q in polys):
            return None  # a unit in the would-be gcd: no common root
        if len(polys) == 1:
            return (mod, polys[0])
        polys.sort(key=lambda q: q.degree)
        base = polys[0]
        polys = [base] + [_prem(q, base, mod) for q in polys[1:]]


def _prem(a: UPoly, b: UPoly, mod: UPoly) -> UPoly:
    """Pseudo-remainder of a by b, both with coefficients reduced mod the
    branch modulus, and so is the result.  Each step cancels a's leading
    coefficient, so it is left out, and the constructor drops any zero
    below it."""
    lcb = b.leading
    while a.degree >= b.degree:
        lca, low = a.leading, (UPoly(),) * (a.degree - b.degree)
        a = UPoly([(lcb * ac - lca * bc) % mod
                   for ac, bc in zip(a.coeffs[:-1], low + b.coeffs)])
    return a
