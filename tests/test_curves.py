import contextlib
import hashlib
import io
import random
from fractions import Fraction

import mpmath as mp
import pytest

from abeldiff import cli, curves
from abeldiff.curves import Curve, Point, SmoothnessReport, smoothness_report
from abeldiff.errors import (DegreeDrop, IrrationalAbscissaUnsupported,
                             MultipleRoots, NotSmooth, PointNotOnCurve,
                             VerticalTangent)
from abeldiff.polys import BPoly, power_sums
from abeldiff.towers import TowerContext, eval_bpoly
from tests.conftest import CIRCLE_TERMS, CUBIC_TERMS


def test_genus_by_degree(cubic, circle, quartic):
    assert circle.genus() == 0
    assert cubic.genus() == 1
    assert quartic.genus() == 3


def test_smoothness_fixtures(cubic, circle, quartic):
    assert smoothness_report(cubic.f).smooth
    assert smoothness_report(circle.f).smooth
    assert smoothness_report(quartic.f).smooth


def test_cuspidal_cubic_is_singular():
    rep = smoothness_report(BPoly({(0, 2): 1, (3, 0): -1}))
    assert not rep.smooth
    assert rep.detail


def test_nodal_cubic_is_singular():
    # y^2 = x^2(x + 1): node at the origin
    rep = smoothness_report(BPoly({(0, 2): 1, (3, 0): -1, (2, 0): -1}))
    assert not rep.smooth


def test_repeated_component_is_singular():
    f = BPoly({(0, 1): 1, (1, 0): -1})  # y - x
    rep = smoothness_report(f * f)
    assert not rep.smooth


def test_two_intersecting_lines_singular():
    # (y - x)(y + x): transversal intersection at the origin
    rep = smoothness_report(BPoly({(0, 2): 1, (2, 0): -1}))
    assert not rep.smooth


def test_parallel_lines_singular_at_infinity():
    # x(x - 1): square-free, meets itself at [0:1:0]
    rep = smoothness_report(BPoly({(2, 0): 1, (1, 0): -1}))
    assert not rep.smooth
    assert "infinity" in rep.detail


def test_single_line_smooth():
    assert smoothness_report(BPoly({(1, 0): 1, (0, 1): 2, (0, 0): -3})).smooth


def _dense(d):
    """Every monomial x^i*y^j of total degree <= d (i outer, j inner) with a
    seeded coefficient in -9..9, plus x^d + y^d."""
    rng = random.Random(7)
    terms = {(i, j): rng.randint(-9, 9) for i in range(d + 1) for j in range(d + 1 - i)}
    return BPoly(terms) + BPoly({(d, 0): 1, (0, d): 1})


@pytest.mark.parametrize("d", [5, 6])
def test_dense_curves_are_smooth(d):
    f = _dense(d)
    assert f.total_degree == d
    assert smoothness_report(f) == SmoothnessReport(True, "no singular points")


def _seeded_curves():
    """Per degree 3..7: a planted singular curve
    f = h - h(a,b) - h_x(a,b)(x-a) - h_y(a,b)(y-b), singular at (a, b), and a
    random dense curve, both from dense h with coefficients in -1..1 plus
    x^d + y^d."""
    rng = random.Random(5)
    x, y = BPoly.x(), BPoly.y()
    out = {}
    for d in range(3, 8):
        h = BPoly({(i, j): rng.randint(-1, 1) for i in range(d + 1) for j in range(d + 1 - i)})
        h = h + BPoly({(d, 0): 1, (0, d): 1})
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        out["planted", d] = (h - h.eval(a, b) - h.partial_x().eval(a, b) * (x - a)
                             - h.partial_y().eval(a, b) * (y - b))
        dense = BPoly({(i, j): rng.randint(-1, 1) for i in range(d + 1) for j in range(d + 1 - i)})
        out["dense", d] = dense + BPoly({(d, 0): 1, (0, d): 1})
    return out


# verdicts and details of _seeded_curves, recorded before the polynomial
# layer ran on integer numerators; the planted curves must stay not smooth
SEEDED_VERDICTS = {
    ("planted", 3): "affine singular point: over abscissas with -3*x^0 + 1*x^1 = 0 the "
                    "sections of f, f_x, f_y share the factor (-46*x^0)*y^0 + (23*x^0)*y^1",
    ("dense", 3): "no singular points",
    ("planted", 4): "affine singular point: over abscissas with 3*x^0 + 1*x^1 = 0 the "
                    "sections of f, f_x, f_y share the factor (3468*x^0)*y^0 + (1734*x^0)*y^1",
    ("dense", 4): "singular point at infinity along slope with 1*x^1 = 0",
    ("planted", 5): "affine singular point: over abscissas with 1*x^0 + 1*x^1 = 0 the "
                    "sections of f, f_x, f_y share the factor (576*x^0)*y^1",
    ("dense", 5): "affine singular point: over abscissas with 3*x^0 + 1*x^1 + -1*x^2 + "
                  "1*x^3 + 1*x^4 = 0 the sections of f, f_x, f_y share the factor "
                  "(170058*x^0 + -88765*x^1 + -6766*x^2 + 78428*x^3)*y^0 + "
                  "(-170058*x^0 + 88765*x^1 + 6766*x^2 + -78428*x^3)*y^1",
    ("planted", 6): "affine singular point: over abscissas with 1/3*x^0 + 1*x^1 = 0 the "
                    "sections of f, f_x, f_y share the factor "
                    "(-51643593169484375/125524238436*x^0)*y^0 + "
                    "(-51643593169484375/62762119218*x^0)*y^1",
    ("dense", 6): "no singular points",
    ("planted", 7): "affine singular point: over abscissas with 2/3*x^0 + 1*x^1 = 0 the "
                    "sections of f, f_x, f_y share the factor "
                    "(15450822977689568465492377600/328256967394537077627*x^0)*y^1",
    ("dense", 7): "no singular points",
}


def test_seeded_smoothness_degrees_3_to_7():
    curves = _seeded_curves()
    assert curves.keys() == SEEDED_VERDICTS.keys()
    for key, f in curves.items():
        assert f.total_degree == key[1]
        rep = smoothness_report(f)
        assert rep.detail == SEEDED_VERDICTS[key], key
        assert rep.smooth is (rep.detail == "no singular points")
        if key[0] == "planted":
            assert not rep.smooth


def _random_curves(count):
    """A seeded draw of curves of degree 1..5, of four kinds in turn: sparse
    curves, products with a factor of degree 1 or 2, products of linear
    factors in x alone or in y alone, and curves with a planted singular
    point (h minus its tangent plane at a random point)."""
    rng = random.Random(2021)
    x, y = BPoly.x(), BPoly.y()

    def sparse(d):
        terms = {(i, j): rng.randint(-3, 3) for i in range(d + 1) for j in range(d + 1 - i)
                 if rng.random() < 0.35}
        i = rng.randint(0, d)
        terms[i, d - i] = rng.choice([-2, -1, 1, 2])
        return BPoly(terms)

    def in_one_variable(d):
        t = rng.choice([x, y])
        f = BPoly({(0, 0): rng.choice([1, -1, 2])})
        for _ in range(d):
            f = f * (t - rng.randint(-2, 2))
        return f

    def planted(d):
        h = sparse(d)
        a, b = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2)
        return (h - h.eval(a, b) - h.partial_x().eval(a, b) * (x - a)
                - h.partial_y().eval(a, b) * (y - b))

    out = []
    for n in range(count):
        kind = n % 4
        if kind == 0:
            out.append(sparse(rng.randint(1, 5)))
        elif kind == 1:
            low = rng.randint(1, 2)
            out.append(sparse(low) * sparse(rng.randint(1, 5 - low)))
        elif kind == 2:
            out.append(in_one_variable(rng.randint(1, 5)))
        else:
            out.append(planted(rng.randint(2, 5)))
    return out


def test_random_curve_reports_are_pinned():
    """320 seeded curves: their joined reports hash to the digest recorded
    when the dynamic-evaluation gcd still ran on coefficient lists, and the
    draw reaches every verdict a smooth-enough draw can."""
    reports = [smoothness_report(f) for f in _random_curves(320)]
    text = "\n".join(f"{rep.smooth} {rep.detail}" for rep in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1f8ff9b6d2ab0e56ad01ee6b9cd80d6e3a309861f45c67e3396515254a3b1101")
    details = {rep.detail for rep in reports}
    for start in ("affine singular point", "singular point at infinity along slope",
                  "singular point at infinity [0:1:0]", "repeated linear component",
                  "repeated factor (y-", "repeated factor (x-", "no singular points"):
        assert any(d.startswith(start) for d in details), start


def test_not_smooth_raised_on_construction():
    with pytest.raises(NotSmooth):
        Curve(BPoly({(0, 2): 1, (3, 0): -1}))
    Curve(BPoly({(0, 2): 1, (3, 0): -1}), assume_smooth=True)  # waived


def test_section_roots_cubic_at_zero(cubic):
    ctx = TowerContext()
    pts = cubic.section_roots(0, ctx)
    assert len(pts) == 3
    reals = [p for p in pts if abs(p.y.approximate(8).imag) < 1e-7]
    assert len(reals) == 1
    assert abs(reals[0].y.approximate(8).real - mp.mpf("0.45339765")) < 1e-6


def test_section_roots_cubic_at_one(cubic):
    ctx = TowerContext()
    pts = cubic.section_roots(1, ctx)
    assert len(pts) == 3
    for p in pts:
        assert (p.y ** 3).is_zero() is False
        assert (p.y ** 3 - 3).is_zero()  # ordinates are the cube roots of 3


def test_section_roots_reuse_context(cubic):
    ctx = TowerContext()
    pts = cubic.section_roots(0, ctx)
    again = cubic.section_roots(0, ctx)
    assert len(ctx) == 3
    for a, b in zip(pts, again):
        assert a.y == b.y


def test_a_section_is_built_once_per_context(cubic, quartic):
    ctx = TowerContext()
    pts = cubic.section_roots(0, ctx)
    again = cubic.section_roots(Fraction(0), ctx)
    assert all(a is b for a, b in zip(pts, again)) and len(again) == 3
    assert cubic.section(0, ctx).poly == cubic.section_poly(0)
    # another curve over the same abscissa has its own section
    assert not set(map(id, quartic.section_roots(0, ctx))) & set(map(id, pts))
    fresh = cubic.section_roots(0, TowerContext())
    assert not any(a is b for a, b in zip(pts, fresh))


def test_section_points_are_on_the_curve_and_keep_their_f_y(cubic, quartic):
    # section points skip the membership check, so it is proved here
    ctx = TowerContext()
    for curve in (cubic, quartic):
        for x in (0, Fraction(1, 2), -3):
            for p in curve.section_roots(x, ctx):
                assert eval_bpoly(curve.f, p.x, p.y).is_zero()
                fy = curve.fy_at(p)
                assert fy is curve.fy_at(p)
                assert fy == eval_bpoly(curve.fy, p.x, p.y)
    # a point built by hand is still checked
    good, wrong = cubic.section_roots(0, ctx)[0], cubic.section_roots(1, ctx)[0]
    assert Point(cubic, 0, good.y).curve is cubic
    with pytest.raises(PointNotOnCurve):
        Point(cubic, 0, wrong.y)
    # f_y of another curve's point is evaluated, not read from the point
    q = quartic.section_roots(0, ctx)[0]
    assert cubic.fy_at(q) == eval_bpoly(cubic.fy, q.x, q.y)
    assert quartic.fy_at(q) == eval_bpoly(quartic.fy, q.x, q.y)


def test_a_third_kind_request_evaluates_each_section_polynomial_once(monkeypatch):
    # section polynomials are kept per process: the first request takes
    # each of its two, and an identical second request takes none
    calls = []
    real = BPoly.subs_x

    def subs_x(self, x0):
        calls.append(x0)
        return real(self, x0)
    monkeypatch.setattr(BPoly, "subs_x", subs_x)
    curves._section_polys.cache_clear()
    for taken in ([Fraction(1, 2), 2], []):
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["third-kind", "-f", "x^4+y^4-1", "--x1=1/2", "--x2=2",
                             "--digits", "30", "--json"])
        assert code == 0
        assert sorted(calls) == taken


def test_tangent_abscissa_rejected(circle):
    ctx = TowerContext()
    with pytest.raises(MultipleRoots, match="^section at x = 1 has a multiple root$"):
        circle.section_roots(1, ctx)
    assert len(ctx) == 0


def test_section_roots_leave_square_freeness_to_the_isolation(monkeypatch):
    curve = Curve(BPoly(CIRCLE_TERMS))

    def no_gcd(p):
        raise AssertionError("section_roots ran a square-free test")
    monkeypatch.setattr(curves, "is_squarefree", no_gcd)
    assert len(curve.section_roots(0, TowerContext())) == 2
    with pytest.raises(MultipleRoots, match="^section at x = -1 has a multiple root$"):
        curve.section_roots(-1, TowerContext())


def test_degree_drop_detected():
    # leading y-coefficient vanishes at x = 0
    f = BPoly({(1, 2): 1, (0, 1): 1, (0, 0): -1, (2, 0): 1})
    curve = Curve(f, assume_smooth=True)
    with pytest.raises(DegreeDrop):
        curve.section_roots(0, TowerContext())


def test_section_power_sums_match_numeric(cubic):
    ctx = TowerContext()
    pts = cubic.section_roots(Fraction(1, 2), ctx)
    s = cubic.section_poly(Fraction(1, 2))
    exact = power_sums(s, 5)
    with mp.workdps(80):
        vals = [p.y.approximate(60) for p in pts]
        for k in range(5):
            num = mp.fsum(v ** k for v in vals)
            target = mp.mpf(exact[k].numerator) / exact[k].denominator
            assert abs(num - target) < mp.mpf(10) ** -30


def test_point_validation(cubic):
    ctx = TowerContext()
    good = cubic.section_roots(0, ctx)[0]
    assert Point(cubic, 0, good.y)
    wrong = cubic.section_roots(1, ctx)[0]
    with pytest.raises(PointNotOnCurve):
        Point(cubic, 0, wrong.y)


def test_irrational_abscissa_rejected(cubic):
    ctx = TowerContext()
    with pytest.raises(IrrationalAbscissaUnsupported):
        cubic.section_roots(0.5, ctx)


def test_local_series_vertical_tangent():
    circle = Curve(BPoly(CIRCLE_TERMS))
    pt = Point(circle, 1, TowerContext().constant(0))
    with pytest.raises(VerticalTangent):
        circle.local_series(pt)


def test_fy_at_circle(circle):
    ctx = TowerContext()
    p = circle.section_roots(0, ctx)[1]  # (0, 1)
    assert (circle.fy_at(p) - 2).is_zero()


def test_fy_at_cubic_cube_root(cubic):
    ctx = TowerContext()
    pts = cubic.section_roots(1, ctx)
    real = [p for p in pts if abs(p.y.approximate(8).imag) < 1e-7][0]
    # f_y = -3y^2 + 2x - 2, so at (1, cbrt(3)) it is -3 * 3^(2/3)
    expected = -3 * real.y * real.y
    assert (cubic.fy_at(real) - expected).is_zero()


def test_fy_at_cubic_section_zero_nonzero(cubic):
    ctx = TowerContext()
    p = cubic.section_roots(0, ctx)[0]
    v = cubic.fy_at(p)
    assert (v - (-3 * p.y * p.y - 2)).is_zero()
    assert not v.is_zero()
