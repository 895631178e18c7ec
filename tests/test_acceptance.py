"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured evidence when it holds."""

import random
import time
from fractions import Fraction

import mpmath as mp
import pytest

from abeldiff import cli
from abeldiff.curves import Curve
from abeldiff.differentials import (eval_u, haupt_solve,
                                    residue_certificates,
                                    third_kind, third_kind_system_naive,
                                    unit_circle_pullback,
                                    vandermonde_equivalence)
from abeldiff.errors import (AbeldiffError, MultipleRoots, PointNotOnCurve,
                             SameAbscissa, exit_code_for)
from abeldiff.linsolve import ff_solve, rank
from abeldiff.polys import BPoly, UPoly, is_squarefree, power_sums
from abeldiff.towers import TowerContext
from tests.conftest import (CIRCLE_TERMS, CUBIC_TERMS, QUARTIC_TERMS,
                            pole_factor)


def test_criterion_1_cubic_end_to_end():
    t0 = time.perf_counter()
    curve = Curve(BPoly(CUBIC_TERMS))
    ctx = TowerContext()
    p1 = curve.section_roots(0, ctx)[0]
    p2 = curve.section_roots(1, ctx)[0]
    diff = third_kind(curve, p1, p2)  # solve + mandatory residue verification
    naive = third_kind_system_naive(diff)
    assert naive.shape == (6, 6)
    assert all(isinstance(v, Fraction) for row in diff.system.matrix for v in row)
    certs = residue_certificates(diff)
    assert all(c["ok"] for c in certs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nPASS criterion 1: 6x6 naive system, rational symmetrized matrix, "
          f"construction+solve+verification in {elapsed:.2f}s < 5s")


def _random_cubic_fixtures(count: int):
    rng = random.Random(20260808)
    found = []
    attempts = 0
    while len(found) < count and attempts < 500:
        attempts += 1
        terms = {}
        for i in range(4):
            for j in range(4 - i):
                c = rng.randint(-3, 3)
                if c:
                    terms[(i, j)] = c
        terms[(0, 3)] = rng.choice([-2, -1, 1, 2])
        f = BPoly(terms)
        if f.total_degree != 3:
            continue
        try:
            curve = Curve(f)
        except (AbeldiffError, ValueError):
            continue
        x1 = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        x2 = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if x1 == x2:
            continue
        s1, s2 = curve.section_poly(x1), curve.section_poly(x2)
        if s1.degree != 3 or s2.degree != 3:
            continue
        if not (is_squarefree(s1) and is_squarefree(s2)):
            continue
        found.append((curve, x1, x2, rng.randrange(3), rng.randrange(3)))
    return found


def test_criterion_2_residue_certification_randomized():
    fixtures = _random_cubic_fixtures(10)
    assert len(fixtures) == 10
    # the running example first
    curve = Curve(BPoly(CUBIC_TERMS))
    fixtures.insert(0, (curve, Fraction(0), Fraction(1), 0, 0))
    for curve, x1, x2, r1, r2 in fixtures:
        ctx = TowerContext()
        p1 = curve.section_roots(x1, ctx)[r1]
        p2 = curve.section_roots(x2, ctx)[r2]
        diff = third_kind(curve, p1, p2)  # raises on any residue mismatch
        certs = residue_certificates(diff)
        assert all(c["ok"] for c in certs)
        expected = sorted(c["expected"] for c in certs[:-1])
        assert expected == [-1, 0, 0, 0, 0, 1]
    print(f"\nPASS criterion 2: exact residues (+1, -1, four zeros; simple "
          f"poles only) on the fixture cubic and {len(fixtures) - 1} "
          f"randomized smooth cubics")


def test_criterion_3_vandermonde_equivalence(cubic_diff, circle_diff):
    for d in (cubic_diff, circle_diff):
        assert vandermonde_equivalence(d)
    print("\nPASS criterion 3: V x (per-point system) == symmetrized system, "
          "entrywise exact, on cubic and conic fixtures")


def test_criterion_4_genus_and_nullspace(cubic, circle, quartic,
                                         cubic_diff, circle_diff):
    assert circle.genus() == 0 and cubic.genus() == 1 and quartic.genus() == 3
    assert cubic_diff.parameter_count == 1
    assert circle_diff.parameter_count == 0
    # nullspace == embedded monomial space of degree <= r-3
    sym = cubic_diff.system
    sol = ff_solve(sym.matrix, sym.rhs)
    pf = pole_factor(cubic_diff.pole1.x, cubic_diff.pole2.x)
    embedded = [tuple((m * pf).terms.get(mono, Fraction(0))
                      for mono in sym.monomials)
                for m in cubic_diff.first_kind_numerators]
    assert rank(list(sol.nullspace)) == rank(embedded) == \
        rank(list(sol.nullspace) + embedded) == 1
    print("\nPASS criterion 4: genus 0/1/3 for degree 2/3/4; nullspace "
          "dimension equals genus (conic 0, cubic 1) and spans the embedded "
          "degree <= r-3 monomial space")


def test_criterion_5_power_sums():
    assert power_sums(UPoly([-1, 2, 0, 1]), 4) == [3, 0, -4, 3]
    assert power_sums(UPoly([-3, 0, 0, 1]), 4) == [3, 0, 0, 9]
    rng = random.Random(555)
    done = 0
    while done < 20:
        deg = rng.randint(2, 6)
        p = UPoly([rng.randint(-6, 6) for _ in range(deg)] + [rng.randint(1, 5)])
        if p.degree != deg or not is_squarefree(p):
            continue
        exact = power_sums(p, deg + 2)
        with mp.workdps(80):
            roots = mp.polyroots(list(reversed(p.to_int_coeffs()[0])),
                                 maxsteps=200, extraprec=200)
            for k, pk in enumerate(exact):
                num = mp.fsum(r ** k for r in roots)
                assert abs(num - mp.mpf(pk.numerator) / pk.denominator) \
                    < mp.mpf(10) ** -30
        done += 1
    print("\nPASS criterion 5: Newton-identity power sums [3,0,-4,3] and "
          "[3,0,0,9] exact; 20 random square-free polynomials agree with "
          "numeric root sums within 1e-30")


def test_criterion_6_genus_zero_closed_form(circle_diff):
    out = unit_circle_pullback(circle_diff)
    assert out["ok"] and out["poles_distinct"] and out["identity"]
    print("\nPASS criterion 6: pullback through the rational parametrization "
          "equals 1/(t-t1) - 1/(t-t2) exactly: two simple finite poles, "
          "residues +1 and -1")


def test_criterion_7_fundamental_function(cubic):
    ctx = TowerContext()
    p1 = cubic.section_roots(0, ctx)[0]
    p2 = cubic.section_roots(1, ctx)[0]
    a1 = cubic.section_roots(2, ctx)[0]
    pp = cubic.section_roots(3, ctx)[0]
    diff = third_kind(cubic, p1, p2)
    result = haupt_solve(diff, pp, [a1])
    # a quotient of genuine tower elements
    assert result.value.numerator.terms and result.value.denominator.terms
    assert eval_u(diff, a1, result.parameters).is_zero()
    v50 = result.value.approximate(50)
    v100 = result.value.approximate(100)
    with mp.workdps(130):
        assert abs(mp.mpc(v50) - mp.mpc(v100)) < 2 * mp.mpf(10) ** -50
    print("\nPASS criterion 7: fundamental-function value is a quotient of tower elements; "
          "u vanishes exactly at (2, b1); 50- and 100-digit approximations "
          "agree to 50 digits")


def test_criterion_8_error_paths(capsys):
    code_tangent = cli.main(["third-kind", "-f", "x^2+y^2-1",
                             "--x1", "0", "--x2", "1", "--json"])
    code_same = cli.main(["third-kind", "-f", "x^2+y^2-1",
                          "--x1", "0", "--x2", "0", "--json"])
    capsys.readouterr()
    assert code_tangent == MultipleRoots.exit_code
    assert code_same == SameAbscissa.exit_code
    # off-curve points cannot be expressed through the CLI's root-index
    # interface; the error and its distinct exit code are exercised at the
    # API boundary
    from abeldiff.curves import Point
    circle = Curve(BPoly(CIRCLE_TERMS))
    ctx = TowerContext()
    with pytest.raises(PointNotOnCurve) as exc:
        Point(circle, 0, ctx.constant(Fraction(1, 2)))
    code_off = exit_code_for(exc.value)
    assert len({code_tangent, code_same, code_off}) == 3
    print(f"\nPASS criterion 8: MultipleRoots={code_tangent}, "
          f"SameAbscissa={code_same}, PointNotOnCurve={code_off} — "
          "distinct exit codes")
