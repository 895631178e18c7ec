import dataclasses
import random
from fractions import Fraction

import pytest

from abeldiff import differentials, linsolve
from abeldiff.curves import Curve, Point
from abeldiff.differentials import (eval_u, first_kind_basis, haupt_solve,
                                    monomials_upto, residue_at,
                                    residue_certificates, residue_oracle,
                                    third_kind,
                                    third_kind_system_naive,
                                    unit_circle_pullback,
                                    vandermonde_equivalence,
                                    _solve_tower)
from abeldiff.errors import (DegeneratePoints, DegreeDrop, EvaluationAtPole,
                             Inconsistent, MultipleRoots, SameAbscissa,
                             VerificationFailed)
from abeldiff.linsolve import rank
from abeldiff.parser import parse_poly
from abeldiff.polys import BPoly, UPoly, is_squarefree, power_sums, powers
from abeldiff.towers import TowerContext, TowerElement, adjoin, eval_bpoly
from tests.conftest import (CIRCLE_TERMS, CUBIC_TERMS, QUARTIC_TERMS,
                            pole_factor)
from tests.test_cli import DENSE_QUARTIC
from tests.test_curves import _dense


def test_first_kind_basis_cubic(cubic):
    assert first_kind_basis(cubic) == [BPoly.const(1)]


def test_first_kind_basis_conic(circle):
    assert len(first_kind_basis(circle)) == 0


def test_first_kind_basis_quartic(quartic):
    assert [m.terms for m in first_kind_basis(quartic)] == [
        {(0, 0): Fraction(1)}, {(1, 0): Fraction(1)}, {(0, 1): Fraction(1)}]


@pytest.mark.parametrize("r", range(2, 9))
def test_first_kind_basis_size_is_the_genus(r):
    curve = Curve(BPoly({(r, 0): 1, (0, r): 1, (0, 0): -1}))
    assert len(first_kind_basis(curve)) == curve.genus() == (r - 1) * (r - 2) // 2


def test_naive_system_cubic_six_by_six(cubic_diff):
    sys = third_kind_system_naive(cubic_diff)
    assert sys.shape == (6, 6)
    assert sys.labels == [f"c{k}" for k in range(6)]
    # row 3*(i-1) + k is the condition at root k over pole abscissa i: the
    # residue normalization at the pole, a vanishing condition elsewhere
    points = cubic_diff.section1 + cubic_diff.section2
    residue = [k for k, pt in enumerate(points)
               if pt is cubic_diff.pole1 or pt is cubic_diff.pole2]
    vanish = [k for k in range(6) if k not in residue]
    assert len(vanish) == 4 and len(residue) == 2
    assert [k // 3 for k in residue] == [0, 1]
    assert all(sys.rhs[k].is_zero() for k in vanish)
    assert not any(sys.rhs[k].is_zero() for k in residue)


@pytest.mark.parametrize("terms, x1, x2", [
    (CIRCLE_TERMS, 0, Fraction(1, 2)),
    (CUBIC_TERMS, 0, 1),
    (QUARTIC_TERMS, 2, Fraction(-3, 5)),
    ({(7, 0): 1, (0, 7): 1, (1, 0): -1, (0, 0): -1}, 0, 2),
])
def test_naive_rows_match_monomial_evaluation(terms, x1, x2):
    # the rows come from one chain of powers per point; each entry keeps the
    # terms and term order of evaluating its monomial on its own
    curve = Curve(BPoly(terms))
    ctx = TowerContext()
    sections = {1: curve.section_roots(x1, ctx), 2: curve.section_roots(x2, ctx)}
    sys = third_kind_system_naive(third_kind(curve, sections[1][0], sections[2][-1]))
    assert len(sys.matrix) == 2 * curve.r
    for k, row in enumerate(sys.matrix):
        pt = sections[k // curve.r + 1][k % curve.r]
        for entry, m in zip(row, sys.monomials):
            expected = eval_bpoly(BPoly({m: 1}), pt.x, pt.y)
            assert list(entry.terms.items()) == list(expected.terms.items())


def test_naive_system_conic_shape(circle_diff):
    sys = third_kind_system_naive(circle_diff)
    assert sys.shape == (4, 3)


def test_sym_system_matrix_is_rational(cubic_diff):
    sys = cubic_diff.system
    assert sys.shape == (6, 6)
    assert all(isinstance(v, Fraction) for row in sys.matrix for v in row)
    # right-hand sides live in the single-generator subrings of the poles
    for rhs in sys.rhs:
        assert len(rhs.present_generators()) <= 1


def test_sym_system_rank_cubic(cubic_diff):
    assert cubic_diff.rank == 5
    assert cubic_diff.parameter_count == 1


def test_sym_system_rank_conic(circle_diff):
    assert circle_diff.rank == 3
    assert circle_diff.parameter_count == 0


def test_poles_given_by_rational_ordinates_are_located_exactly(circle):
    # (0, 1) and (3/5, 4/5) built by hand are not section points; each is
    # found as the section's root 1 by an exact comparison of ordinates
    ctx = TowerContext()
    d = third_kind(circle, Point(circle, 0, ctx.constant(1)),
                   Point(circle, Fraction(3, 5), ctx.constant(Fraction(4, 5))))
    assert d.pole1 is d.section1[1] and d.pole2 is d.section2[1]
    direct = third_kind(circle, d.section1[1], d.section2[1]).base_numerator
    assert d.base_numerator.terms.keys() == direct.terms.keys()
    assert all((c - direct.terms[m]).is_zero() for m, c in d.base_numerator.terms.items())


def test_tangent_section_rejected(circle, circle_setup):
    ctx, p1, _ = circle_setup
    with pytest.raises(MultipleRoots):
        bad = circle.section_roots(1, TowerContext())


def test_same_abscissa_rejected(cubic):
    ctx = TowerContext()
    pts = cubic.section_roots(0, ctx)
    with pytest.raises(SameAbscissa):
        third_kind(cubic, pts[0], pts[1])


@pytest.mark.xfail(strict=True, raises=DegreeDrop, reason=(
    "ROADMAP item 18: y^2 - x^3 - x - 1 passes through [0:1:0], so every "
    "section has degree 2 < 3"))
def test_third_kind_on_a_weierstrass_cubic_is_the_elliptic_one():
    # on y^2 = g(x), g cubic, 1/2 [(y + eta1)/(x - x1) - (y + eta2)/(x - x2)] dx/y
    # has residues +1 at p1 and -1 at p2; its numerator over
    # (x - x1)(x2 - x) f_y is E0 = (x2 - x1) y + (eta2 - eta1) x
    # + (eta1 x2 - eta2 x1), so the constructed E is E0 plus a first-kind
    # term kappa (x - x1)(x2 - x) with kappa rational
    curve = Curve(parse_poly("y^2-x^3-x-1"))
    x1, x2 = Fraction(0), Fraction(1, 3)
    ctx = TowerContext()
    diff = third_kind(curve, curve.section_roots(x1, ctx)[0],
                      curve.section_roots(x2, ctx)[0])
    eta1, eta2 = diff.pole1.y, diff.pole2.y
    oracle = {(0, 1): ctx.constant(x2 - x1), (1, 0): eta2 - eta1,
              (0, 0): eta1 * x2 - eta2 * x1}
    terms = diff.base_numerator.terms
    delta = {m: terms.get(m, ctx.zero) - oracle.get(m, ctx.zero)
             for m in {*terms, *oracle}}
    kappa = -delta.get((2, 0), ctx.zero)
    assert not any(kappa.terms)    # no generator term: kappa is rational
    factor = pole_factor(x1, x2).terms
    assert all((d - kappa * factor.get(m, 0)).is_zero() for m, d in delta.items())


def test_vandermonde_equivalence_cubic(cubic_diff):
    assert vandermonde_equivalence(cubic_diff)


def test_vandermonde_equivalence_conic(circle_diff):
    assert vandermonde_equivalence(circle_diff)


def _perturbed(system, row, col):
    """A copy of system with 1 added to one entry, or to one right-hand side
    when col is None."""
    matrix, rhs = [list(r) for r in system.matrix], list(system.rhs)
    if col is None:
        rhs[row] = rhs[row] + 1
    else:
        matrix[row][col] = matrix[row][col] + 1
    return dataclasses.replace(system, matrix=matrix, rhs=rhs)


def _positions(system, i, rng=None):
    """(row, col) of every entry and right-hand side (col None) in the rows
    of pole abscissa i, or three of each kind drawn with rng."""
    r = len(system.matrix) // 2      # block i - 1 holds rows of pole abscissa i
    rows = range((i - 1) * r, i * r)
    entries = [(k, c) for k in rows for c in range(len(system.monomials))]
    sides = [(k, None) for k in rows]
    if rng is not None:
        entries, sides = rng.sample(entries, 3), rng.sample(sides, 3)
    return entries + sides


def test_vandermonde_equivalence_fails_closed(circle_diff, cubic_diff, quartic,
                                              monkeypatch):
    # a perturbed symmetrized entry or right-hand side over either pole
    # abscissa, a wrong power sum, a section with one ordinate swapped for
    # another root, and a section in another order are each found
    ctx = TowerContext()
    quartic_diff = third_kind(quartic, quartic.section_roots(2, ctx)[0],
                              quartic.section_roots(3, ctx)[0])
    rng = random.Random(26)
    diffs = ((circle_diff, None), (cubic_diff, None), (quartic_diff, rng))
    for diff, sample in diffs:
        assert vandermonde_equivalence(diff)
        for i in (1, 2):
            for row, col in _positions(diff.system, i, sample):
                bad = dataclasses.replace(diff, system=_perturbed(diff.system, row, col))
                assert not vandermonde_equivalence(bad)
        for name, pole in (("section1", diff.pole1), ("section2", diff.pole2)):
            sec = getattr(diff, name)
            for j in range(len(sec)):
                swapped = [*sec[:j], sec[(j + 1) % len(sec)], *sec[j + 1:]]
                assert not vandermonde_equivalence(
                    dataclasses.replace(diff, **{name: swapped}))
            # the same ordinates, but no section point is the pole, so no
            # per-point row carries the residue condition
            copied = [Point(diff.curve, pt.x, pt.y) if pt is pole else pt for pt in sec]
            assert not vandermonde_equivalence(
                dataclasses.replace(diff, **{name: copied}))
            # the same points in another order: the power sums still hold,
            # but the ordinates are no longer root ids 0 .. r - 1 in order
            permuted = [*sec[1:], sec[0]]
            assert not vandermonde_equivalence(
                dataclasses.replace(diff, **{name: permuted}))
    real_power_sums = differentials.power_sums
    for diff, _ in diffs:
        for m in range(2 * diff.curve.r - 1):
            def one_off(poly, count, m=m):
                ps = real_power_sums(poly, count)
                return [*ps[:m], ps[m] + 1, *ps[m + 1:]]
            # p_m read by the check alone, then by the system as well: the
            # entries find the first, Newton's identities in Q the second
            with monkeypatch.context() as patch:
                patch.setattr(differentials, "power_sums", one_off)
                assert not vandermonde_equivalence(diff)
                rebuilt = differentials._symmetrized_system(diff.curve, diff.pole1,
                                                            diff.pole2)
                assert not vandermonde_equivalence(
                    dataclasses.replace(diff, system=rebuilt))


def test_vandermonde_equivalence_rejects_a_system_of_another_shape(cubic_diff):
    # the blocks are read by position, so a row too many or too few is no
    # pair of r-row blocks
    sym = cubic_diff.system
    n = len(sym.matrix)
    for keep in (range(n - 1), [*range(n), 0]):
        other = dataclasses.replace(
            sym, matrix=[sym.matrix[k] for k in keep], rhs=[sym.rhs[k] for k in keep])
        assert not vandermonde_equivalence(dataclasses.replace(cubic_diff, system=other))


def _vandermonde(values: list) -> list[list]:
    """The square matrix whose row k holds values**k, k = 0 .. n-1."""
    rows, current = [], [1] * len(values)
    for _ in values:
        rows.append(current)
        current = [c * v for c, v in zip(current, values)]
    return rows


def _multiplied_out(diff) -> bool:
    """The Vandermonde check multiplied out, as a reference: V_i times
    per-point block i equals symmetrized block i, entry by entry, right-hand
    sides included, for both pole abscissas."""
    naive, sym, r = third_kind_system_naive(diff), diff.system, diff.curve.r
    if naive.shape != sym.shape:
        return False
    for i, sec in enumerate((diff.section1, diff.section2)):
        block = slice(i * r, (i + 1) * r)
        point_rows = [[*row, rv] for row, rv in zip(naive.matrix[block], naive.rhs[block])]
        sym_rows = [[*row, rv] for row, rv in zip(sym.matrix[block], sym.rhs[block])]
        v = _vandermonde([pt.y for pt in sec])
        for k in range(r):
            for c, expected in enumerate(sym_rows[k]):
                acc = sum((v[k][j] * point_rows[j][c] for j in range(r)), diff.ctx.zero)
                if not (acc - expected).is_zero():
                    return False
    return True


def _power_sums_hold(diff) -> bool:
    """The conclusion of Newton's theorem, re-derived in the tower as a
    reference: sum_j eta_j^m = p_m for m = 0 .. 2r - 2 over both sections,
    one is_zero each on one chain of powers per section root."""
    r, ctx = diff.curve.r, diff.ctx
    for sec, pole in ((diff.section1, diff.pole1), (diff.section2, diff.pole2)):
        ps = power_sums(diff.curve.section(pole.x, ctx).poly, 2 * r - 1)
        chains = [powers(pt.y, 2 * r - 1, ctx.one) for pt in sec]
        if not all((sum((c[m] for c in chains), ctx.zero) - ps[m]).is_zero()
                   for m in range(2 * r - 1)):
            return False
    return True


@pytest.mark.parametrize("text, pairs", [
    ("x^2+y^2-1", [(0, Fraction(1, 2)), (Fraction(1, 3), Fraction(-2, 3))]),
    ("x^3-y^3+2*x*y+x-2*y+1", [(0, 1), (2, Fraction(-1, 2)), (Fraction(1, 3), 3)]),
    ("x^4+y^4-1", [(Fraction(1, 2), Fraction(-2, 3)), (2, 3)]),
    ("x^5+y^5-1", [(Fraction(1, 2), Fraction(1, 3)), (0, 2)]),
    ("x^6+y^6-1", [(Fraction(1, 2), Fraction(1, 3)), (2, Fraction(-1, 3))]),
    ("x^7+y^7-x-1", [(0, 2), (Fraction(1, 2), Fraction(-2, 3))]),
    (DENSE_QUARTIC, [(Fraction(1, 3), Fraction(5, 2)), (2, 3)]),
])
def test_vandermonde_equivalence_agrees_with_the_multiplied_out_product(
        text, pairs, monkeypatch):
    # on the true systems the check makes no zero test that the syntactic
    # stage cannot decide, and the power-sum identities it no longer
    # re-derives hold
    curve = Curve(parse_poly(text))
    rng = random.Random(36)
    real_is_zero, undecided = TowerElement.is_zero, []

    def is_zero(element):
        if any(element.terms):    # a generator term
            undecided.append(element)
        return real_is_zero(element)
    for x1, x2 in pairs:
        ctx = TowerContext()
        sec1, sec2 = curve.section_roots(x1, ctx), curve.section_roots(x2, ctx)
        diff = third_kind(curve, rng.choice(sec1), rng.choice(sec2))
        undecided.clear()
        with monkeypatch.context() as m:
            m.setattr(TowerElement, "is_zero", is_zero)
            assert vandermonde_equivalence(diff)
        assert not undecided
        assert _power_sums_hold(diff) and _multiplied_out(diff)
        row = rng.randrange(len(diff.system.matrix))
        for col in (rng.randrange(len(diff.system.monomials)), None):
            bad = dataclasses.replace(diff, system=_perturbed(diff.system, row, col))
            assert not vandermonde_equivalence(bad) and not _multiplied_out(bad)


def test_nullspace_is_embedded_first_kind_space(cubic, cubic_diff):
    from abeldiff.linsolve import ff_solve
    sys = cubic_diff.system
    sol = ff_solve(sys.matrix, sys.rhs)
    assert len(sol.nullspace) == cubic.genus() == 1
    monos = sys.monomials
    pf = BPoly({(1, 0): 1, (0, 0): 0}) * BPoly({(0, 0): 1, (1, 0): -1})
    embedded = tuple(pf.terms.get(m, Fraction(0)) for m in monos)
    assert rank(list(sol.nullspace)) == rank([embedded]) == \
        rank(list(sol.nullspace) + [embedded]) == 1


def test_residues_cubic(cubic_diff):
    certs = residue_certificates(cubic_diff)
    assert all(c["ok"] for c in certs)
    expected = sorted(c["expected"] for c in certs[:-1])
    assert expected == [-1, 0, 0, 0, 0, 1]
    assert cubic_diff.certificates == certs   # third_kind keeps what it checked


def test_residues_conic(circle_diff):
    assert all(c["ok"] for c in residue_certificates(circle_diff))


def test_residue_oracle_decides_on_residue_at(cubic_diff, monkeypatch):
    # the oracle takes one residue_at per section point over the pole
    # abscissas, each reading f_y through Curve.local_series; a doubled
    # numerator doubles the pole residues, which fails the oracle there and
    # in the sum, and residue_certificates, whose identity fails, alike
    seen, series = [], []
    real_residue, real_series = differentials.residue_at, Curve.local_series

    def residue(diff, pt):
        seen.append(pt)
        return real_residue(diff, pt)

    def local_series(curve, pt):
        series.append(pt)
        return real_series(curve, pt)
    monkeypatch.setattr(differentials, "residue_at", residue)
    monkeypatch.setattr(Curve, "local_series", local_series)
    points = cubic_diff.section1 + cubic_diff.section2
    assert all(c["ok"] for c in residue_oracle(cubic_diff))
    assert len(seen) == len(series) == len(points) == 6
    assert all(a is b is c for a, b, c in zip(seen, series, points))
    doubled = dataclasses.replace(
        cubic_diff, base_numerator=cubic_diff.base_numerator * 2)
    poles = (cubic_diff.pole1, cubic_diff.pole2)
    for certify in (residue_certificates, residue_oracle):
        verdicts = [c["ok"] for c in certify(doubled)]
        assert verdicts == [not any(pt is p for p in poles) for pt in points] + [False]


# the benchmark's ladder of degree 2 to 7, and a dense quartic
AGREEMENT_CURVES = {"circle": "x^2+y^2-1", "cubic": "x^3-y^3+2*x*y+x-2*y+1",
                    "quartic": "x^4+y^4-1", "quintic": "x^5+y^5-1",
                    "sextic": "x^6+y^6-1", "septic": "x^7+y^7-x-1",
                    "dense-quartic": DENSE_QUARTIC}
AGREEMENT_DRAWS = 3


def _agreement_draw(curve: Curve, text: str, k: int) -> tuple:
    """The k-th pole pair (x1, root1, x2, root2) drawn for the curve from its
    own seeded stream: abscissas p/q (|p| <= 9, q <= 4) and root indices; an
    abscissa pair whose sections are not square-free of degree r is drawn
    again."""
    rng = random.Random(f"agreement {text}")
    draws = []
    while len(draws) <= k:
        x1, x2 = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2))
        sections = [curve.section_poly(x) for x in (x1, x2)]
        if x1 == x2 or any(s.degree < curve.r or not is_squarefree(s)
                           for s in sections):
            continue
        draws.append((x1, rng.randrange(curve.r), x2, rng.randrange(curve.r)))
    return draws[k]


@pytest.mark.parametrize("name, k", [
    pytest.param(name, k, id=f"{name}-{k}", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=(
            "ROADMAP item 1a: _pair_conjugates pairs the roots of the section "
            "over x = 9/2 at 53 bits and its assert fires"))
        if (name, k) == ("septic", 0) else ())
    for name in AGREEMENT_CURVES for k in range(AGREEMENT_DRAWS)])
def test_identity_certificates_agree_with_the_residue_oracle(name, k, monkeypatch):
    # verdict for verdict, the identity's certificates are the oracle's on
    # the honest numerator and on four tampered ones: doubled (the poles
    # fail), shifted by x - x1 (every point over x2 fails), plus y^r, and
    # plus x^(2r), above the x-degree of every honest numerator
    text = AGREEMENT_CURVES[name]
    curve = Curve(parse_poly(text))
    x1, i1, x2, i2 = _agreement_draw(curve, text, k)
    ctx = TowerContext()
    diff = third_kind(curve, curve.section_roots(x1, ctx)[i1],
                      curve.section_roots(x2, ctx)[i2])
    r, base = curve.r, diff.base_numerator
    numerators = [base, base * 2, base + BPoly({(1, 0): 1, (0, 0): -x1}),
                  base + BPoly({(0, r): 1}), base + BPoly({(2 * r, 0): 1})]
    verdicts = []
    for numerator in numerators:
        d = dataclasses.replace(diff, base_numerator=numerator)
        certs = residue_certificates(d)
        assert certs == residue_oracle(d)
        verdicts.append([c["ok"] for c in certs])
    assert verdicts[0] == [True] * (2 * r + 1)
    assert verdicts[2] == [True] * r + [False] * (r + 1)
    assert all(not v[-1] for v in verdicts[1:])
    # on the honest numerator no residue is taken at a point: f_y is read
    # at the two poles only
    residues, series = [], []
    real_series = Curve.local_series
    monkeypatch.setattr(differentials, "residue_at",
                        lambda d, pt: residues.append(pt))
    monkeypatch.setattr(Curve, "local_series",
                        lambda curve, pt: series.append(pt) or real_series(curve, pt))
    assert [c["ok"] for c in residue_certificates(diff)] == verdicts[0]
    assert residues == []
    assert len(series) == 2
    assert series[0] is diff.pole1 and series[1] is diff.pole2


def _residue_is(diff, point, value):
    """Whether residue_at(diff, point) equals value, cross-multiplied."""
    r = residue_at(diff, point)
    return (r.numerator - value * r.denominator).is_zero()


def test_residue_values_at_poles(cubic_diff):
    assert _residue_is(cubic_diff, cubic_diff.pole1, 1)
    assert _residue_is(cubic_diff, cubic_diff.pole2, -1)


def test_residue_zero_at_non_pole_points(cubic_diff):
    for pt in cubic_diff.section1:
        if pt is cubic_diff.pole1:
            continue
        assert residue_at(cubic_diff, pt).is_zero()


def test_swapped_poles_negate_residues(cubic, cubic_setup):
    _, p1, p2 = cubic_setup
    swapped = third_kind(cubic, p2, p1)
    assert _residue_is(swapped, swapped.pole1, 1)
    # pole1 of the swapped family is the old pole2
    assert swapped.pole1.x == p2.x
    assert _residue_is(swapped, swapped.pole2, -1)


def test_particular_solution_satisfies_naive_system(cubic_diff):
    naive = third_kind_system_naive(cubic_diff)
    monos = naive.monomials
    coords = [cubic_diff.base_numerator.terms.get(m, Fraction(0)) for m in monos]
    for row, rhs in zip(naive.matrix, naive.rhs):
        acc = cubic_diff.ctx.zero
        for a, c in zip(row, coords):
            acc = acc + a * c
        assert (acc - rhs).is_zero()


def test_nullspace_vector_satisfies_homogeneous_naive(cubic_diff):
    naive = third_kind_system_naive(cubic_diff)
    pf = pole_factor(cubic_diff.pole1.x, cubic_diff.pole2.x)
    for mono in cubic_diff.first_kind_numerators:
        vec = mono * pf
        coords = [vec.terms.get(m, Fraction(0)) for m in naive.monomials]
        for row in naive.matrix:
            acc = cubic_diff.ctx.zero
            for a, c in zip(row, coords):
                if c:
                    acc = acc + a * c
            assert acc.is_zero()


def test_eval_u_zero_numerator(cubic, cubic_setup, cubic_diff):
    empty = dataclasses.replace(cubic_diff, base_numerator=BPoly(),
                                first_kind_numerators=[])
    ctx = TowerContext()
    pt = cubic.section_roots(5, ctx)[0]
    assert eval_u(empty, pt).is_zero()


def test_eval_u_at_pole_abscissa_rejected(cubic_diff):
    with pytest.raises(EvaluationAtPole):
        eval_u(cubic_diff, cubic_diff.pole1)


def test_eval_u_conic_rational_point(circle, circle_diff):
    ctx = circle_diff.ctx
    pt = Point(circle, Fraction(3, 5), ctx.constant(Fraction(4, 5)))
    val = eval_u(circle_diff, pt)
    # independent genus-0 oracle through x=(1-t^2)/(1+t^2), y=2t/(1+t^2):
    # u(x(t0), y(t0)) directly from the defining fraction at t0 = y/(1+x)
    t0 = Fraction(4, 5) / (1 + Fraction(3, 5))
    assert t0 == Fraction(1, 2)
    xt = (1 - t0 ** 2) / (1 + t0 ** 2)
    yt = 2 * t0 / (1 + t0 ** 2)
    assert (xt, yt) == (Fraction(3, 5), Fraction(4, 5))
    num = circle_diff.base_numerator.eval(xt, ctx.constant(yt))
    den = (xt - circle_diff.pole1.x) * (circle_diff.pole2.x - xt) \
        * circle.fy.eval(xt, ctx.constant(yt))
    assert _same(val, num, den)


def test_unit_circle_pullback(circle_diff):
    out = unit_circle_pullback(circle_diff)
    assert out["ok"]
    assert out["poles_distinct"] and out["identity"]


def test_pullback_rejects_other_curves(cubic_diff):
    with pytest.raises(ValueError):
        unit_circle_pullback(cubic_diff)


def test_haupt_cubic(cubic):
    ctx = TowerContext()
    p1 = cubic.section_roots(0, ctx)[0]
    p2 = cubic.section_roots(1, ctx)[0]
    a1 = cubic.section_roots(2, ctx)[0]
    pp = cubic.section_roots(3, ctx)[0]
    diff = third_kind(cubic, p1, p2)
    res = haupt_solve(diff, pp, [a1])
    # the step-2 assignment makes u vanish exactly at the auxiliary pole
    assert eval_u(diff, a1, res.parameters).is_zero()
    assert len(res.parameters) == 1
    assert not res.value.is_zero()


def test_haupt_solve_inverts_only_the_pivots(cubic, monkeypatch):
    # one inversion per pivot (p): the residue oracle inverts nothing, the
    # parameter rows hold no inverse of f_y, and the value is a quotient
    ctx = TowerContext()
    p1, p2, a1, pp = (cubic.section_roots(x, ctx)[0] for x in (0, 1, 2, 3))
    calls = []
    real_invert = TowerElement.invert

    def counted(self):
        calls.append(self)
        return real_invert(self)
    monkeypatch.setattr(TowerElement, "invert", counted)
    haupt_solve(third_kind(cubic, p1, p2), pp, [a1])
    assert len(calls) == cubic.genus() == 1


@pytest.mark.parametrize("terms, abscissas", [
    (CUBIC_TERMS, (0, 1, 3, 2)),
    (QUARTIC_TERMS, (0, 2, 3, 4, 5, 6)),
], ids=["cubic", "quartic"])
def test_haupt_solve_evaluates_the_base_numerator_once_per_point(
        monkeypatch, terms, abscissas):
    # after third_kind returns: E_base once at each auxiliary pole and once
    # at p'; the first-kind values come from monomial rows
    curve = Curve(BPoly(terms))
    ctx = TowerContext()
    p1, p2, pp, *poles = (curve.section_roots(x, ctx)[0] for x in abscissas)
    diff = third_kind(curve, p1, p2)
    evaluated = []
    real_eval = differentials.eval_bpoly

    def counted(poly, x, y):
        evaluated.append(poly)
        return real_eval(poly, x, y)
    monkeypatch.setattr(differentials, "eval_bpoly", counted)
    haupt_solve(diff, pp, poles)
    assert len(evaluated) == curve.genus() + 1
    assert all(poly is diff.base_numerator for poly in evaluated)


def test_parameters_that_miss_an_auxiliary_pole_fail_verification(cubic,
                                                                   monkeypatch):
    # every parameter off by one: E no longer vanishes at the auxiliary pole,
    # and the exact check after the parameter solve says so
    real = differentials._solve_tower
    monkeypatch.setattr(differentials, "_solve_tower",
                        lambda rows, rhs: [c + 1 for c in real(rows, rhs)])
    ctx = TowerContext()
    p1, p2, a1, pp = (cubic.section_roots(x, ctx)[0] for x in (0, 1, 2, 3))
    with pytest.raises(VerificationFailed):
        haupt_solve(third_kind(cubic, p1, p2), pp, [a1])


def _same(value, num, den) -> bool:
    """Does the quotient value equal num / den?  Decided cross-multiplied,
    for nonzero denominators."""
    return (value.numerator * den - num * value.denominator).is_zero()


def _assigned_u(diff, pt, params):
    """Reference for eval_u: the whole assigned numerator
    E_base + sum_k c_k m_k (x - x1)(x2 - x) as one BPoly, evaluated by
    BPoly.eval, and (x - x1)(x2 - x) f_y, its denominator."""
    pf = pole_factor(diff.pole1.x, diff.pole2.x)
    num = diff.base_numerator
    for c, mono in zip(params, diff.first_kind_numerators, strict=True):
        num = num + c * (mono * pf)
    w = (pt.x - diff.pole1.x) * (diff.pole2.x - pt.x)
    return num.eval(pt.x, pt.y), w * diff.curve.fy.eval(pt.x, pt.y)


@pytest.mark.parametrize("text, x1, x2, xp, aux, rational_point", [
    ("x^2+y^2-1", 0, Fraction(1, 2), 3, [], (Fraction(3, 5), Fraction(4, 5))),
    ("x^3-y^3+2*x*y+x-2*y+1", 0, 1, 3, [2], (Fraction(-17, 27), Fraction(1, 27))),
    ("x^4+y^4-1", 2, 3, Fraction(1, 2), [4, 5, 6], (0, 1)),
    (DENSE_QUARTIC, Fraction(1, 3), Fraction(5, 2), 0,
     [Fraction(-2, 3), Fraction(7, 3), 3], (4, 1)),
], ids=["circle", "cubic", "quartic", "dense-quartic"])
def test_eval_u_matches_the_assigned_numerator_evaluated_whole(
        text, x1, x2, xp, aux, rational_point):
    curve = Curve(parse_poly(text))
    ctx = TowerContext()
    p1, p2, pp, *poles = (curve.section_roots(x, ctx)[0] for x in [x1, x2, xp, *aux])
    diff = third_kind(curve, p1, p2)
    res = haupt_solve(diff, pp, poles)
    rng = random.Random(2026)
    rational = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in poles]
    points = curve.section_roots(xp, ctx) + [
        Point(curve, rational_point[0], ctx.constant(rational_point[1]))]
    if aux:
        points += curve.section_roots(aux[0], ctx)
    for params in (rational, res.parameters):
        for pt in points:
            assert _same(eval_u(diff, pt, params), *_assigned_u(diff, pt, params))
    assert _same(res.value, *_assigned_u(diff, pp, res.parameters))


def test_auxiliary_pole_at_vertical_tangent_rejected():
    # the section over x = 0 is (y-1)^2 (y+2), so the point (0, 1) can only
    # be built by hand; f_y = 3y^2 - 3 vanishes there
    curve = Curve(BPoly({(0, 3): 1, (0, 1): -3, (0, 0): 2, (3, 0): -1, (1, 0): 1}))
    ctx = TowerContext()
    p1, p2, pp = (curve.section_roots(x, ctx)[0] for x in (2, 3, 5))
    tangent = Point(curve, 0, ctx.constant(1))
    with pytest.raises(EvaluationAtPole):
        haupt_solve(third_kind(curve, p1, p2), pp, [tangent])


def test_haupt_genus_zero_equals_direct_evaluation(circle, circle_diff):
    ctx = circle_diff.ctx
    pp = Point(circle, Fraction(3, 5), ctx.constant(Fraction(4, 5)))
    res = haupt_solve(circle_diff, pp, [])
    assert res.parameters == []
    direct = eval_u(circle_diff, pp)
    assert _same(res.value, direct.numerator, direct.denominator)


def test_haupt_wrong_pole_count(cubic, cubic_setup, cubic_diff):
    ctx, _, _ = cubic_setup
    pp = cubic.section_roots(3, ctx)[0]
    with pytest.raises(DegeneratePoints):
        haupt_solve(cubic_diff, pp, [])


def test_haupt_duplicate_abscissas_rejected(cubic, cubic_setup, cubic_diff):
    ctx, _, _ = cubic_setup
    pp = cubic.section_roots(3, ctx)[0]
    a_dup = cubic.section_roots(3, ctx)[1]
    with pytest.raises(SameAbscissa):
        haupt_solve(cubic_diff, pp, [a_dup])


def test_solve_tower_singular_raises(cubic_setup):
    ctx, p1, _ = cubic_setup
    zero, one = ctx.zero, ctx.one
    with pytest.raises(DegeneratePoints):
        _solve_tower([[zero, zero], [one, one]], [one, one])


def test_monomials_upto_order():
    assert monomials_upto(2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_first_kind_numerators_have_zero_residue_everywhere(cubic_diff):
    # the embedded first-kind numerators alone give regular differentials:
    # residue 0 at every section point over both pole abscissas
    pf = pole_factor(cubic_diff.pole1.x, cubic_diff.pole2.x)
    for mono in cubic_diff.first_kind_numerators:
        pure = dataclasses.replace(cubic_diff, base_numerator=mono * pf,
                                   first_kind_numerators=[])
        for pt in cubic_diff.section1 + cubic_diff.section2:
            assert residue_at(pure, pt).is_zero()


def test_corrupted_numerator_flagged_with_point(cubic_diff):
    bad = dataclasses.replace(
        cubic_diff, base_numerator=cubic_diff.base_numerator + BPoly.const(1))
    certs = residue_certificates(bad)
    failing = [c for c in certs if not c["ok"]]
    assert failing
    assert any("x=" in c["point"] for c in failing)


@pytest.mark.parametrize("text, x1, x2", [
    ("x^2+y^2-1", 0, Fraction(1, 2)),
    ("x^3-y^3+2*x*y+x-2*y+1", 0, 1),
    ("x^4+y^4-1", 2, 3),
    ("x^5+y^5-1", 2, -3),
    ("x^6+y^6-1", Fraction(-5, 3), Fraction(-5, 2)),
    ("x^7+y^7-x-1", 0, 2),
    (DENSE_QUARTIC, Fraction(1, 3), Fraction(5, 2)),
], ids=["circle", "cubic", "quartic", "quintic", "sextic", "septic", "dense-quartic"])
def test_division_free_verdicts_match_the_residues(text, x1, x2):
    # at every section point over both poles the certificate's verdict is
    # the residue compared with its expected value, both for the base
    # numerator and for one that keeps the residues over x1 only
    curve = Curve(parse_poly(text))
    ctx = TowerContext()
    diff = third_kind(curve, curve.section_roots(x1, ctx)[0],
                      curve.section_roots(x2, ctx)[-1])
    shifted = dataclasses.replace(
        diff, base_numerator=diff.base_numerator + BPoly({(1, 0): 1, (0, 0): -x1}))
    points = diff.section1 + diff.section2
    for d, verdicts in ((diff, [True] * len(points)),
                        (shifted, [True] * curve.r + [False] * curve.r)):
        certs = residue_certificates(d)[:-1]
        assert [c["ok"] for c in certs] == verdicts
        for pt, cert in zip(points, certs):
            assert cert["ok"] == _residue_is(d, pt, cert["expected"])


def test_third_kind_inverts_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr(TowerElement, "invert", lambda self: calls.append(self))
    for text, x1, x2 in (("x^3-y^3+2*x*y+x-2*y+1", 0, 1), ("x^4+y^4-1", 2, 3)):
        curve = Curve(parse_poly(text))
        ctx = TowerContext()
        diff = third_kind(curve, curve.section_roots(x1, ctx)[0],
                          curve.section_roots(x2, ctx)[0])
        residue_certificates(diff)
    assert calls == []


@pytest.mark.parametrize("terms, x1, x2", [
    (CUBIC_TERMS, 0, 1),
    (QUARTIC_TERMS, 2, 3),
    ({(5, 0): 1, (0, 5): 1, (0, 0): -1}, 0, 2),
])
def test_base_numerator_is_the_solution_orthogonal_to_first_kind(terms, x1, x2):
    curve = Curve(BPoly(terms))
    ctx = TowerContext()
    diff = third_kind(curve, curve.section_roots(x1, ctx)[0],
                      curve.section_roots(x2, ctx)[0])
    system = diff.system
    coords = [diff.base_numerator.terms.get(m, ctx.zero) for m in system.monomials]
    for row, rhs in zip(system.matrix, system.rhs):
        acc = ctx.zero
        for a, c in zip(row, coords):
            acc = acc + a * c
        assert (acc - rhs).is_zero()
    pf = pole_factor(diff.pole1.x, diff.pole2.x)
    assert len(diff.first_kind_numerators) == curve.genus()
    for mono in diff.first_kind_numerators:
        embedded = (mono * pf).terms
        dot = ctx.zero
        for m, c in zip(system.monomials, coords):
            dot = dot + embedded.get(m, Fraction(0)) * c
        assert dot.is_zero()
    assert diff.rank == len(system.monomials) - curve.genus()


def test_third_kind_solves_one_block_per_y_degree(monkeypatch):
    # one solve per y-degree b, each the 2 x 2 Gram system of the block's
    # two pole rows; the stacked matrix of all r(r+1)/2 columns is never
    # built, and no first-kind numerator is read to solve
    real, calls = linsolve.ff_solve, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    # linsolve's own module global too, which linsolve.rank calls
    monkeypatch.setattr(linsolve, "ff_solve", counted)
    monkeypatch.setattr(differentials, "ff_solve", counted)
    for terms, x1, x2 in ((CUBIC_TERMS, 0, 1), (QUARTIC_TERMS, 2, 3)):
        curve = Curve(BPoly(terms))
        ctx = TowerContext()
        p1, p2 = curve.section_roots(x1, ctx)[0], curve.section_roots(x2, ctx)[0]
        calls.clear()
        base = third_kind(curve, p1, p2).base_numerator
        assert len(calls) == curve.r
        assert [(len(m), len(m[0])) for m, _ in calls] == [(2, 2)] * curve.r
        with monkeypatch.context() as patched:
            patched.setattr(differentials, "first_kind_basis",
                            lambda curve: [BPoly({(1, 0): 1, (0, 1): 1})])
            assert third_kind(curve, p1, p2).base_numerator == base


def test_a_rank_deficient_block_is_inconsistent(monkeypatch, cubic, cubic_setup):
    # a block of two or more unknowns whose Gram rows coincide determines
    # only one combination of its two pole rows
    _, p1, p2 = cubic_setup
    real = linsolve.ff_solve
    monkeypatch.setattr(differentials, "ff_solve",
                        lambda rows, rhs: real([rows[0], rows[0]], [rhs[0], rhs[0]]))
    with pytest.raises(Inconsistent, match="block has rank 1"):
        third_kind(cubic, p1, p2)


def _stacked_base_numerator(diff):
    """The base numerator from one stacked solve: the symmetrized rows of
    diff.system with the embedded first-kind vectors appended as rows with
    right-hand side 0, in one fraction-free solve of full column rank."""
    system = diff.system
    pf = pole_factor(diff.pole1.x, diff.pole2.x)
    embedded = [[(mono * pf).terms.get(m, Fraction(0)) for m in system.monomials]
                for mono in diff.first_kind_numerators]
    sol = linsolve.ff_solve(system.matrix + embedded,
                            system.rhs + [diff.ctx.zero] * len(embedded))
    assert sol.rank == len(system.monomials)
    return BPoly({m: c for m, c in zip(system.monomials, sol.particular) if c})


def _random_pole_pairs(curves, draws, seed):
    """pytest params (f, x1, x2, i1, i2) for seeded random rational
    abscissas whose sections keep full degree and are square-free, and
    random root indices; curves maps an id to a polynomial."""
    rng = random.Random(seed)
    out = []
    for name, f in curves.items():
        curve = Curve(f)
        for k in range(draws):
            xs = []
            while len(xs) < 2:
                x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                s = curve.section_poly(x)
                if x not in xs and s.degree == curve.r and is_squarefree(s):
                    xs.append(x)
            out.append(pytest.param(f, *xs, rng.randrange(curve.r),
                                    rng.randrange(curve.r), id=f"{name}-{k}"))
    return out


LADDER_CURVES = ("x^2+y^2-1", "x^3-y^3+2*x*y+x-2*y+1", "x^4+y^4-1",
                 "x^5+y^5-1", "x^6+y^6-1", "x^7+y^7-x-1")


@pytest.mark.parametrize("f, x1, x2, i1, i2", [
    *_random_pole_pairs({text: parse_poly(text) for text in LADDER_CURVES}, 2, 20),
    *_random_pole_pairs({f"dense{d}": _dense(d) for d in (3, 4, 5)}, 2, 21),
    *(pytest.param(parse_poly(text), Fraction(1, 2), Fraction(1, 3), 0, 0, id=text)
      for text in ("x^10+y^10-1", "x^12+y^12-1")),
    # r = 1: one block of one unknown, whose two rows coincide
    pytest.param(parse_poly("x+2*y-1"), 3, Fraction(-1, 2), 0, 0, id="line"),
    # x1 = 0: every row [x1^a] but its first entry is zero
    pytest.param(parse_poly("x^5+y^5-1"), 0, 2, 1, 3, id="pole-at-zero"),
])
def test_block_solves_give_the_stacked_solution(f, x1, x2, i1, i2):
    curve = Curve(f)
    ctx = TowerContext()
    diff = third_kind(curve, curve.section_roots(x1, ctx)[i1],
                      curve.section_roots(x2, ctx)[i2])
    assert diff.base_numerator == _stacked_base_numerator(diff)
    # the rank the differential reports is its symmetrized system's
    assert diff.rank == 2 * curve.r - 1 == rank(diff.system.matrix)


def test_third_kind_prepares_its_pole_pair_once(monkeypatch, cubic, cubic_setup):
    _, p1, p2 = cubic_setup
    real, calls = Curve.section_roots, []

    def counted(self, *args):
        calls.append(args[0])
        return real(self, *args)
    monkeypatch.setattr(Curve, "section_roots", counted)
    third_kind(cubic, p1, p2)
    assert calls == [p1.x, p2.x]


# -- direct construction paths against the generic products ---------------


def _stored(e: TowerElement) -> tuple:
    """An element as stored: its numerators in key order, and its
    denominator."""
    return list(e.nums.items()), e.den


def _generic_row(monos, xpows, y):
    """_monomial_row by tower products only: one chain of powers of y,
    each multiplied by the constant element x^a."""
    ypows = powers(y, len(xpows), y.ctx.one)
    return [ypows[b] * y.ctx.constant(xpows[a]) if b else y.ctx.constant(xpows[a])
            for a, b in monos]


def _generic_quotient(curve, pole, scale):
    """_pole_quotient by tower products only."""
    ctx = pole.y.ctx
    s = curve.section(pole.x, ctx).poly.coeffs
    q = [ctx.constant(scale * s[curve.r])]
    for b in range(curve.r - 1, 0, -1):
        q.append(pole.y * q[-1] + ctx.constant(scale * s[b]))
    return q[::-1]


def _assert_rows_agree(monos, xpows, y):
    """_monomial_row gives, entry by entry, the generic products, equal in
    numerators, their order and the denominator, and the values of the
    monomials by eval_bpoly."""
    got = differentials._monomial_row(monos, xpows, y)
    want = _generic_row(monos, xpows, y)
    assert [_stored(e) for e in got] == [_stored(e) for e in want]
    for (a, b), e in zip(monos, got):
        assert e.ctx is y.ctx
        assert e == eval_bpoly(BPoly({(a, b): 1}), xpows[1] if len(xpows) > 1 else 0, y)


LADDER_TEXTS = ["x^2+y^2-1", "x^3-y^3+2*x*y+x-2*y+1", "x^4+y^4-1", "x^5+y^5-1",
                "x^7+y^7-x-1", DENSE_QUARTIC]


@pytest.mark.parametrize("text", LADDER_TEXTS)
def test_monomial_rows_and_pole_quotients_at_section_points_are_the_products(text):
    curve = Curve(parse_poly(text), assume_smooth=True)
    r = curve.r
    ctx = TowerContext()
    for x in (Fraction(1, 3), Fraction(2), Fraction(-5, 2)):
        for pt in curve.section_roots(x, ctx):
            assert differentials.bare_generator(pt.y, r) is not None
            for top in (r - 1, r - 3):   # the per-point rows, the first-kind values
                if top >= 0:
                    _assert_rows_agree(monomials_upto(top), powers(x, top + 1, Fraction(1)),
                                       pt.y)
            for scale in (Fraction(1), Fraction(-7, 3)):
                got = differentials._pole_quotient(curve, pt, scale)
                want = _generic_quotient(curve, pt, scale)
                assert [_stored(q) for q in got] == [_stored(q) for q in want]


def test_monomial_rows_off_the_direct_path_are_the_products():
    # a degree-1 generator is a rational constant, a generator of degree
    # below the row's reach needs its powers reduced, and a hand-built
    # ordinate is no bare generator: each takes the generic path
    ctx, rational = adjoin(TowerContext(), UPoly([-3, 2]), 0)
    ctx, sqrt2 = adjoin(ctx, UPoly([-2, 0, 1]), 1)
    ctx, cube = adjoin(ctx, UPoly([-5, 0, 0, 1]), 0)
    assert rational == Fraction(3, 2)
    monos = monomials_upto(4)
    for x in (Fraction(0), Fraction(-5, 2)):
        xpows = powers(x, 5, Fraction(1))
        for y in (rational, sqrt2, cube, 2 * cube - 1, sqrt2 * cube):
            assert differentials.bare_generator(y, 5) is None
            _assert_rows_agree(monos, xpows, y)
    # a direct path needs every power below the generator's degree
    with pytest.raises(ValueError):
        ctx.monomial(1, 2, Fraction(1))
    with pytest.raises(ValueError):
        (sqrt2 + 1).times_generator(1)


def _identity_in_the_ring(diff, pole) -> bool:
    """_identity_holds by ring sums and is_zero alone."""
    e, zero = diff.base_numerator, diff.ctx.zero
    xpows = powers(pole.x, e.degree_x + 1, Fraction(1))
    sums = dict(enumerate(_generic_quotient(diff.curve, pole,
                                            diff.pole1.x - diff.pole2.x)))
    for (a, b), c in e.terms.items():
        sums[b] = sums.get(b, zero) + (c * diff.ctx.constant(xpows[a]) if a else c)
    return all(v.is_zero() for v in sums.values())


@pytest.mark.parametrize("text", LADDER_TEXTS[:4])
def test_identity_on_integer_numerators_decides_as_the_ring_sums(text, monkeypatch):
    curve = Curve(parse_poly(text), assume_smooth=True)
    r = curve.r
    x1, x2 = {2: (0, Fraction(1, 2)), 3: (0, 1)}.get(r, (Fraction(1, 2), Fraction(1, 3)))
    ctx = TowerContext()
    diff = third_kind(curve, curve.section_roots(x1, ctx)[0],
                      curve.section_roots(x2, ctx)[r - 1])
    base = diff.base_numerator
    fractions = BPoly({m: c.as_fraction() for m, c in base.terms.items()
                       if c.is_rational()})
    numerators = {
        "honest": base, "doubled": base * 2,
        "shifted": base + BPoly({(1, 0): 1, (0, 0): -x1}),
        "plus y^r": base + BPoly({(0, r): Fraction(1, 3)}),
        "plus x^2r": base + BPoly({(2 * r, 0): 1}),
        "rational part": fractions, "one": BPoly.const(1), "zero": BPoly()}
    called = []
    real = differentials.residue_oracle
    monkeypatch.setattr(differentials, "residue_oracle",
                        lambda d: called.append(d) or real(d))
    for name, numerator in numerators.items():
        d = dataclasses.replace(diff, base_numerator=numerator)
        holds = [differentials._identity_holds(d, p) for p in (d.pole1, d.pole2)]
        assert holds == [_identity_in_the_ring(d, p) for p in (d.pole1, d.pole2)], name
        # x - x1 vanishes over x1 only, and x^2r over x1 = 0
        assert holds == {"honest": [True, True], "shifted": [True, False],
                         "plus x^2r": [x1 == 0, False]}.get(name, [False, False]), name
        called.clear()
        assert residue_certificates(d) == real(d)
        assert called == ([] if name == "honest" else [d]), name
    # an honest numerator's sums cancel on the integers: is_zero is never asked
    monkeypatch.setattr(TowerElement, "is_zero",
                        lambda self: pytest.fail("is_zero called"))
    assert differentials._identity_holds(diff, diff.pole1)
    assert differentials._identity_holds(diff, diff.pole2)


def test_a_numerator_that_differs_by_a_zero_element_holds_through_is_zero(
        circle, monkeypatch):
    # (x - x2)(t0 + t1), t0 and t1 the two section generators over x1: over
    # x2 it vanishes syntactically, over x1 it is (x1 - x2)(t0 + t1), which
    # embeds to zero (the roots of y^2 - 3/4 sum to 0) but is no empty sum
    x1, x2 = Fraction(1, 2), Fraction(1, 3)
    ctx = TowerContext()
    diff = third_kind(circle, circle.section_roots(x1, ctx)[0],
                      circle.section_roots(x2, ctx)[1])
    t0, t1 = (pt.y for pt in diff.section1)
    assert t0 != t1 and (t0 + t1) and (t0 + t1).is_zero()
    numerator = diff.base_numerator + BPoly({(1, 0): t0 + t1, (0, 0): -x2 * (t0 + t1)})
    d = dataclasses.replace(diff, base_numerator=numerator)
    calls = []
    is_zero = TowerElement.is_zero
    monkeypatch.setattr(TowerElement, "is_zero",
                        lambda self: calls.append(self) or is_zero(self))
    assert differentials._identity_holds(d, d.pole1)
    assert differentials._identity_holds(d, d.pole2)
    assert len(calls) == 1
    monkeypatch.undo()
    certificates = residue_certificates(d)
    assert certificates == residue_oracle(d)
    assert all(c["ok"] for c in certificates)
