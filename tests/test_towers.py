import random
import struct
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import gcd, isqrt, prod

import mpmath as mp
import pytest
from mpmath.libmp import dps_to_prec, from_rational, round_nearest

from abeldiff import roots as roots_module
from abeldiff import towers
from abeldiff.curves import Curve
from abeldiff.differentials import (residue_certificates, third_kind,
                                    vandermonde_equivalence)
from abeldiff.errors import (ContextMismatch, NotInvertible, NotSquareFree,
                             ZeroDivision)
from abeldiff.polys import BPoly, UPoly, is_squarefree, power_sums
from abeldiff.roots import RootApprox, isolate_roots
from abeldiff.towers import TowerContext, TowerElement, adjoin, eval_bpoly

SQRT2 = UPoly([-2, 0, 1])
SQRT3 = UPoly([-3, 0, 1])
CUBE3 = UPoly([-3, 0, 0, 1])
CUBIC_F = BPoly({(3, 0): 1, (0, 3): -1, (1, 1): 2, (1, 0): 1, (0, 1): -2, (0, 0): 1})
QUARTIC_F = BPoly({(4, 0): 1, (0, 4): 1, (0, 0): -1})
SEPTIC_F = BPoly({(7, 0): 1, (0, 7): 1, (1, 0): -1, (0, 0): -1})


def test_adjoin_square_root():
    ctx, r2 = adjoin(TowerContext(), SQRT2, 1)
    assert (r2 * r2) == 2
    assert ((r2 + 1) * (r2 - 1)) == 1


def test_adjoin_cube_root():
    ctx, c = adjoin(TowerContext(), CUBE3, 2)  # the real cube root
    assert c ** 3 == 3


def test_two_generators_multiply():
    ctx = TowerContext()
    ctx, r2 = adjoin(ctx, SQRT2, 1)
    ctx, r3 = adjoin(ctx, SQRT3, 1)
    prod = r2 * r3
    assert prod * prod == 6


def test_arithmetic_roundtrip():
    ctx = TowerContext()
    ctx, r2 = adjoin(ctx, SQRT2, 1)
    ctx, r3 = adjoin(ctx, SQRT3, 0)
    a = 2 * r2 - r3 + Fraction(1, 3)
    b = r2 * r3 - 5
    assert (a + b) - b == a
    assert a * (b + 1) == a * b + a


def test_ring_axioms_randomized():
    ctx = TowerContext()
    ctx, r2 = adjoin(ctx, SQRT2, 1)
    ctx, c3 = adjoin(ctx, CUBE3, 2)
    rng = random.Random(4)

    def rand_elt():
        e = ctx.constant(rng.randint(-3, 3))
        for g in (r2, c3):
            e = e + rng.randint(-2, 2) * g + rng.randint(-2, 2) * g * g
        return e

    for _ in range(10):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a


def _key(*exps):
    """A monomial's key: its exponents without trailing zeros."""
    exps = list(exps)
    while exps and exps[-1] == 0:
        exps.pop()
    return tuple(exps)


def _reference_product(ctx, a, b):
    """The product by definition, in Fractions: multiply term by term, then
    divide by each modulus m_j in turn, rewriting t_j^e -> t_j^e - t_j^(e-d)
    m_j(t_j) from the highest exponent e >= d down."""
    n = len(ctx)
    terms = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            key = tuple(x + y for x, y in zip(k1 + (0,) * (n - len(k1)),
                                              k2 + (0,) * (n - len(k2))))
            terms[key] = terms.get(key, Fraction(0)) + c1 * c2
    for j in range(n):
        m = ctx.extensions[j].modulus.coeffs
        d = len(m) - 1
        for e in range(max((k[j] for k in terms), default=0), d - 1, -1):
            for key in [k for k in terms if k[j] == e]:
                c = terms.pop(key)
                for i, mi in enumerate(m[:-1]):
                    nk = key[:j] + (e - d + i,) + key[j + 1:]
                    terms[nk] = terms.get(nk, Fraction(0)) - c * mi
    return {_key(*key): c for key, c in terms.items() if c}


def _random_modulus(rng, degree):
    """A square-free rational modulus, not monic, with large coefficients."""
    while True:
        coeffs = [Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
                  for _ in range(degree)]
        coeffs.append(Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)))
        try:
            adjoin(TowerContext(), UPoly(coeffs), 0)
        except NotSquareFree:
            continue
        return UPoly(coeffs)


def _random_element(rng, ctx, big):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        num = rng.randint(-10**30, 10**30) if big else rng.randint(-5, 5)
        den = rng.randint(1, 10**25) if big else rng.randint(1, 4)
        if num:
            terms[_key(*(rng.randrange(d) for d in ctx.degrees))] = Fraction(num, den)
    return TowerElement(ctx, terms)


def _cofactor(ctx, j):
    """(m_j(t_j) - m_j(0)) / t_j for the monic modulus m_j of t_j, so that
    t_j times it is the rational -m_j(0)."""
    m = ctx.extensions[j].modulus.coeffs
    return TowerElement(ctx, {_key(*[0] * j, i - 1): c
                              for i, c in enumerate(m) if i and c})


def test_product_matches_fraction_reference():
    rng = random.Random(20211)
    for _ in range(24):
        moduli = [_random_modulus(rng, rng.randint(2, 7))
                  for _ in range(rng.randint(1, 3))]
        ctx = TowerContext()
        for _ in range(rng.randint(1, 4)):
            # generators may share a modulus, with distinct roots or one root
            modulus = rng.choice(moduli)
            ctx, _ = adjoin(ctx, modulus, rng.randrange(modulus.degree))
        for big in (False, True):
            for _ in range(4):
                a = _random_element(rng, ctx, big)
                b = _random_element(rng, ctx, big)
                assert (a * b).terms == _reference_product(ctx, a, b)
        for j in range(len(ctx)):
            t, b = ctx.generator(j), _cofactor(ctx, j)
            assert (t * b).terms == _reference_product(ctx, t, b) == \
                {(): -ctx.extensions[j].modulus.coeffs[0]}
            b = 3 * b + t * t
            assert (t * b).terms == _reference_product(ctx, t, b)


def _random_context(rng):
    """1 to 4 generators over 1 to 3 random moduli of degree 1 to 7;
    generators may share a modulus, with distinct roots or one root."""
    moduli = [_random_modulus(rng, rng.randint(1, 7)) for _ in range(rng.randint(1, 3))]
    ctx = TowerContext()
    for _ in range(rng.randint(1, 4)):
        modulus = rng.choice(moduli)
        ctx, _ = adjoin(ctx, modulus, rng.randrange(modulus.degree))
    return ctx


SCALARS = [0, 1, -1, Fraction(7, 3), Fraction(10**30, 7), Fraction(-10**30, 7)]


def test_product_with_a_rational_constant_scales_term_by_term():
    rng = random.Random(31337)
    for _ in range(12):
        ctx = _random_context(rng)
        elements = [ctx.zero] + [ctx.generator(j) for j in range(len(ctx))] + \
            [_random_element(rng, ctx, big) for big in (False, True) for _ in range(3)]
        for a in elements:
            for s in SCALARS:
                expected = [(k, c * s) for k, c in a.terms.items()] if s else []
                const = ctx.constant(s)
                for r in (a * s, s * a, a * const, const * a):
                    assert list(r.terms.items()) == expected
                    assert r.terms == _reference_product(ctx, a, const)


def test_product_of_zero_divisors_is_zero():
    # s, t roots of one modulus m: (t - s) * (m(t) - m(s)) / (t - s) = 0
    m = UPoly([Fraction(-7, 3), Fraction(1, 5), 0, Fraction(9, 2)])
    ctx = TowerContext()
    ctx, s = adjoin(ctx, m, 0)
    ctx, t = adjoin(ctx, m, 1)
    q = TowerElement(ctx, {_key(e, i - 1 - e): mi for i, mi in
                           enumerate(ctx.extensions[0].modulus.coeffs) if mi
                           for e in range(i)})
    assert q
    assert not ((t - s) * q).terms
    assert _reference_product(ctx, t - s, q) == {}


def _reference_sum(a, b):
    """The sum of two coefficient dicts by definition, in Fractions."""
    terms = dict(a)
    for k, c in b.items():
        terms[k] = terms.get(k, Fraction(0)) + c
    return {k: c for k, c in terms.items() if c}


def _reference_eval(ctx, p, x, y):
    """eval_bpoly by definition, in Fractions: every monomial c x^i y^j
    from j products with y, summed one at a time."""
    acc = {}
    for (i, j), c in p.terms.items():
        term = {k: v * Fraction(x) ** i
                for k, v in (c.terms.items() if isinstance(c, TowerElement) else [((), c)])}
        for _ in range(j):
            term = _reference_product(ctx, TowerElement(ctx, term), y)
        acc = _reference_sum(acc, term)
    return acc


def _assert_canonical(e, reference):
    """e is stored in lowest terms with the coefficients of reference, and
    serialize prints each of them as str(Fraction) does."""
    assert e.den > 0
    assert gcd(e.den, *e.nums.values()) == 1
    assert all(e.nums.values())
    assert e.terms == reference
    printed = {tuple(key): text for key, text in e.serialize()["coefficients"]}
    assert printed == {key: str(c) for key, c in reference.items()}


def test_every_operation_leaves_elements_in_lowest_terms():
    rng = random.Random(1801)
    for _ in range(10):
        ctx = _random_context(rng)
        elements = [ctx.zero, ctx.one] + [ctx.generator(j) for j in range(len(ctx))] + \
            [_random_element(rng, ctx, big) for big in (False, True) for _ in range(3)]
        # even denominators, so that a + a cancels a factor 2
        elements += [a * Fraction(1, 2) for a in elements[-6:]]
        for a in elements:
            _assert_canonical(-a, {k: -c for k, c in a.terms.items()})
            for s in SCALARS:
                scaled = {k: c * s for k, c in a.terms.items()} if s else {}
                for r in (a * s, s * a, a * ctx.constant(s)):
                    _assert_canonical(r, scaled)
                if s:
                    _assert_canonical(a / s, {k: c / s for k, c in a.terms.items()})
            for b in rng.sample(elements, 4) + [a]:
                _assert_canonical(a + b, _reference_sum(a.terms, b.terms))
                negated = {k: -c for k, c in b.terms.items()}
                _assert_canonical(a - b, _reference_sum(a.terms, negated))
                _assert_canonical(a * b, _reference_product(ctx, a, b))
            for j in a.present_generators():   # the coefficients inversion divides
                for part in towers._as_upoly(a, j).coeffs:
                    _assert_canonical(part, dict(part.terms))
            # one generator: inverses in two of these moduli grow for seconds
            if len(a.present_generators()) <= 1:
                try:
                    inverse = a.invert()
                except (NotInvertible, ZeroDivision):
                    continue
                _assert_canonical(inverse, dict(inverse.terms))
                assert _reference_product(ctx, a, inverse) == {(): 1}
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        for j in range(len(ctx)):
            t = ctx.generator(j)
            for ydeg in (0, ctx.degrees[j] + 1):
                p = BPoly({(rng.randrange(3), rng.randint(0, ydeg)):
                           rng.choice(elements) or Fraction(1, 3) for _ in range(5)})
                for y in (t, 2 * t - Fraction(1, 3)):
                    _assert_canonical(eval_bpoly(p, x, y), _reference_eval(ctx, p, x, y))


def _nested_sum(a, ball, power, prec):
    """a's terms summed in the nested order of TowerElement._ball: one
    generator at a time, lowest index first, each partial sum multiplied by
    power(i, e), the ball of t_i^e, and merged by the rest of its key;
    ball(c) is the ball of a coefficient."""
    level = {key: ball(c) for key, c in a.terms.items()}
    for i in range(max(map(len, level), default=0)):
        merged = {}
        for key, b in level.items():
            if key:
                if key[0]:
                    b = b.mul(power(i, key[0]), prec)
                key = key[1:]
            merged[key] = b if key not in merged else merged[key].add(b, prec)
        level = merged
    return level[()]


def _nested_ball_by_levels(nums, den, roots, prec):
    """towers._nested_ball level by level, as it was first written: one
    generator at a time, lowest index first, every partial sum of a level
    multiplied by the power of t_i it carries and merged with those of
    equal rest of key; a level holds one partial sum per key suffix."""
    level = nums
    for i in range(max(map(len, level), default=0)):
        merged = {}
        for key, v in level.items():
            if key:
                if key[0]:
                    power = towers._pow(towers._disc_ball(roots[i], prec), key[0], prec)
                    if type(v) is int:
                        v = v * power[0], v * power[1], abs(v) * power[2]
                    else:
                        v = towers._mul(v, power, prec)
                key = key[1:]
            prev = merged.get(key)
            merged[key] = v if prev is None else towers._add(prev, v, prec)
        level = merged
    v = level.get((), 0)
    if type(v) is int:
        v = v << prec, 0, 0
    return towers._Disc(*v, den, prec)


def test_nested_ball_in_reversed_key_order_matches_the_levels():
    # one open partial sum per generator gives the discs, bit for bit, that
    # the level-by-level sum gives: the groups a power multiplies are the
    # same, and sums are exact
    rng = random.Random(4099)
    elements = _haupt_shaped_elements(rng)
    for _ in range(12):
        ctx = _random_context(rng)
        for big in (False, True):
            a, b = _random_element(rng, ctx, big), _random_element(rng, ctx, big)
            elements += [ctx.zero, ctx.constant(Fraction(-7, 3)), a, a * b + b, a * a * b]
    assert {len(a.present_generators()) for a in elements} >= {0, 1, 2, 3, 4}
    for a in elements:
        for digits in (15, 60):
            roots = {i: a.ctx.extensions[i].refine_to(digits) for i in a.present_generators()}
            prec = int(digits * 3.4) + 40
            assert towers._nested_ball(a.nums, a.den, roots.__getitem__, prec) == \
                _nested_ball_by_levels(dict(zip(a.terms, a.nums.values())), a.den,
                                       roots, prec)


class _ParentBall:
    """Ball arithmetic in mpmath at the working precision, each operation's
    rounding folded into the radius, |c| from mpmath's abs: the oracle that
    bounds the fixed-point kernel's radius."""

    def __init__(self, c, r):
        self.c = c
        self.r = r

    @staticmethod
    def from_fraction(fr, prec):
        c = mp.mpf(fr.numerator) / mp.mpf(fr.denominator)
        return _ParentBall(mp.mpc(c), mp.ldexp(1 + abs(c), 4 - prec))

    def add(self, other, prec):
        c = self.c + other.c
        return _ParentBall(c, self.r + other.r + mp.ldexp(1 + abs(c), 6 - prec))

    def mul(self, other, prec):
        c = self.c * other.c
        r = abs(self.c) * other.r + abs(other.c) * self.r + self.r * other.r
        return _ParentBall(c, r + mp.ldexp(1 + abs(c), 6 - prec))

    def pow(self, e, prec):
        out = _ParentBall(mp.mpc(1), mp.mpf(0))
        base = self
        while e:
            if e & 1:
                out = out.mul(base, prec)
            base = base.mul(base, prec)
            e >>= 1
        return out


def _parent_ball(a, digits10):
    """TowerElement._ball computed with _ParentBall, on the roots it uses."""
    prec = int(digits10 * 3.4) + 40
    roots = {i: a.ctx.extensions[i].refine_to(digits10) for i in a.present_generators()}
    with mp.workprec(prec):
        return _nested_sum(
            a, lambda c: _ParentBall.from_fraction(c, prec),
            lambda i, e: _ParentBall(roots[i].center, roots[i].radius).pow(e, prec), prec)


def _fine_value(a, digits10):
    """a's embedded value with every root refined to 10^-(3 digits10), at 4x
    the working precision of a._ball(digits10)."""
    exts = a.ctx.extensions
    centers = {i: exts[i].refine_to(3 * digits10).center for i in a.present_generators()}
    with mp.workprec(4 * (int(digits10 * 3.4) + 40)):
        acc = mp.mpc(0)
        for key, coeff in a.terms.items():
            term = mp.mpf(coeff.numerator) / coeff.denominator
            for i, e in enumerate(key):
                if e:
                    term *= centers[i] ** e
            acc += term
        return acc


def _haupt_shaped_elements(rng):
    """Dense elements in two generators each of the sections of x^4+y^4-1
    over x = 2 and x = 3 (distinct roots of one modulus): the shape of a
    haupt value."""
    ctx = TowerContext()
    for x in (2, 3):
        for root_id in (0, 2):
            ctx, _ = adjoin(ctx, UPoly([x ** 4 - 1, 0, 0, 0, 1]), root_id)
    out = []
    for h in (5, 10 ** 30):
        a = ctx.one
        for j in range(len(ctx)):
            a = a * sum((Fraction(rng.randint(1, h), rng.randint(1, h)) * ctx.generator(j) ** e
                         for e in range(4)), ctx.zero)
        out.append(a + _random_element(rng, ctx, h > 5))
    return out


def test_ball_contains_the_value_with_a_radius_near_the_parent_oracle():
    rng = random.Random(2017)
    batches = []
    for _ in range(8):
        ctx = _random_context(rng)
        elements = [ctx.constant(Fraction(1, 3))] + \
            [_random_element(rng, ctx, big) for big in (False, True) for _ in range(2)]
        elements.append(sum((ctx.generator(j) ** (d - 1) for j, d in enumerate(ctx.degrees)),
                            ctx.constant(Fraction(-2, 7))))
        batches.append(elements)
    haupt_shaped = _haupt_shaped_elements(rng)
    assert all(len(a.present_generators()) == 4 and len(a.terms) > 100 for a in haupt_shaped)
    batches.append(haupt_shaped)
    for a in (a for elements in batches for a in elements):
        if not a.terms:
            continue
        for digits in (15, 40, 70):
            ball = a._ball(digits)
            oracle = _parent_ball(a, digits)
            assert ball.r <= 4 * oracle.r
            with mp.workprec(4 * (int(digits * 3.4) + 40)):
                assert abs(ball.c - oracle.c) <= ball.r + oracle.r
                assert abs(ball.c - _fine_value(a, digits)) <= ball.r


def test_approximate_lies_within_its_digits_of_the_value():
    # the certified center is within 10^-d/2; approximate rounds it to d + 5
    # significant digits, which moves a value above 1 by up to |v| 10^-(d+4)
    rng = random.Random(1990)
    elements = _haupt_shaped_elements(rng)
    for _ in range(6):
        ctx = _random_context(rng)
        elements += [_random_element(rng, ctx, big) for big in (False, True) for _ in range(2)]
    for a in elements:
        for d in (15, 30, 60):
            v = a.approximate(d)
            with mp.workprec(4 * (int(d * 3.4) + 40)):
                fine = _fine_value(a, d)
                assert abs(v - fine) <= mp.mpf(10) ** -d * max(1, abs(fine))


def _one_generator_element(rng, ctx, j, big):
    """A random nonzero element in the generator t_j alone."""
    while True:
        a = TowerElement(ctx, {_key(*[0] * j, e): Fraction(
            rng.randint(-10**30, 10**30) if big else rng.randint(-5, 5),
            rng.randint(1, 10**25) if big else rng.randint(1, 4))
            for e in range(ctx.degrees[j])})
        if a:
            return a


def test_quotient_disc_contains_the_value_and_prints_the_product_decimal():
    # the certified division of Quotient against num * den.invert(): every
    # disc that approximate's attempts would accept holds the product's value
    # from a ball sum at 3x the working precision, and the decimal is the
    # product's; denominators in one generator keep their inverses small
    rng = random.Random(2009)
    pairs = []
    for _ in range(6):
        ctx = _random_context(rng)
        for big in (False, True):
            j = rng.randrange(len(ctx))
            den = _one_generator_element(rng, ctx, j, big)
            if den.is_zero():
                continue
            pairs += [(_one_generator_element(rng, ctx, rng.randrange(len(ctx)), big), den),
                      (_random_element(rng, ctx, big), den)]
    # a denominator within 10^-30 of zero: its 15-digit disc meets zero
    ctx, t = adjoin(_random_context(rng), SQRT2, 1)
    with mp.workdps(60):
        tiny = t - Fraction(int(mp.nint(t.approximate(40).real * 10 ** 30)), 10 ** 30)
    assert not tiny._ball(15).excludes_zero()
    assert towers._quotient_disc(t._ball(15), tiny._ball(15)) is None
    pairs += [(t + 1, tiny), (_random_element(rng, ctx, True), tiny)]
    assert {len(num.present_generators()) for num, _ in pairs} >= {1, 2}
    for num, den in pairs:
        q = towers.Quotient(num, den)
        product = num * den.invert()
        for digits in (1, 12, 30, 60, 120):
            accepted = None
            for attempt in range(9):
                work = digits + 10 + 20 * attempt
                disc = towers._quotient_disc(num._ball(work), den._ball(work))
                if disc is None:
                    continue
                if product.terms:
                    ref = _parent_ball(product, 3 * work)
                else:
                    ref = _ParentBall(mp.mpc(0), mp.mpf(0))
                with mp.workprec(4 * disc.prec):
                    assert abs(disc.c - ref.c) <= disc.r + ref.r
                if disc.rad * 2 * 10 ** digits < disc.den << disc.prec:
                    accepted = disc
                    break
            assert accepted is not None
            assert q.approximate(digits)._mpc_ == \
                mp.make_mpc(accepted.center_parts(dps_to_prec(digits + 5)))._mpc_
            assert q.serialize(digits)["decimal"] == product.serialize(digits)["decimal"]
        assert q.is_zero() == product.is_zero()


def test_quotient_disc_holds_the_extreme_quotients_exactly():
    # x = c_a +- r_a and y = c_b - r_b, the point of b's disc nearest zero
    # (c_b > 0), lie in the discs: the quotient disc must hold x/y, decided
    # in Fractions, also when b's disc nearly touches zero
    rng = random.Random(1974)
    prec = 64
    for _ in range(300):
        den_a, den_b = rng.randint(1, 10**6), rng.randint(1, 10**6)
        re_b = rng.randint(1, 2**80)
        rad_b = rng.choice((0, rng.randint(0, re_b - 1), re_b - 1 - rng.randint(0, 3)))
        a = towers._Disc(rng.randint(-2**80, 2**80), rng.randint(-2**80, 2**80),
                         rng.randint(0, 2**70), den_a, prec)
        b = towers._Disc(re_b, 0, rad_b, den_b, prec)
        disc = towers._quotient_disc(a, b)
        if isqrt(re_b * re_b) <= rad_b:
            assert disc is None
            continue
        unit = 1 << prec
        for sign in (1, -1):
            x_re = Fraction(a.re + sign * a.rad, den_a * unit)
            y = Fraction(re_b - rad_b, den_b * unit)
            dx = x_re / y * unit - disc.re
            dy = Fraction(a.im, den_a * unit) / y * unit - disc.im
            assert _holds(disc.rad, 0, dx, dy)
    assert towers._quotient_disc(towers._Disc(1, 0, 0, 1, 0), towers._Disc(3, -4, 5, 1, 0)) is None


def test_decimals_of_large_values_converge():
    # the certified radius is absolute, so a value of 10^k needs about k more
    # working digits than the decimal's; reference digits from mpmath at 400
    ctx, t = adjoin(TowerContext(), SQRT2, 1)
    for k in (200, 299):
        with mp.workdps(400):
            ref = mp.nstr(mp.sqrt(2) * mp.mpf(10) ** k, 30)
        assert (t * 10 ** k).serialize(30)["decimal"] == {"re": ref, "im": "0.0", "digits": 30}
    with mp.workdps(400):
        ref = mp.nstr(mp.sqrt(2) * mp.mpf(10) ** 250 / 3, 30)
    assert towers.Quotient(t * 10 ** 250, 3 * ctx.one).serialize(30)["decimal"]["re"] == ref


def test_quotient_serializes_both_parts_in_the_element_form():
    ctx, r2 = adjoin(TowerContext(), SQRT2, 1)
    ctx, c = adjoin(ctx, CUBE3, 2)
    num, den = r2 * c + Fraction(1, 3), 2 * r2 - 1
    # the parts as serialize prints them before the decimal refines any root
    parts = {"numerator": num.serialize(), "denominator": den.serialize()}
    assert towers.Quotient(num, den).serialize() == parts
    doc = towers.Quotient(num, den).serialize(12)
    assert doc == {**parts, "decimal": (num * den.invert()).serialize(12)["decimal"]}
    assert list(doc) == ["numerator", "denominator", "decimal"]
    with pytest.raises(ZeroDivision):
        towers.Quotient(num, ctx.zero)
    with pytest.raises(ContextMismatch):
        towers.Quotient(num, TowerContext().one)


def _exact(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _ceil_sqrt(n: int) -> int:
    return isqrt(n - 1) + 1 if n else 0


def _holds(rad, body, dx, dy) -> bool:
    """rad >= body + |dx + i dy|, in exact arithmetic."""
    return rad >= body and (rad - body) ** 2 >= dx * dx + dy * dy


def test_ball_radius_rounds_upward():
    # each radius of the fixed-point kernel is at least its formula in
    # Fractions, with every modulus rounded up (a rounding done downward, or
    # a dropped unit, breaks it), and at most a small factor above it plus a
    # few units; centers and radii run from one unit of 2^-prec to 2^20
    rng = random.Random(1968)
    prec = 120
    one = 1 << prec

    def rand_int(hi):
        bits = rng.randint(1, hi)
        return rng.choice((1, -1)) * (rng.getrandbits(bits) | 1 << (bits - 1))

    def rand_ball():
        hi = rng.choice((3, prec + 20))   # centers of a few units too
        return (rand_int(hi), rng.choice((0, 0, 1)) * rand_int(hi),
                rng.choice((0, abs(rand_int(prec + 20)))))

    def rand_mpf():
        return mp.ldexp(rand_int(prec), rng.randint(-2 * prec, 20))

    for _ in range(400):
        x, y = rand_ball(), rand_ball()
        (a, b, r), (c, d, s) = x, y
        # product: exact center (a + ib)(c + id) at scale 2^-2prec, truncated
        re, im, rad = towers._mul(x, y, prec)
        dx, dy = a * c - b * d - re * one, a * d + b * c - im * one
        m1, m2 = _ceil_sqrt(a * a + b * b), _ceil_sqrt(c * c + d * d)
        body = m1 * s + m2 * r + r * s
        assert _holds(rad * one, body, dx, dy)
        assert rad * one <= Fraction(22, 10) * (isqrt(a * a + b * b) * s +
                                                isqrt(c * c + d * d) * r + r * s) + 4 * one
        # truncation toward zero commutes with negation and conjugation
        assert towers._mul((-a, -b, r), y, prec) == (-re, -im, rad)
        assert towers._mul((a, -b, r), (c, -d, s), prec) == (re, -im, rad)
        # sums are exact, with an integer partial sum too
        assert towers._add(x, y, prec) == (a + c, b + d, r + s)
        n = rand_int(100)
        assert towers._add(n, y, prec) == towers._add(y, n, prec) == (c + (n << prec), d, s)
        # integer times a root disc's power, in a one-term element
        center, radius = mp.mpc(rand_mpf(), rng.choice((0, 1)) * rand_mpf()), abs(rand_mpf())
        root = RootApprox(0, center, radius, prec, None)
        disc = towers._disc_ball(root, prec)
        ball = towers._nested_ball({towers._pack((1,)): n}, 1, {0: root}.__getitem__, prec)
        assert ball == (n * disc[0], n * disc[1], abs(n) * disc[2], 1, prec)
        # root disc: exact shift of the raw parts, radius rounded upward
        ex, ey = _exact(center.real) * one, _exact(center.imag) * one
        body = _exact(radius) * one
        assert _holds(disc[2], body, ex - disc[0], ey - disc[1])
        assert disc[2] <= body + 3
        # final conversion: c is the center over den 2^prec at prec bits, and
        # r covers its rounding
        den = rng.randint(1, 10**40)
        out = towers._Disc(re, im, rad, den, prec)
        q = den * one
        body = Fraction(rad, q)
        assert _holds(_exact(out.r), body, _exact(out.c.real) - Fraction(re, q),
                      _exact(out.c.imag) - Fraction(im, q))
        assert _exact(out.r) <= Fraction(12, 10) * (body + Fraction(_ceil_sqrt(re * re + im * im),
                                                                    q * one)) + Fraction(3, q)
    # a root disc whose two center parts each lose nearly one unit, and whose
    # radius is a whole number of units or just below one
    with mp.workprec(4 * prec):
        below_one = mp.ldexp(2 ** 100 - 1, -100 - prec)
        edges = [(mp.mpc(sign * (1 + below_one), -sign * below_one), radius)
                 for radius in (mp.mpf(0), mp.ldexp(1, -prec), below_one)
                 for sign in (1, -1)]
    for center, radius in edges:
        re, im, rad = towers._disc_ball(RootApprox(0, center, radius, prec, None), prec)
        assert _holds(rad, _exact(radius) * one, _exact(center.real) * one - re,
                      _exact(center.imag) * one - im)


def test_disc_predicates_are_exact():
    # |c| + rad = 10 at prec 0: the disc touches zero or the bound exactly
    touching = towers._Disc(3, -4, 5, 1, 0)
    assert not touching.excludes_zero()
    assert towers._Disc(3, -4, 4, 1, 0).excludes_zero()
    assert not touching.below(Fraction(10))
    assert touching.below(Fraction(10**30 + 1, 10**29))
    assert not touching.below(Fraction(4))
    # the same disc over den 2^prec
    scaled = towers._Disc(3 << 70, -4 << 70, 5 << 70, 7, 70)
    assert not scaled.below(Fraction(10, 7))
    assert scaled.below(Fraction(10**30 + 1, 7 * 10**29))


def test_invert_sqrt2():
    ctx, r2 = adjoin(TowerContext(), SQRT2, 1)
    inv = r2.invert()
    assert inv == r2 / 2
    assert r2 * inv == 1


def test_invert_one_and_rationals():
    ctx = TowerContext()
    ctx, r2 = adjoin(ctx, SQRT2, 1)
    assert ctx.one.invert() == 1
    assert (ctx.constant(Fraction(3, 7))).invert() == Fraction(7, 3)


def test_invert_random_elements_in_tower():
    ctx = TowerContext()
    ctx, r2 = adjoin(ctx, SQRT2, 1)
    ctx, c3 = adjoin(ctx, CUBE3, 2)
    rng = random.Random(11)
    for _ in range(8):
        e = ctx.constant(rng.randint(1, 3)) + rng.randint(-2, 2) * r2 \
            + rng.randint(-2, 2) * c3 + rng.randint(-1, 1) * r2 * c3
        if e.is_zero():
            continue
        assert e * e.invert() == 1


def test_division_and_inverse_over_random_towers():
    # the extended Euclid that invert() runs, on polynomials whose
    # coefficients are elements of 1 to 3 generators; three generators of
    # degree 3 over these moduli take seconds
    rng = random.Random(3701)
    divisions = inverses = 0
    for gens in (1, 2, 3) * 4:
        moduli = [_random_modulus(rng, rng.randint(2, 5 - gens)) for _ in range(2)]
        ctx = TowerContext()
        for _ in range(gens):
            modulus = rng.choice(moduli)
            ctx, _ = adjoin(ctx, modulus, rng.randrange(modulus.degree))
        elements = [_random_element(rng, ctx, False) for _ in range(12)]
        for _ in range(4):
            num = UPoly(rng.sample(elements, rng.randint(1, 6)))
            den = UPoly(rng.sample(elements, rng.randint(1, 4)))
            if not den:
                continue
            try:
                q, r = towers._divmod(num, den)
            except NotInvertible:
                continue
            assert q * den + r == num    # syntactic, coefficient by coefficient
            assert r.degree < den.degree
            divisions += 1
        for a in elements:
            try:
                inverse = a.invert()
            except (NotInvertible, ZeroDivision):
                continue
            assert not (a * inverse - 1).nums
            inverses += 1
    assert divisions >= 40 and inverses >= 100


def test_not_invertible_witness():
    # Q[t]/(y^2 - 1) is reducible; t - 1 is a zero divisor
    ctx, t = adjoin(TowerContext(), UPoly([-1, 0, 1]), 0)
    with pytest.raises(NotInvertible) as exc:
        (t - 1).invert()
    assert exc.value.modulus_index == 0
    assert exc.value.factor == UPoly([-1, 1])  # witness: y - 1


def test_invert_zero_raises():
    ctx, r2 = adjoin(TowerContext(), SQRT2, 1)
    with pytest.raises(ZeroDivision):
        ctx.zero.invert()
    with pytest.raises(ZeroDivision):
        (r2 - r2).invert()


def test_elements_divide_only_by_rationals_and_have_no_negative_powers():
    # invert() is the one inverse: an element divisor and a negative power
    # are refused, not inverted
    ctx, r2 = adjoin(TowerContext(), SQRT2, 1)
    e = r2 + 1
    with pytest.raises(TypeError):
        e / r2
    with pytest.raises(TypeError):
        e / (r2 * 0 + 2)
    with pytest.raises(ValueError):
        e ** -1
    for q in (Fraction(2, 3), Fraction(-2, 3), 5):
        assert e / q == e * (1 / Fraction(q))
        assert (e / q).terms == {k: c / q for k, c in e.terms.items()}
    with pytest.raises(ZeroDivision):
        e / 0


def test_is_zero_refines_the_disc_below_the_minimal_polynomial_bound(monkeypatch):
    # two generators of t^2 - c, c = 2/10^100: t - s takes the values 0 and
    # +-2 sqrt(c), so a disc certifies zero only below about 8 10^-100
    c = Fraction(2, 10**100)
    modulus = UPoly([-c, 0, 1])
    precs, real = [], towers._nested_ball

    def recorded(nums, den, roots, prec):
        precs.append(prec)
        return real(nums, den, roots, prec)
    monkeypatch.setattr(towers, "_nested_ball", recorded)
    ctx, s = adjoin(TowerContext(), modulus, 0)
    ctx, t = adjoin(ctx, modulus, 0)           # one root twice
    assert (t - s).terms and (t - s).is_zero()
    assert precs == [91, 176, 312, 584]        # 15 and 40 digits, then doubled
    # the two roots of t^2 - 2/10^200: 2.8 10^-100 apart, too close for
    # the 40-digit disc, and excluded from zero by a refined one
    modulus = UPoly([Fraction(-2, 10**200), 0, 1])
    ctx, s = adjoin(TowerContext(), modulus, 0)
    ctx, t = adjoin(ctx, modulus, 1)
    precs.clear()
    assert not (t - s).is_zero()
    assert precs == [91, 176, 312, 584]


def test_is_zero_basic():
    ctx, r2 = adjoin(TowerContext(), SQRT2, 1)
    assert ctx.zero.is_zero()
    assert (r2 * r2 - 2).is_zero()
    assert not (r2 - 1).is_zero()


def test_is_zero_semantic_fallback():
    # two generators bound to the *same* root: t1 - t2 is syntactically
    # nonzero but embeds to zero
    ctx = TowerContext()
    ctx, a = adjoin(ctx, SQRT2, 1)
    ctx, b = adjoin(ctx, SQRT2, 1)
    d = a - b
    assert bool(d)          # nonzero in the ring
    assert d.is_zero()      # zero under the embedding
    assert not (a + b).is_zero()
    with pytest.raises(ZeroDivision):
        d.invert()


def test_is_zero_reuses_its_40_digit_disc_for_the_minimal_polynomial(monkeypatch):
    ctx = TowerContext()
    ctx, a = adjoin(ctx, SQRT2, 1)
    ctx, b = adjoin(ctx, SQRT2, 1)
    digits = []
    real_ball = TowerElement._ball

    def counted(self, digits10):
        digits.append(digits10)
        return real_ball(self, digits10)
    monkeypatch.setattr(TowerElement, "_ball", counted)
    assert (a - b).is_zero()      # decided by the bound on the 40-digit disc
    assert digits == [15, 40]


def _no_minimal_polynomial(self):
    raise AssertionError("zero test fell through to the minimal polynomial")


def test_is_zero_cauchy_keeps_one_generator_per_root(monkeypatch):
    ctx = TowerContext()
    ctx, a = adjoin(ctx, SQRT2, 1)
    ctx, b = adjoin(ctx, SQRT2, 1)  # same root as a
    ctx, c = adjoin(ctx, SQRT2, 0)  # the other root
    # a + b would vanish if a and b were taken for distinct roots
    assert towers._cauchy_normal_form(a + b)
    assert not (a + b).is_zero()
    monkeypatch.setattr(TowerElement, "_minimal_polynomial", _no_minimal_polynomial)
    assert (a + c).is_zero()
    assert (b + c).is_zero()
    assert (a * c + 2).is_zero()


def test_cauchy_stage_decides_vandermonde_and_residues(monkeypatch, quartic):
    ctx = TowerContext()
    p1 = quartic.section_roots(Fraction(1, 2), ctx)[0]
    p2 = quartic.section_roots(Fraction(-2, 3), ctx)[0]
    diff = third_kind(quartic, p1, p2)
    septic = Curve(SEPTIC_F)
    ctx = TowerContext()
    q1 = septic.section_roots(0, ctx)[0]
    q2 = septic.section_roots(2, ctx)[0]
    ctx = TowerContext()
    s1 = septic.section_roots(Fraction(1, 2), ctx)[0]
    s2 = septic.section_roots(Fraction(-2, 3), ctx)[0]
    septic_diff = third_kind(septic, s1, s2)
    monkeypatch.setattr(TowerElement, "_minimal_polynomial", _no_minimal_polynomial)
    assert vandermonde_equivalence(diff)
    assert all(cert["ok"] for cert in residue_certificates(third_kind(septic, q1, q2)))
    # the septic's sections at non-integral abscissas have primitive leads
    # 2^7 and 3^7
    assert vandermonde_equivalence(septic_diff)


def test_is_zero_cauchy_agrees_with_minimal_polynomial(monkeypatch):
    # the three roots of y^3 + 2y - 1 (Galois group S3) and sqrt(2)
    section = UPoly([-1, 2, 0, 1])
    ctx = TowerContext()
    t = []
    for rid in range(3):
        ctx, g = adjoin(ctx, section, rid)
        t.append(g)
    ctx, c = adjoin(ctx, SQRT2, 1)
    e1 = t[0] + t[1] + t[2]
    e2 = t[0] * t[1] + t[0] * t[2] + t[1] * t[2]
    e3 = t[0] * t[1] * t[2]
    p2 = t[0] ** 2 + t[1] ** 2 + t[2] ** 2
    ideal = [e1, e2 - 2, e3 - 1, p2 + 4, t[0] ** 2 + t[0] * t[1] + t[1] ** 2 + 2]
    rng = random.Random(7)

    def rand_elt():
        e = ctx.constant(rng.randint(-2, 2))
        for _ in range(2):
            mono = ctx.constant(rng.randint(-3, 3))
            for g in t + [c]:
                mono = mono * g ** rng.randint(0, 1)
            e = e + mono
        return e

    samples = []
    for _ in range(6):
        zero = rand_elt() * rng.choice(ideal)
        samples.append(zero)
        samples.append(zero + rng.choice(t + [c]) - rng.randint(0, 1))
    for e in samples:
        cauchy = e.is_zero()
        with monkeypatch.context() as m:
            m.setattr(towers, "_cauchy_normal_form", lambda a: a.terms)
            reference = e.is_zero()
        assert cauchy == reference
    monkeypatch.setattr(TowerElement, "_minimal_polynomial", _no_minimal_polynomial)
    assert all(e.is_zero() for e in samples[::2])


def _complete_homogeneous(ctx, ts, d):
    """h_d(ts) by tower arithmetic."""
    out = ctx.zero
    for combo in combinations_with_replacement(ts, d):
        mono = ctx.one
        for t in combo:
            mono = mono * t
        out = out + mono
    return out


def _cauchy_module_element(ctx, modulus, ts, j):
    """The j-th Cauchy module sum_i a_i h_(i-j+1)(t_1..t_j) of the monic
    modulus, built by tower arithmetic."""
    a = modulus.monic().coeffs
    return sum((a[i] * _complete_homogeneous(ctx, ts[:j], i - j + 1)
                for i in range(j - 1, len(a))), ctx.zero)


def _random_polynomial(rng, ctx, ts, degree, terms=3):
    """A random integer polynomial in the generators ts, each exponent below
    degree."""
    out = ctx.constant(rng.randint(-9, 9))
    for _ in range(terms):
        mono = ctx.constant(rng.choice([-7, -2, -1, 1, 3, 8]))
        for t in ts:
            mono = mono * t ** rng.randrange(degree)
        out = out + mono
    return out


def test_cauchy_stage_decides_ideal_members_of_nonmonic_moduli(monkeypatch):
    """Ideal members over moduli whose primitive integer lead is not 1 are
    decided zero by the Cauchy stage alone."""
    rng = random.Random(2124)
    moduli = [_random_modulus(rng, rng.randint(2, 5)) for _ in range(4)]
    moduli += [Curve(QUARTIC_F).section_poly(Fraction(1, 3)),
               Curve(SEPTIC_F).section_poly(Fraction(2, 5))]
    assert all(m.to_int_coeffs()[0][-1] != 1 for m in moduli)
    monkeypatch.setattr(TowerElement, "_minimal_polynomial", _no_minimal_polynomial)
    for modulus in moduli:
        r = modulus.degree
        ctx = TowerContext()
        ts = []
        for rid in rng.sample(range(r), rng.randint(2, min(4, r))):
            ctx, t = adjoin(ctx, modulus, rid)
            ts.append(t)
        for j in range(2, len(ts) + 1):
            module = _cauchy_module_element(ctx, modulus, ts, j)
            assert module and module.is_zero()
            member = _random_polynomial(rng, ctx, ts, r) * module
            assert member and member.is_zero()
            assert not (member + ts[0]).is_zero()
    # e_i(t_1..t_r) = (-1)^i a_(r-i) over every root of a section
    for f, x in ((QUARTIC_F, Fraction(1, 2)), (SEPTIC_F, Fraction(-3, 4))):
        ctx = TowerContext()
        curve = Curve(f)
        ys = [pt.y for pt in curve.section_roots(x, ctx)]
        a = curve.section_poly(x).monic().coeffs
        r = len(ys)
        for i in range(1, r + 1):
            e = ctx.zero
            for combo in combinations(ys, i):
                mono = ctx.one
                for y in combo:
                    mono = mono * y
                e = e + mono
            assert (e - (-1) ** i * a[r - i]).is_zero()
            assert not (e - (-1) ** i * a[r - i] + 1).is_zero()


def test_is_zero_cauchy_agrees_with_reference_on_nonmonic_moduli(monkeypatch):
    """Same verdicts with the Cauchy stage as without it, over two moduli of
    non-1 primitive lead in one context, with a repeated root id, and with
    products whose total degree crosses a power of two."""
    rng = random.Random(2125)
    quartic = Curve(QUARTIC_F).section_poly(Fraction(1, 2))   # 16 y^4 - 15
    cubic = UPoly([-1, 2, 0, 3])                               # 3 t^3 + 2 t - 1
    ctx = TowerContext()
    q = []
    for rid in (0, 1, 0):  # the third generator repeats the first's root
        ctx, t = adjoin(ctx, quartic, rid)
        q.append(t)
    c = []
    for rid in (0, 2):
        ctx, t = adjoin(ctx, cubic, rid)
        c.append(t)
    module = _cauchy_module_element(ctx, quartic, q, 2)
    ideal = [
        (module, q[:2] + c[:1], 4),
        (module, q[1:], 4),
        (_cauchy_module_element(ctx, cubic, c, 2), c + q[:1], 3),
        (q[0] - q[2], q[2:], 4),  # zero only by the later stages
    ]
    samples, cauchy_zeros = [], []
    for factor, ts, degree in ideal:
        for _ in range(3):
            zero = _random_polynomial(rng, ctx, ts, degree, terms=2) * factor
            samples += [zero, zero + rng.choice(ts) - rng.randint(0, 1)]
            if factor is not ideal[-1][0]:
                cauchy_zeros.append(zero)
    # total degrees 3 -> 4 and 7 -> 8 around the packing width's steps
    for mono in (q[0] * q[1] ** 2, q[0] ** 2 * q[1] ** 2,
                 q[0] ** 3 * q[1] ** 3 * c[0], q[0] ** 3 * q[1] ** 3 * c[0] ** 2):
        samples += [mono * module, mono * module + mono]
        cauchy_zeros.append(mono * module)
    for e in samples:
        cauchy = e.is_zero()
        with monkeypatch.context() as m:
            m.setattr(towers, "_cauchy_normal_form", lambda a: a.terms)
            reference = e.is_zero()
        assert cauchy == reference
    monkeypatch.setattr(TowerElement, "_minimal_polynomial", _no_minimal_polynomial)
    assert all(e.is_zero() for e in cauchy_zeros)


def _minimal_polynomial_by_echelon(a):
    """TowerElement._minimal_polynomial as it was first written: its own
    echelon over Fractions, grown one power 1, a, a^2, ... at a time, each
    reduced by the rows before it while its combination of the powers is
    tracked; the combination of the first power that reduces to nothing is
    the monic minimal polynomial."""
    echelon = []
    power = a.ctx.one
    k = 0
    while True:
        row = dict(power.terms)
        combo = [Fraction(0)] * k + [Fraction(1)]
        for piv, brow, bcombo in echelon:
            v = row.get(piv)
            if not v:
                continue
            f = v / brow[piv]
            for kk, vv in brow.items():
                nv = row.get(kk, Fraction(0)) - f * vv
                if nv:
                    row[kk] = nv
                else:
                    row.pop(kk, None)
            for i, c in enumerate(bcombo):
                if c:
                    combo[i] -= f * c
        if not row:
            return combo
        piv = min(row)
        echelon.append((piv, row, combo))
        power = power * a
        k += 1


def test_minimal_polynomial_matches_the_echelon():
    # random elements of 1 to 3 generators, generators sharing one modulus
    # with distinct roots, a reducible modulus, a rational element and zero
    rng = random.Random(2811)
    elements = []
    while len(elements) < 24:
        ctx = _random_context(rng)
        if len(ctx) > 3 or prod(ctx.degrees) > 12:
            continue
        elements += [_random_element(rng, ctx, False) for _ in range(2)]
    section = UPoly([-1, 2, 0, 1])
    ctx, s0 = adjoin(TowerContext(), section, 0)
    ctx, s2 = adjoin(ctx, section, 2)
    elements += [s0 - s2, s0 * s2 + 1, s0 + s2 + 3 * s0 * s2,
                 _random_element(rng, ctx, False)]
    reducible = UPoly([-1, 1, -1, 1])  # (t - 1)(t^2 + 1)
    for rid in range(3):
        ctx, t = adjoin(TowerContext(), reducible, rid)
        elements += [t - 1, t * t + 1, t * t - 2 * t + Fraction(1, 3)]
    elements += [ctx.constant(Fraction(-7, 3)), ctx.zero]
    assert {len(a.present_generators()) for a in elements} >= {0, 1, 2, 3}
    for a in elements:
        mu = a._minimal_polynomial()
        assert mu == _minimal_polynomial_by_echelon(a)
        assert mu[-1] == 1
        assert not sum((c * a ** k for k, c in enumerate(mu)), a.ctx.zero)


def test_is_zero_rejects_minimal_polynomial_with_double_root_at_zero(monkeypatch):
    ctx = TowerContext()
    ctx, a = adjoin(ctx, SQRT2, 1)
    ctx, b = adjoin(ctx, SQRT2, 1)
    monkeypatch.setattr(TowerElement, "_minimal_polynomial",
                        lambda self: [Fraction(0), Fraction(0), Fraction(1)])
    with pytest.raises(NotSquareFree):
        (a - b).is_zero()


def test_context_mismatch():
    _, r2 = adjoin(TowerContext(), SQRT2, 1)
    _, other = adjoin(TowerContext(), SQRT2, 1)
    with pytest.raises(ContextMismatch):
        r2 + other


def test_adjoin_requires_squarefree():
    with pytest.raises(NotSquareFree):
        adjoin(TowerContext(), UPoly([0, 0, 1]), 0)


def test_approximate_sqrt2():
    _, r2 = adjoin(TowerContext(), SQRT2, 1)
    v = r2.approximate(10)
    with mp.workdps(30):
        assert abs(v - mp.sqrt(2)) < mp.mpf(10) ** -10


def test_approximate_real_cubic_root():
    ctx, y = adjoin(TowerContext(), UPoly([-1, 2, 0, 1]), 2)  # real root
    v = y.approximate(5)
    assert abs(v.real - mp.mpf("0.45340")) < 1e-4
    assert abs(v.imag) < 1e-5


def test_approximate_rational():
    ctx = TowerContext()
    v = ctx.constant(Fraction(3, 7)).approximate(3)
    assert abs(v.real - mp.mpf(3) / 7) < 1e-3


def test_approximate_consistency_under_doubling():
    ctx = TowerContext()
    ctx, r2 = adjoin(ctx, SQRT2, 0)
    ctx, c3 = adjoin(ctx, CUBE3, 0)
    e = 3 * r2 * c3 - Fraction(7, 5) * c3 + 1
    v1 = e.approximate(20)
    v2 = e.approximate(40)
    with mp.workdps(60):
        assert abs(mp.mpc(v1) - mp.mpc(v2)) < 2 * mp.mpf(10) ** -20


def test_eval_bpoly_on_curve_root():
    sec = CUBIC_F.subs_x(Fraction(0))
    ctx, y1 = adjoin(TowerContext(), sec.monic(), 0)
    assert eval_bpoly(CUBIC_F, 0, y1).is_zero()


def test_eval_bpoly_affine():
    ctx, r2 = adjoin(TowerContext(), SQRT2, 1)
    p = BPoly({(1, 0): 1, (0, 1): 1})
    assert eval_bpoly(p, 1, r2) == r2 + 1


def test_eval_bpoly_cube_root_section():
    # f(1, y) = -y^3 + 3 vanishes at the cube roots of 3
    ctx, c = adjoin(TowerContext(), CUBE3, 0)
    assert eval_bpoly(CUBIC_F, 1, c).is_zero()


def test_concurrent_refinement_is_consistent():
    from concurrent.futures import ThreadPoolExecutor

    ctx = TowerContext()
    ctx, r2 = adjoin(ctx, SQRT2, 1)
    ctx, c3 = adjoin(ctx, CUBE3, 2)
    e = 3 * r2 * c3 - 7
    with ThreadPoolExecutor(6) as ex:
        vals = list(ex.map(lambda k: e.approximate(25 + 5 * (k % 3)), range(12)))
    with mp.workdps(50):
        ref = mp.mpc(e.approximate(35))
        assert all(abs(mp.mpc(v) - ref) < mp.mpf(10) ** -20 for v in vals)


def test_serialization_shape():
    ctx, r2 = adjoin(TowerContext(), SQRT2, 1)
    doc = (r2 + Fraction(1, 3)).serialize(digits=12)
    assert doc["generators"][0]["modulus_int_coeffs"] == ["-2", "0", "1"]
    assert doc["generators"][0]["root_index"] == 1
    assert ["re" in doc["decimal"], "im" in doc["decimal"]] == [True, True]
    coeffs = dict((tuple(k), v) for k, v in doc["coefficients"])
    assert coeffs[()] == "1/3"
    assert coeffs[(1,)] == "1"


# The decimal path as it was written on mpmath objects; the raw-part path
# must print exactly what these print.

def _reference_center(ball, digits):
    """approximate's value: the disc's center at its precision, rebuilt by
    mp.mpc under a context of digits + 5 digits."""
    q = ball.den << ball.prec
    c = mp.make_mpc((from_rational(ball.re, q, ball.prec, round_nearest),
                     from_rational(ball.im, q, ball.prec, round_nearest)))
    with mp.workdps(digits + 5):
        return mp.mpc(c)


def _reference_approximate(a, digits):
    attempt = 0
    while True:
        ball = a._ball(digits + 10 + attempt * 20)
        if ball.rad * 2 * 10 ** digits < ball.den << ball.prec:
            return _reference_center(ball, digits)
        attempt += 1


def _reference_decimal_parts(value, digits):
    with mp.workdps(digits + 5):
        tiny = mp.mpf(10) ** (-digits) / 2
        return {part: "0.0" if abs(x) < tiny else mp.nstr(x, digits)
                for part, x in (("re", value.real), ("im", value.imag))}


def _reference_record(ext):
    center = ext.refine_to(22).center
    return {"modulus_int_coeffs": [str(c) for c in ext.int_coeffs],
            "root_index": ext.root_id,
            "root_approx": {"re": mp.nstr(center.real, 20),
                            "im": mp.nstr(center.imag, 20)}}


def _center_part(rng, digits, q):
    """A center numerator over q: zero, within 3 units of the 0.0 threshold
    10^-digits/2, or of a random magnitude from far below it to 10^40, so
    that both fixed and exponent formats print; either sign."""
    kind = rng.random()
    if kind < 0.1:
        return 0
    if kind < 0.3:
        v = round(Fraction(q, 2 * 10 ** digits)) + rng.randint(-3, 3)
    else:
        v = int(Fraction(10) ** rng.randint(-digits - 3, 40) * q
                * Fraction(rng.randint(1, 10 ** 6), 10 ** 6))
    return rng.choice((1, -1)) * v


def test_decimal_path_prints_what_the_mpmath_object_path_prints():
    prec0 = mp.mp.prec
    rng = random.Random(2009)
    formats = set()
    for _ in range(3000):
        digits = rng.choice((rng.randint(1, 40), rng.randint(1, 300)))
        prec = int((digits + 10) * 3.4) + 40
        den = rng.choice((1, rng.randint(1, 10 ** rng.randint(1, 40))))
        q = den << prec
        ball = towers._Disc(_center_part(rng, digits, q), _center_part(rng, digits, q),
                            0, den, prec)
        ref = _reference_center(ball, digits)
        got = mp.make_mpc(ball.center_parts(dps_to_prec(digits + 5)))
        assert got._mpc_ == ref._mpc_
        text = towers.decimal_parts(got, digits)
        assert text == _reference_decimal_parts(ref, digits)
        formats.update("e" in t for t in text.values() if t != "0.0")
        # an unrounded center: the 0.0 test rounds |part| as abs() did
        raw = ball.c
        assert towers.decimal_parts(raw, digits) == _reference_decimal_parts(raw, digits)
    assert formats == {True, False}
    # 10^-digits is rounded at the precision it is asked for
    for digits in (1, 30, 300):
        assert towers._ten_to_minus(digits, mp.mp.prec) == mp.mpf(10) ** -digits
        with mp.workprec(200):
            target = towers._ten_to_minus(digits, mp.mp.prec)
            assert target._mpf_ == (mp.mpf(10) ** -digits)._mpf_
    assert mp.mp.prec == prec0


def test_approximate_and_serialize_match_the_mpmath_object_path():
    prec0 = mp.mp.prec
    rng = random.Random(1848)
    elements = _haupt_shaped_elements(rng)
    for _ in range(4):
        ctx = _random_context(rng)
        elements += [_random_element(rng, ctx, big) for big in (False, True) for _ in range(2)]
    for a in elements:
        exts = [a.ctx.extensions[i] for i in a.present_generators()]
        before = [ext.serialize() for ext in exts]
        assert before == [_reference_record(ext) for ext in exts]
        for digits in (1, 12, 30, 60, 120):
            v = a.approximate(digits)
            assert v._mpc_ == _reference_approximate(a, digits)._mpc_
            doc = a.serialize(digits)
            assert doc["decimal"] == {**_reference_decimal_parts(v, digits), "digits": digits}
            assert doc["generators"] == [_reference_record(ext) for ext in exts]
    # a record is handed out as a copy
    ext = elements[0].ctx.extensions[0]
    record = ext.serialize()
    record["modulus_int_coeffs"].append("9")
    record["root_approx"]["re"] = "9"
    assert ext.serialize() == _reference_record(ext)
    assert mp.mp.prec == prec0


def test_a_generator_record_is_built_once_per_root_and_copied_out():
    # two requests' contexts adjoin the same root: the center's texts are
    # printed once, and a caller that edits its copy changes no later one
    towers._center_texts.cache_clear()
    modulus = UPoly([-2, 0, 3])
    for _ in range(2):
        ctx, _ = adjoin(TowerContext(), modulus, 1)
        record = ctx.extensions[0].serialize()
        assert record == _reference_record(ctx.extensions[0])
        record["modulus_int_coeffs"].append("9")
        record["root_approx"]["re"] = "9"
        record["root_index"] = 0
    assert towers._center_texts.cache_info().misses == 1
    assert ctx.extensions[0].serialize() == _reference_record(ctx.extensions[0])


# y^4 + 10^-12 y - 1 + 10^-48, the section of x^4 + y^4 + xy - 1 over
# x = 10^-12: the real part of its root 1 is about 2.5e-13, and its
# isolation disc is already narrower than 10^-22
TINY_RE = UPoly([Fraction(1, 10 ** 48) - 1, Fraction(1, 10 ** 12), 0, 0, 1])


def test_a_generator_record_is_read_from_its_22_digit_disc_after_any_refinement():
    # the record is read from the 22-digit disc whether it is built first or
    # after a refinement to 200 digits, whose center reads 2.5e-13 to 20
    # digits where the 22-digit disc's reads 2.4999999999999999497e-13
    records = []
    for first in (None, 200):
        ctx, _ = adjoin(TowerContext(), TINY_RE, 1)
        ext = ctx.extensions[0]
        if first:
            ext.refine_to(first)
        records.append(ext.serialize())
        ext.refine_to(200)
        assert ext.serialize() == records[-1] == _reference_record(ext)
    assert records[0] == records[1]
    assert records[0]["root_approx"]["re"] == "2.4999999999999999497e-13"
    assert mp.nstr(ext.refine_to(200).center.real, 20) == "2.5e-13"


def _term_by_term(p, x, y):
    """eval_bpoly as it was computed before nesting (BPoly.eval): every
    monomial c x^i y^j from its own power of y, summed one at a time."""
    result = p.eval(Fraction(x), y)
    return result if isinstance(result, TowerElement) else y.ctx.constant(result)


def test_eval_bpoly_matches_term_by_term_evaluation():
    rng = random.Random(1979)

    def ratio():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    def element(gens):
        """A few terms in the given generators, or a rational."""
        n = len(ctx)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = [0] * n
            for g in rng.sample(gens, min(len(gens), rng.randint(0, 2))):
                exps[g] = rng.randrange(ctx.degrees[g])
            terms[_key(*exps)] = ratio() or Fraction(1)
        return TowerElement(ctx, terms)

    def poly(ydeg, coeff):
        return BPoly({(rng.randrange(4), rng.randint(0, ydeg)): coeff()
                      for _ in range(rng.randint(1, 8))})

    for degree in range(2, 8):
        f = BPoly({(degree, 0): 1, (0, degree): 1, (0, 0): -1,
                   (1, rng.randrange(degree - 1)): rng.randint(1, 3)})
        curve = Curve(f, assume_smooth=True)
        xs = [x for x in (Fraction(k, 2) for k in range(-6, 7))
              if curve.section_poly(x).degree == degree and is_squarefree(curve.section_poly(x))]
        ctx = TowerContext()
        sections = [curve.section_roots(x, ctx) for x in xs[:2]]
        for sec, other in (sections, sections[::-1]):
            others = sorted({g for pt in other for g in pt.y.present_generators()})
            for pt in sec:
                own = pt.y.present_generators()
                assert pt.y.terms == {_key(*[0] * own[0], 1): 1}
                polys = [f, curve.fy, poly(degree - 1, ratio), poly(degree + 2, ratio),
                         poly(degree - 1, lambda: element(others)),
                         poly(degree + 1, lambda: element(others + own)),
                         poly(degree - 1, lambda: rng.choice((ratio(), element(own)))),
                         BPoly(), poly(0, ratio)]   # zero and y-free: still elements
                # the section ordinate, then three that are no bare generator
                for y in (pt.y, 2 * pt.y, Fraction(3, 2) * pt.y - 1, ctx.constant(ratio())):
                    for p in polys:
                        got = eval_bpoly(p, pt.x, y)
                        assert isinstance(got, TowerElement), (degree, p, y)
                        assert got.terms == _term_by_term(p, pt.x, y).terms, (degree, p, y)
                assert not eval_bpoly(f, pt.x, pt.y).terms


def test_eval_bpoly_at_a_bare_generator_matches_bpoly_eval():
    # the powers of a bare generator are reduced by the product's routine, on
    # packed fields wide enough for a y-degree past the generator's degree
    ctx, r2 = adjoin(TowerContext(), SQRT2, 1)
    got = eval_bpoly(SEPTIC_F, Fraction(1, 2), r2)
    want = {(): Fraction(1, 128) - Fraction(3, 2), (1,): Fraction(8)}
    assert got.terms == _term_by_term(SEPTIC_F, Fraction(1, 2), r2).terms == want
    _assert_canonical(got, want)
    rng = random.Random(30)
    contexts = [_random_context(rng) for _ in range(6)]
    # a degree-2 generator between two others, whose fields an overflow of
    # its own would corrupt
    ctx = TowerContext()
    for modulus in (CUBE3, SQRT2, SQRT3):
        ctx, _ = adjoin(ctx, modulus, 1)
    contexts.append(ctx)
    for ctx in contexts:
        for g in range(len(ctx)):
            d = ctx.degrees[g]
            if d < 2:
                continue        # the generator of a linear modulus is rational
            y = ctx.generator(g)
            for big in (False, True):
                coeffs = [lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                          lambda: _random_element(rng, ctx, big)]
                p = BPoly({(rng.randrange(4), rng.randint(0, 2 * d + 3)): rng.choice(coeffs)()
                           for _ in range(rng.randint(1, 8))})
                x = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                got = eval_bpoly(p, x, y)
                _assert_canonical(got, _term_by_term(p, x, y).terms)


def test_locate_finds_the_first_generator_of_a_modulus_and_root():
    ctx = TowerContext()
    assert ctx.locate(UPoly([-2, 0, 1]), 0) is None
    adjoin(ctx, UPoly([-2, 0, 1]), 1)
    adjoin(ctx, UPoly([-3, 0, 1]), 1)
    # adjoin itself never deduplicates: the same (modulus, root) twice
    adjoin(ctx, UPoly([-4, 0, 2]), 1)
    assert len(ctx) == 3
    # an equal but distinct polynomial, not monic, with trailing zeros
    assert ctx.locate(UPoly([Fraction(-6), 0, Fraction(3), 0]), 1) == 0
    assert ctx.locate(UPoly([-3, 0, 1]), 1) == 1
    assert ctx.locate(UPoly([-2, 0, 1]), 0) is None
    assert towers.locate_or_adjoin(ctx, UPoly([-1, 0, Fraction(1, 2)]), 1) == ctx.generator(0)
    assert len(ctx) == 3


# the target contexts hold sqrt 2 and the cube root of 3 past a foreign
# generator, swapped, and swapped around a foreign generator
@pytest.mark.parametrize("layout", [("s", "x", "c"), ("c", "s"), ("c", "x", "s")],
                         ids=["foreign-between", "swapped", "swapped-around-foreign"])
def test_attach_rebinds_detached_elements_past_new_generators(layout):
    # detached in a context of sqrt 2 and a cube root of 3, attached where
    # they sit at other indices, in either order: the same operations give
    # the same elements, term for term, and the same discs and records
    rng = random.Random(1234)
    old = TowerContext()
    old, s = adjoin(old, SQRT2, 1)
    old, c = adjoin(old, CUBE3, 2)
    new = TowerContext()
    gens = {}
    for name in layout:
        modulus, root_id = {"s": (SQRT2, 1), "x": (UPoly([-5, 0, 1]), 0), "c": (CUBE3, 2)}[name]
        new, gens[name] = adjoin(new, modulus, root_id)
    s2, c2 = gens["s"], gens["c"]

    def build(s, c):
        out = [s.ctx.constant(Fraction(-7, 3)), s.ctx.zero, c, s * c + 1]
        for _ in range(4):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
            a = coeffs[0] + coeffs[1] * s + coeffs[2] * c * c + coeffs[3] * s * c
            out.append((a * a + c).invert())
        return out
    state = rng.getstate()
    detached = towers.detach(build(s, c))
    rng.setstate(state)
    expected = build(s2, c2)
    assert [(m, r) for m, r in detached.generators] == [(SQRT2, 1), (CUBE3, 2)]
    attached = towers.attach(detached, new)
    for a, b in zip(attached, expected, strict=True):
        assert a.ctx is new and a == b and a.nums == b.nums
        if b.present_generators():
            assert a._ball(30) == b._ball(30)
        assert a.serialize(30) == b.serialize(30)


def _disc(root):
    return root.center._mpc_, root.radius._mpf_, root.prec


def test_a_generators_disc_at_given_digits_is_the_same_after_any_refinement():
    # each root's disc at each number of digits, read first in a context of
    # its own, is read again after refinements at other digits, in contexts
    # that hold the roots in other orders, and after a detach and an attach
    # into yet another order, with the shared refinements forgotten
    digits = (1, 12, 15, 22, 30, 60, 200)
    roots = [(SQRT2, 1), (CUBE3, 2), (TINY_RE, 1)]

    def discs(ctx):
        return [[_disc(ext.refine_to(d)) for d in digits] for ext in ctx.extensions]
    fresh = []
    for modulus, root_id in roots:
        fresh += discs(adjoin(TowerContext(), modulus, root_id)[0])
    # the isolation disc wherever it is narrower than 10^-digits already
    shortcuts = 0
    for (modulus, root_id), row in zip(roots, fresh):
        isolated = isolate_roots(modulus)[root_id]
        for d, disc in zip(digits, row):
            assert mp.make_mpf(disc[1]) < mp.mpf(10) ** -d
            if isolated.radius < mp.mpf(10) ** -d:
                assert disc == _disc(isolated)
                shortcuts += 1
    # sqrt 2 and the cube root of 3 at 1, 12 and 15 digits, TINY_RE's root
    # up to 22
    assert shortcuts == 3 + 3 + 4
    roots_module._refined.cache_clear()
    rng = random.Random(47)
    for _ in range(3):
        old, new = TowerContext(), TowerContext()
        for ctx in (old, new):
            for k in rng.sample(range(3), 3):
                adjoin(ctx, *roots[k])
        order = [roots.index((ext.modulus, ext.root_id)) for ext in old.extensions]
        for d in rng.sample(digits, 4):
            for ext in old.extensions:
                ext.refine_to(d)
        assert discs(old) == [fresh[k] for k in order]
        t = [old.generator(i) for i in range(3)]
        towers.attach(towers.detach([t[0] * t[1] + t[2]]), new)
        order = [roots.index((ext.modulus, ext.root_id)) for ext in new.extensions]
        assert discs(new) == [fresh[k] for k in order]


def test_attach_raises_on_a_missing_root_and_on_a_root_held_twice():
    old = TowerContext()
    old, s = adjoin(old, SQRT2, 1)
    old, c = adjoin(old, CUBE3, 0)
    other_root = TowerContext()
    adjoin(other_root, SQRT2, 0)
    adjoin(other_root, CUBE3, 0)
    with pytest.raises(towers.AbeldiffError, match="no generator"):
        towers.attach(towers.detach([s + c]), other_root)
    # a*b + a with a and b both the root 1 of y^2 - 2 is 2 + sqrt 2; where
    # the root is one generator, relabelling would give sqrt 2 + 1
    twice = TowerContext()
    twice, a = adjoin(twice, SQRT2, 1)
    twice, b = adjoin(twice, SQRT2, 1)
    once = TowerContext()
    adjoin(once, SQRT2, 1)
    with pytest.raises(towers.AbeldiffError, match="one generator"):
        towers.attach(towers.detach([a * b + a]), once)


def test_a_unit_inverts_in_every_generator_order():
    # t1, t2 the roots 0 and 1 of y^3 - 2, t3 the root 2 of y^4 - 15: the
    # leading coefficient of a in t3 over t1, t2 is a zero divisor, so
    # Euclid in whichever generator was adjoined last could fail in one
    # order and not another
    cube2, quartic15 = UPoly([-2, 0, 0, 1]), UPoly([-15, 0, 0, 0, 1])
    roots = [(cube2, 0), (cube2, 1), (quartic15, 2)]
    inverses = []
    for order in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        ctx, t = TowerContext(), {}
        for k in order:
            ctx, t[k] = adjoin(ctx, *roots[k])
        t1, t2, t3 = t[0], t[1], t[2]
        a = (t1 ** 2 * t3 ** 2 - t2 ** 2 * t3 ** 2
             + Fraction(3, 2) * t1 ** 2 * t2 ** 2 * t3 + 2 * t1 * t2 * t3)
        inv = a.invert()
        assert a * inv == ctx.one
        inverses.append(towers.detach([inv]))
    one = TowerContext()
    for root in roots:
        one, _ = adjoin(one, *root)
    first, *rest = (towers.attach(d, one)[0] for d in inverses)
    assert all(other == first for other in rest)


def test_exponent_tuples_at_the_boundary():
    # elements keep packed keys; terms, the constructor and serialize speak
    # in exponent tuples without trailing zeros
    rng = random.Random(2718)
    for _ in range(12):
        ctx = _random_context(rng)
        elements = [ctx.zero, ctx.one] + [ctx.generator(j) for j in range(len(ctx))]
        for big in (False, True):
            a, b = _random_element(rng, ctx, big), _random_element(rng, ctx, big)
            elements += [a, a * b + b, a * a * b]
        for a in elements:
            assert TowerElement(ctx, dict(a.terms)) == a
            keys = list(a.terms)
            assert all(type(k) is tuple and len(k) <= len(ctx) and (not k or k[-1])
                       for k in keys)
            listed = [tuple(k) for k, _ in a.serialize()["coefficients"]]
            assert listed == sorted(keys)
            assert a.present_generators() == sorted({i for k in keys
                                                     for i, e in enumerate(k) if e})


def test_a_modulus_past_the_exponent_field_is_refused_before_isolation(monkeypatch):
    # a product of two reduced elements has exponents up to 2 deg - 2, which
    # a 16-bit field holds up to deg = 2^15
    def isolate(_):
        raise AssertionError("isolated a modulus past the field")
    monkeypatch.setattr(towers, "isolate_roots", isolate)
    with pytest.raises(ValueError, match="overflow"):
        adjoin(TowerContext(), UPoly([-2] + [0] * 2 ** 15 + [1]), 0)


def test_a_y_degree_past_the_exponent_field_is_refused():
    # at a generator of degree 2, y^(2^16 - 2) needs exponent 2^16 - 1 and
    # y^(2^16 - 1) one past it
    ctx, t = adjoin(TowerContext(), SQRT2, 1)
    with pytest.raises(ValueError, match="overflow"):
        eval_bpoly(BPoly({(0, 2 ** 16 - 1): 1}), 0, t)
    assert eval_bpoly(BPoly({(1, 7): 1}), 2, t) == 2 * t ** 7 == 16 * t


def test_a_power_takes_no_square_past_its_top_bit(monkeypatch):
    # n's set bits multiply into the result, and each bit below the top one
    # takes one square
    ctx, t = adjoin(TowerContext(), CUBE3, 2)
    expected = [ctx.one]
    for _ in range(8):
        expected.append(expected[-1] * t)
    calls = []
    mul = TowerElement.__mul__
    monkeypatch.setattr(TowerElement, "__mul__", lambda a, b: calls.append(b) or mul(a, b))
    for n in range(1, 9):
        calls.clear()
        assert t ** n == expected[n]
        assert len(calls) == n.bit_count() + n.bit_length() - 1, n


def test_the_constructor_refuses_a_key_that_is_no_reduced_monomial():
    ctx, t = adjoin(TowerContext(), SQRT2, 1)
    assert TowerElement(ctx, {(1,): Fraction(2), (0, 0): Fraction(1, 3)}) == 2 * t + Fraction(1, 3)
    for terms in ({(2,): Fraction(1)},                           # t^2, reduced 2
                  {(1,): Fraction(1), (1, 0): Fraction(1)},      # t twice
                  {(2 ** 16,): Fraction(1)},                     # past the field
                  {(0, 1): Fraction(1)},                         # no t_1 in ctx
                  {(-1,): Fraction(1)}):
        with pytest.raises(ValueError):
            TowerElement(ctx, terms)
    ctx, three = adjoin(ctx, UPoly([-3, 1]), 0)
    assert three == 3 and TowerElement(ctx, {(1, 0, 0): Fraction(1)}) == t
    with pytest.raises(ValueError):     # a degree-1 generator's exponent is 0
        TowerElement(ctx, {(0, 1): Fraction(1)})
    # a key that cannot be packed is no key of the terms
    for key in ((2 ** 16,), (-1,), (Fraction(1, 2),)):
        assert key not in t.terms
        with pytest.raises(KeyError):
            t.terms[key]
    assert t.terms[(1, 0)] == 1


def test_pack_and_unpack_are_inverse_struct_conversions():
    rng = random.Random(3916)
    keys = [(), (65535,), (0, 65535), (65535,) * 30]
    for _ in range(300):
        key = [rng.choice((0, 1, 65535, rng.randrange(65536)))
               for _ in range(rng.randint(1, 30))]
        while key and not key[-1]:
            key.pop()
        keys.append(tuple(key))
    for key in keys:
        k = towers._pack(key)
        assert k == sum(e << 16 * i for i, e in enumerate(key))
        assert towers._unpack(k) == key
        assert towers._pack(key + (0, 0)) == k
    for bad in ((65536,), (-1,), (0, 65536), (3, -1)):
        with pytest.raises(struct.error):
            towers._pack(bad)


def test_cauchy_stage_decides_power_sums_on_wide_keys(monkeypatch):
    """sum_j t_j^m = p_m, m <= 2r - 2, over every root of a section whose
    generators follow 16 others, so that their fields lie past bit 256 of
    the stored keys: the Cauchy stage decides each alone, on those keys."""
    monkeypatch.setattr(TowerElement, "_minimal_polynomial", _no_minimal_polynomial)
    for modulus in (Curve(QUARTIC_F).section_poly(Fraction(1, 2)),
                    Curve(SEPTIC_F).section_poly(Fraction(2, 5))):
        r = modulus.degree
        ctx = TowerContext()
        for i in range(16):
            ctx, _ = adjoin(ctx, SQRT2, i % 2)
        ys = []
        for rid in reversed(range(r)):
            ctx, y = adjoin(ctx, modulus, rid)
            ys.append(y)
        assert all(min(y.nums) >> 256 for y in ys)
        for m, p in enumerate(power_sums(modulus, 2 * r - 1)):
            s = sum((y ** m for y in ys), ctx.zero) - p
            assert s.is_zero(), m
            perturbed = s + ys[m % r]
            assert not perturbed.is_zero(), m
            form = towers._cauchy_normal_form(perturbed)
            assert any(form) and all(k >> 256 for k in form if k), m
