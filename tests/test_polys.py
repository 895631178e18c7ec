import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abeldiff.errors import ZeroPolynomial
from abeldiff.linsolve import bareiss_det
from abeldiff.polys import (BPoly, UPoly, is_squarefree, kronecker_bits,
                            poly_gcd, power_sums, powers, resultant,
                            resultant_matrix, resultant_y, signed_digits)
from abeldiff.towers import TowerContext, adjoin


def test_gcd_common_factor_by_inspection():
    assert poly_gcd(UPoly([-1, 0, 1]), UPoly([-1, 1])) == UPoly([-1, 1])


def test_gcd_with_derivative_is_one():
    p = UPoly([-1, 2, 0, 1])
    assert poly_gcd(p, p.derivative()) == UPoly([1])


def test_gcd_with_zero_is_monic():
    p = UPoly([2, 4])
    assert poly_gcd(p, UPoly()) == UPoly([Fraction(1, 2), 1])
    assert poly_gcd(UPoly(), UPoly()) == UPoly()


def test_hash_is_cached_and_agrees_with_equality():
    p = UPoly([3, 0, -2, 1])
    q = UPoly([Fraction(6, 2), Fraction(0), Fraction(-4, 2), Fraction(1), Fraction(0)])
    assert p == q and p is not q
    assert hash(p) == hash(q) == hash(p) == hash(q)
    assert {p: 1}[q] == 1
    assert hash(UPoly()) == hash(UPoly([0, 0]))


def test_upoly_with_tower_coefficients_stays_unhashable():
    ctx, t = adjoin(TowerContext(), UPoly([-2, 0, 1]), 0)
    p = UPoly([t, 1])
    for _ in range(2):  # a failed hash caches nothing
        with pytest.raises(TypeError):
            hash(p)


def test_squarefree():
    assert is_squarefree(UPoly([-1, 2, 0, 1]))
    assert not is_squarefree(UPoly([0, 0, 1]))
    assert is_squarefree(UPoly([-3, 0, 0, 1]))
    with pytest.raises(ZeroPolynomial):
        is_squarefree(UPoly())


def test_resultant_sign_convention():
    # a's coefficients occupy the top deg(b) rows of the Sylvester matrix
    assert resultant(UPoly([-1, 1]), UPoly([-2, 1])) == -1


def test_resultant_linear_against_quadratic():
    assert resultant(UPoly([1, 0, 1]), UPoly([0, 1])) == 1


def sylvester_matrix(a, b):
    """Sylvester matrix of two coefficient sequences, lowest degree first,
    the last entry of each taken as its leading coefficient even when zero;
    a's coefficients fill the top len(b) - 1 rows."""
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    ra, rb = list(reversed(a)), list(reversed(b))
    rows = [[Fraction(0)] * k + ra + [Fraction(0)] * (size - k - m - 1) for k in range(n)]
    rows += [[Fraction(0)] * k + rb + [Fraction(0)] * (size - k - n - 1) for k in range(m)]
    return rows


def _gauss_det(rows):
    """Determinant by Gaussian elimination over Q, independent of Bareiss."""
    a = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        piv = next((i for i in range(k, len(a)) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            q = a[i][k] / a[k][k]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[k])]
    return det


def _cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _cofactor_det(minor)
    return total


def test_resultant_matches_sylvester_cofactor_oracle():
    a = UPoly([-1, 2, 0, 1])
    b = a.derivative()
    expected = _cofactor_det(sylvester_matrix(a.coeffs, b.coeffs))
    got = resultant(a, b)
    assert got == expected
    assert got != 0


def _random_coeffs(rng, degree):
    """Integers, fractions and zeros, the leading entry zero one time in four."""
    out = []
    for _ in range(degree + 1):
        kind = rng.random()
        out.append(Fraction(0) if kind < 0.2 else
                   Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if kind < 0.5 else
                   Fraction(rng.randint(-30, 30)))
    if rng.random() < 0.25:
        out[-1] = Fraction(0)
    return out


def test_resultant_matrix_determinant_is_the_sylvester_determinant():
    rng = random.Random(2024)
    for m in range(9):
        for n in range(9):
            for _ in range(3):
                a, b = _random_coeffs(rng, m), _random_coeffs(rng, n)
                rows = resultant_matrix(a, b)
                assert len(rows) == max(m, n)
                assert bareiss_det(rows) == _gauss_det(sylvester_matrix(a, b)), (a, b)


def _assert_sylvester_oracle(f, g, got, abscissas):
    """got agrees with the Sylvester determinant of f(x0, y) and g(x0, y),
    on the generic y-degree shape, at every x0."""
    fy, gy = f.coefficients_in_y(), g.coefficients_in_y()
    for x0 in abscissas:
        x0 = Fraction(x0)
        expected = _gauss_det(sylvester_matrix([c.eval(x0) for c in fy],
                                               [c.eval(x0) for c in gy]))
        assert got.eval(x0) == expected, x0


_ABSCISSAS = list(range(-5, 6)) + [Fraction(1, 2), Fraction(-7, 3), Fraction(10, 9)]


def test_resultant_y_matches_sylvester_sampled_oracle():
    rng = random.Random(99)
    x = BPoly.x()
    for trial in range(12):
        dy_f, dy_g = rng.randint(1, 4), rng.randint(0, 3)
        f = BPoly({(i, j): Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3]))
                   for j in range(dy_f) for i in range(rng.randint(0, 3))})
        g = BPoly({(i, j): rng.randint(-5, 5)
                   for j in range(dy_g) for i in range(rng.randint(0, 3))})
        # leading y-coefficients vanish at some of the oracle's abscissas
        # (f's at 0 and 1, g's at -1 or 0), where the y-degree drops
        f = f + (x - 1) * x * BPoly({(0, dy_f): 1})
        g = g + ((x + 1) * Fraction(1, 2) if trial % 2 else 3 * x) * BPoly({(0, dy_g): 1})
        _assert_sylvester_oracle(f, g, resultant_y(f, g),
                                 list(range(-6, 7)) + [Fraction(1, 2), Fraction(-7, 3)])


def test_signed_digits_read_back_every_integer_polynomial():
    rng = random.Random(31)
    for _ in range(200):
        bits = rng.randint(2, 70)
        half = 1 << (bits - 1)
        coeffs = [rng.randint(-half, half - 1) for _ in range(rng.randint(0, 12))]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        v = sum(c << (bits * k) for k, c in enumerate(coeffs))
        assert signed_digits(v, bits) == coeffs
    assert kronecker_bits(1) == 2 and kronecker_bits(2 ** 64 - 1) == 65


def test_resultant_y_leading_coefficient_vanishing_at_the_kronecker_point():
    x, y = BPoly.x(), BPoly.y()
    f0 = y ** 3 + (2 * x - 1) * y + x * x - 3
    g = 3 * y ** 2 + x * y - 5
    # the point 2^B that resultant_y picks for (f0, g): products of the
    # Sylvester rows' 1-norms, 8^2 * 9^3.  The bound of (f, g) counts the
    # coefficient x - 2^B, so resultant_y reads (f, g) at a higher point,
    # where no integer coefficient of f can vanish
    b = kronecker_bits(8 ** 2 * 9 ** 3)
    f = f0 + (x - 2 ** b - 1) * y ** 3      # leading y-coefficient x - 2^B
    assert f.coefficients_in_y()[3].eval(Fraction(2 ** b)) == 0
    got = resultant_y(f, g)
    # at x0 = 2^B the y-degree of f drops; the formal shape still holds
    _assert_sylvester_oracle(f, g, got, _ABSCISSAS + [2 ** b, 2 ** b + 1, 2 ** (b - 1)])


def test_resultant_y_zero_on_a_common_factor():
    x, y = BPoly.x(), BPoly.y()
    h = y ** 2 - x * y + Fraction(1, 3)
    f, g = h * (y - x ** 2 + 2), h * (x * y + 7)
    got = resultant_y(f, g)
    assert got.is_zero
    _assert_sylvester_oracle(f, g, got, _ABSCISSAS)


def test_resultant_y_with_a_y_free_operand_is_its_power():
    x, y = BPoly.x(), BPoly.y()
    f = 2 * y ** 3 - x * y + x ** 2 - 1
    g = BPoly({(2, 0): Fraction(3, 2), (0, 0): -7})
    g_x = g.coefficients_in_y()[0]
    assert resultant_y(f, g) == g_x ** 3
    assert resultant_y(g, f) == g_x ** 3
    _assert_sylvester_oracle(f, g, resultant_y(f, g), _ABSCISSAS)
    _assert_sylvester_oracle(g, f, resultant_y(g, f), _ABSCISSAS)


def test_resultant_y_with_large_coefficients_and_denominators():
    rng = random.Random(1030)
    big = 10 ** 30
    for _ in range(3):
        f = BPoly({(i, j): Fraction(rng.randint(-big, big), rng.choice([1, 7, 10 ** 29 + 3]))
                   for j in range(4) for i in range(3 - j + 1)})
        g = BPoly({(i, j): Fraction(rng.randint(-big, big), rng.choice([1, 3, big + 1]))
                   for j in range(3) for i in range(3)})
        _assert_sylvester_oracle(f, g, resultant_y(f, g), _ABSCISSAS)


def test_resultant_y_at_the_degree_cap():
    # Res_y(y^24 + c, 24 y^23) = 24^24 * c^23 for c = x^24 - 1
    f = BPoly({(24, 0): 1, (0, 24): 1, (0, 0): -1})
    got = resultant_y(f, f.partial_y())
    assert got.degree == 552
    assert got == UPoly([-1] + [0] * 23 + [1]) ** 23 * 24 ** 24
    _assert_sylvester_oracle(f, f.partial_y(), got, [0, 1, Fraction(1, 2), -2])


def test_resultant_zero_iff_common_factor():
    rng = random.Random(7)
    for _ in range(25):
        a = UPoly([rng.randint(-4, 4) for _ in range(rng.randint(2, 5))] + [1])
        b = UPoly([rng.randint(-4, 4) for _ in range(rng.randint(2, 5))] + [1])
        has_common = poly_gcd(a, b).degree > 0
        assert (resultant(a, b) == 0) == has_common
        common = UPoly([rng.randint(-3, 3), 1])
        assert resultant(a * common, b * common) == 0


def test_powers_is_one_chain_of_products_from_one():
    x = Fraction(-2, 3)
    chain = powers(x, 6, Fraction(1))
    assert chain == [x ** k for k in range(6)]
    assert chain[1] is x and all(type(v) is Fraction for v in chain)
    assert powers(3, 4, 1) == [1, 3, 9, 27]
    assert powers(x, 1, Fraction(1)) == [1]
    assert powers(x, 0, Fraction(1)) == powers(x, -1, Fraction(1)) == []
    t = UPoly([1, 1])
    assert powers(t, 3, UPoly([1])) == [UPoly([1]), t, UPoly([1, 2, 1])]


def test_power_sums_examples():
    assert power_sums(UPoly([-1, 2, 0, 1]), 4) == [3, 0, -4, 3]
    assert power_sums(UPoly([-3, 0, 0, 1]), 4) == [3, 0, 0, 9]
    assert power_sums(UPoly([2, -3, 1]), 3) == [2, 3, 5]


def test_power_sums_non_monic_input():
    # roots are unchanged by scaling
    assert power_sums(UPoly([2, -4, 0, -2]), 4) == power_sums(UPoly([-1, 2, 0, 1]), 4)


def test_power_sums_match_numeric_roots():
    rng = random.Random(12345)
    done = 0
    while done < 20:
        deg = rng.randint(2, 6)
        p = UPoly([rng.randint(-6, 6) for _ in range(deg)] + [rng.randint(1, 4)])
        if p.degree != deg or not is_squarefree(p):
            continue
        exact = power_sums(p, deg + 3)
        with mp.workdps(80):
            roots = mp.polyroots(list(reversed(p.to_int_coeffs()[0])),
                                 maxsteps=200, extraprec=200)
            for k, pk in enumerate(exact):
                numeric = mp.fsum(r ** k for r in roots)
                target = mp.mpf(pk.numerator) / pk.denominator
                assert abs(numeric - target) < mp.mpf(10) ** -30
        done += 1


def test_upoly_divmod_roundtrip():
    a = UPoly([1, 2, 3, 4, 5])
    b = UPoly([-1, 0, 2])
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


@settings(max_examples=60, deadline=None)
@given(st.fractions(max_denominator=1000), st.fractions(max_denominator=1000))
def test_rational_arithmetic_roundtrip(a, b):
    # the base scalar stays reduced with a positive denominator and
    # round-trips exactly
    s = (a + b) - b
    assert s == a
    assert s.denominator > 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(max_denominator=20), max_size=6),
       st.lists(st.fractions(max_denominator=20), max_size=6))
def test_upoly_add_sub_roundtrip(ac, bc):
    a, b = UPoly(ac), UPoly(bc)
    assert (a + b) - b == a
    assert a * b == b * a


def test_bpoly_basics():
    f = BPoly({(3, 0): 1, (0, 3): -1, (1, 1): 2, (1, 0): 1, (0, 1): -2, (0, 0): 1})
    assert f.total_degree == 3
    assert f.subs_x(Fraction(1)) == UPoly([3, 0, 0, -1])
    assert f.partial_y() == BPoly({(0, 2): -3, (1, 0): 2, (0, 0): -2})
    assert f.eval(Fraction(1), Fraction(0)) == 3


def test_bpoly_zero_coefficients_dropped():
    assert BPoly({(2, 2): 0, (0, 0): 1}).total_degree == 0
    assert (BPoly({(1, 0): 1}) - BPoly({(1, 0): 1})).is_zero


def test_bpoly_terms_are_read_only():
    # one BPoly is shared by every request that sends its curve text
    terms = {(2, 0): 1, (0, 2): 1, (0, 0): -1}
    f = BPoly(terms)
    with pytest.raises(TypeError):
        f.terms[(0, 0)] = 5
    with pytest.raises(TypeError):
        del f.terms[(2, 0)]
    terms[(0, 0)] = 5                 # the caller's dict is not the polynomial's
    assert f.terms == {(2, 0): 1, (0, 2): 1, (0, 0): -1}
    assert hash(f) == hash(BPoly({(0, 0): -1, (0, 2): 1, (2, 0): 1}))


def test_resultant_y_circle():
    f = BPoly({(2, 0): 1, (0, 2): 1, (0, 0): -1})
    assert resultant_y(f, f.partial_y()) == UPoly([-4, 0, 4])


# -- the integer kernels against Fraction references -----------------------
#
# Each reference is the Fraction algorithm the kernel replaced: long
# division, the monic Euclidean gcd, Newton's identities over the monic
# polynomial's elementary symmetric functions, and substitution by Fraction
# powers.  Every result is unique over Q, so they must agree exactly.


def _ref_divmod(a, b):
    if a.degree < b.degree:
        return UPoly(), a
    rem = list(a.coeffs)
    dq = a.degree - b.degree
    quo = [Fraction(0)] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[b.degree + k] / b.leading
        quo[k] = c
        if c:
            for i, bc in enumerate(b.coeffs):
                rem[i + k] -= c * bc
    return UPoly(quo), UPoly(rem)


def _ref_gcd(a, b):
    a, b = a.monic(), b.monic()
    while not b.is_zero:
        a, b = b, _ref_divmod(a, b)[1].monic()
    return a


def _ref_power_sums(a, count):
    mon = a.monic()
    n = mon.degree
    e = [Fraction(1)] + [(-1) ** i * mon.coeffs[n - i] for i in range(1, n + 1)]
    ps = [Fraction(n)]
    for k in range(1, count):
        acc = Fraction(0)
        for i in range(1, min(k - 1, n) + 1):
            acc += (-1) ** (i - 1) * e[i] * ps[k - i]
        if k <= n:
            acc += (-1) ** (k - 1) * k * e[k]
        ps.append(acc)
    return ps[:count]


def _ref_subs_x(f, x0):
    out = [Fraction(0)] * (f.degree_y + 1)
    for (i, j), c in f.terms.items():
        out[j] += c * x0 ** i
    return UPoly(out)


def _big_rational(rng):
    """A rational with numerator up to 10^30 and denominator up to 10^12,
    zero one time in five."""
    if rng.random() < 0.2:
        return Fraction(0)
    return Fraction(rng.randint(-10 ** rng.randint(0, 30), 10 ** rng.randint(0, 30)),
                    rng.randint(1, 10 ** rng.randint(0, 12)))


def _big_poly(rng, degree):
    """A polynomial of exactly the given degree; its leading coefficient is
    negative or not a unit about half of the time each."""
    cs = [_big_rational(rng) for _ in range(degree)]
    lead = _big_rational(rng) or Fraction(rng.choice([-1, 1]))
    return UPoly(cs + [lead])


def test_divmod_matches_long_division():
    rng = random.Random(31)
    for _ in range(150):
        a = _big_poly(rng, rng.randint(0, 12))
        # a divisor of higher degree and a constant divisor are both drawn
        b = _big_poly(rng, rng.randint(0, 13))
        q, r = a.divmod(b)
        assert (q, r) == _ref_divmod(a, b), (a, b)
        assert q * b + r == a and r.degree < b.degree
        assert a // b == q and a % b == r
    with pytest.raises(ZeroPolynomial):
        UPoly([1, 2]).divmod(UPoly())


def test_poly_gcd_matches_monic_euclid():
    rng = random.Random(32)
    for _ in range(60):
        g = _big_poly(rng, rng.randint(0, 4))
        a = g * _big_poly(rng, rng.randint(0, 8))
        b = g * _big_poly(rng, rng.randint(0, 8))
        got = poly_gcd(a, b)
        assert got == _ref_gcd(a, b), (a, b)
        assert got.degree >= g.degree and got.leading == 1
        assert poly_gcd(a, UPoly()) == _ref_gcd(a, UPoly()) == a.monic()
        assert poly_gcd(UPoly(), b) == b.monic()
    assert poly_gcd(UPoly(), UPoly()) == UPoly()


def test_power_sums_match_newton_over_monic_coefficients():
    rng = random.Random(33)
    for _ in range(40):
        a = _big_poly(rng, rng.randint(1, 12))
        n = a.degree
        # Newton's identities give each p_k from p_0 .. p_(k-1) alone, so the
        # reference's prefixes are its values at smaller counts
        ref = _ref_power_sums(a, 2 * n + 3)
        for count in range(2 * n + 4):
            assert power_sums(a, count) == ref[:count], (a, count)


def test_subs_x_matches_fraction_powers():
    rng = random.Random(34)
    for _ in range(60):
        f = BPoly({(rng.randint(0, 12), rng.randint(0, 8)): _big_rational(rng)
                   for _ in range(rng.randint(1, 20))})
        x0 = rng.choice([_big_rational(rng), Fraction(rng.randint(-9, 9), rng.randint(1, 4))])
        assert f.subs_x(x0) == _ref_subs_x(f, x0), (f, x0)
    assert BPoly().subs_x(Fraction(1, 2)) == UPoly()


def test_int_view_is_cached_and_cannot_be_changed():
    p = UPoly([Fraction(-3, 4), 0, Fraction(9, 2), Fraction(-3, 2)])
    ints, scale = p.to_int_coeffs()
    assert (ints, scale) == ((1, 0, -6, 2), Fraction(-3, 4))
    assert p.to_int_coeffs()[0] is ints
    with pytest.raises(TypeError):
        ints[0] = 5
    copy = list(ints)
    copy[0] = 5
    assert p.to_int_coeffs() == ((1, 0, -6, 2), Fraction(-3, 4))
    assert UPoly().to_int_coeffs() == ((), Fraction(1))


def test_q_only_routines_reject_tower_coefficients():
    ctx, t = adjoin(TowerContext(), UPoly([-2, 0, 1]), 0)
    p = UPoly([t, 1])
    q = UPoly([1, 0, 1])
    for routine in (p.to_int_coeffs, lambda: q.divmod(p), lambda: p.divmod(UPoly([1])),
                    lambda: q % p, lambda: q // p, lambda: poly_gcd(p, q),
                    lambda: poly_gcd(q, p), lambda: is_squarefree(p),
                    lambda: power_sums(p, 3), lambda: resultant(p, q),
                    lambda: BPoly({(1, 0): t}).subs_x(1),
                    lambda: BPoly({(1, 0): 1}).subs_x(t)):
        for _ in range(2):  # a failed call caches nothing
            with pytest.raises((AttributeError, TypeError)):
                routine()
    # unhashable too: test_upoly_with_tower_coefficients_stays_unhashable


@pytest.mark.parametrize("base, one", [
    (UPoly([Fraction(1, 2), -3, 1]), UPoly([1])),
    (BPoly({(1, 0): 1, (0, 1): 2, (0, 0): Fraction(-1, 3)}), BPoly.const(1)),
], ids=["UPoly", "BPoly"])
def test_a_polynomial_power_takes_no_square_past_its_top_bit(monkeypatch, base, one):
    # as for a tower element: n's set bits multiply into the result, and
    # each bit below the top one takes one square
    expected = [one]
    for _ in range(8):
        expected.append(expected[-1] * base)
    calls = []
    mul = type(base).__mul__
    monkeypatch.setattr(type(base), "__mul__", lambda a, b: calls.append(b) or mul(a, b))
    for n in range(9):
        calls.clear()
        assert base ** n == expected[n]
        assert len(calls) == n.bit_count() + max(n.bit_length() - 1, 0), n
    with pytest.raises(ValueError, match="negative power of a polynomial"):
        base ** -1
