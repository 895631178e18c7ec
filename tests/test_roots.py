import json
import math
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import mpmath as mp
import mpmath.libmp as mp_libmp
import pytest

from abeldiff import cli, roots as roots_mod
from abeldiff.errors import AbeldiffError, NotSquareFree, ZeroPolynomial
from abeldiff.linsolve import bareiss_det
from abeldiff.polys import (UPoly, is_squarefree, kronecker_bits, poly_gcd, resultant,
                            resultant_matrix, signed_digits)
from abeldiff.roots import _Isolator, isolate_roots, refine_root, separation_bound


def _horner_exact(ints, z):
    acc = mp.mpf(0)
    for c in reversed(ints):
        acc = acc * z + c
    return acc


def _exact(x):
    """The mpf x as a Fraction, or the mpc x as a pair of them."""
    if isinstance(x, mp.mpc):
        return _exact(x.real), _exact(x.imag)
    man, exp = x.man_exp                      # man is |mantissa|
    return (-1 if x < 0 else 1) * Fraction(man) * Fraction(2) ** exp


def _dist2(z, w):
    """|z - w|^2 for pairs of Fractions."""
    return (z[0] - w[0]) ** 2 + (z[1] - w[1]) ** 2


def test_two_rational_roots_ordered():
    roots = isolate_roots(UPoly([-1, 0, 1]))
    assert len(roots) == 2
    assert abs(roots[0].center - (-1)) < roots[0].radius
    assert abs(roots[1].center - 1) < roots[1].radius
    assert all(r.conj_index == r.index for r in roots)


def test_cube_root_of_three_ordering():
    # complex pair (re ~ -0.7211) precedes the real root ~ 1.4422;
    # within the pair, negative imaginary part first
    roots = isolate_roots(UPoly([-3, 0, 0, 1]))
    assert len(roots) == 3
    assert roots[0].conj_index != roots[0].index and roots[1].conj_index != roots[1].index
    assert roots[0].conj_index == 1 and roots[1].conj_index == 0
    assert roots[0].center.imag < 0 < roots[1].center.imag
    assert roots[2].conj_index == roots[2].index
    assert abs(roots[2].center - mp.cbrt(3)) < 1e-10


def test_depressed_cubic_roots():
    roots = isolate_roots(UPoly([-1, 2, 0, 1]))  # y^3 + 2y - 1
    real = [r for r in roots if r.conj_index == r.index]
    assert len(real) == 1
    assert abs(real[0].center.real - mp.mpf("0.45339765")) < 1e-6
    pair = [r for r in roots if r.conj_index != r.index]
    assert abs(pair[0].center.real - mp.mpf("-0.22669883")) < 1e-6


def test_root_count_and_residuals():
    for coeffs in ([-1, 0, 1], [-3, 0, 0, 1], [-1, 2, 0, 1], [2, -3, 0, 0, 1]):
        p = UPoly(coeffs)
        roots = isolate_roots(p)
        assert len(roots) == p.degree
        ints, _ = p.to_int_coeffs()
        for r in roots:
            # residual bounded by max|p'| on the disc times the radius (coarse)
            assert abs(_horner_exact(ints, r.center)) < mp.mpf(10) ** 6 * r.radius


def test_exact_real_part_tie_with_real_root():
    # (y - 1)(y^2 - 2y + 2): roots 1, 1 +- i, all with real part exactly 1
    p = UPoly([-2, 4, -3, 1])
    roots = isolate_roots(p)
    assert [r.conj_index == r.index for r in roots] == [False, True, False]
    assert roots[0].center.imag < 0 < roots[2].center.imag
    for r in roots:
        assert abs(r.center.real - 1) < 1e-9


def test_refinement_is_stable():
    p = UPoly([-1, 2, 0, 1])
    roots = isolate_roots(p)
    for r in roots:
        fine = refine_root(p, r, mp.mpf(10) ** -60)
        assert fine.index == r.index
        assert fine.radius < mp.mpf(10) ** -60
        assert abs(fine.center - r.center) <= r.radius + fine.radius


def test_refinements_are_shared_and_equal_a_fresh_computation(monkeypatch):
    p = UPoly([-1, 2, 0, 1])
    target = mp.mpf(10) ** -60

    def disc(r):
        return r.center._mpc_, r.radius._mpf_, r.prec

    roots_mod._isolated.cache_clear()
    roots_mod._refined.cache_clear()
    first, again = isolate_roots(p), isolate_roots(2 * p)
    calls = []
    real_refine = roots_mod._refine

    def counted(*args):
        calls.append(args)
        return real_refine(*args)
    monkeypatch.setattr(roots_mod, "_refine", counted)
    miss = [refine_root(p, r, target) for r in first]
    handed = [refine_root(p, r, target) for r in again]
    assert len(calls) == 3                    # the second pass hits the memo
    assert all(h is m for h, m in zip(handed, miss))
    for r in handed:                          # nobody can alter a shared disc
        for name, value in (("center", r.center + 1), ("radius", mp.mpf(1)),
                            ("prec", 7)):
            with pytest.raises(FrozenInstanceError):
                setattr(r, name, value)
    assert len(calls) == 3
    roots_mod._isolated.cache_clear()
    roots_mod._refined.cache_clear()
    assert [disc(refine_root(p, r, target)) for r in isolate_roots(p)] == \
        [disc(r) for r in miss]


def test_separation_bound_positive_and_below_true_separation():
    sep = separation_bound([-1, 0, 1])  # roots -1, 1: true separation 2
    assert 0 < sep < 2
    sep2 = separation_bound([-3, 0, 0, 1])
    assert 0 < sep2 < 3 ** Fraction(1, 3) * 2


def test_not_squarefree_rejected():
    with pytest.raises(NotSquareFree):
        isolate_roots(UPoly([0, 0, 1]))


def _separation_bound_by_upoly(ints):
    """roots.separation_bound as it was before it took the determinant on
    the integers it is given: the discriminant through UPoly(ints), its
    derivative and polys.resultant.  The reference the direct form must
    reproduce."""
    n = len(ints) - 1
    if n <= 1:
        return Fraction(1)
    p = UPoly(ints)
    disc = resultant(p, p.derivative()) / p.leading
    if disc == 0:
        raise NotSquareFree("polynomial has multiple roots")
    d3 = abs(3 * disc)
    num = math.isqrt(d3.numerator // d3.denominator)
    if num == 0:
        num = Fraction(math.isqrt(d3.numerator), math.isqrt(d3.denominator) + 1)
    if n % 2 == 0:
        npow = n ** ((n + 2) // 2)
    else:
        npow = n ** ((n + 1) // 2) * (math.isqrt(n) + 1)
    norm_up = math.isqrt(sum(c * c for c in ints)) + 1
    return Fraction(num) / (npow * norm_up ** (n - 1))


def _outcome(bound, ints):
    try:
        return bound(ints)
    except NotSquareFree as e:
        return type(e), str(e)


def test_separation_bound_is_the_one_taken_through_upoly():
    # 300 seeded integer polynomials of degree 2-12, coefficients up to
    # 10^6, every fifth one times a squared factor: the same bound, or
    # NotSquareFree in the same cases
    rng = random.Random(300)
    multiple = 0
    for k in range(300):
        deg = rng.randint(2, 12)
        p = UPoly([rng.randint(-10 ** 6, 10 ** 6) for _ in range(deg)]
                  + [rng.choice([-1, 1]) * rng.randint(1, 10 ** 6)])
        if k % 5 == 0:
            p = p * UPoly([rng.randint(-9, 9), rng.randint(1, 9)]) ** 2
        ints = [int(c) for c in p.coeffs]
        got = _outcome(separation_bound, ints)
        assert got == _outcome(_separation_bound_by_upoly, ints), ints
        multiple += isinstance(got, tuple)
    assert multiple >= 60


def test_separation_bound_refuses_a_zero_leading_coefficient():
    with pytest.raises(ValueError, match="zero leading coefficient"):
        separation_bound([1, 2, 0])


def test_isolation_of_a_constant_is_refused():
    for constant in (UPoly(), UPoly([5])):
        with pytest.raises(ZeroPolynomial, match="^root isolation needs degree >= 1$"):
            isolate_roots(constant)


def test_zero_discriminant_has_no_separation_bound():
    # (y - 1)^2: the bound would be 0, below no root distance
    with pytest.raises(NotSquareFree, match="^polynomial has multiple roots$"):
        separation_bound([1, -2, 1])
    with pytest.raises(NotSquareFree, match="^polynomial has multiple roots$"):
        isolate_roots(UPoly([1, -2, 1]))


@pytest.mark.parametrize("poly, gap, centers", [
    # (y^2 - 2y + 2)(y^2 - 2y + 5): two conjugate pairs, all real parts 1
    (UPoly([2, -2, 1]) * UPoly([5, -2, 1]),
     Fraction(547391355690527, 447974633384219461514053911956470342656),
     [1 - 2j, 1 - 1j, 1 + 1j, 1 + 2j]),
    # (y - 1)(y^2 - 2y + 2)
    (UPoly([-2, 4, -3, 1]), Fraction(124, 17796870375), [1 - 1j, 1, 1 + 1j]),
])
def test_real_part_gap_and_order_on_ties(poly, gap, centers):
    assert _Isolator(poly.to_int_coeffs()[0]).re_gap() == gap
    roots = isolate_roots(poly)
    assert len(roots) == len(centers)
    for r, z in zip(roots, centers):
        assert abs(r.center - z) < r.radius


def _kronecker_re_gap(ints):
    """roots._Isolator.re_gap as it was before it took polys.resultant_y:
    its own Kronecker point s = 2^B, from a bound on the midpoint
    polynomial's coefficients, p(2s - y) expanded binomially, one
    determinant and a signed-digit read-back.  The reference the
    resultant_y form must reproduce."""
    n, a = len(ints) - 1, ints
    bits = kronecker_bits(sum(abs(v) for v in a) ** n
                          * sum(abs(v) * 3 ** k for k, v in enumerate(a)) ** n)
    two_s = 1 << (bits + 1)
    q = [0] * (n + 1)
    for k in range(n + 1):
        for j in range(k + 1):
            q[j] += a[k] * math.comb(k, j) * two_s ** (k - j) * (-1) ** j
    big = UPoly(signed_digits(bareiss_det(resultant_matrix(a, q)).numerator, bits))
    sqf = big // poly_gcd(big, big.derivative())
    return (Fraction(1) if sqf.degree <= 1
            else _separation_bound_by_upoly(sqf.to_int_coeffs()[0]))


def test_real_part_gap_is_the_midpoint_resultants_separation_bound():
    # re_gap through resultant_y of p(y) and p(2x - y) against the Kronecker
    # construction it replaced, over 30 seeded square-free polynomials
    rng = random.Random(2718)
    done = 0
    while done < 30:
        deg = rng.randint(2, 7)
        ints = [rng.randint(-12, 12) for _ in range(deg)] + [rng.randint(1, 4)]
        p = UPoly(ints)
        if not is_squarefree(p):
            continue
        prim = p.to_int_coeffs()[0]
        assert _Isolator(prim).re_gap() == _kronecker_re_gap(prim), ints
        done += 1


def test_refinement_leaving_the_isolating_disc_is_an_error(monkeypatch):
    p = UPoly([-1, 2, 0, 1])
    roots_mod._isolated.cache_clear()  # no refinement memoized by an earlier test
    roots_mod._refined.cache_clear()
    root = isolate_roots(p)[0]
    # the kernel certifies a disc about a center 10 away from the root
    monkeypatch.setattr(roots_mod, "_newton",
                        lambda ints, zr, zi, P, target: (zr + (10 << P), zi,
                                                         mp.mpf(10) ** -70))
    with pytest.raises(AbeldiffError, match="does not meet"):
        refine_root(p, root, mp.mpf(10) ** -60)


def test_root_finding_failure_reaches_the_cli_as_an_error_document(monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise mp.libmp.libhyper.NoConvergence("stub")

    # both starts fail: no float seeds, and polyroots from its default points
    monkeypatch.setattr(roots_mod, "_float_seeds", lambda ints: None)
    monkeypatch.setattr(mp, "polyroots", no_convergence)
    roots_mod._isolated.cache_clear()
    code = cli.main(["third-kind", "-f", "x^2+y^2-1", "--x1", "0", "--x2", "1/2",
                     "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["error"] == {"type": "AbeldiffError",
                            "message": "numeric root finding did not converge",
                            "exit_code": 1}


def test_isolation_cache_is_bounded_and_hands_out_the_shared_records():
    assert roots_mod._isolated.cache_info().maxsize == 512
    p = UPoly([-2, 0, 1])
    first = isolate_roots(p)
    with pytest.raises(FrozenInstanceError):
        first[0].radius = mp.mpf(1)
    again = isolate_roots(2 * p)      # same primitive integer polynomial
    assert again[0] is first[0]
    assert again[0].radius < 1
    assert roots_mod._isolated.cache_info().hits >= 1


def test_roots_far_below_one_keep_their_size():
    # +-sqrt(2)*10^-50: a clean-up of the polished seeds below an absolute
    # 2^-(prec+49) would set both to zero, where refinement stalls
    roots_mod._isolated.cache_clear()
    roots_mod._refined.cache_clear()
    p = UPoly([Fraction(-2, 10**100), 0, 1])
    roots = isolate_roots(p)
    with mp.workprec(400):
        root2 = mp.sqrt(2) * mp.mpf(10) ** -50
        for r, z in zip(roots, (-root2, root2)):
            assert abs(r.center - z) < r.radius < root2
            assert r.conj_index == r.index
            fine = refine_root(p, r, root2 * mp.mpf(10) ** -40)
            assert abs(fine.center - z) < fine.radius
    roots_mod._isolated.cache_clear()
    roots_mod._refined.cache_clear()


def test_isolation_does_not_depend_on_the_global_precision():
    # the memo is keyed by the polynomial alone, so a record isolated under
    # a raised mpmath precision must be bit for bit the default one
    def isolated(coeffs):
        roots_mod._isolated.cache_clear()
        return [(r.index, r.center._mpc_, r.radius._mpf_, r.prec, r.conj_index)
                for r in isolate_roots(UPoly(coeffs))]

    polys = [[-3, 0, 0, 1], [1, 1, 1], [-2, 4, -3, 1], [-1, 2, 0, 1], [-1, 0, 0, 0, 0, 1]]
    try:
        with mp.workprec(200):
            raised = [isolated(c) for c in polys]
        assert raised == [isolated(c) for c in polys]
    finally:
        roots_mod._isolated.cache_clear()


def _records(coeffs):
    """Isolation records of coeffs, or the error that ended the isolation."""
    try:
        return [(r.index, r.center, r.radius, r.prec, r.conj_index)
                for r in _Isolator(UPoly(coeffs).to_int_coeffs()[0]).run()]
    except AbeldiffError as e:
        return type(e), str(e)


def _from_roots(*factors):
    p = UPoly([1])
    for f in factors:
        p = p * UPoly(f)
    return p.to_int_coeffs()[0]


WILKINSON = _from_roots(*([-k, 1] for k in range(1, 13)))


def _seeder_cases():
    rng = random.Random(20240611)
    cases = []
    while len(cases) < 40:
        n = 1 + len(cases) % 12
        h = 10 ** rng.randint(0, 30)
        c = [rng.randint(-h, h) for _ in range(n)] + [rng.randint(1, h)]
        if is_squarefree(UPoly(c)):
            cases.append(c)
    cases += [
        WILKINSON,
        [-1] + [0] * 19 + [1],                                  # x^20 - 1
        _from_roots([-1, 1], [-10 ** 8 - 1, 10 ** 8], [1, 0, 1]),  # roots 1e-8 apart
        _from_roots([-10 ** 8, 1], [-10 ** 8 - 1, 1]),
        [-2, 4, -3, 1],                                         # exact real-part ties
        [0, -1, 0, 1],                                          # a root at zero
        [10 ** 400, 1],                                         # a float overflow
        [1, 10 ** 400],                                         # a float underflow
    ]
    return cases


def _assert_same_roots(seeded, unseeded, coeffs):
    """Two isolations of coeffs from different starts: the same errors, or
    the same order and pairing, each center inside the other's disc, both
    radii below sep/4, and the same 20-digit root_approx strings."""
    if isinstance(seeded, tuple) or isinstance(unseeded, tuple):
        assert seeded == unseeded
        return
    quarter = separation_bound(coeffs) / 4
    sep4 = mp.mpf(quarter.numerator) / quarter.denominator
    assert [r[0] for r in seeded] == [r[0] for r in unseeded]
    assert [r[4] for r in seeded] == [r[4] for r in unseeded]
    for (_, c1, r1, _, _), (_, c2, r2, _, _) in zip(seeded, unseeded):
        d2 = _dist2(_exact(c1), _exact(c2))
        assert d2 < _exact(r1) ** 2 and d2 < _exact(r2) ** 2
        assert r1 < sep4 and r2 < sep4
        assert ([mp.nstr(c1.real, 20), mp.nstr(c1.imag, 20)]
                == [mp.nstr(c2.real, 20), mp.nstr(c2.imag, 20)])


@pytest.mark.parametrize("coeffs", _seeder_cases())
def test_float_seeds_leave_the_isolation_records_unchanged(monkeypatch, coeffs):
    seeded = _records(coeffs)
    monkeypatch.setattr(roots_mod, "_float_seeds", lambda ints: None)
    _assert_same_roots(seeded, _records(coeffs), coeffs)


def test_float_seeds_settle_unless_floats_cannot_hold_the_roots():
    unseeded = [c for c in _seeder_cases() if roots_mod._float_seeds(c) is None]
    # Wilkinson's roots are too ill-conditioned to settle to 1e-12 in doubles
    assert unseeded == [WILKINSON, [10 ** 400, 1]]
    assert roots_mod._float_seeds([10 ** 400, 0, 1]) is None


def test_seeds_that_do_not_converge_fall_back_to_the_default_start(monkeypatch):
    coeffs = [-1, 2, 0, -3, 1]
    monkeypatch.setattr(roots_mod, "_float_seeds", lambda ints: None)
    parent = _records(coeffs)
    real = mp.polyroots
    starts = []

    def watched(*args, **kwargs):
        starts.append(kwargs.get("roots_init"))
        return real(*args, **kwargs)

    # Newton's method from seeds this far out shrinks them by about 3/4 a
    # step, so the polish has not settled after its 300 steps
    monkeypatch.setattr(mp, "polyroots", watched)
    monkeypatch.setattr(roots_mod, "_float_seeds",
                        lambda ints: [complex(1e300 * (k + 1), 1e300)
                                      for k in range(len(ints) - 1)])
    assert _records(coeffs) == parent        # both from the default start
    assert starts == [None]


def test_seeds_that_settle_on_one_root_fall_back_to_the_default_start(monkeypatch):
    # roots -14 and -14 + 1e-8: the float seeds are distinct, but Newton's
    # method takes both to one root
    coeffs = _from_roots([14 * 10 ** 8, 10 ** 8], [14 * 10 ** 8 - 1, 10 ** 8])
    seeds = roots_mod._float_seeds(coeffs)
    assert len(set(seeds)) == 2
    assert all(roots_mod._polish(coeffs, [z], 80) for z in seeds)
    assert roots_mod._polish(coeffs, seeds, 80) is None
    starts = []
    real = mp.polyroots

    def watched(*args, **kwargs):
        starts.append(kwargs.get("roots_init"))
        return real(*args, **kwargs)
    monkeypatch.setattr(mp, "polyroots", watched)
    seeded = _records(coeffs)
    assert starts == [None]
    monkeypatch.setattr(roots_mod, "_float_seeds", lambda ints: None)
    assert _records(coeffs) == seeded
    assert [r[4] for r in seeded] == [0, 1]


def test_polished_real_roots_are_exactly_real():
    # roots 10^8 * (671, 396, -630, -789): the polish certifies one of them
    # with an imaginary part of one unit 2^-138, which the clean-up removes,
    # as polyroots' does, so root_approx prints im 0.0
    roots = [671, 396, -630, -789]
    coeffs = _from_roots(*([-r * 10 ** 8, 1] for r in roots))
    polished = roots_mod._polish(coeffs, roots_mod._float_seeds(coeffs), 80)
    assert sorted(int(z.real) for z in polished) == sorted(r * 10 ** 8 for r in roots)
    assert all(z.imag == 0 for z in polished)


def _kernel_cases():
    """Seeded square-free integer polynomials of degree 1-12 with
    coefficients up to 10^30, and products with two roots 1e-8 apart."""
    rng = random.Random(1818)
    cases = []
    while len(cases) < 24:
        n = 1 + len(cases) % 12
        h = 10 ** rng.randint(0, 30)
        c = [rng.randint(-h, h) for _ in range(n)] + [rng.randint(1, h)]
        if is_squarefree(UPoly(c)):
            cases.append(c)
    while len(cases) < 30:
        a = rng.randint(-9, 9)
        rest = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(rng.randint(1, 8))] + [1]
        c = _from_roots([-a, 1], [-a * 10 ** 8 - 1, 10 ** 8], rest)
        if is_squarefree(UPoly(c)):
            cases.append(c)
    return cases


def _value_and_slope(ints, z):
    """p(z) and p'(z) at the pair of Fractions z, as pairs of Fractions."""
    p, dp = (Fraction(ints[-1]), Fraction(0)), (Fraction(0), Fraction(0))
    for c in reversed(ints[:-1]):
        dp = (dp[0] * z[0] - dp[1] * z[1] + p[0], dp[0] * z[1] + dp[1] * z[0] + p[1])
        p = (p[0] * z[0] - p[1] * z[1] + c, p[0] * z[1] + p[1] * z[0])
    return p, dp


def _check_disc(ints, refs, root, center, radius):
    """Of the reference roots, the disc holds root alone, and its radius is
    at least the classical bound n |p(c)/p'(c)| at its own center."""
    c, r = _exact(center), _exact(radius)
    assert [z for z in refs if _dist2(z, c) < r * r] == [root]
    p, dp = _value_and_slope(ints, c)
    n = len(ints) - 1
    assert r * r * _dist2(dp, (0, 0)) >= n * n * _dist2(p, (0, 0))


@pytest.mark.parametrize("ints", _kernel_cases())
def test_integer_newton_kernel_certifies_one_root_per_disc(ints):
    prec = mp.mp.prec
    seeds = roots_mod._float_seeds(ints)
    with mp.workprec(400):                    # Durand-Kerner, from the seeds
        refs = mp.polyroots(list(reversed(ints)), maxsteps=500, extraprec=100,
                            roots_init=seeds and [mp.mpc(z) for z in seeds])
    refs = [(_exact(z.real), _exact(z.imag)) for z in refs]
    quarter = separation_bound(ints) / 4
    target = mp.mpf(quarter.numerator) / quarter.denominator
    for z in refs:
        seed = complex(float(z[0]), float(z[1]))
        zr, zi = ((m << 80) // d for m, d in (seed.real.as_integer_ratio(),
                                             seed.imag.as_integer_ratio()))
        zr, zi, rad = roots_mod._newton(ints, zr, zi, 80, target)
        assert mp.mp.prec == prec
        if rad is None:       # 2^-80 is too coarse: _refine escalates
            center, rad, _ = roots_mod._refine(ints, mp.mpc(seed), mp.inf, target, 80)
        else:
            with mp.workprec(max(zr.bit_length(), zi.bit_length(), 1)):
                center = mp.mpc(mp.ldexp(zr, -80), mp.ldexp(zi, -80))
            assert _exact(center) == (Fraction(zr, 2 ** 80), Fraction(zi, 2 ** 80))
        assert mp.mp.prec == prec
        assert rad < target
        _check_disc(ints, refs, z, center, rad)
        for fine in (rad / 4, target * mp.mpf(2) ** -100):
            got, got_rad, _ = roots_mod._refine(ints, center, rad, fine, 80)
            assert mp.mp.prec == prec
            assert got_rad < fine
            _check_disc(ints, refs, z, got, got_rad)
            assert _dist2(_exact(got), _exact(center)) <= (_exact(got_rad) + _exact(rad)) ** 2
            center, rad = got, got_rad
    polished = None if seeds is None else roots_mod._polish(ints, seeds, 80)
    assert mp.mp.prec == prec
    if polished is not None:                  # one root each, to 2^-129
        hit = []
        for z in polished:
            near = [_dist2(_exact(z), w) for w in refs]
            hit.append(near.index(min(near)))
            assert min(near) < Fraction(1, 2 ** 258) * max(1, _dist2(_exact(z), (0, 0)))
        assert sorted(hit) == list(range(len(refs)))


@pytest.mark.parametrize("ints, center, radius, message", [
    ([1, 0, 1], mp.mpc(0), mp.inf, "stalled at"),            # p'(0) = 0
    ([-2, 0, 1], mp.mpc(1.5), mp.mpf(10) ** -3, "does not meet"),  # sqrt(2)
])
def test_integer_newton_refinement_errors_leave_the_precision_alone(
        ints, center, radius, message):
    prec = mp.mp.prec
    with pytest.raises(AbeldiffError, match=message):
        roots_mod._refine(ints, center, radius, mp.mpf(10) ** -20, 80)
    assert mp.mp.prec == prec


def test_isolation_retries_at_four_times_the_precision(monkeypatch):
    # a first start that puts both seeds on one root leaves overlapping
    # discs; the isolation starts again at 4 x 80 bits
    real, calls = roots_mod._initial_roots, []

    def one_root_twice(ints, prec):
        calls.append(prec)
        found = real(ints, prec)
        return [found[0]] * len(found) if len(calls) == 1 else found
    monkeypatch.setattr(roots_mod, "_initial_roots", one_root_twice)
    roots_mod._isolated.cache_clear()
    try:
        roots = isolate_roots(UPoly([-2, 0, 1]))
    finally:
        roots_mod._isolated.cache_clear()
    assert calls == [80, 320]
    for r, z in zip(roots, (-mp.sqrt(2), mp.sqrt(2))):
        assert abs(r.center - z) < r.radius and r.prec == 320


def test_isolation_that_never_separates_the_roots_is_an_error(monkeypatch):
    real = roots_mod._initial_roots
    monkeypatch.setattr(roots_mod, "_initial_roots",
                        lambda ints, prec: [real(ints, prec)[0]] * (len(ints) - 1))
    prec = mp.mp.prec
    roots_mod._isolated.cache_clear()
    with pytest.raises(AbeldiffError,
                       match="^could not isolate all roots into disjoint discs$"):
        isolate_roots(UPoly([-2, 0, 1]))
    assert mp.mp.prec == prec


# -- the float prefilter and the integer radius test -------------------------

def _draw_mpf(rng):
    """A raw mpf of 1 to 200 bits, from 10^-300 to 10^300 in magnitude or
    (one draw in eight) past the float range, either sign, or zero."""
    if rng.random() < 0.05:
        return mp_libmp.fzero
    bits = rng.randint(1, 200)
    size = rng.randint(1031, 1400) if rng.random() < 0.125 else rng.randint(-996, 996)
    man = rng.getrandbits(bits) | 1 << bits - 1
    return mp_libmp.from_man_exp(-man if rng.random() < 0.5 else man, size - bits)


def _draw_radius(rng, scale):
    """0, a radius below the float range, one that underflows to a
    subnormal, an infinite one, or one near the raw mpf scale."""
    kind = rng.randrange(6)
    if kind == 0:
        return mp_libmp.fzero
    if kind == 1:
        return mp_libmp.from_man_exp(rng.getrandbits(60) | 1, -1200)
    if kind == 2:
        return mp_libmp.from_man_exp(rng.getrandbits(20) | 1, -1090)
    if kind == 3:
        return mp_libmp.finf
    exp = scale[2] + scale[3] if scale[1] else 0
    return mp_libmp.from_man_exp(rng.getrandbits(80) | 1, exp - 80 - rng.randint(0, 60))


def _disc_pairs(seed, count):
    """count pairs of discs (center parts, radius) as raw mpfs: unrelated
    draws, and draws whose centers lie at the sum of the radii times
    1 + delta, delta from -2^-30 to 2^-30 and 0, along an axis or both."""
    rng = random.Random(seed)
    add, mul = mp_libmp.mpf_add, mp_libmp.mpf_mul
    for _ in range(count):
        u = (_draw_mpf(rng), _draw_mpf(rng))
        r1, r2 = _draw_radius(rng, u[0]), _draw_radius(rng, u[1])
        if rng.random() < 0.4 or mp_libmp.finf in (r1, r2):
            v = (_draw_mpf(rng), _draw_mpf(rng))
        else:
            k = rng.choice([0, 30, 38, 40, 42, 45, 52, 60])
            sign = rng.choice([1, -1]) if k else 0
            reach = add(r1, r2)
            reach = add(reach, mp_libmp.from_man_exp(sign * reach[1] if reach[1] else 0,
                                                     reach[2] - k) if k else mp_libmp.fzero)
            if rng.random() < 0.5:   # along the real axis
                v = (add(u[0], reach), u[1])
            else:                    # diagonally, rounded: 3-4-5 triangle
                v = (add(u[0], mul(reach, mp_libmp.from_rational(3, 5, 300))),
                     add(u[1], mul(reach, mp_libmp.from_rational(4, 5, 300))))
        yield u, r1, v, r2


def test_the_float_prefilter_only_tells_apart_discs_that_never_meet():
    # the prefilter may call two discs apart only where _close says they do
    # not meet, and where _pair_conjugates' comparison at 53 bits (mp.conj
    # rounds the center) says the second misses the first's conjugate
    told_apart = decided_close = 0
    for u, r1, v, r2 in _disc_pairs(5, 3000):
        a, b = roots_mod._view(*u, r1), roots_mod._view(*v, r2)
        close = roots_mod._close(*[tuple(map(mp.make_mpf, w)) for w in (u, v)],
                                 mp.make_mpf(r1), mp.make_mpf(r2))
        if roots_mod._apart(a, b):
            told_apart += 1
            assert not close, (u, r1, v, r2)
        decided_close += close
        ra = roots_mod.RootApprox(0, mp.make_mpc(u), mp.make_mpf(r1), 80, None)
        rb = roots_mod.RootApprox(1, mp.make_mpc(v), mp.make_mpf(r2), 80, None)
        if roots_mod._apart((a[0], -a[1], *a[2:]), b):
            with mp.workprec(53):
                assert not roots_mod._conjugate_meets(ra, rb), (u, r1, v, r2)
    # the draws reach both verdicts, and the prefilter settles most pairs
    assert decided_close > 1000 and told_apart > 300


def _target_draws(seed, count):
    """Raw mpf targets: more than 53 bits, exactly 53 or fewer, powers of
    two, and the float neighbours of powers of two."""
    rng = random.Random(seed)
    for _ in range(count):
        exp = rng.randint(-400, 100)
        kind = rng.randrange(4)
        if kind == 0:
            bits = rng.randint(54, 400)
        elif kind == 1:
            bits = rng.randint(1, 53)
        else:
            bits = 1
        man = rng.getrandbits(bits) | 1 << bits - 1 | 1
        if kind == 3:   # 2^k - 2^(k-54), just below a power of two
            man, exp = (1 << 54) - 1, exp - 54
        yield mp_libmp.from_man_exp(man, exp)


def test_the_integer_radius_test_agrees_with_comparing_mpfs():
    # m units of 2^-P, rounded upward into a 53-bit mpf, are below the
    # target exactly when m <= _units_below(target, P): at the boundary, on
    # both sides, and at random counts
    rng = random.Random(9)
    checked = 0
    for target in _target_draws(3, 600):
        t = mp.make_mpf(target)
        for P in (0, 60, rng.randint(1, 1400)):
            bound = roots_mod._units_below(t, P)
            counts = {bound + d for d in range(-3, 4)} | {
                rng.randint(1, max(2, 2 * bound)) for _ in range(4)}
            for m in counts:
                if m < 1:
                    continue
                rad = mp.make_mpf(mp_libmp.from_man_exp(m, -P, 53, mp_libmp.round_ceiling))
                assert (m <= bound) == (rad < t), (target, P, m)
                checked += 1
    assert checked > 5000
    inf_target, zero = mp.make_mpf(mp_libmp.finf), mp.make_mpf(mp_libmp.fzero)
    assert roots_mod._units_below(inf_target, 80) == float("inf")
    assert roots_mod._units_below(zero, 80) == -1
    assert roots_mod._units_below(-mp.mpf(1), 80) == -1


def _horner(coeffs, zr, zi):
    """sum c_k w^k at w = zr + i zi by complex Horner, coeffs lowest first."""
    re = im = 0
    for c in reversed(coeffs):
        re, im = re * zr - im * zi + c, re * zi + im * zr
    return re, im


def test_goertzel_evaluation_is_complex_horner_exactly():
    # the homogeneous coefficients c_k 2^((n-k)P) of seeded integer
    # polynomials at Gaussian-integer centers of scale 2^-P, real ones too
    rng = random.Random(1958)
    real = 0
    for _ in range(400):
        n = rng.randint(1, 24)
        h = 10 ** rng.randint(0, 40)
        ints = [rng.randint(-h, h) for _ in range(n)] + [rng.choice((1, -1)) * rng.randint(1, h)]
        P = rng.randint(40, 4000)
        coeffs = [c << (n - k) * P for k, c in enumerate(ints)]
        zr = rng.randint(-1 << P + 8, 1 << P + 8)
        zi = 0 if rng.random() < 0.25 else rng.randint(-1 << P + 8, 1 << P + 8)
        real += not zi
        top = coeffs[:0:-1]
        assert roots_mod._goertzel(top, coeffs[0], zr, zi) == _horner(coeffs, zr, zi)
        slopes = [k * c for k, c in enumerate(coeffs)][1:]
        assert (roots_mod._goertzel(slopes[:0:-1], slopes[0], zr, zi)
                == _horner(slopes, zr, zi))
    assert 0 < real < 400


def _newton_horner(ints, zr, zi, P, target):
    """roots._newton as it was before Goertzel's recurrence and the skipped
    square roots: complex Horner at every center, both roots at every
    step.  The reference the kernel must reproduce exactly."""
    n = len(ints) - 1
    below = roots_mod._units_below(target, P)
    scaled = [c << (n - k) * P for k, c in enumerate(ints[:n])]
    scaled.reverse()
    for _ in range(300):
        pr, pj, dr, dj = ints[n], 0, 0, 0
        if zi:
            for c in scaled:
                dr, dj = dr * zr - dj * zi + pr, dr * zi + dj * zr + pj
                pr, pj = pr * zr - pj * zi + c, pr * zi + pj * zr
        else:
            for c in scaled:
                dr = dr * zr + pr
                pr = pr * zr + c
        d2 = dr * dr + dj * dj
        if not d2:
            break
        p2 = pr * pr + pj * pj
        a = math.isqrt(p2)
        a += a * a < p2
        units = -(-n * a // math.isqrt(d2)) + 1
        if units <= below:
            return zr, zi, mp.make_mpf(mp_libmp.from_man_exp(units, -P, 53,
                                                             mp_libmp.round_ceiling))
        sr = (2 * (pr * dr + pj * dj) + d2) // (2 * d2)
        sj = (2 * (pj * dr - pr * dj) + d2) // (2 * d2)
        if not (sr or sj):
            break
        zr -= sr
        zi -= sj
    return zr, zi, None


def test_newton_kernel_returns_what_the_horner_loop_returned(monkeypatch):
    # from every float seed of the kernel cases, at several scales and
    # targets: the same (zr, zi, radius).  The square roots are skipped
    # where they cannot pass, so a call that steps k times before it passes
    # takes 2 of them, not 2k; from a passing center it passes at once
    taken = []

    def counted(v):
        taken.append(v)
        return math.isqrt(v)
    monkeypatch.setattr(roots_mod, "isqrt", counted)
    rng = random.Random(4)
    stepped = at_once = 0
    for ints in _kernel_cases() + [[1, 0, 1], [-2, 0, 1], [5, 3]]:
        seeds = roots_mod._float_seeds(ints) or [complex(1.5, 0.5), complex(-0.5, 0.0)]
        for seed in seeds:
            for P in (40, 80, rng.randint(100, 400)):
                zr, zi = ((m << P) // d for m, d in (seed.real.as_integer_ratio(),
                                                    seed.imag.as_integer_ratio()))
                for target in (mp.mpf(2) ** -rng.randint(1, P - 10), mp.mpf(10) ** -3,
                               mp.inf, mp.mpf(0)):
                    taken.clear()
                    got = roots_mod._newton(ints, zr, zi, P, target)
                    assert got == _newton_horner(ints, zr, zi, P, target)
                    if got[2] is None or len(taken) > 2:
                        continue
                    steps = (zr, zi) != got[:2]
                    stepped += steps
                    # from the passing center: the first step passes
                    taken.clear()
                    again = roots_mod._newton(ints, *got[:2], P, target)
                    assert again == got and len(taken) == 2
                    at_once += 1
    assert stepped > 100 and at_once > 1000
