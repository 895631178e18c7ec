import json
import random
from fractions import Fraction

import mpmath as mp
import pytest

from abeldiff import cli, roots as roots_mod
from abeldiff.errors import AbeldiffError, NotSquareFree
from abeldiff.polys import UPoly, is_squarefree
from abeldiff.roots import _Isolator, isolate_roots, refine_root, separation_bound


def _horner_exact(ints, z):
    acc = mp.mpf(0)
    for c in reversed(ints):
        acc = acc * z + c
    return acc


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
        return r.center, r.radius, r.prec

    roots_mod._isolated.cache_clear()
    first, again = isolate_roots(p), isolate_roots(2 * p)
    calls = []
    real_refine = roots_mod._refine

    def counted(*args):
        calls.append(args)
        return real_refine(*args)
    monkeypatch.setattr(roots_mod, "_refine", counted)
    miss = [disc(refine_root(p, r, target)) for r in first]
    handed = [refine_root(p, r, target) for r in again]
    assert len(calls) == 3                    # the second pass hits the memo
    assert [disc(r) for r in handed] == miss
    for r in handed:                          # a caller alters its copies
        r.center += 1
        r.radius = mp.mpf(1)
        r.prec = 7
    assert [disc(refine_root(p, r, target)) for r in isolate_roots(p)] == miss
    assert len(calls) == 3
    roots_mod._isolated.cache_clear()
    assert [disc(refine_root(p, r, target)) for r in isolate_roots(p)] == miss


def test_separation_bound_positive_and_below_true_separation():
    sep = separation_bound([-1, 0, 1])  # roots -1, 1: true separation 2
    assert 0 < sep < 2
    sep2 = separation_bound([-3, 0, 0, 1])
    assert 0 < sep2 < 3 ** Fraction(1, 3) * 2


def test_not_squarefree_rejected():
    with pytest.raises(NotSquareFree):
        isolate_roots(UPoly([0, 0, 1]))


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
    assert _Isolator(poly).re_gap() == gap
    roots = isolate_roots(poly)
    assert len(roots) == len(centers)
    for r, z in zip(roots, centers):
        assert abs(r.center - z) < r.radius


def test_refinement_leaving_the_isolating_disc_is_an_error(monkeypatch):
    p = UPoly([-1, 2, 0, 1])
    roots_mod._isolated.cache_clear()  # no refinement memoized by an earlier test
    root = isolate_roots(p)[0]
    monkeypatch.setattr(roots_mod, "_newton_to",
                        lambda *args: (root.center + 10, mp.mpf(10) ** -70))
    with pytest.raises(AbeldiffError, match="does not meet"):
        refine_root(p, root, mp.mpf(10) ** -60)


def test_root_finding_failure_reaches_the_cli_as_an_error_document(monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise mp.libmp.libhyper.NoConvergence("stub")

    monkeypatch.setattr(mp, "polyroots", no_convergence)
    roots_mod._isolated.cache_clear()
    code = cli.main(["third-kind", "-f", "x^2+y^2-1", "--x1", "0", "--x2", "1/2",
                     "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["error"] == {"type": "AbeldiffError",
                            "message": "numeric root finding did not converge",
                            "exit_code": 1}


def test_isolation_cache_is_bounded_and_hands_out_copies():
    assert roots_mod._isolated.cache_info().maxsize == 512
    p = UPoly([-2, 0, 1])
    first = isolate_roots(p)
    first[0].radius = mp.mpf(1)
    again = isolate_roots(2 * p)      # same primitive integer polynomial
    assert again[0].radius < 1
    assert roots_mod._isolated.cache_info().hits >= 1


def _records(coeffs):
    """Isolation records of coeffs, or the error that ended the isolation."""
    try:
        return [(r.index, r.center, r.radius, r.prec, r.conj_index)
                for r in _Isolator(UPoly(coeffs)).run()]
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


@pytest.mark.parametrize("coeffs", _seeder_cases())
def test_float_seeds_leave_the_isolation_records_unchanged(monkeypatch, coeffs):
    seeded = _records(coeffs)
    monkeypatch.setattr(roots_mod, "_float_seeds", lambda ints: None)
    assert _records(coeffs) == seeded


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
    raised = []

    def watched(*args, **kwargs):
        try:
            return real(*args, **kwargs)
        except mp.libmp.libhyper.NoConvergence:
            raised.append(kwargs.get("roots_init") is not None)
            raise

    # seeds this far out leave Durand-Kerner in its linear phase for more
    # than its 300 steps
    monkeypatch.setattr(mp, "polyroots", watched)
    monkeypatch.setattr(roots_mod, "_float_seeds",
                        lambda ints: [complex(1e300 * (k + 1), 1e300)
                                      for k in range(len(ints) - 1)])
    assert _records(coeffs) == parent
    assert raised == [True]
