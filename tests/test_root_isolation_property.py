"""Seeded property test of root isolation on polynomials with known roots.

Each draw is a square-free integer polynomial of degree 2 to 12: a product of
linear factors z - a and quadratic factors (z - a)^2 + b^2, whose parts a
and b are p/q with |p| <= 10^6 and q <= 10^3; a few draws scale every root
by 10^k, |k| <= 200.  The roots are known exactly, so every check is exact:
each disc holds exactly one root and each root lies in exactly one disc,
the records follow the canonical order (ascending real part, then ascending
imaginary part), and conj_index pairs the discs of conjugate roots.  Every
call, error or not, leaves mpmath's precision as it found it.

The draws that end in a known defect of ROADMAP item 1a are strict xfails:
the AssertionError of roots._Isolator._pair_conjugates, which compares
conjugate centers at mpmath's 53 bits, and "numeric root finding did not
converge" for roots near 10^+-200.  Once item 1a lands they pass, and the
marks must go.
"""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from abeldiff.errors import AbeldiffError
from abeldiff.polys import UPoly
from abeldiff.roots import isolate_roots
from tests.test_towers import _exact

UNSCALED = 30
# scaled draws can take seconds each: these have roots near 10^-154 and
# 10^115, which are answered, and near 10^-138, which are not
SCALED = (2, 14, 18)
# the draws that answer at the time of writing; every other draw ends in
# one of the two defects below
ANSWERED = {("draw", 2), ("draw", 14), ("draw", 24), ("draw", 28),
            ("scaled", 2), ("scaled", 14)}
NOT_CONVERGED = {("scaled", 18)}


class _NotConverged(Exception):
    """The isolation gave up: numeric root finding did not converge."""


class _PairingCrash(Exception):
    """The isolation's conjugate pairing failed its assert."""


def _draw(seed: int, scaled: bool) -> tuple[UPoly, list[tuple[Fraction, Fraction]]]:
    """(polynomial, its roots as exact (re, im) pairs)."""
    rng = random.Random(seed)

    def part() -> Fraction:
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))

    n = rng.randint(2, 12)
    scale = Fraction(10) ** rng.randint(-200, 200) if scaled else 1
    roots, poly = set(), UPoly([1])
    while poly.degree < n:
        if n - poly.degree >= 2 and rng.random() < 0.6:
            a, b = part() * scale, part() * scale
            if not b or (a, b) in roots or (a, -b) in roots:
                continue
            roots |= {(a, b), (a, -b)}
            poly = poly * UPoly([a * a + b * b, -2 * a, 1])
        else:
            a = part() * scale
            if (a, 0) in roots:
                continue
            roots.add((a, Fraction(0)))
            poly = poly * UPoly([-a, 1])
    return poly, sorted(roots)


def _holds(rec, root) -> bool:
    """Whether the open disc of rec contains the exact root."""
    dx = _exact(rec.center.real) - root[0]
    dy = _exact(rec.center.imag) - root[1]
    return dx * dx + dy * dy < _exact(rec.radius) ** 2


def _case(kind: str, seed: int):
    if (kind, seed) in ANSWERED:
        marks = ()
    elif (kind, seed) in NOT_CONVERGED:
        marks = pytest.mark.xfail(strict=True, raises=_NotConverged,
                                  reason="ROADMAP item 1a: float seeds cannot hold the roots")
    else:
        marks = pytest.mark.xfail(strict=True, raises=_PairingCrash,
                                  reason="ROADMAP item 1a: _pair_conjugates at 53 bits")
    return pytest.param(kind, seed, marks=marks, id=f"{kind}-{seed}")


@pytest.mark.parametrize("kind, seed", [_case("draw", s) for s in range(UNSCALED)]
                         + [_case("scaled", s) for s in SCALED])
def test_isolation_holds_every_known_root_in_canonical_order(kind, seed):
    poly, roots = _draw(seed, kind == "scaled")
    before = mp.mp.prec
    try:
        recs = isolate_roots(poly)
    except AssertionError as e:
        raise _PairingCrash(str(e)) from e
    except AbeldiffError as e:
        if "did not converge" in str(e):
            raise _NotConverged(str(e)) from e
        raise
    finally:
        if mp.mp.prec != before:
            pytest.fail(f"mpmath precision left at {mp.mp.prec}, not {before}")
    assert [rec.index for rec in recs] == list(range(len(roots)))
    held = [[root for root in roots if _holds(rec, root)] for rec in recs]
    assert all(len(h) == 1 for h in held)
    order = [h[0] for h in held]
    # canonical order: ascending real part, then imaginary part, and every
    # root in exactly one disc
    assert order == roots
    for i, rec in enumerate(recs):
        re, im = order[i]
        assert recs[rec.conj_index].conj_index == i
        assert order[rec.conj_index] == (re, -im)
