from fractions import Fraction

import mpmath as mp
import pytest

from abeldiff.curves import Curve
from abeldiff.differentials import third_kind
from abeldiff.polys import BPoly
from abeldiff.towers import TowerContext

CUBIC_TERMS = {(3, 0): 1, (0, 3): -1, (1, 1): 2, (1, 0): 1, (0, 1): -2, (0, 0): 1}
CIRCLE_TERMS = {(2, 0): 1, (0, 2): 1, (0, 0): -1}
QUARTIC_TERMS = {(4, 0): 1, (0, 4): 1, (0, 0): -1}


def pole_factor(x1, x2) -> BPoly:
    """(x - x1)(x2 - x), the factor that embeds a first-kind numerator m as
    the numerator m (x - x1)(x2 - x) of the third-kind family."""
    return BPoly({(1, 0): 1, (0, 0): -x1}) * BPoly({(0, 0): x2, (1, 0): -1})


@pytest.fixture(autouse=True)
def global_precision_unchanged():
    """Every test leaves mpmath's global precision as it found it: the
    library sets its own working precision and restores it, error or not."""
    before = mp.mp.prec, mp.mp.dps
    yield
    assert (mp.mp.prec, mp.mp.dps) == before


@pytest.fixture(scope="session")
def cubic():
    return Curve(BPoly(CUBIC_TERMS))


@pytest.fixture(scope="session")
def circle():
    return Curve(BPoly(CIRCLE_TERMS))


@pytest.fixture(scope="session")
def quartic():
    return Curve(BPoly(QUARTIC_TERMS))


@pytest.fixture(scope="session")
def cubic_setup(cubic):
    """The running example: poles over x = 0 and x = 1, first canonical
    roots, one shared context."""
    ctx = TowerContext()
    p1 = cubic.section_roots(0, ctx)[0]
    p2 = cubic.section_roots(1, ctx)[0]
    return ctx, p1, p2


@pytest.fixture(scope="session")
def cubic_diff(cubic, cubic_setup):
    _, p1, p2 = cubic_setup
    return third_kind(cubic, p1, p2)


@pytest.fixture(scope="session")
def circle_setup(circle):
    ctx = TowerContext()
    p1 = circle.section_roots(0, ctx)[0]
    p2 = circle.section_roots(Fraction(1, 2), ctx)[0]
    return ctx, p1, p2


@pytest.fixture(scope="session")
def circle_diff(circle, circle_setup):
    _, p1, p2 = circle_setup
    return third_kind(circle, p1, p2)
