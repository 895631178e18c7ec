"""Affine twins: exact metamorphic checks from a change of coordinates.

A differential is intrinsic to its curve, so the affine map
phi(x, y) = (a x + c, b y + mu x + nu), a and b positive rationals, predicts
every command's answer on the twin f' = f o phi^-1 from the answer on f,
with no second implementation.  f' keeps the total degree, a y^r term and
smoothness, and it is scaled here to integer coefficients, which changes no
differential; a point (x, y) of f is (a x + c, b y + mu x + nu) on f', and
since each fibre moves by a positive scale and a real shift, every root
index stays the same.  So:

- smooth, genus and first-kind print the same answers (the polynomials of
  degree <= r - 3 are an affine-invariant space);
- third-kind's numerators follow the map: with f' = s f o phi^-1,
  f'_Y = (s/b) f_y and (X - X1)(X2 - X) = a^2 (x - x1)(x2 - x), so
  E' - (a s/b) E o phi^-1 is (X - X1)(X2 - X) times a first-kind
  numerator and vanishes identically on X = X1 and on X = X2; there each
  twin ordinate is b eta + mu x_i + nu for the original's ordinate eta of
  the same root index, which maps the twin's section ring onto the
  original's;
- verify gives every verdict true on both requests;
- haupt's value is omega/dx at the evaluation point, and dX = a dx, so the
  twin's value is value/a; swapping (x1, root1) with (x2, root2) negates
  omega, and so the value.

The curves are seeded draws of x^r + y^r plus three monomials of lower
degree that smoothness_report accepts, one per degree; haupt draws stop at
degree 4, since at genus 6 it does not finish (ROADMAP item 2).  A case
where the twins disagree is a strict xfail named by the defect it meets.
"""

import json
import random
from decimal import Decimal
from fractions import Fraction
from math import lcm

import pytest

from abeldiff import cli, differentials
from abeldiff.curves import Curve, smoothness_report
from abeldiff.parser import format_bpoly
from abeldiff.polys import BPoly, UPoly, is_squarefree, power
from abeldiff.towers import TowerContext, TowerElement

SEED = 21
HAUPT_DIGITS = 30


def twin(f: BPoly, a, b, c, mu, nu) -> BPoly:
    """f o phi^-1 for phi(x, y) = (a x + c, b y + mu x + nu), times the lcm
    of its denominators: f at x = (X - c)/a, y = (Y - nu - mu x)/b."""
    one = BPoly.const(1)
    x = (BPoly.x() - c) * (1 / a)
    y = (BPoly.y() - nu - mu * x) * (1 / b)
    image = BPoly()
    for (i, j), k in f.terms.items():
        image = image + power(x, i, one) * power(y, j, one) * k
    return image * lcm(*(v.denominator for v in image.terms.values()))


def _small(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 3))


def _curve(rng: random.Random, r: int) -> BPoly:
    while True:
        terms = {(r, 0): 1, (0, r): 1}
        for _ in range(3):
            i = rng.randrange(r)
            terms[i, rng.randrange(r - i)] = rng.choice((-3, -2, -1, 1, 2, 3))
        f = BPoly(terms)
        if smoothness_report(f).smooth:
            return f


def _points(rng: random.Random, f: BPoly, count: int) -> list[tuple[Fraction, int]]:
    """count points of f over distinct abscissas with square-free sections,
    each with a root index."""
    xs: list[Fraction] = []
    while len(xs) < count:
        x = _small(rng)
        if x not in xs and is_squarefree(f.subs_x(x)):
            xs.append(x)
    return [(x, rng.randrange(f.total_degree)) for x in xs]


def _draw():
    rng = random.Random(SEED)
    cases = {}
    for r in range(2, 9):
        f = _curve(rng, r)
        phi = (rng.choice((Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3))),
               rng.choice((Fraction(1), Fraction(3, 2), Fraction(1, 3))),
               _small(rng), _small(rng), _small(rng))
        genus = (r - 1) * (r - 2) // 2
        cases[r] = f, phi, _points(rng, f, 3 + genus if r <= 4 else 2)
    return cases


CASES = _draw()


def _document(capsys, command: str, f: BPoly, points=(), labels=()) -> tuple[int, dict]:
    """(exit code, document without timings) of command on the curve f, at
    the points, each given as --label=x and its root flag."""
    argv = [command, "-f", format_bpoly(f)]
    for label, (x, root) in zip(labels, points):
        root_flag = "roota" if label == "a" else "root" + label[1:]
        argv += [f"--{label}={x}", f"--{root_flag}={root}"]
    if command == "haupt":
        argv.append(f"--digits={HAUPT_DIGITS}")
    code = cli.main(argv + ["--json"])
    doc = json.loads(capsys.readouterr().out)
    doc.pop("timings", None)
    return code, doc


def _mapped(points, phi):
    a, _, c, _, _ = phi
    return [(a * x + c, root) for x, root in points]


def _value(doc: dict) -> tuple[Fraction, Fraction]:
    dec = doc["haupt"]["value"]["decimal"]
    return Fraction(Decimal(dec["re"])), Fraction(Decimal(dec["im"]))


def _agree(u, v, digits: int) -> bool:
    """Two printed decimals of one value, one of them divided by a >= 1/2,
    agree: each part is certified within 10^-digits/2 and then rounded to
    digits significant digits, which moves it by at most 5 10^-digits times
    its magnitude, and the division at most doubles that error."""
    return all(abs(p - q) <= Fraction(10) ** (1 - digits) * (1 + abs(p) + abs(q))
               for p, q in zip(u, v))


def _param(r, marks=()):
    return pytest.param(r, id=f"degree-{r}", marks=marks)


# a twin's sections have larger coefficients, and root isolation pairs
# their conjugate roots at 53 bits, where they can miss each other: the
# degree-7 twin's sections in verify and third-kind, the degree-8 twin's in
# third-kind
PAIRING = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1a: _pair_conjugates pairs the twin's roots at 53 bits "
    "and its assert fires"))


@pytest.mark.parametrize("r", [_param(r) for r in range(2, 9)])
def test_curve_commands_answer_alike_on_twins(capsys, r):
    f, phi, _ = CASES[r]
    g = twin(f, *phi)
    assert g.total_degree == r and g.terms.get((0, r))
    for command in ("smooth", "genus", "first-kind"):
        (code, doc), (code2, doc2) = (_document(capsys, command, h) for h in (f, g))
        assert code == code2 == 0, command
        for d in (doc, doc2):
            del d["inputs"]["curve"], d["inputs"]["curve_canonical"]
        assert doc == doc2, command


@pytest.mark.parametrize("r", [_param(r, PAIRING if r == 7 else ())
                               for r in range(2, 8)])
def test_verify_is_true_on_both_twins(capsys, r):
    f, phi, points = CASES[r]
    points = points[:2]
    for h, pts in ((f, points), (twin(f, *phi), _mapped(points, phi))):
        code, doc = _document(capsys, "verify", h, pts, ("x1", "x2"))
        assert code == 0, doc.get("error")
        assert doc["verification"] and all(v["ok"] for v in doc["verification"])


@pytest.mark.parametrize("r", [_param(r) for r in range(2, 5)])
def test_haupt_values_follow_the_map_and_the_pole_swap(capsys, r):
    f, phi, points = CASES[r]
    labels = ("x1", "x2", "xp") + ("a",) * (len(points) - 3)
    swapped = [points[1], points[0], *points[2:]]
    differentials._groups.clear()
    docs = [_document(capsys, "haupt", h, pts, labels)
            for h, pts in ((f, points), (twin(f, *phi), _mapped(points, phi)),
                           (f, swapped))]
    for code, doc in docs:
        assert code == 0, doc.get("error")
    value, value2, value3 = (_value(doc) for _, doc in docs)
    a = phi[0]
    assert _agree(value2, tuple(v / a for v in value), HAUPT_DIGITS)
    assert _agree(value3, tuple(-v for v in value), HAUPT_DIGITS)


def _third_kind(h: BPoly, points):
    """(curve, context, third-kind differential) of h with poles at the
    first two points, in a fresh context."""
    curve, ctx = Curve(h), TowerContext()
    p1, p2 = (curve.section_roots(x, ctx)[root] for x, root in points[:2])
    return curve, ctx, differentials.third_kind(curve, p1, p2)


def _transport(e, images: dict, ctx: TowerContext):
    """The twin's coefficient e in the original's context: each generator
    t_k replaced by images[k]."""
    if not isinstance(e, TowerElement):
        return ctx.constant(e)
    acc = ctx.zero
    for key, coeff in e.terms.items():
        term = ctx.constant(coeff)
        for k, exp in enumerate(key):
            if exp:
                term = term * images[k] ** exp
        acc = acc + term
    return acc


@pytest.mark.parametrize("r", [_param(r, PAIRING if r >= 7 else ()) for r in range(2, 9)])
def test_third_kind_numerators_follow_the_map(r):
    f, phi, points = CASES[r]
    a, b, c, mu, nu = phi
    g = twin(f, *phi)
    s = g.terms[(0, r)] * b ** r    # f's y^r coefficient is 1, and f o phi^-1's b^-r
    curve, ctx, d = _third_kind(f, points)
    twin_curve, twin_ctx, d2 = _third_kind(g, _mapped(points, phi))
    images = {}
    for x, _ in points[:2]:
        for p, q in zip(curve.section_roots(x, ctx),
                        twin_curve.section_roots(a * x + c, twin_ctx)):
            (k,) = q.y.present_generators()
            images[k] = b * p.y + mu * x + nu
    for x, _ in points[:2]:
        # E'(X, Y) - (a s/b) E(x, (Y - mu x - nu)/b) at X = a x + c, in Y
        y = UPoly([-(mu * x + nu) / b, 1 / b])
        rest = UPoly()
        for (i, j), e in d2.base_numerator.terms.items():
            rest = rest + UPoly([0] * j + [_transport(e, images, ctx) * (a * x + c) ** i])
        for (i, j), e in d.base_numerator.terms.items():
            rest = rest - power(y, j, UPoly([1])) * (ctx.constant(x ** i * a * s / b) * e)
        assert all(_transport(coeff, {}, ctx).is_zero() for coeff in rest.coeffs), x
