"""An independent oracle for haupt: the fundamental function built by
Brill-Noether (Brill & Noether, 1874; Riemann-Roch), in mpmath at 60 digits.

For the evaluation point p' = (x', y') and the auxiliary points a_i, let
Q = (x - x') prod (x - a_i).  The polynomials P(x, y) of degree <= g + 1 and
y-degree < r that vanish at the r - 1 other section points over x' and over
every a_i satisfy (g + 1)(r - 1) conditions in 2 more unknowns; for general
points the conditions are independent, and the 2-dimensional solution space
holds Q and one more P.  Then F = alpha + beta P/Q has simple poles at p' and
the a_i alone, provided x has a simple pole at every point at infinity: the
leading form of f is square-free with a nonzero y^r coefficient.  With beta
fixing the residue in x at p' to -1 and alpha fixing F(p2) = 0, F(p1) is the
value haupt certifies.  Only the section points come from the program
(Curve.section_roots); nothing reuses the third-kind construction.
"""

import json
import random
from fractions import Fraction

import mpmath as mp
import pytest

from abeldiff import cli
from abeldiff.curves import Curve, smoothness_report
from abeldiff.parser import format_bpoly, parse_poly
from abeldiff.polys import BPoly, UPoly, is_squarefree
from abeldiff.towers import TowerContext

DENSE_QUARTIC = "y^4+y-2-170*x+4*x*y-4*x*y^2+2*x*y^3+94*x^2-14*x^3-3*x^3*y+x^4"

# The oracle's values, to 40 digits, for two requests that haupt cannot
# answer yet (ROADMAP item 2).  The exit-11 reproducer
#   haupt -f DENSE_QUARTIC --x1 2 --x2 3 --xp 5 --a 0 --a 4 --a 6
# is checked by tests/test_cli.py's strict xfail once it answers.  Genus 6,
#   haupt -f x^5+y^5-1 --x1=0 --x2=2 --xp=3 --a=4 ... --a=9,
# does not finish; its value is
#   0.00619992861204041486474503779393476714224
#   - 0.00003761849112993243556332873029624973397405 i.
EXIT_11_VALUE = ("0.0004168129569640407057624982312972708297506",
                 "-0.01029235486904588996149007739959892504678")

def _meets_precondition(f: BPoly) -> bool:
    """The leading form of f is square-free with a nonzero y^r coefficient."""
    r = f.total_degree
    lead = UPoly([f.terms.get((r - j, j), 0) for j in range(r + 1)])
    return lead.degree == r and is_squarefree(lead)


def _mpf(x: Fraction) -> mp.mpf:
    return mp.mpf(x.numerator) / x.denominator


def brill_noether(curve_text: str, x1, x2, xp, aux, root1=0, root2=0, rootp=0,
                  roota=None):
    """F(p1) for the haupt request with these points, at 60 digits."""
    f = parse_poly(curve_text)
    assert _meets_precondition(f)
    curve = Curve(f)
    r, g = curve.r, curve.genus()
    x1, x2, xp, *aux = (Fraction(x) for x in (x1, x2, xp, *aux))
    roota = roota or [0] * len(aux)
    ctx = TowerContext()
    with mp.workdps(60):
        def ordinates(x):
            return [p.y.approximate(60) for p in curve.section_roots(x, ctx)]

        monos = [(i, j) for j in range(r) for i in range(g + 2 - j)]
        rows = [[_mpf(x) ** i * y ** j for i, j in monos]
                for x, k in [(xp, rootp), *zip(aux, roota)]
                for m, y in enumerate(ordinates(x)) if m != k]
        assert len(monos) - len(rows) == 2
        _, sigma, v = mp.svd_c(mp.matrix(rows), full_matrices=True)
        assert min(sigma) > mp.mpf(10) ** -30 * max(sigma)   # independent conditions
        nullspace = [[mp.conj(v[k, c]) for c in range(len(monos))]
                     for k in range(len(rows), len(monos))]

        def p_at(vec, x, y):
            return mp.fsum(c * x ** i * y ** j for c, (i, j) in zip(vec, monos))

        def q_at(x):
            return mp.fprod(x - _mpf(a) for a in [xp, *aux])

        yp = ordinates(xp)[rootp]
        # Q itself vanishes at p'; the other basis vector does not
        vec = max(nullspace, key=lambda w: abs(p_at(w, _mpf(xp), yp)))
        beta = -mp.fprod(_mpf(xp) - _mpf(a) for a in aux) / p_at(vec, _mpf(xp), yp)

        def F(x, y):
            return beta * p_at(vec, _mpf(x), y) / q_at(_mpf(x))
        return F(x1, ordinates(x1)[root1]) - F(x2, ordinates(x2)[root2])


def _haupt_decimal(capsys, argv) -> mp.mpc:
    assert cli.main(argv + ["--digits", "40", "--json"]) == 0
    dec = json.loads(capsys.readouterr().out)["haupt"]["value"]["decimal"]
    with mp.workdps(60):
        return mp.mpc(dec["re"], dec["im"])


def _assert_agrees(oracle, value):
    with mp.workdps(60):
        assert abs(oracle - value) <= mp.mpf(10) ** -38 * max(1, abs(value))


@pytest.mark.parametrize("curve, x1, x2, xp, aux", [
    ("x^3-y^3+2*x*y+x-2*y+1", "0", "1", "3", ["2"]),
    ("x^4+y^4-1", "0", "2", "3", ["4", "5", "6"]),
    ("x^4+y^4-1", "7", "6", "7/3", ["-5/2", "3/2", "-4"]),
    (DENSE_QUARTIC, "1/3", "5/2", "0", ["-2/3", "7/3", "3"]),
    ("x^2+y^2-1", "0", "1/2", "1/3", []),
], ids=["cubic", "fermat-quartic", "fermat-quartic-negative", "dense-quartic", "circle"])
def test_haupt_equals_the_brill_noether_function(capsys, curve, x1, x2, xp, aux):
    argv = ["haupt", "-f", curve, f"--x1={x1}", f"--x2={x2}", f"--xp={xp}",
            *(f"--a={a}" for a in aux)]
    _assert_agrees(brill_noether(curve, x1, x2, xp, aux), _haupt_decimal(capsys, argv))


def _seeded_requests(count, seed):
    """(f, [x1, x2, xp, a_1 .. a_g], root indices) for smooth random curves
    of degree 3 and 4 that meet the precondition, with random rational
    abscissas whose sections keep full degree and are square-free, and
    random root indices."""
    rng = random.Random(seed)
    pool = sorted({Fraction(p, q) for p in range(-9, 10) for q in (1, 2, 3)})
    out = []
    while len(out) < count:
        r = 3 + len(out) % 2
        terms = {(i, j): rng.randint(-4, 4) for j in range(r + 1) for i in range(r + 1 - j)}
        terms[(0, r)] = rng.choice([-2, -1, 1, 2])
        f = BPoly({k: Fraction(c) for k, c in terms.items() if c})
        if not _meets_precondition(f) or not smoothness_report(f).smooth:
            continue
        curve = Curve(f, assume_smooth=True)
        xs = [x for x in rng.sample(pool, 12)
              if curve.section_poly(x).degree == r and is_squarefree(curve.section_poly(x))]
        g = curve.genus()
        if len(xs) < 3 + g:
            continue
        roots = [rng.randrange(r) for _ in range(3 + g)]
        out.append((f, xs[:3 + g], roots))
    return out


def test_haupt_equals_the_brill_noether_function_on_seeded_curves(capsys):
    for f, (x1, x2, xp, *aux), (k1, k2, kp, *ka) in _seeded_requests(4, 29):
        curve = format_bpoly(f)
        argv = ["haupt", "-f", curve, f"--x1={x1}", f"--x2={x2}", f"--xp={xp}",
                f"--root1={k1}", f"--root2={k2}", f"--rootp={kp}",
                *(f"--a={a}" for a in aux), *(f"--roota={k}" for k in ka)]
        _assert_agrees(brill_noether(curve, x1, x2, xp, aux, k1, k2, kp, ka),
                       _haupt_decimal(capsys, argv))


def test_the_oracle_reproduces_its_exit_11_value():
    value = brill_noether(DENSE_QUARTIC, 2, 3, 5, [0, 4, 6])
    with mp.workdps(60):
        assert abs(value - mp.mpc(*EXIT_11_VALUE)) < mp.mpf(10) ** -42
