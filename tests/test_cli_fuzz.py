"""A seeded fuzz test over the CLI.

About 200 third-kind, verify and haupt requests are drawn from a fixed seed
and run in process through cli.main.  Each must end in exit 0 with every
verdict true, or in an error document whose exit code is its type's own, and
leave mpmath's precision as it found it; an answered request, run a second
time in the same process, must print the same document, timings aside.  Any
other ending is a defect, sorted into a class: an exception that escapes
cli.main (by its type and the function that raised it), an error of exit
code 1, which is reserved for internal errors, a false verdict, a repeat
that prints another document, or a typed error that names a known defect.

KNOWN lists the classes of known defects with the ROADMAP item that removes
them.  Any other class fails the test.  So does a known class that no
request meets any more, so that the list is pruned when its item lands.

A second seeded draw, of its own seed, runs smooth, genus and first-kind on
the same curves and on smooth dense curves of degree 2 to 5, each the image
of a Fermat curve X^d + Y^d + Z^d under a seeded invertible linear change
of coordinates (smooth, since such a change keeps the curve smooth).  Every
curve is smooth, so an answer must say so and give the genus
(d-1)(d-2)/2 and the first-kind numerators, the monomials of degree <= d-3;
NotSmooth, like exit 1, is a defect.  Its known classes are KNOWN_CURVE's.

A third seeded draw, of its own seed, runs third-kind and verify on the
curves of degree 2 to 4 at abscissas p/q of height 10^30 to 10^40 and with
--digits up to 200.  Its known classes are KNOWN_TALL's.
"""

import json
import random
import traceback
from fractions import Fraction
from pathlib import Path

import mpmath as mp

from abeldiff import cli, differentials, errors
from abeldiff.parser import format_bpoly, parse_poly
from abeldiff.polys import BPoly

SEED = 2
REQUESTS = 200

LADDER = ("x^2+y^2-1", "x^3-y^3+2*x*y+x-2*y+1", "x^4+y^4-1", "x^5+y^5-1",
          "x^6+y^6-1", "x^7+y^7-x-1")
CURVES = LADDER + ("y^2-x^3+x", "y^3-x^2+1", "x^4+y^4+x*y-1")
DEGREE = {c: parse_poly(c).total_degree for c in CURVES}
GENUS = {c: (d - 1) * (d - 2) // 2 for c, d in DEGREE.items()}
# haupt takes one auxiliary pole per unit of genus, and at genus 6 it does
# not finish in 120 s (ROADMAP item 2), so it draws the curves of genus <= 3
HAUPT_CURVES = tuple(c for c in CURVES if GENUS[c] <= 3)

KNOWN = {
    "AssertionError in roots._pair_conjugates":
        "ROADMAP item 1a: conjugate discs built at 53 bits miss each other",
    "error NotInvertible (exit 11)":
        "ROADMAP item 2: the parameter solve meets a zero divisor as a pivot",
}


def _abscissa(rng: random.Random) -> str:
    """A small p/q, 0 or +-1, a 20-digit integer, or +-1/10^12."""
    kind = rng.choices(("small", "unit", "huge", "tiny"), weights=(6, 2, 1, 1))[0]
    if kind == "small":
        return str(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    if kind == "unit":
        return rng.choice(("0", "1", "-1"))
    if kind == "huge":
        return str(rng.choice((1, -1)) * rng.randrange(10**19, 10**20))
    return rng.choice(("", "-")) + f"1/{10**12}"


def _request(rng: random.Random) -> list[str]:
    command = rng.choice(("third-kind", "verify", "haupt"))
    curve = rng.choice(HAUPT_CURVES if command == "haupt" else CURVES)

    def point(flag: str, root: str) -> list[str]:
        # flag=value, since a negative value would read as a flag
        return [f"--{flag}={_abscissa(rng)}", f"--{root}={rng.randrange(DEGREE[curve])}"]
    argv = [command, "-f", curve, *point("x1", "root1"), *point("x2", "root2"),
            f"--digits={rng.randint(1, 40)}"]
    if command == "haupt":
        argv += point("xp", "rootp")
        for _ in range(GENUS[curve]):
            argv += point("a", "roota")
    return argv


def _fermat_image(rng: random.Random, d: int) -> str:
    """sum_i (a_i x + b_i y + c_i)^d for a seeded invertible integer matrix
    of rows (a_i, b_i, c_i), of total degree d, in canonical form."""
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        (a, b, c), (e, f, g), (h, i, j) = rows
        if a * (f * j - g * i) - b * (e * j - g * h) + c * (e * i - f * h):
            curve = parse_poly("+".join(f"({u}*x+({v})*y+({w}))^{d}" for u, v, w in rows))
            if curve.total_degree == d:
                return format_bpoly(curve)


CURVE_SEED = 3
CURVE_REQUESTS = 60
_DENSE_RNG = random.Random(CURVE_SEED + 1)
DENSE = tuple(_fermat_image(_DENSE_RNG, d) for d in (2, 3, 4, 5) for _ in range(2))
SMOOTH_CURVES = CURVES + DENSE
KNOWN_CURVE: dict[str, str] = {}


def _curve_request(rng: random.Random) -> list[str]:
    command = rng.choice(("smooth", "genus", "first-kind"))
    argv = [command, "-f", rng.choice(SMOOTH_CURVES)]
    if command != "smooth" and rng.random() < 0.25:
        argv.append("--assume-smooth")
    return argv


def _curve_answer_defect(doc: dict, code: int, curve: str) -> str | None:
    """The defect class of an answer about a smooth curve, or None."""
    d = parse_poly(curve).total_degree
    if doc["command"] == "smooth":
        return None if code == 0 and doc["smooth"]["smooth"] is True else \
            f"a smooth curve reported not smooth (exit {code})"
    genus = (d - 1) * (d - 2) // 2
    if code or doc["degree"] != d or doc["genus"] != genus:
        return f"a wrong genus or degree (exit {code})"
    if doc["command"] == "first-kind":
        basis = doc["first_kind"]
        expected = {BPoly({(i, j): 1}) for i in range(d - 2) for j in range(d - 2 - i)}
        if basis["dimension"] != genus or len(basis["numerators"]) != genus or \
                {parse_poly(m) for m in basis["numerators"]} != expected:
            return "a wrong first-kind basis"
    return None


def _untimed(doc: dict) -> dict:
    doc.pop("timings", None)
    return doc


def _repeated(capsys, argv: list[str]) -> dict:
    """The document of the request run once more in this process, timings
    aside: it meets the caches that its first run filled."""
    cli.main(argv + ["--json"])
    return _untimed(json.loads(capsys.readouterr().out))


def _defect(capsys, argv: list[str]) -> str | None:
    """The defect class of the request's ending, or None for a sound one.
    A smooth, genus or first-kind answer is held to what its curve's
    degree gives, and NotSmooth is a defect: every curve drawn is smooth."""
    prec = mp.mp.prec
    try:
        code = cli.main(argv + ["--json"])
    except Exception as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        return f"{type(exc).__name__} in {Path(frame.filename).stem}.{frame.name}"
    finally:
        out = capsys.readouterr().out
        assert mp.mp.prec == prec, argv
    doc = json.loads(out)
    if "error" not in doc:
        if "verification" in doc:
            ok = all(v["ok"] for v in doc["verification"])
            defect = None if code == 0 and ok else f"a false verdict (exit {code})"
        else:
            defect = _curve_answer_defect(doc, code, argv[2])
        if defect is not None:
            return defect
        return None if _repeated(capsys, argv) == _untimed(doc) else \
            "a repeat in the same process prints another document"
    err = doc["error"]
    assert err["exit_code"] == code == getattr(errors, err["type"]).exit_code, argv
    if code == 1 or err["type"] in ("NotInvertible", "NotSmooth"):
        return f"error {err['type']} (exit {code})"
    return None


def test_seeded_requests_end_in_an_answer_or_a_typed_error(capsys):
    differentials._groups.clear()    # no earlier request's group is rebound
    rng = random.Random(SEED)
    found: dict[str, list[str]] = {}
    for _ in range(REQUESTS):
        argv = _request(rng)
        defect = _defect(capsys, argv)
        if defect is not None:
            found.setdefault(defect, []).append(" ".join(argv))
    unknown = {c: requests[:3] for c, requests in found.items() if c not in KNOWN}
    assert not unknown, unknown
    assert set(found) == set(KNOWN), f"no request meets {set(KNOWN) - set(found)}"


def test_seeded_curve_requests_answer_smooth_curves(capsys):
    assert len(set(DENSE)) == len(DENSE)
    assert {parse_poly(c).total_degree for c in DENSE} == {2, 3, 4, 5}
    rng = random.Random(CURVE_SEED)
    found: dict[str, list[str]] = {}
    commands = set()
    for _ in range(CURVE_REQUESTS):
        argv = _curve_request(rng)
        commands.add(argv[0])
        defect = _defect(capsys, argv)
        if defect is not None:
            found.setdefault(defect, []).append(" ".join(argv))
    assert commands == {"smooth", "genus", "first-kind"}
    unknown = {c: requests[:3] for c, requests in found.items() if c not in KNOWN_CURVE}
    assert not unknown, unknown
    assert set(found) == set(KNOWN_CURVE), \
        f"no request meets {set(KNOWN_CURVE) - set(found)}"


TALL_SEED = 5
TALL_REQUESTS = 30
TALL_CURVES = tuple(c for c in CURVES if DEGREE[c] <= 4)
KNOWN_TALL = {
    "AssertionError in roots._pair_conjugates":
        "ROADMAP item 1a: conjugate discs built at 53 bits miss each other",
}


def _tall_abscissa(rng: random.Random) -> str:
    """+-p/q in lowest terms whose height max(p, q) has 31 to 40 digits."""
    while True:
        digits = rng.randint(31, 40)
        top = rng.randrange(10 ** (digits - 1), 10 ** digits)
        other = rng.randrange(1, 10 ** rng.randint(1, digits))
        p, q = (top, other) if rng.random() < 0.5 else (other, top)
        x = Fraction(rng.choice((1, -1)) * p, q)
        if max(abs(x.numerator), x.denominator) > 10**30:
            return str(x)


def _tall_request(rng: random.Random) -> list[str]:
    command = rng.choice(("third-kind", "verify"))
    curve = rng.choice(TALL_CURVES)
    argv = [command, "-f", curve]
    for flag, root in (("x1", "root1"), ("x2", "root2")):
        argv += [f"--{flag}={_tall_abscissa(rng)}", f"--{root}={rng.randrange(DEGREE[curve])}"]
    return argv + [f"--digits={rng.randint(1, 200)}"]


def test_seeded_tall_abscissas_end_in_an_answer_or_a_typed_error(capsys):
    assert {DEGREE[c] for c in TALL_CURVES} == {2, 3, 4}
    rng = random.Random(TALL_SEED)
    found: dict[str, list[str]] = {}
    for _ in range(TALL_REQUESTS):
        argv = _tall_request(rng)
        defect = _defect(capsys, argv)
        if defect is not None:
            found.setdefault(defect, []).append(" ".join(argv))
    unknown = {c: requests[:3] for c, requests in found.items() if c not in KNOWN_TALL}
    assert not unknown, unknown
    assert set(found) == set(KNOWN_TALL), f"no request meets {set(KNOWN_TALL) - set(found)}"
