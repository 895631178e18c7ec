"""Seeded request schedules for the benchmark workloads.

A schedule is a list of warm-up requests, an optional prologue that runs
once at the start of the timed phase, and a finite list of rounds.  Every
round of a workload has the same composition (the same curves in the same
order).  A schedule has as many rounds as fill its --seconds at the
workload's nominal round time, so the requests of a run follow from its
seed and length alone, never from how fast the host happens to be.

Per-request cost grows with the height max(|p|, q) of the abscissas, by up
to 2x across the pool, so the schedules keep what a seed can change from
moving the figures.  third-kind-ladder and verify-vandermonde draw a
curve's abscissas stratified by height (one from each of 2n equal slices of
the pool sorted by height) and pair the i-th lowest with the i-th highest,
so every seed runs pairs of the same height profile; the seed picks the
values within the slices and the order.  haupt-sweep keeps its group
skeletons fixed and draws the swept --xp values stratified by height.

Requests are filtered only by exact validity checks made through public
functions: a section must keep full degree and be square-free, and the
abscissas of one request must be distinct.  The pool is never narrowed to
steer clear of known defects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from abeldiff.curves import Curve
from abeldiff.parser import parse_poly
from abeldiff.polys import is_squarefree

# Every rational p/q with |p| <= 9 and 1 <= q <= 3, reduced: 41 values.
POOL = tuple(sorted({Fraction(p, q) for q in (1, 2, 3) for p in range(-9, 10)}))
# verify-vandermonde draws its quartic abscissas from |p| <= 3 only: a
# quartic verify takes 3-5 s, and with 13 valid values one run covers them.
VERIFY_POOL = tuple(x for x in POOL if abs(x.numerator) <= 3)
# Warm-up abscissas lie outside POOL, so no warm-up shares a section with a
# timed request.
WARMUP_X = tuple(Fraction(v) for v in (10, 11, 12, 13))

CIRCLE = "x^2+y^2-1"
CUBIC = "x^3-y^3+2*x*y+x-2*y+1"
QUARTIC = "x^4+y^4-1"
LADDER = (CIRCLE, CUBIC, QUARTIC, "x^5+y^5-1", "x^6+y^6-1", "x^7+y^7-x-1")
DENSE_QUARTIC = "y^4+y-2-170*x+4*x*y-4*x*y^2+2*x*y^3+94*x^2-14*x^3-3*x^3*y+x^4"

# The NotInvertible reproducer of ROADMAP item 3, verbatim.
NOT_INVERTIBLE_REPRODUCER = ("haupt", "-f", DENSE_QUARTIC, "--x1", "2", "--x2", "3",
                             "--xp", "5", "--a", "0", "--a", "4", "--a", "6")

# haupt-sweep round: (curve, groups, --xp values per group), then one request
# of the single dense-quartic group, whose requests take about 7 s each.  A
# run has one round per dense request, at most DENSE_SWEEP.
HAUPT_ROUND = ((CIRCLE, 2, 4), (CUBIC, 2, 4), (QUARTIC, 2, 3))
DENSE_SWEEP = 2

# Nominal wall seconds of one round on the 2-vCPU host the benchmark was
# written on, at its usual speed.
ROUND_S = {"third-kind-ladder": 2.3, "verify-vandermonde": 6.2, "haupt-sweep": 14.0}


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]   # cli arguments, without --json
    command: str
    curve: str
    degree: int

    @property
    def key(self) -> str:
        """Identity of the request in the reference answers."""
        return " ".join(self.argv)

    @property
    def digits(self) -> int:
        if "--digits" in self.argv:
            return int(self.argv[self.argv.index("--digits") + 1])
        return 50  # the CLI default


@dataclass
class Schedule:
    workload: str
    seed: int
    warmup: list[Request]
    prologue: list[Request]
    rounds: list[list[Request]]

    def timed(self):
        """Timed requests in order, each with its round number (-1 for the
        prologue)."""
        for req in self.prologue:
            yield -1, req
        for k, rnd in enumerate(self.rounds):
            for req in rnd:
                yield k, req


_CURVES: dict[str, Curve] = {}


def _curve(text: str) -> Curve:
    if text not in _CURVES:
        _CURVES[text] = Curve(parse_poly(text), assume_smooth=True)
    return _CURVES[text]


def valid_abscissas(curve: str, pool=POOL) -> list[Fraction]:
    """Abscissas of the pool whose section has full degree and is square-free."""
    c = _curve(curve)
    out = []
    for x in pool:
        s = c.section_poly(x)
        if s.degree == c.r and is_squarefree(s):
            out.append(x)
    return out


def _request(command: str, curve: str, digits: int, x1, x2, xp=None, aux=()) -> Request:
    # '--x1=-3/2' form: argparse reads '--x1 -3/2' as an option with a missing value.
    argv = [command, "-f", curve, f"--x1={x1}", f"--x2={x2}"]
    if xp is not None:
        argv.append(f"--xp={xp}")
    argv += [f"--a={a}" for a in aux]
    argv += ["--digits", str(digits)]
    return Request(tuple(argv), command, curve, _curve(curve).r)


def _warmup(command: str, digits: int) -> list[Request]:
    """One request of the command on the circle and on the cubic."""
    out = []
    for curve in (CIRCLE, CUBIC):
        if valid_abscissas(curve, WARMUP_X) != list(WARMUP_X):
            raise ValueError(f"warm-up abscissas are not valid on {curve}")
        if command == "haupt":
            aux = WARMUP_X[3:3 + _curve(curve).genus()]
            out.append(_request(command, curve, digits, *WARMUP_X[:3], aux=aux))
        else:
            out.append(_request(command, curve, digits, *WARMUP_X[:2]))
    return out


def _rounds(workload: str, seconds: float, most: int) -> int:
    return max(1, min(most, round(seconds / ROUND_S[workload])))


def _height(x: Fraction) -> int:
    return max(abs(x.numerator), x.denominator)


def stratified(xs: list[Fraction], k: int, rng: random.Random) -> list[Fraction]:
    """One seeded value from each of k equal slices of xs sorted by height,
    lowest slice first."""
    xs = sorted(xs, key=lambda x: (_height(x), x))
    m = len(xs)
    return [rng.choice(xs[m * i // k:m * (i + 1) // k]) for i in range(k)]


def stratified_pairs(xs: list[Fraction], n: int, rng: random.Random) -> list[tuple]:
    """n disjoint pairs from xs, stratified by height, the i-th lowest
    paired with the i-th highest, in seeded order and orientation."""
    picks = stratified(xs, 2 * n, rng)
    pairs = [(picks[i], picks[2 * n - 1 - i]) for i in range(n)]
    pairs = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in pairs]
    rng.shuffle(pairs)
    return pairs


def _paired(name: str, command: str, plan, seed: int, seconds: float) -> Schedule:
    """Per (curve, pool, requests per round) of the plan, stratified pairs
    of the curve's valid pool (no two requests on a curve share an
    abscissa); every round takes the next requests of every curve, so the
    mix of each round is the same."""
    rng = random.Random(f"{name}/{seed}")
    valid = [(curve, valid_abscissas(curve, pool), k) for curve, pool, k in plan]
    n = _rounds(name, seconds, min(len(xs) // (2 * k) for _, xs, k in valid))
    per_curve = [([_request(command, curve, 30, a, b)
                   for a, b in stratified_pairs(xs, n * k, rng)], k)
                 for curve, xs, k in valid]
    return Schedule(name, seed, _warmup(command, 30), [],
                    [[r for reqs, k in per_curve for r in reqs[i * k:(i + 1) * k]]
                     for i in range(n)])


def third_kind_ladder(seed: int, seconds: float) -> Schedule:
    # at most 19 rounds (the smallest valid pool, 39 abscissas)
    return _paired("third-kind-ladder", "third-kind", [(c, POOL, 1) for c in LADDER],
                   seed, seconds)


def verify_vandermonde(seed: int, seconds: float) -> Schedule:
    # at most 6 rounds (13 valid quartic abscissas); two cubic requests a
    # round keep the median and the tail percentile (10 samples beyond it)
    # inside the cubic block
    return _paired("verify-vandermonde", "verify",
                   [(CIRCLE, POOL, 1), (CUBIC, POOL, 2), (QUARTIC, VERIFY_POOL, 1)],
                   seed, seconds)


def haupt_sweep(seed: int, seconds: float) -> Schedule:
    """Groups fix the curve, x1, x2 and one auxiliary abscissa per unit of
    genus, and sweep --xp over seeded values.  The group skeletons come from
    a fixed stream, the same for every seed: a skeleton's sections set most
    of a request's cost, and with a handful of groups per run a seeded
    skeleton would make the seed, not the program, move the figures.  A
    curve's skeletons are disjoint."""
    fixed = random.Random("haupt-sweep/groups")
    rng = random.Random(f"haupt-sweep/{seed}")

    def groups(curve: str, count: int, sweep: int) -> list[list[Request]]:
        xs = valid_abscissas(curve)
        fixed.shuffle(xs)
        width = 2 + _curve(curve).genus()
        out = []
        for i in range(count):
            skeleton = xs[i * width:(i + 1) * width]
            x1, x2, *aux = skeleton
            xps = stratified([x for x in xs if x not in skeleton], sweep, rng)
            rng.shuffle(xps)
            out.append([_request("haupt", curve, 60, x1, x2, xp, aux) for xp in xps])
        return out

    per_curve = {curve: groups(curve, n * DENSE_SWEEP, sweep) for curve, n, sweep in HAUPT_ROUND}
    rounds = []
    for k, dense in enumerate(groups(DENSE_QUARTIC, 1, DENSE_SWEEP)[0]):
        swept = [group for curve, n, _ in HAUPT_ROUND
                 for group in per_curve[curve][n * k:n * (k + 1)]]
        # step the groups' sweeps in lockstep, so each curve's requests are
        # spread over the round instead of bunched where one burst of host
        # load could catch them all
        rounds.append([req for step in zip_longest(*swept) for req in step if req] + [dense])
    del rounds[_rounds("haupt-sweep", seconds, DENSE_SWEEP):]
    prologue = [Request(NOT_INVERTIBLE_REPRODUCER, "haupt", DENSE_QUARTIC, 4)]
    return Schedule("haupt-sweep", seed, _warmup("haupt", 60), prologue, rounds)


WORKLOADS = {
    "third-kind-ladder": third_kind_ladder,
    "verify-vandermonde": verify_vandermonde,
    "haupt-sweep": haupt_sweep,
}
