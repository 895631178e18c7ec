"""Certified isolation and refinement of the complex roots of a square-free
rational polynomial.

Strategy: a Mahler-type separation bound is computed exactly from the integer
coefficients, numeric roots are refined by Newton iteration until the
classical a-posteriori radius  deg * |p(z)/p'(z)|  drops below a quarter of
that bound, after which each disc provably contains exactly one root and
refinement can never jump to a different root.

Newton's method runs in Python integers (_newton): the center is a Gaussian
integer at scale 2^-P, p(z) and p'(z) are evaluated exactly at it by
homogeneous Horner on the integer coefficients, and the radius
deg * |p(z)/p'(z)| plus one unit 2^-P is bounded upward with integer square
roots, so it holds for the center exactly as stored.  The numeric roots
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
midpoints of root pairs (real parts are midpoints of conjugate pairs, so two
distinct real parts differ by at least that bound).  Whether two discs (or
their projections on an axis) meet is decided exactly, in integers, except
in _pair_conjugates: it still compares mp.conj of a center, rounded to
mpmath's 53 bits, so it can miss the conjugate of a tiny disc and fail its
assert (ROADMAP item 1a).

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
from math import comb, frexp, inf, isqrt, pi

import mpmath as mp
from mpmath.libmp import from_man_exp, round_ceiling

from .errors import AbeldiffError, NotSquareFree, ZeroPolynomial
from .linsolve import bareiss_det
from .polys import (UPoly, kronecker_bits, poly_gcd, powers, resultant,
                    resultant_matrix, signed_digits)


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
    (Mahler's bound), for a square-free integer polynomial; NotSquareFree
    when the discriminant shows a multiple root."""
    n = len(ints) - 1
    if n <= 1:
        return Fraction(1)
    p = UPoly(ints)
    disc = resultant(p, p.derivative()) / p.leading
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


def _close(u, v, r1, r2) -> bool:
    """Whether the points u and v, tuples of mpf coordinates, lie within
    r1 + r2 of each other (closed discs, or intervals, that meet), decided
    exactly in integers; an infinite radius reaches everything."""
    if mp.isinf(r1) or mp.isinf(r2):
        return True
    P = _frac_bits(*u, *v, r1, r2)
    d2 = sum((_fixed(a, P) - _fixed(b, P)) ** 2 for a, b in zip(u, v))
    return d2 <= (_fixed(r1, P) + _fixed(r2, P)) ** 2


def _newton(ints, zr, zi, P, target):
    """Newton's method for a root of the integer polynomial ints from the
    Gaussian integer center (zr + i zi) at scale 2^-P, for at most 300
    steps.

    At each center p(z) 2^(nP) and p'(z) 2^((n-1)P) are evaluated exactly
    by homogeneous Horner, so their quotient is p/p' in units of 2^-P: the
    radius n |p/p'| + 2^-P is bounded upward with integer square roots and
    rounded upward into an mpf, and the Newton step is the quotient rounded
    to the nearest unit.  Returns (zr, zi, radius) for the first center
    whose radius is below target, or (zr, zi, None) once p'(z) = 0, a step
    rounds to no move or the steps run out: from there, 2^-P is too coarse
    to certify target."""
    n = len(ints) - 1
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
        a = isqrt(p2)
        a += a * a < p2
        rad = mp.make_mpf(from_man_exp(-(-n * a // isqrt(d2)) + 1, -P, 53,
                                       round_ceiling))
        if rad < target:
            return zr, zi, rad
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
        if any(_close(near, other, rad, r) for other, r in discs):
            return None
        discs.append((near, rad))
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
    def __init__(self, poly: UPoly):
        if poly.is_zero or poly.degree < 1:
            raise ZeroPolynomial("root isolation needs degree >= 1")
        self.ints, _ = poly.to_int_coeffs()
        self.n = len(self.ints) - 1
        self.sep = separation_bound(self.ints)
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
        parts: separation bound of the midpoint polynomial
        Res_y(p(y), p(2s - y)).

        One determinant at the Kronecker point s = 2^B: the coefficients of
        p(2s - y) in y are integer polynomials in s whose 1-norms sum to
        sum_k |a_k| 3^k, so the midpoint polynomial's coefficients are at
        most (sum_k |a_k|)^n (sum_k |a_k| 3^k)^n."""
        if self._re_gap is not None:
            return self._re_gap
        n = self.n
        a = self.ints
        bits = kronecker_bits(sum(abs(v) for v in a) ** n
                              * sum(abs(v) * t for v, t in zip(a, powers(3, n + 1, 1))) ** n)
        two_s = 1 << (bits + 1)
        q = [0] * (n + 1)
        for k in range(n + 1):
            if not a[k]:
                continue
            for j in range(k + 1):
                q[j] += a[k] * comb(k, j) * two_s ** (k - j) * (-1) ** j
        det = bareiss_det(resultant_matrix(a, q))
        big = UPoly(signed_digits(det.numerator, bits))
        sqf = (big // poly_gcd(big, big.derivative()))
        if sqf.degree <= 1:
            gap = Fraction(1)
        else:
            gap = separation_bound(sqf.to_int_coeffs()[0])
        self._re_gap = gap
        return gap

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
            ok = not any(_close(_parts(recs[i].center), _parts(recs[j].center),
                                recs[i].radius, recs[j].radius)
                         for i in range(self.n) for j in range(i + 1, self.n))
            if ok:
                break
            prec *= 4
        else:
            raise AbeldiffError("could not isolate all roots into disjoint discs")

        # pairwise-disjoint discs + radii < sep/4 make conjugate pairing exact
        conj = self._pair_conjugates(recs)

        order = sorted(range(self.n),
                       key=cmp_to_key(lambda i, j: self.compare(recs, conj, i, j)))
        pos = {old: new for new, old in enumerate(order)}
        return [replace(recs[old], index=new, conj_index=pos[conj[old]])
                for new, old in enumerate(order)]

    def _pair_conjugates(self, recs) -> list[int]:
        conj = [-1] * self.n
        for i, rec in enumerate(recs):
            target = mp.conj(rec.center)
            best = None
            for j, other in enumerate(recs):
                if abs(target - other.center) <= rec.radius + other.radius:
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
    return tuple(_Isolator(UPoly(ints)).run())


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
