"""Exact algebraic numbers as elements of a flat multi-extension ring.

A TowerContext is an append-only list of generators t1, t2, ..., each bound
to a square-free rational modulus m_j and to one certified root of it.  An
element is a multivariate polynomial in the generators, fully reduced so that
the degree in t_j stays below deg(m_j); that reduced form is the canonical
representative, so ring-level zero testing is purely syntactic.

Elements store their reduced form as integer numerators over one positive
denominator, in lowest terms, as Sage's number field elements and FLINT's
fmpq_poly do; every ring operation works on the numerators and ends in at
most one gcd over them.  A numerator's key is its monomial packed into one
int (packed exponent vectors, Monagan & Pearce, CASC 2007), the exponent of
t_j in bits j*_W .. (j+1)*_W - 1: the constant is key 0, and multiplying
monomials adds keys.  Exponent tuples, each one struct conversion from or to
a key, appear only in terms, the constructor, serialize and Detached.  A sum
adds numerators, over the lcm of the two denominators only when they differ;
a negation needs no gcd.  A product adds keys and multiplies numerators, then
reduces the raw product one present generator at a time, highest first, by
substituting t_j^e (e >= deg m_j) from a per-generator cache of reduced
powers held as integer numerators over one denominator; adjoin refuses a
degree above 2^(_W-1), whose product exponents 2 deg - 2 would overflow a
field.  A product with a rational constant (or zero) skips all of that: it
scales the other operand's numerators one by one, in their order, after
cancelling common factors as Fraction does; an int or Fraction operand
builds no constant element.  Where no reduction can be due, two products
need no product at all: TowerContext.monomial builds c t_g^b, b < deg(t_g),
as one term, and TowerElement.times_generator multiplies by t_g by adding
t_g's unit to every key; each stores what the product stores.

y_coefficients reads a bivariate polynomial at a rational x as its
coefficients in y, the elements c_j = sum_i c_ij x^i: each numerator is
summed on integers per monomial key (polys.at_ratio), and each c_j is
stored in lowest terms.  It is the one such reading: eval_bpoly and the
residue identity of differentials both take it.  eval_bpoly evaluates a
bivariate polynomial at a section point nested: it takes those
coefficients first, then sums them against the ordinate, a bare generator
t_g, so each term of c_j t_g^j is one key with j added to its field of
t_g, and the routine that reduces a product's powers of t_g reduces them.
Any other ordinate is left to BPoly.eval.

The ring maps into the complex numbers by sending every generator to its
chosen root.  That map is a ring homomorphism for any root choice, and all
public predicates (is_zero, approximate) answer questions about the embedded
complex value.  Both rest on one fixed-point ball kernel in Python
integers: a ball is a center (re, im) of integers at scale 2^-P, P the
working precision, and a radius counted in units of 2^-P, rounded upward.
The element's numerators enter as they are stored, over its denominator D,
which divides once, at the end.  The sum is nested, lowest generator
innermost: the partial sum of the terms that share the rest of their key is
multiplied by one power ball, so there is about one ball product per
distinct key suffix rather than one per generator of every term, and with
the terms visited in increasing key order only one partial sum per generator
is open at a time.  Sums and integer multiples of a ball are exact; a
product of balls truncates its center toward zero and adds 2 units to its
radius.  A ball at d digits converts each generator's disc at d digits
(ExtensionDescriptor.refine_to, a function of the root and d alone) exactly
from its raw mpf parts, and takes each power of it once per request: the
context keeps one table of power balls per working precision, which the
discs of all its elements, and both parts of a quotient, read and fill, and
which goes with the context.  The decimal of an
element is the center of a disc of radius below 10^-digits/2, rounded to
digits significant digits; a component below 10^-digits/2 in magnitude
prints as 0.0.  The decimal path is integer arithmetic on raw mpf parts
(mpmath.libmp tuples), not on mpmath objects: the refinement target 10^-d
is built once per d and compared with mpf_lt; each center part is rounded
to digits + 5 digits as mp.mpc rounds it under that context, nearest-even
at the disc's precision and then at that of the digits (_rounded); and
_decimal decides the 0.0 test against a threshold kept per digits and
writes the digits by the rules of libmp.to_str, which mp.nstr calls for an
mpf, handing to_str itself only a part past 2^3500, where to_str divides by
a power of ten at high precision first.  approximate still returns an
mp.mpc, the only way to a decimal.  A generator's record (modulus, root id,
its 22-digit disc's center to 20 digits) is a new dict on every call, and
its center is printed once per root in the process, so balls, decimals and
records depend on the element and the digits alone, not on what ran
before.
A Quotient keeps a value as a numerator and a nonzero denominator and never
divides: its decimal comes from ball division of the two parts' discs at
one working precision, |a/b - c_a/c_b| <= (r_a + |c_a/c_b| r_b)/(|c_b| - r_b)
(van der Hoeven, "Ball arithmetic", 2009), in the same loop of rising
precisions that an element's decimal takes.
is_zero decides in four exact stages, cheapest first: the syntactic test on
the reduced form; the normal form modulo the Cauchy modules of the element's
generators, which proves the identities that hold because generators sharing
a modulus denote distinct roots of it (sums over a section are symmetric
functions of its roots); a certified disc that excludes zero; and, where
none of those decides, the element's minimal polynomial, the first linear
dependence among its powers (linsolve.ff_solve).  Stored elements are only
ever reduced by the individual moduli, so the Cauchy modules change no
representation.  Moduli are never factored and no absolute minimal
polynomial is ever computed; reducible moduli only surface when a zero
divisor is inverted, which raises NotInvertible with a witness factor.
invert() is the one inverse of an element: an element divides only by a
nonzero rational, and a negative power is a ValueError.  It runs extended
Euclid (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 3) on UPolys
in one present generator t_j, against its modulus, with elements free of
t_j as coefficients; each division inverts its divisor's lead the same way.

detach takes elements out of their context: numerators over a table that
names each generator by its monic modulus and root id.  attach rebinds them
in another context that holds those roots, in any index order, where they
denote the same numbers: the reduced form is canonical, so relabelling the
generators gives what the same operations compute there, and their discs
and records are those of the roots.  A request can so reuse exact results
that an earlier request's context computed, without keeping that context.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations_with_replacement
from math import gcd, isqrt, lcm, log
from operator import or_
import struct
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import dps_to_prec, fzero, mpf_lt, mpf_shift, numeral, to_str

from .errors import (AbeldiffError, ContextMismatch, NotInvertible,
                     NotSquareFree, ZeroDivision)
from .linsolve import ff_solve
from .polys import BPoly, UPoly, at_ratio, power, powers
from .roots import RootApprox, isolate_roots, refine_root

# bits per exponent field of a packed monomial key
_W = 16
_MASK = (1 << _W) - 1

# the digits of the disc a generator's record is read from: its 20 digits
# plus 2, at which a 12-digit decimal (an ordinate echo) first works too
_RECORD_DIGITS = 22

def _mag(re: int, im: int) -> int:
    """An integer upper bound on |re + i im|: max + floor(min/2) + 1, at
    most 1.12 times the modulus plus 1."""
    re, im = abs(re), abs(im)
    if re < im:
        re, im = im, re
    return re + (im >> 1) + 1


def _mul(x: tuple, y: tuple, prec: int) -> tuple:
    """Product of two balls (re, im, rad) at scale 2^-prec.  The center is
    truncated toward zero, which moves it by under 2 units and commutes
    with negation and conjugation; the radius is rounded upward."""
    a, b, r = x
    c, d, s = y
    re, im = a * c - b * d, a * d + b * c
    re = re >> prec if re >= 0 else -(-re >> prec)
    im = im >> prec if im >= 0 else -(-im >> prec)
    rad = _mag(a, b) * s + _mag(c, d) * r + r * s
    return re, im, -(-rad >> prec) + 2


def _pow(base: tuple, e: int, prec: int) -> tuple:
    """base^e, e >= 1, by binary powering."""
    out = None
    while True:
        if e & 1:
            out = base if out is None else _mul(out, base, prec)
        e >>= 1
        if not e:
            return out
        base = _mul(base, base, prec)


def _disc_ball(root: RootApprox, prec: int) -> tuple:
    """The ball of a root disc at scale 2^-prec, from the raw mpf parts of
    its center and (finite) radius: each center part is its mantissa
    shifted to that scale, truncated toward zero where bits fall below it
    (under 2 units off in all), and the radius is rounded upward."""
    center = []
    for sign, man, exp, _ in root.center._mpc_:
        shift = exp + prec
        v = man << shift if shift >= 0 else man >> -shift
        center.append(-v if sign else v)
    _, man, exp, _ = root.radius._mpf_
    shift = exp + prec
    rad = man << shift if shift >= 0 else -(-man >> -shift)
    return center[0], center[1], rad + 2


def _add(x, y, prec: int):
    """Sum of two partial sums, each an exact integer or a ball at scale
    2^-prec; exact."""
    if type(x) is int:
        if type(y) is int:
            return x + y
        x, y = y, x
    if type(y) is int:
        return x[0] + (y << prec), x[1], x[2]
    return x[0] + y[0], x[1] + y[1], x[2] + y[2]


def _nearest(m: int, n: int, sticky) -> int:
    """m >> n, n >= 1, rounded to the nearest, ties to even, as mpmath's
    normalize rounds a mantissa; sticky is nonzero when nonzero bits below
    m's were already dropped, so m is not a tie."""
    t = m >> n - 1
    if t & 1 and (t & 2 or sticky or m & (1 << n - 1) - 1):
        return (t >> 1) + 1
    return t >> 1


def _rounded(v: int, q: int, p: int, prec: int) -> tuple:
    """The raw mpf of v/q, q > 0, rounded to the nearest at p bits and then
    at prec bits, ties to even each time: from_rational(v, q, p,
    round_nearest) under mpf_pos(., prec, round_nearest), in integers."""
    if not v:
        return fzero
    sign = v < 0
    v = abs(v)
    # v 2^s / q lies in (2^p, 2^(p+2)), so its floor m has p + 1 or p + 2
    # bits, and the remainder is the sticky part of the first rounding
    s = p + 1 - v.bit_length() + q.bit_length()
    m, rem = divmod(v << s, q) if s >= 0 else divmod(v, q << -s)
    n = m.bit_length() - p
    man, exp = _nearest(m, n, rem), n - s
    n = man.bit_length() - prec
    if n > 0:
        man, exp = _nearest(man, n, 0), exp + n
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return int(sign), man, exp + zeros, man.bit_length()


class _Disc(NamedTuple):
    """A certified disc about an element's embedded value: center re + i im
    and radius rad, all over den * 2^prec."""

    re: int
    im: int
    rad: int
    den: int
    prec: int

    def excludes_zero(self) -> bool:
        return self.re * self.re + self.im * self.im > self.rad * self.rad

    def below(self, bound: Fraction) -> bool:
        """Is every point of the disc below bound in magnitude?"""
        q = bound.denominator
        t = bound.numerator * (self.den << self.prec) - q * self.rad
        return t > 0 and q * q * (self.re * self.re + self.im * self.im) < t * t

    def center_parts(self, prec: int) -> tuple:
        """The raw mpf parts of the center, as mp.mpc(c) rounds them under a
        context of prec bits: each part v / (den 2^self.prec) rounded to the
        nearest, ties to even, at the disc's precision, and that rounded the
        same way to prec bits (from_rational, then mpf_pos), in integers."""
        q = self.den << self.prec
        return _rounded(self.re, q, self.prec, prec), _rounded(self.im, q, self.prec, prec)


def _nested_ball(nums: dict, den: int, root_of: Callable[[int], RootApprox],
                 prec: int, powers: dict | None = None) -> _Disc:
    """The disc of sum (n_k / den) prod_i t_i^(k_i) over nums {k: n_k}, keys
    packed, each t_i in the disc root_of(i), at scale 2^-prec; root_of is
    called once per generator whose ball the sum first builds.  powers
    {(i, e): ball of t_i^e} holds the power balls already built at prec and
    keeps those the sum builds; without it, each call builds its own.

    The integer numerators are summed as they are, and the disc keeps den
    as its denominator.  The sum is nested lowest generator innermost: the
    terms that share their exponents of t_(i+1), t_(i+2), ... form one
    group at level i, whose partial sum is multiplied by the power of t_i
    they carry once the group is complete.  The terms are visited in
    increasing key order, which compares the highest generator's field
    first, so each group is contiguous and one partial sum per level is
    open at a time.  A partial sum stays an exact integer until a power
    multiplies it, exactly, and sums are exact, so the disc depends only on
    the groups, not on the order of the terms."""
    n = -(-max(nums, default=0).bit_length() // _W)     # levels
    if not n:
        v = nums.get(0, 0)
    else:
        # the sentinel's field n differs from every key's, so it completes
        # every open group, up to level n
        items = sorted(nums.items())
        items.append((1 << n * _W, 0))
        acc = [0] * (n + 2)          # acc[i]: the open group of level i
        if powers is None:
            powers = {}
        last, acc[0] = items[0]
        for key, v in items[1:]:
            # the highest generator whose exponent changes completes the
            # groups of its level and of every level below
            for i in range(((key ^ last).bit_length() - 1) // _W + 1):
                w, e = acc[i], (last >> i * _W) & _MASK
                if e:
                    power = powers.get((i, e))
                    if power is None:
                        if (i, 1) not in powers:
                            powers[i, 1] = _disc_ball(root_of(i), prec)
                        power = powers[i, e] = _pow(powers[i, 1], e, prec)
                    if type(w) is int:
                        w = w * power[0], w * power[1], abs(w) * power[2]
                    else:
                        w = _mul(w, power, prec)
                up = acc[i + 1]     # _add, without a call for an empty group
                acc[i + 1] = w if type(up) is int and not up else _add(up, w, prec)
                acc[i] = 0
            acc[0] = v
            last = key
        v = acc[n + 1]
    if type(v) is int:
        v = v << prec, 0, 0
    return _Disc(*v, den, prec)


class ExtensionDescriptor:
    """One generator: a square-free monic modulus plus the certified
    isolation disc that pins which of its roots the generator denotes.  The
    disc is never replaced, so the root identity (root_id in the canonical
    root order) can never change.
    """

    def __init__(self, modulus: UPoly, root: RootApprox):
        self.modulus = modulus
        self.root_id = root.index
        self._root = root
        # the primitive integer modulus, listed by serialize
        ints, _ = modulus.to_int_coeffs()
        self.int_coeffs = ints
        # reduced t^e for e >= d as (integer numerators of t^0..t^(d-1),
        # denominator), from t^d on; int_power extends it on demand
        self._int_powers = [_lowest_terms([-c for c in ints[:-1]], ints[-1])]
        self._discs: dict[int, RootApprox] = {}    # digits -> refine_to(digits)

    @property
    def degree(self) -> int:
        return self.modulus.degree

    def int_power(self, e: int) -> tuple[list[int], int]:
        """Reduced form of t^e, e >= degree: numerators of t^0..t^(d-1) over
        one positive denominator."""
        rows = self._int_powers
        d = self.degree
        base, q = rows[0]
        while len(rows) <= e - d:
            prev, den = rows[-1]
            head = prev[-1]
            rows.append(_lowest_terms(
                [head * b + (prev[i - 1] * q if i else 0) for i, b in enumerate(base)],
                den * q))
        return rows[e - d]

    def refine_to(self, digits: int) -> RootApprox:
        """The root's disc of radius below 10^-digits, kept by digits: the
        isolation disc if it is that narrow, else the isolation disc refined
        below 10^-_RECORD_DIGITS and, past those digits, that disc refined
        below 10^-digits, each 10^-d at mpmath's default 53 bits."""
        disc = self._discs.get(digits)
        if disc is None:
            root, target = self._root, _ten_to_minus(digits, 53)
            if digits > _RECORD_DIGITS:
                root = self.refine_to(_RECORD_DIGITS)
            elif not mpf_lt(root.radius._mpf_, target._mpf_):
                target = _ten_to_minus(_RECORD_DIGITS, 53)
            disc = self._discs[digits] = refine_root(self.modulus, root, target)
        return disc

    def serialize(self) -> dict:
        """The generator record: the primitive integer modulus, the root id
        and the center of the root's _RECORD_DIGITS-digit disc to 20
        significant digits.  The center's texts are built once per root in
        the process (_center_texts), and each call returns a new dict."""
        re, im = _center_texts(self.refine_to(_RECORD_DIGITS))
        return {"modulus_int_coeffs": [str(c) for c in self.int_coeffs],
                "root_index": self.root_id, "root_approx": {"re": re, "im": im}}


@lru_cache(maxsize=512)
def _center_texts(disc: RootApprox) -> tuple[str, str]:
    """The real and imaginary parts of a disc's center to 20 significant
    digits.  refine_to hands out one disc per root and digits (the
    isolation record or roots' shared refinement), so a root's record is
    printed once per process."""
    re, im = disc.center._mpc_
    return to_str(re, 20), to_str(im, 20)


class TowerContext:
    """Append-only registry of extension descriptors.

    Elements of different contexts never mix; growing a context keeps all
    previously created elements valid.
    """

    def __init__(self):
        self.extensions: list[ExtensionDescriptor] = []
        self.degrees: tuple[int, ...] = ()
        self._cauchy: dict[tuple[UPoly, int], tuple] = {}
        # (monic modulus, root_id) -> index of its first generator
        self._located: dict[tuple[UPoly, int], int] = {}
        # (curve polynomial, abscissa) -> that curve's section, filled by
        # curves.Curve.section
        self.sections: dict = {}
        # working precision -> {(i, e): the ball of t_i^e}, shared by the
        # discs of every element at that precision (_nested_ball)
        self._powers: dict[int, dict] = {}

    def __len__(self):
        return len(self.extensions)

    def constant(self, value) -> "TowerElement":
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        n = value.numerator
        return _element(self, {0: n} if n else {}, value.denominator)

    @property
    def zero(self) -> "TowerElement":
        return self.constant(0)

    @property
    def one(self) -> "TowerElement":
        return self.constant(1)

    def monomial(self, g: int, b: int, c) -> "TowerElement":
        """c t_g^b for a rational c and 0 <= b < deg(t_g) (ValueError
        otherwise), as one term: the element that c times the b-th power of
        the generator gives, with no product taken."""
        if not 0 <= b < self.degrees[g]:
            raise ValueError(f"t{g}^{b} is not reduced at degree {self.degrees[g]}")
        n = c.numerator
        return _element(self, {b << g * _W: n}, c.denominator) if n else self.zero

    def generator(self, i: int) -> "TowerElement":
        if not 0 <= i < len(self.extensions):
            raise IndexError(f"no generator t{i} in this context")
        modulus = self.extensions[i].modulus
        if modulus.degree == 1:
            # reduced form of t modulo the monic t + m_0: the root itself
            return self.constant(-modulus.coeffs[0])
        return _element(self, {1 << i * _W: 1}, 1)

    def locate(self, modulus: UPoly, root_id: int) -> int | None:
        """Index of the first generator for the root_id-th root of the
        modulus, or None."""
        return self._located.get((modulus.monic(), root_id))

    def cauchy_module(self, modulus: UPoly, j: int) -> tuple[int, tuple]:
        """The j-th Cauchy module of a monic modulus of degree r, in integers,
        as the rewrite rule u_j^d -> tail.

        With sum c_i t^i its primitive integer form, t = u/c_r gives the
        monic integer S(u) = sum s_i u^i, s_i = c_i c_r^(r-1-i); its module
        f_j = sum_i s_i h_(i-j+1)(u_1..u_j), h_d the complete homogeneous
        symmetric polynomial, is c_r^(r-j+1) times the modulus's at t_i =
        u_i/c_r.  f_j is monic of degree d = r-j+1 in u_j; tail lists
        (exponents of u_1..u_j, integer coefficient) pairs of u_j^d - f_j.
        """
        key = (modulus, j)
        rule = self._cauchy.get(key)
        if rule is None:
            ints, _ = modulus.to_int_coeffs()
            lpows = powers(ints[-1], len(ints) - 1, 1)
            s = [c * lp for c, lp in zip(ints[:-1], reversed(lpows))]
            rule = self._cauchy.setdefault(key, _cauchy_rule(s + [1], j))
        return rule

    def _append(self, ext: ExtensionDescriptor) -> int:
        self.extensions.append(ext)
        self.degrees += (ext.degree,)
        idx = len(self.extensions) - 1
        self._located.setdefault((ext.modulus, ext.root_id), idx)
        return idx


def adjoin(ctx: TowerContext, modulus: UPoly, root_id: int) -> tuple[TowerContext, "TowerElement"]:
    """Append a generator for the root_id-th root (canonical order) of a
    square-free modulus; returns the grown context and the new generator."""
    monic = modulus.monic()
    if monic.degree < 1:
        raise NotSquareFree("modulus must have degree >= 1")
    if monic.degree > 1 << _W - 1:
        raise ValueError(f"modulus of degree {monic.degree} above {1 << _W - 1}: "
                         f"a product's exponents would overflow a {_W}-bit field")
    roots = isolate_roots(monic)  # raises NotSquareFree when appropriate
    if not 0 <= root_id < len(roots):
        raise IndexError(f"root index {root_id} out of range for degree {len(roots)}")
    idx = ctx._append(ExtensionDescriptor(monic, roots[root_id]))
    return ctx, ctx.generator(idx)


def locate_or_adjoin(ctx: TowerContext, modulus: UPoly, root_id: int) -> "TowerElement":
    found = ctx.locate(modulus, root_id)
    if found is not None:
        return ctx.generator(found)
    return adjoin(ctx, modulus, root_id)[1]


class Detached(NamedTuple):
    """Elements apart from any context.  generators names each generator
    they use by (monic modulus, root id), in the index order of the
    context they came from; each element is its (key, numerator) pairs,
    keys listing the exponents of those generators, and its denominator."""

    generators: tuple[tuple[UPoly, int], ...]
    elements: tuple[tuple[tuple, int], ...]     # (terms, denominator)


def detach(elements: list["TowerElement"]) -> Detached:
    """Elements of one context, over one table of the generators they
    use."""
    exts = elements[0].ctx.extensions
    used = sorted({i for a in elements for i in a.present_generators()})
    return Detached(
        tuple((exts[i].modulus, exts[i].root_id) for i in used),
        tuple((tuple((tuple((k >> i * _W) & _MASK for i in used), n)
                     for k, n in a.nums.items()), a.den) for a in elements))


def attach(detached: Detached, ctx: TowerContext) -> list["TowerElement"]:
    """The detached elements in ctx, each generator of the table located
    there by its modulus and root id, in whatever index order ctx holds
    them.  An element's reduced form is canonical, so relabelling its
    generators gives, term for term, the element that the same operations
    give in ctx (an inversion chooses its generators by their roots, not
    their indices, so it succeeds in every order or in none).  A generator
    that ctx does not hold, or two that it holds as one, is an internal
    error."""
    idx = []
    for modulus, root_id in detached.generators:
        i = ctx.locate(modulus, root_id)
        if i is None:
            raise AbeldiffError(f"no generator for root {root_id} of a degree "
                                f"{modulus.degree} modulus to attach to")
        idx.append(i)
    if len(set(idx)) < len(idx):
        raise AbeldiffError("two generators to attach are one generator of the context")
    shifts = [i * _W for i in idx]
    return [_element(ctx, {sum(e << s for s, e in zip(shifts, compact)): n
                           for compact, n in terms}, den)
            for terms, den in detached.elements]


class TowerElement:
    """An exact algebraic value: reduced polynomial in the context generators.

    Stored as integer numerators nums {packed monomial: n} over one
    denominator den.  Invariant: den > 0, no n is zero, and gcd(den, *nums)
    == 1 (so the zero element has den == 1).  The form is canonical, so equality is
    syntactic.  Immutable once constructed.  Arithmetic coerces ints and
    Fractions, and mixing elements of different contexts raises
    ContextMismatch.
    """

    __slots__ = ("ctx", "nums", "den")

    def __init__(self, ctx: TowerContext, terms: dict):
        """The element sum c_k t^k of rational coefficients terms {k: c_k},
        each k a tuple of exponents of a reduced monomial: the exponent of
        t_j in 0 .. deg(m_j) - 1, and 0 past the context's generators.
        ValueError for any other key, and for two keys that are one
        monomial (equal once trailing zeros are trimmed)."""
        degrees = ctx.degrees
        coeffs = {}
        for key, c in terms.items():
            if any(key[len(degrees):]) or not all(0 <= e < d for e, d in zip(key, degrees)):
                raise ValueError(f"exponents {key} are not a reduced monomial in "
                                 f"generators of degrees {degrees}")
            k = _pack(key[:len(degrees)])
            if k in coeffs:
                raise ValueError(f"two keys for the monomial {_unpack(k)}")
            coeffs[k] = c
        den = lcm(*{c.denominator for c in coeffs.values()})
        self.ctx = ctx
        self.nums = {k: c.numerator * (den // c.denominator) for k, c in coeffs.items() if c}
        self.den = den

    @property
    def terms(self) -> Mapping:
        """The coefficients as Fractions, in the stored key order, keyed by
        exponent tuples without trailing zeros."""
        return _Terms(self.nums, self.den)

    # -- plumbing ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TowerElement):
            if other.ctx is not self.ctx:
                raise ContextMismatch("elements belong to different tower contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.constant(other)
        return None

    def __bool__(self):
        return bool(self.nums)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.nums == o.nums

    __hash__ = None

    # -- ring arithmetic --------------------------------------------------

    def __neg__(self):
        return _element(self.ctx, {k: -n for k, n in self.nums.items()}, self.den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.nums:
            return self
        if not self.nums:
            return o
        den = self.den
        if o.den == den:
            out, b = dict(self.nums), o.nums
        else:
            den = lcm(den, o.den)
            out, b = _times(self.nums, den // self.den), _times(o.nums, den // o.den)
        get = out.get
        for k, n in b.items():
            s = get(k, 0) + n
            if s:
                out[k] = s
            else:
                del out[k]
        return _lowest(self.ctx, out, den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational scales the numerators term by term, in their order,
            # with no constant element built: the terms and order the full
            # product gives
            if not other or not self.nums:
                return _element(self.ctx, {}, 1)
            return self._scaled(other.numerator, other.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        a, b = self, o
        if not a.nums or not b.nums:
            return _element(ctx, {}, 1)
        if len(b.nums) == 1 and 0 in b.nums:
            a, b = b, a
        if len(a.nums) == 1 and 0 in a.nums:
            # a rational constant scales the other operand the same way
            return b._scaled(a.nums[0], a.den)
        den = a.den * b.den
        raw: dict[int, int] = {}
        get = raw.get
        terms_b = b.nums.items()
        for k1, c1 in a.nums.items():
            for k2, c2 in terms_b:
                k = k1 + k2
                raw[k] = get(k, 0) + c1 * c2
        # the fields of the ORs of the keys bound each operand's exponents
        seen_a, seen_b = reduce(or_, a.nums), reduce(or_, b.nums)
        degrees = ctx.degrees
        for j in range(len(degrees) - 1, -1, -1):
            shift = j * _W
            if ((seen_a >> shift) & _MASK) + ((seen_b >> shift) & _MASK) >= degrees[j]:
                raw, scale = _reduce_generator(raw, ctx.extensions[j], degrees[j], shift)
                den *= scale
        return _lowest(ctx, {k: n for k, n in raw.items() if n}, den)

    __rmul__ = __mul__

    def times_generator(self, g: int) -> "TowerElement":
        """self * t_g as one shift of every key, for self of degree below
        deg(t_g) - 1 in t_g (ValueError otherwise): the terms, in order, and
        the denominator of the product, which then reduces nothing."""
        shift = g * _W
        if any((k >> shift & _MASK) + 1 >= self.ctx.degrees[g] for k in self.nums):
            raise ValueError(f"t{g} times an element of degree "
                             f"{self.ctx.degrees[g] - 1} in it needs a reduction")
        one = 1 << shift
        return _element(self.ctx, {k + one: n for k, n in self.nums.items()}, self.den)

    def _scaled(self, p: int, q: int) -> "TowerElement":
        """self * p/q for p/q in lowest terms, q > 0: the common factors of p
        with den and of q with the numerators cancel first, as in Fraction's
        product, which leaves the result in lowest terms."""
        g = gcd(p, self.den)
        h = gcd(q, *self.nums.values()) if q != 1 else 1
        p //= g
        den = self.den // g * (q // h)
        if h == 1:
            nums = {k: n * p for k, n in self.nums.items()}
        else:
            nums = {k: n // h * p for k, n in self.nums.items()}
        return _element(self.ctx, nums, den)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a tower element; use invert()")
        return power(self, n, self.ctx.one)

    def __truediv__(self, other):
        """Division by a nonzero rational only: invert() is the one inverse
        of an element."""
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivision("division by zero")
            other = Fraction(other)
            if other < 0:
                return self._scaled(-other.denominator, -other.numerator)
            return self._scaled(other.denominator, other.numerator)
        return NotImplemented

    # -- structure --------------------------------------------------------

    def is_rational(self) -> bool:
        return not any(self.nums)

    def as_fraction(self) -> Fraction:
        if not self.nums:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError("element is not syntactically rational")
        return Fraction(self.nums[0], self.den)

    def present_generators(self) -> list[int]:
        """The indices of the generators that occur in some term, in
        order: the nonzero fields of the OR of the keys."""
        return [i for i, e in enumerate(_unpack(reduce(or_, self.nums, 0))) if e]

    # -- decisions about the embedded complex value -----------------------

    def is_zero(self) -> bool:
        """Exact decision: does the embedded complex value equal zero?

        The stages run in this order, and each one that decides returns:

        1. Syntactic.  The empty reduced form is zero; a nonzero rational
           is not.
        2. Cauchy normal form.  Generators with one modulus and distinct
           root ids embed to distinct roots of it, so every Cauchy module of
           those generators vanishes there; an element whose normal form
           modulo them is empty embeds to zero.  It is reduced in integers
           on packed monomials, by the modules of the modulus's monic
           integer form.  This decides the residue oracle's zeros, E = 0 at
           the section points that are no pole.
        3. Disc.  A certified disc at 15, then 40 digits that excludes zero
           proves the value nonzero.
        4. Minimal polynomial.  A syntactically nonzero element can embed
           to zero when it is a zero divisor (a reducible modulus, or two
           generators bound to one root).  The ring is a product of fields,
           so the embedded value is a root of the element's minimal
           polynomial mu, and every nonzero root satisfies |root| >=
           |psi_0| / (|psi_0| + max_i |psi_i|) where psi is mu with the
           z-factor stripped; a disc below that bound proves zero.

        Never probabilistic.
        """
        if not self.nums:
            return True
        if self.is_rational():
            return False
        if not _cauchy_normal_form(self):
            return True
        for digits in (15, 40):
            ball = self._ball(digits)
            if ball.excludes_zero():
                return False
        mu = self._minimal_polynomial()
        if mu[0] != 0:
            return False  # no embedding maps this element to zero
        psi = mu[1:]
        if psi[0] == 0:
            raise NotSquareFree(
                "minimal polynomial has a repeated root at zero; "
                "a modulus of the tower is not square-free")
        top = max(abs(c) for c in psi[1:]) if len(psi) > 1 else Fraction(0)
        bound = abs(psi[0]) / (abs(psi[0]) + top)
        while not ball.below(bound):  # from stage 3's 40-digit disc
            digits *= 2
            ball = self._ball(digits)
            if ball.excludes_zero():
                return False
        return True

    def invert(self) -> "TowerElement":
        """Exact inverse by iterated extended Euclid across the generators.

        Raises ZeroDivision for (embedded) zero, NotInvertible with a factor
        witness when a nonzero zero divisor is hit.
        """
        if not self.nums:
            raise ZeroDivision("inverting zero")
        try:
            return _invert(self)
        except NotInvertible:
            if self.is_zero():
                raise ZeroDivision(
                    "inverting an element whose embedded value is zero") from None
            raise

    def _ball(self, digits10: int) -> _Disc:
        """A certified disc about the embedded value, computed in integers
        at the working precision of digits10 digits, from every present
        generator's disc at digits10 digits (refine_to).  Each power ball of
        a generator is built once per context and precision, which
        determines digits10, and kept in the context's table."""
        ctx = self.ctx
        exts, prec = ctx.extensions, int(digits10 * 3.4) + 40
        return _nested_ball(self.nums, self.den, lambda i: exts[i].refine_to(digits10),
                            prec, ctx._powers.setdefault(prec, {}))

    def _minimal_polynomial(self) -> list[Fraction]:
        """Minimal polynomial of the element over Q, monic, coefficients
        lowest degree first: the first linear dependence among the powers
        1, a, a^2, ...  Their integer numerators are the columns of a
        homogeneous system, one row per monomial in any order (the
        elimination picks its pivots), solved by linsolve.ff_solve without a
        right-hand side, with the number of powers doubled until it has a
        nullspace;
        its first vector w belongs to the first free column k, is 1 there
        and zero past it, so
        mu_j = w_j den_j / den_k, den_j the denominator of a^j.  Moduli are
        square-free, so the ring is a product of number fields and mu is
        prod (z - v) over the distinct values v the element takes across
        all embeddings, usually of degree far below the subring dimension.
        """
        powers = [self.ctx.one, self]
        while True:
            rows = [[p.nums.get(k, 0) for p in powers]
                    for k in set().union(*(p.nums for p in powers))]
            nullspace = ff_solve(rows).nullspace
            if nullspace:
                w = list(nullspace[0])
                while not w[-1]:
                    w.pop()
                top = powers[len(w) - 1].den
                return [c * Fraction(p.den, top) for c, p in zip(w, powers)]
            for _ in range(len(powers)):
                powers.append(powers[-1] * self)

    def approximate(self, digits: int) -> mp.mpc:
        """The center of a certified disc of radius below 10**-digits/2
        about the embedded value, rounded to digits + 5 significant digits;
        printed to digits significant digits, it is the decimal."""
        return _certified(self._ball, digits)

    def serialize(self, digits: int | None = None) -> dict:
        gens = self.present_generators()
        doc = {
            "generators": [self.ctx.extensions[i].serialize() for i in gens],
            "coefficients": [
                [list(key), _fraction_str(n, self.den)]
                for key, n in sorted((_unpack(k), n) for k, n in self.nums.items())
            ],
        }
        if digits:
            doc["decimal"] = {**decimal_parts(self.approximate(digits), digits),
                              "digits": digits}
        return doc

    def __repr__(self):
        if self.is_rational():
            return f"TowerElement({self.as_fraction()})"
        try:
            v = self.approximate(8)
            return f"TowerElement(~{mp.nstr(v, 8)}; {len(self.nums)} terms)"
        except Exception:
            return f"TowerElement({len(self.nums)} terms)"


class Quotient:
    """An exact algebraic value numerator / denominator, two elements of one
    context whose denominator embeds to a nonzero number; nothing is ever
    divided exactly.  Its decimal comes from certified division of the two
    parts' discs at one working precision (ball division, see
    _quotient_disc).  Immutable."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: TowerElement, denominator: TowerElement):
        if numerator.ctx is not denominator.ctx:
            raise ContextMismatch("quotient parts belong to different tower contexts")
        if not denominator.nums:
            raise ZeroDivision("quotient with a zero denominator")
        self.numerator = numerator
        self.denominator = denominator

    def is_zero(self) -> bool:
        """Exact decision, the numerator's: the denominator is nonzero."""
        return self.numerator.is_zero()

    def approximate(self, digits: int) -> mp.mpc:
        """As TowerElement.approximate, from the quotient of the parts'
        discs."""
        num, den = self.numerator, self.denominator
        return _certified(lambda work: _quotient_disc(num._ball(work), den._ball(work)),
                          digits)

    def serialize(self, digits: int | None = None) -> dict:
        """Both parts in the element form, and with digits the decimal."""
        doc = {"numerator": self.numerator.serialize(),
               "denominator": self.denominator.serialize()}
        if digits:
            doc["decimal"] = {**decimal_parts(self.approximate(digits), digits),
                              "digits": digits}
        return doc


def _certified(ball, digits: int) -> mp.mpc:
    """The center of the first disc ball(work) of radius below
    10**-digits/2 (nine attempts), rounded to digits + 5 significant digits;
    ball returns None at a precision that certifies nothing.  The working
    digits start at digits + 10 and grow by 20 per attempt, and by the size
    in decimal digits of a disc that fails: its radius is absolute, so a
    value of 10^k needs about k more working digits."""
    scale = 2 * 10 ** digits
    work = digits + 10
    for _ in range(9):
        disc = ball(work)
        if disc is not None and disc.rad * scale < disc.den << disc.prec:
            return mp.make_mpc(disc.center_parts(dps_to_prec(digits + 5)))
        work += 20
        if disc is not None:
            size = (_mag(disc.re, disc.im) + disc.rad) // (disc.den << disc.prec)
            work += size.bit_length() * 3 // 10
    raise AbeldiffError("approximation did not converge")


def _quotient_disc(a: _Disc, b: _Disc) -> _Disc | None:
    """A disc about x/y for every x in a and y in b, at their scale 2^-P
    over the denominator 1; None while b meets zero.

    With c_a, c_b the centers and r_a, r_b the radii,
    |x/y - c_a/c_b| <= (r_a + |c_a/c_b| r_b) / (|c_b| - r_b).  In units,
    with A, B the integer centers, this is
    2^P b.den (a.rad L + U b.rad) / (a.den L (L - b.rad)) for any
    U >= |A| and 0 < L <= |B|, rounded upward.  The center is the Gaussian
    quotient A conj(B) b.den 2^P / (|B|^2 a.den), each part truncated toward
    zero, under 2 units off in all."""
    norm = b.re * b.re + b.im * b.im
    low = isqrt(norm)
    if low <= b.rad:
        return None
    prec = a.prec
    q = norm * a.den
    re = (a.re * b.re + a.im * b.im) * b.den << prec
    im = (a.im * b.re - a.re * b.im) * b.den << prec
    re = re // q if re >= 0 else -(-re // q)
    im = im // q if im >= 0 else -(-im // q)
    high = isqrt(a.re * a.re + a.im * a.im) + 1
    rad = (a.rad * low + high * b.rad) * b.den << prec
    rad = -(-rad // (a.den * low * (low - b.rad))) + 2
    return _Disc(re, im, rad, 1, prec)


def decimal_parts(value: mp.mpc, digits: int) -> dict:
    """The "re" and "im" strings of a value certified to within
    10**-digits/2, each to digits significant digits.  A component below
    10**-digits/2 in magnitude prints as 0.0: its digits would be rounding
    noise, and 0.0 is still within 10**-digits of the true component.
    Decided and printed in integers on the raw mpf parts, with the
    comparison that mpmath's abs and < make at digits + 5 digits and the
    text that nstr prints (_decimal)."""
    prec, tiny = _print_threshold(digits)
    return {part: _decimal(x, digits, prec, tiny)
            for part, x in zip(("re", "im"), value._mpc_)}


_LOG2_10 = log(10, 2)      # the float libmp.to_str converts digits by


def _decimal(x: tuple, digits: int, prec: int, tiny: tuple) -> str:
    """The text of the raw mpf x: "0.0" when |x| rounded to the nearest at
    prec bits is below tiny, else libmp.to_str(x, digits), in integers.

    Its rules, which the digits follow: x is floored to digits + 3 decimal
    digits, through a fixed-point integer of fixprec fractional bits; the
    digit string is rounded half up at its last printed digit, a carry out
    of it adding one to the exponent; the form is fixed when the leading
    digit's exponent lies strictly between min(-(digits // 3), -5) and
    digits, else d.ddd with an exponent; trailing zeros are stripped.  A
    part whose binary exponent passes 3500, where to_str divides by a power
    of ten at high precision first, a special value, and digits 0 are
    to_str's own."""
    sign, man, exp, bc = x
    if not man:
        return "0.0" if x == fzero else to_str(x, digits)
    m, e = man, exp
    if bc > prec:
        m, e = _nearest(man, bc - prec, 0), exp + bc - prec
    _, tman, texp, _ = tiny
    if m << e - texp < tman if e >= texp else m < tman << texp - e:
        return "0.0"
    if abs(exp + bc) > 3500 or not digits:
        return to_str(x, digits)
    size = digits + 3
    fixprec = max(int(size * _LOG2_10) + 10 - exp - bc, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = exp + fixprec
    fixed = man << shift if shift >= 0 else man >> -shift
    text = numeral(fixed * 10 ** fixdps >> fixprec, 10, size)
    point = len(text) - fixdps - 1     # the leading digit's exponent
    if len(text) > digits and text[digits] >= "5":
        # the text has no leading zero, so its head rounds up as an integer
        text = str(int(text[:digits]) + 1)
        if len(text) > digits:         # 99..9 became 10..0
            text = text[:digits]
            point += 1
    else:
        text = text[:digits]
    if min(-(digits // 3), -5) < point < digits:
        if point < 0:
            text = "0" * -point + text
            split = 1
        else:
            split = point + 1
            if split > digits:
                text += "0" * (split - digits)
        point = 0
    else:
        split = 1
    text = (text[:split] + "." + text[split:]).rstrip("0")
    if text[-1] == ".":
        text += "0"
    if sign:
        text = "-" + text
    if not point:
        return text
    return f"{text}e+{point}" if point > 0 else f"{text}e{point}"


@lru_cache(maxsize=256)
def _ten_to_minus(digits: int, prec: int) -> mp.mpf:
    """10**-digits as an mpf at prec bits.  Shared by every caller, and
    immutable."""
    with mp.workprec(prec):
        return mp.mpf(10) ** (-digits)


@lru_cache(maxsize=256)
def _print_threshold(digits: int) -> tuple[int, tuple]:
    """(p, 10**-digits/2 as a raw mpf), p the precision of digits + 5
    decimal digits: _ten_to_minus at p, halved exactly."""
    p = dps_to_prec(digits + 5)
    return p, mpf_shift(_ten_to_minus(digits, p)._mpf_, -1)


class _Terms(Mapping):
    """An element's coefficients n/den as Fractions, in the stored key
    order, keyed by exponent tuples; each built when it is read."""

    __slots__ = ("_nums", "_den")

    def __init__(self, nums: dict, den: int):
        self._nums = nums
        self._den = den

    def __getitem__(self, key) -> Fraction:
        try:
            k = _pack(key)
        except struct.error:
            raise KeyError(key) from None
        return Fraction(self._nums[k], self._den)

    def __iter__(self):
        return map(_unpack, self._nums)

    def __len__(self):
        return len(self._nums)

    def __repr__(self):
        return repr(dict(self.items()))


def _element(ctx: TowerContext, nums: dict, den: int) -> TowerElement:
    """The element of numerators nums over den, already in lowest terms."""
    e = object.__new__(TowerElement)
    e.ctx = ctx
    e.nums = nums
    e.den = den
    return e


def _lowest(ctx: TowerContext, nums: dict, den: int) -> TowerElement:
    """The element of nonzero numerators nums over den > 0, after one gcd."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {k: n // g for k, n in nums.items()}
            den //= g
    return _element(ctx, nums, den)


def _times(nums: dict, f: int) -> dict:
    """The numerators nums multiplied by f, in a new dict."""
    return {k: n * f for k, n in nums.items()} if f != 1 else dict(nums)


def _fraction_str(n: int, den: int) -> str:
    """str(Fraction(n, den)) for den > 0."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def _lowest_terms(nums: list[int], den: int) -> tuple[list[int], int]:
    g = gcd(den, *nums)
    return [n // g for n in nums], den // g


def _pack(key: tuple) -> int:
    """The monomial of exponent key packed into one int: the exponent of t_j
    in bits j*_W .. (j+1)*_W - 1, so multiplying monomials adds their
    packed forms.  One struct conversion of the exponents as little-endian
    16-bit fields, which raises struct.error for one outside 0 .. _MASK."""
    return int.from_bytes(struct.pack(f"<{len(key)}H", *key), "little")


def _unpack(k: int) -> tuple:
    """The exponent tuple of a packed key, without trailing zeros: its
    16-bit fields up to the highest nonzero one."""
    n = -(-k.bit_length() // _W)
    return struct.unpack(f"<{n}H", k.to_bytes(2 * n, "little"))


def _reduce_generator(raw: dict, ext: ExtensionDescriptor, d: int,
                      shift: int) -> tuple[dict, int]:
    """Replace every t^e with e >= d = deg(t) of the generator packed at
    shift by its reduced form; returns the new numerators, zeros possibly
    among them, and the factor by which their common denominator grew."""
    out: dict[int, int] = {}
    over = []
    for k, c in raw.items():
        e = (k >> shift) & _MASK
        if e < d:
            out[k] = c
        elif c:
            over.append((k - (e << shift), e, c))
    if not over:
        return out, 1
    rows = {e: ext.int_power(e) for e in {e for _, e, _ in over}}
    scale = lcm(*(q for _, q in rows.values()))
    if scale != 1:
        out = {k: c * scale for k, c in out.items()}
    get = out.get
    for base, e, c in over:
        nums, q = rows[e]
        c *= scale // q
        for i, n in enumerate(nums):
            if n:
                k = base + (i << shift)
                out[k] = get(k, 0) + c * n
    return out, scale


# -- Cauchy modules ---------------------------------------------------------


def _cauchy_rule(coeffs: list[int], j: int) -> tuple[int, tuple]:
    r = len(coeffs) - 1
    d = r - j + 1
    tail: dict[tuple[int, ...], int] = {}
    for i in range(j - 1, r + 1):
        if not coeffs[i]:
            continue
        for combo in combinations_with_replacement(range(j), i - j + 1):
            exps = [0] * j
            for pos in combo:
                exps[pos] += 1
            if exps[-1] == d:
                continue  # the leading monomial u_j^d
            exps = tuple(exps)
            tail[exps] = tail.get(exps, 0) - coeffs[i]
    return d, tuple((e, c) for e, c in tail.items() if c)


def _cauchy_normal_form(a: TowerElement) -> dict:
    """Normal form of a's numerators, times nonzero integers, modulo its
    generators' Cauchy modules: empty exactly when a's is.

    Generators are grouped by modulus, keeping the first generator of each
    root id (the modules hold only for distinct roots).  Only generators
    present in a take part, so a group of k generators of a degree-r modulus
    spans a quotient of dimension r(r-1)...(r-k+1).  Within a group t_1..t_k
    the modules form a lex Groebner basis; reducing t_k first, down to t_1,
    gives the normal form.  Groups of one generator are skipped: a's terms
    are already reduced by their modulus, which is f_1.

    A group is reduced in integers by cauchy_module's rules, in u_i =
    L t_i: n_k t^k is n_k u^k / L^|k|, |k| its degree in the group, so n_k
    is multiplied by L^(top - |k|), top the largest |k|.  The rewrites work
    on the stored keys: none raises a total degree in the group, so no
    field passes k(r - 1), which a field holds for every r <= 256.  A group
    where it might not is left to the later stages (a form modulo fewer
    modules is empty only for a zero too).
    """
    ctx = a.ctx
    groups: dict[UPoly, dict[int, int]] = {}
    for g in a.present_generators():
        ext = ctx.extensions[g]
        groups.setdefault(ext.modulus, {}).setdefault(ext.root_id, g)
    terms = a.nums
    for modulus, gens in groups.items():
        if len(gens) < 2 or len(gens) * (modulus.degree - 1) > _MASK:
            continue
        gens = sorted(gens.values())
        if (lead := ctx.extensions[gens[0]].int_coeffs[-1]) != 1:
            degs = [sum((k >> g * _W) & _MASK for g in gens) for k in terms]
            top = max(degs)
            terms = {k: n * lead ** (top - e) for (k, n), e in zip(terms.items(), degs)}
        for j in range(len(gens), 0, -1):
            terms = _reduce_leading(terms, gens[:j], *ctx.cauchy_module(modulus, j))
            if not terms:
                return terms
    return terms


def _reduce_leading(terms: dict, gens: list[int], d: int, tail: tuple) -> dict:
    """Rewrite u^d -> tail (exponents over gens), u = gens[-1], until every
    key has degree below d in u.  A rewrite adds a delta from moves[x], the
    (delta, coefficient) pairs of tail's terms of u-degree x."""
    shift = gens[-1] * _W
    moves: dict[int, list] = {}
    for exps, c in tail:
        delta = sum(x << g * _W for g, x in zip(gens, exps)) - (d << shift)
        moves.setdefault(exps[-1], []).append((delta, c))
    levels: dict[int, dict] = {}
    for k, c in terms.items():
        levels.setdefault((k >> shift) & _MASK, {})[k] = c
    out: dict = {}
    for e in range(max(levels), -1, -1):
        level = levels.pop(e, {})
        if e < d:
            out.update(level)
            continue
        for k, c in level.items():
            for x, pairs in moves.items():
                bucket = levels.setdefault(e - d + x, {})
                get = bucket.get
                for delta, tc in pairs:
                    nk = k + delta
                    v = get(nk, 0) + c * tc
                    if v:
                        bucket[nk] = v
                    else:
                        del bucket[nk]
    return out


# -- inversion ------------------------------------------------------------


def _as_upoly(a: TowerElement, j: int) -> UPoly:
    """a as a polynomial in generator j, whose coefficients are elements
    not involving t_j."""
    shift = j * _W
    buckets: list[dict] = [dict() for _ in range(a.ctx.degrees[j])]
    for k, n in a.nums.items():
        e = (k >> shift) & _MASK
        buckets[e][k - (e << shift)] = n
    return UPoly([_lowest(a.ctx, b, a.den) for b in buckets])


def _divmod(num: UPoly, den: UPoly) -> tuple[UPoly, UPoly]:
    """Quotient and remainder of num by den, whose coefficients are
    elements; den's lead is inverted (NotInvertible when it is a zero
    divisor).  Step k cancels rem[k + d] exactly, so it is not updated."""
    lead = den.leading
    lead_inv = lead if lead == 1 else _invert(lead)
    rem = list(num.coeffs)
    d = den.degree
    quo = [0] * max(len(rem) - d, 0)
    for k in range(len(quo) - 1, -1, -1):
        if rem[k + d]:
            c = quo[k] = rem[k + d] * lead_inv
            for i, dc in enumerate(den.coeffs[:d]):
                rem[i + k] = rem[i + k] - c * dc
    return UPoly(quo), UPoly(rem[:d])


def _invert(a: TowerElement) -> TowerElement:
    ctx = a.ctx
    if not a.nums:
        raise ZeroDivision("inverting zero")
    gens = a.present_generators()
    if not gens:
        return ctx.constant(Fraction(a.den, a.nums[0]))
    # Euclid runs in the present generator that comes last in an order of
    # the roots themselves, so whether a unit inverts does not depend on
    # the order in which its generators were adjoined
    exts = ctx.extensions
    j = max(gens, key=lambda i: (exts[i].int_coeffs, exts[i].root_id, i))
    r0 = UPoly([ctx.constant(c) for c in exts[j].modulus.coeffs])
    r1 = _as_upoly(a, j)
    s0, s1 = UPoly(), UPoly([ctx.one])
    while r1.degree > 0:
        q, r = _divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r1:
        # a nonzero constant remainder rho = s1 * a (mod the modulus): it is
        # inverted here once, not again by a last division
        return s1.eval(ctx.generator(j)) * _invert(r1.coeffs[0])
    # nontrivial common factor of a and the modulus: witness for a split
    g = r0.coeffs
    try:
        glead_inv = _invert(g[-1])
        monic = [c * glead_inv for c in g]
    except NotInvertible:
        monic = list(g)
    witness: object
    if all(c.is_rational() for c in monic):
        witness = UPoly([c.as_fraction() for c in monic])
    else:
        witness = monic
    raise NotInvertible(j, witness)


def y_coefficients(p: BPoly, x, ctx: TowerContext) -> list[TowerElement]:
    """p(x, y) at a rational x as its coefficients c_0 .. c_deg_y(p) in y,
    elements of ctx: c_j = sum_i c_ij x^i, its numerator at each monomial key
    summed on the integer numerators of the c_ij by polys.at_ratio, and
    stored in lowest terms.  A c_ij is a rational or an element of ctx;
    one of another context raises ContextMismatch."""
    x = Fraction(x)
    # per y-degree, key -> the (i, numerator, denominator) triples of the
    # key's coefficient in c_ij
    cols: list[dict] = [{} for _ in range(p.degree_y + 1)]
    for (i, j), c in p.terms.items():
        col = cols[j]
        if isinstance(c, TowerElement):
            if c.ctx is not ctx:
                raise ContextMismatch("a coefficient belongs to another tower context")
            d = c.den
            for k, n in c.nums.items():
                col.setdefault(k, []).append((i, n, d))
        else:
            col.setdefault(0, []).append((i, c.numerator, c.denominator))
    out = []
    for col in cols:
        sums = [(k, *at_ratio(triples, x.numerator, x.denominator))
                for k, triples in col.items()]
        den = lcm(*(d for _, n, d in sums if n))
        out.append(_lowest(ctx, {k: n * (den // d) for k, n, d in sums if n}, den))
    return out


def eval_bpoly(p: BPoly, x, y: TowerElement) -> TowerElement:
    """Exact evaluation of a bivariate polynomial at a rational abscissa and
    a tower ordinate.  Coefficients may themselves be tower elements of the
    same context.

    When y is a bare generator t_g (every section ordinate is one), the
    section polynomial's coefficients c_j are taken first (y_coefficients),
    and sum_j c_j t_g^j needs no ring product: each key of c_j has j added
    to its field of t_g, over one lcm denominator, and _reduce_generator
    reduces the powers of t_g as for a product.  That field must hold the
    y-degree plus deg(t_g) - 1, else a ValueError.  Any other ordinate goes
    to BPoly.eval; adding it to ctx.zero keeps the value of a zero or y-free
    polynomial an element."""
    if not isinstance(y, TowerElement):
        raise TypeError("ordinate must be a TowerElement")
    ctx = y.ctx
    g = bare_generator(y)
    if g is None:
        return ctx.zero + p.eval(Fraction(x), y)
    deg = ctx.degrees[g]    # a y-degree may pass deg at a hand-built point
    if p.degree_y + deg - 1 > _MASK:
        raise ValueError(f"y-degree {p.degree_y} at a generator of degree {deg} "
                         f"overflows a {_W}-bit exponent field")
    cols = y_coefficients(p, x, ctx)
    shift = g * _W
    den = lcm(*(c.den for c in cols))
    raw: dict[int, int] = {}
    get = raw.get
    for j, c in enumerate(cols):
        f = den // c.den
        for k, n in c.nums.items():
            k += j << shift
            raw[k] = get(k, 0) + n * f
    raw, scale = _reduce_generator(raw, ctx.extensions[g], deg, shift)
    return _lowest(ctx, {k: n for k, n in raw.items() if n}, den * scale)


def bare_generator(y: TowerElement, degree: int = 1) -> int | None:
    """g when y is the generator t_g itself and deg(t_g) >= degree, so that
    y^0 .. y^(degree - 1) are reduced monomials; else None."""
    if len(y.nums) != 1 or y.den != 1:
        return None
    (k, n), = y.nums.items()
    g = (k.bit_length() - 1) // _W
    if n == 1 and k and k == 1 << g * _W and y.ctx.degrees[g] >= degree:
        return g
    return None
