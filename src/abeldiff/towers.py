"""Exact algebraic numbers as elements of a flat multi-extension ring.

A TowerContext is an append-only list of generators t1, t2, ..., each bound
to a square-free rational modulus m_j and to one certified root of it.  An
element is a multivariate polynomial in the generators, fully reduced so that
the degree in t_j stays below deg(m_j); that reduced form is the canonical
representative, so ring-level zero testing is purely syntactic.

Elements store their reduced form as a dict of Fraction coefficients.  A
product is computed in integers: each operand is scaled by the lcm of its
denominators, monomials are packed into single ints so that multiplying two
of them is one addition, and the raw product is reduced one present
generator at a time, highest first, by substituting t_j^e (e >= deg m_j)
from a per-generator cache of reduced powers held as integer numerators over
one denominator.  One Fraction is built per output term.  A product with a
rational constant (or zero) skips all of that: it scales the other
operand's terms one by one, which gives the same terms in the same order.

eval_bpoly evaluates a bivariate polynomial at a point nested: it collects
the coefficients of the section polynomial in y first, then sums them
against the ordinate, assembling the terms directly when the ordinate is a
bare generator of high enough degree and by Horner's rule otherwise.

The ring maps into the complex numbers by sending every generator to its
chosen root.  That map is a ring homomorphism for any root choice, and all
public predicates (is_zero, approximate) answer questions about the embedded
complex value.  Both rest on one fixed-point ball kernel in Python
integers: a ball is a center (re, im) of integers at scale 2^-P, P the
working precision, and a radius counted in units of 2^-P, rounded upward.
The element's coefficients enter as integer numerators over their lcm D,
which divides once, at the end.  The terms are summed one generator at a
time, lowest index first: the partial sums that share the rest of their key
are multiplied by one power ball and merged, so there is about one ball
product per distinct key suffix rather than one per generator of every
term.  Sums and integer multiples of a ball are exact; a product of balls
truncates its center toward zero and adds 2 units to its radius.  Each
generator's powers of its root disc, converted exactly from the disc's raw
mpf parts, come from a cache on the disc, which every request that meets
the same disc shares (roots memoizes refinements), and which holds for one
precision.  The decimal of an element is the center of a disc of radius
below 10^-digits/2, rounded to digits significant digits; a component below
10^-digits/2 in magnitude prints as 0.0.
is_zero decides in four exact stages, cheapest first: the syntactic test on
the reduced form; the normal form modulo the Cauchy modules of the element's
generators, which proves the identities that hold because generators sharing
a modulus denote distinct roots of it (sums over a section are symmetric
functions of its roots); a certified disc that excludes zero; and, where
none of those decides, the minimal polynomial of the multiplication
operator.  Stored elements are only ever reduced by the individual moduli,
so the Cauchy modules change no representation.  Moduli are never factored
and no absolute minimal polynomial is ever computed; reducible moduli only
surface when a zero divisor is inverted, which raises NotInvertible with a
witness factor.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import from_rational, round_nearest, round_up

from .errors import (AbeldiffError, ContextMismatch, NotInvertible,
                     NotSquareFree, ZeroDivision)
from .polys import BPoly, UPoly
from .roots import RootApprox, isolate_roots, refine_root


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


def _power_ball(root: RootApprox, e: int, prec: int) -> tuple:
    """The ball of root raised to e >= 1 at scale 2^-prec, computed once per
    certified disc and precision: the cache is the root's, which every copy
    of the disc that isolate_roots or refine_root hands out shares, in any
    request.  It holds one disc at one precision; another precision, or a
    copy whose disc was changed, starts it afresh."""
    held = root.balls.get(prec)
    if held is None or held[0] is not root.center or held[1] is not root.radius:
        root.balls.clear()
        held = root.balls[prec] = (root.center, root.radius, {})
    powers = held[2]
    ball = powers.get(e)
    if ball is None:
        if 1 not in powers:
            powers[1] = _disc_ball(root, prec)
        ball = powers[e] = _pow(powers[1], e, prec)
    return ball


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

    @property
    def c(self) -> mp.mpc:
        """The center rounded to prec bits."""
        q = self.den << self.prec
        return mp.make_mpc((from_rational(self.re, q, self.prec, round_nearest),
                            from_rational(self.im, q, self.prec, round_nearest)))

    @property
    def r(self) -> mp.mpf:
        """The radius about c, rounded upward: rad plus what rounding the
        center to prec bits can move it, under 2^-prec |center|."""
        extra = (_mag(self.re, self.im) >> self.prec) + 1
        return mp.make_mpf(from_rational(self.rad + extra, self.den << self.prec, 53,
                                         round_up))


def _nested_ball(terms: dict, roots: dict, prec: int) -> _Disc:
    """The disc of sum c_k prod_i t_i^(k_i) over terms {k: c_k}, each t_i in
    the disc roots[i], at scale 2^-prec.

    The coefficients enter as integer numerators over their lcm, which the
    disc keeps as its denominator.  One generator at a time, lowest index
    first: each partial sum is multiplied by the power of t_i it carries
    and merged with those of equal rest of key.  A partial sum stays an
    exact integer until a power multiplies it, exactly."""
    den = lcm(*(c.denominator for c in terms.values()))
    level = {key: c.numerator * (den // c.denominator) for key, c in terms.items()}
    for i in range(max(map(len, level), default=0)):
        root = roots.get(i)
        merged: dict = {}
        for key, v in level.items():
            if key:
                if key[0]:
                    power = _power_ball(root, key[0], prec)
                    if type(v) is int:
                        v = v * power[0], v * power[1], abs(v) * power[2]
                    else:
                        v = _mul(v, power, prec)
                key = key[1:]
            prev = merged.get(key)
            merged[key] = v if prev is None else _add(prev, v, prec)
        level = merged
    v = level.get((), 0)
    if type(v) is int:
        v = v << prec, 0, 0
    return _Disc(*v, den, prec)


class ExtensionDescriptor:
    """One generator: a square-free monic modulus plus the certified
    approximation that pins which of its roots the generator denotes.

    Refinement only ever shrinks the disc, so the root identity (root_id in
    the canonical root order) can never change.
    """

    def __init__(self, modulus: UPoly, root: RootApprox):
        self.modulus = modulus
        self.root_id = root.index
        self._root = root
        # reduced t^e for e >= d as (integer numerators of t^0..t^(d-1),
        # denominator), from t^d on; int_power extends it on demand
        ints, _ = modulus.to_int_coeffs()
        self._int_powers = [_lowest_terms([-c for c in ints[:-1]], ints[-1])]

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

    def approximation(self) -> RootApprox:
        return self._root

    def refine_to(self, target) -> RootApprox:
        if not self._root.radius < target:
            self._root = refine_root(self.modulus, self._root, target)
        return self._root

    def serialize(self) -> dict:
        ints, _ = self.modulus.to_int_coeffs()
        root = self._root
        return {
            "modulus_int_coeffs": [str(c) for c in ints],
            "root_index": self.root_id,
            "root_approx": {
                "re": mp.nstr(root.center.real, 20),
                "im": mp.nstr(root.center.imag, 20),
            },
        }


class TowerContext:
    """Append-only registry of extension descriptors.

    Elements of different contexts never mix; growing a context keeps all
    previously created elements valid.
    """

    def __init__(self):
        self.extensions: list[ExtensionDescriptor] = []
        self.degrees: tuple[int, ...] = ()
        # bits per exponent in a packed monomial: holds any exponent of a
        # product of two reduced elements
        self.width = 1
        self._cauchy: dict[tuple[UPoly, int], tuple] = {}

    def __len__(self):
        return len(self.extensions)

    def constant(self, value) -> "TowerElement":
        value = Fraction(value)
        terms = {(): value} if value else {}
        return TowerElement(self, terms)

    @property
    def zero(self) -> "TowerElement":
        return self.constant(0)

    @property
    def one(self) -> "TowerElement":
        return self.constant(1)

    def generator(self, i: int) -> "TowerElement":
        if not 0 <= i < len(self.extensions):
            raise IndexError(f"no generator t{i} in this context")
        modulus = self.extensions[i].modulus
        if modulus.degree == 1:
            # reduced form of t modulo the monic t + m_0: the root itself
            return self.constant(-modulus.coeffs[0])
        key = tuple([0] * i + [1])
        return TowerElement(self, {key: Fraction(1)})

    def locate(self, modulus: UPoly, root_id: int) -> int | None:
        monic = modulus.monic()
        for i, ext in enumerate(self.extensions):
            if ext.modulus == monic and ext.root_id == root_id:
                return i
        return None

    def cauchy_module(self, modulus: UPoly, j: int) -> tuple[int, tuple]:
        """The j-th Cauchy module of a monic modulus s = sum a_i t^i of
        degree r, f_j = sum_i a_i h_(i-j+1)(t_1..t_j) with h_d the complete
        homogeneous symmetric polynomial, as the rewrite rule t_j^d -> tail.

        f_j is monic of degree d = r-j+1 in t_j; tail lists
        (exponents of t_1..t_j, coefficient) pairs of t_j^d - f_j.
        """
        key = (modulus, j)
        rule = self._cauchy.get(key)
        if rule is None:
            rule = self._cauchy.setdefault(key, _cauchy_rule(modulus.coeffs, j))
        return rule

    def _append(self, ext: ExtensionDescriptor) -> int:
        self.extensions.append(ext)
        self.degrees += (ext.degree,)
        self.width = max(self.width, (2 * ext.degree).bit_length())
        return len(self.extensions) - 1


def adjoin(ctx: TowerContext, modulus: UPoly, root_id: int) -> tuple[TowerContext, "TowerElement"]:
    """Append a generator for the root_id-th root (canonical order) of a
    square-free modulus; returns the grown context and the new generator."""
    monic = modulus.monic()
    if monic.degree < 1:
        raise NotSquareFree("modulus must have degree >= 1")
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


def _trim(key: tuple) -> tuple:
    k = len(key)
    while k and key[k - 1] == 0:
        k -= 1
    return tuple(key[:k])


class TowerElement:
    """An exact algebraic value: reduced polynomial in the context generators.

    Immutable once constructed.  Arithmetic coerces ints and Fractions, and
    mixing elements of different contexts raises ContextMismatch.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: TowerContext, terms: dict):
        self.ctx = ctx
        self.terms = terms

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
        return bool(self.terms)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    __hash__ = None

    # -- ring arithmetic --------------------------------------------------

    def __neg__(self):
        return TowerElement(self.ctx, {k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in o.terms.items():
            s = out.get(k, Fraction(0)) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return TowerElement(self.ctx, out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        a, b = self.terms, o.terms
        if not a or not b:
            return TowerElement(ctx, {})
        if len(b) == 1 and () in b:
            a, b = b, a
        if len(a) == 1 and () in a:
            # a rational constant scales the other operand term by term, in
            # its order: the terms and order the packed product gives
            s = a[()]
            return TowerElement(ctx, {k: c * s for k, c in b.items()})
        width = ctx.width
        mask = (1 << width) - 1
        a, den_a, seen_a = _packed(a, width)
        b, den_b, seen_b = _packed(b, width)
        raw: dict[int, int] = {}
        get = raw.get
        for k1, c1 in a:
            for k2, c2 in b:
                k = k1 + k2
                raw[k] = get(k, 0) + c1 * c2
        den = den_a * den_b
        degrees = ctx.degrees
        for j in range(len(degrees) - 1, -1, -1):
            shift = j * width
            # the fields of seen_* bound each operand's exponents of t_j
            if ((seen_a >> shift) & mask) + ((seen_b >> shift) & mask) >= degrees[j]:
                raw, scale = _reduce_generator(raw, ctx.extensions[j], degrees[j],
                                               shift, mask)
                den *= scale
        terms = {}
        for k, n in raw.items():
            if n:
                key = []
                while k:
                    key.append(k & mask)
                    k >>= width
                terms[tuple(key)] = Fraction(n, den)
        return TowerElement(ctx, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** (-n)
        out = self.ctx.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __truediv__(self, other):
        if isinstance(other, TowerElement):
            return self * other.invert()
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivision("division by zero")
            inv = Fraction(1, 1) / Fraction(other)
            return TowerElement(self.ctx, {k: c * inv for k, c in self.terms.items()})
        return NotImplemented

    # -- structure --------------------------------------------------------

    def is_rational(self) -> bool:
        return all(k == () for k in self.terms)

    def as_fraction(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError("element is not syntactically rational")
        return self.terms[()]

    def present_generators(self) -> list[int]:
        out: set[int] = set()
        for key in self.terms:
            for i, e in enumerate(key):
                if e:
                    out.add(i)
        return sorted(out)

    # -- decisions about the embedded complex value -----------------------

    def is_zero(self) -> bool:
        """Exact decision: does the embedded complex value equal zero?

        The stages run in this order, and each one that decides returns:

        1. Syntactic.  The empty reduced form is zero; a nonzero rational
           is not.
        2. Cauchy normal form.  Generators with one modulus and distinct
           root ids embed to distinct roots of it, so every Cauchy module of
           those generators vanishes there; an element whose normal form
           modulo them is empty embeds to zero.  This decides identities
           such as sum_j y_j^k = p_k over a section.
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
        if not self.terms:
            return True
        if self.is_rational():
            return False
        if not _cauchy_normal_form(self):
            return True
        for digits in (15, 40):
            if self._ball(digits).excludes_zero():
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
        digits = 40
        while True:
            ball = self._ball(digits)
            if ball.excludes_zero():
                return False
            if ball.below(bound):
                return True
            digits *= 2

    def invert(self) -> "TowerElement":
        """Exact inverse by iterated extended Euclid across the generators.

        Raises ZeroDivision for (embedded) zero, NotInvertible with a factor
        witness when a nonzero zero divisor is hit.
        """
        if not self.terms:
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
        generator's root refined below 10**-digits10."""
        target = mp.mpf(10) ** (-digits10)
        exts = self.ctx.extensions
        roots = {i: exts[i].refine_to(target) for i in self.present_generators()}
        return _nested_ball(self.terms, roots, int(digits10 * 3.4) + 40)

    def _minimal_polynomial(self) -> list[Fraction]:
        """Minimal polynomial of the element over Q, monic, coefficients
        lowest degree first.

        Krylov iteration on the powers 1, a, a^2, ...: the first linear
        dependence over Q gives the minimal polynomial.  Moduli are
        square-free, so the ring is a product of number fields and the
        minimal polynomial is exactly prod (z - v) over the distinct values
        v the element takes across all embeddings; its degree is usually
        far below the subring dimension.
        """
        echelon: list[tuple[tuple, dict, list[Fraction]]] = []
        power = self.ctx.one
        k = 0
        while True:
            row = dict(power.terms)
            combo = [Fraction(0)] * k + [Fraction(1)]
            for piv, brow, bcombo in echelon:
                v = row.get(piv)
                if not v:
                    continue
                f = v / brow[piv]
                for kk, vv in brow.items():
                    nv = row.get(kk, Fraction(0)) - f * vv
                    if nv:
                        row[kk] = nv
                    else:
                        row.pop(kk, None)
                for i, c in enumerate(bcombo):
                    if c:
                        combo[i] -= f * c
            if not row:
                return combo
            piv = min(row)
            echelon.append((piv, row, combo))
            power = power * self
            k += 1

    def approximate(self, digits: int) -> mp.mpc:
        """The center of a certified disc of radius below 10**-digits/2
        about the embedded value, rounded to digits + 5 significant digits;
        printed to digits significant digits, it is the decimal."""
        attempt = 0
        while True:
            work = digits + 10 + attempt * 20
            ball = self._ball(work)
            if ball.rad * 2 * 10 ** digits < ball.den << ball.prec:
                with mp.workdps(digits + 5):
                    return mp.mpc(ball.c)
            attempt += 1
            if attempt > 8:
                raise AbeldiffError("approximation did not converge")

    def serialize(self, digits: int | None = None) -> dict:
        gens = self.present_generators()
        doc = {
            "generators": [self.ctx.extensions[i].serialize() for i in gens],
            "coefficients": [
                [list(key), str(coeff)]
                for key, coeff in sorted(self.terms.items())
            ],
        }
        if digits:
            doc["decimal"] = {**decimal_parts(self.approximate(digits), digits),
                              "digits": digits}
        return doc

    def __repr__(self):
        if not self.terms:
            return "TowerElement(0)"
        if self.is_rational():
            return f"TowerElement({self.terms[()]})"
        try:
            v = self.approximate(8)
            return f"TowerElement(~{mp.nstr(v, 8)}; {len(self.terms)} terms)"
        except Exception:
            return f"TowerElement({len(self.terms)} terms)"


def decimal_parts(value: mp.mpc, digits: int) -> dict:
    """The "re" and "im" strings of a value certified to within
    10**-digits/2, each to digits significant digits.  A component below
    10**-digits/2 in magnitude prints as 0.0: its digits would be rounding
    noise, and 0.0 is still within 10**-digits of the true component."""
    with mp.workdps(digits + 5):
        tiny = mp.mpf(10) ** (-digits) / 2
        return {part: "0.0" if abs(x) < tiny else mp.nstr(x, digits)
                for part, x in (("re", value.real), ("im", value.imag))}


def _lowest_terms(nums: list[int], den: int) -> tuple[list[int], int]:
    g = gcd(den, *nums)
    return [n // g for n in nums], den // g


def _packed(terms: dict, width: int) -> tuple[list, int, int]:
    """An element's terms as (packed monomial, integer numerator) pairs over
    the lcm of its denominators, plus the OR of the packed monomials.

    A monomial packs the exponent of t_j into bits j*width..(j+1)*width-1,
    so multiplying monomials adds their packed forms.
    """
    den = lcm(*(c.denominator for c in terms.values()))
    out = []
    seen = 0
    for key, c in terms.items():
        k = 0
        for e in reversed(key):
            k = (k << width) | e
        seen |= k
        out.append((k, c.numerator * (den // c.denominator)))
    return out, den, seen


def _reduce_generator(raw: dict, ext: ExtensionDescriptor, d: int, shift: int,
                      mask: int) -> tuple[dict, int]:
    """Replace every t^e with e >= d = deg(t) of the generator packed at
    shift by its reduced form; returns the new numerators and the factor by
    which their common denominator grew."""
    out: dict[int, int] = {}
    over = []
    for k, c in raw.items():
        e = (k >> shift) & mask
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


def _cauchy_rule(coeffs: tuple[Fraction, ...], j: int) -> tuple[int, tuple]:
    r = len(coeffs) - 1
    d = r - j + 1
    tail: dict[tuple[int, ...], Fraction] = {}
    for i in range(j - 1, r + 1):
        if not coeffs[i]:
            continue
        for combo in combinations_with_replacement(range(j), i - j + 1):
            exps = [0] * j
            for pos in combo:
                exps[pos] += 1
            if exps[-1] == d:
                continue  # the leading monomial t_j^d
            exps = tuple(exps)
            tail[exps] = tail.get(exps, Fraction(0)) - coeffs[i]
    return d, tuple((e, c) for e, c in tail.items() if c)


def _cauchy_normal_form(a: TowerElement) -> dict:
    """Normal form of a modulo the Cauchy modules of its generators.

    Generators are grouped by modulus, keeping the first generator of each
    root id (the modules hold only for distinct roots).  Only generators
    present in a take part, so a group of k generators of a degree-r modulus
    spans a quotient of dimension r(r-1)...(r-k+1).  Within a group t_1..t_k
    the modules form a lex Groebner basis; reducing t_k first, down to t_1,
    gives the normal form.  Groups of one generator are skipped: a's terms
    are already reduced by their modulus, which is f_1.
    """
    ctx = a.ctx
    groups: dict[UPoly, dict[int, int]] = {}
    for g in a.present_generators():
        ext = ctx.extensions[g]
        groups.setdefault(ext.modulus, {}).setdefault(ext.root_id, g)
    terms = a.terms
    for modulus, by_root in groups.items():
        gens = sorted(by_root.values())
        if len(gens) < 2:
            continue
        for j in range(len(gens), 0, -1):
            d, tail = ctx.cauchy_module(modulus, j)
            terms = _reduce_leading(terms, gens[:j], d, tail)
            if not terms:
                return terms
    return terms


def _reduce_leading(terms: dict, gens: list[int], d: int, tail: tuple) -> dict:
    """Rewrite t^d -> tail, t = generator gens[-1], until every term has
    degree below d in t; tail exponents run over gens in order."""
    g = gens[-1]
    levels: dict[int, dict] = {}
    for key, c in terms.items():
        levels.setdefault(key[g] if len(key) > g else 0, {})[key] = c
    out: dict = {}
    for e in range(max(levels), -1, -1):
        level = levels.pop(e, None)
        if not level:
            continue
        if e < d:
            out.update(level)
            continue
        for key, c in level.items():
            base = list(key) + [0] * (g + 1 - len(key))
            base[g] = e - d
            for exps, tc in tail:
                nk = list(base)
                for pos, x in zip(gens, exps):
                    nk[pos] += x
                bucket = levels.setdefault(nk[g], {})
                nk = _trim(tuple(nk))
                v = bucket.get(nk, Fraction(0)) + c * tc
                if v:
                    bucket[nk] = v
                else:
                    bucket.pop(nk, None)
    return out


# -- inversion ------------------------------------------------------------


def _as_coeff_lists(a: TowerElement, j: int) -> list[TowerElement]:
    """View a as a polynomial in generator j: list of coefficient elements
    (not involving t_j), lowest degree first."""
    d = a.ctx.degrees[j]
    buckets: list[dict] = [dict() for _ in range(d)]
    for key, c in a.terms.items():
        e = key[j] if len(key) > j else 0
        nk = list(key)
        if len(nk) > j:
            nk[j] = 0
        buckets[e][_trim(tuple(nk))] = c
    return [TowerElement(a.ctx, b) for b in buckets]


def _rp_strip(p: list[TowerElement]) -> list[TowerElement]:
    q = list(p)
    while q and not q[-1]:
        q.pop()
    return q


def _rp_divmod(num: list[TowerElement], den: list[TowerElement], ctx: TowerContext):
    den = _rp_strip(den)
    lead_inv = _invert(den[-1]) if not den[-1].is_rational() or den[-1].terms.get((), 0) != 1 \
        else ctx.one
    rem = list(num)
    dq = len(rem) - len(den)
    quo: list[TowerElement] = [ctx.zero] * (dq + 1) if dq >= 0 else []
    while len(_rp_strip(rem)) >= len(den):
        rem = _rp_strip(rem)
        k = len(rem) - len(den)
        c = rem[-1] * lead_inv
        quo[k] = quo[k] + c
        for i, dc in enumerate(den):
            rem[i + k] = rem[i + k] - c * dc
        rem = rem[:-1]
    return quo, _rp_strip(rem)


def _invert(a: TowerElement) -> TowerElement:
    ctx = a.ctx
    if not a.terms:
        raise ZeroDivision("inverting zero")
    gens = a.present_generators()
    if not gens:
        return ctx.constant(Fraction(1) / a.terms[()])
    j = gens[-1]
    m_list = [ctx.constant(c) for c in ctx.extensions[j].modulus.coeffs]
    a_list = _rp_strip(_as_coeff_lists(a, j))

    r0, r1 = m_list, a_list
    s0, s1 = [ctx.zero], [ctx.one]
    while _rp_strip(r1):
        q, r = _rp_divmod(r0, r1, ctx)
        r0, r1 = r1, r
        # s_{k+1} = s_{k-1} - q * s_k
        prod = [ctx.zero] * (len(q) + len(s1) - 1) if q and s1 else []
        for i, qc in enumerate(q):
            for k, sc in enumerate(s1):
                prod[i + k] = prod[i + k] + qc * sc
        width = max(len(s0), len(prod), 1)
        nxt = [(s0[i] if i < len(s0) else ctx.zero) -
               (prod[i] if i < len(prod) else ctx.zero) for i in range(width)]
        s0, s1 = s1, _rp_strip(nxt)

    g = _rp_strip(r0)
    if len(g) > 1:
        # nontrivial common factor of a and the modulus: witness for a split
        try:
            glead_inv = _invert(g[-1])
            monic = [c * glead_inv for c in g]
        except NotInvertible:
            monic = g
        witness: object
        if all(c.is_rational() for c in monic):
            witness = UPoly([c.as_fraction() for c in monic])
        else:
            witness = monic
        raise NotInvertible(j, witness)
    ginv = _invert(g[0])
    # inverse = s0(t_j) * ginv, assembled back into the full ring
    acc = ctx.zero
    tj = ctx.generator(j)
    tpow = ctx.one
    for k, sc in enumerate(s0):
        if k:
            tpow = tpow * tj
        if sc:
            acc = acc + sc * tpow
    return acc * ginv


def eval_bpoly(p: BPoly, x, y: TowerElement) -> TowerElement:
    """Exact evaluation of a bivariate polynomial at a rational abscissa and
    a tower ordinate.  Coefficients may themselves be tower elements of the
    same context.

    The section polynomial's coefficients c_j = sum_i c_ij x^i are collected
    first, as term dicts.  When y is a bare generator t_g (every section
    ordinate is one), sum_j c_j t_g^j is assembled without a ring product:
    a term of c_j with t_g^e moves to t_g^(j+e), and where j+e reaches
    deg t_g the cached reduced power t_g^(j+e), a rational combination of
    lower powers, takes its place.  Since every modulus is univariate, that
    gives the reduced form.  Any other ordinate is summed by Horner's
    rule."""
    if not isinstance(y, TowerElement):
        raise TypeError("ordinate must be a TowerElement")
    ctx = y.ctx
    x = Fraction(x)
    # (j, key) -> the (i, coefficient of the key in c_ij) pairs
    groups: dict[tuple, list] = {}
    for (i, j), c in p.terms.items():
        if isinstance(c, TowerElement):
            if c.ctx is not ctx:
                raise ContextMismatch("coefficient context differs from the ordinate's")
            items = c.terms.items()
        else:
            items = (((), c),)
        for k, v in items:
            groups.setdefault((j, k), []).append((i, v))
    cols: dict[int, dict] = {}
    for (j, k), pairs in groups.items():
        v = _at(pairs, x.numerator, x.denominator)
        if v:
            cols.setdefault(j, {})[k] = v
    g = _bare_generator(y)
    if g is not None:
        return TowerElement(ctx, _shifted(cols, g, ctx.extensions[g]))
    top = max(cols, default=-1)
    acc = TowerElement(ctx, cols.get(top, {}))
    for j in range(top - 1, -1, -1):
        acc = acc * y
        if j in cols:
            acc = acc + TowerElement(ctx, cols[j])
    return acc


def _at(pairs: list, a: int, b: int) -> Fraction:
    """sum v x^i over the (i, v) pairs at x = a/b, in integers over one
    denominator."""
    if len(pairs) == 1:
        (i, v), = pairs
        return v * Fraction(a ** i, b ** i) if i else v
    top = max(i for i, _ in pairs)
    den = lcm(*(v.denominator for _, v in pairs))
    num = sum(v.numerator * (den // v.denominator) * a ** i * b ** (top - i) for i, v in pairs)
    return Fraction(num, den * b ** top)


def _shifted(cols: dict, g: int, ext: ExtensionDescriptor) -> dict:
    """Reduced terms of sum_j c_j t_g^j, c_j given by its terms cols[j]."""
    d = ext.degree
    out: dict = {}

    def add(key, v):
        v = out.get(key, 0) + v
        if v:
            out[key] = v
        else:
            del out[key]

    for j, col in cols.items():
        for k, v in col.items():
            e = j + (k[g] if len(k) > g else 0)
            head, tail = k[:g] + (0,) * (g - len(k)), k[g + 1:]
            if e < d:
                add(_trim(head + (e,) + tail), v)
                continue
            nums, q = ext.int_power(e)
            for i, n in enumerate(nums):
                if n:
                    add(_trim(head + (i,) + tail), v * Fraction(n, q))
    return out


def _bare_generator(y: TowerElement) -> int | None:
    """g when y is the generator t_g itself, else None."""
    if len(y.terms) != 1:
        return None
    (key, c), = y.terms.items()
    if c != 1 or not key or key[-1] != 1 or any(key[:-1]):
        return None
    return len(key) - 1
