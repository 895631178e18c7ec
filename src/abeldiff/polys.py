"""Dense univariate and sparse bivariate polynomials over exact scalars.

Coefficients are Fractions by default, but every ring operation (and most
helpers) also accepts elements of richer commutative rings over Q — tower
elements, or even UPoly values themselves — as long as they support +, -, *
and a truthiness test for zero.  The Q-only routines (divmod, gcd,
resultant, power sums, sections f(x0, y)) require Fraction coefficients and
run on integers: each takes the primitive integer numerators of its inputs
once (UPoly caches them), works in int alone — pseudo-division, the
primitive remainder sequence, Newton's identities scaled by powers of the
leading coefficient — and builds one Fraction per output coefficient.  Each
result is unique over Q, so it equals the one a Fraction computation gives.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm
from types import MappingProxyType
from typing import Iterable, Sequence

from .errors import ZeroPolynomial
from .linsolve import bareiss_det


def _coeff(v):
    return Fraction(v) if isinstance(v, int) else v


class UPoly:
    """Univariate polynomial; ``coeffs[k]`` is the coefficient of t**k.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs", "_hash", "_ints")

    def __init__(self, coeffs: Iterable = ()):
        cs = [_coeff(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, UPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == UPoly([other])
        return NotImplemented

    def __hash__(self):
        # computed once; tower coefficients make hash(coeffs) raise TypeError
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self.coeffs)
            return self._hash

    def __neg__(self):
        return UPoly([-c for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UPoly([other])
        if not isinstance(other, UPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UPoly([other])
        if not isinstance(other, UPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, UPoly):
            if self.is_zero or other.is_zero:
                return UPoly()
            if self.degree and other.degree and _rational(self) and _rational(other):
                return _int_product(self, other)
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
            return UPoly(out)
        return UPoly([c * other for c in self.coeffs])

    def __rmul__(self, other):
        return UPoly([other * c for c in self.coeffs])

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return power(self, n, UPoly([1]))

    def derivative(self) -> "UPoly":
        return UPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, v):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def monic(self) -> "UPoly":
        if self.is_zero:
            return self
        lc = self.leading
        if lc == 1:
            return self
        inv = Fraction(1) / lc
        return UPoly([c * inv for c in self.coeffs])

    def divmod(self, other: "UPoly") -> tuple["UPoly", "UPoly"]:
        """Quotient and remainder over Q; requires Fraction coefficients.

        Pseudo-division of the primitive integer numerators,
        s*A = q*B + r with self = sa*A and other = sb*B, gives the quotient
        q*sa/(s*sb) and the remainder r*sa/s."""
        if other.is_zero:
            raise ZeroPolynomial("division by the zero polynomial")
        if self.degree < other.degree:
            return UPoly(), self
        a, sa = self.to_int_coeffs()
        b, sb = other.to_int_coeffs()
        s, q, r = _pseudo_divmod(a, b)
        return _times(q, sa / (s * sb)), _times(r, sa / s)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def to_int_coeffs(self) -> tuple[tuple[int, ...], Fraction]:
        """Primitive integer coefficients, leading one positive, and the
        scalar s with self = s * prim; requires Fraction coefficients.

        Computed once and kept, like the hash: the tuple cannot be changed
        by a caller."""
        try:
            return self._ints
        except AttributeError:
            pass
        if self.is_zero:
            self._ints = (), Fraction(1)
            return self._ints
        m = lcm(*(c.denominator for c in self.coeffs))
        ints = [c.numerator * (m // c.denominator) for c in self.coeffs]
        g = int_gcd(*ints)
        if ints[-1] < 0:
            g = -g
        self._ints = tuple([v // g for v in ints]), Fraction(g, m)
        return self._ints

    def __repr__(self):
        return f"UPoly({[str(c) for c in self.coeffs]})"


def _rational(p: UPoly) -> bool:
    return all(type(c) is Fraction for c in p.coeffs)


def _int_product(a: UPoly, b: UPoly) -> UPoly:
    """a * b for a and b of degree at least 1 with Fraction coefficients:
    the product of their primitive integer views, scaled once.  (A constant
    factor only scales the other's coefficients, which the generic loop
    does with one Fraction product each.)"""
    (x, sx), (y, sy) = a.to_int_coeffs(), b.to_int_coeffs()
    out = [0] * (len(x) + len(y) - 1)
    for i, u in enumerate(x):
        if u:
            for j, v in enumerate(y):
                out[i + j] += u * v
    return _times(out, sx * sy)


def _times(ints: Sequence[int], f: Fraction) -> UPoly:
    """The UPoly f * ints, f != 0, one Fraction per coefficient, with its
    primitive integer view kept, as to_int_coeffs would compute it: ints
    over their content, the leading one positive, and f times the content."""
    n, d = f.numerator, f.denominator
    p = UPoly([Fraction(v * n, d) for v in ints])
    ints = ints[:len(p.coeffs)]
    if not ints:
        p._ints = (), Fraction(1)
        return p
    g = int_gcd(*ints)
    if ints[-1] < 0:
        g = -g
    p._ints = tuple([v // g for v in ints]), f * g
    return p


def power(base, n: int, one):
    """base^n, n >= 0, by binary powering from one, the unit of base's
    ring: a product per set bit of n and a square per bit below the top."""
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


def powers(base, n: int, one) -> list:
    """base^0 .. base^(n-1) as one chain of products from [one, base]: each
    power is the one before times base, and base^1 is base itself."""
    out = [one, base][:max(n, 0)]
    while len(out) < n:
        out.append(out[-1] * base)
    return out


def at_ratio(triples: list, p: int, q: int) -> tuple[int, int]:
    """sum (n/d) x^i over the (i, n, d) triples at x = p/q, q > 0, as a
    numerator over one positive denominator, not reduced: a lone triple
    over d q^i, else over lcm(d) q^top, top the largest i."""
    if len(triples) == 1:
        (i, n, d), = triples
        return (n * p ** i, d * q ** i) if i else (n, d)
    top = max(i for i, _, _ in triples)
    den = lcm(*{d for _, _, d in triples})
    num = sum(n * (den // d) * p ** i * q ** (top - i) for i, n, d in triples)
    return num, den * q ** top


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[int, list[int], list[int]]:
    """Integers s != 0 and the coefficient lists q, r with s*a = q*b + r and
    len(r) = len(b) - 1, for integer coefficient lists with len(a) >= len(b)
    and b[-1] != 0.

    Each step cancels the remainder's leading coefficient c after scaling
    the remainder by lead(b)/gcd(c, lead(b)) only, so s divides
    lead(b)^(len(a) - len(b) + 1) and is 1 when lead(b) = 1."""
    n = len(b) - 1
    lb = b[-1]
    r = list(a)
    dq = len(r) - 1 - n
    q = [0] * (dq + 1)
    s = 1
    for k in range(dq, -1, -1):
        c = r[n + k]
        if not c:
            continue
        g = int_gcd(c, lb)
        u, c = lb // g, c // g
        if u != 1:
            s *= u
            for i in range(n + k):
                r[i] *= u
            for i in range(k + 1, dq + 1):
                q[i] *= u
        q[k] = c
        for i in range(n):
            r[i + k] -= c * b[i]
    return s, q, r[:n]


def poly_gcd(a: UPoly, b: UPoly) -> UPoly:
    """Monic greatest common divisor over Q; gcd(0, 0) = 0.

    A primitive remainder sequence on the integer numerators: each
    pseudo-remainder is divided by its content, which keeps the
    coefficients from growing with each step, and the last nonzero one is
    made monic once, at the end."""
    if a.is_zero or b.is_zero:
        return (b if a.is_zero else a).monic()
    u, v = a.to_int_coeffs()[0], b.to_int_coeffs()[0]
    if len(u) < len(v):
        u, v = v, u
    while len(v) > 1:
        r = _pseudo_divmod(u, v)[2]
        while r and not r[-1]:
            r.pop()
        if not r:
            break
        g = int_gcd(*r)
        u, v = v, [c // g for c in r]
    if len(v) == 1:
        return UPoly([1])
    return UPoly([Fraction(c, v[-1]) for c in v])


def is_squarefree(a: UPoly) -> bool:
    if a.is_zero:
        raise ZeroPolynomial("square-freeness of the zero polynomial")
    return poly_gcd(a, a.derivative()).degree <= 0


def _cleared(coeffs: Sequence) -> tuple[list[int], int]:
    """Integer coefficients c*coeffs and the least c that makes them so."""
    c = lcm(*(v.denominator for v in coeffs))
    return [int(v * c) for v in coeffs], c


def resultant_matrix(a: Sequence, b: Sequence) -> list[list]:
    """Hybrid Bezout matrix of two coefficient sequences, lowest degree
    first: bareiss_det of it is their Sylvester resultant.

    The last entry of each sequence is taken as its leading coefficient even
    when it is zero, so a caller can keep a generic degree shape where the
    actual degree drops.  For formal degrees m >= n the matrix is m x m, half
    the size of the Sylvester matrix, with column i holding the coefficient
    of y^i: row j < m - n holds y^j * b, and row m - n + k - 1 (k = 1 .. n)
    holds

        b_hi * a_lo - y^(m-n) * a_hi * b_lo  =  b_hi * a - y^(m-n) * a_hi * b,

    where a = a_hi * y^(m-k+1) + a_lo splits off the top k coefficients of a
    and b = b_hi * y^(n-k+1) + b_lo those of b, so the row has degree below
    m.  Its determinant is (-1)^n times the Sylvester determinant, as a
    polynomial identity in the coefficients, zero leading ones included; for
    m < n the inputs swap, at a sign (-1)^(m*n).  The rows are built over
    the integers: each input is cleared of denominators first, and
    Res(c*a, d*b) = c^n * d^m * Res(a, b).  The signs and 1/(c^n * d^m) are
    folded into row 0.  Sign convention of the Sylvester matrix, whose top
    rows hold a's coefficients: resultant(y - 1, y - 2) == -1.
    """
    m, n = len(a) - 1, len(b) - 1
    fold = Fraction(1)
    if m < n:
        a, b, m, n = b, a, n, m
        fold = Fraction((-1) ** (m * n))
    a, c = _cleared(a)
    b, d = _cleared(b)
    fold *= Fraction((-1) ** n, c ** n * d ** m)
    rows = [[0] * j + b + [0] * (m - n - j - 1) for j in range(m - n)]
    # row k = y * (row k-1) + b_(n-k+1) * a - a_(m-k+1) * y^(m-n) * b, whose
    # y^m coefficient cancels
    shifted_b = [0] * (m - n) + b
    row = [0] * m
    for k in range(1, n + 1):
        u, v = b[n - k + 1], a[m - k + 1]
        row = [p + u * x - v * z for p, x, z in zip([0] + row[:-1], a, shifted_b)]
        rows.append(row)
    if rows and fold != 1:
        scale = fold.numerator if fold.denominator == 1 else fold
        rows[0] = [v * scale for v in rows[0]]
    return rows


def resultant(a: UPoly, b: UPoly) -> Fraction:
    """Resultant of two nonzero univariate polynomials (Sylvester
    determinant, taken as the determinant of the half-size resultant_matrix,
    which also fixes the sign convention)."""
    if a.is_zero or b.is_zero:
        raise ZeroPolynomial("resultant with a zero polynomial")
    if a.degree == 0:
        return a.coeffs[0] ** b.degree
    if b.degree == 0:
        return b.coeffs[0] ** a.degree
    return bareiss_det(resultant_matrix(a.coeffs, b.coeffs))


def power_sums(a: UPoly, count: int) -> list[Fraction]:
    """Power sums p_k of the roots, k = 0 .. count-1, by Newton's identities.

    Works on the coefficients alone — no root is ever extracted — which is
    what keeps the symmetrized linear system rational.  p_0 is the degree.
    With c_0 .. c_n the primitive integer coefficients and L = c_n,
    p_k = P_k / L^k for the integers P_0 = n and
    P_k = -sum_{i=1}^{min(k-1,n)} c_(n-i) L^(i-1) P_(k-i) - [k <= n] k c_(n-k) L^(k-1).
    """
    if a.is_zero:
        raise ZeroPolynomial("power sums of the zero polynomial")
    if a.degree < 1:
        raise ZeroPolynomial("power sums need degree >= 1")
    c = a.to_int_coeffs()[0]
    n = len(c) - 1
    lpows = powers(c[n], max(n, count), 1)
    # w[i] = c_(n-i) L^(i-1), i = 1 .. n
    w = [0] + [c[n - i] * lpows[i - 1] for i in range(1, n + 1)]
    sums = [n]
    for k in range(1, count):
        acc = -k * w[k] if k <= n else 0
        for i in range(1, min(k - 1, n) + 1):
            acc -= w[i] * sums[k - i]
        sums.append(acc)
    return [Fraction(v, lk) for v, lk in zip(sums[:count], lpows)]


def kronecker_bits(bound: int) -> int:
    """The bits B of a Kronecker point 2^B at which an integer polynomial
    whose coefficients are at most bound in absolute value can be read back
    by signed_digits: every coefficient is then below 2^(B-1)."""
    return bound.bit_length() + 1


def signed_digits(v: int, bits: int) -> list[int]:
    """The coefficients, lowest first, of the integer polynomial R with
    R(2^bits) = v and every |coefficient| < 2^(bits-1): the signed base
    2^bits digits of v, each taken in [-2^(bits-1), 2^(bits-1))."""
    base = 1 << bits
    half, mask = base >> 1, base - 1
    out = []
    while v:
        d = v & mask
        if d >= half:
            d -= base
        out.append(d)
        v = (v - d) >> bits
    return out


class BPoly:
    """Sparse bivariate polynomial keyed by (x_exponent, y_exponent).

    terms is a read-only view, so a polynomial that several requests hold
    (parser.parse_poly hands out one per curve text) cannot be changed by
    any of them; its hash is computed once, as UPoly's is."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict | None = None):
        norm = {}
        if terms:
            for (i, j), c in terms.items():
                c = _coeff(c)
                if c:
                    norm[(int(i), int(j))] = c
        self.terms = MappingProxyType(norm)

    @classmethod
    def const(cls, c) -> "BPoly":
        return cls({(0, 0): c})

    @classmethod
    def x(cls) -> "BPoly":
        return cls({(1, 0): 1})

    @classmethod
    def y(cls) -> "BPoly":
        return cls({(0, 1): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(i + j for i, j in self.terms)

    @property
    def degree_x(self) -> int:
        return max((i for i, _ in self.terms), default=-1)

    @property
    def degree_y(self) -> int:
        return max((j for _, j in self.terms), default=-1)

    def __eq__(self, other):
        if isinstance(other, BPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == BPoly.const(other)
        return NotImplemented

    def __hash__(self):
        # computed once; tower coefficients make the hash raise TypeError
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(frozenset(self.terms.items()))
            return self._hash

    def __neg__(self):
        return BPoly({k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BPoly.const(other)
        if not isinstance(other, BPoly):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return BPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BPoly.const(other)
        if not isinstance(other, BPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, BPoly):
            out: dict = {}
            for (i1, j1), c1 in self.terms.items():
                for (i2, j2), c2 in other.terms.items():
                    k = (i1 + i2, j1 + j2)
                    out[k] = out.get(k, Fraction(0)) + c1 * c2
            return BPoly(out)
        return BPoly({k: c * other for k, c in self.terms.items()})

    def __rmul__(self, other):
        return BPoly({k: other * c for k, c in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return power(self, n, BPoly.const(1))

    def partial_x(self) -> "BPoly":
        return BPoly({(i - 1, j): i * c for (i, j), c in self.terms.items() if i})

    def partial_y(self) -> "BPoly":
        return BPoly({(i, j - 1): j * c for (i, j), c in self.terms.items() if j})

    def subs_x(self, x0) -> UPoly:
        """The section polynomial f(x0, y) as a UPoly in y, at a rational
        x0 = p/q; requires Fraction coefficients.  Each y-coefficient is
        at_ratio of its terms: one numerator over one denominator."""
        x0 = Fraction(x0)
        cols: dict[int, list] = {}
        for (i, j), c in self.terms.items():
            cols.setdefault(j, []).append((i, c.numerator, c.denominator))
        out = [Fraction(0)] * (self.degree_y + 1)
        for j, triples in cols.items():
            out[j] = Fraction(*at_ratio(triples, x0.numerator, x0.denominator))
        return UPoly(out)

    def coefficients_in_y(self) -> list[UPoly]:
        """List of y-coefficients, each a UPoly in x; index = y exponent."""
        dy = self.degree_y
        if dy < 0:
            return []
        cols: list[dict] = [dict() for _ in range(dy + 1)]
        for (i, j), c in self.terms.items():
            cols[j][i] = c
        out = []
        for col in cols:
            dx = max(col, default=-1)
            out.append(UPoly([col.get(i, Fraction(0)) for i in range(dx + 1)]))
        return out

    def homogeneous_part(self, k: int) -> dict[int, Fraction]:
        """Coefficients of the degree-k form, keyed by the y exponent."""
        return {j: c for (i, j), c in self.terms.items() if i + j == k}

    def eval(self, xv, yv):
        """Evaluate at a pair of ring values (Fractions, tower elements,
        ...): c x^i y^j summed term by term over the sorted terms, from one
        chain of powers of each value."""
        xpow = powers(xv, self.degree_x + 1, Fraction(1))
        ypow = powers(yv, self.degree_y + 1, Fraction(1))
        acc = Fraction(0)
        for (i, j), c in sorted(self.terms.items()):
            term = c
            if i:
                term = term * xpow[i]
            if j:
                term = term * ypow[j]
            acc = acc + term
        return acc

    def __repr__(self):
        items = ", ".join(f"{k}: {c}" for k, c in sorted(self.terms.items()))
        return f"BPoly({{{items}}})"


def resultant_y(f: BPoly, g: BPoly) -> UPoly:
    """Resultant of f and g with respect to y, as a UPoly in x.

    Computed by Kronecker substitution: f and g are cleared of denominators
    once (Res(c*f, d*g) = c^n * d^m * Res(f, g) for y-degrees m and n), and
    one determinant of resultant_matrix is taken at x = 2^B on the generic
    y-degree shape.  Its value is R(2^B) for the integer resultant R, whose
    coefficients are bounded by the product of the Sylvester rows' 1-norms,
    ||c*f||_1^n * ||d*g||_1^m, so B = kronecker_bits of that bound reads
    them back as the signed base-2^B digits.
    """
    fy = f.coefficients_in_y()
    gy = g.coefficients_in_y()
    m = len(fy) - 1
    n = len(gy) - 1
    if m < 0 or n < 0:
        raise ZeroPolynomial("resultant with the zero polynomial")
    if m == 0 and n == 0:
        return UPoly([1])
    c = lcm(*(v.denominator for v in f.terms.values()))
    d = lcm(*(v.denominator for v in g.terms.values()))
    fi = [[int(v * c) for v in p.coeffs] for p in fy]
    gi = [[int(v * d) for v in p.coeffs] for p in gy]
    bits = kronecker_bits(_norm1(fi) ** n * _norm1(gi) ** m)
    det = bareiss_det(resultant_matrix([_at_power_of_two(p, bits) for p in fi],
                                       [_at_power_of_two(p, bits) for p in gi]))
    return _times(signed_digits(det.numerator, bits), Fraction(1, c ** n * d ** m))


def _norm1(coeffs: list[list[int]]) -> int:
    return sum(abs(v) for p in coeffs for v in p)


def _at_power_of_two(coeffs: list[int], bits: int) -> int:
    """The integer polynomial coeffs evaluated at 2^bits."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc << bits) + c
    return acc
