"""Differentials of the first and third kind on a smooth plane curve, and
evaluation of the fundamental function by duality.

The third-kind differential with simple poles over two rational abscissas is
found as E(x,y) dx / ((x - x1)(x2 - x) f_y(x,y)) where E collects every
monomial of total degree <= r-1.  Per pole abscissa the conditions are: E
vanishes at the r-1 non-pole points of the section, and E equals
(x2 - x1) f_y at the pole itself (residues +1 and -1).  Solving those
conditions directly would put algebraic numbers in the matrix; summing the
conditions against powers of the section ordinates turns every left-hand
coefficient into a power sum of the section polynomial — a rational number.
Both systems are two blocks of r rows, one per pole abscissa, with the
per-point rows of a block in section order.  The symmetrized system is kept
with the differential.  Its block i is the Vandermonde matrix V_i of section
i's ordinates times the per-point block i, and verify checks that without
multiplying it out: per-point entry (j, (a, b)) is x_i^a eta_j^b, so entry
(k, (a, b)) of the product is x_i^a p_(k+b), because the ordinates are the
r distinct roots of the section polynomial and sum_j eta_j^m = p_m by
Newton's theorem.  verify checks the theorem's hypotheses, the power sums
in Q and the ordinates as the section's root generators, not its
conclusion in the tower.  V_i is invertible for a
square-free section, so per pole (x_i, eta_i) the conditions are exactly
one polynomial identity in y,
E(x_i, y) = (x2 - x1) f(x_i, y) / (y - eta_i): the quotient vanishes at the
other section points and equals f_y at the pole.  Its y^b-coefficients give
sum_a c_{a,b} x_i^a = (x2 - x1) q_{i,b}, with rational rows and right-hand
sides from one synthetic division each.

The conditions fix E only up to adding m*(x - x1)(x2 - x) for a monomial m of
degree <= r-3, i.e. up to a first-kind differential; E is the solution
orthogonal to those vectors under the monomial inner product.  For
m = x^alpha y^b the vector lies in y-degree b alone, and so do the
conditions: block b has the r - b unknowns c_{a,b} and the two rows
u = [x1^a] and v = [x2^a].  A coefficient vector's inner products with u
and v are its polynomial's values at x1 and x2, where every embedded vector
of the block vanishes, so u and v span the block's orthogonal complement of
the first-kind space and c_{a,b} = A x1^a + B x2^a.  The two conditions are
then one 2 x 2 Gram system in A and B, and E takes r such solves, one per
y-degree, with no first-kind vector built.

Every condition is stated on the numerator E, never on the rational
function u = E / ((x - x1)(x2 - x) f_y): f_y is a unit at every point of a
square-free section, and haupt_solve checks it nonzero exactly at every
auxiliary pole, so f_y changes no condition.  Nor is it inverted where a
value is returned: eval_u checks it nonzero exactly there too and returns u
as a towers.Quotient, E(p) over (p.x - x1)(x2 - p.x) f_y(p), whose decimal
comes from certified ball division, and residue_at returns the residue as
one, E(p) over sign * (x2 - x1) f_y(p).

Every constructed differential is certified fail-closed by its defining
identity: residue_certificates checks E(x_i, y) = (x2 - x1) q_i(y) exactly,
coefficient by coefficient, and f_y(pole) != 0 at both poles.  E's
coefficients at x_i are the elements towers.y_coefficients reads, and the
q_i come from one synthetic division each; both are in reduced form, which
is canonical, so for a constructed numerator each pair is syntactically
equal, and only a pair that differs goes to is_zero.  The section
is square-free, so q_i vanishes at the other section points and equals f_y
at the pole, and the residues +1, -1 and 0 follow with no point evaluated.
When an identity fails, the verdicts are those of the independent residue
oracle, which verify runs as its own check.  The oracle decides on
residue_at itself: at each section point p over a pole abscissa it takes
the quotient n / d, whose denominator d = sign * (x2 - x1) f_y(p)
residue_at has checked nonzero exactly, and checks exactly that
n - expected * d vanishes, which inverts nothing.

The fundamental function needs the assigned numerator
E = E_base + (x - x1)(x2 - x) sum_k c_k m_k only by its values: it fixes
the free parameters c_k so that E vanishes at the auxiliary poles, from
E_base and the first-kind monomials m_k at each pole, and evaluates u at the
evaluation point the same way.  E itself is never built.

third_kind is the only step that takes a pole pair: it finds both sections,
solves, certifies, and returns the differential.  Every later step takes
that differential: third_kind_system_naive builds the per-point rows from
its sections, vandermonde_equivalence checks its symmetrized system against
the power sums of its sections' ordinates, and haupt_solve fixes its free
parameters.

Neither the differential nor its parameters depend on haupt's evaluation
point, so a group of haupt requests that share the curve, the poles, the
auxiliary points and the printed digits shares them too.  remember keeps
what a group's first request found and printed, detached from its context
(towers.detach): the base numerator, the parameters, the certificates and
the printed blocks that depend on nothing else.  rebind attaches them in a
later request's context, where the same roots are generators again, in
whatever order its sections adjoined them; there they are the numbers
third_kind and the parameter solve would compute, checked when they were
first computed.  A rebound differential carries no symmetrized system,
which only verify reads.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from typing import NamedTuple

from .curves import Curve, Point
from .errors import (ContextMismatch, DegeneratePoints, EvaluationAtPole,
                     Inconsistent, SameAbscissa, VerificationFailed)
from .linsolve import ff_solve
from .polys import BPoly, UPoly, power_sums, powers
from .towers import (Detached, Quotient, TowerContext, TowerElement, attach,
                     bare_generator, detach, eval_bpoly, y_coefficients)


def monomials_upto(d: int) -> list[tuple[int, int]]:
    """Monomial exponents (i, j) with i + j <= d, graded order, x before y."""
    out = []
    for total in range(d + 1):
        for j in range(total + 1):
            out.append((total - j, j))
    return out


def first_kind_basis(curve: Curve) -> list[BPoly]:
    """Numerators of a basis of everywhere-regular differentials: the
    monomials of total degree <= r-3, each over the shared denominator f_y."""
    return [BPoly({m: 1}) for m in monomials_upto(curve.r - 3)]


@dataclass
class LinearSystem:
    """One of the two linear systems for the third-kind numerator: two
    blocks of r rows, one per pole abscissa, in the order of the poles.
    Per-point row k of a block is the condition at the section's root k (the
    residue normalization at the pole, regularity elsewhere); symmetrized
    row k is the k-th power-sum condition."""

    matrix: list                   # rows; Fractions for symmetrized
    rhs: list
    monomials: list[tuple[int, int]]

    @property
    def labels(self) -> list[str]:
        """c0, c1, ... in graded monomial order."""
        return [f"c{k}" for k in range(len(self.monomials))]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.matrix), len(self.monomials))


def _locate_pole(sections: list[Point], p: Point) -> int:
    """The index of p's ordinate in a section: p itself when it is a section
    point, else found by exact comparison."""
    if p in sections:
        return sections.index(p)
    for i, q in enumerate(sections):
        if (q.y - p.y).is_zero():
            return i
    raise Inconsistent("pole ordinate matches no section root")  # unreachable


def _prepare(curve: Curve, p1: Point, p2: Point
             ) -> tuple[Point, Point, list[Point], list[Point]]:
    """(pole1, pole2, section1, section2): the sections over both pole
    abscissas, and each pole as the section point it is, so that its
    ordinate is a section generator."""
    if p1.y.ctx is not p2.y.ctx:
        raise ContextMismatch("pole points live in different tower contexts")
    if p1.x == p2.x:
        raise SameAbscissa(f"both poles lie over x = {p1.x}")
    sec1 = curve.section_roots(p1.x, p1.y.ctx)
    sec2 = curve.section_roots(p2.x, p1.y.ctx)
    return sec1[_locate_pole(sec1, p1)], sec2[_locate_pole(sec2, p2)], sec1, sec2


def _monomial_row(monos, xpows: list[Fraction], y: TowerElement) -> list[TowerElement]:
    """The monomials x^a y^b, b < len(xpows), at a point, from the powers
    xpows of its abscissa.  At a section point of a curve of degree r the
    ordinate is a bare generator t_g of degree r, and with len(xpows) <= r
    each entry is the one-term element x^a t_g^b (TowerContext.monomial),
    with the terms, in order, that eval_bpoly(BPoly({(a, b): 1}), x, y) and
    the generic path give.  Any other ordinate (a generator of lower degree,
    a rational root, a hand-built element) takes that generic path: one
    chain of powers of the ordinate, each scaled by x^a."""
    ctx = y.ctx
    g = bare_generator(y, len(xpows))
    if g is not None:
        return [ctx.monomial(g, b, xpows[a]) for a, b in monos]
    ypows = powers(y, len(xpows), ctx.one)
    return [ypows[b] * xpows[a] if b else ctx.constant(xpows[a])
            for a, b in monos]


def third_kind_system_naive(diff: ParametricDifferential) -> LinearSystem:
    """The per-point system of diff's pole pair: 2r equations (one per
    section point, in section order) in the r(r+1)/2 monomial coefficients;
    matrix entries are tower elements, and each residue row's right-hand side
    is (x2 - x1) f_y(pole).  vandermonde_equivalence checks the symmetrized
    system against V_i times this system's block i without building it."""
    curve = diff.curve
    monos = monomials_upto(curve.r - 1)
    dx = diff.pole2.x - diff.pole1.x
    matrix, rhs = [], []
    for sec, pole in ((diff.section1, diff.pole1), (diff.section2, diff.pole2)):
        xpows = powers(pole.x, curve.r, Fraction(1))
        for pt in sec:
            matrix.append(_monomial_row(monos, xpows, pt.y))
            rhs.append(dx * curve.fy_at(pole) if pt is pole else diff.ctx.zero)
    return LinearSystem(matrix, rhs, monos)


def _symmetrized_system(curve: Curve, pole1: Point, pole2: Point) -> LinearSystem:
    """The symmetrized system: for each pole abscissa and k = 0..r-1, the sum
    of the point conditions weighted by the k-th power of the ordinate.  The
    unknowns' coefficients become power sums of the section polynomial, hence
    rational; only the right-hand side touches the pole ordinates.  The
    entry x^a p_(k+b) is built from the integer numerators and denominators
    of x^a and p_(k+b) as one Fraction."""
    r = curve.r
    monos = monomials_upto(r - 1)
    dx = pole2.x - pole1.x
    matrix, rhs = [], []
    for pole in (pole1, pole2):
        ps = power_sums(curve.section(pole.x, pole.y.ctx).poly, 2 * r - 1)
        pnum, pden = [p.numerator for p in ps], [p.denominator for p in ps]
        u, v = pole.x.numerator, pole.x.denominator
        xnum, xden = powers(u, r, 1), powers(v, r, 1)
        fyv = dx * curve.fy_at(pole)
        for k, ypow in enumerate(powers(pole.y, r, pole.y.ctx.one)):
            matrix.append([Fraction(xnum[a] * pnum[k + b], xden[a] * pden[k + b])
                           for (a, b) in monos])
            rhs.append(ypow * fyv)
    return LinearSystem(matrix, rhs, monos)


@dataclass
class ParametricDifferential:
    """A third-kind differential family E(c) dx / ((x-x1)(x2-x) f_y).

    The assigned numerator E(c) is base_numerator plus, for each free
    parameter c_k, the first-kind numerator m_k times (x-x1)(x2-x) — adding
    such a multiple with deg m_k <= r-3 is exactly adding the first-kind
    differential m_k dx / f_y, which changes E at no section point over x1
    or x2.  So residues are +1 at pole1, -1 at pole2 and 0 at the remaining
    section points for every assignment, and the residue certificates check
    the base numerator.  E(c) is only ever evaluated (eval_u), never built.
    certificates holds the residue verdicts that third_kind checked
    (residue_certificates), the per-point oracle's for every numerator.
    system is the symmetrized system that third_kind builds for verify, and
    None on a differential that rebind rebuilt for a haupt group.  rank,
    2r - 1, is the rank of the conditions when their nullspace is the
    first-kind space, which verify checks on the symmetrized system.
    """

    curve: Curve
    pole1: Point
    pole2: Point
    base_numerator: BPoly
    first_kind_numerators: list[BPoly]
    section1: list[Point] = field(repr=False)
    section2: list[Point] = field(repr=False)
    system: LinearSystem | None = field(repr=False)
    certificates: list[dict] = field(default_factory=list, repr=False)

    @property
    def parameter_count(self) -> int:
        return len(self.first_kind_numerators)

    @property
    def rank(self) -> int:
        return 2 * self.curve.r - 1

    @property
    def ctx(self) -> TowerContext:
        return self.pole1.y.ctx


def _pole_quotient(curve: Curve, pole: Point, scale: Fraction) -> list[TowerElement]:
    """The coefficients q_0 .. q_{r-1} of scale * f(x_i, y) / (y - eta) at a
    pole (x_i, eta), by synthetic division of the scaled section polynomial
    s = scale * f(x_i, y): q_{r-1} = s_r and q_{b-1} = s_b + eta q_b.  q_b
    has degree r - 1 - b in eta.  The pole is one that _prepare located in
    its section, so for r >= 2 eta is a bare generator t_g of degree r, and
    eta q_b is a shift of q_b's keys (TowerElement.times_generator), the
    product's terms with no product taken; for r = 1 no step is taken."""
    eta = pole.y
    s = curve.section(pole.x, eta.ctx).poly.coeffs
    g = bare_generator(eta, curve.r)
    q = [eta.ctx.constant(scale * s[curve.r])]
    for b in range(curve.r - 1, 0, -1):
        q.append(q[-1].times_generator(g) + scale * s[b])
    return q[::-1]


def third_kind(curve: Curve, p1: Point, p2: Point) -> ParametricDifferential:
    """Construct the third-kind family and certify all residues by its
    defining identity at both poles.

    The base numerator E is the solution of the conditions
    E(x_i, y) = (x2 - x1) f(x_i, y) / (y - eta_i) at both poles that is
    orthogonal to the embedded first-kind space (see the module docstring).
    Block b, the r - b unknowns c_{a,b}, lies in the span of its two rows
    u = [x1^a] and v = [x2^a]: c_{a,b} = A u_a + B v_a, where (A, B) solves
    the 2 x 2 Gram system [[u.u, u.v], [u.v, v.v]] against the
    y^b-coefficients of the two quotients, one small fraction-free solve.
    Inconsistent is raised unless its rank is min(2, r - b); the last block
    has u = v = [1], and the two quotients share its coefficient.  The
    symmetrized system is kept for verify; the solve does not read it.
    residue_certificates then checks the identity on the solution,
    coefficient by coefficient, on elements of the two pole generators; its
    verdicts are returned in the family's certificates, and
    VerificationFailed is raised when any of them fails."""
    pole1, pole2, section1, section2 = _prepare(curve, p1, p2)
    system = _symmetrized_system(curve, pole1, pole2)
    r, x1, x2 = curve.r, pole1.x, pole2.x
    dx = x2 - x1
    q1, q2 = _pole_quotient(curve, pole1, dx), _pole_quotient(curve, pole2, dx)
    x1s, x2s = powers(x1, r, Fraction(1)), powers(x2, r, Fraction(1))
    # block b's Gram matrix sums over a < r - b: prefixes of three sums
    grams, uu, uv, vv = [], 0, 0, 0
    for s, t in zip(x1s, x2s):
        uu, uv, vv = uu + s * s, uv + s * t, vv + t * t
        grams.append([[uu, uv], [uv, vv]])
    coeffs = {}
    for b in range(r):
        u, v = x1s[:r - b], x2s[:r - b]
        sol = ff_solve(grams[r - b - 1], [q1[b], q2[b]])
        if sol.rank != min(2, r - b):
            raise Inconsistent(f"the y^{b} block has rank {sol.rank}")
        wu, wv = sol.particular
        coeffs.update(((a, b), wu * s + wv * t) for a, (s, t) in enumerate(zip(u, v)))
    base = BPoly({m: coeffs[m] for m in system.monomials if coeffs[m]})

    diff = ParametricDifferential(
        curve=curve, pole1=pole1, pole2=pole2, base_numerator=base,
        first_kind_numerators=first_kind_basis(curve), section1=section1,
        section2=section2, system=system)
    diff.certificates = residue_certificates(diff)
    failures = [c for c in diff.certificates if not c["ok"]]
    if failures:
        raise VerificationFailed(
            f"residue oracle mismatch at {failures[0]['point']}")
    return diff


# -- residues: the defining identity, and the independent oracle -------


def residue_at(diff: ParametricDifferential, point: Point) -> Quotient:
    """Residue of the differential at a section point over either pole
    abscissa, computed independently of the construction, as the quotient
    E(point) / (sign * (x2 - x1) * f_y(point)); nothing is inverted.

    With x = x0 + t the denominator of the differential is t * D1(t) with
    D1(0) = sign * (x2 - x1) * f_y(point), and f_y(point) != 0 is checked
    exactly first (VerticalTangent), so the pole is simple.  E is the base
    numerator: the first-kind terms of an assigned numerator vanish over
    both pole abscissas, so every assignment has these residues.
    """
    x1, x2 = diff.pole1.x, diff.pole2.x
    if point.x == x1:
        sign = 1      # (x2 - x) = (x2 - x1) - t
    elif point.x == x2:
        sign = -1     # (x - x1) = (x2 - x1) + t
    else:
        raise ValueError("residue_at expects a point over a pole abscissa")
    fyv = diff.curve.local_series(point)  # raises VerticalTangent
    num = eval_bpoly(diff.base_numerator, point.x, point.y)
    return Quotient(num, sign * (x2 - x1) * fyv)


def _identity_holds(diff: ParametricDifferential, pole: Point) -> bool:
    """Whether E(x_i, y) = (x2 - x1) f(x_i, y) / (y - eta_i) holds exactly at
    a pole (x_i, eta_i), coefficient by coefficient in y: E's coefficients
    at x_i (towers.y_coefficients) against the quotient's, the shorter list
    padded with zeros.  Both sides are elements of the pole generators,
    whose reduced form is canonical, so an honest numerator's pairs are
    syntactically equal; a pair that is not is decided by is_zero on its
    difference, so a tampered numerator gets is_zero's verdict.  For r >= 2
    a pole whose ordinate is not a bare generator of degree r, which
    _prepare never hands out, leaves the identity unproved."""
    if diff.curve.r >= 2 and bare_generator(pole.y, diff.curve.r) is None:
        return False
    quotient = _pole_quotient(diff.curve, pole, diff.pole2.x - diff.pole1.x)
    coeffs = y_coefficients(diff.base_numerator, pole.x, diff.ctx)
    return all(a == b or (a - b).is_zero()
               for a, b in zip_longest(coeffs, quotient, fillvalue=diff.ctx.zero))


def _verdicts(diff: ParametricDifferential, decide) -> list[dict]:
    """One verdict per section point over both pole abscissas, in section
    order, each decide(point, expected residue), then the residue-sum
    identity.  Each residue decided equal to its expected value makes the
    sum the sum of the expected values over the decided points (mixing all
    residues into one element would drag every generator into a single huge
    subring for no extra information)."""
    out = []
    for sec in (diff.section1, diff.section2):
        for rid, pt in enumerate(sec):
            expected = 1 if pt is diff.pole1 else -1 if pt is diff.pole2 else 0
            out.append({"point": f"(x={pt.x}, root {rid})", "expected": expected,
                        "ok": decide(pt, expected)})
    out.append({"point": "sum over all section points", "expected": 0,
                "ok": all(v["ok"] for v in out)
                and sum(v["expected"] for v in out) == 0})
    return out


def residue_certificates(diff: ParametricDifferential) -> list[dict]:
    """The residue verdicts at every section point over both pole abscissas,
    plus the residue-sum identity, decided from the defining identity.

    At each pole (x_i, eta_i) it checks exactly that
    E(x_i, y) = (x2 - x1) q_i(y), q_i = f(x_i, y) / (y - eta_i), as equal
    coefficients in y (_identity_holds), and that f_y(pole) != 0
    (Curve.local_series).  A coefficient of E from another context raises
    ContextMismatch.  Every section is square-free
    (Curve.section), so q_i vanishes at the r - 1 other section points and
    equals f_y at the pole: the residue E / (sign * (x2 - x1) f_y) is then
    +1 at pole1, -1 at pole2 and 0 elsewhere, with nothing evaluated at a
    point.  When an identity fails the verdicts are residue_oracle's, so
    they are the per-point oracle's for every numerator."""
    if not all(_identity_holds(diff, pole) for pole in (diff.pole1, diff.pole2)):
        return residue_oracle(diff)
    for pole in (diff.pole1, diff.pole2):
        diff.curve.local_series(pole)  # raises VerticalTangent
    return _verdicts(diff, lambda pt, expected: True)


def residue_oracle(diff: ParametricDifferential) -> list[dict]:
    """The independent residue oracle: the verdicts of residue_certificates,
    decided point by point on residue_at.

    The residue n / d that residue_at returns equals its expected value
    exactly when n - expected * d is zero, since d is nonzero: the oracle
    decides that, and just n = 0 where the expected residue is 0, so it
    inverts nothing."""
    def decide(pt: Point, expected: int) -> bool:
        res = residue_at(diff, pt)
        return (res.numerator - expected * res.denominator if expected
                else res.numerator).is_zero()
    return _verdicts(diff, decide)


def _first_kind_at(diff: ParametricDifferential, point: Point) -> list[TowerElement]:
    """The first-kind numerators m_k (the monomials of degree <= r-3) at a
    point."""
    r = diff.curve.r
    return _monomial_row(monomials_upto(r - 3),
                         powers(point.x, r - 2, Fraction(1)), point.y)


def _combination(diff: ParametricDifferential, params, values) -> TowerElement:
    """sum_k c_k m_k(p) from the first-kind values m_k(p) at a point;
    ValueError when the counts differ."""
    return sum((c * m for c, m in zip(params, values, strict=True)),
               diff.ctx.zero)


def eval_u(diff: ParametricDifferential, point: Point,
           params=None) -> Quotient:
    """Exact value of the rational function u at a point away from the pole
    abscissas, for the parameters c_k (all zero by default), as the quotient
    (E_base(p) + w sum_k c_k m_k(p)) / (w f_y(p)), w = (p.x - x1)(x2 - p.x),
    from the values of the base and first-kind numerators at the point:
    f_y(p) is checked nonzero exactly (EvaluationAtPole otherwise) and never
    inverted.  ValueError when the parameter count is not the genus."""
    if point.x == diff.pole1.x or point.x == diff.pole2.x:
        raise EvaluationAtPole(f"x = {point.x} is a pole abscissa")
    fyv = diff.curve.fy_at(point)
    if fyv.is_zero():
        raise EvaluationAtPole("f_y vanishes at the evaluation point")
    w = (point.x - diff.pole1.x) * (diff.pole2.x - point.x)
    num = eval_bpoly(diff.base_numerator, point.x, point.y)
    if params is not None:
        num = num + w * _combination(diff, params, _first_kind_at(diff, point))
    return Quotient(num, w * fyv)


# -- fundamental function ---------------------------------------------------


@dataclass
class HauptResult:
    """The fundamental function's value, an exact quotient that eval_u
    returns, and the parameters c_k that fix it."""

    value: Quotient
    parameters: list


def haupt_solve(diff: ParametricDifferential, p_prime: Point,
                poles: list[Point], params: list | None = None) -> HauptResult:
    """Value of the fundamental function at diff's first pole p1: the
    function with simple poles at p_prime and the given auxiliary points,
    residue -1 at p_prime, normalized to vanish at diff's second pole p2.

    diff is the certified third-kind family for (p1, p2) that third_kind
    returns.  Steps: fix its free parameters so the assigned numerator E
    vanishes at every auxiliary pole; evaluate u at p_prime.  Row q of the
    parameter system holds the first-kind numerators m_k(q), with
    right-hand side rhs_q = -E_base(q) / ((q.x - x1)(x2 - q.x)): the
    condition u(q) = 0 times f_y(q), a unit at every point with
    f_y(q) != 0 (checked exactly first, EvaluationAtPole otherwise).  Only
    values at points enter: E_base is evaluated once at each auxiliary pole
    and once at p_prime.  The vanishing of E at every auxiliary pole is then
    checked exactly on those values, rhs_q - sum_k c_k m_k(q) =
    -E(q) / ((q.x - x1)(x2 - q.x)) = 0 (VerificationFailed otherwise).  The
    value is eval_u's exact quotient at p_prime, so the parameter solve's
    pivots are the only inversions, and the result carries the determined
    parameters alongside it.

    params, when given, are the parameters that an earlier solve for the
    same differential and auxiliary poles found and checked (see rebind):
    the rows, the solve and the vanishing checks are skipped, and only the
    checks that involve p_prime run.
    """
    curve = diff.curve
    p = curve.genus()
    if len(poles) != p:
        raise DegeneratePoints(f"expected {p} auxiliary poles, got {len(poles)}")
    x1, x2 = diff.pole1.x, diff.pole2.x
    absc = [x1, x2, p_prime.x] + [q.x for q in poles]
    if len(set(absc)) != len(absc):
        raise SameAbscissa("all chosen abscissas must be pairwise distinct")

    if params is None:
        params = _solve_parameters(diff, poles)
    value = eval_u(diff, p_prime, params)
    return HauptResult(value=value, parameters=params)


def _solve_parameters(diff: ParametricDifferential, poles: list[Point]) -> list:
    """The parameters c_k for which the assigned numerator vanishes at every
    auxiliary pole, checked exactly (see haupt_solve)."""
    x1, x2 = diff.pole1.x, diff.pole2.x
    rows, rhs = [], []
    for q in poles:
        if diff.curve.fy_at(q).is_zero():
            raise EvaluationAtPole(f"f_y vanishes at auxiliary pole x = {q.x}")
        rows.append(_first_kind_at(diff, q))
        rhs.append(-eval_bpoly(diff.base_numerator, q.x, q.y)
                   / ((q.x - x1) * (x2 - q.x)))
    params = _solve_tower(rows, rhs)
    for q, row, rv in zip(poles, rows, rhs):
        if not (rv - _combination(diff, params, row)).is_zero():
            raise VerificationFailed(
                f"assigned differential does not vanish at x = {q.x}")
    return params


def _solve_tower(rows: list[list[TowerElement]], rhs: list[TowerElement]) -> list:
    """Gauss-Jordan over the tower ring for the (tiny) p x p parameter
    system; raises DegeneratePoints when the system is singular."""
    n = len(rows)
    a = [list(r) for r in rows]
    b = list(rhs)
    for col in range(n):
        piv = None
        for i in range(col, n):
            if not a[i][col].is_zero():
                piv = i
                break
        if piv is None:
            raise DegeneratePoints(
                "auxiliary poles are not in general position (singular system)")
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        inv = a[col][col].invert()
        a[col] = [v * inv for v in a[col]]
        b[col] = b[col] * inv
        for i in range(n):
            if i == col:
                continue
            f = a[i][col]
            if f.is_zero():
                continue
            a[i] = [vi - f * vc for vi, vc in zip(a[i], a[col])]
            b[i] = b[i] - f * b[col]
    return b


# -- haupt groups shared across requests ------------------------------------

# Groups kept, least recently used dropped first.
MAX_GROUPS = 32


class _Group(NamedTuple):
    """What a haupt group's differential and parameter solve found, free of
    any context: the base numerator's monomials, then its coefficients and
    the parameters as one detached table, the residue certificates, whether
    the request that solved it proved its curve smooth (not under
    --assume-smooth), and the blocks of its document that depend on the
    group alone, as the caller gave them."""

    monomials: tuple
    detached: Detached
    certificates: tuple
    proved_smooth: bool
    blocks: object


# group key -> _Group, least recently used first
_groups: OrderedDict = OrderedDict()


def recall(key) -> _Group | None:
    """The group an earlier request stored under key, or None."""
    group = _groups.get(key)
    if group is not None:
        _groups.move_to_end(key)
    return group


def remember(key, diff: ParametricDifferential, params: list,
             proved_smooth: bool, blocks) -> None:
    """Store diff's base numerator and certificates, the checked parameters
    for the auxiliary poles, whether diff's curve was proved smooth and
    the document blocks under key."""
    terms = diff.base_numerator.terms
    _groups[key] = _Group(tuple(terms), detach([*terms.values(), *params]),
                          tuple(dict(c) for c in diff.certificates), proved_smooth,
                          blocks)
    _groups.move_to_end(key)
    if len(_groups) > MAX_GROUPS:
        _groups.popitem(last=False)


def rebind(group: _Group, curve: Curve, p1: Point, p2: Point
           ) -> tuple[ParametricDifferential, list]:
    """The group's differential for the poles p1 and p2, chosen in a later
    request's context, and its parameters: the same numbers that third_kind
    and haupt_solve would find there (towers.attach).  Call it once the
    request's auxiliary poles are chosen, whose generators the parameters
    use.  The differential has no symmetrized system: a haupt request reads
    only its rank."""
    elements = attach(group.detached, p1.y.ctx)
    pole1, pole2, section1, section2 = _prepare(curve, p1, p2)
    k = len(group.monomials)
    diff = ParametricDifferential(
        curve=curve, pole1=pole1, pole2=pole2,
        base_numerator=BPoly(dict(zip(group.monomials, elements))),
        first_kind_numerators=first_kind_basis(curve), section1=section1,
        section2=section2, system=None,
        certificates=[dict(c) for c in group.certificates])
    return diff, elements[k:]


# -- verification bundles ----------------------------------------------------


def vandermonde_equivalence(diff: ParametricDifferential) -> bool:
    """Exact check that V_i . (per-point block i) == (symmetrized block i)
    for both pole abscissas, right-hand sides included, with no product of
    V_i formed.

    Row k of V_i is (eta_j^k) over section i's ordinates, and per-point
    entry (j, (a, b)) is x_i^a eta_j^b, with right-hand side
    (x2 - x1) f_y(pole) at the pole and 0 elsewhere
    (third_kind_system_naive).  So entry (k, (a, b)) of the product is
    x_i^a sum_j eta_j^(k+b), and its right-hand side is
    eta_pole^k (x2 - x1) f_y(pole).  When the ordinates are the r distinct
    roots of the section polynomial q, sum_j eta_j^m is q's power sum p_m
    for every m, by Newton's theorem.  So the product is the symmetrized
    system, of 2r rows over monomials_upto(r - 1), when per pole abscissa:
    - every symmetrized entry (k, (a, b)) is x_i^a p_(k+b), in Q;
    - p_0 = r and p_1 .. p_(2r-2) satisfy Newton's identities with the
      coefficients of the monic q, in Q, so the list is checked without
      trusting power_sums;
    - the section's ordinates are, in order, the generators that the
      context holds for root ids 0 .. r - 1 of the monic q, which isolation
      certified distinct, and the pole is one of the section's points;
    - every symmetrized right-hand side k is eta_pole^k (x2 - x1) f_y(pole),
      from the same chain of powers, so each is_zero is syntactic."""
    sym, curve, ctx = diff.system, diff.curve, diff.ctx
    r = curve.r
    monos = monomials_upto(r - 1)
    if (sym.monomials != monos or len(sym.matrix) != 2 * r or len(sym.rhs) != 2 * r
            or any(len(row) != len(monos) for row in sym.matrix)):
        return False
    dx = diff.pole2.x - diff.pole1.x
    for i, (sec, pole) in enumerate(((diff.section1, diff.pole1),
                                     (diff.section2, diff.pole2))):
        q = curve.section(pole.x, ctx).poly.monic()
        ps = power_sums(q, 2 * r - 1)
        xpows = powers(pole.x, r, Fraction(1))
        if any(entry != xpows[a] * ps[k + b]
               for k, row in enumerate(sym.matrix[i * r:(i + 1) * r])
               for entry, (a, b) in zip(row, monos)):
            return False
        c = q.coeffs
        if ps[0] != r or any(
                ps[k] + sum(c[r - j] * ps[k - j] for j in range(1, min(k - 1, r) + 1))
                + (k * c[r - k] if k <= r else 0)
                for k in range(1, 2 * r - 1)):
            return False
        if (pole not in sec or [pt.y for pt in sec]
                != [ctx.generator(ctx.locate(q, j)) for j in range(r)]):
            return False
        pows, fyv = powers(pole.y, r, ctx.one), dx * curve.fy_at(pole)
        if not all((rv - pows[k] * fyv).is_zero()
                   for k, rv in enumerate(sym.rhs[i * r:(i + 1) * r])):
            return False
    return True


def unit_circle_pullback(diff: ParametricDifferential) -> dict:
    """Genus-0 oracle for the unit circle: pull the differential back through
    x = (1-t^2)/(1+t^2), y = 2t/(1+t^2) and verify, by exact polynomial
    identity over the tower, that it equals (1/(t-t1) - 1/(t-t2)) dt — i.e.
    exactly two simple finite poles with residues +1 and -1 and no pole at
    infinity."""
    f = diff.curve.f
    scale = f.terms.get((2, 0))
    if scale is None or f != BPoly({(2, 0): scale, (0, 2): scale, (0, 0): -scale}):
        raise ValueError("pullback oracle only applies to the unit circle")
    x1, x2 = diff.pole1.x, diff.pole2.x
    if x1 == -1 or x2 == -1:
        raise ValueError("parametrization chart excludes x = -1")
    e = diff.base_numerator
    one_minus = UPoly([1, 0, -1])     # 1 - t^2
    two_t = UPoly([0, 2])             # 2t
    one_plus = UPoly([1, 0, 1])       # 1 + t^2
    ehat = UPoly()
    for (i, j), c in sorted(e.terms.items()):
        term = UPoly([c]) * one_minus ** i * two_t ** j * one_plus ** (1 - i - j)
        ehat = ehat + term
    a1 = UPoly([1 - x1, 0, -(1 + x1)])           # (x(t) - x1)(1+t^2)
    a2 = UPoly([x2 - 1, 0, x2 + 1])              # (x2 - x(t))(1+t^2)
    num = -1 * ehat
    den = Fraction(scale) * (a1 * a2)

    tau1 = diff.pole1.y / (1 + x1)
    tau2 = diff.pole2.y / (1 + x2)
    sep_ok = not (tau1 - tau2).is_zero()
    lhs = num * UPoly([-tau1, 1]) * UPoly([-tau2, 1])
    rhs = (tau1 - tau2) * den
    delta = lhs - rhs
    identity_ok = all(
        (c.is_zero() if isinstance(c, TowerElement) else c == 0)
        for c in delta.coeffs)
    return {
        "poles_distinct": sep_ok,
        "identity": identity_ok,
        "ok": sep_ok and identity_ok,
        "pullback_numerator_degree": num.degree,
        "pullback_denominator_degree": den.degree,
    }
