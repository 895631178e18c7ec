"""Exact linear algebra over the rationals.

One fraction-free (Bareiss) elimination serves the solver, the determinant
and the rank: rows are scaled to integers and the elimination keeps every
intermediate entry an integer via the exact-division step, which bounds
coefficient growth far better than naive Gaussian elimination.  A
right-hand side, where a solve has one, may live in any commutative ring
containing the rationals (in practice: tower elements); it is carried
through the same row operations, where the Bareiss division step becomes an
exact division by an integer scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Sequence

from .errors import Inconsistent


def _int_rows(rows) -> tuple[list[list[int]], list[int]]:
    """Scale each row of ints and Fractions by the lcm of its denominators;
    return integer rows and the per-row scale factors."""
    out, scales = [], []
    for row in rows:
        if all(type(v) is int for v in row):
            out.append(list(row))
            scales.append(1)
            continue
        m = lcm(*(v.denominator for v in row))
        out.append([v.numerator * (m // v.denominator) for v in row])
        scales.append(m)
    return out, scales


def _divided(v, d: int):
    """v * Fraction(1, d), the exact division of a right-hand side entry by
    a nonzero integer; v itself when d is 1, unless v is an int, which that
    product makes a Fraction."""
    return v if d == 1 and type(v) is not int else v * Fraction(1, d)


def _eliminate(rows, rhs=None):
    """Fraction-free row echelon form of a rational matrix given as a list
    of rows, with an optional right-hand side carried through the same row
    operations.  Each pivot is the nonzero entry of least absolute value
    in its column among the rows left (the first on a tie), so the cost
    does not hinge on the row order; the pivot columns do not depend on it.

    Returns (a, b, pivots, sign, scale): the integer echelon rows, the
    transformed right-hand side (None without one), the pivot column of
    each of the first len(pivots) rows, the sign of the row permutation, and
    the product of the row scales.  A column without a pivot is skipped.
    Raises ValueError for a ragged matrix."""
    n = len(rows[0]) if rows else 0
    if any(len(row) != n for row in rows):
        raise ValueError("ragged matrix")
    a, scales = _int_rows(rows)
    b = None if rhs is None else [v if s == 1 else v * s for v, s in zip(rhs, scales)]
    m = len(a)
    pivots: list[int] = []
    sign = prev = 1
    for col in range(n):
        r = len(pivots)
        if r == m:
            break
        piv = min((i for i in range(r, m) if a[i][col]), key=lambda i: abs(a[i][col]),
                  default=None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            if b is not None:
                b[r], b[piv] = b[piv], b[r]
            sign = -sign
        pk, rr = a[r][col], a[r]
        for i in range(r + 1, m):
            ri = a[i]
            aik = ri[col]
            # entries left of col are zero in rows r.. already
            for j in range(col + 1, n):
                q, rem = divmod(pk * ri[j] - aik * rr[j], prev)
                if rem:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                ri[j] = q
            ri[col] = 0
            if b is not None:
                b[i] = _divided(b[i] * pk - b[r] * aik, prev)
        prev = pk
        pivots.append(col)
    return a, b, pivots, sign, prod(scales)


def bareiss_det(matrix) -> Fraction:
    """Determinant of a square rational matrix by fraction-free elimination:
    the sign of the row swaps times the last pivot over the row scales, or 0
    below full rank."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    if len(matrix[0]) != n:
        raise ValueError("determinant of a non-square matrix")
    a, _, pivots, sign, scale = _eliminate(matrix)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * a[n - 1][n - 1], scale)


def _entry_is_zero(v) -> bool:
    """Exact zero test of an entry: is_zero is a method of tower elements
    and a property of polynomials; any other entry compares with 0."""
    probe = getattr(v, "is_zero", None)
    if probe is None:
        return v == 0
    return probe() if callable(probe) else probe


def _back_substitute(a, pivots: list[int], b: Sequence, n: int) -> list:
    """The solution of the echelon rows a = b with every free unknown zero:
    each pivot unknown sums the integer row entries times the known
    unknowns, then divides once."""
    x: list = [Fraction(0)] * n
    for k in range(len(pivots) - 1, -1, -1):
        col, row = pivots[k], a[k]
        acc = b[k]
        for j in range(col + 1, n):
            if row[j]:
                acc = acc - x[j] * row[j]
        x[col] = _divided(acc, row[col])
    return x


@dataclass
class SolveResult:
    """Particular solution plus a basis of the rational nullspace.

    ``particular`` has entries in the ring of the right-hand side;
    ``nullspace`` vectors are tuples of Fractions; ``rank`` is the rank of
    the coefficient matrix.
    """

    particular: list
    nullspace: list[tuple[Fraction, ...]]
    rank: int


def ff_solve(matrix, rhs: Sequence | None = None) -> SolveResult:
    """Solve A x = b exactly, A a list of rational rows, b entries in any
    ring over Q; without b, the homogeneous system A x = 0, whose
    elimination carries no right-hand side.

    Raises Inconsistent when no solution exists.  Free variables of the
    particular solution are set to zero (all of it without b); the
    nullspace basis is the standard one-per-free-column basis.
    """
    if rhs is not None and len(rhs) != len(matrix):
        raise ValueError("rhs length does not match the matrix")
    a, b, pivots, _, _ = _eliminate(matrix, rhs)
    rank = len(pivots)
    n = len(a[0]) if a else 0
    if b is None:
        particular = [Fraction(0)] * n
    else:
        for i in range(rank, len(a)):
            if not _entry_is_zero(b[i]):
                raise Inconsistent(f"row {i} reduces to 0 = {b[i]!r}")
        particular = _back_substitute(a, pivots, b, n)
    nullspace = []
    for fc in (c for c in range(n) if c not in pivots):
        # the free column moved to the right-hand side
        vec = _back_substitute(a, pivots, [-row[fc] for row in a], n)
        vec[fc] = Fraction(1)
        nullspace.append(tuple(vec))
    return SolveResult(particular=particular, nullspace=nullspace, rank=rank)


def rank(matrix) -> int:
    return len(_eliminate(matrix)[2])

