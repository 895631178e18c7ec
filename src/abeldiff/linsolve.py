"""Exact linear algebra over the rationals.

The solver is fraction-free (Bareiss): rows are scaled to integers and the
elimination keeps every intermediate entry an integer via the exact-division
step, which bounds coefficient growth far better than naive Gaussian
elimination.  The right-hand side may live in any commutative ring containing
the rationals (in practice: tower elements); it is carried through the same
row operations, where the Bareiss division step becomes an exact division by
an integer scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import Inconsistent


class RatMatrix:
    """Immutable rectangular matrix of Fractions."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = tuple(tuple(Fraction(v) for v in row) for row in rows)
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ValueError("ragged matrix")

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, RatMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"RatMatrix({[list(map(str, r)) for r in self.rows]})"


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


def bareiss_det(matrix) -> Fraction:
    """Determinant of a square rational matrix by fraction-free elimination."""
    rows = matrix.rows if isinstance(matrix, RatMatrix) else matrix
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    a, scales = _int_rows(rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pk, rk = a[k][k], a[k]
        for i in range(k + 1, n):
            ri = a[i]
            aik = ri[k]
            for j in range(k + 1, n):
                q, r = divmod(pk * ri[j] - aik * rk[j], prev)
                if r:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                ri[j] = q
            ri[k] = 0
        prev = pk
    den = 1
    for s in scales:
        den *= s
    return Fraction(sign * a[n - 1][n - 1], den)


def _entry_is_zero(v) -> bool:
    probe = getattr(v, "is_zero", None)
    if probe is not None:
        return probe()
    return v == 0


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
    pivots: tuple[int, ...]


def ff_solve(matrix, rhs: Sequence) -> SolveResult:
    """Solve A x = b exactly, A rational, b entries in any ring over Q.

    Raises Inconsistent when no solution exists.  Free variables of the
    particular solution are set to zero; the nullspace basis is the standard
    one-per-free-column basis.
    """
    rows = matrix.rows if isinstance(matrix, RatMatrix) else matrix
    m = len(rows)
    n = len(rows[0]) if m else 0
    if len(rhs) != m:
        raise ValueError("rhs length does not match the matrix")

    a, scales = _int_rows(rows)
    b = [rhs[i] * scales[i] for i in range(m)]

    pivots: list[int] = []
    prev = 1
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, m):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            b[r], b[piv] = b[piv], b[r]
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
            b[i] = (b[i] * pk - b[r] * aik) * Fraction(1, prev)
        prev = pk
        pivots.append(col)
        r += 1
        if r == m:
            break

    rank = len(pivots)
    for i in range(rank, m):
        if not _entry_is_zero(b[i]):
            raise Inconsistent(f"row {i} reduces to 0 = {b[i]!r}")

    free_cols = [c for c in range(n) if c not in set(pivots)]

    # back substitution, free variables pinned to zero: each unknown sums
    # the integer row entries times the known unknowns, then divides once
    particular: list = [Fraction(0)] * n
    for k in range(rank - 1, -1, -1):
        col, row = pivots[k], a[k]
        acc = b[k]
        for j in range(col + 1, n):
            if row[j]:
                acc = acc - particular[j] * row[j]
        particular[col] = acc * Fraction(1, row[col])

    nullspace: list[tuple[Fraction, ...]] = []
    for fc in free_cols:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for k in range(rank - 1, -1, -1):
            col, row = pivots[k], a[k]
            acc = Fraction(0)
            for j in range(col + 1, n):
                if row[j] and vec[j]:
                    acc += row[j] * vec[j]
            vec[col] = -acc / row[col]
        nullspace.append(tuple(vec))

    return SolveResult(particular=particular, nullspace=nullspace, rank=rank,
                       pivots=tuple(pivots))


def rank(matrix) -> int:
    rows = matrix.rows if isinstance(matrix, RatMatrix) else matrix
    if not rows:
        return 0
    zero = [Fraction(0)] * len(rows)
    return ff_solve(rows, zero).rank


def vandermonde(values: Sequence) -> list[list]:
    """Square matrix whose row k holds values**k, k = 0 .. n-1.

    Entries live in the ring of the given values; with pairwise-distinct
    values the determinant is nonzero.
    """
    n = len(values)
    rows: list[list] = []
    current = [Fraction(1)] * n
    for _ in range(n):
        rows.append(list(current))
        current = [current[j] * values[j] for j in range(n)]
    return rows
