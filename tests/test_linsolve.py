import random
from fractions import Fraction

import pytest

from abeldiff.errors import Inconsistent
from abeldiff.linsolve import bareiss_det, ff_solve, rank
from abeldiff.polys import UPoly


def test_identity_system():
    r = ff_solve([[1, 0], [0, 1]], [Fraction(5), Fraction(7)])
    assert r.particular == [5, 7]
    assert r.nullspace == []
    assert r.rank == 2


def test_rank_one_system():
    a = [[1, 1], [2, 2]]
    r = ff_solve(a, [Fraction(1), Fraction(2)])
    # particular solves exactly
    for i in range(2):
        assert sum(a[i][j] * r.particular[j] for j in range(2)) == [1, 2][i]
    assert r.rank == 1
    assert len(r.nullspace) == 1
    v = r.nullspace[0]
    # spans (1, -1)
    assert v[0] * (-1) - v[1] * 1 == 0 and any(v)
    for i in range(2):
        assert sum(a[i][j] * v[j] for j in range(2)) == 0


def test_inconsistent_detected():
    with pytest.raises(Inconsistent):
        ff_solve([[1, 1], [2, 2]], [Fraction(1), Fraction(3)])


def test_solve_exactness_randomized():
    rng = random.Random(99)
    for _ in range(15):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(m)]
        x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        b = [sum(rows[i][j] * x[j] for j in range(n)) for i in range(m)]
        r = ff_solve(rows, b)
        for i in range(m):
            assert sum(rows[i][j] * r.particular[j] for j in range(n)) == b[i]
        for v in r.nullspace:
            for i in range(m):
                assert sum(rows[i][j] * v[j] for j in range(n)) == 0
        assert r.rank + len(r.nullspace) == n


def test_bareiss_det():
    assert bareiss_det([[Fraction(1, 2), 1], [1, 4]]) == 1
    assert bareiss_det([[1, 2], [2, 4]]) == 0
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        expected = _cofactor(rows)
        assert bareiss_det(rows) == expected


def _cofactor(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * _cofactor([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(n))


def test_rank():
    assert rank([[Fraction(1), 2], [Fraction(2), 4]]) == 1
    assert rank([[Fraction(1), 0], [Fraction(0), 1]]) == 2


def test_solve_with_ring_valued_rhs():
    # the rhs may live in any commutative ring over Q
    from abeldiff.polys import UPoly
    from abeldiff.towers import TowerContext, adjoin

    ctx = TowerContext()
    ctx, r2 = adjoin(ctx, UPoly([-2, 0, 1]), 1)
    ctx, r3 = adjoin(ctx, UPoly([-3, 0, 1]), 1)
    r = ff_solve([[1, 0], [0, 1]], [r2, r3])
    assert r.particular[0] == r2 and r.particular[1] == r3
    assert r.nullspace == []

    a = [[1, 1], [2, 2]]
    sol = ff_solve(a, [r2, 2 * r2])
    for i in range(2):
        acc = ctx.zero
        for j in range(2):
            acc = acc + sol.particular[j] * a[i][j]
        assert acc == (i + 1) * r2


# -- cases the one elimination kernel keeps ----------------------------------


def test_zero_leading_pivot_swaps_rows_and_flips_the_sign():
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[0, 2, 1], [3, 1, 0], [1, 0, 0]]) == _cofactor(
        [[0, 2, 1], [3, 1, 0], [1, 0, 0]]) == -1
    # two swaps restore the sign
    rows = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    assert bareiss_det(rows) == _cofactor(rows) == 1
    r = ff_solve([[0, 1], [Fraction(1, 2), 0]], [Fraction(3), Fraction(4)])
    assert r.particular == [8, 3] and r.rank == 2


def test_a_pivotless_column_is_skipped():
    # column 0 has no pivot: the pivots are columns 1 and 2
    rows = [[0, 1, 2], [0, 3, 4]]
    r = ff_solve(rows, [Fraction(5), Fraction(6)])
    assert r.rank == 2 and rank(rows) == 2
    assert r.particular == [0, -4, Fraction(9, 2)]
    assert r.nullspace == [(1, 0, 0)]
    # and a pivotless middle column
    rows = [[1, 2, 3], [2, 4, 7]]
    r = ff_solve(rows, [Fraction(1), Fraction(1)])
    assert r.rank == 2 and r.particular == [4, 0, -1]
    assert r.nullspace == [(-2, 1, 0)]
    assert bareiss_det([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0
    assert bareiss_det([[1, 2, 3], [2, 4, 7], [1, 2, 5]]) == 0


def test_singular_determinants_match_the_cofactor_oracle():
    rng = random.Random(26)
    for _ in range(30):
        n = rng.randint(2, 5)
        k = rng.randint(1, n - 1)
        left = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)]
                for _ in range(n)]
        right = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                 for _ in range(k)]
        rows = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)]
                for i in range(n)]
        rng.shuffle(rows)
        assert bareiss_det(rows) == _cofactor(rows) == 0
        assert rank(rows) < n


def _reference_solve(rows, rhs):
    """Reduced row echelon form over Fractions: (particular solution with the
    free unknowns zero, one nullspace vector per free column, rank), or None
    when inconsistent."""
    m, n = len(rows), len(rows[0])
    a = [[Fraction(v) for v in row] + [Fraction(rv)] for row, rv in zip(rows, rhs)]
    pivots = []
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, m) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [v / a[r][col] for v in a[r]]
        for i in range(m):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [vi - f * vr for vi, vr in zip(a[i], a[r])]
        pivots.append(col)
    if any(a[i][n] for i in range(len(pivots), m)):
        return None
    particular = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        particular[col] = a[r][n]
    nullspace = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -a[r][fc]
        nullspace.append(tuple(vec))
    return particular, nullspace, len(pivots)


def _two_generators():
    from abeldiff.polys import UPoly
    from abeldiff.towers import TowerContext, adjoin

    ctx = TowerContext()
    ctx, r2 = adjoin(ctx, UPoly([-2, 0, 1]), 1)
    ctx, r3 = adjoin(ctx, UPoly([-3, 0, 1]), 1)
    return ctx, r2, r3


@pytest.mark.parametrize("shape", ["tall", "wide"])
def test_rank_deficient_solves_with_tower_rhs_match_a_fraction_reference(shape):
    ctx, r2, r3 = _two_generators()
    rng = random.Random(2600 + len(shape))
    for _ in range(12):
        small, large = rng.randint(2, 3), rng.randint(4, 6)
        m, n = (large, small) if shape == "tall" else (small, large)
        k = rng.randint(1, min(m, n) - 1)
        left = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k)]
                for _ in range(m)]
        right = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
                 for _ in range(k)]
        rows = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)]
                for i in range(m)]
        # b = A (x0 + x1 r2 + x2 r3): each rational component is consistent
        comps = [[sum(rows[i][j] * x[j] for j in range(n)) for i in range(m)]
                 for x in ([Fraction(rng.randint(-3, 3)) for _ in range(n)]
                           for _ in range(3))]
        rhs = [c0 + c1 * r2 + c2 * r3 for c0, c1, c2 in zip(*comps)]
        got = ff_solve(rows, rhs)
        refs = [_reference_solve(rows, comp) for comp in comps]
        assert got.rank == refs[0][2] == rank(rows) < min(m, n)
        assert got.nullspace == refs[0][1]
        for j in range(n):
            want = refs[0][0][j] + refs[1][0][j] * r2 + refs[2][0][j] * r3
            assert (got.particular[j] - want).is_zero()
        for i in range(m):
            acc = ctx.zero
            for j in range(n):
                acc = acc + got.particular[j] * rows[i][j]
            assert (acc - rhs[i]).is_zero()


def test_inconsistent_tower_rhs():
    _, r2, r3 = _two_generators()
    with pytest.raises(Inconsistent):
        ff_solve([[1, 1], [2, 2]], [r2, r3])
    with pytest.raises(Inconsistent):
        ff_solve([[0, 1], [0, 2], [1, 0]], [r2, 2 * r2 + 1, r3])
    ff_solve([[0, 1], [0, 2], [1, 0]], [r2, 2 * r2, r3])


def test_inconsistent_polynomial_rhs():
    # is_zero is a property of UPoly, not a method
    with pytest.raises(Inconsistent):
        ff_solve([[1], [1]], [UPoly([1]), UPoly([2])])
    assert ff_solve([[1], [1]], [UPoly([1, 2]), UPoly([1, 2])]).particular == [UPoly([1, 2])]


def test_ragged_rows_are_rejected():
    for call in (lambda: ff_solve([[1, 0], [0, 1, 5]], [1, 2]),
                 lambda: ff_solve([[1, 0, 0], [0, 1]], [1, 2]),
                 lambda: rank([[1, 2], [3, 4, 5]]),
                 lambda: rank([[1, 2, 3], [4, 5]]),
                 lambda: bareiss_det([[1, 2], [3, 4, 5]]),
                 lambda: bareiss_det([[1, 2], [3]])):
        with pytest.raises(ValueError, match="ragged matrix"):
            call()
    with pytest.raises(ValueError, match="non-square"):
        bareiss_det([[1, 2, 3], [4, 5, 6]])


def _sign(perm) -> int:
    """The sign of a permutation, from its inversions."""
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return -1 if inversions % 2 else 1


def test_row_order_changes_no_result():
    # the elimination picks each pivot by size, not by row position, so a
    # permutation of the rows changes every solve, rank and determinant by
    # at most the permutation's sign
    ctx, r2, r3 = _two_generators()
    rng = random.Random(30)
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.5:
            # entries of very different sizes, some zero
            rows = [[Fraction(rng.choice((0, 1, -1)) * rng.randint(1, 10**rng.randint(1, 12)),
                              rng.randint(1, 10**rng.randint(0, 6))) for _ in range(n)]
                    for _ in range(m)]
        else:
            # rank deficient: a product through k < min(m, n) columns
            k = rng.randint(1, max(1, min(m, n) - 1))
            left = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(k)]
                    for _ in range(m)]
            right = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
                     for _ in range(k)]
            rows = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)]
                    for i in range(m)]
        x = [Fraction(rng.randint(-5, 5)) + rng.randint(-2, 2) * r2 + rng.randint(-2, 2) * r3
             for _ in range(n)]
        rhs = [sum((x[j] * rows[i][j] for j in range(n)), ctx.zero) for i in range(m)]
        solved, homogeneous = ff_solve(rows, rhs), ff_solve(rows)
        det = bareiss_det(rows) if m == n else None
        for _ in range(4):
            perm = rng.sample(range(m), m)
            permuted = [rows[i] for i in perm]
            assert ff_solve(permuted, [rhs[i] for i in perm]) == solved
            assert ff_solve(permuted) == homogeneous
            assert rank(permuted) == solved.rank
            if det is not None:
                assert bareiss_det(permuted) == _sign(perm) * det == _sign(perm) * _cofactor(rows)
