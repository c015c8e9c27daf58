"""Conormal predicates against the trace-pairing fiber oracles."""

import os
import random
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from operator import itemgetter, mul

import pytest

from covex.conormal import (
    CotangentMatrixPoint,
    SpringerFlagPoint,
    SpringerGrassPoint,
    conormal_fiber_flag,
    conormal_fiber_matrix,
    conormal_flag_violations,
    conormal_matrix_violations,
    core_pivots,
    in_conormal_flag,
    in_conormal_grass,
    in_conormal_matrix,
    push_iota,
    springer_flag,
    tangent_orbit_rank,
    vector_to_matrix,
)
from covex.embedding import embed_point, tau_permutation
from covex.errors import (
    CellMembershipError,
    DimensionMismatchError,
    InputError,
    InvariantError,
    NotCovexillaryError,
    SingularMatrixError,
)
from covex.exactla import (
    ExactMatrix,
    FieldSpec,
    Subspace,
    coordinate_subspace,
    kernel,
    random_matrix,
    subspace_sum,
)
from covex.permcore import (
    CovexillaryData,
    PartialPermutation,
    all_partial_permutations,
    all_permutations,
    bruhat_leq,
    covexillary_data,
    is_covexillary,
    random_partial_permutation,
    rank_matrix,
)
from covex.suites import _chase_to_grass
from covex.varieties import (
    Flag,
    matrix_schubert_violation,
    sample_cell_point,
    sample_flag,
    southwest_profile,
)
from test_exactla import dim_quotient, standard_subspace, subspace_intersect

F = FieldSpec.prime()
Q = FieldSpec.rational()


def unit_matrix(n, i, j):
    rows = [[0] * n for _ in range(n)]
    rows[i - 1][j - 1] = 1
    return ExactMatrix.from_rows(F, rows)


def fiber_matrices(fiber, n):
    return [vector_to_matrix(F, v, n) for v in fiber.vectors]


class ConormalBoundTable:
    """Rank bounds b(i, j) of the conormal criterion for 0 <= j < i <= m.

    The bounds are computed from the essential triples padded with
    (p_0, q_0, r_0) = (0, 0, 0) and (p_m, q_m, r_m) = (n, n, 0), the rank of
    the empty block x[n+1.., ..n]; each is the minimum of the two case
    formulas.  The package computes the same table from the pairs (t, c)
    of the embedding (permcore.conormal_bounds).
    """

    def __init__(self, data: CovexillaryData):
        self.data = data
        n = data.n
        self.p = (0, *data.p, n)
        self.q = (0, *data.q, n)
        self.r = (0, *data.r, 0)

    def bound(self, i: int, j: int) -> int:
        p, q, r = self.p, self.q, self.r
        case_rows = (q[i - 1] - r[i - 1]) - (q[j] - r[j])
        case_cols = (p[i] + r[i]) - (p[j + 1] + r[j + 1])
        return min(case_rows, case_cols)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        m = self.data.m
        return tuple((i, j) for i in range(1, m + 1) for j in range(i))


def bound_table(data: CovexillaryData) -> ConormalBoundTable:
    """The bound table with terminal rank r_m = 0, as in data.conormal_checks."""
    return ConormalBoundTable(data)


def big_matrix_M(pt: CotangentMatrixPoint) -> ExactMatrix:
    """The 2n x 2n block matrix ((yx, y), (xyx, xy))."""
    x, y = pt.x, pt.y
    yx = y @ x
    xy = x @ y
    xyx = x @ yx
    top = yx.hstack(y)
    bottom = xyx.hstack(xy)
    return top.vstack(bottom)


def mij_rows_cols(data, i, j):
    """The explicit index sets of M_ij: rows {q_j+1..n, n+p_j+1..2n},
    columns {1..q_i, n+1..n+p_i}."""
    n = data.n
    rows = list(range(data.q_at(j) + 1, n + 1)) + list(
        range(n + data.p_at(j) + 1, 2 * n + 1)
    )
    cols = list(range(1, data.q_at(i) + 1)) + list(range(n + 1, n + data.p_at(i) + 1))
    return rows, cols


def submatrix_mij(m, data, i, j):
    if not 0 <= j < i <= data.m:
        raise IndexError(f"pair ({i},{j}) outside 0 <= j < i <= m")
    rows, cols = mij_rows_cols(data, i, j)
    return m.submatrix(rows, cols)


def mij_ranks(m, data):
    """Reference: rank M_ij for every pair 0 <= j < i <= m, read off the
    southwest profile of big_matrix_M conjugated by an explicit submatrix."""
    order = tau_permutation(data).inverse().image
    profile = southwest_profile(m.submatrix(order, order))
    return {
        (i, j): profile[data.t_at(j)][data.t_at(i) - 1]
        for i in range(1, data.m + 1)
        for j in range(i)
    }


def tau_order(data):
    """tau^-1(1), ..., tau^-1(2n), 0-based: listing the rows and columns of a
    2n x 2n matrix M in this order gives tau M tau^-1."""
    return tuple(c - 1 for c in data.tau.inverse().image)


def tau_conjugated_M(pt, data):
    """Reference: tau M tau^-1 assembled in tau order straight from the rows
    of yx, y, xyx and xy, without materialising M."""
    x, y = pt.x, pt.y
    yx = y @ x
    top = [a + b for a, b in zip(yx.entries, y.entries)]
    bottom = [a + b for a, b in zip((x @ yx).entries, (x @ y).entries)]
    in_order = itemgetter(*tau_order(data))
    return ExactMatrix(x.field, tuple(map(in_order, in_order(top + bottom))))


def diagnostics(x, w, ranks):
    """conormal_matrix_violations spelled out from rank M_ij by pair and the bound table."""
    data = covexillary_data(w)
    out = []
    base = matrix_schubert_violation(x, w)
    if base is not None:
        out.append({"kind": "schubert", "condition": base})
    table = bound_table(data)
    for i, j in table.pairs():
        bound = table.bound(i, j)
        if ranks[i, j] > bound:
            out.append({"kind": "rank", "i": i, "j": j, "rank": ranks[i, j], "bound": bound})
    return out


def reference_violations(pt, w):
    """The diagnostics read off big_matrix_M."""
    return diagnostics(pt.x, w, mij_ranks(big_matrix_M(pt), covexillary_data(w)))


def test_big_matrix_fixtures():
    n = 3
    x = ExactMatrix.identity(F, n)
    y = random_matrix(F, n, n, random.Random(0))
    m = big_matrix_M(CotangentMatrixPoint(x, y))
    for bi in range(2):
        for bj in range(2):
            assert m.submatrix(
                range(bi * n + 1, bi * n + n + 1), range(bj * n + 1, bj * n + n + 1)
            ) == y
    zero = ExactMatrix.zeros(F, n, n)
    assert big_matrix_M(CotangentMatrixPoint(x, zero)).is_zero()


def test_big_matrix_support_for_2143():
    w = PartialPermutation.from_one_line("2143")
    y = unit_matrix(4, 1, 3) + unit_matrix(4, 2, 4)
    m = big_matrix_M(CotangentMatrixPoint(w.matrix(F), y))
    support_rows = {1, 2, 5, 6}
    support_cols = {3, 4, 7, 8}
    for i in range(1, 9):
        for j in range(1, 9):
            if m.entry(i, j):
                assert i in support_rows and j in support_cols


def test_submatrix_index_arithmetic():
    w = PartialPermutation.from_one_line("2143")
    data = covexillary_data(w)
    pt = CotangentMatrixPoint(w.matrix(F), unit_matrix(4, 1, 3))
    m = big_matrix_M(pt)
    # (m, 0) is all of M
    assert submatrix_mij(m, data, data.m, 0) == m
    # (1, 0): all rows, columns {1, 2, 5, 6}
    sub = submatrix_mij(m, data, 1, 0)
    assert sub.shape == (8, 4)
    assert sub == m.submatrix(range(1, 9), [1, 2, 5, 6])
    with pytest.raises(IndexError):
        submatrix_mij(m, data, 0, 0)


def test_mij_ranks_match_explicit_submatrices():
    """The tau-conjugated profile gives rank M_ij for every pair.

    Checked for every covexillary partial w with n <= 4 on a random point, a
    cell point with a fiber covector, and a cell point with a random y.
    """
    rng = random.Random(13)
    for n in (1, 2, 3, 4):
        for w in all_partial_permutations(n):
            if not is_covexillary(w):
                continue
            data = covexillary_data(w)
            x = sample_cell_point(w, F, rng)
            fiber = conormal_fiber_matrix(x, w)
            ys = fiber_matrices(fiber, n)[-1:] + [random_matrix(F, n, n, rng)]
            points = [(random_matrix(F, n, n, rng), random_matrix(F, n, n, rng))]
            points += [(x, y) for y in ys]
            for px, py in points:
                m = big_matrix_M(CotangentMatrixPoint(px, py))
                ranks = mij_ranks(m, data)
                assert list(ranks) == list(bound_table(data).pairs())
                for (i, j), got in ranks.items():
                    assert got == submatrix_mij(m, data, i, j).rank()


def rational_matrix(rng, n):
    return ExactMatrix.from_rows(
        Q, [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    )


def test_tau_conjugated_M_is_the_conjugated_big_matrix():
    """The directly built tau M tau^-1 equals M on the tau^-1 order, and the
    predicate's diagnostics equal the ones read off M itself.

    Every covexillary partial w with n <= 4, over F_10007 and Q, with the
    zero covector, a fiber covector and random points.
    """
    rng = random.Random(29)
    for n in (1, 2, 3, 4):
        for w in all_partial_permutations(n):
            if not is_covexillary(w):
                continue
            data = covexillary_data(w)
            table = bound_table(data)
            assert list(data.conormal_checks) == [
                (i, j, table.bound(i, j)) for i, j in table.pairs()
            ]
            order = tau_permutation(data).inverse().image
            x = sample_cell_point(w, F, rng)
            fiber = fiber_matrices(conormal_fiber_matrix(x, w), n)
            points = [(x, ExactMatrix.zeros(F, n, n)), (x, random_matrix(F, n, n, rng))]
            points += [(x, y) for y in fiber[-1:]]
            points.append((random_matrix(F, n, n, rng), random_matrix(F, n, n, rng)))
            xq = w.matrix(Q)
            points += [(xq, ExactMatrix.zeros(Q, n, n)), (xq, rational_matrix(rng, n))]
            points.append((rational_matrix(rng, n), rational_matrix(rng, n)))
            for px, py in points:
                pt = CotangentMatrixPoint(px, py)
                m = big_matrix_M(pt)
                direct = tau_conjugated_M(pt, data)
                assert direct == m.submatrix(order, order)
                assert southwest_profile(direct) == southwest_profile(m.submatrix(order, order))
                ranks = mij_ranks(m, data)
                for i, j, _ in data.conormal_checks:
                    row, col = data.t_at(j), data.t_at(i) - 1
                    assert southwest_profile(direct)[row][col] == ranks[i, j]
                expected = reference_violations(pt, w)
                assert conormal_matrix_violations(pt, w) == expected
                first = conormal_matrix_violations(pt, w, first_only=True)
                assert first == expected[:1]


def matrix_of_rank(field, n, r, rng):
    """An n x n matrix of rank exactly r: a product n x r by r x n, redrawn
    until the rank is r (integer entries in -3..3 over Q)."""

    def factor(rows, cols):
        if field.is_prime:
            return random_matrix(field, rows, cols, rng)
        entries = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        return ExactMatrix.from_rows(field, entries)

    while True:
        x = factor(n, r) @ factor(r, n) if r else ExactMatrix.zeros(field, n, n)
        if x.rank() == r:
            return x


def core_points(w, field, rng):
    """(x, y) pairs for w: x of every rank 0..n and a cell point of w, each
    with a random covector; the cell point also with the zero covector and,
    over F_p, a fiber covector."""
    n = w.n
    if field.is_prime:
        cell = sample_cell_point(w, field, rng)
        random_y = lambda: random_matrix(field, n, n, rng)
    else:
        cell = w.matrix(field)
        random_y = lambda: rational_matrix(rng, n)
    xs = [matrix_of_rank(field, n, r, rng) for r in range(n + 1)] + [cell]
    points = [(x, random_y()) for x in xs] + [(cell, ExactMatrix.zeros(field, n, n))]
    if field.is_prime:
        fiber = conormal_fiber_matrix(cell, w)
        if fiber.dim:
            points.append((cell, vector_to_matrix(field, fiber.vectors[-1], n)))
    return points


def core_matrix(pt, rows, cols):
    """Reference: the whole n x n core N = H y G of M = [I; x] y [x, I] on the
    pivots of core_pivots, which the predicate builds one row at a time.

    A unit row of H picks a row of y and a unit column of G picks a column
    of H y; only the rows and columns of x cost a dot product.
    """
    field = pt.x.field
    n = pt.n
    x, y = pt.x.entries, pt.y.entries

    def products(vectors, columns):
        return [tuple(field.coerce(sum(map(mul, v, c))) for c in columns) for v in vectors]

    x_times_y = iter(products([x[k - n] for k in rows if k >= n], tuple(zip(*y))))
    hy = [next(x_times_y) if k >= n else y[k] for k in rows]
    hy_cols = tuple(zip(*hy))
    x_cols = tuple(zip(*x))
    hy_times_x = iter(products([x_cols[k] for k in cols if k < n], hy))
    core_cols = [next(hy_times_x) if k < n else hy_cols[k - n] for k in cols]
    return ExactMatrix(field, tuple(zip(*core_cols)))


def check_core_against_references(w, field, rng):
    data = covexillary_data(w)
    n = w.n
    for x, y in core_points(w, field, rng):
        rows, cols, rows_before, cols_through = core_pivots(x, data)
        assert len(rows) == len(cols) == n
        assert len(set(rows)) == len(set(cols)) == n
        assert len(rows_before) == len(cols_through) == data.m + 1
        assert rows_before[-1] == cols_through[-1] == n
        pt = CotangentMatrixPoint(x, y)
        ranks = mij_ranks(big_matrix_M(pt), data)
        profile = southwest_profile(core_matrix(pt, rows, cols))
        for i, j, _ in data.conormal_checks:
            a, b = rows_before[j], cols_through[i]
            assert (profile[a][b - 1] if a < n and b else 0) == ranks[i, j]
        expected = diagnostics(x, w, ranks)
        assert conormal_matrix_violations(pt, w) == expected
        assert conormal_matrix_violations(pt, w, first_only=True) == expected[:1]
        assert in_conormal_matrix(pt, w) == (not expected)


CORE_FIELDS = (FieldSpec.prime(2), FieldSpec.prime(5), F, Q)


def test_core_ranks_match_big_matrix_for_n_up_to_4():
    """The n x n core gives every rank M_ij of big_matrix_M, and the
    diagnostics in full and first_only, for every covexillary partial w with
    n <= 4, over F_2, F_5, F_10007 and Q.  (tau_conjugated_M, the second
    oracle, is checked in test_tau_conjugated_M_is_the_conjugated_big_matrix.)"""
    rng = random.Random(31)
    for field in CORE_FIELDS:
        for n in (1, 2, 3, 4):
            for w in all_partial_permutations(n):
                if is_covexillary(w):
                    check_core_against_references(w, field, rng)


def test_core_ranks_match_big_matrix_on_a_sample_at_n_5_and_6():
    rng = random.Random(37)
    for n, count in ((5, 6), (6, 3)):
        drawn = 0
        while drawn < count:
            w = random_partial_permutation(n, rng)
            if not is_covexillary(w):
                continue
            drawn += 1
            for field in CORE_FIELDS:
                check_core_against_references(w, field, rng)


def test_bound_table_longest_element_forces_zero_section():
    rng = random.Random(1)
    for n in (2, 3):
        w0 = PartialPermutation.longest(n)
        data = covexillary_data(w0)
        table = bound_table(data)
        assert table.pairs() == ((1, 0),)
        assert table.bound(1, 0) == 0
        x = sample_cell_point(w0, F, rng)
        assert in_conormal_matrix(CotangentMatrixPoint(x, ExactMatrix.zeros(F, n, n)), w0)
        y = random_matrix(F, n, n, rng)
        assert not in_conormal_matrix(CotangentMatrixPoint(x, y), w0)


def test_matrix_conormal_fixtures():
    # n = 2 identity at x = I: the fiber is the strictly upper matrices
    e2 = PartialPermutation.identity(2)
    ident = ExactMatrix.identity(F, 2)
    assert in_conormal_matrix(CotangentMatrixPoint(ident, unit_matrix(2, 1, 2)), e2)
    assert not in_conormal_matrix(CotangentMatrixPoint(ident, unit_matrix(2, 2, 2)), e2)
    # n = 4, w = [2143] at x = w
    w = PartialPermutation.from_one_line("2143")
    assert in_conormal_matrix(CotangentMatrixPoint(w.matrix(F), unit_matrix(4, 1, 3)), w)
    assert not in_conormal_matrix(
        CotangentMatrixPoint(w.matrix(F), unit_matrix(4, 3, 1)), w
    )


def test_matrix_conormal_requires_covexillary():
    w = PartialPermutation.from_one_line("3412")
    point = CotangentMatrixPoint(ExactMatrix.zeros(F, 4, 4), ExactMatrix.zeros(F, 4, 4))
    with pytest.raises(NotCovexillaryError):
        in_conormal_matrix(point, w)


def test_fiber_fixture_2143():
    w = PartialPermutation.from_one_line("2143")
    fiber = conormal_fiber_matrix(w.matrix(F), w)
    expected = Subspace.span(
        F,
        16,
        [
            tuple(unit_matrix(4, i, j).entries[a][b] for a in range(4) for b in range(4))
            for (i, j) in ((1, 3), (1, 4), (2, 3), (2, 4))
        ],
    )
    assert fiber == expected


def test_fiber_extremes():
    rng = random.Random(2)
    w0 = PartialPermutation.longest(3)
    assert conormal_fiber_matrix(sample_cell_point(w0, F, rng), w0).dim == 0
    zero = PartialPermutation.zero(3)
    assert conormal_fiber_matrix(ExactMatrix.zeros(F, 3, 3), zero).dim == 9
    with pytest.raises(CellMembershipError):
        conormal_fiber_matrix(ExactMatrix.zeros(F, 3, 3), w0)


def test_fiber_dimension_equals_orbit_corank():
    rng = random.Random(3)
    for n in (1, 2, 3):
        for w in all_partial_permutations(n):
            if not is_covexillary(w):
                continue
            x = sample_cell_point(w, F, rng)
            assert conormal_fiber_matrix(x, w).dim == n * n - tangent_orbit_rank(x)


def test_oracle_soundness_small():
    """Every oracle fiber point over a cell point is accepted, and each of its
    blocks M_ij meets the reference bound with terminal rank r_m = 0."""
    rng = random.Random(4)
    for n in (1, 2, 3):
        for w in all_partial_permutations(n):
            if not is_covexillary(w):
                continue
            data = covexillary_data(w)
            table = bound_table(data)
            for _ in range(3):
                x = sample_cell_point(w, F, rng)
                fiber = conormal_fiber_matrix(x, w)
                for y in fiber_matrices(fiber, n):
                    assert in_conormal_matrix(CotangentMatrixPoint(x, y), w)
                    m = big_matrix_M(CotangentMatrixPoint(x, y))
                    for i, j in table.pairs():
                        assert submatrix_mij(m, data, i, j).rank() <= table.bound(i, j)


def all_matrices(field, n):
    """Every n x n matrix over the prime field, in a fixed order."""
    return [
        ExactMatrix.from_rows(field, [entries[a * n : (a + 1) * n] for a in range(n)])
        for entries in product(range(field.p), repeat=n * n)
    ]


def combination(field, basis, coeffs, n):
    """The n x n matrix sum of coeffs[k] * basis[k] over the prime field."""
    flat = [sum(map(mul, coeffs, col)) % field.p for col in zip(*basis)] or [0] * (n * n)
    return vector_to_matrix(field, flat, n)


def chased_accepts(w, x, y):
    """The Grassmannian criterion at the cotangent chase of (x, y)."""
    conditions = covexillary_data(w).grass_conditions
    return in_conormal_grass(_chase_to_grass(w, x, y), conditions)


def test_boundary_point_of_310_accepts_only_the_chased_covectors():
    """Regression: at w = 3 1 0 and x = E_11, a point of the boundary orbit of
    u = 1 0 0, the terminal padding r_m of n made the matrix criterion accept
    all 3^6 covectors over F_3 of the conormal space of that orbit, a second
    n^2-dimensional component.  With r_m = 0 it accepts the 105 that the
    chased Grassmannian criterion accepts."""
    field = FieldSpec.prime(3)
    w, u = PartialPermutation.from_one_line("3 1 0"), PartialPermutation.from_one_line("1 0 0")
    x = u.matrix(field)
    basis = conormal_fiber_matrix(x, u).vectors
    ys = [combination(field, basis, coeffs, 3) for coeffs in product(range(3), repeat=len(basis))]
    assert len(set(ys)) == 729
    matrix = [y for y in ys if in_conormal_matrix(CotangentMatrixPoint(x, y), w)]
    chased = [y for y in ys if chased_accepts(w, x, y)]
    assert len(matrix) == len(chased) == 105
    assert matrix == chased


# COVEX_AGREEMENT_SWEEP_N=3 adds n = 3 over F_2 (197,120 points); CI runs it.
AGREEMENT_SWEEP_N = int(os.environ.get("COVEX_AGREEMENT_SWEEP_N", "2"))


@pytest.mark.parametrize(
    "p, n_max", [(2, max(2, AGREEMENT_SWEEP_N)), (3, 2)], ids=["F2", "F3"]
)
def test_matrix_and_chased_criteria_agree_at_boundary_fixed_points(p, n_max):
    """in_conormal_matrix and the chased Grassmannian criterion give the same
    verdict at every covector y over every boundary torus-fixed point u < w,
    for every covexillary partial w with n <= n_max."""
    field = FieldSpec.prime(p)
    for n in range(1, n_max + 1):
        ys = all_matrices(field, n)
        for w in all_partial_permutations(n):
            if not is_covexillary(w):
                continue
            for u in all_partial_permutations(n):
                if u == w or not bruhat_leq(u, w):
                    continue
                x = u.matrix(field)
                for y in ys:
                    verdict = in_conormal_matrix(CotangentMatrixPoint(x, y), w)
                    assert verdict == chased_accepts(w, x, y), (w, u, y)


def generic_fiber_point(x, w, rng):
    """(x, y) with y a random combination of the oracle fiber basis at x."""
    basis = conormal_fiber_matrix(x, w).vectors
    coeffs = [rng.randrange(x.field.p) for _ in basis]
    return CotangentMatrixPoint(x, combination(x.field, basis, coeffs, w.n))


def monomials_by_weight(n):
    """The monomials of degree <= 2 in the 2n^2 coordinates of (x, y), grouped
    by torus weight, as tuples of coordinate indices (x row-major, then y).

    (a, b) in T x T acts by x -> a x b^-1 and y -> b y a^-1, so x_ij has
    weight e_i - f_j and y_ij has weight f_i - e_j.  The conormal variety is
    stable under this action, so its ideal is spanned by weight vectors and
    the interpolation splits into one small kernel per weight.
    """

    def weight(k):
        vec = [0] * (2 * n)
        i, j = divmod(k % (n * n), n)
        if k < n * n:
            vec[i], vec[n + j] = 1, -1
        else:
            vec[n + i], vec[j] = 1, -1
        return vec

    coords = range(2 * n * n)
    blocks = defaultdict(list)
    for monomial in [(), *((k,) for k in coords), *combinations_with_replacement(coords, 2)]:
        total = [sum(parts) for parts in zip([0] * (2 * n), *map(weight, monomial))]
        blocks[tuple(total)].append(monomial)
    return list(blocks.values())


def coordinates(pt):
    """The 2n^2 coordinates of (x, y): x row-major, then y."""
    return [e for row in pt.x.entries + pt.y.entries for e in row]


def monomial_values(monomials, coords):
    values = []
    for monomial in monomials:
        value = 1
        for k in monomial:
            value = value * coords[k] % F.p
        values.append(value)
    return values


def interpolated_equations(w, rng):
    """The degree <= 2 equations of the conormal variety of w over F_10007:
    per weight block, the kernel of the monomial values at twice as many
    open-cell points (x, y) as there are monomials, with x = b_l w b_r and
    y generic in the oracle fiber at x."""
    blocks = monomials_by_weight(w.n)
    count = 2 * sum(map(len, blocks))
    points = [
        coordinates(generic_fiber_point(sample_cell_point(w, F, rng), w, rng))
        for _ in range(count)
    ]
    equations = []
    for monomials in blocks:
        values = ExactMatrix(F, tuple(tuple(monomial_values(monomials, c)) for c in points))
        equations += [(monomials, coeffs) for coeffs in kernel(values).vectors]
    return equations


def breaks_an_equation(equations, pt):
    coords = coordinates(pt)
    return any(
        sum(map(mul, coeffs, monomial_values(monomials, coords))) % F.p
        for monomials, coeffs in equations
    )


@pytest.mark.parametrize(
    "w, u, count", [("3 1 0", "1 0 0", 72), ("4213", "2 1 0 4", 303)], ids=["310", "4213"]
)
def test_interpolated_equations_reject_the_boundary_conormal(w, u, count):
    """Interpolation audit, independent of the rank criterion: generic points
    of the conormal bundle of the boundary orbit O_u, u < w, are rejected,
    while the zero section over O_u and fresh open-cell points are accepted;
    every accepted point satisfies every interpolated equation.  Too few
    interpolation points would show as more than count equations."""
    rng = random.Random(47)
    w, u = PartialPermutation.from_one_line(w), PartialPermutation.from_one_line(u)
    equations = interpolated_equations(w, rng)
    assert len(equations) == count
    zero = ExactMatrix.zeros(F, w.n, w.n)
    for _ in range(20):
        boundary = generic_fiber_point(sample_cell_point(u, F, rng), u, rng)
        assert breaks_an_equation(equations, boundary)
        assert not in_conormal_matrix(boundary, w)
        section = CotangentMatrixPoint(boundary.x, zero)
        cell = generic_fiber_point(sample_cell_point(w, F, rng), w, rng)
        for pt in (section, cell):
            assert in_conormal_matrix(pt, w)
            assert not breaks_an_equation(equations, pt)


def test_signed_and_unsigned_submatrices_have_equal_ranks():
    rng = random.Random(5)
    for n in (2, 3):
        for w in all_partial_permutations(n):
            if not is_covexillary(w):
                continue
            data = covexillary_data(w)
            x = random_matrix(F, n, n, rng)
            y = random_matrix(F, n, n, rng)
            yx, xy = y @ x, x @ y
            unsigned = yx.hstack(y).vstack((x @ yx).hstack(xy))
            signed = (-yx).hstack(y).vstack((-(x @ yx)).hstack(xy))
            for i, j in bound_table(data).pairs():
                assert (
                    submatrix_mij(unsigned, data, i, j).rank()
                    == submatrix_mij(signed, data, i, j).rank()
                )


def test_grass_conormal_fixtures():
    # divisor conditions in Gr(2, 4): dim(V + E_2) <= 3
    conditions = [(2, 1)]
    v = coordinate_subspace(F, 4, [1, 3])
    zero = ExactMatrix.zeros(F, 4, 4)
    assert in_conormal_grass(SpringerGrassPoint(v, zero), conditions)
    accept = unit_matrix(4, 1, 4)  # e4 -> e1: the conormal direction
    reject = unit_matrix(4, 3, 2)  # e2 -> e3: valid Springer pair, off the conormal
    assert in_conormal_grass(SpringerGrassPoint(v, accept), conditions)
    assert not in_conormal_grass(SpringerGrassPoint(v, reject), conditions)
    # not a point of the Schubert variety at all
    off = coordinate_subspace(F, 4, [3, 4])
    assert not in_conormal_grass(SpringerGrassPoint(off, zero), conditions)


def test_grass_conormal_rejects_positions_outside_the_ambient():
    point = SpringerGrassPoint(coordinate_subspace(F, 4, [1, 3]), ExactMatrix.zeros(F, 4, 4))
    for conditions in ([(5, 1)], [(-1, 0)]):
        with pytest.raises(DimensionMismatchError):
            in_conormal_grass(point, conditions)


def test_springer_point_invariants():
    v = coordinate_subspace(F, 4, [1, 3])
    with pytest.raises(InvariantError):
        SpringerGrassPoint(v, unit_matrix(4, 1, 3))  # kills nothing of V? e3 -> e1 hits V
    with pytest.raises(InvariantError):
        SpringerGrassPoint(v, unit_matrix(4, 2, 4))  # image not inside V
    flag = Flag(ExactMatrix.identity(F, 3))
    with pytest.raises(InvariantError) as err:
        SpringerFlagPoint(flag, unit_matrix(3, 2, 1))  # z F_1 reaches e2, not F_0
    assert "F_1" in str(err.value)


def test_flag_conormal_fixtures():
    rng = random.Random(6)
    for n in (2, 3):
        for w in all_permutations(n):
            if not is_covexillary(w):
                continue
            g = sample_cell_point(w, F, rng)
            flag, fiber = conormal_fiber_flag(g, w)
            assert fiber.dim == n * (n - 1) // 2 - w.length()
            zero = ExactMatrix.zeros(F, n, n)
            assert in_conormal_flag(SpringerFlagPoint(flag, zero), w)
            for z in fiber_matrices(fiber, n):
                assert in_conormal_flag(SpringerFlagPoint(flag, z), w)
    # w0: the conormal variety is the zero section
    w0 = PartialPermutation.longest(3)
    g = sample_cell_point(w0, F, rng)
    flag, fiber = conormal_fiber_flag(g, w0)
    assert fiber.dim == 0
    upper = ExactMatrix.from_rows(F, [[0, 1, 2], [0, 0, 3], [0, 0, 0]])
    z = g @ upper @ g.inverse()
    assert not in_conormal_flag(SpringerFlagPoint(flag, z), w0)


def test_flag_fiber_fixtures():
    # identity cell with g = I: both constraints coincide, the fiber is u_B
    e3 = PartialPermutation.identity(3)
    flag, fiber = conormal_fiber_flag(ExactMatrix.identity(F, 3), e3)
    uppers = Subspace.span(
        F,
        9,
        [
            tuple(unit_matrix(3, i, j).entries[a][b] for a in range(3) for b in range(3))
            for (i, j) in ((1, 2), (1, 3), (2, 3))
        ],
    )
    assert fiber == uppers
    # permutation-matrix generator: dimension matches the codimension
    for wstr in ("213", "231", "321"):
        w = PartialPermutation.from_one_line(wstr)
        _, fiber = conormal_fiber_flag(w.matrix(F), w)
        assert fiber.dim == 3 - w.length()
    with pytest.raises(CellMembershipError):
        conormal_fiber_flag(ExactMatrix.identity(F, 3), PartialPermutation.longest(3))


def reference_flag_fiber(g):
    """Oracle: {z : z and g^-1 z g strictly upper} as the kernel of its
    n^2 x n^2 linear system in the entries of z."""
    field, n = g.field, g.rows
    ginv = g.inverse()
    rows = []
    for a in range(1, n + 1):
        for b in range(1, a + 1):
            row = [0] * (n * n)
            row[(a - 1) * n + (b - 1)] = 1  # z_{ab} = 0
            rows.append(row)
            row = [0] * (n * n)
            for k in range(1, n + 1):
                for l in range(1, n + 1):  # (g^-1 z g)_{ab}
                    coeff = field.mul(ginv.entry(a, k), g.entry(l, b))
                    if coeff:
                        row[(k - 1) * n + (l - 1)] = field.add(row[(k - 1) * n + (l - 1)], coeff)
            rows.append(row)
    return kernel(ExactMatrix(field, tuple(tuple(r) for r in rows)))


def test_flag_fiber_matches_the_linear_system():
    """conormal_fiber_flag, the g-translate of the matrix fiber at g, equals
    the linear-system oracle at a cell generator of every covexillary w in
    S_n: n <= 5 over F_2, F_3 and F_10007, n <= 4 over Q."""
    rng = random.Random(53)
    for field, n_max in ((FieldSpec.prime(2), 5), (FieldSpec.prime(3), 5), (F, 5), (Q, 4)):
        for n in range(1, n_max + 1):
            for w in all_permutations(n):
                if is_covexillary(w):
                    g = cell_generator(w, field, rng)
                    flag, fiber = conormal_fiber_flag(g, w)
                    assert flag == Flag(g)
                    assert fiber == reference_flag_fiber(g)


def flag_subspaces(flag):
    """F_0, ..., F_n as spans of the first generator columns."""
    g, n = flag.generator, flag.n
    rows = range(1, n + 1)
    return [Subspace.column_span(g.submatrix(rows, range(1, i + 1))) for i in range(n + 1)]


@lru_cache(maxsize=4)
def subspace_dims(pt):
    """dim(F_j / E_i) by (j, i), z(F_q + E_p) and F_q meet E_p by (q, p), and
    a memo for dim(z(F_q + E_p) / (F_q' meet E_p')) by (q, p, q', p'): the
    subspaces of one point, shared by every w."""
    field, n, z = pt.flag.field, pt.flag.n, pt.z
    spaces = flag_subspaces(pt.flag)
    standard = [standard_subspace(field, n, p) for p in range(n + 1)]
    pairs = [(q, p) for q in range(n + 1) for p in range(n + 1)]
    moved = {(q, p): subspace_sum(spaces[q], standard[p]).apply(z) for q, p in pairs}
    meets = {(q, p): subspace_intersect(spaces[q], standard[p]) for q, p in pairs}
    schubert = {(j, i): dim_quotient(spaces[j], standard[i]) for j, i in pairs}
    return schubert, moved, meets, {}


def reference_flag_violations(pt, w, first_only=False):
    """The flag diagnostics computed on subspaces, as (kind, i, j, dim, bound).

    The Schubert entry is the first (i, j) with dim(F_j / E_{i-1}) > r_w(i, j);
    the rank entries compare dim(z(F_{q_i} + E_{p_i}) / (F_{q_j} meet E_{p_j}))
    with b(i, j), and a negative bound is met by a zero source.
    """
    data = covexillary_data(w)
    schubert, moved, meets, quotients = subspace_dims(pt)
    out = []
    for i, j, bound in rank_matrix(w).cells:
        got = schubert[j, i - 1]
        if got > bound:
            out.append(("schubert", i, j, got, bound))
            break
    for i, j, bound in data.conormal_checks:
        source = (data.q_at(i), data.p_at(i))
        if bound < 0 and moved[source].dim == 0:
            continue
        target = (data.q_at(j), data.p_at(j))
        if source + target not in quotients:
            quotients[source + target] = dim_quotient(moved[source], meets[target])
        got = quotients[source + target]
        if got > bound:
            out.append(("rank", i, j, got, bound))
    return out[:1] if first_only else out


def diagnostic_tuples(violations):
    return [
        ("schubert", *v["condition"])
        if v["kind"] == "schubert"
        else ("rank", v["i"], v["j"], v["rank"], v["bound"])
        for v in violations
    ]


def random_upper(field, n, rng, strict):
    """A random upper triangular matrix, strictly upper or with a nonzero
    diagonal; entries uniform over F_p, small fractions over Q."""

    def scalar(nonzero):
        if field.is_prime:
            return rng.randrange(1 if nonzero else 0, field.p)
        numerator = rng.choice([-3, -2, -1, 1, 2, 3]) if nonzero else rng.randint(-3, 3)
        return Fraction(numerator, rng.randint(1, 3))

    return ExactMatrix.from_rows(
        field,
        [
            [scalar(False) if b > a else 0 if strict or b < a else scalar(True) for b in range(n)]
            for a in range(n)
        ],
    )


def cell_generator(u, field, rng):
    """A generator of a flag in the open cell of u: b_l u b_r for random Borel b_l, b_r."""
    if field.is_prime:
        return sample_flag(u, field, rng).generator
    b_l, b_r = (random_upper(field, u.n, rng, False) for _ in range(2))
    return b_l @ u.matrix(field) @ b_r


def test_flag_predicate_matches_subspace_reference():
    """conormal_flag_violations equals the subspace computation, in full and
    first_only, for every covexillary w with n <= 4 at flags from every cell
    u, over F_2, F_3, F_10007 and Q, with the zero covector, a fiber
    covector of u's cell and a random Springer covector g c g^-1."""
    rng = random.Random(41)
    for field in (FieldSpec.prime(2), FieldSpec.prime(3), F, Q):
        for n in (1, 2, 3, 4):
            ws = [w for w in all_permutations(n) if is_covexillary(w)]
            for u in all_permutations(n):
                g = cell_generator(u, field, rng)
                flag, fiber = conormal_fiber_flag(g, u)
                springer = g @ random_upper(field, n, rng, True) @ flag.inverse
                zs = [ExactMatrix.zeros(field, n, n), springer]
                if fiber.dim:
                    zs.append(vector_to_matrix(field, fiber.vectors[-1], n))
                for z in zs:
                    pt = SpringerFlagPoint(flag, z)
                    for w in ws:
                        expected = reference_flag_violations(pt, w)
                        assert diagnostic_tuples(conormal_flag_violations(pt, w)) == expected
                        first = conormal_flag_violations(pt, w, first_only=True)
                        assert diagnostic_tuples(first) == expected[:1]
                        assert in_conormal_flag(pt, w) == (not expected)


def test_flag_predicate_errors_keep_their_order():
    flag = Flag(ExactMatrix.identity(F, 4))
    pt = SpringerFlagPoint(flag, ExactMatrix.zeros(F, 4, 4))
    with pytest.raises(NotCovexillaryError):
        conormal_flag_violations(pt, PartialPermutation.from_one_line("34512"))
    with pytest.raises(DimensionMismatchError, match="flag size differs"):
        conormal_flag_violations(pt, PartialPermutation.from_one_line("21"))
    with pytest.raises(InputError, match="requires a permutation"):
        conormal_flag_violations(pt, PartialPermutation.from_one_line("0 1 3 0"))


def reference_invariant_failure(flag, z):
    """The first i with z F_i outside F_{i-1}, by subspace containment, or None."""
    spaces = flag_subspaces(flag)
    for i in range(1, flag.n + 1):
        if not spaces[i - 1].contains(spaces[i].apply(z)):
            return i
    return None


def invariant_failure(flag, z):
    """The i named by SpringerFlagPoint's InvariantError, or None if it builds."""
    try:
        SpringerFlagPoint(flag, z)
    except InvariantError as err:
        message = str(err)
        i = int(message.split()[1][2:])
        assert message == f"z F_{i} is not contained in F_{i - 1}"
        return i
    return None


def test_springer_flag_invariant_matches_containment_exhaustively():
    """Every invertible g and every z for n <= 2 over F_2 and F_3."""
    for field in (FieldSpec.prime(2), FieldSpec.prime(3)):
        for n in (1, 2):
            matrices = all_matrices(field, n)
            for g in matrices:
                if g.rank() < n:
                    continue
                flag = Flag(g)
                for z in matrices:
                    assert invariant_failure(flag, z) == reference_invariant_failure(flag, z)


def test_springer_flag_invariant_matches_containment_on_samples():
    """Seeded g for n = 3, 4 over F_2, F_3 and F_10007, with a random z, a
    Springer z, and a Springer z with one entry added on or below the
    diagonal of g^-1 z g so that the failure moves through every i."""
    rng = random.Random(43)
    for field in (FieldSpec.prime(2), FieldSpec.prime(3), F):
        for n in (3, 4):
            for _ in range(30):
                g = random_matrix(field, n, n, rng)
                if g.rank() < n:
                    continue
                flag = Flag(g)
                upper = random_upper(field, n, rng, True)
                col = rng.randrange(n)
                bump = [[0] * n for _ in range(n)]
                bump[rng.randrange(col, n)][col] = rng.randrange(1, field.p)
                bumped = upper + ExactMatrix.from_rows(field, bump)
                not_springer = g @ bumped @ flag.inverse
                for z in (random_matrix(field, n, n, rng), g @ upper @ flag.inverse, not_springer):
                    assert invariant_failure(flag, z) == reference_invariant_failure(flag, z)
                assert invariant_failure(flag, not_springer) is not None


def test_springer_flag_point_with_a_singular_generator_raises():
    singular = Flag(ExactMatrix.from_rows(F, [[1, 2], [2, 4]]))
    with pytest.raises(SingularMatrixError):
        SpringerFlagPoint(singular, ExactMatrix.zeros(F, 2, 2))


def test_push_iota():
    rng = random.Random(7)
    ident = ExactMatrix.identity(F, 3)
    y = random_matrix(F, 3, 3, rng)
    assert push_iota(ident, y) == CotangentMatrixPoint(ident, y)
    g = sample_cell_point(PartialPermutation.longest(3), F, rng)
    assert push_iota(g, ExactMatrix.zeros(F, 3, 3)).y.is_zero()
    point = push_iota(g, y)
    assert point.y @ g == y


def push_graph(pt: CotangentMatrixPoint) -> tuple[ExactMatrix, ExactMatrix]:
    """Cotangent transport along the graph embedding, the oracle of the chase.

    Returns the pair (h1(x), theta(y)) with h1(x) = ((I, 0), (x, I)) and
    theta(y) = ((0, y), (0, 0)), both of size 2n.
    """
    n = pt.n
    field = pt.x.field
    ident = ExactMatrix.identity(field, n)
    zero = ExactMatrix.zeros(field, n, n)
    h1 = ident.hstack(zero).vstack(pt.x.hstack(ident))
    theta = zero.hstack(pt.y).vstack(zero.hstack(zero))
    return h1, theta


def springer_grass(g: ExactMatrix, u: ExactMatrix, d: int) -> SpringerGrassPoint:
    """Springer coordinates on T*Gr(d, N): (g, u) -> (g E_d, g u g^-1)."""
    V = Subspace.span(g.field, g.rows, [g.column(j) for j in range(1, d + 1)])
    return SpringerGrassPoint(V, g @ u @ g.inverse())


def test_push_graph():
    rng = random.Random(8)
    n = 3
    zero = ExactMatrix.zeros(F, n, n)
    h1, theta = push_graph(CotangentMatrixPoint(zero, zero))
    assert h1 == ExactMatrix.identity(F, 2 * n)
    assert theta.is_zero()
    x = random_matrix(F, n, n, rng)
    y = random_matrix(F, n, n, rng)
    h1, theta = push_graph(CotangentMatrixPoint(x, y))
    assert h1.submatrix(range(n + 1, 2 * n + 1), range(1, n + 1)) == x
    assert theta.submatrix(range(1, n + 1), range(n + 1, 2 * n + 1)) == y


def test_springer_consistency_identity():
    # conjugating the transported covector reproduces the signed block matrix
    rng = random.Random(9)
    for wstr in ("2143", "1234", "4321"):
        w = PartialPermutation.from_one_line(wstr)
        data = covexillary_data(w)
        tau_mat = tau_permutation(data).matrix(F)
        x = random_matrix(F, 4, 4, rng)
        y = random_matrix(F, 4, 4, rng)
        h1, theta = push_graph(CotangentMatrixPoint(x, y))
        point = springer_grass(tau_mat @ h1, theta, 4)
        yx, xy = y @ x, x @ y
        signed = (-yx).hstack(y).vstack((-(x @ yx)).hstack(xy))
        assert point.x == tau_mat @ signed @ tau_mat.inverse()
        assert point.V == embed_point(x, data)
        assert (point.x @ point.x).is_zero()


def test_chase_equals_the_springer_coordinates_of_the_pushed_graph():
    """_chase_to_grass places h1 theta h1^-1 by tau and spans embed_point(x);
    the generic route inverts tau h1 and spans its first n columns."""
    rng = random.Random(30)
    cases = [w for n in (1, 2, 3, 4) for w in all_partial_permutations(n) if is_covexillary(w)]
    assert len(cases) == 225
    for field in (F, FieldSpec.prime(2), Q):
        for w in cases:
            tau_mat = tau_permutation(covexillary_data(w)).matrix(field)
            if field.is_prime:
                x, y = random_matrix(field, w.n, w.n, rng), random_matrix(field, w.n, w.n, rng)
            else:
                x, y = rational_matrix(rng, w.n), rational_matrix(rng, w.n)
            h1, theta = push_graph(CotangentMatrixPoint(x, y))
            assert _chase_to_grass(w, x, y) == springer_grass(tau_mat @ h1, theta, w.n)


def test_springer_forms():
    rng = random.Random(10)
    n = 3
    g = sample_cell_point(PartialPermutation.longest(n), F, rng)
    zero = ExactMatrix.zeros(F, 2 * n, 2 * n)
    point = springer_grass(g.hstack(ExactMatrix.zeros(F, n, n)).vstack(
        ExactMatrix.zeros(F, n, n).hstack(ExactMatrix.identity(F, n))
    ), zero, n)
    assert point.x.is_zero()
    # g = I with a strictly-upper-block nilpotent: V = E_n, x = u
    u = ExactMatrix.zeros(F, n, n).hstack(random_matrix(F, n, n, rng)).vstack(
        ExactMatrix.zeros(F, n, 2 * n)
    )
    point = springer_grass(ExactMatrix.identity(F, 2 * n), u, n)
    assert point.x == u
    for _ in range(20):
        gg = random_matrix(F, 2 * n, 2 * n, rng)
        if gg.rank() < 2 * n:
            continue
        point = springer_grass(gg, u, n)
        assert (point.x @ point.x).is_zero()
    y = ExactMatrix.from_rows(F, [[0, 1, 2], [0, 0, 3], [0, 0, 0]])
    flag_point = springer_flag(sample_cell_point(PartialPermutation.longest(n), F, rng), y)
    assert isinstance(flag_point, SpringerFlagPoint)


def test_rejection_power_sample():
    rng = random.Random(11)
    w = PartialPermutation.from_one_line("2143")
    x = sample_cell_point(w, F, rng)
    rejected = sum(
        1
        for _ in range(60)
        if not in_conormal_matrix(CotangentMatrixPoint(x, random_matrix(F, 4, 4, rng)), w)
    )
    assert rejected >= 57
