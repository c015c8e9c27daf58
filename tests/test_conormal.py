"""Conormal predicates against the trace-pairing fiber oracles."""

import random
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from operator import mul, ne

import pytest

from covex.conormal import (
    CotangentMatrixPoint,
    SpringerFlagPoint,
    SpringerGrassPoint,
    conormal_fiber_flag,
    conormal_fiber_matrix,
    conormal_flag_violations,
    conormal_grass_violations,
    conormal_matrix_violations,
    _core_plan,
    _grass_plan,
    core_pivots,
    vector_rows,
)
from covex.embedding import embed_point, fixed_point_index, tau_permutation
from covex.errors import (
    CellMembershipError,
    DimensionMismatchError,
    FieldError,
    InputError,
    InvariantError,
    NotCovexillaryError,
    SingularMatrixError,
)
from covex.exactla import (
    ExactMatrix,
    FieldSpec,
    Subspace,
    _draws,
    _residues,
    _southwest_profile,
    coordinate_subspace,
    random_borel,
)
from covex.permcore import (
    CovexillaryData,
    PartialPermutation,
    all_partial_permutations,
    all_permutations,
    bruhat_leq,
    conormal_bounds,
    covexillary_data,
    diagram,
    is_covexillary,
    random_partial_permutation,
    rank_matrix,
)
from covex.suites import (
    SuiteConfig,
    _chase_to_grass,
    _fiber_elements,
    _grass_fixed_point,
    _off_fiber_rejection,
    run_suite,
)
from covex.varieties import (
    Flag,
    grass_condition_checks,
    locate_grass_cell,
    matrix_schubert_violation,
    sample_cell_point,
    southwest_profile,
)
from oracles import (
    blocks,
    chase_to_grass,
    in_conormal_flag,
    in_conormal_grass,
    in_conormal_matrix,
    is_zero,
    kernel,
    length,
    matrix_negation,
    matrix_sum,
    random_matrix,
    submatrix,
    subspace_sum,
)
from scale import sized
from test_exactla import dim_quotient, standard_subspace, subspace_intersect
from test_varieties import sample_flag

F = FieldSpec.prime()
Q = FieldSpec.rational()


@pytest.mark.parametrize(
    "left, right", [(FieldSpec.prime(3), FieldSpec.prime(5)), (F, Q), (Q, FieldSpec.prime(3))]
)
def test_points_refuse_parts_over_different_fields(left, right):
    """A cotangent or Springer point gets no verdict when its parts mix fields."""
    zero = ExactMatrix.zeros(right, 2, 2)
    with pytest.raises(FieldError, match="different fields"):
        CotangentMatrixPoint(ExactMatrix.identity(left, 2), zero)
    with pytest.raises(FieldError, match="different fields"):
        SpringerFlagPoint(Flag(ExactMatrix.identity(left, 2)), zero)
    with pytest.raises(FieldError, match="different fields"):
        SpringerGrassPoint(coordinate_subspace(left, 2, [1]), zero)


def unit_matrix(n, i, j):
    rows = [[0] * n for _ in range(n)]
    rows[i - 1][j - 1] = 1
    return ExactMatrix.from_rows(F, rows)


def fiber_matrices(fiber, n):
    return [ExactMatrix(F, vector_rows(v, n)) for v in fiber.vectors]


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
    return blocks([[yx, y], [xyx, xy]])


def mij_rows_cols(data, i, j):
    """The explicit index sets of M_ij: rows {q_j+1..n, n+p_j+1..2n},
    columns {1..q_i, n+1..n+p_i}."""
    n, (pj, qj, _), (pi, qi, _) = data.n, data.chain[j], data.chain[i]
    rows = list(range(qj + 1, n + 1)) + list(range(n + pj + 1, 2 * n + 1))
    cols = list(range(1, qi + 1)) + list(range(n + 1, n + pi + 1))
    return rows, cols


def submatrix_mij(m, data, i, j):
    if not 0 <= j < i <= data.m:
        raise IndexError(f"pair ({i},{j}) outside 0 <= j < i <= m")
    rows, cols = mij_rows_cols(data, i, j)
    return submatrix(m, rows, cols)


def mij_ranks(m, data):
    """Reference: rank M_ij for every pair 0 <= j < i <= m, read off the
    southwest profile of big_matrix_M conjugated by an explicit submatrix."""
    order = tau_permutation(data).inverse().image
    profile = southwest_profile(submatrix(m, order, order))
    t = [p + q for p, q, _ in data.chain]
    return {
        (i, j): profile[t[j]][t[i] - 1]
        for i in range(1, data.m + 1)
        for j in range(i)
    }


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


def springer_flag(g, y):
    """Springer coordinates on T*Fl: (g, y) -> (g E_bullet, g y g^-1)."""
    flag = Flag(g)
    return SpringerFlagPoint(flag, g @ y @ flag.inverse)


def test_big_matrix_fixtures():
    n = 3
    x = ExactMatrix.identity(F, n)
    y = random_matrix(F, n, n, random.Random(0))
    m = big_matrix_M(CotangentMatrixPoint(x, y))
    for bi in range(2):
        for bj in range(2):
            assert submatrix(
                m, range(bi * n + 1, bi * n + n + 1), range(bj * n + 1, bj * n + n + 1)
            ) == y
    zero = ExactMatrix.zeros(F, n, n)
    assert is_zero(big_matrix_M(CotangentMatrixPoint(x, zero)))


def test_big_matrix_support_for_2143():
    w = PartialPermutation.from_one_line("2143")
    y = matrix_sum(unit_matrix(4, 1, 3), unit_matrix(4, 2, 4))
    m = big_matrix_M(CotangentMatrixPoint(w.matrix(F), y))
    support_rows = {1, 2, 5, 6}
    support_cols = {3, 4, 7, 8}
    for i in range(1, 9):
        for j in range(1, 9):
            if m.entries[i - 1][j - 1]:
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
    assert sub == submatrix(m, range(1, 9), [1, 2, 5, 6])
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
    over F_p, a fiber covector; over Q also an x and a y with Fraction
    entries."""
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
            points.append((cell, ExactMatrix(field, vector_rows(fiber.vectors[-1], n))))
    else:
        points.append((rational_matrix(rng, n), random_y()))
    return points


def core_matrix(pt, rows, cols):
    """Reference: the whole n x n core N = H y G of M = [I; x] y [x, I] on the
    pivots of core_pivots, built column by column, as the predicate never does.

    A unit row of H picks a row of y and a unit column of G picks a column
    of H y; only the rows and columns of x cost a dot product.
    """
    field = pt.x.field
    n = pt.x.rows
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
    table = bound_table(data)
    assert list(data.conormal_checks) == [(i, j, table.bound(i, j)) for i, j in table.pairs()]
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
        assert conormal_matrix_violations(x, w, [y.entries]) == [expected]
        assert in_conormal_matrix(pt, w) == (not expected)


# the largest prime below MAX_PRIME_MODULUS: the widest lanes of the packed core
TOP = FieldSpec.prime(3_317_044_064_679_887_385_961_813)
CORE_FIELDS = (FieldSpec.prime(2), FieldSpec.prime(5), F, Q, TOP)
# CI extends the sweep below to every covexillary w with n = 5, and over
# F_TOP from n = 3 to n = 5.
CORE_N = sized(4, 5)
TOP_CORE_N = sized(3, 5)


def test_core_ranks_match_big_matrix_for_n_up_to_4():
    """The n x n core gives every rank M_ij of big_matrix_M, and the
    diagnostics and the verdict, for every covexillary partial w with
    n <= 4 (n <= 5 in CI), over F_2, F_5, F_10007 and Q, and n <= 3 (n <= 5
    in CI) over F_TOP, and the checks of covexillary_data against the
    bound table."""
    rng = random.Random(31)
    for field in CORE_FIELDS:
        for n in range(1, (TOP_CORE_N if field == TOP else CORE_N) + 1):
            for w in all_partial_permutations(n):
                if is_covexillary(w):
                    check_core_against_references(w, field, rng)


def test_core_plan_at_a_0_1_matrix_is_a_permutation():
    """At every 0/1 matrix u, the flat plan's n rows of H (as vectors of
    F^n) and its n columns of G are n distinct unit vectors, so its core
    H y G is y with rows and columns permuted.  Every covexillary w and
    every partial u with n <= 4: 39,422 pairs.  Over F_p the plan holds
    the rows of G packed; their lanes are the entries."""
    pairs = 0
    for n in (1, 2, 3, 4):
        units = ExactMatrix.identity(F, n).entries
        xs = [u.matrix(F) for u in all_partial_permutations(n)]
        for w in all_partial_permutations(n):
            if not is_covexillary(w):
                continue
            data = covexillary_data(w)
            for x in xs:
                _, B, H, G, _ = _core_plan(x, data)
                rows = [units[k] if x_row is None else tuple(x_row) for k, x_row in H]
                cols = list(zip(*(_residues([g], B, n, F.p) for g in G)))
                assert sorted(rows) == sorted(cols) == sorted(units), (w, x)
                pairs += 1
    assert pairs == 39_422


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


# CI takes the sweep below to n = 4.
WIDEST_LANES_N = sized(3, 4)


@pytest.mark.parametrize("p", [2, 3, 10007, TOP.p])
def test_core_ranks_at_the_widest_lanes(p):
    """x and y with entries p - 1 take the lanes of the packed core to their
    bound n^2 (p-1)^3 + n (p-1)^2: at x and y of all p - 1, or p - 1 on and
    above the antidiagonal, the diagnostics are those of big_matrix_M for
    every covexillary partial w with n <= 3 (n <= 4 in CI)."""
    field = FieldSpec.prime(p)
    for n in range(1, WIDEST_LANES_N + 1):
        full = ExactMatrix(field, ((p - 1,) * n,) * n)
        corner = ExactMatrix(
            field, tuple(tuple(p - 1 if a + b < n else 0 for b in range(n)) for a in range(n))
        )
        for w in all_partial_permutations(n):
            if not is_covexillary(w):
                continue
            for x, y in product((full, corner), repeat=2):
                pt = CotangentMatrixPoint(x, y)
                expected = diagnostics(x, w, mij_ranks(big_matrix_M(pt), covexillary_data(w)))
                assert conormal_matrix_violations(x, w, [y.entries]) == [expected], (w, x, y)


def shifted_by_multiples_of_p(a, rng):
    """a + pK as a raw ExactMatrix, entries not reduced: K is a random
    integer matrix in -4..2 with at least one negative entry."""
    p = a.field.p
    K = [[rng.randint(-4, 2) for _ in row] for row in a.entries]
    K[rng.randrange(len(K))][0] = -rng.randint(1, 4)
    rows = tuple(tuple(v + p * k for v, k in zip(row, krow)) for row, krow in zip(a.entries, K))
    return ExactMatrix(a.field, rows)


@pytest.mark.parametrize("field", [FieldSpec.prime(2), F, TOP], ids=str)
def test_covectors_congruent_mod_p_get_the_same_verdicts(field):
    """The matrix form reduces each row of x and of y before it packs it, so
    (x, y), (x, y + pK) and (x + pK', y + pK) give equal diagnostics, K and
    K' integer matrices with negative entries, at the points of core_points for every covexillary partial w
    with n <= 3; and so do z and z + pK in the flag form, at Springer points
    g U g^-1 (U strictly upper) over cell points g of every permutation u
    with n <= 3."""
    rng = random.Random(83)
    verdicts = set()
    for n in (1, 2, 3):
        for w in all_partial_permutations(n):
            if not is_covexillary(w):
                continue
            for x, y in core_points(w, field, rng):
                shifted_x, shifted = (shifted_by_multiples_of_p(a, rng) for a in (x, y))
                found = conormal_matrix_violations(x, w, [y.entries, shifted.entries])
                found += conormal_matrix_violations(shifted_x, w, [shifted.entries])
                assert found == [found[0]] * 3, (w, x, y, shifted_x, shifted)
                verdicts.add(("matrix", not found[0]))
            if not w.is_full_rank:
                continue
            for u in all_permutations(n):
                g = sample_cell_point(u, field, rng)
                upper = ExactMatrix.from_rows(
                    field,
                    [[rng.randrange(field.p) if b > a else 0 for b in range(n)] for a in range(n)],
                )
                z = g @ upper @ g.inverse()
                flag, shifted = Flag(g), shifted_by_multiples_of_p(z, rng)
                points = [SpringerFlagPoint(flag, z), SpringerFlagPoint(flag, shifted)]
                found = conormal_flag_violations(flag, w, points)
                assert found[0] == found[1], (w, g, z, shifted)
                verdicts.add(("flag", not found[0]))
    assert verdicts == {("matrix", True), ("matrix", False), ("flag", True), ("flag", False)}


def integer_cell_point(w, field, rng):
    """b_l w b_r for upper triangular b_l, b_r with small integer entries and
    a nonzero diagonal: a point of the open orbit of w over any field."""
    n = w.n

    def upper():
        return ExactMatrix.from_rows(
            field,
            [
                [rng.choice((-2, -1, 1, 2)) if b == a else rng.randint(-2, 2) if b > a else 0
                 for b in range(n)]
                for a in range(n)
            ],
        )

    return upper() @ w.matrix(field) @ upper()


def fiber_combinations(fiber, field, n, rng, count):
    """The zero covector and count combinations of the fiber's basis with
    small integer coefficients."""
    points = [ExactMatrix.zeros(field, n, n)]
    for _ in range(count if fiber.dim else 0):
        coeffs = [rng.randint(-3, 3) for _ in fiber.vectors]
        flat = [sum(map(mul, coeffs, col)) for col in zip(*fiber.vectors)]
        points.append(ExactMatrix.from_rows(field, [flat[a * n : (a + 1) * n] for a in range(n)]))
    return points


def check_matrix_batches(field, n_max, rng):
    """conormal_matrix_violations on one batch per point against its batches
    of one and against the rank-by-pair diagnostics, at a cell point x of
    every covexillary partial w with n <= n_max: uniform covectors, of
    which few may be members, and fiber covectors, all of which must be.
    At the 0/1 matrix of the longest element, wherever it breaks a
    Schubert condition of w, every list opens with that Schubert
    diagnostic."""
    tally = defaultdict(lambda: [0, 0])
    for n in range(1, n_max + 1):
        far = PartialPermutation.longest(n).matrix(field)
        for w in all_partial_permutations(n):
            if not is_covexillary(w):
                continue
            data = covexillary_data(w)
            x = sample_cell_point(w, field, rng) if field.is_prime else integer_cell_point(w, field, rng)
            kinds = {
                "uniform": [random_matrix_over(field, n, rng) for _ in range(3)],
                "fiber": fiber_combinations(conormal_fiber_matrix(x, w), field, n, rng, 3),
            }
            for kind, ys in kinds.items():
                found = conormal_matrix_violations(x, w, [y.entries for y in ys])
                assert found == [conormal_matrix_violations(x, w, [y.entries])[0] for y in ys]
                expected = [
                    diagnostics(x, w, mij_ranks(big_matrix_M(CotangentMatrixPoint(x, y)), data))
                    for y in ys
                ]
                assert found == expected, (w, kind)
                tally[kind][0] += found.count([])
                tally[kind][1] += len(ys)
            base = matrix_schubert_violation(far, w)
            if base is not None:
                found = conormal_matrix_violations(far, w, [y.entries for y in kinds["fiber"]])
                assert [f[0] for f in found] == [{"kind": "schubert", "condition": base}] * len(found)
    accepted, total = tally["fiber"]
    assert accepted == total
    accepted, total = tally["uniform"]
    assert 0 < accepted < total / 10, tally


@pytest.mark.parametrize("field", [FieldSpec.prime(101), Q], ids=str)
def test_members_agree_with_the_full_elimination(field):
    """A batch of covectors over one x gets, point by point, the diagnostics
    of its batches of one and of the full elimination, rank M_ij by pair of
    the big matrix M, on uniform and fiber
    covectors over F_101 and Q; every fiber covector is accepted and few
    uniform ones are."""
    check_matrix_batches(field, 4, random.Random(43))


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


def reference_matrix_fiber(x):
    """Oracle: {y : xy and yx strictly upper triangular} as the kernel of its
    trace-pairing system, n(n+1) equations in the n^2 entries of y."""
    n, xs = x.rows, x.entries
    rows = []
    for a in range(n):
        for b in range(a + 1):  # entries on or below the diagonal must vanish
            row = [0] * (n * n)
            row[b::n] = xs[a]  # (xy)_{ab} = sum_k x_{ak} y_{kb}
            rows.append(tuple(row))
            row = [0] * (n * n)
            row[a * n : (a + 1) * n] = [xs[k][b] for k in range(n)]  # (yx)_{ab}
            rows.append(tuple(row))
    return kernel(ExactMatrix(x.field, tuple(rows)))


# CI checks the transported fibers at n = 5 too (1,546 partial w).
FIBER_ORACLE_N = sized(4, 5)


def test_transported_fibers_equal_the_linear_system():
    """conormal_fiber_matrix moves the coordinate fiber N_w at w's 0/1 matrix
    to x = P^-1 w Q^-1 as Q N_w P, and solves nothing.  It equals the
    trace-pairing kernel, basis for basis, at a sampled cell point and at
    the 0/1 matrix of every partial w with n <= 4 over F_2, F_3 and
    F_10007, and at a cell point with fractions over Q for n <= 3.  CI
    takes the F_p sweep to n = 5.  test_flag_fiber_matches_the_linear_system
    pins the flag form."""
    rng = random.Random(97)
    points = 0
    for field in (FieldSpec.prime(2), FieldSpec.prime(3), F):
        for n in range(1, FIBER_ORACLE_N + 1):
            for w in all_partial_permutations(n):
                for x in (sample_cell_point(w, field, rng), w.matrix(field)):
                    assert conormal_fiber_matrix(x, w) == reference_matrix_fiber(x), (w, x)
                    points += 1
    for n in (1, 2, 3):
        for w in all_partial_permutations(n):
            x = cell_generator(w, Q, rng)
            assert conormal_fiber_matrix(x, w) == reference_matrix_fiber(x), (w, x)
    assert points == 3 * 2 * {4: 252, 5: 1798}[FIBER_ORACLE_N]


def tangent_orbit_rank(x: ExactMatrix) -> int:
    """Rank of (u, v) -> u x + x v on pairs of upper-triangular matrices.

    This is the dimension of the B x B orbit through x, computed from the
    orbit's tangent map rather than from the trace-pairing system of
    reference_matrix_fiber or the transport of conormal_fiber_matrix.
    """
    n = x.rows
    xs = x.entries
    cols = []
    for a in range(n):
        for b in range(a, n):
            col = [0] * (n * n)
            col[a * n : (a + 1) * n] = xs[b]  # (E_{ab} x)_{aj} = x_{bj}
            cols.append(tuple(col))
            col = [0] * (n * n)
            col[b :: n] = [row[a] for row in xs]  # (x E_{ab})_{ib} = x_{ia}
            cols.append(tuple(col))
    return ExactMatrix(x.field, tuple(zip(*cols))).rank()


def test_fiber_dimension_equals_orbit_corank():
    """The conormal fiber has dimension |D(w)|, the codimension of the orbit
    of w (Fulton 1992), which conormal-matrix and conormal-flag check
    against; the tangent map of the orbit gives the same number, at a
    sampled cell point and at w's 0/1 matrix, for every partial w with
    n <= 4, covexillary or not, over F_2 and F_10007."""
    rng = random.Random(3)
    points = 0
    for field in (FieldSpec.prime(2), F):
        for n in (1, 2, 3, 4):
            for w in all_partial_permutations(n):
                expected = len(diagram(w))
                for x in (sample_cell_point(w, field, rng), w.matrix(field)):
                    fiber = conormal_fiber_matrix(x, w)
                    assert fiber.dim == expected == n * n - tangent_orbit_rank(x)
                    points += 1
    assert points == 2 * 2 * 252


@pytest.mark.parametrize("p", [10007, 3])
def test_matrix_conormal_verdicts_are_borel_equivariant(p):
    """The criterion is stable under (x, y) -> (b_l x b_r, b_r^-1 y b_l^-1),
    so a verdict at u's 0/1 matrix holds on all of O_u.  At a sampled cell
    point x of every covexillary partial w with n <= 4, with sampled upper
    triangular b_l and b_r, the verdicts on the fiber basis and on uniform
    covectors stay; the wrong action y -> b_l^-1 y b_r^-1 changes some."""
    field = FieldSpec.prime(p)
    rng = random.Random(p)
    covectors = changed = 0
    for n in (1, 2, 3, 4):
        for w in all_partial_permutations(n):
            if not is_covexillary(w):
                continue
            x = sample_cell_point(w, field, rng)
            b_l, b_r = random_borel(field, n, rng), random_borel(field, n, rng)
            l_inv, r_inv = b_l.inverse(), b_r.inverse()
            fiber = conormal_fiber_matrix(x, w)
            ys = [ExactMatrix(field, vector_rows(v, n)) for v in fiber.vectors]
            ys += [random_matrix(field, n, n, rng) for _ in range(2)]
            def members(x, ys):
                return [not found for found in conormal_matrix_violations(x, w, ys)]

            verdicts = members(x, [y.entries for y in ys])
            moved = b_l @ x @ b_r
            right = members(moved, [(r_inv @ y @ l_inv).entries for y in ys])
            wrong = members(moved, [(l_inv @ y @ r_inv).entries for y in ys])
            assert right == verdicts, (w, x, b_l, b_r)
            covectors += len(ys)
            changed += sum(map(ne, wrong, verdicts))
    assert covectors == 1888  # |D(w)| fiber basis vectors plus two uniform covectors per w
    assert changed > 0


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
    return ExactMatrix(field, vector_rows(flat, n))


def chase_batch(data, V, x, ys):
    """The chase of the matrices ys at x: the suites' packed chase over F_p,
    and over Q, where no suite runs, the list-based chase of the oracles."""
    rows = [y.entries for y in ys]
    if x.field.is_prime:
        return _chase_to_grass(data, V, x, rows)
    return chase_to_grass(data, x, rows)


def chase(w, x, y):
    """The Springer point of the chase at (x, y), a batch of one, with
    V = embed_point(x) as the suite passes it."""
    data = covexillary_data(w)
    V = embed_point(x, data)
    return SpringerGrassPoint(V, chase_batch(data, V, x, [y])[0])


def chased_accepts(w, x, y):
    """The Grassmannian criterion at the cotangent chase of (x, y)."""
    conditions = covexillary_data(w).grass_conditions
    return in_conormal_grass(chase(w, x, y), conditions)


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


# CI adds n = 3 over F_2 (197,120 points).
@pytest.mark.parametrize("p, n_max", [(2, sized(2, 3)), (3, 2)], ids=["F2", "F3"])
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
            unsigned = blocks([[yx, y], [x @ yx, xy]])
            signed = blocks([[matrix_negation(yx), y], [matrix_negation(x @ yx), xy]])
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


def springer_fiber_sample(V: Subspace, field: FieldSpec, rng: random.Random) -> ExactMatrix:
    """Uniform x with Im(x) in V and V in ker(x): x = B A P for random A.

    B holds V's reduced echelon basis b_k as columns and P maps F^N onto the
    coordinates along the non-pivot unit vectors e_c, modulo V.  Each b_k
    is 1 at its own pivot and 0 at the others, so row c of P is e_c minus
    b_k[c] at the pivot of each b_k.  When V is 0 or F^N the only such x is 0.
    """
    N, d = V.ambient, V.dim
    if d in (0, N):
        return ExactMatrix.zeros(field, N, N)
    p = field.p
    projector = []
    for c in range(N):
        if c not in V.pivots:
            row = [0] * N
            row[c] = 1
            for k, b in zip(V.pivots, V.vectors):
                row[k] = -b[c] % p
            projector.append(tuple(row))
    coeffs = random_matrix(field, d, N - d, rng)
    return V.basis_matrix @ coeffs @ ExactMatrix(field, tuple(projector))


def test_grass_verdict_is_the_empty_violation_list():
    """in_conormal_grass, which stops at the first violation, agrees with the
    full list of conormal_grass_violations at zero-section points over every
    cell, chased fiber and random covectors, and random Springer points, for
    every covexillary partial w with n <= 3 over F_3."""
    field = FieldSpec.prime(3)
    rng = random.Random(67)
    verdicts = set()
    for n in (1, 2, 3):
        for w in all_partial_permutations(n):
            if not is_covexillary(w):
                continue
            data = covexillary_data(w)
            conditions = data.grass_conditions
            points = []
            for u in all_partial_permutations(n):
                V = embed_point(sample_cell_point(u, field, rng), data)
                points.append(SpringerGrassPoint(V, ExactMatrix.zeros(field, 2 * n, 2 * n)))
                points.append(SpringerGrassPoint(V, springer_fiber_sample(V, field, rng)))
            x = sample_cell_point(w, field, rng)
            fiber = conormal_fiber_matrix(x, w)
            ys = [ExactMatrix(field, vector_rows(v, n)) for v in fiber.vectors]
            ys += [random_matrix(field, n, n, rng) for _ in range(3)]
            points += [chase(w, x, y) for y in ys]
            for pt in points:
                [violations] = conormal_grass_violations(pt.V, conditions, [pt])
                assert in_conormal_grass(pt, conditions) == (not violations)
                kinds = [v["kind"] for v in violations]
                assert kinds == sorted(kinds, key=("schubert", "rank").index)
                verdicts.add(tuple(dict.fromkeys(kinds)))
    assert verdicts == {(), ("rank",), ("schubert",), ("schubert", "rank")}


def test_grass_conormal_rejects_positions_outside_the_ambient():
    point = SpringerGrassPoint(coordinate_subspace(F, 4, [1, 3]), ExactMatrix.zeros(F, 4, 4))
    for conditions in ([(5, 1)], [(-1, 0)]):
        with pytest.raises(DimensionMismatchError):
            in_conormal_grass(point, conditions)


def test_springer_fiber_sample_at_zero_and_the_whole_space_is_the_zero_matrix():
    """Im(x) in V in ker(x) leaves only x = 0 when V is 0 or F^N; the sampler
    returns that N x N matrix, a valid Springer point."""
    field = FieldSpec.prime(7)
    for N in (1, 4):
        for V in (coordinate_subspace(field, N, range(1, N + 1)), Subspace.zero(field, N)):
            x = springer_fiber_sample(V, field, random.Random(3))
            assert x.shape == (N, N) and is_zero(x)
            assert in_conormal_grass(SpringerGrassPoint(V, x), [])


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


def elimination_springer_check(V, x):
    """The message of the first containment of Im(x) in V in ker(x) that x
    breaks, or None, by elimination: span Im(x) and insert it into V, then
    span the image of V under x."""
    if not V.contains(Subspace.column_span(x)):
        return "Im(x) is not contained in V"
    if V.apply(x).dim != 0:
        return "V is not contained in ker(x)"
    return None


def springer_message(V, x):
    """The InvariantError message of SpringerGrassPoint(V, x), or None."""
    try:
        SpringerGrassPoint(V, x)
    except InvariantError as err:
        return str(err)
    return None


def springer_test_points(V, field, rng):
    """Matrices x to try at V: zero, Springer points, and points that break
    exactly one containment, or both.

    The rows e_c - sum_k b_k[c] e_(pivot k), c not a pivot, vanish on V (b_k
    is V's reduced echelon basis), and e_c is not in V.  So (e_c + v) phi,
    v in V and phi such a row, kills V but has its image outside V; b_k psi
    with psi = e_(pivot k) plus such rows has its image in V but does not
    kill b_k; and B A P (P the matrix of those rows) is a Springer point.
    """
    N, d = V.ambient, V.dim

    def scalar():
        return rng.randrange(field.p) if field.is_prime else Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    def outer(u, v):
        return ExactMatrix.from_rows(field, [[a * b for b in v] for a in u])

    def unit(c):
        return [int(k == c) for k in range(N)]

    def plus(u, v, c=1):
        return [a + c * b for a, b in zip(u, v)]

    def in_V():
        vec = [0] * N
        for b in V.vectors:
            vec = plus(vec, b, scalar())
        return vec

    free = [c for c in range(N) if c not in V.pivots]
    annihilator = []
    for c in free:
        row = unit(c)
        for k, b in zip(V.pivots, V.vectors):
            row[k] = -b[c]
        annihilator.append(row)
    points = [ExactMatrix.zeros(field, N, N), random_matrix_over(field, N, rng)]
    for _ in range(2):
        a = [[scalar() for _ in free] for _ in range(d)]
        x = [[0] * N for _ in range(N)]
        for k, b in enumerate(V.vectors):
            for f, phi in enumerate(annihilator):
                x = [plus(row, phi, b[i] * a[k][f]) for i, row in enumerate(x)]
        points.append(ExactMatrix.from_rows(field, x))
    for c in free:
        phi = annihilator[rng.randrange(len(annihilator))]
        points.append(outer(plus(unit(c), in_V()), phi))  # image leaves V only
        for k, b in zip(V.pivots, V.vectors):
            psi = unit(k)
            for row in annihilator:
                psi = plus(psi, row, scalar())
            points.append(outer(b, psi))  # V leaves ker(x) only
            points.append(outer(unit(c), unit(k)))  # both
    return points


def random_matrix_over(field, n, rng):
    return random_matrix(field, n, n, rng) if field.is_prime else rational_matrix(rng, n)


def test_springer_containments_are_two_products():
    """SpringerGrassPoint checks Im(x) in V in ker(x) with two products; it
    raises exactly what the elimination check finds first, over F_10007, F_3
    and Q, at V the image of a point of every covexillary partial w with
    n <= 3, at V = 0 and V = F^N; and over F_TOP, whose lanes are widest."""
    rng = random.Random(71)
    seen = defaultdict(int)
    for field in (F, FieldSpec.prime(3), Q, TOP):
        for n in (1, 2, 3):
            N = 2 * n
            spaces = [Subspace.zero(field, N), standard_subspace(field, N, N)]
            for w in all_partial_permutations(n):
                if is_covexillary(w):
                    x = sample_cell_point(w, field, rng) if field.is_prime else rational_matrix(rng, n)
                    spaces.append(embed_point(x, covexillary_data(w)))
            for V in spaces:
                for x in springer_test_points(V, field, rng):
                    expected = elimination_springer_check(V, x)
                    assert springer_message(V, x) == expected, (field, V, x)
                    seen[field, expected] += 1
    for field in (F, FieldSpec.prime(3), Q, TOP):
        for message in (None, "Im(x) is not contained in V", "V is not contained in ker(x)"):
            assert seen[field, message] >= 10, (field, message)


def test_springer_containments_read_x_mod_p():
    """ExactMatrix takes any ints, so x and x mod p get one verdict.  Over
    F_7, at V = span(e1 + e3, e2 + 2 e4), x = v w^T with v = (1, 0, 1, 0)
    and w = (6, 0, 1, 0) is a Springer point; each entry moved by k p,
    1 <= |k| <= 3, leaves the same point, where the packed containments
    once raised OverflowError or rejected Im(x) in V.  Two points that
    break one containment each, and a multiple of p over V = 0, keep their
    verdicts too."""
    F7 = FieldSpec.prime(7)
    V = Subspace.span(F7, 4, [(1, 0, 1, 0), (0, 1, 0, 2)])
    x = [[a * b for b in (6, 0, 1, 0)] for a in (1, 0, 1, 0)]
    off_V = [row.copy() for row in x]
    off_V[1][1] = 1
    off_ker = [[a * b for b in (1, 0, 0, 0)] for a in (1, 0, 1, 0)]
    conditions = ((2, 1),)
    matrix = lambda rows: ExactMatrix(F7, tuple(map(tuple, rows)))
    assert springer_message(Subspace.zero(F7, 4), matrix([[7, 0, 0, 0]] + [[0] * 4] * 3)) is None
    for rows in (x, off_V, off_ker):
        expected = springer_message(V, matrix(rows))
        for a, b, k in product(range(4), range(4), (-3, -2, -1, 1, 2, 3)):
            moved = [row.copy() for row in rows]
            moved[a][b] += k * 7
            assert springer_message(V, matrix(moved)) == expected, moved
            if expected is None:
                points = [SpringerGrassPoint(V, matrix(m)) for m in (moved, rows)]
                found = conormal_grass_violations(V, conditions, points)
                assert found[0] == found[1]
    assert springer_message(V, matrix(off_V)) == "Im(x) is not contained in V"
    assert springer_message(V, matrix(off_ker)) == "V is not contained in ker(x)"


def springer_points(V, field, rng):
    """Springer points (V, x) to check: springer_fiber_sample draws over
    F_p, and over Q the points of springer_test_points that satisfy both
    containments."""
    if field.is_prime:
        return [springer_fiber_sample(V, field, rng) for _ in range(3)]
    points = springer_test_points(V, field, rng)
    return [x for x in points if elimination_springer_check(V, x) is None]


@pytest.mark.parametrize("field", [FieldSpec.prime(101), Q], ids=str)
def test_grass_members_are_the_per_point_verdicts(field):
    """conormal_grass_violations(V, conditions, points) is, point by point,
    its batches of one, the whole-profile reference_grass_violations and the
    verdict of in_conormal_grass, for every covexillary partial w with
    n <= 3 over F_101 and Q: at the chased zero, fiber and uniform
    covectors over a cell point of w, at Springer points over its V, and
    at a V outside the target (the image of some u not below w), where
    every list opens with a Schubert diagnostic.  A batch that mixes two
    subspaces raises InputError."""
    rng = random.Random(79)
    seen = set()
    outside = 0
    for n in (1, 2, 3):
        partials = list(all_partial_permutations(n))
        for w in partials:
            if not is_covexillary(w):
                continue
            data = covexillary_data(w)
            conditions = data.grass_conditions
            x = sample_cell_point(w, field, rng) if field.is_prime else integer_cell_point(w, field, rng)
            V = embed_point(x, data)
            ys = fiber_combinations(conormal_fiber_matrix(x, w), field, n, rng, 3)
            ys += [random_matrix_over(field, n, rng) for _ in range(3)]
            batches = [(V, chase_batch(data, V, x, ys), None)]
            batches.append((V, springer_points(V, field, rng), None))
            far = next((u for u in partials if not bruhat_leq(u, w)), None)
            if far is not None:
                far_V = embed_point(far.matrix(field), data)
                zero = ExactMatrix.zeros(field, 2 * n, 2 * n)
                batches.append((far_V, [zero, *springer_points(far_V, field, rng)], False))
            for subspace, xs, only in batches:
                points = [SpringerGrassPoint(subspace, chased) for chased in xs]
                found = conormal_grass_violations(subspace, conditions, points)
                alone = [conormal_grass_violations(subspace, conditions, [pt])[0] for pt in points]
                assert found == alone, (w, subspace)
                assert found == [reference_grass_violations(pt, conditions) for pt in points]
                expected = [not f for f in found]
                assert [in_conormal_grass(pt, conditions) for pt in points] == expected
                if only is not None:
                    assert {f[0]["kind"] for f in found} == {"schubert"}
                    outside += len(xs)
                    mixed = [*points, SpringerGrassPoint(V, ExactMatrix.zeros(field, 2 * n, 2 * n))]
                    with pytest.raises(InputError, match="over V"):
                        conormal_grass_violations(subspace, conditions, mixed)
                seen.update(expected)
    assert seen == {True, False}
    assert outside >= 100


@pytest.mark.parametrize("field", [FieldSpec.prime(101), Q], ids=str)
def test_grass_members_check_both_containments_at_every_point(field):
    """A matrix that breaks either containment raises the InvariantError of
    SpringerGrassPoint, the message of the elimination, at a V in the target
    and at a V that breaks a Schubert condition, where the zero point gets
    a Schubert diagnostic: the point is refused before any batch reads
    it."""
    rng = random.Random(83)
    messages = defaultdict(int)
    for wstr in ("2143", "0 3 1 0", "1 0"):
        w = PartialPermutation.from_one_line(wstr)
        data = covexillary_data(w)
        x = sample_cell_point(w, field, rng) if field.is_prime else integer_cell_point(w, field, rng)
        far = embed_point(PartialPermutation.longest(w.n).matrix(field), data)
        zero = ExactMatrix.zeros(field, far.ambient, far.ambient)
        [found] = conormal_grass_violations(far, data.grass_conditions, [SpringerGrassPoint(far, zero)])
        assert found[0]["kind"] == "schubert"
        for V in (embed_point(x, data), far):
            for bad in springer_test_points(V, field, rng):
                expected = elimination_springer_check(V, bad)
                if expected is None:
                    continue
                assert springer_message(V, bad) == expected
                with pytest.raises(InvariantError) as err:
                    SpringerGrassPoint(V, bad)
                assert str(err.value) == expected
                messages[expected] += 1
    assert set(messages) == {"Im(x) is not contained in V", "V is not contained in ker(x)"}


def reference_grass_violations(pt, conditions):
    """conormal_grass_violations read off the whole southwest profile of x:
    each bound at rows t'_j+1..N and columns 1..t'_i of x itself, the
    empty blocks (t'_j = N or t'_i = 0) unread."""
    V, N = pt.V, pt.V.ambient
    out = [
        {"kind": "schubert", "condition": (t, total, bound)}
        for t, total, bound, ok in grass_condition_checks(V, conditions)
        if not ok
    ]
    profile = southwest_profile(pt.x)
    ts = [0, *(t for t, _ in conditions), N]
    for i, j, bound in conormal_bounds(conditions, N, V.dim):
        if ts[j] == N or ts[i] == 0:
            continue
        rank = profile[ts[j]][ts[i] - 1]
        if rank > bound:
            out.append({"kind": "rank", "i": i, "j": j, "rank": rank, "bound": bound})
    return out


GRASS_CELL_ORACLE_N = sized(3, 4)


@pytest.mark.parametrize(
    "field", [FieldSpec.prime(2), FieldSpec.prime(3), F, Q], ids=str
)
def test_grass_ranks_of_the_cell_rows_are_the_whole_profile(field):
    """At a Springer point (V, x), x = B x[S] for V's cell positions S, so
    each southwest rank of x is one of the d rows x[S]: the plan's cells
    are locate_grass_cell's positions, the profile of x[S] gives x's whole
    southwest profile at every (row, col), and conormal_grass_violations
    equals the reading of the whole profile.  Chased points over a cell
    point x of w, and Springer points over its V, over the V of a random u
    and over that of a u not below w, for every covexillary w with n <= 3
    (n <= 4 at CI scale)."""
    rng = random.Random(97)

    def cell_point(u):
        if field.is_prime:
            return sample_cell_point(u, field, rng)
        return integer_cell_point(u, field, rng)

    kinds = set()
    for n in range(1, GRASS_CELL_ORACLE_N + 1):
        partials = list(all_partial_permutations(n))
        for w in partials:
            if not is_covexillary(w):
                continue
            data = covexillary_data(w)
            conditions = data.grass_conditions
            x = cell_point(w)
            V = embed_point(x, data)
            ys = fiber_combinations(conormal_fiber_matrix(x, w), field, n, rng, 3)
            ys.append(random_matrix_over(field, n, rng))
            points = [SpringerGrassPoint(V, chase) for chase in chase_batch(data, V, x, ys)]
            others = [V, embed_point(cell_point(rng.choice(partials)), data)]
            far = next((u for u in partials if not bruhat_leq(u, w)), None)
            if far is not None:
                others.append(embed_point(cell_point(far), data))
            for other in others:
                points += [SpringerGrassPoint(other, s) for s in springer_points(other, field, rng)]
            for pt in points:
                N, rows = pt.V.ambient, pt.x.entries
                cells = tuple(s - 1 for s in locate_grass_cell(pt.V).positions)
                assert _grass_plan(pt.V, conditions)[1] == cells
                profile = _southwest_profile([rows[s] for s in cells], N, field.p)
                whole = southwest_profile(pt.x)
                for r in range(N):
                    below = sum(s < r for s in cells)
                    for c in range(N):
                        rank = profile[below][c] if below < len(cells) else 0
                        assert rank == whole[r][c], (w, pt, r, c)
                [violations] = conormal_grass_violations(pt.V, conditions, [pt])
                assert violations == reference_grass_violations(pt, conditions), (w, pt)
                kinds.update(v["kind"] for v in violations)
    assert kinds == {"schubert", "rank"}


def test_flag_members_are_the_per_point_verdicts():
    """conormal_flag_violations(flag, w, points) is, point by point, its
    batches of one and the subspace reference, for every covexillary w with
    n <= 3 over F_101 and Q, at flags from every cell u of S_n, with the
    zero covector, the flag fiber of u's cell and random Springer
    covectors g U g^-1 (U strictly upper).  At a flag outside the Schubert
    variety of w every list opens with the Schubert diagnostic, and a
    batch that mixes two flags raises InputError."""
    rng = random.Random(89)
    seen = set()
    outside = 0
    for field in (FieldSpec.prime(101), Q):
        for n in (1, 2, 3):
            ws = [w for w in all_permutations(n) if is_covexillary(w)]
            for u in all_permutations(n):
                g = cell_generator(u, field, rng)
                flag, fiber = conormal_fiber_flag(g, u)
                zs = [ExactMatrix.zeros(field, n, n)]
                zs += [ExactMatrix(field, vector_rows(v, n)) for v in fiber.vectors]
                zs += [g @ random_upper(field, n, rng, True) @ flag.inverse for _ in range(3)]
                points = [SpringerFlagPoint(flag, z) for z in zs]
                for w in ws:
                    found = conormal_flag_violations(flag, w, points)
                    alone = [conormal_flag_violations(flag, w, [pt])[0] for pt in points]
                    assert found == alone, (w, u)
                    expected = [reference_flag_violations(pt, w) for pt in points]
                    assert [diagnostic_tuples(f) for f in found] == expected, (w, u)
                    if expected[0] and expected[0][0][0] == "schubert":
                        assert {f[0]["kind"] for f in found} == {"schubert"}
                        outside += 1
                    seen.update(not f for f in found)
                if n > 1:  # F_1 moves from g e_1 to g e_2
                    swap = PartialPermutation.from_one_line(" ".join(map(str, [2, 1, *range(3, n + 1)])))
                    other = SpringerFlagPoint(Flag(g @ swap.matrix(field)), zs[0])
                    with pytest.raises(InputError, match="over the flag"):
                        conormal_flag_violations(flag, ws[0], [*points, other])
    assert seen == {True, False}
    assert outside > 0


def test_flag_conormal_fixtures():
    rng = random.Random(6)
    for n in (2, 3):
        for w in all_permutations(n):
            if not is_covexillary(w):
                continue
            g = sample_cell_point(w, F, rng)
            flag, fiber = conormal_fiber_flag(g, w)
            assert fiber.dim == n * (n - 1) // 2 - length(w)
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
        assert fiber.dim == 3 - length(w)
    with pytest.raises(CellMembershipError):
        conormal_fiber_flag(ExactMatrix.identity(F, 3), PartialPermutation.longest(3))


def test_flag_fiber_refuses_partial_permutations_and_singular_generators():
    singular = ExactMatrix.from_rows(F, [[0, 0], [1, 0]])
    for g, w in ((ExactMatrix.zeros(F, 2, 2), "0 0"), (singular, "2 0")):
        with pytest.raises(InputError, match="requires a permutation"):
            conormal_fiber_flag(g, PartialPermutation.from_one_line(w))
    # for a permutation w the open cell has rank n, so no singular g lies in it
    for w in all_permutations(2):
        with pytest.raises(CellMembershipError):
            conormal_fiber_flag(singular, w)


def reference_flag_fiber(g):
    """Oracle: {z : z and g^-1 z g strictly upper} as the kernel of its
    n^2 x n^2 linear system in the entries of z."""
    field, n = g.field, g.rows
    ginv, gs = g.inverse().entries, g.entries
    rows = []
    for a in range(1, n + 1):
        for b in range(1, a + 1):
            row = [0] * (n * n)
            row[(a - 1) * n + (b - 1)] = 1  # z_{ab} = 0
            rows.append(row)
            row = [0] * (n * n)
            for k in range(1, n + 1):
                for l in range(1, n + 1):  # (g^-1 z g)_{ab}
                    row[(k - 1) * n + (l - 1)] += ginv[a - 1][k - 1] * gs[l - 1][b - 1]
            rows.append(row)
    return kernel(ExactMatrix.from_rows(field, rows))


def test_flag_fiber_matches_the_linear_system():
    """conormal_fiber_flag, gQ N_w P for the transport P g Q = w, equals
    the linear-system oracle at a cell generator of every w in S_n,
    covexillary or not: n <= 5 over F_2, F_3 and F_10007, n <= 4 over Q."""
    rng = random.Random(53)
    for field, n_max in ((FieldSpec.prime(2), 5), (FieldSpec.prime(3), 5), (F, 5), (Q, 4)):
        for n in range(1, n_max + 1):
            for w in all_permutations(n):
                g = cell_generator(w, field, rng)
                flag, fiber = conormal_fiber_flag(g, w)
                assert flag == Flag(g)
                assert fiber == reference_flag_fiber(g)


def flag_subspaces(flag):
    """F_0, ..., F_n as spans of the first generator columns."""
    g, n = flag.generator, flag.n
    rows = range(1, n + 1)
    return [Subspace.column_span(submatrix(g, rows, range(1, i + 1))) for i in range(n + 1)]


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


def reference_flag_violations(pt, w):
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
        (pi, qi, _), (pj, qj, _) = data.chain[i], data.chain[j]
        source = (qi, pi)
        if bound < 0 and moved[source].dim == 0:
            continue
        target = (qj, pj)
        if source + target not in quotients:
            quotients[source + target] = dim_quotient(moved[source], meets[target])
        got = quotients[source + target]
        if got > bound:
            out.append(("rank", i, j, got, bound))
    return out


def reference_flag_verdicts(flag, zs, ws):
    """{w: [the subspace reference's verdict at (flag, z) for z in zs]},
    point by point, so that subspace_dims computes each point once."""
    verdicts = {w: [] for w in ws}
    for z in zs:
        pt = SpringerFlagPoint(flag, z)
        for w in ws:
            verdicts[w].append(not reference_flag_violations(pt, w))
    return verdicts


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
    """conormal_flag_violations equals the subspace computation, and
    in_conormal_flag its verdict, for every covexillary w with n <= 4 at
    flags from every cell u, over F_2, F_3, F_10007 and Q, with the zero
    covector, a fiber covector of u's cell and a random Springer covector
    g c g^-1."""
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
                    zs.append(ExactMatrix(field, vector_rows(fiber.vectors[-1], n)))
                for z in zs:
                    pt = SpringerFlagPoint(flag, z)
                    for w in ws:
                        expected = reference_flag_violations(pt, w)
                        [found] = conormal_flag_violations(flag, w, [pt])
                        assert diagnostic_tuples(found) == expected
                        assert in_conormal_flag(pt, w) == (not expected)


def test_flag_predicate_errors_keep_their_order():
    flag = Flag(ExactMatrix.identity(F, 4))
    pt = SpringerFlagPoint(flag, ExactMatrix.zeros(F, 4, 4))
    other = SpringerFlagPoint(Flag(PartialPermutation.longest(4).matrix(F)), pt.z)
    for points in ([pt], [pt, other]):
        with pytest.raises(NotCovexillaryError):
            conormal_flag_violations(flag, PartialPermutation.from_one_line("34512"), points)
        with pytest.raises(DimensionMismatchError, match="flag size differs"):
            conormal_flag_violations(flag, PartialPermutation.from_one_line("21"), points)
        with pytest.raises(InputError, match="requires a permutation"):
            conormal_flag_violations(flag, PartialPermutation.from_one_line("0 1 3 0"), points)
    with pytest.raises(InputError, match="over the flag"):
        conormal_flag_violations(flag, PartialPermutation.identity(4), [pt, other])


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
                bumped = matrix_sum(upper, ExactMatrix.from_rows(field, bump))
                not_springer = g @ bumped @ flag.inverse
                for z in (random_matrix(field, n, n, rng), g @ upper @ flag.inverse, not_springer):
                    assert invariant_failure(flag, z) == reference_invariant_failure(flag, z)
                assert invariant_failure(flag, not_springer) is not None


def product_invariant_failure(flag, z):
    """The first column i of the full product g^-1 z g with a nonzero entry
    on or below the diagonal, or None."""
    conjugate = (flag.inverse @ z @ flag.generator).entries
    return next(
        (i for i in range(1, flag.n + 1) if any(row[i - 1] for row in conjugate[i - 1 :])),
        None,
    )


def test_springer_flag_lower_triangle_matches_the_full_product():
    """SpringerFlagPoint computes only the entries of g^-1 z g on and below
    the diagonal.  It names the same i as the full product, with the same
    message, at Springer points bumped at every (r, i) with r >= i (and,
    half the time, at a later column too), at Springer points and at random
    z, over F_2, F_3, F_10007 and Q for n <= 4."""
    rng = random.Random(47)
    for field in (FieldSpec.prime(2), FieldSpec.prime(3), F, Q):
        for n in (1, 2, 3, 4):
            for _ in range(3):
                g = random_matrix_over(field, n, rng)
                while g.rank() < n:
                    g = random_matrix_over(field, n, rng)
                flag = Flag(g)
                upper = random_upper(field, n, rng, True)
                zs = [g @ upper @ flag.inverse, random_matrix_over(field, n, rng)]
                for i in range(1, n + 1):
                    for r in range(i, n + 1):
                        bump = [[0] * n for _ in range(n)]
                        bump[r - 1][i - 1] = 1
                        if i < n and rng.random() < 0.5:
                            col = rng.randint(i + 1, n)
                            bump[rng.randint(col, n) - 1][col - 1] = 1
                        bumped = matrix_sum(upper, ExactMatrix.from_rows(field, bump))
                        z = g @ bumped @ flag.inverse
                        assert product_invariant_failure(flag, z) == i
                        zs.append(z)
                for z in zs:
                    assert invariant_failure(flag, z) == product_invariant_failure(flag, z)
                assert invariant_failure(flag, zs[0]) is None


def test_springer_flag_point_with_a_singular_generator_raises():
    singular = Flag(ExactMatrix.from_rows(F, [[1, 2], [2, 4]]))
    with pytest.raises(SingularMatrixError):
        SpringerFlagPoint(singular, ExactMatrix.zeros(F, 2, 2))


def push_graph(pt: CotangentMatrixPoint) -> tuple[ExactMatrix, ExactMatrix]:
    """Cotangent transport along the graph embedding, the oracle of the chase.

    Returns the pair (h1(x), theta(y)) with h1(x) = ((I, 0), (x, I)) and
    theta(y) = ((0, y), (0, 0)), both of size 2n.
    """
    n = pt.x.rows
    field = pt.x.field
    ident = ExactMatrix.identity(field, n)
    zero = ExactMatrix.zeros(field, n, n)
    h1 = blocks([[ident, zero], [pt.x, ident]])
    theta = blocks([[zero, pt.y], [zero, zero]])
    return h1, theta


def springer_grass(g: ExactMatrix, u: ExactMatrix, d: int) -> SpringerGrassPoint:
    """Springer coordinates on T*Gr(d, N): (g, u) -> (g E_d, g u g^-1)."""
    V = Subspace.span(g.field, g.rows, g.columns[:d])
    return SpringerGrassPoint(V, g @ u @ g.inverse())


def test_push_graph():
    rng = random.Random(8)
    n = 3
    zero = ExactMatrix.zeros(F, n, n)
    h1, theta = push_graph(CotangentMatrixPoint(zero, zero))
    assert h1 == ExactMatrix.identity(F, 2 * n)
    assert is_zero(theta)
    x = random_matrix(F, n, n, rng)
    y = random_matrix(F, n, n, rng)
    h1, theta = push_graph(CotangentMatrixPoint(x, y))
    assert submatrix(h1, range(n + 1, 2 * n + 1), range(1, n + 1)) == x
    assert submatrix(theta, range(1, n + 1), range(n + 1, 2 * n + 1)) == y


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
        signed = blocks([[matrix_negation(yx), y], [matrix_negation(x @ yx), xy]])
        assert point.x == tau_mat @ signed @ tau_mat.inverse()
        assert point.V == embed_point(x, data)
        assert is_zero(point.x @ point.x)


def test_chase_equals_the_springer_coordinates_of_the_pushed_graph():
    """_chase_to_grass places h1 theta h1^-1 by tau and spans embed_point(x);
    the generic route inverts tau h1 and spans its first n columns.  Over
    F_2, F_10007, F_TOP (the widest lanes of the packed rows) and Q, where
    the list-based chase stands in; over F_p the packed chase is also the
    list-based one."""
    rng = random.Random(30)
    cases = [w for n in (1, 2, 3, 4) for w in all_partial_permutations(n) if is_covexillary(w)]
    assert len(cases) == 225
    for field in (F, FieldSpec.prime(2), Q, TOP):
        for w in cases:
            tau_mat = tau_permutation(covexillary_data(w)).matrix(field)
            if field.is_prime:
                x, y = random_matrix(field, w.n, w.n, rng), random_matrix(field, w.n, w.n, rng)
            else:
                x, y = rational_matrix(rng, w.n), rational_matrix(rng, w.n)
            h1, theta = push_graph(CotangentMatrixPoint(x, y))
            point = chase(w, x, y)
            assert point == springer_grass(tau_mat @ h1, theta, w.n)
            assert chase_to_grass(covexillary_data(w), x, [y.entries]) == [point.x]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CotangentMatrixPoint(ExactMatrix.zeros(F, 2, 2), ExactMatrix.zeros(F, 3, 3)),
         "x and y must be square of equal size"),
        (lambda: SpringerFlagPoint(Flag(ExactMatrix.identity(F, 2)), ExactMatrix.zeros(F, 3, 3)),
         "z size differs from flag size"),
        (lambda: SpringerGrassPoint(coordinate_subspace(F, 2, [1]), ExactMatrix.zeros(F, 3, 3)),
         "x size differs from ambient dimension"),
        (lambda: conormal_fiber_matrix(
            ExactMatrix.zeros(F, 3, 3), PartialPermutation.from_one_line("12")
        ), "matrix size differs from permutation size"),
    ],
    ids=["cotangent-shapes", "springer-flag-z-size", "springer-grass-x-size", "fiber-matrix-size"],
)
def test_points_and_fibers_of_the_wrong_size_are_refused(call, message):
    with pytest.raises(DimensionMismatchError) as raised:
        call()
    assert str(raised.value) == message


def test_chase_refuses_a_subspace_that_is_not_n_dimensional():
    """_chase_to_grass takes V = embed_point(x) from its caller; a V of the
    wrong dimension is refused rather than checked as a Springer point."""
    w = PartialPermutation.from_one_line("21")
    data = covexillary_data(w)
    x = ExactMatrix.zeros(F, 2, 2)
    short = Subspace.span(F, 4, [embed_point(x, data).vectors[0]])
    for ys in ([x.entries], []):
        with pytest.raises(DimensionMismatchError, match="n-dimensional"):
            _chase_to_grass(data, short, x, ys)


def test_springer_forms():
    rng = random.Random(10)
    n = 3
    g = sample_cell_point(PartialPermutation.longest(n), F, rng)
    zero = ExactMatrix.zeros(F, 2 * n, 2 * n)
    small_zero = ExactMatrix.zeros(F, n, n)
    point = springer_grass(
        blocks([[g, small_zero], [small_zero, ExactMatrix.identity(F, n)]]), zero, n
    )
    assert is_zero(point.x)
    # g = I with a strictly-upper-block nilpotent: V = E_n, x = u
    u = blocks([[small_zero, random_matrix(F, n, n, rng)], [ExactMatrix.zeros(F, n, 2 * n)]])
    point = springer_grass(ExactMatrix.identity(F, 2 * n), u, n)
    assert point.x == u
    for _ in range(20):
        gg = random_matrix(F, 2 * n, 2 * n, rng)
        if gg.rank() < 2 * n:
            continue
        point = springer_grass(gg, u, n)
        assert is_zero(point.x @ point.x)
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


BIG_PRIME = FieldSpec.prime(10**24 + 7)
MEMBER_FIELDS = (FieldSpec.prime(2), FieldSpec.prime(3), F, BIG_PRIME, Q)


def member_batch(w, field, rng):
    """(x, ys) over field: x in the open cell of w, ys the zero covector,
    fiber covectors (over F_p) and random covectors (hand-built fractions
    over Q)."""
    n = w.n
    if field.is_prime:
        x = sample_cell_point(w, field, rng)
        ys = [ExactMatrix(field, vector_rows(v, n)) for v in conormal_fiber_matrix(x, w).vectors]
        ys += [random_matrix(field, n, n, rng) for _ in range(3)]
    else:
        x = w.matrix(field)
        half = [[Fraction(1, 2) if b > a else 0 for b in range(n)] for a in range(n)]
        ys = [rational_matrix(rng, n) for _ in range(3)] + [ExactMatrix.from_rows(field, half)]
    return x, [ExactMatrix.zeros(field, n, n), *ys]


def test_matrix_members_outside_the_schubert_variety_empty_batches_and_sizes():
    """Outside the matrix Schubert variety every diagnostic list opens with
    the Schubert violation of x, followed by the rank bounds that y breaks;
    an empty batch gives no list, and a wrong size raises before any list."""
    w = PartialPermutation.identity(4)
    rng = random.Random(5)
    for field in MEMBER_FIELDS:
        outside = PartialPermutation.longest(4).matrix(field)
        base = matrix_schubert_violation(outside, w)
        assert base is not None
        _, batch = member_batch(w, field, rng)
        found = conormal_matrix_violations(outside, w, [y.entries for y in batch])
        assert [f[0] for f in found] == [{"kind": "schubert", "condition": base}] * len(batch)
    x = PartialPermutation.longest(4).matrix(F)
    y = random_matrix(F, 4, 4, rng)
    ys = [ExactMatrix.zeros(F, 4, 4), unit_matrix(4, 1, 2), y]
    found = conormal_matrix_violations(x, w, [y.entries for y in ys])
    schubert = {"kind": "schubert", "condition": matrix_schubert_violation(x, w)}
    data = covexillary_data(w)
    pairs = [mij_ranks(big_matrix_M(CotangentMatrixPoint(x, y)), data) for y in ys]
    assert found == [diagnostics(x, w, ranks) for ranks in pairs]
    assert [f[0] for f in found] == [schubert] * 3
    assert found[0] == [schubert]  # the zero covector breaks no rank bound
    assert conormal_matrix_violations(x, w, []) == []
    assert conormal_matrix_violations(w.matrix(F), w, ()) == []
    small = ExactMatrix.zeros(F, 3, 3)
    with pytest.raises(DimensionMismatchError, match="point size differs") as per_point:
        in_conormal_matrix(CotangentMatrixPoint(small, small), w)
    for batch in ([], [small.entries], [y.entries for y in ys]):
        with pytest.raises(DimensionMismatchError) as batched:
            conormal_matrix_violations(small, w, batch)
        assert str(batched.value) == str(per_point.value)
    with pytest.raises(DimensionMismatchError):
        conormal_matrix_violations(ExactMatrix.zeros(F, 4, 3), w, [])
    # a covector of the wrong size raises as CotangentMatrixPoint does, on
    # and off the matrix Schubert variety
    for point in (x, w.matrix(F)):
        with pytest.raises(DimensionMismatchError, match="square of equal size"):
            conormal_matrix_violations(point, w, [ys[0].entries, small.entries])
    with pytest.raises(NotCovexillaryError):
        conormal_matrix_violations(x, PartialPermutation.from_one_line("3412"), [])


def test_flag_rejection_covectors_are_the_flag_points():
    """The flag calibration checks z = g U g^-1 for a strictly upper U as the
    matrix point (g, U g^-1), at g = w's permutation matrix: U g^-1 is the
    covector of the Springer point (F, g U g^-1), and the batched verdicts
    over g are the subspace reference's at each of those points, for every
    covexillary w with n <= 4, at flags from the cell of w and from every
    other cell u of S_n."""
    rng = random.Random(59)
    for field in (FieldSpec.prime(2), FieldSpec.prime(3), F, Q):
        for n in (1, 2, 3, 4):
            ws = [w for w in all_permutations(n) if is_covexillary(w)]
            for u in all_permutations(n):
                g = cell_generator(u, field, rng)
                flag = Flag(g)
                uppers = [random_upper(field, n, rng, True) for _ in range(3)]
                covectors = [upper @ flag.inverse for upper in uppers]
                zs = [g @ upper @ flag.inverse for upper in uppers]
                for covector, z in zip(covectors, zs):
                    assert covector.entries == SpringerFlagPoint(flag, z).covector.entries
                for w, expected in reference_flag_verdicts(flag, zs, ws).items():
                    found = conormal_matrix_violations(g, w, [c.entries for c in covectors])
                    assert [not f for f in found] == expected


def test_fibers_at_orbit_representatives_are_coordinate():
    """The facts the rejection of the matrix and flag calibrations rests on.
    At u's 0/1 matrix the conormal fiber of O_u is spanned by unit vectors,
    for every partial u with n <= 4, so a coordinate off its pivots leaves
    it.  For every permutation w with n <= 5 its pivots lie among the
    Springer coordinates i n + w(j) - 1 with i < j (where U w^-1 lives, U
    strictly upper), and exactly l(w) of those are off the fiber."""
    spanned = 0
    for n in range(1, 5):
        for u in all_partial_permutations(n):
            fiber = conormal_fiber_matrix(u.matrix(F), u)
            assert all(v.count(1) == 1 and v.count(0) == n * n - 1 for v in fiber.vectors)
            spanned += 1
    assert spanned == 252
    for n in range(1, 6):
        for w in all_permutations(n):
            springer = {i * n + v - 1 for j, v in enumerate(w.image) for i in range(j)}
            pivots = set(conormal_fiber_matrix(w.matrix(F), w).pivots)
            assert pivots <= springer
            assert len(springer - pivots) == length(w)


def grass_fiber_oracle(V, field):
    """The orbit conormal at V = E_S as a kernel: the x in F^(N^2), row-major,
    with Im(x) in V (phi x = 0 for phi in V's annihilator), V in ker(x)
    (x v = 0 for v in V) and tr(x b) = 0 for every upper triangular b
    (x_ji = 0 for i <= j); and the kernel of the two containments alone."""
    N = V.ambient
    annihilator = kernel(ExactMatrix(field, V.vectors)).vectors
    containments = []
    for j in range(N):
        for phi in annihilator:
            row = [0] * (N * N)
            row[j::N] = phi
            containments.append(row)
    for i in range(N):
        for v in V.vectors:
            row = [0] * (N * N)
            row[i * N : (i + 1) * N] = v
            containments.append(row)
    trace = [[int(k == j * N + i) for k in range(N * N)] for i in range(N) for j in range(i, N)]
    return (
        kernel(ExactMatrix.from_rows(field, containments + trace)),
        kernel(ExactMatrix.from_rows(field, containments)),
    )


@pytest.mark.parametrize("field", [FieldSpec.prime(2), F], ids=str)
def test_grass_fiber_at_the_target_fixed_point_is_the_linear_system_kernel(field):
    """conormal-grass checks at a coordinate point V in the cell of w's
    embedding, the target's open cell: its fiber there is the kernel of the
    Springer containments and the trace against upper triangular b, and
    its Springer coordinates span the kernel of the containments alone,
    for every covexillary partial w with n <= 3 over F_2 and F_10007.  The
    directions it must reject, the Springer coordinates off the fiber,
    number dim X_w: V is a smooth point of the target, which has the
    dimension of X_w."""
    cases = 0
    for n in (1, 2, 3):
        for w in all_partial_permutations(n):
            if not is_covexillary(w):
                continue
            data = covexillary_data(w)
            V, fiber, springer = _grass_fixed_point(data, field)
            N = 2 * n
            assert V.dim == n and all(v.count(1) == 1 and v.count(0) == N - 1 for v in V.vectors)
            assert locate_grass_cell(V) == fixed_point_index(w, data)
            orbit_conormal, springer_space = grass_fiber_oracle(V, field)
            assert fiber == orbit_conormal
            assert springer_space == coordinate_subspace(field, N * N, [k + 1 for k in springer])
            off = [k for k in springer if k not in fiber.pivots]
            assert len(off) == len(springer) - fiber.dim
            assert len(off) == tangent_orbit_rank(w.matrix(field))
            cases += 1
    assert cases == 42


ZERO_SECTION_N = sized(4, 5)


def test_zero_section_at_a_coordinate_point_is_its_target_verdict():
    """Every conormal bound of embedding data is >= 0, so at x = 0, where
    every rank read is 0, (E_S, 0) lies in the Grassmannian conormal
    variety exactly when E_S lies in the target: checked at every
    coordinate point E_S of Gr(n, 2n), every cell, for every covexillary
    partial w with n <= 4.  Hence conormal-grass, which checks at the
    fixed point E_S of the target's open cell only, loses nothing by not
    checking the zero section at the other cells; embed-thm checks that
    E_S lies in the target at every orbit."""
    cases = 0
    for n in range(1, ZERO_SECTION_N + 1):
        N = 2 * n
        zero = ExactMatrix.zeros(F, N, N)
        points = [coordinate_subspace(F, N, S) for S in combinations(range(1, N + 1), n)]
        for w in all_partial_permutations(n):
            if not is_covexillary(w):
                continue
            data = covexillary_data(w)
            assert all(bound >= 0 for _, _, bound in data.conormal_checks), w
            conditions = data.grass_conditions
            for V in points:
                inside = all(ok for *_, ok in grass_condition_checks(V, conditions))
                [found] = conormal_grass_violations(V, conditions, [SpringerGrassPoint(V, zero)])
                assert (not found) == inside, (w, V)
            cases += 1
    assert cases == {4: 225, 5: 1343}[ZERO_SECTION_N]


@pytest.mark.parametrize("prime", [2, 3])
@pytest.mark.parametrize("suite, total", [("conormal-matrix", 42), ("conormal-flag", 9)])
def test_matrix_and_flag_calibrations_pass_over_small_fields(suite, total, prime):
    """Every direction off the fiber at w's 0/1 matrix is rejected over every
    field, so the calibrations pass over F_2 and F_3 too (n <= 3), where a
    uniform covector would lie in the variety by chance."""
    verdicts = run_suite(SuiteConfig(suite, n_max=3, prime=prime, seed=1))
    assert len(verdicts) == total
    assert all(v.passed for v in verdicts), [v for v in verdicts if not v.passed][:3]


def test_matrix_members_take_covectors_as_rows():
    """A covector given as rows, lists cut from a flat list as the rejection
    estimate cuts them or the tuples of ExactMatrix.entries, gets the
    diagnostics of its ExactMatrix alone in a batch of one, on fiber and
    random covectors of every covexillary w with n <= 4 over F_2, F_3,
    F_10007 and F_(10^24+7)."""
    rng = random.Random(61)
    verdicts = set()
    for field in (FieldSpec.prime(2), FieldSpec.prime(3), F, BIG_PRIME):
        for n in (1, 2, 3, 4):
            for w in all_partial_permutations(n):
                if not is_covexillary(w):
                    continue
                x, ys = member_batch(w, field, rng)
                size = n * n
                draws = _draws(rng, field.p, 4 * size)
                cut = [
                    [draws[a : a + n] for a in range(t, t + size, n)]
                    for t in range(0, 4 * size, size)
                ]
                as_rows = [y.entries for y in ys] + cut
                ys += [ExactMatrix(field, tuple(map(tuple, rows))) for rows in cut]
                expected = [conormal_matrix_violations(x, w, [y.entries])[0] for y in ys]
                assert conormal_matrix_violations(x, w, as_rows) == expected
                as_lists = [list(map(list, y.entries)) for y in ys]
                assert conormal_matrix_violations(x, w, as_lists) == expected
                verdicts.update(not e for e in expected)
    assert verdicts == {True, False}


def test_matrix_members_refuse_ragged_and_wrong_size_rows():
    """Rows of the wrong number or length raise DimensionMismatchError, on
    and off the matrix Schubert variety, before any verdict."""
    w = PartialPermutation.from_one_line("2143")
    good = [[0] * 4 for _ in range(4)]
    bad = [
        [[0] * 4 for _ in range(3)],
        [[0] * 4 for _ in range(5)],
        [[0] * 4, [0] * 4, [0] * 3, [0] * 4],
        [[0] * 4, [0] * 5, [0] * 4, [0] * 4],
        [],
    ]
    for x in (w.matrix(F), PartialPermutation.identity(4).matrix(F)):
        # the zero covector is a member exactly over the matrix Schubert variety
        [found] = conormal_matrix_violations(x, w, [good])
        assert (not found) == (matrix_schubert_violation(x, w) is None)
        for rows in bad:
            with pytest.raises(DimensionMismatchError, match="square of equal size"):
                conormal_matrix_violations(x, w, [good, rows])


def old_fiber_elements(fiber, n, field, rng, extra):
    """_fiber_elements as first written: each combination accumulated basis
    vector by basis vector, reduced mod p after every step."""
    points = [ExactMatrix.zeros(field, n, n)]
    points += [ExactMatrix(field, vector_rows(v, n)) for v in fiber.vectors]
    p = field.p
    for _ in range(extra if fiber.dim else 0):
        coeffs = _draws(rng, p, fiber.dim)
        vec = [0] * (n * n)
        for c, basis_vec in zip(coeffs, fiber.vectors):
            if c:
                vec = [(a + c * b) % p for a, b in zip(vec, basis_vec)]
        points.append(ExactMatrix(field, vector_rows(vec, n)))
    return points


def test_fiber_elements_match_the_accumulating_loop():
    """The dot-product combinations of _fiber_elements, as rows, equal the
    entries of the old accumulate-mod-p loop's matrices, and leave the
    generator in the same state, for
    the fiber at a cell point of every covexillary w with n <= 4 over F_2,
    F_3, F_10007 and F_(10^24+7)."""
    rng = random.Random(73)
    for field in (FieldSpec.prime(2), FieldSpec.prime(3), F, BIG_PRIME):
        for n in (1, 2, 3, 4):
            for w in all_partial_permutations(n):
                if not is_covexillary(w):
                    continue
                fiber = conormal_fiber_matrix(sample_cell_point(w, field, rng), w)
                seed = rng.random()
                new_rng, old_rng = random.Random(seed), random.Random(seed)
                got = _fiber_elements(fiber, new_rng, extra=4)
                old = old_fiber_elements(fiber, n, field, old_rng, extra=4)
                assert got == [y.entries for y in old]
                assert new_rng.getstate() == old_rng.getstate()


def test_one_direction_accepted_off_the_fiber_is_counted():
    """Around the zero fiber in F^25 every coordinate is a direction off
    the fiber, one covector each, cut into 5 rows.  A violations check that
    gives an empty list only to the last of the 25 gives one accepted
    off-fiber covector, so the case fails; a rejection rate of 24/25 = 0.96
    would have passed 0.95."""
    batches = []

    def violations(ys):
        batches.append(ys)
        return [[{"kind": "rank"}]] * (len(ys) - 1) + [[]]

    zero = Subspace.zero(F, 25)
    assert _off_fiber_rejection(zero, range(25), violations, random.Random(5)) == (0, 1)
    [ys] = batches
    assert all(len(y) == 5 and all(len(row) == 5 for row in y) for y in ys)
    support = [[k for k, v in enumerate(entry for row in y for entry in row) if v] for y in ys]
    assert support == [[k] for k in range(25)]
