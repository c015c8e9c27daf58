"""The interleaving permutation, graph embedding, and target conditions."""

import random
from fractions import Fraction
from itertools import combinations, pairwise
from operator import getitem

import pytest

from covex.errors import DimensionMismatchError
from covex.suites import SuiteConfig, run_suite
from covex.exactla import (
    ExactMatrix,
    FieldSpec,
    Subspace,
    coordinate_subspace,
    random_borel,
)
from covex.embedding import (
    check_target_space,
    embed_point,
    embedding_target,
    fixed_point_bits,
    fixed_point_index,
    mask_positions,
    target_grass_index,
    target_lanes,
    tau_permutation,
    weight_map,
)
from covex.permcore import (
    OrbitTable,
    PartialPermutation,
    all_partial_permutations,
    all_permutations,
    bruhat_leq,
    covexillary_data,
    is_covexillary,
    rank_matrix,
)
from covex.varieties import (
    grass_condition_checks,
    locate_grass_cell,
    matrix_schubert_violation,
    sample_cell_point,
    southwest_profile,
)
from oracles import blocks, random_matrix, submatrix, subspace_sum
from scale import sized
from test_exactla import standard_subspace
from test_permcore import lanes
from test_varieties import in_grass_schubert

F = FieldSpec.prime()


def target_holds(subspace, data):
    """The target conditions of w at a point of Gr(n, 2n), by elimination."""
    return all(ok for *_, ok in grass_condition_checks(subspace, data.grass_conditions))


def _covexillary_partials(n):
    return [w for w in all_partial_permutations(n) if is_covexillary(w)]


def permute_rows(w, matrix):
    """w.matrix(field) @ matrix, by moving row j of matrix to row w(j)."""
    assert matrix.rows == w.n
    rows = [(0,) * matrix.cols] * w.n
    for r, c in w.dots():
        rows[r - 1] = matrix.entries[c - 1]
    return ExactMatrix(matrix.field, tuple(rows))


def graph_embed(x):
    """Column span of (I over x): the graph of x as a point of Gr(n, 2n)."""
    return Subspace.column_span(blocks([[ExactMatrix.identity(x.field, x.rows)], [x]]))


def reference_embed_point(x, data):
    """The column span of tau (I over x), with tau applied as a row move."""
    stacked = blocks([[ExactMatrix.identity(x.field, x.rows)], [x]])
    return Subspace.column_span(permute_rows(data.tau, stacked))


def test_tau_fixtures():
    data = covexillary_data(PartialPermutation.from_one_line("2143"))
    tau = tau_permutation(data)
    assert tau.image == (1, 2, 5, 6, 3, 4, 7, 8)
    # empty essential set: single block pair, tau is the identity
    w0 = PartialPermutation.longest(3)
    assert tau_permutation(covexillary_data(w0)) == PartialPermutation.identity(6)


def test_tau_preserves_block_order():
    for n in (2, 3, 4):
        for w in _covexillary_partials(n):
            tau = tau_permutation(covexillary_data(w))
            data = covexillary_data(w)
            for (_, q0, _), (_, q1, _) in pairwise(data.chain):
                block = [tau(j) for j in range(q0 + 1, q1 + 1)]
                assert block == sorted(block)


def test_tau_inverse_standard_subspaces():
    # the preimage of E_{t_i} is always <e_1..e_{q_i}, e_{n+1}..e_{n+p_i}>
    sizes = {1: all_partial_permutations(1), 2: all_partial_permutations(2),
             3: all_partial_permutations(3), 4: all_partial_permutations(4),
             5: all_permutations(5), 6: all_permutations(6)}
    for n, perms in sizes.items():
        for w in perms:
            if not is_covexillary(w):
                continue
            data = covexillary_data(w)
            tau_inv = tau_permutation(data).matrix(F).inverse()
            for p, q, _ in data.chain[1:]:
                pre = standard_subspace(F, 2 * n, p + q).apply(tau_inv)
                expected = coordinate_subspace(
                    F, 2 * n, list(range(1, q + 1)) + list(range(n + 1, n + p + 1))
                )
                assert pre == expected


def test_graph_embed_fixtures():
    n = 3
    zero = ExactMatrix.zeros(F, n, n)
    assert graph_embed(zero) == standard_subspace(F, 2 * n, n)
    ident = ExactMatrix.identity(F, n)
    diag = graph_embed(ident)
    expected = [
        tuple(int(k in (i, n + i)) for k in range(2 * n))
        for i in range(n)
    ]
    assert diag == Subspace.span(F, 2 * n, expected)


def test_graph_embed_injective():
    rng = random.Random(12)
    images = {}
    for _ in range(60):
        x = random_matrix(F, 3, 3, rng)
        key = graph_embed(x).vectors
        assert images.setdefault(key, x) == x


def test_embed_zero_hits_tau_point():
    for n in (1, 2, 3):
        for w in _covexillary_partials(n):
            data = covexillary_data(w)
            tau = tau_permutation(data)
            point = embed_point(ExactMatrix.zeros(F, n, n), data)
            assert point == coordinate_subspace(F, 2 * n, [tau(j) for j in range(1, n + 1)])


def test_embedding_theorem_randomized():
    rng = random.Random(13)
    for n in (1, 2, 3):
        for w in _covexillary_partials(n):
            data = covexillary_data(w)
            for _ in range(40):
                x = random_matrix(F, n, n, rng)
                inside = matrix_schubert_violation(x, w) is None
                assert inside == target_holds(embed_point(x, data), data)


def test_negative_control_rejects_random_matrices():
    rng = random.Random(14)
    for wstr in ("1 2 3", "2 1 3", "0 1 2"):
        w = PartialPermutation.from_one_line(wstr)
        data = covexillary_data(w)
        rejected = sum(
            1
            for _ in range(50)
            if not target_holds(embed_point(random_matrix(F, w.n, w.n, rng), data), data)
        )
        assert rejected >= 45


def test_bruhat_monotone_through_embedding():
    rng = random.Random(15)
    for n in (2, 3):
        for w in _covexillary_partials(n):
            data = covexillary_data(w)
            for u in all_partial_permutations(n):
                if bruhat_leq(u, w):
                    x = sample_cell_point(u, F, rng)
                    assert target_holds(embed_point(x, data), data)


def rank_lemma_sides(x, p, q, r):
    """(dim(x E_q / E_p) <= r, dim(graph(x) + V) <= n + p + r), V = <e_1..e_q, e_{n+1}..e_{n+p}>.

    The one-condition rank lemma says the two always agree.  rank-lemma checks
    the equality form at every partial permutation; this checks it at any x.
    """
    n = x.rows
    left = (submatrix(x, range(p + 1, n + 1), range(1, q + 1)).rank() if q else 0) <= r
    indices = list(range(1, q + 1)) + list(range(n + 1, n + p + 1))
    v = coordinate_subspace(x.field, 2 * n, indices)
    return left, subspace_sum(graph_embed(x), v).dim <= n + p + r


def test_check_rank_lemma():
    rng = random.Random(16)
    zero = ExactMatrix.zeros(F, 3, 3)
    for p in range(4):
        for q in range(4):
            for r in range(4):
                assert rank_lemma_sides(zero, p, q, r) == (True, True)
    one_by_one = ExactMatrix.from_rows(F, [[4]])
    assert rank_lemma_sides(one_by_one, 0, 1, 0) == (False, False)
    assert rank_lemma_sides(ExactMatrix.zeros(F, 1, 1), 0, 1, 0) == (True, True)
    for n in (1, 2, 3):
        for p in range(n + 1):
            for q in range(n + 1):
                for r in range(n + 1):
                    for _ in range(8):
                        x = random_matrix(F, n, n, rng)
                        left, right = rank_lemma_sides(x, p, q, r)
                        assert left == right


def test_weight_map_fixtures():
    # single block pair: t_i -> y_i for i <= n, t_{n+i} -> x_i
    data = covexillary_data(PartialPermutation.longest(3))
    mapping = weight_map(data)
    assert mapping == {1: ("y", 1), 2: ("y", 2), 3: ("y", 3), 4: ("x", 1), 5: ("x", 2), 6: ("x", 3)}
    data = covexillary_data(PartialPermutation.from_one_line("2143"))
    mapping = weight_map(data)
    assert mapping[1] == ("y", 1)
    assert mapping[2] == ("y", 2)
    assert mapping[3] == ("x", 1)
    assert mapping[4] == ("x", 2)
    assert mapping[5] == ("y", 3)
    # the dictionary is a bijection onto both alphabets
    for n in (2, 3, 4):
        for w in _covexillary_partials(n):
            mapping = weight_map(covexillary_data(w))
            assert sorted(mapping) == list(range(1, 2 * n + 1))
            assert sorted(mapping.values()) == sorted(
                [("x", i) for i in range(1, n + 1)] + [("y", i) for i in range(1, n + 1)]
            )


def test_target_index_matches_located_cells():
    rng = random.Random(17)
    for n in (1, 2, 3):
        for w in _covexillary_partials(n):
            data = covexillary_data(w)
            derived = target_grass_index(data)
            for _ in range(3):
                point = embed_point(sample_cell_point(w, F, rng), data)
                assert locate_grass_cell(point) == derived


def test_target_conditions_cut_out_the_target_index_at_every_cell():
    """For every covexillary partial w with n <= 3, at a Borel translate of
    every coordinate point of Gr(n, 2n), the target conditions hold exactly
    when the point lies in the Schubert variety of target_grass_index."""
    rng = random.Random(18)
    checks = 0
    for n in (1, 2, 3):
        for w in _covexillary_partials(n):
            data = covexillary_data(w)
            v_hat = target_grass_index(data)
            for cell in combinations(range(1, 2 * n + 1), n):
                point = coordinate_subspace(F, 2 * n, cell).apply(random_borel(F, 2 * n, rng))
                assert target_holds(point, data) == in_grass_schubert(point, v_hat)
                checks += 1
    assert checks == 706


def test_target_space_is_gr_n_2n():
    data = covexillary_data(PartialPermutation.from_one_line("0 1"))
    check_target_space(standard_subspace(F, 4, 2), data)
    assert target_holds(standard_subspace(F, 4, 2), data)
    for point in (standard_subspace(F, 4, 1), standard_subspace(F, 6, 2)):
        with pytest.raises(DimensionMismatchError, match="Gr\\(n, 2n\\)"):
            check_target_space(point, data)
    # the name perfbench/queries.py reads the target through
    assert embedding_target(data) is data


def test_target_index_fixture():
    data = covexillary_data(PartialPermutation.from_one_line("2143"))
    assert target_grass_index(data).positions == (3, 4, 7, 8)


def test_fixed_point_index_matches_cell_location():
    """The cell read off tau equals the one located by elimination.

    Every covexillary partial w and every partial u with n <= 3, and every
    covexillary w and every u in S_4.
    """
    pairs = [
        (w, u)
        for n in (1, 2, 3)
        for w in _covexillary_partials(n)
        for u in all_partial_permutations(n)
    ]
    pairs += [
        (w, u) for w in all_permutations(4) if is_covexillary(w) for u in all_permutations(4)
    ]
    assert len(pairs) == 1175 + 552
    for w, u in pairs:
        data = covexillary_data(w)
        located = locate_grass_cell(embed_point(u.matrix(F), data))
        assert fixed_point_index(u, data) == located
    with pytest.raises(DimensionMismatchError):
        fixed_point_index(PartialPermutation.zero(2), covexillary_data(PartialPermutation.identity(3)))


def test_fixed_point_index_of_w_is_the_target_index():
    for n in range(1, 6):
        for w in _covexillary_partials(n):
            data = covexillary_data(w)
            assert fixed_point_index(w, data) == target_grass_index(data)


def test_embed_point_matches_the_stacked_construction():
    """embed_point reads the columns of tau (I over x) off x in tau order; the
    reference stacks I over x, moves its rows by tau and spans the columns,
    and moving the rows is the product with tau's permutation matrix.
    Every covexillary partial w with n <= 4, over F_p and Q, at x = 0, at the
    matrix of w, at a cell point and at random points."""
    rng = random.Random(43)
    Q = FieldSpec.rational()
    cases = [w for n in (1, 2, 3, 4) for w in _covexillary_partials(n)]
    assert len(cases) == 225
    for w in cases:
        n, data = w.n, covexillary_data(w)
        points = [ExactMatrix.zeros(F, n, n), w.matrix(F), sample_cell_point(w, F, rng)]
        points += [random_matrix(F, n, n, rng) for _ in range(2)]
        points += [ExactMatrix.zeros(Q, n, n), w.matrix(Q)]
        points += [
            ExactMatrix.from_rows(
                Q, [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(n)]
            )
            for _ in range(2)
        ]
        for x in points:
            assert embed_point(x, data) == reference_embed_point(x, data)
        for x in (points[4], points[-1]):  # a random point over F_p and one over Q
            stacked = blocks([[ExactMatrix.identity(x.field, n)], [x]])
            assert permute_rows(data.tau, stacked) == data.tau.matrix(x.field) @ stacked
    data = covexillary_data(PartialPermutation.from_one_line("2143"))
    for shape in ((4, 3), (3, 3), (5, 5)):
        with pytest.raises(DimensionMismatchError):
            embed_point(ExactMatrix.zeros(F, *shape), data)


def test_permute_rows_of_a_partial_permutation_is_the_matrix_product():
    rng = random.Random(31)
    for w in all_partial_permutations(3):
        m = random_matrix(F, 3, 4, rng)
        assert permute_rows(w, m) == w.matrix(F) @ m


def test_orbit_points_embed_into_the_cell_of_their_representative():
    """The reduction embed-thm rests on: x -> b_l x b_r keeps x in O_u and
    embed_point(x) in the Schubert cell of u's 0/1 matrix.  So the target,
    a union of cells, holds on all of O_u iff it holds at u.  Every tau class
    and every partial u with n <= 4, over F_101."""
    field = FieldSpec.prime(101)
    rng = random.Random(27)
    checks = 0
    for n in (1, 2, 3, 4):
        classes = {covexillary_data(w).tau_order: covexillary_data(w)
                   for w in _covexillary_partials(n)}
        for u in all_partial_permutations(n):
            # rank_matrix is the profile of u's 0/1 matrix over every field,
            # with int entries (a bool would print as true in a diagnostic)
            ranks = rank_matrix(u)
            assert all(type(r) is int for row in ranks for r in row)
            for exact in (F, FieldSpec.prime(2), FieldSpec.rational()):
                assert u.matrix(exact).southwest_profile == ranks
            for data in classes.values():
                x = sample_cell_point(u, field, rng)
                assert southwest_profile(x) == ranks
                assert locate_grass_cell(embed_point(x, data)) == fixed_point_index(u, data)
                checks += 1
    assert checks == 2 + 2 * 7 + 6 * 34 + 20 * 209


# CI extends the two elimination oracles below to n = 5 (108,220
# embeddings; 1.73 M pairs).
CELL_ORACLE_N = sized(4, 5)


def _tau_classes(n):
    """One CovexillaryData per tau class of size n, with the w of the class."""
    classes = {}
    for w in _covexillary_partials(n):
        classes.setdefault(covexillary_data(w).tau_order, []).append(w)
    return [(covexillary_data(ws[0]), ws) for ws in classes.values()]


@pytest.mark.parametrize("n", range(1, CELL_ORACLE_N + 1))
def test_cells_read_off_tau_are_the_cells_located_by_elimination(n):
    """embed-thm reads the cell of each orbit off tau: at every partial u and
    every tau class, the bitmask sum(map(getitem, fixed_point_bits(data),
    u.image)) holds the positions that locate_grass_cell finds by eliminating
    embed_point(u's 0/1 matrix)."""
    partials = list(all_partial_permutations(n))
    classes = _tau_classes(n)
    for data, _ in classes:
        bits = fixed_point_bits(data)
        for u in partials:
            cell = sum(map(getitem, bits, u.image))
            located = locate_grass_cell(embed_point(u.matrix(F), data))
            assert mask_positions(cell) == located.positions, (u, data)
    checks = {1: 2, 2: 14, 3: 204, 4: 4180, 5: 108220}
    assert len(partials) * len(classes) == checks[n]


@pytest.mark.parametrize("n", range(1, CELL_ORACLE_N + 1))
def test_embed_thm_reports_equal_elimination_at_every_pair(n):
    """The embed-thm report, made from the coordinate point E_S of each
    cell and packed Bruhat masks, equals the report made pair by pair:
    bruhat_leq(u, w) against target_holds at the embedding of every u's
    0/1 matrix, once per tau class."""
    partials = list(all_partial_permutations(n))
    expected = {}
    for data, ws in _tau_classes(n):
        embedded = [embed_point(u.matrix(F), data) for u in partials]
        for w in ws:
            w_data = covexillary_data(w)
            inside = [bruhat_leq(u, w) for u in partials]
            holds = [target_holds(V, w_data) for V in embedded]
            expected[f"n={n}/w={w.one_line()}"] = {
                "mismatches": sum(a != b for a, b in zip(inside, holds)),
                "positives": sum(inside),
                "negatives": len(partials) - sum(inside),
            }
    verdicts = run_suite(SuiteConfig("embed-thm", n_max=n))
    got = {v.case: v.details for v in verdicts if v.case.startswith(f"n={n}/")}
    assert got == expected
    assert all(d["mismatches"] == 0 for d in got.values())


@pytest.mark.parametrize("n", range(1, CELL_ORACLE_N + 1))
def test_packed_target_verdicts_are_the_per_cell_verdicts(n):
    """embed-thm reads the target of each w off the packed counts of its tau
    class: for every covexillary w, target_lanes, with one memo of reads
    for the class, gives exactly the lanes of the u whose cell's coordinate
    point E_S passes target_holds, the target read through dim(E_S + E_t)
    by elimination."""
    orbits = OrbitTable(n)
    points = {}
    classes = _tau_classes(n)
    for data, ws in classes:
        bits = fixed_point_bits(data)
        past = orbits.past(bits)
        reads = {}
        cells = {}
        for image, lane in zip(orbits.images, lanes(orbits)):
            mask = sum(map(getitem, bits, image))
            cells[mask] = cells.get(mask, 0) | 1 << lane
            if mask not in points:
                points[mask] = coordinate_subspace(F, 2 * n, mask_positions(mask))
        for w in ws:
            w_data = covexillary_data(w)
            expected = 0
            for mask, found in cells.items():
                if target_holds(points[mask], w_data):
                    expected |= found
            assert target_lanes(orbits, past, w_data, reads) == expected, w
    assert len(classes) == {1: 1, 2: 2, 3: 6, 4: 20, 5: 70}[n]


def test_embedding_depends_on_w_only_through_its_tau_class():
    """embed_point reads w only through its tau class, so the cells that
    embed-thm reads off tau serve every w with one tau_order."""
    rng = random.Random(23)
    for n in (1, 2, 3, 4):
        classes = {}
        for w in _covexillary_partials(n):
            data = covexillary_data(w)
            classes.setdefault(data.tau_order, []).append(data)
        for members in classes.values():
            x = random_matrix(F, n, n, rng)
            first = embed_point(x, members[0])
            for data in members[1:]:
                assert embed_point(x, data) == first


@pytest.mark.parametrize("n, count", [(1, 1), (2, 2), (3, 6), (4, 20), (5, 70)])
def test_number_of_tau_classes(n, count):
    assert len({covexillary_data(w).tau_order for w in _covexillary_partials(n)}) == count
