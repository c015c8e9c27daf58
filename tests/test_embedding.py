"""The interleaving permutation, graph embedding, and target conditions."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from covex.errors import DimensionMismatchError
from covex.exactla import (
    ExactMatrix,
    FieldSpec,
    Subspace,
    coordinate_subspace,
    random_borel,
    random_matrix,
)
from covex.embedding import (
    check_rank_lemma,
    embed_point,
    embedding_target,
    fixed_point_index,
    graph_embed,
    target_grass_index,
    target_holds,
    tau_permutation,
    weight_map,
)
from covex.permcore import (
    PartialPermutation,
    all_partial_permutations,
    all_permutations,
    bruhat_leq,
    covexillary_data,
    is_covexillary,
)
from covex.varieties import (
    in_grass_schubert,
    in_matrix_schubert,
    locate_grass_cell,
    sample_cell_point,
)
from test_exactla import standard_subspace

F = FieldSpec.prime()


def _covexillary_partials(n):
    return [w for w in all_partial_permutations(n) if is_covexillary(w)]


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
            for i in range(1, data.m + 1):
                block = [tau(j) for j in range(data.q_at(i - 1) + 1, data.q_at(i) + 1)]
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
            for i in range(1, data.m + 1):
                pre = standard_subspace(F, 2 * n, data.t_at(i)).apply(tau_inv)
                expected = coordinate_subspace(
                    F,
                    2 * n,
                    list(range(1, data.q_at(i) + 1))
                    + list(range(n + 1, n + data.p_at(i) + 1)),
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
                assert in_matrix_schubert(x, w) == target_holds(embed_point(x, data), data)


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


def test_check_rank_lemma():
    rng = random.Random(16)
    zero = ExactMatrix.zeros(F, 3, 3)
    for p in range(4):
        for q in range(4):
            for r in range(4):
                assert check_rank_lemma(zero, p, q, r) == (True, True)
    one_by_one = ExactMatrix.from_rows(F, [[4]])
    assert check_rank_lemma(one_by_one, 0, 1, 0) == (False, False)
    assert check_rank_lemma(ExactMatrix.zeros(F, 1, 1), 0, 1, 0) == (True, True)
    for n in (1, 2, 3):
        for p in range(n + 1):
            for q in range(n + 1):
                for r in range(n + 1):
                    for _ in range(8):
                        x = random_matrix(F, n, n, rng)
                        left, right = check_rank_lemma(x, p, q, r)
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
    assert target_holds(standard_subspace(F, 4, 2), data)
    for point in (standard_subspace(F, 4, 1), standard_subspace(F, 6, 2)):
        with pytest.raises(DimensionMismatchError, match="Gr\\(n, 2n\\)"):
            target_holds(point, data)
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


COVEXILLARY_UP_TO_4 = [w for n in (1, 2, 3, 4) for w in _covexillary_partials(n)]


@st.composite
def embedding_inputs(draw):
    w = draw(st.sampled_from(COVEXILLARY_UP_TO_4))
    field = draw(st.sampled_from((F, FieldSpec.rational())))
    if field.is_prime:
        entry = st.integers(0, field.p - 1)
    else:
        entry = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    rows = [[draw(entry) for _ in range(w.n)] for _ in range(w.n)]
    return w, ExactMatrix.from_rows(field, rows)


@settings(max_examples=200, deadline=None)
@given(embedding_inputs())
def test_embed_point_equals_the_permutation_matrix_product(inputs):
    w, x = inputs
    data = covexillary_data(w)
    stacked = ExactMatrix.identity(x.field, w.n).vstack(x)
    tau = tau_permutation(data)
    assert tau.permute_rows(stacked) == tau.matrix(x.field) @ stacked
    assert embed_point(x, data) == Subspace.column_span(tau.matrix(x.field) @ stacked)


def test_permute_rows_of_a_partial_permutation_is_the_matrix_product():
    rng = random.Random(31)
    for w in all_partial_permutations(3):
        m = random_matrix(F, 3, 4, rng)
        assert w.permute_rows(m) == w.matrix(F) @ m
