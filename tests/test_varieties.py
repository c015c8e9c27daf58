"""Schubert membership predicates, cell location, and orbit sampling."""

import random
from itertools import combinations

import pytest

from covex.errors import DimensionMismatchError
from covex.exactla import (
    ExactMatrix,
    FieldSpec,
    Subspace,
    coordinate_subspace,
    random_borel,
    random_matrix,
)
from covex.permcore import (
    PartialPermutation,
    all_partial_permutations,
    all_permutations,
    bruhat_leq,
    essential_set,
    rank_matrix,
)
from covex.varieties import (
    Flag,
    GrassIndex,
    grass_condition_checks,
    in_flag_schubert,
    in_grass_schubert,
    in_matrix_schubert,
    in_matrix_schubert_cell,
    locate_flag_cell,
    locate_grass_cell,
    sample_cell_point,
    southwest_profile,
)

F = FieldSpec.prime()


def sample_flag(w, field, rng):
    """A random flag in the open Schubert cell of the permutation w."""
    assert w.is_full_rank
    return Flag(sample_cell_point(w, field, rng))


def standard_flag(field, n):
    """The flag E_1 < E_2 < ... of coordinate subspaces."""
    return Flag(ExactMatrix.identity(field, n))


def test_matrix_membership_fixtures():
    rng = random.Random(1)
    w = PartialPermutation.from_one_line("2143")
    assert in_matrix_schubert(w.matrix(F), w)
    # n = 2 identity: membership is exactly x_21 = 0
    e2 = PartialPermutation.identity(2)
    for _ in range(20):
        x = random_matrix(F, 2, 2, rng)
        assert in_matrix_schubert(x, e2) == (x.entry(2, 1) == 0)
    w0 = PartialPermutation.longest(3)
    for _ in range(10):
        assert in_matrix_schubert(random_matrix(F, 3, 3, rng), w0)


def test_matrix_membership_size_check():
    with pytest.raises(DimensionMismatchError):
        in_matrix_schubert(ExactMatrix.zeros(F, 2, 2), PartialPermutation.identity(3))


def test_essential_only_agrees_with_full():
    """The essential-set conditions alone cut out the matrix Schubert variety."""
    rng = random.Random(2)
    for n in (1, 2, 3):
        for w in all_partial_permutations(n):
            essential = essential_set(w)
            for _ in range(25):
                x = random_matrix(F, n, n, rng)
                profile = southwest_profile(x)
                essential_only = all(
                    profile[c.row - 1][c.col - 1] <= c.rank for c in essential
                )
                assert in_matrix_schubert(x, w) == essential_only


def test_flag_membership_fixtures():
    rng = random.Random(3)
    for w in all_permutations(3):
        assert in_flag_schubert(Flag(w.matrix(F)), w)
        assert in_flag_schubert(standard_flag(F, 3), w)
    # the full flag w0 E is not in the Schubert variety of the identity
    w0 = PartialPermutation.longest(2)
    assert not in_flag_schubert(Flag(w0.matrix(F)), PartialPermutation.identity(2))


def test_grass_membership_fixtures():
    idx = GrassIndex(2, 4, (1, 3))
    assert in_grass_schubert(coordinate_subspace(F, 4, [1, 3]), idx)
    assert not in_grass_schubert(coordinate_subspace(F, 4, [3, 4]), idx)
    top = GrassIndex(2, 4, (3, 4))
    assert in_grass_schubert(coordinate_subspace(F, 4, [3, 4]), top)
    # containment of varieties is componentwise comparison of indices
    assert idx.leq(top) and not top.leq(idx)


def test_grass_condition_checks_fixture():
    v = coordinate_subspace(F, 4, [1, 3])
    assert grass_condition_checks(v, [(0, 0), (2, 1), (2, 0), (4, 2)]) == (
        (0, 2, 2, True),
        (2, 3, 3, True),
        (2, 3, 2, False),
        (4, 4, 4, True),
    )
    for conditions in ([(5, 1)], [(-1, 0)]):
        with pytest.raises(DimensionMismatchError, match="0..4"):
            grass_condition_checks(v, conditions)


def test_grass_membership_is_the_bruhat_order_of_located_cells():
    """For all d-subsets S, T of 1..N with N <= 6, at two Borel translates V
    of E_S over F_7: V lies in the cell S, and in the Schubert variety of T
    exactly when S <= T componentwise."""
    field = FieldSpec.prime(7)
    rng = random.Random(41)
    checks = 0
    for N in range(1, 7):
        for d in range(N + 1):
            cells = [GrassIndex(d, N, s) for s in combinations(range(1, N + 1), d)]
            for cell in cells:
                for _ in range(2):
                    v = coordinate_subspace(field, N, cell.positions).apply(
                        random_borel(field, N, rng)
                    )
                    located = locate_grass_cell(v)
                    assert located == cell
                    for other in cells:
                        assert in_grass_schubert(v, other) == located.leq(other)
                        checks += 1
    assert checks == 2548


def redundancy_free(idx):
    """Positions i whose condition is not implied by condition i+1."""
    return tuple(
        i
        for i in range(1, idx.d + 1)
        if i == idx.d or idx.positions[i] != idx.positions[i - 1] + 1
    )


def test_grass_minimal_mode_agrees():
    """The redundancy-free conditions alone cut out the Schubert variety."""
    rng = random.Random(4)
    for _ in range(40):
        vecs = [[rng.randrange(F.p) for _ in range(5)] for _ in range(2)]
        v = Subspace.span(F, 5, vecs)
        if v.dim != 2:
            continue
        idx = GrassIndex(2, 5, (2, 4))
        dims = v.sum_dims
        minimal_only = all(
            dims[idx.positions[i - 1]] <= idx.d + idx.positions[i - 1] - i
            for i in redundancy_free(idx)
        )
        assert in_grass_schubert(v, idx) == minimal_only


def test_locate_flag_cell():
    rng = random.Random(5)
    for w in all_permutations(3):
        assert locate_flag_cell(Flag(w.matrix(F))) == w
        for _ in range(4):
            assert locate_flag_cell(sample_flag(w, F, rng)) == w
    assert locate_flag_cell(standard_flag(F, 4)) == PartialPermutation.identity(4)


def test_locate_flag_cell_is_minimal_membership():
    rng = random.Random(6)
    for w in all_permutations(3):
        flag = sample_flag(w, F, rng)
        assert in_flag_schubert(flag, w)
        for other in all_permutations(3):
            if bruhat_leq(w, other):
                assert in_flag_schubert(flag, other)
            else:
                assert not in_flag_schubert(flag, other)


def test_locate_grass_cell():
    assert locate_grass_cell(coordinate_subspace(F, 4, [2, 4])).positions == (2, 4)
    rng = random.Random(7)
    # invariance under upper-triangular translation
    v = Subspace.span(F, 4, [(1, 0, 2, 0), (0, 1, 0, 5)])
    base = locate_grass_cell(v).positions
    for _ in range(10):
        b = random_borel(F, 4, rng)
        assert locate_grass_cell(v.apply(b)).positions == base


def test_sample_cell_point():
    rng = random.Random(8)
    w0 = PartialPermutation.longest(3)
    assert sample_cell_point(w0, F, rng).rank() == 3
    e = PartialPermutation.identity(3)
    x = sample_cell_point(e, F, rng)
    for i in range(1, 4):
        for j in range(1, i):
            assert x.entry(i, j) == 0
    zero = PartialPermutation.zero(2)
    assert sample_cell_point(zero, F, rng).is_zero()
    # samples have exactly the rank profile of the orbit
    for w in all_partial_permutations(2):
        x = sample_cell_point(w, F, rng)
        assert in_matrix_schubert_cell(x, w)
        assert southwest_profile(x) == rank_matrix(w).entries


def test_sample_cell_point_is_the_borel_product():
    """sample_cell_point gathers the columns of b_l by w and multiplies by b_r
    once: the same matrix as b_l @ w.matrix @ b_r drawn from a twin generator,
    which ends in the same state."""
    for field in (FieldSpec.prime(2), FieldSpec.prime(3), F):
        for n in (1, 2, 3, 4):
            for k, w in enumerate(all_partial_permutations(n)):
                rng, twin = random.Random(k), random.Random(k)
                x = sample_cell_point(w, field, rng)
                b_l = random_borel(field, n, twin)
                b_r = random_borel(field, n, twin)
                assert x == b_l @ w.matrix(field) @ b_r
                assert rng.getstate() == twin.getstate()


def test_bruhat_monotone_sampling():
    rng = random.Random(9)
    for n in (2, 3):
        perms = list(all_partial_permutations(n))
        for u in perms:
            x = sample_cell_point(u, F, rng)
            for w in perms:
                assert in_matrix_schubert(x, w) == bruhat_leq(u, w)


def test_invertible_samples_match_flag_membership():
    rng = random.Random(10)
    for n in (2, 3):
        for w in all_permutations(n):
            for u in all_permutations(n):
                x = sample_cell_point(u, F, rng)
                assert in_matrix_schubert(x, w) == in_flag_schubert(Flag(x), w)


def test_membership_over_the_rationals():
    from fractions import Fraction

    Q = FieldSpec.rational()
    x = ExactMatrix.from_rows(Q, [[Fraction(1, 2), 3], [0, Fraction(-2, 7)]])
    assert in_matrix_schubert(x, PartialPermutation.identity(2))
    assert locate_flag_cell(Flag(x)) == PartialPermutation.identity(2)
    y = ExactMatrix.from_rows(Q, [[0, 1], [Fraction(5, 3), 0]])
    assert not in_matrix_schubert(y, PartialPermutation.identity(2))
    assert in_matrix_schubert(y, PartialPermutation.longest(2))
    v = Subspace.span(Q, 4, [(1, 0, Fraction(1, 3), 0), (0, 1, 0, 0)])
    assert locate_grass_cell(v).positions == (2, 3)
