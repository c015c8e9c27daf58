"""Schubert membership predicates, cell location, and orbit sampling."""

import random
from itertools import combinations

import pytest

from covex.errors import DimensionMismatchError, InputError
from covex.exactla import (
    ExactMatrix,
    FieldSpec,
    Subspace,
    coordinate_subspace,
    random_borel,
)
from covex.permcore import (
    PartialPermutation,
    all_partial_permutations,
    all_permutations,
    bruhat_leq,
    essential_set,
    random_partial_permutation,
    rank_matrix,
)
from covex.varieties import (
    Flag,
    GrassIndex,
    flag_schubert_violation,
    grass_condition_checks,
    grass_schubert_violation,
    locate_grass_cell,
    matrix_schubert_violation,
    sample_cell_point,
    southwest_profile,
)
from oracles import is_zero, random_matrix

F = FieldSpec.prime()


def in_flag_schubert(flag, w):
    return flag_schubert_violation(flag, w) is None


def in_grass_schubert(subspace, idx):
    return grass_schubert_violation(subspace, idx) is None


def locate_flag_cell(flag):
    """The unique permutation whose open cell contains the flag, read off
    the jump pattern of dim(F_j / E_{i-1})."""
    n = flag.n
    profile = southwest_profile(flag.generator)

    def prof(i, j):
        if i == n + 1 or j == 0:
            return 0
        return profile[i - 1][j - 1]

    image = [0] * n
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            if prof(i, j) - prof(i, j - 1) - prof(i + 1, j) + prof(i + 1, j - 1) == 1:
                image[j - 1] = i
    return PartialPermutation(n, tuple(image))


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
    assert matrix_schubert_violation(w.matrix(F), w) is None
    # n = 2 identity: membership is exactly x_21 = 0
    e2 = PartialPermutation.identity(2)
    for _ in range(20):
        x = random_matrix(F, 2, 2, rng)
        assert (matrix_schubert_violation(x, e2) is None) == (x.entries[1][0] == 0)
    w0 = PartialPermutation.longest(3)
    for _ in range(10):
        assert matrix_schubert_violation(random_matrix(F, 3, 3, rng), w0) is None


def test_matrix_membership_size_check():
    with pytest.raises(DimensionMismatchError):
        matrix_schubert_violation(ExactMatrix.zeros(F, 2, 2), PartialPermutation.identity(3))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Flag(ExactMatrix.zeros(F, 2, 3)), DimensionMismatchError,
         "flag generator must be square"),
        (lambda: GrassIndex(2, 3, (1,)), InputError, "index length differs from d"),
        (lambda: GrassIndex(2, 3, (2, 1)), InputError,
         "positions must strictly increase within 1..3"),
        (lambda: flag_schubert_violation(
            Flag(ExactMatrix.identity(F, 2)), PartialPermutation(2, (2, 0))
        ), InputError, "flag Schubert membership requires a permutation"),
        (lambda: grass_schubert_violation(coordinate_subspace(F, 2, [1]), GrassIndex(1, 3, (1,))),
         DimensionMismatchError, "ambient dimension differs from N"),
        (lambda: grass_schubert_violation(
            coordinate_subspace(F, 2, [1]), GrassIndex(2, 2, (1, 2))
        ), DimensionMismatchError, "subspace dimension 1 is not d=2"),
    ],
    ids=[
        "flag-not-square",
        "index-length",
        "index-order",
        "flag-partial-w",
        "grass-ambient",
        "grass-dimension",
    ],
)
def test_shape_and_argument_guards_raise_their_errors(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message


def test_essential_only_agrees_with_full():
    """The essential-set conditions alone cut out the matrix Schubert variety.

    The essential ranks are read off the row rule, and
    matrix_schubert_violation reads the whole rank table.  Besides 25
    uniform x over F for n <= 3, every partial permutation w with n <= 4 is
    checked at 12 x over each of F_2 and F_3, 6,048 pairs: 6 uniform x, and
    6 points of the open orbit of a random u, inside exactly when u <= w;
    4,499 of them lie outside."""
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
                assert (matrix_schubert_violation(x, w) is None) == essential_only
    rng = random.Random(50)
    outside = pairs = 0
    for field in (FieldSpec.prime(2), FieldSpec.prime(3)):
        for n in range(1, 5):
            for w in all_partial_permutations(n):
                essential = essential_set(w)
                xs = [random_matrix(field, n, n, rng) for _ in range(6)]
                us = [random_partial_permutation(n, rng) for _ in range(6)]
                xs += [sample_cell_point(u, field, rng) for u in us]
                for x in xs:
                    profile = southwest_profile(x)
                    essential_only = all(
                        profile[c.row - 1][c.col - 1] <= c.rank for c in essential
                    )
                    violation = matrix_schubert_violation(x, w)
                    assert essential_only == (violation is None), (x, w)
                    outside += violation is not None
                    pairs += 1
    assert pairs == 6048
    assert outside == 4499


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
            assert x.entries[i - 1][j - 1] == 0
    zero = PartialPermutation.zero(2)
    assert is_zero(sample_cell_point(zero, F, rng))
    # samples have exactly the rank profile of the orbit
    for w in all_partial_permutations(2):
        x = sample_cell_point(w, F, rng)
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
                assert (matrix_schubert_violation(x, w) is None) == bruhat_leq(u, w)


def test_invertible_samples_match_flag_membership():
    rng = random.Random(10)
    for n in (2, 3):
        for w in all_permutations(n):
            for u in all_permutations(n):
                x = sample_cell_point(u, F, rng)
                assert (matrix_schubert_violation(x, w) is None) == in_flag_schubert(Flag(x), w)


def test_membership_over_the_rationals():
    from fractions import Fraction

    Q = FieldSpec.rational()
    x = ExactMatrix.from_rows(Q, [[Fraction(1, 2), 3], [0, Fraction(-2, 7)]])
    assert matrix_schubert_violation(x, PartialPermutation.identity(2)) is None
    assert locate_flag_cell(Flag(x)) == PartialPermutation.identity(2)
    y = ExactMatrix.from_rows(Q, [[0, 1], [Fraction(5, 3), 0]])
    assert matrix_schubert_violation(y, PartialPermutation.identity(2)) is not None
    assert matrix_schubert_violation(y, PartialPermutation.longest(2)) is None
    v = Subspace.span(Q, 4, [(1, 0, Fraction(1, 3), 0), (0, 1, 0, 0)])
    assert locate_grass_cell(v).positions == (2, 3)
