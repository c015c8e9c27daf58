"""Every elimination in exactla against textbook Gaussian elimination.

``reference_row_echelon`` swaps rows and scales every pivot row by the
inverse of its pivot, in `fractions.Fraction` arithmetic over Q (the
elimination the package used over Q before it went fraction-free) and mod p
over F_p.  The rank, the southwest profile, spans, kernels and inverses must
agree with it, over Q and over F_2, F_5 and F_10007 on random matrices, and
over every 3 x 3 matrix over F_2 and every 2 x 3 matrix over F_3.  Over Q
every integral entry that comes back must be a plain int, so a silent
fallback to Fraction scalars shows up here.  Over F_p the row insertion
takes unreduced integers; rows shifted by multiples of p, negative ones
included, must give the same pivots, the same canonical basis and the
reference rank and profile.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from covex.errors import FieldError, SingularMatrixError
from covex.exactla import ExactMatrix, FieldSpec, Subspace, _insert

from oracles import kernel, matrix_difference, matrix_negation, matrix_sum
from scale import sized

Q = FieldSpec.rational()
FIELDS = (Q, FieldSpec.prime(2), FieldSpec.prime(5), FieldSpec.prime())
EXAMPLES = 600  # about 150 per field


def reference_row_echelon(rows, field=Q, reduced=False, pivot_limit=None):
    """Gaussian elimination with unit pivots, in Fractions over Q and mod p over F_p."""
    p = field.p
    norm = Fraction if p is None else (lambda v: v % p)
    rows = [[norm(v) for v in row] for row in rows]
    if not rows:
        return rows, []
    m, n = len(rows), len(rows[0])
    limit = n if pivot_limit is None else pivot_limit
    pivots = []
    r = 0
    for c in range(limit):
        sel = next((i for i in range(r, m) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = 1 / rows[r][c] if p is None else pow(rows[r][c], -1, p)
        row_r = rows[r] = [norm(inv * v) for v in rows[r]]
        for i in range(m) if reduced else range(r + 1, m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [norm(a - f * b) for a, b in zip(rows[i], row_r)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def reference_span(vectors, field=Q):
    """(vectors, pivots) of the reduced echelon basis of the span."""
    reduced, pivots = reference_row_echelon(list(vectors), field, reduced=True)
    return tuple(tuple(reduced[i]) for i in range(len(pivots))), tuple(pivots)


def reference_profile(x):
    profile = []
    for i in range(x.rows):
        _, pivots = reference_row_echelon(x.entries[i:], x.field)
        profile.append(tuple(sum(1 for p in pivots if p < j) for j in range(1, x.cols + 1)))
    return tuple(profile)


def reference_kernel(x):
    reduced, pivots = reference_row_echelon(x.entries, x.field, reduced=True)
    vectors = []
    for free in (c for c in range(x.cols) if c not in pivots):
        vec = [0] * x.cols
        vec[free] = 1
        for row, pivot in zip(reduced, pivots):
            vec[pivot] = -row[free]
        vectors.append(vec)
    return reference_span(vectors, x.field)


def reference_inverse(x):
    """The right half of the reduced form of [x | I], or None if x is singular."""
    n = x.rows
    augmented = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(x.entries)]
    reduced, pivots = reference_row_echelon(augmented, x.field, reduced=True, pivot_limit=n)
    if len(pivots) < n:
        return None
    return tuple(tuple(row[n:]) for row in reduced)


def assert_canonical(values, field=Q):
    """Integral rationals are ints and a Fraction has a denominator > 1; F_p holds 0..p-1."""
    for v in values:
        if field.is_prime:
            assert type(v) is int and 0 <= v < field.p, repr(v)
        else:
            assert type(v) is int or (type(v) is Fraction and v.denominator > 1), repr(v)


def entries_of(vectors):
    return [v for vec in vectors for v in vec]


rationals = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 7)),
)


@st.composite
def matrices(draw, max_rows=8, max_cols=16, square=False):
    """Matrices over Q or F_p with zero rows, repeated rows and rows that are multiples."""
    field = draw(st.sampled_from(FIELDS))
    if field == Q:
        scalars, factors = rationals, st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
    else:
        scalars = factors = st.integers(0, field.p - 1)
    rows = draw(st.integers(1, max_rows))
    cols = rows if square else draw(st.integers(1, max_cols))
    entries = []
    for _ in range(rows):
        shape = draw(st.sampled_from(["fresh", "fresh", "zero", "repeat", "multiple"]))
        if shape == "zero":
            row = [0] * cols
        elif shape == "fresh" or not entries:
            row = [draw(scalars) for _ in range(cols)]
        else:
            row = list(draw(st.sampled_from(entries)))
            if shape == "multiple":
                f = draw(factors)
                row = [f * v for v in row]
        entries.append(row)
    return ExactMatrix.from_rows(field, entries)


@settings(max_examples=EXAMPLES, deadline=None)
@given(matrices())
def test_rank_and_profile_match_fraction_elimination(x):
    assert_canonical(entries_of(x.entries), x.field)
    assert x.rank() == len(reference_row_echelon(x.entries, x.field)[1])
    assert x.southwest_profile == reference_profile(x)


@settings(max_examples=EXAMPLES, deadline=None)
@given(matrices())
def test_spans_match_fraction_elimination(x):
    span = Subspace.span(x.field, x.cols, x.entries)
    assert (span.vectors, span.pivots) == reference_span(x.entries, x.field)
    assert_canonical(entries_of(span.vectors), x.field)
    columns = Subspace.column_span(x)
    assert (columns.vectors, columns.pivots) == reference_span(zip(*x.entries), x.field)
    assert_canonical(entries_of(columns.vectors), x.field)


@settings(max_examples=EXAMPLES, deadline=None)
@given(matrices())
def test_kernel_matches_fraction_elimination(x):
    ker = kernel(x)
    assert (ker.vectors, ker.pivots) == reference_kernel(x)
    assert_canonical(entries_of(ker.vectors), x.field)
    assert ker.dim + x.rank() == x.cols


@settings(max_examples=EXAMPLES, deadline=None)
@given(matrices(square=True))
def test_inverse_matches_fraction_elimination(x):
    expected = reference_inverse(x)
    if expected is None:
        with pytest.raises(SingularMatrixError):
            x.inverse()
        return
    inverse = x.inverse()
    assert inverse.entries == expected
    assert_canonical(entries_of(inverse.entries), x.field)
    assert inverse @ x == ExactMatrix.identity(x.field, x.rows)


# CI adds every 4 x 4 matrix over F_2 (65,536).
@pytest.mark.parametrize(
    "p, m, n", sized([(2, 3, 3), (3, 2, 3)], [(2, 3, 3), (2, 4, 4), (3, 2, 3)])
)
def test_exhaustive_small_matrices_match_reference(p, m, n):
    """Every m x n matrix over F_p, and every vector against its row span."""
    field = FieldSpec.prime(p)
    vectors = list(itertools.product(range(p), repeat=n))
    for entries in itertools.product(vectors, repeat=m):
        x = ExactMatrix(field, entries)
        rank = len(reference_row_echelon(entries, field)[1])
        assert x.rank() == rank
        assert x.southwest_profile == reference_profile(x)
        span = Subspace.span(field, n, entries)
        assert (span.vectors, span.pivots) == reference_span(entries, field)
        columns = Subspace.column_span(x)
        assert (columns.vectors, columns.pivots) == reference_span(zip(*entries), field)
        ker = kernel(x)
        assert (ker.vectors, ker.pivots) == reference_kernel(x)
        if m == n:
            expected = reference_inverse(x)
            if expected is None:
                with pytest.raises(SingularMatrixError):
                    x.inverse()
            else:
                assert x.inverse().entries == expected
        # the row space by brute force: it has p^rank vectors, and a vector
        # outside it makes the rank grow
        row_space = {(0,) * n}
        for row in entries:
            row_space = {
                tuple((a + c * b) % p for a, b in zip(s, row)) for s in row_space for c in range(p)
            }
        assert len(row_space) == p**rank
        for v in vectors:
            assert span.contains_vector(v) is (v in row_space)


def test_scalars_are_ints_when_integral():
    assert type(Q.coerce(Fraction(6, 3))) is int and Q.coerce(Fraction(6, 3)) == 2
    assert type(Q.coerce(Fraction(1, 3))) is Fraction
    halves = ExactMatrix.from_rows(Q, [[Fraction(1, 2), Fraction(-1, 3)]])
    twice = matrix_sum(halves, halves)
    assert twice.entries == ((1, Fraction(-2, 3)),)
    for m in (twice, matrix_difference(halves, halves), matrix_negation(twice)):
        assert_canonical(entries_of(m.entries))
    half = ExactMatrix.from_rows(Q, [[Fraction(1, 2), 0], [0, 2]])
    assert_canonical(entries_of((half @ half.inverse()).entries))


@pytest.mark.parametrize("field", [FieldSpec.prime(7), Q], ids=str)
def test_coerce_reads_every_value_as_a_fraction(field):
    """A value other than an int is read exactly by Fraction, then reduced:
    over F_7, 2.5 = 5/2 is 5 * 4 = 6, not a truncation to 2."""
    half = 4 if field.p else Fraction(1, 2)
    assert field.coerce(0.5) == field.coerce("1/2") == field.coerce(Fraction(1, 2)) == half
    assert field.coerce(2.5) == field.coerce("5/2") == (6 if field.p else Fraction(5, 2))
    assert ExactMatrix.from_rows(field, [[2.5, 1], [0, 1]]) == ExactMatrix.from_rows(
        field, [[Fraction(5, 2), 1], [0, 1]]
    )
    assert type(field.coerce(4.0)) is int and field.coerce(4.0) == 4
    for bad in (float("nan"), float("inf"), "abc", "1/0", None):
        with pytest.raises(FieldError):
            field.coerce(bad)
    if field.p:
        with pytest.raises(FieldError, match="denominator"):
            field.coerce(Fraction(1, 7))


UNREDUCED_FIELDS = tuple(FieldSpec.prime(p) for p in (2, 3, 10007, 10**24 + 7))


@st.composite
def shifted_matrices(draw, max_rows=6, max_cols=8):
    """(x, shifted): a matrix over F_p with zero, repeated and multiple rows,
    and the same matrix plus p times a random integer matrix, which may be
    negative and may carry entries far beyond p."""
    field = draw(st.sampled_from(UNREDUCED_FIELDS))
    p = field.p
    scalars = st.integers(0, p - 1)
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    entries = []
    for _ in range(rows):
        shape = draw(st.sampled_from(["fresh", "fresh", "zero", "repeat", "multiple"]))
        if shape == "zero":
            row = [0] * cols
        elif shape == "fresh" or not entries:
            row = [draw(scalars) for _ in range(cols)]
        else:
            row = list(draw(st.sampled_from(entries)))
            if shape == "multiple":
                f = draw(scalars)
                row = [f * v % p for v in row]
        entries.append(row)
    multipliers = st.one_of(st.integers(-3, 3), st.integers(-(p**2), p**2))
    shifted = [[v + p * draw(multipliers) for v in row] for row in entries]
    x = ExactMatrix(field, tuple(map(tuple, entries)))
    return x, ExactMatrix(field, tuple(map(tuple, shifted)))


@settings(max_examples=EXAMPLES, deadline=None)
@given(shifted_matrices())
def test_insertion_of_unreduced_rows_over_fp(pair):
    x, shifted = pair
    p = x.field.p
    for order in (list, lambda rows: list(reversed(rows))):
        reduced_basis, shifted_basis = {}, {}
        for row, unreduced in zip(order(x.entries), order(shifted.entries)):
            pivot = _insert(reduced_basis, row, p)
            assert _insert(shifted_basis, unreduced, p) == pivot
            assert shifted_basis == reduced_basis
            for c, stored in shifted_basis.items():
                assert stored[c] == 1 and all(0 <= v < p for v in stored)
    assert shifted.rank() == x.rank() == len(reference_row_echelon(x.entries, x.field)[1])
    assert shifted.southwest_profile == x.southwest_profile == reference_profile(x)
