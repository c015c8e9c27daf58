"""The fraction-free elimination over Q against Gaussian elimination on Fractions.

``reference_row_echelon`` is the elimination the package used over Q before
it went fraction-free: every pivot row is scaled by the inverse of its pivot
and subtracted from the other rows in `fractions.Fraction` arithmetic.  The
rank, the southwest profile, spans, kernels and inverses must agree with it,
and every integral entry that comes back must be a plain int, so a silent
fallback to Fraction scalars shows up here.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from covex.errors import SingularMatrixError
from covex.exactla import ExactMatrix, FieldSpec, Subspace, kernel

Q = FieldSpec.rational()


def reference_row_echelon(rows, reduced=False, pivot_limit=None):
    """Gaussian elimination over Q in Fraction arithmetic, unit pivots."""
    rows = [[Fraction(v) for v in row] for row in rows]
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
        inv = 1 / rows[r][c]
        row_r = rows[r] = [inv * v for v in rows[r]]
        for i in range(m) if reduced else range(r + 1, m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], row_r)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def reference_span(vectors):
    """(vectors, pivots) of the reduced echelon basis of the span."""
    reduced, pivots = reference_row_echelon(list(vectors), reduced=True)
    return tuple(tuple(reduced[i]) for i in range(len(pivots))), tuple(pivots)


def reference_profile(x):
    profile = []
    for i in range(x.rows):
        _, pivots = reference_row_echelon(x.entries[i:])
        profile.append(tuple(sum(1 for p in pivots if p < j) for j in range(1, x.cols + 1)))
    return tuple(profile)


def reference_kernel(x):
    reduced, pivots = reference_row_echelon(x.entries, reduced=True)
    vectors = []
    for free in (c for c in range(x.cols) if c not in pivots):
        vec = [Fraction(0)] * x.cols
        vec[free] = Fraction(1)
        for row, pivot in zip(reduced, pivots):
            vec[pivot] = -row[free]
        vectors.append(vec)
    return reference_span(vectors)


def assert_canonical(values):
    """Integral rationals are ints; a Fraction always has a denominator > 1."""
    for v in values:
        assert type(v) is int or (type(v) is Fraction and v.denominator > 1), repr(v)


def entries_of(vectors):
    return [v for vec in vectors for v in vec]


rationals = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 7)),
)


@st.composite
def rational_matrices(draw, max_rows=8, max_cols=16, square=False):
    """Matrices over Q with zero rows, repeated rows and rows that are multiples."""
    rows = draw(st.integers(1, max_rows))
    cols = rows if square else draw(st.integers(1, max_cols))
    entries = []
    for _ in range(rows):
        shape = draw(st.sampled_from(["fresh", "fresh", "zero", "repeat", "multiple"]))
        if shape == "zero":
            row = [0] * cols
        elif shape == "fresh" or not entries:
            row = [draw(rationals) for _ in range(cols)]
        else:
            row = list(draw(st.sampled_from(entries)))
            if shape == "multiple":
                f = draw(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)))
                row = [f * v for v in row]
        entries.append(row)
    return ExactMatrix.from_rows(Q, entries)


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_rank_and_profile_match_fraction_elimination(x):
    assert_canonical(entries_of(x.entries))
    assert x.rank() == len(reference_row_echelon(x.entries)[1])
    assert x.southwest_profile == reference_profile(x)


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_spans_match_fraction_elimination(x):
    span = Subspace.span(Q, x.cols, x.entries)
    assert (span.vectors, span.pivots) == reference_span(x.entries)
    assert_canonical(entries_of(span.vectors))
    columns = Subspace.column_span(x)
    assert (columns.vectors, columns.pivots) == reference_span(zip(*x.entries))
    assert_canonical(entries_of(columns.vectors))


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_kernel_matches_fraction_elimination(x):
    ker = kernel(x)
    assert (ker.vectors, ker.pivots) == reference_kernel(x)
    assert_canonical(entries_of(ker.vectors))
    assert ker.dim + x.rank() == x.cols


@settings(max_examples=150, deadline=None)
@given(rational_matrices(square=True))
def test_inverse_matches_fraction_elimination(x):
    n = x.rows
    augmented = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(x.entries)]
    reduced, pivots = reference_row_echelon(augmented, reduced=True, pivot_limit=n)
    if len(pivots) < n:
        with pytest.raises(SingularMatrixError):
            x.inverse()
        return
    inverse = x.inverse()
    assert inverse.entries == tuple(tuple(row[n:]) for row in reduced)
    assert_canonical(entries_of(inverse.entries))
    assert inverse @ x == ExactMatrix.identity(Q, n)


def test_scalars_are_ints_when_integral():
    assert type(Q.coerce(Fraction(6, 3))) is int and Q.coerce(Fraction(6, 3)) == 2
    assert type(Q.coerce(Fraction(1, 3))) is Fraction
    assert type(Q.zero()) is int and type(Q.one()) is int
    assert type(Q.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert type(Q.inv(Fraction(1, 4))) is int and Q.inv(Fraction(1, 4)) == 4
    half = ExactMatrix.from_rows(Q, [[Fraction(1, 2), 0], [0, 2]])
    assert_canonical(entries_of((half @ half.inverse()).entries))
