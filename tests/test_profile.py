"""The one-pass southwest profile and the dim(V + E_t) helper against
independent eliminations.

The profile's oracle eliminates every row suffix separately with the
textbook elimination of test_exactla_rational, not with the package's.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from covex.exactla import (
    ExactMatrix,
    FieldSpec,
    Subspace,
)
from covex.varieties import southwest_profile
from oracles import subspace_sum
from test_exactla import standard_subspace
from test_exactla_rational import reference_profile

FIELDS = (FieldSpec.prime(2), FieldSpec.prime(5), FieldSpec.prime(), FieldSpec.rational())


@st.composite
def scalars(draw, field):
    if field.is_prime:
        return field.coerce(draw(st.integers(-3, 3)))
    return Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))


@st.composite
def low_rank_matrices(draw, max_rows=6, max_cols=7):
    """A rows x cols matrix of rank at most k, as a product of two factors.

    The factors are built by hand, so 0 rows, 0 columns and k = 0 keep the
    declared column count.
    """
    field = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    k = draw(st.integers(0, max(rows, cols)))
    a = [[draw(scalars(field)) for _ in range(k)] for _ in range(rows)]
    b = [[draw(scalars(field)) for _ in range(cols)] for _ in range(k)]
    entries = [
        [field.coerce(sum(a[i][t] * b[t][j] for t in range(k))) for j in range(cols)]
        for i in range(rows)
    ]
    return ExactMatrix(field, tuple(tuple(row) for row in entries))


@settings(max_examples=300, deadline=None)
@given(low_rank_matrices())
def test_profile_matches_per_row_elimination(x):
    profile = southwest_profile(x)
    assert profile == reference_profile(x)
    assert len(profile) == x.rows
    assert all(len(row) == x.cols for row in profile)


def test_profile_edge_shapes():
    for field in FIELDS:
        assert southwest_profile(ExactMatrix(field, ())) == ()
        no_cols = ExactMatrix(field, ((), (), ()))
        assert southwest_profile(no_cols) == ((), (), ())
        zero = ExactMatrix.zeros(field, 3, 4)
        assert southwest_profile(zero) == ((0, 0, 0, 0),) * 3


@st.composite
def subspaces(draw, max_ambient=7):
    field = draw(st.sampled_from(FIELDS))
    N = draw(st.integers(1, max_ambient))
    kind = draw(st.sampled_from(("zero", "full", "span")))
    if kind == "zero":
        return Subspace.zero(field, N)
    if kind == "full":
        return standard_subspace(field, N, N)
    d = draw(st.integers(0, N))
    vectors = [[draw(scalars(field)) for _ in range(N)] for _ in range(d)]
    return Subspace.span(field, N, vectors)


@settings(max_examples=300, deadline=None)
@given(subspaces())
def test_standard_sum_dims_matches_subspace_sum(v):
    N = v.ambient
    expected = tuple(
        subspace_sum(v, standard_subspace(v.field, N, t)).dim for t in range(N + 1)
    )
    assert v.sum_dims == expected
