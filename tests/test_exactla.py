"""Exact linear algebra: ranks, subspace lattice identities, canonicity."""

import pickle
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from covex.errors import DimensionMismatchError, FieldError, SingularMatrixError
from covex.exactla import (
    MAX_PRIME_MODULUS,
    ExactMatrix,
    FieldSpec,
    Subspace,
    _draws,
    _is_prime,
    _lane_bits,
    _pack,
    _packed_profile,
    _residues,
    _southwest_profile,
    coordinate_subspace,
    random_borel,
)
from oracles import blocks, kernel, matrix_negation, random_matrix, submatrix, subspace_sum

F = FieldSpec.prime()
Q = FieldSpec.rational()


def transpose(a):
    return ExactMatrix(a.field, tuple(zip(*a.entries)))


def standard_subspace(field, ambient, j):
    """E_j = span(e_1, ..., e_j).  E_0 is the zero subspace."""
    return coordinate_subspace(field, ambient, range(1, j + 1))


def subspace_intersect(a, b):
    """Intersection, computed from the kernel of the glued basis matrix."""
    a._check_compatible(b)
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.field, a.ambient)
    f = a.field
    glued = blocks([[a.basis_matrix, matrix_negation(b.basis_matrix)]])
    vectors = []
    for coeffs in kernel(glued).vectors:
        vec = [0] * a.ambient
        for c, basis_vec in zip(coeffs[: a.dim], a.vectors):
            if c:
                vec = [x + c * y for x, y in zip(vec, basis_vec)]
        vectors.append(vec)
    return Subspace.span(f, a.ambient, vectors)  # span reduces the entries into the field


def dim_quotient(v, w):
    """Dimension of the image of V in ambient/W, i.e. dim(V+W) - dim(W)."""
    v._check_compatible(w)
    return subspace_sum(v, w).dim - w.dim


MIXED_FIELDS = [(FieldSpec.prime(3), FieldSpec.prime(5)), (F, Q), (Q, FieldSpec.prime(3))]


@pytest.mark.parametrize("left, right", MIXED_FIELDS)
@pytest.mark.parametrize(
    "operation",
    [
        lambda a, b: a @ b,
        # the oracles' block matrices, which glue the intersection and graph matrices
        lambda a, b: blocks([[a, b]]),
        lambda a, b: blocks([[a], [b]]),
    ],
    ids=["matmul", "hstack", "vstack"],
)
def test_matrix_operations_refuse_operands_over_different_fields(operation, left, right):
    a = ExactMatrix.from_rows(left, [[1, 1], [0, 1]])
    b = ExactMatrix.from_rows(right, [[4, 0], [0, 4]])
    with pytest.raises(FieldError, match="different fields"):
        operation(a, b)
    with pytest.raises(FieldError, match="different fields"):
        operation(b, a)
    assert operation(a, ExactMatrix.from_rows(left, [[4, 0], [0, 4]])).field == left


@pytest.mark.parametrize("left, right", MIXED_FIELDS)
@pytest.mark.parametrize(
    "operation, same_field",
    [(lambda a, b: subspace_sum(a, b).dim, 2), (lambda a, b: a.contains(b), False)],
    ids=["subspace_sum", "contains"],
)
def test_subspace_operations_refuse_operands_over_different_fields(
    operation, same_field, left, right
):
    a = coordinate_subspace(left, 3, [1])
    b = coordinate_subspace(right, 3, [1, 2])
    with pytest.raises(FieldError, match="different fields"):
        operation(a, b)
    with pytest.raises(FieldError, match="different fields"):
        operation(b, a)
    # one field, two ambient dimensions: still a dimension error
    with pytest.raises(DimensionMismatchError, match="different ambient spaces"):
        operation(a, coordinate_subspace(left, 4, [1]))
    assert operation(a, coordinate_subspace(left, 3, [1, 2])) == same_field


def test_field_parsing():
    assert FieldSpec.parse("Q") == Q
    assert FieldSpec.parse("p:10007") == F
    with pytest.raises(FieldError):
        FieldSpec.parse("p:10008")
    with pytest.raises(FieldError):
        FieldSpec.parse("float")


def test_a_field_is_its_modulus():
    from covex.suites import SuiteConfig

    assert F == FieldSpec(10007) and Q == FieldSpec(None)
    assert FieldSpec.prime(7) != Q and FieldSpec.prime(7).p == 7 and Q.p is None
    assert F.is_prime and not Q.is_prime
    for p in (None, 1, 561):
        with pytest.raises(FieldError, match="not prime"):
            FieldSpec.prime(p)
    # a suite never runs over Q by accident
    with pytest.raises(FieldError):
        SuiteConfig("embed-thm", prime=None).resolved()
    for field in (F, Q, FieldSpec.prime(2)):
        back = pickle.loads(pickle.dumps(field))
        assert back == field and hash(back) == hash(field)


def test_rank_trivia():
    assert ExactMatrix.zeros(F, 3, 5).rank() == 0
    assert ExactMatrix.identity(F, 4).rank() == 4
    assert ExactMatrix.identity(Q, 4).rank() == 4


def test_rank_of_conormal_block_example():
    # the 4x4 matrix ((yx, y), (xyx, xy)) at x = I, y = E_12: all blocks E_12
    e12 = [[0, 1], [0, 0]]
    m = ExactMatrix.from_rows(
        F, [row + row for row in e12] + [row + row for row in e12]
    )
    assert m.rank() == 1


def _random_mat(rng, rows, cols):
    return random_matrix(F, rows, cols, rng)


def test_rank_invariances():
    rng = random.Random(5)
    for _ in range(40):
        a = _random_mat(rng, rng.randrange(1, 6), rng.randrange(1, 6))
        assert a.rank() == transpose(a).rank()
        rows = list(range(1, a.rows + 1))
        cols = list(range(1, a.cols + 1))
        rng.shuffle(rows)
        rng.shuffle(cols)
        assert submatrix(a, rows, cols).rank() == a.rank()


@pytest.mark.parametrize("field", [FieldSpec.prime(2), F, Q], ids=str)
def test_coordinate_subspace_is_the_span_of_its_unit_vectors(field):
    """coordinate_subspace builds its echelon basis without elimination; it
    equals Subspace.span of the same unit vectors for every tuple of
    indices with ambient <= 5, repeated and unsorted indices included, and
    refuses an index outside 1..ambient."""
    for ambient in range(1, 6):
        units = [tuple(int(k == i) for k in range(ambient)) for i in range(ambient)]
        for length in range(ambient + 1):
            for indices in product(range(1, ambient + 1), repeat=length):
                expected = Subspace.span(field, ambient, [units[i - 1] for i in indices])
                assert coordinate_subspace(field, ambient, indices) == expected
        for bad in (0, ambient + 1):
            with pytest.raises(DimensionMismatchError, match="outside"):
                coordinate_subspace(field, ambient, [1, bad])


def test_dim_quotient_fixtures():
    v = coordinate_subspace(F, 2, [1])
    w = coordinate_subspace(F, 2, [2])
    assert dim_quotient(v, w) == 1
    big = standard_subspace(F, 4, 3)
    small = standard_subspace(F, 4, 2)
    assert dim_quotient(small, big) == 0
    # w E_2 / E_2 for w = [2143] has dimension 0
    e2 = standard_subspace(F, 4, 2)
    w_e2 = Subspace.span(F, 4, [(0, 1, 0, 0), (1, 0, 0, 0)])
    assert dim_quotient(w_e2, e2) == 0


def test_subspace_trivia():
    v = Subspace.span(F, 3, [(1, 2, 3)])
    assert subspace_sum(v, Subspace.zero(F, 3)) == v
    assert subspace_intersect(standard_subspace(F, 5, 3), standard_subspace(F, 5, 2)) == standard_subspace(F, 5, 2)
    a = ExactMatrix.from_rows(F, [[7]])
    assert kernel(a).dim == 0
    assert Subspace.column_span(a).dim == 1


def test_subspace_canonicity():
    rng = random.Random(11)
    for _ in range(30):
        dim = rng.randrange(1, 4)
        vecs = [[rng.randrange(F.p) for _ in range(5)] for _ in range(dim)]
        v = Subspace.span(F, 5, vecs)
        # mix the generators by random invertible combinations
        mixer = random_borel(F, v.dim, rng)
        mixed = transpose(v.basis_matrix @ mixer).entries
        assert Subspace.span(F, 5, mixed) == v


def test_dimension_identity():
    rng = random.Random(17)
    for _ in range(50):
        v = Subspace.span(F, 6, [[rng.randrange(F.p) for _ in range(6)] for _ in range(rng.randrange(4))])
        w = Subspace.span(F, 6, [[rng.randrange(F.p) for _ in range(6)] for _ in range(rng.randrange(4))])
        assert subspace_sum(v, w).dim + subspace_intersect(v, w).dim == v.dim + w.dim


def test_rank_kernel_dimension():
    rng = random.Random(23)
    for _ in range(30):
        a = _random_mat(rng, rng.randrange(1, 6), rng.randrange(1, 6))
        assert a.rank() + kernel(a).dim == a.cols
        assert Subspace.column_span(a).dim == a.rank()


def test_generic_invertibility_frequency():
    rng = random.Random(404)
    trials = 1000
    invertible = sum(
        1 for _ in range(trials) if random_matrix(F, 8, 8, rng).rank() == 8
    )
    assert invertible / trials >= 0.99


def test_random_borel_properties():
    rng = random.Random(31)
    for n in (1, 3, 5):
        b = random_borel(F, n, rng)
        assert b.rank() == n
        for i in range(1, n + 1):
            for j in range(1, i):
                assert b.entries[i - 1][j - 1] == 0
        c = random_borel(F, n, rng)
        prod = b @ c
        for i in range(1, n + 1):
            for j in range(1, i):
                assert prod.entries[i - 1][j - 1] == 0
    # determinism under a fixed seed
    assert random_borel(F, 4, random.Random(9)) == random_borel(F, 4, random.Random(9))


# 2^61 - 1 is a Mersenne prime and 2^64 + 13 the first prime above 2^64
DRAW_BOUNDS = (1, 2, 3, 10006, 10007, 2**61 - 1, 2**64 + 13)


def test_draws_reproduce_randrange():
    """_draws(rng, b, k) is [rng.randrange(b) for _ in range(k)] and leaves the
    generator in the same state; 1 + a draw below b - 1 is randrange(1, b), the
    Borel diagonal.  If a Python release changes randrange, this fails first."""
    assert all(_is_prime(b) for b in DRAW_BOUNDS[4:])
    for seed in range(5):
        for b in DRAW_BOUNDS:
            ours, theirs = random.Random(seed), random.Random(seed)
            assert _draws(ours, b, 40) == [theirs.randrange(b) for _ in range(40)]
            if b > 1:
                diagonal = [1 + v for v in _draws(ours, b - 1, 10)]
                assert diagonal == [theirs.randrange(1, b) for _ in range(10)]
            assert ours.getstate() == theirs.getstate()


def test_samplers_reproduce_randrange():
    """random_matrix and random_borel draw exactly what randrange drew, in
    row-major order, the Borel diagonal before the entries right of it."""
    for seed in range(5):
        for field in (FieldSpec.prime(2), FieldSpec.prime(3), F):
            p = field.p
            ours, theirs = random.Random(seed), random.Random(seed)
            for rows, cols in ((3, 4), (1, 1), (2, 0)):
                expected = [[theirs.randrange(p) for _ in range(cols)] for _ in range(rows)]
                assert random_matrix(field, rows, cols, ours) == ExactMatrix.from_rows(field, expected)
            for n in (1, 4):
                expected = [
                    [theirs.randrange(1, p) if j == i else theirs.randrange(p) if j > i else 0
                     for j in range(n)]
                    for i in range(n)
                ]
                assert random_borel(field, n, ours) == ExactMatrix.from_rows(field, expected)
            assert ours.getstate() == theirs.getstate()


def test_one_batch_of_draws_is_the_successive_draws():
    """_draws(rng, p, T k) cut into T blocks of k is T successive _draws of k,
    and leaves the generator in the same state: the conormal rejection
    estimates draw their T covectors in one call.  k = n^2 blocks are the
    random_matrix draws and k = n(n-1)/2 the strictly upper triangular ones."""
    trials = 7
    for seed in range(4):
        for field in (FieldSpec.prime(2), FieldSpec.prime(3), F, FieldSpec.prime(10**24 + 7)):
            p = field.p
            for n in (1, 2, 3, 4):
                for k in (n * n, n * (n - 1) // 2):
                    ours, theirs = random.Random(seed), random.Random(seed)
                    batch = _draws(ours, p, trials * k)
                    blocks = [batch[t * k : (t + 1) * k] for t in range(trials)]
                    assert blocks == [_draws(theirs, p, k) for _ in range(trials)]
                    assert ours.getstate() == theirs.getstate()
                ours, theirs = random.Random(seed), random.Random(seed)
                batch = _draws(ours, p, trials * n * n)
                blocks = [batch[t * n * n : (t + 1) * n * n] for t in range(trials)]
                matrices = [
                    ExactMatrix(field, tuple(tuple(b[i * n : (i + 1) * n]) for i in range(n)))
                    for b in blocks
                ]
                assert matrices == [random_matrix(field, n, n, theirs) for _ in range(trials)]
                assert ours.getstate() == theirs.getstate()


def test_sampling_requires_prime_field():
    rng = random.Random(0)
    with pytest.raises(FieldError):
        random_matrix(Q, 2, 2, rng)
    with pytest.raises(FieldError):
        random_borel(Q, 2, rng)


def test_rational_exactness():
    a = ExactMatrix.from_rows(Q, [[Fraction(1, 3), 1], [1, Fraction(3, 7)]])
    inv = a.inverse()
    assert a @ inv == ExactMatrix.identity(Q, 2)
    with pytest.raises(SingularMatrixError):
        ExactMatrix.from_rows(Q, [[1, 2], [2, 4]]).inverse()


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_matmul_associativity(r, c, seed):
    rng = random.Random(seed)
    a = _random_mat(rng, r, c)
    b = _random_mat(rng, c, r)
    d = _random_mat(rng, r, c)
    assert (a @ b) @ d == a @ (b @ d)


def test_products_over_an_empty_inner_dimension_are_refused():
    """A matrix with no rows cannot hold its column count, so a product over
    an inner dimension 0 has no shape to give; it is refused, not misshapen."""
    for field in (FieldSpec.prime(7), Q):
        with pytest.raises(DimensionMismatchError, match="inner dimension is 0"):
            ExactMatrix.zeros(field, 3, 0) @ ExactMatrix.zeros(field, 0, 4)
        with pytest.raises(DimensionMismatchError):
            ExactMatrix.zeros(field, 0, 3) @ ExactMatrix.zeros(field, 3, 4)
        assert (ExactMatrix.zeros(field, 3, 1) @ ExactMatrix.zeros(field, 1, 4)).shape == (3, 4)


@pytest.mark.parametrize("p", [2, 3, 10007, 2**61 - 1, 10**24 + 7])
def test_prime_moduli_are_accepted(p):
    assert FieldSpec.prime(p).p == p


@pytest.mark.parametrize(
    "n",
    [
        0,
        1,
        561,  # Carmichael numbers
        41041,
        3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
        3825123056546413051,  # ... to the bases 2 through 23
        318665857834031151167461,  # ... to the first 12 primes, 2 through 37
        10007 * 10009,
        (10**12 + 39) * (10**12 + 61),
    ],
)
def test_composite_moduli_are_rejected(n):
    with pytest.raises(FieldError, match="not prime"):
        FieldSpec.prime(n)


def test_moduli_beyond_the_deterministic_range_are_refused():
    # 2^89 - 1 is prime, but above 3.3 * 10^24 the 13 bases do not decide it
    with pytest.raises(FieldError, match="too large"):
        FieldSpec.prime(2**89 - 1)


# the largest prime below MAX_PRIME_MODULUS, the widest lanes the packed kernels see
TOP_PRIME = 3_317_044_064_679_887_385_961_813


def test_top_prime_is_the_largest_accepted_prime():
    assert _is_prime(TOP_PRIME)
    assert not any(_is_prime(n) for n in range(TOP_PRIME + 1, MAX_PRIME_MODULUS))


def test_residues_unpack_what_pack_packed():
    """_residues reads back the lanes _pack wrote, row after row and reduced
    mod p, on the 64-bit words it reads in C and on other widths; and
    _lane_bits gives 64 bits up to 2^64 - 1, the bit length beyond."""
    rng = random.Random(5)
    assert [_lane_bits(b) for b in (0, 1, 2**64 - 1, 2**64, 2**200)] == [64, 64, 64, 65, 201]
    for B in (1, 2, 7, 30, 63, 64, 65, 200):
        for width in (0, 1, 5, 16):
            for p in (2, 10007, TOP_PRIME):
                rows = [[rng.randrange(1 << B) for _ in range(width)] for _ in range(3)]
                expected = [v % p for row in rows for v in row]
                assert _residues([_pack(row, B) for row in rows], B, width, p) == expected


def kernel_test_rows(p, width, rng):
    """A matrix over F_p, built bottom-up: uniform rows, zero rows, rows of
    all p - 1 and random combinations of the rows below (in their span)."""
    rows = []
    for _ in range(rng.randint(1, width + 3)):
        kind = rng.randrange(4)
        if kind == 0:
            row = [rng.randrange(p) for _ in range(width)]
        elif kind == 1:
            row = [0] * width
        elif kind == 2:
            row = [p - 1] * width
        else:
            row = [0] * width
            for below in rows:
                c = rng.randrange(p)
                row = [(a + c * b) % p for a, b in zip(row, below)]
        rows.append(row)
    return rows[::-1]


@pytest.mark.parametrize("p", [2, 3, 10007, TOP_PRIME])
def test_packed_profile_is_the_southwest_profile(p):
    """_packed_profile equals the list kernel _southwest_profile on matrices
    of widths 1..16 over F_p, with the rows handed in reduced, and
    unreduced by up to `width` multiples of p (rows of all p - 1 at the
    largest such entry), each packed at the smallest lane width B the
    kernel's bound allows: entries below E need E + width (p-1)^2 <= 2^B."""
    rng = random.Random(p % 997)
    ranks = set()
    for width in range(1, 17):
        for _ in range(20):
            rows = kernel_test_rows(p, width, rng)
            expected = _southwest_profile(rows, width, p)
            ranks.add((expected[0][-1] == width, expected[0][-1] < len(rows)))
            for spread in (1, width + 1):
                E = spread * p
                B = (E - 1 + width * (p - 1) ** 2).bit_length()
                assert E + width * (p - 1) ** 2 <= 1 << B < 2 * (E + width * (p - 1) ** 2)
                top = E - p
                unreduced = [
                    [v + top if row.count(p - 1) == width else v + p * rng.randrange(spread)
                     for v in row]
                    for row in rows
                ]
                packed = [_pack(row, B) for row in unreduced]
                assert _packed_profile(packed, width, p, B) == expected, (width, rows)
    # full and deficient ranks, with and without dependent rows
    assert len(ranks) >= 3
