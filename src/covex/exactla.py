"""Exact linear algebra over a prime field F_p or over the rationals.

Everything here is exact: prime-field scalars are Python ints reduced mod p.
A rational scalar is a plain int when it is integral and a
`fractions.Fraction` only when its denominator is not 1; `Fraction(3) == 3`
and both hash alike, so the two forms never disagree under `==`.
`fractions` is imported only when a rational is first built
(_fraction_class), so work over F_p never loads it, nor `decimal` and
`numbers` with it.  No floating point anywhere.  Subspaces are stored in
reduced echelon form, so equal subspaces have identical representations
and can be compared with `==`.

All elimination of rows given as lists is one row insertion, `_insert`: a
row is reduced against an echelon basis {pivot column: row} and whatever is
left joins the basis at a new pivot.  A rank is the size of the basis once
every row is in; the southwest profile inserts rows bottom-up and counts
pivots; membership inserts into a copy of a subspace's basis and asks for
no new pivot; spans and inverses back-substitute the basis to reduced
echelon form (`_reduced`).  An inverse is the reduced form of [A | I], and
A is singular exactly when a pivot lands in the identity half.

Over F_p the insertion reduces only what it reads.  A row may come in with
unreduced integers; each entry is taken mod p where the scan reads it as a
pivot candidate, a clearing subtracts a multiple of a basis row without
reducing the rest, and the row is reduced and scaled to 1 at its pivot only
when it joins the basis.  So stored rows are canonical, and a caller may
hand in sums of products without reducing them first.

Over F_p a row may also be packed into one int, entry j in lane j of B
bits (_pack), so that a row times a fixed matrix is one sum of products.
_packed_profile reads only lane 0 mod p, clears it by row += (p - a) * b
with a basis row b kept from its pivot on (reduced, and scaled to 1 there,
when first used), shifts it out, and stops at a zero rest.  As a clearing
adds at most (p-1)^2 to a lane, lanes handed in stay below 2^B - width (p-1)^2.

Over Q the basis holds primitive integer rows: a row is cleared against a
pivot row r at column c as a * row - b * r with a : b = r[c] : row[c] in
lowest terms, and every new row is divided by the gcd of its entries, so the
integers stay small.  Only the reduced echelon form divides, once per row.
"""

from __future__ import annotations

import operator
import random
import sys
from functools import cached_property, lru_cache
from itertools import accumulate, count
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from .errors import (
    DimensionMismatchError,
    FieldError,
    SingularMatrixError,
)
from .frozen import Frozen

if TYPE_CHECKING:
    from fractions import Fraction

Scalar = Union[int, "Fraction"]

DEFAULT_PRIME = 10007


class FieldSpec(Frozen):
    """A coefficient field: F_p for a prime p, or the rationals when p is None.

    The default prime 10007 is large enough that random matrices behave
    generically in all the randomized sweeps.
    """

    _fields = ("p",)

    def __init__(self, p: int | None):
        object.__setattr__(self, "p", p)
        if self.p is not None and (self.p < 2 or not _is_prime(self.p)):
            raise FieldError(f"modulus {self.p} is not prime")

    @staticmethod
    def prime(p: int = DEFAULT_PRIME) -> "FieldSpec":
        if p is None:
            raise FieldError("modulus None is not prime")
        return FieldSpec(p)

    @staticmethod
    def rational() -> "FieldSpec":
        return FieldSpec(None)

    @staticmethod
    def parse(text: str) -> "FieldSpec":
        """Parse a CLI field designator: ``Q`` or ``p:<prime>``."""
        if text in ("Q", "q", "rational"):
            return FieldSpec.rational()
        digits = text[2:] if text.startswith("p:") else ""
        if digits.isascii() and digits.isdigit():
            if len(digits) > len(str(MAX_PRIME_MODULUS)):
                raise FieldError(
                    f"modulus of {len(digits)} digits is too large: primality is"
                    f" decided only below {MAX_PRIME_MODULUS}"
                )
            return FieldSpec.prime(int(digits))
        raise FieldError(f"cannot parse field {text!r} (use 'Q' or 'p:10007')")

    @property
    def is_prime(self) -> bool:
        return self.p is not None

    def __str__(self) -> str:
        return "Q" if self.p is None else f"F_{self.p}"

    def check_same(self, other: "FieldSpec") -> None:
        """FieldError unless other is this field: no operation mixes two fields."""
        if other != self:
            raise FieldError(f"operands over different fields: {self} and {other}")

    def coerce(self, value) -> Scalar:
        """An int, or what Fraction reads exactly ("1/3", 2.5 = 5/2), as a field element."""
        p = self.p
        if type(value) is int:
            return value if p is None else value % p
        Fraction = _fraction_class()
        try:
            value = value if type(value) is Fraction else Fraction(value)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise FieldError(f"{value!r} is not a rational number") from exc
        if p is None:
            return _rational(value)
        if value.denominator % p == 0:
            raise FieldError(f"{value} has no image in F_{p}: p divides its denominator")
        return value.numerator * pow(value.denominator, -1, p) % p


@lru_cache(maxsize=None)
def _fraction_class() -> type:
    """fractions.Fraction, imported at the first call: no F_p path calls this.

    A call costs about 40 ns against about 1.3 us for an import statement,
    so per-entry code such as FieldSpec.coerce can make it.
    """
    from fractions import Fraction

    return Fraction


def _rational(value: Scalar) -> Scalar:
    """A rational scalar in canonical form: an int when it is integral."""
    if type(value) is int or value.denominator != 1:
        return value
    return value.numerator


# The first 13 primes.  As Miller-Rabin bases they decide primality exactly
# for every n below 3.3 * 10^24 (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME_MODULUS = 3_317_044_064_679_887_385_961_981


# memoized: every FieldSpec checks its modulus, and a process makes many of
# them over the same few primes (one per CLI query, each suite case)
@lru_cache(maxsize=64)
def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < MAX_PRIME_MODULUS."""
    if n >= MAX_PRIME_MODULUS:
        raise FieldError(
            f"modulus {n} is too large: primality is decided only below {MAX_PRIME_MODULUS}"
        )
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ExactMatrix(Frozen):
    """An immutable matrix with exact entries in a fixed field."""

    _fields = ("field", "entries")

    def __init__(self, field: FieldSpec, entries: tuple[tuple[Scalar, ...], ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "entries", entries)
        if len(set(map(len, self.entries))) > 1:
            raise DimensionMismatchError("ragged rows in matrix")

    @staticmethod
    def from_rows(field: FieldSpec, rows: Iterable[Iterable]) -> "ExactMatrix":
        data = tuple(tuple(field.coerce(v) for v in row) for row in rows)
        return ExactMatrix(field, data)

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix(field, tuple((0,) * cols for _ in range(rows)))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "ExactMatrix":
        return ExactMatrix(field, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def shape(self) -> tuple[int, int]:
        entries = self.entries
        return (len(entries), len(entries[0]) if entries else 0)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        if not other.entries:
            # a matrix with no rows cannot hold its column count
            raise DimensionMismatchError(
                f"cannot multiply {self.shape} by {other.shape}: the inner dimension is 0"
            )
        f = self.field
        f.check_same(other.field)
        return ExactMatrix(f, _products(self.entries, other.columns, f.p))

    def rank(self) -> int:
        basis, p = {}, self.field.p
        for row in self.entries:
            _insert(basis, row, p)
        return len(basis)

    @cached_property
    def columns(self) -> tuple[tuple[Scalar, ...], ...]:
        """The columns as tuples, built once per matrix."""
        return tuple(zip(*self.entries))

    @cached_property
    def southwest_profile(self) -> tuple[tuple[int, ...], ...]:
        """Every southwest rank, profile[i-1][j-1] = rank of rows i.., columns ..j; memoized."""
        return _southwest_profile(self.entries, self.cols, self.field.p)

    def inverse(self) -> "ExactMatrix":
        if not self.is_square():
            raise DimensionMismatchError("inverse of a non-square matrix")
        n = self.rows
        basis, p = {}, self.field.p
        for i, row in enumerate(self.entries):
            if _insert(basis, [*row, *(int(i == j) for j in range(n))], p) >= n:
                raise SingularMatrixError("matrix is singular")
        _, rows = _reduced(basis, p)
        return ExactMatrix(self.field, tuple(row[n:] for row in rows))


def _products(
    rows: Iterable[Sequence[Scalar]], cols: Sequence[Sequence[Scalar]], p: int | None
) -> tuple[tuple[Scalar, ...], ...]:
    """Each row dotted with each column: the entries of the product of the
    rows with the matrix of those columns, reduced mod p or canonical over Q."""
    mul = operator.mul
    # list comprehensions: a generator per row costs more than the sums
    if p is None:
        return tuple([tuple([_rational(sum(map(mul, row, col))) for col in cols]) for row in rows])
    return tuple([tuple([sum(map(mul, row, col)) % p for col in cols]) for row in rows])


def _insert(basis: dict[int, Sequence[int]], row: Sequence[Scalar], p: int | None) -> int | None:
    """Reduce ``row`` against an echelon basis and add what is left to it.

    ``basis`` maps each pivot column (0-based) to the one basis row whose
    leftmost nonzero entry lies there: scaled to 1 at the pivot, with every
    entry in 0..p-1, over F_p; a primitive integer row over Q (``p`` None).
    The row is cleared at each basis pivot it meets, left to right, and
    joins the basis at the first nonzero column that has no basis row.
    Returns that column, or None when the row lies in the span of the basis.

    Over F_p the row may hold any integers, reduced or not.  An entry is
    reduced mod p only when the scan reads it, and a clearing x - a * y
    leaves the other entries unreduced; the row is reduced, and scaled to 1
    at its pivot, only when it joins the basis.
    """
    if p is None:
        row = _integer_row(row)
        for c in range(len(row)):
            if row[c]:
                b = basis.get(c)
                if b is None:
                    basis[c] = row
                    return c
                row = _cleared(row, c, b, p)
        return None
    for c in range(len(row)):
        a = row[c] % p
        if a:
            b = basis.get(c)
            if b is None:
                inv = pow(a, -1, p)
                basis[c] = row = [inv * y % p for y in row]
                return c
            row = [x - a * y for x, y in zip(row, b)]
    return None


def _southwest_profile(
    rows: Sequence[Sequence[Scalar]], cols: int, p: int | None
) -> tuple[tuple[int, ...], ...]:
    """profile[i][j] = rank of rows i+1.., columns ..j+1 of the matrix with these rows.

    The rows go bottom-up into one echelon basis, so that rank is the number
    of pivots <= j.  Like _insert, this takes unreduced rows.
    """
    basis, is_pivot, profile = {}, [0] * cols, []
    for row in reversed(rows):
        c = _insert(basis, row, p)
        if c is not None:
            is_pivot[c] = 1
        profile.append(tuple(accumulate(is_pivot)))
    profile.reverse()
    return tuple(profile)


def _packed_profile(rows: Sequence[int], width: int, p: int, B: int) -> tuple[tuple[int, ...], ...]:
    """_southwest_profile over F_p of rows packed in lanes of B bits (module docstring)."""
    low, basis, profile, ranks = (1 << B) - 1, [None] * width, [], (0,) * width
    for row in reversed(rows):
        c = 0
        while row:
            a = (row & low) % p
            if a and basis[c] is None:
                basis[c] = -row  # negated: unreduced until a clearing first uses it
                ranks = ranks[:c] + tuple(map((1).__add__, ranks[c:]))  # one more from c on
                break
            if a and basis[c] < 0:
                b, inv = -basis[c], pow(-basis[c] & low, -1, p)
                basis[c] = _pack([(b >> s & low) * inv % p for s in range(0, b.bit_length(), B)], B)
            row = (row + (p - a) * basis[c] if a else row) >> B
            c += 1
        profile.append(ranks)
    return tuple(profile[::-1])


def _pack(entries: Iterable[int], B: int) -> int:
    """One int holding the entries, entry j in lane j of B bits; each must lie in 0..2^B-1."""
    return sum(map(operator.lshift, entries, count(0, B)))


def _lane_bits(bound: int) -> int:
    """A lane width B that holds 0..bound, at least the 64-bit word that _residues reads in C."""
    return max(64, bound.bit_length())


def _residues(rows: Sequence[int], B: int, width: int, p: int) -> list[int]:
    """The width lanes of B bits of each packed row, row after row, reduced mod p."""
    row, width = _pack(rows, width * B), width * len(rows)
    if B == 64 and sys.byteorder == "little":
        return list(map(p.__rmod__, memoryview(row.to_bytes(8 * width, "little")).cast("Q")))
    return [(row >> s & (1 << B) - 1) % p for s in range(0, width * B, B)]


def _reduced(
    basis: dict[int, Sequence[int]], p: int | None
) -> tuple[tuple[int, ...], tuple[tuple[Scalar, ...], ...]]:
    """The pivots and rows of the reduced echelon form of an echelon basis.

    Back-substitution clears each pivot column from the rows of smaller
    pivot, last pivot first; over Q each row is then divided by its pivot
    entry, once.  The rows come in pivot order.  Consumes ``basis``.
    """
    pivots = sorted(basis)
    for k in reversed(range(len(pivots))):
        c = pivots[k]
        for d in pivots[:k]:
            if basis[d][c]:
                basis[d] = _cleared(basis[d], c, basis[c], p)
    if p is None:
        Fraction = _fraction_class()
    rows = []
    for c in pivots:
        row = basis[c]
        if p is None:
            a = row[c]
            row = [v // a if v % a == 0 else Fraction(v, a) for v in row]
        rows.append(tuple(row))
    return tuple(pivots), tuple(rows)


def _cleared(a: Sequence[int], c: int, b: Sequence[int], p: int | None) -> list[int]:
    """The row a with column c cleared against the basis row b (b[c] != 0).

    Over F_p, b[c] is 1 and this is a - a[c] * b.  Over Q both rows are
    integer and it is the primitive row s * a - t * b, s : t = b[c] : a[c]
    in lowest terms.
    """
    if p is not None:
        f = a[c]
        return [(x - f * y) % p for x, y in zip(a, b)]
    g = gcd(b[c], a[c])
    s, t = b[c] // g, a[c] // g
    return _primitive([s * x - t * y for x, y in zip(a, b)])


def _integer_row(row: Sequence[Scalar]) -> Sequence[int]:
    """A row of rationals scaled to integers with gcd 1, spanning the same line."""
    denominators = [v.denominator for v in row if type(v) is not int]
    if denominators:
        scale = lcm(*denominators)
        row = [v * scale if type(v) is int else v.numerator * (scale // v.denominator)
               for v in row]
    return _primitive(row)


def _primitive(row: Sequence[int]) -> Sequence[int]:
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


class Subspace(Frozen):
    """A linear subspace stored by a canonical reduced-echelon basis.

    ``vectors`` are the basis vectors, each of length ``ambient``; as rows
    they form a reduced row-echelon matrix with pivot columns ``pivots``
    (0-based).  Two equal subspaces always have identical ``vectors``, so
    equality of the fields is subspace equality.
    """

    _fields = ("field", "ambient", "vectors", "pivots")

    def __init__(self, field: FieldSpec, ambient: int,
                 vectors: tuple[tuple[Scalar, ...], ...], pivots: tuple[int, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "pivots", pivots)

    @staticmethod
    def span(field: FieldSpec, ambient: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = [[field.coerce(v) for v in vec] for vec in vectors]
        for row in rows:
            if len(row) != ambient:
                raise DimensionMismatchError("vector length differs from ambient dimension")
        return _span_rows(field, ambient, rows)

    @staticmethod
    def zero(field: FieldSpec, ambient: int) -> "Subspace":
        return Subspace(field, ambient, (), ())

    @staticmethod
    def column_span(matrix: ExactMatrix) -> "Subspace":
        return _span_rows(matrix.field, matrix.rows, zip(*matrix.entries))

    @property
    def dim(self) -> int:
        return len(self.vectors)

    @cached_property
    def basis_matrix(self) -> ExactMatrix:
        """Basis vectors as the columns of an ambient x dim matrix, built once."""
        if not self.vectors:
            return ExactMatrix.zeros(self.field, self.ambient, 0)
        return ExactMatrix(self.field, tuple(zip(*self.vectors)))

    @cached_property
    def sum_dims(self) -> tuple[int, ...]:
        """dim(V + E_t) for t = 0..ambient, computed once per subspace.

        The basis vectors go into one elimination reversed, so each pivot is
        the last nonzero entry of a vector of V.  Then dim(V meet E_t) is the
        number of those pivots at positions before t, and dim(V + E_t) is
        t + dim V minus that number.
        """
        N, p = self.ambient, self.field.p
        basis: dict = {}
        for v in self.vectors:
            _insert(basis, v[::-1], p)
        # the pivot at reversed column c is position N-1-c: it lies in E_t once t >= N-c
        meets = [0] * (N + 1)
        for c in basis:
            meets[N - c] += 1
        d = len(basis)
        return tuple(t + d - k for t, k in enumerate(accumulate(meets)))

    @cached_property
    def containment(self) -> tuple:
        """V's side of SpringerGrassPoint's checks: (pivots, L, free, the rows of C^T at
        free, the rows of C) over Q, (pivots, B, K^T, C^T) by packed rows over F_p."""
        basis, N, p = self._basis(), self.ambient, self.field.p
        free = tuple(a for a in range(N) if a not in basis)
        if p is not None:  # row r of K^T and of C^T, packed; a lane is a sum of N products
            B = _lane_bits(N * (p - 1) ** 2)
            K = [[-basis[r][a] % p if r in basis else int(r == a) for a in free] for r in range(N)]
            return tuple(basis), B, *([_pack(c, B) for c in m] for m in (K, zip(*basis.values())))
        scale = lcm(*(row[c] for c, row in basis.items()))
        c_rows = tuple(tuple(scale // row[c] * v for v in row) for c, row in basis.items())
        c_cols = tuple(zip(*c_rows))
        return tuple(basis), scale, free, tuple(c_cols[a] for a in free), c_rows

    def contains_vector(self, vector: Sequence) -> bool:
        f = self.field
        return _insert(self._basis(), [f.coerce(x) for x in vector], f.p) is None

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        basis, p = self._basis(), self.field.p
        return all(_insert(basis, v, p) is None for v in other.vectors)

    def _basis(self) -> dict[int, Sequence[int]]:
        """A fresh echelon basis {pivot: row} of this subspace, as _insert takes it."""
        if self.field.is_prime:
            return dict(zip(self.pivots, self.vectors))
        return {c: _integer_row(v) for c, v in zip(self.pivots, self.vectors)}

    def apply(self, matrix: ExactMatrix) -> "Subspace":
        """Image of this subspace under the linear map ``matrix``."""
        if matrix.cols != self.ambient:
            raise DimensionMismatchError("matrix does not act on this ambient space")
        if not self.vectors:
            return Subspace.zero(self.field, matrix.rows)
        # over Q the echelon basis holds integer multiples: the same image, no Fractions
        basis = ExactMatrix(self.field, tuple(zip(*self._basis().values())))
        return Subspace.column_span(matrix @ basis)

    def _check_compatible(self, other: "Subspace") -> None:
        self.field.check_same(other.field)
        if self.ambient != other.ambient:
            raise DimensionMismatchError("subspaces live in different ambient spaces")


def coordinate_subspace(field: FieldSpec, ambient: int, indices: Iterable[int]) -> Subspace:
    """Span of the standard basis vectors e_i for the given 1-based indices.

    The distinct unit vectors in index order are already a reduced echelon
    basis, over every field, so no elimination runs.
    """
    chosen = set()
    for i in indices:
        if not 1 <= i <= ambient:
            raise DimensionMismatchError(f"coordinate index {i} outside 1..{ambient}")
        chosen.add(i - 1)
    pivots = tuple(sorted(chosen))
    vectors = tuple(tuple(int(k == c) for k in range(ambient)) for c in pivots)
    return Subspace(field, ambient, vectors, pivots)


def _span_rows(field: FieldSpec, ambient: int, rows: Iterable[Sequence[Scalar]]) -> Subspace:
    """Span of vectors whose entries are already elements of the field."""
    basis, p = {}, field.p
    for row in rows:
        _insert(basis, row, p)
    pivots, vectors = _reduced(basis, p)
    return Subspace(field, ambient, vectors, pivots)


def _draws(rng: random.Random, bound: int, count: int) -> list[int]:
    """count draws of rng.randrange(bound), made with the same getrandbits calls.

    This is the rejection loop of Random.randrange (via _randbelow) without
    its argument checks and call layers, so a seeded generator yields the
    same numbers and ends in the same state.  tests/test_exactla.py pins the
    equality on the running interpreter.
    """
    getrandbits = rng.getrandbits
    k = bound.bit_length()
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= bound:
            r = getrandbits(k)
        out.append(r)
    return out


def random_borel(field: FieldSpec, n: int, rng: random.Random) -> ExactMatrix:
    """Random invertible upper-triangular matrix over F_p.

    The diagonal is uniform over nonzero elements and the strict upper part
    is uniform, so the result is always invertible.  Each row draws its
    diagonal entry, then the entries right of it.
    """
    if not field.is_prime:
        raise FieldError("random sampling requires a prime field")
    p = field.p
    rows = []
    for i in range(n):
        diagonal = 1 + _draws(rng, p - 1, 1)[0]
        rows.append((0,) * i + (diagonal, *_draws(rng, p, n - i - 1)))
    return ExactMatrix(field, tuple(rows))
