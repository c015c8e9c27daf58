"""Reference code that the tests compare the package against.

Nothing in the package or the benchmark reads these: null spaces, sums of
subspaces, block matrices and submatrices, matrix sums, differences and
negations, uniform random matrices, permutation lengths, constant and
linear polynomials, polynomial sums and scalar multiples, the single-point
conormal predicates, each a batch of one for the package's batch form, and
the cotangent chase into T*Gr(n, 2n) by list products over any field, the
reference for the suites' packed chase over F_p.  Random matrices draw
through exactla._draws, so a seeded generator yields the matrices it
yielded when random_matrix lived in the package.
"""

from __future__ import annotations

import operator
import random
from typing import Iterable, Sequence

from covex.conormal import (
    CotangentMatrixPoint,
    SpringerFlagPoint,
    SpringerGrassPoint,
    conormal_flag_violations,
    conormal_grass_violations,
    conormal_matrix_violations,
)
from covex.equivariant import MultivariatePolynomial
from covex.errors import DimensionMismatchError, FieldError, InputError
from covex.exactla import (
    ExactMatrix,
    FieldSpec,
    Subspace,
    _draws,
    _insert,
    _products,
    _reduced,
    _span_rows,
)
from covex.permcore import CovexillaryData, PartialPermutation


def kernel(matrix: ExactMatrix) -> Subspace:
    """Null space of the matrix as a subspace of the column-index space.

    The rows are eliminated with their columns reversed, so each row r of the
    reduced form has its pivot q at its last nonzero entry, and the other
    rows vanish at q.  For each free column c, e_c minus r[c] e_q summed
    over the rows is then in the kernel, and r[c] is nonzero only when
    q > c: these vectors are already the reduced echelon basis.
    """
    f, n, p = matrix.field, matrix.cols, matrix.field.p
    basis = {}
    for row in matrix.entries:
        _insert(basis, row[::-1], p)
    pivots, rows = _reduced(basis, p)
    last = [n - 1 - c for c in pivots]
    free = tuple(sorted(set(range(n)) - set(last)))
    vectors = []
    for c in free:
        vec = [0] * n
        vec[c] = 1
        for q, row in zip(last, rows):
            a = row[n - 1 - c]
            if a:
                vec[q] = -a if p is None else p - a
        vectors.append(tuple(vec))
    return Subspace(f, n, tuple(vectors), free)


def random_matrix(field: FieldSpec, rows: int, cols: int, rng: random.Random) -> ExactMatrix:
    """Uniform random matrix over F_p, drawn row by row.  Sampling over Q is not supported."""
    if not field.is_prime:
        raise FieldError("random sampling requires a prime field")
    entries = _draws(rng, field.p, rows * cols)
    return ExactMatrix(
        field, tuple(tuple(entries[i * cols : (i + 1) * cols]) for i in range(rows))
    )


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    a._check_compatible(b)
    return _span_rows(a.field, a.ambient, a.vectors + b.vectors)


def blocks(grid: Sequence[Sequence[ExactMatrix]]) -> ExactMatrix:
    """The block matrix with these rows of blocks, as blocks([[a, b], [c, d]]).

    The blocks of a row stand side by side and must have equal row counts;
    the rows stack and must have equal column counts.  Every block lies over
    the field of the first.
    """
    field, entries, widths = grid[0][0].field, (), set()
    for row in grid:
        for block in row:
            if block.rows != row[0].rows:
                raise DimensionMismatchError("hstack row mismatch")
            field.check_same(block.field)
        widths.add(sum(block.cols for block in row))
        if len(widths) > 1:
            raise DimensionMismatchError("vstack column mismatch")
        entries += tuple(sum(parts, ()) for parts in zip(*(block.entries for block in row)))
    return ExactMatrix(field, entries)


def submatrix(
    m: ExactMatrix, row_indices: Sequence[int], col_indices: Sequence[int]
) -> ExactMatrix:
    """Submatrix on the given 1-based row and column index sequences."""
    return ExactMatrix(
        m.field,
        tuple(
            tuple(m.entries[i - 1][j - 1] for j in col_indices) for i in row_indices
        ),
    )


def _entrywise(op, *matrices: ExactMatrix) -> ExactMatrix:
    """op applied entry by entry to matrices of one shape over one field."""
    first = matrices[0]
    for m in matrices:
        first.field.check_same(m.field)
        if m.shape != first.shape:
            raise DimensionMismatchError(f"shape mismatch {first.shape} vs {m.shape}")
    rows = zip(*(m.entries for m in matrices))
    return ExactMatrix.from_rows(first.field, ([op(*vs) for vs in zip(*rs)] for rs in rows))


def matrix_sum(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return _entrywise(operator.add, a, b)


def matrix_difference(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return _entrywise(operator.sub, a, b)


def matrix_negation(a: ExactMatrix) -> ExactMatrix:
    return _entrywise(operator.neg, a)


def is_zero(m: ExactMatrix) -> bool:
    return not any(v for row in m.entries for v in row)


def length(w: PartialPermutation) -> int:
    """Number of inversions (full-rank only)."""
    if not w.is_full_rank:
        raise InputError("length is defined for permutations only")
    img = w.image
    return sum(
        1
        for i in range(w.n)
        for j in range(i + 1, w.n)
        if img[i] > img[j]
    )


def constant(variables: tuple[str, ...], c: int) -> MultivariatePolynomial:
    return MultivariatePolynomial.make(variables, {(0,) * len(variables): c})


def linear(variables: tuple[str, ...], coeffs: dict[str, int]) -> MultivariatePolynomial:
    data: dict[tuple[int, ...], int] = {}
    for name, c in coeffs.items():
        exps = [0] * len(variables)
        exps[variables.index(name)] = 1
        data[tuple(exps)] = data.get(tuple(exps), 0) + c
    return MultivariatePolynomial.make(variables, data)


def polynomial_sum(f: MultivariatePolynomial, g: MultivariatePolynomial) -> MultivariatePolynomial:
    f._check(g)
    data = dict(f.terms)
    for exps, c in g.terms:
        data[exps] = data.get(exps, 0) + c
    return MultivariatePolynomial.make(f.variables, data)


def polynomial_scale(f: MultivariatePolynomial, c: int) -> MultivariatePolynomial:
    return MultivariatePolynomial.make(f.variables, {exps: c * v for exps, v in f.terms})


def chase_to_grass(
    data: CovexillaryData, x: ExactMatrix, ys: Iterable[Sequence[Sequence]]
) -> list[ExactMatrix]:
    """tau M' tau^-1 with M' = [y; xy] [-x | I] for each y of ys, given as its
    rows: suites._chase_to_grass by list products, over F_p or Q.

    Row a of the result is row tau^-1(a) of M', in data.tau_order, which is
    also the order of the columns of [-x | I] that M' keeps.
    """
    field, n, order = x.field, data.n, data.tau_order
    cols = [[-v for v in c] for c in x.columns] + list(ExactMatrix.identity(field, n).entries)
    cols = [cols[b] for b in order]
    chased = []
    for y in ys:
        top = _products(y, cols, field.p)
        rows = top + _products(x.entries, tuple(zip(*top)), field.p)
        chased.append(ExactMatrix(field, tuple([rows[k] for k in order])))
    return chased


def in_conormal_matrix(pt: CotangentMatrixPoint, w: PartialPermutation) -> bool:
    """Membership: an empty diagnostic list for a batch of one."""
    return not conormal_matrix_violations(pt.x, w, (pt.y.entries,))[0]


def in_conormal_grass(pt: SpringerGrassPoint, conditions: Sequence[tuple[int, int]]) -> bool:
    return not conormal_grass_violations(pt.V, conditions, (pt,))[0]


def in_conormal_flag(pt: SpringerFlagPoint, w: PartialPermutation) -> bool:
    return not conormal_flag_violations(pt.flag, w, (pt,))[0]
