"""Conormal-variety membership predicates and their independent oracles.

Three coordinate forms are covered: pairs (x, y) of n x n matrices for the
conormal variety of a matrix Schubert variety, Springer pairs (V, x) on the
Grassmannian side, and Springer pairs (F, z) on the flag side.  The rank
bounds all come from one table, permcore.conormal_bounds: the Grassmannian
form reads it on its own conditions, and the matrix form on the pairs
(t_i, p_i + r_i) that the embedding pulls back (CovexillaryData.conormal_checks).

The matrix and Grassmannian forms read every rank off one southwest
profile.  The Grassmannian blocks are southwest blocks of x itself.  The
blocks M_ij of the big matrix M = ((yx, y), (xyx, xy)) are the southwest
blocks of tau M tau^-1 on rows t_j+1..2n and columns 1..t_i (tau is the
interleaving permutation of the embedding), but that 2n x 2n matrix is
never formed.  M factors as [I; x] y [x, I], so its rank is at most n,
and a southwest block of A y B has the rank of A' y B', where A' holds the
rows of A's row block that raise the rank bottom-up and B' the columns of
B's column block that raise it left to right.  Taking the pivot rows H of
all of tau[I; x] and the pivot columns G of all of [x, I]tau^-1 (n each),
every M_ij is a southwest block of the n x n core N = H y G: its rows are
the members of H after position t_j, its columns the members of G up to
position t_i.  The pivots themselves come from the southwest profile of x
(the span of the first t_i columns is x E_{q_i} + E_{p_i}), which the
Schubert check has already computed.  N itself is never formed either:
its rows are built and eliminated bottom-up, one at a time, and each bound
is read as soon as the elimination has passed its row cut, so membership
stops at the first broken bound.  The unit rows of H and unit columns of G
are copies; only the rows and columns of x in them cost dot products.

The flag form is the matrix form pulled back along GL_n -> Mat_n.  For
the flag F_q = g E_q, F_q + E_p = g(E_q + g^-1 E_p) and F_q meet E_p =
g(E_q meet g^-1 E_p), so dim(z(F_{q_i} + E_{p_i}) / (F_{q_j} meet E_{p_j}))
is rank M_ij at the matrix point (x, y) = (g, g^-1 z), which is
push_iota(g, y) when (F, z) = springer_flag(g, y); and F is in the
Schubert variety exactly when g is in the matrix Schubert variety.

The ground truth the predicates are calibrated against is the annihilator
of the orbit tangent space under the trace pairing: over a cell point x the
conormal fiber is exactly {y : xy and yx strictly upper triangular}, and
over a flag cell generator g it is {z : z and g^-1 z g strictly upper}.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property
from math import lcm
from operator import mul
from typing import Sequence

from .errors import (
    CellMembershipError,
    DimensionMismatchError,
    InputError,
    InvariantError,
)
from .exactla import (
    ExactMatrix,
    FieldSpec,
    Subspace,
    _insert,
    _rational,
    _span_rows,
    kernel,
)
from .permcore import (
    CovexillaryData,
    PartialPermutation,
    conormal_bounds,
    covexillary_data,
)
from .varieties import (
    Flag,
    grass_condition_checks,
    in_matrix_schubert_cell,
    matrix_schubert_violation,
    southwest_profile,
)


@dataclass(frozen=True)
class CotangentMatrixPoint:
    """A point (x, y) of T*g = g x g*, with y representing tr(y . )."""

    x: ExactMatrix
    y: ExactMatrix

    def __post_init__(self):
        if self.x.shape != self.y.shape or not self.x.is_square():
            raise DimensionMismatchError("x and y must be square of equal size")

    @property
    def n(self) -> int:
        return self.x.rows


@dataclass(frozen=True)
class SpringerFlagPoint:
    """A pair (F, z) with z F_i inside F_{i-1} for every i.

    With F_i = g E_i for the flag generator g, the condition says that
    covector @ g = g^-1 z g is strictly upper triangular, and z F_i leaves
    F_{i-1} first at the first column i of g^-1 z g with a nonzero entry on
    or below the diagonal.
    """

    flag: Flag
    z: ExactMatrix

    def __post_init__(self):
        n = self.flag.n
        if self.z.shape != (n, n):
            raise DimensionMismatchError("z size differs from flag size")
        # only the entries on and below the diagonal of covector @ g, column by column
        p = self.z.field.p
        covector = self.covector.entries
        for i, col in enumerate(self.flag.generator.columns, 1):
            dots = (sum(map(mul, row, col)) for row in covector[i - 1 :])
            if any(dots) if p is None else any(v % p for v in dots):
                raise InvariantError(f"z F_{i} is not contained in F_{i - 1}")

    @cached_property
    def covector(self) -> ExactMatrix:
        """g^-1 z, computed once: (g, g^-1 z) is the matrix point of (F, z)."""
        return self.flag.inverse @ self.z


@dataclass(frozen=True)
class SpringerGrassPoint:
    """A pair (V, x) with Im(x) inside V inside ker(x); in particular x^2 = 0.

    Both containments are matrix products, no elimination.  Let C hold V's
    echelon rows c_k (V._basis(): integer rows over Q), each scaled so that
    its pivot entry is L, the lcm of the pivot entries (L = 1 over F_p).
    A vector v lies in V iff L v = sum_k v[pivot_k] c_k, so Im(x) is inside
    V iff L x = C^T x[pivots]; the pivot rows agree by construction, so
    only the others are compared.  V is inside ker(x) iff x C^T = 0; once
    x = C^T x[pivots] / L, and C^T has independent columns, that is
    x[pivots] C^T = 0.
    """

    V: Subspace
    x: ExactMatrix

    def __post_init__(self):
        V, x = self.V, self.x
        N = V.ambient
        if x.shape != (N, N):
            raise DimensionMismatchError("x size differs from ambient dimension")
        if not V.vectors:
            if not x.is_zero():
                raise InvariantError("Im(x) is not contained in V")
            return
        field, basis = x.field, V._basis()
        scale = lcm(*(row[c] for c, row in basis.items()))
        c_cols = tuple(zip(*([scale // row[c] * v for v in row] for c, row in basis.items())))
        at_pivots = ExactMatrix(field, tuple(x.entries[c] for c in basis))
        free = [a for a in range(N) if a not in basis]
        if free:
            spanned = ExactMatrix(field, tuple(c_cols[a] for a in free)) @ at_pivots
            scaled = tuple(tuple(_rational(scale * v) for v in x.entries[a]) for a in free)
            if spanned.entries != scaled:
                raise InvariantError("Im(x) is not contained in V")
        if not (at_pivots @ ExactMatrix(field, c_cols)).is_zero():
            raise InvariantError("V is not contained in ker(x)")


def core_pivots(
    x: ExactMatrix, data: CovexillaryData
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The rows H of tau[I; x] and the columns G of [x, I]tau^-1 that raise the rank.

    Returns (rows, cols, rows_before, cols_through).  rows indexes the 2n
    rows of [I; x] (k < n is the unit row e_{k+1}, k >= n is row k-n+1 of
    x) and cols the 2n columns of [x, I] (k < n is column k+1 of x, k >= n
    is the unit column e_{k-n+1}), both listed in tau order.  A row is in H
    when it raises the rank of the rows below it in tau order, a column is
    in G when it raises the rank of the columns before it; each has n
    members.  rows_before[i] and cols_through[i] count the members among
    the first t_i positions, for i = 0..m.

    Everything is read off the southwest profile of x.  The rows after
    position t_i span the unit rows past q_i plus the rows of x past p_i,
    of dimension n - q_i + rank x[p_i+1.., ..q_i]; the first t_i columns
    span x E_{q_i} + E_{p_i}, of dimension p_i + rank x[p_i+1.., ..q_i].
    Inside block i, column c of x joins G exactly when the unit row e_c
    stays out of H, and row s of x joins H exactly when e_s stays out of G.

    The answer depends on x and on (p, q) alone, and is kept in x's
    core_pivot_memo: the suites test many covectors y over one x.
    """
    key = (data.p, data.q)
    found = x.core_pivot_memo.get(key)
    if found is not None:
        return found
    n = data.n
    # sw[p][q] = rank x[p+1.., ..q], zero on the empty blocks p = n and q = 0
    sw = [(0,) + row for row in southwest_profile(x)]
    sw.append((0,) * (n + 1))
    ps, qs = (0,) + data.p + (n,), (0,) + data.q + (n,)
    rows: list[int] = []
    cols: list[int] = []
    rows_before, cols_through = [0], [0]
    for p0, q0, p1, q1 in zip(ps, qs, ps[1:], qs[1:]):
        ranks = sw[p0]
        for c in range(q0 + 1, q1 + 1):
            (cols if ranks[c] > ranks[c - 1] else rows).append(c - 1)
        for s in range(p0 + 1, p1 + 1):
            (rows if sw[s - 1][q1] > sw[s][q1] else cols).append(n + s - 1)
        rows_before.append(len(rows))
        cols_through.append(len(cols))
    found = x.core_pivot_memo[key] = (
        tuple(rows), tuple(cols), tuple(rows_before), tuple(cols_through)
    )
    return found


def _rank_violations(pt: CotangentMatrixPoint, data: CovexillaryData):
    """Yield (k, rank) for each check k of data.conormal_checks that fails at pt.

    Check (i, j, bound) reads the southwest rank of the core N = H y G on
    the rows from rows_before[j] down and the columns before cols_through[i]
    (core_pivots).  N is never formed: its rows are built one at a time,
    bottom-up, and go into one echelon basis, so once row a is in, the rank
    of rows a.., columns ..b is the number of pivots before b.  A unit row
    of H copies a row of y and a row of x costs one product with y; a unit
    column of G picks an entry and a column of x costs one dot product.
    rows_before grows with j, so the checks are read for j = m-1 down to 0,
    each as soon as its rows are in, and a caller that stops at the first
    failure builds no row above it.
    """
    n = pt.n
    rows, cols, rows_before, cols_through = core_pivots(pt.x, data)
    checks = data.conormal_checks  # (i, j) for i = 1..m, j < i: (i, j) is at i(i-1)/2 + j
    x, y = pt.x.entries, pt.y.entries
    p = pt.x.field.p
    x_cols = pt.x.columns
    y_cols = None  # read only when H holds a row of x
    basis: dict = {}
    pivots: list[int] = []  # the pivot columns of basis, sorted
    r = n
    m = data.m
    for j in reversed(range(m)):
        while r > rows_before[j]:
            r -= 1
            k = rows[r]
            if k >= n and y_cols is None:
                y_cols = tuple(zip(*y))
            # unreduced: _insert reduces mod p, or scales to integers over Q
            hy = y[k] if k < n else [sum(map(mul, x[k - n], c)) for c in y_cols]
            row = [sum(map(mul, hy, x_cols[c])) if c < n else hy[c - n] for c in cols]
            c = _insert(basis, row, p)
            if c is not None:
                insort(pivots, c)
        for i in range(j + 1, m + 1):
            k = i * (i - 1) // 2 + j
            rank = bisect_left(pivots, cols_through[i])
            if rank > checks[k][2]:
                yield k, rank


def _matrix_data(pt: CotangentMatrixPoint, w: PartialPermutation) -> CovexillaryData:
    data = covexillary_data(w)
    if pt.n != w.n:
        raise DimensionMismatchError("point size differs from permutation size")
    return data


def in_conormal_matrix(pt: CotangentMatrixPoint, w: PartialPermutation) -> bool:
    """Membership; stops at the first failed bound the elimination meets."""
    data = _matrix_data(pt, w)
    if matrix_schubert_violation(pt.x, w) is not None:
        return False
    return next(_rank_violations(pt, data), None) is None


def conormal_matrix_violations(pt: CotangentMatrixPoint, w: PartialPermutation) -> list[dict]:
    """Violated conditions as diagnostics; empty list means membership.

    The Schubert violation comes first, then the failed rank bounds in the
    order of data.conormal_checks.

    Raises NotCovexillaryError when w is not covexillary.
    """
    data = _matrix_data(pt, w)
    out: list[dict] = []
    base = matrix_schubert_violation(pt.x, w)
    if base is not None:
        out.append({"kind": "schubert", "condition": base})
    checks = data.conormal_checks
    for k, rank in sorted(_rank_violations(pt, data)):
        i, j, bound = checks[k]
        out.append({"kind": "rank", "i": i, "j": j, "rank": rank, "bound": bound})
    return out


def conormal_fiber_matrix(x: ExactMatrix, w: PartialPermutation) -> Subspace:
    """The conormal fiber over a cell point, as a subspace of flattened matrices.

    Solves the linear system {y : xy and yx strictly upper triangular}; this
    is the annihilator of the tangent space of the orbit through x, and is
    the oracle every conormal predicate is measured against.  The caller
    must supply x in the open cell of w.
    """
    n = w.n
    if x.shape != (n, n):
        raise DimensionMismatchError("matrix size differs from permutation size")
    if not in_matrix_schubert_cell(x, w):
        raise CellMembershipError("x does not have the rank profile of the open cell")
    xs = x.entries
    rows = []
    for a in range(n):
        for b in range(a + 1):  # entries on or below the diagonal must vanish
            row = [0] * (n * n)
            row[b :: n] = xs[a]  # (xy)_{ab} = sum_k x_{ak} y_{kb}
            rows.append(tuple(row))
            row = [0] * (n * n)
            row[a * n : (a + 1) * n] = [xs[k][b] for k in range(n)]  # (yx)_{ab}
            rows.append(tuple(row))
    return kernel(ExactMatrix(x.field, tuple(rows)))


def vector_to_matrix(field: FieldSpec, vec: Sequence, n: int) -> ExactMatrix:
    """Unflatten a length-n^2 vector (row-major) into an n x n matrix.

    The entries must already be field elements (reduced mod p, or canonical
    rationals over Q), as the vectors of a Subspace are; they are not coerced.
    """
    return ExactMatrix(field, tuple(tuple(vec[i * n : (i + 1) * n]) for i in range(n)))


def tangent_orbit_rank(x: ExactMatrix) -> int:
    """Rank of (u, v) -> u x + x v on pairs of upper-triangular matrices."""
    n = x.rows
    xs = x.entries
    cols = []
    for a in range(n):
        for b in range(a, n):
            col = [0] * (n * n)
            col[a * n : (a + 1) * n] = xs[b]  # (E_{ab} x)_{aj} = x_{bj}
            cols.append(tuple(col))
            col = [0] * (n * n)
            col[b :: n] = [row[a] for row in xs]  # (x E_{ab})_{ib} = x_{ia}
            cols.append(tuple(col))
    return ExactMatrix(x.field, tuple(zip(*cols))).rank()


def _grass_violations(pt: SpringerGrassPoint, conditions: Sequence[tuple[int, int]]):
    """Yield each violated condition of (V, x) for the list [(t'_i, c_i)] of Gr_u.

    V must satisfy dim(V + E_{t'}) <= d + c for every condition, as
    varieties.grass_condition_checks reads it, and x must satisfy
    dim(x E_{t'_i} / E_{t'_j}) <= b(i, j) of permcore.conormal_bounds, the
    table the matrix form reads too.  The rank of x E_{t'_i} / E_{t'_j} is
    the southwest rank of x on rows t'_j+1..N and columns 1..t'_i; an empty
    block satisfies every bound.  The Schubert violations come first, in
    the order of the conditions, then the rank violations in the order of
    the table.  Positions outside 0..N raise DimensionMismatchError.
    """
    V, x = pt.V, pt.x
    N, d = V.ambient, V.dim
    for t, total, bound, ok in grass_condition_checks(V, conditions):
        if not ok:
            yield {"kind": "schubert", "condition": (t, total, bound)}
    profile = southwest_profile(x)
    ts = [0, *(t for t, _ in conditions), N]
    for i, j, bound in conormal_bounds(conditions, N, d):
        if ts[j] == N or ts[i] == 0:
            continue
        rank = profile[ts[j]][ts[i] - 1]
        if rank > bound:
            yield {"kind": "rank", "i": i, "j": j, "rank": rank, "bound": bound}


def in_conormal_grass(
    pt: SpringerGrassPoint, conditions: Sequence[tuple[int, int]]
) -> bool:
    """Membership; stops at the first violated condition."""
    return next(_grass_violations(pt, conditions), None) is None


def conormal_grass_violations(
    pt: SpringerGrassPoint, conditions: Sequence[tuple[int, int]]
) -> list[dict]:
    """Every violated condition as a diagnostic; empty list means membership."""
    return list(_grass_violations(pt, conditions))


def _flag_matrix_point(pt: SpringerFlagPoint, w: PartialPermutation) -> CotangentMatrixPoint:
    """The matrix point (g, g^-1 z) of (F, z); see the module docstring."""
    covexillary_data(w)  # NotCovexillaryError first, as for the other forms
    if pt.flag.n != w.n:
        raise DimensionMismatchError("flag size differs from permutation size")
    if not w.is_full_rank:
        raise InputError("flag Schubert membership requires a permutation")
    return CotangentMatrixPoint(pt.flag.generator, pt.covector)


def in_conormal_flag(pt: SpringerFlagPoint, w: PartialPermutation) -> bool:
    return in_conormal_matrix(_flag_matrix_point(pt, w), w)


def conormal_flag_violations(pt: SpringerFlagPoint, w: PartialPermutation) -> list[dict]:
    """Check (F, z) as the matrix point (g, g^-1 z), with the same diagnostics."""
    return conormal_matrix_violations(_flag_matrix_point(pt, w), w)


def conormal_fiber_flag(
    g: ExactMatrix, w: PartialPermutation
) -> tuple[Flag, Subspace]:
    """Flag-side conormal fiber over a cell generator g.

    The fiber {z : z and g^-1 z g strictly upper} is g times the matrix
    fiber {y : gy and yg strictly upper} at x = g; each solution pairs with
    the flag generated by g as a Springer flag point.  w must be a
    permutation and g must lie in its open cell, so g is invertible: the
    cell fixes the rank of g at r_w(1, n) = n.
    """
    if not w.is_full_rank:
        raise InputError("flag Schubert membership requires a permutation")
    n = w.n
    field = g.field
    moved = (
        [e for row in (g @ vector_to_matrix(field, v, n)).entries for e in row]
        for v in conormal_fiber_matrix(g, w).vectors
    )
    return Flag(g), _span_rows(field, n * n, moved)


def push_iota(g: ExactMatrix, y: ExactMatrix) -> CotangentMatrixPoint:
    """Cotangent transport along the inclusion of GL_n: (g, y) -> (g, y g^-1)."""
    return CotangentMatrixPoint(g, y @ g.inverse())


def springer_flag(g: ExactMatrix, y: ExactMatrix) -> SpringerFlagPoint:
    """Springer coordinates on T*Fl: (g, y) -> (g E_bullet, g y g^-1)."""
    flag = Flag(g)
    return SpringerFlagPoint(flag, g @ y @ flag.inverse)
