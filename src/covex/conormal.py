"""Conormal-variety membership predicates, and conormal fibers by transport.

Three coordinate forms are covered: pairs (x, y) of n x n matrices for the
conormal variety of a matrix Schubert variety, Springer pairs (V, x) on the
Grassmannian side, and Springer pairs (F, z) on the flag side.  The rank
bounds all come from one table, permcore.conormal_bounds, read through the
permcore module by every form: the Grassmannian form on its own conditions
(_grass_plan), and the matrix form on the pairs (t_i, p_i + r_i) that the
embedding pulls back (CovexillaryData.conormal_checks).

The matrix and Grassmannian forms read every rank off one southwest
profile of a small matrix.  The Grassmannian blocks are southwest blocks
of x, read off its d rows at V's cell positions (below).  The blocks M_ij
of the big matrix M = ((yx, y), (xyx, xy)) are the southwest blocks of
tau M tau^-1 on rows t_j+1..2n and columns 1..t_i (tau is the
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
Schubert check has already computed.  So every bound is one read of the
southwest profile of N.  What x alone fixes (its Schubert check, H, G, a
read per bound) is planned once per x (_core_plan).  Over F_p the rows of
G are packed (exactla._pack): a row of y G, or of x y G, is one sum of
products, and exactla._packed_profile takes N's profile, its lanes below
n^2 (p-1)^3 + n (p-1)^2.  Over Q the rows are lists.

Each form has one check, and it takes a batch over one x, V or flag:
conormal_matrix_violations takes covectors as rows, the other two Springer
points, built by the caller so that each invariant is checked once (a point
over another V or flag raises InputError).  Each returns one diagnostic
list per point, in order: Schubert violations, then failed rank bounds; an
empty list means membership, and a single point is a batch of one.

What V fixes, its Schubert verdict, its cell positions S (the t where
dim(V + E_t) does not jump) and the list of southwest reads (row cut,
column, bound), is planned once per batch (_grass_plan).  Each
SpringerGrassPoint has its containments Im(x) in V in ker(x) checked by
products with V.containment, built once per subspace.  Once Im(x) lies in
V, x is B x[S] for the basis B of V with B[S] = I, and each bound is one
read of the southwest profile of the d rows x[S], not of all N rows of x
(_grass_violations): at the embedding target, half of them.

The flag form is the matrix form pulled back along GL_n -> Mat_n.  For
the flag F_q = g E_q, F_q + E_p = g(E_q + g^-1 E_p) and F_q meet E_p =
g(E_q meet g^-1 E_p), so dim(z(F_{q_i} + E_{p_i}) / (F_{q_j} meet E_{p_j}))
is rank M_ij at the matrix point (x, y) = (g, g^-1 z), the pull-back of
(F, z) with F = g E_bullet; and F is in the Schubert variety exactly when
g is in the matrix Schubert variety.  conormal_flag_violations sends the
covectors g^-1 z of its points to one conormal_matrix_violations call
over g, so the core is planned once per g.

The ground truth the predicates are calibrated against is the annihilator
of the orbit tangent space under the trace pairing: over a cell point x the
conormal fiber is exactly {y : xy and yx strictly upper triangular}, and
over a flag cell generator g it is {z : z and g^-1 z g strictly upper}.
conormal_fiber_matrix and conormal_fiber_flag compute it by transport and
solve nothing: at w's 0/1 matrix the fiber is a coordinate subspace N_w,
and the point factors as P x Q = w with P and Q upper triangular, which
carries N_w to the fiber at x.  The trace-pairing linear systems are the
independent oracles of the tests (reference_matrix_fiber and
reference_flag_fiber in tests/test_conormal.py).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import chain, pairwise
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
    _fraction_class,
    _insert,
    _integer_row,
    _lane_bits,
    _pack,
    _packed_profile,
    _products,
    _reduced,
    _residues,
    _southwest_profile,
)
from .frozen import Frozen
from . import permcore
from .permcore import CovexillaryData, PartialPermutation, covexillary_data
from .varieties import (
    Flag,
    grass_condition_checks,
    locate_grass_cell,
    matrix_schubert_violation,
    southwest_profile,
)


class CotangentMatrixPoint(Frozen):
    """A point (x, y) of T*g = g x g*, with y representing tr(y . )."""

    _fields = ("x", "y")

    def __init__(self, x: ExactMatrix, y: ExactMatrix):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if self.x.shape != self.y.shape or not self.x.is_square():
            raise DimensionMismatchError("x and y must be square of equal size")
        self.x.field.check_same(self.y.field)


class SpringerFlagPoint(Frozen):
    """A pair (F, z) with z F_i inside F_{i-1} for every i.

    With F_i = g E_i for the flag generator g, the condition says that
    covector @ g = g^-1 z g is strictly upper triangular, and z F_i leaves
    F_{i-1} first at the first column i of g^-1 z g with a nonzero entry on
    or below the diagonal.
    """

    _fields = ("flag", "z")

    def __init__(self, flag: Flag, z: ExactMatrix):
        object.__setattr__(self, "flag", flag)
        object.__setattr__(self, "z", z)
        n = self.flag.n
        if self.z.shape != (n, n):
            raise DimensionMismatchError("z size differs from flag size")
        self.flag.field.check_same(self.z.field)
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


class SpringerGrassPoint(Frozen):
    """A pair (V, x) with Im(x) inside V inside ker(x); in particular x^2 = 0.

    Both containments are products, no elimination.  Let C hold V's
    echelon rows c_k (V._basis(): integer rows over Q), each scaled so that
    its pivot entry is L, the lcm of the pivot entries (L = 1 over F_p).
    A vector v lies in V iff L v = sum_k v[pivot_k] c_k, so Im(x) is inside
    V iff L x = C^T x[pivots]; the pivot rows agree by construction, so
    only the others are compared: row a of C^T dotted with each column of
    x[pivots].  V is inside ker(x) iff x C^T = 0; once x = C^T x[pivots] /
    L, and C^T has independent columns, that is x[pivots] C^T = 0: each
    pivot row of x dotted with each c_k.  The V side is V.containment,
    built once per subspace.  Over F_p (x reduced first) Im(x) in V is K x
    = 0 for the kill rows K = e_a - C^T[a] (a free), and with K and C^T
    packed the two checks are N + d sums whose lanes, below N (p-1)^2, must
    be 0 mod p.
    """

    _fields = ("V", "x")

    def __init__(self, V: Subspace, x: ExactMatrix):
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "x", x)
        N = V.ambient
        if x.shape != (N, N):
            raise DimensionMismatchError("x size differs from ambient dimension")
        V.field.check_same(x.field)
        rows, p = x.entries, x.field.p
        if p is not None:  # ExactMatrix takes any ints
            flat = [*chain.from_iterable(rows)]
            if not 0 <= min(flat, default=0) <= max(flat, default=0) < p:
                rows = tuple([tuple([v % p for v in row]) for row in rows])
        if not V.vectors:
            if any(map(any, rows)):
                raise InvariantError("Im(x) is not contained in V")
            return
        if p is not None:
            pivots, B, kill, c_t = V.containment
            if any(_residues([sum(map(mul, c, kill)) for c in zip(*rows)], B, N - len(pivots), p)):
                raise InvariantError("Im(x) is not contained in V")
            if any(_residues([sum(map(mul, rows[c], c_t)) for c in pivots], B, len(pivots), p)):
                raise InvariantError("V is not contained in ker(x)")
            return
        pivots, scale, free, spans, kills = V.containment
        at_pivots = [rows[c] for c in pivots]
        wanted = tuple(tuple(scale * v for v in rows[a]) for a in free)
        if free and _products(spans, tuple(zip(*at_pivots)), p) != wanted:
            raise InvariantError("Im(x) is not contained in V")
        if any(map(any, _products(at_pivots, kills, p))):
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
    The answer depends on x and on (p, q) alone (see _core_plan).
    """
    n = data.n
    # sw[p][q] = rank x[p+1.., ..q], zero on the empty blocks p = n and q = 0
    sw = [(0,) + row for row in southwest_profile(x)]
    sw.append((0,) * (n + 1))
    rows: list[int] = []
    cols: list[int] = []
    rows_before, cols_through = [0], [0]
    for (p0, q0, _), (p1, q1, _) in pairwise(data.chain):
        ranks = sw[p0]
        for c in range(q0 + 1, q1 + 1):
            (cols if ranks[c] > ranks[c - 1] else rows).append(c - 1)
        for s in range(p0 + 1, p1 + 1):
            (rows if sw[s - 1][q1] > sw[s][q1] else cols).append(n + s - 1)
        rows_before.append(len(rows))
        cols_through.append(len(cols))
    return tuple(rows), tuple(cols), tuple(rows_before), tuple(cols_through)


def _core_plan(x: ExactMatrix, data: CovexillaryData):
    """The part of _core_violations that x fixes: (p, B, H, G, reads), built once per x.

    H holds the n core rows in tau order: (k, None), the unit row e_{k+1},
    or (k, row of x), reduced over F_p.  G holds the n core columns, over Q
    a column of x as itself and e_{a+1} as a, over F_p the packed rows of
    their matrix (lanes of B bits).  reads holds (rows_before[j],
    cols_through[i], i, j, bound) for each check (i, j, bound) of
    conormal_checks, in order.
    """
    n, p = data.n, x.field.p
    rows, cols, rows_before, cols_through = core_pivots(x, data)
    x_rows = x.entries if p is None else [[v % p for v in row] for row in x.entries]
    H = [(k, x_rows[k - n] if k >= n else None) for k in rows]
    reads = [
        (rows_before[j], cols_through[i], i, j, bound) for i, j, bound in data.conormal_checks
    ]
    if p is None:
        return p, None, H, [x.columns[c] if c < n else c - n for c in cols], reads
    B = _lane_bits(n * n * (p - 1) ** 3 + n * (p - 1) ** 2)
    G = [_pack([x_rows[r][c] if c < n else int(c - n == r) for c in cols], B) for r in range(n)]
    return p, B, H, G, reads


def _core_violations(plan, y_rows):
    """Yield each check of data.conormal_checks failing at (x, y), as _grass_violations does.

    plan is _core_plan(x, data) and y_rows holds the n rows of y, reduced
    over F_p (a negative entry would borrow from the next lane).  A row of
    the core N = H y G is a row of y G or a row of x times y G.  Check (i,
    j) reads the southwest rank of N on the rows from rows_before[j] on and
    the columns before cols_through[i]; an empty block has rank 0.
    """
    p, B, H, G, reads = plan
    n = len(H)
    if p is None:
        yg = [[row[g] if type(g) is int else sum(map(mul, row, g)) for g in G] for row in y_rows]
        core = [yg[k] if r is None else [sum(map(mul, r, c)) for c in zip(*yg)] for k, r in H]
        profile = _southwest_profile(core, n, p)
    else:
        yg = [sum(map(mul, [v % p for v in row], G)) for row in y_rows]
        core = [yg[k] if x_row is None else sum(map(mul, x_row, yg)) for k, x_row in H]
        profile = _packed_profile(core, n, p, B)
    for below, through, i, j, bound in reads:
        rank = profile[below][through - 1] if below < n and through else 0
        if rank > bound:
            yield {"kind": "rank", "i": i, "j": j, "rank": rank, "bound": bound}


def conormal_matrix_violations(
    x: ExactMatrix, w: PartialPermutation, ys: Sequence[Sequence[Sequence]]
) -> list[list[dict]]:
    """The violated conditions of (x, y) for each covector y of ys, in order.

    Each y is its n rows of n entries in x's field (y.entries, or rows cut
    from draws); a ragged or wrong-size y raises DimensionMismatchError.
    Each list holds the Schubert violation of x, then the failed rank bounds
    in the order of data.conormal_checks.  What depends on x alone runs
    once: covexillary_data(w) (NotCovexillaryError), the Schubert check and
    the core plan, built even when x fails its Schubert check.  Per y only
    _core_violations runs: it forms the core and reads its profile.
    """
    data = covexillary_data(w)
    n = data.n
    if x.shape != (n, n):
        raise DimensionMismatchError("point size differs from permutation size")
    if any(len(y) != n for y in ys) or {len(row) for y in ys for row in y} - {n}:
        raise DimensionMismatchError("x and y must be square of equal size")
    base = matrix_schubert_violation(x, w)
    schubert = [] if base is None else [{"kind": "schubert", "condition": base}]
    plan = _core_plan(x, data)
    return [[*schubert, *_core_violations(plan, y)] for y in ys]


def _orbit_transport(x: ExactMatrix, w: PartialPermutation):
    """(P, Q) with P x Q = w's 0/1 matrix: P as its rows, Q as its columns.

    One pass over the columns of x, left to right, in O(n^3): the pivot of
    column j is its lowest nonzero entry, at row i; adding multiples of
    column j to the later columns clears row i right of it, adding
    multiples of row i to the rows above clears column j over it, and row
    i is scaled to 1 at the pivot.  A row operation only adds a lower row
    to a higher one and a column operation only an earlier column to a
    later one, so P and Q are invertible upper triangular.  A row
    operation changes only column j, which no later step reads, so it
    acts on P alone.  The pass ends at the one partial permutation matrix
    in the B x B orbit of x, which is w's exactly when x lies in the open
    cell of w; a pivot off w (or a column of w without one) raises
    CellMembershipError.
    """
    n = w.n
    if x.shape != (n, n):
        raise DimensionMismatchError("matrix size differs from permutation size")
    p = x.field.p
    if p is None:
        Fraction = _fraction_class()
        A = [list(col) for col in x.columns]
    else:
        A = [[v % p for v in col] for col in x.columns]
    P = [[int(a == b) for b in range(n)] for a in range(n)]
    Q = [[int(a == b) for b in range(n)] for a in range(n)]
    for j, v in enumerate(w.image):
        col = A[j]
        i = n - 1
        while i >= 0 and not col[i]:
            i -= 1
        if i != v - 1:
            raise CellMembershipError("x does not have the rank profile of the open cell")
        if not v:
            continue
        inv = Fraction(1, col[i]) if p is None else pow(col[i], -1, p)
        q, row = Q[j], P[i]
        for k in range(j + 1, n):
            if A[k][i]:
                c = A[k][i] * inv
                A[k] = _axpy(A[k], c, col, p)
                Q[k] = _axpy(Q[k], c, q, p)
        for a in range(i):
            if col[a]:
                P[a] = _axpy(P[a], col[a] * inv, row, p)
        P[i] = [e * inv for e in row] if p is None else [e * inv % p for e in row]
    return P, Q


def _axpy(a: list, c, b: list, p: int | None) -> list:
    """a - c b, reduced mod p over F_p."""
    if p is None:
        return [s - c * t for s, t in zip(a, b)]
    return [(s - c * t) % p for s, t in zip(a, b)]


def _orbit_fiber(field: FieldSpec, lefts, rights, w: PartialPermutation) -> Subspace:
    """The span of the outer products of lefts[a] and rights[b] over the entries (a, b) of N_w.

    N_w = {y : Wy and yW strictly upper}, W the 0/1 matrix of w, is the
    coordinate subspace of the y whose entry (a, b), 1-based, may be
    nonzero only when w(a) < b and a < w^-1(b), with w(a) = 0 for an empty
    column and w^-1(b) past n for an empty row; there are |D(w)| of them.
    Each outer product is flattened row-major.  rights must be the rows of
    an invertible upper triangular matrix R; the lefts may be any basis.

    Let L hold the lefts as columns.  The span is (L N_w) R, and L N_w is
    the direct sum over the columns b of the y whose column b lies in
    S_b, the span of the lefts[a] with (a, b) in N_w.  The reduced echelon
    basis of S_b, placed in column b, is an echelon basis of that sum, its
    leading entries at (pivot, b), row-major.  Multiplying a matrix on the
    right by R keeps the first nonzero entry of each of its rows where it
    is, so s placed in column b, times R, the outer product of s and
    rights[b], keeps its leading entry at (pivot, b): these products are
    an echelon basis of the span, and one back-substitution (_reduced)
    turns them into its reduced echelon basis.  _reduced takes each row
    scaled to 1 at its leading entry over F_p, which scaling rights[b] to
    1 at b gives, and as a primitive integer row over Q, which rights[b]
    scaled to integers keeps small.
    """
    n, p = w.n, field.p
    inverse = w.inverse().image
    basis = {}
    for b in range(n):
        column = {}
        for a in range(n):
            if w.image[a] <= b and not 0 < inverse[b] <= a + 1:  # (a+1, b+1) in N_w
                _insert(column, lefts[a], p)
        if not column:
            continue
        if p is None:
            right = _integer_row(rights[b])
        else:
            inv = pow(rights[b][b], -1, p)
            right = [v * inv % p for v in rights[b]]
        for c, s in zip(*_reduced(column, p)):
            row = [e * t for e in s for t in right]
            basis[c * n + b] = _integer_row(row) if p is None else [v % p for v in row]
    pivots, vectors = _reduced(basis, p)
    return Subspace(field, n * n, vectors, pivots)


def conormal_fiber_matrix(x: ExactMatrix, w: PartialPermutation) -> Subspace:
    """The conormal fiber over a cell point, as a subspace of flattened matrices.

    This is {y : xy and yx strictly upper triangular}, the annihilator of
    the tangent space of the orbit through x under the trace pairing.  With
    P x Q = U, w's 0/1 matrix (_orbit_transport), y lies in it iff
    Q^-1 y P^-1 lies in N_w = {y : Uy and yU strictly upper}: conjugating by
    an upper triangular matrix keeps a matrix strictly upper.  So the fiber
    is Q N_w P, spanned by the outer products of the columns of Q and the
    rows of P over the coordinates of N_w (_orbit_fiber); no linear system
    is solved.  The trace-pairing system itself is the oracle of the tests
    (tests/test_conormal.py, reference_matrix_fiber).  The caller must
    supply x in the open cell of w.
    """
    P, Q = _orbit_transport(x, w)
    return _orbit_fiber(x.field, Q, P, w)


def vector_rows(vec: Sequence, n: int) -> tuple[tuple, ...]:
    """A flattened n x n covector (row-major) cut into its n rows, as
    ExactMatrix.entries holds them.

    The entries must already be field elements (reduced mod p, or canonical
    rationals over Q), as the vectors of a Subspace are; they are not coerced.
    """
    return tuple([tuple(vec[a : a + n]) for a in range(0, n * n, n)])


def _grass_plan(V: Subspace, conditions: Sequence[tuple[int, int]]):
    """What V fixes for the list [(t'_i, c_i)] of Gr_u: (schubert, cells, reads).

    schubert holds each Schubert condition (t, dim(V + E_t), d + c) that V
    breaks, as varieties.grass_condition_checks reads it, in the order of
    the conditions.  cells holds V's cell positions S, 0-based and
    ascending: varieties.locate_grass_cell(V), the t where dim(V + E_t)
    does not jump, less one.  reads holds (below, t'_i - 1, i, j, b(i, j))
    for each bound of permcore.conormal_bounds, the table the matrix form
    reads too, in its order: the rank of x E_{t'_i} / E_{t'_j} is the
    southwest rank of x on rows t'_j+1..N and columns 1..t'_i, which is the
    southwest rank of x[S] on its rows from below = #{s in S : s < t'_j}
    on (see _grass_violations).  An empty block (t'_j = N or t'_i = 0)
    satisfies every bound and is not read.  Positions outside 0..N raise
    DimensionMismatchError.
    """
    N = V.ambient
    schubert = tuple(
        (t, total, bound)
        for t, total, bound, ok in grass_condition_checks(V, conditions)
        if not ok
    )
    cells = tuple(t - 1 for t in locate_grass_cell(V).positions)
    ts = [0, *(t for t, _ in conditions), N]
    reads = tuple(
        (bisect_left(cells, ts[j]), ts[i] - 1, i, j, bound)
        for i, j, bound in permcore.conormal_bounds(conditions, N, V.dim)
        if ts[j] != N and ts[i] != 0
    )
    return schubert, cells, reads


def _grass_violations(plan, x: ExactMatrix):
    """Yield each violated condition of (V, x), plan = _grass_plan(V, conditions).

    The Schubert violations come first, then the rank violations, each in
    the order of the plan.  The ranks are read off the southwest profile of
    the d rows x[S] of x at V's cell positions S, eliminated only after the
    Schubert violations.  This needs Im(x) in V, which SpringerGrassPoint
    has checked: the basis B of V with B[S] = I has, in its column for s,
    a last nonzero entry at s (V's echelon basis by last nonzero entries,
    times an upper triangular matrix), so the rows of B from row r on span
    exactly the unit vectors of the s in S with s >= r.  As x = B x[S],
    the rank of x on rows r.. and columns ..c is the rank of x[S] on the
    rows of those s and the same columns; no such s leaves rank 0.
    """
    schubert, cells, reads = plan
    for condition in schubert:
        yield {"kind": "schubert", "condition": condition}
    rows = x.entries
    profile = _southwest_profile([rows[s] for s in cells], x.cols, x.field.p)
    d = len(cells)
    for below, col, i, j, bound in reads:
        rank = profile[below][col] if below < d else 0
        if rank > bound:
            yield {"kind": "rank", "i": i, "j": j, "rank": rank, "bound": bound}


def conormal_grass_violations(
    V: Subspace, conditions: Sequence[tuple[int, int]], points: Sequence[SpringerGrassPoint]
) -> list[list[dict]]:
    """The violated conditions of each Springer point (V, x) of points, in order.

    Each list holds the Schubert violations of V, in the order of the
    conditions, then the rank violations in the order of
    permcore.conormal_bounds.  A point over another subspace than V raises
    InputError.  What V fixes is planned once; per point only the southwest
    profile of x[S] is read.
    """
    if any(pt.V != V for pt in points):
        raise InputError("every point of the batch must lie over V")
    plan = _grass_plan(V, conditions)
    return [list(_grass_violations(plan, pt.x)) for pt in points]


def conormal_flag_violations(
    flag: Flag, w: PartialPermutation, points: Sequence[SpringerFlagPoint]
) -> list[list[dict]]:
    """Each Springer point (F, z) of points checked as the matrix point (g, g^-1 z).

    The covectors g^-1 z go to one conormal_matrix_violations call over the
    generator g, with its diagnostics; a point over another flag raises
    InputError.
    """
    covexillary_data(w)  # NotCovexillaryError first, as for the other forms
    if flag.n != w.n:
        raise DimensionMismatchError("flag size differs from permutation size")
    if not w.is_full_rank:
        raise InputError("flag Schubert membership requires a permutation")
    if any(pt.flag != flag for pt in points):
        raise InputError("every point of the batch must lie over the flag")
    return conormal_matrix_violations(flag.generator, w, [pt.covector.entries for pt in points])


def conormal_fiber_flag(
    g: ExactMatrix, w: PartialPermutation
) -> tuple[Flag, Subspace]:
    """Flag-side conormal fiber over a cell generator g.

    The fiber {z : z and g^-1 z g strictly upper} is g times the matrix
    fiber {y : gy and yg strictly upper} at x = g, so with P g Q = U it is
    gQ N_w P: the outer products of the columns of gQ and the rows of P
    over the coordinates of N_w.  Each solution pairs with the flag
    generated by g as a Springer flag point.  w must be a permutation and g
    must lie in its open cell, so g is invertible: the cell fixes the rank
    of g at r_w(1, n) = n.
    """
    if not w.is_full_rank:
        raise InputError("flag Schubert membership requires a permutation")
    P, Q = _orbit_transport(g, w)
    moved = list(zip(*_products(g.entries, Q, g.field.p)))
    return Flag(g), _orbit_fiber(g.field, moved, P, w)
