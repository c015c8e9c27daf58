"""The covexillary open embedding of a matrix Schubert variety into a
Grassmannian Schubert variety.

The map sends an n x n matrix x to the column span of the stacked matrix
(I over x) inside Gr(n, 2n), then permutes coordinates by the block
interleaving permutation built from the essential triples.  The image of
the variety is an open piece of one Grassmannian Schubert variety, cut out
by dim(V + E_{t_i}) <= n + p_i + r_i.  That target has one encoding, the
pairs (t_i, p_i + r_i) of CovexillaryData.grass_conditions, which
varieties.grass_condition_checks reads like any other condition list; its
increasing-sequence form is target_grass_index.  The map is
torus-equivariant, so it sends the matrix of a partial permutation to a
coordinate point, whose Schubert cell is read off tau (fixed_point_index).
"""

from __future__ import annotations

from .errors import DimensionMismatchError
from .exactla import ExactMatrix, Subspace, coordinate_subspace, subspace_sum
from .permcore import CovexillaryData, PartialPermutation
from .varieties import GrassIndex, grass_condition_checks


def tau_permutation(data: CovexillaryData) -> PartialPermutation:
    """The interleaving permutation of S_2n attached to covexillary data.

    The preimage of E_{t_i} under it is <e_1..e_{q_i}, e_{n+1}..e_{n+p_i}>;
    CovexillaryData.tau builds it once per instance of the data.
    """
    return data.tau


def embedding_target(data: CovexillaryData) -> CovexillaryData:
    """The embedding target: the data itself, whose grass_conditions cut it out.

    perfbench/queries.py still reads the target through this name.
    """
    return data


def graph_embed(x: ExactMatrix) -> Subspace:
    """Column span of (I over x): the graph of x as a point of Gr(n, 2n)."""
    if not x.is_square():
        raise DimensionMismatchError("graph embedding requires a square matrix")
    stacked = ExactMatrix.identity(x.field, x.rows).vstack(x)
    return Subspace.column_span(stacked)


def embed_point(x: ExactMatrix, data: CovexillaryData) -> Subspace:
    """tau applied to the graph of x; sends 0 to the coordinate point of tau."""
    stacked = ExactMatrix.identity(x.field, x.rows).vstack(x)
    return Subspace.column_span(data.tau.permute_rows(stacked))


def fixed_point_index(u: PartialPermutation, data: CovexillaryData) -> GrassIndex:
    """The Schubert cell of the coordinate point embed_point(u's matrix).

    Column j of tau (I over u) is e_tau(j) + e_tau(n+u(j)), or e_tau(j) when
    u(j) = 0.  These columns have disjoint supports, so dim(V + E_t) stops
    jumping exactly at the larger position of each support.
    """
    n = data.n
    if u.n != n:
        raise DimensionMismatchError("partial permutation size differs from n")
    tau = data.tau
    positions = sorted(
        max(tau(j), tau(n + u(j))) if u(j) else tau(j) for j in range(1, n + 1)
    )
    return GrassIndex(n, 2 * n, tuple(positions))


def check_target_space(subspace: Subspace, data: CovexillaryData) -> None:
    """DimensionMismatchError unless the subspace is a point of Gr(n, 2n)."""
    if (subspace.ambient, subspace.dim) != (2 * data.n, data.n):
        raise DimensionMismatchError("point does not live in Gr(n, 2n)")


def target_violation(
    subspace: Subspace, data: CovexillaryData
) -> tuple[int, int, int] | None:
    """First violated target condition (t_i, dim, n + p_i + r_i), else None."""
    check_target_space(subspace, data)
    for t, total, bound, ok in grass_condition_checks(subspace, data.grass_conditions):
        if not ok:
            return (t, total, bound)
    return None


def target_holds(subspace: Subspace, data: CovexillaryData) -> bool:
    return target_violation(subspace, data) is None


def target_grass_index(data: CovexillaryData) -> GrassIndex:
    """The increasing n-sequence cutting out the target Schubert variety.

    Each condition (t, p + r) pins position t - c = q - r of the sequence
    to at most t; the sequence is the componentwise-largest one obeying the
    pins.  This derived conversion is validated against cell location of
    sampled maximal points.
    """
    n = data.n
    positions = [n + i for i in range(1, n + 1)]
    for t, c in data.grass_conditions:
        a = t - c
        if a >= 1:
            positions[a - 1] = min(positions[a - 1], t)
    for i in range(n - 2, -1, -1):
        positions[i] = min(positions[i], positions[i + 1] - 1)
    return GrassIndex(n, 2 * n, tuple(positions))


def check_rank_lemma(
    x: ExactMatrix, p: int, q: int, r: int
) -> tuple[bool, bool]:
    """The two sides of the one-condition rank equivalence.

    Returns (dim(x E_q / E_p) <= r, dim(h(x) + V) <= n + p + r) with
    V = <e_1..e_q, e_{n+1}..e_{n+p}>.  The lemma says they always agree.
    """
    n = x.rows
    if not (0 <= p <= n and 0 <= q <= n):
        raise DimensionMismatchError("p and q must lie in 0..n")
    left_rank = x.submatrix(range(p + 1, n + 1), range(1, q + 1)).rank() if q else 0
    left = left_rank <= r
    field = x.field
    v = coordinate_subspace(
        field, 2 * n, list(range(1, q + 1)) + list(range(n + 1, n + p + 1))
    )
    right = subspace_sum(graph_embed(x), v).dim <= n + p + r
    return (left, right)


def weight_map(data: CovexillaryData) -> dict[int, tuple[str, int]]:
    """Torus-weight dictionary: t_{tau(i)} -> y_i for i <= n, else x_{i-n}."""
    tau = data.tau
    n = data.n
    mapping: dict[int, tuple[str, int]] = {}
    for i in range(1, 2 * n + 1):
        mapping[tau(i)] = ("y", i) if i <= n else ("x", i - n)
    return mapping
