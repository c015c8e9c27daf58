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
coordinate point, whose Schubert cell is read off tau (fixed_point_bits,
fixed_point_index).  At a coordinate point the target conditions need no
elimination: target_lanes reads them for every partial permutation of a
size at once, off the packed counts of a permcore.OrbitTable.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import getitem, itemgetter

from .errors import DimensionMismatchError
from .exactla import ExactMatrix, Subspace, _span_rows
from .permcore import CovexillaryData, OrbitTable, PartialPermutation
from .varieties import GrassIndex


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


def embed_point(x: ExactMatrix, data: CovexillaryData) -> Subspace:
    """tau applied to the graph of x; sends 0 to the coordinate point of tau.

    Column j of tau (I over x) is e_j stacked on column j of x, read in
    the order data.tau_order; the n columns are spanned as they are built.
    """
    n = data.n
    if x.shape != (n, n):
        raise DimensionMismatchError("matrix size differs from n")
    in_tau_order = itemgetter(*data.tau_order)
    zeros = (0,) * n
    columns = (
        in_tau_order(zeros[:j] + (1,) + zeros[j + 1 :] + column)
        for j, column in enumerate(zip(*x.entries))
    )
    return _span_rows(x.field, 2 * n, columns)


def fixed_point_bits(data: CovexillaryData) -> tuple[tuple[int, ...], ...]:
    """The Schubert cell of the coordinate point embed_point(u's matrix), column by column.

    Column j of tau (I over u) is e_tau(j) + e_tau(n+u(j)), or e_tau(j) when
    u(j) = 0.  These columns have disjoint supports, so dim(V + E_t) stops
    jumping exactly at the larger position t of each support.  bits[j-1][v]
    is 1 << t for column j when u(j) = v; no two columns share a bit, so the
    cell of u is the bitmask sum(map(getitem, bits, u.image)).
    """
    n = data.n
    tau = data.tau.image
    return tuple(
        tuple(1 << (max(tau[j], tau[n + v - 1]) if v else tau[j]) for v in range(n + 1))
        for j in range(n)
    )


def mask_positions(mask: int) -> tuple[int, ...]:
    """The set bits of mask, increasing."""
    return tuple([t for t in range(mask.bit_length()) if mask >> t & 1])


def fixed_point_index(u: PartialPermutation, data: CovexillaryData) -> GrassIndex:
    """The Schubert cell of the coordinate point embed_point(u's matrix) (fixed_point_bits)."""
    n = data.n
    if u.n != n:
        raise DimensionMismatchError("partial permutation size differs from n")
    mask = sum(map(getitem, fixed_point_bits(data), u.image))
    return GrassIndex(n, 2 * n, mask_positions(mask))


def target_lanes(orbits: OrbitTable, past: Sequence[int], data: CovexillaryData) -> int:
    """The guard bits of the u of orbits whose coordinate point E_S lies in the target.

    past is orbits.past(fixed_point_bits(data)).  dim(E_S + E_t) is t plus
    the number of positions of S past t, so the target condition (t, c),
    dim <= n + c, holds at E_S iff that number is at most n + c - t: each
    condition is one guarded subtraction, and the target is their AND.
    """
    n = data.n
    lanes = orbits.guard
    for t, c in data.grass_conditions:
        lanes &= orbits.at_most(past[t], n + c - t)
    return lanes


def check_target_space(subspace: Subspace, data: CovexillaryData) -> None:
    """DimensionMismatchError unless the subspace is a point of Gr(n, 2n)."""
    if (subspace.ambient, subspace.dim) != (2 * data.n, data.n):
        raise DimensionMismatchError("point does not live in Gr(n, 2n)")


def target_grass_index(data: CovexillaryData) -> GrassIndex:
    """The increasing n-sequence cutting out the target Schubert variety.

    Each condition (t, p + r) pins position t - c = q - r of the sequence
    to at most t; the sequence is the componentwise-largest one obeying the
    pins.  test_fixed_point_index_of_w_is_the_target_index checks it
    against the cell of w read off tau, for every covexillary partial w
    with n <= 5.
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


def weight_map(data: CovexillaryData) -> dict[int, tuple[str, int]]:
    """Torus-weight dictionary: t_{tau(i)} -> y_i for i <= n, else x_{i-n}."""
    tau = data.tau
    n = data.n
    mapping: dict[int, tuple[str, int]] = {}
    for i in range(1, 2 * n + 1):
        mapping[tau(i)] = ("y", i) if i <= n else ("x", i - n)
    return mapping
