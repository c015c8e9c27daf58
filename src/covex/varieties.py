"""Membership predicates and samplers for flag, Grassmannian, and matrix
Schubert varieties, plus cell location.

All the rank conditions here are of the "southwest" kind: the dimension
dim(x E_j / E_{i-1}) equals the rank of the submatrix of x on rows i..n and
columns 1..j.  One bottom-up elimination pass, made once per matrix,
yields the whole profile, and every Schubert condition is an entry of it.
Every Grassmannian condition reads dim(V + E_t), which one elimination of
V's basis vectors, reversed, gives for all t at once: each pivot is then
the last nonzero entry of a vector of V, and dim(V meet E_t) counts the
pivots before position t.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Sequence

from .errors import DimensionMismatchError, InputError
from .exactla import (
    ExactMatrix,
    FieldSpec,
    Subspace,
    random_borel,
)
from .frozen import Frozen
from .permcore import PartialPermutation, dominated, rank_matrix


class Flag(Frozen):
    """A complete flag stored by an invertible generator matrix.

    F_i is the span of the first i columns of the generator.
    """

    _fields = ("generator",)

    def __init__(self, generator: ExactMatrix):
        object.__setattr__(self, "generator", generator)
        if not self.generator.is_square():
            raise DimensionMismatchError("flag generator must be square")

    @property
    def n(self) -> int:
        return self.generator.rows

    @property
    def field(self) -> FieldSpec:
        return self.generator.field

    @cached_property
    def inverse(self) -> ExactMatrix:
        """The inverse of the generator, computed once; SingularMatrixError if singular."""
        return self.generator.inverse()


class GrassIndex(Frozen):
    """A Schubert index for Gr(d, N): a strictly increasing d-sequence in 1..N."""

    _fields = ("d", "N", "positions")

    def __init__(self, d: int, N: int, positions: tuple[int, ...]):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "positions", positions)
        if len(self.positions) != self.d:
            raise InputError("index length differs from d")
        prev = 0
        for v in self.positions:
            if not prev < v <= self.N:
                raise InputError(f"positions must strictly increase within 1..{self.N}")
            prev = v

    def leq(self, other: "GrassIndex") -> bool:
        """Componentwise comparison; this is containment of Schubert varieties."""
        if (self.d, self.N) != (other.d, other.N):
            raise InputError("indices live in different Grassmannians")
        return all(a <= b for a, b in zip(self.positions, other.positions))


def southwest_profile(x: ExactMatrix) -> tuple[tuple[int, ...], ...]:
    """All dim(x E_j / E_{i-1}) = rank of x[i.., ..j], as profile[i-1][j-1].

    The profile is computed once per matrix (ExactMatrix.southwest_profile),
    so every predicate asked about the same x shares one elimination.  This
    pass-through stays because the benchmark tracer times it by name, as the
    varieties.southwest_profile group.
    """
    return x.southwest_profile


def matrix_schubert_violation(
    x: ExactMatrix, w: PartialPermutation
) -> tuple[int, int, int, int] | None:
    """First violated condition (i, j, dim, bound), or None if x lies in g_w."""
    if x.shape != (w.n, w.n):
        raise DimensionMismatchError("matrix size differs from permutation size")
    profile = southwest_profile(x)
    ranks = rank_matrix(w)
    if dominated(profile, ranks):
        return None
    for i, (got_row, bound_row) in enumerate(zip(profile, ranks), 1):
        for j, (got, bound) in enumerate(zip(got_row, bound_row), 1):
            if got > bound:
                return (i, j, got, bound)


def flag_schubert_violation(
    flag: Flag, w: PartialPermutation
) -> tuple[int, int, int, int] | None:
    """First (i, j, dim, bound) with dim(F_j / E_{i-1}) > r_w(i, j), else None."""
    if not w.is_full_rank:
        raise InputError("flag Schubert membership requires a permutation")
    return matrix_schubert_violation(flag.generator, w)


def grass_schubert_violation(
    subspace: Subspace, idx: GrassIndex
) -> tuple[int, int, int] | None:
    """First violated condition (i, dim(V + E_{u_i}), bound), else None.

    The index u is the condition list (u_i, u_i - i) of grass_condition_checks.
    """
    if subspace.ambient != idx.N:
        raise DimensionMismatchError("ambient dimension differs from N")
    if subspace.dim != idx.d:
        raise DimensionMismatchError(f"subspace dimension {subspace.dim} is not d={idx.d}")
    conditions = [(u_i, u_i - i) for i, u_i in enumerate(idx.positions, 1)]
    checks = grass_condition_checks(subspace, conditions)
    return next(
        ((i, total, bound) for i, (_, total, bound, ok) in enumerate(checks, 1) if not ok),
        None,
    )


def grass_condition_checks(
    subspace: Subspace, conditions: Sequence[tuple[int, int]]
) -> tuple[tuple[int, int, int, bool], ...]:
    """(t, dim(V + E_t), d + c, whether dim <= d + c) for each condition (t, c).

    A condition (t, c) on Gr(d, N) says that V meets E_t in dimension at
    least t - c.  Every Grassmannian Schubert condition of the package, the
    embedding target's included, is compared with its bound here and only here.
    """
    N, d = subspace.ambient, subspace.dim
    dims = subspace.sum_dims
    checks = []
    for t, c in conditions:
        if not 0 <= t <= N:
            raise DimensionMismatchError(f"condition positions must lie in 0..{N}")
        checks.append((t, dims[t], d + c, dims[t] <= d + c))
    return tuple(checks)


def locate_grass_cell(subspace: Subspace) -> GrassIndex:
    """Positions j where dim(V + E_j) does not jump; V lies in that open cell."""
    N = subspace.ambient
    dims = subspace.sum_dims
    positions = tuple(j for j in range(1, N + 1) if dims[j] == dims[j - 1])
    return GrassIndex(subspace.dim, N, positions)


def sample_cell_point(
    w: PartialPermutation, field: FieldSpec, rng: random.Random
) -> ExactMatrix:
    """A random point b_l w b_r of the open B x B orbit of w over F_p.

    b_l w is a column gather of b_l: its column j is column w(j) of b_l, or
    zero when w(j) = 0.
    """
    b_l = random_borel(field, w.n, rng)
    b_r = random_borel(field, w.n, rng)
    gathered = tuple(
        tuple(row[v - 1] if v else 0 for v in w.image) for row in b_l.entries
    )
    return ExactMatrix(field, gathered) @ b_r
