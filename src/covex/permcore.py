"""Partial-permutation combinatorics.

A partial permutation of size n is a {0,1} matrix with at most one nonzero
entry in each row and column.  It is stored by its column images: entry
``image[j-1]`` is the row of the dot in column j, or 0 for an empty column.
Full-rank partial permutations are permutations in one-line notation.

Rank matrices count dots from the bottom-left: r(i, j) is the number of
dots in rows i..n and columns 1..j.  Diagrams are the unshaded boxes after
shading everything above and to the right of each dot, and essential sets
are the northeast corners of the diagram.
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property
from operator import ge, le, sub
from typing import Iterable, Iterator, Sequence

from .errors import (
    EssentialDataError,
    InputError,
    NotCovexillaryError,
)
from .exactla import ExactMatrix, FieldSpec
from .frozen import Frozen


class PartialPermutation(Frozen):
    """A size-n {0,1} matrix with at most one nonzero per row and column."""

    _fields = ("n", "image")

    def __init__(self, n: int, image: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "image", image)  # image[j-1]: row of column j's dot, 0 if none
        if self.n < 1 or len(self.image) != self.n:
            raise InputError(f"image must have length n={self.n}")
        seen = set()
        for v in self.image:
            if not 0 <= v <= self.n:
                raise InputError(f"image value {v} outside 0..{self.n}")
            if v:
                if v in seen:
                    raise InputError(f"row {v} used by two columns")
                seen.add(v)

    @staticmethod
    def from_one_line(text: str) -> "PartialPermutation":
        """Parse "2 1 4 3" or compact "2143" (compact only when n <= 9)."""
        text = text.strip()
        if not text:
            raise InputError("empty permutation string")
        parts = text.split()
        tokens = list(parts[0]) if len(parts) == 1 and len(parts[0]) > 1 else parts
        try:
            values = [int(tok) for tok in tokens]
        except ValueError as exc:
            raise InputError(f"bad permutation {text!r}: entries must be integers") from exc
        return PartialPermutation(len(values), tuple(values))

    @staticmethod
    def identity(n: int) -> "PartialPermutation":
        return PartialPermutation(n, tuple(range(1, n + 1)))

    @staticmethod
    def longest(n: int) -> "PartialPermutation":
        """The longest permutation w0 = [n, n-1, ..., 1]."""
        return PartialPermutation(n, tuple(range(n, 0, -1)))

    @staticmethod
    def zero(n: int) -> "PartialPermutation":
        return PartialPermutation(n, (0,) * n)

    @property
    def is_full_rank(self) -> bool:
        return all(self.image)

    def dots(self) -> tuple[tuple[int, int], ...]:
        """Positions (row, col) of the nonzero entries, by column."""
        return tuple((v, j + 1) for j, v in enumerate(self.image) if v)

    def __call__(self, j: int) -> int:
        """Row of the dot in column j, or 0."""
        return self.image[j - 1]

    def matrix(self, field: FieldSpec) -> ExactMatrix:
        rows = [[0] * self.n for _ in range(self.n)]
        for r, c in self.dots():
            rows[r - 1][c - 1] = 1
        return ExactMatrix(field, tuple(tuple(row) for row in rows))

    def inverse(self) -> "PartialPermutation":
        image = [0] * self.n
        for r, c in self.dots():
            image[r - 1] = c
        return PartialPermutation(self.n, tuple(image))

    def one_line(self) -> str:
        return " ".join(str(v) for v in self.image)

    def compose(self, other: "PartialPermutation") -> "PartialPermutation":
        """Composition self o other of full-rank permutations."""
        if not (self.is_full_rank and other.is_full_rank) or self.n != other.n:
            raise InputError("compose requires two permutations of equal size")
        return PartialPermutation(self.n, tuple(self.image[v - 1] for v in other.image))

    # Derived data, computed at most once per instance.  cached_property
    # stores it in the instance __dict__, which __eq__, __hash__ and
    # __repr__ never look at: they read the fields alone (see frozen.py).

    @cached_property
    def _rank_matrix(self) -> tuple[tuple[int, ...], ...]:
        """r_w(i, j) = #{k <= j : w(k) >= i} at [i-1][j-1], by the row rule.

        initial=0 makes every sum an int, the first column's included.
        """
        image = self.image
        return tuple(
            tuple(itertools.accumulate(map(ge, image, itertools.repeat(i)), initial=0))[1:]
            for i in range(1, self.n + 1)
        )

    @cached_property
    def _covexillary(self) -> "CovexillaryData | tuple[tuple[int, int], tuple[int, int]]":
        """The essential triples, or the two essential boxes that break the chain."""
        conditions = essential_set(self)
        for prev, cond in zip(conditions, conditions[1:]):
            if cond.col < prev.col:
                return ((prev.row, prev.col), (cond.row, cond.col))
        return CovexillaryData(
            self.n,
            tuple(c.row - 1 for c in conditions),
            tuple(c.col for c in conditions),
            tuple(c.rank for c in conditions),
        )


class EssentialCondition(Frozen):
    """A rank bound at one essential box: dim(x E_col / E_{row-1}) <= rank."""

    _fields = ("row", "col", "rank")

    def __init__(self, row: int, col: int, rank: int):
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "col", col)
        object.__setattr__(self, "rank", rank)


def rank_matrix(w: PartialPermutation) -> tuple[tuple[int, ...], ...]:
    """Rank matrix of w: [i-1][j-1] counts dots in rows i..n, columns 1..j.

    This is the southwest profile of w's 0/1 matrix, in the same row-tuple
    table, computed once per instance of w.  This pass-through stays
    because the benchmark tracer hooks it by name (permcore.rank_matrix) to
    count the distinct w whose rank matrix is read.
    """
    return w._rank_matrix


def dominated(ranks: Sequence[Sequence[int]], bounds: Sequence[Sequence[int]]) -> bool:
    """True iff every entry of the table ranks is at most the entry of bounds at its box."""
    flat = itertools.chain.from_iterable
    return all(map(le, flat(ranks), flat(bounds)))


def _row_ends(w: PartialPermutation) -> list[int]:
    """ends[i] = w^-1(i) for i = 1..n, n + 1 at an empty row; ends[0] is never read."""
    ends = [w.n + 1] * (w.n + 1)
    for j, v in enumerate(w.image, 1):
        ends[v] = j
    return ends


def diagram(w: PartialPermutation) -> frozenset[tuple[int, int]]:
    """Unshaded non-dot boxes (row, col).  For a permutation, |D(w)| = l(w0 w).

    Row i of D(w) is the set of columns j < w^-1(i) with w(j) < i (w(j) = 0
    for an empty column): the box is left of row i's dot and below column
    j's (Fulton, Duke Math. J. 65, 1992).
    """
    ends, image = _row_ends(w), w.image
    return frozenset(
        (i, j) for i in range(1, w.n + 1) for j in range(1, ends[i]) if image[j - 1] < i
    )


def essential_set(w: PartialPermutation) -> tuple[EssentialCondition, ...]:
    """Northeast corners of the diagram with their rank bounds, sorted by (row, col).

    One pass over the rows, without building the diagram, by diagram's row
    rule.  A box (i, j) of D(w) is a corner when (i, j + 1), (i - 1, j) and
    (i - 1, j + 1) are not in D(w), so each row is checked against the row
    above; the corners come out in (row, col) order.  The same row gives the
    rank at a corner: r_w(i, j) = j - #{k <= j : w(k) < i}.
    """
    n, image = w.n, w.image
    ends = _row_ends(w)
    above = [False] * (n + 2)  # row i - 1 of D(w) by column, padded at 0 and n + 1
    essential = []
    for i in range(1, n + 1):
        end = ends[i]
        row = [False] * (n + 2)
        row[1:end] = [v < i for v in image[: end - 1]]
        below = 0  # #{k <= j : w(k) < i}
        for j in range(1, end):
            below += row[j]
            if row[j] and not (row[j + 1] or above[j] or above[j + 1]):
                essential.append(EssentialCondition(i, j, j - below))
        above = row
    return tuple(essential)


def avoids_3412(w: PartialPermutation) -> bool:
    """No i<j<k<l with w(k) < w(l) < w(i) < w(j)."""
    if not w.is_full_rank:
        raise InputError("3412-avoidance is defined for permutations only")
    return not any(c < d < a < b for a, b, c, d in itertools.combinations(w.image, 4))


class CovexillaryData(Frozen):
    """Essential-set triples (p_i, q_i, r_i) of a covexillary partial permutation.

    There are m-1 triples and t_i = p_i + q_i.  chain adds the padding
    (p_0, q_0, r_0) = (0, 0, 0) and (p_m, q_m, r_m) = (n, n, 0).
    """

    _fields = ("n", "p", "q", "r")

    def __init__(self, n: int, p: tuple[int, ...], q: tuple[int, ...], r: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        k = len(self.p)
        if len(self.q) != k or len(self.r) != k:
            raise EssentialDataError("p, q, r must have equal lengths")
        prev = None
        for pi, qi, ri in zip(self.p, self.q, self.r):
            if not (0 <= pi <= self.n - 1 and 1 <= qi <= self.n):
                raise EssentialDataError(f"triple ({pi},{qi},{ri}) out of range")
            if prev is not None:
                if pi < prev[0] or qi < prev[1]:
                    raise EssentialDataError("p and q must be weakly increasing")
                if (pi, qi) == prev:
                    raise EssentialDataError(f"repeated essential box {prev}")
            prev = (pi, qi)

    @property
    def m(self) -> int:
        return len(self.p) + 1

    @cached_property
    def chain(self) -> tuple[tuple[int, int, int], ...]:
        """(p_i, q_i, r_i) for i = 0..m; r_0 = r_m = 0 is the rank of an empty block."""
        return ((0, 0, 0), *zip(self.p, self.q, self.r), (self.n, self.n, 0))

    @cached_property
    def tau(self) -> PartialPermutation:
        """The interleaving permutation of S_2n, built once per instance.

        Block step i sends the basis vectors e_{q_{i-1}+1}..e_{q_i} and then
        e_{n+p_{i-1}+1}..e_{n+p_i} to the next run of consecutive targets, so
        the preimage of E_{t_i} is always <e_1..e_{q_i}, e_{n+1}..e_{n+p_i}>.
        """
        n = self.n
        image = [0] * (2 * n)
        next_target = 1
        for (p0, q0, _), (p1, q1, _) in itertools.pairwise(self.chain):
            for j in range(q0 + 1, q1 + 1):
                image[j - 1] = next_target
                next_target += 1
            for j in range(n + p0 + 1, n + p1 + 1):
                image[j - 1] = next_target
                next_target += 1
        return PartialPermutation(2 * n, tuple(image))

    @cached_property
    def tau_order(self) -> tuple[int, ...]:
        """tau^-1(t) - 1 for t = 1..2n, built once per instance.

        Reading a vector's entries in this order applies tau to it: the
        entry at index k moves to position tau(k + 1).
        """
        return tuple(k - 1 for k in self.tau.inverse().image)

    @cached_property
    def grass_conditions(self) -> tuple[tuple[int, int], ...]:
        """The pairs (t_i, p_i + r_i) for i = 1..m-1: the embedding target in Gr(n, 2n)."""
        return tuple((p + q, p + r) for p, q, r in self.chain[1:-1])

    @cached_property
    def conormal_checks(self) -> tuple[tuple[int, int, int], ...]:
        """(i, j, b(i, j)) for 0 <= j < i <= m: conormal_bounds of grass_conditions."""
        return conormal_bounds(self.grass_conditions, 2 * self.n, self.n)


def conormal_bounds(
    conditions: Sequence[tuple[int, int]], N: int, d: int
) -> tuple[tuple[int, int, int], ...]:
    """(i, j, b(i, j)) for 0 <= j < i <= k+1 over k conditions (t_i, c_i) of Gr(d, N).

    The conditions are padded with (t_0, c_0) = (0, 0) and (t_{k+1}, c_{k+1})
    = (N, N - d).  b(i, j) bounds dim(x E_{t_i} / E_{t_j}) in the conormal
    criterion: the minimum of the row case (t_{i-1} - c_{i-1}) - (t_j - c_j)
    and the column case c_i - c_{j+1}.  Under t = p + q and c = p + r the
    cases read (q_{i-1} - r_{i-1}) - (q_j - r_j) and (p_i + r_i) - (p_{j+1} +
    r_{j+1}), and the padding reads (p, q, r) = (n, n, 0) when N = 2n, d = n.
    """
    t = [0, *(pos for pos, _ in conditions), N]
    c = [0, *(codim for _, codim in conditions), N - d]
    return tuple(
        (i, j, min((t[i - 1] - c[i - 1]) - (t[j] - c[j]), c[i] - c[j + 1]))
        for i in range(1, len(t))
        for j in range(i)
    )


def covexillary_data(w: PartialPermutation) -> CovexillaryData:
    """Essential triples of w, or NotCovexillaryError naming a violating pair.

    The essential boxes, read in (row, col) order, must have both rows and
    columns weakly increasing.  For permutations this succeeds exactly when
    w avoids the pattern 3412.  The answer is derived once per instance of
    w; the error is raised afresh on every call.
    """
    found = w._covexillary
    if isinstance(found, CovexillaryData):
        return found
    raise NotCovexillaryError(*found)


def is_covexillary(w: PartialPermutation) -> bool:
    return isinstance(w._covexillary, CovexillaryData)


def bruhat_leq(u: PartialPermutation, w: PartialPermutation) -> bool:
    """u <= w iff the rank matrix of u is entrywise dominated by that of w."""
    if u.n != w.n:
        raise InputError("Bruhat comparison requires equal sizes")
    return dominated(rank_matrix(u), rank_matrix(w))


class OrbitTable:
    """The partial permutations u of size n, each in one lane of a few packed ints.

    A lane has n.bit_length() + 1 bits, the top one a guard, and holds a
    value of 0..n; lanes gives each u's guard bit, partials[0] lowest.
    columns[j][v] holds 1 in the lane of each u with u(j + 1) = v, built
    from binary digits (summing shifted ints would be quadratic), and
    boxes[i-1][j-1] holds r_u(i, j), the sum of the columns[k][v] with
    k < j and v >= i.  below keeps the mask of each (box, rank) it reads,
    at most n^2 (n + 1) of them.
    """

    def __init__(self, n: int):
        self.n = n
        self.partials = list(all_partial_permutations(n))
        width = n.bit_length() + 1
        self.lanes = range(width - 1, width * len(self.partials), width)
        self.guard = int(format(1 << width - 1, "b") * len(self.partials), 2)
        self._spread = [r * (self.guard >> width - 1) + self.guard for r in range(n + 1)]
        one, zero = format(1, f"0{width}b"), "0" * width
        self.columns = tuple(
            tuple(int("".join([one if x == v else zero for x in column]), 2) for v in range(n + 1))
            for column in zip(*(u.image for u in reversed(self.partials)))
        )
        self.boxes = tuple(
            tuple(itertools.accumulate(sum(column[i:]) for column in self.columns))
            for i in range(1, n + 1)
        )
        self._below: dict[tuple[int, int, int], int] = {}

    def at_most(self, packed: int, k: int) -> int:
        """The guard bits of the lanes of packed whose value is at most k."""
        return self._spread[min(k, self.n)] - packed & self.guard if k >= 0 else 0

    def below(self, w: PartialPermutation) -> int:
        """The guard bits of the u <= w: r_u <= r_w at w's essential boxes (Fulton 1992)."""
        if w.n != self.n:
            raise InputError("Bruhat comparison requires equal sizes")
        lanes = self.guard
        for e in essential_set(w):
            key = (e.row, e.col, e.rank)
            if (mask := self._below.get(key)) is None:
                mask = self._below[key] = self.at_most(self.boxes[e.row - 1][e.col - 1], e.rank)
            lanes &= mask
        return lanes

    def past(self, bits: Sequence[Sequence[int]]) -> list[int]:
        """past[t], t = 0..2n: #{j : bits[j][u(j + 1)] > 1 << t} in the lane of each u.

        bits[j][v] is a power 1 << s, 1 <= s <= 2n.  past[0] is n in every
        lane, and each columns[j][v] leaves the count at t = s.
        """
        at = [0] * (2 * self.n + 1)
        for column, row in zip(self.columns, bits):
            for ones, bit in zip(column, row):
                at[bit.bit_length() - 1] += ones
        return list(itertools.accumulate(at[1:], sub, initial=self._spread[self.n] - self.guard))


def reconstruct_from_essential(
    n: int, conditions: Iterable[EssentialCondition]
) -> PartialPermutation:
    """The unique partial permutation with the given essential set and ranks.

    The full rank matrix is the largest one compatible with the essential
    bounds (each step right adds at most 1, each step up adds at most one per
    row, and the trivial caps min(j, n-i+1) apply).  The dot pattern is then
    read off from second differences.  Input that does not arise from an
    actual partial permutation raises EssentialDataError.
    """
    conds = sorted(conditions, key=lambda e: (e.row, e.col))
    for c in conds:
        if not (1 <= c.row <= n and 1 <= c.col <= n):
            raise EssentialDataError(f"box ({c.row},{c.col}) outside the grid")
        if c.rank > min(c.col, n - c.row + 1) or c.rank < 0:
            raise EssentialDataError(f"rank {c.rank} impossible at ({c.row},{c.col})")
    r = [[0] * (n + 2) for _ in range(n + 2)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            best = min(j, n - i + 1)
            for c in conds:
                best = min(best, c.rank + max(0, j - c.col) + max(0, c.row - i))
            r[i][j] = best
    image = [0] * n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            delta = r[i][j] - r[i][j - 1] - r[i + 1][j] + r[i + 1][j - 1]
            if delta == 1:
                if image[j - 1]:
                    raise EssentialDataError("derived dots collide in a column")
                image[j - 1] = i
            elif delta != 0:
                raise EssentialDataError("derived rank matrix is not a dot pattern")
    try:
        w = PartialPermutation(n, tuple(image))
    except InputError as exc:
        raise EssentialDataError(str(exc)) from exc
    if essential_set(w) != tuple(conds):
        raise EssentialDataError("conditions are not the essential set of any partial permutation")
    return w


def all_permutations(n: int) -> Iterator[PartialPermutation]:
    for image in itertools.permutations(range(1, n + 1)):
        yield PartialPermutation(n, image)


def all_partial_permutations(n: int) -> Iterator[PartialPermutation]:
    """All partial permutations of size n, in a deterministic order."""
    rows = list(range(1, n + 1))
    for k in range(n + 1):
        for cols in itertools.combinations(range(n), k):
            for chosen in itertools.permutations(rows, k):
                image = [0] * n
                for col, row in zip(cols, chosen):
                    image[col] = row
                yield PartialPermutation(n, tuple(image))


def random_partial_permutation(n: int, rng: random.Random) -> PartialPermutation:
    """Uniform over sizes is not attempted; each column independently empty or a free row."""
    rows = list(range(1, n + 1))
    rng.shuffle(rows)
    image = [0] * n
    for j in range(n):
        if rng.random() < 0.5 and rows:
            image[j] = rows.pop()
    return PartialPermutation(n, tuple(image))
