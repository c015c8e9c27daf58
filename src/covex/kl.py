"""Kazhdan-Lusztig polynomials via the standard C'-basis recursion.

One recursion (_KLTable.kl) serves S_N and the Grassmannians.  On a pair
(u, w) it strips a descent s of w:

    P_{u,w} = q P_{us,v} + P_{u,v}
              - sum_{u <= z < v, zs < z} mu(z, v) q^{(l(w)-l(z))/2} P_{u,z}

with v = ws, after u has been replaced by the minimal element of its
descent class (P_{u,w} = P_{su,w} for sw < w, and P_{u,w} = P_{us,w} for
ws < w, so the replacement is value-preserving and shrinks the memo).
The mu-list of v is restricted by descents (Kazhdan-Lusztig, "Representations
of Coxeter groups and Hecke algebras", Invent. Math. 1979, (2.3.e)): when s
is a descent of v but not of z < v, mu(z, v) is nonzero only at the cover
of v along s, where it is 1.  Only the z that share every descent of v go
through the Bruhat dominance sieve and the recursion.

Each table (a _KLTable) supplies only the descent class walk, the descents
that move an element down and the step along one.  SymmetricGroupTable
holds S_N.  GrassmannianTable holds the d-subsets of 1..N: Grassmannian
local KL polynomials are parabolic KL polynomials (Deodhar, "On some
geometric aspects of Bruhat orderings II: the parabolic analogue of
Kazhdan-Lusztig polynomials", J. Algebra 1987), P^Gr_{X,Y} = P_{x,y} of the
maximal-length representatives x, y of the S_d x S_{N-d} cosets, matching
the convention in which a Schubert variety indexed by w has dimension l(w).
The Grassmannian side builds no S_N table.  tests/test_kl.py checks the
recursion against R-polynomial inversion, on S_N and on Gr(d, N) at the
maximal representatives, and the Grassmannian table against kl_polynomial
of those representatives.
"""

from __future__ import annotations

import itertools
from operator import getitem
from typing import NamedTuple

from .embedding import fixed_point_bits, mask_positions, target_grass_index
from .errors import InputError, InvariantError
from .frozen import Frozen
from .permcore import PartialPermutation, bruhat_leq, covexillary_data


class PolynomialQ(Frozen):
    """Integer-coefficient polynomial in q; trailing zeros trimmed."""

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def from_coeffs(coeffs) -> "PolynomialQ":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return PolynomialQ(tuple(cs))

    @staticmethod
    def zero() -> "PolynomialQ":
        return PolynomialQ(())

    @staticmethod
    def one() -> "PolynomialQ":
        return PolynomialQ((1,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other: "PolynomialQ") -> "PolynomialQ":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return PolynomialQ.from_coeffs(out)

    def __sub__(self, other: "PolynomialQ") -> "PolynomialQ":
        return self + other.scale(-1)

    def scale(self, c: int) -> "PolynomialQ":
        return PolynomialQ.from_coeffs(c * v for v in self.coeffs)

    def shift(self, k: int) -> "PolynomialQ":
        """Multiply by q^k."""
        if self.is_zero:
            return self
        return PolynomialQ((0,) * k + self.coeffs)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = "q" if i == 1 else f"q^{i}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}{mono}")
        return " + ".join(parts).replace("+ -", "- ")


_ZERO = PolynomialQ.zero()
_ONE = PolynomialQ.one()


class _KLTable:
    """The KL recursion and its memos on an indexed table of a Coxeter group.

    Per index k a table stores length[k]; packed[k], a vector of small
    counts with a guard bit per entry, such that a <= b in Bruhat order
    exactly when every entry of packed[a] is at most that of packed[b], so
    leq is one subtraction; and des[k], the bitmask of the simple
    reflections that do not move k up.  The elements of each des class are
    grouped and sorted by length for the mu-list sieve.  A table supplies
    _canonical(u, w), _down(w) (the reflections that move w down; the
    recursion strips the lowest) and _move(u, i) (u moved by reflection i).
    """

    def __init__(self, length: list[int], packed: list[int], guard: int, des: list[int]):
        self.length = length
        self.packed = packed
        self.guard = guard
        self.des = des
        classes: dict[int, list[int]] = {}
        for k, mask in enumerate(des):
            classes.setdefault(mask, []).append(k)
        for members in classes.values():
            members.sort(key=length.__getitem__)
        self._classes = classes
        self._pmemo: dict[tuple[int, int], PolynomialQ] = {}
        self._mumemo: dict[int, list[tuple[int, int]]] = {}

    def leq(self, a: int, b: int) -> bool:
        if a == b:
            return True
        if self.length[a] >= self.length[b]:
            return False
        guard = self.guard
        return (self.packed[b] + guard - self.packed[a]) & guard == guard

    def _covers(self, v: int) -> list[int]:
        """The elements one reflection below v; mu(z, v) = 1 at each."""
        down = self._down(v)
        return [self._move(v, i) for i in range(down.bit_length()) if down >> i & 1]

    def kl(self, u: int, w: int) -> PolynomialQ:
        if not self.leq(u, w):
            return _ZERO
        lengths = self.length
        if lengths[w] - lengths[u] <= 2:
            return _ONE
        u = self._canonical(u, w)
        lu, lw = lengths[u], lengths[w]
        gap = lw - lu
        key = (u, w)
        cached = self._pmemo.get(key)
        if cached is not None:
            return cached
        down = self._down(w)
        s = (down & -down).bit_length() - 1
        v = self._move(w, s)
        # after canonicalization us > u, or us = u where s fixes u's coset
        result = self.kl(self._move(u, s), v).shift(1) + self.kl(u, v)
        des = self.des
        for z, mu in self.mu_list(v):
            if lengths[z] < lu or not des[z] >> s & 1:  # below l(u), or s moves z up
                continue
            if not self.leq(u, z):
                continue
            result = result - self.kl(u, z).scale(mu).shift((lw - lengths[z]) // 2)
        if result.degree > (gap - 1) // 2:
            raise InvariantError(f"KL degree bound violated at indices ({u}, {w})")
        self._pmemo[key] = result
        return result

    def mu_list(self, v: int) -> list[tuple[int, int]]:
        """All (z, mu(z, v)) with nonzero mu, sorted by z.

        If a reflection moves z < v up but not v, then mu(z, v) is nonzero
        only where z is v moved down by it, and there it is 1 (Kazhdan-Lusztig
        1979, (2.3.e)).  Those covers are added directly; the dominance sieve
        and the recursion run only on the z whose des holds all of des[v].
        """
        cached = self._mumemo.get(v)
        if cached is not None:
            return cached
        lengths, packed, guard = self.length, self.packed, self.guard
        lv = lengths[v]
        mask = self.des[v]
        mus = dict.fromkeys(self._covers(v), 1)
        top = packed[v] + guard
        for des, members in self._classes.items():
            if des & mask != mask:
                continue
            for z in members:
                lz = lengths[z]
                if lz >= lv:
                    break
                if (lv - lz) & 1 and (top - packed[z]) & guard == guard:
                    mu = self.kl(z, v).coeff((lv - lz - 1) // 2)
                    if mu:
                        mus[z] = mu
        out = sorted(mus.items())
        self._mumemo[v] = out
        return out


class SymmetricGroupTable(_KLTable):
    """Precomputed S_N data keyed by permutation index.

    Indices follow lexicographic one-line order, so the length of index k is
    the digit sum of k in the factorial base (its Lehmer code).  Bruhat order
    is dominance of rank matrices, r(i, j) = #{k <= j : w(k) >= i}; each one
    is packed into an int with a guard bit per entry, so a single subtraction
    compares all N^2 entries.  Descents are computed once, here, and stored
    per index as one bitmask: bit i of des[k] is set when rmul(k, i) is
    shorter (positions i and i+1, from 0, are inverted), bit N+i-1 when
    lmul(k, i) is (the value i+1 stands left of i).  Every descent moves k
    down, and the recursion strips the lowest, a right descent.
    """

    def __init__(self, N: int):
        self.N = N
        perms = list(itertools.permutations(range(1, N + 1)))
        self.perms = perms
        self.index = {p: k for k, p in enumerate(perms)}
        lengths = [0]
        for size in range(2, N + 1):
            lengths = [c + rest for c in range(size) for rest in lengths]
        width = N.bit_length() + 1
        # adding column[v] counts the value v in the rows i = 1..v of a column
        column = [0]
        for v in range(N):
            column.append(column[-1] | 1 << width * v)
        step = width * N
        ranks, des = [], []
        shared: dict[int, int] = {}  # one int object per distinct descent mask
        for p in perms:
            acc = packed = shift = rdes = ldes = 0
            seen = 1  # bit v: the value v has been placed (0 counts as placed)
            prev = 0
            for pos, v in enumerate(p):
                acc += column[v]
                packed |= acc << shift
                shift += step
                if prev > v:
                    rdes |= 1 << pos - 1
                if not seen >> v - 1 & 1:
                    ldes |= 1 << v - 2
                seen |= 1 << v
                prev = v
            ranks.append(packed)
            mask = rdes | ldes << N
            des.append(shared.setdefault(mask, mask))
        guard = sum(1 << width * f + width - 1 for f in range(N * N))
        super().__init__(lengths, ranks, guard, des)

    # bound in this class's own body: perfbench/tracer.py wraps them from its
    # __dict__, so its kl counters see S_N calls and not GrassmannianTable's
    kl = _KLTable.kl
    mu_list = _KLTable.mu_list

    def rmul(self, w: int, i: int) -> int:
        """Index of w s_i: the positions i and i+1 (counted from 0) swapped."""
        p = self.perms[w]
        return self.index[p[:i] + (p[i + 1], p[i]) + p[i + 2 :]]

    def lmul(self, w: int, i: int) -> int:
        """Index of s_i w: the values i and i+1 swapped."""
        p = self.perms[w]
        q = list(p)
        q[p.index(i)], q[p.index(i + 1)] = i + 1, i
        return self.index[tuple(q)]

    def _down(self, w: int) -> int:
        return self.des[w]

    def _move(self, u: int, i: int) -> int:
        """u moved by the reflection at bit i of des: rmul below N, lmul above."""
        return self.rmul(u, i) if i < self.N else self.lmul(u, i - self.N + 1)

    def _canonical(self, u: int, w: int) -> int:
        """Minimal element of W_I u W_J, I and J the left and right descents of w."""
        des, dw = self.des, self.des[w]
        while shared := des[u] & dw:
            u = self._move(u, (shared & -shared).bit_length() - 1)
        return u


_TABLES: dict[int, SymmetricGroupTable] = {}

# The S_9 table (362,880 permutations) takes about 3 s and 150 MB to build;
# S_10 has ten times as many.
KL_MAX_N = 9


def symmetric_group_table(N: int) -> SymmetricGroupTable:
    table = _TABLES.get(N)
    if table is None:
        table = SymmetricGroupTable(N)
        _TABLES[N] = table
    return table


def _avoids_3412_and_4231(image: tuple[int, ...]) -> bool:
    return not any(
        c < d < a < b or d < b < c < a for a, b, c, d in itertools.combinations(image, 4)
    )


def kl_polynomial(u: PartialPermutation, w: PartialPermutation) -> PolynomialQ:
    """P_{u,w}(q); the zero polynomial when u is not below w.

    Two cases build no table.  P_{u,w} is zero unless u <= w.  When w
    avoids 3412 and 4231 the Schubert variety of w is smooth (Lakshmibai
    and Sandhya, 1990), so P_{u,w} = 1 for every u <= w (Kazhdan and
    Lusztig, 1979).  tests/test_kl.py checks both against the S_5 table.
    """
    if not (u.is_full_rank and w.is_full_rank):
        raise InputError("Kazhdan-Lusztig polynomials need full permutations")
    n = u.n
    if w.n != n:
        raise InputError("permutations have different sizes")
    if n > KL_MAX_N:
        raise InputError(
            f"Kazhdan-Lusztig polynomials need the table of S_{n}; "
            f"the largest that fits is S_{KL_MAX_N}"
        )
    if not bruhat_leq(u, w):
        return _ZERO
    if _avoids_3412_and_4231(w.image):
        return _ONE
    table = symmetric_group_table(n)
    return table.kl(table.index[u.image], table.index[w.image])


class GrassmannianTable(_KLTable):
    """Parabolic KL polynomials on the d-subsets of 1..N (Deodhar 1987).

    A d-subset X names the coset of S_d x S_{N-d} whose maximal representative
    lists X decreasingly and then its complement decreasingly; P_{X,Y} is the
    KL polynomial of those representatives.  Each subset is stored once, as
    the bitmask subsets[k] with bit v set for v in X.  Its length is
    sum(X) - d(d+1)/2, and the order is componentwise (GrassIndex.leq):
    X <= Y exactly when #{x in X : x > t} <= #{y in Y : y > t} for every t,
    so packed[k] holds those counts for t = 0..N-1.  s_i swaps the values i
    and i+1: it moves X down when i+1 is in X and i is not, moves it up when
    i is in X and i+1 is not, and fixes the coset when both or neither are
    (then s_i x < x).  Bit i of des[k] is set when s_i does not move X up.
    Every such s_i is a left descent of the representative, so, as in S_N,
    P_{X,Y} = P_{s_i X,Y} for every s_i that does not move Y up, and X is
    first lowered along them.  For the smallest i that moves Y down to
    V = s_i Y, with s_i X = X where s_i fixes the coset of X:

        P_{X,Y} = q P_{s_i X,V} + P_{X,V}
                  - sum_{X <= Z < V, s_i Z <= Z} mu(Z, V) q^{(l(Y)-l(Z))/2} P_{X,Z},

    whose first two terms are (1 + q) P_{X,V} when s_i fixes the coset of X.
    """

    def __init__(self, N: int, d: int):
        self.N = N
        self.d = d
        subsets = [sum(1 << v for v in z) for z in itertools.combinations(range(1, N + 1), d)]
        self.subsets = subsets
        self.index = {bits: k for k, bits in enumerate(subsets)}
        width = d.bit_length() + 1
        lengths, packed, des = [], [], []
        reflections = (1 << N) - 1 & ~1  # bits 1..N-1: s_1, ..., s_{N-1}
        for bits in subsets:
            above = [(bits >> t + 1).bit_count() for t in range(N)]  # #{x in X : x > t}
            lengths.append(sum(above) - d * (d + 1) // 2)
            packed.append(sum(c << width * t for t, c in enumerate(above)))
            des.append(reflections & ~(bits & ~(bits >> 1)))
        guard = sum(1 << width * t + width - 1 for t in range(N))
        super().__init__(lengths, packed, guard, des)

    def _down(self, y: int) -> int:
        """Bit i: i+1 is in Y and i is not, so s_i moves Y down."""
        bits = self.subsets[y]
        return bits >> 1 & ~bits & ~1

    def _move(self, x: int, i: int) -> int:
        """s_i X, or X itself where s_i fixes its coset."""
        bits = self.subsets[x]
        if (bits >> i ^ bits >> i + 1) & 1:
            return self.index[bits ^ 3 << i]
        return x

    def _canonical(self, x: int, y: int) -> int:
        """Lowest X' with P_{X',Y} = P_{X,Y}, along the s_i that fix or lower Y.

        On the bitmask of X, every value v with v-1 outside X and s_{v-1} not
        moving Y up steps down at once; no two such v are adjacent.
        """
        bits = self.subsets[x]
        lower = self.des[y] << 1  # bit v: s_{v-1} does not move Y up
        while moving := bits & ~(bits << 1) & lower:
            bits ^= moving | moving >> 1
        return self.index[bits]


_GRASS_TABLES: dict[tuple[int, int], GrassmannianTable] = {}


def grassmannian_table(N: int, d: int) -> GrassmannianTable:
    table = _GRASS_TABLES.get((N, d))
    if table is None:
        table = GrassmannianTable(N, d)
        _GRASS_TABLES[(N, d)] = table
    return table


# kl-covex sweeps every covexillary w in S_n and every u <= w.  Through n = 7
# that is 3,409 cases in about 25 s on a 2-core Xeon (n = 6: 0.7 s), mostly in
# the S_n and Gr(n, 2n) KL recursions; S_8 adds 15,767 covexillary w, each
# over an interval of S_8.  `covex kl covex-check` shares the limit.
KL_COVEX_MAX_N = 7


def check_kl_covex_size(n: int) -> None:
    """Refuse a kl-covex comparison beyond n = KL_COVEX_MAX_N."""
    if n > KL_COVEX_MAX_N:
        raise InputError(f"kl-covex is limited to n <= {KL_COVEX_MAX_N}; got n = {n}")


class KLCheckRow(NamedTuple):
    """One pair u <= w of covexillary_kl_check; a tuple, as kl-covex builds millions."""

    u: tuple[int, ...]  # one-line image
    u_hat: tuple[int, ...]  # the positions of its fixed point in Gr(n, 2n)
    flag_poly: PolynomialQ
    grass_poly: PolynomialQ

    @property
    def matched(self) -> bool:
        return self.flag_poly == self.grass_poly


def covexillary_kl_check(w: PartialPermutation) -> list[KLCheckRow]:
    """Compare P_{u,w} with the Grassmannian KL polynomial through the embedding.

    For every u below w (in the order of the S_n table), the image point of
    the u-matrix is a torus-fixed point of Gr(n, 2n); the local KL polynomial
    of the target Schubert variety there must reproduce P_{u,w}.  Each u
    goes from its S_n index to its Gr(n, 2n) index through the bitmask of
    fixed_point_bits, and both tables run on indices.
    """
    check_kl_covex_size(w.n)
    data = covexillary_data(w)
    if not w.is_full_rank:
        raise InputError("the KL comparison runs over full permutations")
    table = symmetric_group_table(w.n)
    grass = grassmannian_table(2 * w.n, w.n)
    top = table.index[w.image]
    target = grass.index[sum(1 << t for t in target_grass_index(data).positions)]
    bits = fixed_point_bits(data)
    rows = []
    for k, image in enumerate(table.perms):
        if not table.leq(k, top):
            continue
        mask = sum(map(getitem, bits, image))
        grass_poly = grass.kl(grass.index[mask], target)
        rows.append(KLCheckRow(image, mask_positions(mask), table.kl(k, top), grass_poly))
    return rows
