"""Kazhdan-Lusztig polynomials via the standard C'-basis recursion.

The recursion on pairs (u, w) strips a right descent s of w:

    P_{u,w} = q P_{us,v} + P_{u,v}
              - sum_{u <= z < v, zs < z} mu(z, v) q^{(l(w)-l(z))/2} P_{u,z}

with v = ws, after u has been replaced by the minimal element of its
descent class (P_{u,w} = P_{su,w} for sw < w, and P_{u,w} = P_{us,w} for
ws < w, so the replacement is value-preserving and shrinks the memo).

The mu-list of v is restricted by descents (Kazhdan-Lusztig, "Representations
of Coxeter groups and Hecke algebras", Invent. Math. 1979, (2.3.e)): when s
is a left or right descent of v but not of z < v, mu(z, v) is nonzero only
at the cover z = sv or z = vs, where it is 1.  Those covers are one
transposition away; only the z that share every descent of v go through the
Bruhat dominance sieve and the recursion.

Grassmannian local Kazhdan-Lusztig polynomials are parabolic KL polynomials
(Deodhar, "On some geometric aspects of Bruhat orderings II: the parabolic
analogue of Kazhdan-Lusztig polynomials", J. Algebra 1987): P^Gr_{X,Y} is
P_{x,y} of the maximal-length representatives x, y of the S_d x S_{N-d}
cosets, matching the convention in which a Schubert variety indexed by w has
dimension l(w).  The same recursion, with a left descent, runs directly on
the d-subsets X, Y of 1..N (GrassmannianTable), so the Grassmannian side
builds no S_N table and no coset representative; kl_polynomial of the
maximal representatives is its test oracle (tests/test_kl.py).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .embedding import fixed_point_index, target_grass_index
from .errors import InputError
from .permcore import PartialPermutation, bruhat_leq, covexillary_data
from .varieties import GrassIndex


@dataclass(frozen=True)
class PolynomialQ:
    """Integer-coefficient polynomial in q; trailing zeros trimmed."""

    coeffs: tuple[int, ...]

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

    def __call__(self, value: int) -> int:
        return sum(c * value**i for i, c in enumerate(self.coeffs))

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


class SymmetricGroupTable:
    """Precomputed S_N data keyed by permutation index.

    Indices follow lexicographic one-line order, so the length of index k is
    the digit sum of k in the factorial base (its Lehmer code).  Bruhat order
    is dominance of rank matrices, r(i, j) = #{k <= j : w(k) >= i}; each one
    is packed into an int with a guard bit per entry, so a single subtraction
    compares all N^2 entries.  Descents are computed once, here, and stored
    per index as bitmasks: bit i of rdes[k] is set when rmul(k, i) is
    shorter (positions i and i+1, from 0, are inverted), bit i-1 of ldes[k]
    when lmul(k, i) is (the value i+1 stands left of i).  Canonicalization,
    the recursion and the mu-lists read only these masks.  The permutations
    are grouped by their (rdes, ldes) pair, each group sorted by length, and
    the mu-list sieve scans only the groups that hold every descent of v.
    """

    def __init__(self, N: int):
        self.N = N
        perms = list(itertools.permutations(range(1, N + 1)))
        self.perms = perms
        self.index = {p: k for k, p in enumerate(perms)}
        lengths = [0]
        for size in range(2, N + 1):
            lengths = [c + rest for c in range(size) for rest in lengths]
        self.length = lengths
        width = N.bit_length() + 1
        # adding column[v] counts the value v in the rows i = 1..v of a column
        column = [0]
        for v in range(N):
            column.append(column[-1] | 1 << width * v)
        self.guard = sum(1 << width * f + width - 1 for f in range(N * N))
        step = width * N
        ranks, rdes_list, ldes_list = [], [], []
        classes: dict[tuple[int, int], list[int]] = {}
        for k, p in enumerate(perms):
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
            rdes_list.append(rdes)
            ldes_list.append(ldes)
            classes.setdefault((rdes, ldes), []).append(k)
        self.packed_ranks = ranks
        self.rdes = rdes_list
        self.ldes = ldes_list
        for members in classes.values():
            members.sort(key=lengths.__getitem__)
        self._classes = classes
        self._pmemo: dict[tuple[int, int], PolynomialQ] = {}
        self._mumemo: dict[int, list[tuple[int, int]]] = {}

    def leq(self, a: int, b: int) -> bool:
        if a == b:
            return True
        if self.length[a] >= self.length[b]:
            return False
        guard = self.guard
        return (self.packed_ranks[b] + guard - self.packed_ranks[a]) & guard == guard

    def rmul(self, w: int, i: int) -> int:
        """Index of w s_i: the positions i and i+1 (counted from 0) swapped."""
        p = self.perms[w]
        return self.index[p[:i] + (p[i + 1], p[i]) + p[i + 2 :]]

    def lmul(self, w: int, i: int) -> int:
        """Index of s_i w: the values i and i+1 swapped."""
        return self.index[_swap(self.perms[w], i)]

    def _canonical_u(self, u: int, w: int) -> int:
        """Minimal element of W_I u W_J, I and J the left and right descents of w."""
        rdes, ldes = self.rdes, self.ldes
        rw, lw = rdes[w], ldes[w]
        while True:
            if r := rdes[u] & rw:
                u = self.rmul(u, (r & -r).bit_length() - 1)
            elif l := ldes[u] & lw:
                u = self.lmul(u, (l & -l).bit_length())
            else:
                return u

    def kl(self, u: int, w: int) -> PolynomialQ:
        if not self.leq(u, w):
            return _ZERO
        lengths = self.length
        if lengths[w] - lengths[u] <= 2:
            return _ONE
        u = self._canonical_u(u, w)
        gap = lengths[w] - lengths[u]
        if gap <= 2:
            return _ONE
        key = (u, w)
        cached = self._pmemo.get(key)
        if cached is not None:
            return cached
        rdes = self.rdes
        s = (rdes[w] & -rdes[w]).bit_length() - 1
        v = self.rmul(w, s)
        us = self.rmul(u, s)  # us > u after canonicalization
        result = self.kl(us, v).shift(1) + self.kl(u, v)
        lw, lu = lengths[w], lengths[u]
        for z, mu in self.mu_list(v):
            if lengths[z] < lu or not rdes[z] >> s & 1:  # below l(u), or zs > z
                continue
            if not self.leq(u, z):
                continue
            result = result - self.kl(u, z).scale(mu).shift((lw - lengths[z]) // 2)
        if result.degree > (gap - 1) // 2:
            raise AssertionError(
                f"KL degree bound violated at ({self.perms[u]}, {self.perms[w]})"
            )
        self._pmemo[key] = result
        return result

    def mu_list(self, v: int) -> list[tuple[int, int]]:
        """All (z, mu(z, v)) with nonzero mu, sorted by z.

        If s is a left (right) descent of v but not of z < v, then mu(z, v)
        is nonzero only for z = sv (z = vs), where it is 1 (Kazhdan-Lusztig
        1979, (2.3.e)).  Those covers are added directly; the dominance sieve
        and the recursion run only on the z that share every descent of v.
        """
        cached = self._mumemo.get(v)
        if cached is not None:
            return cached
        lengths, ranks = self.length, self.packed_ranks
        lv = lengths[v]
        rmask, lmask = self.rdes[v], self.ldes[v]
        mus = {self.rmul(v, i): 1 for i in range(self.N - 1) if rmask >> i & 1}
        mus.update((self.lmul(v, i + 1), 1) for i in range(self.N - 1) if lmask >> i & 1)
        guard = self.guard
        top = ranks[v] + guard
        for (rdes, ldes), members in self._classes.items():
            if rdes & rmask != rmask or ldes & lmask != lmask:
                continue
            for z in members:
                lz = lengths[z]
                if lz >= lv:
                    break
                if (lv - lz) & 1 and (top - ranks[z]) & guard == guard:
                    mu = self.kl(z, v).coeff((lv - lz - 1) // 2)
                    if mu:
                        mus[z] = mu
        out = sorted(mus.items())
        self._mumemo[v] = out
        return out


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


def _as_tuple(w) -> tuple[int, ...]:
    if isinstance(w, PartialPermutation):
        if not w.is_full_rank:
            raise InputError("Kazhdan-Lusztig polynomials need full permutations")
        return w.image
    return tuple(w)


def _avoids_3412_and_4231(image: tuple[int, ...]) -> bool:
    return not any(
        c < d < a < b or d < b < c < a for a, b, c, d in itertools.combinations(image, 4)
    )


def kl_polynomial(u, w) -> PolynomialQ:
    """P_{u,w}(q); the zero polynomial when u is not below w.

    Two cases build no table.  P_{u,w} is zero unless u <= w.  When w
    avoids 3412 and 4231 the Schubert variety of w is smooth (Lakshmibai
    and Sandhya, 1990), so P_{u,w} = 1 for every u <= w (Kazhdan and
    Lusztig, 1979).  tests/test_kl.py checks both against the S_5 table.
    """
    ut, wt = _as_tuple(u), _as_tuple(w)
    n = len(ut)
    if len(wt) != n:
        raise InputError("permutations have different sizes")
    if n > KL_MAX_N:
        raise InputError(
            f"Kazhdan-Lusztig polynomials need the table of S_{n}; "
            f"the largest that fits is S_{KL_MAX_N}"
        )
    # S_0 holds only the empty permutation, which PartialPermutation cannot hold
    if n and not bruhat_leq(PartialPermutation(n, ut), PartialPermutation(n, wt)):
        return _ZERO
    if _avoids_3412_and_4231(wt):
        return _ONE
    table = symmetric_group_table(n)
    return table.kl(table.index[ut], table.index[wt])


def _swap(values: tuple[int, ...], i: int) -> tuple[int, ...]:
    """s_i on values: i and i+1 trade places.

    On a permutation this is s_i w.  A d-subset stays increasing when it
    holds exactly one of i and i+1; otherwise s_i fixes its coset.
    """
    return tuple(i + 1 if v == i else i if v == i + 1 else v for v in values)


def _ascents(subset: tuple[int, ...]) -> int:
    """Bitmask of the i with i in the subset and i+1 not: s_i moves it up."""
    bits = sum(1 << v for v in subset)
    return bits & ~(bits >> 1)


class GrassmannianTable:
    """Parabolic KL polynomials on the d-subsets of 1..N (Deodhar 1987).

    A d-subset X names the coset of S_d x S_{N-d} whose maximal representative
    lists X decreasingly and then its complement decreasingly; P_{X,Y} is the
    KL polynomial of those representatives.  Length is sum(X) up to a
    constant, and the order is componentwise (GrassIndex.leq).  s_i swaps the
    values i and i+1: it moves X down when i+1 is in X and i is not, and fixes
    the coset when both or neither are (then s_i x < x).  Every such s_i is a
    left descent of the representative, so, as in S_N, P_{X,Y} = P_{s_i X,Y}
    for every s_i that does not move Y up, and X is first lowered along them.
    For the smallest i that moves Y down to V = s_i Y:

        P_{X,Y} = (1 + q) P_{X,V}          if s_i fixes the coset of X
                  q P_{s_i X,V} + P_{X,V}  otherwise (s_i X > X)
                  - sum_{X <= Z < V, s_i Z <= Z} mu(Z, V) q^{(l(Y)-l(Z))/2} P_{X,Z}.

    As in S_N (KL 1979, (2.3.e)), the mu-list of V holds the covers s_i V with
    mu = 1 and sieves only the Z that share every left descent of V, that is,
    the Z that an s_i moves up only where it moves V up.  Each subset's
    ascents (bit i: s_i moves it up) are one bitmask, stored with it in
    subsets; the sieve compares masks, and X is lowered on its own bitmask.
    """

    def __init__(self, N: int, d: int):
        self.N = N
        self.d = d
        self.subsets = sorted(
            (sum(z), _ascents(z), z)
            for z in itertools.combinations(range(1, N + 1), d)
        )
        self._pmemo: dict[tuple[tuple[int, ...], tuple[int, ...]], PolynomialQ] = {}
        self._mumemo: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}

    @staticmethod
    def _canonical(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        """Lowest X' with P_{X',Y} = P_{X,Y}, along the s_i that fix or lower Y.

        On the bitmask of X, every value v with v-1 outside X and s_{v-1} not
        moving Y up steps down at once; no two such v are adjacent.
        """
        stay = _ascents(y) << 1 | 2  # v = 1, or s_{v-1} moves Y up
        bits = sum(1 << v for v in x)
        while moving := bits & ~(bits << 1) & ~stay:
            bits ^= moving | moving >> 1
        return tuple(v for v in range(bits.bit_length()) if bits >> v & 1)

    def kl(self, x: tuple[int, ...], y: tuple[int, ...]) -> PolynomialQ:
        if x == y:
            return _ONE
        if not all(a <= b for a, b in zip(x, y)):
            return _ZERO
        ly = sum(y)
        if ly - sum(x) <= 2:
            return _ONE
        x = self._canonical(x, y)
        lx = sum(x)
        gap = ly - lx
        if gap <= 2:
            return _ONE
        key = (x, y)
        cached = self._pmemo.get(key)
        if cached is not None:
            return cached
        i = next(v - 1 for v in y if v > 1 and v - 1 not in y)
        v = _swap(y, i)
        if (i in x) == (i + 1 in x):  # s_i fixes the coset of X
            low = self.kl(x, v)
            result = low + low.shift(1)
        else:
            result = self.kl(_swap(x, i), v).shift(1) + self.kl(x, v)
        for z, mu in self.mu_list(v):
            lz = sum(z)
            if lz < lx or (i in z and i + 1 not in z):
                continue
            if not all(a <= b for a, b in zip(x, z)):
                continue
            result = result - self.kl(x, z).scale(mu).shift((ly - lz) // 2)
        if result.degree > (gap - 1) // 2:
            raise AssertionError(f"KL degree bound violated at ({x}, {y})")
        self._pmemo[key] = result
        return result

    def mu_list(self, v: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
        """All (Z, mu(Z, V)) with nonzero mu, sorted by Z."""
        cached = self._mumemo.get(v)
        if cached is not None:
            return cached
        lv = sum(v)
        up = _ascents(v)
        mus = {_swap(v, i - 1): 1 for i in v if i > 1 and i - 1 not in v}
        for lz, ups, z in self.subsets:
            if lz >= lv:
                break
            if (lv - lz) & 1 and ups & ~up == 0 and all(a <= b for a, b in zip(z, v)):
                mu = self.kl(z, v).coeff((lv - lz - 1) // 2)
                if mu:
                    mus[z] = mu
        out = sorted(mus.items())
        self._mumemo[v] = out
        return out


_GRASS_TABLES: dict[tuple[int, int], GrassmannianTable] = {}


def grassmannian_table(N: int, d: int) -> GrassmannianTable:
    table = _GRASS_TABLES.get((N, d))
    if table is None:
        table = GrassmannianTable(N, d)
        _GRASS_TABLES[(N, d)] = table
    return table


def grassmannian_kl(u_idx: GrassIndex, v_idx: GrassIndex) -> PolynomialQ:
    """Local KL polynomial of Gr_{v} at the fixed point of u.

    Computed on the d-subsets of 1..N (GrassmannianTable); the zero
    polynomial when the indices are incomparable.
    """
    if not u_idx.leq(v_idx):
        return PolynomialQ.zero()
    return grassmannian_table(u_idx.N, u_idx.d).kl(u_idx.positions, v_idx.positions)


# kl-covex sweeps every covexillary w in S_n and every u <= w.  Through n = 7
# that is 3,409 cases in about 45 s on a 2-core Xeon, mostly in the S_n and
# Gr(n, 2n) KL recursions; S_8 adds 15,767 covexillary w, each over an
# interval of S_8.  `covex kl covex-check` shares the limit.
KL_COVEX_MAX_N = 7


def check_kl_covex_size(n: int) -> None:
    """Refuse a kl-covex comparison beyond n = KL_COVEX_MAX_N."""
    if n > KL_COVEX_MAX_N:
        raise InputError(f"kl-covex is limited to n <= {KL_COVEX_MAX_N}; got n = {n}")


@dataclass(frozen=True)
class KLCheckRow:
    u: PartialPermutation
    u_hat: GrassIndex
    flag_poly: PolynomialQ
    grass_poly: PolynomialQ

    @property
    def matched(self) -> bool:
        return self.flag_poly == self.grass_poly


def covexillary_kl_check(w: PartialPermutation) -> list[KLCheckRow]:
    """Compare P_{u,w} with the Grassmannian KL polynomial through the embedding.

    For every u below w (in the order of the S_n table), the image point of
    the u-matrix is a torus-fixed point of Gr(n, 2n); the local KL polynomial
    of the target Schubert variety there must reproduce P_{u,w}.
    """
    check_kl_covex_size(w.n)
    data = covexillary_data(w)
    if not w.is_full_rank:
        raise InputError("the KL comparison runs over full permutations")
    v_hat = target_grass_index(data)
    table = symmetric_group_table(w.n)
    top = table.index[w.image]
    rows = []
    for k, image in enumerate(table.perms):
        if not table.leq(k, top):
            continue
        u = PartialPermutation(w.n, image)
        u_hat = fixed_point_index(u, data)
        rows.append(KLCheckRow(u, u_hat, table.kl(k, top), grassmannian_kl(u_hat, v_hat)))
    return rows
