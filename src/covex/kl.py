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
at the cover z = sv or z = vs, where it is 1.  Those covers are read off the
multiplication tables; only the z that share every descent of v go through
the vectorized Bruhat dominance sieve and the recursion.

Grassmannian local Kazhdan-Lusztig polynomials use maximal-length coset
representatives of S_d x S_{N-d} cosets, matching the convention in which
a Schubert variety indexed by w has dimension l(w).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .exactla import FieldSpec
from .permcore import PartialPermutation, bruhat_leq, covexillary_data
from .varieties import GrassIndex, locate_grass_cell


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

    Indices follow lexicographic one-line order.  Rank matrices (southwest
    counts, flattened to N^2 bytes) give Bruhat order by dominance; the
    mu-list sieve compares them only for the z that pass the length, parity
    and descent masks.
    """

    def __init__(self, N: int):
        self.N = N
        perms = list(itertools.permutations(range(1, N + 1)))
        self.perms = perms
        self.index = {p: i for i, p in enumerate(perms)}
        arr = np.array(perms, dtype=np.int8)
        self.arr = arr
        m = len(perms)
        lengths = np.zeros(m, dtype=np.int16)
        for i in range(N):
            for j in range(i + 1, N):
                lengths += (arr[:, i] > arr[:, j]).astype(np.int16)
        self.length = lengths
        ranks = np.zeros((m, N * N), dtype=np.uint8)
        for i in range(1, N + 1):
            ranks[:, (i - 1) * N : i * N] = np.cumsum(arr >= i, axis=1)
        self.rank_rows = ranks
        # w s_i (swap positions i, i+1) and s_i w (swap values i, i+1)
        self.rmult = np.zeros((m, N - 1), dtype=np.int32)
        self.lmult = np.zeros((m, N - 1), dtype=np.int32)
        for i in range(N - 1):
            swapped = arr.copy()
            swapped[:, [i, i + 1]] = swapped[:, [i + 1, i]]
            self.rmult[:, i] = [self.index[tuple(row)] for row in swapped.tolist()]
            vswapped = np.where(arr == i + 1, -1, arr)
            vswapped = np.where(arr == i + 2, i + 1, vswapped)
            vswapped = np.where(vswapped == -1, i + 2, vswapped)
            self.lmult[:, i] = [self.index[tuple(row)] for row in vswapped.tolist()]
        self._pmemo: dict[tuple[int, int], PolynomialQ] = {}
        self._mumemo: dict[int, list[tuple[int, int]]] = {}

    def leq(self, a: int, b: int) -> bool:
        if a == b:
            return True
        if self.length[a] >= self.length[b]:
            return False
        ra, rb = self.rank_rows[a], self.rank_rows[b]
        return bool((ra <= rb).all())

    def right_descents(self, w: int) -> list[int]:
        row = self.perms[w]
        return [i for i in range(self.N - 1) if row[i] > row[i + 1]]

    def left_descents(self, w: int) -> list[int]:
        row = self.perms[w]
        pos = {v: k for k, v in enumerate(row)}
        return [i for i in range(1, self.N) if pos[i + 1] < pos[i]]

    def _canonical_u(self, u: int, w: int) -> int:
        """Minimal element of the descent class of u relative to w."""
        rdesc = self.right_descents(w)
        ldesc = self.left_descents(w)
        lengths = self.length
        changed = True
        while changed:
            changed = False
            for i in rdesc:
                nxt = self.rmult[u, i]
                if lengths[nxt] < lengths[u]:
                    u = int(nxt)
                    changed = True
            for i in ldesc:
                nxt = self.lmult[u, i - 1]
                if lengths[nxt] < lengths[u]:
                    u = int(nxt)
                    changed = True
        return u

    def kl(self, u: int, w: int) -> PolynomialQ:
        if not self.leq(u, w):
            return _ZERO
        gap = int(self.length[w] - self.length[u])
        if gap <= 2:
            return _ONE
        u = self._canonical_u(u, w)
        gap = int(self.length[w] - self.length[u])
        if gap <= 2:
            return _ONE
        key = (u, w)
        cached = self._pmemo.get(key)
        if cached is not None:
            return cached
        s = self.right_descents(w)[0]
        v = int(self.rmult[w, s])
        us = int(self.rmult[u, s])  # us > u after canonicalization
        result = self.kl(us, v).shift(1) + self.kl(u, v)
        lw = int(self.length[w])
        lu = int(self.length[u])
        for z, mu in self.mu_list(v):
            if self.length[z] < lu:
                continue
            zs = int(self.rmult[z, s])
            if self.length[zs] > self.length[z]:
                continue
            if not self.leq(u, z):
                continue
            term = self.kl(u, z).scale(mu).shift((lw - int(self.length[z])) // 2)
            result = result - term
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
        lengths = self.length
        lv = int(lengths[v])
        rdesc = self.right_descents(v)
        ldesc = self.left_descents(v)
        mus = {int(self.rmult[v, i]): 1 for i in rdesc}
        mus.update((int(self.lmult[v, i - 1]), 1) for i in ldesc)
        mask = lengths < lv
        mask &= ((lv - lengths) % 2).astype(bool)
        for i in rdesc:
            mask &= lengths[self.rmult[:, i]] < lengths
        for i in ldesc:
            mask &= lengths[self.lmult[:, i - 1]] < lengths
        candidates = np.flatnonzero(mask)
        below = (self.rank_rows[candidates] <= self.rank_rows[v]).all(axis=1)
        for z in candidates[below]:
            z = int(z)
            mu = self.kl(z, v).coeff((lv - int(lengths[z]) - 1) // 2)
            if mu:
                mus[z] = mu
        out = sorted(mus.items())
        self._mumemo[v] = out
        return out


_TABLES: dict[int, SymmetricGroupTable] = {}


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


def kl_polynomial(u, w) -> PolynomialQ:
    """P_{u,w}(q); the zero polynomial when u is not below w."""
    ut, wt = _as_tuple(u), _as_tuple(w)
    if len(ut) != len(wt):
        raise InputError("permutations have different sizes")
    table = symmetric_group_table(len(ut))
    return table.kl(table.index[ut], table.index[wt])


@dataclass(frozen=True)
class CosetData:
    """Minimal and maximal length representatives of a parabolic coset.

    The coset of S_d x S_{N-d} in S_N determined by a Grassmannian index:
    the minimal representative lists the index positions increasingly and
    then the complement increasingly; the maximal one reverses both runs.
    """

    N: int
    d: int
    minimal: tuple[int, ...]
    maximal: tuple[int, ...]

    @staticmethod
    def from_index(idx: GrassIndex) -> "CosetData":
        chosen = list(idx.positions)
        complement = [v for v in range(1, idx.N + 1) if v not in set(chosen)]
        minimal = tuple(chosen + complement)
        maximal = tuple(chosen[::-1] + complement[::-1])
        return CosetData(idx.N, idx.d, minimal, maximal)


def grassmannian_kl(u_idx: GrassIndex, v_idx: GrassIndex) -> PolynomialQ:
    """Local KL polynomial of Gr_{v} at the fixed point of u.

    Computed as P of the maximal coset representatives inside S_N; the zero
    polynomial when the indices are incomparable.
    """
    if not u_idx.leq(v_idx):
        return PolynomialQ.zero()
    u_max = CosetData.from_index(u_idx).maximal
    v_max = CosetData.from_index(v_idx).maximal
    return kl_polynomial(u_max, v_max)


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

    For every u below w, the image point of the u-matrix locates a cell of
    Gr(n, 2n); the local KL polynomial of the target Schubert variety there
    must reproduce P_{u,w}.
    """
    from .embedding import embed_point, embedding_target, target_grass_index
    from .permcore import all_permutations

    data = covexillary_data(w)
    if not w.is_full_rank:
        raise InputError("the KL comparison runs over full permutations")
    target = embedding_target(data)
    v_hat = target_grass_index(target)
    field = FieldSpec.prime()
    rows = []
    for u in all_permutations(w.n):
        if not bruhat_leq(u, w):
            continue
        u_hat = locate_grass_cell(embed_point(u.matrix(field), data))
        rows.append(
            KLCheckRow(u, u_hat, kl_polynomial(u, w), grassmannian_kl(u_hat, v_hat))
        )
    return rows
