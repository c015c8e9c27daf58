"""Kazhdan-Lusztig recursion, cross-checked by R-polynomial inversion."""

import functools
import itertools
import operator
import os
import random
from dataclasses import dataclass

import pytest

from covex import kl
from covex.cli import main
from covex.kl import (
    PolynomialQ,
    covexillary_kl_check,
    grassmannian_kl,
    grassmannian_table,
    kl_polynomial,
    symmetric_group_table,
)
from covex.permcore import (
    PartialPermutation,
    all_permutations,
    bruhat_leq,
    is_covexillary,
)
from covex.varieties import GrassIndex

ONE = PolynomialQ.one()


@dataclass(frozen=True)
class CosetData:
    """Minimal and maximal length representatives of a parabolic coset.

    The coset of S_d x S_{N-d} in S_N determined by a Grassmannian index:
    the minimal representative lists the index positions increasingly and
    then the complement increasingly; the maximal one reverses both runs.
    The coset route to Grassmannian KL polynomials and the Billey oracle of
    tests/test_equivariant.py read them.
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


def test_polynomial_arithmetic():
    p = PolynomialQ((1, 1))
    assert str(p) == "1 + q"
    assert str(PolynomialQ((1, 0, 2))) == "1 + 2q^2"
    assert p + PolynomialQ((0, -1)) == ONE
    assert p.shift(2).coeffs == (0, 0, 1, 1)
    assert p(1) == 2 and p(3) == 4
    assert PolynomialQ.from_coeffs([1, 0, 0]) == ONE


def test_smooth_and_incomparable_pairs_need_no_table(monkeypatch, capsys):
    """kl_polynomial equals the S_5 table on every pair, and answers without a
    table when u is not below w or when w is smooth.  Smoothness is read off
    the table itself, as P_{e,w} = 1."""
    table = symmetric_group_table(5)
    e = table.index[(1, 2, 3, 4, 5)]
    shortcut = []
    for wi, w in enumerate(table.perms):
        smooth = table.kl(e, wi) == ONE
        for ui, u in enumerate(table.perms):
            assert kl_polynomial(u, w) == table.kl(ui, wi), (u, w)
            if smooth or not table.leq(ui, wi):
                shortcut.append((u, w, table.kl(ui, wi)))
    assert sum(1 for wi in range(120) if table.kl(e, wi) == ONE) == 88  # smooth in S_5

    def refuse(self, N):
        raise AssertionError(f"an S_{N} table was built")

    monkeypatch.setattr(kl.SymmetricGroupTable, "__init__", refuse)
    monkeypatch.setattr(kl, "_TABLES", {})
    for u, w, expected in shortcut:
        assert kl_polynomial(u, w) == expected
    assert main(["kl", "123456789", "987654321"]) == 0
    assert capsys.readouterr().out == '{"coefficients": [1], "text": "1"}\n'


def test_reflexivity_and_incomparability():
    w = PartialPermutation.from_one_line("42315")
    assert kl_polynomial(w, w) == ONE
    u = PartialPermutation.from_one_line("54321")
    assert kl_polynomial(u, w) == PolynomialQ.zero()


def test_s3_all_one():
    for u in all_permutations(3):
        for w in all_permutations(3):
            expected = ONE if bruhat_leq(u, w) else PolynomialQ.zero()
            assert kl_polynomial(u, w) == expected


def test_classical_s4_values():
    e = PartialPermutation.identity(4)
    assert kl_polynomial(e, PartialPermutation.from_one_line("3412")) == PolynomialQ((1, 1))
    assert kl_polynomial(e, PartialPermutation.from_one_line("4231")) == PolynomialQ((1, 1))
    assert kl_polynomial(
        PartialPermutation.from_one_line("2143"), PartialPermutation.from_one_line("4231")
    ) == PolynomialQ((1, 1))
    assert kl_polynomial(
        PartialPermutation.from_one_line("1324"), PartialPermutation.from_one_line("3412")
    ) == PolynomialQ((1, 1))
    # everything else in S_4 is 1 on comparable pairs
    nontrivial = 0
    for u in all_permutations(4):
        for w in all_permutations(4):
            poly = kl_polynomial(u, w)
            if bruhat_leq(u, w):
                assert poly.coeffs[0] == 1
                nontrivial += poly != ONE
            else:
                assert poly.is_zero
    assert nontrivial == 6


def _r_polynomial(table, u, w, memo):
    if u == w:
        return (1,)
    if not table.leq(u, w):
        return ()
    key = (u, w)
    if key in memo:
        return memo[key]
    s = table.right_descents(w)[0]
    ws = table.rmul(w, s)
    us = table.rmul(u, s)
    if table.length[us] < table.length[u]:
        result = _r_polynomial(table, us, ws, memo)
    else:
        a = _r_polynomial(table, u, ws, memo)
        b = _r_polynomial(table, us, ws, memo)
        out = [0] * (max(len(a), len(b)) + 1)
        for i, c in enumerate(a):  # (q - 1) * a
            out[i + 1] += c
            out[i] -= c
        for i, c in enumerate(b):  # q * b
            out[i + 1] += c
        while out and out[-1] == 0:
            out.pop()
        result = tuple(out)
    memo[key] = result
    return result


def _kl_column_by_inversion(table, w):
    """Independent oracle: solve the defining functional equation top-down."""
    memo = {}
    interval = sorted(
        (z for z in range(len(table.perms)) if table.leq(z, w)),
        key=lambda z: -int(table.length[z]),
    )
    column = {w: (1,)}
    for u in interval[1:]:
        gap = int(table.length[w] - table.length[u])
        series = [0] * (gap + 2)
        for z in interval:
            if z == u or not table.leq(u, z):
                continue
            r_poly = _r_polynomial(table, u, z, memo)
            for i, a in enumerate(r_poly):
                for j, b in enumerate(column[z]):
                    series[i + j] += a * b
        coeffs = [-series[k] for k in range((gap - 1) // 2 + 1)]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        for k, c in enumerate(coeffs):  # the mirror half must agree
            assert series[gap - k] == c
        column[u] = tuple(coeffs)
    return column


def test_recursion_against_inversion_oracle_s4():
    table = symmetric_group_table(4)
    for w in range(24):
        column = _kl_column_by_inversion(table, w)
        for u, coeffs in column.items():
            assert table.kl(u, w).coeffs == coeffs


def test_recursion_against_inversion_oracle_s5_s6_sample():
    for size, count in ((5, 6), (6, 4)):
        table = symmetric_group_table(size)
        rng = random.Random(99)
        for w in rng.sample(range(len(table.perms)), count):
            column = _kl_column_by_inversion(table, w)
            for u, coeffs in column.items():
                assert table.kl(u, w).coeffs == coeffs


def test_symmetries_and_degree_bound():
    w0 = PartialPermutation.longest(4)
    for u in all_permutations(4):
        for w in all_permutations(4):
            poly = kl_polynomial(u, w)
            assert poly == kl_polynomial(u.inverse(), w.inverse())
            assert poly == kl_polynomial(
                w0.compose(u).compose(w0), w0.compose(w).compose(w0)
            )
            if bruhat_leq(u, w) and u != w:
                assert 2 * poly.degree <= w.length() - u.length() - 1
            if not poly.is_zero:
                assert poly(1) > 0


def test_mu_list_matches_covers():
    # the internal mu-list is 1 on covering pairs (mu itself is not public API)
    table = symmetric_group_table(4)
    for w in all_permutations(4):
        wi = table.index[w.image]
        mu = dict(table.mu_list(wi))
        for u in all_permutations(4):
            if bruhat_leq(u, w) and w.length() - u.length() == 1:
                assert mu.get(table.index[u.image]) == 1


@functools.cache
def _rank_rows(N):
    """Southwest counts #{k <= j : p(k) >= i} of every p in S_N, lex order."""
    return [
        tuple(sum(v >= i for v in p[:j]) for i in range(1, N + 1) for j in range(1, N + 1))
        for p in itertools.permutations(range(1, N + 1))
    ]


def reference_mu_list(table, v):
    """Independent oracle: sieve the whole group for z < v with odd length gap."""
    rows = _rank_rows(table.N)
    lv = table.length[v]
    out = []
    for z in range(len(table.perms)):
        lz = table.length[z]
        if lz < lv and (lv - lz) % 2 and all(map(operator.le, rows[z], rows[v])):
            mu = table.kl(z, v).coeff((lv - lz - 1) // 2)
            if mu:
                out.append((z, mu))
    return out


def test_mu_list_matches_whole_group_sieve():
    for size in (4, 5, 6):
        table = symmetric_group_table(size)
        for v in range(len(table.perms)):
            assert sorted(table.mu_list(v)) == sorted(reference_mu_list(table, v))


def test_table_length_order_and_multiplication_match_permcore():
    for size in (4, 5):
        table = symmetric_group_table(size)
        perms = [PartialPermutation(size, p) for p in table.perms]
        for k, w in enumerate(perms):
            assert table.length[k] == w.length()
            for i in range(size - 1):
                ws = perms[table.rmul(k, i)]
                assert ws.length() - w.length() == (-1 if i in table.right_descents(k) else 1)
            for i in range(1, size):
                sw = perms[table.lmul(k, i)]
                assert sw.length() - w.length() == (-1 if i in table.left_descents(k) else 1)
            for j, u in enumerate(perms):
                assert table.leq(j, k) == bruhat_leq(u, w)


def test_coset_reps():
    idx = GrassIndex(2, 4, (2, 4))
    coset = CosetData.from_index(idx)
    assert coset.minimal == (2, 4, 1, 3)
    assert coset.maximal == (4, 2, 3, 1)


def test_grassmannian_kl_fixtures():
    # the Gr(2, 4) Schubert divisor at its cone point: the classical 1 + q
    divisor = GrassIndex(2, 4, (2, 4))
    assert grassmannian_kl(GrassIndex(2, 4, (1, 2)), divisor) == PolynomialQ((1, 1))
    # smooth points of the divisor give 1
    assert grassmannian_kl(GrassIndex(2, 4, (1, 3)), divisor) == ONE
    assert grassmannian_kl(divisor, divisor) == ONE
    # incomparable indices give 0
    assert grassmannian_kl(GrassIndex(2, 4, (3, 4)), divisor) == PolynomialQ.zero()
    # projective space is smooth
    assert grassmannian_kl(GrassIndex(1, 4, (1,)), GrassIndex(1, 4, (4,))) == ONE


def test_covexillary_check_s3():
    for n in (2, 3):
        for w in all_permutations(n):
            if not is_covexillary(w):
                continue
            rows = covexillary_kl_check(w)
            assert len(rows) == sum(1 for u in all_permutations(n) if bruhat_leq(u, w))
            for row in rows:
                assert row.matched
                assert row.flag_poly == ONE


def test_u_hat_below_v_hat():
    from covex.embedding import target_grass_index
    from covex.permcore import covexillary_data

    for w in all_permutations(3):
        if not is_covexillary(w):
            continue
        v_hat = target_grass_index(covexillary_data(w))
        for row in covexillary_kl_check(w):
            assert row.u_hat.leq(v_hat)


# COVEX_KL_ORACLE_N=8 extends the sweep to N = 8 (12,870 pairs); CI runs it.
ORACLE_N = int(os.environ.get("COVEX_KL_ORACLE_N", "7"))


@pytest.mark.parametrize("N", range(ORACLE_N + 1))
def test_grassmannian_kl_matches_coset_route(N):
    """The d-subset recursion against P of the maximal coset representatives."""
    for d in range(N + 1):
        indices = [
            GrassIndex(d, N, positions)
            for positions in itertools.combinations(range(1, N + 1), d)
        ]
        reps = [CosetData.from_index(idx).maximal for idx in indices]
        for x, x_rep in zip(indices, reps):
            for y, y_rep in zip(indices, reps):
                assert grassmannian_kl(x, y) == kl_polynomial(x_rep, y_rep), (x, y)


def test_grassmannian_kl_builds_no_symmetric_group_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an S_N table was built")

    monkeypatch.setattr(kl.SymmetricGroupTable, "__init__", refuse)
    monkeypatch.setattr(kl, "_TABLES", {})
    monkeypatch.setattr(kl, "_GRASS_TABLES", {})
    top = GrassIndex(5, 10, (6, 7, 8, 9, 10))
    assert grassmannian_kl(GrassIndex(5, 10, (1, 2, 3, 4, 5)), top) == ONE
    # the staircase (3, 2, 1) in Gr(3, 6) at its most singular point; the
    # coset route P_{321654, 642531} gives the same 1 + 2q + q^2
    assert grassmannian_kl(
        GrassIndex(3, 6, (1, 2, 3)), GrassIndex(3, 6, (2, 4, 6))
    ) == PolynomialQ((1, 2, 1))
    assert grassmannian_table(10, 5) is grassmannian_table(10, 5)
