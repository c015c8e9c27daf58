"""Kazhdan-Lusztig recursion, cross-checked by R-polynomial inversion."""

import functools
import itertools
import operator
import random
from dataclasses import dataclass

import pytest

from covex import kl, suites
from covex.cli import main
from covex.embedding import embed_point, fixed_point_index, target_grass_index
from covex.errors import InputError
from covex.exactla import FieldSpec
from covex.kl import (
    PolynomialQ,
    covexillary_kl_check,
    grassmannian_table,
    kl_polynomial,
    symmetric_group_table,
)
from covex.permcore import (
    PartialPermutation,
    all_permutations,
    bruhat_leq,
    covexillary_data,
    is_covexillary,
)
from covex.varieties import GrassIndex, locate_grass_cell

from oracles import length
from scale import sized

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
    assert [sum(c * value**i for i, c in enumerate(p.coeffs)) for value in (1, 3)] == [2, 4]
    assert PolynomialQ.from_coeffs([1, 0, 0]) == ONE


def test_smooth_and_incomparable_pairs_need_no_table(monkeypatch, capsys):
    """kl_polynomial equals the S_5 table on every pair, and answers without a
    table when u is not below w or when w is smooth.  Smoothness is read off
    the table itself, as P_{e,w} = 1."""
    table = symmetric_group_table(5)
    e = table.index[(1, 2, 3, 4, 5)]
    shortcut = []
    perms = [PartialPermutation(5, image) for image in table.perms]
    for wi, w in enumerate(perms):
        smooth = table.kl(e, wi) == ONE
        for ui, u in enumerate(perms):
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
    partial, full = PartialPermutation.from_one_line("0 1"), PartialPermutation.from_one_line("21")
    with pytest.raises(InputError, match="need full permutations"):
        kl_polynomial(partial, full)


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


def _right_descents(table, w):
    """The i (from 0) with w(i) > w(i+1), read off the one-line tuple."""
    row = table.perms[w]
    return [i for i in range(table.N - 1) if row[i] > row[i + 1]]


def _left_descents(table, w):
    """The i (from 1) whose i+1 stands left of i in the one-line tuple."""
    row = table.perms[w]
    return [i for i in range(1, table.N) if row.index(i + 1) < row.index(i)]


def _r_polynomial(table, u, w, memo):
    if u == w:
        return (1,)
    if not table.leq(u, w):
        return ()
    key = (u, w)
    if key in memo:
        return memo[key]
    s = _right_descents(table, w)[0]
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
                assert 2 * poly.degree <= length(w) - length(u) - 1
            if not poly.is_zero:
                assert sum(poly.coeffs) > 0


def test_mu_list_matches_covers():
    # the internal mu-list is 1 on covering pairs (mu itself is not public API)
    table = symmetric_group_table(4)
    for w in all_permutations(4):
        wi = table.index[w.image]
        mu = dict(table.mu_list(wi))
        for u in all_permutations(4):
            if bruhat_leq(u, w) and length(w) - length(u) == 1:
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
            assert table.length[k] == length(w)
            right, left = _right_descents(table, k), _left_descents(table, k)
            rdes, ldes = sum(1 << i for i in right), sum(1 << i - 1 for i in left)
            assert table.des[k] == rdes | ldes << size
            for i in range(size - 1):
                ws = perms[table.rmul(k, i)]
                assert length(ws) - length(w) == (-1 if i in right else 1)
            for i in range(1, size):
                sw = perms[table.lmul(k, i)]
                assert length(sw) - length(w) == (-1 if i in left else 1)
            for j, u in enumerate(perms):
                assert table.leq(j, k) == bruhat_leq(u, w)


def _double_coset_minima(table, left, right):
    """Map each index to the shortest element of W_I u W_J, found by walking.

    I = left (s_i swaps the values i and i+1), J = right (s_i swaps the
    positions i and i+1, from 0); each double coset is walked once on the
    one-line tuples and its shortest element must be unique.
    """
    minima = {}
    for start in range(len(table.perms)):
        if start in minima:
            continue
        seen, frontier = {table.perms[start]}, [table.perms[start]]
        while frontier:
            p = frontier.pop()
            moves = [p[:i] + (p[i + 1], p[i]) + p[i + 2 :] for i in right]
            moves += [
                tuple(i + 1 if v == i else i if v == i + 1 else v for v in p) for i in left
            ]
            for q in moves:
                if q not in seen:
                    seen.add(q)
                    frontier.append(q)
        members = [table.index[p] for p in seen]
        shortest = min(table.length[z] for z in members)
        (low,) = [z for z in members if table.length[z] == shortest]
        for z in members:
            minima[z] = low
    return minima


@pytest.mark.parametrize("size", (4, 5))
def test_canonical_u_is_the_shortest_element_of_the_double_coset(size):
    table = symmetric_group_table(size)
    minima = {}
    for w in range(len(table.perms)):
        key = (tuple(_left_descents(table, w)), tuple(_right_descents(table, w)))
        if key not in minima:
            minima[key] = _double_coset_minima(table, *key)
        for u in range(len(table.perms)):
            assert table._canonical(u, w) == minima[key][u], (u, w)


def _canonical_by_single_swaps(x, y):
    """The one-swap-at-a-time lowering of X, kept as the oracle of the bitmask walk:
    the first v in X with v-1 >= 1 outside X, where s_{v-1} does not move Y up
    (v-1 in Y and v not), steps down to v-1, until no v does."""
    up = {i for i in y if i + 1 not in y}
    changed = True
    while changed:
        changed = False
        for v in x:
            i = v - 1
            if i and i not in x and i not in up:
                x = tuple(sorted(set(x) - {v} | {i}))
                changed = True
                break
    return x


def _bitmask(subset):
    return sum(1 << v for v in subset)


def grassmannian_kl(u_idx: GrassIndex, v_idx: GrassIndex) -> PolynomialQ:
    """The GrassIndex route to the local KL polynomial of Gr_v at the fixed
    point of u: zero on incomparable indices, InputError (GrassIndex.leq) on
    indices of different Grassmannians, else GrassmannianTable.kl at the
    bitmasks of the positions."""
    if not u_idx.leq(v_idx):
        return PolynomialQ.zero()
    table = grassmannian_table(u_idx.N, u_idx.d)
    return table.kl(table.index[_bitmask(u_idx.positions)], table.index[_bitmask(v_idx.positions)])


def test_grassmannian_canonical_matches_single_swaps():
    for N in range(9):
        for d in range(N + 1):
            table = grassmannian_table(N, d)
            index = table.index
            subsets = list(itertools.combinations(range(1, N + 1), d))
            for x in subsets:
                for y in subsets:
                    expected = index[_bitmask(_canonical_by_single_swaps(x, y))]
                    got = table._canonical(index[_bitmask(x)], index[_bitmask(y)])
                    assert got == expected, (x, y)


def _grass_indices(N, d):
    return [GrassIndex(d, N, z) for z in itertools.combinations(range(1, N + 1), d)]


def _reflect(positions, i):
    """s_i on a d-subset: the values i and i+1 trade places, then sort."""
    return tuple(sorted(i + 1 if v == i else i if v == i + 1 else v for v in positions))


@pytest.mark.parametrize("N", range(9))
def test_grassmannian_table_data_matches_tuple_definitions(N):
    """Length, packed order, des and covers of each d-subset, against the
    inversions of the minimal coset representative, GrassIndex.leq and s_i
    on tuples."""
    for d in range(N + 1):
        table = grassmannian_table(N, d)
        indices = _grass_indices(N, d)
        ks = [table.index[_bitmask(idx.positions)] for idx in indices]
        assert sorted(ks) == list(range(len(indices)))
        for idx, k in zip(indices, ks):
            x = idx.positions
            minimal = CosetData.from_index(idx).minimal
            assert table.length[k] == sum(a > b for a, b in itertools.combinations(minimal, 2))
            up = {i for i in range(1, N) if i in x and i + 1 not in x}
            assert table.des[k] == sum(1 << i for i in range(1, N) if i not in up)
            below = {
                _reflect(x, i)
                for i in range(1, N)
                if _reflect(x, i) != x and GrassIndex(d, N, _reflect(x, i)).leq(idx)
            }
            assert sorted(table._covers(k)) == sorted(table.index[_bitmask(z)] for z in below)
            for jdx, j in zip(indices, ks):
                assert table.leq(k, j) == idx.leq(jdx), (x, jdx.positions)


def reference_grassmannian_mu_list(table, indices, v):
    """Independent oracle: sieve every d-subset Z < V with odd length gap,
    ordered by GrassIndex.leq."""
    index = {table.index[_bitmask(idx.positions)]: idx for idx in indices}
    lv = table.length[v]
    out = []
    for z, idx in sorted(index.items()):
        lz = table.length[z]
        if lz < lv and (lv - lz) % 2 and idx.leq(index[v]):
            mu = table.kl(z, v).coeff((lv - lz - 1) // 2)
            if mu:
                out.append((z, mu))
    return out


def test_grassmannian_mu_list_matches_whole_set_sieve():
    for N in range(8):
        for d in range(N + 1):
            table = grassmannian_table(N, d)
            indices = _grass_indices(N, d)
            for v in range(len(indices)):
                expected = reference_grassmannian_mu_list(table, indices, v)
                assert table.mu_list(v) == expected, (N, d, v)


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


def test_kl_covex_report_names_a_mismatch_in_one_line(monkeypatch):
    """A row whose polynomials differ fails its case, and the report names u
    in one-line notation with both polynomials."""

    def spoiled(w):
        rows = covexillary_kl_check(w)
        return [rows[0]._replace(grass_poly=PolynomialQ.zero())] + rows[1:]

    monkeypatch.setattr(suites, "covexillary_kl_check", spoiled)
    verdicts = suites.run_suite(suites.SuiteConfig("kl-covex", n_max=2))
    case = next(v for v in verdicts if v.case != "smoke/P(1234,3412)")
    assert not case.passed
    assert case.details["mismatches"][0] == {"u": "1 2", "flag": "1", "grass": "0"}


def test_u_hat_below_v_hat():
    for w in all_permutations(3):
        if not is_covexillary(w):
            continue
        v_hat = target_grass_index(covexillary_data(w))
        for row in covexillary_kl_check(w):
            assert GrassIndex(3, 6, row.u_hat).leq(v_hat)


# CI extends the sweep to N = 8 (12,870 pairs).
ORACLE_N = sized(7, 8)


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
                # S_0 holds only the empty permutation, which PartialPermutation cannot hold
                expected = (
                    kl_polynomial(PartialPermutation(N, x_rep), PartialPermutation(N, y_rep))
                    if N
                    else ONE
                )
                assert grassmannian_kl(x, y) == expected, (x, y)


@pytest.mark.parametrize("n", range(1, ORACLE_N - 1))
def test_covexillary_kl_check_matches_the_index_route(n):
    """Each row of covexillary_kl_check, read on table indices and the
    bitmasks of fixed_point_bits, against the validated objects: the fixed
    point of PartialPermutation(n, u), which must also be the cell that
    elimination locates for the embedded u-matrix, the GrassIndex route at
    it and kl_polynomial(u, w)."""
    field = FieldSpec.prime()
    for w in all_permutations(n):
        if not is_covexillary(w):
            continue
        data = covexillary_data(w)
        v_hat = target_grass_index(data)
        rows = covexillary_kl_check(w)
        assert [row.u for row in rows] == [u.image for u in all_permutations(n) if bruhat_leq(u, w)]
        for row in rows:
            u = PartialPermutation(n, row.u)
            u_hat = fixed_point_index(u, data)
            assert row.u_hat == u_hat.positions, (w, u)
            assert u_hat == locate_grass_cell(embed_point(u.matrix(field), data)), (w, u)
            assert row.grass_poly == grassmannian_kl(u_hat, v_hat), (w, u)
            assert row.flag_poly == kl_polynomial(u, w), (w, u)


@pytest.mark.parametrize("N", range(ORACLE_N - 1))
def test_grassmannian_kl_against_inversion_oracle(N):
    """grassmannian_kl on every pair of d-subsets against the R-polynomial
    inversion oracle, read at the maximal coset representatives."""
    table = symmetric_group_table(N)
    for d in range(N + 1):
        indices = _grass_indices(N, d)
        reps = [table.index[CosetData.from_index(idx).maximal] for idx in indices]
        for y, y_rep in zip(indices, reps):
            column = _kl_column_by_inversion(table, y_rep)
            for x, x_rep in zip(indices, reps):
                assert grassmannian_kl(x, y).coeffs == column.get(x_rep, ()), (x, y)


def test_grassmannian_kl_refuses_indices_of_different_grassmannians():
    small = GrassIndex(2, 4, (1, 2))
    for other in (GrassIndex(2, 5, (3, 5)), GrassIndex(1, 4, (4,)), GrassIndex(3, 5, (3, 4, 5))):
        for u, v in ((small, other), (other, small)):
            with pytest.raises(InputError):
                grassmannian_kl(u, v)


def test_equal_descent_masks_are_one_object():
    table = symmetric_group_table(5)
    shared = {}
    for mask in table.des:
        assert shared.setdefault(mask, mask) is mask
    assert max(shared) > 256  # beyond the ints Python caches itself


def test_symmetric_group_table_binds_the_traced_methods_itself():
    """perfbench/tracer.py wraps these by reading the class's own __dict__, so
    that its kl counters see S_N calls and not the Grassmannian table's."""
    assert {"__init__", "kl", "mu_list"} <= kl.SymmetricGroupTable.__dict__.keys()


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
