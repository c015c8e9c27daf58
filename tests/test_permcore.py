"""Partial-permutation combinatorics against brute-force oracles."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from covex.errors import EssentialDataError, InputError, NotCovexillaryError
from covex.permcore import (
    CovexillaryData,
    EssentialCondition,
    OrbitTable,
    PartialPermutation,
    all_partial_permutations,
    all_permutations,
    avoids_3412,
    bruhat_leq,
    covexillary_data,
    covexillary_sweep,
    diagram,
    dominated,
    essential_set,
    is_covexillary,
    partial_images,
    permutation_images,
    rank_matrix,
    random_partial_permutation,
    reconstruct_from_essential,
)
from oracles import length
from scale import sized


def triples(data: CovexillaryData) -> tuple[tuple[int, int, int], ...]:
    """The essential triples (p_i, q_i, r_i), without the padding."""
    return tuple(zip(data.p, data.q, data.r))


def oracle_diagram(w: PartialPermutation) -> set[tuple[int, int]]:
    """Shade-and-scan straight from the definition, box by box."""
    n = w.n
    dots = set(w.dots())
    boxes = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if (i, j) in dots:
                continue
            shaded = any(r > i and c == j for r, c in dots) or any(
                r == i and c < j for r, c in dots
            )
            if not shaded:
                boxes.add((i, j))
    return boxes


def reference_essential_set(w: PartialPermutation) -> tuple[EssentialCondition, ...]:
    """The diagram-corner rule: build D(w) whole (diagram, which
    test_diagram_matches_oracle pins to the definition), keep each box whose
    neighbours to the right, above and above-right are not in it, and sort."""
    boxes = diagram(w)
    rm = rank_matrix(w)
    out = [
        EssentialCondition(i, j, rm[i - 1][j - 1])
        for (i, j) in boxes
        if (i - 1, j) not in boxes and (i, j + 1) not in boxes and (i - 1, j + 1) not in boxes
    ]
    return tuple(sorted(out, key=lambda e: (e.row, e.col)))


ESSENTIAL_ORACLE_N = sized(6, 7)


PAPER_RANK_351642 = (
    (1, 2, 3, 4, 5, 6),
    (1, 2, 2, 3, 4, 5),
    (1, 2, 2, 3, 4, 4),
    (0, 1, 1, 2, 3, 3),
    (0, 1, 1, 2, 2, 2),
    (0, 0, 0, 1, 1, 1),
)


def test_rank_matrix_paper_example():
    w = PartialPermutation.from_one_line("351642")
    assert rank_matrix(w) == PAPER_RANK_351642


def test_rank_matrix_identity_and_zero():
    for n in (1, 3, 5):
        rm = rank_matrix(PartialPermutation.identity(n))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert rm[i - 1][j - 1] == max(0, j - i + 1)
        assert all(v == 0 for row in rank_matrix(PartialPermutation.zero(n)) for v in row)


def test_diagram_fixtures():
    assert diagram(PartialPermutation.from_one_line("2143")) == {
        (3, 1),
        (4, 1),
        (3, 2),
        (4, 2),
    }
    assert diagram(PartialPermutation.longest(4)) == frozenset()
    assert diagram(PartialPermutation.zero(1)) == {(1, 1)}


def test_diagram_matches_oracle_and_length():
    """diagram's row rule is the shade-and-scan definition at every partial
    permutation with n <= 5 (1,798 of them), n <= 6 at CI scale (15,125)."""
    count = 0
    for n in range(1, sized(5, 6) + 1):
        for w in all_partial_permutations(n):
            assert diagram(w) == oracle_diagram(w), w
            count += 1
    assert count == sized(1_798, 15_125)
    for n in (2, 3, 4, 5):
        longest = PartialPermutation.longest(n)
        for w in all_permutations(n):
            assert len(diagram(w)) == length(longest.compose(w))


def test_essential_fixtures():
    assert essential_set(PartialPermutation.from_one_line("2143")) == (
        EssentialCondition(3, 2, 0),
    )
    assert essential_set(PartialPermutation.longest(5)) == ()
    assert essential_set(PartialPermutation.zero(1)) == (EssentialCondition(1, 1, 0),)


def test_essential_matches_oracle():
    """The one-pass essential_set is the diagram-corner rule at every
    partial permutation with n <= 6 (15,125 of them), n <= 7 at CI scale."""
    count = 0
    for n in range(1, ESSENTIAL_ORACLE_N + 1):
        for w in all_partial_permutations(n):
            assert essential_set(w) == reference_essential_set(w), w
            count += 1
    assert count == sized(15_125, 146_047)


def test_essential_avoids_top_row_and_last_column_for_permutations():
    for n in (2, 3, 4, 5):
        for w in all_permutations(n):
            for cond in essential_set(w):
                assert cond.row > 1
                assert cond.col < n


def test_avoids_pattern_fixtures():
    w = PartialPermutation.from_one_line("351642")
    pattern = PartialPermutation.from_one_line("3412")
    assert not oracle_avoids(w, pattern.image)
    assert not avoids_3412(w)
    assert avoids_3412(PartialPermutation.from_one_line("2143"))
    assert oracle_avoids(PartialPermutation.identity(6), (2, 1))
    # pattern longer than the word is trivially avoided
    assert oracle_avoids(PartialPermutation.from_one_line("21"), (3, 2, 1))


def oracle_avoids(w: PartialPermutation, pattern: tuple[int, ...]) -> bool:
    k = len(pattern)
    rel = tuple(sorted(pattern).index(v) + 1 for v in pattern)
    for idx in itertools.combinations(range(w.n), k):
        vals = [w.image[i] for i in idx]
        if tuple(sorted(vals).index(v) + 1 for v in vals) == rel:
            return False
    return True


@given(st.permutations(list(range(1, 7))))
@settings(max_examples=150, deadline=None)
def test_avoids_3412_matches_generic_scan(image):
    w = PartialPermutation(6, tuple(image))
    assert avoids_3412(w) == oracle_avoids(w, (3, 4, 1, 2))


def test_covexillary_data_fixtures():
    data = covexillary_data(PartialPermutation.from_one_line("2143"))
    assert (data.m, triples(data), sum(data.chain[1][:2])) == (2, ((2, 2, 0),), 4)
    # padding (p, q, r) = (0, 0, 0) at 0 and (n, n, 0) at m
    assert [data.chain[i] for i in (0, 2)] == [(0, 0, 0), (4, 4, 0)]
    assert data.grass_conditions == ((4, 2),)
    with pytest.raises(NotCovexillaryError) as err:
        covexillary_data(PartialPermutation.from_one_line("351642"))
    assert err.value.first != err.value.second
    assert covexillary_data(PartialPermutation.longest(4)).m == 1


def test_covexillary_equivalence_small():
    for n in range(1, 7):
        for w in all_permutations(n):
            assert is_covexillary(w) == avoids_3412(w)


@pytest.mark.parametrize("n", range(1, sized(5, 6) + 1))
def test_sweep_yields_the_partials_whose_reference_essential_set_is_a_chain(n):
    """The image sweep, in all_partial_permutations order, against the
    diagram-corner oracle: exactly the partials whose essential columns never
    drop, each with the oracle's boxes as its triples."""
    chains = {}
    for w in all_partial_permutations(n):
        boxes = reference_essential_set(w)
        if all(a.col <= b.col for a, b in zip(boxes, boxes[1:])):
            chains[w] = tuple((e.row - 1, e.col, e.rank) for e in boxes)
    swept = list(covexillary_sweep(partial_images(n)))
    assert [w for w, _ in swept] == list(chains)
    assert all(triples(data) == chains[w] for w, data in swept)


@pytest.mark.parametrize("n", range(1, 7))
def test_sweep_of_s_n_yields_the_3412_avoiders(n):
    swept = [w for w, _ in covexillary_sweep(permutation_images(n))]
    assert swept == [w for w in all_permutations(n) if avoids_3412(w)]


@pytest.mark.parametrize("n", range(1, sized(6, 7) + 1))
def test_sweep_counts_the_covexillary_partials(n):
    count = sum(1 for _ in covexillary_sweep(partial_images(n)))
    assert count == {1: 2, 2: 7, 3: 33, 4: 183, 5: 1118, 6: 7281, 7: 49626}[n]


def test_tau_order_read_off_the_chain_is_the_inverse_of_tau():
    """tau_order is read block by block off the chain, apart from tau; at
    every covexillary partial with n <= 5 it is tau^-1, 0-based."""
    for n in range(1, 6):
        for w, data in covexillary_sweep(partial_images(n)):
            assert data.tau_order == tuple(k - 1 for k in data.tau.inverse().image), w


def test_covexillary_data_validation():
    with pytest.raises(EssentialDataError):
        CovexillaryData(3, (1, 0), (1, 2), (0, 0))  # p not increasing
    with pytest.raises(EssentialDataError):
        CovexillaryData(3, (1, 1), (2, 2), (0, 1))  # repeated box


def test_bruhat_fixtures():
    assert bruhat_leq(PartialPermutation.identity(4), PartialPermutation.longest(4))
    w = PartialPermutation.from_one_line("2143")
    assert bruhat_leq(w, w)
    assert not bruhat_leq(
        PartialPermutation.from_one_line("321"), PartialPermutation.from_one_line("312")
    )


def entrywise_dominates(big, small) -> bool:
    """The reference comparison: every entry of the table small is at most big's."""
    return all(b >= a for rb, ra in zip(big, small) for b, a in zip(rb, ra))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_packed_dominance_is_entrywise_on_every_pair(n):
    """dominated is the entrywise reference on the rank matrices of every
    pair of partial permutations of size n, and bruhat_leq reads it."""
    perms = list(all_partial_permutations(n))
    ranks = [rank_matrix(w) for w in perms]
    seen = set()
    for u, ru in zip(perms, ranks):
        for w, rw in zip(perms, ranks):
            expected = entrywise_dominates(rw, ru)
            assert dominated(ru, rw) == expected, (u, w)
            assert bruhat_leq(u, w) == expected
            seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize("n", [7, 8])
def test_packed_dominance_holds_where_entries_reach_n(n):
    """At the suite limits the entries of a rank matrix reach n:
    dominated still equals the entrywise reference on tables with every entry in
    0..n, including a gap of n at a single box in each direction, and on
    rank matrices of random partial permutations and their sub-patterns."""
    rng = random.Random(n)
    boxes = n * n

    def table(values):
        return tuple(tuple(values[i * n : (i + 1) * n]) for i in range(n))

    pairs = [(table([n] * boxes), table([0] * boxes)), (table([n] * boxes), table([n] * boxes))]
    for f in range(boxes):
        for low, high in ((0, n), (n - 1, n), (n, n - 1)):
            a, b = [n] * boxes, [n] * boxes
            a[f], b[f] = high, low
            pairs.append((table(a), table(b)))
            pairs.append((table(b), table(a)))
    for _ in range(300):
        values = [rng.randint(0, n) for _ in range(boxes)]
        bumped = [min(n, max(0, v + rng.choice((-1, 0, 0, 1)))) for v in values]
        pairs.append((table(values), table(bumped)))
    for _ in range(300):
        w = random_partial_permutation(n, rng)
        u = PartialPermutation(n, tuple(v if rng.random() < 0.8 else 0 for v in w.image))
        pairs.append((rank_matrix(w), rank_matrix(u)))
        pairs.append((rank_matrix(u), rank_matrix(w)))
    full = rank_matrix(PartialPermutation.longest(n))
    assert full[0][n - 1] == n
    pairs.append((full, rank_matrix(PartialPermutation.identity(n))))
    outcomes = []
    for big, small in pairs:
        expected = entrywise_dominates(big, small)
        assert dominated(small, big) == expected
        outcomes.append(expected)
    assert outcomes.count(True) >= 100 and outcomes.count(False) >= 100


def lanes(orbits):
    """The guard bit of each u of orbits, images[0] lowest: the set bits of orbits.guard."""
    return [t for t in range(orbits.guard.bit_length()) if orbits.guard >> t & 1]


def packed_verdicts(orbits, us, ws):
    """[[u <= w for u in us] for w in ws], read off the masks of orbits.below."""
    lane = dict(zip(orbits.images, lanes(orbits)))
    return [[bool(orbits.below(w) >> lane[u.image] & 1) for u in us] for w in ws]


def full_box_below(orbits, w):
    """The guard bits of the u <= w, u's rank at most w's at every one of the n^2 boxes.

    The reference for OrbitTable.below, which reads only w's essential boxes.
    """
    found = orbits.guard
    for box, r in zip(orbits.boxes, itertools.chain.from_iterable(rank_matrix(w))):
        found &= orbits.at_most(box, r)
    return found


def essential_box_mismatches(orbits, ws):
    """The w of ws whose essential-box mask differs from the full-box mask."""
    return [w for w in ws if orbits.below(w) != full_box_below(orbits, w)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_packed_bruhat_masks_are_bruhat_leq_on_every_pair(n):
    """One mask per w equals bruhat_leq and the entrywise reference at
    every pair of partial permutations of size n, and has no stray bits;
    so does the full-box mask."""
    orbits = OrbitTable(n)
    perms = list(all_partial_permutations(n))
    width = n.bit_length() + 1
    assert orbits.images == [u.image for u in perms]
    assert lanes(orbits) == list(range(width - 1, width * len(perms), width))
    everyone = orbits.guard
    for w, row in zip(perms, packed_verdicts(orbits, perms, perms)):
        assert orbits.below(w) & ~everyone == 0
        assert full_box_below(orbits, w) == orbits.below(w)
        rw = rank_matrix(w)
        assert row == [bruhat_leq(u, w) for u in perms]
        assert row == [entrywise_dominates(rw, rank_matrix(u)) for u in perms]
    assert orbits.below(PartialPermutation.longest(n)) == everyone
    zero = PartialPermutation.zero(n)
    assert orbits.below(zero) == 1 << lanes(orbits)[perms.index(zero)]


@pytest.mark.parametrize("n", [5, 6, 7])
def test_packed_bruhat_masks_hold_where_entries_reach_n(n):
    """Seeded pairs at the sizes embed-thm reaches, with every permutation
    among them reaching r(1, n) = n, and sub-patterns of each w so that both
    verdicts occur often."""
    rng = random.Random(100 + n)
    ws = [PartialPermutation.identity(n), PartialPermutation.longest(n), PartialPermutation.zero(n)]
    ws += [random_partial_permutation(n, rng) for _ in range(40)]
    perm = list(range(1, n + 1))
    for _ in range(20):
        rng.shuffle(perm)
        ws.append(PartialPermutation(n, tuple(perm)))
    us = ws + [
        PartialPermutation(n, tuple(v if rng.random() < 0.7 else 0 for v in w.image)) for w in ws
    ]
    assert max(rank_matrix(u)[0][n - 1] for u in us) == n
    verdicts = packed_verdicts(OrbitTable(n), us, ws)
    for w, row in zip(ws, verdicts):
        assert row == [bruhat_leq(u, w) for u in us]
    flat = [v for row in verdicts for v in row]
    assert flat.count(True) >= 500 and flat.count(False) >= 500


@pytest.mark.parametrize("n", range(1, sized(5, 6) + 1))
def test_essential_box_masks_are_the_full_box_masks(n):
    """below(w) reads only w's essential boxes (Fulton 1992), and so do the
    target's conditions; the n^2-box AND keeps it independent of
    essential_set at every covexillary w of the size."""
    orbits = OrbitTable(n)
    ws = [w for w in all_partial_permutations(n) if is_covexillary(w)]
    assert essential_box_mismatches(orbits, ws) == []
    assert len(ws) == {1: 2, 2: 7, 3: 33, 4: 183, 5: 1118, 6: 7281}[n]


def test_packed_bruhat_needs_one_size():
    orbits = OrbitTable(2)
    with pytest.raises(InputError):
        orbits.below(PartialPermutation.identity(3))
    with pytest.raises(InputError):
        OrbitTable(0)


def hat_permutation(w: PartialPermutation) -> PartialPermutation:
    """The 2n x 2n permutation with bottom-left block w and aligned essential set.

    The dots outside the bottom-left block sit in the top n rows and last n
    columns, running from bottom-left to top-right: empty columns of w take
    the highest-numbered free top rows in decreasing order, then the last n
    columns take all remaining rows in decreasing order.  The essential set
    of the result is the essential set of w shifted down by n rows.
    """
    n = w.n
    image = [0] * (2 * n)
    for r, c in w.dots():
        image[c - 1] = n + r
    empty_cols = [j for j in range(1, n + 1) if not w(j)]
    top_rows = list(range(n, n - len(empty_cols), -1))
    for col, row in zip(empty_cols, top_rows):
        image[col - 1] = row
    used = set(image)
    remaining = sorted((r for r in range(1, 2 * n + 1) if r not in used), reverse=True)
    for offset, row in enumerate(remaining):
        image[n + offset] = row
    return PartialPermutation(2 * n, tuple(image))


def test_hat_permutation_fixtures():
    # full-rank completions place the remaining dots from bottom-left to top-right
    assert hat_permutation(PartialPermutation.from_one_line("12")).image == (3, 4, 2, 1)
    assert hat_permutation(PartialPermutation.from_one_line("21")).image == (4, 3, 2, 1)
    assert hat_permutation(PartialPermutation.zero(1)).image == (1, 2)
    # columns of a full-rank w land in the bottom rows
    w = PartialPermutation.from_one_line("2413")
    hat = hat_permutation(w)
    assert all(hat(j) > w.n for j in range(1, w.n + 1))


def test_hat_permutation_essential_translation():
    for n in (1, 2, 3):
        for w in all_partial_permutations(n):
            shifted = tuple(
                EssentialCondition(e.row + n, e.col, e.rank) for e in essential_set(w)
            )
            assert essential_set(hat_permutation(w)) == shifted


def test_hat_permutation_unique_with_translation_property():
    # brute force over S_{2n}: the completion is the only permutation with
    # bottom-left block w and the translated essential set
    for n in (1, 2):
        for w in all_partial_permutations(n):
            shifted = tuple(
                EssentialCondition(e.row + n, e.col, e.rank) for e in essential_set(w)
            )
            matches = []
            for cand in all_permutations(2 * n):
                block_ok = all(
                    (cand(j) == n + w(j) if w(j) else cand(j) <= n)
                    for j in range(1, n + 1)
                )
                if block_ok and essential_set(cand) == shifted:
                    matches.append(cand)
            assert matches == [hat_permutation(w)]


def test_reconstruct_fixtures():
    assert reconstruct_from_essential(
        4, [EssentialCondition(3, 2, 0)]
    ) == PartialPermutation.from_one_line("2143")
    for n in (1, 2, 3):
        assert reconstruct_from_essential(n, []) == PartialPermutation.longest(n)
        zero = PartialPermutation.zero(n)
        assert reconstruct_from_essential(n, essential_set(zero)) == zero


def test_reconstruct_roundtrip_exhaustive():
    for n in (1, 2, 3):
        for w in all_partial_permutations(n):
            assert reconstruct_from_essential(n, essential_set(w)) == w


def test_reconstruct_roundtrip_random():
    rng = random.Random(2024)
    for n in (4, 5, 6):
        for _ in range(120):
            w = random_partial_permutation(n, rng)
            assert reconstruct_from_essential(n, essential_set(w)) == w


def test_reconstruct_rejects_bad_data():
    with pytest.raises(EssentialDataError):
        reconstruct_from_essential(3, [EssentialCondition(1, 1, 5)])
    # a box that is not northeast-maximal for any dot pattern
    with pytest.raises(EssentialDataError):
        reconstruct_from_essential(
            2, [EssentialCondition(1, 1, 0), EssentialCondition(2, 1, 1)]
        )


def test_rank_matrix_injective():
    for n in (1, 2, 3):
        seen = {}
        for w in all_partial_permutations(n):
            key = rank_matrix(w)
            assert key not in seen
            seen[key] = w


def test_one_line_parsing():
    assert PartialPermutation.from_one_line("2 1 4 3").image == (2, 1, 4, 3)
    assert PartialPermutation.from_one_line("2143").image == (2, 1, 4, 3)
    assert PartialPermutation.from_one_line("0 3 0 1").image == (0, 3, 0, 1)
    with pytest.raises(InputError):
        PartialPermutation.from_one_line("1 1")
    with pytest.raises(InputError):
        PartialPermutation.from_one_line("5 1 2")
