"""Divided differences, localization anchors, and the multidegree identity."""

import itertools
import random

from covex.equivariant import (
    MultivariatePolynomial,
    apply_weight_map,
    divided_difference,
    double_schubert,
    grass_restriction,
    t_ring,
    verify_multidegree,
    xy_ring,
)
from covex.embedding import (
    fixed_point_index,
    target_grass_index,
    tau_permutation,
    weight_map,
)
from covex.permcore import (
    PartialPermutation,
    all_partial_permutations,
    all_permutations,
    covexillary_data,
    is_covexillary,
)
from covex.varieties import GrassIndex
from test_kl import CosetData


def lin(ring, coeffs):
    return MultivariatePolynomial.linear(ring, coeffs)


def test_double_schubert_fixtures():
    ring2 = xy_ring(2)
    assert double_schubert(PartialPermutation.identity(3)) == MultivariatePolynomial.constant(
        xy_ring(3), 1
    )
    assert double_schubert(PartialPermutation.longest(2)) == lin(ring2, {"x1": 1, "y1": -1})
    # classical degree-one cases: S_{s_k} = sum_{i<=k} (x_i - y_i)
    s2 = double_schubert(PartialPermutation.from_one_line("132"))
    assert s2 == lin(xy_ring(3), {"x1": 1, "x2": 1, "y1": -1, "y2": -1})


def test_divided_difference_properties():
    rng = random.Random(20)
    ring = xy_ring(4)

    def random_poly():
        data = {}
        for _ in range(8):
            exps = tuple(rng.randrange(3) for _ in range(8))
            data[exps] = data.get(exps, 0) + rng.randrange(-5, 6)
        return MultivariatePolynomial.make(ring, data)

    for _ in range(10):
        f = random_poly()
        for i in (1, 2, 3):
            assert divided_difference(divided_difference(f, 4, i), 4, i).is_zero
        left = divided_difference(
            divided_difference(divided_difference(f, 4, 1), 4, 2), 4, 1
        )
        right = divided_difference(
            divided_difference(divided_difference(f, 4, 2), 4, 1), 4, 2
        )
        assert left == right


def swap_x(f, i):
    """s_i f: exchange the exponents of x_i and x_{i+1}."""
    data = {}
    for exps, c in f.terms:
        out = list(exps)
        out[i - 1], out[i] = out[i], out[i - 1]
        data[tuple(out)] = c
    return MultivariatePolynomial.make(f.variables, data)


def divide_linear_difference(g, pos_a, pos_b):
    """Reference: long division of g by (v_a - v_b), raising if a remainder is left.

    Each step takes the remainder's largest term in the order (exponent of
    v_a, exponents) and cancels it, which is quadratic in the number of
    terms; the production divided difference maps each term to its closed
    form instead.
    """
    data = g._dict()
    quotient = {}

    def lead_key(exps):
        return (exps[pos_a], exps)

    while data:
        exps = max(data, key=lead_key)
        c = data.pop(exps)
        if c == 0:
            continue
        if exps[pos_a] == 0:
            raise ArithmeticError("polynomial is not divisible by the linear difference")
        qexps = list(exps)
        qexps[pos_a] -= 1
        qexps = tuple(qexps)
        quotient[qexps] = quotient.get(qexps, 0) + c
        # subtracting (v_a - v_b) c monomial(qexps) leaves + c v_b monomial(qexps)
        bexps = list(qexps)
        bexps[pos_b] += 1
        bexps = tuple(bexps)
        data[bexps] = data.get(bexps, 0) + c
        if data[bexps] == 0:
            data.pop(bexps)
    return MultivariatePolynomial.make(g.variables, quotient)


def test_divided_difference_matches_long_division():
    """The closed form equals (f - s_i f) divided by x_i - x_{i+1} for every
    double Schubert polynomial of S_5 and every i, and on random polynomials
    with repeated, missing and unequal exponents."""
    for w in all_permutations(5):
        f = double_schubert(w)
        for i in range(1, 5):
            expected = divide_linear_difference(f - swap_x(f, i), i - 1, i)
            assert divided_difference(f, 5, i) == expected
    rng = random.Random(21)
    ring = xy_ring(3)
    for _ in range(200):
        data = {}
        for _ in range(rng.randrange(1, 6)):
            exps = tuple(rng.randrange(5) for _ in range(6))
            data[exps] = rng.randrange(-4, 5)
        f = MultivariatePolynomial.make(ring, data)
        for i in (1, 2):
            expected = divide_linear_difference(f - swap_x(f, i), i - 1, i)
            assert divided_difference(f, 3, i) == expected


def test_single_schubert_stability():
    # killing the y alphabet and appending a fixed point leaves the polynomial alone
    for image in ((1, 2, 3), (2, 1, 3), (1, 3, 2), (3, 1, 2), (2, 3, 1), (3, 2, 1)):
        w = PartialPermutation(3, image)
        extended = PartialPermutation(4, image + (4,))
        small = double_schubert(w)
        big = double_schubert(extended)
        ring_small, ring_big = xy_ring(3), xy_ring(4)
        kill_small = {
            name: (
                MultivariatePolynomial.variable(ring_big, name)
                if name.startswith("x")
                else MultivariatePolynomial.zero(ring_big)
            )
            for name in ring_small
        }
        kill_big = {
            name: (
                MultivariatePolynomial.variable(ring_big, name)
                if name.startswith("x")
                else MultivariatePolynomial.zero(ring_big)
            )
            for name in ring_big
        }
        assert small.substitute(ring_big, kill_small) == big.substitute(ring_big, kill_big)


def test_localization_whole_and_off_variety():
    whole = GrassIndex(2, 4, (3, 4))
    sub = GrassIndex(2, 4, (1, 2))
    assert grass_restriction(whole, sub) == MultivariatePolynomial.constant(t_ring(4), 1)
    divisor = GrassIndex(2, 4, (2, 4))
    assert grass_restriction(divisor, GrassIndex(2, 4, (3, 4))).is_zero


def test_localization_point_class():
    ring = t_ring(4)
    point = GrassIndex(2, 4, (1, 2))
    expected = MultivariatePolynomial.constant(ring, 1)
    for a in (1, 2):
        for b in (3, 4):
            expected = expected * lin(ring, {f"t{b}": 1, f"t{a}": -1})
    assert grass_restriction(point, point) == expected


def test_localization_smooth_point_oracle():
    """At linear matrix Schubert varieties the restriction is a root product.

    Whenever every essential rank is zero the variety is a coordinate
    subspace, so the localization at the image of the origin must equal the
    product of the weights of the deleted coordinates.
    """
    for n in (1, 2, 3):
        for w in all_partial_permutations(n):
            if not is_covexillary(w):
                continue
            data = covexillary_data(w)
            if any(r != 0 for r in data.r):
                continue
            tau = tau_permutation(data)
            v_hat = target_grass_index(data)
            origin = GrassIndex(n, 2 * n, tuple(sorted(tau(j) for j in range(1, n + 1))))
            ring = t_ring(2 * n)
            forced = sorted(
                {
                    (i, j)
                    for (p, q, _) in data.triples
                    for i in range(p + 1, n + 1)
                    for j in range(1, q + 1)
                }
            )
            expected = MultivariatePolynomial.constant(ring, 1)
            for i, j in forced:
                expected = expected * lin(
                    ring, {f"t{tau(n + i)}": 1, f"t{tau(j)}": -1}
                )
            assert grass_restriction(v_hat, origin) == expected


def test_localization_singular_fixture():
    # Gr(3, 6) divisor at a singular fixed point: two excited diagrams
    ring = t_ring(6)
    got = grass_restriction(GrassIndex(3, 6, (3, 5, 6)), GrassIndex(3, 6, (1, 2, 4)))
    assert got == lin(ring, {"t5": 1, "t6": 1, "t1": -1, "t2": -1})


def test_localization_rep_independent():
    # the oracle reads either coset representative of the point
    divisor = GrassIndex(2, 4, (2, 4))
    point = GrassIndex(2, 4, (1, 3))
    at_min = billey_restriction(divisor, point, "min")
    assert at_min == billey_restriction(divisor, point, "max")
    assert grass_restriction(divisor, point) == at_min


def test_renaming_matches_substitution():
    rng = random.Random(7)
    ring = xy_ring(3)
    for _ in range(20):
        data = {}
        for _ in range(6):
            exps = tuple(rng.randrange(3) for _ in ring)
            data[exps] = data.get(exps, 0) + rng.randrange(-4, 5)
        f = MultivariatePolynomial.make(ring, data)
        images = list(ring)
        rng.shuffle(images)
        permutation = dict(zip(ring, images))
        as_ring_map = {
            old: MultivariatePolynomial.variable(ring, new) for old, new in permutation.items()
        }
        assert f.rename(permutation) == f.substitute(ring, as_ring_map)
        t_poly = MultivariatePolynomial.make(
            t_ring(6), {exps[:6]: c for exps, c in f.terms}
        )
        weights = {k: (images[k - 1][0], int(images[k - 1][1:])) for k in range(1, 7)}
        as_ring_map = {
            f"t{k}": MultivariatePolynomial.variable(ring, f"{sym}{idx}")
            for k, (sym, idx) in weights.items()
        }
        assert apply_weight_map(t_poly, weights, 3) == t_poly.substitute(ring, as_ring_map)


def test_weight_map_substitution():
    data = covexillary_data(PartialPermutation.longest(2))
    ring = t_ring(4)
    poly = lin(ring, {"t1": 1, "t3": -1})
    mapped = apply_weight_map(poly, weight_map(data), 2)
    assert mapped == lin(xy_ring(2), {"y1": 1, "x1": -1})


def _transform_with(poly, n, swap, revx, revy, sign_by_degree):
    renames = {}
    for i in range(1, n + 1):
        xt = f"y{i}" if swap else f"x{i}"
        yt = f"x{i}" if swap else f"y{i}"
        if revx:
            xt = xt[0] + str(n + 1 - int(xt[1:]))
        if revy:
            yt = yt[0] + str(n + 1 - int(yt[1:]))
        renames[f"x{i}"] = xt
        renames[f"y{i}"] = yt
    out = poly.rename(renames)
    return out.sign_by_degree() if sign_by_degree else out


def calibrate_convention(n_values):
    """The (swap, revx, revy, sign) conventions, of all 16, under which every
    covexillary permutation of the given sizes satisfies the identity."""
    fixtures = []
    for n in n_values:
        for w in all_permutations(n):
            if not is_covexillary(w):
                continue
            data = covexillary_data(w)
            v_hat = target_grass_index(data)
            origin = fixed_point_index(PartialPermutation.zero(n), data)
            in_xy = apply_weight_map(grass_restriction(v_hat, origin), weight_map(data), n)
            lhs = double_schubert(PartialPermutation.longest(n).compose(w))
            fixtures.append((n, in_xy, lhs))
    return [
        convention
        for convention in itertools.product((False, True), repeat=4)
        if all(_transform_with(rhs, n, *convention) == lhs for n, rhs, lhs in fixtures)
    ]


def test_convention_is_the_unique_survivor():
    # verify_multidegree applies (swap, revx, revy, sign) = this convention
    frozen = (True, True, False, True)
    survivors_small = calibrate_convention((2,))
    assert frozen in survivors_small
    assert len(survivors_small) == 2  # n = 2 alone cannot split the pair
    assert calibrate_convention((2, 3)) == [frozen]


def test_verify_multidegree():
    # hand-checked smallest cases
    report = verify_multidegree(PartialPermutation.identity(2))
    assert report.matched
    assert report.schubert_side == lin(xy_ring(2), {"x1": 1, "y1": -1})
    assert verify_multidegree(PartialPermutation.longest(3)).matched
    for n in (1, 2, 3):
        for w in all_permutations(n):
            if is_covexillary(w):
                assert verify_multidegree(w).matched


def _perm_length(p):
    return sum(a > b for a, b in itertools.combinations(p, 2))


def _reduced_word(p):
    """A reduced word (letters are 1-based adjacent transposition indices)."""
    word = []
    cur = list(p)
    while True:
        i = next((k for k in range(len(cur) - 1) if cur[k] > cur[k + 1]), None)
        if i is None:
            break
        cur[i], cur[i + 1] = cur[i + 1], cur[i]
        word.append(i + 1)
    return list(reversed(word))


def billey_subword_sum(N, class_perm, point_perm):
    """Independent oracle: Billey's formula (Duke 1999) by depth-first search.

    Every subword of a reduced word of the point that is a reduced word of
    the class contributes the product of its roots.  The search enumerates
    all length-increasing subwords, checks the product at the end, and only
    then multiplies the roots of a matching subword.
    """
    ring = t_ring(N)
    word = _reduced_word(point_perm)
    target_len = _perm_length(class_perm)
    roots = []
    prefix = list(range(1, N + 1))
    for letter in word:
        roots.append(lin(ring, {f"t{prefix[letter - 1]}": 1, f"t{prefix[letter]}": -1}))
        prefix[letter - 1], prefix[letter] = prefix[letter], prefix[letter - 1]
    total = MultivariatePolynomial.zero(ring)
    L = len(word)

    def dfs(pos, current, chosen):
        nonlocal total
        if len(chosen) == target_len:
            if current == class_perm:
                term = MultivariatePolynomial.constant(ring, 1)
                for k in chosen:
                    term = term * roots[k]
                total = total + term
            return
        if L - pos < target_len - len(chosen):
            return
        dfs(pos + 1, current, chosen)
        letter = word[pos]
        nxt = list(current)
        nxt[letter - 1], nxt[letter] = nxt[letter], nxt[letter - 1]
        nxt = tuple(nxt)
        if _perm_length(nxt) == len(chosen) + 1:  # the subword stays reduced
            dfs(pos + 1, nxt, chosen + (pos,))

    dfs(0, tuple(range(1, N + 1)), ())
    return total


def billey_restriction(v_idx, point, rep):
    """The restriction of Gr_v at the point by the subword oracle.

    The class is the maximal coset representative of v and the point either
    representative of its coset, both translated by the longest element into
    the codimension convention; the sum is relabeled t_i -> t_{N+1-i} back.
    """
    N = v_idx.N
    w0 = PartialPermutation.longest(N)
    coset = CosetData.from_index(point)
    point_rep = coset.minimal if rep == "min" else coset.maximal
    class_perm = w0.compose(PartialPermutation(N, CosetData.from_index(v_idx).maximal))
    point_perm = w0.compose(PartialPermutation(N, point_rep))
    reverse = {f"t{i}": f"t{N + 1 - i}" for i in range(1, N + 1)}
    return billey_subword_sum(N, class_perm.image, point_perm.image).rename(reverse)


def test_restriction_matches_billey_on_grassmannians():
    """The excited-diagram sum equals the subword oracle on every pair of
    the same Grassmannian with N <= 6, at both representatives of the point."""
    for N in range(1, 7):
        for d in range(N + 1):
            indices = [
                GrassIndex(d, N, positions)
                for positions in itertools.combinations(range(1, N + 1), d)
            ]
            for v_idx in indices:
                for point in indices:
                    got = grass_restriction(v_idx, point)
                    for rep in ("min", "max"):
                        assert got == billey_restriction(v_idx, point, rep), (v_idx, point, rep)


def test_restriction_matches_billey_at_origin_points():
    for n in range(1, 5):
        for w in all_permutations(n):
            if not is_covexillary(w):
                continue
            data = covexillary_data(w)
            v_hat = target_grass_index(data)
            origin = fixed_point_index(PartialPermutation.zero(n), data)
            assert grass_restriction(v_hat, origin) == billey_restriction(v_hat, origin, "min")


def test_verify_multidegree_s5_sample():
    covexillary = [w for w in all_permutations(5) if is_covexillary(w)]
    sample = random.Random(5).sample(covexillary, 16) + [PartialPermutation.longest(5)]
    for w in sample:
        assert verify_multidegree(w).matched
