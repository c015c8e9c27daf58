"""Divided differences, localization anchors, and the multidegree identity."""

import random

from covex.equivariant import (
    CONVENTION_REVERSE_X,
    CONVENTION_REVERSE_Y,
    CONVENTION_SIGN_BY_DEGREE,
    CONVENTION_SWAP_XY,
    MultivariatePolynomial,
    apply_weight_map,
    calibrate_convention,
    divided_difference,
    double_schubert,
    grass_restriction,
    t_ring,
    verify_multidegree,
    xy_ring,
)
from covex.embedding import embedding_target, target_grass_index, tau_permutation, weight_map
from covex.permcore import (
    PartialPermutation,
    all_partial_permutations,
    all_permutations,
    covexillary_data,
    is_covexillary,
)
from covex.varieties import GrassIndex


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
            v_hat = target_grass_index(embedding_target(data))
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
    # Gr(3, 6) divisor at a singular fixed point: a two-term subword sum
    ring = t_ring(6)
    got = grass_restriction(GrassIndex(3, 6, (3, 5, 6)), GrassIndex(3, 6, (1, 2, 4)))
    assert got == lin(ring, {"t5": 1, "t6": 1, "t1": -1, "t2": -1})


def test_localization_rep_independent():
    divisor = GrassIndex(2, 4, (2, 4))
    point = GrassIndex(2, 4, (1, 3))
    assert grass_restriction(divisor, point, "min") == grass_restriction(
        divisor, point, "max"
    )


def test_weight_map_substitution():
    data = covexillary_data(PartialPermutation.longest(2))
    ring = t_ring(4)
    poly = lin(ring, {"t1": 1, "t3": -1})
    mapped = apply_weight_map(poly, weight_map(data), 2)
    assert mapped == lin(xy_ring(2), {"y1": 1, "x1": -1})


def test_convention_is_the_unique_survivor():
    frozen = (
        CONVENTION_SWAP_XY,
        CONVENTION_REVERSE_X,
        CONVENTION_REVERSE_Y,
        CONVENTION_SIGN_BY_DEGREE,
    )
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
