"""Double Schubert polynomials, torus-fixed-point localization on the
Grassmannian, and the multidegree comparison between the two.

Polynomials are exact dense-in-monomials dictionaries over a named variable
tuple, so equality is literal.  The localization of an equivariant
Grassmannian Schubert class at a torus-fixed point is the excited Young
diagram sum of Ikeda and Naruse (grass_restriction): a sum of products of
positive roots t_b - t_a, one product per diagram, with no reduced words and
no permutations.  Each linear factor v_a - v_b, there and at the longest
element, is two exponent bumps per term into one dictionary, sorted once per
polynomial; variable renamings likewise move exponents instead of
multiplying.

The variable dictionary relating the two sides of the multidegree identity
is fixed: after mapping torus characters through the embedding's weight
dictionary, rename x_i to y_{n+1-i} and y_i to x_i, then negate each
homogeneous component of odd degree (sign_by_degree).  Of the 16
conventions that exchange the alphabets or not, reverse either alphabet's
indices or not, and sign by degree or not, it is the only one under which
every covexillary permutation with n <= 3 satisfies the identity (the
n = 2 fixtures alone leave two); tests/test_equivariant.py enumerates them.
Any residual mismatch after this map is a genuine failure, not a
convention artifact.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator

from .embedding import fixed_point_index, target_grass_index, weight_map
from .errors import InputError
from .frozen import Frozen
from .permcore import CovexillaryData, PartialPermutation, covexillary_data
from .varieties import GrassIndex


class MultivariatePolynomial(Frozen):
    """Exact integer polynomial over a fixed, ordered variable tuple."""

    _fields = ("variables", "terms")

    def __init__(self, variables: tuple[str, ...], terms: tuple[tuple[tuple[int, ...], int], ...]):
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", terms)  # sorted (exponents, coeff)

    @staticmethod
    def make(variables: tuple[str, ...], data: dict[tuple[int, ...], int]) -> "MultivariatePolynomial":
        cleaned = {k: v for k, v in data.items() if v}
        return MultivariatePolynomial(variables, tuple(sorted(cleaned.items())))

    @staticmethod
    def zero(variables: tuple[str, ...]) -> "MultivariatePolynomial":
        return MultivariatePolynomial(variables, ())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __mul__(self, other: "MultivariatePolynomial") -> "MultivariatePolynomial":
        self._check(other)
        data: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                key = tuple(a + b for a, b in zip(e1, e2))
                data[key] = data.get(key, 0) + c1 * c2
        return MultivariatePolynomial.make(self.variables, data)

    def sign_by_degree(self) -> "MultivariatePolynomial":
        return MultivariatePolynomial(
            self.variables,
            tuple((exps, -c if sum(exps) & 1 else c) for exps, c in self.terms),
        )

    def __str__(self) -> str:
        return "".join(self._text_pieces())

    def _text_pieces(self) -> Iterator[str]:
        """str(self) in pieces, one per term: each term after the first
        comes with the " + " or " - " that joins it to the one before."""
        if self.is_zero:
            yield "0"
            return
        # powers[v][e] is variable v to the power e, "" at e = 0
        top = max(max(exps, default=0) for exps, _ in self.terms)
        powers = [
            ["", name] + [f"{name}^{e}" for e in range(2, top + 1)] for name in self.variables
        ]
        for k, (exps, c) in enumerate(self.terms):
            mono = "*".join(filter(None, map(list.__getitem__, powers, exps)))
            if not mono:
                text = str(c)
            elif c == 1:
                text = mono
            elif c == -1:
                text = f"-{mono}"
            else:
                text = f"{c}*{mono}"
            if k:
                text = f" - {text[1:]}" if text[0] == "-" else f" + {text}"
            yield text

    def _check(self, other: "MultivariatePolynomial") -> None:
        if self.variables != other.variables:
            raise InputError("polynomials live in different rings")


def _relabel(variables: tuple[str, ...], terms: Iterable, target_variables: tuple[str, ...],
             images: dict[str, str]) -> MultivariatePolynomial:
    """Ring map sending distinct variables to distinct variables of the
    target ring, on the (exponents, coefficient) terms over variables, in
    any order (a polynomial's terms, or the items of a dictionary).

    Moves exponents instead of multiplying once per variable occurrence:
    each term's exponents are gathered into their new slots in one
    itemgetter call.  The tests compare it with the general ring map.
    """
    width = len(variables)
    source = [width] * len(target_variables)  # slot `width` reads an appended 0
    for k, name in enumerate(variables):
        if name not in images:
            if any(exps[k] for exps, _ in terms):
                raise InputError(f"no image for variable {name}")
            continue
        slot = target_variables.index(images[name])
        if source[slot] != width:
            raise InputError(f"two variables have the image {images[name]}")
        source[slot] = k
    gather = itemgetter(*source, width)  # the extra read keeps one slot a tuple
    return MultivariatePolynomial.make(
        target_variables, {gather(exps + (0,))[:-1]: c for exps, c in terms}
    )


def _times_difference(data: dict[tuple[int, ...], int], plus: int, minus: int) -> dict[tuple[int, ...], int]:
    """The terms of data times v_plus - v_minus: two exponent bumps per term."""
    out: dict[tuple[int, ...], int] = {}
    for exps, c in data.items():
        bumped = list(exps)
        bumped[plus] += 1
        key = tuple(bumped)
        out[key] = out.get(key, 0) + c
        bumped[plus] -= 1
        bumped[minus] += 1
        key = tuple(bumped)
        out[key] = out.get(key, 0) - c
    return out


def xy_ring(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, n + 1)) + tuple(
        f"y{i}" for i in range(1, n + 1)
    )


def t_ring(N: int) -> tuple[str, ...]:
    return tuple(f"t{i}" for i in range(1, N + 1))


def divided_difference(f: MultivariatePolynomial, n: int, i: int) -> MultivariatePolynomial:
    """(f - s_i f) / (x_i - x_{i+1}), term by term in closed form.

    A term c x_i^a x_{i+1}^b m, with m free of x_i and x_{i+1}, goes to
    c m sum_{k < a-b} x_i^(a-1-k) x_{i+1}^(b+k) when a > b, to the negative
    of the mirrored sum when a < b, and to 0 when a = b.  The mirrored sum
    has the same monomials, so both cases run over the exponent pairs
    (lo + k, hi - 1 - k) with lo = min(a, b), hi = max(a, b).
    """
    pos_a, pos_b = i - 1, i  # positions of x_i, x_{i+1} in the xy ring
    data: dict[tuple[int, ...], int] = {}
    for exps, c in f.terms:
        a, b = exps[pos_a], exps[pos_b]
        if a == b:
            continue
        if a < b:
            a, b, c = b, a, -c
        out = list(exps)
        for k in range(a - b):
            out[pos_a], out[pos_b] = b + k, a - 1 - k
            key = tuple(out)
            data[key] = data.get(key, 0) + c
    return MultivariatePolynomial.make(f.variables, data)


@lru_cache(maxsize=None)
def _double_schubert_cached(image: tuple[int, ...]) -> MultivariatePolynomial:
    n = len(image)
    ring = xy_ring(n)
    w0 = tuple(range(n, 0, -1))
    if image == w0:
        data = {(0,) * len(ring): 1}
        for i in range(1, n + 1):
            for j in range(1, n + 1 - i):
                data = _times_difference(data, i - 1, n + j - 1)  # x_i - y_j
        return MultivariatePolynomial.make(ring, data)
    i = next(k for k in range(1, n) if image[k - 1] < image[k])
    longer = list(image)
    longer[i - 1], longer[i] = longer[i], longer[i - 1]
    return divided_difference(_double_schubert_cached(tuple(longer)), n, i)


def double_schubert(w: PartialPermutation) -> MultivariatePolynomial:
    """The double Schubert polynomial of w in x_1..x_n, y_1..y_n.

    Defined by the product formula at the longest element and descending
    divided differences in the x alphabet.  Refused beyond n = 7: the
    product at w0 has 484,912 terms at n = 7, and at n = 8 the expansion
    exhausts memory.
    """
    if not w.is_full_rank:
        raise InputError("double Schubert polynomials need full permutations")
    if w.n > 7:
        raise InputError(f"double Schubert polynomials are limited to n <= 7; got n = {w.n}")
    return _double_schubert_cached(w.image)


def _diagram(subset: tuple[int, ...], N: int) -> list[int]:
    """Row lengths of a d-subset's diagram: row a has #{b > a : b not in it}."""
    return [sum(1 for b in range(a + 1, N + 1) if b not in subset) for a in subset]


def grass_restriction(v_idx: GrassIndex, point: GrassIndex) -> MultivariatePolynomial:
    """Localization of the class of the Schubert variety Gr_v at a fixed point.

    The excited Young diagram sum (Ikeda-Naruse, Trans. AMS 2009).  The
    point's diagram has rows labelled by its elements increasingly and
    columns by the elements outside it decreasingly; box (i, j) weighs
    t_col - t_row.  Starting from v's diagram in the top-left corner, a box
    (i, j) may slide to (i+1, j+1) when (i+1, j), (i, j+1) and (i+1, j+1)
    lie in the point's diagram and are all empty.  The restriction is the
    sum over the reachable diagrams of the product of their box weights, and
    0 when v's diagram does not fit inside the point's.
    """
    return MultivariatePolynomial.make(t_ring(v_idx.N), _excited_terms(v_idx, point))


def _excited_terms(v_idx: GrassIndex, point: GrassIndex) -> dict[tuple[int, ...], int]:
    """The terms of grass_restriction(v_idx, point) over t_1..t_N, unsorted."""
    if (v_idx.d, v_idx.N) != (point.d, point.N):
        raise InputError("variety and point live in different Grassmannians")
    if not point.leq(v_idx):  # v's diagram does not fit inside the point's
        return {}
    N = v_idx.N
    inner, outer = _diagram(v_idx.positions, N), _diagram(point.positions, N)
    rows = point.positions
    cols = [b for b in range(N, 0, -1) if b not in rows]
    start = frozenset((i, j) for i, length in enumerate(inner) for j in range(length))
    reached, stack = {start}, [start]
    while stack:
        diagram = stack.pop()
        for i, j in diagram:
            # (i+1, j+1) in the point's partition puts (i+1, j), (i, j+1) there too
            if i + 1 < len(outer) and j + 1 < outer[i + 1] and not (
                {(i + 1, j), (i, j + 1), (i + 1, j + 1)} & diagram
            ):
                moved = diagram - {(i, j)} | {(i + 1, j + 1)}
                if moved not in reached:
                    reached.add(moved)
                    stack.append(moved)
    total: dict[tuple[int, ...], int] = {}
    for diagram in reached:
        term = {(0,) * N: 1}
        for i, j in diagram:
            term = _times_difference(term, cols[j] - 1, rows[i] - 1)  # t_col - t_row
        for exps, c in term.items():
            total[exps] = total.get(exps, 0) + c
    return total


def apply_weight_map(
    poly_t: MultivariatePolynomial, mapping: dict[int, tuple[str, int]], n: int
) -> MultivariatePolynomial:
    """Substitute t_k by the x/y variable given by the embedding's dictionary."""
    ring = xy_ring(n)
    images = {f"t{k}": f"{sym}{idx}" for k, (sym, idx) in mapping.items()}
    return _relabel(poly_t.variables, poly_t.terms, ring, images)


def origin_restriction(
    data: CovexillaryData,
) -> tuple[GrassIndex, MultivariatePolynomial, MultivariatePolynomial]:
    """The image of the origin, the target class restricted there, and that
    restriction in x and y through the embedding's weight dictionary."""
    target, origin = _origin(data)
    in_t = grass_restriction(target, origin)
    return origin, in_t, apply_weight_map(in_t, weight_map(data), data.n)


def _origin(data: CovexillaryData) -> tuple[GrassIndex, GrassIndex]:
    """The target's index and the image of the origin, where both sides localize it."""
    return target_grass_index(data), fixed_point_index(PartialPermutation.zero(data.n), data)


# At n = 6 the multidegree suite's 648 cases take about 9 s and 245 MB, most
# of it the memoized double Schubert polynomials.  At n = 7 the localization
# of 1234567 alone has 484,912 terms, about 45 MB as printed by `covex
# schubert localize`, and the suite would run 2,761 cases.  `covex schubert`
# shares the limit.
MULTIDEGREE_MAX_N = 6


def check_multidegree_size(n: int) -> None:
    """Refuse a multidegree computation beyond n = MULTIDEGREE_MAX_N."""
    if n > MULTIDEGREE_MAX_N:
        raise InputError(f"multidegree is limited to n <= {MULTIDEGREE_MAX_N}; got n = {n}")


class MultidegreeReport(Frozen):
    _fields = ("w", "schubert_side", "localization_side")

    def __init__(self, w: PartialPermutation, schubert_side: MultivariatePolynomial,
                 localization_side: MultivariatePolynomial):
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "schubert_side", schubert_side)
        object.__setattr__(self, "localization_side", localization_side)

    @property
    def matched(self) -> bool:
        return self.schubert_side == self.localization_side

    def texts(self) -> tuple[str, str]:
        """str of each side; equal polynomials print the same bytes, so a
        matched report formats its polynomial once."""
        schubert = str(self.schubert_side)
        return schubert, schubert if self.matched else str(self.localization_side)


def verify_multidegree(w: PartialPermutation) -> MultidegreeReport:
    """Compare the double Schubert polynomial of w0 w with the localization.

    The right side is the restriction of the target Schubert class at the
    image of the origin, pushed through the torus-weight dictionary and the
    fixed variable convention of the module docstring.
    """
    check_multidegree_size(w.n)
    data = covexillary_data(w)
    if not w.is_full_rank:
        raise InputError("the multidegree identity is stated for permutations")
    n = w.n
    lhs = double_schubert(PartialPermutation.longest(n).compose(w))
    # apply_weight_map, then x_i -> y_{n+1-i} and y_i -> x_i: one relabel, one sort
    images = {
        f"t{k}": f"y{n + 1 - i}" if sym == "x" else f"x{i}"
        for k, (sym, i) in weight_map(data).items()
    }
    terms = _excited_terms(*_origin(data)).items()
    rhs = _relabel(t_ring(2 * n), terms, xy_ring(n), images).sign_by_degree()
    return MultidegreeReport(w, lhs, rhs)
