"""Double Schubert polynomials, torus-fixed-point localization on the
Grassmannian, and the multidegree comparison between the two.

Polynomials are exact dense-in-monomials dictionaries over a named variable
tuple, so equality is literal.  The localization of an equivariant
Grassmannian Schubert class at a torus-fixed point is the excited Young
diagram sum of Ikeda and Naruse (grass_restriction): a sum of products of
positive roots t_b - t_a, one product per diagram, with no reduced words and
no permutations.  Variable renamings move exponents instead of multiplying.

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

from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError
from .permcore import PartialPermutation
from .varieties import GrassIndex


@dataclass(frozen=True)
class MultivariatePolynomial:
    """Exact integer polynomial over a fixed, ordered variable tuple."""

    variables: tuple[str, ...]
    terms: tuple[tuple[tuple[int, ...], int], ...]  # sorted (exponents, coeff)

    @staticmethod
    def make(variables: tuple[str, ...], data: dict[tuple[int, ...], int]) -> "MultivariatePolynomial":
        cleaned = {k: v for k, v in data.items() if v}
        return MultivariatePolynomial(variables, tuple(sorted(cleaned.items())))

    @staticmethod
    def zero(variables: tuple[str, ...]) -> "MultivariatePolynomial":
        return MultivariatePolynomial(variables, ())

    @staticmethod
    def constant(variables: tuple[str, ...], c: int) -> "MultivariatePolynomial":
        return MultivariatePolynomial.make(variables, {(0,) * len(variables): c})

    @staticmethod
    def linear(variables: tuple[str, ...], coeffs: dict[str, int]) -> "MultivariatePolynomial":
        data: dict[tuple[int, ...], int] = {}
        for name, c in coeffs.items():
            exps = [0] * len(variables)
            exps[variables.index(name)] = 1
            data[tuple(exps)] = data.get(tuple(exps), 0) + c
        return MultivariatePolynomial.make(variables, data)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.terms)

    def __add__(self, other: "MultivariatePolynomial") -> "MultivariatePolynomial":
        self._check(other)
        data = self._dict()
        for exps, c in other.terms:
            data[exps] = data.get(exps, 0) + c
        return MultivariatePolynomial.make(self.variables, data)

    def __sub__(self, other: "MultivariatePolynomial") -> "MultivariatePolynomial":
        return self + other.scale(-1)

    def scale(self, c: int) -> "MultivariatePolynomial":
        return MultivariatePolynomial.make(
            self.variables, {exps: c * v for exps, v in self.terms}
        )

    def __mul__(self, other: "MultivariatePolynomial") -> "MultivariatePolynomial":
        self._check(other)
        data: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                key = tuple(a + b for a, b in zip(e1, e2))
                data[key] = data.get(key, 0) + c1 * c2
        return MultivariatePolynomial.make(self.variables, data)

    def rename(self, permutation: dict[str, str]) -> "MultivariatePolynomial":
        """Relabel variables bijectively within the same ring."""
        images = {name: permutation.get(name, name) for name in self.variables}
        return self._relabel(self.variables, images)

    def _relabel(
        self, target_variables: tuple[str, ...], images: dict[str, str]
    ) -> "MultivariatePolynomial":
        """Ring map sending each variable to a variable of the target ring.

        Moves exponents instead of multiplying once per variable occurrence;
        the tests compare it with the general ring map.
        """
        slots = [
            target_variables.index(images[name]) if name in images else None
            for name in self.variables
        ]
        data: dict[tuple[int, ...], int] = {}
        for exps, c in self.terms:
            out = [0] * len(target_variables)
            for name, slot, e in zip(self.variables, slots, exps):
                if e:
                    if slot is None:
                        raise InputError(f"no image for variable {name}")
                    out[slot] += e
            key = tuple(out)
            data[key] = data.get(key, 0) + c
        return MultivariatePolynomial.make(target_variables, data)

    def sign_by_degree(self) -> "MultivariatePolynomial":
        return MultivariatePolynomial.make(
            self.variables,
            {exps: (-1) ** sum(exps) * c for exps, c in self.terms},
        )

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for exps, c in self.terms:
            mono = "*".join(
                (name if e == 1 else f"{name}^{e}")
                for name, e in zip(self.variables, exps)
                if e
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def _check(self, other: "MultivariatePolynomial") -> None:
        if self.variables != other.variables:
            raise InputError("polynomials live in different rings")


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
        result = MultivariatePolynomial.constant(ring, 1)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i + j <= n:
                    result = result * MultivariatePolynomial.linear(
                        ring, {f"x{i}": 1, f"y{j}": -1}
                    )
        return result
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
    if (v_idx.d, v_idx.N) != (point.d, point.N):
        raise InputError("variety and point live in different Grassmannians")
    N = v_idx.N
    ring = t_ring(N)
    inner, outer = _diagram(v_idx.positions, N), _diagram(point.positions, N)
    if any(a > b for a, b in zip(inner, outer)):
        return MultivariatePolynomial.zero(ring)
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
    total = MultivariatePolynomial.zero(ring)
    for diagram in reached:
        term = MultivariatePolynomial.constant(ring, 1)
        for i, j in diagram:
            weight = {f"t{cols[j]}": 1, f"t{rows[i]}": -1}
            term = term * MultivariatePolynomial.linear(ring, weight)
        total = total + term
    return total


def apply_weight_map(
    poly_t: MultivariatePolynomial, mapping: dict[int, tuple[str, int]], n: int
) -> MultivariatePolynomial:
    """Substitute t_k by the x/y variable given by the embedding's dictionary."""
    ring = xy_ring(n)
    images = {f"t{k}": f"{sym}{idx}" for k, (sym, idx) in mapping.items()}
    return poly_t._relabel(ring, images)


# At n = 7 the localization of 1234567 alone has 484,912 terms, about
# 45 MB as printed by `covex schubert localize`, and the multidegree suite
# would run 2,761 cases.  `covex schubert` shares the limit.
MULTIDEGREE_MAX_N = 6


def check_multidegree_size(n: int) -> None:
    """Refuse a multidegree computation beyond n = MULTIDEGREE_MAX_N."""
    if n > MULTIDEGREE_MAX_N:
        raise InputError(f"multidegree is limited to n <= {MULTIDEGREE_MAX_N}; got n = {n}")


@dataclass(frozen=True)
class MultidegreeReport:
    w: PartialPermutation
    schubert_side: MultivariatePolynomial
    localization_side: MultivariatePolynomial

    @property
    def matched(self) -> bool:
        return self.schubert_side == self.localization_side


def verify_multidegree(w: PartialPermutation) -> MultidegreeReport:
    """Compare the double Schubert polynomial of w0 w with the localization.

    The right side is the restriction of the target Schubert class at the
    image of the origin, pushed through the torus-weight dictionary and the
    fixed variable convention of the module docstring.
    """
    from .embedding import fixed_point_index, target_grass_index, weight_map
    from .permcore import covexillary_data

    check_multidegree_size(w.n)
    data = covexillary_data(w)
    if not w.is_full_rank:
        raise InputError("the multidegree identity is stated for permutations")
    n = w.n
    w0 = PartialPermutation.longest(n)
    lhs = double_schubert(w0.compose(w))
    v_hat = target_grass_index(data)
    origin = fixed_point_index(PartialPermutation.zero(n), data)
    in_xy = apply_weight_map(grass_restriction(v_hat, origin), weight_map(data), n)
    renames = {f"x{i}": f"y{n + 1 - i}" for i in range(1, n + 1)}
    renames.update({f"y{i}": f"x{i}" for i in range(1, n + 1)})
    rhs = in_xy.rename(renames).sign_by_degree()
    return MultidegreeReport(w, lhs, rhs)
