"""Seeded verification suites: every theorem gets a runnable, deterministic check.

Each suite maps to one acceptance criterion.  ``_SUITES``, the table at the
end of the module, gives each suite its runner, its acceptance
``(n_max, trials)`` and the largest ``n_max`` it accepts; ``resolved()``
refuses anything larger, and any ``trials`` above ``MAX_TRIALS``, before a
case runs.  A runner yields ``(case, passed, details)`` per case and
``run_suite`` turns them into verdicts sorted by case id, plain data that
serializes to stable JSON lines.  All randomness is drawn from per-case
generators seeded by (seed, suite, case), so reports are byte-identical
across reruns and independent of execution order.

The suites that sweep covexillary ``w`` share one case loop,
``_covexillary_cases``, over ``permcore.covexillary_sweep``: one corner
pass per bare image, and w and its triples are built only when the
corners form a chain.  The conormal calibrations share one rejection
check, ``_off_fiber_rejection``, at a smooth point whose conormal fiber is
coordinate (Kleiman, "Tangency and duality", 1986): w's 0/1 matrix for
conormal-matrix and conormal-flag, which share one loop, ``_calibration``,
and the fixed point E_S of the target's open cell for conormal-grass.
Each batch of covectors goes to one violations call: a cell point's fiber
elements (``_fiber_elements``), whose dimension is compared with |D(w)|,
the codimension of w's orbit (Fulton, Duke Math. J. 65, 1992), the
off-fiber covectors at the smooth point, and for diagram-chase the
sampled matrix fiber of each x chased into T*Gr(n, 2n)
(``_chase_to_grass``).

conormal-grass, whose checks at E_S decide every verdict, ignores
``trials``; embed-thm and rank-lemma draw nothing and ignore it too.
Their statements are invariant under x -> b_l x b_r, and the orbit O_u of
a partial permutation u holds u's 0/1 matrix, so each checks every
partial u of each size there: a proof for the size, over every field.
embed-thm groups the covexillary w of a size by tau class and walks one
``OrbitTable``, which packs every u into lanes of one int: the u <= w and
the u in w's target are each an AND of memoized guarded reads
(``OrbitTable.meet``), of w's essential boxes and of the class's counts
#{s in S : s > t} (``target_lanes``), with no elimination and no loop
over u; the verdicts are popcounts of lane masks.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import partial
from math import isqrt
from operator import mul
from typing import NamedTuple

from .conormal import (
    SpringerFlagPoint,
    SpringerGrassPoint,
    conormal_fiber_flag,
    conormal_fiber_matrix,
    conormal_flag_violations,
    conormal_grass_violations,
    conormal_matrix_violations,
    vector_rows,
)
from .embedding import embed_point, fixed_point_bits, target_grass_index, target_lanes
from .errors import DimensionMismatchError, EssentialDataError, InputError, InvariantError
from .exactla import (
    DEFAULT_PRIME,
    ExactMatrix,
    FieldSpec,
    Subspace,
    _draws,
    _insert,
    _lane_bits,
    _pack,
    _residues,
    coordinate_subspace,
)
from .frozen import Frozen
from .kl import (
    KL_COVEX_MAX_N,
    PolynomialQ,
    covexillary_kl_check,
    kl_polynomial,
)
from .permcore import (
    CovexillaryData,
    OrbitTable,
    PartialPermutation,
    all_partial_permutations,
    all_permutations,
    avoids_3412,
    covexillary_sweep,
    diagram,
    essential_set,
    is_covexillary,
    partial_images,
    permutation_images,
    random_partial_permutation,
    rank_matrix,
    reconstruct_from_essential,
)
from .varieties import sample_cell_point
from .equivariant import MULTIDEGREE_MAX_N, verify_multidegree

Case = tuple[str, bool, dict]


class SuiteConfig(Frozen):
    """Knobs of a verification run; None picks the acceptance default."""

    _fields = ("suite", "n_max", "trials", "prime", "seed")

    def __init__(self, suite: str, n_max: int | None = None, trials: int | None = None,
                 prime: int = DEFAULT_PRIME, seed: int = 0):
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "seed", seed)

    def resolved(self) -> "SuiteConfig":
        suite = _SUITES.get(self.suite)
        if suite is None:
            raise InputError(
                f"unknown suite {self.suite!r}; choose from {', '.join(SUITE_NAMES)}"
            )
        n_max = self.n_max if self.n_max is not None else suite.n_max
        trials = self.trials if self.trials is not None else suite.trials
        if n_max < 1:
            raise InputError("n_max must be at least 1")
        if trials < 1:
            raise InputError("trials must be at least 1")
        if trials > MAX_TRIALS:
            raise InputError(f"trials is limited to {MAX_TRIALS:,}; got {trials}")
        if n_max > suite.limit:
            raise InputError(f"{self.suite} is limited to n <= {suite.limit}; got n = {n_max}")
        FieldSpec.prime(self.prime)  # validates primality
        return SuiteConfig(self.suite, n_max, trials, self.prime, self.seed)


class Verdict(Frozen):
    _fields = ("suite", "case", "passed", "details")

    def __init__(self, suite: str, case: str, passed: bool, details: dict):
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "details", details)


def _rng(config: SuiteConfig, case: str) -> random.Random:
    return random.Random(f"{config.seed}|{config.suite}|{case}")


def _field(config: SuiteConfig) -> FieldSpec:
    return FieldSpec.prime(config.prime)


def _covexillary_cases(
    images: Callable[[int], Iterable[tuple[int, ...]]], n_max: int, start: int = 1
) -> Iterator[tuple[PartialPermutation, CovexillaryData, str]]:
    """(w, its essential triples, case id) per covexillary w of images(n), n = start..n_max."""
    for n in range(start, n_max + 1):
        for w, data in covexillary_sweep(images(n)):
            yield w, data, f"n={n}/w={w.one_line()}"


def _random_elements(fiber: Subspace, rng: random.Random, count: int) -> list[list[int]]:
    """count random elements of the fiber, flattened, each from fiber.dim draws of rng.

    Each is a combination of the fiber's basis.  The basis is reduced
    echelon, so at its k-th pivot an element holds the k-th coefficient;
    every other entry is one dot product of the coefficients with a column
    of the basis, or 0 on a zero column.  The zero fiber gives zero vectors
    and draws nothing.
    """
    p, d = fiber.field.p, fiber.dim
    pivots = dict(zip(fiber.pivots, range(d)))
    dots = [
        (j, col) for j, col in enumerate(zip(*fiber.vectors)) if j not in pivots and any(col)
    ]
    elements = []
    for _ in range(count):
        coeffs = _draws(rng, p, d)
        element = [0] * fiber.ambient
        for j, k in pivots.items():
            element[j] = coeffs[k]
        for j, col in dots:
            element[j] = sum(map(mul, coeffs, col)) % p
        elements.append(element)
    return elements


def _fiber_elements(fiber: Subspace, rng: random.Random, extra: int) -> list[tuple[tuple, ...]]:
    """The zero covector, the fiber's basis and extra random combinations of it.

    The fiber lives in F^(n^2); each covector is its n rows, as
    ExactMatrix.entries holds them.
    """
    n = isqrt(fiber.ambient)
    # the zero covector (zero section) is always a valid member
    points = [((0,) * n,) * n]
    points += [vector_rows(v, n) for v in fiber.vectors]
    points += [vector_rows(v, n) for v in _random_elements(fiber, rng, extra if fiber.dim else 0)]
    return points


def _off_fiber_rejection(
    fiber: Subspace,
    coordinates: Iterable[int],
    violations: Callable[[list], list[list]],
    rng: random.Random,
    valid: Sequence = (),
) -> tuple[int, int]:
    """(valid covectors rejected, off-fiber covectors accepted) at a smooth point.

    There the criterion must accept exactly the conormal fiber, a subspace
    of F^(N^2) read row-major in the N x N covectors, so a case passes only
    when both counts are 0.  violations gives the diagnostic lists of a
    list of covectors, each as its rows, [] for a member, and valid holds
    covectors to accept.  One random fiber element plus a nonzero multiple
    of E_k is off the fiber for each k of coordinates off its pivots.  One
    violations call checks valid and the off-fiber covectors together.
    """
    pivots = set(fiber.pivots)
    off = [k for k in coordinates if k not in pivots]
    ys = []
    if off:
        p, N = fiber.field.p, isqrt(fiber.ambient)
        [element] = _random_elements(fiber, rng, 1)
        for k, c in zip(off, _draws(rng, p - 1, len(off))):
            y = element.copy()
            y[k] = (y[k] + c + 1) % p
            ys.append(vector_rows(y, N))
    found = violations([*valid, *ys]) if valid or ys else []
    return sum(map(bool, found[: len(valid)])), found[len(valid) :].count([])


def _suite_covex_equiv(config: SuiteConfig) -> Iterator[Case]:
    for n in range(1, config.n_max + 1):
        for w in all_permutations(n):
            chain = is_covexillary(w)
            avoid = avoids_3412(w)
            yield f"n={n}/w={w.one_line()}", chain == avoid, {"chain": chain, "avoids_3412": avoid}


def _roundtrips(w: PartialPermutation) -> bool:
    """w comes back from its essential set; data that cannot be reconstructed fails the case."""
    try:
        return reconstruct_from_essential(w.n, essential_set(w)) == w
    except EssentialDataError:
        return False


def _suite_el_roundtrip(config: SuiteConfig) -> Iterator[Case]:
    for n in range(1, min(3, config.n_max) + 1):
        for w in all_partial_permutations(n):
            yield f"exhaustive/n={n}/w={w.one_line()}", _roundtrips(w), {}
    for n in range(4, config.n_max + 1):
        case = f"random/n={n}"
        rng = _rng(config, case)
        failures = []
        for trial in range(config.trials):
            w = random_partial_permutation(n, rng)
            if not _roundtrips(w):
                failures.append(w.one_line())
        yield case, not failures, {"trials": config.trials, "failures": failures[:5]}


def _tau_classes(n: int) -> Iterable[list[tuple[PartialPermutation, CovexillaryData, str]]]:
    """(w, its triples, case id) for the covexillary partial w of size n, a list per tau class."""
    classes: dict[tuple[int, ...], list] = {}
    for w, data, case in _covexillary_cases(partial_images, n, start=n):
        classes.setdefault(data.tau_order, []).append((w, data, case))
    return classes.values()


def _suite_embed_thm(config: SuiteConfig) -> Iterator[Case]:
    # x -> b_l x b_r keeps embed_point(x) in its Schubert cell; X_w is a
    # union of orbits O_u and the target a union of cells, so the theorem
    # holds on all of Mat_n iff it holds at every 0/1 representative u
    for n in range(1, config.n_max + 1):
        orbits = OrbitTable(n)
        for cases in _tau_classes(n):
            past = orbits.past(fixed_point_bits(cases[0][1]))
            reads: dict = {}  # the class's target reads, freed with it
            for w, data, case in cases:
                inside = orbits.below(w)
                target = target_lanes(orbits, past, data, reads)
                mismatches = (inside ^ target).bit_count()
                positives = inside.bit_count()
                yield case, mismatches == 0, {
                    "mismatches": mismatches,
                    "positives": positives,
                    "negatives": len(orbits.images) - positives,
                }


def _suite_rank_lemma(config: SuiteConfig) -> Iterator[Case]:
    """dim(graph(u) + <e_1..e_q, e_{n+1}..e_{n+p}>) = n + p + r_u(p+1, q) at every u.

    The subspace is stable under diag(b_r^-1, b_l), so the equality at u's
    0/1 matrix holds on all of O_u; as an equality it covers every bound r.
    """
    field = _field(config)
    prime = field.p
    for n in range(1, config.n_max + 1):
        unit = [tuple(int(k == i) for k in range(2 * n)) for i in range(2 * n)]
        disagreements = [[0] * (n + 1) for _ in range(n + 1)]
        for u in all_partial_permutations(n):
            ranks = rank_matrix(u)
            # graph(u), then e_{n+1}..e_{n+p}, then e_1..e_n in one echelon
            # basis: its dimension after e_q is the sum for (p, q)
            graph_and_e: dict = {}
            for j, column in enumerate(u.matrix(field).columns):
                _insert(graph_and_e, unit[j][:n] + column, prime)
            for p in range(n + 1):
                if p:
                    _insert(graph_and_e, unit[n + p - 1], prime)
                basis = dict(graph_and_e)
                for q in range(n + 1):
                    if q:
                        _insert(basis, unit[q - 1], prime)
                    r = ranks[p][q - 1] if p < n and q else 0
                    disagreements[p][q] += len(basis) != n + p + r
        for p, row in enumerate(disagreements):
            for q, bad in enumerate(row):
                yield f"n={n}/p={p}/q={q}", bad == 0, {"disagreements": bad}


def _calibration(
    config: SuiteConfig,
    images: Callable[[int], Iterable[tuple[int, ...]]],
    at: Callable[[ExactMatrix, PartialPermutation], tuple[Subspace, Callable[[list], list]]],
    off: Callable[[PartialPermutation], Iterable[int]],
    reported: Sequence[str],
) -> Iterator[Case]:
    """conormal-matrix or conormal-flag, at(point, w) giving the form's fiber and check.

    check gives the diagnostic lists of a batch of covector rows; off(w) holds
    the coordinates to leave the fiber along at w's 0/1 matrix.
    """
    field = _field(config)
    for w, _, case in _covexillary_cases(images, config.n_max):
        rng = _rng(config, case)
        expected_dim = len(diagram(w))
        rejected_valid = dim_mismatches = 0
        first_failure = None
        for _ in range(config.trials):
            fiber, check = at(sample_cell_point(w, field, rng), w)
            dim_mismatches += fiber.dim != expected_dim
            rejected = [found for found in check(_fiber_elements(fiber, rng, extra=20)) if found]
            rejected_valid += len(rejected)
            if rejected and first_failure is None:
                first_failure = rejected[0][0]
        fixed, violations = at(w.matrix(field), w)
        _, accepted_off = _off_fiber_rejection(fixed, off(w), violations, rng)
        counts = {
            "rejected_valid": rejected_valid,
            "dim_mismatches": dim_mismatches,
            "accepted_off": accepted_off,
        }
        details = dict(fiber_dim=fiber.dim, expected_dim=expected_dim, first_failure=first_failure)
        yield case, not any(counts.values()), counts | {key: details[key] for key in reported}


def _suite_conormal_matrix(config: SuiteConfig) -> Iterator[Case]:
    def at(x, w):
        return conormal_fiber_matrix(x, w), partial(conormal_matrix_violations, x, w)

    every = lambda w: range(w.n * w.n)  # every coordinate of an n x n covector
    return _calibration(config, partial_images, at, every, ("fiber_dim", "first_failure"))


def _suite_conormal_flag(config: SuiteConfig) -> Iterator[Case]:
    def at(g, w):
        flag, fiber = conormal_fiber_flag(g, w)
        return fiber, lambda zs: conormal_flag_violations(
            flag, w, [SpringerFlagPoint(flag, ExactMatrix(g.field, z)) for z in zs]
        )

    def springer(w):
        # the Springer fiber over w's flag is z = W U W^-1, U strictly upper:
        # entry (i, j) of U sits at row w(i), column w(j)
        v, n = w.image, w.n
        return ((v[i] - 1) * n + v[j] - 1 for j in range(n) for i in range(j))

    return _calibration(config, permutation_images, at, springer, ("expected_dim",))


def _grass_fixed_point(
    data: CovexillaryData, field: FieldSpec
) -> tuple[Subspace, Subspace, list[int]]:
    """(E_S, its orbit conormal, its Springer coordinates), S = target_grass_index(data).

    E_S is the fixed point of the target's open cell, a smooth point.  The
    Springer fiber Im(x) in E_S in ker(x) is the x with x_ab != 0 only at
    a in S, b not in S; the orbit conormal is its part with a < b, the x
    that annihilate every upper triangular b under the trace.  Coordinates
    are row-major in x: (a, b), 0-based, is a N + b for N = 2n.
    """
    N = 2 * data.n
    S = target_grass_index(data).positions
    springer = [(a - 1) * N + b for a in S for b in range(N) if b + 1 not in S]
    fiber = [k + 1 for k in springer if k // N < k % N]
    return coordinate_subspace(field, N, S), coordinate_subspace(field, N * N, fiber), springer


def _suite_conormal_grass(config: SuiteConfig) -> Iterator[Case]:
    field = _field(config)
    for _, data, case in _covexillary_cases(partial_images, config.n_max):
        rng = _rng(config, case)
        conditions = data.grass_conditions
        # at E_S, a smooth point: the fiber accepted, every Springer
        # direction off it rejected
        V, fiber, springer = _grass_fixed_point(data, field)
        rejected_valid, accepted_off = _off_fiber_rejection(
            fiber,
            springer,
            lambda xs: conormal_grass_violations(
                V, conditions, [SpringerGrassPoint(V, ExactMatrix(field, x)) for x in xs]
            ),
            rng,
            _fiber_elements(fiber, rng, extra=5),
        )
        yield case, rejected_valid == 0 and accepted_off == 0, {
            "rejected_valid": rejected_valid,
            "accepted_off": accepted_off,
        }


def _chase_to_grass(
    data: CovexillaryData, V: Subspace, x: ExactMatrix, ys: Iterable[Sequence[Sequence]]
) -> list[ExactMatrix]:
    """The cotangent points (x, y) pushed along the embedding into T*Gr(n, 2n).

    x lies over F_p, the only field the suites run over, and each y of ys
    is its n rows of elements of F_p.  With h1 = ((I, 0), (x, I))
    and theta = ((0, y), (0, 0)), the point is (tau h1 E_n, tau M' tau^-1)
    for M' = h1 theta h1^-1 = ((-yx, y), (-xyx, xy)) = [y; xy] [-x | I].
    tau h1 E_n is V = embed_point(x, data), which the caller computes once
    per x; the result holds tau M' tau^-1 for each y, in order, for the
    caller to make each a SpringerGrassPoint over V.
    Conjugating by the permutation tau moves entry (a, b) of M' to (tau(a),
    tau(b)): row a of the result is row tau^-1(a) of M' in data.tau_order,
    the order of [-x | I]'s columns, whose rows are packed once
    (tests/oracles.py holds the same chase by list products, over any field).

    V must be embed_point(x, data).  It is passed in, not recomputed, and
    SpringerGrassPoint checks only the two containments, so the V of another
    x could give a valid point with a wrong verdict.  Only its dimension n
    is checked here.
    """
    if V.dim != data.n:
        raise DimensionMismatchError("V is not an n-dimensional subspace of k^2n")
    field, p, n, order = x.field, x.field.p, data.n, data.tau_order
    cols = [[-v for v in c] for c in x.columns] + list(ExactMatrix.identity(field, n).entries)
    cols = [cols[b] for b in order]  # the columns of [-x | I] in tau order
    chased = []
    B = _lane_bits(n * n * (p - 1) ** 3)  # a lane is at most n^2 (p-1)^3
    packed = [_pack([col[r] % p for col in cols], B) for r in range(n)]
    for y in ys:
        top = [sum(map(mul, row, packed)) for row in y]
        rows = top + [sum(map(mul, row, top)) for row in x.entries]
        entries = iter(_residues([rows[k] for k in order], B, 2 * n, p))
        chased.append(ExactMatrix(field, tuple(zip(*[entries] * (2 * n)))))  # rows of 2n
    return chased


def _suite_diagram_chase(config: SuiteConfig) -> Iterator[Case]:
    field = _field(config)
    for w, data, case in _covexillary_cases(partial_images, config.n_max):
        rng = _rng(config, case)
        conditions = data.grass_conditions
        failures = 0
        samples = 0
        for _ in range(config.trials):
            x = sample_cell_point(w, field, rng)
            V = embed_point(x, data)
            ys = _fiber_elements(conormal_fiber_matrix(x, w), rng, extra=5)
            samples += len(ys)
            points = [SpringerGrassPoint(V, chased) for chased in _chase_to_grass(data, V, x, ys)]
            failures += sum(map(bool, conormal_grass_violations(V, conditions, points)))
        yield case, failures == 0, {"failures": failures, "samples": samples}


def _suite_kl_covex(config: SuiteConfig) -> Iterator[Case]:
    smoke = kl_polynomial(
        PartialPermutation.identity(4), PartialPermutation.from_one_line("3412")
    )
    yield "smoke/P(1234,3412)", smoke == PolynomialQ((1, 1)), {"value": str(smoke)}
    one = PolynomialQ.one()
    # the report has no n = 1 case
    for w, _, case in _covexillary_cases(permutation_images, config.n_max, start=2):
        try:
            rows = covexillary_kl_check(w)
        except InvariantError as exc:  # a KL polynomial past its degree bound
            yield case, False, {"error": str(exc)}
            continue
        bad = [r for r in rows if not r.matched]
        nontrivial = sum(1 for r in rows if r.flag_poly != one)
        yield case, not bad, {
            "pairs": len(rows),
            "nontrivial": nontrivial,
            "mismatches": [
                {
                    "u": PartialPermutation(w.n, r.u).one_line(),
                    "flag": str(r.flag_poly),
                    "grass": str(r.grass_poly),
                }
                for r in bad[:3]
            ],
        }


def _suite_multidegree(config: SuiteConfig) -> Iterator[Case]:
    for w, _, case in _covexillary_cases(permutation_images, config.n_max):
        report = verify_multidegree(w)
        schubert, localization = report.texts()
        yield case, report.matched, {"schubert": schubert, "localization": localization}


class _Suite(NamedTuple):
    runner: Callable[[SuiteConfig], Iterator[Case]]
    n_max: int  # acceptance default
    trials: int  # acceptance default
    limit: int  # the largest n_max accepted


# A suite that draws runs in time linear in --trials; el-roundtrip's
# default is this cap.
MAX_TRIALS = 1000

# The limits keep every run bounded in time and memory.  The suites that
# walk every partial permutation of each size stop at n = 7 or before:
# there are sum_k C(n, k)^2 k! of them, 130,922 at n = 7, 1.44 M at n = 8
# and 17.6 M at n = 9.  covex-equiv keeps a verdict for each of the n!
# permutations (38 s and 178 MB at n = 9 on a 2-core Xeon); conormal-flag
# walks S_n as kl-covex does, and S_8 holds 15,767 covexillary w;
# el-roundtrip takes 35-40 s at its limit and rank-lemma about 50 s.
# embed-thm compares every orbit with every covexillary w of a size: 97 M
# pairs at n = 6 take 1.1-1.3 s and 31 MB, and n = 7 (6.5 G pairs, 49,626 w)
# about 8-12 s and 152 MB in all.  conormal-grass makes one members call per
# w: --nmax 5 takes about 2 s and --nmax 6 about 25 s and 23 MB; n = 7, at
# about 4 ms for each of its 49,626 w, would take 3-4 min.
_SUITES: dict[str, _Suite] = {
    "covex-equiv": _Suite(_suite_covex_equiv, 7, 1, 9),
    "el-roundtrip": _Suite(_suite_el_roundtrip, 6, 1000, 20),
    "embed-thm": _Suite(_suite_embed_thm, 4, 1, 7),
    "rank-lemma": _Suite(_suite_rank_lemma, 4, 1, 7),
    "conormal-matrix": _Suite(_suite_conormal_matrix, 4, 20, 7),
    "conormal-flag": _Suite(_suite_conormal_flag, 4, 20, 7),
    "conormal-grass": _Suite(_suite_conormal_grass, 3, 1, 6),
    "diagram-chase": _Suite(_suite_diagram_chase, 4, 5, 7),
    "kl-covex": _Suite(_suite_kl_covex, 4, 1, KL_COVEX_MAX_N),
    "multidegree": _Suite(_suite_multidegree, 3, 1, MULTIDEGREE_MAX_N),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(config: SuiteConfig) -> list[Verdict]:
    """Run one verification suite; verdicts come back sorted by case id."""
    config = config.resolved()
    verdicts = [
        Verdict(config.suite, case, passed, details)
        for case, passed, details in _SUITES[config.suite].runner(config)
    ]
    return sorted(verdicts, key=lambda v: v.case)
