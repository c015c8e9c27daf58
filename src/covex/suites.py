"""Seeded verification suites: every theorem gets a runnable, deterministic check.

Each suite maps to one acceptance criterion.  ``_SUITES``, the one table at
the end of the module, gives each suite its runner, its acceptance
``(n_max, trials)`` and the largest ``n_max`` it accepts; ``resolved()``
refuses anything larger before a case runs.  A runner yields
``(case, passed, details)`` per case and ``run_suite`` turns them into
verdicts sorted by case identifier; verdicts are plain data so reports
serialize to stable JSON lines.  The suites that sweep covexillary ``w``
share one case loop, ``_covexillary_cases``, and the three conormal
calibrations one rejection estimate, ``_rejection``.  All randomness is
drawn from per-case generators seeded by (seed, suite, case), so reports
are byte-identical across reruns and independent of execution order.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .conormal import (
    CotangentMatrixPoint,
    SpringerFlagPoint,
    SpringerGrassPoint,
    conormal_fiber_flag,
    conormal_fiber_matrix,
    conormal_matrix_violations,
    in_conormal_flag,
    in_conormal_grass,
    in_conormal_matrix,
    push_iota,
    tangent_orbit_rank,
    vector_to_matrix,
)
from .embedding import embed_point, target_holds
from .errors import DimensionMismatchError, InputError
from .exactla import (
    DEFAULT_PRIME,
    ExactMatrix,
    FieldSpec,
    Subspace,
    _draws,
    random_matrix,
)
from .kl import (
    KL_COVEX_MAX_N,
    PolynomialQ,
    covexillary_kl_check,
    kl_polynomial,
)
from .permcore import (
    CovexillaryData,
    PartialPermutation,
    all_partial_permutations,
    all_permutations,
    avoids_3412,
    bruhat_leq,
    covexillary_data,
    essential_set,
    is_covexillary,
    random_partial_permutation,
    reconstruct_from_essential,
)
from .varieties import in_matrix_schubert, sample_cell_point
from .equivariant import MULTIDEGREE_MAX_N, verify_multidegree

REJECTION_TRIALS = 200
REJECTION_THRESHOLD = 0.95

Case = tuple[str, bool, dict]


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs of a verification run; None picks the acceptance default."""

    suite: str
    n_max: int | None = None
    trials: int | None = None
    prime: int = DEFAULT_PRIME
    seed: int = 0

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
        if n_max > suite.limit:
            raise InputError(f"{self.suite} is limited to n <= {suite.limit}; got n = {n_max}")
        FieldSpec.prime(self.prime)  # validates primality
        return SuiteConfig(self.suite, n_max, trials, self.prime, self.seed)


@dataclass(frozen=True)
class Verdict:
    suite: str
    case: str
    passed: bool
    details: dict


def _rng(config: SuiteConfig, case: str) -> random.Random:
    return random.Random(f"{config.seed}|{config.suite}|{case}")


def _field(config: SuiteConfig) -> FieldSpec:
    return FieldSpec.prime(config.prime)


def _covexillary_cases(
    enumerate_: Callable[[int], Iterator[PartialPermutation]], n_max: int, start: int = 1
) -> Iterator[tuple[int, PartialPermutation, str]]:
    """(n, w, case id) for every covexillary w that enumerate_(n) yields, n = start..n_max."""
    for n in range(start, n_max + 1):
        for w in enumerate_(n):
            if is_covexillary(w):
                yield n, w, f"n={n}/w={w.one_line()}"


def _rejection(
    applies: bool, trials: int, rejects: Callable[[], bool]
) -> tuple[float | None, bool]:
    """(rate, rate >= REJECTION_THRESHOLD) over trials calls of rejects.

    Where the fiber is the whole space every covector is valid and there is
    nothing to reject: then applies is False and the estimate is (None, True).
    """
    if not applies:
        return None, True
    rate = sum(1 for _ in range(trials) if rejects()) / trials
    return rate, rate >= REJECTION_THRESHOLD


def _fiber_elements(
    fiber: Subspace, n: int, field: FieldSpec, rng: random.Random, extra: int
) -> list[ExactMatrix]:
    """The zero covector, the fiber's basis and extra random combinations of it."""
    # the zero covector (zero section) is always a valid member
    points = [ExactMatrix.zeros(field, n, n)]
    points += [vector_to_matrix(field, v, n) for v in fiber.vectors]
    p = field.p
    for _ in range(extra if fiber.dim else 0):
        coeffs = _draws(rng, p, fiber.dim)
        vec = [0] * (n * n)
        for c, basis_vec in zip(coeffs, fiber.vectors):
            if c:
                vec = [(a + c * b) % p for a, b in zip(vec, basis_vec)]
        points.append(vector_to_matrix(field, vec, n))
    return points


def _suite_covex_equiv(config: SuiteConfig) -> Iterator[Case]:
    for n in range(1, config.n_max + 1):
        for w in all_permutations(n):
            chain = is_covexillary(w)
            avoid = avoids_3412(w)
            yield f"n={n}/w={w.one_line()}", chain == avoid, {"chain": chain, "avoids_3412": avoid}


def _suite_el_roundtrip(config: SuiteConfig) -> Iterator[Case]:
    for n in range(1, min(3, config.n_max) + 1):
        for w in all_partial_permutations(n):
            ok = reconstruct_from_essential(n, essential_set(w)) == w
            yield f"exhaustive/n={n}/w={w.one_line()}", ok, {}
    for n in range(4, config.n_max + 1):
        case = f"random/n={n}"
        rng = _rng(config, case)
        failures = []
        for trial in range(config.trials):
            w = random_partial_permutation(n, rng)
            if reconstruct_from_essential(n, essential_set(w)) != w:
                failures.append(w.one_line())
        yield case, not failures, {"trials": config.trials, "failures": failures[:5]}


def _suite_embed_thm(config: SuiteConfig) -> Iterator[Case]:
    field = _field(config)
    below: dict[int, list[PartialPermutation]] = {}
    for n, w, case in _covexillary_cases(all_partial_permutations, config.n_max):
        if n not in below:
            below = {n: list(all_partial_permutations(n))}
        rng = _rng(config, case)
        data = covexillary_data(w)
        mismatches = 0
        positives = 0
        for _ in range(config.trials):
            x = random_matrix(field, n, n, rng)
            inside = in_matrix_schubert(x, w)
            on_target = target_holds(embed_point(x, data), data)
            if inside != on_target:
                mismatches += 1
            positives += inside
        for u in below[n]:
            if not bruhat_leq(u, w):
                continue
            x = sample_cell_point(u, field, rng)
            if not (
                in_matrix_schubert(x, w)
                and target_holds(embed_point(x, data), data)
            ):
                mismatches += 1
            positives += 1
        yield case, mismatches == 0, {"mismatches": mismatches, "positives": positives}


def _suite_rank_lemma(config: SuiteConfig) -> Iterator[Case]:
    from .embedding import check_rank_lemma

    field = _field(config)
    for n in range(1, config.n_max + 1):
        for p in range(n + 1):
            for q in range(n + 1):
                for r in range(n + 1):
                    case = f"n={n}/p={p}/q={q}/r={r}"
                    rng = _rng(config, case)
                    bad = 0
                    for _ in range(config.trials):
                        x = random_matrix(field, n, n, rng)
                        left, right = check_rank_lemma(x, p, q, r)
                        bad += left != right
                    yield case, bad == 0, {"disagreements": bad}


def _suite_conormal_matrix(config: SuiteConfig) -> Iterator[Case]:
    field = _field(config)
    for n, w, case in _covexillary_cases(all_partial_permutations, config.n_max):
        rng = _rng(config, case)
        rejected_valid = 0
        dim_mismatches = 0
        fiber_dim = None
        first_failure = None
        for _ in range(config.trials):
            x = sample_cell_point(w, field, rng)
            fiber = conormal_fiber_matrix(x, w)
            fiber_dim = fiber.dim
            if fiber.dim != n * n - tangent_orbit_rank(x):
                dim_mismatches += 1
            for y in _fiber_elements(fiber, n, field, rng, extra=20):
                violations = conormal_matrix_violations(CotangentMatrixPoint(x, y), w)
                if violations:
                    rejected_valid += 1
                    if first_failure is None:
                        first_failure = violations[0]
        x = sample_cell_point(w, field, rng)
        fiber = conormal_fiber_matrix(x, w)
        reject_rate, rejection_ok = _rejection(
            fiber.dim < n * n,
            REJECTION_TRIALS,
            lambda: not in_conormal_matrix(
                CotangentMatrixPoint(x, random_matrix(field, n, n, rng)), w
            ),
        )
        yield case, rejected_valid == 0 and dim_mismatches == 0 and rejection_ok, {
            "rejected_valid": rejected_valid,
            "dim_mismatches": dim_mismatches,
            "fiber_dim": fiber_dim,
            "reject_rate": reject_rate,
            "first_failure": first_failure,
        }


def _suite_conormal_flag(config: SuiteConfig) -> Iterator[Case]:
    field = _field(config)
    for n, w, case in _covexillary_cases(all_permutations, config.n_max):
        rng = _rng(config, case)
        expected_dim = n * (n - 1) // 2 - w.length()
        rejected_valid = 0
        dim_mismatches = 0
        for _ in range(config.trials):
            g = sample_cell_point(w, field, rng)
            flag, fiber = conormal_fiber_flag(g, w)
            if fiber.dim != expected_dim:
                dim_mismatches += 1
            for z in _fiber_elements(fiber, n, field, rng, extra=20):
                if not in_conormal_flag(SpringerFlagPoint(flag, z), w):
                    rejected_valid += 1
        g = sample_cell_point(w, field, rng)
        flag, fiber = conormal_fiber_flag(g, w)

        def rejects() -> bool:
            draws = iter(_draws(rng, field.p, n * (n - 1) // 2))
            upper = ExactMatrix(
                field,
                tuple(tuple(next(draws) if j > i else 0 for j in range(n)) for i in range(n)),
            )
            return not in_conormal_flag(SpringerFlagPoint(flag, g @ upper @ flag.inverse), w)

        reject_rate, rejection_ok = _rejection(
            fiber.dim < n * (n - 1) // 2, REJECTION_TRIALS, rejects
        )
        yield case, rejected_valid == 0 and dim_mismatches == 0 and rejection_ok, {
            "rejected_valid": rejected_valid,
            "dim_mismatches": dim_mismatches,
            "expected_dim": expected_dim,
            "reject_rate": reject_rate,
        }


def _springer_fiber_sample(
    V: Subspace, field: FieldSpec, rng: random.Random
) -> ExactMatrix:
    """Uniform x with Im(x) in V and V in ker(x): x = B A P for random A.

    B holds V's reduced echelon basis b_k as columns and P maps F^N onto the
    coordinates along the non-pivot unit vectors e_c, modulo V.  Each b_k
    is 1 at its own pivot and 0 at the others, so row c of P is e_c minus
    b_k[c] at the pivot of each b_k.  When V is 0 or F^N the only such x is 0.
    """
    N, d = V.ambient, V.dim
    if d in (0, N):
        return ExactMatrix.zeros(field, N, N)
    p = field.p
    projector = []
    for c in range(N):
        if c not in V.pivots:
            row = [0] * N
            row[c] = 1
            for k, b in zip(V.pivots, V.vectors):
                row[k] = -b[c] % p
            projector.append(tuple(row))
    coeffs = random_matrix(field, d, N - d, rng)
    return V.basis_matrix @ coeffs @ ExactMatrix(field, tuple(projector))


def _suite_conormal_grass(config: SuiteConfig) -> Iterator[Case]:
    field = _field(config)
    for n, w, case in _covexillary_cases(all_partial_permutations, config.n_max):
        rng = _rng(config, case)
        data = covexillary_data(w)
        conditions = data.grass_conditions
        failures = 0
        # zero-section points over sampled cells of every u below w
        for u in all_partial_permutations(n):
            if not bruhat_leq(u, w):
                continue
            V = embed_point(sample_cell_point(u, field, rng), data)
            zero = ExactMatrix.zeros(field, 2 * n, 2 * n)
            if not in_conormal_grass(SpringerGrassPoint(V, zero), conditions):
                failures += 1
        # rejection power over the Springer fiber at a generic cell image
        x = sample_cell_point(w, field, rng)
        V = embed_point(x, data)
        fiber = conormal_fiber_matrix(x, w)
        reject_rate, rejection_ok = _rejection(
            fiber.dim < n * n,
            config.trials,
            lambda: not in_conormal_grass(
                SpringerGrassPoint(V, _springer_fiber_sample(V, field, rng)), conditions
            ),
        )
        yield case, failures == 0 and rejection_ok, {
            "zero_section_failures": failures,
            "reject_rate": reject_rate,
        }


def _chase_to_grass(
    data: CovexillaryData, V: Subspace, x: ExactMatrix, y: ExactMatrix
) -> SpringerGrassPoint:
    """The cotangent point (x, y) pushed along the embedding into T*Gr(n, 2n).

    With h1 = ((I, 0), (x, I)) and theta = ((0, y), (0, 0)), the point is
    (tau h1 E_n, tau M' tau^-1) for M' = h1 theta h1^-1, which is
    ((-yx, y), (-xyx, xy)).  tau h1 E_n is V = embed_point(x, data), which
    the caller computes once per x.  Conjugating by the permutation tau
    moves entry (a, b) of M' to (tau(a), tau(b)), so row a of the result is
    row tau^-1(a) of M' read in data.tau_order.

    V must be embed_point(x, data).  It is passed in, not recomputed, and
    SpringerGrassPoint checks only the two containments, so the V of another
    x could give a valid point with a wrong verdict.  Only its dimension n
    is checked here.
    """
    if V.dim != data.n:
        raise DimensionMismatchError("V is not an n-dimensional subspace of k^2n")
    p = x.field.p
    yx, xy = (y @ x).entries, x @ y
    xyx = (xy @ x).entries
    if p is None:
        negated = [[-v for v in row] for row in yx + xyx]
    else:
        negated = [[-v % p for v in row] for row in yx + xyx]
    right = y.entries + xy.entries
    in_tau_order = itemgetter(*data.tau_order)
    moved = tuple(in_tau_order(negated[k] + list(right[k])) for k in data.tau_order)
    return SpringerGrassPoint(V, ExactMatrix(x.field, moved))


def _suite_diagram_chase(config: SuiteConfig) -> Iterator[Case]:
    field = _field(config)
    for n, w, case in _covexillary_cases(all_partial_permutations, config.n_max):
        rng = _rng(config, case)
        data = covexillary_data(w)
        conditions = data.grass_conditions
        failures = 0
        samples = 0
        for _ in range(config.trials):
            x = sample_cell_point(w, field, rng)
            V = embed_point(x, data)
            fiber = conormal_fiber_matrix(x, w)
            for y in _fiber_elements(fiber, n, field, rng, extra=5):
                samples += 1
                point = _chase_to_grass(data, V, x, y)
                if not in_conormal_grass(point, conditions):
                    failures += 1
        if w.is_full_rank:
            for _ in range(config.trials):
                g = sample_cell_point(w, field, rng)
                ginv = g.inverse()
                V = embed_point(g, data)
                _, zfiber = conormal_fiber_flag(g, w)
                for zvec in zfiber.vectors:
                    samples += 1
                    z = vector_to_matrix(field, zvec, n)
                    matrix_point = push_iota(g, ginv @ z @ g)
                    if not in_conormal_matrix(matrix_point, w):
                        failures += 1
                        continue
                    point = _chase_to_grass(data, V, matrix_point.x, matrix_point.y)
                    if not in_conormal_grass(point, conditions):
                        failures += 1
        yield case, failures == 0, {"failures": failures, "samples": samples}


def _suite_kl_covex(config: SuiteConfig) -> Iterator[Case]:
    smoke = kl_polynomial(
        PartialPermutation.identity(4), PartialPermutation.from_one_line("3412")
    )
    yield "smoke/P(1234,3412)", smoke == PolynomialQ((1, 1)), {"value": str(smoke)}
    # the report has no n = 1 case
    for _, w, case in _covexillary_cases(all_permutations, config.n_max, start=2):
        rows = covexillary_kl_check(w)
        bad = [r for r in rows if not r.matched]
        nontrivial = sum(1 for r in rows if r.flag_poly != PolynomialQ.one())
        yield case, not bad, {
            "pairs": len(rows),
            "nontrivial": nontrivial,
            "mismatches": [
                {"u": r.u.one_line(), "flag": str(r.flag_poly), "grass": str(r.grass_poly)}
                for r in bad[:3]
            ],
        }


def _suite_multidegree(config: SuiteConfig) -> Iterator[Case]:
    for _, w, case in _covexillary_cases(all_permutations, config.n_max):
        report = verify_multidegree(w)
        yield case, report.matched, {
            "schubert": str(report.schubert_side),
            "localization": str(report.localization_side),
        }


class _Suite(NamedTuple):
    runner: Callable[[SuiteConfig], Iterator[Case]]
    n_max: int  # acceptance default
    trials: int  # acceptance default
    limit: int  # the largest n_max accepted


# The limits keep every run bounded in time and memory.  The four suites
# that walk every partial permutation of each size stop at n = 7: there are
# sum_k C(n, k)^2 k! of them, 130,922 at n = 7, 1.44 M at n = 8 and 17.6 M
# at n = 9.  covex-equiv keeps a verdict for each of the n! permutations
# (38 s and 178 MB at n = 9 on a 2-core Xeon); conormal-flag walks S_n as
# kl-covex does, and S_8 holds 15,767 covexillary w; el-roundtrip and
# rank-lemma take 35-40 s at their limits.
_SUITES: dict[str, _Suite] = {
    "covex-equiv": _Suite(_suite_covex_equiv, 7, 1, 9),
    "el-roundtrip": _Suite(_suite_el_roundtrip, 6, 1000, 20),
    "embed-thm": _Suite(_suite_embed_thm, 4, 200, 7),
    "rank-lemma": _Suite(_suite_rank_lemma, 4, 50, 8),
    "conormal-matrix": _Suite(_suite_conormal_matrix, 4, 20, 7),
    "conormal-flag": _Suite(_suite_conormal_flag, 4, 20, 7),
    "conormal-grass": _Suite(_suite_conormal_grass, 3, 30, 7),
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
