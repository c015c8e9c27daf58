"""Seeded verification suites: every theorem gets a runnable, deterministic check.

Each suite maps to one acceptance criterion.  A suite produces one verdict
per case, sorted by case identifier; verdicts are plain data so reports
serialize to stable JSON lines.  All randomness is drawn from per-case
generators seeded by (seed, suite, case), so reports are byte-identical
across reruns and independent of execution order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field

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
from .errors import InputError
from .exactla import (
    DEFAULT_PRIME,
    ExactMatrix,
    FieldSpec,
    Subspace,
    _draws,
    random_matrix,
)
from .kl import (
    PolynomialQ,
    check_kl_covex_size,
    covexillary_kl_check,
    kl_polynomial,
)
from .permcore import (
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
from .equivariant import check_multidegree_size, verify_multidegree

SUITE_NAMES = (
    "covex-equiv",
    "el-roundtrip",
    "embed-thm",
    "rank-lemma",
    "conormal-matrix",
    "conormal-flag",
    "conormal-grass",
    "diagram-chase",
    "kl-covex",
    "multidegree",
)

# Acceptance-pinned defaults: (n_max, trials)
_DEFAULTS = {
    "covex-equiv": (7, 1),
    "el-roundtrip": (6, 1000),
    "embed-thm": (4, 200),
    "rank-lemma": (4, 50),
    "conormal-matrix": (4, 20),
    "conormal-flag": (4, 20),
    "conormal-grass": (3, 30),
    "diagram-chase": (4, 5),
    "kl-covex": (4, 1),
    "multidegree": (3, 1),
}

REJECTION_TRIALS = 200
REJECTION_THRESHOLD = 0.95

@dataclass(frozen=True)
class SuiteConfig:
    """Knobs of a verification run; None picks the acceptance default."""

    suite: str
    n_max: int | None = None
    trials: int | None = None
    prime: int = DEFAULT_PRIME
    seed: int = 0

    def resolved(self) -> "SuiteConfig":
        if self.suite not in _DEFAULTS:
            raise InputError(
                f"unknown suite {self.suite!r}; choose from {', '.join(SUITE_NAMES)}"
            )
        n_default, t_default = _DEFAULTS[self.suite]
        n_max = self.n_max if self.n_max is not None else n_default
        trials = self.trials if self.trials is not None else t_default
        if n_max < 1:
            raise InputError("n_max must be at least 1")
        if trials < 1:
            raise InputError("trials must be at least 1")
        if self.suite == "kl-covex":
            check_kl_covex_size(n_max)
        if self.suite == "multidegree":
            check_multidegree_size(n_max)
        FieldSpec.prime(self.prime)  # validates primality
        return SuiteConfig(self.suite, n_max, trials, self.prime, self.seed)


@dataclass(frozen=True)
class Verdict:
    suite: str
    case: str
    passed: bool
    details: dict = dataclass_field(default_factory=dict)


def _rng(config: SuiteConfig, case: str) -> random.Random:
    return random.Random(f"{config.seed}|{config.suite}|{case}")


def _field(config: SuiteConfig) -> FieldSpec:
    return FieldSpec.prime(config.prime)


def _covexillary_partials(n: int):
    return [w for w in all_partial_permutations(n) if is_covexillary(w)]


def _fiber_elements(
    fiber: Subspace, n: int, field: FieldSpec, rng: random.Random, extra: int
) -> list[ExactMatrix]:
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


def _suite_covex_equiv(config: SuiteConfig) -> list[Verdict]:
    verdicts = []
    for n in range(1, config.n_max + 1):
        for w in all_permutations(n):
            chain = is_covexillary(w)
            avoid = avoids_3412(w)
            verdicts.append(
                Verdict(
                    config.suite,
                    f"n={n}/w={w.one_line()}",
                    chain == avoid,
                    {"chain": chain, "avoids_3412": avoid},
                )
            )
    return verdicts


def _suite_el_roundtrip(config: SuiteConfig) -> list[Verdict]:
    verdicts = []
    for n in range(1, min(3, config.n_max) + 1):
        for w in all_partial_permutations(n):
            ok = reconstruct_from_essential(n, essential_set(w)) == w
            verdicts.append(Verdict(config.suite, f"exhaustive/n={n}/w={w.one_line()}", ok))
    for n in range(4, config.n_max + 1):
        case = f"random/n={n}"
        rng = _rng(config, case)
        failures = []
        for trial in range(config.trials):
            w = random_partial_permutation(n, rng)
            if reconstruct_from_essential(n, essential_set(w)) != w:
                failures.append(w.one_line())
        verdicts.append(
            Verdict(
                config.suite,
                case,
                not failures,
                {"trials": config.trials, "failures": failures[:5]},
            )
        )
    return verdicts


def _suite_embed_thm(config: SuiteConfig) -> list[Verdict]:
    field = _field(config)
    verdicts = []
    for n in range(1, config.n_max + 1):
        below = list(all_partial_permutations(n))
        for w in _covexillary_partials(n):
            case = f"n={n}/w={w.one_line()}"
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
            for u in below:
                if not bruhat_leq(u, w):
                    continue
                x = sample_cell_point(u, field, rng)
                if not (
                    in_matrix_schubert(x, w)
                    and target_holds(embed_point(x, data), data)
                ):
                    mismatches += 1
                positives += 1
            verdicts.append(
                Verdict(
                    config.suite,
                    case,
                    mismatches == 0,
                    {"mismatches": mismatches, "positives": positives},
                )
            )
    return verdicts


def _suite_rank_lemma(config: SuiteConfig) -> list[Verdict]:
    from .embedding import check_rank_lemma

    field = _field(config)
    verdicts = []
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
                    verdicts.append(
                        Verdict(config.suite, case, bad == 0, {"disagreements": bad})
                    )
    return verdicts


def _suite_conormal_matrix(config: SuiteConfig) -> list[Verdict]:
    field = _field(config)
    verdicts = []
    for n in range(1, config.n_max + 1):
        for w in _covexillary_partials(n):
            case = f"n={n}/w={w.one_line()}"
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
                    violations = conormal_matrix_violations(
                        CotangentMatrixPoint(x, y), w, first_only=True
                    )
                    if violations:
                        rejected_valid += 1
                        if first_failure is None:
                            first_failure = violations[0]
            x = sample_cell_point(w, field, rng)
            fiber = conormal_fiber_matrix(x, w)
            reject_rate = None
            rejection_ok = True
            if fiber.dim < n * n:
                rejections = 0
                for _ in range(REJECTION_TRIALS):
                    y = random_matrix(field, n, n, rng)
                    if not in_conormal_matrix(CotangentMatrixPoint(x, y), w):
                        rejections += 1
                reject_rate = rejections / REJECTION_TRIALS
                rejection_ok = reject_rate >= REJECTION_THRESHOLD
            verdicts.append(
                Verdict(
                    config.suite,
                    case,
                    rejected_valid == 0 and dim_mismatches == 0 and rejection_ok,
                    {
                        "rejected_valid": rejected_valid,
                        "dim_mismatches": dim_mismatches,
                        "fiber_dim": fiber_dim,
                        "reject_rate": reject_rate,
                        "first_failure": first_failure,
                    },
                )
            )
    return verdicts


def _suite_conormal_flag(config: SuiteConfig) -> list[Verdict]:
    field = _field(config)
    verdicts = []
    for n in range(1, config.n_max + 1):
        for w in all_permutations(n):
            if not is_covexillary(w):
                continue
            case = f"n={n}/w={w.one_line()}"
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
            reject_rate = None
            rejection_ok = True
            if fiber.dim < n * (n - 1) // 2:
                ginv = flag.inverse
                rejections = 0
                for _ in range(REJECTION_TRIALS):
                    draws = iter(_draws(rng, field.p, n * (n - 1) // 2))
                    upper = ExactMatrix(
                        field,
                        tuple(
                            tuple(next(draws) if j > i else 0 for j in range(n))
                            for i in range(n)
                        ),
                    )
                    z = g @ upper @ ginv
                    if not in_conormal_flag(SpringerFlagPoint(flag, z), w):
                        rejections += 1
                reject_rate = rejections / REJECTION_TRIALS
                rejection_ok = reject_rate >= REJECTION_THRESHOLD
            verdicts.append(
                Verdict(
                    config.suite,
                    case,
                    rejected_valid == 0 and dim_mismatches == 0 and rejection_ok,
                    {
                        "rejected_valid": rejected_valid,
                        "dim_mismatches": dim_mismatches,
                        "expected_dim": expected_dim,
                        "reject_rate": reject_rate,
                    },
                )
            )
    return verdicts


def _springer_fiber_sample(
    V: Subspace, field: FieldSpec, rng: random.Random
) -> ExactMatrix:
    """Uniform x with Im(x) in V and V in ker(x): x = B A P for random A."""
    N, d = V.ambient, V.dim
    basis = V.basis_matrix
    pivot_set = set(V.pivots)
    complement_cols = [
        tuple(int(k == c) for k in range(N))
        for c in range(N)
        if c not in pivot_set
    ]
    full = basis.hstack(ExactMatrix(field, tuple(zip(*complement_cols)))) if complement_cols else basis
    inv = full.inverse()
    projector = ExactMatrix(field, inv.entries[d:])  # rows extracting W-coordinates
    coeffs = random_matrix(field, d, N - d, rng) if N > d else ExactMatrix.zeros(field, d, 0)
    return basis @ coeffs @ projector


def _suite_conormal_grass(config: SuiteConfig) -> list[Verdict]:
    field = _field(config)
    verdicts = []
    for n in range(1, config.n_max + 1):
        for w in _covexillary_partials(n):
            case = f"n={n}/w={w.one_line()}"
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
            reject_rate = None
            rejection_ok = True
            if fiber.dim < n * n:
                rejections = 0
                for _ in range(config.trials):
                    xi = _springer_fiber_sample(V, field, rng)
                    if not in_conormal_grass(SpringerGrassPoint(V, xi), conditions):
                        rejections += 1
                reject_rate = rejections / config.trials
                rejection_ok = reject_rate >= REJECTION_THRESHOLD
            verdicts.append(
                Verdict(
                    config.suite,
                    case,
                    failures == 0 and rejection_ok,
                    {"zero_section_failures": failures, "reject_rate": reject_rate},
                )
            )
    return verdicts


def _chase_to_grass(
    w: PartialPermutation, x: ExactMatrix, y: ExactMatrix
) -> SpringerGrassPoint:
    """The cotangent point (x, y) pushed along the embedding into T*Gr(n, 2n).

    With h1 = ((I, 0), (x, I)) and theta = ((0, y), (0, 0)), the point is
    (tau h1 E_n, tau M' tau^-1) for M' = h1 theta h1^-1, which is
    ((-yx, y), (-xyx, xy)).  tau h1 E_n is embed_point(x), and conjugating
    by the permutation tau moves entry (a, b) of M' to (tau(a), tau(b)).
    """
    data = covexillary_data(w)
    yx, xy = y @ x, x @ y
    m = (-yx).hstack(y).vstack((-(xy @ x)).hstack(xy)).entries
    back = [k - 1 for k in data.tau.inverse().image]
    moved = ExactMatrix(x.field, tuple(tuple(m[a][b] for b in back) for a in back))
    return SpringerGrassPoint(embed_point(x, data), moved)


def _suite_diagram_chase(config: SuiteConfig) -> list[Verdict]:
    field = _field(config)
    verdicts = []
    for n in range(1, config.n_max + 1):
        for w in _covexillary_partials(n):
            case = f"n={n}/w={w.one_line()}"
            rng = _rng(config, case)
            conditions = covexillary_data(w).grass_conditions
            failures = 0
            samples = 0
            for _ in range(config.trials):
                x = sample_cell_point(w, field, rng)
                fiber = conormal_fiber_matrix(x, w)
                for y in _fiber_elements(fiber, n, field, rng, extra=5):
                    samples += 1
                    point = _chase_to_grass(w, x, y)
                    square = point.x @ point.x
                    if not square.is_zero():
                        failures += 1
                    elif not in_conormal_grass(point, conditions):
                        failures += 1
            if w.is_full_rank:
                for _ in range(config.trials):
                    g = sample_cell_point(w, field, rng)
                    ginv = g.inverse()
                    _, zfiber = conormal_fiber_flag(g, w)
                    for zvec in zfiber.vectors:
                        samples += 1
                        z = vector_to_matrix(field, zvec, n)
                        matrix_point = push_iota(g, ginv @ z @ g)
                        if not in_conormal_matrix(matrix_point, w):
                            failures += 1
                            continue
                        point = _chase_to_grass(w, matrix_point.x, matrix_point.y)
                        if not in_conormal_grass(point, conditions):
                            failures += 1
            verdicts.append(
                Verdict(
                    config.suite,
                    case,
                    failures == 0,
                    {"failures": failures, "samples": samples},
                )
            )
    return verdicts


def _suite_kl_covex(config: SuiteConfig) -> list[Verdict]:
    smoke = kl_polynomial(
        PartialPermutation.identity(4), PartialPermutation.from_one_line("3412")
    )
    verdicts = [
        Verdict(
            config.suite,
            "smoke/P(1234,3412)",
            smoke == PolynomialQ((1, 1)),
            {"value": str(smoke)},
        )
    ]
    for n in range(2, config.n_max + 1):
        for w in all_permutations(n):
            if not is_covexillary(w):
                continue
            rows = covexillary_kl_check(w)
            bad = [r for r in rows if not r.matched]
            nontrivial = sum(1 for r in rows if r.flag_poly != PolynomialQ.one())
            verdicts.append(
                Verdict(
                    config.suite,
                    f"n={n}/w={w.one_line()}",
                    not bad,
                    {
                        "pairs": len(rows),
                        "nontrivial": nontrivial,
                        "mismatches": [
                            {
                                "u": r.u.one_line(),
                                "flag": str(r.flag_poly),
                                "grass": str(r.grass_poly),
                            }
                            for r in bad[:3]
                        ],
                    },
                )
            )
    return verdicts


def _suite_multidegree(config: SuiteConfig) -> list[Verdict]:
    verdicts = []
    for n in range(1, config.n_max + 1):
        for w in all_permutations(n):
            if not is_covexillary(w):
                continue
            report = verify_multidegree(w)
            verdicts.append(
                Verdict(
                    config.suite,
                    f"n={n}/w={w.one_line()}",
                    report.matched,
                    {
                        "schubert": str(report.schubert_side),
                        "localization": str(report.localization_side),
                    },
                )
            )
    return verdicts


_RUNNERS = {
    "covex-equiv": _suite_covex_equiv,
    "el-roundtrip": _suite_el_roundtrip,
    "embed-thm": _suite_embed_thm,
    "rank-lemma": _suite_rank_lemma,
    "conormal-matrix": _suite_conormal_matrix,
    "conormal-flag": _suite_conormal_flag,
    "conormal-grass": _suite_conormal_grass,
    "diagram-chase": _suite_diagram_chase,
    "kl-covex": _suite_kl_covex,
    "multidegree": _suite_multidegree,
}


def run_suite(config: SuiteConfig) -> list[Verdict]:
    """Run one verification suite; verdicts come back sorted by case id."""
    config = config.resolved()
    verdicts = _RUNNERS[config.suite](config)
    return sorted(verdicts, key=lambda v: v.case)
