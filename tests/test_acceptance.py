"""Acceptance gate: one test per criterion, at the stated scale and tolerance.

Every criterion prints one PASS line (visible under ``pytest -s``); a
failing assertion is the FAIL signal and carries the offending cases.
"""

import json
import time

from covex.kl import PolynomialQ, kl_polynomial
from covex.permcore import PartialPermutation, rank_matrix
from covex.suites import SuiteConfig, Verdict, run_suite

SEED = 20240801


def _run(suite: str, **kwargs) -> list[Verdict]:
    return run_suite(SuiteConfig(suite, seed=SEED, **kwargs))


def _assert_all_passed(verdicts: list[Verdict]) -> None:
    failures = [v for v in verdicts if not v.passed]
    assert not failures, f"{len(failures)} failing cases, first: {failures[:3]}"


def _report(number: int, name: str, summary: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS - {summary}")


def test_criterion_01_covexillary_equivalence():
    start = time.time()
    verdicts = _run("covex-equiv", n_max=7)
    elapsed = time.time() - start
    _assert_all_passed(verdicts)
    assert len(verdicts) == 5913  # sum of n! for n = 1..7
    assert elapsed < 30, f"runtime target exceeded: {elapsed:.1f}s"
    _report(1, "covex-equiv", f"{len(verdicts)} permutations in {elapsed:.1f}s")


def test_criterion_02_rank_matrix_fixture():
    expected = (
        (1, 2, 3, 4, 5, 6),
        (1, 2, 2, 3, 4, 5),
        (1, 2, 2, 3, 4, 4),
        (0, 1, 1, 2, 3, 3),
        (0, 1, 1, 2, 2, 2),
        (0, 0, 0, 1, 1, 1),
    )
    got = rank_matrix(PartialPermutation.from_one_line("351642"))
    assert got == expected
    _report(2, "rank-matrix fixture", "[351642] reproduces the 6x6 matrix exactly")


def test_criterion_03_reconstruction_roundtrip():
    verdicts = _run("el-roundtrip", n_max=6, trials=1000)
    _assert_all_passed(verdicts)
    exhaustive = sum(1 for v in verdicts if v.case.startswith("exhaustive"))
    _report(3, "el-roundtrip", f"{exhaustive} exhaustive cases + 1000 random per n in 4..6")


def test_criterion_04_embedding_theorem():
    start = time.time()
    verdicts = _run("embed-thm", n_max=4)
    elapsed = time.time() - start
    _assert_all_passed(verdicts)
    assert len(verdicts) == 225
    pairs = sum(v.details["positives"] + v.details["negatives"] for v in verdicts)
    assert elapsed < 120, f"runtime target exceeded: {elapsed:.1f}s"
    _report(
        4,
        "embed-thm",
        f"{len(verdicts)} covexillary partial w against every orbit representative "
        f"({pairs} pairs) in {elapsed:.1f}s",
    )


def test_criterion_05_rank_lemma():
    verdicts = _run("rank-lemma", n_max=4)
    _assert_all_passed(verdicts)
    assert len(verdicts) == 4 + 9 + 16 + 25
    _report(5, "rank-lemma", f"{len(verdicts)} pairs (p, q), each at every partial u with n <= 4")


def test_criterion_06_conormal_matrix_calibration():
    verdicts = _run("conormal-matrix", n_max=4, trials=20)
    _assert_all_passed(verdicts)
    assert all(v.details["accepted_off"] == 0 for v in verdicts)
    _report(
        6,
        "conormal-matrix",
        f"{len(verdicts)} w; fiber oracle accepted everywhere, "
        "no direction off the fiber accepted at w's 0/1 matrix",
    )


def test_criterion_07_conormal_flag_calibration():
    verdicts = _run("conormal-flag", n_max=4, trials=20)
    _assert_all_passed(verdicts)
    _report(
        7,
        "conormal-flag",
        f"{len(verdicts)} permutations; fiber dims equal n(n-1)/2 - l(w)",
    )


def test_criterion_08_diagram_chase_and_grass_form():
    verdicts = _run("diagram-chase", n_max=4)
    _assert_all_passed(verdicts)
    chased = sum(v.details["samples"] for v in verdicts)
    grass = _run("conormal-grass", n_max=3)
    _assert_all_passed(grass)
    _report(
        8,
        "diagram-chase + conormal-grass",
        f"{chased} chased matrix-fiber samples satisfy the Springer form",
    )


def test_criterion_09_kl_equality():
    smoke = kl_polynomial(
        PartialPermutation.identity(4), PartialPermutation.from_one_line("3412")
    )
    assert smoke == PolynomialQ((1, 1))
    start = time.time()
    verdicts = _run("kl-covex", n_max=4)
    elapsed = time.time() - start
    _assert_all_passed(verdicts)
    nontrivial = sum(v.details.get("nontrivial", 0) for v in verdicts)
    assert nontrivial > 0  # the singular S_4 cases genuinely exercise 1 + q
    assert elapsed < 600, f"runtime target exceeded: {elapsed:.1f}s"
    _report(9, "kl-covex", f"S_2..S_4 sweep in {elapsed:.1f}s, {nontrivial} nontrivial pairs")


def test_criterion_10_multidegree_identity():
    verdicts = _run("multidegree", n_max=3)
    _assert_all_passed(verdicts)
    _report(10, "multidegree", f"{len(verdicts)} covexillary w up to S_3 match exactly")


def _render(verdicts: list[Verdict]) -> bytes:
    lines = [
        json.dumps(
            {"suite": v.suite, "case": v.case, "passed": v.passed, "details": v.details},
            sort_keys=True,
        )
        for v in verdicts
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


DETERMINISM_CONFIGS = {
    "covex-equiv": {"n_max": 3},
    "el-roundtrip": {"n_max": 4, "trials": 25},
    "embed-thm": {"n_max": 2},
    "rank-lemma": {"n_max": 2},
    "conormal-matrix": {"n_max": 2, "trials": 3},
    "conormal-flag": {"n_max": 2, "trials": 3},
    "conormal-grass": {"n_max": 2, "trials": 10},
    "diagram-chase": {"n_max": 2, "trials": 2},
    "kl-covex": {"n_max": 3},
    "multidegree": {"n_max": 2},
}


def test_criterion_11_determinism():
    for suite, kwargs in DETERMINISM_CONFIGS.items():
        first = _render(run_suite(SuiteConfig(suite, seed=SEED, **kwargs)))
        second = _render(run_suite(SuiteConfig(suite, seed=SEED, **kwargs)))
        assert first == second, f"suite {suite} is not deterministic"
    _report(11, "determinism", "all 10 suites byte-identical on rerun at a fixed seed")
