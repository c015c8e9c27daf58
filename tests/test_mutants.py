"""Named mutants that the verification suites must catch.

Each mutant is a deliberately broken function, swapped in with monkeypatch
(no file is edited), and names the suites or tests that must then report
failures, at the scale where they must.  A passing suite says something only
if a broken predicate makes it fail.
"""

import random

import pytest

from covex import conormal, embedding, permcore
from covex.exactla import DEFAULT_PRIME, FieldSpec
from covex.embedding import check_target_space
from covex.permcore import all_partial_permutations, covexillary_data, is_covexillary
from covex.suites import SuiteConfig, run_suite
from covex.varieties import grass_condition_checks
from test_conormal import check_members_agree_with_violations


def _target_violation_with(conditions_of):
    """target_violation reading conditions_of(data) in place of data.grass_conditions."""

    def mutant(subspace, data):
        check_target_space(subspace, data)
        for t, total, bound, ok in grass_condition_checks(subspace, conditions_of(data)):
            if not ok:
                return (t, total, bound)
        return None

    return mutant


# (a) the embedding target loosened at its last condition
TARGET_MUTANTS = {
    "drops-last-condition": lambda data: data.grass_conditions[:-1],
    "last-bound-plus-one": lambda data: data.grass_conditions[:-1]
    + tuple((t, c + 1) for t, c in data.grass_conditions[-1:]),
}


def _conditioned_cases(n_max):
    """The embed-thm case ids of the covexillary w with at least one target condition."""
    return {
        f"n={n}/w={w.one_line()}"
        for n in range(1, n_max + 1)
        for w in all_partial_permutations(n)
        if is_covexillary(w) and covexillary_data(w).grass_conditions
    }


@pytest.mark.parametrize("mutant", sorted(TARGET_MUTANTS))
@pytest.mark.parametrize("n_max, flagged, total", [(3, 39, 42), (4, 221, 225)])
def test_loosened_target_fails_embed_thm_at_every_conditioned_w(
    monkeypatch, mutant, n_max, flagged, total
):
    """Every w with a target condition has a u outside X_w that the loosened
    target accepts; the w without conditions (X_w = Mat_n) cannot change."""
    monkeypatch.setattr(
        embedding, "target_violation", _target_violation_with(TARGET_MUTANTS[mutant])
    )
    verdicts = run_suite(SuiteConfig("embed-thm", n_max=n_max))
    failed = {v.case for v in verdicts if not v.passed}
    assert len(verdicts) == total
    assert failed == _conditioned_cases(n_max)
    assert len(failed) == flagged


def _failures(suite, n_max, **kwargs):
    """(failed, total) cases of the suite at its acceptance trials."""
    verdicts = run_suite(SuiteConfig(suite, n_max=n_max, **kwargs))
    return sum(not v.passed for v in verdicts), len(verdicts)


@pytest.mark.parametrize("field", [FieldSpec.prime(101), FieldSpec.rational()], ids=str)
def test_an_elimination_that_never_fails_breaks_the_agreement_test(monkeypatch, field):
    """With _core_violations never yielding, membership and the diagnostics
    accept every covector over a point of the matrix Schubert variety.  They
    still agree, but the agreement test sees uniform covectors accepted, and
    conormal-matrix and conormal-flag fail at every w with a direction off
    the fiber at its 0/1 matrix: all but the zero w and the identities."""
    monkeypatch.setattr(conormal, "_core_violations", lambda plan, y_rows: iter(()))
    with pytest.raises(AssertionError):
        check_members_agree_with_violations(field, 2, random.Random(43))
    prime = field.p or DEFAULT_PRIME
    assert _failures("conormal-matrix", 3, prime=prime) == (39, 42)
    assert _failures("conormal-flag", 3, prime=prime) == (6, 9)


# permcore.conormal_bounds, the one table both conormal criteria read, broken
BOUND_MUTANTS = {
    "every-bound-plus-one": lambda bounds: tuple((i, j, b + 1) for i, j, b in bounds),
    "last-check-dropped": lambda bounds: bounds[:-1],
}


@pytest.mark.parametrize(
    "mutant, suite, flagged, total",
    [
        ("every-bound-plus-one", "conormal-matrix", 39, 42),
        ("every-bound-plus-one", "conormal-flag", 6, 9),
        ("every-bound-plus-one", "conormal-grass", 39, 42),
        ("last-check-dropped", "conormal-matrix", 18, 42),
        ("last-check-dropped", "conormal-flag", 3, 9),
        ("last-check-dropped", "conormal-grass", 18, 42),
    ],
)
def test_broken_conormal_bounds_fail_the_matrix_and_flag_calibrations(
    monkeypatch, mutant, suite, flagged, total
):
    """A loosened bound accepts some direction off the fiber at a smooth
    point: w's 0/1 matrix for the matrix and flag forms, the fixed point
    E_S of the target's open cell for the Grassmannian form.  The suites
    reject along every such direction, so they fail at these counts with
    n <= 3.  The matrix form reads the table through permcore, the
    Grassmannian form through the name conormal imports."""
    bounds = permcore.conormal_bounds
    mutate = BOUND_MUTANTS[mutant]

    def mutant_bounds(*args):
        return mutate(bounds(*args))

    monkeypatch.setattr(permcore, "conormal_bounds", mutant_bounds)
    monkeypatch.setattr(conormal, "conormal_bounds", mutant_bounds)
    assert _failures(suite, 3) == (flagged, total)


def test_grassmannian_ranks_read_a_column_right_fail_both_grassmannian_suites(monkeypatch):
    """Each Grassmannian rank read one column to the right, at t'_i in place
    of t'_i - 1 (the last column stays where it is), tightens every bound
    whose block gains a pivot.  The chased fiber covectors then break one at
    almost every w, so diagram-chase fails; so does conormal-grass, whose
    fiber elements at E_S, which must be accepted, break one too.  Its
    zero-section points have rank 0 everywhere and still pass."""
    plan = conormal._grass_plan

    def mutant(V, conditions):
        schubert, reads = plan(V, conditions)
        last = V.ambient - 1
        return schubert, tuple((row, min(col + 1, last), i, j, b) for row, col, i, j, b in reads)

    monkeypatch.setattr(conormal, "_grass_plan", mutant)
    assert _failures("diagram-chase", 3, trials=1, seed=1) == (39, 42)
    assert _failures("conormal-grass", 3, trials=1, seed=1) == (39, 42)
