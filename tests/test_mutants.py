"""Named mutants that the verification suites must catch.

Each mutant is a deliberately broken function, swapped in with monkeypatch
(no file is edited), and names the suites or tests that must then report
failures, at the scale where they must.  A passing suite says something only
if a broken predicate makes it fail.
"""

import random

import pytest

from covex import conormal, embedding
from covex.exactla import FieldSpec
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


@pytest.mark.parametrize("field", [FieldSpec.prime(101), FieldSpec.rational()], ids=str)
def test_an_elimination_that_never_fails_breaks_the_agreement_test(monkeypatch, field):
    """With _core_violations never yielding, membership rejects only at the
    corner and the diagnostics find nothing.  The suites barely notice (their
    uniform covectors have nonzero corners); the agreement of
    conormal_matrix_members with conormal_matrix_violations does."""
    monkeypatch.setattr(conormal, "_core_violations", lambda plan, y_rows: iter(()))
    with pytest.raises(AssertionError):
        check_members_agree_with_violations(field, 2, random.Random(43))


def test_a_corner_read_off_the_first_row_of_h_fails_conormal_matrix(monkeypatch):
    """The corner of the core read from the first row of H, not the last,
    rejects fiber covectors that the full elimination accepts.  conormal-matrix
    fails at 14 of its 42 cases with n <= 3, each with the disagreement
    marker as its first failure, and reports it instead of raising."""
    corner_form = conormal._corner_form
    monkeypatch.setattr(
        conormal, "_corner_form", lambda x, rows, cols: corner_form(x, rows[:1], cols)
    )
    verdicts = run_suite(SuiteConfig("conormal-matrix", n_max=3))
    failed = [v for v in verdicts if not v.passed]
    assert len(verdicts) == 42
    assert len(failed) == 14
    assert all(v.details["first_failure"] == {"kind": "disagreement"} for v in failed)
