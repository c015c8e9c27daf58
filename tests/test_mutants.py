"""Named mutants that the verification suites must catch.

Each mutant is a deliberately broken function, swapped in with monkeypatch
(no file is edited), and names the suites or tests that must then report
failures, at the scale where they must.  A passing suite says something only
if a broken predicate makes it fail.

Not every mutant can fail.  tau with the two runs of each block in the
other order, e_{n+p_{i-1}+1}..e_{n+p_i} before e_{q_{i-1}+1}..e_{q_i}, is
an equivalent mutant: the target reads a point only through the E_{t_i},
and the preimage of E_{t_i}, <e_1..e_{q_i}, e_{n+1}..e_{n+p_i}>, is the
same under both orders.  Every suite passes it, and every pinned report
with --nmax <= 4 stays byte-identical, so it is not pinned here.
"""

import inspect
import random
import textwrap
from itertools import chain, combinations, pairwise

import pytest

from covex import conormal, embedding, equivariant, kl, permcore, suites, varieties
from covex.cli import main
from covex.exactla import DEFAULT_PRIME, ExactMatrix, FieldSpec, Subspace
from covex.permcore import (
    CovexillaryData,
    PartialPermutation,
    all_partial_permutations,
    covexillary_data,
    is_covexillary,
)
from covex.suites import SuiteConfig, run_suite
from oracles import kernel
from scale import sized
from test_conormal import check_matrix_batches
from test_permcore import essential_box_mismatches, lanes


def _rewritten(function, old, new, **names):
    """function compiled again from its source, its one occurrence of old read as new.

    The copy runs in a copy of its module's namespace, with names added to
    it; no file or module changes.
    """
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = dict(vars(inspect.getmodule(function)), **names)
    exec(source.replace(old, new), namespace)
    return namespace[function.__name__]


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
    target accepts; the w without conditions (X_w = Mat_n) cannot change.
    embed-thm reads the target of each w off its tau class's packed counts,
    through target_lanes, so the mutant is that reader with the loosened
    conditions."""
    loosened = _rewritten(
        embedding.target_lanes,
        "data.grass_conditions",
        "conditions_of(data)",
        conditions_of=TARGET_MUTANTS[mutant],
    )
    monkeypatch.setattr(suites, "target_lanes", loosened)
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
    """With _core_violations never yielding, the matrix form accepts every
    covector over a point of the matrix Schubert variety.  A batch still
    equals its batches of one, but the batch check sees lists that miss the
    rank-by-pair diagnostics, and conormal-matrix and conormal-flag fail at
    every w with a direction off the fiber at its 0/1 matrix: all but the
    zero w and the identities."""
    monkeypatch.setattr(conormal, "_core_violations", lambda plan, y_rows: iter(()))
    with pytest.raises(AssertionError):
        check_matrix_batches(field, 2, random.Random(43))
    prime = field.p or DEFAULT_PRIME
    assert _failures("conormal-matrix", 3, prime=prime) == (39, 42)
    assert _failures("conormal-flag", 3, prime=prime) == (6, 9)


@pytest.mark.parametrize(
    "n_max, flagged, total", sized([(4, 221, 225)], [(4, 221, 225), (5, 1338, 1343)])
)
def test_one_direction_accepted_off_the_fiber_fails_conormal_matrix(
    monkeypatch, n_max, flagged, total
):
    """conormal_matrix_violations that, at w's 0/1 matrix, gives the last
    covector of its batch, one off the fiber, an empty list fails every w
    with a direction off the fiber there: all but the zero w of each size.
    The suite counts the accepted off-fiber covectors, so one fails the
    case also at the n = 5 points with 20 or more such directions, which a
    rejection rate of at least 0.95 let through (1,237 failures of 1,343)."""
    violations = suites.conormal_matrix_violations

    def last_accepted(x, w, ys):
        found = violations(x, w, ys)
        if x == w.matrix(x.field):
            found[-1] = []
        return found

    monkeypatch.setattr(suites, "conormal_matrix_violations", last_accepted)
    assert _failures("conormal-matrix", n_max, trials=1) == (flagged, total)


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
    n <= 3.  Every form reads the table through permcore, so patching
    that one name reaches all three."""
    bounds = permcore.conormal_bounds
    mutate = BOUND_MUTANTS[mutant]

    def mutant_bounds(*args):
        return mutate(bounds(*args))

    monkeypatch.setattr(permcore, "conormal_bounds", mutant_bounds)
    assert _failures(suite, 3) == (flagged, total)


def test_grassmannian_ranks_read_a_column_right_fail_both_grassmannian_suites(monkeypatch):
    """Each Grassmannian rank read one column to the right, at t'_i in place
    of t'_i - 1 (the last column stays where it is), tightens every bound
    whose block gains a pivot.  The chased fiber covectors then break one at
    almost every w, so diagram-chase fails; so does conormal-grass, whose
    fiber elements at E_S, which must be accepted, break one too."""
    plan = conormal._grass_plan

    def mutant(V, conditions):
        schubert, cells, reads = plan(V, conditions)
        last = V.ambient - 1
        return schubert, cells, tuple(
            (row, min(col + 1, last), i, j, b) for row, col, i, j, b in reads
        )

    monkeypatch.setattr(conormal, "_grass_plan", mutant)
    assert _failures("diagram-chase", 3, trials=1, seed=1) == (39, 42)
    assert _failures("conormal-grass", 3, trials=1, seed=1) == (39, 42)


def test_a_fiber_without_its_diagonal_equations_fails_conormal_matrix(monkeypatch):
    """conormal_fiber_matrix with range(a) in place of range(a + 1) leaves
    the diagonals of xy and yx free, so its fiber outgrows |D(w)|.  The
    suite sees that as a dimension mismatch at every w whose fiber at a
    cell point is not all of Mat_n, 39 of 42 with n <= 3."""

    def without_diagonal(x, w):
        n, xs = w.n, x.entries
        rows = [(0,) * (n * n)]  # n = 1 has no entry below the diagonal
        for a in range(n):
            for b in range(a):
                row = [0] * (n * n)
                row[b::n] = xs[a]
                rows.append(tuple(row))
                row = [0] * (n * n)
                row[a * n : (a + 1) * n] = [xs[k][b] for k in range(n)]
                rows.append(tuple(row))
        return kernel(ExactMatrix(x.field, tuple(rows)))

    monkeypatch.setattr(suites, "conormal_fiber_matrix", without_diagonal)
    verdicts = run_suite(SuiteConfig("conormal-matrix", n_max=3, trials=1, seed=1))
    failed = [v for v in verdicts if not v.passed]
    assert (len(failed), len(verdicts)) == (39, 42)
    assert all(v.details["dim_mismatches"] for v in failed)


def test_a_diagram_row_one_column_short_fails_both_fiber_calibrations(monkeypatch):
    """diagram with each row stopping one column short of its dot,
    range(1, ends[i] - 1) in place of range(1, ends[i]), loses the last box
    of every row that reaches the dot's column.  The suites compare the
    fiber dimension with |D(w)|, so conormal-matrix fails at 39 of 42 w and
    conormal-flag at 6 of 9 with n <= 3: all but the longest permutation of
    each size, whose diagram is empty.  w(j) <= i for w(j) < i, or j <=
    w^-1(i) for j < w^-1(i), are equivalent mutants and not pinned: the one
    box either would add is row i's dot, which the other half of the rule
    still excludes."""
    short = _rewritten(permcore.diagram, "range(1, ends[i])", "range(1, ends[i] - 1)")
    monkeypatch.setattr(suites, "diagram", short)
    assert _failures("conormal-matrix", 3, trials=1, seed=1) == (39, 42)
    assert _failures("conormal-flag", 3, trials=1, seed=1) == (6, 9)


def test_a_flag_fiber_short_of_its_last_vector_fails_conormal_flag(monkeypatch):
    """conormal_fiber_flag without the last vector of its basis has one
    dimension fewer than |D(w)|.  Each trial sees that as a dimension
    mismatch, at the 6 of 9 w with n <= 3 whose fiber is not zero (28 of 32
    with n <= 4), and the passing cases, the longest w of each size, have
    none."""
    fiber_flag = suites.conormal_fiber_flag

    def short_of_one(g, w):
        flag, fiber = fiber_flag(g, w)
        return flag, Subspace.span(fiber.field, fiber.ambient, fiber.vectors[:-1])

    monkeypatch.setattr(suites, "conormal_fiber_flag", short_of_one)
    verdicts = run_suite(SuiteConfig("conormal-flag", n_max=3, trials=1, seed=1))
    failed = [v for v in verdicts if not v.passed]
    assert (len(failed), len(verdicts)) == (6, 9)
    assert [v.details["dim_mismatches"] for v in verdicts] == [int(not v.passed) for v in verdicts]


def test_a_4231_detector_fails_covex_equiv_at_3412_and_4231(monkeypatch):
    """Covexillary means 3412-avoiding; a detector of the other pattern of
    vexillary duality, 4231, disagrees with the chain condition exactly at
    the two permutations with n <= 4 that hold one pattern and not the
    other."""

    def avoids_4231(w):
        v = w.image
        return not any(v[l] < v[j] < v[k] < v[i] for i, j, k, l in combinations(range(w.n), 4))

    monkeypatch.setattr(suites, "avoids_3412", avoids_4231)
    verdicts = run_suite(SuiteConfig("covex-equiv", n_max=4))
    failed = [v.case for v in verdicts if not v.passed]
    assert len(verdicts) == 33
    assert failed == ["n=4/w=3 4 1 2", "n=4/w=4 2 3 1"]


def test_a_rank_read_one_row_off_fails_rank_lemma(monkeypatch):
    """rank-lemma reading r_u(p + 2, q) in place of r_u(p + 1, q), the rank
    matrix shifted up by one row with a zero row at the bottom, breaks the
    equality at 14 of the 29 pairs (p, q) with n <= 3."""
    ranks = suites.rank_matrix

    def shifted(u):
        r = ranks(u)
        return r[1:] + ((0,) * u.n,)

    monkeypatch.setattr(suites, "rank_matrix", shifted)
    assert _failures("rank-lemma", 3) == (14, 29)


def test_a_wrong_corner_in_the_reconstruction_fails_el_roundtrip(monkeypatch, capsys):
    """reconstruct_from_essential with each essential box reaching one row
    less far up, max(0, c.row - i - 1) in place of max(0, c.row - i),
    builds a wrong rank matrix; its dots or its essential set then miss w
    at 29 of the 43 partial permutations with n <= 3.  Each such case fails
    on its own: the EssentialDataError it raises is a failed case, and the
    run exits 3, not 2 as for bad input."""
    mutant = _rewritten(
        permcore.reconstruct_from_essential, "max(0, c.row - i)", "max(0, c.row - i - 1)"
    )
    monkeypatch.setattr(suites, "reconstruct_from_essential", mutant)
    assert _failures("el-roundtrip", 3) == (29, 43)
    assert main(["verify", "el-roundtrip", "--nmax", "3"]) == 3
    assert "error" not in capsys.readouterr().err


def test_a_mu_list_without_its_descent_covers_fails_kl_covex(monkeypatch, capsys):
    """mu_list without the covers of v, where mu(z, v) = 1 (Kazhdan-Lusztig
    1979, (2.3.e)), leaves out terms of the mu correction on both the S_n
    and the Grassmannian side.  kl-covex fails 12 of its 32 cases with
    n <= 4, 5 of them through a broken degree bound, which fails its case
    and is no traceback; the smoke case, P(1234, 3412) = 1 + q, still
    passes.  Fresh table memos keep the mutated tables away from every
    other test."""
    mutant = _rewritten(kl._KLTable.mu_list, "dict.fromkeys(self._covers(v), 1)", "{}")
    monkeypatch.setattr(kl, "_TABLES", {})
    monkeypatch.setattr(kl, "_GRASS_TABLES", {})
    monkeypatch.setattr(kl._KLTable, "mu_list", mutant)
    monkeypatch.setattr(kl.SymmetricGroupTable, "mu_list", mutant)
    verdicts = run_suite(SuiteConfig("kl-covex", n_max=4))
    failed = [v.case for v in verdicts if not v.passed]
    assert (len(failed), len(verdicts)) == (12, 32)
    assert sum("error" in v.details for v in verdicts) == 5
    assert "smoke/P(1234,3412)" not in failed
    assert main(["verify", "kl-covex", "--nmax", "4"]) == 3
    # outside a suite the broken degree bound is a broken internal check, not bad input
    assert main(["kl", "covex-check", "2341"]) == 3


def test_an_excited_move_one_column_too_far_fails_multidegree(monkeypatch):
    """The excited Young diagram sum letting a box slide to (i + 1, j + 1)
    when only (i + 1, j) lies in the point's diagram, j < outer[i + 1] in
    place of j + 1 < outer[i + 1], adds excited diagrams that do not fit;
    the localization side then misses the Schubert side at 6 of the 9
    covexillary w with n <= 3."""
    mutant = _rewritten(
        equivariant._excited_terms, "j + 1 < outer[i + 1]", "j < outer[i + 1]"
    )
    monkeypatch.setattr(equivariant, "_excited_terms", mutant)
    assert _failures("multidegree", 3) == (6, 9)


def test_a_box_weight_with_both_bumps_positive_fails_multidegree(monkeypatch):
    """The excited Young diagram sum multiplying by t_col + t_row in place
    of t_col - t_row, the bump of t_row carrying +c and not -c: the
    localization side misses the Schubert side at 6 of the 9 covexillary w
    with n <= 3, every w but the three whose localization is 1."""
    plus = _rewritten(equivariant._times_difference, "out.get(key, 0) - c", "out.get(key, 0) + c")
    mutant = _rewritten(
        equivariant._excited_terms, "_times_difference(", "_times_plus(", _times_plus=plus
    )
    monkeypatch.setattr(equivariant, "_excited_terms", mutant)
    assert _failures("multidegree", 3) == (6, 9)


def test_a_guard_one_bit_narrow_breaks_the_bruhat_masks(monkeypatch):
    """OrbitTable with lanes of n.bit_length() bits, one too few for a
    value of 0..n and its guard bit, lets a guarded subtraction carry or
    borrow across lanes: at n = 3, below misreads 25 pairs u <= w, and the
    embed-thm report moves its positives at 2 of the 42 w with n <= 3, so
    its pinned digest fails.  Its verdicts cannot fail: by the rank lemma,
    past[t] - (n + c - t) equals r_u - r_w at the essential box of each
    condition, lane by lane, so below and target_lanes subtract equal
    packed ints and err alike."""
    good = {v.case: v.details for v in run_suite(SuiteConfig("embed-thm", n_max=3))}
    mutant = _rewritten(
        permcore.OrbitTable, "width = n.bit_length() + 1", "width = n.bit_length()"
    )
    orbits, partials = mutant(3), list(all_partial_permutations(3))
    wrong = [
        (u, w)
        for w in partials
        for u, lane in zip(partials, lanes(orbits))
        if bool(orbits.below(w) >> lane & 1) != permcore.bruhat_leq(u, w)
    ]
    assert len(wrong) == 25
    monkeypatch.setattr(suites, "OrbitTable", mutant)
    verdicts = run_suite(SuiteConfig("embed-thm", n_max=3))
    moved = {v.case for v in verdicts if v.details != good[v.case]}
    assert moved == {"n=3/w=0 0 0", "n=3/w=3 2 0"}
    assert all(v.passed for v in verdicts) and len(verdicts) == 42


def test_an_essential_set_without_its_last_box_breaks_the_full_box_pin(monkeypatch):
    """OrbitTable.below reads only w's essential boxes, as the target's
    conditions do, so a box dropped from the essential corners would loosen
    both sides of embed-thm alike.  The full-box pin of test_permcore sees the
    mask grow at every covexillary w with an essential box: 221 of the 225
    with n <= 4, all but the longest permutations."""
    ws = [w for n in range(1, 5) for w in all_partial_permutations(n) if is_covexillary(w)]
    corners = permcore.essential_corners
    monkeypatch.setattr(permcore, "essential_corners", lambda image: list(corners(image))[:-1])
    grown = [
        w
        for n in range(1, 5)
        for w in essential_box_mismatches(permcore.OrbitTable(n), [w for w in ws if w.n == n])
    ]
    assert len(grown) == 221 and len(ws) == 225
    assert set(ws) - set(grown) == {PartialPermutation.longest(n) for n in range(1, 5)}


def test_strict_rank_bounds_fail_kl_covex_at_its_smoke_case(monkeypatch):
    """permcore.dominated with < in place of <= denies u <= w at any equal
    rank, and two permutations of one size share r(1, n) = n, so
    bruhat_leq(1234, 3412) is False and kl_polynomial answers 0 for
    P(1234, 3412) = 1 + q: kl-covex fails that one case of 32 with n <= 4.
    The other suites pass, since matrix_schubert_violation, which reads the
    mutant through its own binding, falls back to its row-by-row scan, and
    the KL tables compare packed ranks."""
    flat = chain.from_iterable

    def strict(ranks, bounds):
        return all(a < b for a, b in zip(flat(ranks), flat(bounds)))

    monkeypatch.setattr(kl, "_TABLES", {})
    monkeypatch.setattr(kl, "_GRASS_TABLES", {})
    monkeypatch.setattr(permcore, "dominated", strict)
    monkeypatch.setattr(varieties, "dominated", strict)
    verdicts = run_suite(SuiteConfig("kl-covex", n_max=4))
    assert [v.case for v in verdicts if not v.passed] == ["smoke/P(1234,3412)"]
    assert len(verdicts) == 32


def _tau_p_and_q_swapped(data):
    """tau with block i sending e_{p_{i-1}+1}..e_{p_i}, then e_{n+q_{i-1}+1}..e_{n+q_i}."""
    n, image, target = data.n, [0] * (2 * data.n), 1
    for (p0, q0, _), (p1, q1, _) in pairwise(data.chain):
        for j in chain(range(p0 + 1, p1 + 1), range(n + q0 + 1, n + q1 + 1)):
            image[j - 1] = target
            target += 1
    return PartialPermutation(2 * n, tuple(image))


@pytest.mark.parametrize(
    "suite, n_max, kwargs, flagged, total",
    [
        ("embed-thm", 3, {}, 35, 42),
        ("diagram-chase", 3, {"trials": 1, "seed": 1}, 35, 42),
        ("multidegree", 3, {}, 2, 9),
        ("kl-covex", 4, {}, 16, 32),
    ],
)
def test_tau_with_p_and_q_swapped_fails_every_suite_that_reads_it(
    monkeypatch, suite, n_max, kwargs, flagged, total
):
    """The interleaving permutation built on the columns of p and the rows of
    q sends the graph of x to the wrong point of Gr(n, 2n), unless p = q.
    Every suite that goes through the embedding then fails: embed-thm and
    diagram-chase at 35 of 42 w with n <= 3, multidegree at 2 of 9 and
    kl-covex at 16 of 32 with n <= 4.  conormal-grass does not read tau:
    its fixed point E_S comes from target_grass_index.  tau_order, which
    embed_point and the chase read, is built off the chain apart from tau,
    so it is patched to the swapped tau's inverse.  Each CovexillaryData is
    new in every run, so no tau built here outlives the patch."""
    monkeypatch.setattr(CovexillaryData, "tau", property(_tau_p_and_q_swapped))
    swapped_order = property(lambda data: tuple(k - 1 for k in data.tau.inverse().image))
    monkeypatch.setattr(CovexillaryData, "tau_order", swapped_order)
    assert _failures(suite, n_max, **kwargs) == (flagged, total)
