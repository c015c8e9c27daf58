"""Derived data is computed once per instance and is invisible from outside.

rank_matrix, covexillary_data, the tau data of CovexillaryData, the
southwest profile of a matrix and its columns, the basis matrix, the
dimensions dim(V + E_t) and the containment data of a subspace, the
inverse of a flag generator and the covector g^-1 z of a Springer flag
point are stored on the frozen instance they belong to.  An instance that holds them must still compare,
hash, print, rebuild and pickle exactly like a fresh one.
"""

import json
import pickle
import random
from functools import cached_property
from pathlib import Path

import pytest

from covex import conormal, exactla, suites
from covex.cli import main
from covex.embedding import embed_point, fixed_point_bits
from covex.conormal import (
    SpringerFlagPoint,
    conormal_matrix_violations,
    core_pivots,
)
from covex.errors import NotCovexillaryError
from covex.exactla import (
    ExactMatrix,
    FieldSpec,
    Subspace,
    coordinate_subspace,
)
from covex.permcore import (
    OrbitTable,
    PartialPermutation,
    all_partial_permutations,
    all_permutations,
    covexillary_data,
    is_covexillary,
    rank_matrix,
)
from covex.serialization import matrix_to_json, parse_point_file
from covex.varieties import locate_grass_cell, sample_cell_point, southwest_profile
from oracles import length, random_matrix, subspace_sum
from test_varieties import sample_flag

F = FieldSpec.prime()
GOLDEN_DIR = Path(__file__).parent / "golden"


def rebuild(obj):
    """A new instance made from obj's fields by the public constructor, so
    it carries none of obj's memos."""
    return type(obj)(*(getattr(obj, name) for name in obj._fields))


def assert_like_fresh(obj, fresh):
    assert obj == fresh and fresh == obj
    assert hash(obj) == hash(fresh)
    assert repr(obj) == repr(fresh)
    rebuilt = rebuild(obj)
    assert rebuilt == fresh and repr(rebuilt) == repr(fresh)
    back = pickle.loads(pickle.dumps(obj))
    assert back == fresh and hash(back) == hash(fresh) and repr(back) == repr(fresh)


def test_permutation_memos_are_invisible():
    w = PartialPermutation.from_one_line("0 3 1 0")
    rm = rank_matrix(w)
    data = covexillary_data(w)
    assert rank_matrix(w) is rm and covexillary_data(w) is data
    assert {"_rank_matrix", "_covexillary"} <= set(vars(w))
    fresh = PartialPermutation(4, (0, 3, 1, 0))
    assert_like_fresh(w, fresh)
    assert rank_matrix(fresh) == rm and covexillary_data(fresh) == data
    back = pickle.loads(pickle.dumps(w))
    assert rank_matrix(back) == rm and covexillary_data(back) == data


def test_covexillary_data_memos_are_invisible():
    data = covexillary_data(PartialPermutation.from_one_line("2143"))
    tau, pairs, checks = data.tau, data.grass_conditions, data.conormal_checks
    order = data.tau_order
    assert data.tau is tau and data.grass_conditions is pairs and data.conormal_checks is checks
    assert data.tau_order is order and order == tuple(k - 1 for k in tau.inverse().image)
    fresh = rebuild(covexillary_data(PartialPermutation.from_one_line("2143")))
    assert "tau" not in vars(fresh) and "tau_order" not in vars(fresh)
    assert_like_fresh(data, fresh)
    assert (fresh.tau, fresh.grass_conditions, fresh.conormal_checks) == (tau, pairs, checks)
    assert fresh.tau_order == order


def test_matrix_profile_memo_is_invisible():
    x = random_matrix(F, 4, 4, random.Random(3))
    profile = southwest_profile(x)
    assert southwest_profile(x) is profile
    fresh = rebuild(x)
    assert "southwest_profile" not in vars(fresh)
    assert_like_fresh(x, fresh)
    assert southwest_profile(fresh) == profile


def test_matrix_columns_memo_is_invisible():
    x = random_matrix(F, 3, 4, random.Random(8))
    columns = x.columns
    assert x.columns is columns and columns == tuple(tuple(row[j] for row in x.entries) for j in range(4))
    fresh = rebuild(x)
    assert "columns" not in vars(fresh)
    assert_like_fresh(x, fresh)
    assert fresh.columns == columns
    assert pickle.loads(pickle.dumps(x)).columns == columns


def test_one_batch_computes_the_core_pivots_once(monkeypatch):
    """conormal_matrix_violations computes core_pivots once for its x; the
    elimination of every covector of the batch reads that one result, so a
    batch gives the diagnostics of its batches of one."""
    w = PartialPermutation.from_one_line("0 3 1 0")
    rng = random.Random(4)
    x = sample_cell_point(w, F, rng)
    ys = [ExactMatrix.zeros(F, 4, 4)] + [random_matrix(F, 4, 4, rng) for _ in range(4)]
    expected = [conormal_matrix_violations(x, w, [y.entries])[0] for y in ys]
    assert not expected[0] and all(expected[1:])
    calls = []

    def counted(*args):
        calls.append(args)
        return core_pivots(*args)

    plans = []

    def planned(*args):
        plans.append(args)
        return plan(*args)

    plan = conormal._core_plan
    monkeypatch.setattr(conormal, "core_pivots", counted)
    monkeypatch.setattr(conormal, "_core_plan", planned)
    assert conormal.conormal_matrix_violations(x, w, [y.entries for y in ys]) == expected
    assert calls == plans == [(x, covexillary_data(w))]


def test_one_subspace_builds_its_containment_data_once(monkeypatch):
    """SpringerGrassPoint reads V's side of the containment checks off
    V.containment, built once however many points share V.  The checks per
    point are row dot products: the chase, the batch membership and the
    points themselves run no ExactMatrix product.  A V holding the data is
    like a fresh one."""
    built = []
    compute = vars(Subspace)["containment"].func

    def counted(self):
        built.append(self)
        return compute(self)

    memo = cached_property(counted)
    memo.__set_name__(Subspace, "containment")
    monkeypatch.setattr(Subspace, "containment", memo)
    w = PartialPermutation.from_one_line("2143")
    data = covexillary_data(w)
    rng = random.Random(12)
    x = sample_cell_point(w, F, rng)
    V = embed_point(x, data)
    fiber = conormal.conormal_fiber_matrix(x, w)
    ys = suites._fiber_elements(fiber, rng, extra=5)
    products = []
    matmul = ExactMatrix.__matmul__

    def counted_matmul(self, other):
        products.append(other.shape)
        return matmul(self, other)

    monkeypatch.setattr(ExactMatrix, "__matmul__", counted_matmul)
    xs = suites._chase_to_grass(data, V, x, ys)
    assert len(xs) >= 5 and built == [] and products == []
    points = [conormal.SpringerGrassPoint(V, chased) for chased in xs]
    assert built == [V] and products == []
    assert conormal.conormal_grass_violations(V, data.grass_conditions, points) == [[]] * len(xs)
    for chased in xs:
        conormal.SpringerGrassPoint(V, chased)
    assert built == [V] and products == []
    fresh = rebuild(V)
    assert "containment" in vars(V) and "containment" not in vars(fresh)
    assert_like_fresh(V, fresh)
    assert fresh.containment == V.containment


def test_diagram_chase_plans_each_subspace_once(monkeypatch):
    """diagram-chase checks the chased covectors of each cell point in one
    batch, so it builds one Grassmannian plan, and reads V's Schubert
    conditions once, per embedded subspace V: 225 at n <= 4 with one
    trial, one for each covexillary w."""
    plans = []
    checks = []
    plan = conormal._grass_plan
    condition_checks = conormal.grass_condition_checks

    def planned(V, conditions):
        plans.append(V)
        return plan(V, conditions)

    def checked(V, conditions):
        checks.append(V)
        return condition_checks(V, conditions)

    monkeypatch.setattr(conormal, "_grass_plan", planned)
    monkeypatch.setattr(conormal, "grass_condition_checks", checked)
    verdicts = suites.run_suite(suites.SuiteConfig("diagram-chase", n_max=4, trials=1, seed=1))
    assert len(verdicts) == 225 and all(v.passed for v in verdicts)
    assert len(plans) == len(checks) == 225
    assert len({id(V) for V in plans}) == 225


def test_conormal_flag_plans_each_generator_once(monkeypatch):
    """conormal-flag checks the fiber covectors over each cell generator g
    in one batch, so it builds one core plan per g, and one more at w's
    0/1 matrix wherever a direction leaves the fiber there (l(w) > 0)."""
    points = []
    plan = conormal._core_plan

    def planned(x, data):
        points.append(x)
        return plan(x, data)

    monkeypatch.setattr(conormal, "_core_plan", planned)
    trials = 2
    verdicts = suites.run_suite(suites.SuiteConfig("conormal-flag", n_max=4, trials=trials, seed=1))
    assert len(verdicts) == 32 and all(v.passed for v in verdicts)
    ws = [w for n in range(1, 5) for w in all_permutations(n) if is_covexillary(w)]
    expected = trials * len(ws) + sum(length(w) > 0 for w in ws)
    assert len(points) == len({id(x) for x in points}) == expected == 92


def test_subspace_basis_matrix_memo_is_invisible():
    v = Subspace.span(F, 5, [(1, 2, 0, 3, 4), (0, 0, 1, 5, 6)])
    basis = v.basis_matrix
    assert v.basis_matrix is basis and basis.shape == (5, 2)
    dims = v.sum_dims
    assert v.sum_dims is dims and "sum_dims" in vars(v)
    assert "southwest_profile" not in vars(basis)
    assert locate_grass_cell(v).positions == (4, 5) and v.sum_dims is dims
    fresh = rebuild(v)
    assert "basis_matrix" not in vars(fresh) and "sum_dims" not in vars(fresh)
    assert_like_fresh(v, fresh)
    assert fresh.basis_matrix == basis and fresh.sum_dims == dims
    back = pickle.loads(pickle.dumps(v))
    assert back.basis_matrix == basis and back.sum_dims == dims


@pytest.mark.parametrize("field", [F, FieldSpec.prime(2), FieldSpec.rational()])
def test_subspace_sum_dims_memo_is_invisible(field):
    """sum_dims equals dim(V + E_t) by subspace sums, for V = 0, V = F^N and
    a proper V, and an instance holding it behaves like a fresh one."""
    N = 5
    spaces = [
        Subspace.zero(field, N),
        coordinate_subspace(field, N, range(1, N + 1)),
        Subspace.span(field, N, [(1, 2, 0, 3, 4), (0, 0, 1, 5, 6), (1, 1, 1, 1, 0)]),
    ]
    for v in spaces:
        dims = v.sum_dims
        assert v.sum_dims is dims and "sum_dims" in vars(v)
        expected = tuple(
            subspace_sum(v, coordinate_subspace(field, N, range(1, t + 1))).dim
            for t in range(N + 1)
        )
        assert dims == expected
        fresh = rebuild(v)
        assert "sum_dims" not in vars(fresh)
        assert_like_fresh(v, fresh)
        assert fresh.sum_dims == dims
        assert pickle.loads(pickle.dumps(v)).sum_dims == dims
    assert spaces[0].sum_dims == tuple(range(N + 1))
    assert spaces[1].sum_dims == (N,) * (N + 1)


def test_cli_embed_computes_one_sum_dims(capsys, monkeypatch, tmp_path):
    """covex embed eliminates its embedded subspace once for every target
    condition, and computes no southwest profile at all."""
    computed = []
    for cls, name in ((Subspace, "sum_dims"), (ExactMatrix, "southwest_profile")):
        compute = vars(cls)[name].func

        def counted(self, compute=compute, name=name):
            computed.append((name, self.ambient if name == "sum_dims" else self.shape))
            return compute(self)

        memo = cached_property(counted)
        memo.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, memo)
    x = random_matrix(F, 4, 4, random.Random(6))
    path = tmp_path / "x.json"
    path.write_text(json.dumps(matrix_to_json(x)), encoding="utf-8")
    assert main(["embed", "2143", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["conditions"]
    assert computed == [("sum_dims", 8)]


def test_flag_inverse_and_covector_memos_are_invisible():
    flag = sample_flag(PartialPermutation.from_one_line("3142"), F, random.Random(5))
    inverse = flag.inverse
    assert flag.inverse is inverse and "inverse" in vars(flag)
    assert inverse @ flag.generator == ExactMatrix.identity(F, 4)
    upper = ExactMatrix.from_rows(F, [[0, 1, 2, 3], [0, 0, 4, 5], [0, 0, 0, 6], [0, 0, 0, 0]])
    point = SpringerFlagPoint(flag, flag.generator @ upper @ inverse)
    covector = point.covector
    assert point.covector is covector and covector == upper @ inverse
    fresh_flag = rebuild(flag)
    assert "inverse" not in vars(fresh_flag)
    assert_like_fresh(flag, fresh_flag)
    fresh = SpringerFlagPoint(fresh_flag, rebuild(point.z))
    assert_like_fresh(point, fresh)
    assert fresh_flag.inverse == inverse and fresh.covector == covector
    back = pickle.loads(pickle.dumps(point))
    assert back.flag.inverse == inverse and back.covector == covector


def test_not_covexillary_is_raised_on_every_call():
    w = PartialPermutation.from_one_line("3412")
    errors = []
    for _ in range(2):
        with pytest.raises(NotCovexillaryError) as caught:
            covexillary_data(w)
        errors.append(caught.value)
    assert errors[0] is not errors[1]
    assert (errors[0].first, errors[0].second) == (errors[1].first, errors[1].second)
    assert_like_fresh(w, PartialPermutation(4, (3, 4, 1, 2)))


def test_embed_thm_samples_each_orbit_once(monkeypatch):
    """embed-thm reads each orbit once, at u's 0/1 matrix: it draws nothing,
    builds one OrbitTable per size and reads the counts of each tau class
    off it, once per class, so it builds no coordinate point E_S.  It
    embeds no matrix and forms no 0/1 matrix."""
    counts = {"sample": 0, "random": 0, "rng": 0, "embed": 0, "matrix": 0}
    built = {}
    tables = []
    passes = {}

    def counted(key, call):
        def wrapper(*args):
            counts[key] += 1
            return call(*args)

        return wrapper

    def coordinate(field, ambient, indices):
        built[ambient // 2] = built.get(ambient // 2, 0) + 1
        return coordinate_subspace(field, ambient, indices)

    class Counted(OrbitTable):
        def __init__(self, n):
            tables.append(n)
            super().__init__(n)

        def past(self, bits):
            passes.setdefault(self.n, []).append(bits)
            return super().past(bits)

    for key, name in (
        ("sample", "sample_cell_point"),
        ("random", "_draws"),
        ("rng", "_rng"),
        ("embed", "embed_point"),
    ):
        monkeypatch.setattr(suites, name, counted(key, getattr(suites, name)))
    monkeypatch.setattr(
        PartialPermutation, "matrix", counted("matrix", PartialPermutation.matrix)
    )
    monkeypatch.setattr(suites, "coordinate_subspace", coordinate)
    monkeypatch.setattr(suites, "OrbitTable", Counted)
    suites.run_suite(suites.SuiteConfig("embed-thm", n_max=4, trials=3))
    assert counts == {"sample": 0, "random": 0, "rng": 0, "embed": 0, "matrix": 0}
    assert built == {}
    assert tables == [1, 2, 3, 4]
    for n in (1, 2, 3, 4):
        classes = {
            covexillary_data(w).tau_order: fixed_point_bits(covexillary_data(w))
            for w in all_partial_permutations(n)
            if is_covexillary(w)
        }
        assert sorted(passes[n]) == sorted(classes.values())
        assert len(passes[n]) == {1: 1, 2: 2, 3: 6, 4: 20}[n]


def test_fifty_queries_decide_the_modulus_once(capsys):
    """FieldSpec checks its modulus with the memoized _is_prime, so 50
    queries in one process at --field p:10007 run Miller-Rabin once."""
    exactla._is_prime.cache_clear()
    point = str(GOLDEN_DIR / "embed_cell.json")
    for _ in range(50):
        assert main(["--field", "p:10007", "member", "matrix", point, "2 0 3 1"]) == 0
    capsys.readouterr()
    assert exactla._is_prime.cache_info().misses == 1


def test_a_grass_conormal_query_eliminates_only_the_cell_rows_of_x(capsys, monkeypatch):
    """`conormal member grass` at the embedding target Gr(n, 2n) reads every
    rank off the n rows x[S] at V's cell positions: the one southwest
    profile it eliminates, through either name of the kernel, has n rows,
    each a row of x."""
    point = GOLDEN_DIR / "springer_cell.json"
    x = parse_point_file(point, "springer-grass", F).x
    calls = []
    profile = exactla._southwest_profile

    def counted(rows, cols, p):
        calls.append([tuple(row) for row in rows])
        return profile(rows, cols, p)

    monkeypatch.setattr(exactla, "_southwest_profile", counted)
    monkeypatch.setattr(conormal, "_southwest_profile", counted)
    assert main(["conormal", "member", "grass", str(point), "--w", "2 0 3 1"]) == 0
    assert "member" in json.loads(capsys.readouterr().out)
    assert len(calls) == 1 and len(calls[0]) == 4 and x.rows == 8
    assert set(calls[0]) <= set(x.entries)
