"""Derived data is computed once per instance and is invisible from outside.

rank_matrix, covexillary_data, the tau data of CovexillaryData, the
southwest profile of a matrix, its columns and its conormal core pivots, the basis matrix
and the dimensions dim(V + E_t) of a subspace, the inverse of a flag generator and the covector g^-1 z of a
Springer flag point are stored on the frozen instance they belong to.  An instance that holds them must still compare, hash,
print, replace and pickle exactly like a fresh one.
"""

import dataclasses
import json
import pickle
import random
from functools import cached_property

import pytest

from covex.cli import main
from covex.conormal import SpringerFlagPoint, core_pivots
from covex.errors import NotCovexillaryError
from covex.exactla import (
    ExactMatrix,
    FieldSpec,
    Subspace,
    coordinate_subspace,
    random_matrix,
    subspace_sum,
)
from covex.permcore import PartialPermutation, covexillary_data, rank_matrix
from covex.serialization import matrix_to_json
from covex.varieties import locate_grass_cell, southwest_profile
from test_varieties import sample_flag

F = FieldSpec.prime()


def assert_like_fresh(obj, fresh):
    assert obj == fresh and fresh == obj
    assert hash(obj) == hash(fresh)
    assert repr(obj) == repr(fresh)
    replaced = dataclasses.replace(obj)
    assert replaced == fresh and repr(replaced) == repr(fresh)
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
    fresh = dataclasses.replace(covexillary_data(PartialPermutation.from_one_line("2143")))
    assert "tau" not in vars(fresh) and "tau_order" not in vars(fresh)
    assert_like_fresh(data, fresh)
    assert (fresh.tau, fresh.grass_conditions, fresh.conormal_checks) == (tau, pairs, checks)
    assert fresh.tau_order == order


def test_matrix_profile_memo_is_invisible():
    x = random_matrix(F, 4, 4, random.Random(3))
    profile = southwest_profile(x)
    assert southwest_profile(x) is profile
    fresh = dataclasses.replace(x)
    assert "southwest_profile" not in vars(fresh)
    assert_like_fresh(x, fresh)
    assert southwest_profile(fresh) == profile


def test_matrix_columns_memo_is_invisible():
    x = random_matrix(F, 3, 4, random.Random(8))
    columns = x.columns
    assert x.columns is columns and columns == tuple(x.column(j) for j in range(1, 5))
    fresh = dataclasses.replace(x)
    assert "columns" not in vars(fresh)
    assert_like_fresh(x, fresh)
    assert fresh.columns == columns
    assert pickle.loads(pickle.dumps(x)).columns == columns


def test_core_pivot_memo_is_invisible():
    x = random_matrix(F, 4, 4, random.Random(4))
    data = covexillary_data(PartialPermutation.from_one_line("0 3 1 0"))
    other = covexillary_data(PartialPermutation.from_one_line("2143"))
    pivots = core_pivots(x, data)
    assert core_pivots(x, data) is pivots
    assert core_pivots(x, other) is core_pivots(x, other)
    assert set(x.core_pivot_memo) == {(data.p, data.q), (other.p, other.q)}
    fresh = dataclasses.replace(x)
    assert "core_pivot_memo" not in vars(fresh)
    assert_like_fresh(x, fresh)
    assert core_pivots(fresh, data) == pivots
    assert core_pivots(fresh, other) == core_pivots(x, other) != pivots
    assert core_pivots(pickle.loads(pickle.dumps(x)), data) == pivots


def test_subspace_basis_matrix_memo_is_invisible():
    v = Subspace.span(F, 5, [(1, 2, 0, 3, 4), (0, 0, 1, 5, 6)])
    basis = v.basis_matrix
    assert v.basis_matrix is basis and basis.shape == (5, 2)
    dims = v.sum_dims
    assert v.sum_dims is dims and "sum_dims" in vars(v)
    assert "southwest_profile" not in vars(basis)
    assert locate_grass_cell(v).positions == (4, 5) and v.sum_dims is dims
    fresh = dataclasses.replace(v)
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
        fresh = dataclasses.replace(v)
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
    fresh_flag = dataclasses.replace(flag)
    assert "inverse" not in vars(fresh_flag)
    assert_like_fresh(flag, fresh_flag)
    fresh = SpringerFlagPoint(fresh_flag, dataclasses.replace(point.z))
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
