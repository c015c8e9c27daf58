"""Derived data is computed once per instance and is invisible from outside.

rank_matrix, covexillary_data, the tau data of CovexillaryData, the
southwest profile of a matrix, and the subspaces F_i, F_q + E_p and
F_q intersected with E_p of a flag are stored on the frozen instance they
belong to.  An instance that holds them must still
compare, hash, print, replace and pickle exactly like a fresh one.
"""

import dataclasses
import pickle
import random

import pytest

from covex.errors import NotCovexillaryError
from covex.exactla import (
    FieldSpec,
    random_matrix,
    standard_subspace,
    subspace_intersect,
    subspace_sum,
)
from covex.permcore import PartialPermutation, covexillary_data, rank_matrix
from covex.varieties import sample_flag, southwest_profile

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
    tau, order, checks = data.tau, data.tau_order, data.conormal_checks
    assert data.tau is tau and data.conormal_checks is checks
    fresh = dataclasses.replace(covexillary_data(PartialPermutation.from_one_line("2143")))
    assert "tau" not in vars(fresh)
    assert_like_fresh(data, fresh)
    assert (fresh.tau, fresh.tau_order, fresh.conormal_checks) == (tau, order, checks)


def test_matrix_profile_memo_is_invisible():
    x = random_matrix(F, 4, 4, random.Random(3))
    profile = southwest_profile(x)
    assert southwest_profile(x) is profile
    fresh = dataclasses.replace(x)
    assert "southwest_profile" not in vars(fresh)
    assert_like_fresh(x, fresh)
    assert southwest_profile(fresh) == profile


def test_flag_subspace_memo_is_invisible():
    flag = sample_flag(PartialPermutation.from_one_line("2413"), F, random.Random(4))
    subspaces = [flag.subspace(i) for i in range(5)]
    assert all(flag.subspace(i) is s for i, s in enumerate(subspaces))
    fresh = dataclasses.replace(flag)
    assert_like_fresh(flag, fresh)
    assert [fresh.subspace(i) for i in range(5)] == subspaces
    back = pickle.loads(pickle.dumps(flag))
    assert [back.subspace(i) for i in range(5)] == subspaces


def test_flag_standard_memos_are_invisible():
    flag = sample_flag(PartialPermutation.from_one_line("3142"), F, random.Random(5))
    keys = [(q, p) for q in range(5) for p in range(5)]
    sums = [flag.plus_standard(q, p) for q, p in keys]
    meets = [flag.meet_standard(q, p) for q, p in keys]
    assert all(flag.plus_standard(q, p) is s for (q, p), s in zip(keys, sums))
    assert all(flag.meet_standard(q, p) is m for (q, p), m in zip(keys, meets))
    assert {"_sums", "_meets"} <= set(vars(flag))
    for (q, p), s, m in zip(keys, sums, meets):
        e_p = standard_subspace(F, 4, p)
        assert s == subspace_sum(flag.subspace(q), e_p)
        assert m == subspace_intersect(flag.subspace(q), e_p)
    fresh = dataclasses.replace(flag)
    assert "_sums" not in vars(fresh) and "_meets" not in vars(fresh)
    assert_like_fresh(flag, fresh)
    assert [fresh.plus_standard(q, p) for q, p in keys] == sums
    assert [fresh.meet_standard(q, p) for q, p in keys] == meets
    back = pickle.loads(pickle.dumps(flag))
    assert [back.plus_standard(q, p) for q, p in keys] == sums
    assert [back.meet_standard(q, p) for q, p in keys] == meets


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
