"""The package's value classes behave as frozen dataclasses with the same fields.

Each of the 16 classes is checked against a twin made here by
``dataclasses.make_dataclass(..., frozen=True)`` over the same field values:
repr and hash agree, so report text, error messages and set and dict
iteration order are those the dataclasses gave.  Fields cannot be assigned
or deleted, and a value never equals a value of another class.
"""

import dataclasses

import pytest

from covex.conormal import CotangentMatrixPoint, SpringerFlagPoint, SpringerGrassPoint
from covex.equivariant import MultidegreeReport, MultivariatePolynomial
from covex.exactla import DEFAULT_PRIME, ExactMatrix, FieldSpec, Subspace
from covex.frozen import Frozen
from covex.kl import PolynomialQ
from covex.permcore import (
    CovexillaryData,
    EssentialCondition,
    PartialPermutation,
    covexillary_data,
)
from covex.suites import SuiteConfig, Verdict
from covex.varieties import Flag, GrassIndex

F = FieldSpec.prime(7)
W = PartialPermutation.from_one_line("2143")
X = ExactMatrix.from_rows(F, [[0, 1], [0, 0]])  # x e_2 = e_1 and x e_1 = 0
POLY = MultivariatePolynomial(("x1", "y1"), (((0, 1), -1), ((1, 0), 2)))

VALUES = [
    FieldSpec(7),
    FieldSpec(None),
    ExactMatrix(F, ((1, 2), (3, 4))),
    Subspace.span(F, 3, [(1, 2, 0), (0, 1, 5)]),
    W,
    PartialPermutation(3, (2, 0, 1)),
    EssentialCondition(2, 1, 0),
    covexillary_data(W),
    Flag(ExactMatrix.identity(F, 3)),
    GrassIndex(2, 4, (1, 3)),
    CotangentMatrixPoint(X, ExactMatrix.identity(F, 2)),
    SpringerFlagPoint(Flag(ExactMatrix.identity(F, 2)), X),
    SpringerGrassPoint(Subspace.span(F, 2, [(1, 0)]), X),
    PolynomialQ((1, 0, 2)),
    POLY,
    MultidegreeReport(W, POLY, MultivariatePolynomial.zero(POLY.variables)),
    SuiteConfig("embed-thm", n_max=3),
    Verdict("embed-thm", "n2", True, {"orbits": 7}),
]
CLASSES = {type(value) for value in VALUES}


def test_every_value_class_is_sampled():
    assert len(CLASSES) == 16
    assert CovexillaryData in CLASSES


def fields(value):
    return {name: getattr(value, name) for name in value._fields}


def twin(value):
    """A frozen dataclass of the same name and fields, holding the same values."""
    cls = dataclasses.make_dataclass(type(value).__name__, value._fields, frozen=True)
    return cls(**fields(value))


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_matches_its_dataclass_twin(value):
    other = twin(value)
    assert repr(value) == repr(other)
    try:
        expected = hash(other)
    except TypeError:  # a dict field: neither is hashable
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == expected
    assert value != other and other != value
    rebuilt = type(value)(**fields(value))  # the fields are the keyword parameters
    assert rebuilt == value and repr(rebuilt) == repr(value)


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned_or_deleted(value):
    before = fields(value)
    for name in value._fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.unknown = 1
    assert fields(value) == before


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_never_equals_another_class_with_the_same_fields(value):
    stranger = object.__new__(type(type(value).__name__, (Frozen,), {"_fields": value._fields}))
    for name, field in fields(value).items():
        object.__setattr__(stranger, name, field)
    assert repr(stranger) == repr(value)
    assert value != stranger and stranger != value
    assert value != tuple(fields(value).values())


def test_suite_config_keeps_its_defaults():
    config = SuiteConfig("embed-thm", n_max=3)
    assert fields(config) == {
        "suite": "embed-thm", "n_max": 3, "trials": None, "prime": DEFAULT_PRIME, "seed": 0
    }
    assert config == SuiteConfig("embed-thm", 3, None, DEFAULT_PRIME, 0)
    assert repr(config) == "SuiteConfig(suite='embed-thm', n_max=3, trials=None, prime=10007, seed=0)"
