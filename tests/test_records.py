"""The eight value records: repr text, equality within one class only, hashing
of the field tuple, frozen fields, and positional, keyword and default
construction."""

import pytest

from spherica import (
    CheckResult,
    DiagonalPoint,
    EvalResult,
    McEstimate,
    MixtureParam,
    OmegaParam,
    Partition,
    SweepReport,
)

# (class, positional args, keyword args, repr, field tuple, a different instance)
RECORDS = [
    (
        DiagonalPoint, ((-2, 1.5, 0),), {"values": (0, 1.5, -2)},
        "DiagonalPoint(values=(2.0, 1.5, 0.0))",
        ((2.0, 1.5, 0.0),), DiagonalPoint((2.0, 1.5)),
    ),
    (
        EvalResult, (0.5, 1e-16, 3, "determinant"),
        {"value": 0.5, "abs_error": 1e-16, "terms_used": 3, "path": "determinant"},
        "EvalResult(value=0.5, abs_error=1e-16, terms_used=3, path='determinant')",
        (0.5, 1e-16, 3, "determinant"), EvalResult(0.5, 1e-16, 3, "newton"),
    ),
    (
        Partition, ((3, 1, 0),), {"parts": [3, 1]},
        "Partition(parts=(3, 1))", ((3, 1),), Partition((3, 1, 1)),
    ),
    (
        OmegaParam, ([0.5, 2], 1), {"gamma": 1, "alpha": (2.0, 0.0, 0.5)},
        "OmegaParam(alpha=(2.0, 0.5), gamma=1.0)",
        ((2.0, 0.5), 1.0), OmegaParam([0.5, 2], 0),
    ),
    (
        MixtureParam, ([(0.25, OmegaParam([1.0])), (0.75, OmegaParam([], 2.0))],),
        {"components": ((0.25, OmegaParam([1.0])), (0.75, OmegaParam(gamma=2.0)))},
        "MixtureParam(components=((0.25, OmegaParam(alpha=(1.0,), gamma=0.0)),"
        " (0.75, OmegaParam(alpha=(), gamma=2.0))))",
        (((0.25, OmegaParam([1.0])), (0.75, OmegaParam([], 2.0))),),
        MixtureParam([(1.0, OmegaParam([1.0]))]),
    ),
    (
        SweepReport, ("k", {"m": 1}, (4, 8), (0.25, 0.125), 0.0),
        {"kind": "k", "params": {"m": 1}, "n_values": (4, 8),
         "values": (0.25, 0.125), "limit_value": 0.0, "std_errors": None},
        "SweepReport(kind='k', params={'m': 1}, n_values=(4, 8),"
        " values=(0.25, 0.125), limit_value=0.0, std_errors=None)",
        ("k", {"m": 1}, (4, 8), (0.25, 0.125), 0.0, None),
        SweepReport("k", {"m": 2}, (4, 8), (0.25, 0.125), 0.0),
    ),
    (
        CheckResult, ("a.b", True, "x=1"), {"detail": "x=1", "name": "a.b", "passed": True},
        "CheckResult(name='a.b', passed=True, detail='x=1')",
        ("a.b", True, "x=1"), CheckResult("a.b", False, "x=1"),
    ),
    (
        McEstimate, (0.5, 0.01, 100, 7),
        {"mean": 0.5, "std_error": 0.01, "n_samples": 100, "master_seed": 7,
         "imag_mean": None, "imag_std_error": None},
        "McEstimate(mean=0.5, std_error=0.01, n_samples=100, master_seed=7,"
        " imag_mean=None, imag_std_error=None)",
        (0.5, 0.01, 100, 7, None, None), McEstimate(0.5, 0.01, 100, 7, 0.0, 0.1),
    ),
]
IDS = [row[0].__name__ for row in RECORDS]


@pytest.mark.parametrize("cls, args, kwargs, text, fields, other", RECORDS, ids=IDS)
def test_record_repr_and_construction(cls, args, kwargs, text, fields, other):
    assert repr(cls(*args)) == text
    assert repr(cls(**kwargs)) == text


@pytest.mark.parametrize("cls, args, kwargs, text, fields, other", RECORDS, ids=IDS)
def test_record_equality_is_by_fields_within_one_class(cls, args, kwargs, text, fields, other):
    a, b = cls(*args), cls(**kwargs)
    assert a == b and not a != b
    assert a != other and not a == other
    for other_cls, other_args, *_ in RECORDS:
        if other_cls is not cls:
            foreign = other_cls(*other_args)
            assert a.__eq__(foreign) is NotImplemented and a != foreign
    assert a.__eq__(fields) is NotImplemented and a != fields


@pytest.mark.parametrize("cls, args, kwargs, text, fields, other", RECORDS, ids=IDS)
def test_record_hash_is_the_field_tuple_hash(cls, args, kwargs, text, fields, other):
    a = cls(*args)
    if cls is SweepReport:
        # params is a dict
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(fields) == hash(cls(**kwargs))


@pytest.mark.parametrize("cls, args, kwargs, text, fields, other", RECORDS, ids=IDS)
def test_record_fields_are_frozen(cls, args, kwargs, text, fields, other):
    a = cls(*args)
    for name in cls.__annotations__:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert repr(a) == text


def test_record_defaults():
    est = McEstimate(0.5, 0.01, 100, 7)
    assert est.imag_mean is None and est.imag_std_error is None
    assert McEstimate(0.5, 0.01, 100, 7, imag_std_error=0.2).imag_std_error == 0.2
    assert SweepReport("k", {}, (4,), (0.25,), 0.0).std_errors is None
    assert OmegaParam() == OmegaParam((), 0.0) and Partition() == Partition(())
    with pytest.raises(TypeError):
        EvalResult(0.5, 1e-16, 3)
    with pytest.raises(TypeError):
        CheckResult("a", True, "x", "y")
