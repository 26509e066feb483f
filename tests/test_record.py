"""The value-class contract: the frozen value classes behave as the frozen
dataclasses they replace, and survive pickling and copying (a worker pool
pickles what it returns)."""

import copy
import pickle

import pytest

from nckp.diagrams import Braid, CrossingReport, Partition
from nckp.oracle import ChiSquareReport
from nckp.sampler import TransitionWeights
from nckp.walks import Walk

CASES = [
    (Partition, (3, ((1, 3), (2,))), (3, ((1,), (2, 3))),
     "Partition(n=3, blocks=((1, 3), (2,)))"),
    (Braid, (3, ((1, 3), (2, 2))), (3, ((1, 3),)),
     "Braid(n=3, arcs=((1, 3), (2, 2)))"),
    (CrossingReport, (2, ((1, 3), (2, 4))), (1, ((1, 3),)),
     "CrossingReport(max_crossing=2, witness=((1, 3), (2, 4)))"),
    (Walk, ("P", 3, (1, 0, -1, 0)), ("B", 3, (1, 0, -1, 0)),
     "Walk(kind='P', k=3, steps=(1, 0, -1, 0))"),
    (TransitionWeights, ((0, 1), (5, 7), 12), ((0, 1), (5, 7), 13),
     "TransitionWeights(steps=(0, 1), weights=(5, 7), total=12)"),
    (ChiSquareReport, (1.5, 3, 16.27, 0.001, True, 0.25),
     (1.5, 3, 16.27, 0.001, False, 0.25),
     "ChiSquareReport(statistic=1.5, dof=3, threshold=16.27, alpha=0.001,"
     " passed=True, max_rel_deviation=0.25)"),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, values, other, text", CASES, ids=IDS)
def test_value_class_contract(cls, values, other, text):
    obj = cls(*values)
    assert obj == cls(*values) and not obj != cls(*values)
    assert obj != cls(*other)
    assert hash(obj) == hash(cls(*values)) == hash(values)
    assert repr(obj) == text
    assert cls(**dict(zip(cls.__match_args__, values))) == obj
    for name in cls.__match_args__:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert tuple(getattr(obj, name) for name in cls.__match_args__) == values


def test_value_classes_differ_across_classes():
    """Records with equal fields are equal only within one class, and
    never equal the tuple of their fields."""
    objs = [Partition(3, ((1, 3), (2,))), Braid(3, ((1, 3), (2,))),
            CrossingReport(3, ((1, 3), (2,)))]
    for i, a in enumerate(objs):
        assert a != (3, ((1, 3), (2,)))
        for b in objs[i + 1:]:
            assert a != b and b != a
    assert len(set(objs)) == 3


@pytest.mark.parametrize("cls, values, other, text", CASES, ids=IDS)
def test_value_classes_pickle_and_copy(cls, values, other, text):
    obj = cls(*values)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(obj, protocol))
        assert type(back) is cls and back == obj
    for clone in (copy.copy(obj), copy.deepcopy(obj)):
        assert type(clone) is cls and clone == obj and repr(clone) == text


def test_value_classes_match_positionally():
    match Partition(2, ((1, 2),)):
        case Partition(n, blocks):
            assert (n, blocks) == (2, ((1, 2),))
        case _:
            pytest.fail("Partition did not match positionally")
