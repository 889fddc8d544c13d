"""The result records: plain ``__slots__`` classes on ``errors.Record``.

Each record's ``__init__`` takes its ``__slots__`` in order, which is what
equality, copying, pickling and the tests' ``replace`` rely on.  Records of
one type are equal when their fields are; the mutable ones are unhashable,
and ``RingClassification``, ``RadicalMembership`` and ``MElem`` are
immutable and hashable.
"""

from __future__ import annotations

import copy
import inspect
import pickle

import pytest
from oracles import replace

from cleanmat.decide import AuditReport, Decision
from cleanmat.errors import FrozenRecord, Record
from cleanmat.factor import Block, GSPCertificate, GSRCCertificate, SPCertificate, SRCCertificate
from cleanmat.matrices import PiRegularCertificate, StrongCleanCertificate
from cleanmat.quadz5 import ONE, ZERO, MElem, QuadInt
from cleanmat.rings import RadicalMembership, RingClassification

RECORDS = [
    RingClassification,
    RadicalMembership,
    StrongCleanCertificate,
    PiRegularCertificate,
    SRCCertificate,
    SPCertificate,
    Block,
    GSRCCertificate,
    GSPCertificate,
    Decision,
    AuditReport,
    MElem,
]
FROZEN = {RingClassification, RadicalMembership, MElem}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_takes_its_slots_in_order(cls):
    assert issubclass(cls, Record)
    assert issubclass(cls, FrozenRecord) == (cls in FROZEN)
    params = list(inspect.signature(cls.__init__).parameters)
    assert params == ["self", *cls.__slots__]


def _sample(cls):
    """Two records of ``cls`` with different fields."""
    if cls is MElem:
        return MElem(QuadInt(2), ZERO), MElem(ZERO, QuadInt(2))
    n = len(cls.__slots__)
    return cls(*range(n)), cls(*range(1, n + 1))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_compare_copy_and_pickle_by_their_fields(cls):
    a, b = _sample(cls)
    again = cls(*(getattr(a, name) for name in cls.__slots__))
    assert a == again and not a != again and a != b
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is cls and twin == a
    if cls is not MElem:  # MElem keeps its own [a, b] repr
        assert repr(a) == f"{cls.__name__}(" + ", ".join(
            f"{name}={getattr(a, name)!r}" for name in cls.__slots__
        ) + ")"
    if cls in FROZEN:
        assert hash(a) == hash(again)
        with pytest.raises(AttributeError):
            setattr(a, cls.__slots__[0], getattr(b, cls.__slots__[0]))
        with pytest.raises(AttributeError):
            delattr(a, cls.__slots__[0])
        assert a == again
    else:
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, cls.__slots__[0], getattr(b, cls.__slots__[0]))
        assert getattr(a, cls.__slots__[0]) == getattr(b, cls.__slots__[0])
    assert not hasattr(a, "__dict__")


def test_records_of_different_types_differ():
    blocks = [Block((0,), 1, None)]
    assert GSRCCertificate(blocks) != GSPCertificate(blocks)
    assert GSRCCertificate(blocks) == GSRCCertificate(list(blocks))
    assert Decision("yes", "gSRC") == Decision("yes", "gSRC", None, None, None, None, None)
    assert AuditReport({}, 1, 0, 0, [], {}).wall_time_s == 0.0


def test_melem_checks_membership_in_init():
    with pytest.raises(ValueError):
        MElem(ONE, ZERO)
    with pytest.raises(ValueError):
        MElem(QuadInt(2), ONE)


def test_replace_rebuilds_a_record_with_fields_changed():
    cert = SRCCertificate(1, 2, 3, 4, "SRC")
    bad = replace(cert, kind="SR", bezout_v=None)
    assert bad == SRCCertificate(1, 2, 3, None, "SR") and cert.kind == "SRC"
    assert replace(cert) == cert and replace(cert) is not cert
    frozen = replace(RingClassification(True, True, True), is_local=False)
    assert frozen == RingClassification(False, True, True)
    with pytest.raises(TypeError, match="no field"):
        replace(cert, f2=0)
