"""The per-request records keep their frozen-dataclass contract.

``GramResponse``, ``AuthorizationRequest``, ``VerificationResult`` and
``Decision`` are built on every request, so each stores its fields in
one step through its own ``__init__`` instead of the dataclass's one
frozen ``__setattr__`` per field.  These tests pin that the shortcut
changes nothing else: fields, defaults, equality, hash, repr,
``replace``, pickling and immutability are those of the plain frozen
dataclass, and a field added to a record without its constructor
fails here.
"""

import dataclasses
import inspect
import pickle

import pytest

from repro.core.attributes import Action
from repro.core.decision import Decision, Effect
from repro.core.pipeline import DecisionContext
from repro.core.request import AuthorizationRequest
from repro.gram.protocol import GramErrorCode, GramJobState, GramResponse, JobContact
from repro.gsi.credentials import CertificateAuthority
from repro.gsi.names import DistinguishedName
from repro.gsi.verification import VerificationResult
from repro.rsl.parser import parse_specification

KATE = DistinguishedName.parse("/O=Grid/OU=org/CN=Kate")
BO = DistinguishedName.parse("/O=Grid/OU=org/CN=Bo")
CA = DistinguishedName.parse("/O=Grid/CN=CA")
SPEC = parse_specification("&(executable=test2)(jobtag=NFC)(count=2)")


def _context() -> DecisionContext:
    return DecisionContext("dec-1", str(KATE), "cancel", jobtag="NFC")


#: Per record: a value for every field, none of them its default.
RECORDS = [
    pytest.param(
        GramResponse,
        dict(
            code=GramErrorCode.AUTHORIZATION_DENIED,
            message="denied",
            reasons=("no statement grants cancel",),
            contact=JobContact(host="gk.example.org", job_id="7"),
            state=GramJobState.ACTIVE,
            job_owner=str(BO),
            failure_source="combined:vo+local",
            failure_kind="timeout",
            retry_after=2.5,
            decision_context=_context(),
        ),
        id="GramResponse",
    ),
    pytest.param(
        AuthorizationRequest,
        dict(
            requester=KATE,
            action=Action.CANCEL,
            job_description=SPEC,
            jobowner=BO,
            job_id="7",
            credential=CertificateAuthority(str(CA)).issue(str(KATE)),
        ),
        id="AuthorizationRequest",
    ),
    pytest.param(
        VerificationResult,
        dict(
            identity=KATE,
            subject=DistinguishedName.parse(f"{KATE}/CN=proxy"),
            chain_length=2,
            proxy_depth=1,
            anchor=CA,
        ),
        id="VerificationResult",
    ),
    pytest.param(
        Decision,
        dict(
            effect=Effect.DENY,
            reasons=("no statement grants cancel",),
            source="vo",
            context=_context(),
        ),
        id="Decision",
    ),
]


def _field_built(cls, values):
    """What a generated dataclass ``__init__`` does: one frozen store
    per field, in declaration order."""
    record = object.__new__(cls)
    for item in dataclasses.fields(cls):
        object.__setattr__(record, item.name, values[item.name])
    return record


def _field_values(record):
    return tuple(getattr(record, item.name) for item in dataclasses.fields(record))


@pytest.mark.parametrize("cls, values", RECORDS)
class TestOneStepRecords:
    def test_constructor_declares_every_field_with_its_default(self, cls, values):
        declared = dataclasses.fields(cls)
        assert [item.name for item in declared] == list(values)
        parameters = list(inspect.signature(cls.__init__).parameters.values())[1:]
        assert [p.name for p in parameters] == [item.name for item in declared]
        for parameter, item in zip(parameters, declared):
            expected = (
                inspect.Parameter.empty
                if item.default is dataclasses.MISSING
                else item.default
            )
            assert parameter.default == expected, item.name
        assert dataclasses.is_dataclass(cls)
        assert cls.__dataclass_params__.frozen

    def test_init_sets_every_declared_field(self, cls, values):
        record = cls(**values)
        for item in dataclasses.fields(cls):
            assert item.name in vars(record), item.name
            assert getattr(record, item.name) is values[item.name]
        required = {
            item.name: values[item.name]
            for item in dataclasses.fields(cls)
            if item.default is dataclasses.MISSING
        }
        defaulted = cls(**required)
        for item in dataclasses.fields(cls):
            assert item.name in vars(defaulted), item.name

    def test_matches_the_field_by_field_record(self, cls, values):
        record = cls(**values)
        reference = _field_built(cls, values)
        assert _field_values(record) == _field_values(reference)
        assert record == reference
        assert not record != reference
        assert hash(record) == hash(reference)
        assert repr(record) == repr(reference)
        assert str(record) == str(reference)

    def test_compare_false_fields_stay_out_of_equality(self, cls, values):
        excluded = [item.name for item in dataclasses.fields(cls) if not item.compare]
        record = cls(**values)
        for name in excluded:
            other = cls(**{**values, name: None})
            assert other == record
            assert hash(other) == hash(record)
        compared = [item.name for item in dataclasses.fields(cls) if item.compare]
        changed = cls(**{**values, compared[-1]: None})
        assert changed != record

    def test_replace_and_pickle_round_trip(self, cls, values):
        record = cls(**values)
        name = dataclasses.fields(cls)[0].name
        assert dataclasses.replace(record) == record
        swapped = dataclasses.replace(record, **{name: values[name]})
        assert swapped == record and swapped is not record
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record
        assert repr(copy) == repr(record)
        assert hash(copy) == hash(record)

    def test_assignment_raises(self, cls, values):
        record = cls(**values)
        for item in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, item.name, values[item.name])
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, item.name)
