"""Extended attributes, actions, and authorization requests."""

import pytest

from repro.core.attributes import ACTION, JOBOWNER, JOBTAG, Action
from repro.core.pipeline import DecisionContext, request_key
from repro.core.request import AuthorizationRequest
from repro.gsi.names import DistinguishedName
from repro.rsl.ast import Specification
from repro.rsl.parser import parse_specification

ALICE = "/O=Grid/OU=org/CN=Alice"
BOB = "/O=Grid/OU=org/CN=Bob"


class TestAction:
    def test_parse_canonical_values(self):
        assert Action.parse("start") is Action.START
        assert Action.parse("cancel") is Action.CANCEL
        assert Action.parse("information") is Action.INFORMATION
        assert Action.parse("signal") is Action.SIGNAL

    def test_parse_is_case_insensitive(self):
        assert Action.parse("START") is Action.START

    def test_status_aliases_information(self):
        assert Action.parse("status") is Action.INFORMATION

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            Action.parse("explode")

    def test_management_classification(self):
        assert not Action.START.is_management
        assert Action.CANCEL.is_management
        assert Action.SIGNAL.is_management


class TestStartRequests:
    def test_requester_is_owner(self):
        request = AuthorizationRequest.start(
            ALICE, parse_specification("&(executable=x)")
        )
        assert request.owner == request.requester
        assert request.is_self_managed

    def test_evaluation_spec_adds_computed_attributes(self):
        request = AuthorizationRequest.start(
            ALICE, parse_specification("&(executable=x)")
        )
        spec = request.evaluation_specification()
        assert spec.first_value(ACTION) == "start"
        assert spec.first_value(JOBOWNER) == ALICE

    def test_spoofed_action_is_replaced(self):
        request = AuthorizationRequest.start(
            ALICE, parse_specification("&(executable=x)(action=cancel)")
        )
        spec = request.evaluation_specification()
        values = [
            str(v)
            for r in spec.relations_for(ACTION)
            for v in r.values
        ]
        assert values == ["start"]

    def test_spoofed_jobowner_is_replaced(self):
        request = AuthorizationRequest.start(
            ALICE, parse_specification(f'&(executable=x)(jobowner="{BOB}")')
        )
        spec = request.evaluation_specification()
        assert spec.first_value(JOBOWNER) == ALICE

    def test_jobtag_accessor(self):
        request = AuthorizationRequest.start(
            ALICE, parse_specification("&(executable=x)(jobtag=NFC)")
        )
        assert request.jobtag == "NFC"

    def test_jobtag_absent(self):
        request = AuthorizationRequest.start(
            ALICE, parse_specification("&(executable=x)")
        )
        assert request.jobtag is None


class TestManagementRequests:
    def test_manage_carries_owner(self):
        request = AuthorizationRequest.manage(
            ALICE, "cancel", parse_specification("&(executable=x)"), jobowner=BOB
        )
        assert str(request.owner) == BOB
        assert not request.is_self_managed

    def test_manage_accepts_action_enum(self):
        request = AuthorizationRequest.manage(
            ALICE,
            Action.SIGNAL,
            parse_specification("&(executable=x)"),
            jobowner=BOB,
        )
        assert request.action is Action.SIGNAL

    def test_manage_rejects_start(self):
        with pytest.raises(ValueError):
            AuthorizationRequest.manage(
                ALICE, "start", parse_specification("&(executable=x)"), jobowner=BOB
            )

    def test_accepts_distinguished_name_objects(self):
        dn = DistinguishedName.parse(ALICE)
        request = AuthorizationRequest.manage(
            dn, "cancel", parse_specification("&(a=1)"), jobowner=dn
        )
        assert request.is_self_managed

    def test_evaluation_spec_owner_is_initiator_not_requester(self):
        request = AuthorizationRequest.manage(
            ALICE, "cancel", parse_specification("&(executable=x)"), jobowner=BOB
        )
        spec = request.evaluation_specification()
        assert spec.first_value(JOBOWNER) == BOB

    def test_str_mentions_action_and_job(self):
        request = AuthorizationRequest.manage(
            ALICE,
            "cancel",
            parse_specification("&(executable=x)"),
            jobowner=BOB,
            job_id="42",
        )
        text = str(request)
        assert "cancel" in text
        assert "42" in text


#: ``(description, its jobtag)``: what ``first_value(JOBTAG)`` reads.
JOBTAG_DESCRIPTIONS = [
    pytest.param("&(executable=x)(count=1)", None, id="no-jobtag"),
    pytest.param("&(jobtag=NFC)(executable=x)(jobtag=ADS)", "NFC", id="two-eq-jobtags"),
    pytest.param("&(executable=x)(jobtag!=NFC)", None, id="not-equal-jobtag"),
    pytest.param("&(jobtag!=ADS)(jobtag=NFC)", "NFC", id="not-equal-then-eq"),
    pytest.param("&(executable=x)(JOBTAG=NFC)", "NFC", id="upper-case-attribute"),
]


def _fresh(text: str) -> Specification:
    """A description object no earlier request has read."""
    return Specification(relations=parse_specification(text).relations)


@pytest.mark.parametrize("text, jobtag", JOBTAG_DESCRIPTIONS)
class TestJobtagKeptOnTheDescription:
    def test_jobtag_is_the_first_eq_value(self, text, jobtag):
        spec = _fresh(text)
        request = AuthorizationRequest.start(ALICE, spec)
        assert spec.first_value(JOBTAG) == jobtag
        assert request.jobtag == jobtag
        manage = AuthorizationRequest.manage(BOB, "cancel", spec, jobowner=ALICE)
        assert manage.jobtag == jobtag

    def test_one_scan_serves_every_request_on_the_job(self, text, jobtag, monkeypatch):
        spec = _fresh(text)
        scans = []
        first_value = Specification.first_value

        def counting(self, attribute):
            scans.append(attribute)
            return first_value(self, attribute)

        monkeypatch.setattr(Specification, "first_value", counting)
        requests = [AuthorizationRequest.start(ALICE, spec, job_id="7")] + [
            AuthorizationRequest.manage(who, action, spec, jobowner=ALICE, job_id="7")
            for who in (ALICE, BOB)
            for action in ("information", "cancel", "signal")
        ]
        for request in requests:
            request_key(request)
            assert DecisionContext.from_request(request).jobtag == (jobtag or "")
            assert request.jobtag == jobtag
        assert scans == [JOBTAG]

    def test_request_key_is_unchanged(self, text, jobtag):
        spec = _fresh(text)
        request = AuthorizationRequest.manage(
            BOB, "information", spec, jobowner=ALICE, job_id="7"
        )
        assert request_key(request) == (BOB, "information", jobtag, ALICE, spec)
        start = AuthorizationRequest.start(ALICE, spec)
        assert request_key(start) == (ALICE, "start", jobtag, ALICE, spec)
