"""Every decision through the Job Manager carries a DecisionContext.

The acceptance property of the decision pipeline: whatever the entry
point (submit, cancel, status, signal), whatever the placement (Job
Manager PEP or the §6.2 Gatekeeper PEP), the response carries a
:class:`~repro.core.pipeline.DecisionContext` explaining the decision
— per-stage timings, contributing policy sources, cache status.
"""

import pytest

from repro.core.callout import GRAM_AUTHZ_CALLOUT
from repro.core.parser import parse_policy
from repro.gram.audit import AuditEntry
from repro.gram.client import GramClient
from repro.gram.jobmanager import AuthorizationMode
from repro.gram.protocol import GramErrorCode, GramResponse
from repro.gram.service import GramService, ServiceConfig
from repro.testing import ExceptionFault, inject

from tests.conftest import BO, KATE

VO_POLICY = f"""
&/O=Grid/O=Globus/OU=mcs.anl.gov:
    (action = start)(jobtag != NULL)
{BO}:
    &(action=start)(executable=test2)(jobtag=NFC)(count<4)
    &(action=information)(jobowner=self)
    &(action=signal)(jobowner=self)
{KATE}:
    &(action=start)(jobtag=NFC)(count<=32)
    &(action=cancel)(jobtag=NFC)
"""

LOCAL_POLICY = """
/O=Grid/O=Globus/OU=mcs.anl.gov:
    &(action=start)(count<=32)
    &(action=cancel)
    &(action=information)
    &(action=signal)
"""

BO_START = "&(executable=test2)(directory=/sandbox/test)(jobtag=NFC)(count=2)(runtime=100)"


def build_service(**overrides):
    config = ServiceConfig(
        policies=(
            parse_policy(VO_POLICY, name="vo"),
            parse_policy(LOCAL_POLICY, name="local"),
        ),
        **overrides,
    )
    return GramService(config)


@pytest.fixture
def service():
    return build_service()


@pytest.fixture
def bo(service):
    return GramClient(service.add_user(BO, "boliu"), service.gatekeeper)


@pytest.fixture
def kate(service):
    return GramClient(service.add_user(KATE, "keahey"), service.gatekeeper)


def assert_explained(response: GramResponse, action: str):
    """The response's context has timings and policy provenance."""
    context = response.decision_context
    assert context is not None, f"no decision context on {response}"
    assert context.action == action
    assert context.effect is not None
    assert context.stages, "no per-stage timings recorded"
    assert all(stage.duration >= 0.0 for stage in context.stages)
    assert "pep" in context.stage_names
    assert set(context.source_names) >= {"vo", "local"} or context.sources
    return context


class TestJobManagerPlacement:
    def test_submit_carries_context(self, bo):
        response = bo.submit(BO_START)
        assert response.ok
        context = assert_explained(response, "start")
        assert context.source_names == ("vo", "local")
        assert context.placement == "job-manager"

    def test_denied_submit_carries_context(self, bo):
        response = bo.submit("&(executable=evil)(jobtag=NFC)(count=1)")
        assert response.code is GramErrorCode.AUTHORIZATION_DENIED
        context = assert_explained(response, "start")
        assert context.effect.value == "deny"

    def test_status_carries_context(self, service, bo):
        submitted = bo.submit(BO_START)
        service.run(10.0)
        response = bo.status(submitted.contact)
        assert response.ok
        assert_explained(response, "information")

    def test_cancel_carries_context(self, service, bo, kate):
        submitted = bo.submit(BO_START)
        service.run(5.0)
        response = kate.cancel(submitted.contact)
        assert response.ok
        context = assert_explained(response, "cancel")
        assert context.requester == KATE
        assert context.jobowner == BO

    def test_signal_carries_context(self, service, bo):
        submitted = bo.submit(BO_START)
        response = bo.signal(submitted.contact, priority=3)
        assert response.ok
        assert_explained(response, "signal")

    def test_denied_management_carries_context(self, service, bo, kate):
        submitted = bo.submit(BO_START)
        response = bo.cancel(submitted.contact)  # Bo has no cancel grant
        assert response.code is GramErrorCode.AUTHORIZATION_DENIED
        context = assert_explained(response, "cancel")
        assert context.effect.value == "deny"

    def test_contexts_are_distinct_per_decision(self, service, bo):
        first = bo.submit(BO_START)
        second = bo.status(first.contact)
        assert (
            first.decision_context.request_id
            != second.decision_context.request_id
        )


class TestDuration:
    """A decision's duration is the PEP's wall time around its stack.

    Stages nest — ``pep`` encloses ``callout:*``, which encloses the
    ``source:*`` stages — so summing them counts the same time two or
    three times over.
    """

    def test_fresh_decision_duration_is_its_pep_stage(self, service, bo):
        response = bo.submit(BO_START)
        assert response.ok
        context = response.decision_context
        stages = {stage.name: stage.duration for stage in context.stages}
        assert {"pep", "source:vo", "source:local"} <= set(stages)
        assert any(name.startswith("callout:") for name in stages)
        assert context.duration == stages["pep"]
        assert context.to_dict()["duration"] == stages["pep"]
        (record,) = service.pep.audit_log
        assert AuditEntry.from_record(record).duration == stages["pep"]

    def test_failed_decision_duration_is_its_pep_stage(self, service, bo):
        inject(service.registry, GRAM_AUTHZ_CALLOUT, ExceptionFault())
        response = bo.submit(BO_START)
        assert response.code is GramErrorCode.AUTHORIZATION_SYSTEM_FAILURE
        context = response.decision_context
        stages = {stage.name: stage.duration for stage in context.stages}
        assert "pep" in stages and len(stages) > 1
        assert context.duration == stages["pep"]


class TestGatekeeperPlacement:
    def test_gatekeeper_pep_contexts(self):
        service = build_service(pep_in_gatekeeper=True)
        bo = GramClient(service.add_user(BO, "boliu"), service.gatekeeper)
        response = bo.submit(BO_START)
        assert response.ok
        # The returned context is the innermost (Job Manager) decision;
        # the Gatekeeper PEP recorded its own decision in its audit log.
        assert response.decision_context.placement == "job-manager"
        gk_records = service.gatekeeper_pep.audit_log
        assert gk_records
        assert gk_records[-1].context.placement == "gatekeeper"
        assert gk_records[-1].context.stages

    def test_gatekeeper_denial_carries_gatekeeper_context(self):
        service = build_service(pep_in_gatekeeper=True)
        bo = GramClient(service.add_user(BO, "boliu"), service.gatekeeper)
        response = bo.submit("&(executable=evil)(jobtag=NFC)(count=1)")
        assert response.code is GramErrorCode.AUTHORIZATION_DENIED
        context = response.decision_context
        assert context is not None
        assert context.placement == "gatekeeper"
        assert context.effect.value == "deny"
        assert context.stages


class TestLegacyMode:
    def test_legacy_mode_has_no_pipeline(self):
        service = GramService(ServiceConfig(mode=AuthorizationMode.LEGACY))
        bo = GramClient(service.add_user(BO, "boliu"), service.gatekeeper)
        response = bo.submit(BO_START)
        assert response.ok
        assert response.decision_context is None


class TestWireTransparency:
    def test_context_survives_the_wire(self, bo):
        response = bo.submit(BO_START)
        again = GramResponse.from_wire(response.to_wire())
        context = again.decision_context
        assert context is not None
        assert context.request_id == response.decision_context.request_id
        assert context.stage_names == response.decision_context.stage_names
        assert context.source_names == response.decision_context.source_names

    def test_grant_id_survives_the_wire(self):
        service = build_service(capability_grants=True)
        bo = GramClient(service.add_user(BO, "boliu"), service.gatekeeper)
        response = bo.submit(BO_START)
        assert response.decision_context.capability.startswith("cap-")
        again = GramResponse.from_wire(response.to_wire())
        assert again.decision_context.capability == response.decision_context.capability

    def test_wire_form_without_context_is_unchanged(self):
        service = GramService(ServiceConfig(mode=AuthorizationMode.LEGACY))
        bo = GramClient(service.add_user(BO, "boliu"), service.gatekeeper)
        response = bo.submit(BO_START)
        assert "decision_context" not in response.to_wire()


class TestServiceDecisionCache:
    def test_poll_loop_hits_the_cache(self, monkeypatch):
        service = build_service(decision_cache=True)
        bo = GramClient(service.add_user(BO, "boliu"), service.gatekeeper)
        submitted = bo.submit(BO_START)
        first_poll = bo.status(submitted.contact)
        second_poll = bo.status(submitted.contact)
        assert first_poll.decision_context.cache_status == "miss"
        assert second_poll.decision_context.cache_status == "hit"
        assert service.pep.cache.hits >= 1

    def test_tracing_retains_every_decision(self):
        service = build_service()
        bo = GramClient(service.add_user(BO, "boliu"), service.gatekeeper)
        submitted = bo.submit(BO_START)
        bo.status(submitted.contact)
        assert len(service.pep.audit_log) >= 2
        jsonl = "\n".join(
            record.context.to_json() for record in service.pep.audit_log
        )
        assert '"start"' in jsonl and '"information"' in jsonl
