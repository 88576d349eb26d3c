"""The policy enforcement point."""

import gc
import json
import weakref

import pytest

from repro.core.builtin_callouts import broken_callout, deny_all, permit_all
from repro.core.callout import (
    GATEKEEPER_AUTHZ_CALLOUT,
    GRAM_AUTHZ_CALLOUT,
    CalloutRegistry,
)
from repro.core.errors import AuthorizationDenied, AuthorizationSystemFailure
from repro.core.pep import EnforcementPoint, PEPPlacement
from repro.core.request import AuthorizationRequest
from repro.gram.audit import export_audit_log
from repro.rsl.parser import parse_specification

ALICE = "/O=Grid/OU=org/CN=Alice"


def make_pep(callout):
    registry = CalloutRegistry()
    registry.register(GRAM_AUTHZ_CALLOUT, callout)
    return EnforcementPoint(registry=registry)


@pytest.fixture
def request_():
    return AuthorizationRequest.start(ALICE, parse_specification("&(executable=x)"))


class TestAuthorize:
    def test_permit_returns_decision(self, request_):
        pep = make_pep(permit_all)
        decision = pep.authorize(request_)
        assert decision.is_permit
        assert pep.permits == 1

    def test_denial_raises_with_reasons(self, request_):
        pep = make_pep(deny_all)
        with pytest.raises(AuthorizationDenied) as excinfo:
            pep.authorize(request_)
        assert excinfo.value.reasons
        assert pep.denials == 1

    def test_system_failure_propagates(self, request_):
        pep = make_pep(broken_callout)
        with pytest.raises(AuthorizationSystemFailure):
            pep.authorize(request_)
        assert pep.failures == 1

    def test_unconfigured_registry_fails_closed(self, request_):
        pep = EnforcementPoint(registry=CalloutRegistry())
        with pytest.raises(AuthorizationSystemFailure):
            pep.authorize(request_)


class TestDecide:
    def test_decide_swallows_denial(self, request_):
        pep = make_pep(deny_all)
        decision = pep.decide(request_)
        assert decision.is_deny

    def test_decide_still_raises_on_system_failure(self, request_):
        pep = make_pep(broken_callout)
        with pytest.raises(AuthorizationSystemFailure):
            pep.decide(request_)

    def test_decide_matches_authorize_on_permit(self, request_):
        pep = make_pep(permit_all)
        via_decide = pep.decide(request_)
        via_authorize = pep.authorize(request_)
        assert via_decide.is_permit and via_authorize.is_permit
        assert via_decide.source == via_authorize.source
        assert pep.permits == 2

    def test_decide_matches_authorize_on_denial(self, request_):
        pep = make_pep(deny_all)
        via_decide = pep.decide(request_)
        with pytest.raises(AuthorizationDenied) as excinfo:
            pep.authorize(request_)
        assert via_decide.reasons == excinfo.value.reasons
        assert via_decide.context is not None
        assert via_decide.context.effect is via_decide.effect
        assert pep.denials == 2

    def test_decide_counts_like_authorize(self, request_):
        """Both entry points feed the same metrics and audit trail."""
        pep = make_pep(deny_all)
        pep.decide(request_)
        with pytest.raises(AuthorizationDenied):
            pep.authorize(request_)
        assert pep.decisions_made == 2
        assert len(pep.audit_log) == 2

    def test_decide_system_failure_carries_context(self, request_):
        pep = make_pep(broken_callout)
        with pytest.raises(AuthorizationSystemFailure) as excinfo:
            pep.decide(request_)
        assert excinfo.value.context is not None
        assert excinfo.value.context.failure


class TestAudit:
    def test_every_decision_is_audited(self, request_):
        pep = make_pep(permit_all)
        pep.authorize(request_)
        assert len(pep.audit_log) == 1
        record = pep.audit_log[0]
        assert record.outcome == "permit"

    def test_failures_audited_with_message(self, request_):
        pep = make_pep(broken_callout)
        with pytest.raises(AuthorizationSystemFailure):
            pep.authorize(request_)
        record = pep.audit_log[0]
        assert record.outcome == "failure"
        assert record.failure

    def test_audit_log_is_bounded(self, request_):
        pep = make_pep(permit_all)
        pep.audit_limit = 5
        for _ in range(12):
            pep.authorize(request_)
        assert len(pep.audit_log) == 5
        assert pep.permits == 12

    def test_decisions_made(self, request_):
        pep = make_pep(permit_all)
        pep.authorize(request_)
        pep.authorize(request_)
        assert pep.decisions_made == 2


class TestAuditRetention:
    """The audit log keeps what explains a decision, not the request."""

    @pytest.mark.parametrize(
        "callout, outcome",
        [(permit_all, "permit"), (deny_all, "deny"), (broken_callout, "failure")],
    )
    def test_request_is_freed_and_the_entry_kept(self, tmp_path, callout, outcome):
        pep = make_pep(callout)
        request = AuthorizationRequest.start(
            ALICE, parse_specification("&(executable=x)")
        )
        alive = weakref.ref(request)
        try:
            pep.authorize(request)
        except (AuthorizationDenied, AuthorizationSystemFailure):
            pass
        before, after = tmp_path / "before.jsonl", tmp_path / "after.jsonl"
        export_audit_log(pep, str(before))
        del request
        gc.collect()
        assert alive() is None
        export_audit_log(pep, str(after))
        assert after.read_text() == before.read_text()
        (line,) = before.read_text().splitlines()
        assert json.loads(line)["outcome"] == outcome


class TestPlacement:
    def test_default_placement_is_job_manager(self):
        assert make_pep(permit_all).placement is PEPPlacement.JOB_MANAGER

    def test_gatekeeper_placement(self):
        registry = CalloutRegistry()
        registry.register(GRAM_AUTHZ_CALLOUT, permit_all)
        pep = EnforcementPoint(registry=registry, placement=PEPPlacement.GATEKEEPER)
        assert pep.placement is PEPPlacement.GATEKEEPER
        assert "gatekeeper" in str(pep)

    def test_gatekeeper_callout_type_is_invoked(self, request_):
        """The §6.2 placement uses its own abstract callout type."""
        registry = CalloutRegistry()
        registry.register(GATEKEEPER_AUTHZ_CALLOUT, permit_all)
        pep = EnforcementPoint(
            registry=registry,
            callout_type=GATEKEEPER_AUTHZ_CALLOUT,
            placement=PEPPlacement.GATEKEEPER,
        )
        decision = pep.authorize(request_)
        assert decision.is_permit
        assert decision.context.placement == "gatekeeper"

    def test_gatekeeper_type_unconfigured_fails_closed(self, request_):
        """gram.authz being configured does not satisfy gatekeeper.authz."""
        registry = CalloutRegistry()
        registry.register(GRAM_AUTHZ_CALLOUT, permit_all)
        pep = EnforcementPoint(
            registry=registry,
            callout_type=GATEKEEPER_AUTHZ_CALLOUT,
            placement=PEPPlacement.GATEKEEPER,
        )
        with pytest.raises(AuthorizationSystemFailure):
            pep.authorize(request_)

    def test_both_placements_agree_on_the_same_policy(self, request_):
        """Same callout behind either placement yields the same effect."""
        registry = CalloutRegistry()
        registry.register(GRAM_AUTHZ_CALLOUT, deny_all)
        registry.register(GATEKEEPER_AUTHZ_CALLOUT, deny_all)
        jm_pep = EnforcementPoint(registry=registry)
        gk_pep = EnforcementPoint(
            registry=registry,
            callout_type=GATEKEEPER_AUTHZ_CALLOUT,
            placement=PEPPlacement.GATEKEEPER,
        )
        assert jm_pep.decide(request_).effect is gk_pep.decide(request_).effect
        assert jm_pep.decide(request_).context.placement == "job-manager"
        assert gk_pep.decide(request_).context.placement == "gatekeeper"
